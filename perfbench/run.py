"""tspgap benchmark: four closed-loop workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload {search,certify,bound,curved,all}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a source checkout: tspgap is imported from the
checkout's ``src/``, never from an installed copy.  One client runs the
workload's operations back to back in this process, single threaded, with
BLAS pinned to one thread.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``).  ``--workload all`` runs each workload in its own
process and prints one table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("search", "certify", "bound", "curved")
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
MIN_PASSES = 3
TRACED_MIN_PASSES = 2  # of each kind, so that counters can be compared

# Reference speed.  The machine's speed moves by up to 1.8x within seconds,
# because other tenants share its cores, and a fixed reference kernel slows
# by the same factor: over 10 s windows the median time of one operation
# varied by 16-20%, its ratio to the kernel's time by 2-5%.  So the kernel
# runs KERNEL_REPEATS times between any two operations or input builds, and
# each is also reported in reference seconds: its time multiplied by
# REF_KERNEL_S over the median of the kernel times just before and after it.
REF_KERNEL_S = 0.001  # the kernel's time on a 2-core Xeon VM when no other tenant is busy
KERNEL_REPEATS = 3


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _workers_ok() -> bool:
    raw = os.environ.get("TSPGAP_WORKERS")
    if raw is None:
        return True
    try:
        return int(raw) <= 1
    except ValueError:
        return False


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _fingerprint() -> str:
    """Digest of the program and benchmark sources: counters recorded under
    another digest are not compared."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _kernel() -> float:
    """Seconds for one run of the reference kernel: an interpreter loop over
    a dict plus small numpy operations, the mix that tspgap's code runs."""
    import numpy as np

    t = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(5000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    a = np.arange(64.0)
    for _ in range(400):
        a = np.minimum(a, a[::-1] + 1.0)
    return time.perf_counter() - t


def _kernels() -> list[float]:
    return [_kernel() for _ in range(KERNEL_REPEATS)]


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _p90(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def _import_times(repeats: int) -> tuple[list[float], list[list[float]]]:
    """Seconds to import numpy, tspgap and the workloads in a fresh
    interpreter, `repeats` times, and the kernel times before the first
    import and after each."""
    code = (
        f"import sys, time; sys.path[:0] = [{SRC!r}, {HERE!r}]; t = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - t)"
    )
    times, kernels = [], [_kernels()]
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
        kernels.append(_kernels())
    return times, kernels


def _to_ref(times: list[float], kernels: list[list[float]]) -> list[float]:
    """times[j] in reference seconds; kernels[j] and kernels[j + 1] are the
    kernel times measured just before and just after it."""
    return [t * REF_KERNEL_S / statistics.median(a + b) for t, a, b in zip(times, kernels, kernels[1:])]


@dataclass
class Pass:
    """One timed pass: each operation's seconds, and the kernel times
    measured before the first operation and after each."""

    traced: bool
    op_s: list[float]
    kernel_s: list[list[float]]

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)

    @property
    def ref_op_s(self) -> list[float]:
        return _to_ref(self.op_s, self.kernel_s)

    @property
    def ref_wall_s(self) -> float:
        return sum(self.ref_op_s)


class Run:
    """One invocation on one workload: set-up, then timed passes over the
    same inputs until the time budget is spent.  The first pass's outputs
    get the thorough checks and become the reference for later passes."""

    def __init__(self, setup_fn, seed: int, smoke: bool, workdir: str):
        self.setup_fn = setup_fn
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.ops = []
        self.reference: list[dict] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self) -> tuple[list[float], list[list[float]]]:
        """Builds the inputs SETUP_REPEATS times; returns the seconds of each
        build and the kernel times measured before the first and after each."""
        times, kernels = [], [_kernels()]
        for _ in range(1 if self.smoke else SETUP_REPEATS):
            t = time.perf_counter()
            self.ops = self.setup_fn(self.seed, self.workdir, self.smoke)
            times.append(time.perf_counter() - t)
            kernels.append(_kernels())
        return times, kernels

    def run_pass(self, tracer=None, pass_index: int = 0) -> tuple[Pass, list]:
        outs, times, kernels = [], [], [_kernels()]
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = pass_index * len(self.ops) + k
            t = time.perf_counter()
            try:
                out = (op.call(), None)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = (None, f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t)
            kernels.append(_kernels())
            outs.append(out)
        return Pass(tracer is not None, times, kernels), outs

    def check_pass(self, outs, thorough: bool) -> list[dict]:
        """Checks every output; returns the pass's records."""
        records = []
        for k, (op, (out, err)) in enumerate(zip(self.ops, outs)):
            self.attempted += 1
            errs = [err] if err else []
            rec = None
            if not errs:
                try:
                    errs = op.check(out, thorough)
                    rec = op.record(out)
                except Exception as exc:  # a malformed output fails its check
                    errs = [f"check raised {type(exc).__name__}: {exc}"]
            if rec is not None and self.reference is not None and rec != self.reference[k]:
                errs.append("output differs from the first pass on the same input")
            if errs:
                self.failed += 1
                self.problems.extend(f"{op.key}: {e}" for e in errs)
            records.append(rec)
        return records

    def timed(self, budget: float, min_passes: int, tracer=None):
        """Timed passes until about `budget` seconds are spent.

        With a tracer, passes alternate between untraced and traced (the
        tracer is installed for the traced pass only), so that drift in the
        machine's speed affects both alike.  Returns the passes and the
        tracer totals of each traced pass.
        """
        passes, totals = [], []
        start = time.perf_counter()
        while True:
            done = len(passes)
            spent = time.perf_counter() - start
            if done >= min_passes and spent * (1 + 0.5 / done) >= budget:
                break
            if tracer is not None and done % 2 == 1:
                tracer.begin_pass()
                tracer.install()
                try:
                    p, outs = self.run_pass(tracer, done)
                finally:
                    tracer.uninstall()
                totals.append(tracer.pass_totals())
            else:
                p, outs = self.run_pass()
            passes.append(p)
            records = self.check_pass(outs, thorough=self.reference is None)
            if self.reference is None:
                self.reference = records
        return passes, totals


def _compare_store(key: str, entry: dict) -> list[str]:
    """Exact-repeat check across invocations: the records and counters of an
    earlier run on the same seed, sources and mode must match this run's."""
    path = os.path.join(OUT, "repeat.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    problems = []
    old = store.get(key)
    if old is not None:
        for part, value in entry.items():
            if part in old and old[part] != value:
                problems.append(f"{part} differ from an earlier run on the same seed")
    store[key] = {**(old or {}), **entry}
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh, sort_keys=True)
    os.replace(tmp, path)
    return problems


def _tag(workload: str, args) -> str:
    return f"{workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")


def _result_path(tag: str) -> str:
    return os.path.join(OUT, f"result-{tag}.json")


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    try:
        import numpy

        import tspgap
        import workloads
    except ImportError as exc:
        return _fail(f"cannot import tspgap from {SRC}: {exc}")
    if not os.path.abspath(tspgap.__file__).startswith(SRC + os.sep):
        return _fail(f"tspgap was imported from {tspgap.__file__}, not from {SRC}")
    declared = _declared()

    tag = _tag(args.workload, args)
    workdir = os.path.join(OUT, "inputs-" + tag)
    os.makedirs(workdir, exist_ok=True)
    run = Run(workloads.SETUPS[args.workload], args.seed, args.smoke, workdir)
    try:
        import_s, import_kernels = _import_times(1 if args.smoke else SETUP_REPEATS)
        build_s, setup_kernels = run.setup()
        tracer = None
        if args.trace:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
        passes, totals = run.timed(args.seconds, 2 * TRACED_MIN_PASSES if tracer else MIN_PASSES, tracer)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    op_times = [t for p in untraced for t in p.op_s]
    ref_op_times = [t for p in untraced for t in p.ref_op_s]
    setup_wall_s = _median(import_s) + _median(build_s)
    setup_ref_s = _median(_to_ref(import_s, import_kernels)) + _median(_to_ref(build_s, setup_kernels))
    # The same figures in plain seconds, as this run measured them.
    raw = {
        "wall_s": _median([p.wall_s for p in untraced]),
        "op_p50_s": _median(op_times),
        "op_p90_s": _p90(op_times),
        "setup_wall_s": setup_wall_s,
        "kernel_s": _median([k for p in untraced for g in p.kernel_s for k in g]),
    }

    counters = workloads.record_counters([r for r in run.reference if r])
    entry = {"records": run.reference}
    metrics: dict[str, float] = {}
    if tracer is not None:
        first = totals[0][0]
        for k, (c, _) in enumerate(totals[1:], 1):
            if c != first:
                diff = sorted(x for x in set(c) | set(first) if c.get(x) != first.get(x))
                run.problems.append(f"traced pass {k} counters differ from the first: {diff}")
        layer = [tracer_mod.layer_metrics(c, s, p.wall_s) for (c, s), p in zip(totals, traced)]
        for name, _ in declared[1]:
            metrics[name] = statistics.fmean(m.get(name, 0.0) for m in layer)
        metrics["trace.wall_s"] = _median([p.wall_s for p in traced])
        metrics["trace.untraced_wall_s"] = raw["wall_s"]
        # Each traced pass against the untraced pass just before it, both in
        # reference seconds.
        metrics["trace.overhead_ratio"] = statistics.median(
            t.ref_wall_s / u.ref_wall_s for u, t in zip(untraced, traced)
        )
        entry["traced_counters"] = dict(sorted(first.items()))
        spans_path = os.path.join(OUT, f"spans-{tag}.tsv.gz")
        tracer.write(spans_path)
    else:
        metrics["wall_ref_s"] = _median([p.ref_wall_s for p in untraced])
        metrics["op_p50_ref_s"] = _median(ref_op_times)
        metrics["op_p90_ref_s"] = _p90(ref_op_times)
        metrics["setup_s"] = setup_ref_s
        metrics["peak_rss_mb"] = _peak_rss_mb()
    key = f"{_fingerprint()}:{tag}"
    run.problems.extend(_compare_store(key, entry))

    fail_frac = run.failed / run.attempted
    p90 = _p90(ref_op_times)
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "tspgap_workers": os.environ.get("TSPGAP_WORKERS"),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "ops_per_pass": len(run.ops),
        "timed_passes": len(untraced),
        "op_samples": len(ref_op_times),
        "op_samples_beyond_p90": sum(t > p90 for t in ref_op_times),
    }
    result = {
        "env": env,
        "metrics": metrics,
        "raw": raw,
        "fail_frac": fail_frac,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "counters": counters,
        "setup_import_s": import_s,
        "setup_build_s": build_s,
        "setup_kernel_s": {"import": import_kernels, "build": setup_kernels},
        "passes": [{"traced": p.traced, "op_s": p.op_s, "kernel_s": p.kernel_s} for p in passes],
        "outputs": [{"op": op.key, **(rec or {})} for op, rec in zip(run.ops, run.reference)],
    }
    if tracer is not None:
        result["traced_counters"] = entry["traced_counters"]
        result["spans"] = os.path.relpath(spans_path, ROOT)
    with open(_result_path(tag), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    _print_report(args, env, metrics, raw, declared, run, fail_frac, counters)
    correct = run.failed == 0 and not run.problems
    units = dict(declared[args.trace])
    line = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n, _ in declared[args.trace]},
    }
    print(json.dumps(line))
    return 0


def _print_report(args, env, metrics, raw, declared, run, fail_frac, counters) -> None:
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
        f"{' smoke' if args.smoke else ''}: nproc={env['nproc']} python={env['python']}"
        f" numpy={env['numpy']} blas_threads={env['blas_threads']['OPENBLAS_NUM_THREADS']}"
        f" commit={env['commit'][:12]}"
    )
    print(
        f"  {env['ops_per_pass']} ops per pass, {env['timed_passes']} timed passes,"
        f" {env['op_samples']} op samples, {env['op_samples_beyond_p90']} beyond p90"
    )
    units = dict(declared[0] + declared[1])
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units.get(name, '1')}")
    for name, value in raw.items():
        print(f"  {name:42s} {value:14.6g} s   (measured, not scaled)")
    print(f"  {'fail_frac':42s} {fail_frac:14.6g} 1   ({run.failed}/{run.attempted})")
    print(f"  counters per pass: {json.dumps(counters, sort_keys=True)}")
    for op, rec in zip(run.ops, run.reference):
        if rec:
            print(f"  output {op.key:18s} ratio={rec['ratio']!r}" + (
                f" lp_cost={rec['lp_cost']!r}" if "lp_cost" in rec else ""))
    for p in run.problems:
        print(f"  FAILED {p}")


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); one table."""
    rows, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return _fail(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        rows[name] = res
    names = [n for n, _ in _declared()[args.trace]]
    print()
    print(f"{'metric':42s}" + "".join(f"{w:>14s}" for w in WORKLOADS) + "  unit")
    for n in names:
        unit = rows[WORKLOADS[0]]["metrics"][n]["unit"]
        print(f"{n:42s}" + "".join(f"{rows[w]['metrics'][n]['value']:14.6g}" for w in WORKLOADS) + f"  {unit}")
    raw = {}
    for w in WORKLOADS:
        with open(_result_path(_tag(w, args)), encoding="utf-8") as fh:
            raw[w] = json.load(fh)["raw"]
    for n in raw[WORKLOADS[0]]:
        print(f"{n:42s}" + "".join(f"{raw[w][n]:14.6g}" for w in WORKLOADS) + "  s (measured)")
    print(f"{'fail_frac':42s}" + "".join(f"{rows[w]['failed'] / rows[w]['attempted']:14.6g}" for w in WORKLOADS) + "  1")
    print(f"{'correct':42s}" + "".join(f"{str(rows[w]['correct']):>14s}" for w in WORKLOADS))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tspgap benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs; for the benchmark's own test")
    args = ap.parse_args(argv)
    if not _workers_ok():
        return _fail("TSPGAP_WORKERS is set above 1; the benchmark runs one single-threaded client")
    for var in BLAS_VARS:
        os.environ[var] = "1"  # before numpy is imported
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
