"""Span tracer for the traced benchmark run.

It replaces the public functions of tspgap's modules with wrappers at every
import site (each attribute of a loaded tspgap module bound to the original
function), so that internal calls are seen too.  The workloads call tspgap
through module attributes, so they see the wrappers as well.  Each wrapped call records a span (name, start, end, parent
span, operation id) in memory; ``write`` saves them at the end of the run.
Self time is a span's duration minus the time its child spans cover, kept
per name as the spans close.

The untraced run (``--trace 0``) never imports this module.  The traced
run installs the tracer for its traced passes only and removes it between
them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name).  Attributes of the form "Class.method"
# are patched on the class.
SPANS = (
    ("tspgap.lp", "solve_lp", "lp.solve_lp"),
    ("tspgap.lp", "solve_subtour_lp", "lp.solve_subtour_lp"),
    ("tspgap.lp", "separate_subtour", "lp.separate_subtour"),
    ("tspgap.exact", "held_karp", "exact.held_karp"),
    ("tspgap.localsearch", "local_search", "localsearch.local_search"),
    ("tspgap.localsearch", "improvement_lp", "localsearch.improvement_lp"),
    ("tspgap.localsearch", "build_tour_pool", "localsearch.build_tour_pool"),
    ("tspgap.localsearch", "local_opt_certificate", "localsearch.local_opt_certificate"),
    ("tspgap.ellipse", "ellipse_construct", "ellipse.ellipse_construct"),
    ("tspgap.ellipse", "inner_vertices", "ellipse.inner_vertices"),
    ("tspgap.ellipse", "outer_vertices", "ellipse.outer_vertices"),
    ("tspgap.families.ijk", "pseudo_tours", "families.pseudo_tours"),
    ("tspgap.families.ijk", "shortcut_tour", "families.shortcut_tour"),
    ("tspgap.families.ijk", "fractional_xijk", "families.fractional_xijk"),
    ("tspgap.families.ijk", "labeled_vertices", "families.labeled_vertices"),
    ("tspgap.core", "Instance.__init__", "core.Instance"),
    ("tspgap.core", "Instance.distance_matrix", "core.distance_matrix"),
    ("tspgap.core", "fractional_cost", "core.fractional_cost"),
    ("tspgap.cli.main", "main", "cli.main"),
    ("tspgap.cli.formats", "read_instance", "cli.formats.read_instance"),
)

# Functions too small and too frequent for a span: calls are only counted,
# and their time stays with the caller.
COUNTED = (
    ("tspgap.ellipse", "diff_inner", "ellipse.diff_inner"),
    ("tspgap.ellipse", "diff_outer", "ellipse.diff_outer"),
    ("tspgap.core", "tour_length", "core.tour_length"),
)

SPAN_NAMES = frozenset(name for _, _, name in SPANS)
LAYERS = ("lp", "exact", "localsearch", "ellipse", "families", "core", "cli")

# Held-Karp length equal to the LP cost within this: the LP optimum was
# integral and the evaluation's ratio is exactly 1.
INTEGRAL_TOL = 1e-9

class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self._names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._sp_name = array("i")
        self._sp_parent = array("i")
        self._sp_op = array("i")
        self._sp_start = array("d")
        self._sp_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self._open: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._last_hk: float | None = None
        self._t0 = time.perf_counter()
        self.begin_pass()

    # -- per-pass totals -----------------------------------------------------

    def begin_pass(self) -> None:
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)

    def pass_totals(self) -> tuple[dict, dict]:
        return dict(self.counts), dict(self.self_s)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        from tspgap.ellipse import EllipseConstructionError
        from tspgap.lp import LpError

        self._placement_error = EllipseConstructionError
        self._lp_error = LpError
        for modname, attr, name in SPANS:
            self._patch(modname, attr, name, self._span_wrapper)
        for modname, attr, name in COUNTED:
            self._patch(modname, attr, name, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _patch(self, modname, attr, name, make) -> None:
        mod = importlib.import_module(modname)
        cls_name, _, fname = attr.rpartition(".")
        if cls_name:
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[fname]
            self._undo.append((cls, fname, orig))
            setattr(cls, fname, make(name, orig))
            return
        orig = getattr(mod, fname)
        wrapped = make(name, orig)
        for m in list(sys.modules.values()):
            mname = getattr(m, "__name__", "")
            if not (mname == "tspgap" or mname.startswith("tspgap.")):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapped)

    # -- wrappers ------------------------------------------------------------

    def _count_wrapper(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name, fn):
        nid = self._name_id.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(nid, name)
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(idx, name, args, None, exc)
                raise
            self._exit(idx, name, args, res, None)
            return res

        return wrapper

    def _enter(self, nid: int, name: str) -> int:
        idx = len(self._sp_start)
        self._sp_name.append(nid)
        self._sp_parent.append(self._stack[-1][0] if self._stack else -1)
        self._sp_op.append(self.op)
        self._sp_end.append(0.0)
        self._stack.append([idx, 0.0])
        self._open[name] += 1
        self._sp_start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int, name: str, args, res, exc) -> None:
        end = time.perf_counter()
        self._sp_end[idx] = end
        _, child = self._stack.pop()
        dur = end - self._sp_start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        self._open[name] -= 1
        own = dur - child
        self.counts[name + ".calls"] += 1
        self.counts["trace.spans"] += 1
        self.self_s[name] += own
        self._observe(name, args, res, exc, own)

    def _observe(self, name, args, res, exc, own: float) -> None:
        """Counts read from arguments, return values and exceptions."""
        c = self.counts
        if exc is not None:
            c[name + ".raised"] += 1
            if isinstance(exc, self._lp_error) and not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                c["lp.errors"] += 1
            if name in ("ellipse.inner_vertices", "ellipse.outer_vertices") and isinstance(
                exc, self._placement_error
            ):
                c["ellipse.placement_errors"] += 1
            return
        in_search = self._open["localsearch.local_search"] > 0
        if name == "exact.held_karp":
            n = args[0].n
            c[f"exact.held_karp.n{n}.calls"] += 1
            self.self_s[f"exact.held_karp.n{n}"] += own
            if in_search:
                c["localsearch.ratio_evals"] += 1
                self._last_hk = res.length
        elif name == "lp.solve_lp":
            c["lp.solve_lp.pivots"] += res.iterations
        elif name == "lp.solve_subtour_lp":
            c["lp.cut_rounds"] += res.rounds
            c["lp.cuts"] += len(res.cuts)
            if in_search and self._last_hk is not None:
                if abs(self._last_hk - res.cost) <= INTEGRAL_TOL:
                    c["localsearch.integral_evals"] += 1
                self._last_hk = None
        elif name == "localsearch.local_search":
            trace = res[1]
            c["localsearch.draws"] += trace.restarts
            c["localsearch.accepted_steps"] += len(trace.records) - 1

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzipped TSV, times in seconds since the tracer was made."""
        t0 = self._t0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for k in range(len(self._sp_start)):
                fh.write(
                    f"{k}\t{self._sp_parent[k]}\t{self._sp_op[k]}\t{self._names[self._sp_name[k]]}"
                    f"\t{self._sp_start[k] - t0:.9f}\t{self._sp_end[k] - t0:.9f}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: dict, self_s: dict, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    counts and self_s are the pass totals; wall is the pass's wall time.
    Names not reached in the pass read 0.
    """
    m: dict[str, float] = defaultdict(float)
    for key, value in counts.items():
        m[key] = value
    for key, value in self_s.items():
        m[key + ".self_s"] = value
    m["lp.pivots_per_solve"] = _ratio(m["lp.solve_lp.pivots"], m["lp.solve_lp.calls"])
    line_search = m["localsearch.ratio_evals"] - m["localsearch.draws"]
    m["localsearch.step_accept_frac"] = _ratio(m["localsearch.accepted_steps"], line_search)
    m["localsearch.integral_eval_frac"] = _ratio(
        m["localsearch.integral_evals"], m["localsearch.ratio_evals"]
    )
    attempts = m["ellipse.inner_vertices.calls"] + m["ellipse.outer_vertices.calls"]
    m["ellipse.feasible_frac"] = _ratio(attempts - m["ellipse.placement_errors"], attempts)
    spanned = 0.0
    for layer in LAYERS:
        share = sum(v for k, v in self_s.items() if k in SPAN_NAMES and k.startswith(layer + "."))
        spanned += share
        m[f"{layer}.self_share"] = _ratio(share, wall)
    m["bench.loop.self_s"] = wall - spanned
    m["bench.loop.self_share"] = _ratio(wall - spanned, wall)
    return m
