"""tspgap command line: generate, solve, sweep, search, certify, plot, export.

Every run prints exactly one JSON report document to stdout (stable field
names; see README).  Exit codes: 0 success, 2 parse/usage error, 3
infeasible construction, failed certificate or failed subtour LP, 4 size cap
exceeded.

TSPGAP_WORKERS sets the sweep worker-pool size (default 1); all other
commands are single threaded.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..core import Instance
from ..ellipse import DEFAULT_EPS, EllipseConstructionError, ellipse_construct
from ..exact import ENUM_MAX, HELD_KARP_MAX, checked_ratio, held_karp, heuristic_tour
from ..families import (
    ANCHOR_TAGS,
    GAP_TAGS,
    IJK,
    METRIC,
    RECTILINEAR,
    CertificateError,
    MatchingCapError,
    SubdividedGraphSpec,
    best_partition,
    closed_form_lp_I2,
    closed_form_lp_I3,
    closed_form_opt_I2,
    closed_form_opt_I3,
    closed_form_ratio_I2,
    closed_form_ratio_metric,
    gen_I2,
    gen_I3,
    gen_subdivided,
    fractional_xijk,
    lambda_certificate,
    pseudo_tour,
    shortcut_tour,
    tjoin_ratio_bound,
    hexagon_spec,
    ijk_of_labels,
    tetrahedron_spec,
)
from ..localsearch import (
    LocalSearchError,
    LocalSearchParams,
    exact_pool_certificate,
    local_search,
)
from ..lp import LpError, solve_subtour_lp
from . import formats
from .formats import FormatError
from .svg import render_svg

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_SIZE_CAP = 4

WORKERS_ENV = "TSPGAP_WORKERS"


class SizeCapError(RuntimeError):
    """Raised when an input exceeds a documented size cap."""


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text}")
    return value


def _pos_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _pos_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0: {text}")
    return value


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        value = int(raw)
    except ValueError:
        raise FormatError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return max(1, value)


def _instance_summary(inst: Instance, source: str) -> dict:
    return {"n": inst.n, "d": inst.dim, "p": inst.norm.p, "source": source}


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


# --- closed-form families ----------------------------------------------------


class _Family(NamedTuple):
    gen: Callable[[IJK], Instance]
    lp: Callable[[IJK], float]
    opt: Callable[[IJK], float]
    ratio: Callable[[IJK], float]
    partition: str  # best_partition's family
    sweep: str  # sweep column name
    embedding: tuple[int, float]  # (d, p) of the generated instances


_FAMILIES = {
    "i2": _Family(gen_I2, closed_form_lp_I2, closed_form_opt_I2, closed_form_ratio_I2, RECTILINEAR, "rect", (2, 1.0)),
    "i3": _Family(gen_I3, closed_form_lp_I3, closed_form_opt_I3, closed_form_ratio_metric, METRIC, "metric", (3, 1.0)),
}

# Instances built by the structured generators carry the family labels of
# `labeled_vertices`.  Recognizing those labels and the embedding lets
# `plot` recover (i, j, k); `ratio` attaches the closed-form comparison
# columns only when the coordinates match too.  Ellipse instances share the
# labels but have no closed form.
_EMBEDDINGS = {fam.embedding: name for name, fam in _FAMILIES.items()} | {(2, 2.0): "ellipse"}

# LocalSearchParams field -> default, in field order: one `localsearch` flag
# each, the seed aside (it has --seed and --restarts).
_SEARCH_DEFAULTS = {f.name: f.default for f in dataclasses.fields(LocalSearchParams) if f.name != "rng_seed"}


def _recognize_ijk(inst: Instance) -> tuple[str, IJK] | None:
    p = ijk_of_labels(inst.labels or ())
    kind = _EMBEDDINGS.get((inst.dim, inst.norm.p))
    return None if p is None or kind is None else (kind, p)


def _generated_closed_forms(inst: Instance) -> dict | None:
    """The closed-form columns of an instance that `gen i2`/`gen i3` would
    write: its labels and embedding are the family's and every coordinate
    is the generator's to within 1e-9.  Labels alone do not do: a file
    whose points were moved keeps them."""
    recognized = _recognize_ijk(inst)
    if recognized is None or recognized[0] not in _FAMILIES:
        return None
    kind, p = recognized
    if np.abs(_FAMILIES[kind].gen(p).points - inst.points).max() > 1e-9:
        return None
    return _closed_forms(kind, p)


def _closed_forms(kind: str, p: IJK) -> dict:
    fam = _FAMILIES[kind]
    return {
        "family": kind,
        "i": p.i, "j": p.j, "k": p.k,
        "lp_cost": fam.lp(p),
        "opt_length": fam.opt(p),
        "ratio": fam.ratio(p),
    }


# --- subcommands -------------------------------------------------------------


def _load_subdivided_spec(path: str) -> SubdividedGraphSpec:
    try:
        raw = json.loads(formats.read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON in {path!r}: {exc}") from None
    try:
        vertices = tuple((float(x), float(y)) for x, y in raw["vertices"])
        edges = tuple((int(u), int(v)) for u, v in raw["edges"])
        counts = tuple(int(c) for c in raw["counts"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"spec file needs vertices/edges/counts arrays: {exc}") from None
    return SubdividedGraphSpec(vertices, edges, counts)


def _subdivided(spec: SubdividedGraphSpec, source: str) -> tuple[Instance, str, dict]:
    inst = gen_subdivided(spec)
    try:
        return inst, source, {"tjoin_ratio_bound": tjoin_ratio_bound(spec)}
    except MatchingCapError as exc:
        raise SizeCapError(str(exc)) from None


def _build_family(args: argparse.Namespace) -> tuple[Instance, str, dict]:
    """Returns (instance, source tag, extra report fields)."""
    fam = args.family
    if fam in _FAMILIES:
        p = IJK(args.i, args.j, args.k)
        return _FAMILIES[fam].gen(p), f"{fam}_{p.i}_{p.j}_{p.k}", {"closed_form": _closed_forms(fam, p)}
    if fam == "tetrahedron":
        return _subdivided(tetrahedron_spec(args.a, args.b), f"tetrahedron_{args.a}_{args.b}")
    if fam == "hexagon":
        return _subdivided(hexagon_spec(args.rows, args.cols, args.k), f"hexagon_{args.rows}_{args.cols}_{args.k}")
    if fam == "subdivided":
        return _subdivided(_load_subdivided_spec(args.spec), "subdivided")
    if fam == "ellipse":
        result = ellipse_construct(args.i, args.j, args.eps)
        extra = {
            "ellipse": {
                **dataclasses.asdict(result.params),
                "ratio": result.ratio,
                "inner_residual": result.inner_residual,
                "outer_residual": result.outer_residual,
            }
        }
        return result.instance, f"ellipse_{args.i}_{args.j}", extra
    raise FormatError(f"unknown family {fam!r}")


def cmd_gen(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    inst, source, extra = _build_family(args)
    texts = [(args.output, formats.format_instance(inst, comment=f"tspgap gen {source}"))]
    outputs = {"instance": args.output}
    if args.export_tsplib is not None:
        texts.append((args.export_tsplib, formats.format_tsplib(inst, name=source)))
        outputs["tsplib"] = args.export_tsplib
    formats.atomic_write_texts(texts)
    report = {
        "command": "gen",
        "instance": _instance_summary(inst, source),
        "outputs": outputs,
        "sha256": {path: formats.sha256_of_text(text) for path, text in texts},
        "wall_time_s": time.perf_counter() - t0,
    }
    report.update(extra)
    return report


def cmd_ratio(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    inst = formats.read_instance(args.instance)
    lp = solve_subtour_lp(inst)
    certified = inst.n <= HELD_KARP_MAX and not args.bound_only
    if certified:
        exact = held_karp(inst)
        opt_length, method, tour = exact.length, exact.method, exact.tour
    else:
        tour, opt_length = heuristic_tour(inst)
        method = "nearest_neighbor_2opt"
    return {
        "command": "ratio",
        "instance": _instance_summary(inst, args.instance),
        "lp": {"cost": lp.cost, "cut_rounds": lp.rounds, "cuts": len(lp.cuts)},
        "opt": {
            "length": opt_length,
            "certified": certified,
            "method": method,
            "tour": list(tour.order),
        },
        "ratio": checked_ratio(opt_length, lp.cost),
        "closed_form": _generated_closed_forms(inst),
        "wall_time_s": time.perf_counter() - t0,
    }


def _sweep_closed(fam: _Family, n: int) -> dict:
    p = best_partition(n, fam.partition)
    return {"i": p.i, "j": p.j, "k": p.k, "ratio": fam.ratio(p)}


def _sweep_ellipse(n: int) -> dict | None:
    # n = 2i + j + 6 with i = k; enumerate the witnesses and keep the best.
    best: dict | None = None
    for i in range((n - 6) // 2 + 1):
        j = n - 6 - 2 * i
        try:
            result = ellipse_construct(i, j, DEFAULT_EPS)
        except EllipseConstructionError:
            continue
        if best is None or result.ratio > best["ratio"]:
            best = {"i": i, "j": j, "ratio": result.ratio}
    return best


# Sweep column -> per-n best row, in report order.
_SWEEPS = {fam.sweep: functools.partial(_sweep_closed, fam) for fam in _FAMILIES.values()} | {"ellipse": _sweep_ellipse}


def _sweep_row(task: tuple[int, tuple[str, ...]]) -> dict:
    n, fams = task
    row: dict = {"n": n}
    for name, best in _SWEEPS.items():
        if name in fams:
            row[name] = best(n)
    return row


def cmd_sweep(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    fams = tuple(f.strip() for f in args.families.split(",") if f.strip())
    if not fams:
        raise FormatError(f"no sweep family given (choose from {', '.join(_SWEEPS)})")
    for f in fams:
        if f not in _SWEEPS:
            raise FormatError(f"unknown sweep family {f!r} (choose from {', '.join(_SWEEPS)})")
    if args.n_min < 6:
        raise FormatError("sweeps start at n = 6")
    if args.n_max < args.n_min:
        raise FormatError("--n-max must be >= --n-min")
    tasks = [(n, fams) for n in range(args.n_min, args.n_max + 1)]
    workers = _workers()
    if workers > 1 and len(tasks) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    report = {
        "command": "sweep",
        "families": list(fams),
        "n_range": [args.n_min, args.n_max],
        "workers": workers,
        "rows": rows,
        "wall_time_s": time.perf_counter() - t0,
    }
    if args.output is not None:
        formats.atomic_write_text(args.output, json.dumps(report, indent=2) + "\n")
        report["outputs"] = {"table": args.output}
    return report


def cmd_localsearch(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    if args.n > HELD_KARP_MAX:
        raise SizeCapError(f"local search needs exact baselines; n <= {HELD_KARP_MAX}")
    formats.check_distinct_paths([path for path in (args.output, args.trace) if path is not None])  # so a clash costs no search
    params_kwargs = {name: getattr(args, name) for name in _SEARCH_DEFAULTS}
    runs = []
    for r in range(args.restarts):
        params = LocalSearchParams(rng_seed=args.seed + r, **params_kwargs)
        runs.append((params, *local_search(args.n, params)))
    # The first run of the highest final ratio.
    params, inst, trace = max(runs, key=lambda run: run[2].final_ratio)
    if args.n <= ENUM_MAX:
        certificate = exact_pool_certificate(inst, params)
        certificate_mode = "exact_pool"
    else:
        certificate = trace.converged
        certificate_mode = "search_pool"
    texts = [(args.output, formats.format_instance(inst, comment=f"tspgap localsearch n={args.n} seed={params.rng_seed}"))]
    outputs = {"instance": args.output}
    if args.trace is not None:
        texts.append((args.trace, formats.format_trace(trace.records)))
        outputs["trace"] = args.trace
    formats.atomic_write_texts(texts)
    return {
        "command": "localsearch",
        "n": args.n,
        "params": {**params_kwargs, "rng_seed": args.seed, "restarts": args.restarts},
        "restart_summary": [
            {
                "seed": s.rng_seed,
                "final_ratio": tr.final_ratio,
                "iterations": len(tr.records) - 1,
                "converged": tr.converged,
                "draws": tr.restarts,
            }
            for s, _, tr in runs
        ],
        "best": {"seed": params.rng_seed, "final_ratio": trace.final_ratio},
        "certificate": certificate,
        "certificate_mode": certificate_mode,
        "outputs": outputs,
        "wall_time_s": time.perf_counter() - t0,
    }


def cmd_ellipse(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    result = ellipse_construct(args.i, args.j, args.eps)
    outputs = {}
    if args.output is not None:
        formats.write_instance(args.output, result.instance, comment=f"tspgap ellipse i={args.i} j={args.j}")
        outputs["instance"] = args.output
    return {
        "command": "ellipse",
        "ijk": {"i": args.i, "j": args.j, "k": args.i},
        "instance": _instance_summary(result.instance, f"ellipse_{args.i}_{args.j}"),
        "params": dataclasses.asdict(result.params),
        "ratio": result.ratio,
        "residuals": {"inner": result.inner_residual, "outer": result.outer_residual},
        "outputs": outputs,
        "wall_time_s": time.perf_counter() - t0,
    }


def cmd_certify(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    p = IJK(args.i, args.j, args.k)
    report = lambda_certificate(p)
    return {
        "command": "certify",
        "ijk": {"i": p.i, "j": p.j, "k": p.k},
        "multiplier": report.multiplier,
        "tour_count": len(report.coefficients),
        "coefficient_sum_error": report.sum_error,
        "max_entry_error": report.max_entry_error,
        "passed": True,
        "wall_time_s": time.perf_counter() - t0,
    }


def cmd_plot(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    inst = formats.read_instance(args.instance)
    fractional = None
    tour = None
    recognized = _recognize_ijk(inst)
    if args.fractional or args.shortcut:
        if recognized is None:
            raise FormatError("--fractional/--shortcut need a labeled structured instance")
        _, p = recognized
        if args.fractional:
            fractional = fractional_xijk(p)
        if args.shortcut:
            tag, colon, idx_text = args.shortcut.partition(":")
            if tag in ANCHOR_TAGS:
                # Anchor pseudo-tours are one per tag and carry no index.
                if colon:
                    raise FormatError(f"anchor tag {tag!r} takes no index")
                idx = None
            else:
                try:
                    idx = int(idx_text) if idx_text else 0
                except ValueError:
                    raise FormatError(f"bad shortcut index {idx_text!r}") from None
            try:
                pt = pseudo_tour(p, tag, idx)
            except ValueError:
                raise FormatError(f"no pseudo-tour {tag!r}:{idx}; tags are {sorted(GAP_TAGS + ANCHOR_TAGS)}") from None
            tour = shortcut_tour(pt, inst)
    if args.tour is not None:
        tour = formats.read_tour(args.tour)
    try:
        text = render_svg(inst, tour=tour, fractional=fractional, labels=args.labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    formats.atomic_write_text(args.output, text)
    return {
        "command": "plot",
        "instance": _instance_summary(inst, args.instance),
        "outputs": {"svg": args.output},
        "sha256": {args.output: formats.sha256_of_text(text)},
        "overlays": {
            "fractional": bool(fractional is not None),
            "tour": bool(tour is not None),
        },
        "wall_time_s": time.perf_counter() - t0,
    }


def cmd_export(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    inst = formats.read_instance(args.instance)
    name = args.name or os.path.splitext(os.path.basename(args.instance))[0]
    text = formats.format_tsplib(inst, name=name)
    formats.atomic_write_text(args.output, text)
    return {
        "command": "export",
        "instance": _instance_summary(inst, args.instance),
        "outputs": {"tsplib": args.output},
        "sha256": {args.output: formats.sha256_of_text(text)},
        "wall_time_s": time.perf_counter() - t0,
    }


# --- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The tspgap parser, built on the first call and shared by every later
    one in the process: callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="tspgap",
        description="Structured TSP instances with large subtour-LP integrality ratios.",
        epilog="Exit codes: 0 ok, 2 parse error, 3 infeasible construction, 4 size cap. "
        f"Set {WORKERS_ENV} to parallelize sweeps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_ijk(p: argparse.ArgumentParser) -> None:
        p.add_argument("--i", type=_nonneg_int, required=True)
        p.add_argument("--j", type=_nonneg_int, required=True)
        p.add_argument("--k", type=_nonneg_int, required=True)

    gen = sub.add_parser("gen", help="generate a family instance and write it to a file")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for fam in _FAMILIES:
        add_ijk(gen_sub.add_parser(fam))
    p = gen_sub.add_parser("tetrahedron")
    p.add_argument("--a", type=_nonneg_int, default=0, help="subdivision count on outer edges")
    p.add_argument("--b", type=_nonneg_int, default=0, help="subdivision count on spokes")
    p = gen_sub.add_parser("hexagon")
    p.add_argument("--rows", type=_pos_int, required=True)
    p.add_argument("--cols", type=_pos_int, required=True)
    p.add_argument("--k", type=_nonneg_int, default=0, help="subdivision count per edge")
    p = gen_sub.add_parser("subdivided")
    p.add_argument("--spec", required=True, help="JSON file with vertices/edges/counts")
    p = gen_sub.add_parser("ellipse")
    p.add_argument("--i", type=_nonneg_int, required=True)
    p.add_argument("--j", type=_nonneg_int, required=True)
    p.add_argument("--eps", type=_pos_float, default=DEFAULT_EPS)
    # Shared flags go last, so usage and error text list each family's own first.
    for p in gen_sub.choices.values():
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--export-tsplib", metavar="PATH", default=None)
        p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ratio", help="LP cost, exact or bounded tour length, integrality ratio")
    p.add_argument("instance")
    p.add_argument(
        "--bound-only",
        action="store_true",
        help=f"skip the exact solver even for n <= {HELD_KARP_MAX}",
    )
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("sweep", help="per-n best ratios for the closed-form families")
    p.add_argument("--n-min", type=_pos_int, required=True)
    p.add_argument("--n-max", type=_pos_int, required=True)
    p.add_argument("--families", default="rect,metric", help="comma list of rect,metric,ellipse")
    p.add_argument("-o", "--output", default=None, help="also write the report JSON here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("localsearch", help="gradient-ascent search for high-ratio instances")
    p.add_argument("--n", type=_pos_int, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--restarts", type=_pos_int, default=1)
    for name, default in _SEARCH_DEFAULTS.items():
        kind = _pos_int if isinstance(default, int) else _pos_float
        p.add_argument("--" + name.replace("_", "-"), type=kind, default=default)
    p.add_argument("-o", "--output", required=True, help="final instance file")
    p.add_argument("--trace", default=None, help="iteration trace file")
    p.set_defaults(func=cmd_localsearch)

    p = sub.add_parser("ellipse", help="curved-geometry construction maximizing the ratio")
    p.add_argument("--i", type=_nonneg_int, required=True)
    p.add_argument("--j", type=_nonneg_int, required=True)
    p.add_argument("--eps", type=_pos_float, default=DEFAULT_EPS)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_ellipse)

    p = sub.add_parser("certify", help="convex-combination certificate for x_{i,j,k}")
    add_ijk(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("plot", help="deterministic SVG drawing with optional overlays")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--fractional", action="store_true", help="overlay the fractional edge vector")
    p.add_argument(
        "--shortcut",
        default=None,
        metavar="TAG[:IDX]",
        help=f"overlay a shortcut tour: a gap tag with an index (default 0), e.g. {GAP_TAGS[0]}:1, "
        f"or a bare anchor tag, e.g. {ANCHOR_TAGS[0]}",
    )
    p.add_argument("--tour", default=None, help="overlay a tour read from a file")
    p.add_argument("--labels", action="store_true", help="draw vertex labels")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("export", help="convert a native instance file to TSPLIB FULL_MATRIX")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--name", default=None, help="NAME header (default: instance file stem)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except FormatError as exc:
        _emit({"command": args.subcommand, "error": {"type": "parse", "message": str(exc)}})
        return EXIT_PARSE
    except (EllipseConstructionError, CertificateError, LocalSearchError, LpError, ValueError) as exc:
        # ValueError: construction-time validation (crossing/bridged specs, bad geometry).
        # LpError: a subtour LP that did not solve or lies above a tour.
        _emit({
            "command": args.subcommand,
            "error": {"type": "infeasible", "message": str(exc)},
        })
        return EXIT_INFEASIBLE
    except SizeCapError as exc:
        _emit({"command": args.subcommand, "error": {"type": "size_cap", "message": str(exc)}})
        return EXIT_SIZE_CAP
    _emit(report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
