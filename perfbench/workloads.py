"""The four benchmark workloads: inputs, the timed operation, output checks.

Every call into tspgap goes through a module attribute (``lp.solve_subtour_lp``,
``cli_main.main``, ...) so that the tracer, which replaces those attributes,
sees the calls the benchmark makes as well as the calls tspgap makes
internally.

A workload is a list of ``Op``s built by its ``setup_*`` function from the
workload seed.  ``Op.call`` is the only thing timed.  ``Op.check`` and
``Op.record`` run after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from tspgap import core, ellipse, exact, families, localsearch, lp
from tspgap.cli import formats

# tspgap.cli re-exports the function `main`, which hides the module of the
# same name from attribute access.
cli_main = importlib.import_module("tspgap.cli.main")

# Tolerances are the test suite's: 1e-6 for LP/OPT/closed-form agreement,
# 1e-3 for the curved reference ratios, DEFAULT_EPS for the tie residuals.
TOL = 1e-6
REF_TOL = 1e-3

# Criterion-9 search parameters and the three battery seeds with the fewest
# rejection draws, so that several passes fit into one run.  Per search, on
# the same inputs every time: seed 19 makes 259 draws and 328 ratio
# evaluations, seed 32 163 and 404, seed 25 186 and 556.  All battery seeds
# converge with a passing certificate; seeds 3 and 16 are not in the battery
# because they stop at the iteration cap.
SEARCH_PARAMS = dict(epsilon0=1e-6, epsilon1=5e-4, epsilon3=1e-2)
SEARCH_SEEDS = (19, 32, 25)
SEARCH_SEEDS_SMOKE = (32,)

# Random instances for `certify` and `bound` are drawn from a fixed stream,
# and the workload seed only orders the operations.  Cut rounds range over
# 0-17 across random instances of one size, so fresh instances per seed
# would vary a pass's cost by more than the benchmark's bounds.
BASE_SEED = 2021

# Random instances for `certify`: (n, p).  With the families and the
# ellipse the pass holds two operations at n = 13, three at n = 14 and two at
# n = 15, so the median falls inside the n = 14 group and the 90th percentile
# inside the n = 15 group, not on a boundary between sizes.  n stops at 15:
# Held-Karp's table, 2^(n-1)(n-1) doubles, is 1.8 MB there and fits a 2 MB
# L2 cache; at n = 16 it is 3.9 MB, and in one run those operations varied
# by +-20% from pass to pass against +-7% at n = 14.
CERTIFY_RANDOM = ((13, 1.0), (13, 2.0), (14, 2.0), (15, 1.0))
CERTIFY_RANDOM_SMOKE = ((8, 1.0), (9, 2.0))
CERTIFY_I3_N, CERTIFY_I2_N, CERTIFY_ELLIPSE = 14, 15, (3, 2)
CERTIFY_SMOKE_FAMILY_N, CERTIFY_SMOKE_ELLIPSE = 8, (1, 0)

BOUND_SIZES = (30, 35, 40)
BOUND_SIZES_SMOKE = (12, 14)

# `curved` rows: every (i, j) with n = 2i + j + 6 in this range, and the
# criterion-7 reference ratios.
CURVED_N = (6, 9)
CURVED_N_SMOKE = (6, 7)
CURVED_REFS = {(0, 0): 1.0238, (1, 1): 1.060}


@dataclass
class Op:
    """One operation of a pass.

    call: the timed work; returns the raw output.
    check: (output, thorough) -> list of failed checks.  ``thorough`` is set
        on the first pass only, for checks that call the solvers.
    record: output -> JSON-able dict of every returned value that must
        repeat exactly (outputs and return-value counters).
    """

    key: str
    call: Callable[[], Any]
    check: Callable[[Any, bool], list[str]]
    record: Callable[[Any], dict]


# -- search ------------------------------------------------------------------


def _search_call(rng_seed: int):
    # The same sequence as `tspgap localsearch --n 6`: search, then the
    # exact-pool certificate at the end point.
    params = localsearch.LocalSearchParams(rng_seed=rng_seed, **SEARCH_PARAMS)
    inst, trace = localsearch.local_search(6, params)
    opt = exact.held_karp(inst)
    sub = lp.solve_subtour_lp(inst)
    pool = localsearch.build_tour_pool(inst, params.epsilon3 * opt.length)
    cert = localsearch.local_opt_certificate(inst, pool, sub.x, epsilon1=params.epsilon1)
    return trace, cert, sub.cost, opt.length


def _search_check(out, thorough: bool) -> list[str]:
    trace, cert, lp_cost, opt_len = out
    errs = []
    if not trace.converged:
        errs.append("search did not converge")
    ratios = [rec.ratio for rec in trace.records]
    if not all(b > a for a, b in zip(ratios, ratios[1:])):
        errs.append("accepted-ratio trace is not strictly increasing")
    if not cert:
        errs.append("local-optimality certificate failed")
    if lp_cost > opt_len + TOL:
        errs.append(f"LP {lp_cost} above OPT {opt_len}")
    if abs(opt_len / lp_cost - trace.final_ratio) > TOL:
        errs.append(f"end-point ratio {opt_len / lp_cost} != trace {trace.final_ratio}")
    return errs


def _search_record(out) -> dict:
    trace, cert, lp_cost, opt_len = out
    return {
        "ratio": trace.final_ratio,
        "lp_cost": lp_cost,
        "opt": opt_len,
        "draws": trace.restarts,
        "accepted_steps": len(trace.records) - 1,
        "certificate": bool(cert),
    }


def setup_search(seed: int, workdir: str, smoke: bool) -> list[Op]:
    del workdir
    seeds = SEARCH_SEEDS_SMOKE if smoke else SEARCH_SEEDS
    order = np.random.default_rng(seed).permutation(len(seeds))
    return [
        Op(f"seed{seeds[k]}", (lambda s=seeds[k]: _search_call(s)), _search_check, _search_record)
        for k in order
    ]


# -- certify and bound: `tspgap ratio FILE` in-process -----------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main.main(argv)
    return code, buf.getvalue()


def _tour_length(points: np.ndarray, p: float, order: list[int]) -> float:
    """Tour length recomputed here, independently of tspgap.core."""
    pts = points[order]
    diff = np.abs(pts - np.roll(pts, -1, axis=0))
    if p == 1.0:
        return float(diff.sum())
    return float(np.sqrt((diff * diff).sum(axis=1)).sum())


def _ratio_checks(points: np.ndarray, p: float, bound_only: bool, expect: dict | None):
    """Checks for one `tspgap ratio` report.

    expect: None for a random instance (no closed form may be claimed),
    {"closed_form": True} for a generated family (the CLI must recognise it
    and its LP/OPT/ratio must match the closed forms), or
    {"ratio": r} for an ellipse construction of ratio r.
    """
    n = len(points)

    def check(out, thorough: bool) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}: {text.strip()[:200]}"]
        rep = json.loads(text)
        errs = []
        tour = rep["opt"]["tour"]
        if sorted(tour) != list(range(n)):
            return [f"tour is not a permutation of 0..{n - 1}"]
        opt, lp_cost, ratio = rep["opt"]["length"], rep["lp"]["cost"], rep["ratio"]
        length = _tour_length(points, p, tour)
        if abs(length - opt) > TOL:
            errs.append(f"reported length {opt} != recomputed {length}")
        if lp_cost > opt + TOL:
            errs.append(f"LP {lp_cost} above tour length {opt}")
        if abs(ratio - opt / lp_cost) > TOL:
            errs.append(f"ratio {ratio} != {opt} / {lp_cost}")
        certified = rep["opt"]["certified"]
        if certified == bound_only:
            errs.append(f"certified={certified} with bound_only={bound_only}")
        closed = rep["closed_form"]
        if expect is None or "ratio" in expect:
            if closed is not None:
                errs.append("closed form claimed for an instance outside the families")
        if expect is not None and "ratio" in expect and abs(ratio - expect["ratio"]) > TOL:
            errs.append(f"ratio {ratio} != construction ratio {expect['ratio']}")
        if expect is not None and expect.get("closed_form"):
            if closed is None:
                errs.append("generated family instance was not recognised")
            else:
                for got, key in ((lp_cost, "lp_cost"), (opt, "opt_length"), (ratio, "ratio")):
                    if abs(got - closed[key]) > TOL:
                        errs.append(f"{key} {got} != closed form {closed[key]}")
        return errs

    return check


def _ratio_record(out) -> dict:
    code, text = out
    rep = json.loads(text)
    return {
        "ratio": rep["ratio"],
        "lp_cost": rep["lp"]["cost"],
        "opt": rep["opt"]["length"],
        "cut_rounds": rep["lp"]["cut_rounds"],
        "cuts": rep["lp"]["cuts"],
        "tour": rep["opt"]["tour"],
        "closed_form": rep["closed_form"],
    }


def _ratio_op(key: str, path: str, inst, bound_only: bool, expect: dict | None) -> Op:
    argv = ["ratio", "--bound-only", path] if bound_only else ["ratio", path]
    formats.write_instance(path, inst, comment=f"perfbench {key}")
    return Op(
        key,
        lambda: _cli(argv),
        _ratio_checks(np.array(inst.points), inst.norm.p, bound_only, expect),
        _ratio_record,
    )


def setup_certify(seed: int, workdir: str, smoke: bool) -> list[Op]:
    base = np.random.default_rng(BASE_SEED)
    ops = []
    for n, p in CERTIFY_RANDOM_SMOKE if smoke else CERTIFY_RANDOM:
        key = f"random-n{n}-L{p:g}"
        inst = core.Instance(base.random((n, 2)), core.NormSpec(p))
        ops.append(_ratio_op(key, os.path.join(workdir, key + ".txt"), inst, False, None))
    n_i3 = CERTIFY_SMOKE_FAMILY_N if smoke else CERTIFY_I3_N
    n_i2 = CERTIFY_SMOKE_FAMILY_N if smoke else CERTIFY_I2_N
    for key, inst in (
        (f"i3-n{n_i3}", families.gen_I3(families.best_partition(n_i3, families.METRIC))),
        (f"i2-n{n_i2}", families.gen_I2(families.best_partition(n_i2, families.RECTILINEAR))),
    ):
        ops.append(_ratio_op(key, os.path.join(workdir, key + ".txt"), inst, False, {"closed_form": True}))
    i, j = CERTIFY_SMOKE_ELLIPSE if smoke else CERTIFY_ELLIPSE
    built = ellipse.ellipse_construct(i, j)
    key = f"ellipse-i{i}-j{j}"
    ops.append(_ratio_op(key, os.path.join(workdir, key + ".txt"), built.instance, False, {"ratio": built.ratio}))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[k] for k in order]


def setup_bound(seed: int, workdir: str, smoke: bool) -> list[Op]:
    base = np.random.default_rng(BASE_SEED)
    ops = []
    for n in BOUND_SIZES_SMOKE if smoke else BOUND_SIZES:
        key = f"random-n{n}-L2"
        inst = core.Instance(base.random((n, 2)), core.NormSpec(2.0))
        ops.append(_ratio_op(key, os.path.join(workdir, key + ".txt"), inst, True, None))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[k] for k in order]


# -- curved ------------------------------------------------------------------


def _curved_check(i: int, j: int):
    def check(res, thorough: bool) -> list[str]:
        errs = []
        eps = ellipse.DEFAULT_EPS
        if not (res.inner_residual <= eps and res.outer_residual <= eps):
            errs.append(f"residuals {res.inner_residual}, {res.outer_residual} above eps {eps}")
        want = CURVED_REFS.get((i, j))
        if want is not None and abs(res.ratio - want) > REF_TOL:
            errs.append(f"ratio {res.ratio} != reference {want}")
        if thorough:
            # Criterion 7: the tied shortcut is an optimal tour and the
            # fractional point is the LP optimum, so the ratio is exact.
            inst = res.instance
            p = families.IJK(i, j, i)
            anchor = next(q for q in families.pseudo_tours(p) if q.tag == "middle_left")
            shortcut = core.tour_length(inst, families.shortcut_tour(anchor, inst))
            frac = core.fractional_cost(inst, families.fractional_xijk(p))
            hk = exact.held_karp(inst).length
            lp_cost = lp.solve_subtour_lp(inst).cost
            if abs(hk - shortcut) > TOL:
                errs.append(f"Held-Karp {hk} != shortcut {shortcut}")
            if abs(lp_cost - frac) > TOL:
                errs.append(f"LP {lp_cost} != fractional cost {frac}")
            if abs(res.ratio - hk / lp_cost) > TOL:
                errs.append(f"ratio {res.ratio} != OPT/LP {hk / lp_cost}")
        return errs

    return check


def _curved_record(res) -> dict:
    return {
        "ratio": res.ratio,
        "b": res.params.b,
        "e": res.params.e,
        "f": res.params.f,
        "inner_residual": res.inner_residual,
        "outer_residual": res.outer_residual,
    }


def setup_curved(seed: int, workdir: str, smoke: bool) -> list[Op]:
    del workdir
    lo, hi = CURVED_N_SMOKE if smoke else CURVED_N
    rows = [(i, n - 6 - 2 * i) for n in range(lo, hi + 1) for i in range((n - 6) // 2 + 1)]
    order = np.random.default_rng(seed).permutation(len(rows))
    return [
        Op(
            f"i{rows[k][0]}-j{rows[k][1]}",
            (lambda i=rows[k][0], j=rows[k][1]: ellipse.ellipse_construct(i, j)),
            _curved_check(*rows[k]),
            _curved_record,
        )
        for k in order
    ]


SETUPS = {
    "search": setup_search,
    "certify": setup_certify,
    "bound": setup_bound,
    "curved": setup_curved,
}

# Record fields that are work counts; compared exactly like the rest of the
# record, and listed separately in the result file.
COUNTERS = ("draws", "accepted_steps", "cut_rounds", "cuts")


def record_counters(records: list[dict]) -> dict:
    """Sum of the return-value counters over one pass."""
    total: dict[str, int] = {}
    for rec in records:
        for key in COUNTERS:
            if key in rec:
                total[key] = total.get(key, 0) + rec[key]
    return total

