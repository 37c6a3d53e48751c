"""End-to-end command-line behavior: formats, reports, exit codes, plots."""

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tspgap import localsearch
from tspgap.cli.formats import (
    FormatError,
    format_instance,
    format_tsplib,
    parse_instance,
    parse_tour,
    read_instance,
    tsplib_cost_matrix,
)
from tspgap.cli.main import main
from tspgap.core import Instance, NormSpec, Tour
from tspgap.ellipse import ellipse_construct
from tspgap.families import ANCHOR_TAGS, IJK, gen_I2, gen_I3
from tspgap.localsearch import LocalSearchParams
from tspgap.lp import LpError

# The module, for monkeypatching the names that `main` looks up.
cli_main = importlib.import_module("tspgap.cli.main")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- native format -----------------------------------------------------------


def test_native_round_trip_bit_exact():
    inst = ellipse_construct(1, 1, 1e-9).instance
    back = parse_instance(format_instance(inst, comment="round trip"))
    assert np.array_equal(back.points, inst.points)
    assert back.labels == inst.labels
    assert back.norm.p == inst.norm.p


def test_native_round_trip_without_labels():
    rng = np.random.default_rng(2)
    inst = Instance(rng.uniform(size=(5, 3)), NormSpec(1.5))
    back = parse_instance(format_instance(inst))
    assert np.array_equal(back.points, inst.points)
    assert back.labels is None


def test_native_parse_errors():
    with pytest.raises(FormatError):
        parse_instance("")
    with pytest.raises(FormatError):
        parse_instance("3 2\n0 0\n1 0\n0 1\n")  # short header
    with pytest.raises(FormatError):
        parse_instance("3 2 1.0\n0 0\n1 0\n")  # missing point
    with pytest.raises(FormatError):
        parse_instance("3 2 1.0\n0 0 a\n1 0\n0 1\n")  # partial labels
    with pytest.raises(FormatError):
        parse_instance("3 2 1.0\n0 0\n0 0\n0 1\n")  # coincident


def test_tour_parsing():
    t = parse_tour("# comment\n0 2 1 3\n")
    assert t == Tour([0, 2, 1, 3])
    with pytest.raises(FormatError):
        parse_tour("0 1\n2 3\n")
    with pytest.raises(FormatError):
        parse_tour("0 1 1 2\n")


# Lines both parsers skip: blank, whitespace-only, # and indented # comments.
_SKIPPED_LINES = "\n" + "   \n" + "\t\n" + "#\n" + "# comment\n" + "   # indented\n" + "\t#tab 1 2\n"


def test_parsers_skip_the_same_blank_and_comment_lines():
    noise = _SKIPPED_LINES
    text = "3 2 1.0\n0 0 a\n1 0 b\n0 1 c\n"
    back = parse_instance(noise + "".join(line + "\n" + noise for line in text.splitlines()))
    want = parse_instance(text)
    assert np.array_equal(back.points, want.points) and back.labels == want.labels == ("a", "b", "c")
    assert parse_tour(noise + "  0 2 1 3  \n" + noise) == Tour([0, 2, 1, 3])
    # The messages count and quote only the lines that are kept.
    cases = [
        (parse_instance, noise, "empty instance file"),
        (parse_tour, noise, "tour file must hold exactly one index line, got 0"),
        (parse_tour, "0 1\n" + noise + "2 3\n", "tour file must hold exactly one index line, got 2"),
        (parse_instance, noise + "3 2 1.0\n0 0\n" + noise + "1 0\n", "header says 3 points, file has 2"),
        (parse_instance, noise + "  3 2  \n0 0\n", "header must be 'n d p', got '3 2'"),
        (parse_instance, "3 2 1.0\n0 0\n" + noise + "1\n0 1\n", "point line 1 has 1 fields, need 2"),
    ]
    for parse, bad, message in cases:
        with pytest.raises(FormatError) as info:
            parse(bad)
        assert str(info.value) == message


# --- TSPLIB ------------------------------------------------------------------


def test_tsplib_matrix_hand_checked_smallest_space_case():
    inst = gen_I3(IJK(0, 0, 0))
    want = np.array(
        [
            [0, 1000, 2000, 3000, 2000, 3000],
            [1000, 0, 3000, 2000, 3000, 2000],
            [2000, 3000, 0, 1000, 2000, 3000],
            [3000, 2000, 1000, 0, 3000, 2000],
            [2000, 3000, 2000, 3000, 0, 1000],
            [3000, 2000, 3000, 2000, 1000, 0],
        ],
        dtype=np.int64,
    )
    assert np.array_equal(tsplib_cost_matrix(inst), want)


def test_tsplib_floors_scaled_distances():
    inst = gen_I3(IJK(10, 9, 11))
    m = tsplib_cost_matrix(inst)
    # Successive points on the first path are 1/11 apart: floor(1000/11) = 90.
    assert m[0, 1] == 90
    # First-path start to second-path start: 1/11 + 1/10 -> floor(190.9...) = 190.
    y0 = inst.labels.index("Y0")
    assert m[0, y0] == 190
    # To the third path: 1/11 + 1/12 -> floor(174.24...) = 174.
    z0 = inst.labels.index("Z0")
    assert m[0, z0] == 174
    assert np.array_equal(m, m.T)


def test_tsplib_matrix_matches_scalar_floor():
    rng = np.random.default_rng(3)
    cases = (gen_I3(IJK(10, 9, 11)), Instance(rng.uniform(size=(9, 3)), NormSpec(1.5)), Instance(rng.uniform(-5, 5, (9, 2))))
    for inst in cases:
        dmat = inst.distance_matrix()
        m = tsplib_cost_matrix(inst)
        assert m.dtype == np.int64
        assert m.tolist() == [[math.floor(1000.0 * dmat[i, j]) for j in range(inst.n)] for i in range(inst.n)]


def _tsplib_name_and_rows(text):
    lines = text.splitlines()
    body = lines[lines.index("EDGE_WEIGHT_SECTION") + 1 : lines.index("EOF")]
    return lines[0], [[int(t) for t in row.split()] for row in body]


def test_tsplib_round_trip():
    inst = gen_I2(IJK(1, 0, 1))
    name, rows = _tsplib_name_and_rows(format_tsplib(inst, name="demo"))
    assert name == "NAME: demo"
    assert rows == tsplib_cost_matrix(inst).tolist()


# --- subcommands -------------------------------------------------------------


def test_gen_and_ratio_closed_form_columns(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    code, rep = run_cli(capsys, "gen", "i2", "--i", "0", "--j", "0", "--k", "0", "-o", str(out))
    assert code == 0
    assert rep["instance"]["n"] == 6
    code, rep = run_cli(capsys, "ratio", str(out))
    assert code == 0
    assert rep["ratio"] == pytest.approx(18 / 17, abs=1e-7)
    assert rep["closed_form"]["ratio"] == pytest.approx(18 / 17, rel=1e-12)
    assert rep["opt"]["certified"] is True
    assert rep["ratio"] == pytest.approx(rep["opt"]["length"] / rep["lp"]["cost"], abs=1e-12)


@pytest.mark.parametrize("x, attached", [(0.3, False), (1e-12, True)])
def test_ratio_attaches_closed_forms_only_to_the_generated_points(tmp_path, capsys, x, attached):
    # Labels, dimension and norm still say i2 (0, 0, 0) once X0 moves; the
    # closed form describes the generated points only (to within 1e-9).
    path = tmp_path / "i2.txt"
    run_cli(capsys, "gen", "i2", "--i", "0", "--j", "0", "--k", "0", "-o", str(path))
    inst = read_instance(str(path))
    pts = inst.points.copy()
    pts[inst.labels.index("X0"), 0] = x
    path.write_text(format_instance(Instance(pts, inst.norm, inst.labels)))
    code, rep = run_cli(capsys, "ratio", str(path))
    assert code == 0
    assert (rep["closed_form"] is not None) == attached
    if attached:
        assert rep["closed_form"]["ratio"] == pytest.approx(18 / 17, rel=1e-12)


def test_ratio_on_space_family(tmp_path, capsys):
    out = tmp_path / "i3.txt"
    code, _ = run_cli(capsys, "gen", "i3", "--i", "0", "--j", "0", "--k", "0", "-o", str(out))
    assert code == 0
    code, rep = run_cli(capsys, "ratio", str(out))
    assert code == 0
    assert rep["ratio"] == pytest.approx(10 / 9, abs=1e-7)
    assert rep["closed_form"]["family"] == "i3"


def test_ratio_triangle_is_one(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("3 2 2.0\n0.0 0.0\n1.0 0.0\n0.5 0.9\n")
    code, rep = run_cli(capsys, "ratio", str(path))
    assert code == 0
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_ratio_bound_mode_flagged(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "big.txt"
    inst = Instance(rng.uniform(size=(24, 2)))
    path.write_text(format_instance(inst))
    code, rep = run_cli(capsys, "ratio", str(path))
    assert code == 0
    assert rep["opt"]["certified"] is False
    assert rep["opt"]["method"] == "nearest_neighbor_2opt"
    assert rep["ratio"] >= 1.0 - 1e-9


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not an instance\n")
    code, rep = run_cli(capsys, "ratio", str(path))
    assert code == 2
    assert rep["error"]["type"] == "parse"


def _parse_error(capsys, tmp_path, *argv):
    code, rep = run_cli(capsys, *argv)
    assert code == 2
    assert rep["error"]["type"] == "parse"
    assert list(tmp_path.rglob(".tspgap-*.tmp")) == []
    return rep["error"]["message"]


def test_undecodable_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe 3 2 2.0\n")
    assert "cannot read" in _parse_error(capsys, tmp_path, "ratio", str(path))


def test_unwritable_output_is_a_parse_error(tmp_path, capsys):
    gen = ("gen", "i2", "--i", "0", "--j", "0", "--k", "0", "-o")
    # No directory to make the temp file in.
    assert "cannot write" in _parse_error(capsys, tmp_path, *gen, str(tmp_path / "nodir" / "x.txt"))
    # The temp file is written, then cannot replace a directory.
    (tmp_path / "taken").mkdir()
    assert "cannot write" in _parse_error(capsys, tmp_path, *gen, str(tmp_path / "taken"))


def test_write_errors_name_the_target_only(tmp_path, capsys):
    # The temp file's random name is no part of the report.
    gen = ("gen", "i2", "--i", "0", "--j", "0", "--k", "0", "-o")
    (tmp_path / "taken").mkdir()
    for target, code in ((tmp_path / "nodir" / "x.txt", errno.ENOENT), (tmp_path / "taken", errno.EISDIR)):
        message = _parse_error(capsys, tmp_path, *gen, str(target))
        assert message == f"cannot write {str(target)!r}: {os.strerror(code)}"
        assert ".tspgap-" not in message


_TWO_FILE_COMMANDS = [
    (("gen", "i2", "--i", "0", "--j", "0", "--k", "0"), "--export-tsplib"),
    (("localsearch", "--n", "6", "--seed", "19", "--epsilon0", "1e-6", "--max-iters", "1"), "--trace"),
]


@pytest.mark.parametrize("argv, second", _TWO_FILE_COMMANDS)
def test_two_file_commands_write_all_or_nothing(tmp_path, capsys, argv, second):
    out = tmp_path / "out.txt"
    bad = tmp_path / "nodir" / "second.txt"
    message = _parse_error(capsys, tmp_path, *argv, "-o", str(out), second, str(bad))
    assert list(tmp_path.iterdir()) == []
    assert message == f"cannot write {str(bad)!r}: {os.strerror(errno.ENOENT)}"


@pytest.mark.parametrize("twin", ["same.txt", "./same.txt"])
@pytest.mark.parametrize("argv, second", _TWO_FILE_COMMANDS)
def test_two_outputs_that_name_one_file_are_a_parse_error(tmp_path, capsys, monkeypatch, argv, second, twin):
    # Written anyway, the second text would replace the first in the one file.
    monkeypatch.chdir(tmp_path)
    message = _parse_error(capsys, tmp_path, *argv, "-o", "same.txt", second, twin)
    assert message == f"outputs 'same.txt' and {twin!r} name one file"
    assert list(tmp_path.iterdir()) == []


def test_localsearch_rejects_two_outputs_naming_one_file_before_searching(tmp_path, capsys, monkeypatch):
    def searched(*args):
        raise AssertionError("the search ran before the output paths were checked")

    monkeypatch.setattr(cli_main, "local_search", searched)
    monkeypatch.chdir(tmp_path)
    argv = ("localsearch", "--n", "6", "-o", "same.txt", "--trace", "./same.txt")
    assert _parse_error(capsys, tmp_path, *argv) == "outputs 'same.txt' and './same.txt' name one file"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "header, message",
    [
        ("3 -1 2", "dimension d must be >= 1, got -1"),
        ("3 0 2", "dimension d must be >= 1, got 0"),
        # Refused before an array of 3 x 2^40 floats is asked for.
        (f"3 {2**40} 2", f"point line 0 has 2 fields, need {2**40}"),
    ],
)
def test_a_bad_dimension_is_a_parse_error(tmp_path, capsys, header, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\n0 0\n1 0\n0 1\n")
    assert _parse_error(capsys, tmp_path, "ratio", str(path)) == message


def test_sweep_rejects_an_empty_family_list(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    argv = ("sweep", "--n-min", "6", "--n-max", "6", "--families", ",", "-o", str(out))
    assert "no sweep family" in _parse_error(capsys, tmp_path, *argv)
    assert not out.exists()


def test_infeasible_exit_code(tmp_path, capsys):
    spec = {"vertices": [[0, 0], [1, 0], [2, 0]], "edges": [[0, 1], [1, 2]], "counts": [0, 0]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, rep = run_cli(
        capsys, "gen", "subdivided", "--spec", str(spec_path), "-o", str(tmp_path / "x.txt")
    )
    assert code == 3
    assert rep["error"]["type"] == "infeasible"


def _i2_instance(tmp_path, capsys):
    path = tmp_path / "i2.txt"
    run_cli(capsys, "gen", "i2", "--i", "0", "--j", "0", "--k", "0", "-o", str(path))
    return str(path)


def test_lp_error_exit_code(tmp_path, capsys, monkeypatch):
    path = _i2_instance(tmp_path, capsys)

    def fail(inst):
        raise LpError("subtour relaxation came back unbounded")

    monkeypatch.setattr(cli_main, "solve_subtour_lp", fail)
    code, rep = run_cli(capsys, "ratio", path)
    assert code == 3
    assert rep["error"] == {"type": "infeasible", "message": "subtour relaxation came back unbounded"}


@pytest.mark.parametrize("bound_only", [False, True])
def test_ratio_rejects_an_lp_above_the_tour(tmp_path, capsys, monkeypatch, bound_only):
    # LP <= OPT <= any tour: a relaxation reported at 1.25x its cost lies
    # above both the Held-Karp tour and the heuristic one.
    path = _i2_instance(tmp_path, capsys)
    real = cli_main.solve_subtour_lp

    def inflated(inst):
        res = real(inst)
        return dataclasses.replace(res, cost=1.25 * res.cost)

    monkeypatch.setattr(cli_main, "solve_subtour_lp", inflated)
    code, rep = run_cli(capsys, "ratio", path, *(["--bound-only"] if bound_only else []))
    assert code == 3
    assert "exceeds the optimal tour length" in rep["error"]["message"]


def test_localsearch_default_epsilon0_can_spend_every_draw(tmp_path, capsys):
    # At n = 6 no seed-3 draw of the 20,000 reaches 1 + 0.01; the run
    # exits 3, writes nothing and says to lower epsilon0.
    out = tmp_path / "x.txt"
    code, rep = run_cli(capsys, "localsearch", "--n", "6", "--seed", "3", "-o", str(out))
    assert code == 3
    assert rep["error"] == {
        "type": "infeasible",
        "message": "no random 6-point start with ratio > 1 + 0.01 in 20000 draws; lower epsilon0",
    }
    assert not out.exists()


def test_localsearch_below_six_points_exits_before_drawing(tmp_path, capsys, monkeypatch):
    # Up to 5 points every ratio is 1, so no epsilon0 can help.
    monkeypatch.setattr(localsearch, "random_instance", lambda *args: pytest.fail("drew an instance"))
    out = tmp_path / "x.txt"
    code, rep = run_cli(capsys, "localsearch", "--n", "5", "-o", str(out))
    assert code == 3
    assert rep["error"] == {
        "type": "infeasible",
        "message": "local search needs 6 <= n <= 20, got 5: up to 5 points every vertex of the subtour polytope "
        "is a tour, so every ratio is 1, and Held-Karp stops at 20",
    }
    assert not out.exists()


def test_ellipse_rejects_an_infinite_eps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ellipse", "--i", "0", "--j", "0", "--eps", "inf"])
    assert exc.value.code == 2
    assert "must be finite and > 0: inf" in capsys.readouterr().err


def test_size_cap_exit_code(tmp_path, capsys):
    code, rep = run_cli(capsys, "localsearch", "--n", "21", "-o", str(tmp_path / "x.txt"))
    assert code == 4
    assert rep["error"]["type"] == "size_cap"


def test_matching_cap_exits_as_a_size_cap(tmp_path, capsys):
    # The 3x4 hexagon sheet has 22 odd base vertices, past the T-join's
    # matching cap of 18: a size cap, not an infeasible construction.
    out = tmp_path / "x.txt"
    code, rep = run_cli(capsys, "gen", "hexagon", "--rows", "3", "--cols", "4", "-o", str(out))
    assert code == 4
    assert rep["error"] == {"type": "size_cap", "message": "22 odd vertices exceeds matching cap 18"}
    assert not out.exists()


def test_gen_tetrahedron_reports_bound(tmp_path, capsys):
    code, rep = run_cli(
        capsys, "gen", "tetrahedron", "--a", "0", "--b", "0", "-o", str(tmp_path / "k4.txt")
    )
    assert code == 0
    assert rep["tjoin_ratio_bound"] == pytest.approx(4 / 3, abs=1e-12)


def test_sweep_rows(tmp_path, capsys):
    code, rep = run_cli(capsys, "sweep", "--n-min", "6", "--n-max", "8")
    assert code == 0
    rows = rep["rows"]
    assert [r["n"] for r in rows] == [6, 7, 8]
    assert rows[0]["rect"]["ratio"] == pytest.approx(18 / 17, rel=1e-12)
    assert rows[2]["rect"]["i"] == 0 and rows[2]["rect"]["j"] == 2
    assert rows[0]["metric"]["ratio"] == pytest.approx(10 / 9, rel=1e-12)


def test_sweep_parallel_matches_serial(tmp_path, capsys, monkeypatch):
    code, serial = run_cli(capsys, "sweep", "--n-min", "6", "--n-max", "10")
    monkeypatch.setenv("TSPGAP_WORKERS", "3")
    code2, parallel = run_cli(capsys, "sweep", "--n-min", "6", "--n-max", "10")
    assert code == code2 == 0
    assert serial["rows"] == parallel["rows"]
    assert parallel["workers"] == 3


def test_certify_report(capsys):
    code, rep = run_cli(capsys, "certify", "--i", "1", "--j", "2", "--k", "1")
    assert code == 0
    assert rep["passed"] is True
    assert rep["multiplier"] == pytest.approx(20 / 17, rel=1e-12)
    assert rep["coefficient_sum_error"] <= 1e-12
    assert rep["max_entry_error"] <= 1e-12


def test_ellipse_subcommand(tmp_path, capsys):
    out = tmp_path / "ell.txt"
    code, rep = run_cli(capsys, "ellipse", "--i", "0", "--j", "0", "-o", str(out))
    assert code == 0
    assert rep["ratio"] == pytest.approx(43 / 42, abs=1e-9)
    assert rep["params"]["b"] == pytest.approx(0.9, abs=1e-9)
    assert abs(rep["residuals"]["inner"]) <= 1e-9
    inst = read_instance(out)
    assert inst.n == 6


def test_localsearch_subcommand(tmp_path, capsys):
    out = tmp_path / "ls.txt"
    trace = tmp_path / "ls.trace"
    code, rep = run_cli(
        capsys,
        "localsearch", "--n", "6", "--seed", "19",
        "--epsilon0", "1e-6", "--epsilon1", "5e-4", "--epsilon3", "1e-2",
        "-o", str(out), "--trace", str(trace),
    )
    assert code == 0
    assert rep["certificate"] is True
    assert rep["best"]["final_ratio"] > 1.01
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("#")
    ratios = [float(ln.split()[1]) for ln in lines[1:]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert read_instance(out).n == 6


def test_localsearch_defaults_are_the_params_defaults():
    args = cli_main.build_parser().parse_args(["localsearch", "--n", "6", "-o", "x.txt"])
    names = [f.name for f in dataclasses.fields(LocalSearchParams) if f.name != "rng_seed"]
    assert len(names) == 6
    defaults = LocalSearchParams()
    assert {name: getattr(args, name) for name in names} == {name: getattr(defaults, name) for name in names}


@pytest.mark.parametrize(
    "flag, value",
    [("--max-iters", "1.5"), ("--max-iters", "0"), ("--epsilon0", "0"), ("--epsilon2", "inf"), ("--epsilon3", "1e400")],
)
def test_localsearch_rejects_bad_params(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["localsearch", "--n", "6", flag, value, "-o", str(tmp_path / "x.txt")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_localsearch_help_is_frozen(monkeypatch):
    # sha256 of `localsearch --help` at 100 columns: the search flags are
    # read off LocalSearchParams, in its field order, with no help text.
    monkeypatch.setenv("COLUMNS", "100")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["localsearch", "--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "316101fa0681e1aad81c63cfe6c3af70c82fd2a7e5e8594ca4e3a1c73d3653ad"
    )


def test_plot_deterministic_and_styled(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    code, _ = run_cli(capsys, "gen", "i2", "--i", "1", "--j", "2", "--k", "1", "-o", str(inst_path))
    assert code == 0
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    args = ["plot", str(inst_path), "--fractional", "--shortcut", "top_gap:1", "--labels"]
    code, rep_a = run_cli(capsys, *args, "-o", str(svg_a))
    assert code == 0
    code, rep_b = run_cli(capsys, *args, "-o", str(svg_b))
    assert code == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    body = svg_a.read_text()
    assert "stroke-dasharray" in body  # half edges dashed
    assert body.count("<circle") == 10
    assert rep_a["sha256"][str(svg_a)] == rep_b["sha256"][str(svg_b)]


@pytest.mark.parametrize("tag", ANCHOR_TAGS)
def test_plot_every_anchor_shortcut(tag, tmp_path, capsys):
    # A bare anchor tag selects the member with index None.
    inst_path = tmp_path / "inst.txt"
    run_cli(capsys, "gen", "i2", "--i", "1", "--j", "2", "--k", "1", "-o", str(inst_path))
    out = tmp_path / "a.svg"
    code, rep = run_cli(capsys, "plot", str(inst_path), "--shortcut", tag, "-o", str(out))
    assert code == 0
    assert rep["overlays"]["tour"] is True
    assert out.read_text().count("<line") == 10


def test_plot_shortcut_index_grammar(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    run_cli(capsys, "gen", "i2", "--i", "1", "--j", "2", "--k", "1", "-o", str(inst_path))
    bare, first = tmp_path / "bare.svg", tmp_path / "first.svg"
    assert run_cli(capsys, "plot", str(inst_path), "--shortcut", "bottom_gap", "-o", str(bare))[0] == 0
    assert run_cli(capsys, "plot", str(inst_path), "--shortcut", "bottom_gap:0", "-o", str(first))[0] == 0
    assert bare.read_bytes() == first.read_bytes()  # a gap tag's index defaults to 0
    for bad in (f"{ANCHOR_TAGS[0]}:1", f"{ANCHOR_TAGS[0]}:0", f"{ANCHOR_TAGS[0]}:"):
        code, rep = run_cli(capsys, "plot", str(inst_path), "--shortcut", bad, "-o", str(tmp_path / "x.svg"))
        assert code == 2
        assert rep["error"]["type"] == "parse"
        assert "takes no index" in rep["error"]["message"]


def test_plot_points_only(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("3 2 2.0\n0.0 0.0\n1.0 0.0\n0.5 0.9\n")
    out = tmp_path / "tri.svg"
    code, _ = run_cli(capsys, "plot", str(path), "-o", str(out))
    assert code == 0
    body = out.read_text()
    assert body.count("<circle") == 3
    assert "<line" not in body


def test_plot_tour_overlay_from_file(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    run_cli(capsys, "gen", "i2", "--i", "0", "--j", "0", "--k", "0", "-o", str(inst_path))
    tour_path = tmp_path / "t.txt"
    tour_path.write_text("0 1 2 3 4 5\n")
    out = tmp_path / "o.svg"
    code, _ = run_cli(capsys, "plot", str(inst_path), "--tour", str(tour_path), "-o", str(out))
    assert code == 0
    assert out.read_text().count("<line") == 6


def test_export_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    run_cli(capsys, "gen", "i3", "--i", "1", "--j", "1", "--k", "1", "-o", str(inst_path))
    out = tmp_path / "out.tsplib"
    code, rep = run_cli(capsys, "export", str(inst_path), "-o", str(out), "--name", "bench")
    assert code == 0
    name, rows = _tsplib_name_and_rows(out.read_text())
    assert name == "NAME: bench"
    assert rows == tsplib_cost_matrix(read_instance(inst_path)).tolist()


def test_gen_with_tsplib_export_writes_both(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    tsp_path = tmp_path / "inst.tsplib"
    code, rep = run_cli(
        capsys,
        "gen", "i3", "--i", "10", "--j", "9", "--k", "11",
        "-o", str(inst_path), "--export-tsplib", str(tsp_path),
    )
    assert code == 0
    assert os.path.exists(inst_path) and os.path.exists(tsp_path)
    assert rep["instance"]["n"] == 36
    assert str(tsp_path) in rep["sha256"]


# --- parser reuse ------------------------------------------------------------


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    cli_main.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)

    def cli_text(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def help_text(columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def without_wall_time(text):
        return re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": _', text)

    inst_path = tmp_path / "i2.txt"
    inst_path.write_text(format_instance(gen_I2(IJK(1, 0, 1))))
    path = str(inst_path)
    wide_first = help_text(200)
    first = cli_text("ratio", path)
    with pytest.raises(SystemExit) as exc:
        main(["ratio", path, "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli_text("gen", "i2", "--i", "0", "--j", "1", "--k", "0", "-o", str(tmp_path / "g.txt"))[0] == 0
    code, bound = cli_text("ratio", "--bound-only", path)
    assert code == 0 and json.loads(bound)["opt"]["certified"] is False
    last = cli_text("ratio", path)
    assert first[0] == last[0] == 0
    assert without_wall_time(first[1]) == without_wall_time(last[1])
    narrow_later = help_text(60)
    assert built.count("tspgap") == 1

    # A parser first built under the other width prints the same help:
    # COLUMNS is read when help is printed, not when the parser is built.
    cli_main.build_parser.cache_clear()
    narrow_first = help_text(60)
    wide_later = help_text(200)
    assert built.count("tspgap") == 2
    assert narrow_first == narrow_later and wide_first == wide_later
    assert narrow_first != wide_first


def test_parser_is_not_built_at_import():
    code = (
        "import importlib; "
        "print(importlib.import_module('tspgap.cli.main').build_parser.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_module_entry_point_runs_without_warnings():
    # `python -m tspgap.cli.main` runs the module as __main__; a package that
    # imported it first would make runpy warn before the help text.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tspgap.cli.main", "localsearch", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage:")
