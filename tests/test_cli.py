"""End-to-end command-line behavior: formats, reports, exit codes, plots."""

import json
import math
import os

import numpy as np
import pytest

from tspgap.cli.formats import (
    FormatError,
    format_instance,
    format_tsplib,
    parse_instance,
    parse_tour,
    parse_tsplib,
    read_instance,
    tsplib_cost_matrix,
)
from tspgap.cli.main import main
from tspgap.core import Instance, NormSpec, Tour
from tspgap.ellipse import ellipse_construct
from tspgap.families import ANCHOR_TAGS, IJK, gen_I2, gen_I3


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
    y0 = inst.index_of("Y0")
    assert m[0, y0] == 190
    # To the third path: 1/11 + 1/12 -> floor(174.24...) = 174.
    z0 = inst.index_of("Z0")
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


def test_tsplib_round_trip():
    inst = gen_I2(IJK(1, 0, 1))
    text = format_tsplib(inst, name="demo", comment="x")
    name, matrix = parse_tsplib(text)
    assert name == "demo"
    assert np.array_equal(matrix, tsplib_cost_matrix(inst))
    with pytest.raises(FormatError):
        parse_tsplib(text.replace("FULL_MATRIX", "UPPER_ROW"))


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


def test_infeasible_exit_code(tmp_path, capsys):
    spec = {"vertices": [[0, 0], [1, 0], [2, 0]], "edges": [[0, 1], [1, 2]], "counts": [0, 0]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, rep = run_cli(
        capsys, "gen", "subdivided", "--spec", str(spec_path), "-o", str(tmp_path / "x.txt")
    )
    assert code == 3
    assert rep["error"]["type"] == "infeasible"


def test_size_cap_exit_code(tmp_path, capsys):
    code, rep = run_cli(capsys, "localsearch", "--n", "21", "-o", str(tmp_path / "x.txt"))
    assert code == 4
    assert rep["error"]["type"] == "size_cap"


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
    name, matrix = parse_tsplib(out.read_text())
    assert name == "bench"
    inst = read_instance(inst_path)
    assert np.array_equal(matrix, tsplib_cost_matrix(inst))


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
