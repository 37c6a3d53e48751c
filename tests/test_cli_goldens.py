"""Every CLI command's output frozen: the sha256 of its report (stdout and
stderr, with the value of `wall_time_s` masked), its exit code, and the
sha256 of each file it writes (masked the same way).  Commands run in one working directory on relative
paths, so reports and error messages carry no temporary path."""

import contextlib
import hashlib
import io
import json
import re

import numpy as np
import pytest

from tspgap.cli.formats import format_instance
from tspgap.cli.main import main
from tspgap.core import Instance, NormSpec
from tspgap.ellipse import ellipse_construct
from tspgap.families import IJK, gen_I2, gen_I3

_LS = ["--epsilon0", "1e-6", "--epsilon1", "5e-4", "--epsilon3", "1e-2"]

# name -> (argv, files the command writes)
_COMMANDS = {
    "gen_i2": ("gen i2 --i 1 --j 2 --k 1 -o g_i2.txt --export-tsplib g_i2.tsp", ["g_i2.txt", "g_i2.tsp"]),
    "gen_i3": ("gen i3 --i 0 --j 1 --k 0 -o g_i3.txt --export-tsplib g_i3.tsp", ["g_i3.txt", "g_i3.tsp"]),
    "gen_tetrahedron": ("gen tetrahedron --a 1 --b 2 -o g_tet.txt --export-tsplib g_tet.tsp", ["g_tet.txt", "g_tet.tsp"]),
    "gen_hexagon": ("gen hexagon --rows 2 --cols 2 --k 1 -o g_hex.txt", ["g_hex.txt"]),
    "gen_subdivided": ("gen subdivided --spec spec.json -o g_sub.txt --export-tsplib g_sub.tsp", ["g_sub.txt", "g_sub.tsp"]),
    "gen_subdivided_bridged": ("gen subdivided --spec bridged.json -o g_bridged.txt", []),
    "gen_subdivided_disconnected": ("gen subdivided --spec disconnected.json -o g_disconnected.txt", []),
    "gen_subdivided_crossing": ("gen subdivided --spec crossing.json -o g_crossing.txt", []),
    "gen_subdivided_missing": ("gen subdivided --spec missing.json -o g_missing.txt", []),
    "gen_subdivided_bad_json": ("gen subdivided --spec bad.json -o g_bad.txt", []),
    "gen_ellipse": ("gen ellipse --i 1 --j 0 -o g_ell.txt --export-tsplib g_ell.tsp", ["g_ell.txt", "g_ell.tsp"]),
    "ratio_i2": ("ratio i2.txt", []),
    "ratio_i3": ("ratio i3.txt", []),
    "ratio_random": ("ratio rand.txt", []),
    "ratio_ellipse": ("ratio ell.txt", []),
    "ratio_bound_only": ("ratio --bound-only rand.txt", []),
    "ratio_bound_only_n30": ("ratio --bound-only big.txt", []),
    "ratio_missing": ("ratio missing.txt", []),
    "ratio_unparsable": ("ratio bad.json", []),
    "sweep": ("sweep --n-min 6 --n-max 9", []),
    "sweep_all_to_file": ("sweep --n-min 6 --n-max 8 --families rect,metric,ellipse -o sweep.json", ["sweep.json"]),
    "sweep_unknown_family": ("sweep --n-min 6 --n-max 8 --families rect,bogus", []),
    "sweep_n_min_too_small": ("sweep --n-min 5 --n-max 8", []),
    "sweep_empty_range": ("sweep --n-min 8 --n-max 7", []),
    "localsearch": ("localsearch --n 6 --seed 19 " + " ".join(_LS) + " -o ls.txt --trace ls.trace", ["ls.txt", "ls.trace"]),
    "localsearch_n11": ("localsearch --n 11 --seed 0 --max-iters 4 " + " ".join(_LS) + " -o ls11.txt --trace ls11.trace", ["ls11.txt", "ls11.trace"]),
    "localsearch_size_cap": ("localsearch --n 21 -o ls21.txt", []),
    "ellipse": ("ellipse --i 0 --j 1 -o e01.txt", ["e01.txt"]),
    "ellipse_outer_chain": ("ellipse --i 2 --j 0 -o e20.txt", ["e20.txt"]),
    "ellipse_no_file": ("ellipse --i 1 --j 1", []),
    "certify_121": ("certify --i 1 --j 2 --k 1", []),
    "certify_403": ("certify --i 4 --j 0 --k 3", []),
    "plot_fractional_shortcut": ("plot i2.txt -o p_frac.svg --fractional --labels --shortcut top_gap:1", ["p_frac.svg"]),
    "plot_gap_default_index": ("plot i2.txt -o p_gap.svg --shortcut middle_gap", ["p_gap.svg"]),
    "plot_tour_file": ("plot i2.txt -o p_tour.svg --tour tour.txt", ["p_tour.svg"]),
    "plot_points_only": ("plot rand.txt -o p_rand.svg", ["p_rand.svg"]),
    "plot_unstructured": ("plot rand.txt -o p_bad.svg --fractional", []),
    "plot_unknown_tag": ("plot i2.txt -o p_bad.svg --shortcut nosuch:0", []),
    "plot_bad_index": ("plot i2.txt -o p_bad.svg --shortcut top_gap:x", []),
    "plot_gap_index_out_of_range": ("plot i2.txt -o p_bad.svg --shortcut top_gap:99", []),
    "plot_gap_index_negative": ("plot i2.txt -o p_bad.svg --shortcut middle_gap:-1", []),
    "plot_missing_tour": ("plot i2.txt -o p_bad.svg --tour missing_tour.txt", []),
    "export_named": ("export i3.txt -o i3.tsp --name bench", ["i3.tsp"]),
    "export_default_name": ("export rand.txt -o rand.tsp", ["rand.tsp"]),
    "usage_gen_missing_args": ("gen hexagon --rows 1", []),
    "usage_gen_bad_value": ("gen i2 --i -1 --j 0 --k 0 -o x.txt", []),
    "help_gen_i2": ("gen i2 --help", []),
    "help_gen_subdivided": ("gen subdivided --help", []),
    "help_gen_ellipse": ("gen ellipse --help", []),
}

# name -> (exit code, sha256 of the masked report or help/usage text,
#          {written file: sha256}); recorded before the CLI refactor.
_GOLDEN = {
    'certify_121': (0, '3c1ed102fd40348337a9391bb00416a165407756eb9d1a9ee473b4bea067a6b1', {}),
    'certify_403': (0, '98332531c838093b00fddad7b26387257e956fecf99ef786c8b65114d35b4680', {}),
    'ellipse': (0, '33aac8e62432fe4d8c1dfacf8af86b3ceb7b04d271f614e689a4ab4a225ab874', {'e01.txt': 'e4dd5ed68a89c21e78f9c232d968558c53b63d95ecdcbd2a0c5f6f3cfa237ca2'}),
    'ellipse_outer_chain': (0, '06e4520057a3b9a2ccd6ca887a298a18cfe0e627190e66b9721d5f535eec5175', {'e20.txt': '9463915aff90e63337e79d44e27f892757246b6ad83f3f8cdc19f01411352996'}),
    'ellipse_no_file': (0, 'e1344acd26be499bc2c05008ea340ec99bca5f4152773001bdd8b9dda78c9b63', {}),
    'export_default_name': (0, '81ef4917788b2b02ff421302b6f8a4c2c0a4b9fe822eae441b455a98f9d22ce1', {'rand.tsp': 'c891814534929b89216d694831ee508e5b6312f78ef22a49bd3756c8742da318'}),
    'export_named': (0, '0e754dd157bf58900e35406036e12014d74c98b6cb9a784f8ce8ed93928e766f', {'i3.tsp': '25e415c038a981d51bd37e10384a4636634f9f16d0f0f12c0df5519ad13cfc89'}),
    'gen_ellipse': (0, 'e8db6a944c29b41fdec82536a58548326ddfd12f4118e75c22cb63d41f3acf70', {'g_ell.txt': '7e34d94b6330b3d4266a5db066107b055046c529c4155d9e4ebf2be383d859a4', 'g_ell.tsp': 'c09302c43d9e17ea18fdad47470543f6225165e9384b6b09fa35d3e05cf04080'}),
    'gen_hexagon': (0, 'ba7637664b65afe4bf556317702eca9df8f63df05aca887f397957c52d09a148', {'g_hex.txt': 'cac3bec396e9991fce2064706bdb513a895609946118f1e554abe44760d290a6'}),
    'gen_i2': (0, 'aceb2174f369c8c8cc2c83dfdfa921d7969b441f5a76967bd20d8363a5a87579', {'g_i2.txt': '448e4b9b57c4ba7f6c85bc0361bf87ca5a6203f24b910bc356efc51a956283d3', 'g_i2.tsp': 'cb5632e98ad0fb9a83b8b4325130e27c1e53d5fa06b656a32c94ce501eb6ad71'}),
    'gen_i3': (0, '26ad5a2d30458104f99be248b1cf209f36922663c35277c804ba2a48e9a4b5b6', {'g_i3.txt': '2cb618e009d363403eb52f19aa0e05be005f80ce6e10cc841e624bfe79107eba', 'g_i3.tsp': '3799c600a93269caf39d4dec635d94ac08cb950ccbd0829ab4892a821624bbc1'}),
    'gen_subdivided': (0, 'e890d4699124eb9e5b68d0cf0b56fa18daf5deaa751debd58a81e49cdba35e8a', {'g_sub.txt': '676c5e899b29e8fb789d315760863e87b1a60b40e564cd6ccf8c9644927d2806', 'g_sub.tsp': '150735fe486dde3d1157d2ac815427a0fb518ca709aa28381b25580e459d66b2'}),
    'gen_subdivided_bad_json': (2, '18ef3f6f2f4d22239b600240c6e40e0b7ae1ad2e900fa0cd941f7248b04d4c91', {}),
    'gen_subdivided_bridged': (3, '3d8147be58d8b631723f7addbc3de4675a76e4db092a759d6e35b3b0945ab192', {}),
    'gen_subdivided_crossing': (3, '02d48c868a343e45c3cddfddd1e83f7cf180ebb6a194b34ca6b5f9150d20e7b7', {}),
    'gen_subdivided_disconnected': (3, '472cf7ccb5450ea5d56b7d93724d2c4b7ead3669799a085d3dbae34e1724e674', {}),
    'gen_subdivided_missing': (2, 'a715eddcf65d3d5ffab4139f97179d3ec07f5d74681e815b63eb9336254925da', {}),
    'gen_tetrahedron': (0, '4f18c6690a05897d50f4973b1ee4ae961deddd890e8b6ee8a59ae2d0888673f5', {'g_tet.txt': '67f9364cf82dbe609d0d1f698ca64f37ac75b071bdcf8efae9ead218c8087537', 'g_tet.tsp': 'b7b93f14d2eca770deefdc85efc5efde1d4a2b38f6b28467d87f53a5f3b667ec'}),
    'help_gen_ellipse': (0, 'a2a9acdfe6615bc411824a5e588456bdef9216f28384fc7b0c46f8c083075b93', {}),
    'help_gen_i2': (0, '4489259e80c37c98abc3bd8bf18878dba6edeacf38a4f08f6fdc11d99796b842', {}),
    'help_gen_subdivided': (0, '731ead5f183c9424461437b749fb03817f18adea24d1356caba07ed00e3a594c', {}),
    'localsearch': (0, '96e9d3a3b7d79e08e9427793ae7b543e51aa8eb0c3373e8df7792bb6fbee618d', {'ls.txt': '58ff3aa38bc489a5deac0b23a9086647eb5033c67dd78e99b596eaef5df22dce', 'ls.trace': '3d1b5e13bf89f6564b607cfb9c1e2980c463343ca8d9c6f296c50fd584afc0f9'}),
    'localsearch_n11': (0, '90c79863bb373adef8a6a5b4a653f9765bc5a4902470caf50f2733274a17c5c4', {'ls11.txt': '48ecab68a0139d6922b81c5d443478c4240c6e6bde92d68ee4d7c982071a9447', 'ls11.trace': '37337231d505b7e828b360bfbfc22843acde024a85e88875c4b20abe5e07f854'}),
    'localsearch_size_cap': (4, '19f10b57b3ed6b47a5a8cc37b1a89f1f3e59c809f822c75476133ba3f3830cc6', {}),
    'plot_bad_index': (2, '05c2702728b57112dab99af55204605c86b271bf121a4e0db5ffe121eb15b1ba', {}),
    'plot_fractional_shortcut': (0, '724bbc11631362bcdc75c44e52df0436a5ba11982b1c27d11c9827d246e5e8b2', {'p_frac.svg': 'e12146ba0ed02d49fe1ab779fc9f43597620cacd5d40b7700071dd8f5e966731'}),
    'plot_gap_default_index': (0, 'b3c8c3820de94bff2d7780c24fcb49ec8c9e1efee775f0c6fe5ca37874a18acd', {'p_gap.svg': '7a36a2db45f0e130dbee4ae00d99502746a32c8ea0c6cbc5474d173e05914cab'}),
    'plot_gap_index_negative': (2, '06e6af44176eb09003d2b4b7c405bc1882262703f1f76f02e4a3f5e5c322a85c', {}),
    'plot_gap_index_out_of_range': (2, '8434f6b6945cb49c00e7d6a9b5a1b4312105658ce03db61310bdd13d4afa288d', {}),
    'plot_missing_tour': (2, 'a2f74e515fb0e137e8fe38be3327a7f8eca531a817b8efe58a34437d64fc0d61', {}),
    'plot_points_only': (0, '0e14af45b22bf85412b06d9d9310072282f801040b1c58198e86937cd2e568fd', {'p_rand.svg': '8ea1de04103be97dac4c3dccd017f243c0a9121524d944de8b744ebfed81c464'}),
    'plot_tour_file': (0, '3527c5e6a9eb4dd1f35a03d57f014a9aa872928c679ec9830cddd07a4541dae6', {'p_tour.svg': '7d2911c63e52c929d41ab1a7c3db6abca392457d8ae2577e4278a59dcbe4db9e'}),
    'plot_unknown_tag': (2, 'c7760b4fa1bac6945aea529218c63b64ba1a5b86c0215e6e9da1ddc0072c8a65', {}),
    'plot_unstructured': (2, '6a3456806c858f27c8ae8d820cd54ceb2ec3d5bca5b2e8340946bcfdfa368041', {}),
    'ratio_bound_only': (0, '7a2974593ce5bc8f3bb6d23189b3c529e5a36ad44e60d20fb555338ab9533cc7', {}),
    'ratio_bound_only_n30': (0, '1a00c3f774b7d109de8f4dfdc0075db29f619dfce24cb5ae1327d54ea2ac0e29', {}),
    'ratio_ellipse': (0, 'd1176d2b0257e49defb46e5cda214fd00953dd263056f5de0c1292d9487425e1', {}),
    'ratio_i2': (0, '50262d573c3437e6f3be92a2d866db80f6521e11ebfc0e4bbb58462cbffc2496', {}),
    'ratio_i3': (0, 'd3ee970def98de17555f8048b6eba9128892a24fb1c890b527bc5bbff536eacb', {}),
    'ratio_missing': (2, '67fecdefafbcbe0a41a5413407216cf1d84d247c8d4c30ff9728fa4eafce69b5', {}),
    'ratio_random': (0, '74bea9bf4377c9ce7b3cd1e6db1cfce8a8bc8114e1ef95e5a03aca0a5367f07b', {}),
    'ratio_unparsable': (2, '607e45c5d8ffa5b822de23baa74c32d1f5f802240e1ddaffd6ceef9b7625ac54', {}),
    'sweep': (0, 'f3919224ba01076ef94aacfef740418afef57ad208121a64a93ab00fdf82263c', {}),
    'sweep_all_to_file': (0, 'e1942c264905c38af55baa2bbb69e28ef4b124599fc17720cf209e6258354ae9', {'sweep.json': '79eedc09f56c215bf1b4793bcaa6f9b65adbcc351a6b89f4f18b9b5d840c5458'}),
    'sweep_empty_range': (2, '44f94a95c9cfc0e99f2537b7eb63636d236e249dd07c0f081fb209067cdfdf2d', {}),
    'sweep_n_min_too_small': (2, '49f6511805f0078d2fdbfdeb59941a04302b9e695da3faeb6f7d85656b751b1c', {}),
    'sweep_unknown_family': (2, '81afbb13d2db6dc644e958ce818a611f8b9716a5a2a10ae2dd41e5fc4f91c4d0', {}),
    'usage_gen_bad_value': (2, 'eab9e4dba0315b34718fdf1925249eba48db7070324d7bcfe2436a9d251fef03', {}),
    'usage_gen_missing_args': (2, '6310dd6d4326ffd67b1d4729a7af6f87b280b2a7690d1129ed02e6ece0fd6304', {}),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_goldens")
    rng = np.random.default_rng(7)
    inputs = {
        "i2.txt": gen_I2(IJK(1, 2, 1)),
        "i3.txt": gen_I3(IJK(0, 1, 0)),
        "ell.txt": ellipse_construct(0, 0).instance,
        "rand.txt": Instance(rng.uniform(size=(13, 2)), NormSpec(2.0)),
        "big.txt": Instance(rng.uniform(size=(30, 2)), NormSpec(1.5)),
    }
    for name, inst in inputs.items():
        (root / name).write_text(format_instance(inst, comment=name))
    (root / "tour.txt").write_text("0 2 1 3 4 5 6 7 8 9\n")
    spec = {"vertices": [[0, 0], [2, 0], [1, 1.5], [1, 0.5]], "edges": [[0, 1], [1, 2], [0, 2], [0, 3], [1, 3], [2, 3]], "counts": [1, 0, 2, 0, 1, 0]}
    (root / "spec.json").write_text(json.dumps(spec))
    bridged = {"vertices": [[0, 0], [1, 0], [2, 0]], "edges": [[0, 1], [1, 2]], "counts": [0, 0]}
    (root / "bridged.json").write_text(json.dumps(bridged))
    # Two disjoint triangles; a square with both diagonals.
    disconnected = {"vertices": [[0, 0], [1, 0], [0, 1], [3, 0], [4, 0], [3, 1]], "edges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]], "counts": [0] * 6}
    (root / "disconnected.json").write_text(json.dumps(disconnected))
    crossing = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2], [1, 3]], "counts": [0] * 6}
    (root / "crossing.json").write_text(json.dumps(crossing))
    (root / "bad.json").write_text("{not json\n")
    return root


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _masked(text: str) -> str:
    return re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": null', text)


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    text = out.getvalue()
    return code, _masked(text) + err.getvalue()


def _observe(name: str, workdir, monkeypatch) -> tuple[int, str, dict]:
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("TSPGAP_WORKERS", raising=False)
    monkeypatch.setenv("COLUMNS", "100")
    argv, files = _COMMANDS[name]
    code, text = _run(argv.split())
    written = {f: _sha(_masked((workdir / f).read_text()).encode()) for f in files}
    return code, _sha(text.encode()), written


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_cli_output_frozen(name, workdir, monkeypatch):
    assert _observe(name, workdir, monkeypatch) == _GOLDEN[name]
