"""Edge-vector arithmetic frozen bit for bit: fractional costs, gradients and
minimum cuts at subtour-LP optima, the convex-combination certificate, and
the `plot --fractional` SVG."""

import functools
import hashlib
import json

import numpy as np
import pytest

from tspgap import lp
from tspgap.cli.main import main
from tspgap.core import Instance, NormSpec, fractional_cost
from tspgap.exact import held_karp
from tspgap.families import IJK, fractional_xijk, lambda_certificate
from tspgap.localsearch import grad_fractional, grad_tour_length
from tspgap.lp import separate_subtour, solve_subtour_lp


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=float).tobytes()).hexdigest()


def _min_cut(x):
    # tol = -1 reports the minimum cut itself (its value is at most 2 < 3).
    cut = separate_subtour(x, tol=-1.0)
    return tuple(sorted(cut.vertices)), float(cut.value).hex()


# Random instances (p, d, n, seed) whose subtour-LP optimum is fractional
# and needed cuts: uniform points default_rng(seed).random((n, d)).
def _random_case(p, d, n, seed):
    return Instance(np.random.default_rng(seed).random((n, d)), NormSpec(p))


# (p, d, n, seed) -> at the subtour-LP optimum x: fractional_cost(x).hex(),
# sha256 of grad_fractional(x) and of grad_tour_length(optimal tour), the
# minimum cut's vertices and value.hex(); then the same cut digest at the
# degree-constrained optimum (no cut is ever violated by more than 2.5, so
# separating with tol = 2.5 stops after the first round), which has subtours.
_GOLDEN_LP = {
    (1.5, 2, 8, 163): (
        '0x1.60b9a0cb0c4bap+1',
        '6b1466eb8b90191ac0ae97536231a1990e81f481fec8490166e9ba0581b9fc90',
        '1d379f2a194325bc9847e83829b8bc16902fc5f4e3d1dd4a43768383b367a4e6',
        (0,),
        '0x1.0000000000000p+1',
        (0, 2, 3, 6),
        '0x0.0p+0',
    ),
    (1.5, 2, 12, 35): (
        '0x1.ed5ecac29057cp+1',
        '3c2a03b26b11cdaaa885779860571ab2a9a41a77fb70e3726fb654af69450d9a',
        '7fcce06e728352451ed479b95b7724c2edd8a7c1be57efa2801782e8f06a6ea5',
        (0,),
        '0x1.0000000000000p+1',
        (0, 1, 2, 3, 4, 7, 8, 11),
        '0x0.0p+0',
    ),
    (1.5, 3, 8, 53): (
        '0x1.3c02a55b671d7p+2',
        'ba26457815547abac462c74741d2fb7e3d6e37b64580926408e8fcafc07ced6e',
        '902f2b7292931052f3f952d67d390fb7e89e47f95584830e01bf08e6f6f45256',
        (0,),
        '0x1.0000000000000p+1',
        (0, 6, 7),
        '0x0.0p+0',
    ),
    (1.5, 3, 12, 3): (
        '0x1.2471a9147705dp+2',
        'd423325ce924848a3ab8d8a81d27d082b97a9bce75919c69c1fe7a9abf88289d',
        '3c21313511d34d713a2f94ab947e5dc6aeafd975cabb86003477258f48186bc1',
        (0,),
        '0x1.0000000000000p+1',
        (0, 2, 3, 4, 10),
        '0x0.0p+0',
    ),
    (2.0, 2, 8, 90): (
        '0x1.59c1e8651f1cdp+1',
        '07bc5d0c4660614dfa1e92f9def34e25c54ffb9cb7aff4836ce0d3e2340a3e90',
        'c329d2531471541a8b6e83bd1fab4686357a8a8a59515f899c6c2396ccc42c42',
        (0,),
        '0x1.0000000000000p+1',
        (0, 3, 5, 6),
        '0x0.0p+0',
    ),
    (2.0, 2, 12, 35): (
        '0x1.d427af589b5bdp+1',
        'b7bbe348e021798335f8d2683a65b9fe335e029be7d6c98ed01c0d6403a879d2',
        '4360c36dcc7614238063d48e134d5740b48aef05ac0d43f805ba4de0b66eb154',
        (0,),
        '0x1.0000000000000p+1',
        (0, 1, 2, 3, 4, 7, 8, 11),
        '0x0.0p+0',
    ),
    (2.0, 3, 8, 53): (
        '0x1.18a202340502cp+2',
        'b259beb26cff94c02a598f49654e7c80f205cb808a613d6efddd59a1cb86f2ee',
        'cc87d0fa5f4ee490a90fbb7b8e067181143d105eb6c8aeb50bdb977785313069',
        (0,),
        '0x1.0000000000000p+1',
        (0, 6, 7),
        '0x0.0p+0',
    ),
    (2.0, 3, 12, 3): (
        '0x1.024703b540559p+2',
        '18f16b68b12122c0dfc936802158c59ab431f59b54419d7fb0d562210aeda508',
        'e8d66d95b87467aff39584cc0aad55b634440f686d9bc94e4d063616609a1d12',
        (0,),
        '0x1.0000000000000p+1',
        (0, 2, 3, 4, 10),
        '0x0.0p+0',
    ),
    (3.0, 2, 8, 74): (
        '0x1.8816695d3e8a1p+1',
        '980623e0909f241d403906eb148c4287c20621be18015afe5ce9f7d202cb2f88',
        'd47597108d2d657bd31e8c054c92ba2d3d2f552fcd49fa30feb2aaecb74deb1b',
        (0,),
        '0x1.0000000000000p+1',
        (0, 1, 2, 4, 7),
        '0x0.0p+0',
    ),
    (3.0, 2, 12, 16): (
        '0x1.b4b04746f6767p+1',
        '16d33bda52972831e5a75c06f810d17a87c6221c1dc0cd8d0e76e3ece6ff3720',
        '2f08f64248b5714865232187e78a70f2680879fb9657260e65743b9b4a62c8a1',
        (0,),
        '0x1.0000000000000p+1',
        (0, 1, 2, 3, 7, 8, 9, 10, 11),
        '0x1.0000000000000p+0',
    ),
    (3.0, 3, 8, 25): (
        '0x1.dd3f1fc9c6c76p+1',
        '503e80ad40cf5bb2d3e7898e10fd88eacebfbe0f10984ac3534a3228f4c659c5',
        'ea557d774db3957e081425a9e8d675fdab1ce7d088b4405e8d3f9ad8a93ef61d',
        (0,),
        '0x1.0000000000000p+1',
        (0, 1, 6),
        '0x0.0p+0',
    ),
    (3.0, 3, 12, 3): (
        '0x1.d1efac84a0b20p+1',
        '6ef5b6876b532ff0adac14d86db463802ae38646a2589dbad791c052839ff915',
        '5abf653dae6bb0541b538875a2ff67f6f7769ec51fff94942931fd462af208fa',
        (0,),
        '0x1.0000000000000p+1',
        (0, 3, 4),
        '0x0.0p+0',
    ),
}

# x_ijk -> minimum cut vertices and value.hex().
_GOLDEN_XIJK_CUT = {
    (0, 0, 0): ((0,), '0x1.0000000000000p+1'),
    (1, 2, 1): ((0,), '0x1.0000000000000p+1'),
    (3, 0, 2): ((0,), '0x1.0000000000000p+1'),
    (2, 4, 1): ((0,), '0x1.0000000000000p+1'),
}

# lambda_certificate -> (sum_error.hex(), max_entry_error.hex()).
_GOLDEN_CERTIFICATE = {
    (0, 0, 0): ('0x1.0000000000000p-52', '0x0.0p+0'),
    (1, 2, 1): ('0x0.0p+0', '0x1.0000000000000p-52'),
    (4, 2, 3): ('0x1.0000000000000p-52', '0x1.0000000000000p-51'),
}

# sha256 of `tspgap plot --fractional --labels` on `tspgap gen` output.
_GOLDEN_SVG = {
    ('i2', (1, 2, 1)): '80a8ec643622d4033cac6117de96909b262d7532430e09634672114194eb9ffa',
    ('i3', (2, 0, 1)): '3207fbfe6c241ec071827491b9e491626d6379b308889879fcfb83a940b8464a',
}


def _lp_digest(inst):
    x = solve_subtour_lp(inst).x
    tour = held_karp(inst).tour
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "separate_subtour", functools.partial(separate_subtour, tol=2.5))
        first_round = solve_subtour_lp(inst).x
    return (
        fractional_cost(inst, x).hex(),
        _sha(grad_fractional(inst, x)),
        _sha(grad_tour_length(inst, tour)),
        *_min_cut(x),
        *_min_cut(first_round),
    )


@pytest.mark.parametrize("case", sorted(_GOLDEN_LP))
def test_lp_optimum_arithmetic_bit_exact(case):
    assert _lp_digest(_random_case(*case)) == _GOLDEN_LP[case]


@pytest.mark.parametrize("trip", sorted(_GOLDEN_XIJK_CUT))
def test_xijk_min_cut_bit_exact(trip):
    assert _min_cut(fractional_xijk(IJK(*trip))) == _GOLDEN_XIJK_CUT[trip]


@pytest.mark.parametrize("trip", sorted(_GOLDEN_CERTIFICATE))
def test_lambda_certificate_errors_bit_exact(trip):
    rep = lambda_certificate(IJK(*trip))
    assert (rep.sum_error.hex(), rep.max_entry_error.hex()) == _GOLDEN_CERTIFICATE[trip]


def _plot_sha(tmp_path, capsys, family, trip):
    inst_path = tmp_path / f"{family}.txt"
    svg_path = tmp_path / f"{family}.svg"
    ijk = ["--i", str(trip[0]), "--j", str(trip[1]), "--k", str(trip[2])]
    assert main(["gen", family, *ijk, "-o", str(inst_path)]) == 0
    capsys.readouterr()
    assert main(["plot", str(inst_path), "--fractional", "--labels", "-o", str(svg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    digest = hashlib.sha256(svg_path.read_bytes()).hexdigest()
    assert report["sha256"][str(svg_path)] == digest
    return digest


@pytest.mark.parametrize("family, trip", sorted(_GOLDEN_SVG))
def test_fractional_svg_bit_exact(tmp_path, capsys, family, trip):
    assert _plot_sha(tmp_path, capsys, family, trip) == _GOLDEN_SVG[(family, trip)]
