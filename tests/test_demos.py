"""Every script under demos/ runs to completion against this checkout."""

import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(_DEMOS) >= 6


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # A fresh working directory: demos may write files (06 writes demo_out/).
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    env.pop("TSPGAP_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
