"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about 20 seconds on two cores.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("search", "certify", "bound", "curved")


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _run(*args, env=None, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, run, *args], capture_output=True, text=True, timeout=170, env=env, cwd=cwd
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True, proc.stdout
    assert last["failed"] == 0 and last["attempted"] >= 1
    names = _declared("per_layer" if trace == "1" else "end_to_end")
    assert list(last["metrics"]) == names
    for metric in last["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace == "0":
        assert all(last["metrics"][n]["value"] > 0 for n in names)


def test_refuses_parallel_workers():
    env = dict(os.environ, TSPGAP_WORKERS="2")
    proc = _run("--workload", "curved", "--seed", "1", "--seconds", "0.5", "--trace", "0", "--smoke", env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_program_sources(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark: no tspgap.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run(
        "--workload", "curved", "--seed", "1", "--seconds", "1", "--trace", "0",
        env=env, cwd=tmp_path, run=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
