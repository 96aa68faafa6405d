"""Self-checks of the benchmark, kept apart from the package's test suite.

Run from the root of a checkout with either of::

    python3 perfbench/selfcheck.py
    python3 -m pytest -q perfbench/selfcheck.py

The file name does not match pytest's ``test_*.py`` pattern, so a plain
``pytest`` run of the repository does not collect it.  The traced-run checks
take about two minutes on two cores.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracer import COUNT_METRICS
from workloads import WORKLOADS

PINNED_SEEDS = (5, 2403)


def _bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_counts_repeat_exactly(name):
    first, second = (_result(_bench("--workload", name, "--seed", "5",
                                    "--seconds", "1", "--trace", "1"))
                     for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(COUNT_METRICS) <= set(result["metrics"])
    for metric in COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


@pytest.fixture
def work_dir():
    path = os.path.join(run.WORK, "selfcheck")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_reference_matches_pinned_digests(name, seed, work_dir):
    # raises BenchError when the reference package's output has drifted
    _, outputs = run.run_reference(name, seed, work_dir, jobs=2)
    assert "summary.json" in outputs


def test_output_check_tolerance(work_dir):
    _, reference = run.run_reference("paper", 5, work_dir, jobs=2)
    out_dir = os.path.join(work_dir, "out")
    assert run.check_outputs(out_dir, reference) == []

    def with_lambda_scaled(factor):
        summary = copy.deepcopy(reference["summary.json"])
        summary["strategies"]["uncertainty"]["lambda"]["mean"][3] *= factor
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh)
        return run.check_outputs(out_dir, reference)

    assert with_lambda_scaled(1.0 + 1e-13) == []
    assert len(with_lambda_scaled(1.0 + 1e-11)) == 1
    os.remove(os.path.join(out_dir, "per_query.csv"))
    assert run.check_outputs(out_dir, reference)


def test_refuses_to_run_without_the_package():
    bare = os.path.join(run.WORK, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        done = _bench("--workload", "paper", "--seed", "5", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert "correct" not in done.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
