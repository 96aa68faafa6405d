"""Benchmark of ``alqsim compare``: three workloads timed from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 5 --seconds 20 --trace 0

One run is a closed loop with a single client.  It starts a fresh
``python -m alqsim compare`` process for the workload, waits for it to exit,
checks its output files, and starts the next, until ``--seconds`` have
passed.  Program experiments alternate with experiments of the reference
copy of the package in ``perfbench/oracle``, and timings are reported
relative to the reference, which cancels the drift of a shared machine.
``--seed`` is forwarded to ``compare --seed``.  Every output is compared
with the reference's output at the same seed; any number off by more than
1e-12 relative, or a non-zero exit, counts all the experiment's
strategy-rounds as failed.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of
``perfbench/tracer.py``.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLE_SRC = os.path.join(HERE, "oracle")
WORK = os.path.join(ROOT, ".bench_work")
PINS = os.path.join(HERE, "reference.json")

OUTPUT_FILES = ("summary.json", "per_query.csv", "phi.json")
REL_TOL = 1e-12
SETUP_REPEATS = 7
RUN_BUDGET_S = 170.0  # a run must end within 180 s

# A fresh interpreter that imports the package and builds and validates the
# workload's configurations, one per strategy, without running a round.
SETUP_PROBE = """
import json, sys
import numpy
import alqsim.cli as cli
args = cli.build_parser().parse_args(json.loads(sys.argv[1]))
configs = [cli._experiment_config(args, kind) for kind in cli.STRATEGY_KINDS]
print(json.dumps({"numpy": numpy.__version__, "configs": len(configs)}))
"""


class BenchError(Exception):
    """The benchmark cannot measure: program missing or reference broken."""


def child_env(pythonpath: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ALQ_SEED")}
    env["PYTHONPATH"] = pythonpath
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd, pythonpath: str, cwd: str, timeout: float, stdout=subprocess.DEVNULL):
    """Run ``cmd`` in a process group of its own; return (exit code, wall s, rusage).

    The rusage covers the child and every process it waited for, such as
    pool workers.  The whole group is killed on timeout and once the child
    has exited, so no process outlives the call.
    """
    with open(os.path.join(cwd, "stderr.txt"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(pythonpath), stdout=stdout,
                                stderr=err, start_new_session=True)
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _stderr_tail(cwd: str) -> str:
    with open(os.path.join(cwd, "stderr.txt")) as fh:
        return fh.read().strip()[-2000:]


def run_compare(argv, pythonpath: str, cwd: str, timeout: float) -> dict:
    """One ``compare`` process, timed from spawn to exit."""
    code, wall, usage = run_child([sys.executable, "-m", "alqsim", *argv],
                                  pythonpath, cwd, timeout)
    return {"exit": code, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            # Linux reports the peak of the process and its reaped children
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


# --- output checking --------------------------------------------------------

def _diff(ref, out, path: str, problems: list[str]) -> None:
    if len(problems) >= 5:
        return
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            problems.append(f"{path}: expected an object")
            return
        for key, value in ref.items():
            if key not in out:
                problems.append(f"{path}/{key}: missing")
            else:
                _diff(value, out[key], f"{path}/{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (a, b) in enumerate(zip(ref, out)):
            _diff(a, b, f"{path}[{i}]", problems)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if (isinstance(out, bool) or not isinstance(out, (int, float))
                or not math.isclose(out, ref, rel_tol=REL_TOL, abs_tol=0.0)):
            problems.append(f"{path}: {out!r} != {ref!r}")
    elif out != ref or type(out) is not type(ref):
        problems.append(f"{path}: {out!r} != {ref!r}")


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def load_outputs(out_dir: str, names) -> dict:
    loaded = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            loaded[name] = _read_csv(path)
        else:
            with open(path) as fh:
                loaded[name] = json.load(fh)
    return loaded


def check_outputs(out_dir: str, reference: dict) -> list[str]:
    """Differences between an experiment's outputs and the reference's."""
    problems: list[str] = []
    try:
        outputs = load_outputs(out_dir, reference)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    for name, ref in reference.items():
        _diff(ref, outputs[name], name, problems)
    return problems


# --- reference outputs ------------------------------------------------------

def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference(name: str, seed: int, out_dir: str) -> dict:
    """Load the reference package's outputs in ``out_dir``.

    At a seed pinned in ``reference.json`` the files must also match their
    recorded SHA-256, which shows that the reference copy has not drifted.
    """
    with open(PINS) as fh:
        pins = json.load(fh)["digests"][name].get(str(seed), {})
    for file_name, digest in pins.items():
        if _sha256(os.path.join(out_dir, file_name)) != digest:
            raise BenchError(f"reference {file_name} for {name} seed {seed} "
                             "differs from its pinned digest")
    names = [f for f in OUTPUT_FILES if os.path.exists(os.path.join(out_dir, f))]
    return load_outputs(out_dir, names)


def run_reference(name: str, seed: int, work_dir: str, jobs: int | None = None):
    """Run the reference package once; return (its run result, its outputs)."""
    out_dir = os.path.join(work_dir, "out")
    result = run_compare(WORKLOADS[name].argv(seed, out_dir, jobs), ORACLE_SRC,
                         work_dir, timeout=150.0)
    if result["exit"] != 0:
        raise BenchError(f"reference package failed on {name} seed {seed}: "
                         f"{_stderr_tail(work_dir)}")
    return result, load_reference(name, seed, out_dir)


# --- environment ------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment(numpy_version: str | None) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/size")
    digest = hashlib.sha256()
    package = os.path.join(SRC, "alqsim")
    for file_name in sorted(os.listdir(package)):
        if file_name.endswith(".py"):
            digest.update(file_name.encode())
            with open(os.path.join(package, file_name), "rb") as fh:
                digest.update(fh.read())
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": cpu_model, **caches,
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest()}


# --- the two kinds of run ---------------------------------------------------

def _median_ratio(pairs, key: str) -> float:
    return statistics.median(program[key] / reference[key] for program, reference in pairs)


def _total_ratio(pairs, key: str) -> float:
    return (sum(program[key] for program, _ in pairs)
            / sum(reference[key] for _, reference in pairs))


def measure_setup(name: str, seed: int, run_dir: str):
    """Set-up probes of the program and the reference package, alternating."""
    argv = json.dumps(WORKLOADS[name].argv(seed, os.path.join(run_dir, "unused")))
    probe_out = os.path.join(run_dir, "probe.json")
    pairs = []
    for i in range(SETUP_REPEATS):
        pair = {}
        for which in (SRC, ORACLE_SRC) if i % 2 else (ORACLE_SRC, SRC):
            with open(probe_out, "w") as out:
                code, wall, _ = run_child([sys.executable, "-c", SETUP_PROBE, argv],
                                          which, run_dir, timeout=30.0, stdout=out)
            if code != 0:
                raise BenchError(f"set-up probe failed: {_stderr_tail(run_dir)}")
            pair[which] = {"setup_s": wall}
        pairs.append((pair[SRC], pair[ORACLE_SRC]))
    with open(probe_out) as fh:
        numpy_version = json.load(fh)["numpy"]
    return pairs, numpy_version


def end_to_end(name: str, seed: int, seconds: float, run_dir: str, started: float):
    """Alternate program and reference experiments until ``seconds`` pass.

    An experiment timing is reported as the program's total over the run
    divided by the reference's, times the reference's nominal value from
    ``reference.json``; the set-up time uses the median of the probe pairs'
    ratios instead.  Both sides of a pair run within seconds of each other,
    so a change in the speed of a shared machine cancels out of the ratio.
    """
    workload = WORKLOADS[name]
    with open(PINS) as fh:
        nominal = json.load(fh)["nominal"][name]
    setup_pairs, numpy_version = measure_setup(name, seed, run_dir)
    pairs = []
    reference = None
    loop_start = time.perf_counter()
    # whole R P P R blocks, so that running first or second evens out
    while len(pairs) % 2 or time.perf_counter() - loop_start < seconds:
        budget = RUN_BUDGET_S - (time.perf_counter() - started)
        if pairs and budget < 2.5 * (pairs[-1][0]["wall_s"] + pairs[-1][1]["wall_s"]):
            break
        pair = {}
        # the first pair runs the reference first, which yields the outputs
        for which in (SRC, ORACLE_SRC) if len(pairs) % 2 else (ORACLE_SRC, SRC):
            exp_dir = os.path.join(run_dir, f"exp{len(pairs)}-{len(pair)}")
            os.makedirs(exp_dir)
            if which == ORACLE_SRC:
                result, outputs = run_reference(name, seed, exp_dir)
                reference = reference or outputs
            else:
                out_dir = os.path.join(exp_dir, "out")
                result = run_compare(workload.argv(seed, out_dir), SRC, exp_dir, budget)
                result["problems"] = ([f"exit code {result['exit']}"] if result["exit"]
                                      else check_outputs(out_dir, reference))
            pair[which] = result
            shutil.rmtree(exp_dir)
        pairs.append((pair[SRC], pair[ORACLE_SRC]))

    experiment_s = nominal["experiment_s"] * _total_ratio(pairs, "wall_s")
    metrics = {
        "experiment_s": (experiment_s, "s"),
        "rounds_per_s": (workload.strategy_rounds / experiment_s, "1/s"),
        "cpu_s": (nominal["cpu_s"] * _total_ratio(pairs, "cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p, _ in pairs), "MB"),
        "setup_s": (nominal["setup_s"] * _median_ratio(setup_pairs, "setup_s"), "s"),
    }
    raw = {}
    for side, i in (("program", 0), ("reference", 1)):
        for key, source in (("wall_s", pairs), ("cpu_s", pairs), ("setup_s", setup_pairs)):
            raw[f"{side}_{key}"] = statistics.median(pair[i][key] for pair in source)
    experiments = [{**program, "reference_wall_s": other["wall_s"],
                    "reference_cpu_s": other["cpu_s"]} for program, other in pairs]
    return metrics, experiments, {"raw_medians": raw}, numpy_version


# Units of the per-layer metrics; every other one is in seconds.
LAYER_UNITS = {"calls": "count", "rows": "rows", "newton_iters": "count",
               "unconverged": "count", "fallback": "count", "groups_per_call": "count",
               "repeat_frac": "ratio", "candidates": "count", "ms_p50": "ms",
               "ms_tail": "ms", "tasks": "count", "result_bytes": "bytes",
               "efficiency": "ratio", "output_bytes": "bytes"}


def traced(name: str, seed: int, seconds: float, run_dir: str, started: float):
    reference_dir = os.path.join(run_dir, "reference")
    os.makedirs(reference_dir)
    # outputs do not depend on --jobs, so the reference uses both cores
    _, reference = run_reference(name, seed, reference_dir, jobs=2)
    spans = os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl")
    budget = RUN_BUDGET_S - (time.perf_counter() - started)
    code, _, _ = run_child([sys.executable, os.path.join(HERE, "tracer.py"),
                            "--workload", name, "--seed", str(seed),
                            "--seconds", str(seconds), "--work", run_dir,
                            "--spans", spans], SRC, run_dir, budget)
    if code != 0:
        raise BenchError(f"tracer failed: {_stderr_tail(run_dir)}")
    with open(os.path.join(run_dir, "layers.json")) as fh:
        layers = json.load(fh)
    experiments = []
    for kind, out_dir, code, wall in layers["experiments"]:
        problems = ([f"exit code {code}"] if code != 0
                    else check_outputs(out_dir, reference))
        experiments.append({"kind": kind, "exit": code, "wall_s": wall,
                            "problems": problems})
    if layers["unsteady_counts"]:
        experiments[-1]["problems"].append(
            f"counts differ between traced runs: {layers['unsteady_counts']}")
    metrics = {key: (value, LAYER_UNITS.get(key.rsplit(".", 1)[1], "s"))
               for key, value in layers["metrics"].items()}
    notes = {"absent": layers["absent"], "broken": layers["broken"],
             "spans": os.path.relpath(spans, ROOT)}
    return metrics, experiments, notes, layers["numpy"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alqsim compare benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # turn SIGTERM into SystemExit, so that run_child still kills its group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "alqsim", "__init__.py")):
        print(f"error: no alqsim package under {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        measure = traced if args.trace else end_to_end
        metrics, experiments, notes, numpy_version = measure(
            args.workload, args.seed, args.seconds, run_dir, started)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    per_experiment = WORKLOADS[args.workload].strategy_rounds
    failed = sum(per_experiment for e in experiments if e["problems"])
    print(json.dumps({"env": environment(numpy_version)}))
    print(json.dumps({"experiments": experiments, **notes}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": per_experiment * len(experiments),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
