"""Traced in-process runs of one workload, for the per-layer metrics.

Run as ``python3 perfbench/tracer.py --workload NAME --seed N --seconds S
--work DIR --spans FILE`` with the package's ``src`` directory on
``PYTHONPATH``.  The tracer calls ``alqsim.cli.main`` in this process,
alternating untraced and traced experiments until ``--seconds`` have passed
(at least one of each).  For a traced experiment it replaces each layer
function at its call site, the module attribute the caller looks the name
up in, with a wrapper that records a span (name, start, end, parent) and
the layer's counts.  Spans stay in memory; those of the first traced
experiment are written to ``FILE`` at the end.  A workload that uses the
process pool gets one more untraced run at its own ``--jobs`` with only the
pool instrumented, since spans inside pool workers would be lost.

Every experiment writes its outputs under ``DIR`` so that the caller can
check them.  ``DIR/layers.json`` holds the per-layer metrics, the layers
whose call site was missing, and the wall times of every experiment.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import pickle
import statistics
import sys
import time
from collections import Counter

import numpy as np

from workloads import WORKLOADS

# Layer functions and the module each one is called from.
CALL_SITES = [
    ("datagen.generate_dataset", "alqsim.simulation", "generate_dataset"),
    ("datagen.split_pools", "alqsim.simulation", "split_pools"),
    ("glm.fit", "alqsim.simulation", "fit"),
    ("glm.predict_proba", "alqsim.simulation", "predict_proba"),
    ("metrics.auc", "alqsim.simulation", "auc"),
    ("metrics.f1", "alqsim.simulation", "f1"),
    ("metrics.mean_ci", "alqsim.simulation", "mean_ci"),
    ("metrics.student_t_quantile", "alqsim.metrics", "student_t_quantile"),
    ("metrics.compute_phi", "alqsim.simulation", "compute_phi"),
    ("strategies.select_random", "alqsim.simulation", "select_random"),
    ("strategies.select_uncertainty", "alqsim.simulation", "select_uncertainty"),
    ("strategies.select_shifted_normal", "alqsim.simulation", "select_shifted_normal"),
    ("strategies.beta_sample", "alqsim.strategies", "beta_sample"),
    ("simulation.run_round", "alqsim.simulation", "run_round"),
    ("simulation.run_rounds", "alqsim.cli", "run_rounds"),
    ("simulation.aggregate", "alqsim.cli", "aggregate"),
]
POOL_SITE = ("simulation.pool", "alqsim.simulation", "ProcessPoolExecutor")
SELECTORS = ("strategies.select_random", "strategies.select_uncertainty",
             "strategies.select_shifted_normal")

# Metrics that count work; they must repeat exactly for a given seed.
COUNT_METRICS = (
    "datagen.generate_dataset.calls",
    "glm.fit.calls", "glm.fit.rows", "glm.fit.newton_iters",
    "glm.fit.unconverged", "glm.fit.fallback",
    "glm.predict_proba.calls", "glm.predict_proba.rows",
    "metrics.auc.calls", "metrics.auc.groups_per_call",
    "metrics.mean_ci.calls", "metrics.student_t_quantile.calls",
    "metrics.student_t_quantile.repeat_frac", "metrics.compute_phi.calls",
    "strategies.select_random.calls", "strategies.select_uncertainty.calls",
    "strategies.select_shifted_normal.calls", "strategies.beta_sample.calls",
    "strategies.candidates", "simulation.run_round.calls",
    "simulation.pool.tasks", "simulation.pool.result_bytes",
    "cli.output_bytes",
)


def _first_arg(args, kwargs):
    if args:
        return args[0]
    return next(iter(kwargs.values()))


def _count_fit(tracer, args, kwargs, model):
    c = tracer.counts
    c["glm.fit.rows"] += len(_first_arg(args, kwargs))
    c["glm.fit.newton_iters"] += int(getattr(model, "n_iterations"))
    c["glm.fit.unconverged"] += int(not getattr(model, "converged"))
    c["glm.fit.fallback"] += int(getattr(model, "fallback_prior") is not None)


def _count_predict(tracer, args, kwargs, probs):
    tracer.counts["glm.predict_proba.rows"] += int(np.size(probs))


def _count_auc(tracer, args, kwargs, value):
    tracer.counts["metrics.auc.groups"] += int(
        np.unique(np.asarray(_first_arg(args, kwargs))).size)


def _count_candidates(tracer, args, kwargs, selected):
    tracer.counts["strategies.candidates"] += len(_first_arg(args, kwargs))


def _count_quantile(tracer, args, kwargs, value):
    key = (args, tuple(sorted(kwargs.items())))
    if key in tracer.quantile_keys:
        tracer.counts["metrics.student_t_quantile.repeats"] += 1
    tracer.quantile_keys.add(key)


AFTER = {
    "glm.fit": _count_fit,
    "glm.predict_proba": _count_predict,
    "metrics.auc": _count_auc,
    "metrics.student_t_quantile": _count_quantile,
    **{name: _count_candidates for name in SELECTORS},
}


class Tracer:
    """Spans and counts of one traced experiment.

    A span is ``[name, start, end, parent, book]``: ``parent`` is the index
    of the enclosing span (-1 at the root) and ``book`` the time this tracer
    spent on counting inside the span, which self time leaves out.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.quantile_keys: set = set()
        self.broken: set[str] = set()

    def wrap(self, name, fn):
        after = AFTER.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                start = clock()
                try:
                    after(self, args, kwargs, return_value)
                except (AttributeError, IndexError, StopIteration, TypeError,
                        ValueError):
                    self.broken.add(name)
                if parent >= 0:
                    spans[parent][4] += clock() - start
            return return_value

        return traced

    @contextlib.contextmanager
    def root(self, name):
        """Record a top-level span around a block."""
        self.stack.append(len(self.spans))
        span = [name, time.perf_counter(), 0.0, -1, 0.0]
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()


@contextlib.contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _resolve(module_name, attr):
    """The function at a call site, or None when the site no longer exists."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def run_cli(argv) -> tuple[int, float]:
    """Run ``alqsim.cli.main`` in this process; its table goes nowhere."""
    import alqsim.cli
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = alqsim.cli.main(argv)
    return code, time.perf_counter() - start


def traced_experiment(argv, absent: set[str]) -> tuple[int, float, Tracer]:
    import alqsim.cli
    tracer = Tracer()
    replacements = []
    for name, module_name, attr in CALL_SITES:
        module, fn = _resolve(module_name, attr)
        if fn is None:
            absent.add(name)
        else:
            replacements.append((module, attr, tracer.wrap(name, fn)))
    with patched(replacements):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), tracer.root("cli.main"):
            code = alqsim.cli.main(argv)
        wall = time.perf_counter() - start
    return code, wall, tracer


def pool_experiment(argv, absent: set[str]) -> tuple[int, dict]:
    """One untraced run with the process pool counted and timed."""
    stats = {"tasks": 0, "result_bytes": 0, "run_rounds_s": 0.0}
    module, executor = _resolve(*POOL_SITE[1:])
    cli, run_rounds = _resolve("alqsim.cli", "run_rounds")
    if executor is None or run_rounds is None:
        absent.add(POOL_SITE[0])
        code, _ = run_cli(argv)
        return code, stats

    class CountingExecutor(executor):
        def submit(self, *args, **kwargs):
            stats["tasks"] += 1
            return super().submit(*args, **kwargs)

    @functools.wraps(run_rounds)
    def timed_run_rounds(*args, **kwargs):
        start = time.perf_counter()
        results = run_rounds(*args, **kwargs)
        stats["run_rounds_s"] += time.perf_counter() - start
        stats["result_bytes"] += sum(len(pickle.dumps(r)) for r in results)
        return results

    with patched([(module, POOL_SITE[2], CountingExecutor),
                  (cli, "run_rounds", timed_run_rounds)]):
        code, _ = run_cli(argv)
    return code, stats


def _tail_ms(durations) -> float:
    """Highest of p99/p90/p50 with at least ten samples beyond it, else max."""
    ordered = sorted(durations)
    for q in (0.99, 0.90, 0.50):
        if len(ordered) * (1.0 - q) >= 10:
            return 1e3 * float(np.quantile(ordered, q))
    return 1e3 * ordered[-1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced experiment (pool metrics excluded)."""
    spans, counts = tracer.spans, tracer.counts
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start

    def self_time(name):
        return sum(end - start - child_time[i] - book
                   for i, (n, start, end, _, book) in enumerate(spans) if n == name)

    rounds = [end - start for name, start, end, _, _ in spans
              if name == "simulation.run_round"]
    auc_calls = calls.get("metrics.auc", 0)
    quantile_calls = calls.get("metrics.student_t_quantile", 0)
    m = {
        "datagen.generate_dataset.calls": calls.get("datagen.generate_dataset", 0),
        "datagen.generate_dataset.busy_s": busy.get("datagen.generate_dataset", 0.0),
        "datagen.split_pools.busy_s": busy.get("datagen.split_pools", 0.0),
        "glm.fit.calls": calls.get("glm.fit", 0),
        "glm.fit.busy_s": busy.get("glm.fit", 0.0),
        "glm.fit.rows": counts["glm.fit.rows"],
        "glm.fit.newton_iters": counts["glm.fit.newton_iters"],
        "glm.fit.unconverged": counts["glm.fit.unconverged"],
        "glm.fit.fallback": counts["glm.fit.fallback"],
        "glm.predict_proba.calls": calls.get("glm.predict_proba", 0),
        "glm.predict_proba.rows": counts["glm.predict_proba.rows"],
        "glm.predict_proba.busy_s": busy.get("glm.predict_proba", 0.0),
        "metrics.auc.calls": auc_calls,
        "metrics.auc.busy_s": busy.get("metrics.auc", 0.0),
        "metrics.auc.groups_per_call":
            counts["metrics.auc.groups"] / auc_calls if auc_calls else 0.0,
        "metrics.f1.busy_s": busy.get("metrics.f1", 0.0),
        "metrics.mean_ci.calls": calls.get("metrics.mean_ci", 0),
        "metrics.mean_ci.busy_s": busy.get("metrics.mean_ci", 0.0),
        "metrics.student_t_quantile.calls": quantile_calls,
        "metrics.student_t_quantile.busy_s": busy.get("metrics.student_t_quantile", 0.0),
        "metrics.student_t_quantile.repeat_frac":
            counts["metrics.student_t_quantile.repeats"] / quantile_calls
            if quantile_calls else 0.0,
        "metrics.compute_phi.calls": calls.get("metrics.compute_phi", 0),
        "metrics.compute_phi.busy_s": busy.get("metrics.compute_phi", 0.0),
    }
    for name in SELECTORS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m["strategies.beta_sample.calls"] = calls.get("strategies.beta_sample", 0)
    m["strategies.candidates"] = counts["strategies.candidates"]
    m["simulation.run_round.calls"] = len(rounds)
    m["simulation.run_round.ms_p50"] = 1e3 * statistics.median(rounds) if rounds else 0.0
    m["simulation.run_round.ms_tail"] = _tail_ms(rounds) if rounds else 0.0
    m["simulation.run_round.self_s"] = self_time("simulation.run_round")
    m["simulation.aggregate.busy_s"] = busy.get("simulation.aggregate", 0.0)
    m["cli.self_s"] = self_time("cli.main")
    m["round_busy_s"] = busy.get("simulation.run_round", 0.0)
    return m


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True, help="directory for outputs")
    parser.add_argument("--spans", required=True, help="file for the first traced spans")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    absent: set[str] = set()
    broken: set[str] = set()
    experiments = []  # (kind, out_dir, exit code, wall seconds)
    traced_metrics = []
    first_spans = None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        out_dir = os.path.join(args.work, f"exp{i}")
        # spans inside pool workers would be lost, so traced runs use one process
        argv_i = workload.argv(args.seed, out_dir, jobs=1)
        if i % 2 == 0:
            code, wall = run_cli(argv_i)
            experiments.append(("untraced", out_dir, code, wall))
        else:
            code, wall, tracer = traced_experiment(argv_i, absent)
            experiments.append(("traced", out_dir, code, wall))
            metrics = layer_metrics(tracer)
            metrics["cli.output_bytes"] = _dir_bytes(out_dir)
            traced_metrics.append(metrics)
            broken |= tracer.broken
            first_spans = first_spans or tracer.spans
        i += 1

    pool = {"tasks": 0, "result_bytes": 0, "run_rounds_s": 0.0}
    if workload.jobs > 1:
        out_dir = os.path.join(args.work, "pool")
        code, pool = pool_experiment(workload.argv(args.seed, out_dir), absent)
        experiments.append(("pool", out_dir, code, None))

    names = list(traced_metrics[0])
    merged = {}
    unsteady = []
    for name in names:
        values = [m[name] for m in traced_metrics]
        if name in COUNT_METRICS and len(set(values)) > 1:
            unsteady.append(name)
        merged[name] = statistics.median(values)
    merged["simulation.pool.tasks"] = pool["tasks"]
    merged["simulation.pool.result_bytes"] = pool["result_bytes"]
    merged["simulation.pool.efficiency"] = (
        merged["round_busy_s"] / (2.0 * pool["run_rounds_s"])
        if pool["run_rounds_s"] else 0.0)
    del merged["round_busy_s"]
    walls = {kind: [w for k, _, _, w in experiments if k == kind]
             for kind in ("untraced", "traced")}
    merged["trace.overhead_s"] = (statistics.median(walls["traced"])
                                  - statistics.median(walls["untraced"]))

    _write_spans(args.spans, first_spans)
    with open(os.path.join(args.work, "layers.json"), "w") as fh:
        json.dump({"metrics": merged, "numpy": np.__version__, "absent": sorted(absent),
                   "broken": sorted(broken), "unsteady_counts": unsteady,
                   "experiments": experiments}, fh, indent=1)
    return 0


def _write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, _ in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
