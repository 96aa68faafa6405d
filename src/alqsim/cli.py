"""Command-line front end: run experiments, compare strategies, dump datasets.

This module owns every output file's layout; the simulation writes nothing.
``summary.json`` holds one payload per strategy, from which ``per_query.csv``
and ``compare``'s final table are read.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage or validation
errors (an unusable ``--out`` included).  Outputs are deterministic: the
same command line and seed produce byte-identical CSV and JSON files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from .datagen import DatasetConfig, dataset_rng, generate_dataset
from .errors import ConfigError, require_positive_int, require_seed
from .metrics import CostModel
from .simulation import (ExperimentSummary, SimulationConfig, aggregate,
                         run_rounds)
from .strategies import STRATEGY_KINDS, QueryStrategy

DEFAULT_SEED = 5
SEED_ENV_VAR = "ALQ_SEED"

CSV_HEADER = ["strategy", "q", "labeled_size",
              "lambda_mean", "lambda_lo", "lambda_hi",
              "zeta_mean", "zeta_lo", "zeta_hi",
              "eta_mean", "eta_lo", "eta_hi",
              "auc_mean", "f1_mean", "n_missing_eta"]
BOUNDS = ("mean", "lower", "upper")
# what every run writes into --out; --phi adds "phi.json"
RESULT_FILES = ("per_query.csv", "summary.json")
SHARED_DATASET_NOTE = ("note: with --shared-dataset every round reuses round 0's "
                       "dataset, so the intervals cover query draws only, and a "
                       "deterministic lane's interval (uncertainty's) is a point")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alqsim",
        description="Pool-based active-learning simulator with cost-efficiency metrics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_p = sub.add_parser("run", help="run one strategy and write summary files")
    run_p.add_argument("--strategy", choices=STRATEGY_KINDS, required=True)
    _add_experiment_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser(
        "compare",
        help="run all three strategies on paired datasets")
    _add_experiment_flags(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    dump_p = sub.add_parser("dump-dataset", help="write one generated dataset as CSV")
    _add_dataset_flags(dump_p)
    dump_p.add_argument("--out", default="dataset.csv", help="output CSV path")
    dump_p.set_defaults(func=_cmd_dump_dataset)
    return parser


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class-sep", type=float, default=DatasetConfig.class_sep,
                   help="class-centroid separation; smaller means more overlap")
    p.add_argument("--seed", type=int, default=None,
                   help=f"round 0's seed (default: ${SEED_ENV_VAR} or "
                        f"{DEFAULT_SEED}); round i uses seed + i, and "
                        "dump-dataset --seed s writes round 0's dataset")


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    _add_dataset_flags(p)
    p.add_argument("--queries", type=int, default=SimulationConfig.n_queries,
                   help="number of queries per round")
    p.add_argument("--batch", type=int, default=SimulationConfig.batch_size,
                   help="instances labeled per query")
    p.add_argument("--rounds", type=int, default=SimulationConfig.rounds,
                   help="independent simulation rounds")
    p.add_argument("--cost-c", type=float, default=CostModel.C,
                   help="relative cost C of a positive label (C >= 1)")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--mode", type=float, default=QueryStrategy.mode,
                   help="peak of the shifted-normal target distribution")
    p.add_argument("--concentration", type=float, default=QueryStrategy.concentration,
                   help="width knob of the shifted-normal target distribution "
                        "(larger is narrower; must exceed 2)")
    p.add_argument("--shared-dataset", action="store_true",
                   help="reuse one dataset split across rounds instead of "
                        "regenerating per round")
    p.add_argument("--phi", action="store_true",
                   help="record interim/final probability diagnostics (phi.json)")
    p.add_argument("--jobs", type=int, default=1,
                   help="max concurrent rounds; each process runs BLAS on one "
                        "thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS "
                        "or OMP_NUM_THREADS is set")


def _resolve_seed(value: int | None) -> int:
    """The seed of ``--seed``, else of ``$ALQ_SEED``, else the default;
    raises :class:`ConfigError` unless it fits in 64 bits."""
    name = "--seed"
    if value is None:
        name, raw = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return DEFAULT_SEED
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"environment variable {SEED_ENV_VAR}={raw!r} is not an integer")
    require_seed(name, value)
    return value


def _dataset_args(args) -> tuple[int, DatasetConfig]:
    """Round 0's seed and the dataset config that :func:`_add_dataset_flags`
    parsed, the seed resolved and checked first."""
    return _resolve_seed(args.seed), DatasetConfig(class_sep=args.class_sep)


def _experiment_config(args, *kinds: str) -> SimulationConfig:
    """The one experiment that runs the strategy ``kinds`` as paired lanes."""
    seed, dataset = _dataset_args(args)
    strategies = tuple(QueryStrategy(kind=kind, mode=args.mode,
                                     concentration=args.concentration)
                       for kind in kinds)
    return SimulationConfig(
        dataset=dataset, strategies=strategies,
        n_queries=args.queries, batch_size=args.batch,
        cost=CostModel(C=args.cost_c),
        rounds=args.rounds, base_seed=seed,
        shared_dataset=args.shared_dataset, record_phi=args.phi)


def _output_paths(directory: str, names: tuple[str, ...]) -> dict[str, str]:
    """Make ``directory`` and return the path of each name in it; creates no
    file.  Raises :class:`ConfigError` if the directory cannot be made or
    written, or a name exists as anything but a regular file this process
    can write."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the --out directory {directory!r}: "
                          f"{exc}") from exc
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ConfigError(f"the --out directory {directory!r} is not "
                          f"writable by this process")
    paths = {name: os.path.join(directory, name) for name in names}
    for path in paths.values():
        if os.path.lexists(path) and not (os.path.isfile(path)
                                          and os.access(path, os.W_OK)):
            raise ConfigError(f"--out file {path!r} exists but is not a "
                              f"regular file this process can write")
    return paths


def _summary_payload(config: SimulationConfig, summary: ExperimentSummary,
                     lane: int) -> dict:
    """Lane ``lane`` of ``summary`` as its object in ``summary.json``;
    ``per_query.csv`` and the final table read their cells from it, so an
    undefined (NaN) eta is decided here once, as None.  Its ``config``
    echoes the experiment as that lane's: ``dataset`` with the base seed as
    its ``seed``, then ``strategy``, then the other fields, fixed ones
    included, in declaration order."""
    echo = dataclasses.asdict(config)
    del echo["strategies"]
    echo = {"dataset": {**echo.pop("dataset"), "seed": config.base_seed},
            "strategy": dataclasses.asdict(config.strategies[lane]), **echo}

    def series(ci) -> dict:
        return {bound: [None if v != v else v
                        for v in getattr(ci, bound)[lane].tolist()]
                for bound in BOUNDS}

    return {
        "config": echo,
        "confidence": config.confidence,
        "rounds": config.rounds,
        "queries": summary.queries,
        "labeled_sizes": summary.labeled_sizes,
        "lambda": series(summary.lam),
        "zeta": series(summary.zeta),
        "eta": {**series(summary.eta),
                "n_missing": summary.eta_missing[lane].tolist()},
        "auc": series(summary.auc),
        "f1": series(summary.f1),
    }


def _write_csv(fh, payloads: dict[str, dict]) -> None:
    """``per_query.csv``: one row per strategy and query."""
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for name, payload in payloads.items():
        columns = [payload[metric][bound] for metric in ("lambda", "zeta", "eta")
                   for bound in BOUNDS]
        columns += [payload["auc"]["mean"], payload["f1"]["mean"]]
        for q, size, *values, missing in zip(
                payload["queries"], payload["labeled_sizes"], *columns,
                payload["eta"]["n_missing"]):
            cells = ["" if v is None else format(v, ".9g") for v in values]
            writer.writerow([name, q, size, *cells, missing])


def _write_dataset_csv(fh, features, labels) -> None:
    """``dataset.csv``: header ``id,f0,...,f{d-1},label``, then one row per
    instance, whose id is its row index and whose features have 9
    significant digits."""
    writer = csv.writer(fh)
    writer.writerow(["id", *(f"f{j}" for j in range(features.shape[1])), "label"])
    for i, (row, label) in enumerate(zip(features, labels)):
        writer.writerow([i, *(f"{x:.9g}" for x in row), int(label)])


def _json_chunks(value, level: int = 0):
    """The text of ``json.dumps(value, indent=2)``, yielded a piece at a time.

    ``json`` spells every value.  This lays out only a non-empty dict and a
    list or tuple that holds a dict, list or tuple; any other value is one
    ``json.dumps`` call and one piece, so a flat list such as a ``phi.json``
    row is not cut into a piece per item, as ``json``'s indenting encoder
    cuts it.  Keys must be ``str``: ``json`` would coerce another key into
    a string, and this raises ``TypeError``.
    """
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(value, dict) and value:
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            yield ("," if i else "{") + inner + json.dumps(key) + ": "
            yield from _json_chunks(item, level + 1)
        yield outer + "}"
    elif isinstance(value, (list, tuple)) and any(
            issubclass(kind, (dict, list, tuple)) for kind in set(map(type, value))):
        for i, item in enumerate(value):
            yield ("," if i else "[") + inner
            yield from _json_chunks(item, level + 1)
        yield outer + "]"
    elif isinstance(value, (list, tuple)) and value:
        # indent=None spells each item as indent=2 does; the separator lays it out
        yield ("[" + inner + json.dumps(value, separators=("," + inner, ": "))[1:-1]
               + outer + "]")
    else:
        yield json.dumps(value)


def _run_experiments(args, kinds: tuple[str, ...]) -> dict[str, dict]:
    """Run the strategy kinds paired, write the outputs and return each
    kind's ``summary.json`` payload.  Every input and output path is
    checked before any round runs, so bad input costs no work."""
    config = _experiment_config(args, *kinds)
    require_positive_int("jobs", args.jobs)
    paths = _output_paths(args.out,
                          RESULT_FILES + (("phi.json",) if args.phi else ()))
    if config.shared_dataset:
        print(SHARED_DATASET_NOTE, file=sys.stderr)
    results = run_rounds(config, jobs=args.jobs)
    summary = aggregate(config, results)
    payloads = {kind: _summary_payload(config, summary, k)
                for k, kind in enumerate(kinds)}
    documents = {"summary.json": (payloads[kinds[0]] if len(kinds) == 1
                                  else {"strategies": payloads})}
    if args.phi:
        documents["phi.json"] = {"delta": config.phi_delta, "strategies": {
            kind: [{"seed": r.seed, "phi": [row.tolist() for row in r.phi_trace[k]]}
                   for r in results]
            for k, kind in enumerate(kinds)}}
    with open(paths["per_query.csv"], "w", newline="") as fh:
        _write_csv(fh, payloads)
    for name, document in documents.items():
        with open(paths[name], "w") as fh:
            fh.writelines(_json_chunks(document))
            fh.write("\n")
    return payloads


def _cmd_run(args) -> int:
    payload = _run_experiments(args, (args.strategy,))[args.strategy]
    written = " and ".join(f"{args.out}/{name}" for name in RESULT_FILES)
    print(f"wrote {written} ({payload['rounds']} rounds, "
          f"strategy={args.strategy})")
    return 0


def _cmd_compare(args) -> int:
    _print_final_table(_run_experiments(args, STRATEGY_KINDS))
    return 0


def _print_final_table(payloads: dict[str, dict]) -> None:
    print("final-query means with confidence bounds:")
    header = f"{'strategy':<16} {'lambda':<28} {'zeta':<28} {'eta':<28}"
    print(header)
    print("-" * len(header))
    for name, payload in payloads.items():
        cells = []
        for metric in ("lambda", "zeta", "eta"):
            mean, lower, upper = (payload[metric][bound][-1] for bound in BOUNDS)
            cells.append("undefined" if mean is None
                         else f"{mean:.4f} [{lower:.4f}, {upper:.4f}]")
        print(f"{name:<16} " + " ".join(f"{cell:<28}" for cell in cells))


def _cmd_dump_dataset(args) -> int:
    seed, config = _dataset_args(args)
    directory, name = os.path.split(args.out)
    if not name:
        raise ConfigError(f"--out {args.out!r} does not name a file")
    path = _output_paths(directory or ".", (name,))[name]
    features, labels = generate_dataset(config, dataset_rng(seed))
    with open(path, "w", newline="") as fh:
        _write_dataset_csv(fh, features, labels)
    print(f"wrote {len(labels)} instances to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
