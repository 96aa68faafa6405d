"""Command-line front end: run experiments, compare strategies, dump datasets.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage or validation
errors.  Outputs are deterministic: the same command line and seed produce
byte-identical CSV and JSON files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .datagen import (DatasetConfig, dataset_rng, generate_dataset,
                      write_dataset_csv)
from .errors import ConfigError
from .metrics import CostModel
from .simulation import (ExperimentSummary, SimulationConfig, aggregate,
                         run_rounds)
from .strategies import (DEFAULT_CONCENTRATION, DEFAULT_MODE, STRATEGY_KINDS,
                         QueryStrategy)

DEFAULT_SEED = 5
SEED_ENV_VAR = "ALQ_SEED"

CSV_HEADER = ["strategy", "q", "labeled_size",
              "lambda_mean", "lambda_lo", "lambda_hi",
              "zeta_mean", "zeta_lo", "zeta_hi",
              "eta_mean", "eta_lo", "eta_hi",
              "auc_mean", "f1_mean", "n_missing_eta"]


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
        help="run all three strategies on paired per-round datasets")
    _add_experiment_flags(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    dump_p = sub.add_parser("dump-dataset", help="write one generated dataset as CSV")
    dump_p.add_argument("--class-sep", type=float, default=DatasetConfig.class_sep)
    dump_p.add_argument("--seed", type=int, default=None,
                        help=f"dataset seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED}); "
                             "matches the dataset a round with this seed sees")
    dump_p.add_argument("--out", default="dataset.csv", help="output CSV path")
    dump_p.set_defaults(func=_cmd_dump_dataset)
    return parser


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class-sep", type=float, default=DatasetConfig.class_sep,
                   help="class-centroid separation; smaller means more overlap")
    p.add_argument("--queries", type=int, default=SimulationConfig.n_queries,
                   help="number of queries per round")
    p.add_argument("--batch", type=int, default=SimulationConfig.batch_size,
                   help="instances labeled per query")
    p.add_argument("--rounds", type=int, default=SimulationConfig.rounds,
                   help="independent simulation rounds")
    p.add_argument("--cost-c", type=float, default=CostModel.C,
                   help="relative cost C of a positive label (C >= 1)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"base seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--mode", type=float, default=DEFAULT_MODE,
                   help="peak of the shifted-normal target distribution")
    p.add_argument("--concentration", type=float, default=DEFAULT_CONCENTRATION,
                   help="width knob of the shifted-normal target distribution "
                        "(larger is narrower; must exceed 2)")
    p.add_argument("--shared-dataset", action="store_true",
                   help="reuse one dataset split across rounds instead of "
                        "regenerating per round")
    p.add_argument("--phi", action="store_true",
                   help="record interim/final probability diagnostics (phi.json)")
    p.add_argument("--jobs", type=int, default=1, help="max concurrent rounds")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"environment variable {SEED_ENV_VAR}={raw!r} is not an integer")


def _experiment_config(args, strategy_kind: str) -> SimulationConfig:
    seed = _resolve_seed(args.seed)
    dataset = DatasetConfig(class_sep=args.class_sep, seed=seed)
    strategy = QueryStrategy(kind=strategy_kind, mode=args.mode,
                             concentration=args.concentration)
    return SimulationConfig(
        dataset=dataset, strategy=strategy,
        n_queries=args.queries, batch_size=args.batch,
        cost=CostModel(C=args.cost_c),
        rounds=args.rounds, base_seed=seed,
        shared_dataset=args.shared_dataset, record_phi=args.phi)


def _csv_row(strategy: str, summary: ExperimentSummary, qi: int) -> list[str]:
    def fmt(value) -> str:
        return "" if value is None else format(value, ".9g")

    eta = summary.eta[qi]
    return [strategy, str(summary.queries[qi]), str(summary.labeled_sizes[qi]),
            fmt(summary.lam[qi].mean), fmt(summary.lam[qi].lower), fmt(summary.lam[qi].upper),
            fmt(summary.zeta[qi].mean), fmt(summary.zeta[qi].lower), fmt(summary.zeta[qi].upper),
            fmt(None if eta is None else eta.mean),
            fmt(None if eta is None else eta.lower),
            fmt(None if eta is None else eta.upper),
            fmt(summary.auc[qi].mean), fmt(summary.f1[qi].mean),
            str(summary.eta_missing[qi])]


def _write_outputs(out_dir: str, summaries: dict[str, ExperimentSummary],
                   phi_payload: dict | None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "per_query.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for strategy, summary in summaries.items():
            for qi in range(len(summary.queries)):
                writer.writerow(_csv_row(strategy, summary, qi))

    if len(summaries) == 1:
        payload = next(iter(summaries.values())).to_dict()
    else:
        payload = {"strategies": {name: s.to_dict() for name, s in summaries.items()}}
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    if phi_payload is not None:
        with open(os.path.join(out_dir, "phi.json"), "w") as fh:
            json.dump(phi_payload, fh, indent=2)
            fh.write("\n")


def _run_experiments(args, kinds: tuple[str, ...]) -> dict[str, ExperimentSummary]:
    """Run the strategy kinds paired, aggregate each, then write the outputs."""
    configs = [_experiment_config(args, kind) for kind in kinds]
    results = run_rounds(configs, jobs=args.jobs)
    summaries = {kind: aggregate(config, lane)
                 for kind, config, lane in zip(kinds, configs, results)}
    phi_payload = None
    if args.phi:
        phi_payload = {"delta": configs[0].phi_delta, "strategies": {
            kind: [{"seed": r.seed, "phi": [list(values) for values in r.phi_trace]}
                   for r in lane]
            for kind, lane in zip(kinds, results)}}
    _write_outputs(args.out, summaries, phi_payload)
    return summaries


def _cmd_run(args) -> int:
    summary = _run_experiments(args, (args.strategy,))[args.strategy]
    print(f"wrote {args.out}/per_query.csv and {args.out}/summary.json "
          f"({summary.config.rounds} rounds, strategy={args.strategy})")
    return 0


def _cmd_compare(args) -> int:
    _print_final_table(_run_experiments(args, STRATEGY_KINDS))
    return 0


def _print_final_table(summaries: dict[str, ExperimentSummary]) -> None:
    print("final-query means with confidence bounds:")
    header = f"{'strategy':<16} {'lambda':<28} {'zeta':<28} {'eta':<28}"
    print(header)
    print("-" * len(header))
    for name, summary in summaries.items():
        cells = []
        for series in (summary.lam, summary.zeta, summary.eta):
            entry = series[-1]
            if entry is None:
                cells.append(f"{'undefined':<28}")
            else:
                cells.append(f"{entry.mean:.4f} [{entry.lower:.4f}, {entry.upper:.4f}]"
                             .ljust(28))
        print(f"{name:<16} {cells[0]} {cells[1]} {cells[2]}")


def _cmd_dump_dataset(args) -> int:
    seed = _resolve_seed(args.seed)
    config = DatasetConfig(class_sep=args.class_sep, seed=seed)
    features, labels = generate_dataset(config, dataset_rng(seed))
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    write_dataset_csv((features, labels), args.out)
    print(f"wrote {len(labels)} instances to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
