"""Workload shapes shared by the end-to-end runner and the tracer.

Each workload is one ``alqsim compare`` command line.  The shapes come from
the acceptance experiment and two variants that load different layers; only
``--rounds`` is scaled down from the full experiment so that several
experiments fit in one benchmark run.  README.md gives the reason for each.
"""

from __future__ import annotations

from dataclasses import dataclass

STRATEGIES = 3  # compare runs random, uncertainty and shifted-normal


@dataclass(frozen=True)
class Workload:
    class_sep: str
    queries: int
    batch: int
    rounds: int
    jobs: int
    phi: bool = False

    def argv(self, seed: int, out_dir: str, jobs: int | None = None) -> list[str]:
        """``compare`` arguments for one experiment at ``seed``."""
        args = ["compare", "--class-sep", self.class_sep,
                "--queries", str(self.queries), "--batch", str(self.batch),
                "--rounds", str(self.rounds),
                "--jobs", str(self.jobs if jobs is None else jobs),
                "--seed", str(seed), "--out", out_dir]
        if self.phi:
            args.append("--phi")
        return args

    @property
    def strategy_rounds(self) -> int:
        return STRATEGIES * self.rounds


WORKLOADS = {
    "paper": Workload(class_sep="0.5", queries=20, batch=2, rounds=5, jobs=1),
    "long-horizon": Workload(class_sep="1.0", queries=40, batch=4, rounds=2, jobs=1),
    "short-rounds": Workload(class_sep="1.0", queries=2, batch=2, rounds=40, jobs=2,
                             phi=True),
}
