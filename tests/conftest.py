"""Make the checkout's ``src/alqsim`` importable, here and in child processes.

Several tests start ``python -m alqsim`` in a subprocess, often with a tmp
directory as its cwd.  A relative ``PYTHONPATH=src`` would be resolved
against that cwd, so the absolute ``src`` path is put first on ``sys.path``
and on ``PYTHONPATH`` (keeping any existing entries).  No install is needed.

The ``seed_package`` fixture imports the frozen seed-commit package in
``perfbench/oracle`` under another name, so tests can hold a function up
against the version it replaced; ``seed_round`` runs that package's round
for a one-strategy configuration of this one.
"""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SEED_PACKAGE = ROOT / "perfbench" / "oracle" / "alqsim"

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_existing = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = SRC + (os.pathsep + _existing if _existing else "")


@pytest.fixture(scope="session")
def seed_package():
    """The seed-commit ``alqsim`` as module ``alqsim_seed``, loaded read-only."""
    name = "alqsim_seed"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, SEED_PACKAGE / "__init__.py",
            submodule_search_locations=[str(SEED_PACKAGE)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = write_bytecode
    return sys.modules[name]


@pytest.fixture(scope="session")
def seed_round(seed_package):
    """``seed_round(config, seed)``: the seed package's ``run_round`` for a
    one-strategy ``SimulationConfig`` of this package at ``seed``; its one
    strategy becomes the seed package's ``strategy``.  The result keeps the
    per-query snapshots and the ``interim_probs``/``final_probs`` maps of
    the seed-commit round."""
    nested = {"dataset": seed_package.DatasetConfig,
              "cost": seed_package.CostModel,
              "glm": seed_package.GlmHyperparams}

    def run(config, seed):
        (strategy,) = config.strategies
        values = {field.name: getattr(config, field.name)
                  for field in dataclasses.fields(config)
                  if field.name != "strategies"}
        for name, seed_class in nested.items():
            values[name] = seed_class(**dataclasses.asdict(values[name]))
        values["strategy"] = seed_package.QueryStrategy(
            **dataclasses.asdict(strategy))
        return seed_package.simulation.run_round(
            seed_package.SimulationConfig(**values), seed)

    return run
