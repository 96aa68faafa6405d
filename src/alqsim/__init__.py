"""Pool-based active-learning simulator with cost-efficiency metrics.

The package generates noisy synthetic binary-classification pools, runs
query loops under three selection strategies (random, uncertainty,
shifted-normal), and measures how efficiently each strategy buys model
performance when positive labels cost more than negative ones.

Each name in ``__all__`` loads on first use (PEP 562), so ``import alqsim``
imports neither numpy nor any submodule.  That lets ``python -m alqsim``
set numpy's BLAS thread count in :mod:`alqsim.__main__` before numpy
loads, while a library caller keeps numpy's own default.
"""

__version__ = "0.1.0"

__all__ = [
    "AlqsimError", "ConfigError", "SimulationError",
    "DatasetConfig",
    "dataset_rng", "generate_dataset", "split_pools",
    "GlmHyperparams", "GlmModel", "fit", "predict_proba",
    "QueryStrategy", "beta_pdf", "beta_sample",
    "select_random", "match_targets",
    "CostModel", "CiSummary",
    "auc", "f1", "cost_efficiency",
    "mean_ci", "student_t_quantile",
    "SimulationConfig", "RoundResult", "ExperimentSummary",
    "run_round", "run_rounds", "aggregate",
]


def __getattr__(name: str):
    # PEP 562.  A name outside __all__ fails before anything is imported:
    # the import system probes submodule names such as "cli" with hasattr.
    if name in __all__:
        from . import datagen, errors, glm, metrics, simulation, strategies
        # the defining module first: simulation also holds names it imports
        for module in (errors, datagen, glm, metrics, strategies, simulation):
            if hasattr(module, name):
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
