"""Pool-based active-learning simulator with cost-efficiency metrics.

The package generates noisy synthetic binary-classification pools, runs
query loops under three selection strategies (random, uncertainty,
shifted-normal), and measures how efficiently each strategy buys model
performance when positive labels cost more than negative ones.
"""

from .datagen import (DatasetConfig, dataset_rng, generate_dataset, split_pools,
                      write_dataset_csv)
from .errors import AlqsimError, ConfigError
from .glm import GlmHyperparams, GlmModel, fit, predict_proba
from .metrics import (CiSummary, CostModel, auc, cost_efficiency, f1, mean_ci,
                      student_t_quantile)
from .simulation import (ExperimentSummary, RoundResult, SimulationConfig,
                         SimulationError, aggregate, run_round, run_rounds)
from .strategies import (BetaParams, QueryStrategy, beta_from_mode, beta_pdf,
                         beta_sample, select_random, select_shifted_normal,
                         select_uncertainty)

__version__ = "0.1.0"

__all__ = [
    "AlqsimError", "ConfigError", "SimulationError",
    "DatasetConfig",
    "dataset_rng", "generate_dataset", "split_pools", "write_dataset_csv",
    "GlmHyperparams", "GlmModel", "fit", "predict_proba",
    "BetaParams", "QueryStrategy",
    "beta_from_mode", "beta_pdf", "beta_sample",
    "select_random", "select_shifted_normal", "select_uncertainty",
    "CostModel", "CiSummary",
    "auc", "f1", "cost_efficiency",
    "mean_ci", "student_t_quantile",
    "SimulationConfig", "RoundResult", "ExperimentSummary",
    "run_round", "run_rounds", "aggregate",
]
