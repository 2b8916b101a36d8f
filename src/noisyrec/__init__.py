"""Noise-corrected debiased estimation and training for MNAR recommendation
feedback."""

from .data import (
    ErrorParams,
    ImputationMatrix,
    PredictionMatrix,
    PropensityMatrix,
    RatingDataset,
    ValidationError,
    make_rng,
    validate_dataset,
)
from .estimators import (
    ESTIMATORS,
    EstimatorInputs,
    bias_ome_dr_oracle,
    estimate_dr,
    estimate_eib,
    estimate_ips,
    estimate_naive,
    estimate_ome_dr,
    estimate_ome_eib,
    estimate_ome_ips,
    monte_carlo_ome_dr,
    relative_error,
    true_inaccuracy,
)
from .losses import LossKind
from .metrics import auc, ndcg_at_k, recall_at_k
from .noise import NoisyRateModel, identify_error_params
from .synthbench import BenchmarkSpec, sample_instance

__version__ = "0.1.0"
