"""Inaccuracy estimators over the full pair universe.

Implements the naive mean, the classic imputation / inverse-propensity /
doubly-robust estimators on observed (possibly noisy) feedback, their
noise-corrected counterparts built on the surrogate loss, the closed-form
bias oracle for the corrected doubly-robust estimator, and the relative
error used by the benchmark.

All estimators reduce with a row-major np.mean over a per-cell contribution
matrix, so results are deterministic and the degeneration identities hold
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import (
    ErrorParams,
    ImputationMatrix,
    PredictionMatrix,
    PropensityMatrix,
    RatingDataset,
    ValidationError,
)
from .losses import LossKind, loss_curves, surrogate_curves


@dataclass(frozen=True)
class EstimatorInputs:
    dataset: RatingDataset
    predictions: PredictionMatrix
    loss: LossKind
    p_hat: PropensityMatrix | None = None
    e_bar: ImputationMatrix | None = None
    rho_hat: ErrorParams | None = None

    def __post_init__(self):
        shape = self.dataset.shape
        if self.predictions.r_hat.shape != shape:
            raise ValidationError("prediction matrix shape mismatch")
        if self.p_hat is not None and self.p_hat.p_hat.shape != shape:
            raise ValidationError("propensity matrix shape mismatch")
        if self.e_bar is not None and self.e_bar.e_bar.shape != shape:
            raise ValidationError("imputation matrix shape mismatch")


def _require(inputs: EstimatorInputs, *, p_hat=False, e_bar=False, rho=False):
    if p_hat and inputs.p_hat is None:
        raise ValidationError("propensities required")
    if e_bar and inputs.e_bar is None:
        raise ValidationError("imputed errors required")
    if rho and inputs.rho_hat is None:
        raise ValidationError("error-rate estimates required")


def _observed_loss(inputs: EstimatorInputs) -> np.ndarray:
    """Per-cell loss against the observed label (meaningful where o=1)."""
    l1, l0 = loss_curves(inputs.loss, inputs.predictions.r_hat)
    return np.where(inputs.dataset.observed_ratings == 1, l1, l0)


def true_inaccuracy(predictions: PredictionMatrix,
                    true_ratings: np.ndarray | None,
                    loss: LossKind) -> float:
    """Mean loss against the noise-free preferences over all pairs."""
    if true_ratings is None:
        raise ValidationError("true ratings required")
    l1, l0 = loss_curves(loss, predictions.r_hat)
    return float(np.mean(np.where(np.asarray(true_ratings) == 1, l1, l0)))


def estimate_naive(inputs: EstimatorInputs) -> float:
    """Mean observed loss; biased whenever observation is not uniform."""
    o = inputs.dataset.observed_mask
    n_obs = int(o.sum())
    if n_obs == 0:
        raise ValidationError("no observed pairs")
    e = _observed_loss(inputs)
    return float(np.sum(o * e) / n_obs)


def estimate_eib(inputs: EstimatorInputs) -> float:
    """Observed losses plus imputed errors on the unobserved cells."""
    _require(inputs, e_bar=True)
    o = inputs.dataset.observed_mask.astype(np.float64)
    e = _observed_loss(inputs)
    contrib = o * e + (1.0 - o) * inputs.e_bar.e_bar
    return float(np.mean(contrib))


def estimate_ips(inputs: EstimatorInputs) -> float:
    """Observed losses inversely weighted by the learned propensities."""
    _require(inputs, p_hat=True)
    o = inputs.dataset.observed_mask.astype(np.float64)
    p = inputs.p_hat.p_hat
    e = _observed_loss(inputs)
    return float(np.mean(o * e / p))


def estimate_dr(inputs: EstimatorInputs) -> float:
    """Doubly robust combination of imputed errors and propensity weights."""
    _require(inputs, p_hat=True, e_bar=True)
    o = inputs.dataset.observed_mask.astype(np.float64)
    p = inputs.p_hat.p_hat
    e = _observed_loss(inputs)
    e_hat = inputs.e_bar.e_bar
    # same association as the noise-corrected variant so that the rho=(0,0)
    # reduction is exact rather than merely within rounding
    contrib = (1.0 - o / p) * e_hat + o * e / p
    return float(np.mean(contrib))


def _surrogate_terms(inputs: EstimatorInputs):
    """Per-cell (o*r*l~1, o*(1-r)*l~0) numerators of the corrected family."""
    s1, s0 = surrogate_curves(inputs.loss, inputs.predictions.r_hat,
                              inputs.rho_hat)
    o = inputs.dataset.observed_mask.astype(np.float64)
    r = inputs.dataset.observed_ratings.astype(np.float64)
    return o * r * s1, o * (1.0 - r) * s0, o


def estimate_ome_eib(inputs: EstimatorInputs) -> float:
    """Imputation estimator on the surrogate loss: unobserved cells take the
    imputed error, observed cells the noise-corrected loss."""
    _require(inputs, e_bar=True, rho=True)
    pos, neg, o = _surrogate_terms(inputs)
    contrib = (1.0 - o) * inputs.e_bar.e_bar + pos + neg
    return float(np.mean(contrib))


def estimate_ome_ips(inputs: EstimatorInputs) -> float:
    """Propensity-weighted surrogate losses on the observed cells."""
    _require(inputs, p_hat=True, rho=True)
    pos, neg, _ = _surrogate_terms(inputs)
    p = inputs.p_hat.p_hat
    contrib = pos / p + neg / p
    return float(np.mean(contrib))


def estimate_ome_dr(inputs: EstimatorInputs) -> float:
    """Doubly robust estimator on the surrogate loss."""
    _require(inputs, p_hat=True, e_bar=True, rho=True)
    pos, neg, o = _surrogate_terms(inputs)
    p = inputs.p_hat.p_hat
    contrib = (1.0 - o / p) * inputs.e_bar.e_bar + pos / p + neg / p
    return float(np.mean(contrib))


ESTIMATORS = {
    "naive": estimate_naive,
    "eib": estimate_eib,
    "ips": estimate_ips,
    "dr": estimate_dr,
    "ome_eib": estimate_ome_eib,
    "ome_ips": estimate_ome_ips,
    "ome_dr": estimate_ome_dr,
}


def bias_ome_dr_oracle(
    true_ratings: np.ndarray,
    predictions: PredictionMatrix,
    p_true: PropensityMatrix,
    p_hat: PropensityMatrix,
    e_bar: ImputationMatrix,
    rho_true: ErrorParams,
    rho_hat: ErrorParams,
    loss: LossKind,
) -> float:
    """Closed-form absolute bias of the corrected doubly-robust estimator.

    The stochastic (1 - o/p_hat) imputation term is evaluated at its
    expectation (1 - p_true/p_hat), i.e. the expression conditions on the
    observation distribution rather than one realization.
    """
    r_star = np.asarray(true_ratings, dtype=np.float64)
    l1, l0 = loss_curves(loss, predictions.r_hat)
    p = p_true.p_hat
    ph = p_hat.p_hat
    denom_hat = rho_hat.denom
    w11 = (1.0 - rho_true.rho01 - rho_hat.rho10) / denom_hat
    w01 = (rho_true.rho01 - rho_hat.rho01) / denom_hat
    w10 = (rho_true.rho10 - rho_hat.rho10) / denom_hat
    w00 = (1.0 - rho_hat.rho01 - rho_true.rho10) / denom_hat

    impute_term = (1.0 - p / ph) * e_bar.e_bar
    pos_term = ((p * w11 - ph) / ph) * l1 + (p * w01 / ph) * l0
    neg_term = (p * w10 / ph) * l1 + ((p * w00 - ph) / ph) * l0
    total = impute_term + np.where(r_star == 1, pos_term, neg_term)
    return float(abs(np.mean(total)))


def relative_error(target: float, estimate: float) -> float:
    """|target - estimate| / target for a positive target."""
    if not target > 0.0:
        raise ValidationError("target inaccuracy must be positive")
    return abs(target - estimate) / target


def monte_carlo_ome_dr(
    true_ratings: np.ndarray,
    predictions: PredictionMatrix,
    p_true: PropensityMatrix,
    p_hat: PropensityMatrix,
    e_bar: ImputationMatrix,
    rho_true: ErrorParams,
    rho_hat: ErrorParams,
    loss: LossKind,
    n_reps: int,
    seed: int,
) -> np.ndarray:
    """Replicate the corrected DR estimate under joint (O, R | R*) resampling.

    Returns the array of per-replication estimates; its mean/SE back the
    unbiasedness and bias-oracle checks. Runs on the active kernel backend.
    """
    r_star = np.asarray(true_ratings, dtype=np.float64).ravel()
    s1, s0 = surrogate_curves(loss, predictions.r_hat, rho_hat)
    q1 = r_star * (1.0 - rho_true.rho01) + (1.0 - r_star) * rho_true.rho10
    return _kernels.mc_dr_estimates(
        n_reps,
        seed,
        p_true.p_hat.ravel(),
        p_hat.p_hat.ravel(),
        e_bar.e_bar.ravel().astype(np.float64),
        s1.ravel(),
        s0.ravel(),
        q1,
    )
