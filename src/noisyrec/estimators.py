"""Inaccuracy estimators over the full pair universe.

Implements the naive mean, the classic imputation / inverse-propensity /
doubly-robust estimators on observed (possibly noisy) feedback, their
noise-corrected counterparts built on the surrogate loss, the closed-form
bias oracle for the corrected doubly-robust estimator, and the relative
error used by the benchmark.

The six EIB/IPS/DR estimators are one doubly-robust mean,
mean((1 - o/p) e_bar + o l / p) over all cells (`_dr_mean`): EIB takes p = 1,
IPS drops the e_bar term, and the OME family takes for l the surrogate loss
where the plain family takes the loss at the observed label. The plain
family is therefore the corrected one at rho_hat = (0, 0), bit for bit,
because the surrogate at zero flip rates is the loss itself.

Losses are computed on the observed cells only. `EstimatorInputs.observed`
gathers their row-major flat index, predictions and labels once for all
estimators; an estimator evaluates its per-cell term there and writes it
into a dense contribution matrix whose other cells hold what the term is at
o = 0 (e_bar for the imputed family, 0 otherwise). Every estimator then
reduces that full matrix with a row-major np.mean (np.sum for the naive
mean), so results are deterministic and do not depend on which cells were
computed: they equal the all-cell formula bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .data import (
    ErrorParams,
    ImputationMatrix,
    PredictionMatrix,
    PropensityMatrix,
    RatingDataset,
    ValidationError,
    is_binary,
)
from .losses import LossKind, label_loss, loss_curves, surrogate_curves


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
        if 0 in shape:
            raise ValidationError("no pairs: the pair universe is empty")
        if self.predictions.r_hat.shape != shape:
            raise ValidationError("prediction matrix shape mismatch")
        if self.p_hat is not None and self.p_hat.p_hat.shape != shape:
            raise ValidationError("propensity matrix shape mismatch")
        if self.e_bar is not None and self.e_bar.e_bar.shape != shape:
            raise ValidationError("imputation matrix shape mismatch")

    @cached_property
    def observed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row-major flat index, predictions, labels) of the observed cells."""
        idx = self.dataset.observed_index
        return (idx, np.take(self.predictions.r_hat, idx),
                np.take(self.dataset.observed_ratings, idx))


def _dr_mean(inputs: EstimatorInputs, *, weighted: bool, imputed: bool,
             corrected: bool) -> float:
    """mean((1 - o/p) e_bar + o l / p) over all cells, where l is the loss
    at the observed label, or the surrogate loss when corrected; p = 1
    unless weighted, and the e_bar term is dropped unless imputed."""
    if weighted and inputs.p_hat is None:
        raise ValidationError("propensities required")
    if imputed and inputs.e_bar is None:
        raise ValidationError("imputed errors required")
    if corrected and inputs.rho_hat is None:
        raise ValidationError("error-rate estimates required")
    idx, r_hat, labels = inputs.observed
    p = np.take(inputs.p_hat.p_hat, idx) if weighted else 1.0
    # the all-cell expression at o = 1, term for term
    at_obs = label_loss(inputs.loss, r_hat, labels,
                        inputs.rho_hat if corrected else None) / p
    if imputed:
        e_bar = inputs.e_bar.e_bar
        at_obs = (1.0 - 1.0 / p) * np.take(e_bar, idx) + at_obs
        contrib = e_bar.copy()
    else:
        contrib = np.zeros(inputs.dataset.shape)
    np.put(contrib, idx, at_obs)
    return float(np.mean(contrib))


def _checked_truth(true_ratings, shape) -> np.ndarray:
    """The noise-free preferences as a non-empty array of the predictions'
    shape holding only 0 and 1; anything else is a ValidationError, so that
    no truth broadcasts against the predictions, counts a 3 as a 0 or yields
    the NaN mean of an empty pair universe."""
    if true_ratings is None:
        raise ValidationError("true ratings required")
    truth = np.asarray(true_ratings)
    if truth.shape != shape:
        raise ValidationError(f"true ratings shape {truth.shape} != {shape}")
    if truth.size == 0:
        raise ValidationError("no pairs: the pair universe is empty")
    if not is_binary(truth).all():
        raise ValidationError("true ratings entries must be in {0,1}")
    return truth


def true_inaccuracy(predictions: PredictionMatrix,
                    true_ratings: np.ndarray | None,
                    loss: LossKind) -> float:
    """Mean loss against the noise-free preferences over all pairs."""
    r_hat = predictions.r_hat
    truth = _checked_truth(true_ratings, r_hat.shape)
    total = np.empty(r_hat.shape)
    for t in _kernels.row_tiles(*r_hat.shape):
        total[t] = label_loss(loss, r_hat[t], truth[t])
    return float(np.mean(total))


def estimate_naive(inputs: EstimatorInputs) -> float:
    """Mean observed loss; biased whenever observation is not uniform."""
    idx, r_hat, labels = inputs.observed
    if idx.size == 0:
        raise ValidationError("no observed pairs")
    contrib = np.zeros(inputs.dataset.shape)
    np.put(contrib, idx, label_loss(inputs.loss, r_hat, labels))
    return float(np.sum(contrib) / idx.size)


def estimate_eib(inputs: EstimatorInputs) -> float:
    """Observed losses plus imputed errors on the unobserved cells."""
    return _dr_mean(inputs, weighted=False, imputed=True, corrected=False)


def estimate_ips(inputs: EstimatorInputs) -> float:
    """Observed losses inversely weighted by the learned propensities."""
    return _dr_mean(inputs, weighted=True, imputed=False, corrected=False)


def estimate_dr(inputs: EstimatorInputs) -> float:
    """Doubly robust combination of imputed errors and propensity weights."""
    return _dr_mean(inputs, weighted=True, imputed=True, corrected=False)


def estimate_ome_eib(inputs: EstimatorInputs) -> float:
    """Imputation estimator on the surrogate loss: unobserved cells take the
    imputed error, observed cells the noise-corrected loss."""
    return _dr_mean(inputs, weighted=False, imputed=True, corrected=True)


def estimate_ome_ips(inputs: EstimatorInputs) -> float:
    """Propensity-weighted surrogate losses on the observed cells."""
    return _dr_mean(inputs, weighted=True, imputed=False, corrected=True)


def estimate_ome_dr(inputs: EstimatorInputs) -> float:
    """Doubly robust estimator on the surrogate loss."""
    return _dr_mean(inputs, weighted=True, imputed=True, corrected=True)


ESTIMATORS = {
    "naive": estimate_naive,
    "eib": estimate_eib,
    "ips": estimate_ips,
    "dr": estimate_dr,
    "ome_eib": estimate_ome_eib,
    "ome_ips": estimate_ome_ips,
    "ome_dr": estimate_ome_dr,
}


def _oracle_truth(true_ratings, predictions: PredictionMatrix,
                  p_true: PropensityMatrix, p_hat: PropensityMatrix,
                  e_bar: ImputationMatrix) -> np.ndarray:
    """The checked truth of the oracle and the Monte Carlo, whose per-cell
    matrices must all have the predictions' shape."""
    shape = predictions.r_hat.shape
    truth = _checked_truth(true_ratings, shape)
    for what, a in (("true propensity", p_true.p_hat),
                    ("propensity", p_hat.p_hat), ("imputation", e_bar.e_bar)):
        if a.shape != shape:
            raise ValidationError(f"{what} matrix shape mismatch")
    return truth


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
    truth = _oracle_truth(true_ratings, predictions, p_true, p_hat, e_bar)
    denom_hat = rho_hat.denom
    w11 = (1.0 - rho_true.rho01 - rho_hat.rho10) / denom_hat
    w01 = (rho_true.rho01 - rho_hat.rho01) / denom_hat
    w10 = (rho_true.rho10 - rho_hat.rho10) / denom_hat
    w00 = (1.0 - rho_hat.rho01 - rho_true.rho10) / denom_hat

    total = np.empty(truth.shape)
    for t in _kernels.row_tiles(*truth.shape):
        l1, l0 = loss_curves(loss, predictions.r_hat[t])
        p = p_true.p_hat[t]
        ph = p_hat.p_hat[t]
        impute_term = (1.0 - p / ph) * e_bar.e_bar[t]
        pos_term = ((p * w11 - ph) / ph) * l1 + (p * w01 / ph) * l0
        neg_term = (p * w10 / ph) * l1 + ((p * w00 - ph) / ph) * l0
        total[t] = impute_term + np.where(truth[t] == 1, pos_term, neg_term)
    return float(abs(np.mean(total)))


def relative_error(target: float, estimate: float) -> float:
    """|target - estimate| / target for a positive target."""
    if not target > 0.0:
        raise ValidationError("target inaccuracy must be positive")
    return abs(target - estimate) / target


def _is_integer(x) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
    unbiasedness and bias-oracle checks. The draws run in
    `_kernels.mc_dr_estimates`: one uniform per cell and replication decides
    both O ~ Bern(p_true) and R | O = 1 ~ Bern(q1), and each replication's
    mean is two dot products, equal to the all-cell mean of its
    contributions up to rounding. n_reps must be an integer >= 1 and seed a
    non-negative integer; anything else is a ValidationError.
    """
    truth = _oracle_truth(true_ratings, predictions, p_true, p_hat, e_bar)
    if not _is_integer(n_reps) or n_reps < 1:
        raise ValidationError(f"n_reps must be an integer >= 1, got {n_reps!r}")
    if not _is_integer(seed) or seed < 0:
        raise ValidationError(
            f"seed must be a non-negative integer, got {seed!r}")
    r_star = np.asarray(truth, dtype=np.float64).ravel()
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
