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
estimators, and `observed_loss` and `surrogate_loss` evaluate the loss at
the observed label and its noise-corrected form there once each. Every
all-cell mean (the estimators, the truth and the bias oracle) is a
`_kernels.cell_sum` over the row-major cells, divided by the cell count
(by the observed count for the naive mean). cell_sum asks for the per-cell
terms one leaf range at a time: an estimator's fill copies the range of
e_bar (or zeros), which is the term at o = 0, and overwrites the range's
observed cells, found by np.searchsorted on the observed index, with their
term at o = 1. No n x m matrix of terms is built, and results are
deterministic and do not depend on which cells were computed: they equal a
row-major np.mean of the all-cell formula bit for bit.

The truth and the oracle evaluate each leaf in as few passes as exactness
allows: the loss at the true label is one expression in the label
(`losses.label_loss` without flip rates), and the oracle forms one pair of
loss coefficients per cell instead of both branches of r* and a select. An
integer or bool truth is checked with two reductions, not an n x m mask.
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

    @cached_property
    def observed_loss(self) -> np.ndarray:
        """The loss at the observed label of each observed cell."""
        _, r_hat, labels = self.observed
        return label_loss(self.loss, r_hat, labels)

    @cached_property
    def surrogate_loss(self) -> np.ndarray:
        """The noise-corrected loss at the observed label of each observed
        cell, under rho_hat."""
        if self.rho_hat is None:
            raise ValidationError("error-rate estimates required")
        _, r_hat, labels = self.observed
        return label_loss(self.loss, r_hat, labels, self.rho_hat)


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
    return _dr_sum(
        inputs,
        inputs.surrogate_loss if corrected else inputs.observed_loss,
        inputs.p_hat.p_hat.ravel() if weighted else None,
        inputs.e_bar.e_bar.ravel() if imputed else None,
    ) / inputs.predictions.r_hat.size


def _dr_sum(inputs: EstimatorInputs, loss: np.ndarray, p_flat, e_flat) -> float:
    """The row-major cell sum of (1 - o/p) e_bar + o l / p, for l = loss on
    the observed cells; p = 1 when p_flat is None, and the e_bar term is
    dropped when e_flat is None."""
    idx = inputs.observed[0]

    def fill(start, stop, out):
        if e_flat is None:
            out.fill(0.0)
        else:
            out[:] = e_flat[start:stop]
        lo, hi = np.searchsorted(idx, (start, stop))
        cells = idx[lo:hi]
        local = cells - start
        p = 1.0 if p_flat is None else np.take(p_flat, cells)
        # the all-cell expression at o = 1, term for term
        at_obs = loss[lo:hi] / p
        if e_flat is not None:
            at_obs = (1.0 - 1.0 / p) * np.take(out, local) + at_obs
        out[local] = at_obs

    return _kernels.cell_sum(fill, inputs.predictions.r_hat.size)


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
    if truth.dtype.kind in "iu":  # two reductions, no n x m temporary
        binary = truth.min() >= 0 and truth.max() <= 1
    else:
        binary = truth.dtype.kind == "b" or is_binary(truth).all()
    if not binary:
        raise ValidationError("true ratings entries must be in {0,1}")
    return truth


def true_inaccuracy(predictions: PredictionMatrix,
                    true_ratings: np.ndarray | None,
                    loss: LossKind) -> float:
    """Mean loss against the noise-free preferences over all pairs."""
    r_hat = predictions.r_hat
    truth = _checked_truth(true_ratings, r_hat.shape)
    r_flat, t_flat = r_hat.ravel(), truth.ravel()

    def fill(start, stop, out):
        out[:] = label_loss(loss, r_flat[start:stop], t_flat[start:stop])

    return _kernels.cell_sum(fill, r_flat.size) / r_flat.size


def estimate_naive(inputs: EstimatorInputs) -> float:
    """Mean observed loss; biased whenever observation is not uniform."""
    idx = inputs.observed[0]
    if idx.size == 0:
        raise ValidationError("no observed pairs")
    return _dr_sum(inputs, inputs.observed_loss, None, None) / idx.size


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

    Each cell's term is (1 - p/p_hat) e + c1 l1 + c0 l0, with one
    coefficient pair per cell: c1 = (p W1 - p_hat r*)/p_hat and
    c0 = (p W0 - p_hat (1 - r*))/p_hat, where r* reads the weights W1 and W0
    from two-entry tables. At r* = 0 or 1, p_hat r* is 0 or p_hat and
    x - 0 = x, so the pair is the branch of r* bit for bit, and no second
    branch is formed.
    """
    truth = _oracle_truth(true_ratings, predictions, p_true, p_hat, e_bar)
    denom_hat = rho_hat.denom
    w11 = (1.0 - rho_true.rho01 - rho_hat.rho10) / denom_hat
    w01 = (rho_true.rho01 - rho_hat.rho01) / denom_hat
    w10 = (rho_true.rho10 - rho_hat.rho10) / denom_hat
    w00 = (1.0 - rho_hat.rho01 - rho_true.rho10) / denom_hat

    # the weights of l1 and of l0 at r* = 0 and at r* = 1, read by r*
    w1_at, w0_at = np.array((w10, w11)), np.array((w00, w01))
    flats = [a.ravel() for a in (truth, predictions.r_hat, p_true.p_hat,
                                 p_hat.p_hat, e_bar.e_bar)]

    def fill(start, stop, out):
        r_star, r_hat, p, ph, e = (a[start:stop] for a in flats)
        np.multiply(1.0 - p / ph, e, out=out)  # the imputation term
        l1, l0 = loss_curves(loss, r_hat)
        at = r_star.astype(np.intp)
        ph_r = ph * at  # ph r*: ph at r* = 1, 0 at r* = 0
        c = np.take(w1_at, at)
        c *= p
        c -= ph_r
        c /= ph
        l1 *= c  # c1 l1
        np.take(w0_at, at, out=c, mode="clip")  # unbuffered: at is 0 or 1
        c *= p
        c -= np.subtract(ph, ph_r, out=ph_r)  # ph (1 - r*)
        c /= ph
        l0 *= c  # c0 l0
        l1 += l0
        out += l1

    return abs(_kernels.cell_sum(fill, truth.size) / truth.size)


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
