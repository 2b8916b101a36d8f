"""Pointwise losses and the noise-corrected surrogate loss.

The surrogate loss is the unique linear combination of l(f, 1) and l(f, 0)
whose expectation under the class-conditional flip model recovers the clean
loss. It may be negative; clamping it would destroy that identity, so we
never do.

The loss at a 0/1 label without flip rates is one expression in the label,
never both curves and a select; with flip rates, label_loss and its gradient
select between the two flip-corrected curves. The loss at a soft label t is
the mix t l(f, 1) + (1 - t) l(f, 0) of the two curves.

`dr_term` is the one doubly-robust term (1 - o/p) e + o l / p behind every
estimator and every trainer's objective. It is linear in (l, e), so given
the derivatives of l and e it gives the term's derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import ErrorParams, ValidationError, inside_unit_interval


class LossVariant(Enum):
    SQUARED_ERROR = "squared"
    CROSS_ENTROPY = "xent"


@dataclass(frozen=True)
class LossKind:
    variant: LossVariant = LossVariant.SQUARED_ERROR
    eps_clip: float = 1e-6  # cross-entropy log clipping, keeps the loss bounded

    def __post_init__(self):
        if self.variant is LossVariant.CROSS_ENTROPY:
            if not (0.0 < self.eps_clip <= 0.1):
                raise ValidationError("eps_clip must be in (0, 0.1]")

    @classmethod
    def squared(cls) -> "LossKind":
        return cls(LossVariant.SQUARED_ERROR)

    @classmethod
    def cross_entropy(cls, eps_clip: float = 1e-6) -> "LossKind":
        return cls(LossVariant.CROSS_ENTROPY, eps_clip)


def _square(d):
    """d * d, in place in d when d is a fresh array. Not d ** 2: a float64
    scalar's ** 2 goes through pow and can miss d * d by an ulp, while an
    array's is d * d, so a scalar loss would differ from its array form."""
    return np.square(d, out=d if d.ndim else None)


def loss_curves(kind: LossKind, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (l(pred, 1), l(pred, 0)) for predictions in (0, 1); any
    other prediction, NaN included, raises ValidationError."""
    pred = np.asarray(pred, dtype=np.float64)
    if not inside_unit_interval(pred):
        raise ValidationError("predictions must lie strictly inside (0, 1)")
    if kind.variant is LossVariant.SQUARED_ERROR:
        return _square(pred - 1.0), np.square(pred)
    eps = kind.eps_clip
    return -np.log(np.maximum(pred, eps)), -np.log(np.maximum(1.0 - pred, eps))


def loss_curve_grads(kind: LossKind, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (dl(pred,1)/dpred, dl(pred,0)/dpred)."""
    pred = np.asarray(pred, dtype=np.float64)
    if kind.variant is LossVariant.SQUARED_ERROR:
        return 2.0 * (pred - 1.0), 2.0 * pred
    eps = kind.eps_clip
    g1 = np.where(pred > eps, -1.0 / np.maximum(pred, eps), 0.0)
    g0 = np.where(1.0 - pred > eps, 1.0 / np.maximum(1.0 - pred, eps), 0.0)
    return g1, g0


def _flip(c1, c0, rho: ErrorParams):
    """The 2x2 flip correction of a pair of curves (c(., 1), c(., 0)): the
    surrogate loss from the loss curves, its derivative from theirs."""
    denom = rho.denom
    return (((1.0 - rho.rho10) * c1 - rho.rho01 * c0) / denom,
            ((1.0 - rho.rho01) * c0 - rho.rho10 * c1) / denom)


def _at_label(curves, label, rho: ErrorParams | None):
    """The pair of curves at each label, flip-corrected when rho is given."""
    c1, c0 = curves if rho is None else _flip(*curves, rho)
    return np.where(np.asarray(label) == 1, c1, c0)


def label_loss(kind: LossKind, pred: np.ndarray, label,
               rho: ErrorParams | None = None) -> np.ndarray:
    """Elementwise l(pred, label) for labels in {0, 1}, or the
    noise-corrected l~(pred, label) when the flip rates rho are given.

    Without rho the loss is one expression in the label y: (pred - y)^2, or
    -log(max(y pred + (1 - y)(1 - pred), eps)). At y = 0 or 1 each product
    with y or 1 - y and each added 0 is exact, so this equals the curve at
    the label, l(pred, 1) or l(pred, 0), bit for bit, in two passes for the
    squared loss instead of both curves and a select."""
    if rho is not None:
        return _at_label(loss_curves(kind, pred), label, rho)
    pred = np.asarray(pred, dtype=np.float64)
    if not inside_unit_interval(pred):
        raise ValidationError("predictions must lie strictly inside (0, 1)")
    if kind.variant is LossVariant.SQUARED_ERROR:
        return _square(pred - label)
    y = np.asarray(label)
    return -np.log(np.maximum(y * pred + (1.0 - y) * (1.0 - pred),
                              kind.eps_clip))


def label_loss_grad(kind: LossKind, pred: np.ndarray, label,
                    rho: ErrorParams | None = None) -> np.ndarray:
    """Elementwise d/dpred of label_loss(kind, pred, label, rho)."""
    return _at_label(loss_curve_grads(kind, pred), label, rho)


def surrogate_curves(
    kind: LossKind, pred: np.ndarray, rho: ErrorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise noise-corrected losses (l~(pred, 1), l~(pred, 0)).

    Solves the 2x2 linear system tying the expected surrogate under flips
    to the clean loss:

        l~(f, 1) = [(1 - rho10) l(f, 1) - rho01 l(f, 0)] / (1 - rho01 - rho10)
        l~(f, 0) = [(1 - rho01) l(f, 0) - rho10 l(f, 1)] / (1 - rho01 - rho10)
    """
    return _flip(*loss_curves(kind, pred), rho)


def _mix(curves, t):
    """t c(., 1) + (1 - t) c(., 0) of a pair of curves."""
    c1, c0 = curves
    return t * c1 + (1.0 - t) * c0


def soft_label_loss(kind: LossKind, pred: np.ndarray, t) -> np.ndarray:
    """Elementwise t l(pred, 1) + (1 - t) l(pred, 0), the loss at a soft
    label t in [0, 1]."""
    return _mix(loss_curves(kind, pred), t)


def soft_label_loss_grad(kind: LossKind, pred: np.ndarray, t) -> np.ndarray:
    """Elementwise d/dpred of soft_label_loss(kind, pred, t)."""
    return _mix(loss_curve_grads(kind, pred), t)


def dr_term(o, p, observed, imputed=None):
    """Elementwise doubly-robust term (1 - o/p) imputed + o observed / p, for
    observation indicators o and propensities p; imputed=None drops the
    first term.

    With observed = l and imputed = e it is the per-cell term of the
    estimators (p = 1 for EIB, no e for IPS, the surrogate loss for l in
    the OME family); with their derivatives it is the term's derivative.
    """
    term = o * observed / p
    if imputed is None:
        return term
    return (1.0 - o / p) * imputed + term
