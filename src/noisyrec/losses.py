"""Pointwise losses and the noise-corrected surrogate loss.

The surrogate loss is the unique linear combination of l(f, 1) and l(f, 0)
whose expectation under the class-conditional flip model recovers the clean
loss. It may be negative; clamping it would destroy that identity, so we
never do.
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


def loss_curves(kind: LossKind, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (l(pred, 1), l(pred, 0)) for predictions in (0, 1); any
    other prediction, NaN included, raises ValidationError."""
    pred = np.asarray(pred, dtype=np.float64)
    if not inside_unit_interval(pred):
        raise ValidationError("predictions must lie strictly inside (0, 1)")
    if kind.variant is LossVariant.SQUARED_ERROR:
        return (pred - 1.0) ** 2, pred**2
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
    """Elementwise l(pred, label), or the noise-corrected l~(pred, label)
    when the flip rates rho are given."""
    return _at_label(loss_curves(kind, pred), label, rho)


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
