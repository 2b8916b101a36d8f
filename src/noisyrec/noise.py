"""Identification of the flip rates from extremes of the noisy positive rate.

The observed positive rate is an affine function of the true one,
q = (1 - rho01 - rho10) * gamma + rho10, so its argmin/argmax coincide with
those of gamma. When the true rate attains 0 and 1 somewhere in the pair
universe, the extremes of q identify the flip rates directly:
rho01 = 1 - max(q), rho10 = min(q).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import (EPS_RHO, ErrorParams, ValidationError, float_matrix,
                   inside_unit_interval)


class NoSeparationWarning(UserWarning):
    """The noisy-rate estimate shows no spread between its extremes."""


@dataclass(frozen=True)
class NoisyRateModel:
    """Per-pair estimates of P(r=1 | x) over the full universe."""

    q: np.ndarray

    def __post_init__(self):
        if not inside_unit_interval(float_matrix(self, "q", "noisy-rate")):
            raise ValidationError("noisy-rate entries must lie in (0, 1)")


def default_k_extreme(n_pairs: int) -> int:
    """Extreme cells per end unless a config names them: 0.1%, at least 1."""
    return max(1, int(0.001 * n_pairs))


def check_k_extreme(k_extreme: int, n_pairs: int) -> None:
    """Past n_pairs/2 the k lowest and the k highest cells overlap."""
    if not (1 <= k_extreme <= n_pairs // 2):
        raise ValidationError("k_extreme must be in [1, n_pairs/2]")


def extreme_cells(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the k lowest and the k highest cells of `values`,
    each by ascending value, ties by index, for 1 <= k <= n/2.

    At each end v is the k-th value: all cells strictly beyond v, then the
    row-major-first cells equal to v. This is build_gamma's cut rule, so
    k = 1 gives np.argmin and np.argmax. NaN raises ValidationError."""
    flat = np.ravel(values)
    check_k_extreme(k, flat.size)
    if np.isnan(flat.max()):
        raise ValidationError("values to rank hold NaN")
    ends = []
    at_ranks = _kernels.values_at_ranks(flat, (k - 1, flat.size - k))
    for v, beyond in zip(at_ranks, (np.less, np.greater)):
        cells = np.flatnonzero(beyond(flat, v))
        ties = np.flatnonzero(flat == v)[:k - cells.size]
        cells = np.concatenate((cells, ties))
        ends.append(cells[np.argsort(flat[cells], kind="stable")])
    return ends[0], ends[1]


def clamp_error_params(rho01: float, rho10: float) -> tuple[ErrorParams, bool]:
    """Project an estimated pair into the valid region.

    Rates are floored at 0 and, if the sum reaches 1 - EPS_RHO, both are
    scaled down proportionally. Returns (params, clamped flag). Estimated
    noisy rates can violate weak separability numerically, and downstream
    training must proceed, hence clamp rather than error.
    """
    r01 = max(0.0, float(rho01))
    r10 = max(0.0, float(rho10))
    clamped = (r01 != rho01) or (r10 != rho10)
    total = r01 + r10
    if total >= 1.0 - EPS_RHO:
        scale = (1.0 - 2.0 * EPS_RHO) / total
        r01 *= scale
        r10 *= scale
        clamped = True
    return ErrorParams(r01, r10), clamped


def warn_if_flat(q) -> None:
    """NoSeparationWarning when the noisy rate q is flat (np.ptp(q) < 1e-12):
    flip rates read from it at any extremes are then unreliable."""
    if np.ptp(q) < 1e-12:
        warnings.warn(
            "noisy-rate matrix has no separation between extremes; "
            "identified error rates are unreliable",
            NoSeparationWarning,
        )


def rates_at_extremes(q, k_extreme: int, by) -> tuple[ErrorParams, bool]:
    """Flip rates read from q at the extreme cells of `by`, of q's shape:
    rho10 = mean of q over the k lowest cells, rho01 = 1 - mean over the k
    highest, clamped. Returns (params, clamped flag)."""
    lo, hi = extreme_cells(by, k_extreme)
    q = np.ravel(q)
    return clamp_error_params(1.0 - float(np.mean(q[hi])),
                              float(np.mean(q[lo])))


def identify_error_params(q: NoisyRateModel, k_extreme: int) -> ErrorParams:
    """Estimate the flip rates from the k most extreme noisy-rate entries,
    as `extreme_cells` selects them: rho01 = 1 - mean of the k largest,
    rho10 = mean of the k smallest. k = 1 is the argmin/argmax rule; an
    estimated q's single extremes are high-variance, so the CLI passes
    default_k_extreme of the universe."""
    params, _ = rates_at_extremes(q.q, k_extreme, q.q)
    warn_if_flat(q.q)
    return params
