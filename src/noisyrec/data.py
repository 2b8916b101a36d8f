"""Shared data model: datasets, probability matrices, error-rate pairs, RNG plumbing.

All matrices are dense float64 / int8 numpy arrays of identical shape
(n_users, n_items). Desk-scale instances fit comfortably in memory and every
estimator sums over the full pair universe anyway, so sparse storage buys
nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Margin keeping 1 / (1 - rho01 - rho10) bounded.
EPS_RHO = 1e-6

# Default clipping floor for propensities.
DEFAULT_PROPENSITY_FLOOR = 0.05

# Factor-model outputs are clipped into (EPS_OUT, 1 - EPS_OUT).
EPS_OUT = 1e-6


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; every stochastic operation takes one explicitly."""
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class ErrorParams:
    """False-negative rate rho01 = P(r=0 | r*=1) and false-positive rate
    rho10 = P(r=1 | r*=0). Requires rho01 + rho10 < 1 (with margin EPS_RHO)
    so the surrogate-loss denominator stays bounded."""

    rho01: float
    rho10: float

    def __post_init__(self):
        if not (np.isfinite(self.rho01) and np.isfinite(self.rho10)):
            raise ValidationError("error rates must be finite")
        if self.rho01 < 0.0 or self.rho10 < 0.0:
            raise ValidationError("error rates must be non-negative")
        if self.rho01 + self.rho10 >= 1.0 - EPS_RHO:
            raise ValidationError(
                f"rho01+rho10 must be < 1 - {EPS_RHO:g}, "
                f"got {self.rho01 + self.rho10:g}"
            )

    @property
    def denom(self) -> float:
        return 1.0 - self.rho01 - self.rho10


@dataclass(frozen=True)
class PropensityMatrix:
    """Per-pair observation probabilities in (0, 1], floored at `floor`."""

    p_hat: np.ndarray
    floor: float = DEFAULT_PROPENSITY_FLOOR

    def __post_init__(self):
        p = np.asarray(self.p_hat, dtype=np.float64)
        object.__setattr__(self, "p_hat", p)
        if p.ndim != 2:
            raise ValidationError("propensity matrix must be 2-D")
        # negated so that NaN, which makes min and max NaN, is rejected
        lo, hi = (p.min(), p.max()) if p.size else (1.0, 1.0)
        if not (lo > 0.0 and lo >= self.floor and hi <= 1.0):
            raise ValidationError(
                f"propensities must lie in (0, 1] and not below the floor "
                f"{self.floor:g}"
            )

    @classmethod
    def clipped(cls, p: np.ndarray, floor: float = DEFAULT_PROPENSITY_FLOOR):
        """Clip into [floor, 1] rather than reject; the floor bounds variance."""
        return cls(np.clip(np.asarray(p, dtype=np.float64), floor, 1.0), floor)


@dataclass(frozen=True)
class PredictionMatrix:
    """Predicted positive-preference probabilities, strictly inside (0, 1)."""

    r_hat: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_hat, dtype=np.float64)
        object.__setattr__(self, "r_hat", r)
        if r.ndim != 2:
            raise ValidationError("prediction matrix must be 2-D")
        if not (np.all(r > 0.0) and np.all(r < 1.0)):  # negated: NaN fails
            raise ValidationError("predictions must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class ImputationMatrix:
    """Imputed surrogate errors; real-valued and possibly negative."""

    e_bar: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e_bar, dtype=np.float64)
        object.__setattr__(self, "e_bar", e)
        if e.ndim != 2:
            raise ValidationError("imputation matrix must be 2-D")
        if not np.all(np.isfinite(e)):
            raise ValidationError("imputed errors must be finite")


@dataclass(frozen=True)
class RatingDataset:
    """Binary-feedback dataset over the full user x item universe.

    observed_ratings entries are meaningful only where observed_mask is 1.
    true_ratings is the noise-free preference matrix, available on synthetic
    data only. The pair index (u, i) itself serves as the feature vector
    (one-hot user concatenated with one-hot item), so there is no feature
    store.
    """

    n_users: int
    n_items: int
    observed_mask: np.ndarray
    observed_ratings: np.ndarray
    true_ratings: np.ndarray | None = None

    def __post_init__(self):
        # validated as given, so that no value is rewritten by the cast;
        # an int8 array is kept as it is, without a copy
        violations = validate_dataset(self)
        if violations:
            raise ValidationError("; ".join(violations))
        for name in ("observed_mask", "observed_ratings", "true_ratings"):
            if getattr(self, name) is not None:
                object.__setattr__(
                    self, name, np.asarray(getattr(self, name), dtype=np.int8))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_users, self.n_items)

    @property
    def n_observed(self) -> int:
        return int(self.observed_mask.sum())

    @cached_property
    def observed_index(self) -> np.ndarray:
        """Row-major flat index of the observed set. The mask is validated
        as {0, 1}, so its bool view selects the same cells as the int8 mask
        at a fraction of the cost."""
        return np.flatnonzero(self.observed_mask.view(bool))

    def observed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-major (u, i) index arrays of the observed set."""
        return np.divmod(self.observed_index, self.n_items)


def _binary(a: np.ndarray) -> np.ndarray:
    """Elementwise a in {0, 1}: two comparisons, several times cheaper than
    np.isin on int8 matrices."""
    return (a == 0) | (a == 1)


def validate_dataset(d: RatingDataset) -> list[str]:
    """Diagnostic invariant check; returns one message per violation."""
    out: list[str] = []
    shape = (d.n_users, d.n_items)
    mask = np.asarray(d.observed_mask)
    ratings = np.asarray(d.observed_ratings)
    if mask.shape != shape:
        out.append(f"observed_mask shape {mask.shape} != {shape}")
    if ratings.shape != shape:
        out.append(f"observed_ratings shape {ratings.shape} != {shape}")
    if mask.shape == shape and not _binary(mask).all():
        out.append("observed_mask entries must be in {0,1}")
    if mask.shape == shape and ratings.shape == shape:
        bad = (mask == 1) & ~_binary(ratings)
        if bad.any():
            u, i = np.argwhere(bad)[0]
            out.append(f"observed rating at ({u},{i}) not in {{0,1}}")
    if d.true_ratings is not None:
        t = np.asarray(d.true_ratings)
        if t.shape != shape:
            out.append(f"true_ratings shape {t.shape} != {shape}")
        elif not _binary(t).all():
            out.append("true_ratings entries must be in {0,1}")
    return out


def save_dataset_triples(path, dataset: RatingDataset) -> None:
    """Write the observed triples in the text format:
    one `user<TAB>item<TAB>rating` per line, 0-indexed, rating in {0,1}."""
    users, items = dataset.observed_pairs()
    with open(path, "w") as fh:
        for u, i in zip(users, items):
            fh.write(f"{u}\t{i}\t{int(dataset.observed_ratings[u, i])}\n")


def check_triple_index(lineno: int, u: int, i: int, n_users: int | None = None,
                       n_items: int | None = None) -> None:
    """Reject a negative index, which numpy would wrap to the far end, and
    one past an explicit universe size."""
    for name, idx, size in (("user", u, n_users), ("item", i, n_items)):
        if idx < 0:
            raise ValidationError(f"line {lineno}: negative {name} index {idx}")
        if size is not None and idx >= size:
            raise ValidationError(
                f"line {lineno}: {name} index {idx} is past the {size} "
                f"{name}s of the universe")


def load_dataset_triples(path, n_users: int | None = None,
                         n_items: int | None = None) -> RatingDataset:
    """Read the triple text format; universe size defaults to max index + 1."""
    users, items, ratings = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                parts = line.split()
            if len(parts) != 3:
                raise ValidationError(f"line {lineno}: expected 3 fields")
            try:
                u, i, r = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from exc
            if r not in (0, 1):
                raise ValidationError(f"line {lineno}: rating must be 0 or 1")
            check_triple_index(lineno, u, i, n_users, n_items)
            users.append(u)
            items.append(i)
            ratings.append(r)
    return dataset_from_triples(users, items, ratings, n_users, n_items)


def dataset_from_triples(users, items, ratings, n_users: int | None = None,
                         n_items: int | None = None) -> RatingDataset:
    """Dense dataset from parallel lists of checked triples; the universe
    size defaults to max index + 1. A repeated (user, item) pair is rejected,
    since keeping either rating would drop the other silently."""
    if not users:
        raise ValidationError("no triples")
    n_users = n_users if n_users is not None else max(users) + 1
    n_items = n_items if n_items is not None else max(items) + 1
    mask = np.zeros((n_users, n_items), dtype=np.int8)
    obs = np.zeros((n_users, n_items), dtype=np.int8)
    mask[users, items] = 1
    if int(mask.sum()) != len(users):
        counts = Counter(zip(users, items))
        u, i = next(pair for pair, c in counts.items() if c > 1)
        raise ValidationError(f"duplicate pair (user {u}, item {i})")
    obs[users, items] = ratings
    return RatingDataset(n_users, n_items, mask, obs)
