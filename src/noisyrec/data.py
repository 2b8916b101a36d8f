"""Shared data model and input readers: datasets, probability matrices,
error-rate pairs, RNG plumbing, config values and sections, triple files.

All matrices are dense float64 / int8 numpy arrays of identical shape
(n_users, n_items). Desk-scale instances fit comfortably in memory and every
estimator sums over the full pair universe anyway, so sparse storage buys
nothing.
"""

from __future__ import annotations

import typing
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property

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


def read_value(key: str, value, kind):
    """A config string or JSON value as kind: int, float, str, or tuple (of
    comma-separated floats, or a JSON list of numbers). A value of an
    accepted type passes as it is, an int in a float field too; a bool, a
    null or anything else is a ValidationError naming key."""
    numbers = (int, float)  # matched by type(), so a bool is no number
    if isinstance(value, str):
        try:
            if kind is tuple:
                return tuple(float(v) for v in value.split(","))
            return kind(value)
        except ValueError:
            pass
    elif kind is tuple and isinstance(value, list):
        if all(type(v) in numbers for v in value):
            return tuple(value)
    elif type(value) is kind or (kind is float and type(value) in numbers):
        return value
    raise ValidationError(f"{key}: cannot read {value!r} as {kind.__name__}")


# a dataclass's annotated field types, evaluated once per class
_field_types = cache(typing.get_type_hints)


def read_fields(cls, section, what: str, prefix: str = "",
                required=()) -> dict:
    """A config section or JSON object as keyword arguments of dataclass
    cls, each value read as its field's annotated type and named with
    prefix. A section that is no mapping, a missing required key, or a key
    that is no int, float, str or tuple field of cls is a ValidationError."""
    if not isinstance(section, dict):
        raise ValidationError(f"expected a mapping of {what}s, got {section!r}")
    missing = [key for key in required if key not in section]
    if missing:
        raise ValidationError(f"missing {what} {missing[0]!r}")
    types = _field_types(cls)
    out = {}
    for key, value in section.items():
        if types.get(key) not in (int, float, str, tuple):
            raise ValidationError(f"unknown {what} {key!r}")
        out[key] = read_value(prefix + key, value, types[key])
    return out


def float_matrix(instance, name: str, what: str) -> np.ndarray:
    """Field `name` of a frozen dataclass instance as a float64 array, stored
    back on it; one not 2-D is a ValidationError naming the `what` matrix."""
    a = np.asarray(getattr(instance, name), dtype=np.float64)
    object.__setattr__(instance, name, a)
    if a.ndim != 2:
        raise ValidationError(f"{what} matrix must be 2-D")
    return a


def inside_unit_interval(a: np.ndarray) -> bool:
    """Every entry strictly inside (0, 1). min and max carry a NaN through,
    and NaN fails both comparisons, so a NaN entry fails the test."""
    return a.size == 0 or (a.min() > 0 and a.max() < 1)


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
        p = float_matrix(self, "p_hat", "propensity")
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
        if not inside_unit_interval(float_matrix(self, "r_hat", "prediction")):
            raise ValidationError("predictions must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class ImputationMatrix:
    """Imputed surrogate errors; real-valued and possibly negative."""

    e_bar: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(float_matrix(self, "e_bar", "imputation"))):
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

    def held_out_cells(self, rng) -> np.ndarray:
        """A held-out tenth (at least one) of observed_index, drawn by rng."""
        idx = self.observed_index
        return rng.permutation(idx)[:max(1, idx.size // 10)]


def is_binary(a: np.ndarray) -> np.ndarray:
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
    if mask.shape == shape and not is_binary(mask).all():
        out.append("observed_mask entries must be in {0,1}")
    if mask.shape == shape and ratings.shape == shape:
        bad = (mask == 1) & ~is_binary(ratings)
        if bad.any():
            u, i = np.argwhere(bad)[0]
            out.append(f"observed rating at ({u},{i}) not in {{0,1}}")
    if d.true_ratings is not None:
        t = np.asarray(d.true_ratings)
        if t.shape != shape:
            out.append(f"true_ratings shape {t.shape} != {shape}")
        elif not is_binary(t).all():
            out.append("true_ratings entries must be in {0,1}")
    return out


def save_dataset_triples(path, dataset: RatingDataset) -> None:
    """Write the observed triples in the text format:
    one `user<TAB>item<TAB>rating` per line, 0-indexed, rating in {0,1}."""
    users, items = dataset.observed_pairs()
    with open(path, "w") as fh:
        for u, i in zip(users, items):
            fh.write(f"{u}\t{i}\t{int(dataset.observed_ratings[u, i])}\n")


def read_triples(path, read_rating, n_users: int | None = None,
                 n_items: int | None = None) -> tuple[list, list, list]:
    """The users, items and ratings of a triple file: one `user item rating`
    line per pair, split on tabs, spaces or commas, later fields ignored. A
    rating read_rating rejects (ValueError), a malformed or negative index
    (numpy would wrap it) or one past an explicit universe size is a
    ValidationError naming the line."""
    users, items, ratings = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.replace(",", " ").split()
            if not parts:
                continue
            try:
                if len(parts) < 3:
                    raise ValueError(f"expected 3 fields, got {len(parts)}")
                u, i = int(parts[0]), int(parts[1])
                for name, idx, size in (("user", u, n_users),
                                        ("item", i, n_items)):
                    if idx < 0:
                        raise ValueError(f"negative {name} index {idx}")
                    if size is not None and idx >= size:
                        raise ValueError(
                            f"{name} index {idx} is past the {size} "
                            f"{name}s of the universe")
                r = read_rating(parts[2])
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from exc
            users.append(u)
            items.append(i)
            ratings.append(r)
    return users, items, ratings


def _binary_rating(text: str) -> int:
    r = int(text)
    if r not in (0, 1):
        raise ValueError("rating must be 0 or 1")
    return r


def load_dataset_triples(path, n_users: int | None = None,
                         n_items: int | None = None) -> RatingDataset:
    """Read a triple file of 0/1 ratings; universe size defaults to max
    index + 1."""
    return dataset_from_triples(
        *read_triples(path, _binary_rating, n_users, n_items),
        n_users, n_items)


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
