"""Semi-synthetic benchmark generator: quantile-level preference matrix,
six stylized prediction matrices, rating-dependent propensities with
harmonic perturbation, Bernoulli sampling, and label flipping.

Generation is single-threaded per instance with one seeded stream consumed
in a fixed order, so equal (spec, seed) pairs reproduce instances exactly.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import _kernels
from .data import (
    DEFAULT_PROPENSITY_FLOOR,
    ErrorParams,
    PredictionMatrix,
    RatingDataset,
    ValidationError,
    make_rng,
    read_fields,
)
from .models import (FactorModel, Optimizer, SgdConfig, epoch_batches,
                     factor_sgd_step)

GAMMA_LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)
PRED_KINDS = ("ROTATE", "SKEW", "CRS", "ONE", "THREE", "FIVE")


def _check_proportions(proportions) -> tuple:
    """The five level shares as floats: each non-negative (NaN is not),
    summing to 1."""
    props = tuple(float(p) for p in proportions)
    if len(props) != len(GAMMA_LEVELS) or not all(p >= 0 for p in props):
        raise ValidationError("gamma_proportions needs 5 non-negative values")
    if abs(sum(props) - 1.0) > 1e-9:
        raise ValidationError("gamma_proportions must sum to 1")
    return props


@dataclass(frozen=True)
class BenchmarkSpec:
    n_users: int
    n_items: int
    rho01: float
    rho10: float
    pred_kind: str = "ROTATE"
    gamma_proportions: tuple = (0.2, 0.2, 0.2, 0.2, 0.2)
    p_base: float = 1.0
    alpha: float = 0.5
    beta_mode: str = "per_pair"  # "per_pair", "per_run", or "none"
    gamma_source: str = "quantile"  # "quantile" or "supplied"
    propensity_floor: float = DEFAULT_PROPENSITY_FLOOR
    seed: int = 0

    def __post_init__(self):
        if min(self.n_users, self.n_items) < 1:
            raise ValidationError("n_users and n_items must be >= 1")
        if self.pred_kind not in PRED_KINDS:
            raise ValidationError(f"pred_kind must be one of {PRED_KINDS}")
        object.__setattr__(self, "gamma_proportions",
                           _check_proportions(self.gamma_proportions))
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError("alpha must be in (0, 1]")
        if self.p_base <= 0.0:
            raise ValidationError("p_base must be positive")
        if self.beta_mode not in ("per_pair", "per_run", "none"):
            raise ValidationError("beta_mode must be per_pair/per_run/none")
        if self.gamma_source not in ("quantile", "supplied"):
            raise ValidationError("gamma_source must be quantile or supplied")
        self.rho  # construction validates the pair

    @property
    def rho(self) -> ErrorParams:
        return ErrorParams(self.rho01, self.rho10)

    def manifest(self) -> dict:
        d = asdict(self)
        d["spec_hash"] = hashlib.sha256(
            json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]
        return d


@dataclass
class BenchmarkInstance:
    spec: BenchmarkSpec
    gamma: np.ndarray       # true positive-rate levels
    five_scale: np.ndarray  # level index + 1, drives the observation rule
    prediction: PredictionMatrix
    p_true: np.ndarray
    p_hat: np.ndarray       # perturbed propensities
    observed_mask: np.ndarray
    true_ratings: np.ndarray
    observed_ratings: np.ndarray

    def to_dataset(self) -> RatingDataset:
        return RatingDataset(
            self.spec.n_users, self.spec.n_items,
            self.observed_mask, self.observed_ratings, self.true_ratings)


def build_gamma(proportions, score_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Assign quantile levels by ascending score: the lowest p1 fraction gets
    0.1, the next p2 gets 0.3, and so on; ties break row-major. Returns
    (gamma, five_scale), float64 and int64.

    proportions are the five non-negative level shares, summing to 1; other
    values raise ValidationError, as in BenchmarkSpec. The cut ranks are
    c = round(cumsum(proportions) * n) for the first four levels; a cell
    whose rank in the stable row-major ascending order is at least c lies
    past that cut, and its level is the number of cuts it lies past.
    np.partition finds the value v at each rank 0 < c < n, so no full sort
    is needed: cells above v are past the cut, and of the cells equal to v
    the first c - #(cells < v) in row-major order stay below it. A cut at
    0 puts every cell past it, a cut at n none. Raises ValidationError on
    NaN scores, which no comparison can place; +-inf are ordered as usual.
    """
    proportions = _check_proportions(proportions)
    scores = np.asarray(score_matrix, dtype=np.float64)
    flat = scores.ravel()
    if np.isnan(flat).any():
        raise ValidationError("score matrix holds NaN")
    n = flat.size
    bounds = np.round(np.cumsum(proportions) * n).astype(int)
    cuts = bounds[:len(GAMMA_LEVELS) - 1]
    level_idx = np.full(n, np.count_nonzero(cuts <= 0), dtype=np.int8)
    inner = cuts[(cuts > 0) & (cuts < n)]
    mark = np.empty(n, dtype=bool)  # reused: no n-byte temporary per compare
    for c, v in zip(inner, _kernels.values_at_ranks(flat, inner)):
        np.greater(flat, v, out=mark)
        level_idx += mark
        n_past = np.count_nonzero(mark)
        ties = np.flatnonzero(np.equal(flat, v, out=mark))
        n_less = n - n_past - ties.size
        level_idx[ties[c - n_less:]] += 1
    gamma = np.asarray(GAMMA_LEVELS)[level_idx].reshape(scores.shape)
    five_scale = np.add(level_idx, 1, dtype=np.int64).reshape(scores.shape)
    return gamma, five_scale


def complete_ratings_mf(triples, n_users, n_items, d, config: SgdConfig
                        ) -> np.ndarray:
    """Regression matrix factorization (squared loss of the raw scores on
    the observed triples) producing a dense score matrix for quantile
    assignment.

    triples: array-like of (user, item, rating) rows, ratings real-valued.
    """
    triples = np.asarray(triples)
    u_all = triples[:, 0].astype(np.int64)
    i_all = triples[:, 1].astype(np.int64)
    y_all = triples[:, 2].astype(np.float64)
    rng = make_rng(config.seed)
    model = FactorModel.init(n_users, n_items, d, rng)
    opt = Optimizer(config)
    for epoch in range(config.max_epochs):
        for idx in epoch_batches(rng, u_all.shape[0], config):
            u, i = u_all[idx], i_all[idx]
            pred = model.scores(u, i)
            coef = 2.0 * (pred - y_all[idx]) / idx.shape[0]
            factor_sgd_step(model, u, i, coef, config, opt,
                            f"rating completion diverged at epoch {epoch}")
    return model.score_matrix()


def build_prediction_matrix(kind, gamma, rng) -> PredictionMatrix:
    """The six stylized prediction matrices used by the benchmark."""
    gamma = np.asarray(gamma, dtype=np.float64)
    if kind == "ROTATE":
        r_hat = np.where(gamma >= 0.3, gamma - 0.2, 0.9)
    elif kind == "SKEW":
        draws = rng.normal(gamma, (1.0 - gamma) / 2.0)
        r_hat = np.clip(draws, 0.1, 0.9)
    elif kind == "CRS":
        r_hat = np.where(gamma <= 0.6, 0.2, 0.6)
    elif kind in ("ONE", "THREE", "FIVE"):
        level = {"ONE": 0.1, "THREE": 0.3, "FIVE": 0.5}[kind]
        r_hat = gamma.copy()
        flat = r_hat.ravel()
        pool = np.flatnonzero(np.isclose(flat, level))
        n_flip = int(np.isclose(flat, 0.9).sum())
        if pool.size < n_flip:
            warnings.warn(
                f"only {pool.size} cells at level {level} available for "
                f"{n_flip} flips; flipping all of them")
            chosen = pool
        else:
            chosen = rng.choice(pool, size=n_flip, replace=False)
        flat[chosen] = 0.9
        r_hat = flat.reshape(gamma.shape)
    else:
        raise ValidationError(f"unknown prediction matrix kind {kind!r}")
    return PredictionMatrix(r_hat)


def assign_propensities(p_base, alpha, five_scale) -> np.ndarray:
    """p * alpha^min(4, 6 - rating) per pair; monotone in the rating so
    higher-rated pairs are more likely observed. A rating outside 1..5 is a
    ValidationError."""
    five_scale = np.asarray(five_scale, dtype=np.int64)
    if five_scale.size and not (five_scale.min() >= 1
                                and five_scale.max() <= 5):
        raise ValidationError("ratings must lie in 1..5")
    expo = np.minimum(4, 6 - five_scale)
    p = p_base * np.power(alpha, expo)
    if np.any(p > 1.0):
        warnings.warn("propensities above 1 clipped")
        p = np.minimum(p, 1.0)
    return p.astype(np.float64)


def perturb_propensities(p_true, observed_mask, rng, beta_mode="per_pair",
                         floor=DEFAULT_PROPENSITY_FLOOR,
                         beta=None) -> np.ndarray:
    """Harmonic interpolation between the true propensity and the empirical
    observation rate: 1/p_hat = (1 - beta)/p + beta/p_e, beta ~ U(0, 1).

    beta_mode picks a per-pair draw (default, the stronger noise model) or a
    single per-run draw; an explicit beta array/scalar overrides both.
    """
    p = np.asarray(p_true, dtype=np.float64)
    p_e = float(np.mean(observed_mask))
    if p_e == 0.0:
        raise ValidationError("no observations; empirical rate is zero")
    if beta is None:
        if beta_mode == "none":
            beta = 0.0
        elif beta_mode == "per_run":
            beta = float(rng.uniform())
        else:
            beta = rng.uniform(size=p.shape)
    beta = np.asarray(beta, dtype=np.float64)
    inv = (1.0 - beta) / p + beta / p_e
    return np.clip(1.0 / inv, floor, 1.0)


def synth_scores(n_users, n_items, rng, rank=3) -> np.ndarray:
    """Low-rank-plus-noise stand-in score matrix for quantile assignment when
    no completed rating matrix is supplied."""
    a = rng.normal(size=(n_users, rank))
    b = rng.normal(size=(rank, n_items))
    return a @ b + 0.5 * rng.normal(size=(n_users, n_items))


def _five_scale(gamma: np.ndarray, shape,
                what: str = "supplied gamma") -> np.ndarray:
    """Level index + 1 of each cell of a given gamma, which must have the
    spec's shape and hold only the five GAMMA_LEVELS."""
    if gamma.shape != shape or not np.isin(gamma, GAMMA_LEVELS).all():
        raise ValidationError(f"{what} must hold the five levels")
    return (np.searchsorted(GAMMA_LEVELS, gamma) + 1).astype(np.int64)


def sample_instance(spec: BenchmarkSpec,
                    score_matrix: np.ndarray | None = None,
                    gamma_matrix: np.ndarray | None = None
                    ) -> BenchmarkInstance:
    """Generate one full benchmark instance from the spec's seed.

    The full matrix is flipped, including unobserved entries, so the
    linkage between noisy and true positive rates is testable everywhere;
    estimators only ever read the observed cells.
    """
    rng = make_rng(spec.seed)
    shape = (spec.n_users, spec.n_items)
    if spec.gamma_source == "supplied":
        if gamma_matrix is None or score_matrix is not None:
            raise ValidationError("gamma_source=supplied needs gamma_matrix "
                                  "and takes no score_matrix")
        gamma = np.asarray(gamma_matrix, dtype=np.float64)
        five_scale = _five_scale(gamma, shape)
    elif gamma_matrix is not None:
        raise ValidationError("gamma_matrix needs gamma_source=supplied")
    else:
        if score_matrix is None:
            score_matrix = synth_scores(spec.n_users, spec.n_items, rng)
        elif np.asarray(score_matrix).shape != shape:
            raise ValidationError("score matrix shape mismatch")
        gamma, five_scale = build_gamma(spec.gamma_proportions, score_matrix)

    prediction = build_prediction_matrix(spec.pred_kind, gamma, rng)
    p_true = assign_propensities(spec.p_base, spec.alpha, five_scale)

    observed_mask = (rng.random(shape) < p_true).astype(np.int8)
    true_ratings = (rng.random(shape) < gamma).astype(np.int8)
    flips = rng.random(shape)
    rho = spec.rho
    observed_ratings = np.where(
        true_ratings == 1,
        (flips >= rho.rho01).astype(np.int8),
        (flips < rho.rho10).astype(np.int8),
    )
    p_hat = perturb_propensities(p_true, observed_mask, rng,
                                 beta_mode=spec.beta_mode,
                                 floor=spec.propensity_floor)
    return BenchmarkInstance(spec, gamma, five_scale, prediction, p_true,
                             p_hat, observed_mask, true_ratings,
                             observed_ratings)


# ---------------------------------------------------------------------------
# Directory serialization
# ---------------------------------------------------------------------------

_MATRIX_FILES = {
    "gamma": "gamma.npy",
    "prediction": "pred.npy",
    "p_true": "p_true.npy",
    "p_hat": "p_hat.npy",
    "observed_mask": "o.npy",
    "true_ratings": "r_true.npy",
    "observed_ratings": "r_obs.npy",
}
_BINARY_KEYS = ("observed_mask", "true_ratings", "observed_ratings")


def save_instance(out_dir, inst: BenchmarkInstance) -> None:
    """Each matrix as a .npy file in its in-memory dtype (float64 for gamma,
    the predictions and both propensities, int8 for the binary matrices),
    written without pickle, and the spec as manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for key, fname in _MATRIX_FILES.items():
        arr = getattr(inst, key)
        if key == "prediction":
            arr = arr.r_hat
        np.save(out / fname, arr, allow_pickle=False)
    manifest = inst.spec.manifest()
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_spec(path) -> BenchmarkSpec:
    """The spec of a manifest that save_instance wrote: a JSON object with
    every BenchmarkSpec field, each of its field's type, and at most a
    spec_hash besides. Anything else is a ValidationError naming the file."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(manifest, dict):
        manifest.pop("spec_hash", None)
    try:
        return BenchmarkSpec(**read_fields(
            BenchmarkSpec, manifest, "field",
            required=[f.name for f in fields(BenchmarkSpec)]))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _load_matrix(path: Path, shape) -> np.ndarray:
    """One matrix file as save_instance wrote it: a .npy array of the spec's
    shape and a real dtype (bool, int, uint or float), read without
    unpickling. Anything else is a ValidationError naming the file."""
    try:
        with open(path, "rb") as fh:  # closed even if it holds an .npz
            arr = np.load(fh, allow_pickle=False)
    except FileNotFoundError:
        text = path.with_suffix(".csv")
        if not text.exists():
            raise
        raise ValidationError(
            f"{path} is missing, but {text.name} is there: an earlier "
            "version wrote this instance as text; run synth again with the "
            "same spec and seed") from None
    except (OSError, EOFError, ValueError) as exc:
        raise ValidationError(f"{path}: not a readable .npy matrix: {exc}"
                              ) from exc
    if not isinstance(arr, np.ndarray):
        raise ValidationError(f"{path}: not a readable .npy matrix: it is "
                              "an .npz archive")
    if arr.dtype.kind not in "biuf" or arr.shape != shape:
        raise ValidationError(
            f"{path}: expected a {shape} matrix of real numbers, got a "
            f"{arr.dtype} array of shape {arr.shape}")
    return arr


def load_instance(in_dir) -> BenchmarkInstance:
    src = Path(in_dir)
    spec = _load_spec(src / "manifest.json")
    shape = (spec.n_users, spec.n_items)
    arrays = {}
    for key, fname in _MATRIX_FILES.items():
        fpath = src / fname
        if key == "p_hat" and not fpath.exists():
            arrays[key] = None  # estimators needing propensities will say so
            continue
        arr = _load_matrix(fpath, shape)
        # the binary matrices go to RatingDataset as read; the real ones are
        # float64, as sample_instance makes them
        arrays[key] = (arr if key in _BINARY_KEYS
                       else np.asarray(arr, dtype=np.float64))
    # checked as read, then stored as int8
    binary = RatingDataset(spec.n_users, spec.n_items,
                           arrays["observed_mask"], arrays["observed_ratings"],
                           arrays["true_ratings"])
    return BenchmarkInstance(
        spec,
        arrays["gamma"],
        _five_scale(arrays["gamma"], shape,
                    str(src / _MATRIX_FILES["gamma"])),
        PredictionMatrix(arrays["prediction"]),
        arrays["p_true"],
        arrays["p_hat"],
        binary.observed_mask,
        binary.true_ratings,
        binary.observed_ratings,
    )
