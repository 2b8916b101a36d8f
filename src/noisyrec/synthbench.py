"""Semi-synthetic benchmark generator: quantile-level preference matrix,
six stylized prediction matrices, rating-dependent propensities with
harmonic perturbation, Bernoulli sampling, and label flipping.

Generation is single-threaded per instance with one seeded stream consumed
in a fixed order, so equal (spec, seed) pairs reproduce instances exactly.
The propensities are a table of their five values read with np.take, the
score noise, SKEW draws and perturbation are computed in place, and a given
gamma is checked against the levels once. The low-rank score product, the
SKEW scale and the flip kinds' pool and 0.9 count are formed one tile at a
time (`_kernels.row_tiles`), so none of them builds an n x m float64
temporary. Each step gives, bit for bit, what its whole-matrix formula
gives from the same draws.
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
# the level of each five-scale rating, read with np.take; there is no 0
_LEVEL_OF = np.array((np.nan,) + GAMMA_LEVELS)
_MIDS = (0.2, 0.4, 0.6, 0.8)  # the rating is 1 + the mids below its level
PRED_KINDS = ("ROTATE", "SKEW", "CRS", "ONE", "THREE", "FIVE")
BETA_MODES = ("per_pair", "per_run", "none")


def _check_proportions(proportions) -> tuple:
    """The five level shares as floats: each non-negative (NaN is not),
    summing to 1."""
    props = tuple(float(p) for p in proportions)
    if len(props) != len(GAMMA_LEVELS) or not all(p >= 0 for p in props):
        raise ValidationError("gamma_proportions needs 5 non-negative values")
    if abs(sum(props) - 1.0) > 1e-9:
        raise ValidationError("gamma_proportions must sum to 1")
    return props


def _check_propensity_params(p_base, alpha) -> None:
    """alpha in (0, 1] and p_base positive; NaN fails both."""
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must be in (0, 1], got {alpha!r}")
    if not p_base > 0.0:
        raise ValidationError(f"p_base must be positive, got {p_base!r}")


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
        _check_propensity_params(self.p_base, self.alpha)
        if self.beta_mode not in BETA_MODES:
            raise ValidationError(f"beta_mode must be one of {BETA_MODES}")
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
    if flat.size and np.isnan(flat.max()):  # max propagates NaN
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
    five_scale = np.add(level_idx, 1, dtype=np.int64).reshape(scores.shape)
    return np.take(_LEVEL_OF, five_scale), five_scale


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


def _near(flat: np.ndarray, level: float) -> np.ndarray:
    """np.isclose(flat, level) for a finite scalar level: |flat - level| <=
    1e-8 + 1e-5 |level|, isclose's own rule, without its extra passes. NaN
    and +-inf are never near a finite level, as in isclose."""
    gap = np.subtract(flat, level)
    np.abs(gap, out=gap)
    return np.less_equal(gap, 1e-8 + 1e-5 * abs(level))


def build_prediction_matrix(kind, gamma, rng) -> PredictionMatrix:
    """The six stylized prediction matrices used by the benchmark.

    SKEW draws one standard normal z per cell, row-major, and takes
    clip(gamma + (1 - gamma)/2 z, 0.1, 0.9): the draws and values of
    rng.normal(gamma, (1 - gamma)/2), in place."""
    gamma = np.asarray(gamma, dtype=np.float64)
    if kind == "ROTATE":
        r_hat = np.where(gamma >= 0.3, gamma - 0.2, 0.9)
    elif kind == "SKEW":
        # a scale 1 - gamma below 0 is what rng.normal rejects; that is
        # gamma > 1, and fmax skips NaN, as that comparison does
        if np.fmax.reduce(gamma, axis=None, initial=-np.inf) > 1.0:
            raise ValidationError("SKEW needs gamma <= 1")
        r_hat = rng.standard_normal(gamma.shape)
        z, g = r_hat.ravel(), gamma.ravel()
        for t in _kernels.row_tiles(g.size, 1):
            scale = np.subtract(1.0, g[t])
            scale /= 2.0
            z[t] *= scale
            z[t] += g[t]
        np.clip(r_hat, 0.1, 0.9, out=r_hat)
    elif kind == "CRS":
        r_hat = np.where(gamma <= 0.6, 0.2, 0.6)
    elif kind in ("ONE", "THREE", "FIVE"):
        level = {"ONE": 0.1, "THREE": 0.3, "FIVE": 0.5}[kind]
        r_hat = gamma.copy()
        flat = r_hat.ravel()
        in_pool = np.empty(flat.size, dtype=bool)
        n_flip = 0
        for t in _kernels.row_tiles(flat.size, 1):
            in_pool[t] = _near(flat[t], level)
            n_flip += int(np.count_nonzero(_near(flat[t], 0.9)))
        pool = np.flatnonzero(in_pool)
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
    higher-rated pairs are more likely observed. A rating outside 1..5, an
    alpha outside (0, 1] and a p_base that is not positive are
    ValidationErrors, as in BenchmarkSpec.

    The five values are computed once, by the same ufuncs on the same
    dtypes as a per-cell evaluation, and read per cell with np.take."""
    _check_propensity_params(p_base, alpha)
    five_scale = np.asarray(five_scale, dtype=np.int64)
    table = p_base * np.power(alpha, np.minimum(4, 6 - np.arange(6)))
    if five_scale.size:
        lo, hi = five_scale.min(), five_scale.max()
        if not (lo >= 1 and hi <= 5):
            raise ValidationError("ratings must lie in 1..5")
        # the table rises with the rating, so its top present entry is the
        # largest propensity of any cell
        if table[hi] > 1.0:
            warnings.warn("propensities above 1 clipped")
            table = np.minimum(table, 1.0)
    # float64 also for an int alpha and p_base, as a per-cell evaluation
    return np.take(table.astype(np.float64), five_scale)


def perturb_propensities(p_true, observed_mask, rng, beta_mode="per_pair",
                         floor=DEFAULT_PROPENSITY_FLOOR,
                         beta=None) -> np.ndarray:
    """Harmonic interpolation between the true propensity and the empirical
    observation rate: 1/p_hat = (1 - beta)/p + beta/p_e, beta ~ U(0, 1).

    beta_mode picks a per-pair draw (default, the stronger noise model), a
    single per-run draw or none (beta = 0); an explicit beta array/scalar
    overrides all three, and must lie in [0, 1]. An unknown beta_mode and an
    explicit beta outside [0, 1], NaN included, are ValidationErrors.
    """
    if beta_mode not in BETA_MODES:
        raise ValidationError(
            f"beta_mode must be one of {BETA_MODES}, got {beta_mode!r}")
    p = np.asarray(p_true, dtype=np.float64)
    p_e = float(np.mean(observed_mask))
    if p_e == 0.0:
        raise ValidationError("no observations; empirical rate is zero")
    drawn = beta is None
    if drawn:
        if beta_mode == "none":
            beta = 0.0
        elif beta_mode == "per_run":
            beta = rng.random()
        else:  # rng.random draws what rng.uniform draws, in fewer steps
            beta = rng.random(p.shape)
    beta = np.asarray(beta, dtype=np.float64)
    if not drawn and not ((beta >= 0.0) & (beta <= 1.0)).all():
        raise ValidationError("beta must lie in [0, 1]")
    # (1 - beta)/p + beta/p_e, its reciprocal and the clip, in one array;
    # a per-pair beta drawn here is divided by p_e in place
    out = np.empty(np.broadcast_shapes(p.shape, beta.shape))
    np.subtract(1.0, beta, out=out)
    out /= p
    out += np.divide(beta, p_e, out=beta if drawn and beta.ndim else None)
    np.divide(1.0, out, out=out)
    return np.clip(out, floor, 1.0, out=out)


def synth_scores(n_users, n_items, rng, rank=3) -> np.ndarray:
    """Low-rank-plus-noise stand-in score matrix for quantile assignment when
    no completed rating matrix is supplied: a @ b + 0.5 z, with the draws of
    a, b and then z standard normal, z row-major. The product is added one
    row tile at a time, a[t] @ b, which equals (a @ b)[t] with the BLAS
    library numpy uses (tests pin it), so no n x m product is built."""
    a = rng.normal(size=(n_users, rank))
    b = rng.normal(size=(rank, n_items))
    z = rng.standard_normal((n_users, n_items))
    z *= 0.5
    for t in _kernels.row_tiles(n_users, n_items):
        z[t] += a[t] @ b
    return z


def _five_scale(gamma: np.ndarray, shape,
                what: str = "supplied gamma") -> np.ndarray:
    """Level index + 1 of each cell of a given gamma, which must have the
    spec's shape and hold only the five GAMMA_LEVELS: one plus the number
    of mids between levels below the cell, checked against the level it
    names, which rejects NaN and every value off the levels."""
    if gamma.shape != shape:
        raise ValidationError(f"{what} must hold the five levels")
    five = np.ones(shape, dtype=np.int8)
    past = np.empty(shape, dtype=bool)  # reused: no temporary per mid
    for mid in _MIDS:
        five += np.greater(gamma, mid, out=past)
    five = five.astype(np.int64)
    if not np.array_equal(np.take(_LEVEL_OF, five), gamma):
        raise ValidationError(f"{what} must hold the five levels")
    return five


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
