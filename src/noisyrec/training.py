"""Alternating denoise training: interleaved prediction-model steps on the
corrected doubly-robust objective, extreme-pair refresh, flip-rate
re-estimation from a pretrained noisy-rate model, and imputation-model steps,
all on the squared loss `ALT_LOSS`, which no config changes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import (
    ErrorParams,
    PropensityMatrix,
    RatingDataset,
    ValidationError,
    make_rng,
)
from .losses import LossKind
from .models import (
    FactorModel,
    Optimizer,
    SgdConfig,
    dr_grad_coefs,
    epoch_batches,
    factor_sgd_step,
    sgd_step_imputation,
    sgd_step_surrogate,
    surrogate_objective,
)
from .noise import (NoisyRateModel, check_k_extreme, rates_at_extremes,
                    warn_if_flat)

PRETRAIN_METHODS = ("naive", "ips", "dr")
TRAIN_METHODS = PRETRAIN_METHODS + ("eib",)
ALT_LOSS = LossKind.squared()


@dataclass
class AltTrainConfig:
    rho_init: ErrorParams
    steps_prediction: int = 10
    steps_imputation: int = 10
    outer_loops: int = 30
    k_extreme: int = 1
    embedding_dim: int = 8
    sgd_prediction: SgdConfig = field(default_factory=SgdConfig)
    sgd_imputation: SgdConfig = field(default_factory=SgdConfig)

    def __post_init__(self):
        if min(self.steps_prediction, self.steps_imputation) < 1:
            raise ValidationError("step counts must be >= 1")
        if self.outer_loops < 0:
            raise ValidationError("outer_loops must be >= 0")
        if self.embedding_dim < 1:
            raise ValidationError("embedding dimension must be >= 1")


@dataclass
class TraceRecord:
    loop: int
    rho01_hat: float
    rho10_hat: float
    objective: float
    val_metric: float
    rho_clamped: bool = False


@dataclass
class TrainTrace:
    records: list = field(default_factory=list)

    def append(self, rec: TraceRecord):
        self.records.append(rec)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["loop", "rho01_hat", "rho10_hat", "objective",
                             "val_metric", "rho_clamped"])
            for r in self.records:
                writer.writerow([r.loop, f"{r.rho01_hat:.10g}",
                                 f"{r.rho10_hat:.10g}",
                                 f"{r.objective:.10g}",
                                 f"{r.val_metric:.10g}",
                                 int(r.rho_clamped)])


def _cells(dataset: RatingDataset, a, what: str) -> np.ndarray:
    """a as a flat float64 array; its shape must be the dataset's."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != dataset.shape:
        raise ValidationError(f"{what} shape mismatch")
    return a.ravel()


def _propensity_cells(dataset: RatingDataset, p_hat) -> np.ndarray:
    """p_hat as flat float64 cells, checked by estimation's rule: the
    dataset's shape, then every entry in (0, 1], with no floor. So o/p_hat
    is finite everywhere and 0 exactly where o is."""
    p = _cells(dataset, p_hat, "propensity")
    PropensityMatrix(p.reshape(dataset.shape), floor=0.0)
    return p


# ---------------------------------------------------------------------------
# Pretraining the noisy-rate model
# ---------------------------------------------------------------------------

def _xent_grad(pred, target):
    """d/dpred of -t log f - (1-t) log(1-f) with soft targets."""
    f = np.clip(pred, 1e-9, 1.0 - 1e-9)
    return -target / f + (1.0 - target) / (1.0 - f)


def train_noisy_factor_model(dataset: RatingDataset, method: str,
                             config: SgdConfig, d: int = 8,
                             p_hat: np.ndarray | None = None) -> FactorModel:
    """Fit a factor model to the observed noisy ratings with cross-entropy,
    debiased by the chosen method but with no noise correction.

    Every method descends mean[(1 - w) xent(f, r_bar) + w xent(f, r)]
    through dr_grad_coefs, where r_bar is the observed positive rate. The
    methods differ only in w and in whether the r_bar term is kept: naive
    (w = o n_pairs / n_obs, the mean over the observed set) and ips
    (w = o / p_hat) drop it; eib (w = o) and dr (w = o / p_hat) keep it.

    A given p_hat must pass _propensity_cells, else ValidationError before
    any step. Every method draws its batches from all n*m cells, one
    permutation per epoch, through epoch_batches. naive and ips keep no
    r_bar term, and their w is 0 exactly on the unobserved cells, which add
    nothing to the step: a batch gathers and scores only its observed cells,
    taken from the mask, dividing by the full batch size. eib and dr step on
    the whole batch. The model is bit for bit the one that scoring every row
    gives.
    """
    if method not in TRAIN_METHODS:
        raise ValidationError(f"unknown training method {method!r}")
    if method in ("ips", "dr") and p_hat is None:
        raise ValidationError(f"method {method!r} needs propensities")
    p_flat = None if p_hat is None else _propensity_cells(dataset, p_hat)
    n, m = dataset.shape
    rng = make_rng(config.seed)
    model = FactorModel.init(n, m, d, rng)
    opt = Optimizer(config)
    o_flat = dataset.observed_mask.ravel()
    r_flat = dataset.observed_ratings.ravel()
    n_obs = dataset.n_observed
    if n_obs == 0:
        raise ValidationError("no observed pairs")
    r_bar = float((o_flat * r_flat).sum() / n_obs)
    n_pairs = n * m
    imputed = ((lambda f: _xent_grad(f, r_bar))
               if method in ("eib", "dr") else None)
    for epoch in range(config.max_epochs):
        for idx in epoch_batches(rng, n_pairs, config):
            at, size = None, idx.shape[0]
            if imputed is None:
                at = np.flatnonzero(o_flat[idx])
                idx = idx[at]
            u, i = np.divmod(idx, m)
            ob, rb = o_flat[idx], r_flat[idx]
            if method == "naive":
                # int8 ob times a Python int stays int8 and would overflow
                w = ob * (n_pairs / n_obs)
            elif method == "eib":
                w = ob
            else:
                w = ob / p_flat[idx]
            coef = dr_grad_coefs(model, u, i, w,
                                 lambda f: _xent_grad(f, rb), size, imputed)
            factor_sgd_step(
                model, u, i, coef, config, opt,
                f"noisy-rate pretraining diverged at epoch {epoch}", at, size)
        # for eib and dr idx views this epoch's permutation, which would
        # stay alive while the next one is drawn
        del idx
    return model


def check_pretrain_method(method: str) -> None:
    """The noisy-rate model is pretrained by one of PRETRAIN_METHODS."""
    if method not in PRETRAIN_METHODS:
        raise ValidationError(
            f"pretrain method must be one of {PRETRAIN_METHODS}")


def pretrain_noisy_model(dataset: RatingDataset, method: str,
                         config: SgdConfig, d: int = 8,
                         p_hat: np.ndarray | None = None) -> NoisyRateModel:
    """Pretrained estimator of P(r=1 | x) over the full universe."""
    check_pretrain_method(method)
    model = train_noisy_factor_model(dataset, method, config, d, p_hat)
    return NoisyRateModel(model.predict_all())


# ---------------------------------------------------------------------------
# Alternating training
# ---------------------------------------------------------------------------

def alternating_denoise_train(
    dataset: RatingDataset,
    p_hat: np.ndarray,
    noisy_model: NoisyRateModel,
    config: AltTrainConfig,
) -> tuple[FactorModel, FactorModel, TrainTrace]:
    """Run the alternating loop: prediction steps on the corrected-DR
    gradient, extreme-pair refresh over the full universe, flip-rate update
    from the frozen noisy-rate model, then imputation steps on the
    propensity-weighted squared residual against the surrogate loss.

    p_hat must pass _propensity_cells, else ValidationError before any
    step. Extreme pairs are computed over all pairs from the dense
    predictions once per prediction phase (rather than per mini-batch),
    which is deterministic and matches the definition of the identification
    extremes. The noisy-rate model is frozen, so a flat one raises
    NoSeparationWarning once, before the loop.
    """
    n, m = dataset.shape
    p_flat = _propensity_cells(dataset, p_hat)
    q = _cells(dataset, noisy_model.q, "noisy-rate")
    check_k_extreme(config.k_extreme, n * m)
    warn_if_flat(q)

    rng = make_rng(config.sgd_prediction.seed)
    pred_model = FactorModel.init(n, m, config.embedding_dim, rng)
    imp_model = FactorModel.init(n, m, config.embedding_dim, rng)
    pred_opt = Optimizer(config.sgd_prediction)
    imp_opt = Optimizer(config.sgd_imputation)

    o_flat = dataset.observed_mask.ravel()
    r_flat = dataset.observed_ratings.ravel()
    n_pairs = n * m
    obs_idx = dataset.observed_index

    # held-out slice of the observed set for the validation objective
    val_idx = dataset.held_out_cells(rng)
    vu, vi = np.divmod(val_idx, m)

    rho = config.rho_init
    trace = TrainTrace()
    batch_p = config.sgd_prediction.batch_of(n_pairs)
    batch_i = config.sgd_imputation.batch_of(obs_idx.size)

    for loop in range(config.outer_loops):
        # prediction phase
        for _ in range(config.steps_prediction):
            idx = rng.choice(n_pairs, size=batch_p, replace=False)
            u, i = np.divmod(idx, m)
            sgd_step_surrogate(pred_model, u, i, o_flat[idx], r_flat[idx],
                               p_flat[idx], None, rho, ALT_LOSS,
                               config.sgd_prediction, pred_opt)
        dense_pred = pred_model.predict_all()

        # imputation phase: refresh rho first, then step the imputation model
        rho, clamped = rates_at_extremes(q, config.k_extreme, dense_pred)
        for _ in range(config.steps_imputation):
            idx = obs_idx[rng.choice(obs_idx.size, size=batch_i,
                                     replace=False)]
            u, i = np.divmod(idx, m)
            pred_b = pred_model.forward(u, i)
            sgd_step_imputation(imp_model, u, i, o_flat[idx], r_flat[idx],
                                p_flat[idx], pred_b, rho, ALT_LOSS,
                                config.sgd_imputation, imp_opt)

        val_pred = pred_model.forward(vu, vi)
        val_obj = float(np.mean(
            np.square(val_pred - r_flat[val_idx]) / p_flat[val_idx]))
        obj = surrogate_objective(
            pred_model, vu, vi, o_flat[val_idx], r_flat[val_idx],
            p_flat[val_idx], imp_model.scores(vu, vi), rho, ALT_LOSS)
        trace.append(TraceRecord(loop, rho.rho01, rho.rho10, obj, val_obj,
                                 clamped))

    return pred_model, imp_model, trace
