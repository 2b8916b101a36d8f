"""Alternating denoise training: interleaved prediction-model steps on the
corrected doubly-robust objective, extreme-pair refresh, flip-rate
re-estimation from a pretrained noisy-rate model, and imputation-model steps,
all on the squared loss `ALT_LOSS`, which no config changes.

Every objective here, the pretraining ones too, is a batch mean of the one
doubly-robust term `losses.dr_term`, stepped through `models.dr_grad_coefs`.
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
from .losses import (LossKind, dr_term, label_loss, label_loss_grad,
                     soft_label_loss_grad)
from .models import (
    FactorModel,
    Optimizer,
    SgdConfig,
    dr_grad_coefs,
    epoch_batches,
    factor_sgd_step,
    sgd_step_imputation,
    sgd_step_surrogate,
)
from .noise import (NoisyRateModel, check_k_extreme, rates_at_extremes,
                    warn_if_flat)

PRETRAIN_METHODS = ("naive", "ips", "dr")
TRAIN_METHODS = PRETRAIN_METHODS + ("eib",)
ALT_LOSS = LossKind.squared()
# eps_clip below EPS_OUT, so that no clipped sigmoid output is clipped again
PRETRAIN_LOSS = LossKind.cross_entropy(eps_clip=1e-9)


@dataclass
class AltTrainConfig:
    """k_extreme, the extreme cells per end of each rho refresh, has no
    default: the CLI passes noise.default_k_extreme unless a config does."""

    rho_init: ErrorParams
    k_extreme: int
    steps_prediction: int = 10
    steps_imputation: int = 10
    outer_loops: int = 30
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
    is finite everywhere and 0 exactly where o is: the observed cells, which
    the samplers of naive/ips pretraining and of the prediction step keep,
    are the only cells that carry weight when no imputed term does."""
    p = _cells(dataset, p_hat, "propensity")
    PropensityMatrix(p.reshape(dataset.shape), floor=0.0)
    return p


# ---------------------------------------------------------------------------
# Pretraining the noisy-rate model
# ---------------------------------------------------------------------------

def train_noisy_factor_model(dataset: RatingDataset, method: str,
                             config: SgdConfig, d: int = 8,
                             p_hat: np.ndarray | None = None) -> FactorModel:
    """Fit a factor model to the observed noisy ratings with cross-entropy
    (PRETRAIN_LOSS), debiased by the chosen method but with no noise
    correction.

    Every method descends the batch mean of losses.dr_term(o, p, xent(f, r),
    xent(f, r_bar)) through dr_grad_coefs, where r_bar is the dataset's
    positive_rate, a soft label. The methods are the estimators' switches:
    naive is ips at the observation rate, p = n_obs / (n*m), ips takes
    p = p_hat, and both drop the r_bar term; eib takes p = 1 and dr
    p = p_hat, and both keep it.

    A given p_hat must pass _propensity_cells, else ValidationError before
    any step. Let B = config.batch_of(n*m). eib and dr draw each epoch
    through epoch_batches over all n*m cells, one permutation per epoch,
    and divide each batch by its own size, a short last one too. naive and
    ips keep no r_bar term, and their o/p is 0 exactly on the unobserved
    cells, which add nothing to the step; so they draw each epoch through
    epoch_batches over dataset.observed_index alone, one permutation of
    n_obs, in batches of b = max(1, round(B * n_obs / (n*m))) observed
    cells, and divide every batch by B, the short last one too. Each
    observed cell thus carries weight 1/B per epoch, an epoch takes about
    n*m/B steps, and a step's expected weight is the all-cell batch's, so
    the objective is the all-cell mean in expectation.
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
    n_pairs = n * m
    r_bar = dataset.positive_rate if method in ("eib", "dr") else None
    p_const = {"naive": n_obs / n_pairs, "eib": 1.0}.get(method)
    full = config.batch_of(n_pairs)
    for epoch in range(config.max_epochs):
        if r_bar is None:
            batches = ((dataset.observed_index[b], full)
                       for b in epoch_batches(
                           rng, n_obs, round(full * n_obs / n_pairs)))
        else:
            batches = ((b, b.shape[0])
                       for b in epoch_batches(rng, n_pairs, full))
        for idx, size in batches:
            u, i = np.divmod(idx, m)
            f = model.forward(u, i)
            g_imp = (None if r_bar is None else
                     soft_label_loss_grad(PRETRAIN_LOSS, f, r_bar))
            coef = dr_grad_coefs(
                f, o_flat[idx], p_flat[idx] if p_const is None else p_const,
                label_loss_grad(PRETRAIN_LOSS, f, r_flat[idx]), size, g_imp)
            factor_sgd_step(
                model, u, i, coef, config, opt,
                f"noisy-rate pretraining diverged at epoch {epoch}")
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

    p_hat must pass _propensity_cells, and the dataset must have an
    observed pair, else ValidationError before any step. Each prediction
    step draws B = batch_of(n*m) cells uniformly with replacement from all
    cells and steps on the drawn cells that are observed, the only ones
    with a non-zero weight o/p_hat, as a batch of B; each imputation step
    draws batch_of(n_obs) cells uniformly with replacement from the
    observed cells. So a batch may hold a cell twice, even a batch as large
    as its universe. The trace's objective and val_metric are batch means
    of losses.dr_term over the held-out cells, scored once per loop. Extreme
    pairs are computed over all pairs from the dense
    predictions once per prediction phase (rather than per mini-batch),
    which is deterministic and matches the definition of the identification
    extremes. The noisy-rate model is frozen, so a flat one raises
    NoSeparationWarning once, before the loop.
    """
    n, m = dataset.shape
    p_flat = _propensity_cells(dataset, p_hat)
    if dataset.n_observed == 0:
        raise ValidationError("no observed pairs")
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
    ov, rv, pv = o_flat[val_idx], r_flat[val_idx], p_flat[val_idx]

    rho = config.rho_init
    trace = TrainTrace()
    batch_p = config.sgd_prediction.batch_of(n_pairs)
    batch_i = config.sgd_imputation.batch_of(obs_idx.size)

    for loop in range(config.outer_loops):
        # prediction phase
        for _ in range(config.steps_prediction):
            idx = rng.integers(n_pairs, size=batch_p)
            idx = idx[o_flat[idx] != 0]
            u, i = np.divmod(idx, m)
            sgd_step_surrogate(pred_model, u, i, o_flat[idx], r_flat[idx],
                               p_flat[idx], None, rho, ALT_LOSS,
                               config.sgd_prediction, pred_opt, size=batch_p)
        dense_pred = pred_model.predict_all()

        # imputation phase: refresh rho first, then step the imputation model
        rho, clamped = rates_at_extremes(q, config.k_extreme, dense_pred)
        for _ in range(config.steps_imputation):
            idx = obs_idx[rng.integers(obs_idx.size, size=batch_i)]
            u, i = np.divmod(idx, m)
            pred_b = pred_model.forward(u, i)
            sgd_step_imputation(imp_model, u, i, o_flat[idx], r_flat[idx],
                                p_flat[idx], pred_b, rho, ALT_LOSS,
                                config.sgd_imputation, imp_opt)

        val_pred = pred_model.forward(vu, vi)
        val_obj = float(np.mean(dr_term(ov, pv, np.square(val_pred - rv))))
        obj = float(np.mean(dr_term(ov, pv,
                                    label_loss(ALT_LOSS, val_pred, rv, rho),
                                    imp_model.scores(vu, vi))))
        trace.append(TraceRecord(loop, rho.rho01, rho.rho10, obj, val_obj,
                                 clamped))

    return pred_model, imp_model, trace
