"""Trainable components: the factor model (read through its clipped sigmoid
as the prediction model, through its raw scores as the imputation model),
the logistic-regression propensity model, and analytic-gradient SGD.

Gradients are hand-derived (chain rule through the surrogate loss and the
sigmoid) and checked against central finite differences in the test suite.
Plain SGD is the default optimizer because its update is trivially
verifiable; Adam is offered as a config variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import (
    DEFAULT_PROPENSITY_FLOOR,
    EPS_OUT,
    ErrorParams,
    PropensityMatrix,
    RatingDataset,
    ValidationError,
)
from .losses import LossKind, dr_term, label_loss, label_loss_grad


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during training."""


# The defaults are the one recipe of `train` and of the noisy-rate
# pretraining behind `estimate --rho-mode estimated`.
@dataclass
class SgdConfig:
    learning_rate: float = 0.1
    batch_size: int = 4096
    weight_decay: float = 1e-5
    max_epochs: int = 30
    seed: int = 0
    optimizer: str = "sgd"  # "sgd" or "adam"

    def __post_init__(self):
        # negated so that NaN, which fails every comparison, is rejected
        if not (self.learning_rate >= 0 and self.weight_decay >= 0):
            raise ValidationError("learning rate / weight decay must be >= 0")
        if self.batch_size < 0 or self.max_epochs < 0:
            raise ValidationError("batch size / epochs must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")

    def batch_of(self, n: int) -> int:
        """Rows per batch of n: batch_size, where 0 means all, at most n."""
        return min(self.batch_size or n, n)


def epoch_batches(rng, n: int, batch: int):
    """One epoch of n rows: rng.permutation(n) in slices of batch rows, the
    last possibly shorter. The rows are positions: pretraining passes n*m
    for all cells, or n_obs for positions in observed_index."""
    order = rng.permutation(n)
    batch = max(batch, 1)  # over 0 rows, no batch and no error
    return (order[start:start + batch] for start in range(0, n, batch))


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) in float64; with `out`, computed in place there.
    Below about -709, exp(-x) overflows to inf and the result is 0.0, the
    exact limit, so that overflow raises no warning; NaN stays NaN."""
    t = np.negative(np.asarray(x, dtype=np.float64), out=out)
    with np.errstate(over="ignore"):
        t = np.exp(t, out=out)
    t = np.add(1.0, t, out=out)
    return np.divide(1.0, t, out=out)


def _clipped_sigmoid(s):
    """sigmoid(s) clipped into [EPS_OUT, 1 - EPS_OUT], in place in s, a
    fresh float64 score array."""
    return np.clip(sigmoid(s, out=s), EPS_OUT, 1.0 - EPS_OUT, out=s)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass
class FactorModel:
    """Embedding-dot-product model with user/item/global biases: real-valued
    scores, and their sigmoid clipped into (EPS_OUT, 1 - EPS_OUT)."""

    user_emb: np.ndarray
    item_emb: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray
    global_bias: float = 0.0

    @classmethod
    def init(cls, n_users, n_items, d, rng):
        """N(0, 0.01^2) embeddings and zero biases."""
        if d < 1:
            raise ValidationError("embedding dimension must be >= 1")
        return cls(
            user_emb=rng.normal(0.0, 0.01, size=(n_users, d)),
            item_emb=rng.normal(0.0, 0.01, size=(n_items, d)),
            user_bias=np.zeros(n_users),
            item_bias=np.zeros(n_items),
            global_bias=0.0,
        )

    def copy(self):
        return FactorModel(
            self.user_emb.copy(), self.item_emb.copy(),
            self.user_bias.copy(), self.item_bias.copy(), self.global_bias,
        )

    def scores(self, u_idx, i_idx):
        return _kernels.factor_scores(
            u_idx, i_idx, self.user_emb, self.item_emb,
            self.user_bias, self.item_bias, self.global_bias,
        )

    def forward(self, u_idx, i_idx):
        return _clipped_sigmoid(self.scores(u_idx, i_idx))

    def score_matrix(self):
        """Raw scores of every (user, item) pair, as a dense matrix. The
        biases are added in place to the fresh matmul product, in the order
        of ue @ ie.T + ub[:, None] + ib[None, :] + gb, so the sums are that
        expression's bit for bit."""
        s = self.user_emb @ self.item_emb.T
        s += self.user_bias[:, None]
        s += self.item_bias[None, :]
        s += self.global_bias
        return s

    def predict_all(self):
        return _clipped_sigmoid(self.score_matrix())

    def params(self):
        return {
            "user_emb": self.user_emb, "item_emb": self.item_emb,
            "user_bias": self.user_bias, "item_bias": self.item_bias,
        }


@dataclass
class PropensityModel:
    """One-hot logistic regression: sigma(a_u + b_i), with one logit a_u per
    user and one logit b_i per item."""

    user_logit: np.ndarray
    item_logit: np.ndarray

    @classmethod
    def init(cls, n_users, n_items):
        return cls(np.zeros(n_users), np.zeros(n_items))

    def copy(self):
        return PropensityModel(self.user_logit.copy(), self.item_logit.copy())

    def predict_all(self, out=None):
        return sigmoid(np.add(self.user_logit[:, None],
                              self.item_logit[None, :], out=out), out=out)

    def params(self):
        return {"user_logit": self.user_logit, "item_logit": self.item_logit}

    def export(self) -> PropensityMatrix:
        """The fitted propensities, clipped into [DEFAULT_PROPENSITY_FLOOR,
        1 - 1e-6]."""
        return PropensityMatrix(
            np.clip(self.predict_all(), DEFAULT_PROPENSITY_FLOOR, 1.0 - 1e-6),
            DEFAULT_PROPENSITY_FLOOR)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class Optimizer:
    """SGD or Adam over a dict of named float64 arrays, each stepped in
    place; a scalar parameter is passed as a 0-d array. Steps use
    lr_scale * config.learning_rate."""

    def __init__(self, config: SgdConfig, lr_scale: float = 1.0):
        self.config = config
        self.lr = lr_scale * config.learning_rate
        self._m = {}
        self._v = {}
        self._t = 0
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8

    def step(self, params: dict, grads: dict) -> None:
        lr = self.lr
        if self.config.optimizer == "sgd":
            for name, g in grads.items():
                params[name] -= lr * g
            return
        self._t += 1
        t = self._t
        for name, g in grads.items():
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(params[name])
                self._v[name] = np.zeros_like(params[name])
            v = self._v[name]
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * np.square(g)
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            params[name] += -lr * m_hat / (np.sqrt(v_hat) + self.eps)


def factor_sgd_step(model: FactorModel, u_idx, i_idx, coef, config: SgdConfig,
                    opt: Optimizer, error: str) -> None:
    """One optimizer step on the rows (u_idx, i_idx) of a batch whose
    objective has d/d(score) = coef per row; L2 decay applies to embeddings
    only, not biases. Every gradient, the global bias's too, is the backward
    kernel's sum over the given rows.

    Raises TrainingDivergence(error) on a non-finite coef, and
    TrainingDivergence when the step leaves the global bias non-finite.
    """
    if not np.all(np.isfinite(coef)):
        raise TrainingDivergence(error)
    g_ue, g_ie, g_ub, g_ib, g_b0 = _kernels.factor_backward(
        u_idx, i_idx, model.user_emb, model.item_emb, coef)
    wd = config.weight_decay
    if wd > 0.0:
        g_ue = g_ue + wd * model.user_emb
        g_ie = g_ie + wd * model.item_emb
    global_bias = np.array(model.global_bias)
    opt.step({**model.params(), "global_bias": global_bias},
             {"user_emb": g_ue, "item_emb": g_ie,
              "user_bias": g_ub, "item_bias": g_ib, "global_bias": g_b0})
    model.global_bias = float(global_bias)
    if not np.isfinite(model.global_bias):
        raise TrainingDivergence("non-finite global bias after update")


# ---------------------------------------------------------------------------
# Objectives and analytic gradients
# ---------------------------------------------------------------------------

def _plus_decay(obj: float, model: FactorModel, weight_decay: float) -> float:
    """A batch objective plus its L2 term on the embeddings."""
    if weight_decay > 0.0:
        obj += 0.5 * weight_decay * (
            float(np.sum(model.user_emb**2)) + float(np.sum(model.item_emb**2)))
    return obj


def surrogate_objective(model: FactorModel, u_idx, i_idx, o, r, p_hat, e_bar,
                        rho: ErrorParams, loss: LossKind,
                        weight_decay: float = 0.0) -> float:
    """Mini-batch corrected-DR objective: the batch mean of
    losses.dr_term(o, p, l~(f, r), e_bar), plus L2 on the embeddings."""
    f = model.forward(u_idx, i_idx)
    val = label_loss(loss, f, r, rho)
    return _plus_decay(float(np.mean(dr_term(o, p_hat, val, e_bar))), model,
                       weight_decay)


def dr_grad_coefs(f, o, p, g_obs, size: int, g_imp=None):
    """d(objective)/d(score) on the given rows of a batch of `size` rows,
    for the batch mean of losses.dr_term(o, p, l_b(f_b), l(f_b, e)) over
    the sigmoid outputs f on those rows, given g_obs = d l_b/d f and
    g_imp = d l(f, e)/d f at the imputed target e. The term is linear in
    its losses, so its d/d f is dr_term of g_obs and g_imp.

    g_imp=None drops the imputed term; then a row with o = 0 has
    coefficient 0 and would add nothing to the step, so the samplers pass
    only the others, the observed rows, with the whole batch's size.
    """
    return dr_term(o, p, g_obs, g_imp) * f * (1.0 - f) / size


def sgd_step_surrogate(model: FactorModel, u_idx, i_idx, o, r, p_hat, e_bar,
                       rho: ErrorParams, loss: LossKind, config: SgdConfig,
                       opt: Optimizer, size=None) -> FactorModel:
    """One gradient step on the mini-batch corrected-DR objective: weights
    o/p on the surrogate loss, and no imputed term, since that carries no
    prediction-model gradient. Every given row is scored and stepped, and
    the mean is over `size` rows, by default the rows given; a sampler that
    passes only a batch's observed rows passes the batch's size. e_bar is
    unused; it stays in the signature for existing positional callers."""
    f = model.forward(u_idx, i_idx)
    coef = dr_grad_coefs(f, o, p_hat, label_loss_grad(loss, f, r, rho),
                         u_idx.shape[0] if size is None else size)
    factor_sgd_step(model, u_idx, i_idx, coef, config, opt,
                    "non-finite gradient in prediction step")
    return model


def _imputation_residual(model: FactorModel, u_idx, i_idx, r, pred,
                         rho: ErrorParams, loss: LossKind) -> np.ndarray:
    """e~ - e_bar: the surrogate loss of the predictions at the observed
    labels minus the imputation model's scores."""
    return label_loss(loss, pred, r, rho) - model.scores(u_idx, i_idx)


def imputation_objective(model: FactorModel, u_idx, i_idx, o, r, p_hat,
                         pred, rho: ErrorParams, loss: LossKind,
                         weight_decay: float = 0.0) -> float:
    """Mini-batch imputation loss: the batch mean of
    losses.dr_term(o, p, (e~ - e_bar)^2) over an observed-set batch; e~ is
    the surrogate loss of the (frozen) predictions."""
    res = _imputation_residual(model, u_idx, i_idx, r, pred, rho, loss)
    return _plus_decay(float(np.mean(dr_term(o, p_hat, res**2))), model,
                       weight_decay)


def imputation_grad_coefs(model: FactorModel, u_idx, i_idx, o, r, p_hat, pred,
                          rho: ErrorParams, loss: LossKind) -> np.ndarray:
    """d(imputation_objective)/d(score) per row: dr_term of
    d(e~ - e_bar)^2/d e_bar = -2 (e~ - e_bar), over the batch size."""
    res = _imputation_residual(model, u_idx, i_idx, r, pred, rho, loss)
    return dr_term(o, p_hat, -2.0 * res) / u_idx.shape[0]


def sgd_step_imputation(model: FactorModel, u_idx, i_idx, o, r, p_hat, pred,
                        rho: ErrorParams, loss: LossKind, config: SgdConfig,
                        opt: Optimizer) -> FactorModel:
    """One gradient step on the imputation loss; predictions stay fixed.
    A non-finite prediction raises TrainingDivergence."""
    if not np.all(np.isfinite(pred)):
        raise TrainingDivergence("non-finite gradient in imputation step")
    coef = imputation_grad_coefs(model, u_idx, i_idx, o, r, p_hat, pred, rho,
                                 loss)
    factor_sgd_step(model, u_idx, i_idx, coef, config, opt,
                    "non-finite gradient in imputation step")
    return model


def propensity_objective(model: PropensityModel, observed_mask) -> float:
    """Full-universe binary cross-entropy on the observation indicators."""
    p = np.clip(model.predict_all(), 1e-12, 1.0 - 1e-12)
    o = np.asarray(observed_mask)
    return float(-np.mean(o * np.log(p) + (1.0 - o) * np.log(1.0 - p)))


def _propensity_objective_finite(model: PropensityModel) -> bool:
    """O(n + m) test equal to np.isfinite(propensity_objective(model, o)).

    The clipped objective is non-finite exactly when some score a_u + b_i is
    NaN, where a = user_logit and b = item_logit: when a or b holds a NaN, or
    one holds +inf and the other -inf. A NaN in either makes both of its
    extremes NaN; max(a) + min(b) is NaN for a +inf/-inf pair and
    min(a) + max(b) for a -inf/+inf pair. The mean over an empty universe is
    NaN too.
    """
    a, b = model.user_logit, model.item_logit
    if a.size == 0 or b.size == 0:
        return False
    return not (np.isnan(a.max() + b.min()) or np.isnan(a.min() + b.max()))


def train_propensity(dataset: RatingDataset, config: SgdConfig) -> PropensityModel:
    """Fit the logistic propensity model by full-batch gradient descent, in
    which the loss is non-increasing per epoch for moderate learning rates.
    It reads config.learning_rate, max_epochs and optimizer: not seed, as
    the fit has no randomness, nor weight_decay, as the logits are biases,
    which factor_sgd_step does not decay either. A config asking for
    mini-batches (0 < batch_size < n*m) is a ValidationError.

    The gradient of a_u is (sum_i sigma(a_u + b_i) - c_u) / (n*m), with c_u
    user u's observation count, and that of b_i is the column form; so from
    the zero init users with equal counts keep equal logits, as do items.
    The fit therefore runs on the count grid: one logit A_g per distinct
    user count c_g and one B_h per distinct item count, with the user-logit
    gradient (sum_h d_h sigma(A_g + B_h) - c_g) / (n*m), where d_h is how
    many items have the h-th distinct count, and the column form for B_h.
    It then expands the grid to one logit per user and per item. In exact
    arithmetic this is the fit over all n*m cells, under sgd and adam
    alike. An epoch costs O(G_u * G_i) for G_u distinct user and G_i
    distinct item counts, each at most 1 + min(n, m), and no n*m buffer is
    built. The weighted sums are numpy sums, not BLAS calls, so p_hat does
    not depend on the BLAS thread count.

    Each logit steps at twice config.learning_rate, so that a rate means
    what it means for the weight-plus-intercept form
    sigma(w_u + beta_u + w_i + gamma_i) of Schnabel et al. (2016): there w_u
    and beta_u share one gradient and each takes a step, which moves
    a_u = w_u + beta_u twice as far. Doubling is exact in floating point, so
    the two forms, fitted on the same grid, give the same p_hat bit for bit,
    under sgd and adam alike.
    """
    n, m = dataset.shape
    n_pairs = n * m
    if config.batch_of(n_pairs) < n_pairs:
        raise ValidationError("the propensity fit is full-batch: batch_size "
                              f"must be 0 or >= {n_pairs}")
    if n_pairs == 0 and config.max_epochs > 0:
        # the mean loss over no cells is NaN, so the first epoch diverges;
        # raised here, before the step would divide 0 by 0
        raise TrainingDivergence("propensity training diverged at epoch 0")
    mask = dataset.observed_mask
    user_count, user_group, users_with = np.unique(
        mask.sum(axis=1), return_inverse=True, return_counts=True)
    item_count, item_group, items_with = np.unique(
        mask.sum(axis=0), return_inverse=True, return_counts=True)
    grid = PropensityModel.init(user_count.size, item_count.size)
    opt = Optimizer(config, lr_scale=2.0)
    p = np.empty((user_count.size, item_count.size))
    weighted = np.empty_like(p)
    for epoch in range(config.max_epochs):
        grid.predict_all(out=p)
        row = np.multiply(p, items_with, out=weighted).sum(axis=1)
        col = np.multiply(p, users_with[:, None], out=weighted).sum(axis=0)
        opt.step(grid.params(), {"user_logit": (row - user_count) / n_pairs,
                                 "item_logit": (col - item_count) / n_pairs})
        # the grid holds every value of the expanded logits, so the check
        # reads the same on it
        if not _propensity_objective_finite(grid):
            raise TrainingDivergence(
                f"propensity training diverged at epoch {epoch}")
    return PropensityModel(grid.user_logit[user_group],
                           grid.item_logit[item_group])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_model(path, model) -> None:
    """Versioned flat dump of all parameter arrays."""
    if isinstance(model, FactorModel):
        np.savez(path, kind="factor", version=CHECKPOINT_VERSION,
                 global_bias=model.global_bias, **model.params())
    elif isinstance(model, PropensityModel):
        np.savez(path, kind="propensity", version=CHECKPOINT_VERSION,
                 **model.params())
    else:
        raise ValidationError(f"cannot checkpoint {type(model).__name__}")


def load_model(path):
    with np.load(path) as data:
        if int(data["version"]) != CHECKPOINT_VERSION:
            raise ValidationError("unsupported checkpoint version")
        kind = str(data["kind"])
        if kind == "factor":
            if "linear_output" in data and int(data["linear_output"]):
                raise ValidationError(
                    "linear-output factor checkpoint: not a sigmoid model")
            return FactorModel(
                data["user_emb"], data["item_emb"],
                data["user_bias"], data["item_bias"],
                float(data["global_bias"]))
        if kind == "propensity":
            return PropensityModel(data["user_logit"], data["item_logit"])
    raise ValidationError(f"unknown checkpoint kind {kind!r}")
