import tracemalloc
import warnings

import numpy as np
import pytest

from noisyrec.data import (
    EPS_OUT,
    ErrorParams,
    RatingDataset,
    ValidationError,
    make_rng,
)
from noisyrec.losses import LossKind, label_loss, label_loss_grad
from noisyrec.models import (
    FactorModel,
    Optimizer,
    PropensityModel,
    SgdConfig,
    TrainingDivergence,
    _propensity_objective_finite,
    dr_grad_coefs,
    epoch_batches,
    imputation_objective,
    load_model,
    propensity_objective,
    save_model,
    sgd_step_imputation,
    sgd_step_surrogate,
    sigmoid,
    surrogate_objective,
    train_propensity,
)
from noisyrec import _kernels

SQ = LossKind.squared()


def random_batch(seed, n=6, m=7, batch=20):
    rng = make_rng(seed)
    u = rng.integers(0, n, size=batch)
    i = rng.integers(0, m, size=batch)
    o = (rng.random(batch) < 0.7).astype(np.float64)
    r = (rng.random(batch) < 0.5).astype(np.float64)
    p = rng.uniform(0.1, 0.9, size=batch)
    e_bar = rng.normal(0.3, 0.2, size=batch)
    return u, i, o, r, p, e_bar


def random_factor_model(seed, n=6, m=7, d=3):
    rng = make_rng(seed + 1000)
    model = FactorModel.init(n, m, d, rng)
    # N(0,1)-scale parameters exercise the nonlinear regime
    model.user_emb = rng.normal(size=(n, d))
    model.item_emb = rng.normal(size=(m, d))
    model.user_bias = rng.normal(size=n)
    model.item_bias = rng.normal(size=m)
    model.global_bias = float(rng.normal())
    return model


def zero_factor_model(n, m, d, seed):
    """FactorModel.init's model with its embeddings zeroed: every score
    is the global bias."""
    model = FactorModel.init(n, m, d, make_rng(seed))
    model.user_emb[:] = 0.0
    model.item_emb[:] = 0.0
    return model


def flat_params(model):
    return np.concatenate([model.user_emb.ravel(), model.item_emb.ravel(),
                           model.user_bias, model.item_bias,
                           [model.global_bias]])


def set_flat_params(model, theta):
    n, d = model.user_emb.shape
    m = model.item_emb.shape[0]
    k = 0
    model.user_emb = theta[k:k + n * d].reshape(n, d); k += n * d
    model.item_emb = theta[k:k + m * d].reshape(m, d); k += m * d
    model.user_bias = theta[k:k + n]; k += n
    model.item_bias = theta[k:k + m]; k += m
    model.global_bias = float(theta[k])


def analytic_factor_grad(model, u, i, coef):
    g_ue, g_ie, g_ub, g_ib, g_b0 = _kernels.factor_backward(
        u, i, model.user_emb, model.item_emb, coef)
    return np.concatenate([g_ue.ravel(), g_ie.ravel(), g_ub, g_ib, [g_b0]])


def fd_grad(objective, model, h=1e-5):
    theta0 = flat_params(model).copy()
    grad = np.empty_like(theta0)
    for j in range(theta0.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            theta = theta0.copy()
            theta[j] += sign * h
            set_flat_params(model, theta)
            if slot == 0:
                hi = objective(model)
            else:
                lo = objective(model)
        grad[j] = (hi - lo) / (2 * h)
    set_flat_params(model, theta0)
    return grad


class TestForward:
    def test_zero_params_sigmoid_half(self):
        model = zero_factor_model(3, 4, 2, 0)
        assert np.allclose(model.predict_all(), 0.5)

    def test_zero_params_linear_zero(self):
        model = zero_factor_model(3, 4, 2, 0)
        assert np.array_equal(model.score_matrix(), np.zeros((3, 4)))

    def test_global_bias_two(self):
        model = zero_factor_model(3, 4, 2, 0)
        model.global_bias = 2.0
        assert np.allclose(model.predict_all(), 0.8807970779778823)

    def test_scores_match_dense(self):
        model = random_factor_model(1)
        u = np.array([0, 2, 5])
        i = np.array([1, 1, 6])
        dense = model.predict_all()
        assert np.allclose(model.forward(u, i), dense[u, i])
        assert np.allclose(model.scores(u, i), model.score_matrix()[u, i])

    def test_predictions_are_clipped_sigmoid_of_score_matrix(self):
        model = random_factor_model(2)
        model.global_bias = 20.0  # pushes some predictions past 1 - EPS_OUT
        s = model.score_matrix()
        assert np.array_equal(model.predict_all(),
                              np.clip(sigmoid(s), EPS_OUT, 1.0 - EPS_OUT))
        assert np.any(model.predict_all() == 1.0 - EPS_OUT)

    @staticmethod
    def extreme_model():
        # scores past +-709, where exp overflows, and NaN and +-inf biases
        model = random_factor_model(3)
        model.user_emb[0] *= 400.0
        model.item_emb[1] *= 400.0
        model.user_bias[1] = 800.0
        model.user_bias[2] = -800.0
        model.user_bias[3] = np.nan
        model.item_bias[2] = np.inf
        model.item_bias[3] = -np.inf
        return model

    @pytest.mark.parametrize("global_bias", [0.3, -750.0, np.nan])
    def test_dense_and_batch_outputs_equal_expressions(self, global_bias):
        # bit for bit the out-of-place expressions, including where the
        # sigmoid overflows and where a bias is non-finite
        model = self.extreme_model()
        model.global_bias = global_bias
        s = (model.user_emb @ model.item_emb.T + model.user_bias[:, None]
             + model.item_bias[None, :] + model.global_bias)
        with np.errstate(invalid="ignore"):
            want = np.clip(sigmoid(s), EPS_OUT, 1.0 - EPS_OUT)
            got_s, got = model.score_matrix(), model.predict_all()
            u, i = np.divmod(np.arange(s.size), s.shape[1])
            got_f = model.forward(u, i)
            want_f = np.clip(sigmoid(model.scores(u, i)), EPS_OUT,
                             1.0 - EPS_OUT)
        finite = np.abs(s[np.isfinite(s)])
        assert finite.size == 0 or finite.max() > 709
        assert got_s.tobytes() == s.tobytes()
        assert got.tobytes() == want.tobytes()
        assert got_f.tobytes() == want_f.tobytes()

    def test_outputs_are_fresh_arrays(self):
        # writing into a returned array changes neither the model nor a
        # later call
        model = random_factor_model(4)
        before = flat_params(model).copy()
        u, i = np.array([0, 2, 5]), np.array([1, 1, 6])
        for call in (model.score_matrix, model.predict_all,
                     lambda: model.forward(u, i)):
            first = call()
            want = first.copy()
            first[...] = 7.0
            assert np.array_equal(flat_params(model), before)
            assert call().tobytes() == want.tobytes()

    def test_bad_dimension(self):
        with pytest.raises(ValidationError):
            FactorModel.init(3, 4, 0, make_rng(0))

    def test_sigmoid_overflow_gives_zero_without_warning(self):
        # exp(1000) overflows to inf, and 1 / (1 + inf) = 0.0 is the exact
        # limit, so the overflow is no fault to warn of; NaN propagates
        x = np.array([-1000.0, -np.inf, 0.0, np.nan, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(-1000.0) == 0.0
            got = sigmoid(x.copy())
            out = x.copy()
            assert sigmoid(out, out=out) is out
        assert np.array_equal(got, [0.0, 0.0, 0.5, np.nan, 1.0],
                              equal_nan=True)
        assert out.tobytes() == got.tobytes()


class TestSurrogateStep:
    def test_zero_learning_rate_no_op(self):
        model = random_factor_model(2)
        before = flat_params(model).copy()
        u, i, o, r, p, e_bar = random_batch(2)
        cfg = SgdConfig(learning_rate=0.0, weight_decay=0.0)
        sgd_step_surrogate(model, u, i, o, r, p, e_bar,
                           ErrorParams(0.2, 0.1), SQ, cfg, Optimizer(cfg))
        assert np.array_equal(flat_params(model), before)

    def test_degenerates_to_plain_mse_step(self):
        # single pair, rho=(0,0), p=1: gradient equals the plain squared-loss
        # gradient through the sigmoid
        model = random_factor_model(3)
        u, i = np.array([1]), np.array([2])
        o, p = np.ones(1), np.ones(1)
        r = np.ones(1)
        f = model.forward(u, i)
        coef = dr_grad_coefs(model, u, i, o / p, lambda f:
                             label_loss_grad(SQ, f, r, ErrorParams(0.0, 0.0)),
                             1)
        expected = 2.0 * (f - 1.0) * f * (1.0 - f)
        assert np.allclose(coef, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        model = random_factor_model(seed)
        u, i, o, r, p, e_bar = random_batch(seed)
        rho = ErrorParams(0.2, 0.1)
        wd = 1e-3

        def obj(m):
            return surrogate_objective(m, u, i, o, r, p, e_bar, rho, SQ,
                                       weight_decay=wd)

        coef = dr_grad_coefs(model, u, i, o / p, lambda f:
                             label_loss_grad(SQ, f, r, rho), u.shape[0])
        analytic = analytic_factor_grad(model, u, i, coef)
        n_emb = model.user_emb.size + model.item_emb.size
        analytic[:n_emb] += wd * np.concatenate(
            [model.user_emb.ravel(), model.item_emb.ravel()])
        numeric = fd_grad(obj, model)
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert float(np.max(np.abs(analytic - numeric) / denom)) <= 1e-4

    def test_non_finite_gradient_errors(self):
        from noisyrec.models import TrainingDivergence
        model = random_factor_model(4)
        u, i, o, r, p, e_bar = random_batch(4)
        p[0] = 0.0
        cfg = SgdConfig()
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(TrainingDivergence):
                sgd_step_surrogate(model, u, i, o, r, p, e_bar,
                                   ErrorParams(0.1, 0.1), SQ, cfg,
                                   Optimizer(cfg))


class TestImputationStep:
    def test_zero_gradient_at_global_minimum(self):
        model = zero_factor_model(4, 4, 2, 5)
        u = np.array([0, 1, 2])
        i = np.array([1, 2, 3])
        o = np.ones(3)
        r = np.array([1.0, 0.0, 1.0])
        p = np.full(3, 0.5)
        pred = np.full(3, 0.4)
        rho = ErrorParams(0.2, 0.1)
        target = label_loss(SQ, pred, r, rho)
        # place the model exactly at the target via the global bias per pair:
        # use a constant target to make that possible
        target[:] = target[0]
        r[:] = r[0]
        model.global_bias = float(target[0])
        before = flat_params(model).copy()
        cfg = SgdConfig(learning_rate=0.1, weight_decay=0.0)
        sgd_step_imputation(model, u, i, o, r, p, pred, rho, SQ, cfg,
                            Optimizer(cfg))
        assert np.allclose(flat_params(model), before, atol=1e-12)

    def test_zero_learning_rate_no_op(self):
        model = random_factor_model(6)
        before = flat_params(model).copy()
        u, i, o, r, p, _ = random_batch(6)
        pred = make_rng(60).uniform(0.1, 0.9, size=u.shape)
        cfg = SgdConfig(learning_rate=0.0, weight_decay=0.0)
        sgd_step_imputation(model, u, i, o, r, p, pred,
                            ErrorParams(0.2, 0.1), SQ, cfg, Optimizer(cfg))
        assert np.array_equal(flat_params(model), before)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        model = random_factor_model(seed + 10)
        u, i, o, r, p, _ = random_batch(seed + 10)
        pred = make_rng(seed + 20).uniform(0.1, 0.9, size=u.shape)
        rho = ErrorParams(0.2, 0.1)
        wd = 1e-3

        def obj(m):
            return imputation_objective(m, u, i, o, r, p, pred, rho, SQ,
                                        weight_decay=wd)

        target = label_loss(SQ, pred, r, rho)
        e_bar = model.scores(u, i)
        coef = -2.0 * o * (target - e_bar) / p / u.shape[0]
        analytic = analytic_factor_grad(model, u, i, coef)
        n_emb = model.user_emb.size + model.item_emb.size
        analytic[:n_emb] += wd * np.concatenate(
            [model.user_emb.ravel(), model.item_emb.ravel()])
        numeric = fd_grad(obj, model)
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert float(np.max(np.abs(analytic - numeric) / denom)) <= 1e-4


class TestPropensityTraining:
    def test_full_observation_saturates(self):
        d = RatingDataset(5, 5, np.ones((5, 5)), np.ones((5, 5)))
        cfg = SgdConfig(learning_rate=1.0, batch_size=0, weight_decay=0.0,
                        max_epochs=200)
        model = train_propensity(d, cfg)
        assert np.all(model.predict_all() > 0.95)
        assert np.all(model.export().p_hat <= 1.0 - 1e-6)

    def test_bernoulli_constant_recovered(self):
        rng = make_rng(7)
        o = (rng.random((100, 100)) < 0.3).astype(np.int8)
        d = RatingDataset(100, 100, o, np.zeros((100, 100)))
        cfg = SgdConfig(learning_rate=1.0, batch_size=0, weight_decay=0.0,
                        max_epochs=300)
        model = train_propensity(d, cfg)
        assert abs(float(model.predict_all().mean()) - 0.3) < 0.05

    def test_zero_epochs_no_op(self):
        d = RatingDataset(4, 4, np.ones((4, 4)), np.ones((4, 4)))
        model = train_propensity(d, SgdConfig(max_epochs=0))
        assert np.allclose(model.predict_all(), 0.5)

    def test_full_batch_loss_monotone(self):
        rng = make_rng(8)
        o = (rng.random((30, 30)) < 0.4).astype(np.int8)
        d = RatingDataset(30, 30, o, np.zeros((30, 30)))
        losses = []
        for epochs in range(0, 40, 5):
            cfg = SgdConfig(learning_rate=0.5, batch_size=0,
                            weight_decay=0.0, max_epochs=epochs)
            model = train_propensity(d, cfg)
            losses.append(propensity_objective(model, d.observed_mask))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    # both spellings of a full batch over the 20 cells
    @pytest.mark.parametrize("batch_size", [0, 20])
    def test_nan_learning_rate_diverges_at_epoch_0(self, batch_size):
        d = RatingDataset(4, 5, np.eye(4, 5), np.zeros((4, 5)))
        cfg = SgdConfig(batch_size=batch_size, max_epochs=3)
        # the constructor rejects NaN; set it afterwards to reach the
        # divergence check
        cfg.learning_rate = float("nan")
        with pytest.raises(TrainingDivergence,
                           match="^propensity training diverged at epoch 0$"):
            train_propensity(d, cfg)

    # user and item map a user_logit / item_logit index to the value set there
    @pytest.mark.parametrize("user,item,finite", [
        ({}, {}, True),
        ({1: np.nan}, {}, False),
        ({}, {0: np.nan}, False),
        ({0: np.inf}, {2: -np.inf}, False),
        ({2: -np.inf}, {1: np.inf}, False),
        ({0: np.inf}, {1: np.inf}, True),
        ({1: -np.inf}, {0: -np.inf}, True),
        ({0: np.inf, 1: -np.inf}, {3: -np.inf}, False),
        ({2: np.nan}, {0: np.inf}, False),
        ({0: np.inf, 1: -np.inf}, {}, True),
        ({0: 1e308}, {1: 1e308}, True),
    ])
    def test_finiteness_test_matches_dense_objective(self, user, item,
                                                     finite):
        rng = make_rng(12)
        model = PropensityModel(rng.normal(size=3), rng.normal(size=4))
        for idx, value in user.items():
            model.user_logit[idx] = value
        for idx, value in item.items():
            model.item_logit[idx] = value
        o = (rng.random((3, 4)) < 0.5).astype(np.int8)
        with np.errstate(all="ignore"):
            dense = bool(np.isfinite(propensity_objective(model, o)))
            fast = _propensity_objective_finite(model)
        assert dense is finite
        assert fast is finite

    def test_minibatch_config_rejected(self):
        # the fit is full-batch only: any batch below the 400 cells is an
        # error, not a different fit
        rng = make_rng(9)
        o = (rng.random((20, 20)) < 0.4).astype(np.int8)
        d = RatingDataset(20, 20, o, np.zeros((20, 20)))
        for batch_size in (1, 64, 399):
            cfg = SgdConfig(learning_rate=0.2, batch_size=batch_size,
                            weight_decay=0.0, max_epochs=30)
            with pytest.raises(ValidationError, match="full-batch"):
                train_propensity(d, cfg)


def count_grid(mask, axis):
    """Distinct counts of mask along axis, the group of each row (axis=1)
    or column (axis=0), and how many rows or columns each count has."""
    return np.unique(mask.sum(axis=axis), return_inverse=True,
                     return_counts=True)


def fresh_temporaries_propensity(dataset, config):
    """Reference: train_propensity on the count grid, with each epoch's
    weighted sums computed into fresh arrays, as plain expressions."""
    n, m = dataset.shape
    c_u, group_u, size_u = count_grid(dataset.observed_mask, 1)
    c_i, group_i, size_i = count_grid(dataset.observed_mask, 0)
    grid = PropensityModel.init(c_u.size, c_i.size)
    opt = Optimizer(config, lr_scale=2.0)
    for _ in range(config.max_epochs):
        p = grid.predict_all()
        opt.step(grid.params(), {
            "user_logit": ((p * size_i).sum(axis=1) - c_u) / (n * m),
            "item_logit": ((p * size_u[:, None]).sum(axis=0) - c_i) / (n * m)})
    return PropensityModel(grid.user_logit[group_u], grid.item_logit[group_i])


def dense_propensity(dataset, config):
    """Reference: one logit per user and per item at twice the rate, fitted
    on all n*m cells: (p - o) / (n*m) summed over items and over users."""
    n, m = dataset.shape
    model = PropensityModel.init(n, m)
    opt = Optimizer(config, lr_scale=2.0)
    for _ in range(config.max_epochs):
        coef = (model.predict_all() - dataset.observed_mask) / (n * m)
        opt.step(model.params(), {"user_logit": coef.sum(axis=1),
                                  "item_logit": coef.sum(axis=0)})
    return model


def two_copy_propensity(dataset, config):
    """Reference: the weight-plus-intercept propensity trainer on the count
    grid, with a weight and an intercept per user count (w_user, beta_user)
    and per item count (w_item, gamma_item), each stepped at
    config.learning_rate by full-batch gradient descent. Returns p_hat."""
    n, m = dataset.shape
    c_u, group_u, size_u = count_grid(dataset.observed_mask, 1)
    c_i, group_i, size_i = count_grid(dataset.observed_mask, 0)
    params = {"w_user": np.zeros(c_u.size), "w_item": np.zeros(c_i.size),
              "beta_user": np.zeros(c_u.size),
              "gamma_item": np.zeros(c_i.size)}

    def logits():
        return (params["w_user"] + params["beta_user"],
                params["w_item"] + params["gamma_item"])

    opt = Optimizer(config)
    for _ in range(config.max_epochs):
        a, b = logits()
        p = sigmoid(a[:, None] + b[None, :])
        g_u = ((p * size_i).sum(axis=1) - c_u) / (n * m)
        g_i = ((p * size_u[:, None]).sum(axis=0) - c_i) / (n * m)
        opt.step(params, {"w_user": g_u, "beta_user": g_u,
                          "w_item": g_i, "gamma_item": g_i})
    a, b = logits()
    return sigmoid(a[group_u][:, None] + b[group_i][None, :])


def dense_two_copy_propensity(dataset, config):
    """Reference: the weight-plus-intercept propensity trainer on all n*m
    cells, each of the four vectors stepped at config.learning_rate.
    Returns p_hat."""
    n, m = dataset.shape
    params = {"w_user": np.zeros(n), "w_item": np.zeros(m),
              "beta_user": np.zeros(n), "gamma_item": np.zeros(m)}

    def predict_all():
        return sigmoid((params["w_user"] + params["beta_user"])[:, None]
                       + (params["w_item"] + params["gamma_item"])[None, :])

    o_full = np.asarray(dataset.observed_mask, dtype=np.float64)
    opt = Optimizer(config)
    for _ in range(config.max_epochs):
        coef = (predict_all() - o_full) / (n * m)
        g_u, g_i = coef.sum(axis=1), coef.sum(axis=0)
        opt.step(params, {"w_user": g_u, "beta_user": g_u,
                          "w_item": g_i, "gamma_item": g_i})
    return predict_all()


def row_rate_dataset(n, m, seed):
    """n x m mask whose rows have observation rates drawn from U(0.1, 0.9)."""
    rng = make_rng(seed)
    o = (rng.random((n, m)) < rng.uniform(0.1, 0.9, size=(n, 1)))
    return RatingDataset(n, m, o.astype(np.int8), np.zeros((n, m)))


# the shapes, rates and batch sizes the propensity references run on
REFERENCE_CASES = [
    (60, 45, 0.1, 0), (60, 45, 1.0, 0), (7, 3, 0.5, 0),
    (7, 3, 1.0, 4096), (300, 200, 0.5, 0), (500, 500, 0.5, 0),
]

# Bounds on the relative difference of p_hat between the count-grid fit and
# the fit over all n*m cells, which sum in a different order. The worst
# cases over REFERENCE_CASES at 40 and 300 epochs are 8.7e-16 under sgd and
# 1.5e-11 under adam, whose step m / sqrt(v) magnifies rounding where the
# gradient is near zero.
DENSE_RTOL = {"sgd": 1e-14, "adam": 1e-10}


class TestPropensityBuffer:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_equals_fresh_temporaries_reference(self, optimizer):
        # 37 x 41: an axis mix-up in the reused buffers cannot go unnoticed
        d = row_rate_dataset(37, 41, 37)
        cfg = SgdConfig(learning_rate=0.5, batch_size=0, weight_decay=0.0,
                        max_epochs=60, optimizer=optimizer)
        got = train_propensity(d, cfg)
        want = fresh_temporaries_propensity(d, cfg)
        for name in want.params():
            assert got.params()[name].shape == want.params()[name].shape
            assert np.array_equal(got.params()[name], want.params()[name])

    def test_predict_all_into_buffer(self):
        rng = make_rng(3)
        model = PropensityModel(rng.normal(size=5), rng.normal(size=7))
        buf = np.empty((5, 7))
        assert model.predict_all(out=buf) is buf
        assert np.array_equal(buf, sigmoid(model.user_logit[:, None]
                                           + model.item_logit[None, :]))

    def test_peak_memory_holds_no_cell_matrix(self):
        # a dense n*m float64 buffer alone would be 32 MB here
        rng = make_rng(2000)
        o = (rng.random((2000, 2000)) < 0.3).astype(np.int8)
        d = RatingDataset(2000, 2000, o, np.zeros((2000, 2000), np.int8))
        cfg = SgdConfig(learning_rate=0.5, batch_size=0, weight_decay=0.0,
                        max_epochs=5)
        tracemalloc.start()
        try:
            train_propensity(d, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestCountGrid:
    """The fit reads the mask only through its row and column counts."""

    @staticmethod
    def _fit(o, optimizer):
        n, m = o.shape
        d = RatingDataset(n, m, o, np.zeros((n, m), np.int8))
        cfg = SgdConfig(learning_rate=0.5, batch_size=0, weight_decay=0.0,
                        max_epochs=50, optimizer=optimizer)
        return train_propensity(d, cfg)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_equal_counts_equal_logits(self, optimizer):
        rng = make_rng(21)
        o = (rng.random((40, 30)) < 0.4).astype(np.int8)
        swapped = o.copy()
        done = 0
        # 2 x 2 swaps [[1, 0], [0, 1]] -> [[0, 1], [1, 0]] keep every row
        # and column count
        while done < 200:
            (u1, u2), (i1, i2) = (rng.choice(40, 2, replace=False),
                                  rng.choice(30, 2, replace=False))
            block = swapped[np.ix_([u1, u2], [i1, i2])]
            if block[0, 0] == block[1, 1] == 1 and block.sum() == 2:
                swapped[np.ix_([u1, u2], [i1, i2])] = 1 - block
                done += 1
        assert not np.array_equal(o, swapped)
        a, b = self._fit(o, optimizer), self._fit(swapped, optimizer)
        assert np.array_equal(a.user_logit, b.user_logit)
        assert np.array_equal(a.item_logit, b.item_logit)
        # users of one count share one logit
        counts = o.sum(axis=1)
        for c in np.unique(counts):
            assert np.unique(a.user_logit[counts == c]).size == 1

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_permutation_permutes_logits(self, optimizer):
        rng = make_rng(22)
        o = (rng.random((35, 25)) < rng.uniform(0.1, 0.9, size=(35, 1)))
        o = o.astype(np.int8)
        perm_u, perm_i = rng.permutation(35), rng.permutation(25)
        a = self._fit(o, optimizer)
        b = self._fit(o[perm_u][:, perm_i], optimizer)
        assert np.array_equal(b.user_logit, a.user_logit[perm_u])
        assert np.array_equal(b.item_logit, a.item_logit[perm_i])

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("epochs", [40, 300])
    @pytest.mark.parametrize("n,m,lr,batch_size", REFERENCE_CASES)
    def test_dense_references_within_rounding(self, n, m, lr, batch_size,
                                              epochs, optimizer):
        d = row_rate_dataset(n, m, n + m)
        cfg = SgdConfig(learning_rate=lr, batch_size=batch_size,
                        weight_decay=0.0, max_epochs=epochs,
                        optimizer=optimizer)
        got = train_propensity(d, cfg).predict_all()
        for want in (dense_propensity(d, cfg).predict_all(),
                     dense_two_copy_propensity(d, cfg)):
            np.testing.assert_allclose(got, want, atol=0,
                                       rtol=DENSE_RTOL[optimizer])

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_full_and_empty_rows_and_columns(self, optimizer):
        rng = make_rng(23)
        o = (rng.random((20, 15)) < 0.5).astype(np.int8)
        o[0, :], o[1, :] = 1, 0
        o[:, 0], o[:, 1] = 1, 0
        d = RatingDataset(20, 15, o, np.zeros((20, 15)))
        cfg = SgdConfig(learning_rate=1.0, batch_size=0, weight_decay=0.0,
                        max_epochs=200, optimizer=optimizer)
        model = train_propensity(d, cfg)
        np.testing.assert_allclose(model.predict_all(),
                                   dense_propensity(d, cfg).predict_all(),
                                   atol=0, rtol=DENSE_RTOL[optimizer])
        # the fullest row and column get the largest logits, the emptiest
        # the smallest
        assert model.user_logit[0] == model.user_logit.max()
        assert model.user_logit[1] == model.user_logit.min()
        assert model.item_logit[0] == model.item_logit.max()
        assert model.item_logit[1] == model.item_logit.min()


class TestPropensityEdgeCases:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,m", [(0, 5), (5, 0), (0, 0)])
    def test_empty_universe_diverges_at_epoch_0(self, n, m):
        d = RatingDataset(n, m, np.zeros((n, m)), np.zeros((n, m)))
        with pytest.raises(TrainingDivergence,
                           match="^propensity training diverged at epoch 0$"):
            train_propensity(d, SgdConfig(batch_size=0, max_epochs=3))

    @pytest.mark.parametrize("n,m", [(4, 6), (0, 5), (5, 0)])
    def test_zero_epochs_zero_logits(self, n, m):
        rng = make_rng(24)
        o = (rng.random((n, m)) < 0.5).astype(np.int8)
        d = RatingDataset(n, m, o, np.zeros((n, m)))
        model = train_propensity(d, SgdConfig(batch_size=0, max_epochs=0))
        assert np.array_equal(model.user_logit, np.zeros(n))
        assert np.array_equal(model.item_logit, np.zeros(m))


class TestTwoCopyReference:
    """One logit per user count and per item count at twice the rate fits
    the same propensities as a weight plus an intercept per count."""

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("n,m,lr,batch_size", REFERENCE_CASES)
    def test_full_batch_byte_equal(self, optimizer, n, m, lr, batch_size):
        d = row_rate_dataset(n, m, n + m)
        cfg = SgdConfig(learning_rate=lr, batch_size=batch_size,
                        weight_decay=0.0, max_epochs=40, seed=5,
                        optimizer=optimizer)
        got = train_propensity(d, cfg).predict_all()
        want = two_copy_propensity(d, cfg)
        assert got.tobytes() == want.tobytes()


class TestDeterminism:
    def _train_once(self, optimizer):
        rng = make_rng(11)
        o = (rng.random((15, 15)) < 0.5).astype(np.int8)
        d = RatingDataset(15, 15, o, np.zeros((15, 15)))
        cfg = SgdConfig(learning_rate=0.1, batch_size=0, weight_decay=0.0,
                        max_epochs=10, seed=3, optimizer=optimizer)
        return train_propensity(d, cfg)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_identical_seed_identical_params(self, optimizer):
        a = self._train_once(optimizer)
        b = self._train_once(optimizer)
        for name in a.params():
            assert np.array_equal(a.params()[name], b.params()[name])

    def test_adam_differs_from_sgd(self):
        a = self._train_once("sgd")
        b = self._train_once("adam")
        assert not np.allclose(a.user_logit, b.user_logit)


class TestCheckpoints:
    def test_factor_roundtrip(self, tmp_path):
        model = random_factor_model(12)
        path = tmp_path / "model.npz"
        save_model(path, model)
        back = load_model(path)
        for name in model.params():
            assert np.array_equal(model.params()[name], back.params()[name])
        assert back.global_bias == model.global_bias
        with np.load(path) as data:
            assert "linear_output" not in data

    @staticmethod
    def _earlier_format_checkpoint(path, model, linear_output):
        """A version-2 factor checkpoint in the earlier layout: the same
        arrays plus a linear_output flag, 1 for a raw-score model."""
        np.savez(path, kind="factor", version=2, linear_output=linear_output,
                 global_bias=model.global_bias, **model.params())

    def test_sigmoid_checkpoint_of_earlier_format_loads(self, tmp_path):
        model = random_factor_model(13)
        path = tmp_path / "old.npz"
        self._earlier_format_checkpoint(path, model, 0)
        back = load_model(path)
        for name in model.params():
            assert np.array_equal(model.params()[name], back.params()[name])
        assert back.global_bias == model.global_bias
        assert np.array_equal(back.predict_all(), model.predict_all())

    def test_linear_output_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "imp.npz"
        self._earlier_format_checkpoint(path, random_factor_model(13), 1)
        with pytest.raises(ValidationError, match="linear-output"):
            load_model(path)

    def test_propensity_roundtrip(self, tmp_path):
        model = PropensityModel.init(4, 5)
        model.user_logit += make_rng(14).normal(size=4)
        model.item_logit += make_rng(15).normal(size=5)
        path = tmp_path / "prop.npz"
        save_model(path, model)
        back = load_model(path)
        assert np.array_equal(back.user_logit, model.user_logit)
        assert np.array_equal(back.item_logit, model.item_logit)

    def test_version_1_propensity_rejected(self, tmp_path):
        # the version-1 layout: a weight and an intercept per user and item
        path = tmp_path / "prop_v1.npz"
        np.savez(path, kind="propensity", version=1,
                 w_user=np.zeros(4), w_item=np.zeros(5),
                 beta_user=np.zeros(4), gamma_item=np.zeros(5))
        with pytest.raises(ValidationError,
                           match="unsupported checkpoint version"):
            load_model(path)

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            save_model(tmp_path / "x.npz", object())


class TestSgdConfig:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValidationError):
            SgdConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("key", ["learning_rate", "weight_decay"])
    def test_rejects_nan(self, key):
        with pytest.raises(ValidationError):
            SgdConfig(**{key: float("nan")})

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValidationError):
            SgdConfig(optimizer="rmsprop")

    @pytest.mark.parametrize("batch_size,n,want", [
        (0, 50, 50), (0, 0, 0), (7, 50, 7), (50, 50, 50), (64, 50, 50)])
    def test_batch_of(self, batch_size, n, want):
        # 0 means all rows, and a batch never exceeds the rows there are
        assert SgdConfig(batch_size=batch_size).batch_of(n) == want


class TestEpochBatches:
    @pytest.mark.parametrize("batch_size,n", [(0, 23), (7, 23), (23, 23),
                                              (100, 23), (5, 0), (0, 0)])
    def test_slices_of_one_permutation(self, batch_size, n):
        cfg = SgdConfig(batch_size=batch_size)
        got = list(epoch_batches(make_rng(4), n, cfg))
        order = make_rng(4).permutation(n)
        size = cfg.batch_of(n)
        assert [len(b) for b in got] == [
            min(size, n - start) for start in range(0, n, max(size, 1))]
        assert np.array_equal(np.concatenate(got or [[]]), order)

    def test_one_permutation_per_epoch(self):
        # the rng moves on by exactly one permutation of n per epoch
        rng = make_rng(5)
        for _ in epoch_batches(rng, 30, SgdConfig(batch_size=4)):
            pass
        ref = make_rng(5)
        ref.permutation(30)
        assert rng.random() == ref.random()
