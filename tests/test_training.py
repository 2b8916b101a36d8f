import csv
import dataclasses
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
from noisyrec import _kernels
from noisyrec.losses import LossKind, label_loss, label_loss_grad
from noisyrec.metrics import auc
from noisyrec.models import (
    FactorModel,
    Optimizer,
    SgdConfig,
    TrainingDivergence,
    dr_grad_coefs,
    sgd_step_imputation,
    sgd_step_surrogate,
    sigmoid,
)
from noisyrec.training import (
    ALT_LOSS,
    AltTrainConfig,
    TrainTrace,
    TraceRecord,
    _xent_grad,
    alternating_denoise_train,
    pretrain_noisy_model,
    train_noisy_factor_model,
)
from noisyrec.noise import (NoisyRateModel, NoSeparationWarning,
                            rates_at_extremes)


def additive_truth(seed, n=80, m=80, scale=1.0):
    """Binary truth from thresholded additive user/item effects; learnable by
    the bias terms alone, so training converges quickly."""
    rng = make_rng(seed)
    a = rng.normal(size=n)
    b = rng.normal(size=m)
    r_star = ((scale * (a[:, None] + b[None, :])) > 0).astype(np.int8)
    return rng, r_star


def separable_instance(seed, rho01, rho10, obs_ratio=1.0, n=100, m=100):
    """Smooth additive-logit preference rates with a few rows forced to the
    exact extremes 0 and 1 so the flip rates are identifiable."""
    rng = make_rng(seed)
    a = rng.normal(size=n)
    b = rng.normal(size=m)
    gamma = 0.15 + 0.7 / (1.0 + np.exp(-(a[:, None] + b[None, :])))
    gamma[:5, :] = 1.0
    gamma[5:10, :] = 0.0
    r_star = (rng.random((n, m)) < gamma).astype(np.int8)
    flips = rng.random((n, m))
    r_obs = np.where(r_star == 1, (flips >= rho01).astype(np.int8),
                     (flips < rho10).astype(np.int8))
    o = (rng.random((n, m)) < obs_ratio).astype(np.int8)
    d = RatingDataset(n, m, o, r_obs * o, r_star)
    return d, np.full((n, m), obs_ratio)


class TestPretraining:
    def test_naive_recovers_separable_truth(self):
        rng, r_star = additive_truth(0, n=100, m=100)
        d = RatingDataset(100, 100, np.ones((100, 100)), r_star, r_star)
        cfg = SgdConfig(learning_rate=1.0, batch_size=2048, weight_decay=1e-5,
                        max_epochs=50, seed=0)
        q = pretrain_noisy_model(d, "naive", cfg, 8)
        assert auc(q.q.ravel(), r_star.ravel()) >= 0.95

    def test_zero_epochs_near_half(self):
        d = RatingDataset(10, 10, np.ones((10, 10)), np.ones((10, 10)))
        q = pretrain_noisy_model(d, "naive", SgdConfig(max_epochs=0), 4)
        assert np.allclose(q.q, 0.5, atol=0.01)

    def test_ips_beats_naive_under_mnar_paired(self):
        # observation odds depend on both the label and the item group, which
        # distorts the item ordering for the unweighted fit
        wins = 0
        for seed in range(5):
            rng = make_rng(seed)
            n = m = 80
            a = rng.normal(size=n)
            b = rng.normal(size=m)
            gamma = 1.0 / (1.0 + np.exp(-(a[:, None] + b[None, :])))
            r_star = (rng.random((n, m)) < gamma).astype(np.int8)
            grp = (np.arange(m) % 2 == 0)
            p1 = np.tile(np.where(grp, 0.8, 0.2), (n, 1))
            p0 = np.tile(np.where(grp, 0.2, 0.8), (n, 1))
            p = np.where(r_star == 1, p1, p0)
            o = (rng.random((n, m)) < p).astype(np.int8)
            d = RatingDataset(n, m, o, r_star * o, r_star)
            scores = {}
            for method in ("naive", "ips"):
                cfg = SgdConfig(learning_rate=1.0, batch_size=2048,
                                weight_decay=1e-5, max_epochs=50, seed=seed)
                q = pretrain_noisy_model(
                    d, method, cfg, 8,
                    p_hat=p if method == "ips" else None)
                scores[method] = auc(q.q.ravel(), r_star.ravel())
            wins += scores["ips"] >= scores["naive"]
        assert wins == 5

    def test_dr_and_eib_methods_run(self):
        rng, r_star = additive_truth(1, n=20, m=20)
        o = (rng.random((20, 20)) < 0.6).astype(np.int8)
        d = RatingDataset(20, 20, o, r_star * o, r_star)
        p = np.full((20, 20), 0.6)
        cfg = SgdConfig(learning_rate=0.5, batch_size=0, weight_decay=1e-5,
                        max_epochs=5, seed=0)
        for method, p_hat in (("dr", p), ("eib", None)):
            model = train_noisy_factor_model(d, method, cfg, 4, p_hat=p_hat)
            out = model.predict_all()
            assert np.all((out > 0) & (out < 1))

    @pytest.mark.parametrize("method", ["eib2", "eib"])
    def test_rejects_bad_pretrain_method(self, method):
        d = RatingDataset(2, 2, np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValidationError, match="pretrain method"):
            pretrain_noisy_model(d, method, SgdConfig(), 2)

    def test_unknown_method_rejected(self):
        d = RatingDataset(2, 2, np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValidationError):
            train_noisy_factor_model(d, "snips", SgdConfig(), 2)

    def test_ips_requires_propensities(self):
        d = RatingDataset(2, 2, np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValidationError):
            train_noisy_factor_model(d, "ips", SgdConfig(), 2)

    @pytest.mark.parametrize("method", ["ips", "dr"])
    @pytest.mark.parametrize("reshape", [np.transpose, np.ravel])
    def test_rejects_misshapen_propensities(self, method, reshape):
        # a (25, 30) or flat p_hat would weight each row by another cell's
        # propensity
        rng, r_star = additive_truth(2, n=30, m=25)
        o = (rng.random((30, 25)) < 0.5).astype(np.int8)
        d = RatingDataset(30, 25, o, r_star * o, r_star)
        p = reshape(rng.uniform(0.2, 0.9, size=(30, 25)))
        with pytest.raises(ValidationError, match="propensity shape mismatch"):
            pretrain_noisy_model(d, method, SgdConfig(max_epochs=1), 2,
                                 p_hat=p)


class TestAltTrainConfig:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValidationError):
            AltTrainConfig(rho_init=ErrorParams(0, 0), steps_prediction=0)

    def test_rejects_zero_embedding_dim(self):
        with pytest.raises(ValidationError, match="embedding dimension"):
            AltTrainConfig(rho_init=ErrorParams(0, 0), embedding_dim=0)


def alt_config(seed, outer_loops=30, k_extreme=400):
    return AltTrainConfig(
        rho_init=ErrorParams(0.0, 0.0),
        steps_prediction=10, steps_imputation=10, outer_loops=outer_loops,
        embedding_dim=8, k_extreme=k_extreme,
        sgd_prediction=SgdConfig(learning_rate=1.0, batch_size=4096,
                                 weight_decay=1e-5, seed=seed),
        sgd_imputation=SgdConfig(learning_rate=0.1, batch_size=4096,
                                 weight_decay=1e-5, seed=seed))


class TestAlternatingTraining:
    def test_zero_loops_empty_trace(self):
        d, p = separable_instance(0, 0.1, 0.1, n=20, m=20)
        cfg = SgdConfig(learning_rate=0.5, batch_size=0, max_epochs=3, seed=0)
        h = pretrain_noisy_model(d, "naive", cfg, 4)
        config = alt_config(0, outer_loops=0, k_extreme=1)
        pred, imp, trace = alternating_denoise_train(d, p, h, config)
        assert trace.records == []
        # untrained models stay near their small-init state
        assert np.allclose(pred.predict_all(), 0.5, atol=0.01)
        assert np.allclose(imp.score_matrix(), 0.0, atol=0.01)

    @pytest.mark.parametrize("k_extreme, ok", [(150, True), (151, False),
                                               (10**6, False)])
    def test_k_extreme_at_most_half_the_pairs(self, k_extreme, ok):
        # past n*m/2 the low and high sets overlap: rho_hat would be
        # (1 - mean(q), mean(q)) whatever the predictions
        d, p = separable_instance(0, 0.1, 0.1, n=20, m=15)
        h = NoisyRateModel(np.full((20, 15), 0.45))
        config = alt_config(0, outer_loops=0, k_extreme=k_extreme)
        if ok:
            with pytest.warns(NoSeparationWarning):  # the flat q
                _, _, trace = alternating_denoise_train(d, p, h, config)
            assert trace.records == []
        else:
            with pytest.raises(ValidationError,
                               match=r"k_extreme must be in \[1, n_pairs/2\]"):
                alternating_denoise_train(d, p, h, config)

    def test_flat_noisy_rate_warns(self):
        # rho would be read from a constant q at every refresh: nothing
        # separates its extremes, so the warning comes before any loop
        d, p = separable_instance(0, 0.1, 0.1, n=20, m=15)
        h = NoisyRateModel(np.full((20, 15), 0.45))
        with pytest.warns(NoSeparationWarning):
            alternating_denoise_train(d, p, h, alt_config(0, outer_loops=0,
                                                          k_extreme=10))

    def test_pretrained_noisy_rate_does_not_warn(self):
        d, p = separable_instance(1, 0.2, 0.1, n=40, m=40)
        h = pretrain_noisy_model(
            d, "naive",
            SgdConfig(learning_rate=1.0, batch_size=0, weight_decay=1e-3,
                      max_epochs=50, seed=1), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NoSeparationWarning)
            _, _, trace = alternating_denoise_train(
                d, p, h, alt_config(1, outer_loops=2, k_extreme=10))
        assert len(trace.records) == 2

    def test_one_record_per_loop_and_valid_rho(self):
        d, p = separable_instance(1, 0.2, 0.1, n=40, m=40)
        h = pretrain_noisy_model(
            d, "naive",
            SgdConfig(learning_rate=1.0, batch_size=0, weight_decay=1e-3,
                      max_epochs=50, seed=1), 4)
        config = alt_config(1, outer_loops=5, k_extreme=10)
        _, _, trace = alternating_denoise_train(d, p, h, config)
        assert len(trace.records) == 5
        assert [r.loop for r in trace.records] == list(range(5))
        for r in trace.records:
            ErrorParams(r.rho01_hat, r.rho10_hat)  # must construct

    def test_noiseless_rho_converges_to_zero(self):
        d, p = separable_instance(0, 0.0, 0.0)
        h = pretrain_noisy_model(
            d, "naive",
            SgdConfig(learning_rate=2.0, batch_size=2048, weight_decay=1e-3,
                      max_epochs=500, seed=0), 8)
        config = alt_config(0, outer_loops=50, k_extreme=50)
        config.rho_init = ErrorParams(0.3, 0.3)
        _, _, trace = alternating_denoise_train(d, p, h, config)
        last = trace.records[-1]
        assert last.rho01_hat + last.rho10_hat < 0.1

    def test_rho_recovery_full_observation(self):
        d, p = separable_instance(3, 0.2, 0.1)
        h = pretrain_noisy_model(
            d, "naive",
            SgdConfig(learning_rate=1.0, batch_size=2048, weight_decay=1e-2,
                      max_epochs=300, seed=3), 8)
        _, _, trace = alternating_denoise_train(d, p, h, alt_config(3))
        last = trace.records[-1]
        assert abs(last.rho01_hat - 0.2) <= 0.05
        assert abs(last.rho10_hat - 0.1) <= 0.05

    def test_reduces_to_plain_dr_joint_learning_when_noiseless(self):
        # with a well-trained h on noiseless data the refreshed rho stays
        # near (0, 0), so the loop must match a baseline that pins rho there
        diffs = []
        for seed in range(5):
            d, p = separable_instance(seed, 0.0, 0.0, obs_ratio=0.5)
            h = pretrain_noisy_model(
                d, "naive",
                SgdConfig(learning_rate=2.0, batch_size=2048,
                          weight_decay=1e-3, max_epochs=500, seed=seed), 8)
            config = alt_config(seed, k_extreme=50)
            alt_pred, _, _ = alternating_denoise_train(d, p, h, config)
            base_pred = self._dr_joint_baseline(d, p, config)
            a_alt = auc(alt_pred.predict_all().ravel(),
                        d.true_ratings.ravel())
            a_base = auc(base_pred.predict_all().ravel(),
                         d.true_ratings.ravel())
            diffs.append(abs(a_alt - a_base))
        assert max(diffs) <= 0.01

    @staticmethod
    def _dr_joint_baseline(d, p_hat, config):
        """The alternating schedule with the flip rates pinned at zero: plain
        doubly-robust joint learning of prediction and imputation models."""
        n, m = d.shape
        rho0 = ErrorParams(0.0, 0.0)
        loss = LossKind.squared()
        rng = make_rng(config.sgd_prediction.seed)
        pred_model = FactorModel.init(n, m, config.embedding_dim, rng)
        imp_model = FactorModel.init(n, m, config.embedding_dim, rng)
        pred_opt = Optimizer(config.sgd_prediction)
        imp_opt = Optimizer(config.sgd_imputation)
        o_flat = d.observed_mask.ravel().astype(np.float64)
        r_flat = d.observed_ratings.ravel().astype(np.float64)
        p_flat = p_hat.ravel()
        n_pairs = n * m
        u_grid, i_grid = np.divmod(np.arange(n_pairs), m)
        obs_idx = np.flatnonzero(o_flat)
        rng.permutation(obs_idx)  # mirror the held-out draw of the real loop
        batch_p = min(config.sgd_prediction.batch_size or n_pairs, n_pairs)
        batch_i = min(config.sgd_imputation.batch_size or obs_idx.size,
                      obs_idx.size)
        for _ in range(config.outer_loops):
            for _ in range(config.steps_prediction):
                idx = rng.choice(n_pairs, size=batch_p, replace=False)
                u, i = u_grid[idx], i_grid[idx]
                sgd_step_surrogate(
                    pred_model, u, i, o_flat[idx], r_flat[idx], p_flat[idx],
                    None, rho0, loss, config.sgd_prediction, pred_opt)
            pred_model.predict_all()
            for _ in range(config.steps_imputation):
                idx = obs_idx[rng.choice(obs_idx.size, size=batch_i,
                                         replace=False)]
                u, i = u_grid[idx], i_grid[idx]
                sgd_step_imputation(
                    imp_model, u, i, o_flat[idx], r_flat[idx], p_flat[idx],
                    pred_model.forward(u, i), rho0, loss,
                    config.sgd_imputation, imp_opt)
        return pred_model

    def test_determinism(self):
        results = []
        for _ in range(2):
            d, p = separable_instance(2, 0.2, 0.1, n=30, m=30)
            h = pretrain_noisy_model(
                d, "naive",
                SgdConfig(learning_rate=1.0, batch_size=0, weight_decay=1e-3,
                          max_epochs=30, seed=2), 4)
            pred, _, trace = alternating_denoise_train(
                d, p, h, alt_config(2, outer_loops=3, k_extreme=5))
            results.append((pred.predict_all(),
                            [(r.rho01_hat, r.rho10_hat) for r in trace.records]))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]


class TestTrace:
    def test_csv_layout(self, tmp_path):
        trace = TrainTrace()
        trace.append(TraceRecord(0, 0.2, 0.1, 0.33, 0.25))
        trace.append(TraceRecord(1, 0.19, 0.11, 0.31, 0.24, rho_clamped=True))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["loop", "rho01_hat", "rho10_hat", "objective",
                           "val_metric", "rho_clamped"]
        assert rows[1][0] == "0"
        assert rows[1][5] == "0"
        assert float(rows[2][1]) == pytest.approx(0.19)
        assert rows[2][5] == "1"
        assert len(rows) == 3


class TestLoopEqualsReference:
    """The alternating loop scores only the live rows of each prediction
    batch and forms its dense predictions in place, yet gives the
    reference loop's models and trace bit for bit."""

    n, m = 30, 25

    def inputs(self):
        d, _ = separable_instance(4, 0.2, 0.1, 0.3, n=self.n, m=self.m)
        rng = make_rng(11)
        p_hat = rng.uniform(0.2, 1.0, size=d.shape)
        noisy = NoisyRateModel(0.1 + 0.7 * d.true_ratings
                               + rng.uniform(0.0, 0.05, size=d.shape))
        return d, p_hat, noisy

    def config(self, optimizer, k_extreme, batch):
        return AltTrainConfig(
            rho_init=ErrorParams(0.0, 0.0), steps_prediction=4,
            steps_imputation=3, outer_loops=3, embedding_dim=4,
            k_extreme=k_extreme,
            sgd_prediction=SgdConfig(learning_rate=0.5, batch_size=batch,
                                     weight_decay=1e-3, seed=5,
                                     optimizer=optimizer),
            sgd_imputation=SgdConfig(learning_rate=0.02, batch_size=batch // 4,
                                     weight_decay=1e-4, seed=5,
                                     optimizer=optimizer))

    @staticmethod
    def bits(model):
        return [a.tobytes() for a in factor_params(model)]

    @pytest.mark.parametrize("batch", [64, 0, 1000],
                             ids=["small", "all", "past-universe"])
    @pytest.mark.parametrize("k_extreme", [1, 20])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_equals_reference(self, optimizer, k_extreme, batch):
        d, p_hat, noisy = self.inputs()
        config = self.config(optimizer, k_extreme, batch)
        pred, imp, trace = alternating_denoise_train(d, p_hat, noisy, config)
        want_pred, want_imp, want_records = ref_alternating_denoise_train(
            d, p_hat, noisy, config)
        assert self.bits(pred) == self.bits(want_pred)
        assert self.bits(imp) == self.bits(want_imp)

        def fields(rec):
            return [v.hex() if isinstance(v, float) else v
                    for v in dataclasses.astuple(rec)]

        assert len(trace.records) == config.outer_loops
        assert ([fields(r) for r in trace.records]
                == [fields(r) for r in want_records])


# Reference bodies: the training steps as they were before zero-coefficient
# rows skipped the kernels, scoring and back-propagating every batch row, and
# the predictions as one out-of-place expression. The library must equal them
# bit for bit.

def ref_forward(model, u_idx, i_idx):
    return np.clip(sigmoid(model.scores(u_idx, i_idx)), EPS_OUT,
                   1.0 - EPS_OUT)


def ref_predict_all(model):
    return np.clip(sigmoid(model.user_emb @ model.item_emb.T
                           + model.user_bias[:, None]
                           + model.item_bias[None, :] + model.global_bias),
                   EPS_OUT, 1.0 - EPS_OUT)


def ref_factor_sgd_step(model, u_idx, i_idx, coef, config, opt, error):
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


def ref_surrogate_grad_coefs(model, u_idx, i_idx, o, r, p_hat, rho, loss):
    f = ref_forward(model, u_idx, i_idx)
    dval = label_loss_grad(loss, f, r, rho)
    return (o / p_hat) * dval * f * (1.0 - f) / u_idx.shape[0]


def ref_sgd_step_surrogate(model, u_idx, i_idx, o, r, p_hat, e_bar, rho,
                           loss, config, opt):
    coef = ref_surrogate_grad_coefs(model, u_idx, i_idx, o, r, p_hat, rho,
                                    loss)
    ref_factor_sgd_step(model, u_idx, i_idx, coef, config, opt,
                        "non-finite gradient in prediction step")


def ref_train_noisy_factor_model(dataset, method, config, d=8, p_hat=None):
    n, m = dataset.shape
    rng = make_rng(config.seed)
    model = FactorModel.init(n, m, d, rng)
    opt = Optimizer(config)
    o = dataset.observed_mask
    r = dataset.observed_ratings.astype(np.float64)
    n_obs = int(o.sum())
    r_bar = float((o * r).sum() / n_obs)
    n_pairs = n * m
    o_flat = o.ravel().astype(np.float64)
    r_flat = r.ravel()
    p_flat = None if p_hat is None else np.asarray(p_hat).ravel()
    batch = config.batch_size if config.batch_size > 0 else n_pairs
    for epoch in range(config.max_epochs):
        order = rng.permutation(n_pairs)
        for start in range(0, n_pairs, batch):
            idx = order[start:start + batch]
            u, i = np.divmod(idx, m)
            ob, rb = o_flat[idx], r_flat[idx]
            f = ref_forward(model, u, i)
            g_obs = _xent_grad(f, rb)
            if method == "naive":
                weight = ob * n_pairs / n_obs
                dldf = weight * g_obs
            elif method == "ips":
                dldf = ob / p_flat[idx] * g_obs
            elif method == "eib":
                g_imp = _xent_grad(f, r_bar)
                dldf = ob * g_obs + (1.0 - ob) * g_imp
            else:
                g_imp = _xent_grad(f, r_bar)
                w = ob / p_flat[idx]
                dldf = (1.0 - w) * g_imp + w * g_obs
            coef = dldf * f * (1.0 - f) / idx.shape[0]
            ref_factor_sgd_step(
                model, u, i, coef, config, opt,
                f"noisy-rate pretraining diverged at epoch {epoch}")
    return model


def ref_sgd_step_imputation(model, u_idx, i_idx, o, r, p_hat, pred, rho,
                            loss, config, opt):
    if not np.all(np.isfinite(pred)):
        raise TrainingDivergence("non-finite gradient in imputation step")
    target = label_loss(loss, pred, r, rho)
    e_bar = model.scores(u_idx, i_idx)
    coef = -2.0 * o * (target - e_bar) / p_hat / u_idx.shape[0]
    ref_factor_sgd_step(model, u_idx, i_idx, coef, config, opt,
                        "non-finite gradient in imputation step")


def ref_alternating_denoise_train(dataset, p_hat, noisy_model, config):
    """The alternating loop as it was when every prediction batch went
    whole through the prediction step."""
    n, m = dataset.shape
    p_flat = np.asarray(p_hat, dtype=np.float64).ravel()
    q = np.asarray(noisy_model.q, dtype=np.float64).ravel()
    rng = make_rng(config.sgd_prediction.seed)
    pred_model = FactorModel.init(n, m, config.embedding_dim, rng)
    imp_model = FactorModel.init(n, m, config.embedding_dim, rng)
    pred_opt = Optimizer(config.sgd_prediction)
    imp_opt = Optimizer(config.sgd_imputation)
    o_flat = dataset.observed_mask.ravel()
    r_flat = dataset.observed_ratings.ravel()
    n_pairs = n * m
    obs_idx = np.flatnonzero(o_flat)
    val_idx = rng.permutation(obs_idx)[:max(1, obs_idx.size // 10)]
    vu, vi = np.divmod(val_idx, m)
    rho = config.rho_init
    records = []
    batch_p = min(config.sgd_prediction.batch_size or n_pairs, n_pairs)
    batch_i = min(config.sgd_imputation.batch_size or obs_idx.size,
                  obs_idx.size)
    for loop in range(config.outer_loops):
        for _ in range(config.steps_prediction):
            idx = rng.choice(n_pairs, size=batch_p, replace=False)
            u, i = np.divmod(idx, m)
            ref_sgd_step_surrogate(pred_model, u, i, o_flat[idx], r_flat[idx],
                                   p_flat[idx], None, rho, ALT_LOSS,
                                   config.sgd_prediction, pred_opt)
        dense_pred = ref_predict_all(pred_model)
        rho, clamped = rates_at_extremes(q, config.k_extreme, dense_pred)
        for _ in range(config.steps_imputation):
            idx = obs_idx[rng.choice(obs_idx.size, size=batch_i,
                                     replace=False)]
            u, i = np.divmod(idx, m)
            pred_b = ref_forward(pred_model, u, i)
            ref_sgd_step_imputation(imp_model, u, i, o_flat[idx], r_flat[idx],
                                    p_flat[idx], pred_b, rho, ALT_LOSS,
                                    config.sgd_imputation, imp_opt)
        val_pred = ref_forward(pred_model, vu, vi)
        val_obj = float(np.mean(
            np.square(val_pred - r_flat[val_idx]) / p_flat[val_idx]))
        e_bar = imp_model.scores(vu, vi)
        w = o_flat[val_idx] / p_flat[val_idx]
        obj = float(np.mean((1.0 - w) * e_bar + w * label_loss(
            ALT_LOSS, val_pred, r_flat[val_idx], rho)))
        records.append(TraceRecord(loop, rho.rho01, rho.rho10, obj, val_obj,
                                   clamped))
    return pred_model, imp_model, records


def factor_params(model):
    return [model.user_emb, model.item_emb, model.user_bias, model.item_bias,
            np.float64(model.global_bias)]


def assert_same_model(got, want):
    for g, w in zip(factor_params(got), factor_params(want)):
        assert np.array_equal(g, w)


def unit_model(seed, n, m, d=3):
    """N(0,1)-scale parameters, so the sigmoid is in its nonlinear range."""
    rng = make_rng(seed)
    model = FactorModel.init(n, m, d, rng)
    model.user_emb = rng.normal(size=(n, d))
    model.item_emb = rng.normal(size=(m, d))
    model.user_bias = rng.normal(size=n)
    model.item_bias = rng.normal(size=m)
    model.global_bias = float(rng.normal())
    return model


class TestZeroCoefficientSkip:
    """naive/ips pretraining and the prediction step score and
    back-propagate only the rows with a non-zero weight o/p, yet give the
    reference bodies' models bit for bit."""

    @pytest.mark.parametrize("obs_ratio", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("batch", [0, 64, 250])
    @pytest.mark.parametrize("method", ["naive", "ips", "eib", "dr"])
    def test_pretraining_equals_reference(self, method, batch, obs_ratio):
        d, _ = separable_instance(4, 0.2, 0.1, obs_ratio, n=30, m=25)
        p_hat = make_rng(5).uniform(0.05, 1.0, size=d.shape)
        for optimizer in ("sgd", "adam"):
            cfg = SgdConfig(learning_rate=0.5, batch_size=batch,
                            weight_decay=1e-3, max_epochs=3, seed=6,
                            optimizer=optimizer)
            got = train_noisy_factor_model(d, method, cfg, 4, p_hat=p_hat)
            want = ref_train_noisy_factor_model(d, method, cfg, 4, p_hat)
            assert_same_model(got, want)

    @pytest.mark.parametrize("batch", [0, 64, 250])
    def test_dr_at_unit_propensity_equals_eib(self, batch):
        # at p_hat = 1 the dr weight o/p_hat is o, eib's weight, and both
        # form (1 - w) g_imp + w g_obs
        d, _ = separable_instance(4, 0.2, 0.1, 0.3, n=30, m=25)
        for optimizer in ("sgd", "adam"):
            cfg = SgdConfig(learning_rate=0.5, batch_size=batch,
                            weight_decay=1e-3, max_epochs=3, seed=6,
                            optimizer=optimizer)
            got = train_noisy_factor_model(d, "dr", cfg, 4,
                                           p_hat=np.ones(d.shape))
            want = train_noisy_factor_model(d, "eib", cfg, 4)
            assert_same_model(got, want)

    @pytest.mark.parametrize("method", ["naive", "ips", "eib", "dr"])
    def test_kernels_see_only_observed_rows(self, method, monkeypatch):
        # naive and ips score and step only the observed rows, eib and dr
        # the whole batch; the backward kernel sees the rows scored
        d, _ = separable_instance(4, 0.2, 0.1, 0.3, n=30, m=25)
        rows = {"factor_scores": 0, "factor_backward": 0}
        for name in rows:
            def counted(u, *args, _fn=getattr(_kernels, name), _name=name):
                rows[_name] += u.shape[0]
                return _fn(u, *args)
            monkeypatch.setattr(_kernels, name, counted)
        cfg = SgdConfig(learning_rate=0.5, batch_size=64, max_epochs=2,
                        seed=6)
        train_noisy_factor_model(d, method, cfg, 4,
                                 p_hat=np.full(d.shape, 0.3))
        live = (int(d.observed_mask.sum()) if method in ("naive", "ips")
                else d.n_users * d.n_items)
        assert rows == {"factor_scores": 2 * live,
                        "factor_backward": 2 * live}

    @pytest.mark.parametrize("loss", [LossKind.squared(),
                                      LossKind.cross_entropy()],
                             ids=["squared", "xent"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_prediction_step_equals_reference(self, loss, optimizer):
        n, m, batch = 9, 11, 40
        rho = ErrorParams(0.2, 0.1)
        cfg = SgdConfig(learning_rate=0.7, weight_decay=1e-3,
                        optimizer=optimizer)
        for seed in range(20):
            rng = make_rng(100 + seed)
            u = rng.integers(0, n, size=batch)
            i = rng.integers(0, m, size=batch)
            # from no observed row to every row observed
            o = (rng.random(batch) < seed / 19).astype(np.float64)
            r = (rng.random(batch) < 0.5).astype(np.float64) * o
            p = rng.uniform(0.05, 1.0, size=batch)
            got, want = unit_model(seed, n, m), unit_model(seed, n, m)
            assert np.array_equal(
                dr_grad_coefs(got, u, i, o / p, lambda f:
                              label_loss_grad(loss, f, r, rho), batch),
                ref_surrogate_grad_coefs(want, u, i, o, r, p, rho, loss))
            got_opt, want_opt = Optimizer(cfg), Optimizer(cfg)
            for _ in range(3):
                sgd_step_surrogate(got, u, i, o, r, p, None, rho, loss, cfg,
                                   got_opt)
                ref_sgd_step_surrogate(want, u, i, o, r, p, None, rho, loss,
                                       cfg, want_opt)
                assert_same_model(got, want)

    def test_batch_without_observed_rows(self):
        # every coefficient is 0: only weight decay moves the embeddings
        n, m, batch = 9, 11, 40
        rng = make_rng(7)
        u = rng.integers(0, n, size=batch)
        i = rng.integers(0, m, size=batch)
        o, r = np.zeros(batch), np.zeros(batch)
        p = rng.uniform(0.05, 1.0, size=batch)
        rho = ErrorParams(0.2, 0.1)
        cfg = SgdConfig(learning_rate=0.7, weight_decay=1e-3)
        got, want = unit_model(7, n, m), unit_model(7, n, m)
        before = unit_model(7, n, m)
        sgd_step_surrogate(got, u, i, o, r, p, None, rho,
                           LossKind.squared(), cfg, Optimizer(cfg))
        ref_sgd_step_surrogate(want, u, i, o, r, p, None, rho,
                               LossKind.squared(), cfg, Optimizer(cfg))
        assert_same_model(got, want)
        assert np.array_equal(got.user_emb,
                              before.user_emb - 0.7 * (1e-3 * before.user_emb))
        assert not np.array_equal(got.user_emb, before.user_emb)
        for name in ("user_bias", "item_bias"):
            assert np.array_equal(getattr(got, name), getattr(before, name))
        assert got.global_bias == before.global_bias

    @pytest.mark.parametrize("observed", [0.0, 1.0])
    def test_zero_propensity_in_prediction_step_diverges(self, observed):
        # o/p is 0/0 = NaN on an unobserved row and 1/0 = inf on an observed
        # one; both raised when every row was scored, and both still do
        n, m, batch = 9, 11, 40
        rng = make_rng(8)
        u = rng.integers(0, n, size=batch)
        i = rng.integers(0, m, size=batch)
        o = (rng.random(batch) < 0.3).astype(np.float64)
        o[0] = observed
        r = o.copy()
        p = rng.uniform(0.05, 1.0, size=batch)
        p[0] = 0.0
        cfg = SgdConfig()
        for step in (sgd_step_surrogate, ref_sgd_step_surrogate):
            with np.errstate(invalid="ignore", divide="ignore"), \
                    pytest.raises(TrainingDivergence,
                                  match="non-finite gradient in prediction"):
                step(unit_model(8, n, m), u, i, o, r, p, None,
                     ErrorParams(0.1, 0.1), LossKind.squared(), cfg,
                     Optimizer(cfg))

    def test_nan_prediction_in_imputation_step_diverges(self):
        model = FactorModel.init(4, 5, 2, make_rng(9))
        u, i = np.array([0, 1, 3]), np.array([1, 4, 2])
        pred = np.array([0.3, np.nan, 0.6])
        cfg = SgdConfig()
        with pytest.raises(TrainingDivergence, match="imputation step"):
            sgd_step_imputation(model, u, i, np.ones(3), np.ones(3),
                                np.full(3, 0.5), pred, ErrorParams(0.1, 0.1),
                                LossKind.squared(), cfg, Optimizer(cfg))


class TestPropensityCheck:
    """Both training entry points check p_hat by estimation's rule, every
    entry in (0, 1], before any step: a bad entry on an observed or an
    unobserved cell is a ValidationError, and nothing warns."""

    bad = pytest.mark.parametrize(
        "bad", [0.0, np.nan, -0.1, 1.5],
        ids=["zero", "nan", "negative", "above-one"])
    observed = pytest.mark.parametrize("observed", [True, False],
                                       ids=["observed", "unobserved"])

    @staticmethod
    def inputs(bad, observed):
        d, _ = separable_instance(4, 0.2, 0.1, 0.3, n=30, m=25)
        p_hat = make_rng(11).uniform(0.2, 1.0, size=d.shape)
        p_hat.flat[(np.argmax if observed else np.argmin)(
            d.observed_mask)] = bad
        return d, p_hat, NoisyRateModel(0.1 + 0.7 * d.true_ratings)

    @staticmethod
    def rejects(train, monkeypatch):
        steps = []
        monkeypatch.setattr(_kernels, "factor_backward",
                            lambda *args: steps.append(args))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError,
                               match=r"propensities must lie in \(0, 1\]"):
                train()
        assert steps == []
        assert [w for w in caught
                if issubclass(w.category, RuntimeWarning)] == []

    @observed
    @bad
    @pytest.mark.parametrize("method", ["naive", "ips", "eib", "dr"])
    def test_pretraining_rejects(self, method, bad, observed, monkeypatch):
        d, p_hat, _ = self.inputs(bad, observed)
        cfg = SgdConfig(learning_rate=0.5, batch_size=64, max_epochs=1,
                        seed=6)
        self.rejects(lambda: train_noisy_factor_model(d, method, cfg, 4,
                                                      p_hat=p_hat),
                     monkeypatch)

    @observed
    @bad
    def test_alternating_rejects(self, bad, observed, monkeypatch):
        d, p_hat, noisy = self.inputs(bad, observed)
        config = AltTrainConfig(rho_init=ErrorParams(0.0, 0.0),
                                outer_loops=1, embedding_dim=4,
                                sgd_prediction=SgdConfig(batch_size=0))
        self.rejects(lambda: alternating_denoise_train(d, p_hat, noisy,
                                                       config),
                     monkeypatch)


class TestPretrainingMemory:
    """Pretraining holds one n*m permutation at a time and, for every
    method, no other n*m array."""

    @staticmethod
    def peak(method, epochs):
        rng = make_rng(12)
        o = (rng.random((400, 500)) < 0.1).astype(np.int8)
        d = RatingDataset(400, 500, o, (rng.random(o.shape) < 0.5) * o)
        p_hat = np.full(d.shape, 0.1)
        cfg = SgdConfig(batch_size=4096, max_epochs=epochs, seed=0)
        tracemalloc.start()
        try:
            train_noisy_factor_model(d, method, cfg, 8, p_hat=p_hat)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("method", ["naive", "ips", "eib", "dr"])
    def test_second_epoch_holds_one_permutation(self, method):
        assert self.peak(method, 2) <= 1.05 * self.peak(method, 1)

    def test_ips_holds_no_live_index(self):
        assert self.peak("ips", 1) <= 1.05 * self.peak("naive", 1)
