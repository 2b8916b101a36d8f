import csv

import numpy as np
import pytest

from noisyrec.data import (
    ErrorParams,
    RatingDataset,
    ValidationError,
    make_rng,
)
from noisyrec.losses import LossKind
from noisyrec.metrics import auc
from noisyrec.models import (
    FactorModel,
    Optimizer,
    SgdConfig,
    new_imputation_model,
    sgd_step_imputation,
    sgd_step_surrogate,
)
from noisyrec.training import (
    AltTrainConfig,
    TrainTrace,
    TraceRecord,
    alternating_denoise_train,
    pretrain_noisy_model,
    train_noisy_factor_model,
)
from noisyrec.noise import NoisyRateModel


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


class TestAltTrainConfig:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValidationError):
            AltTrainConfig(rho_init=ErrorParams(0, 0), steps_prediction=0)


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
        assert np.allclose(imp.predict_all(), 0.0, atol=0.01)

    @pytest.mark.parametrize("k_extreme, ok", [(150, True), (151, False),
                                               (10**6, False)])
    def test_k_extreme_at_most_half_the_pairs(self, k_extreme, ok):
        # past n*m/2 the low and high sets overlap: rho_hat would be
        # (1 - mean(q), mean(q)) whatever the predictions
        d, p = separable_instance(0, 0.1, 0.1, n=20, m=15)
        h = NoisyRateModel(np.full((20, 15), 0.45))
        config = alt_config(0, outer_loops=0, k_extreme=k_extreme)
        if ok:
            _, _, trace = alternating_denoise_train(d, p, h, config)
            assert trace.records == []
        else:
            with pytest.raises(ValidationError,
                               match=r"k_extreme must be in \[1, n_pairs/2\]"):
                alternating_denoise_train(d, p, h, config)

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
        imp_model = new_imputation_model(n, m, config.embedding_dim, rng)
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
                    imp_model.scores(u, i), rho0, loss,
                    config.sgd_prediction, pred_opt)
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
