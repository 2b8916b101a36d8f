"""Acceptance suite: one test per release criterion, named by number.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. The statistical checks use fixed seeds so reruns are exact.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from noisyrec.data import (
    ErrorParams,
    ImputationMatrix,
    PredictionMatrix,
    PropensityMatrix,
    RatingDataset,
    make_rng,
)
from noisyrec.estimators import (
    ESTIMATORS,
    EstimatorInputs,
    bias_ome_dr_oracle,
    estimate_dr,
    estimate_eib,
    estimate_ips,
    estimate_ome_dr,
    estimate_ome_eib,
    estimate_ome_ips,
    monte_carlo_ome_dr,
    relative_error,
    true_inaccuracy,
)
from noisyrec.losses import (LossKind, label_loss_grad, loss_curves,
                             soft_label_loss_grad, surrogate_curves)
from noisyrec.metrics import auc, ndcg_at_k, recall_at_k
from noisyrec.models import (
    FactorModel,
    PropensityModel,
    SgdConfig,
    dr_grad_coefs,
    imputation_grad_coefs,
    imputation_objective,
    propensity_objective,
    surrogate_objective,
)
from noisyrec.synthbench import PRED_KINDS, BenchmarkSpec, sample_instance
from noisyrec.training import (
    PRETRAIN_LOSS,
    AltTrainConfig,
    alternating_denoise_train,
    pretrain_noisy_model,
    train_noisy_factor_model,
)
from noisyrec import _kernels

SQ = LossKind.squared()


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. surrogate unbiasedness identities
# ---------------------------------------------------------------------------

def test_criterion_01_surrogate_identity_exact():
    start = time.time()
    rng = make_rng(1)
    worst = 0.0
    for _ in range(1000):
        while True:
            r01, r10 = rng.uniform(0.0, 0.6, size=2)
            if r01 + r10 < 0.95:
                break
        rho = ErrorParams(r01, r10)
        pred = rng.uniform(1e-6, 1.0 - 1e-6)
        s1, s0 = surrogate_curves(SQ, np.float64(pred), rho)
        l1, l0 = loss_curves(SQ, np.float64(pred))
        worst = max(worst,
                    abs((1 - r01) * s1 + r01 * s0 - l1),
                    abs((1 - r10) * s0 + r10 * s1 - l0))
    elapsed = time.time() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    _report(1, f"1000 draws, max identity residual {worst:.2e}, "
               f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. corrected-DR unbiasedness on a 20x30 instance
# ---------------------------------------------------------------------------

def _unbiasedness_instance(seed=2, n=20, m=30):
    rng = make_rng(seed)
    gamma = rng.uniform(0.05, 0.95, size=(n, m))
    r_true = (rng.random((n, m)) < gamma).astype(np.int8)
    p_true = rng.uniform(0.1, 0.9, size=(n, m))
    pred = PredictionMatrix(rng.uniform(0.05, 0.95, size=(n, m)))
    return rng, r_true, p_true, pred


def test_criterion_02_ome_dr_unbiased_three_regimes():
    start = time.time()
    rng, r_true, p_true, pred = _unbiasedness_instance()
    rho = ErrorParams(0.2, 0.1)
    target = true_inaccuracy(pred, r_true, SQ)
    e_accurate = np.where(r_true == 1, (pred.r_hat - 1.0) ** 2,
                          pred.r_hat ** 2)
    e_wrong = rng.normal(0.3, 0.2, size=r_true.shape)
    p_wrong = np.clip(p_true * rng.uniform(0.5, 1.5, size=p_true.shape),
                      0.05, 1.0)
    regimes = {
        "true p_hat, arbitrary e_bar": (p_true, e_wrong),
        "accurate e_bar, wrong p_hat": (p_wrong, e_accurate),
        "true p_hat, wrong e_bar": (p_true, e_wrong * 1.7 + 0.1),
    }
    n_reps = 50_000
    details = []
    for label, (p_hat, e_bar) in regimes.items():
        ests = monte_carlo_ome_dr(
            r_true, pred, PropensityMatrix.clipped(p_true),
            PropensityMatrix.clipped(p_hat), ImputationMatrix(e_bar),
            rho, rho, SQ, n_reps, seed=20 + len(details))
        se = float(ests.std(ddof=1) / np.sqrt(n_reps))
        dev = abs(float(ests.mean()) - target)
        assert dev <= 3 * se, f"{label}: |bias| {dev:.2e} > 3 SE {3 * se:.2e}"
        details.append(f"{label}: {dev / se:.2f} SE")
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(2, "; ".join(details) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. closed-form bias oracle vs Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_03_bias_oracle_matches_monte_carlo():
    start = time.time()
    rng = make_rng(3)
    n = m = 10
    n_reps = 100_000
    worst_ratio = 0.0
    for trial in range(20):
        r_true = (rng.random((n, m)) < rng.uniform(0.2, 0.8)).astype(np.int8)
        p_true = rng.uniform(0.2, 0.9, size=(n, m))
        p_hat = np.clip(p_true * rng.uniform(0.6, 1.4, size=(n, m)), 0.05, 1.0)
        pred = PredictionMatrix(rng.uniform(0.1, 0.9, size=(n, m)))
        e_bar = rng.normal(0.3, 0.2, size=(n, m))
        rho_true = ErrorParams(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        rho_hat = ErrorParams(rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        pt = PropensityMatrix.clipped(p_true)
        ph = PropensityMatrix.clipped(p_hat)
        eb = ImputationMatrix(e_bar)
        oracle = bias_ome_dr_oracle(r_true, pred, pt, ph, eb, rho_true,
                                    rho_hat, SQ)
        ests = monte_carlo_ome_dr(r_true, pred, pt, ph, eb, rho_true,
                                  rho_hat, SQ, n_reps, seed=300 + trial)
        target = true_inaccuracy(pred, r_true, SQ)
        se = float(ests.std(ddof=1) / np.sqrt(n_reps))
        gap = abs(abs(float(ests.mean()) - target) - oracle)
        assert gap <= 3 * se, f"trial {trial}: gap {gap:.2e} > 3 SE"
        worst_ratio = max(worst_ratio, gap / se)
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(3, f"20 mis-specifications, worst gap {worst_ratio:.2f} SE, "
               f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. bitwise degeneration identities
# ---------------------------------------------------------------------------

def test_criterion_04_degeneration_identities_bitwise():
    rng = make_rng(4)
    n, m = 15, 12
    gamma = rng.uniform(0.1, 0.9, size=(n, m))
    r_true = (rng.random((n, m)) < gamma).astype(np.int8)
    o = (rng.random((n, m)) < 0.6).astype(np.int8)
    flips = rng.random((n, m))
    rho = ErrorParams(0.2, 0.1)
    r_obs = np.where(r_true == 1, (flips >= 0.2).astype(np.int8),
                     (flips < 0.1).astype(np.int8))
    d = RatingDataset(n, m, o, r_obs * o, r_true)
    pred = PredictionMatrix(rng.uniform(0.05, 0.95, size=(n, m)))
    p = PropensityMatrix.clipped(rng.uniform(0.1, 0.9, size=(n, m)))
    e_bar = ImputationMatrix(rng.normal(0.3, 0.2, size=(n, m)))

    def inputs(**kw):
        base = dict(dataset=d, predictions=pred, loss=SQ, p_hat=p,
                    e_bar=e_bar, rho_hat=rho)
        base.update(kw)
        return EstimatorInputs(**base)

    checks = []
    zero_e = inputs(e_bar=ImputationMatrix(np.zeros((n, m))))
    assert estimate_ome_dr(zero_e) == estimate_ome_ips(inputs())
    checks.append("OME-DR(e_bar=0) == OME-IPS")
    unit_p = inputs(p_hat=PropensityMatrix(np.ones((n, m))))
    assert estimate_ome_dr(unit_p) == estimate_ome_eib(inputs())
    checks.append("OME-DR(p_hat=1) == OME-EIB")
    rho0 = inputs(rho_hat=ErrorParams(0.0, 0.0),
                  e_bar=ImputationMatrix(np.where(
                      d.observed_ratings == 1, (pred.r_hat - 1.0) ** 2,
                      pred.r_hat ** 2)))
    assert estimate_ome_eib(rho0) == estimate_eib(rho0)
    assert estimate_ome_ips(rho0) == estimate_ips(rho0)
    assert estimate_ome_dr(rho0) == estimate_dr(rho0)
    checks.append("corrected family at rho=(0,0) == plain family")
    _report(4, "; ".join(checks) + " (all bitwise)")


# ---------------------------------------------------------------------------
# 5. surrogate Lipschitz bound
# ---------------------------------------------------------------------------

def test_criterion_05_surrogate_lipschitz_bound():
    grid = np.arange(0.01, 0.99 + 1e-12, 1e-4)
    worst_margin = np.inf
    for r01 in (0.0, 0.1, 0.2, 0.3):
        for r10 in (0.0, 0.1, 0.2, 0.3):
            rho = ErrorParams(r01, r10)
            s1, s0 = surrogate_curves(SQ, grid, rho)
            slope = float(np.abs(np.diff(np.stack([s1, s0]))).max() / 1e-4)
            bound = 2.0 * 2.0 / rho.denom + 1e-6
            assert slope <= bound, f"rho=({r01},{r10}): {slope} > {bound}"
            worst_margin = min(worst_margin, bound - slope)
    _report(5, f"16 rho pairs, grid 1e-4, min bound margin "
               f"{worst_margin:.3e}")


# ---------------------------------------------------------------------------
# 6. qualitative benchmark replication at 500x500
# ---------------------------------------------------------------------------

def test_criterion_06_benchmark_relative_errors():
    start = time.time()
    rho = ErrorParams(0.2, 0.1)
    wins = 0
    summary = []
    for kind in PRED_KINDS:
        res = {name: [] for name in ("naive", "dr", "ome_dr")}
        for seed in range(10):
            spec = BenchmarkSpec(500, 500, 0.2, 0.1, pred_kind=kind,
                                 alpha=0.5, seed=seed)
            inst = sample_instance(spec)
            d = inst.to_dataset()
            target = true_inaccuracy(inst.prediction, inst.true_ratings, SQ)
            o = d.observed_mask
            r_bar = float((o * d.observed_ratings).sum() / o.sum())
            l1, l0 = loss_curves(SQ, inst.prediction.r_hat)
            inputs = EstimatorInputs(
                dataset=d, predictions=inst.prediction, loss=SQ,
                p_hat=PropensityMatrix.clipped(inst.p_true),
                e_bar=ImputationMatrix(r_bar * l1 + (1.0 - r_bar) * l0),
                rho_hat=rho)
            for name in res:
                res[name].append(
                    relative_error(target, ESTIMATORS[name](inputs)))
        means = {name: float(np.mean(vals)) for name, vals in res.items()}
        win = means["ome_dr"] < means["dr"] and means["ome_dr"] < means["naive"]
        wins += win
        summary.append(f"{kind}:{means['ome_dr']:.3f}")
        if kind in ("ONE", "THREE", "FIVE"):
            assert means["ome_dr"] <= 0.05, f"{kind}: RE {means['ome_dr']}"
    elapsed = time.time() - start
    assert wins >= 5, f"corrected DR won on only {wins}/6 prediction matrices"
    assert elapsed < 600.0
    _report(6, f"wins {wins}/6; mean RE " + " ".join(summary)
               + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. flip-rate estimation error vs observation ratio
# ---------------------------------------------------------------------------

def _separable_instance(seed, rho01, rho10, obs_ratio, n=100, m=100):
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
    return (RatingDataset(n, m, o, r_obs * o, r_star),
            np.full((n, m), obs_ratio))


def test_criterion_07_rho_error_decreases_with_observation_ratio():
    start = time.time()
    ratios = (0.2, 0.4, 0.6, 0.8, 1.0)
    mean_err = []
    for ratio in ratios:
        errs = []
        for seed in range(5):
            d, p = _separable_instance(seed, 0.2, 0.1, ratio)
            h = pretrain_noisy_model(
                d, "naive",
                SgdConfig(learning_rate=1.0, batch_size=2048,
                          weight_decay=1e-2, max_epochs=300, seed=seed), 8)
            config = AltTrainConfig(
                rho_init=ErrorParams(0.0, 0.0),
                steps_prediction=10, steps_imputation=10, outer_loops=30,
                embedding_dim=8, k_extreme=400,
                sgd_prediction=SgdConfig(learning_rate=1.0, batch_size=4096,
                                         weight_decay=1e-5, seed=seed),
                sgd_imputation=SgdConfig(learning_rate=0.1, batch_size=4096,
                                         weight_decay=1e-5, seed=seed))
            _, _, trace = alternating_denoise_train(d, p, h, config)
            last = trace.records[-1]
            errs.append(0.5 * (abs(last.rho01_hat - 0.2)
                               + abs(last.rho10_hat - 0.1)))
            if ratio == 1.0:
                assert abs(last.rho01_hat - 0.2) <= 0.05
                assert abs(last.rho10_hat - 0.1) <= 0.05
        mean_err.append(float(np.mean(errs)))
    corr, _ = spearmanr(ratios, mean_err)
    assert corr <= -0.8, f"Spearman {corr:.2f} > -0.8; errors {mean_err}"
    elapsed = time.time() - start
    _report(7, f"Spearman {corr:.2f}; mean errors "
               + " ".join(f"{e:.3f}" for e in mean_err) + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. analytic gradients vs finite differences
# ---------------------------------------------------------------------------

def _flat_factor(model):
    return np.concatenate([model.user_emb.ravel(), model.item_emb.ravel(),
                           model.user_bias, model.item_bias,
                           [model.global_bias]])


def _set_flat_factor(model, theta):
    n, d = model.user_emb.shape
    m = model.item_emb.shape[0]
    k = 0
    model.user_emb = theta[k:k + n * d].reshape(n, d); k += n * d
    model.item_emb = theta[k:k + m * d].reshape(m, d); k += m * d
    model.user_bias = theta[k:k + n]; k += n
    model.item_bias = theta[k:k + m]; k += m
    model.global_bias = float(theta[k])


def _fd_check(model, objective, analytic, h=1e-5, floor=1e-6):
    theta0 = _flat_factor(model).copy()
    numeric = np.empty_like(theta0)
    for j in range(theta0.size):
        theta = theta0.copy()
        theta[j] += h
        _set_flat_factor(model, theta)
        hi = objective(model)
        theta[j] -= 2 * h
        _set_flat_factor(model, theta)
        lo = objective(model)
        numeric[j] = (hi - lo) / (2 * h)
    _set_flat_factor(model, theta0)
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _xent(f, t):
    return -t * np.log(f) - (1.0 - t) * np.log(1.0 - f)


def test_criterion_08_gradient_oracles():
    start = time.time()
    n, m, d, batch = 4, 5, 2, 12
    rho = ErrorParams(0.2, 0.1)
    worst = {"ome_dr": 0.0, "dr_soft_label": 0.0, "imputation": 0.0,
             "propensity": 0.0}
    for draw in range(100):
        rng = make_rng(800 + draw)
        u = rng.integers(0, n, size=batch)
        i = rng.integers(0, m, size=batch)
        o = (rng.random(batch) < 0.7).astype(np.float64)
        r = (rng.random(batch) < 0.5).astype(np.float64)
        p = rng.uniform(0.1, 0.9, size=batch)
        e_bar = rng.normal(0.3, 0.2, size=batch)

        model = FactorModel.init(n, m, d, rng)
        model.user_emb = rng.normal(size=(n, d))
        model.item_emb = rng.normal(size=(m, d))
        model.user_bias = rng.normal(size=n)
        model.item_bias = rng.normal(size=m)
        model.global_bias = float(rng.normal())
        f = model.forward(u, i)
        coef = dr_grad_coefs(f, o, p, label_loss_grad(SQ, f, r, rho), batch)
        g = _kernels.factor_backward(u, i, model.user_emb, model.item_emb,
                                     coef)
        analytic = np.concatenate([g[0].ravel(), g[1].ravel(), g[2], g[3],
                                   [g[4]]])
        err = _fd_check(model, lambda mm: surrogate_objective(
            mm, u, i, o, r, p, e_bar, rho, SQ), analytic)
        assert err <= 1e-4, f"draw {draw}: corrected-DR grad err {err:.2e}"
        worst["ome_dr"] = max(worst["ome_dr"], err)

        # the pretraining objective, whose imputed term carries gradient:
        # mean[(1 - w) xent(f, r_bar) + w xent(f, r)], with dr's weight
        # w = o/p and eib's w = o on alternate draws, stepped through the
        # pretraining loss's soft-label derivative
        r_bar = float(np.mean(r))
        p_w = p if draw % 2 else 1.0
        w = o / p_w
        coef = dr_grad_coefs(f, o, p_w, label_loss_grad(PRETRAIN_LOSS, f, r),
                             batch,
                             soft_label_loss_grad(PRETRAIN_LOSS, f, r_bar))
        g = _kernels.factor_backward(u, i, model.user_emb, model.item_emb,
                                     coef)
        analytic = np.concatenate([g[0].ravel(), g[1].ravel(), g[2], g[3],
                                   [g[4]]])
        err = _fd_check(model, lambda mm: float(np.mean(
            (1.0 - w) * _xent(mm.forward(u, i), r_bar)
            + w * _xent(mm.forward(u, i), r))), analytic)
        assert err <= 1e-4, f"draw {draw}: soft-label DR grad err {err:.2e}"
        worst["dr_soft_label"] = max(worst["dr_soft_label"], err)

        imp = FactorModel.init(n, m, d, rng)
        imp.user_emb = rng.normal(size=(n, d))
        imp.item_emb = rng.normal(size=(m, d))
        imp.user_bias = rng.normal(size=n)
        imp.item_bias = rng.normal(size=m)
        imp.global_bias = float(rng.normal())
        pred_b = rng.uniform(0.1, 0.9, size=batch)
        coef_i = imputation_grad_coefs(imp, u, i, o, r, p, pred_b, rho, SQ)
        g = _kernels.factor_backward(u, i, imp.user_emb, imp.item_emb, coef_i)
        analytic = np.concatenate([g[0].ravel(), g[1].ravel(), g[2], g[3],
                                   [g[4]]])
        err = _fd_check(imp, lambda mm: imputation_objective(
            mm, u, i, o, r, p, pred_b, rho, SQ), analytic)
        assert err <= 1e-4, f"draw {draw}: imputation grad err {err:.2e}"
        worst["imputation"] = max(worst["imputation"], err)

        prop = PropensityModel(rng.normal(size=n), rng.normal(size=m))
        o_full = (rng.random((n, m)) < 0.5).astype(np.float64)
        coef_p = (prop.predict_all() - o_full) / (n * m)
        analytic = np.concatenate([coef_p.sum(axis=1), coef_p.sum(axis=0)])
        theta0 = np.concatenate([prop.user_logit, prop.item_logit])
        numeric = np.empty_like(theta0)
        h = 1e-5
        for j in range(theta0.size):
            for sign in (h, -2 * h):
                theta0[j] += sign
                prop.user_logit = theta0[:n]
                prop.item_logit = theta0[n:]
                if sign > 0:
                    hi = propensity_objective(prop, o_full)
                else:
                    lo = propensity_objective(prop, o_full)
            theta0[j] += h
            numeric[j] = (hi - lo) / (2 * h)
        denom = np.maximum(np.abs(numeric), 1e-6)
        err = float(np.max(np.abs(analytic - numeric) / denom))
        assert err <= 1e-4, f"draw {draw}: propensity grad err {err:.2e}"
        worst["propensity"] = max(worst["propensity"], err)
    elapsed = time.time() - start
    _report(8, "; ".join(f"{k} max rel err {v:.2e}"
                         for k, v in worst.items()) + f"; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. ranking metric brute-force oracles
# ---------------------------------------------------------------------------

def _auc_brute(scores, labels):
    total = 0.0
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    for sp in pos:
        total += float((sp > neg).sum()) + 0.5 * float((sp == neg).sum())
    return total / (pos.size * neg.size)


def _topk_brute(scores, k):
    return sorted(range(scores.size), key=lambda j: (-scores[j], j))[:k]


def test_criterion_09_metric_oracles_exact():
    rng = make_rng(9)
    for trial in range(100):
        n_u = int(rng.integers(1, 51))
        n_i = int(rng.integers(5, 101))
        k = int(rng.integers(1, min(n_i, 20) + 1))
        scores = np.round(rng.random((n_u, n_i)), 1)
        labels = (rng.random((n_u, n_i)) < 0.4).astype(int)
        if not labels.any():
            labels[0, 0] = 1
        flat_s, flat_l = scores.ravel(), labels.ravel()
        if 0 < flat_l.sum() < flat_l.size:
            assert auc(flat_s, flat_l) == pytest.approx(
                _auc_brute(flat_s, flat_l), abs=1e-12)
        ndcg_vals, rec_vals = [], []
        for u in range(n_u):
            n_pos = int(labels[u].sum())
            if n_pos == 0:
                continue
            top = _topk_brute(scores[u], k)
            disc = 1.0 / np.log2(np.arange(2, k + 2))
            dcg = sum(disc[rank] for rank, j in enumerate(top)
                      if labels[u][j] == 1)
            idcg = disc[:min(n_pos, k)].sum()
            ndcg_vals.append(dcg / idcg)
            rec_vals.append(sum(labels[u][j] for j in top) / n_pos)
        assert ndcg_at_k(scores, labels, k) == pytest.approx(
            float(np.mean(ndcg_vals)), abs=1e-12)
        assert recall_at_k(scores, labels, k) == pytest.approx(
            float(np.mean(rec_vals)), abs=1e-12)
    _report(9, "100 random instances, AUC/NDCG@K/Recall@K all equal "
               "brute-force references")


# ---------------------------------------------------------------------------
# 10. end-to-end: denoised training beats naive training
# ---------------------------------------------------------------------------

def _learnable_scores(seed, n=500, m=500):
    rng = make_rng(seed + 10_000)
    return (1.5 * rng.normal(size=(n, 1)) + 1.5 * rng.normal(size=(1, m))
            + rng.normal(size=(n, 3)) @ rng.normal(size=(3, m)) / np.sqrt(3)
            + 0.5 * rng.normal(size=(n, m)))


def test_criterion_10_denoised_training_beats_naive():
    start = time.time()
    wins = 0
    pairs = []
    for seed in range(5):
        spec = BenchmarkSpec(500, 500, 0.2, 0.1, pred_kind="ROTATE",
                             alpha=0.5, seed=seed)
        inst = sample_instance(spec, score_matrix=_learnable_scores(seed))
        d = inst.to_dataset()
        naive = train_noisy_factor_model(
            d, "naive",
            SgdConfig(learning_rate=1.0, batch_size=8192, weight_decay=1e-5,
                      max_epochs=30, seed=seed), 8)
        auc_naive = auc(naive.predict_all().ravel(),
                        inst.true_ratings.ravel())
        h = pretrain_noisy_model(
            d, "ips",
            SgdConfig(learning_rate=1.0, batch_size=8192, weight_decay=1e-3,
                      max_epochs=30, seed=seed), 8, p_hat=inst.p_hat)
        config = AltTrainConfig(
            rho_init=ErrorParams(0.0, 0.0),
            steps_prediction=10, steps_imputation=10, outer_loops=30,
            embedding_dim=8, k_extreme=250,
            sgd_prediction=SgdConfig(learning_rate=1.0, batch_size=8192,
                                     weight_decay=1e-5, seed=seed),
            sgd_imputation=SgdConfig(learning_rate=0.1, batch_size=8192,
                                     weight_decay=1e-5, seed=seed))
        alt, _, _ = alternating_denoise_train(d, inst.p_hat, h, config)
        auc_alt = auc(alt.predict_all().ravel(), inst.true_ratings.ravel())
        wins += auc_alt > auc_naive
        pairs.append(f"{auc_alt:.3f}>{auc_naive:.3f}")
    elapsed = time.time() - start
    assert wins >= 4, f"denoised training won only {wins}/5 paired seeds"
    assert elapsed < 900.0
    _report(10, f"wins {wins}/5 ({' '.join(pairs)}); {elapsed:.0f}s")
