import numpy as np
import pytest

from noisyrec import _kernels
from noisyrec.data import make_rng


def random_problem(seed, n=12, m=9, d=4, batch=40):
    rng = make_rng(seed)
    u = rng.integers(0, n, size=batch)
    i = rng.integers(0, m, size=batch)
    user_emb = rng.normal(size=(n, d))
    item_emb = rng.normal(size=(m, d))
    user_bias = rng.normal(size=n)
    item_bias = rng.normal(size=m)
    coef = rng.normal(size=batch)
    return u, i, user_emb, item_emb, user_bias, item_bias, coef


def loop_scores(u, i, ue, ie, ub, ib, b0):
    """Per-row reference for factor_scores."""
    out = np.empty(u.shape[0])
    for b in range(u.shape[0]):
        s = b0 + ub[u[b]] + ib[i[b]]
        for k in range(ue.shape[1]):
            s += ue[u[b], k] * ie[i[b], k]
        out[b] = s
    return out


def loop_backward(u, i, ue, ie, coef):
    """Per-row reference for factor_backward: each contribution is added to
    its parameter in batch order."""
    g_ue = np.zeros_like(ue)
    g_ie = np.zeros_like(ie)
    g_ub = np.zeros(ue.shape[0])
    g_ib = np.zeros(ie.shape[0])
    g_b0 = 0.0
    for b in range(u.shape[0]):
        c = coef[b]
        for k in range(ue.shape[1]):
            g_ue[u[b], k] += c * ie[i[b], k]
            g_ie[i[b], k] += c * ue[u[b], k]
        g_ub[u[b]] += c
        g_ib[i[b]] += c
        g_b0 += c
    return g_ue, g_ie, g_ub, g_ib, g_b0


class TestLoopReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_scores_match_loop_reference(self, seed):
        u, i, ue, ie, ub, ib, _ = random_problem(seed)
        got = _kernels.factor_scores(u, i, ue, ie, ub, ib, 0.37)
        ref = loop_scores(u, i, ue, ie, ub, ib, 0.37)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed,batch", [(0, 40), (1, 40), (2, 500)])
    def test_backward_equals_loop_reference(self, seed, batch):
        # 12 users and 9 items, so most indices repeat within the batch
        u, i, ue, ie, _, _, coef = random_problem(seed, batch=batch)
        got = _kernels.factor_backward(u, i, ue, ie, coef)
        ref = loop_backward(u, i, ue, ie, coef)
        for a, b in zip(got[:4], ref[:4]):
            assert np.array_equal(a, b)
        # the global-bias gradient is numpy's pairwise sum, not the loop's
        # running sum, so the two may differ in the last bits
        assert np.isclose(got[4], ref[4], rtol=1e-12, atol=1e-12)

    def test_backward_duplicate_indices_accumulate(self):
        ue = np.ones((2, 2))
        ie = np.full((2, 2), 2.0)
        u = np.array([0, 0, 0])
        i = np.array([1, 1, 1])
        coef = np.array([1.0, 1.0, 1.0])
        g_ue, g_ie, g_ub, g_ib, g_b0 = _kernels.factor_backward(
            u, i, ue, ie, coef)
        assert np.array_equal(g_ue, [[6.0, 6.0], [0.0, 0.0]])
        assert np.array_equal(g_ie, [[0.0, 0.0], [3.0, 3.0]])
        assert np.array_equal(g_ub, [3.0, 0.0])
        assert np.array_equal(g_ib, [0.0, 3.0])
        assert g_b0 == 3.0


class TestMonteCarloKernel:
    def _inputs(self, seed, n_cells=50):
        rng = make_rng(seed)
        p_true = rng.uniform(0.2, 0.9, size=n_cells)
        p_hat = rng.uniform(0.2, 0.9, size=n_cells)
        e_bar = rng.normal(0.3, 0.1, size=n_cells)
        s1 = rng.normal(0.5, 0.2, size=n_cells)
        s0 = rng.normal(0.2, 0.2, size=n_cells)
        q1 = rng.uniform(0.1, 0.9, size=n_cells)
        return p_true, p_hat, e_bar, s1, s0, q1

    def test_deterministic_per_seed(self):
        args = self._inputs(0)
        a = _kernels.mc_dr_estimates(200, 7, *args)
        b = _kernels.mc_dr_estimates(200, 7, *args)
        assert np.array_equal(a, b)
        c = _kernels.mc_dr_estimates(200, 8, *args)
        assert not np.array_equal(a, c)

    def test_matches_analytic_expectation(self):
        # E[estimate] = mean over cells of
        # (1 - p/p_hat) e_bar + (p/p_hat)(q1 s1 + (1-q1) s0)
        p_true, p_hat, e_bar, s1, s0, q1 = self._inputs(1)
        w = p_true / p_hat
        expected = float(np.mean(
            (1.0 - w) * e_bar + w * (q1 * s1 + (1.0 - q1) * s0)))
        n_reps = 40_000
        draws = _kernels.mc_dr_estimates(n_reps, 11, p_true, p_hat, e_bar,
                                         s1, s0, q1)
        se = float(draws.std(ddof=1) / np.sqrt(n_reps))
        assert abs(float(draws.mean()) - expected) < 3 * se
