import numpy as np
import pytest

from noisyrec import _kernels
from noisyrec.data import DEFAULT_PROPENSITY_FLOOR, ErrorParams, make_rng
from noisyrec.losses import LossKind, surrogate_curves


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


def ref_mc_dr_estimates(n_reps, seed, p_true, p_hat, e_bar, s1, s0, q1,
                        chunk=4096):
    """Reference for mc_dr_estimates: the all-cell contribution of every
    draw, (1 - o/p_hat) e_bar + (o/p_hat) s, from the same generator."""
    n_reps = int(n_reps)
    rng = np.random.default_rng(int(seed))
    n_cells = p_true.shape[0]
    out = np.empty(n_reps)
    done = 0
    while done < n_reps:
        m = min(chunk, n_reps - done)
        o = rng.random((m, n_cells)) < p_true
        r = rng.random((m, n_cells)) < q1
        w = o / p_hat
        contrib = (1.0 - w) * e_bar + w * np.where(r, s1, s0)
        out[done:done + m] = contrib.mean(axis=1)
        done += m
    return out


def mc_case(name, n_cells=60):
    rng = make_rng(5)
    p_true = rng.uniform(0.05, 0.95, size=n_cells)
    p_hat = rng.uniform(DEFAULT_PROPENSITY_FLOOR, 1.0, size=n_cells)
    e_bar = rng.normal(0.3, 0.2, size=n_cells)
    pred = rng.uniform(0.01, 0.99, size=n_cells)
    rho = ErrorParams(0.0, 0.0)
    loss = LossKind.squared()
    if name == "negative_surrogates":
        rho, loss = ErrorParams(0.25, 0.15), LossKind.cross_entropy()
    elif name == "p_hat_at_floor_and_one":
        p_hat = np.where(rng.random(n_cells) < 0.5,
                         DEFAULT_PROPENSITY_FLOOR, 1.0)
    elif name == "e_bar_zero":
        e_bar = np.zeros(n_cells)
    s1, s0 = surrogate_curves(loss, pred, rho)
    q1 = rng.uniform(0.1, 0.9, size=n_cells)
    return p_true, p_hat, e_bar, s1, s0, q1


class TestMonteCarloReference:
    CHUNK = 16

    @pytest.mark.parametrize("n_reps", [CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("case", ["negative_surrogates",
                                      "p_hat_at_floor_and_one", "e_bar_zero"])
    def test_equals_reference_bitwise(self, case, n_reps):
        args = mc_case(case)
        got = _kernels.mc_dr_estimates(n_reps, 3, *args, chunk=self.CHUNK)
        ref = ref_mc_dr_estimates(n_reps, 3, *args, chunk=self.CHUNK)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n_reps", [1, 3, 4, 5, 9, 13])
    def test_tiles_equal_reference_bitwise(self, monkeypatch, n_reps):
        # 60 cells and 250 cells a tile: tiles of t = 4 replications, and
        # chunks of 6 that end mid-tile
        monkeypatch.setattr(_kernels, "TILE_CELLS", 250)
        args = mc_case("negative_surrogates")
        got = _kernels.mc_dr_estimates(n_reps, 3, *args, chunk=6)
        ref = ref_mc_dr_estimates(n_reps, 3, *args, chunk=6)
        assert np.array_equal(got, ref)

    def test_cases_reach_their_edges(self):
        _, _, _, s1, s0, _ = mc_case("negative_surrogates")
        assert (np.minimum(s1, s0) < 0.0).any()
        _, p_hat, _, _, _, _ = mc_case("p_hat_at_floor_and_one")
        assert set(np.unique(p_hat)) == {DEFAULT_PROPENSITY_FLOOR, 1.0}
