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


def fancy_scores(u, i, ue, ie, ub, ib, b0):
    """factor_scores written with fancy-index gathers."""
    return np.einsum("bd,bd->b", ue[u], ie[i]) + ub[u] + ib[i] + b0


def kernel_case(name):
    """(u, i, user_emb, item_emb, user_bias, item_bias, coef) for one edge
    case of the batch kernels."""
    if name == "empty":
        u, i, ue, ie, ub, ib, coef = random_problem(0)
        empty = np.array([], dtype=np.int64)
        return empty, empty, ue, ie, ub, ib, np.array([])
    if name == "d1":
        return random_problem(1, d=1)
    if name == "int32":
        u, i, *rest = random_problem(2)
        return (u.astype(np.int32), i.astype(np.int32), *rest)
    if name == "strided":
        u, i, ue, ie, ub, ib, coef = random_problem(3, batch=80)
        return u[::2], i[::2], ue, ie, ub, ib, coef[::2]
    if name == "untouched_rows":
        # 30 users and 25 items, but the batch uses users 0-4 and items 0-3
        rng = make_rng(4)
        u, i, ue, ie, ub, ib, coef = random_problem(4, n=30, m=25)
        return (rng.integers(0, 5, size=40), rng.integers(0, 4, size=40),
                ue, ie, ub, ib, coef)
    raise ValueError(name)


KERNEL_CASES = ["empty", "d1", "int32", "strided", "untouched_rows"]


class TestKernelsBitwise:
    @pytest.mark.parametrize("case", KERNEL_CASES + ["seed5"])
    def test_scores_equal_fancy_index_formula(self, case):
        args = (random_problem(5) if case == "seed5"
                else kernel_case(case))[:6]
        got = _kernels.factor_scores(*args, 0.37)
        assert got.shape == args[0].shape
        assert np.array_equal(got, fancy_scores(*args, 0.37))

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_backward_equals_loop_reference(self, case):
        u, i, ue, ie, ub, ib, coef = kernel_case(case)
        got = _kernels.factor_backward(u, i, ue, ie, coef)
        ref = loop_backward(u, i, ue, ie, coef)
        for a, b in zip(got[:4], ref[:4]):
            assert a.shape == b.shape
            assert np.array_equal(a, b)
        assert np.isclose(got[4], ref[4], rtol=1e-12, atol=1e-12)

    def test_untouched_rows_have_zero_gradient(self):
        u, i, ue, ie, _, _, coef = kernel_case("untouched_rows")
        g_ue, g_ie, g_ub, g_ib, _ = _kernels.factor_backward(
            u, i, ue, ie, coef)
        assert not g_ue[5:].any() and not g_ub[5:].any()
        assert not g_ie[4:].any() and not g_ib[4:].any()
        assert g_ue[:5].all() and g_ie[:4].all()


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


def ref_mc_dr_estimates(n_reps, seed, p_true, p_hat, e_bar, s1, s0, q1):
    """Reference for mc_dr_estimates: one whole-matrix uniform draw U, each
    cell's contribution (1 - o/p_hat) e_bar + (o/p_hat) s chosen by the two
    thresholds p_true q1 (o = r = 1) and p_true (o = 1, r = 0), then the
    row-wise mean."""
    u = np.random.default_rng(seed).random((n_reps, p_true.shape[0]))
    w = 1.0 / p_hat
    a1 = (1.0 - w) * e_bar + w * s1
    a0 = (1.0 - w) * e_bar + w * s0
    contrib = np.where(u < p_true * q1, a1, np.where(u < p_true, a0, e_bar))
    return np.mean(contrib, axis=1)


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


def dyadic(args):
    """mc_case arguments moved onto a dyadic grid: p_hat to the nearest power
    of two and e_bar, s1, s0 to multiples of 1/64. Every contribution and
    every partial sum of them is then exact in float64, so any summation
    order gives the same bits."""
    p_true, p_hat, e_bar, s1, s0, q1 = args
    p_hat = 2.0 ** np.round(np.log2(p_hat))
    e_bar, s1, s0 = (np.round(a * 64.0) / 64.0 for a in (e_bar, s1, s0))
    return p_true, p_hat, e_bar, s1, s0, q1


CASES = ["negative_surrogates", "p_hat_at_floor_and_one", "e_bar_zero"]


class TestMonteCarloReference:
    # the dot products round differently from np.mean over a row
    RTOL = 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_equals_reference(self, case):
        args = mc_case(case)
        got = _kernels.mc_dr_estimates(300, 3, *args)
        ref = ref_mc_dr_estimates(300, 3, *args)
        np.testing.assert_allclose(got, ref, rtol=self.RTOL, atol=0.0)

    # three run lengths inside one tile of the default height
    @pytest.mark.parametrize("n_reps", [15, 16, 17])
    @pytest.mark.parametrize("case", CASES)
    def test_equals_reference_bitwise(self, case, n_reps):
        # on dyadic inputs no sum rounds, so this pins, bit for bit, which
        # outcome each uniform of the stream draws
        args = dyadic(mc_case(case))
        got = _kernels.mc_dr_estimates(n_reps, 3, *args)
        ref = ref_mc_dr_estimates(n_reps, 3, *args)
        assert np.array_equal(got, ref)

    # 60 cells and 250 cells a tile: tiles of t = 4 replications, and runs
    # of 1, t - 1, t, t + 1, 2t + 1 and 3t + 1 replications
    TILE_RUNS = [1, 3, 4, 5, 9, 13]

    @pytest.mark.parametrize("n_reps", TILE_RUNS)
    def test_tiles_match_reference(self, monkeypatch, n_reps):
        monkeypatch.setattr(_kernels, "TILE_CELLS", 250)
        assert _kernels.tile_height(60) == 4
        args = mc_case("negative_surrogates")
        got = _kernels.mc_dr_estimates(n_reps, 3, *args)
        ref = ref_mc_dr_estimates(n_reps, 3, *args)
        np.testing.assert_allclose(got, ref, rtol=self.RTOL, atol=0.0)

    @pytest.mark.parametrize("n_reps", TILE_RUNS)
    def test_tiles_equal_reference_bitwise(self, monkeypatch, n_reps):
        monkeypatch.setattr(_kernels, "TILE_CELLS", 250)
        args = dyadic(mc_case("negative_surrogates"))
        got = _kernels.mc_dr_estimates(n_reps, 3, *args)
        ref = ref_mc_dr_estimates(n_reps, 3, *args)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("p, q1", [(0.3, 0.7), (0.8, 0.25)])
    def test_one_cell_law(self, p, q1):
        # p_hat = 1, e_bar = 0, s0 = 1, s1 = 2: a draw reads 0 when o = 0,
        # 1 when (o, r) = (1, 0) and 2 when (o, r) = (1, 1)
        n_reps = 20_000
        draws = _kernels.mc_dr_estimates(
            n_reps, 5, np.array([p]), np.ones(1), np.zeros(1),
            np.array([2.0]), np.ones(1), np.array([q1]))
        assert set(np.unique(draws)) <= {0.0, 1.0, 2.0}
        for value, prob in ((0.0, 1.0 - p), (1.0, p * (1.0 - q1)),
                            (2.0, p * q1)):
            freq = float(np.mean(draws == value))
            se = np.sqrt(prob * (1.0 - prob) / n_reps)
            assert abs(freq - prob) < 4 * se, value

    def test_cases_reach_their_edges(self):
        _, _, _, s1, s0, _ = mc_case("negative_surrogates")
        assert (np.minimum(s1, s0) < 0.0).any()
        _, _, _, s1, s0, _ = dyadic(mc_case("negative_surrogates"))
        assert (np.minimum(s1, s0) < 0.0).any()
        _, p_hat, _, _, _, _ = mc_case("p_hat_at_floor_and_one")
        assert set(np.unique(p_hat)) == {DEFAULT_PROPENSITY_FLOOR, 1.0}


def spread_values(seed, shape):
    """Values of both signs over twelve orders of magnitude, whose sum
    rounds differently under almost any other order of additions."""
    rng = make_rng(seed)
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)


def traced_cell_sum(a):
    """cell_sum over the row-major cells of a, and the ranges fill saw."""
    flat = a.ravel()
    ranges = []

    def fill(start, stop, out):
        ranges.append((start, stop))
        out[:] = flat[start:stop]

    return _kernels.cell_sum(fill, flat.size), ranges


class TestCellSum:
    T = _kernels.TILE_CELLS
    SHAPES = [(n,) for n in (1, 7, 8, 127, 128, 129, T - 1, T, T + 1,
                             2 * T + 9)] + [(1, 300_001), (2000, 2000)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_equals_numpy_sum_and_mean_bitwise(self, shape):
        # numpy's pairwise split rule is internal: a numpy that changes it
        # fails here
        a = spread_values(len(shape) * 1000 + shape[-1] % 1000, shape)
        got, ranges = traced_cell_sum(a)
        assert got == np.add.reduce(a, axis=None)
        assert got / a.size == np.mean(a)
        # fill sees ascending, non-empty ranges that exactly cover [0, n)
        assert ranges[0][0] == 0 and ranges[-1][1] == a.size
        assert all(stop == nxt for (_, stop), (nxt, _) in zip(ranges,
                                                              ranges[1:]))
        assert all(0 < stop - start <= self.T for start, stop in ranges)
        assert (len(ranges) == 1) == (a.size <= self.T)

    def test_data_tells_summation_orders_apart(self):
        # leaf partial sums added left to right, not pairwise, give another
        # value: the data above would catch a wrong tree
        a = spread_values(2001, (2000, 2000))
        _, ranges = traced_cell_sum(a)
        flat = a.ravel()
        in_sequence = 0.0
        for start, stop in ranges:
            in_sequence += float(np.add.reduce(flat[start:stop]))
        assert in_sequence != np.add.reduce(a, axis=None)

    @pytest.mark.parametrize("tile", [1, 21, 127, 128, 130])
    @pytest.mark.parametrize("n", [129, 130, 131, 259, 260, 261, 1000])
    def test_leaf_never_below_numpy_block(self, monkeypatch, tile, n):
        # numpy sums up to 128 cells in one 8-accumulator loop, so a
        # smaller tile must not split them
        monkeypatch.setattr(_kernels, "TILE_CELLS", tile)
        a = spread_values(n, (n,))
        got, ranges = traced_cell_sum(a)
        assert got == np.add.reduce(a)
        assert max(stop - start for start, stop in ranges) <= max(tile, 128)
