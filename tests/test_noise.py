import numpy as np
import pytest

from noisyrec.data import EPS_RHO, ErrorParams, ValidationError, make_rng
from noisyrec.noise import (
    NoSeparationWarning,
    NoisyRateModel,
    clamp_error_params,
    extreme_cells,
    identify_error_params,
    rates_at_extremes,
)


class TestNoisyRateModel:
    def test_rejects_boundary_entries(self):
        with pytest.raises(ValidationError):
            NoisyRateModel(np.array([[0.0, 0.5]]))
        with pytest.raises(ValidationError):
            NoisyRateModel(np.array([[1.0, 0.5]]))

    def test_rejects_nan(self):
        # a NaN passes q <= 0 and q >= 1; identification then read
        # rho01_hat = 0 from it
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            NoisyRateModel(np.array([[0.2, np.nan], [0.5, 0.7]]))


class TestFindExtremePairs:
    """extreme_cells at k = 1: the argmin and the argmax, as flat indices."""

    def test_basic(self):
        r = np.array([[0.5, 0.2], [0.9, 0.4]])
        lo, hi = extreme_cells(r, 1)
        assert lo.tolist() == [1]  # (0, 1)
        assert hi.tolist() == [2]  # (1, 0)

    def test_ties_break_row_major(self):
        r = np.array([[0.5, 0.2], [0.2, 0.5]])
        lo, hi = extreme_cells(r, 1)
        assert lo.tolist() == [1]  # (0, 1), not (1, 0)
        assert hi.tolist() == [0]  # (0, 0), not (1, 1)


class TestClamp:
    def test_valid_pair_untouched(self):
        params, clamped = clamp_error_params(0.2, 0.1)
        assert (params.rho01, params.rho10) == (0.2, 0.1)
        assert not clamped

    def test_negative_floored(self):
        params, clamped = clamp_error_params(-0.05, 0.1)
        assert params.rho01 == 0.0
        assert params.rho10 == 0.1
        assert clamped

    def test_overlarge_sum_scaled(self):
        params, clamped = clamp_error_params(0.6, 0.6)
        assert clamped
        assert params.rho01 == pytest.approx(params.rho10)
        assert params.rho01 + params.rho10 <= 1.0 - EPS_RHO


class TestIdentification:
    def test_hand_value_extremes(self):
        q = np.array([[0.10, 0.50], [0.85, 0.40]])
        rho = identify_error_params(NoisyRateModel(q), k_extreme=1)
        assert rho.rho01 == pytest.approx(0.15)
        assert rho.rho10 == pytest.approx(0.10)

    def test_exact_recovery_from_linkage(self):
        rng = make_rng(0)
        rho01, rho10 = 0.2, 0.1
        gamma = rng.uniform(size=(8, 8))
        gamma[0, 0] = 0.0
        gamma[-1, -1] = 1.0
        q = (1.0 - rho01 - rho10) * gamma + rho10
        rho = identify_error_params(NoisyRateModel(q), k_extreme=1)
        assert rho.rho01 == pytest.approx(rho01, abs=1e-12)
        assert rho.rho10 == pytest.approx(rho10, abs=1e-12)

    def test_degenerate_constant_warns_and_clamps(self):
        q = np.full((4, 4), 0.5)
        with pytest.warns(NoSeparationWarning):
            rho = identify_error_params(NoisyRateModel(q), k_extreme=1)
        assert rho.rho01 + rho.rho10 <= 1.0 - EPS_RHO
        assert rho.rho01 == pytest.approx(rho.rho10)

    def test_k_extreme_bounds(self):
        q = NoisyRateModel(np.full((2, 3), 0.4))
        with pytest.raises(ValidationError):
            identify_error_params(q, k_extreme=0)
        with pytest.raises(ValidationError):
            identify_error_params(q, k_extreme=4)

    def test_larger_k_averages_noise(self):
        # separable linkage plus per-cell noise on q: averaging the extremes
        # should help compared with single-cell extremes
        rng = make_rng(5)
        rho01, rho10 = 0.2, 0.1
        errs = {1: [], 50: []}
        for rep in range(20):
            gamma = rng.uniform(size=(60, 60))
            gamma[0, 0] = 0.0
            gamma[-1, -1] = 1.0
            q = (1.0 - rho01 - rho10) * gamma + rho10
            q = np.clip(q + rng.normal(0.0, 0.03, size=q.shape), 1e-4,
                        1.0 - 1e-4)
            for k in errs:
                est = identify_error_params(NoisyRateModel(q), k_extreme=k)
                errs[k].append(abs(est.rho01 - rho01) + abs(est.rho10 - rho10))
        assert np.mean(errs[50]) < np.mean(errs[1])

    def test_monotone_linkage_preserves_extreme_locations(self):
        rng = make_rng(8)
        gamma = rng.uniform(size=(10, 10))
        rho = ErrorParams(0.25, 0.05)
        q = rho.denom * gamma + rho.rho10
        lo_g, hi_g = extreme_cells(gamma, 1)
        lo_q, hi_q = extreme_cells(q, 1)
        assert np.array_equal(lo_g, lo_q)
        assert np.array_equal(hi_g, hi_q)


def reference_extremes(values, k):
    """The one tie rule by brute force: the first k of a stable ascending
    argsort and the first k of a stable descending one, each by ascending
    value, ties by index."""
    lo = np.argsort(values, kind="stable")[:k]
    hi = np.argsort(-values, kind="stable")[:k]
    return lo, hi[np.lexsort((hi, values[hi]))]


def tied_predictions(seed, n=12, m=10):
    """Few distinct values, so ties straddle both k-extreme boundaries."""
    rng = make_rng(seed)
    return rng.integers(0, 4, size=(n, m)) / 4.0 + 0.1


class TestExtremeSelection:
    @pytest.mark.parametrize("case", ["ties", "all_equal", "k_1", "k_half"])
    def test_selection_equals_stable_argsort(self, case):
        pred = (np.full(120, 0.5) if case == "all_equal"
                else tied_predictions(32).ravel())
        k = {"k_1": 1, "k_half": 60}.get(case, 7)
        if case == "ties":
            # the boundary value at both ends is shared with unselected cells
            srt = np.sort(pred)
            assert srt[k - 1] == srt[k] and srt[-k] == srt[-k - 1]
        lo, hi = extreme_cells(pred, k)
        want_lo, want_hi = reference_extremes(pred, k)
        assert np.array_equal(lo, want_lo)
        assert np.array_equal(hi, want_hi)
        # by ascending value, so the means sum in the order of a sorted copy
        assert np.all(np.diff(pred[lo]) >= 0)
        assert np.all(np.diff(pred[hi]) >= 0)
        if case == "k_1":
            assert (lo[0], hi[0]) == (np.argmin(pred), np.argmax(pred))

    def test_hand_example(self):
        v = np.array([5.0, 1.0, 3.0, 4.0, 3.0, 0.0, 3.0])
        lo, hi = extreme_cells(v, 3)
        assert lo.tolist() == [5, 1, 2]
        assert hi.tolist() == [2, 3, 0]

    @pytest.mark.parametrize("case", ["ties", "all_equal", "k_half"])
    def test_rates_equal_stable_argsort(self, case):
        rng = make_rng(30)
        q = rng.uniform(0.05, 0.45, size=(12, 10))
        pred = {"ties": tied_predictions(31),
                "all_equal": np.full((12, 10), 0.5),
                "k_half": rng.random((12, 10))}[case]
        k = 60 if case == "k_half" else 7
        lo, hi = reference_extremes(pred.ravel(), k)
        want = clamp_error_params(1.0 - float(np.mean(q.ravel()[hi])),
                                  float(np.mean(q.ravel()[lo])))
        assert rates_at_extremes(q, k, pred) == want

    def test_rates_k1_take_row_major_first_ties(self):
        q = make_rng(33).uniform(0.05, 0.45, size=(4, 5))
        pred = np.full((4, 5), 0.5)
        pred[1, 3] = pred[2, 0] = 0.1  # tied minimum
        pred[0, 4] = pred[3, 2] = 0.9  # tied maximum
        lo, hi = extreme_cells(pred, 1)
        assert (lo.tolist(), hi.tolist()) == ([1 * 5 + 3], [0 * 5 + 4])
        got = rates_at_extremes(q, 1, pred)
        assert got == clamp_error_params(1.0 - q[0, 4], q[1, 3])

    def test_identification_is_the_selection_on_q(self):
        q = np.clip(tied_predictions(34, n=30, m=20) + 0.05, 0.01, 0.99)
        for k in (1, 7, 300):
            lo, hi = reference_extremes(q.ravel(), k)
            want = clamp_error_params(1.0 - float(np.mean(q.ravel()[hi])),
                                      float(np.mean(q.ravel()[lo])))[0]
            assert identify_error_params(NoisyRateModel(q), k) == want

    def test_rejects_nan_and_k_out_of_range(self):
        with pytest.raises(ValidationError, match="NaN"):
            extreme_cells(np.array([0.1, np.nan, 0.3, 0.2]), 1)
        for k in (0, 3):
            with pytest.raises(ValidationError, match="k_extreme"):
                extreme_cells(np.arange(5.0), k)
