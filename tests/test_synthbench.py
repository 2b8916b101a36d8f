import json

import numpy as np
import pytest
from scipy.stats import norm

from noisyrec.data import ErrorParams, ValidationError, make_rng
from noisyrec.models import SgdConfig, TrainingDivergence
from noisyrec.synthbench import (
    GAMMA_LEVELS,
    BenchmarkSpec,
    assign_propensities,
    build_gamma,
    build_prediction_matrix,
    complete_ratings_mf,
    load_instance,
    perturb_propensities,
    sample_instance,
    save_instance,
)


class TestSpecValidation:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            BenchmarkSpec(10, 10, 0.2, 0.1, gamma_proportions=(0.3,) * 5)

    @pytest.mark.parametrize("props", [(0.25, 0.25, 0.25, 0.25),
                                       (np.nan, 0.25, 0.25, 0.25, 0.25),
                                       (0.5, -0.1, 0.2, 0.2, 0.2)])
    def test_malformed_proportions_rejected(self, props):
        with pytest.raises(ValidationError, match="gamma_proportions"):
            BenchmarkSpec(10, 10, 0.2, 0.1, gamma_proportions=props)
        with pytest.raises(ValidationError, match="gamma_proportions"):
            build_gamma(props, make_rng(0).random((4, 4)))

    def test_alpha_range(self):
        with pytest.raises(ValidationError):
            BenchmarkSpec(10, 10, 0.2, 0.1, alpha=0.0)

    def test_bad_pred_kind(self):
        with pytest.raises(ValidationError):
            BenchmarkSpec(10, 10, 0.2, 0.1, pred_kind="WRONG")

    def test_manifest_hash_stable(self):
        a = BenchmarkSpec(10, 10, 0.2, 0.1, seed=3)
        b = BenchmarkSpec(10, 10, 0.2, 0.1, seed=3)
        assert a.manifest() == b.manifest()
        c = BenchmarkSpec(10, 10, 0.2, 0.1, seed=4)
        assert c.manifest()["spec_hash"] != a.manifest()["spec_hash"]


class TestBuildGamma:
    def test_single_level(self):
        gamma, five = build_gamma((1, 0, 0, 0, 0), make_rng(0).random((4, 4)))
        assert np.all(gamma == 0.1)
        assert np.all(five == 1)

    def test_hand_sorted_assignment(self):
        gamma, five = build_gamma((0.2,) * 5, np.array([[5, 4, 3, 2, 1]]))
        assert np.allclose(gamma, [[0.9, 0.7, 0.5, 0.3, 0.1]])
        assert np.array_equal(five, [[5, 4, 3, 2, 1]])

    def test_uniform_scores_even_fifths(self):
        gamma, _ = build_gamma((0.2,) * 5, make_rng(1).random((100, 100)))
        for level in GAMMA_LEVELS:
            assert abs(int((gamma == level).sum()) - 2000) <= 1

    def test_row_permutation_equivariance(self):
        scores = make_rng(2).random((10, 7))
        gamma, _ = build_gamma((0.2,) * 5, scores)
        perm = make_rng(3).permutation(10)
        gamma_p, _ = build_gamma((0.2,) * 5, scores[perm])
        assert np.array_equal(gamma_p, gamma[perm])

    def test_nan_score_rejected(self):
        scores = np.array([[0.1, np.nan, 0.3], [0.4, 0.5, 0.6]])
        with pytest.raises(ValidationError, match="NaN"):
            build_gamma((0.2,) * 5, scores)
        spec = BenchmarkSpec(2, 3, 0.2, 0.1, seed=0)
        with pytest.raises(ValidationError, match="NaN"):
            sample_instance(spec, score_matrix=scores)

    def test_infinite_scores_ordered(self):
        gamma, five = build_gamma((0.2,) * 5,
                                  [[np.inf, 0.0, -np.inf, 1.0, -1.0]])
        assert np.array_equal(five, [[5, 3, 1, 4, 2]])
        assert np.array_equal(gamma, [[0.9, 0.5, 0.1, 0.7, 0.3]])


def _argsort_gamma(proportions, score_matrix):
    """Reference: full stable argsort, then the levels in rank blocks."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    flat = scores.ravel()
    n = flat.size
    order = np.argsort(flat, kind="stable")
    bounds = np.round(np.cumsum(proportions) * n).astype(int)
    level_idx = np.empty(n, dtype=np.int64)
    start = 0
    for lvl, stop in enumerate(bounds):
        level_idx[order[start:stop]] = lvl
        start = stop
    level_idx[order[start:]] = len(GAMMA_LEVELS) - 1
    gamma = np.asarray(GAMMA_LEVELS)[level_idx].reshape(scores.shape)
    five_scale = (level_idx + 1).reshape(scores.shape)
    return gamma, five_scale


def _assert_same_levels(proportions, scores):
    gamma, five = build_gamma(proportions, scores)
    ref_gamma, ref_five = _argsort_gamma(proportions, scores)
    for got, want in ((gamma, ref_gamma), (five, ref_five)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestBuildGammaReference:
    """build_gamma places each cut by partition; the argsort reference
    ranks every cell. Both must give the same bytes, ties included."""

    FIXED_PROPORTIONS = ((0.2,) * 5, (0, 0.5, 0, 0.5, 0), (1, 0, 0, 0, 0),
                         (0, 0, 0, 0, 1), (0.5, 0, 0, 0, 0.5),
                         (0.1, 0.2, 0.3, 0.25, 0.15))

    @staticmethod
    def _scores(rng, case, shape):
        if case == 0:   # integers: heavy ties across every cut
            return rng.integers(-3, 4, size=shape).astype(np.float64)
        if case == 1:   # signed zeros tie with each other
            return rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape)
        if case == 2:
            return rng.choice([-np.inf, np.inf, -0.0, 0.0, 2.5], size=shape)
        if case == 3:
            return rng.integers(0, 2, size=shape)
        return rng.normal(size=shape)

    def test_fuzz_equals_argsort(self):
        rng = make_rng(11)
        for t in range(1200):
            n, m = rng.integers(1, 40, size=2)
            shape = ((1, 1), (1, m), (n, 1), (n, m))[t % 4]
            scores = self._scores(rng, t % 5, shape)
            if t % 3 == 0:
                props = self.FIXED_PROPORTIONS[
                    rng.integers(len(self.FIXED_PROPORTIONS))]
            else:
                w = rng.random(5) * (rng.random(5) < 0.7)
                props = tuple(w / w.sum()) if w.sum() > 0 else (0.2,) * 5
            _assert_same_levels(props, scores)

    def test_large_matrix_equals_argsort(self):
        rng = make_rng(12)
        scores = rng.normal(size=(2000, 2000))
        scores[:50] = np.round(scores[:50], 1)  # tied values near each cut
        _assert_same_levels((0.2,) * 5, scores)


class TestCompleteRatings:
    def test_rank1_noiseless_reconstruction(self):
        rng = make_rng(4)
        a = rng.uniform(0.5, 1.5, size=8)
        b = rng.uniform(0.5, 1.5, size=6)
        target = np.outer(a, b)
        triples = [(u, i, target[u, i]) for u in range(8) for i in range(6)]
        cfg = SgdConfig(learning_rate=0.1, batch_size=0, weight_decay=0.0,
                        max_epochs=5000, seed=0)
        scores = complete_ratings_mf(triples, 8, 6, d=2, config=cfg)
        rmse = float(np.sqrt(np.mean((scores - target) ** 2)))
        assert rmse <= 0.05

    def test_overflowing_step_diverges(self):
        # one full-batch step at lr 1e308 sends the global bias to +inf
        cfg = SgdConfig(learning_rate=1e308, batch_size=0, weight_decay=0.0,
                        max_epochs=1, seed=0)
        triples = [(0, 0, 4.0), (0, 1, 5.0), (1, 0, 3.0)]
        with pytest.raises(TrainingDivergence), np.errstate(over="ignore"):
            complete_ratings_mf(triples, 2, 2, d=2, config=cfg)

    def test_zero_epochs_near_zero_scores(self):
        cfg = SgdConfig(max_epochs=0, seed=0)
        scores = complete_ratings_mf([(0, 0, 3.0)], 2, 2, d=2, config=cfg)
        assert np.all(np.abs(scores) < 0.01)

    def test_half_observed_rank2_completion(self):
        rng = make_rng(5)
        a = rng.normal(size=(15, 2))
        b = rng.normal(size=(2, 12))
        target = a @ b
        mask = rng.random((15, 12)) < 0.5
        triples = [(u, i, target[u, i]) for u in range(15) for i in range(12)
                   if mask[u, i]]
        held = [(u, i) for u in range(15) for i in range(12) if not mask[u, i]]
        cfg = SgdConfig(learning_rate=0.1, batch_size=0, weight_decay=1e-3,
                        max_epochs=20000, seed=0)
        scores = complete_ratings_mf(triples, 15, 12, d=2, config=cfg)
        errs = [scores[u, i] - target[u, i] for u, i in held]
        assert float(np.sqrt(np.mean(np.square(errs)))) <= 0.2


class TestPredictionMatrices:
    def test_rotate_rule(self):
        gamma = np.array([[0.1, 0.3, 0.5, 0.7, 0.9]])
        pred = build_prediction_matrix("ROTATE", gamma, make_rng(0))
        assert np.allclose(pred.r_hat, [[0.9, 0.1, 0.3, 0.5, 0.7]])

    def test_crs_rule(self):
        gamma = np.array([[0.1, 0.3, 0.5, 0.7, 0.9]])
        pred = build_prediction_matrix("CRS", gamma, make_rng(0))
        assert np.allclose(pred.r_hat, [[0.2, 0.2, 0.2, 0.6, 0.6]])

    def test_skew_clipped_normal_moment(self):
        gamma = np.full((400, 250), 0.9)
        pred = build_prediction_matrix("SKEW", gamma, make_rng(6))
        draws = pred.r_hat
        assert draws.min() >= 0.1 and draws.max() <= 0.9
        # E[clip(N(0.9, 0.05), 0.1, 0.9)] via the truncated-moment identity
        mu, sd = 0.9, 0.05
        lo, hi = 0.1, 0.9
        a, b = (lo - mu) / sd, (hi - mu) / sd
        expected = (lo * norm.cdf(a)
                    + hi * (1 - norm.cdf(b))
                    + mu * (norm.cdf(b) - norm.cdf(a))
                    - sd * (norm.pdf(b) - norm.pdf(a)))
        assert float(draws.mean()) == pytest.approx(expected, abs=3e-3)

    def test_flip_kinds_preserve_counts(self):
        gamma, _ = build_gamma((0.2,) * 5, make_rng(7).random((40, 40)))
        n9 = int((gamma == 0.9).sum())
        for kind, level in (("ONE", 0.1), ("THREE", 0.3), ("FIVE", 0.5)):
            pred = build_prediction_matrix(kind, gamma, make_rng(8))
            flipped = (pred.r_hat == 0.9) & (gamma == level)
            assert int(flipped.sum()) == n9
            untouched = ~np.isclose(gamma, level)
            assert np.array_equal(pred.r_hat[untouched], gamma[untouched])

    def test_flip_pool_exhaustion_warns(self):
        gamma = np.array([[0.1, 0.9, 0.9, 0.9]])
        with pytest.warns(UserWarning, match="flips"):
            pred = build_prediction_matrix("ONE", gamma, make_rng(9))
        assert np.all(pred.r_hat == 0.9)


class TestPropensities:
    def test_formula_values(self):
        five = np.array([[5, 1]])
        p = assign_propensities(1.0, 0.5, five)
        assert np.allclose(p, [[0.5, 0.0625]])

    def test_alpha_one_uniform(self):
        p = assign_propensities(0.3, 1.0, np.array([[1, 3, 5]]))
        assert np.allclose(p, 0.3)

    def test_monotone_in_rating(self):
        p = assign_propensities(1.0, 0.5, np.array([[1, 2, 3, 4, 5]]))
        assert np.all(np.diff(p[0]) >= 0)

    def test_above_one_clipped_with_warning(self):
        with pytest.warns(UserWarning, match="clipped"):
            p = assign_propensities(3.0, 0.5, np.array([[5]]))
        assert p[0, 0] == 1.0

    def test_perturb_endpoints_and_hand_value(self):
        p = np.full((2, 2), 0.5)
        o = np.zeros((2, 2))
        o[0, 0] = 1  # p_e = 0.25
        rng = make_rng(0)
        assert np.allclose(perturb_propensities(p, o, rng, beta=0.0), 0.5)
        assert np.allclose(perturb_propensities(p, o, rng, beta=1.0), 0.25)
        assert np.allclose(perturb_propensities(p, o, rng, beta=0.5), 1 / 3)

    def test_perturb_requires_observations(self):
        with pytest.raises(ValidationError):
            perturb_propensities(np.full((2, 2), 0.5), np.zeros((2, 2)),
                                 make_rng(0))


class TestSampling:
    def test_noiseless_observed_equals_truth(self):
        spec = BenchmarkSpec(30, 30, 0.0, 0.0, seed=1)
        inst = sample_instance(spec)
        on = inst.observed_mask == 1
        assert np.array_equal(inst.observed_ratings[on], inst.true_ratings[on])

    def test_true_rating_rate_matches_gamma(self):
        spec = BenchmarkSpec(400, 250, 0.0, 0.0, seed=2,
                             gamma_proportions=(0, 0, 0, 0, 1.0))
        inst = sample_instance(spec)
        n = inst.true_ratings.size
        se = np.sqrt(0.9 * 0.1 / n)
        assert abs(inst.true_ratings.mean() - 0.9) < 3 * se

    def test_flip_rates_on_all_positive_gamma(self):
        spec = BenchmarkSpec(400, 250, 0.2, 0.1, seed=3,
                             gamma_source="supplied")
        inst = sample_instance(spec, gamma_matrix=np.full((400, 250), 0.9))
        pos = inst.true_ratings == 1
        rate = float(inst.observed_ratings[pos].mean())
        se = np.sqrt(0.8 * 0.2 / pos.sum())
        assert abs(rate - 0.8) < 3 * se

    def test_noisy_rate_linkage(self):
        spec = BenchmarkSpec(300, 300, 0.2, 0.1, seed=4)
        inst = sample_instance(spec)
        expected = (1 - 0.2 - 0.1) * float(inst.gamma.mean()) + 0.1
        n = inst.observed_ratings.size
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(inst.observed_ratings.mean() - expected) < 3 * se

    def test_determinism_and_seed_sensitivity(self):
        spec = BenchmarkSpec(25, 25, 0.2, 0.1, seed=5)
        a = sample_instance(spec)
        b = sample_instance(spec)
        assert np.array_equal(a.observed_ratings, b.observed_ratings)
        assert np.array_equal(a.p_hat, b.p_hat)
        c = sample_instance(BenchmarkSpec(25, 25, 0.2, 0.1, seed=6))
        assert not np.array_equal(a.observed_mask, c.observed_mask)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        spec = BenchmarkSpec(12, 9, 0.2, 0.1, seed=7, pred_kind="SKEW")
        inst = sample_instance(spec)
        save_instance(tmp_path / "inst", inst)
        back = load_instance(tmp_path / "inst")
        assert back.spec == spec
        assert np.array_equal(back.gamma, inst.gamma)
        assert np.array_equal(back.prediction.r_hat, inst.prediction.r_hat)
        assert np.array_equal(back.p_true, inst.p_true)
        assert np.array_equal(back.p_hat, inst.p_hat)
        assert np.array_equal(back.observed_mask, inst.observed_mask)
        assert np.array_equal(back.true_ratings, inst.true_ratings)
        assert np.array_equal(back.observed_ratings, inst.observed_ratings)

    @pytest.mark.parametrize("spec", [
        BenchmarkSpec(10, 8, 0.2, 0.1, p_base=1, seed=4),
        BenchmarkSpec(10, 8, 0, 0.1, alpha=1, propensity_floor=0.1, seed=5)])
    def test_int_in_float_field_reloads_unchanged(self, tmp_path, spec):
        # read back as the int it was written as, so the manifest and its
        # hash, which every report's first line carries, stay the same
        save_instance(tmp_path / "inst", sample_instance(spec))
        back = load_instance(tmp_path / "inst").spec
        assert back == spec
        assert back.manifest() == spec.manifest()
        assert json.loads((tmp_path / "inst" / "manifest.json").read_text()
                          ) == json.loads(json.dumps(back.manifest()))

    def test_missing_p_hat_tolerated(self, tmp_path):
        spec = BenchmarkSpec(6, 6, 0.1, 0.1, seed=8)
        inst = sample_instance(spec)
        save_instance(tmp_path / "inst", inst)
        (tmp_path / "inst" / "p_hat.csv").unlink()
        back = load_instance(tmp_path / "inst")
        assert back.p_hat is None
