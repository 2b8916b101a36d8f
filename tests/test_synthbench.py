import json
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from noisyrec import _kernels
from noisyrec.data import (DEFAULT_PROPENSITY_FLOOR, ErrorParams,
                           ValidationError, make_rng)
from noisyrec.models import SgdConfig, TrainingDivergence
from noisyrec.synthbench import (
    GAMMA_LEVELS,
    PRED_KINDS,
    BenchmarkSpec,
    _five_scale,
    _near,
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

    def test_nan_p_base_rejected(self):
        # one rule with assign_propensities; NaN p_base was accepted
        with pytest.raises(ValidationError, match="p_base"):
            BenchmarkSpec(10, 10, 0.2, 0.1, p_base=np.nan)

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

    def test_skew_rejects_gamma_above_one(self):
        # a negative scale; rng.normal's own ValueError before
        with pytest.raises(ValidationError, match="gamma <= 1"):
            build_prediction_matrix("SKEW", np.array([[0.5, 1.5]]),
                                    make_rng(0))
        # a NaN beside it hides nothing; a NaN alone passes this check, as
        # 1 - NaN < 0 is false, and fails the prediction matrix's own
        with pytest.raises(ValidationError, match="gamma <= 1"):
            build_prediction_matrix("SKEW", np.array([[np.nan, 1.5]]),
                                    make_rng(0))
        with pytest.raises(ValidationError, match="strictly inside"):
            build_prediction_matrix("SKEW", np.array([[np.nan, 0.5]]),
                                    make_rng(0))
        build_prediction_matrix("SKEW", np.array([[1.0, 0.1]]), make_rng(0))

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

    @pytest.mark.parametrize("level", [0, 6, 7, -1])
    def test_level_outside_one_to_five_rejected(self, level):
        with pytest.raises(ValidationError, match="1..5"):
            assign_propensities(1.0, 0.5, np.array([[3, level]]))

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, np.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # alpha = 0 gave zero propensities, a negative alpha negative ones
        with pytest.raises(ValidationError, match="alpha"):
            assign_propensities(1.0, alpha, np.array([[1, 5]]))

    @pytest.mark.parametrize("p_base", [0.0, -1.0, np.nan])
    def test_nonpositive_p_base_rejected(self, p_base):
        with pytest.raises(ValidationError, match="p_base"):
            assign_propensities(p_base, 0.5, np.array([[1, 5]]))

    @pytest.mark.parametrize("p_base", [0.3, 1, 1.0, 3.0, 17])
    @pytest.mark.parametrize("alpha", [1, 1.0, 0.5, 0.1, 1e-3, 0.9999999])
    def test_table_equals_per_cell_power(self, p_base, alpha):
        five = make_rng(13).integers(1, 6, size=(37, 41))
        want = p_base * np.power(alpha, np.minimum(4, 6 - five))
        clipped = bool(np.any(want > 1.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = assign_propensities(p_base, alpha, five)
        assert [str(w.message) for w in caught] == (
            ["propensities above 1 clipped"] if clipped else [])
        want = np.minimum(want, 1.0).astype(np.float64)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

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

    def test_unknown_beta_mode_rejected(self):
        # "per-run" ran as per_pair before
        p, o = np.full((2, 2), 0.5), np.eye(2)
        with pytest.raises(ValidationError, match="beta_mode"):
            perturb_propensities(p, o, make_rng(0), beta_mode="per-run")
        with pytest.raises(ValidationError, match="beta_mode"):
            perturb_propensities(p, o, make_rng(0), beta_mode="x", beta=0.5)

    @pytest.mark.parametrize("beta", [np.nan, 2.0, -0.1, 1.0 + 1e-12,
                                      [[0.5, np.nan], [0.1, 0.2]],
                                      [[0.5, 1.5], [0.1, 0.2]]])
    def test_explicit_beta_outside_unit_interval_rejected(self, beta):
        # NaN gave an all-NaN p_hat, 2 a clipped 0.25
        with pytest.raises(ValidationError, match="beta"):
            perturb_propensities(np.full((2, 2), 0.5), np.eye(2),
                                 make_rng(0), beta=beta)

    def test_explicit_beta_array_left_unchanged(self):
        beta = make_rng(1).uniform(size=(3, 4))
        kept = beta.copy()
        p = np.full((3, 4), 0.4)
        got = perturb_propensities(p, np.eye(3, 4), make_rng(0), beta=beta)
        assert np.array_equal(beta, kept)
        want = np.clip(1.0 / ((1.0 - beta) / p + beta / 0.25),
                       DEFAULT_PROPENSITY_FLOOR, 1.0)
        assert got.tobytes() == want.tobytes()


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

    def test_gamma_matrix_needs_supplied_source(self):
        # a quantile spec would draw its own levels and drop the matrix
        spec = BenchmarkSpec(6, 5, 0.2, 0.1)
        with pytest.raises(ValidationError,
                           match="gamma_matrix needs gamma_source=supplied"):
            sample_instance(spec, gamma_matrix=np.full((6, 5), 0.9))

    def test_supplied_source_takes_no_score_matrix(self):
        spec = BenchmarkSpec(6, 5, 0.2, 0.1, gamma_source="supplied")
        with pytest.raises(ValidationError, match="takes no score_matrix"):
            sample_instance(spec, score_matrix=np.zeros((6, 5)),
                            gamma_matrix=np.full((6, 5), 0.9))

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


def _reference_instance(spec, score_matrix=None, gamma_matrix=None):
    """Reference: the generator written as whole-matrix expressions, one
    per step, drawing from the spec's seed in sample_instance's order. It
    returns the eight matrices in BenchmarkInstance's order, and the
    messages of the warnings it gave."""
    rng = make_rng(spec.seed)
    shape = (spec.n_users, spec.n_items)
    levels = np.asarray(GAMMA_LEVELS)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if gamma_matrix is not None:
            gamma = np.asarray(gamma_matrix, dtype=np.float64)
            if not np.isin(gamma, levels).all():
                raise ValidationError("supplied gamma must hold the levels")
            five = (np.searchsorted(levels, gamma) + 1).astype(np.int64)
        else:
            if score_matrix is None:
                a = rng.normal(size=(shape[0], 3))
                b = rng.normal(size=(3, shape[1]))
                score_matrix = a @ b + 0.5 * rng.normal(size=shape)
            gamma, five = _argsort_gamma(spec.gamma_proportions,
                                         score_matrix)
        kind = spec.pred_kind
        if kind == "ROTATE":
            r_hat = np.where(gamma >= 0.3, gamma - 0.2, 0.9)
        elif kind == "SKEW":
            r_hat = np.clip(rng.normal(gamma, (1.0 - gamma) / 2.0), 0.1, 0.9)
        elif kind == "CRS":
            r_hat = np.where(gamma <= 0.6, 0.2, 0.6)
        else:
            level = {"ONE": 0.1, "THREE": 0.3, "FIVE": 0.5}[kind]
            flat = gamma.copy().ravel()
            pool = np.flatnonzero(np.isclose(flat, level))
            n_flip = int(np.isclose(flat, 0.9).sum())
            if pool.size < n_flip:
                warnings.warn(f"only {pool.size} cells at level {level} "
                              f"available for {n_flip} flips; flipping all "
                              "of them")
                chosen = pool
            else:
                chosen = rng.choice(pool, size=n_flip, replace=False)
            flat[chosen] = 0.9
            r_hat = flat.reshape(shape)
        p = spec.p_base * np.power(spec.alpha, np.minimum(4, 6 - five))
        if np.any(p > 1.0):
            warnings.warn("propensities above 1 clipped")
            p = np.minimum(p, 1.0)
        p_true = p.astype(np.float64)
        o = (rng.random(shape) < p_true).astype(np.int8)
        r_true = (rng.random(shape) < gamma).astype(np.int8)
        flips = rng.random(shape)
        r_obs = np.where(r_true == 1, (flips >= spec.rho01).astype(np.int8),
                         (flips < spec.rho10).astype(np.int8))
        p_e = float(np.mean(o))
        if p_e == 0.0:
            raise ValidationError("no observations")
        beta = {"none": lambda: 0.0, "per_run": lambda: float(rng.uniform()),
                "per_pair": lambda: rng.uniform(size=shape)}[spec.beta_mode]()
        beta = np.asarray(beta, dtype=np.float64)
        p_hat = np.clip(1.0 / ((1.0 - beta) / p_true + beta / p_e),
                        spec.propensity_floor, 1.0)
    return ((gamma, five, r_hat, p_true, p_hat, o, r_true, r_obs),
            [str(w.message) for w in caught])


def _instance_matrices(spec, **supplied):
    """sample_instance's eight matrices, as _reference_instance gives them,
    and the messages of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = sample_instance(spec, **supplied)
    return ((inst.gamma, inst.five_scale, inst.prediction.r_hat, inst.p_true,
             inst.p_hat, inst.observed_mask, inst.true_ratings,
             inst.observed_ratings), [str(w.message) for w in caught])


class TestReferenceGenerator:
    """sample_instance evaluates the generator in fewer passes; the
    whole-matrix reference must give the same bytes from the same seed."""

    SHAPES = ((1, 41), (37, 1), (37, 41))

    def _assert_matches(self, spec, **supplied) -> bool:
        """Whether the reference made an instance; where it raises (a tiny
        instance with no observed cell), sample_instance must raise too."""
        try:
            want, want_warned = _reference_instance(spec, **supplied)
        except ValidationError:
            with pytest.raises(ValidationError):
                sample_instance(spec, **supplied)
            return False
        got, warned = _instance_matrices(spec, **supplied)
        assert warned == want_warned
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()
        return True

    @pytest.mark.parametrize("kind", PRED_KINDS)
    @pytest.mark.parametrize("beta_mode", ["per_pair", "per_run", "none"])
    def test_generated_scores(self, kind, beta_mode):
        matched = 0
        for seed in range(3):
            for shape in self.SHAPES:
                spec = BenchmarkSpec(*shape, 0.2, 0.1, pred_kind=kind,
                                     beta_mode=beta_mode, seed=seed)
                matched += self._assert_matches(spec)
        assert matched >= 6

    # more cells than one TILE_CELLS tile: the score product spans several
    # row tiles (254 rows of 129, 32 rows of 1000, one row of 300 001), and
    # the SKEW scale and the flip pool several flat tiles
    TILED_SHAPES = ((300, 129), (40, 1000), (1, 300_001))

    @pytest.mark.parametrize("kind", PRED_KINDS)
    @pytest.mark.parametrize("beta_mode", ["per_pair", "per_run", "none"])
    def test_generated_scores_over_several_tiles(self, kind, beta_mode):
        for seed, shape in enumerate(self.TILED_SHAPES):
            assert shape[0] * shape[1] > _kernels.TILE_CELLS
            spec = BenchmarkSpec(*shape, 0.2, 0.1, pred_kind=kind,
                                 beta_mode=beta_mode, seed=seed)
            assert self._assert_matches(spec)

    @pytest.mark.parametrize("kind", PRED_KINDS)
    def test_supplied_scores_and_spec_variants(self, kind):
        variants = (dict(), dict(alpha=1.0, p_base=0.3),
                    dict(p_base=3.0, alpha=0.2),
                    dict(gamma_proportions=(0.5, 0, 0, 0, 0.5), alpha=0.7,
                         propensity_floor=0.1))
        for seed, shape in enumerate(self.SHAPES):
            scores = make_rng(40 + seed).normal(size=shape)
            scores[0, 0] = scores.flat[-1]  # a tie
            for v in variants:
                spec = BenchmarkSpec(*shape, 0.3, 0.2, pred_kind=kind,
                                     seed=seed, **v)
                self._assert_matches(spec, score_matrix=scores)

    @pytest.mark.parametrize("kind", PRED_KINDS)
    def test_supplied_gamma(self, kind):
        for seed, shape in enumerate(self.SHAPES + ((60, 70),)):
            gamma = np.asarray(GAMMA_LEVELS)[
                make_rng(50 + seed).integers(0, 5, size=shape)]
            spec = BenchmarkSpec(*shape, 0.2, 0.1, pred_kind=kind, seed=seed,
                                 gamma_source="supplied")
            self._assert_matches(spec, gamma_matrix=gamma)

    # at level 0 a cell at the tolerance is near: isclose's <=, not <
    @pytest.mark.parametrize("level", [0.0, 0.1, 0.3, 0.5, 0.9])
    def test_near_is_isclose(self, level):
        tol = 1e-8 + 1e-5 * level
        values = [np.nan, np.inf, -np.inf, 0.0, -0.0, level, -level,
                  level + 1e-9, level - 1e-9, level + tol, level - tol,
                  np.nextafter(level + tol, np.inf),
                  np.nextafter(level - tol, -np.inf), 1e308, -1e308,
                  5e-324] + list(GAMMA_LEVELS)
        flat = np.array(values)
        assert np.array_equal(_near(flat, level), np.isclose(flat, level))
        fuzz = level + make_rng(14).normal(scale=2 * tol, size=10_000)
        assert np.array_equal(_near(fuzz, level), np.isclose(fuzz, level))


def _isin_five_scale(gamma, shape):
    """Reference: membership by np.isin, the rating by np.searchsorted."""
    if gamma.shape != shape or not np.isin(gamma, GAMMA_LEVELS).all():
        raise ValidationError("not the five levels")
    return (np.searchsorted(GAMMA_LEVELS, gamma) + 1).astype(np.int64)


class TestFiveScale:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (8, 1), (37, 41)])
    def test_levels_equal_searchsorted(self, shape):
        gamma = np.asarray(GAMMA_LEVELS)[
            make_rng(15).integers(0, 5, size=shape)]
        got = _five_scale(gamma, shape)
        want = _isin_five_scale(gamma, shape)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, 0.42, 0.2, 0.0, -0.0, 1.0,
                                     np.inf, -np.inf, -0.1,
                                     np.nextafter(0.3, 1.0),
                                     np.nextafter(0.9, 0.0)])
    def test_rejects_what_isin_rejects(self, bad):
        gamma = np.full((4, 6), 0.5)
        gamma[2, 3] = bad
        with pytest.raises(ValidationError):
            _isin_five_scale(gamma, gamma.shape)
        with pytest.raises(ValidationError, match="five levels"):
            _five_scale(gamma, gamma.shape)

    def test_rejects_wrong_shape(self):
        gamma = np.full((4, 6), 0.5)
        with pytest.raises(ValidationError, match="five levels"):
            _five_scale(gamma, (6, 4))
        with pytest.raises(ValidationError, match="five levels"):
            _five_scale(gamma.ravel(), (4, 6))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        for pred_kind in PRED_KINDS:
            spec = BenchmarkSpec(20, 5, 0.2, 0.1, seed=7, pred_kind=pred_kind)
            inst = sample_instance(spec)
            out = tmp_path / pred_kind
            save_instance(out, inst)
            back = load_instance(out)
            assert back.spec == spec
            pairs = [(back.prediction.r_hat, inst.prediction.r_hat)]
            pairs += [(getattr(back, name), getattr(inst, name)) for name in (
                "gamma", "five_scale", "p_true", "p_hat", "observed_mask",
                "true_ratings", "observed_ratings")]
            for a, b in pairs:
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
            for fname in ("o.npy", "r_true.npy", "r_obs.npy"):
                assert np.load(out / fname).dtype == np.int8

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
        (tmp_path / "inst" / "p_hat.npy").unlink()
        back = load_instance(tmp_path / "inst")
        assert back.p_hat is None
