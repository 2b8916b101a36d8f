import dataclasses
import gc
import tracemalloc
import weakref

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyrec.data import (
    DEFAULT_PROPENSITY_FLOOR,
    ErrorParams,
    ImputationMatrix,
    PredictionMatrix,
    PropensityMatrix,
    RatingDataset,
    ValidationError,
    make_rng,
)
from noisyrec import _kernels, estimators
from noisyrec.estimators import (
    ESTIMATORS,
    EstimatorInputs,
    bias_ome_dr_oracle,
    estimate_dr,
    estimate_eib,
    estimate_ips,
    estimate_naive,
    estimate_ome_dr,
    estimate_ome_eib,
    estimate_ome_ips,
    monte_carlo_ome_dr,
    relative_error,
    true_inaccuracy,
)
from noisyrec.losses import LossKind, label_loss, loss_curves

SQ = LossKind.squared()


def small_instance(seed=0, n=5, m=5, rho=None, p_lo=0.1, p_hi=0.9):
    """Random instance with true ratings, true propensities, observed sample."""
    rng = make_rng(seed)
    gamma = rng.uniform(0.1, 0.9, size=(n, m))
    r_true = (rng.random((n, m)) < gamma).astype(np.int8)
    p_true = rng.uniform(p_lo, p_hi, size=(n, m))
    o = (rng.random((n, m)) < p_true).astype(np.int8)
    if rho is None:
        rho = ErrorParams(0.0, 0.0)
    flips = rng.random((n, m))
    r_obs = np.where(r_true == 1, (flips >= rho.rho01).astype(np.int8),
                     (flips < rho.rho10).astype(np.int8))
    d = RatingDataset(n, m, o, r_obs, r_true)
    pred = PredictionMatrix(rng.uniform(0.05, 0.95, size=(n, m)))
    return d, pred, p_true, rho


def make_inputs(d, pred, p=None, e_bar=None, rho=None, floor=0.05):
    return EstimatorInputs(
        dataset=d, predictions=pred, loss=SQ,
        p_hat=None if p is None else PropensityMatrix.clipped(p, floor),
        e_bar=None if e_bar is None else ImputationMatrix(e_bar),
        rho_hat=rho)


class TestTrueInaccuracy:
    def test_hand_value_1x2(self):
        pred = PredictionMatrix(np.array([[0.3, 0.8]]))
        r_star = np.array([[1, 0]])
        assert true_inaccuracy(pred, r_star, SQ) == pytest.approx(0.565)

    def test_constant_half(self):
        pred = PredictionMatrix(np.full((3, 4), 0.5))
        r_star = (make_rng(1).random((3, 4)) < 0.5).astype(int)
        assert true_inaccuracy(pred, r_star, SQ) == pytest.approx(0.25)

    def test_near_perfect_model(self):
        r_star = np.array([[1, 0], [0, 1]])
        pred = PredictionMatrix(np.abs(r_star - 1e-6))
        assert true_inaccuracy(pred, r_star, SQ) == pytest.approx(0.0, abs=1e-10)

    def test_missing_truth_errors(self):
        pred = PredictionMatrix(np.full((2, 2), 0.5))
        with pytest.raises(ValidationError):
            true_inaccuracy(pred, None, SQ)

    @pytest.mark.parametrize("truth, match", [
        (np.ones((6, 1), dtype=np.int8), "shape"),  # would broadcast
        (np.ones((5, 6), dtype=np.int8), "shape"),
        (np.full((6, 5), 3), "entries"),            # would score as 0
        (np.full((6, 5), 0.5), "entries"),
        (np.full((6, 5), np.nan), "entries"),
    ])
    def test_bad_truth_rejected(self, truth, match):
        pred = PredictionMatrix(np.full((6, 5), 0.4))
        with pytest.raises(ValidationError, match=match):
            true_inaccuracy(pred, truth, SQ)


class TestPlainEstimators:
    def test_naive_full_observation_equals_inaccuracy(self):
        d, pred, _, _ = small_instance()
        full = RatingDataset(d.n_users, d.n_items,
                             np.ones(d.shape, np.int8), d.true_ratings,
                             d.true_ratings)
        inputs = make_inputs(full, pred)
        assert estimate_naive(inputs) == pytest.approx(
            true_inaccuracy(pred, full.true_ratings, SQ))

    def test_naive_singleton(self):
        o = np.zeros((2, 2), np.int8)
        o[1, 0] = 1
        r = np.zeros((2, 2), np.int8)
        r[1, 0] = 1
        d = RatingDataset(2, 2, o, r)
        pred = PredictionMatrix(np.full((2, 2), 0.4))
        assert estimate_naive(make_inputs(d, pred)) == pytest.approx(0.36)

    def test_naive_empty_errors(self):
        d = RatingDataset(2, 2, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="no observed pairs"):
            estimate_naive(make_inputs(d, PredictionMatrix(np.full((2, 2), 0.5))))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_pair_universe_errors(self, shape):
        d = RatingDataset(*shape, np.zeros(shape), np.zeros(shape))
        for fn in ESTIMATORS.values():
            with pytest.raises(ValidationError,
                               match="the pair universe is empty"):
                fn(make_inputs(d, PredictionMatrix(np.full(shape, 0.5)),
                               p=np.full(shape, 0.5), e_bar=np.zeros(shape),
                               rho=ErrorParams(0.1, 0.1)))

    def test_naive_biased_under_mnar(self):
        # positives observed with propensity 1, negatives with 0.1
        rng = make_rng(3)
        n, m = 40, 40
        r_true = (rng.random((n, m)) < 0.5).astype(np.int8)
        p = np.where(r_true == 1, 1.0, 0.1)
        o = (rng.random((n, m)) < p).astype(np.int8)
        d = RatingDataset(n, m, o, r_true, r_true)
        pred = PredictionMatrix(np.full((n, m), 0.2))
        naive = estimate_naive(make_inputs(d, pred))
        target = true_inaccuracy(pred, r_true, SQ)
        assert abs(naive - target) > 0.05

    def test_all_equal_naive_when_fully_observed_unit_propensity(self):
        d, pred, _, _ = small_instance()
        full = RatingDataset(d.n_users, d.n_items, np.ones(d.shape, np.int8),
                             d.true_ratings, d.true_ratings)
        p = np.ones(d.shape)
        e_obs = np.where(full.observed_ratings == 1,
                         (pred.r_hat - 1.0) ** 2, pred.r_hat ** 2)
        inputs = make_inputs(full, pred, p=p, e_bar=e_obs)
        naive = estimate_naive(inputs)
        assert estimate_ips(inputs) == pytest.approx(naive)
        assert estimate_eib(inputs) == pytest.approx(naive)
        assert estimate_dr(inputs) == pytest.approx(naive)

    def test_ips_mc_unbiased_2x2(self):
        rng = make_rng(7)
        r_true = np.array([[1, 0], [0, 1]], dtype=np.int8)
        p = np.array([[0.9, 0.3], [0.4, 0.8]])
        pred = PredictionMatrix(np.array([[0.7, 0.2], [0.5, 0.6]]))
        target = true_inaccuracy(pred, r_true, SQ)
        e = np.where(r_true == 1, (pred.r_hat - 1) ** 2, pred.r_hat ** 2)
        n_reps = 100_000
        draws = rng.random((n_reps, 2, 2)) < p
        ests = np.mean(draws * e / p, axis=(1, 2))
        se = ests.std(ddof=1) / np.sqrt(n_reps)
        assert abs(ests.mean() - target) < 3 * se
        # and the library IPS value on one realization matches the formula
        o = draws[0].astype(np.int8)
        if o.sum() > 0:
            d = RatingDataset(2, 2, o, r_true * o, r_true)
            lib = estimate_ips(make_inputs(d, pred, p=p))
            assert lib == pytest.approx(float(np.mean(o * e / p)))

    def test_dr_exact_when_imputation_accurate(self):
        d, pred, p, _ = small_instance(seed=11)
        e = np.where(d.true_ratings == 1, (pred.r_hat - 1) ** 2,
                     pred.r_hat ** 2)
        d_clean = RatingDataset(d.n_users, d.n_items, d.observed_mask,
                                d.true_ratings * d.observed_mask,
                                d.true_ratings)
        inputs = make_inputs(d_clean, pred, p=p, e_bar=e)
        # o(e - e_hat) vanishes where observed labels equal truth
        assert estimate_dr(inputs) == pytest.approx(
            true_inaccuracy(pred, d.true_ratings, SQ))

    def test_missing_components_error(self):
        d, pred, p, _ = small_instance()
        inputs = make_inputs(d, pred)
        for name in ("ips", "dr", "eib", "ome_eib", "ome_ips", "ome_dr"):
            with pytest.raises(ValidationError):
                ESTIMATORS[name](inputs)


class TestDegenerations:
    def test_ome_dr_zero_imputation_is_ome_ips_bitwise(self):
        d, pred, p, rho = small_instance(seed=2, rho=ErrorParams(0.2, 0.1))
        a = make_inputs(d, pred, p=p, e_bar=np.zeros(d.shape), rho=rho)
        b = make_inputs(d, pred, p=p, rho=rho)
        assert estimate_ome_dr(a) == estimate_ome_ips(b)

    def test_ome_dr_unit_propensity_is_ome_eib_bitwise(self):
        d, pred, _, rho = small_instance(seed=2, rho=ErrorParams(0.2, 0.1))
        e_bar = make_rng(5).normal(0.3, 0.1, size=d.shape)
        a = make_inputs(d, pred, p=np.ones(d.shape), e_bar=e_bar, rho=rho)
        b = make_inputs(d, pred, e_bar=e_bar, rho=rho)
        assert estimate_ome_dr(a) == estimate_ome_eib(b)

    def test_noiseless_ome_family_matches_plain_family_bitwise(self):
        d, pred, p, _ = small_instance(seed=4)
        rho0 = ErrorParams(0.0, 0.0)
        e_obs = np.where(d.observed_ratings == 1,
                         (pred.r_hat - 1.0) ** 2, pred.r_hat ** 2)
        inputs = make_inputs(d, pred, p=p, e_bar=e_obs, rho=rho0)
        assert estimate_ome_eib(inputs) == estimate_eib(inputs)
        assert estimate_ome_ips(inputs) == estimate_ips(inputs)
        assert estimate_ome_dr(inputs) == estimate_dr(inputs)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_noiseless_ome_family_matches_plain_family_property(self, data):
        shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        mask = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 1)))
        labels = data.draw(hnp.arrays(np.int8, shape,
                                      elements=st.integers(0, 1)))
        pred = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
            0.0, 1.0, exclude_min=True, exclude_max=True)))
        p = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
            DEFAULT_PROPENSITY_FLOOR, 1.0)))
        e_bar = data.draw(hnp.arrays(np.float64, shape,
                                     elements=st.floats(-1e3, 1e3)))
        loss = data.draw(st.sampled_from(
            [LossKind.squared(), LossKind.cross_entropy()]))
        inputs = EstimatorInputs(
            dataset=RatingDataset(shape[0], shape[1], mask, labels),
            predictions=PredictionMatrix(pred), loss=loss,
            p_hat=PropensityMatrix(p), e_bar=ImputationMatrix(e_bar),
            rho_hat=ErrorParams(0.0, 0.0))
        assert estimate_ome_eib(inputs) == estimate_eib(inputs)
        assert estimate_ome_ips(inputs) == estimate_ips(inputs)
        assert estimate_ome_dr(inputs) == estimate_dr(inputs)

    def test_ome_eib_no_observation_is_mean_imputation(self):
        e_bar = make_rng(6).normal(0.4, 0.2, size=(3, 3))
        d = RatingDataset(3, 3, np.zeros((3, 3)), np.zeros((3, 3)))
        pred = PredictionMatrix(np.full((3, 3), 0.5))
        inputs = make_inputs(d, pred, e_bar=e_bar, rho=ErrorParams(0.2, 0.1))
        assert estimate_ome_eib(inputs) == pytest.approx(float(e_bar.mean()))

    def test_permutation_invariance(self):
        d, pred, p, rho = small_instance(seed=9, rho=ErrorParams(0.15, 0.05))
        e_bar = make_rng(10).normal(0.3, 0.1, size=d.shape)
        base = estimate_ome_dr(make_inputs(d, pred, p=p, e_bar=e_bar, rho=rho))
        perm = make_rng(11).permutation(d.n_users)
        d2 = RatingDataset(d.n_users, d.n_items, d.observed_mask[perm],
                           d.observed_ratings[perm], None)
        permuted = estimate_ome_dr(make_inputs(
            d2, PredictionMatrix(pred.r_hat[perm]), p=p[perm],
            e_bar=e_bar[perm], rho=rho))
        assert permuted == pytest.approx(base, abs=1e-14)


# Reference bodies: each DR-family estimator written out on its own, with the
# association of terms that the shared doubly-robust mean must keep, so that
# the library equals them bit for bit.

def ref_observed_loss(inputs):
    l1, l0 = loss_curves(inputs.loss, inputs.predictions.r_hat)
    return np.where(inputs.dataset.observed_ratings == 1, l1, l0)


def ref_surrogate_terms(inputs):
    l1, l0 = loss_curves(inputs.loss, inputs.predictions.r_hat)
    rho = inputs.rho_hat
    s1 = ((1.0 - rho.rho10) * l1 - rho.rho01 * l0) / rho.denom
    s0 = ((1.0 - rho.rho01) * l0 - rho.rho10 * l1) / rho.denom
    o = inputs.dataset.observed_mask.astype(np.float64)
    r = inputs.dataset.observed_ratings.astype(np.float64)
    return o * r * s1, o * (1.0 - r) * s0, o


def ref_naive(inputs):
    o = inputs.dataset.observed_mask
    n_obs = int(o.sum())
    if n_obs == 0:
        raise ValidationError("no observed pairs")
    return float(np.sum(o * ref_observed_loss(inputs)) / n_obs)


def ref_eib(inputs):
    o = inputs.dataset.observed_mask.astype(np.float64)
    e = ref_observed_loss(inputs)
    return float(np.mean(o * e + (1.0 - o) * inputs.e_bar.e_bar))


def ref_ips(inputs):
    o = inputs.dataset.observed_mask.astype(np.float64)
    e = ref_observed_loss(inputs)
    return float(np.mean(o * e / inputs.p_hat.p_hat))


def ref_dr(inputs):
    o = inputs.dataset.observed_mask.astype(np.float64)
    p = inputs.p_hat.p_hat
    e = ref_observed_loss(inputs)
    return float(np.mean((1.0 - o / p) * inputs.e_bar.e_bar + o * e / p))


def ref_ome_eib(inputs):
    pos, neg, o = ref_surrogate_terms(inputs)
    return float(np.mean((1.0 - o) * inputs.e_bar.e_bar + pos + neg))


def ref_ome_ips(inputs):
    pos, neg, _ = ref_surrogate_terms(inputs)
    p = inputs.p_hat.p_hat
    return float(np.mean(pos / p + neg / p))


def ref_ome_dr(inputs):
    pos, neg, o = ref_surrogate_terms(inputs)
    p = inputs.p_hat.p_hat
    return float(np.mean((1.0 - o / p) * inputs.e_bar.e_bar + pos / p
                         + neg / p))


REFERENCES = {"naive": ref_naive, "eib": ref_eib, "ips": ref_ips,
              "dr": ref_dr, "ome_eib": ref_ome_eib, "ome_ips": ref_ome_ips,
              "ome_dr": ref_ome_dr}


def outcome(fn, inputs):
    try:
        return fn(inputs)
    except ValidationError as exc:
        return str(exc)


class TestReferenceBodies:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_estimators_equal_reference_bitwise(self, data):
        shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        mask = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 1)))
        labels = data.draw(hnp.arrays(np.int8, shape,
                                      elements=st.integers(0, 1)))
        pred = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
            0.0, 1.0, exclude_min=True, exclude_max=True)))
        p = data.draw(st.one_of(
            st.just(np.ones(shape)),
            hnp.arrays(np.float64, shape, elements=st.floats(
                DEFAULT_PROPENSITY_FLOOR, 1.0))))
        e_bar = data.draw(st.one_of(
            st.just(np.zeros(shape)),
            hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))))
        rho = data.draw(st.one_of(
            st.just(ErrorParams(0.0, 0.0)),
            st.tuples(st.floats(0.0, 0.45), st.floats(0.0, 0.45)).map(
                lambda t: ErrorParams(*t))))
        loss = data.draw(st.sampled_from(
            [LossKind.squared(), LossKind.cross_entropy()]))
        inputs = EstimatorInputs(
            dataset=RatingDataset(shape[0], shape[1], mask, labels),
            predictions=PredictionMatrix(pred), loss=loss,
            p_hat=PropensityMatrix(p), e_bar=ImputationMatrix(e_bar),
            rho_hat=rho)
        for name, ref in REFERENCES.items():
            got = outcome(ESTIMATORS[name], inputs)
            assert got == outcome(ref, inputs), name

    def test_reference_table_covers_every_estimator(self):
        assert REFERENCES.keys() == ESTIMATORS.keys()


def full_inputs(seed, shape=(9, 7), p=None, labels=None, pred=None):
    """Inputs with every component, cross-entropy and nonzero flip rates, so
    the surrogate losses take negative values; p, labels and pred replace
    the drawn ones when given."""
    rng = make_rng(seed)
    mask = (rng.random(shape) < 0.4).astype(np.int8)
    mask[0, 0], mask[-1, -1] = 1, 0
    drawn_labels = rng.integers(0, 2, shape)
    drawn_pred = rng.uniform(0.01, 0.99, shape)
    drawn_p = rng.uniform(DEFAULT_PROPENSITY_FLOOR, 1.0, shape)
    return EstimatorInputs(
        dataset=RatingDataset(shape[0], shape[1], mask,
                              drawn_labels if labels is None else labels),
        predictions=PredictionMatrix(drawn_pred if pred is None else pred),
        loss=LossKind.cross_entropy(),
        p_hat=PropensityMatrix(drawn_p if p is None else p),
        e_bar=ImputationMatrix(rng.normal(0.3, 0.5, shape)),
        rho_hat=ErrorParams(0.25, 0.15))


class TestObservedCellsOnly:
    def test_losses_computed_on_observed_cells_only(self, monkeypatch):
        seen = []

        def spy(kind, pred, label, rho=None):
            seen.append((np.shape(pred), rho))
            return label_loss(kind, pred, label, rho)

        monkeypatch.setattr(estimators, "label_loss", spy)
        n_obs = full_inputs(0).dataset.n_observed
        rho_hat = full_inputs(0).rho_hat
        corrected = {"ome_eib", "ome_ips", "ome_dr"}
        # fresh inputs: each estimator evaluates its loss once, on the
        # observed cells
        for name, fn in ESTIMATORS.items():
            seen.clear()
            fn(full_inputs(0))
            rho = rho_hat if name in corrected else None
            assert seen == [((n_obs,), rho)], name
        # shared inputs: the plain and the corrected loss once each, for
        # all seven estimators together
        seen.clear()
        inputs = full_inputs(0)
        for fn in ESTIMATORS.values():
            fn(inputs)
        assert seen == [((n_obs,), None), ((n_obs,), rho_hat)]

    @pytest.mark.parametrize("seed", range(3))
    def test_unobserved_cells_do_not_move_estimates(self, seed):
        base = full_inputs(seed)
        unobserved = base.dataset.observed_mask == 0
        rng = make_rng(100 + seed)
        shape = base.dataset.shape
        moved = full_inputs(
            seed,
            p=np.where(unobserved, rng.uniform(DEFAULT_PROPENSITY_FLOOR, 1.0,
                                               shape), base.p_hat.p_hat),
            labels=np.where(unobserved, 1 - base.dataset.observed_ratings,
                            base.dataset.observed_ratings),
            pred=np.where(unobserved, rng.uniform(0.01, 0.99, shape),
                          base.predictions.r_hat))
        assert np.array_equal(moved.dataset.observed_mask,
                              base.dataset.observed_mask)
        for name, fn in ESTIMATORS.items():
            assert fn(moved) == fn(base), name


class TestMonteCarloUnbiasedness:
    def _run(self, rho_true, rho_hat, p_hat_fn, e_bar_fn, seed=0,
             n_reps=50_000):
        rng = make_rng(seed)
        n, m = 20, 30
        gamma = rng.uniform(0.05, 0.95, size=(n, m))
        r_true = (rng.random((n, m)) < gamma).astype(np.int8)
        p_true = rng.uniform(0.1, 0.9, size=(n, m))
        pred = PredictionMatrix(rng.uniform(0.05, 0.95, size=(n, m)))
        p_hat = p_hat_fn(p_true, rng)
        e_bar = e_bar_fn(pred, r_true, rho_hat, rng)
        ests = monte_carlo_ome_dr(
            r_true, pred, PropensityMatrix.clipped(p_true),
            PropensityMatrix.clipped(p_hat), ImputationMatrix(e_bar),
            rho_true, rho_hat, SQ, n_reps, seed + 1)
        target = true_inaccuracy(pred, r_true, SQ)
        se = float(ests.std(ddof=1) / np.sqrt(n_reps))
        return float(ests.mean()), target, se

    @staticmethod
    def _accurate_e_bar(pred, r_true, rho, rng):
        # expected surrogate given r*: equals the clean loss by unbiasedness
        return np.where(r_true == 1, (pred.r_hat - 1.0) ** 2, pred.r_hat ** 2)

    def test_unbiased_true_propensity_arbitrary_imputation(self):
        rho = ErrorParams(0.2, 0.1)
        mean, target, se = self._run(
            rho, rho, lambda p, rng: p,
            lambda pred, r, rh, rng: rng.normal(0.3, 0.2, size=pred.r_hat.shape))
        assert abs(mean - target) < 3 * se

    def test_unbiased_wrong_propensity_accurate_imputation(self):
        rho = ErrorParams(0.2, 0.1)
        mean, target, se = self._run(
            rho, rho,
            lambda p, rng: np.clip(p * rng.uniform(0.5, 1.5, size=p.shape),
                                   0.05, 1.0),
            self._accurate_e_bar)
        assert abs(mean - target) < 3 * se

    def test_biased_when_rho_misspecified(self):
        rho_true = ErrorParams(0.2, 0.1)
        rho_hat = ErrorParams(0.05, 0.25)
        mean, target, se = self._run(
            rho_true, rho_hat, lambda p, rng: p,
            lambda pred, r, rh, rng: rng.normal(0.3, 0.2,
                                                size=pred.r_hat.shape))
        assert abs(mean - target) > 5 * se

    def test_mc_deterministic_per_seed(self):
        rho = ErrorParams(0.1, 0.1)
        a = self._run(rho, rho, lambda p, rng: p, self._accurate_e_bar,
                      seed=3, n_reps=500)
        b = self._run(rho, rho, lambda p, rng: p, self._accurate_e_bar,
                      seed=3, n_reps=500)
        assert a == b


class TestBiasOracle:
    def test_zero_bias_fully_correct(self):
        d, pred, p, _ = small_instance(seed=12)
        rho = ErrorParams(0.2, 0.1)
        e_bar = make_rng(13).normal(0.3, 0.2, size=d.shape)
        bias = bias_ome_dr_oracle(
            d.true_ratings, pred, PropensityMatrix.clipped(p),
            PropensityMatrix.clipped(p), ImputationMatrix(e_bar), rho, rho, SQ)
        assert bias == pytest.approx(0.0, abs=1e-12)

    def test_oracle_matches_monte_carlo(self):
        rng = make_rng(21)
        n, m = 10, 10
        r_true = (rng.random((n, m)) < 0.5).astype(np.int8)
        p_true = rng.uniform(0.2, 0.9, size=(n, m))
        p_hat = np.clip(p_true * rng.uniform(0.7, 1.3, size=(n, m)), 0.05, 1.0)
        pred = PredictionMatrix(rng.uniform(0.1, 0.9, size=(n, m)))
        e_bar = rng.normal(0.3, 0.15, size=(n, m))
        rho_true = ErrorParams(0.2, 0.1)
        rho_hat = ErrorParams(0.12, 0.18)
        pt = PropensityMatrix.clipped(p_true)
        ph = PropensityMatrix.clipped(p_hat)
        eb = ImputationMatrix(e_bar)
        oracle = bias_ome_dr_oracle(r_true, pred, pt, ph, eb, rho_true,
                                    rho_hat, SQ)
        n_reps = 100_000
        ests = monte_carlo_ome_dr(r_true, pred, pt, ph, eb, rho_true, rho_hat,
                                  SQ, n_reps, 22)
        target = true_inaccuracy(pred, r_true, SQ)
        se = float(ests.std(ddof=1) / np.sqrt(n_reps))
        assert abs(abs(float(ests.mean()) - target) - oracle) < 3 * se


def oracle_case(seed, shape=(6, 5)):
    """(truth, predictions, p_true, p_hat, e_bar, rho_true, rho_hat)."""
    rng = make_rng(seed)
    r_true = (rng.random(shape) < 0.5).astype(np.int8)
    p_true = rng.uniform(0.2, 0.9, size=shape)
    p_hat = np.clip(p_true * rng.uniform(0.7, 1.3, size=shape), 0.05, 1.0)
    return (r_true, PredictionMatrix(rng.uniform(0.05, 0.95, size=shape)),
            PropensityMatrix.clipped(p_true), PropensityMatrix.clipped(p_hat),
            ImputationMatrix(rng.normal(0.3, 0.15, size=shape)),
            ErrorParams(0.2, 0.1), ErrorParams(0.12, 0.18))


class TestOracleInputs:
    @pytest.mark.parametrize("truth, match", [
        (np.ones((6, 1), dtype=np.int8), "shape"),
        (np.full((6, 5), 3, dtype=np.int8), "entries"),
        (np.full((6, 5), -1.0), "entries"),
    ])
    def test_bad_truth_rejected(self, truth, match):
        _, pred, pt, ph, eb, rho_t, rho_h = oracle_case(0)
        with pytest.raises(ValidationError, match=match):
            bias_ome_dr_oracle(truth, pred, pt, ph, eb, rho_t, rho_h, SQ)
        with pytest.raises(ValidationError, match=match):
            monte_carlo_ome_dr(truth, pred, pt, ph, eb, rho_t, rho_h, SQ,
                               10, 0)

    @pytest.mark.parametrize("which", [2, 3, 4])
    def test_matrix_shape_mismatch_rejected(self, which):
        args = list(oracle_case(0))
        args[which] = oracle_case(1, (6, 1))[which]
        with pytest.raises(ValidationError, match="shape mismatch"):
            bias_ome_dr_oracle(*args, SQ)
        with pytest.raises(ValidationError, match="shape mismatch"):
            monte_carlo_ome_dr(*args, SQ, 10, 0)

    @pytest.mark.parametrize("n_reps", [2.7, 0, -1, True, "3", None])
    def test_bad_n_reps_rejected(self, n_reps):
        with pytest.raises(ValidationError, match="n_reps"):
            monte_carlo_ome_dr(*oracle_case(0), SQ, n_reps, 0)

    def test_numpy_integer_n_reps_accepted(self):
        case = oracle_case(0)
        assert np.array_equal(monte_carlo_ome_dr(*case, SQ, np.int64(7), 0),
                              monte_carlo_ome_dr(*case, SQ, 7, 0))

    @pytest.mark.parametrize("seed", [2.7, True, "3", -1, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            monte_carlo_ome_dr(*oracle_case(0), SQ, 10, seed)

    def test_numpy_integer_seed_accepted(self):
        case = oracle_case(0)
        assert np.array_equal(monte_carlo_ome_dr(*case, SQ, 7, np.uint32(5)),
                              monte_carlo_ome_dr(*case, SQ, 7, 5))

    def test_empty_pair_universe_rejected(self):
        case = oracle_case(0, (0, 3))
        truth, pred = case[:2]
        with pytest.raises(ValidationError, match="no pairs"):
            true_inaccuracy(pred, truth, SQ)
        with pytest.raises(ValidationError, match="no pairs"):
            bias_ome_dr_oracle(*case, SQ)
        with pytest.raises(ValidationError, match="no pairs"):
            monte_carlo_ome_dr(*case, SQ, 10, 0)


def ref_true_inaccuracy(predictions, true_ratings, loss):
    """true_inaccuracy over the whole matrix at once: both loss curves, and
    the one at each true label selected."""
    l1, l0 = loss_curves(loss, predictions.r_hat)
    return float(np.mean(np.where(np.asarray(true_ratings) == 1, l1, l0)))


def ref_bias_ome_dr_oracle(true_ratings, predictions, p_true, p_hat, e_bar,
                           rho_true, rho_hat, loss):
    """bias_ome_dr_oracle over the whole matrix at once."""
    r_star = np.asarray(true_ratings, dtype=np.float64)
    l1, l0 = loss_curves(loss, predictions.r_hat)
    p = p_true.p_hat
    ph = p_hat.p_hat
    denom_hat = rho_hat.denom
    w11 = (1.0 - rho_true.rho01 - rho_hat.rho10) / denom_hat
    w01 = (rho_true.rho01 - rho_hat.rho01) / denom_hat
    w10 = (rho_true.rho10 - rho_hat.rho10) / denom_hat
    w00 = (1.0 - rho_hat.rho01 - rho_true.rho10) / denom_hat
    impute_term = (1.0 - p / ph) * e_bar.e_bar
    pos_term = ((p * w11 - ph) / ph) * l1 + (p * w01 / ph) * l0
    neg_term = (p * w10 / ph) * l1 + ((p * w00 - ph) / ph) * l0
    total = impute_term + np.where(r_star == 1, pos_term, neg_term)
    return float(abs(np.mean(total)))


class TestRowTiles:
    """With 130 cells a tile, above numpy's 128-cell block and not a multiple
    of 8, cell_sum reduces leaves of at most 130 cells. Rows of 129, 130 and
    131 columns in 1, 2, 3, 4, 5 and 9 rows give cell counts just below, at
    and just above 1, 2, 3, 4, 5 and 9 tiles' worth of cells."""

    N_COLS = (129, 130, 131)

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(_kernels, "TILE_CELLS", 130)

    @staticmethod
    def assert_truth_and_oracle_match(case, loss):
        truth, pred = case[:2]
        assert (true_inaccuracy(pred, truth, loss)
                == ref_true_inaccuracy(pred, truth, loss))
        assert (bias_ome_dr_oracle(*case, loss)
                == ref_bias_ome_dr_oracle(*case, loss))

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5, 9])
    @pytest.mark.parametrize("loss", [SQ, LossKind.cross_entropy(0.05)])
    def test_truth_and_oracle_equal_whole_matrix_bitwise(self, n_rows, loss):
        for n_cols in self.N_COLS:
            self.assert_truth_and_oracle_match(
                oracle_case(n_rows, (n_rows, n_cols)), loss)

    # oracle_case's truth is int8; a bool or float truth gives the same bits
    @pytest.mark.parametrize("loss", [SQ, LossKind.cross_entropy(0.05)])
    @pytest.mark.parametrize("dtype", [bool, np.float64])
    def test_bool_and_float_truths_equal_whole_matrix_bitwise(self, loss,
                                                              dtype):
        for n_rows in (1, 2, 3, 4, 5, 9):
            for n_cols in self.N_COLS:
                case = oracle_case(n_rows, (n_rows, n_cols))
                self.assert_truth_and_oracle_match(
                    (case[0].astype(dtype),) + case[1:], loss)

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5, 9])
    def test_estimators_equal_reference_bitwise(self, n_rows):
        for n_cols in self.N_COLS:
            inputs = full_inputs(n_rows, (n_rows, n_cols))
            for name, ref in REFERENCES.items():
                assert ESTIMATORS[name](inputs) == ref(inputs), name

    def test_tile_height_rule(self):
        assert [(t.start, t.stop) for t in _kernels.row_tiles(21, 13)] == [
            (0, 10), (10, 20), (20, 21)]
        # a row wider than a tile is a tile of its own
        assert len(list(_kernels.row_tiles(3, 200))) == 3
        assert list(_kernels.row_tiles(0, 13)) == []


PEAK_SHAPE = (1000, 1000)


def all_cell_mean_call(name, seed, shape):
    """(function, arguments) of one of the seven estimators (by name),
    true_inaccuracy or bias_ome_dr_oracle on fresh inputs of the shape; an
    estimator's EstimatorInputs has its two losses cached already."""
    case = oracle_case(seed, shape)
    if name == "true_inaccuracy":
        return true_inaccuracy, (case[1], case[0], SQ)
    if name == "bias_ome_dr_oracle":
        return bias_ome_dr_oracle, (*case, SQ)
    inputs = full_inputs(seed, shape)
    assert inputs.observed_loss is not None
    assert inputs.surrogate_loss is not None
    return ESTIMATORS[name], (inputs,)


ALL_CELL_MEANS = [*ESTIMATORS, "true_inaccuracy", "bias_ome_dr_oracle"]


@pytest.mark.parametrize("name", ALL_CELL_MEANS)
def test_peak_memory_below_one_matrix(name):
    """An all-cell mean holds its per-cell terms one cell_sum leaf at a time:
    beyond its inputs and the cached losses, it allocates less than one
    n x m float64 matrix."""
    fn, args = all_cell_mean_call(name, 3, PEAK_SHAPE)
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_SHAPE[0] * PEAK_SHAPE[1] * 8


@pytest.mark.parametrize("name", ["true_inaccuracy", "bias_ome_dr_oracle"])
@pytest.mark.parametrize("dtype", [np.int8, bool])
def test_truth_check_holds_no_matrix(name, dtype):
    """An integer or bool truth is checked with two reductions, not with
    (t == 0) | (t == 1), whose two n x m masks took 2 MB at 1000 x 1000.
    What is left is the leaf work: the call peaks below seven float64
    leaves of TILE_CELLS cells (1.75 MiB)."""
    case = oracle_case(3, PEAK_SHAPE)
    truth = case[0].astype(dtype)
    call = {"true_inaccuracy": lambda: true_inaccuracy(case[1], truth, SQ),
            "bias_ome_dr_oracle": lambda: bias_ome_dr_oracle(
                truth, *case[1:], SQ)}[name]
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * _kernels.TILE_CELLS * 8


@pytest.mark.parametrize("dtype, bad", [
    (np.int8, 2), (np.int8, -1), (np.int64, 2), (np.uint8, 2),
    (np.float64, 0.5), (np.float64, np.nan), (np.float64, 2.0)])
def test_one_bad_truth_cell_rejected(dtype, bad):
    """A single value off {0, 1}, in the last cell, fails the truth check of
    the truth, the oracle and the Monte Carlo, whatever the dtype."""
    case = oracle_case(4, (7, 9))
    truth = case[0].astype(dtype)
    truth[-1, -1] = bad
    case = (truth,) + case[1:]
    with pytest.raises(ValidationError, match="entries"):
        true_inaccuracy(case[1], truth, SQ)
    with pytest.raises(ValidationError, match="entries"):
        bias_ome_dr_oracle(*case, SQ)
    with pytest.raises(ValidationError, match="entries"):
        monte_carlo_ome_dr(*case, SQ, 10, 0)


def held_arrays(values):
    """The numpy arrays among values and, recursively, their dataclass
    fields."""
    out = []
    for v in values:
        if isinstance(v, np.ndarray):
            out.append(v)
        elif dataclasses.is_dataclass(v):
            out += held_arrays(getattr(v, f.name)
                               for f in dataclasses.fields(v))
    return out


def test_all_cell_means_leave_no_reference_cycle(monkeypatch):
    """With the cyclic garbage collector off, the input arrays of every
    all-cell mean die as soon as the caller drops them. A cell_sum recursion
    written as a nested function that calls itself would be a reference
    cycle holding the fill callback, and through it every input, until the
    collector ran."""
    monkeypatch.setattr(_kernels, "TILE_CELLS", 130)  # several leaves

    def call_and_watch(name):
        fn, args = all_cell_mean_call(name, 5, (40, 50))
        refs = [weakref.ref(a) for a in held_arrays(args)]
        fn(*args)
        return refs

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name in ALL_CELL_MEANS:
            refs = call_and_watch(name)
            assert refs and all(r() is None for r in refs), name
    finally:
        if was_enabled:
            gc.enable()


class TestRelativeError:
    def test_hand_values(self):
        assert relative_error(0.5, 0.45) == pytest.approx(0.1)
        assert relative_error(0.2, 0.26) == pytest.approx(0.3)
        assert relative_error(0.7, 0.7) == 0.0

    def test_nonpositive_target_errors(self):
        with pytest.raises(ValidationError):
            relative_error(0.0, 0.1)
