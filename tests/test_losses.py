import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyrec.data import ErrorParams, ValidationError
from noisyrec.losses import (
    LossKind,
    label_loss,
    label_loss_grad,
    loss_curve_grads,
    loss_curves,
    point_loss,
    surrogate_curves,
    surrogate_loss,
)

SQ = LossKind.squared()
XE = LossKind.cross_entropy()

valid_rho = st.tuples(
    st.floats(0.0, 0.45), st.floats(0.0, 0.45)
).map(lambda t: ErrorParams(*t))


class TestPointLoss:
    def test_squared_hand_values(self):
        assert point_loss(SQ, 0.3, 1) == pytest.approx(0.49)
        assert point_loss(SQ, 0.3, 0) == pytest.approx(0.09)

    def test_cross_entropy_hand_value(self):
        assert point_loss(XE, 0.5, 0) == pytest.approx(math.log(2.0))
        assert point_loss(XE, 0.5, 1) == pytest.approx(math.log(2.0))

    def test_cross_entropy_clipping_bounds_loss(self):
        kind = LossKind.cross_entropy(eps_clip=1e-3)
        assert point_loss(kind, 1e-6, 1) == pytest.approx(-math.log(1e-3))

    def test_rejects_out_of_range_pred(self):
        with pytest.raises(ValidationError):
            point_loss(SQ, 1.0, 1)
        with pytest.raises(ValidationError):
            point_loss(SQ, 0.0, 0)

    def test_bad_eps_clip(self):
        with pytest.raises(ValidationError):
            LossKind.cross_entropy(eps_clip=0.5)


class TestPredictionRange:
    @pytest.mark.parametrize("kind", [SQ, XE], ids=["squared", "xent"])
    @pytest.mark.parametrize("pred", [[0.3, np.nan], [np.nan], [np.nan, 1.5],
                                      [[0.2, 0.4], [0.6, np.nan]]])
    def test_nan_rejected(self, kind, pred):
        with pytest.raises(ValidationError, match=r"inside \(0, 1\)"):
            loss_curves(kind, np.array(pred))

    def test_nan_rejected_by_label_loss(self):
        with pytest.raises(ValidationError):
            label_loss(SQ, np.array([0.3, np.nan]), np.array([1, 0]))
        with pytest.raises(ValidationError):
            point_loss(SQ, np.nan, 1)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_is_valid(self, shape):
        l1, l0 = loss_curves(SQ, np.empty(shape))
        assert l1.shape == l0.shape == shape


class TestSurrogate:
    def test_noiseless_reduces_to_point_loss(self):
        rho = ErrorParams(0.0, 0.0)
        for pred in (0.1, 0.5, 0.9):
            for label in (0, 1):
                assert surrogate_loss(SQ, pred, label, rho) == point_loss(
                    SQ, pred, label)

    def test_hand_values_squared(self):
        # pred=0.2, rho=(0.2,0.1): l1=0.64, l0=0.04
        rho = ErrorParams(0.2, 0.1)
        assert surrogate_loss(SQ, 0.2, 1, rho) == pytest.approx(0.568 / 0.7)
        assert surrogate_loss(SQ, 0.2, 0, rho) == pytest.approx(-0.032 / 0.7)

    def test_limit_values_near_unit_losses(self):
        # pred -> 0 drives (l1, l0) -> (1, 0): surrogate tends to
        # (0.9/0.7, -0.1/0.7)
        rho = ErrorParams(0.2, 0.1)
        assert surrogate_loss(SQ, 1e-9, 1, rho) == pytest.approx(
            0.9 / 0.7, abs=1e-6)
        assert surrogate_loss(SQ, 1e-9, 0, rho) == pytest.approx(
            -0.1 / 0.7, abs=1e-6)

    def test_expectation_recovers_clean_loss_hand_case(self):
        rho = ErrorParams(0.2, 0.1)
        s1 = surrogate_loss(SQ, 1e-9, 1, rho)
        s0 = surrogate_loss(SQ, 1e-9, 0, rho)
        assert 0.8 * s1 + 0.2 * s0 == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=200)
    @given(valid_rho, st.floats(1e-6, 1.0 - 1e-6))
    def test_unbiasedness_identity_squared(self, rho, pred):
        s1, s0 = surrogate_curves(SQ, np.float64(pred), rho)
        l1, l0 = loss_curves(SQ, np.float64(pred))
        assert abs((1.0 - rho.rho01) * s1 + rho.rho01 * s0 - l1) < 1e-12
        assert abs((1.0 - rho.rho10) * s0 + rho.rho10 * s1 - l0) < 1e-12

    @settings(max_examples=200)
    @given(valid_rho, st.floats(1e-5, 1.0 - 1e-5))
    def test_unbiasedness_identity_cross_entropy(self, rho, pred):
        s1, s0 = surrogate_curves(XE, np.float64(pred), rho)
        l1, l0 = loss_curves(XE, np.float64(pred))
        scale = max(1.0, abs(l1), abs(l0))
        assert abs((1.0 - rho.rho01) * s1 + rho.rho01 * s0 - l1) < 1e-12 * scale
        assert abs((1.0 - rho.rho10) * s0 + rho.rho10 * s1 - l0) < 1e-12 * scale

    def test_surrogate_can_be_negative(self):
        rho = ErrorParams(0.3, 0.0)
        assert surrogate_loss(SQ, 0.9, 1, rho) < 0.0


class TestLipschitz:
    @pytest.mark.parametrize("rho01", [0.0, 0.1, 0.2, 0.3])
    @pytest.mark.parametrize("rho10", [0.0, 0.1, 0.2, 0.3])
    def test_surrogate_lipschitz_bound_squared(self, rho01, rho10):
        rho = ErrorParams(rho01, rho10)
        grid = np.arange(0.01, 0.99 + 1e-12, 1e-4)
        s1, s0 = surrogate_curves(SQ, grid, rho)
        slopes = np.abs(np.diff(np.stack([s1, s0]))) / 1e-4
        bound = 2.0 * 2.0 / rho.denom + 1e-6
        assert float(slopes.max()) <= bound


class TestGradients:
    def test_squared_grads(self):
        g1, g0 = loss_curve_grads(SQ, np.array([0.3]))
        assert g1[0] == pytest.approx(-1.4)
        assert g0[0] == pytest.approx(0.6)

    @given(st.floats(1e-3, 1.0 - 1e-3))
    def test_grads_match_finite_differences(self, pred):
        h = 1e-6
        for kind in (SQ, XE):
            g1, g0 = loss_curve_grads(kind, np.float64(pred))
            l1p, l0p = loss_curves(kind, np.float64(pred + h))
            l1m, l0m = loss_curves(kind, np.float64(pred - h))
            assert float(g1) == pytest.approx((l1p - l1m) / (2 * h), rel=1e-4)
            assert float(g0) == pytest.approx((l0p - l0m) / (2 * h), rel=1e-4)


def ref_flip(c1, c0, rho):
    """The 2x2 flip correction written out."""
    return (((1.0 - rho.rho10) * c1 - rho.rho01 * c0) / rho.denom,
            ((1.0 - rho.rho01) * c0 - rho.rho10 * c1) / rho.denom)


any_rho = st.one_of(st.just(ErrorParams(0.0, 0.0)), valid_rho)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestReferenceBodies:
    """The loss-at-label helpers equal each caller's own arithmetic bit for
    bit: a scalar pick between the two curves, or np.where over them."""

    @settings(max_examples=300)
    @given(open_unit, st.integers(0, 1), any_rho, st.sampled_from([SQ, XE]))
    def test_point_and_surrogate_loss(self, pred, label, rho, kind):
        l1, l0 = loss_curves(kind, np.float64(pred))
        assert point_loss(kind, pred, label) == float(l1 if label == 1
                                                      else l0)
        s1, s0 = ref_flip(l1, l0, rho)
        assert surrogate_loss(kind, pred, label, rho) == float(
            s1 if label == 1 else s0)

    @settings(max_examples=200)
    @given(st.data(), any_rho, st.sampled_from([SQ, XE]))
    def test_surrogate_value_and_gradient(self, data, rho, kind):
        n = data.draw(st.integers(1, 20))
        pred = data.draw(hnp.arrays(np.float64, n, elements=open_unit))
        r = data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
            [0.0, 1.0])))
        val = label_loss(kind, pred, r, rho)
        grad = label_loss_grad(kind, pred, r, rho)
        s1, s0 = ref_flip(*loss_curves(kind, pred), rho)
        ds1, ds0 = ref_flip(*loss_curve_grads(kind, pred), rho)
        assert np.array_equal(val, np.where(r == 1, s1, s0))
        assert np.array_equal(grad, np.where(r == 1, ds1, ds0))
