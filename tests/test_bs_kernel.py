"""BS price and the x-derivative operator combinations.

The operator pins were frozen from high-order numerical derivatives of
an independent 50-digit BS implementation, so the closed forms are
checked against differentiation, not against themselves.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _frozen as fz
from svj import bs_kernel
from svj.bs_kernel import (bs_price, bs_vega, d_plus_minus, gamma2_bs,
                           gamma_bs, lambda_gamma_bs, norm_cdf)
from svj.errors import DomainError, ParamError


def test_norm_cdf_frozen():
    for z, want in ((-8.0, fz.NORM_CDF_M8), (-3.0, fz.NORM_CDF_M3),
                    (-0.5, fz.NORM_CDF_M0P5), (0.5, fz.NORM_CDF_0P5),
                    (3.0, fz.NORM_CDF_3), (8.0, fz.NORM_CDF_8)):
        assert abs(norm_cdf(z) - want) / want < 1e-14


def test_pinned_point():
    x, y, k, r, t = fz.BS_PIN_ARGS
    assert abs(bs_price(x, y, k, r, t) - fz.BS_PIN_PRICE) < 1e-12
    assert abs(gamma_bs(x, y, k, r, t) - fz.BS_PIN_GAMMA) < 1e-9
    assert abs(lambda_gamma_bs(x, y, k, r, t) - fz.BS_PIN_LAMBDA_GAMMA) < 1e-9
    assert abs(gamma2_bs(x, y, k, r, t) - fz.BS_PIN_GAMMA2) < 3e-8
    assert abs(bs_vega(x, y, k, r, t) - fz.BS_PIN_VEGA) < 1e-10


def test_price_bounds_and_monotonicity():
    x = math.log(100.0)
    prev = None
    for k in (60.0, 80.0, 100.0, 120.0, 150.0):
        p = bs_price(x, 0.3, k, 0.02, 0.7)
        assert max(100.0 - k * math.exp(-0.02 * 0.7), 0.0) < p < 100.0
        if prev is not None:
            assert p < prev
        prev = p


def test_degenerate_maturity_is_intrinsic():
    x = math.log(100.0)
    assert bs_price(x, 0.3, 80.0, 0.0, 0.0) == pytest.approx(20.0, abs=1e-12)
    assert bs_price(x, 0.3, 120.0, 0.0, 0.0) == 0.0


def test_degenerate_vol_is_forward_intrinsic():
    x = math.log(100.0)
    want = 100.0 - 90.0 * math.exp(-0.05)
    assert bs_price(x, 0.0, 90.0, 0.05, 1.0) == pytest.approx(want, abs=1e-12)


def test_validation():
    with pytest.raises(ParamError):
        bs_price(0.0, -0.1, 100.0, 0.0, 1.0)
    with pytest.raises(ParamError):
        bs_price(0.0, 0.2, -5.0, 0.0, 1.0)


moderate = {
    "x": st.floats(math.log(50.0), math.log(200.0)),
    "y": st.floats(0.08, 1.2),
    "k": st.floats(60.0, 170.0),
    "r": st.floats(0.0, 0.08),
    "t": st.floats(0.05, 4.0),
}


@given(**moderate)
@settings(max_examples=60, deadline=None)
def test_gamma_matches_finite_differences(x, y, k, r, t):
    h = 1e-4
    f = lambda xx: bs_price(xx, y, k, r, t)
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    got = gamma_bs(x, y, k, r, t)
    assert got == pytest.approx(d2 - d1, rel=2e-4, abs=2e-4)


@given(**moderate)
@settings(max_examples=60, deadline=None)
def test_lambda_gamma_is_dx_of_gamma(x, y, k, r, t):
    h = 1e-5
    fd = (gamma_bs(x + h, y, k, r, t) - gamma_bs(x - h, y, k, r, t)) / (2.0 * h)
    assert lambda_gamma_bs(x, y, k, r, t) == pytest.approx(fd, rel=2e-4,
                                                           abs=1e-6)


@given(**moderate)
@example(x=4.0764, y=0.0801, k=60.0, r=0.0, t=0.05)
@settings(max_examples=60, deadline=None)
def test_gamma2_is_gamma_of_gamma(x, y, k, r, t):
    # the step scales with the lognormal width y*sqrt(t): a fixed 1e-4 is
    # 0.6% of the width at the pinned example, where its error is 1.4e-3
    h = 1e-3 * y * math.sqrt(t)
    g = lambda xx: gamma_bs(xx, y, k, r, t)
    d1 = (g(x + h) - g(x - h)) / (2.0 * h)
    d2 = (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h)
    assert gamma2_bs(x, y, k, r, t) == pytest.approx(d2 - d1, rel=5e-4,
                                                     abs=1e-4)


@given(**moderate)
@settings(max_examples=60, deadline=None)
def test_vega_matches_finite_differences(x, y, k, r, t):
    h = 1e-6
    fd = (bs_price(x, y + h, k, r, t) - bs_price(x, y - h, k, r, t)) / (2.0 * h)
    assert bs_vega(x, y, k, r, t) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_vega_gamma_identity():
    # vega = y * T * Gamma(BS), the workhorse of the IV expansion
    x, y, k, r, t = math.log(95.0), 0.4, 104.0, 0.015, 1.3
    assert bs_vega(x, y, k, r, t) == pytest.approx(
        y * t * gamma_bs(x, y, k, r, t), rel=1e-12)


def test_d_plus_minus_spread():
    d1, d2 = d_plus_minus(math.log(110.0), 0.25, 100.0, 0.01, 2.0)
    assert d1 - d2 == pytest.approx(0.25 * math.sqrt(2.0), rel=1e-13)


def _bs_price_composed(x, y, k, r, t):
    """bs_price composed from the checked d_plus_minus, as it was before
    it checked its arguments once."""
    if y * math.sqrt(t) < bs_kernel.DEGENERATE_EPS:
        return max(math.exp(x) - k * math.exp(-r * t), 0.0)
    dp, dm = d_plus_minus(x, y, k, r, t)
    return math.exp(x) * norm_cdf(dp) - k * math.exp(-r * t) * norm_cdf(dm)


def test_bs_price_is_the_composed_formula_bit_for_bit():
    n_degenerate = 0
    for x in np.log([50.0, 99.0, 100.0, 180.0]):
        for y in (0.0, 1e-13, 1e-6, 0.05, 0.3, 1.5, 9.0):
            for k in (40.0, 100.0, 101.0, 250.0):
                for r in (0.0, 0.001, 0.07):
                    for t in (0.0, 1e-9, 0.1, 1.0, 5.0):
                        x = float(x)
                        assert bs_price(x, y, k, r, t) == \
                            _bs_price_composed(x, y, k, r, t)
                        n_degenerate += y * math.sqrt(t) < bs_kernel.DEGENERATE_EPS
    assert n_degenerate > 100


def test_bs_vega_is_the_composed_formula_bit_for_bit():
    """bs_vega, now a wrapper of price_vega, rounds as e^x phi(d+) sqrt(t)
    composed from d_plus_minus did."""
    for x in np.log([50.0, 100.0, 180.0]):
        for y in (1e-6, 0.05, 0.3, 1.5, 9.0):
            for k in (40.0, 100.0, 250.0):
                for r in (0.0, 0.07):
                    for t in (1e-9, 0.1, 1.0, 5.0):
                        x = float(x)
                        dp, _ = d_plus_minus(x, y, k, r, t)
                        want = (math.exp(x) * (math.exp(-0.5 * dp * dp)
                                               / bs_kernel.SQRT_2PI)
                                * math.sqrt(t))
                        assert bs_vega(x, y, k, r, t) == want


def test_price_vega_degenerate_branch():
    """A point-mass lognormal prices at discounted intrinsic value with a
    zero vega; bs_vega refuses it."""
    x = math.log(100.0)
    consts = bs_kernel.strike_constants(x, 90.0, 0.05, 1.0)
    assert bs_kernel.price_vega(*consts, 0.0) == (
        max(math.exp(x) - 90.0 * math.exp(-0.05), 0.0), 0.0)
    with pytest.raises(DomainError, match="degenerate"):
        bs_vega(x, 0.0, 90.0, 0.05, 1.0)


@pytest.mark.parametrize("y, k, t, match", [
    (-0.1, 100.0, 1.0, "volatility"), (math.nan, 100.0, 1.0, "volatility"),
    (math.inf, 100.0, 1.0, "volatility"), (0.2, 0.0, 1.0, "strike"),
    (0.2, -5.0, 1.0, "strike"), (0.2, math.inf, 1.0, "strike"),
    (0.2, math.nan, 1.0, "strike"), (0.2, 100.0, -1.0, "time to expiry"),
    (0.2, 100.0, math.nan, "time to expiry"), (0.2, 100.0, math.inf, "time to expiry"),
])
def test_bs_price_refuses_bad_arguments(y, k, t, match):
    with pytest.raises(DomainError, match=match):
        bs_price(0.0, y, k, 0.01, t)
    with pytest.raises(DomainError, match=match):
        d_plus_minus(0.0, y, k, 0.01, t)


def test_array_variants_match_scalar():
    cases = [
        (np.log(np.array([70.0, 90.0, 100.0, 130.0])), 0.35, 100.0, 0.02, 0.8),
        # y against strike against r, as in the strike pass (terms x strikes)
        (math.log(100.0), np.array([0.15, 0.35, 0.8])[:, None, None],
         np.array([70.0, 95.0, 100.0, 140.0])[None, :, None],
         np.array([0.0, 0.05])[None, None, :], 0.8)]
    for x, y, k, r, t in cases:
        args = np.broadcast_arrays(x, y, k, r, t)
        outputs = bs_kernel.pricer_kernels_arr(x, y, k, r, t)
        # one stacked array, a row per kernel
        assert outputs.shape == (4, *args[0].shape)
        for got, fn in zip(outputs, (bs_price, gamma_bs, gamma2_bs,
                                     lambda_gamma_bs)):
            want = np.vectorize(fn)(*args)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-13)
