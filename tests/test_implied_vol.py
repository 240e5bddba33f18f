"""Analytic IV surface: closed D terms, reductions, ATM display."""
import math

import numpy as np
import pytest

from _terms import bates_gamma_n, d_b1, d_b2, gamma_n
from conftest import make_params
from svj import bench, bs_kernel, heston_moments, jump_laws
from svj.approx_pricer import Contract, ModelParams, price_approx
from svj.errors import ParamError, SeriesTruncationError
from svj.heston_moments import HestonParams
from svj.implied_vol import (iv_atm_approx, iv_atm_display, iv_smile_approx,
                             iv_surface_approx)
from svj.jump_laws import JumpLaw, Kou, LogNormal, compensator_k, gn_generic, lognormal_shift
from svj.quadrature import QuadratureConfig

TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=1024)


def _d_generic(params, n, kernel, strike=100.0, big_t=0.3, s0=100.0):
    """E-over-J_n of an operator over vega, with the mixture discount."""
    x = math.log(s0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, big_t)
    k = compensator_k(params.jumps)
    r_hat = params.r - params.jumps.intensity * k
    vega = bs_kernel.bs_vega(x, v0, strike, r_hat, big_t)
    val = gn_generic(x, n, params.jumps, v0, r_hat, strike, big_t,
                     kernel=kernel, quad=TIGHT)
    return math.exp(-params.jumps.intensity * k * big_t) * val / vega


def test_bates_closed_d_terms_match_generic_quadrature():
    params = make_params(nu=0.05, rho=-0.2)
    x = math.log(100.0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    for n in range(4):
        vt, rt = lognormal_shift(n, params.jumps, v0, params.r, 0.3)
        g = bates_gamma_n(n, params, x, 100.0, 0.3)
        assert d_b1(x, rt, vt, 100.0, 0.3, g) == pytest.approx(
            _d_generic(params, n, "lambda_gamma"), rel=1e-9)
        assert d_b2(x, rt, vt, 100.0, 0.3, g) == pytest.approx(
            _d_generic(params, n, "gamma2"), rel=1e-9)


def test_d_b1_at_zero_d_plus():
    # bracket collapses to 1 when d_+ = 0
    big_t, vt = 2.0, 0.4
    x = math.log(100.0)
    # pick the strike that zeroes d_+ for rate 0
    strike = 100.0 * math.exp(vt * vt * big_t / 2.0)
    got = d_b1(x, 0.0, vt, strike, big_t, 0.0)
    assert got == pytest.approx(1.0 / (vt * big_t), rel=1e-12)


def test_gamma_n_generic_vs_display_specialization():
    """The compact ATM exponent equals gamma_n at (x=lnK, shift=c_n T,
    rate 0, vol = shifted vol)."""
    params = make_params(nu=0.05, rho=-0.2)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    for n in (0, 1, 2, 5):
        vt, rt = lognormal_shift(n, params.jumps, v0, params.r, 0.3)
        c_n = rt - params.r
        display = -0.5 * (c_n * 0.3 + c_n * c_n * 0.3 / (vt * vt))
        generic = gamma_n(math.log(100.0), c_n * 0.3, 0.0, vt, 100.0, 0.3)
        assert display == pytest.approx(generic, rel=1e-12, abs=1e-15)


def test_surface_composes_and_flags():
    pt = iv_surface_approx(make_params(nu=0.05, rho=-0.2), 100.0, 0.3, 100.0)
    v0 = heston_moments.avg_expected_variance_v0(
        make_params(nu=0.05, rho=-0.2).heston, 0.3)
    assert pt.iv_approx == pytest.approx(v0 + pt.i1_hat + pt.i2_hat, abs=1e-15)
    assert not pt.outside_validity
    assert pt.i1_hat < 0.0  # negative skew correction at the money
    assert pt.i2_hat < 0.0


def test_surface_corrections_are_pricer_terms_over_vega():
    params = make_params(nu=0.3, rho=-0.7)
    res = price_approx(params, Contract(s0=100.0, strike=92.0, maturity=1.2))
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 1.2)
    k = compensator_k(params.jumps)
    vega = bs_kernel.bs_vega(math.log(100.0), v0, 92.0,
                             params.r - params.jumps.intensity * k, 1.2)
    pt = iv_surface_approx(params, 92.0, 1.2, 100.0)
    assert pt.i1_hat == pytest.approx(res.u0_term / vega, rel=1e-13)
    assert pt.i2_hat == pytest.approx(res.r0_term / vega, rel=1e-13)


def test_atm_is_surface_at_spot_strike():
    params = make_params(nu=0.5, rho=-0.8)
    a = iv_atm_approx(params, 3.0, 100.0)
    b = iv_surface_approx(params, 100.0, 3.0, 100.0)
    assert a.iv_approx == pytest.approx(b.iv_approx, abs=1e-12)


def test_flat_model_iv_is_v0():
    params = make_params(nu=0.0, rho=0.0, lam=0.0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    pt = iv_surface_approx(params, 100.0, 0.3, 100.0)
    assert pt.iv_approx == pytest.approx(v0, abs=1e-15)
    assert pt.i1_hat == 0.0
    assert pt.i2_hat == 0.0


def test_no_jump_zero_rate_atm_closed_form():
    """lambda=0, r=0, rho=0: iv = v0 - R0 (1/4 + 1/(v0^2 T)) / (v0 T)."""
    params = make_params(nu=0.05, rho=0.0, lam=0.0, r=0.0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    r0v = heston_moments.r0(params.heston, 0.3)
    want = v0 - r0v * (0.25 + 1.0 / (v0 * v0 * 0.3)) / (v0 * 0.3)
    got = iv_atm_approx(params, 0.3, 100.0).iv_approx
    assert got == pytest.approx(want, abs=1e-15)


def test_atm_display_close_to_exact():
    params = make_params(nu=0.05, rho=-0.2)
    d = iv_atm_display(params, 0.3, 100.0)
    e = iv_atm_approx(params, 0.3, 100.0).iv_approx
    assert abs(d - e) < 1e-4  # display drops O(rT), O(n sigma_j^2) pieces


def test_atm_display_exact_when_no_jumps_no_rate():
    params = make_params(nu=0.05, rho=-0.6, lam=0.0, r=0.0)
    d = iv_atm_display(params, 0.3, 100.0)
    e = iv_atm_approx(params, 0.3, 100.0).iv_approx
    assert d == pytest.approx(e, abs=1e-15)


def test_atm_display_rejects_non_lognormal():
    params = ModelParams(
        heston=HestonParams(kappa=1.5, theta=0.2, nu=0.05, rho=-0.2,
                            sigma0_sq=0.25),
        jumps=JumpLaw(intensity=0.1, variant=Kou(p=0.4, eta1=10.0, eta2=5.0)),
        r=0.001)
    with pytest.raises(ParamError):
        iv_atm_display(params, 0.3, 100.0)


def test_bs_of_iv_consistency_without_jumps():
    """|BS(iv) - approx price| small on random no-jump sets (nu <= 0.1);
    the expansion is linear in the corrections, so only the second-order
    Taylor remainder survives."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        params = make_params(nu=rng.uniform(0.01, 0.1),
                             rho=rng.uniform(-0.9, -0.1), lam=0.0,
                             sigma0_sq=rng.uniform(0.05, 0.5),
                             kappa=rng.uniform(0.5, 3.0),
                             theta=rng.uniform(0.05, 0.5))
        strike = rng.uniform(85.0, 115.0)
        big_t = rng.uniform(0.1, 2.0)
        c = Contract(s0=100.0, strike=strike, maturity=big_t)
        iv = iv_surface_approx(params, strike, big_t, 100.0).iv_approx
        bs = bs_kernel.bs_price(math.log(100.0), iv, strike, params.r, big_t)
        worst = max(worst, abs(bs - price_approx(params, c).price))
    assert worst < 1e-3


def test_bs_of_iv_gap_identity_with_jumps():
    """With jumps the expansion is anchored at BS(v0), so
    BS(iv) - price = BS(v0) - base_term up to the Taylor remainder."""
    params = make_params(nu=0.05, rho=-0.2)
    c = Contract(s0=100.0, strike=100.0, maturity=0.3)
    res = price_approx(params, c)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    k = compensator_k(params.jumps)
    r_hat = params.r - params.jumps.intensity * k
    iv = iv_surface_approx(params, 100.0, 0.3, 100.0).iv_approx
    x = math.log(100.0)
    gap = (bs_kernel.bs_price(x, iv, 100.0, r_hat, 0.3) - res.price)
    anchor = bs_kernel.bs_price(x, v0, 100.0, r_hat, 0.3) - res.base_term
    assert gap == pytest.approx(anchor, abs=1e-6)


@pytest.mark.parametrize("params", [
    *bench.sample_param_sets(5, seed=77),
    make_params(nu=0.5, rho=-0.8),
    make_params(nu=0.2, rho=-0.6, lam=0.0)])
@pytest.mark.parametrize("big_t", [0.1, 2.0])
def test_iv_smile_entries_are_the_one_strike_surface(params, big_t):
    """Each iv_smile_approx entry is iv_surface_approx of its strike, bit
    for bit, in ascending order, with the caller's strike object."""
    strikes = [115.0, 70, 100.0, 90.0, 150.0]
    got = iv_smile_approx(params, 100.0, strikes, big_t)
    assert [k for k, _ in got] == sorted(strikes)
    for k, pt in got:
        assert pt == iv_surface_approx(params, k, big_t, 100.0)
        assert pt.strike is k


def test_iv_smile_refused_strike_gets_its_contract_error():
    """A refused strike gets its Contract's ParamError, in the smile and
    raised by the one-strike surface; the other strikes keep their IVs."""
    params = make_params(nu=0.05, rho=-0.2)
    with pytest.raises(ParamError) as contract_error:
        Contract(s0=100.0, strike=-5.0, maturity=0.3)
    out = iv_smile_approx(params, 100.0, [100.0, -5.0, 90.0], 0.3)
    assert [k for k, _ in out] == [-5.0, 90.0, 100.0]
    bad = out[0][1]
    assert type(bad) is ParamError and str(bad) == str(contract_error.value)
    assert all(math.isfinite(pt.iv_approx) for _, pt in out[1:])
    with pytest.raises(ParamError, match=str(contract_error.value)):
        iv_surface_approx(params, -5.0, 0.3, 100.0)


def test_iv_smile_pairs_a_terms_failure_with_every_strike():
    """lambda T = 5e5 is past the series' memory guard: every valid strike
    gets the SeriesTruncationError, K=-5 keeps its own ParamError."""
    params = make_params(nu=0.05, rho=-0.2, lam=1e5)
    out = iv_smile_approx(params, 100.0, [110.0, -5.0, 90.0], 5.0)
    assert type(out[0][1]) is ParamError
    assert all(type(exc) is SeriesTruncationError for _, exc in out[1:])


def test_iv_smile_builds_maturity_terms_once(series_calls):
    """Ten strikes of one maturity share one truncation, one
    lognormal_shift call and one v0, u0, r0."""
    params = make_params(nu=0.3, rho=-0.5, lam=0.5)
    out = iv_smile_approx(params, 100.0, range(80, 130, 5), 2.0)
    assert len(out) == 10
    assert not any(isinstance(pt, Exception) for _, pt in out)
    assert series_calls["truncate_series"] == 1
    assert series_calls["lognormal_shift"] == 1
    assert all(series_calls[m] == 1
               for m in ("avg_expected_variance_v0", "u0", "r0"))


def test_iv_smile_keeps_a_failed_vega_to_its_strike():
    """Far out of the money the vega underflows to 0: that strike alone
    gets the ZeroDivisionError."""
    params = make_params(nu=0.05, rho=-0.2)
    out = dict(iv_smile_approx(params, 100.0, [100.0, 1e6], 0.1))
    assert type(out[1e6]) is ZeroDivisionError
    assert out[100.0] == iv_surface_approx(params, 100.0, 0.1, 100.0)
