"""Fourier reference pricer and IV inversion."""
import cmath
import collections
import dataclasses
import itertools
import json
import math
import pathlib
import statistics
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import _frozen as fz
from conftest import make_params
from svj import bs_kernel, heston_moments, reference_pricer
from svj.approx_pricer import Contract, ModelParams, price_approx
from svj.bench import (MATURITY_GRID, STRIKE_GRID, params_from_dict,
                       sample_param_sets)
from svj.errors import (BracketError, NumericalError, ParamError,
                        QuadratureError)
from svj.heston_moments import HestonParams
from svj.jump_laws import JumpLaw, Kou, LogNormal, LogUniform
from svj.reference_pricer import (bates_char_fn, implied_vol_invert,
                                  price_reference, price_reference_smile)

ATM = Contract(s0=100.0, strike=100.0, maturity=0.3)


def test_frozen_reference_prices():
    """Independent 50-digit complex-arithmetic pricer, frozen."""
    fig1 = make_params(nu=0.05, rho=-0.2)
    for strike, want in ((80.0, fz.REF_FIG1_K80), (100.0, fz.REF_FIG1_K100),
                         (120.0, fz.REF_FIG1_K120)):
        c = Contract(s0=100.0, strike=strike, maturity=0.3)
        assert price_reference(fig1, c) == pytest.approx(want, abs=2e-10)
    fig3 = make_params(nu=0.5, rho=-0.8)
    c3 = Contract(s0=100.0, strike=100.0, maturity=3.0)
    assert price_reference(fig3, c3) == pytest.approx(fz.REF_FIG3_K100,
                                                      abs=2e-10)
    nojump = make_params(nu=0.05, rho=-0.2, lam=0.0)
    assert price_reference(nojump, ATM) == pytest.approx(
        fz.REF_FIG1_K100_NOJUMP, abs=2e-10)


def test_char_fn_frozen_points():
    # runtime CF carries the e^{iurT} rate drift; the frozen one is the
    # zero-rate martingale CF
    fig1 = make_params(nu=0.05, rho=-0.2)
    got = bates_char_fn(np.array([0.8]), fig1, 0.3)[0]
    want = fz.BATES_CF_FIG1_U08 * cmath.exp(1j * 0.8 * 0.001 * 0.3)
    assert abs(got - want) < 1e-15
    fig3 = make_params(nu=0.5, rho=-0.8)
    got3 = bates_char_fn(np.array([3.5]), fig3, 3.0)[0]
    want3 = fz.BATES_CF_FIG3_U35 * cmath.exp(1j * 3.5 * 0.001 * 3.0)
    assert abs(got3 - want3) < 1e-15


def test_char_fn_martingale_normalization():
    # phi(-i) = e^{rT}: the discounted reinvested spot is a martingale
    for params, big_t in ((make_params(nu=0.3, rho=-0.7), 1.7),
                          (make_params(nu=0.05, rho=-0.2), 0.3),
                          (make_params(nu=0.4, rho=-0.5, lam=0.3), 2.0)):
        got = bates_char_fn(np.array([-1j]), params, big_t)[0]
        want = math.exp(params.r * big_t)
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("big_t,x0", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, 0.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
def test_char_fn_rejects_non_finite_inputs(big_t, x0):
    """A T that is not finite and positive, or a non-finite x0, raises
    ParamError on entry, with no RuntimeWarning from the arithmetic it
    would have reached."""
    params = make_params(nu=0.2, rho=-0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError):
            bates_char_fn(np.array([0.5, 1.0]), params, big_t, x0)


def test_char_fn_at_zero_is_one():
    params = make_params(nu=0.2, rho=-0.5)
    assert abs(bates_char_fn(np.array([0.0]), params, 1.0)[0] - 1.0) < 1e-14


def test_methods_agree():
    for params, big_t in ((make_params(nu=0.05, rho=-0.2), 0.3),
                          (make_params(nu=0.5, rho=-0.8), 3.0)):
        for strike in (75.0, 100.0, 140.0):
            c = Contract(s0=100.0, strike=strike, maturity=big_t)
            one = price_reference(params, c, method="one-integral")
            two = price_reference(params, c, method="two-integral")
            assert one == pytest.approx(two, abs=5e-10)


def test_two_integral_prices_nu0_loguniform():
    """Seeded nu = 0 LogUniform cases at lambda T of 0.5-10. With
    (e^z - 1)/z formed as np.exp(z) - 1 over z, the CF lost up to 5.8e-10
    near u = 0, where P1 and P2 weigh it by 1/u, and 6 of these 40
    exhausted the two-integral budget."""
    rng = np.random.default_rng(1)
    for _ in range(40):
        kappa, theta, s0sq = (rng.uniform(0.5, 3.0), rng.uniform(0.05, 0.5),
                              rng.uniform(0.05, 0.5))
        big_t = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
        lam_t = math.exp(rng.uniform(math.log(0.5), math.log(10.0)))
        params = ModelParams(
            heston=HestonParams(kappa=kappa, theta=theta, nu=0.0, rho=0.0,
                                sigma0_sq=s0sq),
            jumps=JumpLaw(lam_t / big_t, LogUniform(a=-0.3, b=0.2)), r=0.01)
        c = Contract(s0=100.0, strike=rng.uniform(70.0, 140.0), maturity=big_t)
        one = price_reference(params, c, method="one-integral")
        two = price_reference(params, c, method="two-integral")
        assert abs(one - two) <= 1e-9, (params, c)


@pytest.mark.parametrize("kappa,nu,rho", [
    (0.2, 0.5, 0.9), (0.3, 0.8, 0.9), (0.1, 1.0, 0.5), (0.1, 1.0, 0.9),
    (0.05, 0.3, 0.99)])
def test_two_integral_prices_when_rho_nu_exceeds_kappa(kappa, nu, rho):
    """With kappa < rho nu, xi + d vanishes at u = -i: the CF there is
    0/0, so P1's normaliser is e^{x0 + rT} in closed form, and near
    u = -i, where P1's integrand divides by u, xi + d comes from
    xi - d. The last Heston set at T = 5 still exhausted the budget
    when xi + d was summed directly."""
    for variant, big_t, strike in itertools.product(
            (LogNormal(mu_j=-0.05, sigma_j=0.2), Kou(p=0.4, eta1=10.0, eta2=5.0),
             LogUniform(a=-0.3, b=0.2)), (0.1, 1.0, 5.0), (60.0, 100.0, 160.0)):
        params = ModelParams(
            heston=HestonParams(kappa=kappa, theta=0.2, nu=nu, rho=rho,
                                sigma0_sq=0.2),
            jumps=JumpLaw(intensity=0.5, variant=variant), r=0.01)
        c = Contract(s0=100.0, strike=strike, maturity=big_t)
        one = price_reference(params, c, method="one-integral")
        two = price_reference(params, c, method="two-integral")
        assert abs(one - two) <= 1e-9, (variant, big_t, strike)


def test_flat_limit_is_bs():
    params = make_params(nu=0.0, rho=0.0, lam=0.0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    want = bs_kernel.bs_price(math.log(100.0), v0, 100.0, 0.001, 0.3)
    assert price_reference(params, ATM) == pytest.approx(want, abs=1e-12)


def test_small_nu_continuous_with_nu_zero_branch():
    # rho=0 kills the O(nu) skew term, so only O(nu^2) separates the
    # little-trap path from the deterministic-variance branch
    lo = make_params(nu=0.0, rho=0.0)
    hi = make_params(nu=1e-7, rho=0.0)
    assert price_reference(lo, ATM) == pytest.approx(price_reference(hi, ATM),
                                                     abs=1e-10)


NU0_SHORT_CASES = [
    # (kappa, theta, sigma0^2, lambda, mu_j, sigma_j, T)
    (0.658, 0.151, 0.468, 187.3, -0.283, 0.056, 0.105),
    *((kappa, theta, 0.5, lam_t / big_t, mu_j, sigma_j, big_t)
      for kappa, theta, lam_t, (mu_j, sigma_j), big_t in itertools.product(
          (0.5, 2.0), (0.04, 0.3), (15.0, 30.0),
          ((-0.3, 0.05), (-0.3, 0.3), (0.1, 0.05), (0.1, 0.3)), (0.1, 0.25))),
]


def test_one_integral_matches_merton_at_nu0_short_dated():
    """At nu = 0 with LogNormal jumps Merton's series is the exact
    price (r0 = u0 = 0). On short maturities with lambda T of 15-30 the
    one-integral smile agrees with it, taken to a 1e-15 series tail, to
    1e-11. On u = t, without the variance scale, the first case was off
    by 6.3e-10."""
    for kappa, theta, s0sq, lam, mu_j, sigma_j, big_t in NU0_SHORT_CASES:
        params = ModelParams(
            heston=HestonParams(kappa=kappa, theta=theta, nu=0.0, rho=0.0,
                                sigma0_sq=s0sq),
            jumps=JumpLaw(lam, LogNormal(mu_j=mu_j, sigma_j=sigma_j)),
            r=0.01)
        for k, ref in price_reference_smile(params, 100.0, list(STRIKE_GRID),
                                            big_t):
            exact = price_approx(params, Contract(100.0, k, big_t), tol=1e-15)
            assert abs(ref - exact.price) <= 1e-11, (params, big_t, k)


def test_deterministic_variance_with_jumps_equals_mixture():
    """nu=0 makes the decomposition exact: reference == approximation."""
    for variant, lam in ((LogNormal(mu_j=-0.05, sigma_j=0.5), 0.05),
                         (Kou(p=0.4, eta1=10.0, eta2=5.0), 0.2),
                         (LogUniform(a=-0.3, b=0.2), 0.2)):
        params = ModelParams(
            heston=HestonParams(kappa=1.5, theta=0.2, nu=0.0, rho=0.0,
                                sigma0_sq=0.25),
            jumps=JumpLaw(intensity=lam, variant=variant), r=0.001)
        for strike in (85.0, 100.0, 120.0):
            c = Contract(s0=100.0, strike=strike, maturity=0.3)
            ref = price_reference(params, c)
            approx = price_approx(params, c).price
            assert ref == pytest.approx(approx, abs=5e-9)


@given(y=st.floats(0.05, 2.5), k=st.floats(70.0, 140.0),
       r=st.floats(0.0, 0.08), t=st.floats(0.05, 3.0))
@settings(max_examples=80, deadline=None)
def test_iv_inversion_round_trip(y, k, r, t):
    d_plus, _ = bs_kernel.d_plus_minus(math.log(100.0), y, k, r, t)
    # at |d_+| >~ 5 the time value drops under float resolution of the
    # price and no solver can recover the vol; skip those corners
    assume(abs(d_plus) < 5.0)
    c = Contract(s0=100.0, strike=k, maturity=t)
    price = bs_kernel.bs_price(math.log(100.0), y, k, r, t)
    assert implied_vol_invert(price, c, r) == pytest.approx(y, abs=1e-7)


def test_iv_inversion_rejects_out_of_range():
    c = Contract(s0=100.0, strike=90.0, maturity=1.0)
    intrinsic = 100.0 - 90.0 * math.exp(-0.01)
    with pytest.raises(BracketError):
        implied_vol_invert(intrinsic * 0.99, c, 0.01)
    with pytest.raises(BracketError):
        implied_vol_invert(100.0, c, 0.01)


@pytest.mark.parametrize("price, r, match", [
    (math.nan, 0.01, "price must be finite, got nan"),
    (math.inf, 0.01, "price must be finite, got inf"),
    (12.0, math.nan, "r must be finite, got nan"),
    (12.0, -math.inf, "r must be finite, got -inf"),
    (np.float32("nan"), 0.01, "price must be finite, got nan")])
def test_iv_inversion_rejects_non_finite_inputs(price, r, match):
    """A non-finite price or r is a ParamError at entry, not a
    BracketError from the no-arbitrage check it would fail."""
    c = Contract(s0=100.0, strike=90.0, maturity=1.0)
    with pytest.raises(ParamError, match=match):
        implied_vol_invert(price, c, r)


def _brentq_iv(price, contract, r):
    """The oracle: brentq on bs_price over IV_BRACKET, behind the same
    BracketError checks, as implied_vol_invert inverted before Newton."""
    s0, k, tau = contract.s0, contract.strike, contract.maturity
    x = math.log(s0)
    if not max(s0 - k * math.exp(-r * tau), 0.0) < price < s0:
        raise BracketError("outside the open no-arbitrage interval")
    lo, hi = reference_pricer.IV_BRACKET

    def f(y):
        return bs_kernel.bs_price(x, y, k, r, tau) - price

    if f(lo) > 0.0 or f(hi) < 0.0:
        raise BracketError("outside the vol bracket")
    return brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)


def _iv_resolution(x, y, k, r, t):
    """How closely the float price of a call pins its IV at y: the
    price's rounding error over the vega.

    The rounding bound is eps (1 + d+^2) times the two terms of the call
    formula (a relative error eps in d+- moves N(d) by about eps d^2 in
    relative terms in the tails), plus a subnormal spacing of each."""
    dp, dm = bs_kernel.d_plus_minus(x, y, k, r, t)
    terms = (math.exp(x) * bs_kernel.norm_cdf(dp)
             + k * math.exp(-r * t) * bs_kernel.norm_cdf(dm))
    rounding = (sys.float_info.epsilon * (1.0 + dp * dp) * terms
                + (math.exp(x) + k) * 5e-324)
    vega = bs_kernel.bs_vega(x, y, k, r, t)
    return rounding / vega if vega > 0.0 else math.inf


IV_SWEEP = [(float(k), float(t), float(y), r)
            for k in np.geomspace(50.0, 200.0, 13)
            for t in np.geomspace(0.01, 5.0, 12)
            for y in np.geomspace(0.01, 3.0, 13) for r in (0.0, 0.05)]


def test_newton_iv_matches_brentq_over_sweep():
    """BracketError on exactly brentq's inputs. Elsewhere the IVs agree
    to 1e-12, or to 16 resolutions (_iv_resolution) where the float
    price pins the IV less closely than 1e-12/16: deep in the money,
    where the time value is a few ulps of the price, and at subnormal
    prices. Deep out of the money and short-dated cells with a vega
    under 1e-6 are among those held to 1e-12."""
    x = math.log(100.0)
    n_errors = n_tight = n_tiny_vega = 0
    for k, t, y, r in IV_SWEEP:
        c = Contract(s0=100.0, strike=k, maturity=t)
        price = bs_kernel.bs_price(x, y, k, r, t)
        try:
            want = _brentq_iv(price, c, r)
        except BracketError:
            with pytest.raises(BracketError):
                implied_vol_invert(price, c, r)
            n_errors += 1
            continue
        got = implied_vol_invert(price, c, r)
        resolution = _iv_resolution(x, want, k, r, t)
        assert abs(got - want) <= max(1e-12, 16.0 * resolution), (k, t, y, r)
        if 16.0 * resolution <= 1e-12:
            n_tight += 1
            n_tiny_vega += bs_kernel.bs_vega(x, want, k, r, t) < 1e-6
    assert n_errors >= 100
    assert n_tight >= len(IV_SWEEP) // 2
    assert n_tiny_vega >= 100


def test_newton_iv_bisects_when_a_step_leaves_the_bracket(monkeypatch):
    """Far out of the money a Newton step leaves the bracket. Replaying
    the bracket from the recorded evaluations shows the bisection taken
    instead, and the IV still agrees with brentq's."""
    c = Contract(s0=100.0, strike=200.0, maturity=0.01)
    price = bs_kernel.bs_price(math.log(100.0), 1.0, 200.0, 0.0, 0.01)
    calls = []

    def recorded(*args):
        out = price_vega(*args)
        calls.append((args[-1], out[0]))
        return out

    price_vega = bs_kernel.price_vega
    monkeypatch.setattr(bs_kernel, "price_vega", recorded)
    got = implied_vol_invert(price, c, 0.0)
    # the first two calls price the bracket ends
    lo, hi = reference_pricer.IV_BRACKET
    bisections = 0
    for (y, value), (y_next, _) in zip(calls[2:], calls[3:]):
        if value < price:
            lo = y
        else:
            hi = y
        bisections += y_next == 0.5 * (lo + hi)
    assert bisections >= 1
    assert len(calls) <= 2 + reference_pricer.IV_MAX_ITER
    assert abs(got - _brentq_iv(price, c, 0.0)) <= 1e-12


def test_newton_iv_step_cap_raises(monkeypatch):
    """A price that needs more steps than IV_MAX_ITER allows raises a
    NumericalError that is no BracketError."""
    c = Contract(s0=100.0, strike=150.0, maturity=0.5)
    price = bs_kernel.bs_price(math.log(100.0), 0.3, 150.0, 0.01, 0.5)
    assert implied_vol_invert(price, c, 0.01) == pytest.approx(0.3, abs=1e-12)
    monkeypatch.setattr(reference_pricer, "IV_MAX_ITER", 2)
    with pytest.raises(NumericalError, match="not converged") as err:
        implied_vol_invert(price, c, 0.01)
    assert not isinstance(err.value, BracketError)


def _eager_iv(price, contract, r):
    """The oracle: both bracket ends priced first, with their BracketError
    and exact-hit returns, as implied_vol_invert did before it priced an
    end only where a bound cannot tell its sign; where the ends pass,
    the steps are implied_vol_invert's."""
    s0, k, tau = contract.s0, contract.strike, contract.maturity
    x = math.log(s0)
    if max(s0 - k * math.exp(-r * tau), 0.0) < price < s0:
        lo, hi = reference_pricer.IV_BRACKET
        f_lo = bs_kernel.bs_price(x, lo, k, r, tau) - price
        f_hi = bs_kernel.bs_price(x, hi, k, r, tau) - price
        if f_lo > 0.0 or f_hi < 0.0:
            raise BracketError("outside the vol bracket")
        if f_lo == 0.0:
            return lo
        if f_hi == 0.0:
            return hi
    return implied_vol_invert(price, contract, r)


def _bracket_end_prices():
    """(price, k, t, r): BS at each end of IV_BRACKET over IV_SWEEP's
    contracts, and 1 ulp either side of it."""
    x = math.log(100.0)
    out = []
    for k, t, r in sorted({(k, t, r) for k, t, _, r in IV_SWEEP}):
        for y in reference_pricer.IV_BRACKET:
            p = bs_kernel.bs_price(x, y, k, r, t)
            out += [(q, k, t, r) for q in (math.nextafter(p, -math.inf), p,
                                           math.nextafter(p, math.inf))]
    return out


def test_lazy_bracket_ends_agree_with_the_eager_check():
    """Over IV_SWEEP's prices, and BS at each bracket end and 1 ulp
    either side, implied_vol_invert raises the eager oracle's exception
    type or returns its IV bit for bit, though it prices an end only
    where its bound cannot decide."""
    x = math.log(100.0)
    cases = [(bs_kernel.bs_price(x, y, k, r, t), k, t, r)
             for k, t, y, r in IV_SWEEP]
    cases += _bracket_end_prices()
    lo, hi = reference_pricer.IV_BRACKET
    outcomes = collections.Counter()
    for price, k, t, r in cases:
        c = Contract(s0=100.0, strike=k, maturity=t)
        try:
            want = _eager_iv(price, c, r)
        except NumericalError as exc:
            with pytest.raises(type(exc)):
                implied_vol_invert(price, c, r)
            outcomes[type(exc).__name__] += 1
            continue
        got = implied_vol_invert(price, c, r)
        assert got.hex() == want.hex(), (price, k, t, r)
        outcomes["lo" if got == lo else "hi" if got == hi else "iv"] += 1
    # every branch of the eager check is reached
    assert set(outcomes) == {"BracketError", "lo", "hi", "iv"}, outcomes
    assert outcomes["iv"] >= len(IV_SWEEP) // 2


def test_out_of_bracket_price_raises_bracket_error_before_the_steps(monkeypatch):
    """A price between intrinsic and BS(lo), or between BS(hi) and spot,
    raises BracketError even when IV_MAX_ITER would stop the steps."""
    monkeypatch.setattr(reference_pricer, "IV_MAX_ITER", 2)
    x = math.log(100.0)
    lo, hi = reference_pricer.IV_BRACKET
    c = Contract(s0=100.0, strike=100.0, maturity=1.0)
    below = 0.5 * bs_kernel.bs_price(x, lo, 100.0, 0.0, 1.0)
    above = math.nextafter(bs_kernel.bs_price(x, hi, 100.0, 0.0, 1.0), math.inf)
    assert 0.0 < below and above < 100.0
    for price in (below, above):
        with pytest.raises(BracketError, match="no implied vol in"):
            implied_vol_invert(price, c, 0.0)


def test_bad_method_rejected():
    with pytest.raises(ParamError):
        price_reference(make_params(nu=0.05, rho=-0.2), ATM, method="fft")


REGIMES = ((0.05, -0.2), (0.05, -0.8), (0.5, -0.2), (0.5, -0.8))


def _with_jumps(params, intensity, variant):
    return dataclasses.replace(params, jumps=JumpLaw(intensity, variant))


SMILE_CASES = {
    **{f"footnote-nu{nu}-rho{rho}": [make_params(nu=nu, rho=rho)]
       for nu, rho in REGIMES},
    "sampled": sample_param_sets(20, 20240),
    "kou": [_with_jumps(make_params(nu=0.3, rho=-0.6), 0.25,
                        Kou(p=0.4, eta1=10.0, eta2=5.0))],
    "loguniform": [_with_jumps(make_params(nu=0.3, rho=-0.6), 0.3,
                               LogUniform(a=-0.3, b=0.2))],
    "nu0": [make_params(nu=0.0, rho=-0.5, lam=0.2)],
}


@pytest.mark.parametrize("case", SMILE_CASES)
def test_smile_matches_per_contract(case):
    """One shared integral per maturity prices every strike of the grid
    as its own integral does."""
    for params in SMILE_CASES[case]:
        for big_t in MATURITY_GRID:
            got = price_reference_smile(params, 100.0, list(STRIKE_GRID), big_t)
            assert [k for k, _ in got] == sorted(STRIKE_GRID)
            for k, price in got:
                want = price_reference(params, Contract(100.0, k, big_t))
                assert abs(price - want) <= 1e-10, (case, big_t, k)


def test_float32_spot_and_strike_give_python_floats():
    """An np.float32 s0 or strike prices as its float value on every
    reference route and in the IV inversion: each result is a Python
    float, bit-equal to the result for float inputs."""
    params = make_params(nu=0.05, rho=-0.2)
    s0, strikes = np.float32(100.0), [np.float32(90.0), np.float32(100.0)]
    want = price_reference_smile(params, 100.0, [90.0, 100.0], 0.3)
    got = price_reference_smile(params, s0, strikes, 0.3)
    assert [type(v) for _, v in got] == [float, float]
    assert [v for _, v in got] == [v for _, v in want]
    c32 = Contract(s0=s0, strike=strikes[0], maturity=0.3)
    c64 = Contract(s0=100.0, strike=90.0, maturity=0.3)
    for method in ("one-integral", "two-integral"):
        price = price_reference(params, c32, method=method)
        assert type(price) is float
        assert price == price_reference(params, c64, method=method)
    iv = implied_vol_invert(want[0][1], c32, params.r)
    assert type(iv) is float
    assert iv == implied_vol_invert(want[0][1], c64, params.r)


def test_float32_rate_prices_as_a_float():
    """An np.float32 rate is stored as its float value, so both reference
    routes and the IV inversion give bit for bit what a float rate gives;
    it once carried float32 arithmetic into each of them (0.03125 is
    exact in float32, yet the one-integral price moved by 1.8e-8)."""
    p32 = make_params(nu=0.05, rho=-0.2, r=np.float32(0.03125))
    p64 = make_params(nu=0.05, rho=-0.2, r=0.03125)
    assert type(p32.r) is float and p32 == p64
    c = Contract(s0=100.0, strike=90.0, maturity=0.3)
    for method in ("one-integral", "two-integral"):
        assert (price_reference(p32, c, method=method)
                == price_reference(p64, c, method=method))
    assert (price_reference_smile(p32, 100.0, [90.0, 110.0], 0.3)
            == price_reference_smile(p64, 100.0, [90.0, 110.0], 0.3))
    want = implied_vol_invert(12.0, c, 0.03125)
    assert implied_vol_invert(12.0, c, p32.r) == want
    assert implied_vol_invert(12.0, c, np.float32(0.03125)) == want


FOOTNOTE = pathlib.Path(__file__).parents[1] / "params" / "paper_footnote.json"


def test_smile_takes_few_refinement_rounds(monkeypatch):
    """The one-integral smile calls the characteristic function once per
    refinement round. On u = c t, with c = 2/sqrt(E int_0^T sigma^2),
    the footnote set's smiles over the four regimes and the bench
    maturities take 53 rounds in all and a median of 1; on u = t they
    took 80 and a median of 2, and from one starting interval a median
    of 6."""
    calls = []

    def counted(*args, **kwargs):
        calls[-1] += 1
        return bates_char_fn(*args, **kwargs)
    monkeypatch.setattr(reference_pricer, "bates_char_fn", counted)
    data = json.loads(FOOTNOTE.read_text())
    for nu, rho in REGIMES:
        params, s0 = params_from_dict(data, nu, rho)
        for big_t in MATURITY_GRID:
            calls.append(0)
            price_reference_smile(params, s0, list(STRIKE_GRID), big_t)
    assert len(calls) == 4 * len(MATURITY_GRID)
    assert sum(calls) <= 56, calls
    assert statistics.median(calls) == 1, calls


def test_one_strike_smile_is_price_reference():
    """price_reference's one-integral route is the one-strike case, bit
    for bit, on 240 contracts."""
    panel = [make_params(nu=nu, rho=rho) for nu, rho in REGIMES]
    panel += [*SMILE_CASES["kou"], *SMILE_CASES["loguniform"],
              *SMILE_CASES["nu0"]]
    n = 0
    for params in panel:
        for big_t in MATURITY_GRID:
            for k in (60.0, 90.0, 100.0, 130.0):
                [(_, got)] = price_reference_smile(params, 100.0, [k], big_t)
                assert got == price_reference(params, Contract(100.0, k, big_t))
                n += 1
    assert n >= 200


def test_smile_pairs_failures(monkeypatch):
    """An invalid strike fails alone; a failed shared integral fails
    every valid strike; no strikes is refused."""
    params = make_params(nu=0.3, rho=-0.5)
    got = dict(price_reference_smile(params, 100.0, [110.0, -5.0, 90.0], 1.0))
    assert list(got) == [-5.0, 90.0, 110.0]
    assert isinstance(got[-5.0], ParamError)
    assert got[90.0] == price_reference(params, Contract(100.0, 90.0, 1.0))
    for k, res in price_reference_smile(params, 100.0, [100.0, 90.0], -1.0):
        assert isinstance(res, ParamError)
    with pytest.raises(ParamError):
        price_reference_smile(params, 100.0, [], 1.0)

    def boom(*a, **kw):
        raise QuadratureError("synthetic failure")

    monkeypatch.setattr(reference_pricer, "integrate_semi_infinite", boom)
    got = price_reference_smile(params, 100.0, [90.0, 0.0, 110.0], 1.0)
    assert [type(res) for _, res in got] == [ParamError, QuadratureError,
                                              QuadratureError]
    assert got[1][1] is got[2][1]
