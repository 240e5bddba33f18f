"""Fourier reference pricing for the SVJ model and numerical IV inversion.

Characteristic function of X_T = ln S_T in the branch-cut-safe
formulation (the d-sign convention whose exp(-dT) decays, so the
complex log never crosses a cut as T grows), times the compound-Poisson
factor exp(lambda T (Psi(u) - 1) - iu lambda k T).

The ratio (xi - d)/nu^2 is evaluated as -(iu + u^2)/(xi + d), which is
algebraically identical and keeps full precision as nu -> 0; nu = 0
exactly falls back to the deterministic-variance Gaussian exponent.
Where xi + d itself cancels (kappa < rho nu, near u = -i), it is
-nu^2 (iu + u^2)/(xi - d).

Two pricing routes:

    one-integral   C = S0 - sqrt(S0 K) e^(-rT/2)/pi *
                       int_0^inf Re[e^(iu kbar) phihat(u - i/2)] / (u^2 + 1/4) du
    two-integral   C = S0 P1 - K e^(-rT) P2 with the classical
                       in-the-money probabilities P1, P2 (P1 divides by
                       phi(-i), taken as S0 e^(rT) in closed form)

both over u in [0, inf) mapped to (0,1] via s with the shared adaptive
Gauss-Kronrod engine, at the fixed tolerances DEFAULT_REF_QUAD. The
two-integral route takes u = (1-s)/s. The one-integral route takes
u = c (1-s)/s with c = 2/sqrt(E int_0^T sigma^2): its integrand decays
on the scale of the smile's own variance, like e^(-2 t^2) in the
diffusion part, so the map keeps it (to e^-28, at t = 3.7) in s > 1/5
however short the maturity or small the variance, clear of the
crowding near s = 0 where an under-resolved oscillation can alias. On
the footnote set's 40 smiles it takes 53 characteristic-function rounds
in all (a median of 1) against 80 (a median of 2) for c = 1. It
evaluates phihat(u - i/2) as bates_char_fn at x0 = -rT, where the drift
i(u - i/2)(x0 + rT) is 0 exactly, and bates_char_fn skips it.

Only e^(iu kbar), kbar = ln(S0/K) + rT, depends on the strike in the
one-integral form, and Re[e^(iu kbar) phihat] is taken as
cos(u kbar) Re phihat - sin(u kbar) Im phihat. price_reference_smile
prices a maturity's strikes from one stacked integral: the
characteristic function is evaluated once per node, every strike's
integrand shares the adaptive node set, and each meets the tolerances
of a lone integral. price_reference's one-integral route is its
one-strike case, bit for bit. The two-integral route stays per
contract, the fixed baseline.

implied_vol inverts a call price by safeguarded Newton: a
Corrado-Miller (1996) start, then Newton steps on ln BS(y) from one
fused price-and-vega call per step (bs_kernel.price_vega), bisecting
inside the vol bracket whenever a step would leave it. The step count
is capped by IV_MAX_ITER. It takes the contract as iv_inputs, the
strike-only constants computed once for every price inverted at a
strike; implied_vol_invert is its Contract form. The ends of the vol
bracket are priced, before the steps, only where a closed-form bound
on BS there cannot tell the sign of BS - price: near the intrinsic
value for the low end, and for the high end where hi sqrt(tau) is
small against |ln(S0/K) + r tau| or the price is within about
(S0 + K) e^(-a^2/2) of S0. The 800 inversions of the footnote smiles
(four (nu, rho) regimes, bench.MATURITY_GRID x bench.STRIKE_GRID)
price no end, against two per inversion when both were priced first.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import log1p

from . import bs_kernel, heston_moments
from .approx_pricer import Contract, ModelParams, pair_strikes
from .errors import BracketError, NumericalError, ParamError
from .jump_laws import jump_exponent
from .quadrature import QuadratureConfig, integrate_semi_infinite

DEFAULT_REF_QUAD = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11,
                                    max_subdivisions=512)


def bates_char_fn(u, params: ModelParams, big_t: float, x0: float = 0.0):
    """E(e^{iu X_T}) with X_0 = x0; u may be complex (analytic strip).

    Includes the full drift r - lambda k and the jump factor, so
    char_fn(-i) = e^{x0 + r T} (martingale identity). The little-trap
    form evaluates that limit as 0/0 when kappa < rho nu (xi + d = 0 at
    u = -i), so the two-integral route takes it in closed form.
    """
    if not (math.isfinite(big_t) and big_t > 0.0):
        raise ParamError(f"maturity must be finite and > 0, got {big_t}")
    if not math.isfinite(x0):
        raise ParamError(f"x0 must be finite, got {x0}")
    h = params.heston
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    q = iu + u * u
    shift = x0 + params.r * big_t

    if h.nu == 0.0:
        # deterministic variance: Gaussian with integrated variance v0^2 T
        iv = heston_moments.expected_integrated_variance(h, big_t)
        heston_part = -0.5 * q * iv
    else:
        nu2 = h.nu * h.nu
        xi = h.kappa - 1j * h.rho * h.nu * u
        d = np.sqrt(xi * xi + nu2 * q)
        # xi + d cancels where Re(xi conj d) < 0; there it is -nu^2 q/(xi - d)
        flip = (xi * d.conj()).real < 0.0
        with np.errstate(invalid="ignore"):  # 0/0 at q = 0, left unused
            xpd = np.where(flip, -nu2 * q / (xi - d), xi + d)
        ratio = -q / xpd                          # (xi - d)/nu^2
        g = nu2 * ratio / xpd                     # (xi - d)/(xi + d)
        edt = np.exp(-d * big_t)
        log_term = log1p(-g * edt) - log1p(-g)
        heston_part = (h.theta * h.kappa * (ratio * big_t - 2.0 * log_term / nu2)
                       + h.sigma0_sq * ratio * (1.0 - edt) / (1.0 - g * edt))

    if shift != 0.0:    # the one-integral route's x0 = -rT makes it 0
        heston_part = iu * shift + heston_part
    out = np.exp(heston_part + jump_exponent(params.jumps, u, big_t))
    return out if out.shape else complex(out)


def _price_one_integral(params, s0, strikes, big_t) -> list:
    """One-integral call prices of valid strikes at one maturity, from
    one stacked integral with a row per strike, over u = c t."""
    rt = params.r * big_t
    # math.log, not np.log: the two may round differently
    kbar = np.array([[math.log(s0 / k) + rt] for k in strikes])
    # the integrand decays like e^{-iv u^2/2}, iv = E int_0^T sigma^2;
    # u = 2t/sqrt(iv) puts it (to e^{-28}, at t = 3.7) in s > 1/5, clear
    # of the crowding near s = 0, where its oscillation can alias
    iv = heston_moments.expected_integrated_variance(params.heston, big_t)
    c = 2.0 / math.sqrt(iv) if iv > 0.0 else 1.0

    def integrand(t):
        u = c * t
        # x0 = -rT cancels the drift exactly: phihat is the CF of X_T - rT
        phi = bates_char_fn(u - 0.5j, params, big_t, -rt)
        # Re[e^{iu kbar} phihat], strike by strike
        ukbar = u * kbar
        re = np.cos(ukbar) * phi.real - np.sin(ukbar) * phi.imag
        return c * re / (u * u + 0.25)

    ints = integrate_semi_infinite(integrand, DEFAULT_REF_QUAD).value.tolist()
    # prefactor e^{-rT} sqrt(F K) = sqrt(S0 K) e^{-rT/2}
    disc = math.exp(-0.5 * params.r * big_t)
    return [s0 - math.sqrt(s0 * k) * disc / math.pi * v
            for k, v in zip(strikes, ints)]


def price_reference_smile(params: ModelParams, s0: float, strikes,
                          big_t: float) -> list:
    """One-integral call prices across strikes of one maturity.

    Returns a list of (strike, price | Exception), ascending strike, as
    approx_pricer.price_smile does. A strike that is no valid Contract
    gets its own ParamError; the valid strikes share one stacked
    integration, with a component per strike at DEFAULT_REF_QUAD's
    tolerances, and its failure is paired with every valid strike.
    """
    return pair_strikes(s0, strikes, big_t, lambda valid: _price_one_integral(
        params, float(s0), valid, float(big_t)))


def _in_money_probs(params, s0, strike, big_t):
    x0 = math.log(s0)
    lnk = math.log(strike)
    norm = math.exp(x0 + params.r * big_t)  # bates_char_fn(-i)

    def integrand_p2(u):
        phi = bates_char_fn(u, params, big_t, x0)
        return (np.exp(-1j * u * lnk) * phi / (1j * u)).real

    def integrand_p1(u):
        phi = bates_char_fn(u - 1j, params, big_t, x0)
        return (np.exp(-1j * u * lnk) * phi / (1j * u * norm)).real

    p2 = 0.5 + integrate_semi_infinite(integrand_p2, DEFAULT_REF_QUAD).value / math.pi
    p1 = 0.5 + integrate_semi_infinite(integrand_p1, DEFAULT_REF_QUAD).value / math.pi
    return p1, p2


def price_reference(params: ModelParams, contract: Contract,
                    method: str = "one-integral") -> float:
    """Semi-closed Fourier call price; method is one-integral or two-integral."""
    s0, strike, big_t = (float(contract.s0), float(contract.strike),
                         float(contract.maturity))
    if method == "one-integral":
        return _price_one_integral(params, s0, [strike], big_t)[0]
    if method == "two-integral":
        p1, p2 = _in_money_probs(params, s0, strike, big_t)
        return s0 * p1 - strike * math.exp(-params.r * big_t) * p2
    raise ParamError(f"unknown method {method!r}")


IV_BRACKET = (1e-6, 10.0)
# Newton steps and bisections per inversion. A well-posed price takes a
# handful of Newton steps; 54 bisections alone shrink IV_BRACKET below
# the 1e-15 stopping step.
IV_MAX_ITER = 100


def _corrado_miller(price: float, s0: float, disc_k: float,
                    sqrt_tau: float) -> float:
    """Corrado & Miller's (1996) closed-form IV estimate, clipped to
    [1e-3, 5]; a negative radicand is taken as 0."""
    half_gap = 0.5 * (s0 - disc_k)
    a = price - half_gap
    root = math.sqrt(max(a * a - 4.0 * half_gap * half_gap / math.pi, 0.0))
    y = bs_kernel.SQRT_2PI / (s0 + disc_k) * (a + root) / sqrt_tau
    return min(max(y, 1e-3), 5.0)


def implied_vol_invert(price: float, contract: Contract, r: float) -> float:
    """Black-Scholes IV of a call price by safeguarded Newton: the
    Contract form of implied_vol, with the same errors.

    Raises ParamError for a non-finite price or r, before any other
    check; the Contract is checked already.
    """
    price, s0, strike, tau, r = (float(price), float(contract.s0),
                                 float(contract.strike),
                                 float(contract.maturity), float(r))
    _check_price(price)
    if not math.isfinite(r):
        raise ParamError(f"r must be finite, got {r}")
    return implied_vol(price, *iv_inputs(s0, strike, tau, r))


def iv_inputs(s0: float, strike: float, tau: float, r: float) -> tuple:
    """(s0, strike, ends, m): what implied_vol needs of a contract,
    computed once for every price inverted at it. ends are
    bs_kernel.strike_constants, which price the bracket ends as bs_price
    prices them, bit for bit; m = ln(S0/K) + r tau. Floats, finite r."""
    ends = bs_kernel.strike_constants(math.log(s0), strike, r, tau)
    return s0, strike, ends, math.log(s0 / strike) + r * tau


def _check_price(price: float) -> None:
    # a NaN would fail every comparison
    if not math.isfinite(price):
        raise ParamError(f"price must be finite, got {price}")


# An end of IV_BRACKET is priced only where these bounds cannot tell
# its sign: times S0 + K, the margin covers the rounding of BS and of
# the bounds, about 1e-15 of S0 + K
_END_MARGIN = 1e-12


def implied_vol(price: float, s0: float, strike: float, ends: tuple,
                m: float) -> float:
    """Black-Scholes IV of a call price, from the iv_inputs of its
    contract, by safeguarded Newton.

    Starts from Corrado and Miller's estimate, clipped to [1e-3, 5].
    Each step is one bs_kernel.price_vega call: a Newton step on
    ln(BS(y) / price), whose root is BS's, and the sign of BS(y) - price
    narrows the bracket [lo, hi] = IV_BRACKET. A step that leaves the
    bracket, or a value or vega that underflows to 0, is replaced by
    bisection. Stops when a step moves y by <= 1e-15 max(1, y) or BS(y)
    equals the price.

    Before the steps, BS(lo) <= price <= BS(hi) must hold, and an end
    where BS equals the price is returned. An end is priced for that
    only where a bound cannot decide it: vega <= S0 sqrt(tau)/sqrt(2 pi)
    gives BS(lo) <= intrinsic + S0 lo sqrt(tau)/sqrt(2 pi); and with
    s = hi sqrt(tau) and a = s/2 - |m|/s > 0, both N(-d+) and N(d-) at
    hi are at most N(-a) <= e^(-a^2/2)/2, so S0 - BS(hi) <= (S0 +
    K e^(-r tau)) e^(-a^2/2)/2. A price past either bound by
    _END_MARGIN (S0 + K) leaves that end unpriced. The steps do not read
    the ends' values, so the IV and the errors are those of pricing both
    ends first.

    Raises ParamError for a non-finite price, BracketError when the
    price sits outside the open no-arbitrage interval (intrinsic, spot)
    or outside the vol bracket, and NumericalError after IV_MAX_ITER
    steps.
    """
    _check_price(price)
    price_vega = bs_kernel.price_vega
    _, m_ends, disc_k, sqrt_tau = ends
    intrinsic = max(s0 - disc_k, 0.0)
    if not intrinsic < price < s0:
        raise BracketError(
            f"price {price} outside the open no-arbitrage interval "
            f"({intrinsic}, {s0})")
    lo, hi = IV_BRACKET
    margin = _END_MARGIN * (s0 + strike)
    if price > intrinsic + s0 * lo * sqrt_tau / bs_kernel.SQRT_2PI + margin:
        f_lo = -1.0     # BS(lo) < price
    else:
        f_lo = price_vega(*ends, lo)[0] - price
    s = hi * sqrt_tau
    a = 0.5 * s - abs(m_ends) / s     # m as the ends are priced
    if a > 0.0 and s0 - price > ((s0 + disc_k) * 0.5 * math.exp(-0.5 * a * a)
                                 + margin):
        f_hi = 1.0      # BS(hi) > price
    else:
        f_hi = price_vega(*ends, hi)[0] - price
    if f_lo > 0.0 or f_hi < 0.0:
        raise BracketError(
            f"no implied vol in [{lo}, {hi}] for price {price}")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # The steps price at S0 itself and at ln(S0/K) + r tau, which rounds
    # once where ln S0 - ln K cancels near the money: their root is
    # closer to the exact Black-Scholes root.
    y = _corrado_miller(price, s0, disc_k, sqrt_tau)
    for _ in range(IV_MAX_ITER):
        value, vega = price_vega(s0, m, disc_k, sqrt_tau, y)
        fy = value - price
        if fy == 0.0:
            return y
        if fy < 0.0:
            lo = y
        else:
            hi = y
        tol = 1e-15 * max(1.0, y)
        y_new = math.inf  # bisect unless a Newton step is taken
        if value > 0.0 and vega > 0.0:
            # Newton on ln(value / price): far out of the money the value
            # is exp(-a / y^2)-like, and steps on the value itself crawl
            g = (math.log1p(fy / price) if 2.0 * fy > -price
                 else math.log(value) - math.log(price))
            y_new = y - g * value / vega
        if not (lo < y_new < hi or abs(y_new - y) <= tol):
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= tol:
            return y_new
        y = y_new
    raise NumericalError(
        f"implied vol of price {price} not converged after {IV_MAX_ITER} "
        f"steps (bracket [{lo}, {hi}])")
