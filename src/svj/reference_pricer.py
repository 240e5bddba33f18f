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

both over u in [0, inf) mapped to (0,1] via u = (1-s)/s with the shared
adaptive Gauss-Kronrod engine, at the fixed tolerances DEFAULT_REF_QUAD.

Only e^(iu kbar), kbar = ln(S0/K) + rT, depends on the strike in the
one-integral form. price_reference_smile prices a maturity's strikes
from one stacked integral: the characteristic function is evaluated
once per node, every strike's integrand shares the adaptive node set,
and each meets the tolerances of a lone integral. price_reference's
one-integral route is its one-strike case, bit for bit. The
two-integral route stays per contract, the fixed baseline.

implied_vol_invert inverts a call price by safeguarded Newton: a
Corrado-Miller (1996) start, then Newton steps on ln BS(y) from one
fused price-and-vega call per step (bs_kernel.price_vega, with the
strike-only constants computed once), bisecting inside the vol bracket
whenever a step would leave it. The step count is capped by
IV_MAX_ITER.
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
    if big_t <= 0.0:
        raise ParamError(f"need T > 0, got {big_t}")
    h = params.heston
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    q = iu + u * u
    drift = iu * (x0 + params.r * big_t)

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

    out = np.exp(drift + heston_part + jump_exponent(params.jumps, u, big_t))
    return out if out.shape else complex(out)


def _price_one_integral(params, s0, strikes, big_t) -> list:
    """One-integral call prices of valid strikes at one maturity, from
    one stacked integral with a row per strike."""
    # math.log, not np.log: the two may round differently
    kbar = np.array([[math.log(s0 / k) + params.r * big_t] for k in strikes])

    def integrand(u):
        z = u - 0.5j
        # phihat = CF of X_T - x0 - rT; set x0 = 0 and strip the rT drift
        phi = bates_char_fn(z, params, big_t) * np.exp(-1j * z * params.r * big_t)
        return (np.exp(1j * u * kbar) * phi).real / (u * u + 0.25)

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
    """Black-Scholes IV of a call price by safeguarded Newton.

    Starts from Corrado and Miller's estimate, clipped to [1e-3, 5].
    Each step is one bs_kernel.price_vega call: a Newton step on
    ln(BS(y) / price), whose root is BS's, and the sign of BS(y) - price
    narrows the bracket [lo, hi] = IV_BRACKET. A step that leaves the
    bracket, or a value or vega that underflows to 0, is replaced by
    bisection. Stops when a step moves y by <= 1e-15 max(1, y) or BS(y)
    equals the price.

    Raises BracketError when the price sits outside the open
    no-arbitrage interval (intrinsic, spot) or outside the vol bracket,
    and NumericalError after IV_MAX_ITER steps.
    """
    price, s0, strike, tau, r = (float(price), float(contract.s0),
                                 float(contract.strike),
                                 float(contract.maturity), float(r))
    x = math.log(s0)
    intrinsic = max(s0 - strike * math.exp(-r * tau), 0.0)
    if not intrinsic < price < s0:
        raise BracketError(
            f"price {price} outside the open no-arbitrage interval "
            f"({intrinsic}, {s0})")
    lo, hi = IV_BRACKET
    # the bracket ends are priced as bs_price prices them, bit for bit
    price_vega = bs_kernel.price_vega
    ends = bs_kernel.strike_constants(x, strike, r, tau)
    f_lo = price_vega(*ends, lo)[0] - price
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
    _, _, disc_k, sqrt_tau = ends
    m = math.log(s0 / strike) + r * tau
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
