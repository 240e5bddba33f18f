"""Black-Scholes call kernel on log-price coordinates, plus the two
derivative operators the variance-correction terms need.

Conventions: x = ln(spot), y = volatility, tau = time left to expiry.
The call value is

    BS = e^x N(d+) - K e^(-r tau) N(d-),
    d+- = (x - ln K + (r +- y^2/2) tau) / (y sqrt(tau)).

With D := d/dx, the operators are L = D and G = D^2 - D. Closed forms:

    G BS   = e^x exp(-d+^2/2) / (y sqrt(2 pi tau))
    L G BS = G BS * (1 - d+ / (y sqrt(tau)))
    G^2 BS = G BS * (d+^2 - y sqrt(tau) d+ - 1) / (y^2 tau)
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .errors import DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
# below this y*sqrt(tau) the lognormal degenerates to a point mass
DEGENERATE_EPS = 1e-12


def norm_cdf(z: float) -> float:
    """Standard normal CDF via erfc; keeps full relative accuracy in the tails."""
    return 0.5 * math.erfc(-z / SQRT_2)


def _check(y: float, strike: float, tau: float) -> None:
    if not (strike > 0.0 and math.isfinite(strike)):
        raise DomainError(f"strike must be positive and finite, got {strike}")
    if tau < 0.0 or not math.isfinite(tau):
        raise DomainError(f"time to expiry must be >= 0, got {tau}")
    if y < 0.0 or not math.isfinite(y):
        raise DomainError(f"volatility must be >= 0, got {y}")


def check_nondegenerate(y: float, tau: float) -> float:
    """y*sqrt(tau), or DomainError where the lognormal is a point mass."""
    ysq = y * math.sqrt(tau)
    if ysq < DEGENERATE_EPS:
        raise DomainError(f"y*sqrt(tau) = {ysq:.3e} is degenerate")
    return ysq


def d_plus_minus(x: float, y: float, strike: float, r: float, tau: float):
    """Return (d+, d-). Requires a non-degenerate y*sqrt(tau)."""
    _check(y, strike, tau)
    ysq = check_nondegenerate(y, tau)
    m = x - math.log(strike) + r * tau
    return m / ysq + 0.5 * ysq, m / ysq - 0.5 * ysq


def strike_constants(x: float, strike: float, r: float, tau: float) -> tuple:
    """(e^x, x - ln K + r tau, K e^(-r tau), sqrt(tau)): what
    price_vega needs of a contract, computed once per contract."""
    return (math.exp(x), x - math.log(strike) + r * tau,
            strike * math.exp(-r * tau), math.sqrt(tau))


def price_vega(ex: float, m: float, disc_k: float, sqrt_tau: float,
               y: float) -> tuple:
    """(call value, dBS/dy) from shared d+-, unchecked: the one scalar
    Black-Scholes formula. The contract enters as strike_constants.

    A degenerate y sqrt(tau) gives the discounted intrinsic value and a
    zero vega."""
    ysq = y * sqrt_tau
    if ysq < DEGENERATE_EPS:
        return max(ex - disc_k, 0.0), 0.0
    mr = m / ysq
    dp = mr + 0.5 * ysq
    dm = mr - 0.5 * ysq
    price = ex * norm_cdf(dp) - disc_k * norm_cdf(dm)
    return price, ex * (math.exp(-0.5 * dp * dp) / SQRT_2PI) * sqrt_tau


def bs_price(x: float, y: float, strike: float, r: float, tau: float) -> float:
    """European call value; degenerates to discounted intrinsic value."""
    _check(y, strike, tau)
    return price_vega(*strike_constants(x, strike, r, tau), y)[0]


def gamma_bs(x: float, y: float, strike: float, r: float, tau: float) -> float:
    """(D^2 - D) BS. Strictly positive on the non-degenerate domain."""
    dp, _ = d_plus_minus(x, y, strike, r, tau)
    return math.exp(x - 0.5 * dp * dp) / (y * math.sqrt(2.0 * math.pi * tau))


def lambda_gamma_bs(x: float, y: float, strike: float, r: float, tau: float) -> float:
    """D (D^2 - D) BS."""
    dp, _ = d_plus_minus(x, y, strike, r, tau)
    g = math.exp(x - 0.5 * dp * dp) / (y * math.sqrt(2.0 * math.pi * tau))
    return g * (1.0 - dp / (y * math.sqrt(tau)))


def gamma2_bs(x: float, y: float, strike: float, r: float, tau: float) -> float:
    """(D^2 - D)^2 BS."""
    dp, _ = d_plus_minus(x, y, strike, r, tau)
    g = math.exp(x - 0.5 * dp * dp) / (y * math.sqrt(2.0 * math.pi * tau))
    ysq = y * math.sqrt(tau)
    return g * (dp * dp - ysq * dp - 1.0) / (ysq * ysq)


def bs_vega(x: float, y: float, strike: float, r: float, tau: float) -> float:
    """dBS/dy = e^x phi(d+) sqrt(tau). Requires a non-degenerate y*sqrt(tau)."""
    _check(y, strike, tau)
    check_nondegenerate(y, tau)
    return price_vega(*strike_constants(x, strike, r, tau), y)[1]


# The one array kernel: all four formulas with numpy semantics,
# broadcasting over every argument, written by each formula's last
# operation into one stacked (4, ...) array, so the strike pass weights
# and sums the kernels in place. It has no degenerate branch and no
# input checks: the strike pass runs check_nondegenerate once per
# maturity. The scalar kernels above serve one float (the Newton IV
# inversion), where a numpy call costs several times a math call, and
# are the tests' independent reference.

def pricer_kernels_arr(x, y, strike, r, tau) -> np.ndarray:
    """Stacked (BS, G BS, G^2 BS, L G BS) over the broadcast shape of
    the arguments, sharing d+- and the Gaussian factor G BS; d+- round
    as d_plus_minus rounds them."""
    ysq = y * np.sqrt(tau)
    half = 0.5 * ysq
    rt = r * tau        # -(r tau) rounds as (-r) tau
    m = (x - np.log(strike) + rt) / ysq
    dp, dm = m + half, m - half
    dp2 = dp * dp
    out = np.empty((4,) + np.shape(dp))
    # views of the rows, 0-d views where every argument is a scalar
    bs, g, g2, lg = out[0, ...], out[1, ...], out[2, ...], out[3, ...]
    np.subtract(np.exp(x) * ndtr(dp), strike * np.exp(-rt) * ndtr(dm), out=bs)
    np.divide(np.exp(x - 0.5 * dp2), y * np.sqrt(2.0 * math.pi * tau), out=g)
    np.divide(g * (dp2 - ysq * dp - 1.0), ysq * ysq, out=g2)
    np.multiply(g, 1.0 - dp / ysq, out=lg)
    return out
