"""Analytic implied-volatility approximation for the SVJ decomposition.

The surface approximation linearizes the price decomposition around the
averaged volatility v0:

    iv ~ v0 + i1 + i2,
    i1 = U0 sum_n p_n LambdaGamma G_n / vega,
    i2 = R0 sum_n p_n Gamma2 G_n / vega,

with vega = d(BS)/dy at (x, v0) under the compensated rate r - lambda k.
The operator mixtures are exactly the pricer's correction sums, so
bs_price(x, iv) - price_approx reduces to the linearization remainder.

For log-normal amplitudes each summand has the closed form

    D_B1 = e^gamma / (vt T) (1 - d_+ / (vt sqrt(T)))
    D_B2 = e^gamma / (vt T) (d_+^2 - vt d_+ sqrt(T) - 1) / (vt^2 T)

at the shifted inputs (vt, rt), with the exact log-Gaussian ratio

    gamma_n = c_n T + (d_+^2(x, r-lambda k, v0) - d_+^2(x, rt, vt)) / 2.

iv_atm_display evaluates the compact ATM curve formula whose gamma
drops O(rT) and O(n sigma_j^2) terms; it is a short-maturity/small-rate
simplification, kept separate from the exact route.

Note this analytic surface tracks the smile only through the U0/R0
corrections; the jump-mixture level shift is not representable in the
v0-anchored expansion. Figure-grade IV error comparisons therefore
invert prices numerically (reference_pricer.implied_vol_invert).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import bs_kernel, heston_moments, jump_laws
from .approx_pricer import Contract, ModelParams, price_approx, term_inputs
from .errors import ParamError
from .jump_laws import LogNormal


@dataclass(frozen=True)
class IvPoint:
    strike: float
    maturity: float
    iv_approx: float
    i1_hat: float
    i2_hat: float
    outside_validity: bool = False  # iv_approx <= 0: left the expansion regime


def gamma_n(x: float, jump_shift: float, r_eff: float, sigma: float,
            strike: float, big_t: float) -> float:
    """(d_+^2(x) - d_+^2(x + shift)) / 2 at fixed rate and volatility."""
    d0, _ = bs_kernel.d_plus_minus(x, sigma, strike, r_eff, big_t)
    d1, _ = bs_kernel.d_plus_minus(x + jump_shift, sigma, strike, r_eff, big_t)
    return 0.5 * (d0 * d0 - d1 * d1)


def bates_gamma_n(n: int, params: ModelParams, x: float, strike: float,
                  big_t: float) -> float:
    """Exact exponent of the n-jump D_B terms (log-normal amplitudes)."""
    v0 = heston_moments.avg_expected_variance_v0(params.heston, big_t)
    k = jump_laws.compensator_k(params.jumps)
    r_hat = params.r - params.jumps.intensity * k
    vt, rt = jump_laws.lognormal_shift(n, params.jumps, v0, params.r, big_t)
    d0, _ = bs_kernel.d_plus_minus(x, v0, strike, r_hat, big_t)
    dn, _ = bs_kernel.d_plus_minus(x, vt, strike, rt, big_t)
    return (rt - params.r) * big_t + 0.5 * (d0 * d0 - dn * dn)


def d_b1(x: float, r_tilde_n: float, v_tilde_n: float, strike: float,
         big_t: float, gamma: float) -> float:
    dp, _ = bs_kernel.d_plus_minus(x, v_tilde_n, strike, r_tilde_n, big_t)
    sq = v_tilde_n * math.sqrt(big_t)
    return math.exp(gamma) / (v_tilde_n * big_t) * (1.0 - dp / sq)


def d_b2(x: float, r_tilde_n: float, v_tilde_n: float, strike: float,
         big_t: float, gamma: float) -> float:
    dp, _ = bs_kernel.d_plus_minus(x, v_tilde_n, strike, r_tilde_n, big_t)
    sq = v_tilde_n * math.sqrt(big_t)
    return (math.exp(gamma) / (v_tilde_n * big_t)
            * (dp * dp - sq * dp - 1.0) / (v_tilde_n * v_tilde_n * big_t))


def iv_surface_approx(params: ModelParams, strike: float, big_t: float,
                      s0: float) -> IvPoint:
    """v0 plus the vega-normalized correction terms of the pricer."""
    res = price_approx(params, Contract(s0=s0, strike=strike, maturity=big_t))
    x = math.log(s0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, big_t)
    k = jump_laws.compensator_k(params.jumps)
    r_hat = params.r - params.jumps.intensity * k
    vega = bs_kernel.bs_vega(x, v0, strike, r_hat, big_t)
    i1 = res.u0_term / vega
    i2 = res.r0_term / vega
    iv = v0 + i1 + i2
    return IvPoint(strike=strike, maturity=big_t, iv_approx=iv,
                   i1_hat=i1, i2_hat=i2, outside_validity=iv <= 0.0)


def iv_atm_approx(params: ModelParams, big_t: float, s0: float) -> IvPoint:
    """Spot-ATM point of the surface (strike = s0)."""
    return iv_surface_approx(params, s0, big_t, s0)


def iv_atm_display(params: ModelParams, big_t: float, s0: float) -> float:
    """Compact ATM curve for log-normal amplitudes, as a plain value.

    Uses gamma_n^ATM = -(c_n T + c_n^2 T / vt^2)/2 and brackets
    (1/2 - c_n/vt^2), (1/4 + 1/(vt^2 T) - c_n^2/vt^4); agrees with
    iv_atm_approx up to the dropped O(rT) and O(n sigma_j^2) pieces.
    """
    if not isinstance(params.jumps.variant, LogNormal):
        raise ParamError("ATM display needs log-normal amplitudes")
    h = params.heston
    v0 = heston_moments.avg_expected_variance_v0(h, big_t)
    trunc = jump_laws.truncate_series(params.jumps.intensity * big_t)
    u0v = heston_moments.u0(h, big_t)
    r0v = heston_moments.r0(h, big_t)
    s1 = []
    s2 = []
    for n, p_n in enumerate(trunc.weights):
        _, vt, rt = term_inputs(n, params, v0, big_t)
        c_n = rt - params.r
        vt2 = vt * vt
        g_atm = -0.5 * (c_n * big_t + c_n * c_n * big_t / vt2)
        w = p_n * math.exp(g_atm) / (vt * big_t)
        s1.append(w * (0.5 - c_n / vt2))
        s2.append(w * (0.25 + 1.0 / (vt2 * big_t) - c_n * c_n / (vt2 * vt2)))
    return v0 + u0v * math.fsum(s1) - r0v * math.fsum(s2)
