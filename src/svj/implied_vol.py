"""Analytic implied-volatility approximation for the SVJ decomposition.

The surface approximation linearizes the price decomposition around the
averaged volatility v0:

    iv ~ v0 + i1 + i2,
    i1 = U0 sum_n p_n LambdaGamma G_n / vega,
    i2 = R0 sum_n p_n Gamma2 G_n / vega,

with vega = d(BS)/dy at (x, v0) under the compensated rate r - lambda k.
The operator mixtures are exactly the pricer's correction sums, so
bs_price(x, iv) - price_approx reduces to the linearization remainder.

iv_smile_approx takes a smile's correction sums from price_smile's one
pass over one approx_pricer.maturity_terms; iv_atm_display reads the
Merton weights and the shifted inputs from the same terms. For
log-normal amplitudes each summand also has the closed form

    D_B1 = e^gamma / (vt T) (1 - d_+ / (vt sqrt(T)))
    D_B2 = e^gamma / (vt T) (d_+^2 - vt d_+ sqrt(T) - 1) / (vt^2 T)

at the shifted inputs (vt, rt), with the exact log-Gaussian ratio

    gamma_n = c_n T + (d_+^2(x, r-lambda k, v0) - d_+^2(x, rt, vt)) / 2,

which the tests check against quadrature of the operator mixtures.

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

import numpy as np

from . import bs_kernel, jump_laws
from .approx_pricer import (ModelParams, _price_strikes, maturity_terms,
                           pair_strikes, results_per_strike)
from .errors import PRICING_ERRORS, ParamError
from .jump_laws import LogNormal


@dataclass(frozen=True)
class IvPoint:
    strike: float
    maturity: float
    iv_approx: float
    i1_hat: float
    i2_hat: float
    outside_validity: bool = False  # iv_approx <= 0: left the expansion regime


def iv_smile_approx(params: ModelParams, s0: float, strikes,
                    big_t: float) -> list:
    """v0 plus the vega-normalized correction terms of the pricer: a
    list of (strike, IvPoint | Exception), paired as price_smile pairs
    its prices, from its one pass. A strike whose vega or its division
    fails keeps that failure alone."""
    return [(k, _iv_point(k, big_t, res)) for k, res in pair_strikes(
        s0, strikes, big_t, _corrections(params, s0, big_t))]


def iv_smile_approx_checked(params: ModelParams, s0: float, strikes,
                            big_t: float) -> list:
    """iv_smile_approx on checked strikes (as
    approx_pricer.price_smile_checked takes them): an IvPoint or failure
    per strike."""
    results = results_per_strike(_corrections(params, s0, big_t), strikes)
    return [_iv_point(k, big_t, res) for k, res in zip(strikes, results)]


def _corrections(params: ModelParams, s0: float, big_t: float):
    """The pass of iv_smile_approx: valid strikes -> (iv, i1, i2), or a
    failure, per strike."""
    def corrections(valid):
        mt = maturity_terms(params, big_t)
        x = math.log(s0)
        r_hat = params.r - params.jumps.intensity * jump_laws.compensator_k(params.jumps)
        out = []
        for k, res in zip(valid.tolist(), _price_strikes(mt, s0, valid)):
            try:
                vega = bs_kernel.bs_vega(x, mt.v0, k, r_hat, mt.maturity)
                i1, i2 = res.u0_term / vega, res.r0_term / vega
            except PRICING_ERRORS as exc:
                out.append(exc)
            else:
                out.append((mt.v0 + i1 + i2, i1, i2))
        return out

    return corrections


def _iv_point(strike, big_t: float, res):
    return (res if isinstance(res, Exception) else
            IvPoint(strike, big_t, *res, outside_validity=res[0] <= 0.0))


def iv_surface_approx(params: ModelParams, strike: float, big_t: float,
                      s0: float) -> IvPoint:
    """The one-strike case of iv_smile_approx; raises its failure."""
    [(_, point)] = iv_smile_approx(params, s0, [strike], big_t)
    if isinstance(point, Exception):
        raise point
    return point


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
    mt = maturity_terms(params, big_t)
    vt, c_n = mt.vol, mt.rate - params.r
    vt2 = vt * vt
    g_atm = -0.5 * (c_n * big_t + c_n * c_n * big_t / vt2)
    # with Merton's pi_n = p_n e^(c_n T): pi_n e^(gamma_n - c_n T) = p_n e^gamma_n
    w = mt.weights * np.exp(g_atm - c_n * big_t) / (vt * big_t)
    s1 = w * (0.5 - c_n / vt2)
    s2 = w * (0.25 + 1.0 / (vt2 * big_t) - c_n * c_n / (vt2 * vt2))
    return mt.v0 + mt.u0 * math.fsum(s1) - mt.r0 * math.fsum(s2)
