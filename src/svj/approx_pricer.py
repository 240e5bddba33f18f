"""Poisson-weighted three-term decomposition pricer for SVJ models.

The European call value is approximated by

    V0 ~ sum_n p_n(lambda T) [ G_n + Gamma2 G_n * r0 + LambdaGamma G_n * u0 ]

where G_n is the discounted n-jump-conditioned Black-Scholes mixture

    G_n = e^(-lambda k T) E[ bs_price(0, x + J_n, v0) ]   at rate r - lambda k,

r0 and u0 come from heston_moments, and the Gamma2 / LambdaGamma images
of G_n are the same mixtures of the bs_kernel operators. For LogNormal
amplitudes the mixture has the closed form

    G_n = e^(c_n T) bs_price(0, x, v_tilde_n)  at rate r_tilde_n = r + c_n

(the e^(c_n T) factor restores the discounting the shifted-rate
evaluation removes; without it the n >= 1 terms are biased by a factor
(1+k)^n e^(-lambda k T), which at typical jump sizes is ~1e-2 of price).
Kou and LogUniform amplitudes go through adaptive quadrature against
the n-fold convolution density.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import bs_kernel, heston_moments, jump_laws
from .errors import PRICING_ERRORS, ParamError, check_finite
from .heston_moments import HestonParams
from .jump_laws import JumpLaw, LogNormal, SeriesTruncation


@dataclass(frozen=True)
class Contract:
    """European call: spot, strike, maturity in years."""
    s0: float
    strike: float
    maturity: float

    def __post_init__(self):
        check_finite(self)
        if self.s0 <= 0.0:
            raise ParamError(f"s0 must be > 0, got {self.s0}")
        if self.strike <= 0.0:
            raise ParamError(f"strike must be > 0, got {self.strike}")
        if self.maturity <= 0.0:
            raise ParamError(f"maturity must be > 0, got {self.maturity}")


@dataclass(frozen=True)
class ModelParams:
    heston: HestonParams
    jumps: JumpLaw
    r: float

    def __post_init__(self):
        check_finite(self)
        if self.r < 0.0:
            raise ParamError(f"r must be >= 0, got {self.r}")


@dataclass(frozen=True, slots=True)
class PriceResult:
    price: float
    base_term: float
    r0_term: float
    u0_term: float
    truncation: SeriesTruncation


def term_inputs(n: int, params: ModelParams, v0: float, big_t: float) -> tuple:
    """(scale, vol, rate) of the n-jump term.

    G_n = scale * bs_price(x, vol, K, rate, T) for LogNormal amplitudes
    (the shifted closed form), and scale * E[bs_price(x + J_n, vol, K,
    rate, T)] otherwise; the Gamma2 and LambdaGamma images use the same
    inputs.
    """
    jumps = params.jumps
    if isinstance(jumps.variant, LogNormal):
        vol, rate = jump_laws.lognormal_shift(n, jumps, v0, params.r, big_t)
        return math.exp((rate - params.r) * big_t), vol, rate
    lam_k = jumps.intensity * jump_laws.compensator_k(jumps)
    return math.exp(-lam_k * big_t), v0, params.r - lam_k


def gn_term(n: int, params: ModelParams, contract: Contract) -> tuple:
    """(G_n, Gamma2 G_n, LambdaGamma G_n) at t=0, x=ln s0.

    Values are under the pricing measure (the e^(-lambda k T) mixture
    discount included), so sum_n p_n G_n alone prices the nu=0 model.
    """
    v0 = heston_moments.avg_expected_variance_v0(params.heston,
                                                 contract.maturity)
    return _gn_triple(n, params, contract, math.log(contract.s0), v0)


def _gn_triple(n, params, contract, x, v0):
    big_t = contract.maturity
    strike = contract.strike
    scale, vol, rate = term_inputs(n, params, v0, big_t)
    if isinstance(params.jumps.variant, LogNormal):
        return (scale * bs_kernel.bs_price(x, vol, strike, rate, big_t),
                scale * bs_kernel.gamma2_bs(x, vol, strike, rate, big_t),
                scale * bs_kernel.lambda_gamma_bs(x, vol, strike, rate, big_t))
    return tuple(scale * jump_laws.gn_generic(x, n, params.jumps, vol, rate,
                                              strike, big_t, kernel=kernel)
                 for kernel in ("price", "gamma2", "lambda_gamma"))


def price_approx(params: ModelParams, contract: Contract,
                 tol: float = jump_laws.DEFAULT_SERIES_TOL) -> PriceResult:
    """Three-term decomposition price; terms reported separately.

    price = base_term + r0_term + u0_term holds bit-exactly (each term
    is its own compensated sum; the final add is the only combination).
    """
    x = math.log(contract.s0)
    big_t = contract.maturity
    v0 = heston_moments.avg_expected_variance_v0(params.heston, big_t)
    trunc = jump_laws.truncate_series(params.jumps.intensity * big_t, tol)
    u0v = heston_moments.u0(params.heston, big_t)
    r0v = heston_moments.r0(params.heston, big_t)

    g_parts, g2_parts, lg_parts = [], [], []
    for n, p_n in enumerate(trunc.weights):
        g, g2, lg = _gn_triple(n, params, contract, x, v0)
        g_parts.append(p_n * g)
        g2_parts.append(p_n * g2)
        lg_parts.append(p_n * lg)

    base = math.fsum(g_parts)
    r0_term = r0v * math.fsum(g2_parts)
    u0_term = u0v * math.fsum(lg_parts)
    return PriceResult(price=base + r0_term + u0_term, base_term=base,
                       r0_term=r0_term, u0_term=u0_term, truncation=trunc)


def price_smile(params: ModelParams, s0: float, strikes, big_t: float,
                tol: float = jump_laws.DEFAULT_SERIES_TOL) -> list:
    """price_approx across strikes; per-strike failures are collected.

    Returns a list of (strike, PriceResult | Exception), ascending strike.
    """
    if not strikes:
        raise ParamError("strikes must be nonempty")
    out = []
    for strike in sorted(strikes):
        try:
            out.append((strike, price_approx(
                params, Contract(s0=s0, strike=strike, maturity=big_t), tol)))
        except PRICING_ERRORS as exc:
            out.append((strike, exc))
    return out
