"""Conditional-variance moments of the square-root (CIR) variance process

    d(sig_t^2) = kappa (theta - sig_t^2) dt + nu sig_t dW_t,

and the two variance-correction functionals the pricer consumes. With
x := kappa T and delta := sigma0_sq - theta:

    E(sig_s^2)          = theta + delta e^(-kappa s)
    v0^2                = theta + delta (1 - e^(-x)) / x        (time average)
    phi(t)              = (1 - e^(-kappa (T-t))) / kappa
    u0 = rho nu / 2 * int_0^T E(sig_s^2) phi(s) ds
       = rho nu / (2 kappa^2) * (theta f1(x) + delta f2(x))
    r0 = nu^2 / 8 * int_0^T E(sig_s^2) phi(s)^2 ds
       = nu^2 / (8 kappa^3) * (theta g1(x) + delta g2(x))

f1, f2, g1, g2 are the exponential combinations below; each vanishes
like x^2 or x^3 at the origin, so their small-x branches switch to the
exact Taylor series to dodge cancellation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParamError, check_finite


@dataclass(frozen=True)
class HestonParams:
    """CIR variance parameters plus spot/vol correlation."""
    kappa: float
    theta: float
    nu: float
    rho: float
    sigma0_sq: float

    def __post_init__(self):
        check_finite(self)
        if not self.kappa > 0.0:
            raise ParamError(f"kappa must be > 0, got {self.kappa}")
        if self.theta < 0.0:
            raise ParamError(f"theta must be >= 0, got {self.theta}")
        if self.nu < 0.0:
            raise ParamError(f"nu must be >= 0, got {self.nu}")
        if not -1.0 <= self.rho <= 1.0:
            raise ParamError(f"rho must be in [-1, 1], got {self.rho}")
        if self.sigma0_sq < 0.0:
            raise ParamError(f"sigma0_sq must be >= 0, got {self.sigma0_sq}")

    def feller_satisfied(self) -> bool:
        return 2.0 * self.kappa * self.theta >= self.nu * self.nu


_SERIES_EPS_F = 0.01   # f1, f2 ~ x^2/2: direct eval loses ~2 eps/x
_SERIES_EPS_G = 0.05   # g1, g2 ~ x^3/3: direct eval loses ~3 eps/x^2


def _f1(x: float) -> float:
    """x - 1 + e^(-x) = sum_{k>=2} (-x)^k / k!."""
    if x >= _SERIES_EPS_F:
        return x + math.expm1(-x)
    acc = 0.0
    for k in range(2, 11):
        acc += ((-1.0) ** k) * x ** k / math.factorial(k)
    return acc


def _f2(x: float) -> float:
    """1 - e^(-x) - x e^(-x) = sum_{k>=2} (-1)^k x^k (k-1)/k!."""
    if x >= _SERIES_EPS_F:
        e = math.exp(-x)
        return -math.expm1(-x) - x * e
    acc = 0.0
    for k in range(2, 11):
        acc += ((-1.0) ** k) * x ** k * (k - 1) / math.factorial(k)
    return acc


def _g1(x: float) -> float:
    """x - 2(1 - e^(-x)) + (1 - e^(-2x))/2 = sum_{k>=3} (-1)^(k+1) x^k (2^(k-1)-2)/k!."""
    if x >= _SERIES_EPS_G:
        return x + 2.0 * math.expm1(-x) - 0.5 * math.expm1(-2.0 * x)
    acc = 0.0
    for k in range(3, 13):
        acc += ((-1.0) ** (k + 1)) * x ** k * (2 ** (k - 1) - 2) / math.factorial(k)
    return acc


def _g2(x: float) -> float:
    """(1 - e^(-x)) - 2x e^(-x) + e^(-x) - e^(-2x) = sum_{k>=3} (-1)^(k+1) x^k (2^k-2k)/k!."""
    if x >= _SERIES_EPS_G:
        e = math.exp(-x)
        return -math.expm1(-x) - 2.0 * x * e + e - math.exp(-2.0 * x)
    acc = 0.0
    for k in range(3, 13):
        acc += ((-1.0) ** (k + 1)) * x ** k * (2 ** k - 2 * k) / math.factorial(k)
    return acc


def _one_minus_exp_over(x: float) -> float:
    """(1 - e^(-x)) / x with the exact x -> 0 limit."""
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x


def expected_integrated_variance(params: HestonParams, big_t: float) -> float:
    """E(int_0^T sig_s^2 ds)."""
    if big_t < 0.0:
        raise ParamError(f"maturity must be >= 0, got {big_t}")
    x = params.kappa * big_t
    return big_t * (params.theta
                    + (params.sigma0_sq - params.theta) * _one_minus_exp_over(x))


def avg_expected_variance_v0(params: HestonParams, big_t: float) -> float:
    """v0 = sqrt of the time-averaged expected variance over [0, T]."""
    if big_t == 0.0:
        return math.sqrt(params.sigma0_sq)
    return math.sqrt(expected_integrated_variance(params, big_t) / big_t)


def u0(params: HestonParams, big_t: float) -> float:
    """Correlation-correction coefficient; sign follows rho."""
    if big_t < 0.0:
        raise ParamError(f"maturity must be >= 0, got {big_t}")
    x = params.kappa * big_t
    delta = params.sigma0_sq - params.theta
    brace = params.theta * _f1(x) + delta * _f2(x)
    return 0.5 * params.rho * params.nu * brace / (params.kappa * params.kappa)


def r0(params: HestonParams, big_t: float) -> float:
    """Vol-of-vol correction coefficient; nonnegative."""
    if big_t < 0.0:
        raise ParamError(f"maturity must be >= 0, got {big_t}")
    x = params.kappa * big_t
    delta = params.sigma0_sq - params.theta
    brace = params.theta * _g1(x) + delta * _g2(x)
    return params.nu * params.nu * brace / (8.0 * params.kappa ** 3)
