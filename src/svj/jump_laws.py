"""Jump-size laws and the n-jump-conditioned pricing ingredients.

Three amplitude laws for the compound-Poisson jump J_t = sum Y_i:

    LogNormal(mu_j, sigma_j)   Y ~ N(mu_j, sigma_j^2)
    Kou(p, eta1, eta2)         double exponential: up Exp(eta1) w.p. p,
                               down -Exp(eta2) w.p. q = 1-p; eta1 > 1
    LogUniform(a, b)           Y ~ U[a, b]

Provides the Poisson series truncation and weights, the compensator
k = E(e^Y - 1), characteristic functions E(e^{iuY}) and the compensated
jump exponent lambda T (Psi(u) - 1) - iu lambda k T that the Fourier
routes share (jump_exponent), the n-fold convolution densities of Y
(closed forms for Kou and LogUniform), and the generic mixture integral

    gn_generic = E[ bs_price(0, x + J_n, v0) ]   at rate r_eff,

with J_n the sum of n i.i.d. amplitudes. For the LogNormal law the
mixture collapses to a single Black-Scholes evaluation at shifted
inputs (lognormal_shift), and the pricer weights those terms by the
Poisson(lambda (1 + k) T) pmf (Merton 1976). It sums Kou and
LogUniform mixtures by one Fourier integral per maturity
(approx_pricer._lewis_sums), so gn_generic and the convolution
densities are off the pricing path: they stay as an independent
cross-check of both routes. The Irwin-Hall sum behind the LogUniform
density cancels for n >= 9, so that check holds only at small lambda T.

truncate_series builds the Poisson weights as one log-space array, up to
an end that Bernstein's bound proves carries under tol eps of mass, and
sums the tails from the top, so a tail is accurate relative to itself
at any tol and lambda T; its only cap, N_MAX_CAP terms, guards memory.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from scipy.special import gammaln, xlogy

from . import bs_kernel
from .errors import ParamError, SeriesTruncationError, check_finite
from .quadrature import QuadratureConfig, gk15_adaptive


# ---------------------------------------------------------------------------
# law types

@dataclass(frozen=True)
class LogNormal:
    mu_j: float
    sigma_j: float

    def __post_init__(self):
        check_finite(self)
        if self.sigma_j < 0.0:
            raise ParamError(f"sigma_j must be >= 0, got {self.sigma_j}")


@dataclass(frozen=True)
class Kou:
    p: float
    eta1: float
    eta2: float

    def __post_init__(self):
        check_finite(self)
        if not 0.0 <= self.p <= 1.0:
            raise ParamError(f"p must be in [0, 1], got {self.p}")
        if not self.eta1 > 1.0:
            raise ParamError(f"eta1 must be > 1 for finite E(e^Y), got {self.eta1}")
        if not self.eta2 > 0.0:
            raise ParamError(f"eta2 must be > 0, got {self.eta2}")

    @property
    def q(self) -> float:
        return 1.0 - self.p


@dataclass(frozen=True)
class LogUniform:
    a: float
    b: float

    def __post_init__(self):
        check_finite(self)
        if not self.a < self.b:
            raise ParamError(f"need a < b, got a={self.a}, b={self.b}")


Variant = Union[LogNormal, Kou, LogUniform]


@dataclass(frozen=True)
class JumpLaw:
    """Compound-Poisson jump spec: arrival intensity plus amplitude law."""
    intensity: float
    variant: Variant

    def __post_init__(self):
        check_finite(self)
        if self.intensity < 0.0:
            raise ParamError(f"intensity must be >= 0, got {self.intensity}")
        if not isinstance(self.variant, (LogNormal, Kou, LogUniform)):
            raise ParamError(f"unknown jump variant {type(self.variant).__name__}")


# ---------------------------------------------------------------------------
# Poisson series

# Built once per smile, so not frozen: a frozen dataclass's __init__
# sets each field through object.__setattr__. So it compares by value
# but is not hashable.
@dataclass(slots=True)
class SeriesTruncation:
    """Where the Poisson series stops: n_max and the mass past it."""
    n_max: int
    tail_mass: float
    tolerance: float


def poisson_pmf(n: int, lambda_t: float) -> float:
    """e^(-lt) lt^n / n!, in log space; a test oracle, off the pricing path."""
    if n < 0:
        raise ParamError(f"n must be >= 0, got {n}")
    if lambda_t < 0.0:
        raise ParamError(f"lambda_T must be >= 0, got {lambda_t}")
    if lambda_t == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-lambda_t + n * math.log(lambda_t) - math.lgamma(n + 1))


DEFAULT_SERIES_TOL = 1e-12
N_MAX_CAP = 100_000
_EPS = sys.float_info.epsilon


# ln n! = gammaln(n + 1) for n < len, read-only; _log_factorials grows it
_LOG_FACTORIALS = gammaln(np.arange(128.0) + 1.0)
_LOG_FACTORIALS.flags.writeable = False


def _log_factorials(size: int) -> np.ndarray:
    """ln n! for n = 0 .. size - 1: a prefix of one cached table, rebuilt
    at twice the size (or more) when it falls short. gammaln acts
    elementwise, so an entry is the same bits at any table size."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) < size:
        table = gammaln(np.arange(float(max(size, 2 * len(table)))) + 1.0)
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return table[:size]


def truncate_series(lambda_t: float, tol: float = DEFAULT_SERIES_TOL) -> tuple:
    """(SeriesTruncation, read-only weights p_0 .. p_n_max): the least
    n_max whose Poisson(lambda_T) tail mass is <= tol.

    Bernstein's bound P(N >= mu + t) <= exp(-t^2 / (2 (mu + t/3))) is
    tol eps at t = L/3 + sqrt(L^2/9 + 2 mu L), L = -ln(tol eps), so the
    pmf, in log space (xlogy: 0 ln 0 = 0; ln n! from _log_factorials) up
    to N_hi = floor(mu + t) + 1, misses under tol eps of mass. The tails
    are one reversed cumsum, small terms first, so each is accurate
    relative to itself. N_hi > N_MAX_CAP raises SeriesTruncationError
    before any array is built: the cap guards memory, not accuracy.
    """
    if not (0.0 < tol < 1.0 and lambda_t >= 0.0):
        raise ParamError(f"need 0 < tol < 1 and lambda_T >= 0, "
                         f"got tol={tol}, lambda_T={lambda_t}")
    big_l = -math.log(tol) - math.log(_EPS)
    reach = lambda_t + big_l / 3.0 + math.sqrt(big_l * big_l / 9.0
                                               + 2.0 * lambda_t * big_l)
    if not reach < N_MAX_CAP:   # N_hi = floor(reach) + 1 <= N_MAX_CAP
        raise SeriesTruncationError(
            f"Poisson series needs over {N_MAX_CAP} terms (lambda_T={lambda_t})")
    n = np.arange(int(reach) + 2.0)
    pmf = np.exp(xlogy(n, lambda_t) - lambda_t - _log_factorials(len(n)))
    tails = pmf[:0:-1].cumsum()     # sum_{j > n} p_j for n = N_hi - 1 .. 0
    k = int(tails.searchsorted(tol, "right"))   # >= 1: tails[0] <= tol eps
    n_max = len(tails) - k                      # the n whose tail is > tol
    pmf.flags.writeable = False     # and so is each view of it
    return (SeriesTruncation(n_max=n_max, tail_mass=float(tails[k - 1]),
                             tolerance=tol), pmf[:n_max + 1])


# ---------------------------------------------------------------------------
# compensator and characteristic function

def compensator_k(law: JumpLaw) -> float:
    """k = E(e^Y - 1) per amplitude law."""
    v = law.variant
    if isinstance(v, LogNormal):
        return math.expm1(v.mu_j + 0.5 * v.sigma_j ** 2)
    if isinstance(v, Kou):
        return v.p * v.eta1 / (v.eta1 - 1.0) + v.q * v.eta2 / (v.eta2 + 1.0) - 1.0
    if isinstance(v, LogUniform):
        # (e^b - e^a)/(b - a) - 1 = e^a (e^w - 1)/w - 1, stable near 0
        h = _expm1_over(v.b - v.a)
        return math.expm1(v.a) * h + (h - 1.0)
    raise ParamError(f"unknown jump variant {type(v).__name__}")


def exp_half_moment(law: JumpLaw) -> float:
    """E e^(Y/2) per amplitude law: jump_char_fn(law, -i/2) in real
    arithmetic."""
    v = law.variant
    if isinstance(v, LogNormal):
        return math.exp(0.5 * v.mu_j + 0.125 * v.sigma_j ** 2)
    if isinstance(v, Kou):
        return v.p * v.eta1 / (v.eta1 - 0.5) + v.q * v.eta2 / (v.eta2 + 0.5)
    if isinstance(v, LogUniform):
        return math.exp(0.5 * v.a) * _expm1_over(0.5 * (v.b - v.a))
    raise ParamError(f"unknown jump variant {type(v).__name__}")


def _expm1_over(x: float) -> float:
    """(e^x - 1)/x with the x -> 0 limit."""
    if x == 0.0:
        return 1.0
    return math.expm1(x) / x


def jump_char_fn(law: JumpLaw, u):
    """E(e^{iuY}); accepts real or complex u, scalar or ndarray."""
    v = law.variant
    u = np.asarray(u, dtype=complex)
    if isinstance(v, LogNormal):
        out = np.exp(1j * u * v.mu_j - 0.5 * u * u * v.sigma_j ** 2)
    elif isinstance(v, Kou):
        out = v.p * v.eta1 / (v.eta1 - 1j * u) + v.q * v.eta2 / (v.eta2 + 1j * u)
    elif isinstance(v, LogUniform):
        z = 1j * u * (v.b - v.a)
        zero = z == 0.0
        if zero.any():      # (e^z - 1)/z -> 1 at u = 0 only
            z = np.where(zero, 1.0, z)
            ratio = np.where(zero, 1.0, np.expm1(z) / z)
        else:
            ratio = np.expm1(z) / z
        out = np.exp(1j * u * v.a) * ratio
    else:
        raise ParamError(f"unknown jump variant {type(v).__name__}")
    return out if out.shape else complex(out)


def jump_exponent(law: JumpLaw, u, big_t: float):
    """lambda T (Psi(u) - 1) - iu lambda k T: the log of the compensated
    compound-Poisson factor of the CF, for complex ndarray u; 0.0 when
    lambda = 0."""
    lam = law.intensity
    if lam == 0.0:
        return 0.0
    k = compensator_k(law)
    return lam * big_t * (jump_char_fn(law, u) - 1.0) - 1j * u * lam * k * big_t


# ---------------------------------------------------------------------------
# lognormal shifted inputs

def lognormal_shift(n, law: JumpLaw, v0: float, r: float,
                    big_t: float) -> tuple:
    """(v_tilde_n, r_tilde_n) for the n-jump lognormal closed form.

    r_tilde_n = r + c_n with c_n = -lambda k + n (mu_j + sigma_j^2/2)/T;
    v_tilde_n = sqrt(v0^2 + n sigma_j^2 / T); n is an int >= 0 or an
    array of them (unchecked: maturity_terms passes an arange).
    """
    v = law.variant
    if not isinstance(v, LogNormal):
        raise ParamError(f"lognormal_shift needs a LogNormal law, got {type(v).__name__}")
    if big_t <= 0.0:
        raise ParamError(f"need T > 0, got {big_t}")
    half = v.mu_j + 0.5 * v.sigma_j ** 2
    c_n = -law.intensity * math.expm1(half) + n * half / big_t
    v_tilde = np.sqrt(v0 * v0 + n * v.sigma_j ** 2 / big_t)
    return v_tilde, r + c_n


# ---------------------------------------------------------------------------
# n-fold convolution densities

@lru_cache(maxsize=4096)
def _kou_coeffs(n: int, p: float, eta1: float, eta2: float):
    """(P_{n,1..n}, Q_{n,1..n}) mixture weights of the n-fold Kou density.

    Log-space accumulation for n > 20; all summands are nonnegative.
    """
    q = 1.0 - p
    r1 = eta1 / (eta1 + eta2)
    r2 = eta2 / (eta1 + eta2)

    def inner(k: int, ra: float, rb: float, pa: float, pb: float) -> float:
        # sum_{i=k}^{n-1} C(n-k-1, i-k) C(n, i) ra^(i-k) rb^(n-i) pa^i pb^(n-i)
        if n <= 20:
            return math.fsum(
                math.comb(n - k - 1, i - k) * math.comb(n, i)
                * ra ** (i - k) * rb ** (n - i) * pa ** i * pb ** (n - i)
                for i in range(k, n))
        terms = []
        for i in range(k, n):
            if (pa == 0.0 and i > 0) or (pb == 0.0 and n - i > 0) \
                    or (ra == 0.0 and i - k > 0) or (rb == 0.0 and n - i > 0):
                continue
            lg = (_lchoose(n - k - 1, i - k) + _lchoose(n, i)
                  + (i - k) * math.log(ra) + (n - i) * math.log(rb)
                  + i * math.log(pa) + (n - i) * math.log(pb))
            terms.append(math.exp(lg))
        return math.fsum(terms)

    big_p = [inner(k, r1, r2, p, q) for k in range(1, n)] + [p ** n]
    big_q = [inner(k, r2, r1, q, p) for k in range(1, n)] + [q ** n]
    return tuple(big_p), tuple(big_q)


def _lchoose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _erlang_pdf(u, k: int, rate: float):
    """Gamma(k, rate) density, log-space evaluation; u > 0 elementwise."""
    return np.exp(k * math.log(rate) + (k - 1) * np.log(u) - rate * u
                  - math.lgamma(k))


def kou_convolution_density(n: int, u, law: JumpLaw) -> Union[float, np.ndarray]:
    """Density of the sum of n i.i.d. Kou amplitudes at u."""
    v = law.variant
    if not isinstance(v, Kou):
        raise ParamError(f"need a Kou law, got {type(v).__name__}")
    if n < 1:
        raise ParamError(f"n must be >= 1, got {n}")
    big_p, big_q = _kou_coeffs(n, v.p, v.eta1, v.eta2)
    arr = np.asarray(u, dtype=float)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    neg = arr < 0.0
    if np.any(pos):
        up = arr[pos]
        out[pos] = sum(c * _erlang_pdf(up, k, v.eta1)
                       for k, c in enumerate(big_p, start=1) if c != 0.0)
    if np.any(neg):
        dn = -arr[neg]
        out[neg] = sum(c * _erlang_pdf(dn, k, v.eta2)
                       for k, c in enumerate(big_q, start=1) if c != 0.0)
    # u = 0 sits on the u >= 0 branch; only its k=1 component survives
    zero = arr == 0.0
    if np.any(zero):
        out[zero] = big_p[0] * v.eta1
    return out if out.shape else float(out)


def loguniform_convolution_density(n: int, u, law: JumpLaw) -> Union[float, np.ndarray]:
    """Density of the sum of n i.i.d. U[a,b] amplitudes (Irwin-Hall type)."""
    v = law.variant
    if not isinstance(v, LogUniform):
        raise ParamError(f"need a LogUniform law, got {type(v).__name__}")
    if n < 1:
        raise ParamError(f"n must be >= 1, got {n}")
    w = v.b - v.a
    arr = np.asarray(u, dtype=float)
    out = np.zeros_like(arr)
    flat = arr.ravel()
    res = out.ravel()
    fact = math.factorial(n - 1)
    for j, uu in enumerate(flat):
        z = (uu - n * v.a) / w
        if z <= 0.0 or z >= n:
            continue
        acc = math.fsum(((-1.0) ** i) * math.comb(n, i) * (z - i) ** (n - 1)
                        for i in range(int(math.floor(z)) + 1))
        res[j] = max(acc / fact, 0.0) / w
    return out if out.shape else float(out)


def convolution_density(n: int, law: JumpLaw) -> Callable:
    """f_{J_n} as a vectorized callable; n >= 1."""
    v = law.variant
    if isinstance(v, LogNormal):
        if v.sigma_j == 0.0:
            raise ParamError("degenerate LogNormal(sigma_j=0) has no density")
        mean, sd = n * v.mu_j, math.sqrt(n) * v.sigma_j

        def f(u):
            z = (np.asarray(u, dtype=float) - mean) / sd
            return np.exp(-0.5 * z * z) / (sd * bs_kernel.SQRT_2PI)
        return f
    if isinstance(v, Kou):
        return lambda u: kou_convolution_density(n, u, law)
    if isinstance(v, LogUniform):
        return lambda u: loguniform_convolution_density(n, u, law)
    raise ParamError(f"unknown jump variant {type(v).__name__}")


def jump_support(n: int, law: JumpLaw) -> tuple:
    """(lo, hi, interior breakpoints) for quadrature over f_{J_n}.

    Unbounded laws get +-10 standard deviations; the Kou upper bound is
    stretched so the e^y payoff weight times the e^(-eta1 y) tail is
    negligible even for eta1 near 1.
    """
    v = law.variant
    if isinstance(v, LogNormal):
        mean, sd = n * v.mu_j, math.sqrt(n) * v.sigma_j
        return mean - 10.0 * sd, mean + 10.0 * sd, ()
    if isinstance(v, Kou):
        m1 = v.p / v.eta1 - v.q / v.eta2
        var1 = 2.0 * v.p / v.eta1 ** 2 + 2.0 * v.q / v.eta2 ** 2 - m1 * m1
        sd = math.sqrt(n * var1)
        hi = max(n * m1 + 10.0 * sd, n * 35.0 / (v.eta1 - 1.0) if v.p > 0.0 else 0.0)
        lo = min(n * m1 - 10.0 * sd, -n * 35.0 / v.eta2 if v.q > 0.0 else 0.0)
        return lo, hi, (0.0,)
    if isinstance(v, LogUniform):
        w = v.b - v.a
        kinks = tuple(n * v.a + i * w for i in range(1, n))
        return n * v.a, n * v.b, kinks
    raise ParamError(f"unknown jump variant {type(v).__name__}")


# ---------------------------------------------------------------------------
# generic n-jump mixture

_GN_QUAD = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=512)

_KERNELS = {name: lambda *args, i=i: bs_kernel.pricer_kernels_arr(*args)[i]
            for i, name in enumerate(("price", "gamma", "gamma2", "lambda_gamma"))}


def gn_generic(x: float, n: int, law: JumpLaw, v0: float, r_eff: float,
               strike: float, big_t: float, kernel: str = "price",
               quad: QuadratureConfig = _GN_QUAD) -> float:
    """E[ kernel(0, x + J_n, v0) ] at rate r_eff by adaptive quadrature.

    kernel is one of price | gamma | gamma2 | lambda_gamma. n=0 is the
    empty convolution: the kernel at x itself.
    """
    if n < 0:
        raise ParamError(f"n must be >= 0, got {n}")
    kfun = _KERNELS[kernel]
    if n == 0:
        return float(kfun(np.array([x]), v0, strike, r_eff, big_t)[0])
    dens = convolution_density(n, law)
    lo, hi, kinks = jump_support(n, law)

    def integrand(y):
        return kfun(x + y, v0, strike, r_eff, big_t) * dens(y)

    edges = [lo, *kinks, hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        res = gk15_adaptive(integrand, a, b, quad)
        total += res.value
    return total
