"""Poisson-weighted three-term decomposition pricer for SVJ models.

The European call value is approximated by

    V0 ~ sum_n p_n(lambda T) [ G_n + Gamma2 G_n * r0 + LambdaGamma G_n * u0 ]

where G_n is the discounted n-jump-conditioned Black-Scholes mixture

    G_n = e^(-lambda k T) E[ bs_price(0, x + J_n, v0) ]   at rate r - lambda k,

r0 and u0 come from heston_moments, and the Gamma2 / LambdaGamma images
of G_n are the same mixtures of the bs_kernel operators. For LogNormal
amplitudes the mixture has the closed form

    G_n = e^(c_n T) bs_price(0, x, v_tilde_n)  at rate r_tilde_n = r + c_n,

and c_n T = -lambda k T + n ln(1 + k) makes p_n(lambda T) e^(c_n T) the
Poisson(lambda (1 + k) T) pmf pi_n: Merton's (1976) series, cut where
its tail mass is <= tol, so that with bs_price <= S0 the dropped part
of the base term is at most tol S0. jump_laws.truncate_series gives the
cut and the pi_n as one array (MaturityTerms.weights), with each tail
summed from the top, for any lambda T up to a memory guard.
For Kou and LogUniform amplitudes the three sums are Fourier integrals
instead: sum_n p_n G_n is the Lewis (2001) price of the nu = 0 model
with variance v0^2 and the same jumps, and Gamma2, LambdaGamma act on
its integrand as the multipliers (u^2 + 1/4)^2 and -(iu + 1/2)(u^2 +
1/4). One characteristic-function evaluation per node then yields all
three terms, and the Poisson series is never summed (_lewis_sums);
maturity_terms still reports its Poisson(lambda T) truncation. The
integral over [0, U] is taken on u = U s^2, s in [0, 1]: the weight
1/(u^2 + 1/4) has poles at u = +-i/2, a feature about 1/2 wide at u = 0
whatever the cutoff U (13-37 on the generic_laws benchmark), and the
map puts the first of gk15_adaptive's 16 starting pieces at width U/256
there, in place of U/16, so one round of nodes resolves it.

All but the kernel evaluations depend on (params, T) alone, not on the
strike: each smile builds them once (maturity_terms), with ln n! read
from a cached table. The strike axis is one pass too. pair_strikes
checks a smile's strikes by comparisons, building a Contract only for a
refused strike, to give its error; where every strike passes, a plain
sort orders them. For LogNormal amplitudes, price_smile evaluates the
kernels of every (term, strike) pair as one stacked (kernel, strike,
term) numpy array (bs_kernel.pricer_kernels_arr), weights it by pi_n in
place and adds each strike's terms in order, n = 0 first, by one
in-place cumsum; PriceResult objects, plain slotted dataclasses, are
built only from the summed arrays. A matrix product would round by BLAS
block and ndarray.sum pairwise, and neither keeps a strike's sums free
of the other strikes and of the series' length.
price_approx is the one-strike case of the same pass, bit for bit. For
other laws, every strike's three integrands share one adaptive GK15 node
set (a stacked quadrature.gk15_adaptive), so price_approx agrees with
the matching price_smile entry to quadrature tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bs_kernel, heston_moments, jump_laws, quadrature
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
        # an np.float32 r would carry float32 arithmetic into every route
        object.__setattr__(self, "r", float(self.r))
        if self.r < 0.0:
            raise ParamError(f"r must be >= 0, got {self.r}")


# Built per strike on the hot path, so not frozen: a frozen dataclass's
# __init__ sets each field through object.__setattr__, about three times
# the cost. So a PriceResult compares by value but is not hashable.
@dataclass(slots=True)
class PriceResult:
    price: float
    base_term: float
    r0_term: float
    u0_term: float
    truncation: SeriesTruncation


@dataclass(slots=True, eq=False)
class MaturityTerms:
    """Strike-free inputs at one (params, T). LogNormal laws: truncation
    of Poisson(lambda (1+k) T), whose read-only weights pi_n multiply the
    kernels at the read-only shifted inputs vol[n], rate[n]. Other laws:
    the Poisson(lambda T) truncation and weights, reported only; vol and
    rate are None. Built once per smile, by maturity_terms alone, and not
    frozen (see PriceResult); nothing changes it after."""
    params: ModelParams
    maturity: float
    v0: float
    u0: float
    r0: float
    truncation: SeriesTruncation
    weights: np.ndarray
    vol: np.ndarray = None
    rate: np.ndarray = None


def maturity_terms(params: ModelParams, big_t: float,
                   tol: float = jump_laws.DEFAULT_SERIES_TOL) -> MaturityTerms:
    """v0, u0, r0, the series truncation and weights and, for LogNormal
    amplitudes, every term's shifted inputs at T."""
    if not (math.isfinite(big_t) and big_t > 0.0):
        raise ParamError(f"maturity must be finite and > 0, got {big_t}")
    big_t = float(big_t)    # an np.float32 T would round every term to float32
    jumps = params.jumps
    lognormal = isinstance(jumps.variant, LogNormal)
    # p_n(lambda T) e^(c_n T) = pi_n, the Poisson(lambda (1+k) T) pmf
    growth = 1.0 + jump_laws.compensator_k(jumps) if lognormal else 1.0
    trunc, weights = jump_laws.truncate_series(
        jumps.intensity * growth * big_t, tol)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, big_t)
    vol = rate = None
    if lognormal:
        # a float arange: n enters only float products, exact either way
        vol, rate = jump_laws.lognormal_shift(np.arange(trunc.n_max + 1.0),
                                              jumps, v0, params.r, big_t)
        vol.flags.writeable = rate.flags.writeable = False
    return MaturityTerms(params=params, maturity=big_t, v0=v0,
                         u0=heston_moments.u0(params.heston, big_t),
                         r0=heston_moments.r0(params.heston, big_t),
                         truncation=trunc, weights=weights, vol=vol,
                         rate=rate)


def _price_strikes(mt: MaturityTerms, s0: float, strikes) -> list:
    """PriceResult per strike, all from the one maturity's terms.

    The three sums (sum pi_n G_n, and its Gamma2 and LambdaGamma images)
    come as arrays over the strikes. LogNormal amplitudes: one numpy pass
    gives the kernels as one stacked (kernel, strikes, terms) array,
    weighted by pi_n and added in order, n = 0 first, by one cumsum over
    the terms, both in place, so a strike's sums do not depend on the
    other strikes of the pass, and a longer series never sums lower.
    Neither a matrix product (BLAS rounds by block, so price_approx
    would drift from its price_smile entry) nor ndarray.sum (pairwise:
    the base term could drop as tol shrinks) keeps that. Other laws: one Lewis integral per maturity
    (_lewis_sums). The terms are then combined elementwise, so price =
    base_term + r0_term + u0_term bit-exactly, and the PriceResults are
    built from the arrays' tolist()s.
    """
    big_t = mt.maturity
    if mt.vol is not None:
        # v_tilde_n grows with n: one degenerate check covers every term
        bs_kernel.check_nondegenerate(float(mt.vol[0]), big_t)
        kernels = bs_kernel.pricer_kernels_arr(
            math.log(s0), mt.vol, np.asarray(strikes, dtype=float)[:, None],
            mt.rate, big_t)
        # (4 kernels, strikes, terms), weighted and summed over the terms
        # in place (add.accumulate is cumsum without its wrapper); the
        # G BS row is summed too and not read
        kernels *= mt.weights
        base, _, g2, lg = np.add.accumulate(kernels, axis=-1, out=kernels)[..., -1]
    else:
        bs_kernel.check_nondegenerate(mt.v0, big_t)
        base, g2, lg = _lewis_sums(mt, s0, strikes)
    r0_term = mt.r0 * g2
    u0_term = mt.u0 * lg
    price = base + r0_term + u0_term
    trunc = mt.truncation
    return [PriceResult(p, b, r, u, trunc) for p, b, r, u in
            zip(price.tolist(), base.tolist(), r0_term.tolist(),
                u0_term.tolist())]


# the tolerances of gn_generic's quadratures, jump_laws._GN_QUAD; the
# budget is larger, since one integral carries every series term, kernel
# and strike of the maturity. A wide law (Kou with eta1 near 1, lambda T
# of order 1) puts the strikes ~10 log-units from the unjumped mass, and
# its integrands oscillate across up to ~1500 subintervals
_LEWIS_QUAD = quadrature.QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10,
                                         max_subdivisions=4096)
# bound on the integrals' tails beyond the cutoff, see _lewis_cutoff
_LEWIS_TAIL = 1e-15


def _lewis_sums(mt: MaturityTerms, s0: float, strikes) -> tuple:
    """(sum p_n G_n, sum p_n Gamma2 G_n, sum p_n LambdaGamma G_n), each an
    array over the strikes, from the nu = 0 model with variance v0^2 and
    the same jumps, whose Lewis (2001) call price is sum p_n G_n:

        base = S0 - c int_0^inf Re[e^(iu kbar) phihat(u - i/2)] / (u^2 + 1/4) du

    with c = sqrt(S0 K) e^(-rT/2) / pi and kbar = ln(S0/K) + rT. The
    integrand depends on x = ln S0 only through e^((iu + 1/2) x), so
    D = d/dx acts as (iu + 1/2) and Gamma = D^2 - D as -(u^2 + 1/4):
    Gamma2 takes the weight -(u^2 + 1/4) in place of 1/(u^2 + 1/4), and
    LambdaGamma the weight (iu + 1/2). All strikes' three integrands
    share one adaptive node set and one evaluation of phihat's exponent;
    the phase iu kbar joins that exponent, so each node and strike costs
    one complex exponential.

    The range [0, U], U = _lewis_cutoff, is integrated on u = U s^2 as
    g(s) = f(U s^2) 2 U s over s in [0, 1]. The substitution is exact,
    so the cutoff's tail bound holds unchanged. The feature of the
    weight near u = 0 (its poles at +-i/2) has a fixed width, against a
    U that grows as v0^2 T shrinks; equal pieces of [0, U] would take
    2-4 rounds to bisect their first piece down to it, while equal
    pieces of s meet it at width U/256 in the first round. The Jacobian
    2 U s grows only where e^(-v0^2 T u^2 / 2) has already decayed.
    """
    big_t, law, r = mt.maturity, mt.params.jumps, mt.params.r
    strikes = np.array(strikes, dtype=float)
    ikbar = 1j * (np.log(s0 / strikes) + r * big_t)[:, None]
    var_t = mt.v0 * mt.v0 * big_t
    big_u = _lewis_cutoff(law, var_t, big_t)

    def integrand(s):
        u = big_u * s * s
        w = u * u + 0.25           # i z + z^2 at z = u - i/2
        # e^(iu kbar) phihat(u - i/2)
        e = np.exp((-0.5 * var_t * w + jump_laws.jump_exponent(law, u - 0.5j, big_t))
                   + ikbar * u)
        # du = 2 U s ds
        return (np.concatenate([e.real / w, e.real * w, 0.5 * e.real - u * e.imag])
                * (2.0 * big_u * s))

    ints = quadrature.gk15_adaptive(integrand, 0.0, 1.0, _LEWIS_QUAD).value
    n = len(strikes)
    c = np.sqrt(s0 * strikes) * math.exp(-0.5 * r * big_t) / math.pi
    return s0 - c * ints[:n], -c * ints[n:2 * n], c * ints[2 * n:]


def _lewis_cutoff(law: JumpLaw, var_t: float, big_t: float) -> float:
    """U with every _lewis_sums integrand's integral over [U, inf) below
    _LEWIS_TAIL in absolute value.

    |phihat(u - i/2)| <= B e^(-a u^2), a = v0^2 T / 2, where
    B = exp(lambda T (E e^(Y/2) - 1) - lambda k T / 2) bounds the jump
    factor, since |Psi(u - i/2)| <= E e^(Y/2) (jump_laws.exp_half_moment,
    in closed form). For u >= 1 each weight is at most u^2 + 5/4, and
    int_U^inf (u^2 + c) e^(-a u^2) du <= (U^2 + 1/a + c) e^(-a U^2) / (2 a U).
    U solves a U^2 = ln(B (U^2 + 1/a + 5/4) / (2 a U _LEWIS_TAIL)) by
    fixed-point steps from max(1, 1/sqrt(a)), taken until the bound holds
    at U. Each step at least halves the gap between the two sides, since
    a U^2 >= 1, and lands a relative 1e-12 past the root it aims at, so
    the loop ends.

    A finite range keeps the nodes where the integrand lives: the map of
    integrate_semi_infinite crowds a wide law's oscillations near s = 0
    and needs ~8x the subintervals. _lewis_sums integrates [0, U] on
    u = U s^2, which refines only near u = 0, where the weight's poles
    at +-i/2 set a width that does not scale with U.
    """
    a = 0.5 * var_t
    lam_t = law.intensity * big_t
    log_b = 0.0
    if lam_t > 0.0:
        log_b = (lam_t * (jump_laws.exp_half_moment(law) - 1.0)
                 - 0.5 * lam_t * jump_laws.compensator_k(law))
    log_ratio = log_b - math.log(_LEWIS_TAIL)
    u = max(1.0, 1.0 / math.sqrt(a))
    while True:
        excess = log_ratio + math.log((u * u + 1.0 / a + 1.25) / (2.0 * a * u))
        if not a * u * u < excess:      # a NaN stops here too
            return u
        u = math.sqrt(excess / a) * (1.0 + 1e-12)


def price_approx(params: ModelParams, contract: Contract,
                 tol: float = jump_laws.DEFAULT_SERIES_TOL) -> PriceResult:
    """Three-term decomposition price; terms reported separately.

    The one-strike case of price_smile's pass; tol is the series tail
    tolerance of maturity_terms.
    """
    mt = maturity_terms(params, contract.maturity, tol)
    return _price_strikes(mt, contract.s0, [contract.strike])[0]


def price_smile(params: ModelParams, s0: float, strikes, big_t: float) -> list:
    """price_approx across strikes of one maturity, in one pass.

    Returns a list of (strike, PriceResult | Exception), ascending
    strike. A strike that is no valid Contract gets its own ParamError;
    a failure to build the maturity's terms, or of the pass, is paired
    with every valid strike.
    """
    return pair_strikes(s0, strikes, big_t, lambda valid: _price_strikes(
        maturity_terms(params, big_t), s0, valid))


def pair_strikes(s0: float, strikes, big_t: float, price) -> list:
    """(strike, result | Exception) per strike, ascending, NaN last.

    A strike that is no valid Contract gets its own ParamError. The
    valid strikes go, as one float array, to one call of price(valid
    strikes), which returns a result per strike; its failure is paired
    with every valid strike. A Contract is built only for a strike that
    _strike_mask does not pass, to give its error. Where _strike_mask
    passes every strike, none is NaN, and the strikes are sorted and
    priced as they stand.
    """
    if len(strikes) == 0:
        raise ParamError("strikes must be nonempty")
    mask = _strike_mask(s0, strikes, big_t)
    if all(mask):
        strikes = sorted(strikes)
        return list(zip(strikes, _price_valid(price, strikes)))
    # k != k for NaN alone; sorted() would leave a NaN where it stands
    pairs = sorted(zip(strikes, mask), key=lambda p: (p[0] != p[0], p[0]))
    results = [None] * len(pairs)
    for i, (k, ok) in enumerate(pairs):
        if not ok:
            try:
                Contract(s0=s0, strike=k, maturity=big_t)
            except ParamError as exc:
                results[i] = exc
    valid = [i for i, res in enumerate(results) if res is None]
    if valid:
        priced = _price_valid(price, [pairs[i][0] for i in valid])
        for i, res in zip(valid, priced):
            results[i] = res
    return [(k, res) for (k, _), res in zip(pairs, results)]


def _price_valid(price, strikes) -> list:
    """price(strikes as one float array): one pass over every valid
    strike, whose failure is paired with each of them."""
    try:
        return price(np.array(strikes, dtype=float))
    except PRICING_ERRORS as exc:
        return [exc] * len(strikes)


# the types whose Contract check is "finite and > 0" of the float value
_FLOAT_TYPES = frozenset((float, int, np.float64, np.float32))


def _strike_mask(s0, strikes, big_t) -> list:
    """Per strike, whether Contract(s0, strike, T) is valid: 0 < strike <
    inf, told exactly where s0 and T are finite and > 0 and all of s0, T
    and the strikes are floats, ints, np.float64 or np.float32 (an int
    beyond the float range is valid, and fails the pass's float array);
    elsewhere every entry is None, and each strike's Contract must tell."""
    if (type(s0) in _FLOAT_TYPES and type(big_t) in _FLOAT_TYPES
            and 0.0 < s0 < math.inf and 0.0 < big_t < math.inf
            and _FLOAT_TYPES.issuperset(map(type, strikes))):
        return [0.0 < k < math.inf for k in strikes]
    return [None] * len(strikes)
