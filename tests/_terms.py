"""Per-term closed forms of the decomposition that only the tests use.

gn_term gives one series term's three kernel values; gamma_n,
bates_gamma_n, d_b1 and d_b2 are the closed forms of the log-normal
D_B terms of the implied-vol expansion. The library computes the same
quantities as sums inside approx_pricer.price_approx; these evaluate
them term by term so the tests can compare each against quadrature and
the frozen oracles. expected_variance and phi are the integrands of the
u0 and r0 functionals, which heston_moments gives in closed form.
"""
import math

from svj import bs_kernel, heston_moments, jump_laws
from svj.errors import ParamError
from svj.jump_laws import LogNormal


def expected_variance(params, t: float, s: float) -> float:
    """E_t(sig_s^2) given the time-t variance equals params.sigma0_sq."""
    if s < t:
        raise ParamError(f"need s >= t, got t={t}, s={s}")
    return params.theta + ((params.sigma0_sq - params.theta)
                           * math.exp(-params.kappa * (s - t)))


def phi(params, t: float, big_t: float) -> float:
    """int_t^T e^(-kappa (z - t)) dz = (1 - e^(-kappa (T-t))) / kappa."""
    if big_t < t:
        raise ParamError(f"need T >= t, got t={t}, T={big_t}")
    tau = big_t - t
    x = params.kappa * tau
    return tau if x == 0.0 else tau * (-math.expm1(-x) / x)


def gn_term(n, params, contract) -> tuple:
    """(G_n, Gamma2 G_n, LambdaGamma G_n) at t=0, x=ln s0.

    Values are under the pricing measure (the e^(-lambda k T) mixture
    discount included), so sum_n p_n(lambda T) G_n alone prices the nu=0
    model. LogNormal amplitudes use the shifted closed form, scaled by
    e^(c_n T); other laws the quadrature of the n-fold convolution.
    """
    big_t = contract.maturity
    strike = contract.strike
    x = math.log(contract.s0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, big_t)
    if isinstance(params.jumps.variant, LogNormal):
        vol, rate = jump_laws.lognormal_shift(n, params.jumps, v0, params.r,
                                              big_t)
        scale = math.exp((rate - params.r) * big_t)
        return (scale * bs_kernel.bs_price(x, vol, strike, rate, big_t),
                scale * bs_kernel.gamma2_bs(x, vol, strike, rate, big_t),
                scale * bs_kernel.lambda_gamma_bs(x, vol, strike, rate, big_t))
    lam_k = params.jumps.intensity * jump_laws.compensator_k(params.jumps)
    scale = math.exp(-lam_k * big_t)
    return tuple(scale * jump_laws.gn_generic(x, n, params.jumps, v0,
                                              params.r - lam_k, strike, big_t,
                                              kernel=kernel)
                 for kernel in ("price", "gamma2", "lambda_gamma"))


def gamma_n(x: float, jump_shift: float, r_eff: float, sigma: float,
            strike: float, big_t: float) -> float:
    """(d_+^2(x) - d_+^2(x + shift)) / 2 at fixed rate and volatility."""
    d0, _ = bs_kernel.d_plus_minus(x, sigma, strike, r_eff, big_t)
    d1, _ = bs_kernel.d_plus_minus(x + jump_shift, sigma, strike, r_eff, big_t)
    return 0.5 * (d0 * d0 - d1 * d1)


def bates_gamma_n(n: int, params, x: float, strike: float,
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
