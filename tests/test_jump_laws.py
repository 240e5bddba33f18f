"""Jump amplitude laws: compensators, pmf series, n-fold densities, G_n."""
import math
import sys

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import pdtrc

import _frozen as fz
from svj import bs_kernel
from svj.errors import ParamError, SeriesTruncationError
from svj.jump_laws import (N_MAX_CAP, JumpLaw, Kou, LogNormal, LogUniform,
                           compensator_k, convolution_density, exp_half_moment,
                           gn_generic, jump_char_fn, jump_support,
                           lognormal_shift, poisson_pmf, truncate_series)
from svj.quadrature import QuadratureConfig

LN = JumpLaw(intensity=0.05, variant=LogNormal(mu_j=-0.05, sigma_j=0.5))
KOU = JumpLaw(intensity=0.1, variant=Kou(p=0.4, eta1=10.0, eta2=5.0))
LU = JumpLaw(intensity=0.1, variant=LogUniform(a=-0.3, b=0.2))


def test_compensators_frozen():
    assert abs(compensator_k(LN) - fz.K_LOGNORMAL) < 1e-15
    assert abs(compensator_k(KOU) - fz.K_KOU) < 1e-15
    assert abs(compensator_k(LU) - fz.K_LOGUNIFORM) < 1e-15


def test_compensator_is_mean_jump_size():
    # k = E[e^Y - 1], checked by direct quadrature for each law
    for law in (LN, KOU, LU):
        lo, hi, _ = jump_support(1, law)
        dens = convolution_density(1, law)
        val, _ = integrate.quad(lambda u: (math.exp(u) - 1.0) * dens(u),
                                lo, hi, points=[0.0], limit=200,
                                epsabs=1e-12, epsrel=1e-11)
        assert compensator_k(law) == pytest.approx(val, abs=5e-11)


def test_poisson_pmf_vs_scipy():
    for lam_t in (1e-12, 0.015, 0.9, 7.0, 60.0):
        for n in (0, 1, 2, 5, 40):
            assert poisson_pmf(n, lam_t) == pytest.approx(
                stats.poisson.pmf(n, lam_t), rel=1e-12, abs=1e-300)


def test_truncation_tail_bound():
    for lam_t in (0.015, 0.5, 3.0, 25.0):
        tr, _ = truncate_series(lam_t, tol=1e-12)
        cum = math.fsum(poisson_pmf(n, lam_t) for n in range(tr.n_max + 1))
        assert 1.0 - cum <= 1e-12
        assert tr.tail_mass <= 1e-12


def _log_space_rel_err(n, lam_t):
    """Twice the size of the exponent n ln(lambda_T) - lambda_T - ln n!
    times eps: a bound on the relative rounding error of a pmf value
    taken in log space, hence of a tail summed from such values."""
    size = n * abs(math.log(lam_t)) + lam_t + math.lgamma(n + 1)
    return 2.0 * sys.float_info.epsilon * size


def test_truncation_weights_are_the_pmf():
    """The weights are p_0 .. p_n_max, read-only; math.lgamma and
    scipy's gammaln may round ln n! apart by an ulp or two, which at
    lambda_T = 25 (n up to 68, ln n! ~ 220) is 5.7e-14 relative."""
    for lam_t in (0.015, 0.5, 3.0, 25.0):
        tr, weights = truncate_series(lam_t)
        assert not weights.flags.writeable
        assert len(weights) == tr.n_max + 1
        for n, w in enumerate(weights):
            rel = max(1e-14, _log_space_rel_err(n, lam_t))
            assert w == pytest.approx(poisson_pmf(n, lam_t), abs=0, rel=rel)
    tr, weights = truncate_series(0.0)
    assert (tr.n_max, tr.tail_mass) == (0, 0.0) and weights.tolist() == [1.0]


def test_truncation_cap_raises():
    """N_MAX_CAP guards memory: a series that would need more terms is
    refused before any array is built, at lambda_T = 1e5."""
    with pytest.raises(SeriesTruncationError):
        truncate_series(float(N_MAX_CAP), tol=1e-12)
    with pytest.raises(ParamError):
        truncate_series(-1.0)


def test_truncation_matches_the_poisson_survival_function():
    """Against scipy's pdtrc(n, mu) = P(N > n), over mu from 0 to 1000,
    far past the old 200-term cap, and tolerances from 0.5 down to 1e-15,
    about 4.5 eps: n_max is the least n whose tail is <= tol, and
    tail_mass is that tail. Both hold within the rounding of the
    log-space pmf, ~1e-12 relative at mu = 1000 and ~1e-15 near mu = 1."""
    for tol in (0.5, 1e-6, 1e-9, 1e-12, 1e-15):
        for mu in np.linspace(0.0, 1000.0, 401):
            mu = float(mu)
            tr, _ = truncate_series(mu, tol)
            n = tr.n_max
            if mu == 0.0:
                assert (n, tr.tail_mass) == (0, 0.0)
                continue
            rel = 1e-14 + _log_space_rel_err(n + 1, mu)
            assert tr.tail_mass == pytest.approx(pdtrc(n, mu), abs=0, rel=rel)
            assert tr.tail_mass <= tol
            assert n == 0 or pdtrc(n - 1, mu) > tol * (1.0 - rel)


def test_char_fn_frozen():
    uc = 0.7 - 0.2j
    assert abs(jump_char_fn(LN, uc) - fz.CF_LOGNORMAL_UC) < 1e-14
    assert abs(jump_char_fn(LN, 2.0) - fz.CF_LOGNORMAL_U2) < 1e-14
    assert abs(jump_char_fn(KOU, uc) - fz.CF_KOU_UC) < 1e-14
    assert abs(jump_char_fn(KOU, 2.0) - fz.CF_KOU_U2) < 1e-14
    assert abs(jump_char_fn(LU, uc) - fz.CF_LOGUNIFORM_UC) < 1e-14
    assert abs(jump_char_fn(LU, 2.0) - fz.CF_LOGUNIFORM_U2) < 1e-14
    # near u = 0, where e^z - 1 cancels in (e^z - 1)/z
    for u, want in ((1e-7, fz.CF_LOGUNIFORM_U1EM7),
                    (1e-5, fz.CF_LOGUNIFORM_U1EM5),
                    (1e-3, fz.CF_LOGUNIFORM_U1EM3)):
        assert abs(jump_char_fn(LU, u) - want) < 1e-14, u


def test_char_fn_basics():
    for law in (LN, KOU, LU):
        assert jump_char_fn(law, 0.0) == pytest.approx(1.0, abs=1e-15)
        u = 1.7
        assert jump_char_fn(law, -u) == pytest.approx(
            np.conj(jump_char_fn(law, u)), abs=1e-15)
        assert abs(jump_char_fn(law, u)) <= 1.0 + 1e-15
        # an array mixing u = 0 with u != 0: LogUniform's z = 0 guard
        mixed = jump_char_fn(law, np.array([0.0, u, 0.0, -2.3]))
        assert mixed.shape == (4,)
        assert mixed[0] == mixed[2] == pytest.approx(1.0, abs=1e-15)
        assert mixed[1] == pytest.approx(jump_char_fn(law, u), abs=1e-15)
        assert mixed[3] == pytest.approx(jump_char_fn(law, -2.3), abs=1e-15)


@pytest.mark.parametrize("law", [
    LN, KOU, LU,
    JumpLaw(intensity=1.0, variant=LogNormal(mu_j=0.3, sigma_j=0.0)),
    JumpLaw(intensity=1.0, variant=Kou(p=0.9, eta1=1.0 + 1e-9, eta2=0.1)),
    JumpLaw(intensity=1.0, variant=Kou(p=0.0, eta1=2.0, eta2=3.0)),
    JumpLaw(intensity=1.0, variant=LogUniform(a=-0.2, b=-0.2 + 1e-12)),
    JumpLaw(intensity=1.0, variant=LogUniform(a=0.0, b=1e-12)),
    JumpLaw(intensity=1.0, variant=LogUniform(a=-2.0, b=1.5)),
])
def test_exp_half_moment_is_the_char_fn_at_minus_half_i(law):
    """E e^(Y/2) in closed form is E e^(iuY) at u = -i/2 to a few ulp."""
    want = jump_char_fn(law, -0.5j)
    assert want.imag == 0.0
    assert abs(exp_half_moment(law) - want.real) <= 4.0 * np.spacing(want.real)


def test_char_fn_is_density_transform():
    # FT of the one-fold density reproduces the closed CF
    u = 1.3
    for law in (KOU, LU):
        dens = convolution_density(1, law)
        lo, hi, _ = jump_support(1, law)
        re, _ = integrate.quad(lambda s: math.cos(u * s) * dens(s), lo, hi,
                               points=[0.0], limit=300, epsabs=1e-12)
        im, _ = integrate.quad(lambda s: math.sin(u * s) * dens(s), lo, hi,
                               points=[0.0], limit=300, epsabs=1e-12)
        assert complex(re, im) == pytest.approx(jump_char_fn(law, u),
                                                abs=5e-10)


def test_densities_nonnegative_and_mass_one():
    for law in (KOU, LU, LN):
        for n in (1, 2, 3, 5):
            dens = convolution_density(n, law)
            lo, hi, kinks = jump_support(n, law)
            pts = [p for p in kinks if lo < p < hi]
            xs = np.linspace(lo, hi, 901)
            assert all(dens(float(s)) >= 0.0 for s in xs)
            mass, _ = integrate.quad(dens, lo, hi, points=pts,
                                     limit=50 * (len(pts) + 2), epsabs=1e-11)
            assert mass == pytest.approx(1.0, abs=1e-9)


def test_kou_two_fold_frozen_points():
    dens = convolution_density(2, KOU)
    assert dens(-0.3) == pytest.approx(fz.KOU2_M03, rel=1e-13)
    assert dens(0.0) == pytest.approx(fz.KOU2_ZERO, rel=1e-13)
    assert dens(0.25) == pytest.approx(fz.KOU2_P025, rel=1e-13)


def test_loguniform_two_fold_frozen_points():
    dens = convolution_density(2, LU)
    assert dens(-0.45) == pytest.approx(fz.LU2_M045, rel=1e-12)
    assert dens(-0.1) == pytest.approx(fz.LU2_M01, rel=1e-12)
    assert dens(0.3) == pytest.approx(fz.LU2_P03, rel=1e-12)


def test_self_convolution():
    """f_n(u) = int f_{n-1}(u-s) f_1(s) ds at probe points."""
    for law in (KOU, LU):
        f1 = convolution_density(1, law)
        lo1, hi1, _ = jump_support(1, law)
        for n in (2, 3):
            fn = convolution_density(n, law)
            fprev = convolution_density(n - 1, law)
            lo, hi, _ = jump_support(n, law)
            for u in np.linspace(lo * 0.6, hi * 0.6, 7):
                want, _ = integrate.quad(
                    lambda s: fprev(u - s) * f1(s), lo1, hi1,
                    points=[0.0, u], limit=300, epsabs=1e-12)
                assert fn(float(u)) == pytest.approx(want, abs=2e-9)


def test_kou_coefficient_mass():
    # P and Q rows stay a probability split even at large n (log-space path)
    from svj.jump_laws import _kou_coeffs
    for n in (1, 2, 7, 21, 60):
        big_p, big_q = _kou_coeffs(n, KOU.variant.p, KOU.variant.eta1,
                                   KOU.variant.eta2)
        assert math.fsum(big_p) + math.fsum(big_q) == pytest.approx(
            1.0, abs=1e-12)
        assert big_p[-1] == pytest.approx(KOU.variant.p ** n, rel=1e-12)


def test_lognormal_convolution_is_normal():
    dens = convolution_density(3, LN)
    want = stats.norm.pdf(0.1, loc=3 * -0.05, scale=math.sqrt(3.0) * 0.5)
    assert dens(0.1) == pytest.approx(want, rel=1e-13)


def test_lognormal_shift_values():
    v0, r, big_t = 0.49, 0.001, 0.3
    lam_k = LN.intensity * compensator_k(LN)
    for n in (0, 1, 4):
        vt, rt = lognormal_shift(n, LN, v0, r, big_t)
        assert vt ** 2 == pytest.approx(v0 ** 2 + n * 0.25 / big_t, rel=1e-14)
        c_n = -lam_k + n * (-0.05 + 0.125) / big_t
        assert rt == pytest.approx(r + c_n, rel=1e-14)
        # measure identity: e^{c_n T} = e^{-lam k T} (1 + k)^n
        want = math.exp(-lam_k * big_t) * (1.0 + compensator_k(LN)) ** n
        assert math.exp(c_n * big_t) == pytest.approx(want, rel=1e-13)


GN_QUAD = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=1024)


def test_gn_zero_jumps_is_bs():
    x, v0, r_eff = math.log(100.0), 0.49, 0.0021
    got = gn_generic(x, 0, LN, v0, r_eff, 100.0, 0.3, quad=GN_QUAD)
    assert got == pytest.approx(bs_kernel.bs_price(x, v0, 100.0, r_eff, 0.3),
                                rel=1e-14)


def test_gn_lognormal_quadrature_vs_frozen():
    """The generic quadrature hits the 50-digit mixture values."""
    x = math.log(100.0)
    v0 = fz.V0_FIG1
    k = fz.K_LOGNORMAL
    r_hat = 0.001 - 0.05 * k
    scale = math.exp(-0.05 * k * 0.3)
    g1 = scale * gn_generic(x, 1, LN, v0, r_hat, 100.0, 0.3, quad=GN_QUAD)
    g2 = scale * gn_generic(x, 2, LN, v0, r_hat, 100.0, 0.3, quad=GN_QUAD)
    assert g1 == pytest.approx(fz.GN1_FIG1_K100, rel=1e-11)
    assert g2 == pytest.approx(fz.GN2_FIG1_K100, rel=1e-11)


def test_gn_operator_kernels_match_shifted_closed_form():
    """Mixture of an x-operator equals the operator of the shifted BS."""
    x, v0, big_t = math.log(100.0), 0.49, 0.3
    k = compensator_k(LN)
    r_hat = 0.001 - LN.intensity * k
    for n in (1, 3):
        vt, rt = lognormal_shift(n, LN, v0, 0.001, big_t)
        boost = (1.0 + k) ** n
        for kernel, closed in (("price", bs_kernel.bs_price),
                               ("gamma", bs_kernel.gamma_bs),
                               ("gamma2", bs_kernel.gamma2_bs),
                               ("lambda_gamma", bs_kernel.lambda_gamma_bs)):
            got = gn_generic(x, n, LN, v0, r_hat, 100.0, big_t, kernel=kernel,
                             quad=GN_QUAD)
            want = boost * closed(x, vt, 100.0, rt, big_t)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_validation():
    with pytest.raises(ParamError):
        Kou(p=1.4, eta1=10.0, eta2=5.0)
    with pytest.raises(ParamError):
        Kou(p=0.4, eta1=0.9, eta2=5.0)  # eta1 must exceed 1
    with pytest.raises(ParamError):
        LogUniform(a=0.5, b=0.1)
    with pytest.raises(ParamError):
        JumpLaw(intensity=-0.1, variant=LogNormal(mu_j=0.0, sigma_j=0.1))
    assert KOU.variant.q == pytest.approx(0.6)
