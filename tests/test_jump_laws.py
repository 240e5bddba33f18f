"""Jump amplitude laws: compensators, pmf series, n-fold densities, G_n."""
import math

import numpy as np
import pytest
from scipy import integrate, stats

import _frozen as fz
from svj import bs_kernel
from svj.errors import ParamError, SeriesTruncationError
from svj.jump_laws import (N_MAX_CAP, JumpLaw, Kou, LogNormal, LogUniform,
                           SeriesTruncation, compensator_k,
                           convolution_density, gn_generic, jump_char_fn,
                           jump_support, lognormal_shift, poisson_pmf,
                           truncate_series)
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
        tr = truncate_series(lam_t, tol=1e-12)
        cum = math.fsum(poisson_pmf(n, lam_t) for n in range(tr.n_max + 1))
        assert 1.0 - cum <= 1e-12
        assert tr.tail_mass <= 1e-12


def test_truncation_weights_are_the_pmf():
    for lam_t in (0.0, 0.015, 0.5, 3.0, 25.0):
        tr = truncate_series(lam_t)
        assert tr.weights == tuple(poisson_pmf(n, lam_t)
                                   for n in range(tr.n_max + 1))
    assert truncate_series(0.0).weights == (1.0,)


def test_truncation_cap_raises():
    with pytest.raises(SeriesTruncationError):
        truncate_series(500.0, tol=1e-12)


def _truncate_series_by_prefix_sums(lambda_t, tol=1e-12, cap=N_MAX_CAP):
    """truncate_series's definition, O(n^2): 1 - fsum over the whole
    prefix at each n."""
    pmf = []
    for n in range(cap + 1):
        pmf.append(poisson_pmf(n, lambda_t))
        tail = 1.0 - math.fsum(pmf)
        if tail <= tol:
            return SeriesTruncation(n_max=n, tail_mass=max(0.0, tail),
                                    tolerance=tol, weights=tuple(pmf))
    raise SeriesTruncationError(f"cap {cap} reached")


def _truncation_or_error(truncate, lambda_t, tol):
    try:
        return truncate(lambda_t, tol)
    except SeriesTruncationError:
        return SeriesTruncationError


def test_truncation_is_its_prefix_sum_definition_bit_for_bit():
    """The screened running sum gives every tail, n_max and weight the
    O(n^2) definition gives, over lambda_T up to the cap, at tolerances
    from 0.5 down to a few ulps (where the screen passes every n to
    fsum), and on both sides of the lambda_T where SeriesTruncationError
    starts."""
    for tol in (0.5, 1e-6, 1e-9, 1e-12, 1e-15):
        for lam_t in np.linspace(0.0, 150.0, 301):
            lam_t = float(lam_t)
            assert (_truncation_or_error(truncate_series, lam_t, tol)
                    == _truncation_or_error(_truncate_series_by_prefix_sums,
                                            lam_t, tol))
    # bisect the definition for the first lambda_T it refuses at 1e-12
    ok, refused = 100.0, 150.0
    while math.nextafter(ok, refused) != refused:
        mid = 0.5 * (ok + refused)
        if _truncation_or_error(_truncate_series_by_prefix_sums, mid,
                                1e-12) is SeriesTruncationError:
            refused = mid
        else:
            ok = mid
    assert truncate_series(ok) == _truncate_series_by_prefix_sums(ok)
    assert truncate_series(ok).n_max == N_MAX_CAP
    with pytest.raises(SeriesTruncationError):
        truncate_series(refused)


def test_char_fn_frozen():
    uc = 0.7 - 0.2j
    assert abs(jump_char_fn(LN, uc) - fz.CF_LOGNORMAL_UC) < 1e-14
    assert abs(jump_char_fn(LN, 2.0) - fz.CF_LOGNORMAL_U2) < 1e-14
    assert abs(jump_char_fn(KOU, uc) - fz.CF_KOU_UC) < 1e-14
    assert abs(jump_char_fn(KOU, 2.0) - fz.CF_KOU_U2) < 1e-14
    assert abs(jump_char_fn(LU, uc) - fz.CF_LOGUNIFORM_UC) < 1e-14
    assert abs(jump_char_fn(LU, 2.0) - fz.CF_LOGUNIFORM_U2) < 1e-14


def test_char_fn_basics():
    for law in (LN, KOU, LU):
        assert jump_char_fn(law, 0.0) == pytest.approx(1.0, abs=1e-15)
        u = 1.7
        assert jump_char_fn(law, -u) == pytest.approx(
            np.conj(jump_char_fn(law, u)), abs=1e-15)
        assert abs(jump_char_fn(law, u)) <= 1.0 + 1e-15


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
