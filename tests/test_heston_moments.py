"""Variance moment functionals vs frozen mpmath values and scipy quad."""
import math

import numpy as np
import pytest
from scipy import integrate

import _frozen as fz
from _terms import expected_variance, phi
from svj.errors import ParamError
from svj.heston_moments import (HestonParams, avg_expected_variance_v0,
                                expected_integrated_variance, r0, u0)

FIG1 = HestonParams(kappa=1.5, theta=0.2, nu=0.05, rho=-0.2, sigma0_sq=0.25)
FIG3 = HestonParams(kappa=1.5, theta=0.2, nu=0.5, rho=-0.8, sigma0_sq=0.25)


def test_frozen_values():
    assert abs(avg_expected_variance_v0(FIG1, 0.3) - fz.V0_FIG1) < 1e-13
    assert abs(u0(FIG1, 0.3) - fz.U0_FIG1) < 1e-16
    assert abs(r0(FIG1, 0.3) - fz.R0_FIG1) < 1e-18
    assert abs(avg_expected_variance_v0(FIG3, 3.0) - fz.V0_FIG3) < 1e-13
    assert abs(u0(FIG3, 3.0) - fz.U0_FIG3) < 1e-13
    assert abs(r0(FIG3, 3.0) - fz.R0_FIG3) < 1e-14


def _quad_u0(p, big_t):
    f = lambda t: expected_variance(p, 0.0, t) * phi(p, t, big_t)
    val, _ = integrate.quad(f, 0.0, big_t, epsabs=1e-14, epsrel=1e-13)
    return p.rho * p.nu / 2.0 * val


def _quad_r0(p, big_t):
    f = lambda t: expected_variance(p, 0.0, t) * phi(p, t, big_t) ** 2
    val, _ = integrate.quad(f, 0.0, big_t, epsabs=1e-14, epsrel=1e-13)
    return p.nu ** 2 / 8.0 * val


def test_closed_forms_vs_quad_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = HestonParams(kappa=rng.uniform(0.3, 4.0),
                         theta=rng.uniform(0.02, 0.6),
                         nu=rng.uniform(0.01, 0.8),
                         rho=rng.uniform(-0.95, 0.0),
                         sigma0_sq=rng.uniform(0.02, 0.6))
        big_t = rng.uniform(0.05, 5.0)
        assert u0(p, big_t) == pytest.approx(_quad_u0(p, big_t),
                                             rel=1e-10, abs=1e-14)
        assert r0(p, big_t) == pytest.approx(_quad_r0(p, big_t),
                                             rel=1e-10, abs=1e-14)


def test_series_direct_branch_agreement():
    """The small-x series and the direct formulas overlap smoothly."""
    for eps_mult in (0.2, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0):
        kappa = 0.01 * eps_mult / 0.3
        p = HestonParams(kappa=kappa, theta=0.3, nu=0.2, rho=-0.5,
                         sigma0_sq=0.1)
        assert u0(p, 0.3) == pytest.approx(_quad_u0(p, 0.3), rel=1e-9)
        assert r0(p, 0.3) == pytest.approx(_quad_r0(p, 0.3), rel=1e-9)


def test_expected_variance_endpoints():
    assert expected_variance(FIG1, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)
    # long horizon pulls to theta
    assert expected_variance(FIG1, 0.0, 80.0) == pytest.approx(0.2, abs=1e-12)


def test_integrated_variance_matches_quad():
    got = expected_integrated_variance(FIG3, 2.7)
    want, _ = integrate.quad(lambda t: expected_variance(FIG3, 0.0, t),
                             0.0, 2.7, epsabs=1e-13)
    assert got == pytest.approx(want, rel=1e-12)


def test_v0_at_zero_maturity_is_spot_vol():
    assert avg_expected_variance_v0(FIG1, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_u0_sign_and_zero_cases():
    assert u0(FIG1, 1.0) < 0.0  # negative correlation
    flat = HestonParams(kappa=1.5, theta=0.2, nu=0.05, rho=0.0, sigma0_sq=0.25)
    assert u0(flat, 1.0) == 0.0
    novol = HestonParams(kappa=1.5, theta=0.2, nu=0.0, rho=-0.5,
                         sigma0_sq=0.25)
    assert u0(novol, 1.0) == 0.0
    assert r0(novol, 1.0) == 0.0


def test_phi_endpoint():
    assert phi(FIG1, 2.0, 2.0) == 0.0


def test_feller_flag():
    assert FIG1.feller_satisfied()
    assert not HestonParams(kappa=0.5, theta=0.05, nu=0.5, rho=-0.5,
                            sigma0_sq=0.1).feller_satisfied()


@pytest.mark.parametrize("value", [np.float32("nan"), np.float16("inf"),
                                   np.longdouble("-inf")])
def test_non_finite_numpy_scalar_refused(value):
    """A NaN or infinity is refused whatever its real type; integers of
    any type pass."""
    with pytest.raises(ParamError, match="theta must be finite"):
        HestonParams(kappa=1.0, theta=value, nu=0.1, rho=-0.5, sigma0_sq=0.2)
    HestonParams(kappa=np.int64(1), theta=np.float32(0.2), nu=0, rho=-0.5,
                 sigma0_sq=10 ** 400)


def test_validation():
    with pytest.raises(ParamError):
        HestonParams(kappa=-1.0, theta=0.2, nu=0.1, rho=-0.5, sigma0_sq=0.2)
    with pytest.raises(ParamError):
        HestonParams(kappa=1.0, theta=0.2, nu=0.1, rho=-1.5, sigma0_sq=0.2)
    with pytest.raises(ParamError):
        HestonParams(kappa=1.0, theta=-0.2, nu=0.1, rho=-0.5, sigma0_sq=0.2)
