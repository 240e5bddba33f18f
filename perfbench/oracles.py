"""Independent oracles for the pricing benchmark.

Nothing here imports `svj`: every number is recomputed from the model
definitions with numpy, math and scipy.integrate.quad, so a check made
against these functions does not share code with the program it checks.

Parameters are plain dicts:

    model = {"s0", "r", "sigma0_sq", "kappa", "theta", "nu", "rho",
             "lam", "jump": {"type": "lognormal", "mu_j", "sigma_j"}
                          | {"type": "kou", "p", "eta1", "eta2"}
                          | {"type": "loguniform", "a", "b"}}

Formulas:

* Heston characteristic function in the "little trap" form of
  Albrecher, Mayer, Schoutens and Tistaert (2007), times the
  compound-Poisson factor exp(lam T (psi(u) - 1) - i u lam k T) with
  the closed-form amplitude transforms psi of the three laws.
* Lewis (2001) call price
      C = S0 - sqrt(S0 K) e^(-rT/2) / pi *
          int_0^inf Re[e^(iu kbar) phihat(u - i/2)] / (u^2 + 1/4) du,
  kbar = ln(S0/K) + rT, phihat the CF of X_T - x0 - rT.
* With x = ln S0 the integrand depends on x only through
  e^((iu + 1/2) x), so D = d/dx acts as the multiplier (iu + 1/2) and
  D^2 - D as -(u^2 + 1/4). At nu = 0 with constant variance v0(T)^2 the
  price is the decomposition's base sum sum_n p_n G_n, and
      (D^2 - D)^2 C  = -c/pi int Re[e^(iu kbar) phihat] (u^2 + 1/4) du
      D (D^2 - D) C  =  c/pi int Re[(iu + 1/2) e^(iu kbar) phihat] du
  with c = sqrt(S0 K) e^(-rT/2); these are sum_n p_n Gamma2 G_n and
  sum_n p_n LambdaGamma G_n.
* v0, u0, r0 by quadrature of their defining integrals
      v0^2 = 1/T int_0^T E(sig_s^2) ds
      u0   = rho nu / 2 int_0^T E(sig_s^2) phi(s) ds
      r0   = nu^2 / 8  int_0^T E(sig_s^2) phi(s)^2 ds
  with E(sig_s^2) = theta + (sigma0_sq - theta) e^(-kappa s) and
  phi(s) = (1 - e^(-kappa (T - s))) / kappa.
"""
from __future__ import annotations

import cmath
import math
import warnings

from scipy.integrate import IntegrationWarning, quad

_QUAD = {"limit": 400, "epsabs": 1e-13, "epsrel": 1e-12}


# ---------------------------------------------------------------------------
# jump amplitudes

def jump_cf(jump: dict, u: complex) -> complex:
    """E(e^{iuY}) for one amplitude."""
    kind = jump["type"]
    iu = 1j * u
    if kind == "lognormal":
        return cmath.exp(iu * jump["mu_j"] - 0.5 * u * u * jump["sigma_j"] ** 2)
    if kind == "kou":
        p, e1, e2 = jump["p"], jump["eta1"], jump["eta2"]
        return p * e1 / (e1 - iu) + (1.0 - p) * e2 / (e2 + iu)
    if kind == "loguniform":
        a, b = jump["a"], jump["b"]
        z = iu * (b - a)
        if abs(z) < 1e-6:
            return cmath.exp(iu * a) * (1.0 + z / 2.0 + z * z / 6.0)
        return (cmath.exp(iu * b) - cmath.exp(iu * a)) / z
    raise ValueError(f"unknown jump type {kind!r}")


def jump_compensator(jump: dict) -> float:
    """k = E(e^Y) - 1."""
    return (jump_cf(jump, -1j)).real - 1.0


def _jump_exponent(model: dict, u: complex, big_t: float) -> complex:
    lam = model["lam"]
    if lam == 0.0:
        return 0.0
    k = jump_compensator(model["jump"])
    return lam * big_t * (jump_cf(model["jump"], u) - 1.0) - 1j * u * lam * k * big_t


# ---------------------------------------------------------------------------
# characteristic functions of X_T - x0 - rT

def heston_exponent(model: dict, u: complex, big_t: float) -> complex:
    """log E(e^{iu (X_T - x0 - rT)}) of the jump-free Heston model, nu > 0."""
    kappa, theta, nu, rho = model["kappa"], model["theta"], model["nu"], model["rho"]
    v_init = model["sigma0_sq"]
    iu = 1j * u
    b = kappa - rho * nu * iu
    d = cmath.sqrt(b * b + nu * nu * (iu + u * u))
    g = (b - d) / (b + d)
    edt = cmath.exp(-d * big_t)
    big_c = kappa * theta / (nu * nu) * (
        (b - d) * big_t - 2.0 * cmath.log((1.0 - g * edt) / (1.0 - g)))
    big_d = (b - d) / (nu * nu) * (1.0 - edt) / (1.0 - g * edt)
    return big_c + big_d * v_init


def bates_cf(model: dict, u: complex, big_t: float) -> complex:
    return cmath.exp(heston_exponent(model, u, big_t)
                     + _jump_exponent(model, u, big_t))


def flat_cf(model: dict, v0_sq: float, u: complex, big_t: float) -> complex:
    """nu = 0 model with constant variance v0_sq, same jumps."""
    return cmath.exp(-0.5 * (1j * u + u * u) * v0_sq * big_t
                     + _jump_exponent(model, u, big_t))


# ---------------------------------------------------------------------------
# Lewis integrals

def _lewis(cf, model: dict, strike: float, big_t: float, weight) -> float:
    s0, r = model["s0"], model["r"]
    kbar = math.log(s0 / strike) + r * big_t

    def integrand(u):
        z = cf(u - 0.5j)
        return (cmath.exp(1j * u * kbar) * z * weight(u)).real

    with warnings.catch_warnings():
        # quad warns when round-off on the oscillating tail stops it short
        # of epsrel 1e-12; the result is still far inside the benchmark's
        # tolerances, and a value that is not fails the comparison anyway
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, 0.0, math.inf, **_QUAD)
    return math.sqrt(s0 * strike) * math.exp(-0.5 * r * big_t) / math.pi * val


def call_price(model: dict, strike: float, big_t: float) -> float:
    """Bates call price (Lewis formula, little-trap CF)."""
    cf = lambda z: bates_cf(model, z, big_t)
    return model["s0"] - _lewis(cf, model, strike, big_t,
                                lambda u: 1.0 / (u * u + 0.25))


def decomposition_sums(model: dict, strike: float, big_t: float) -> tuple:
    """(sum p_n G_n, sum p_n Gamma2 G_n, sum p_n LambdaGamma G_n)."""
    v0_sq = avg_variance(model, big_t)
    cf = lambda z: flat_cf(model, v0_sq, z, big_t)
    base = model["s0"] - _lewis(cf, model, strike, big_t,
                                lambda u: 1.0 / (u * u + 0.25))
    gamma2 = -_lewis(cf, model, strike, big_t, lambda u: u * u + 0.25)
    lambda_gamma = _lewis(cf, model, strike, big_t, lambda u: 1j * u + 0.5)
    return base, gamma2, lambda_gamma


def decomposition_terms(model: dict, strike: float, big_t: float) -> dict:
    """Oracle values of the approximation's three terms and their sum."""
    base, gamma2, lambda_gamma = decomposition_sums(model, strike, big_t)
    r0_term = r0(model, big_t) * gamma2
    u0_term = u0(model, big_t) * lambda_gamma
    return {"base_term": base, "r0_term": r0_term, "u0_term": u0_term,
            "price": base + r0_term + u0_term}


# ---------------------------------------------------------------------------
# variance functionals

def _expected_variance(model: dict, s: float) -> float:
    return model["theta"] + (model["sigma0_sq"] - model["theta"]) * math.exp(-model["kappa"] * s)


def _phi(model: dict, s: float, big_t: float) -> float:
    return -math.expm1(-model["kappa"] * (big_t - s)) / model["kappa"]


def avg_variance(model: dict, big_t: float) -> float:
    """v0(T)^2."""
    val, _ = quad(lambda s: _expected_variance(model, s), 0.0, big_t, **_QUAD)
    return val / big_t


def u0(model: dict, big_t: float) -> float:
    val, _ = quad(lambda s: _expected_variance(model, s) * _phi(model, s, big_t),
                  0.0, big_t, **_QUAD)
    return 0.5 * model["rho"] * model["nu"] * val


def r0(model: dict, big_t: float) -> float:
    val, _ = quad(lambda s: _expected_variance(model, s) * _phi(model, s, big_t) ** 2,
                  0.0, big_t, **_QUAD)
    return model["nu"] ** 2 / 8.0 * val


# ---------------------------------------------------------------------------
# Black-Scholes

def bs_call(s0: float, strike: float, big_t: float, r: float, vol: float) -> float:
    """Black-Scholes call, N(z) = erfc(-z / sqrt 2) / 2."""
    sd = vol * math.sqrt(big_t)
    d1 = (math.log(s0 / strike) + r * big_t) / sd + 0.5 * sd
    n1 = 0.5 * math.erfc(-d1 / math.sqrt(2.0))
    n2 = 0.5 * math.erfc(-(d1 - sd) / math.sqrt(2.0))
    return s0 * n1 - strike * math.exp(-r * big_t) * n2
