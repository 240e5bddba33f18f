"""End-to-end acceptance suite.

Ten numbered criteria covering accuracy in the benign, skewed and adverse
regimes, implied-vol accuracy, benchmark speedup and scaling, Monte Carlo
agreement, closed-form vs quadrature identities, degenerate-model
reductions, error monotonicity, and the convolution-density laws. Each
test records a one-line PASS/FAIL verdict printed in the terminal
summary (see conftest), then asserts.

Criterion 3's tolerance half is known to fail with this implementation:
the adverse regime (nu=0.5, tau=3) sits far outside the small-vol-of-vol
expansion's comfort zone and the measured largest gap over the smile is
6.41e-2 against a 1e-2 target. The Monte Carlo oracle confirms the
reference pricer, so the gap is genuinely the approximation's. The test
reports the honest number and fails; the shape (monotonicity) half
passes.
"""
import math
import statistics
import time

import numpy as np
import pytest
from scipy import integrate

import svj.bench as bench
import svj.jump_laws as jump_laws
from _terms import expected_variance, gn_term, phi
from conftest import make_params, record_criterion
from svj.approx_pricer import Contract, ModelParams, price_approx
from svj.bs_kernel import bs_price, gamma2_bs, lambda_gamma_bs
from svj.heston_moments import HestonParams, avg_expected_variance_v0, r0, u0
from svj.jump_laws import JumpLaw, Kou, LogNormal, LogUniform
from svj.mc_oracle import McConfig, mc_price
from svj.reference_pricer import implied_vol_invert, price_reference

pytestmark = pytest.mark.acceptance

STRIKES = [float(k) for k in range(80, 125, 5)]
ATM = Contract(s0=100.0, strike=100.0, maturity=0.3)


def _smile_errors(params, maturity, strikes=STRIKES):
    errs = {}
    for k in strikes:
        c = Contract(s0=100.0, strike=k, maturity=maturity)
        errs[k] = abs(price_approx(params, c).price
                      - price_reference(params, c))
    return errs


def test_criterion_01_benign_accuracy(fig1_params):
    t0 = time.perf_counter()
    for k in STRIKES:
        price_approx(fig1_params,
                     Contract(s0=100.0, strike=k, maturity=0.3))
    wall = time.perf_counter() - t0
    errs = _smile_errors(fig1_params, 0.3)
    worst = max(errs.values())
    atm = errs[100.0]
    ok = worst <= 5e-4 and atm <= 1e-4 and wall < 5.0
    record_criterion(1, ok, f"max err {worst:.2e} (tol 5e-4), ATM "
                            f"{atm:.2e} (tol 1e-4), wall {wall:.3f}s (< 5s)")
    assert ok


def test_criterion_02_skewed_accuracy(fig2_params):
    errs = _smile_errors(fig2_params, 0.3)
    med = statistics.median(errs.values())
    ok = med <= 1e-3
    record_criterion(2, ok, f"median err {med:.2e} (tol 1e-3)")
    assert ok


def test_criterion_03_adverse_accuracy(fig3_params):
    """Known red: see module docstring."""
    errs = _smile_errors(fig3_params, 3.0)
    worst = max(errs.values())
    prices = [price_approx(fig3_params,
                           Contract(s0=100.0, strike=k, maturity=3.0)).price
              for k in STRIKES]
    monotone = all(a > b for a, b in zip(prices, prices[1:]))
    ok = worst <= 1e-2 and monotone
    record_criterion(3, ok, f"max err {worst:.2e} (tol 1e-2, KNOWN RED), "
                            f"monotone in strike: {monotone}")
    assert ok


def test_criterion_04_iv_accuracy(fig1_params, fig3_params):
    def iv_errs(params, maturity):
        out = []
        for k in STRIKES:
            c = Contract(s0=100.0, strike=k, maturity=maturity)
            ia = implied_vol_invert(price_approx(params, c).price, c,
                                    params.r)
            ir = implied_vol_invert(price_reference(params, c), c, params.r)
            out.append(abs(ia - ir))
        return max(out)

    benign = iv_errs(fig1_params, 0.3)
    adverse = iv_errs(fig3_params, 3.0)
    ok = benign <= 1e-4 and adverse <= 1e-2
    record_criterion(4, ok, f"benign max {benign:.2e} (tol 1e-4), adverse "
                            f"max {adverse:.2e} (tol 1e-2)")
    assert ok


# timings of each task's approximation leg; their medians are compared
APPROX_TIMINGS = 3


@pytest.mark.slow
def test_criterion_05_speedup_and_scaling():
    reports = {}
    for task_id in (1, 2, 3):
        methods = (("approximation", "one_integral", "two_integral")
                   if task_id == 1 else ("approximation", "two_integral"))
        reports[task_id] = bench.run_bench(
            bench.BenchTask(task_id=task_id, seed=20240), methods=methods)
    # time the approximation leg again, the tasks interleaved so that a
    # drift in the machine's pace reaches every task alike
    runs = list(reports.values())
    for _ in range(APPROX_TIMINGS - 1):
        runs += [bench.run_bench(bench.BenchTask(task_id=t, seed=20240),
                                 methods=("approximation",))
                 for t in (1, 2, 3)]
    walls = {t: [r["methods"]["approximation"]["wall_s"]
                 for r in runs if r["task_id"] == t] for t in (1, 2, 3)}
    median = {t: statistics.median(w) for t, w in walls.items()}
    speedups = {t: r["methods"]["two_integral"]["wall_s"] / median[t]
                for t, r in reports.items()}
    # 10x the evaluations per task step: linear within +-30 percent
    ratios = [median[2] / median[1], median[3] / median[2]]
    linear = all(7.0 <= r <= 13.0 for r in ratios)
    fails = sum(n for r in runs for m in r["methods"].values()
                for n in m["failures"].values())
    ok = all(s >= 2.0 for s in speedups.values()) and linear and fails == 0
    record_criterion(
        5, ok,
        "speedups " + ", ".join(f"task {t}: {s:.1f}x"
                                for t, s in speedups.items())
        + f" (need >= 2.0x); scaling ratios {ratios[0]:.1f}, "
          f"{ratios[1]:.1f} (need 7-13) of median approximation walls over "
          f"{APPROX_TIMINGS} timings, min-max "
        + ", ".join(f"task {t}: {min(w):.3g}-{max(w):.3g} s"
                    for t, w in walls.items()))
    assert ok


@pytest.mark.slow
def test_criterion_06_mc_oracle_agreement(fig1_params):
    t0 = time.perf_counter()
    zs = []
    mc, se = mc_price(fig1_params, ATM,
                      McConfig(n_paths=10_000_000, seed=20240,
                               antithetic=True))
    zs.append((mc - price_reference(fig1_params, ATM)) / se)
    # 20 random Feller-satisfying sets at 1e6 paths each keeps the whole
    # check inside the 10-minute budget
    for i, params in enumerate(bench.sample_param_sets(20, seed=77)):
        mc, se = mc_price(params, ATM,
                          McConfig(n_paths=1_000_000, seed=1000 + i,
                                   antithetic=True))
        zs.append((mc - price_reference(params, ATM)) / se)
    wall = time.perf_counter() - t0
    worst = max(abs(z) for z in zs)
    ok = worst <= 3.0 and wall < 600.0
    record_criterion(6, ok, f"max |z| {worst:.2f} over 21 configs "
                            f"(tol 3), wall {wall:.0f}s (< 600s)")
    assert ok


def test_criterion_07_closed_forms_vs_quadrature():
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(1000):
        p = HestonParams(
            sigma0_sq=rng.uniform(0.05, 0.5), theta=rng.uniform(0.05, 0.5),
            kappa=rng.uniform(0.5, 3.0), nu=rng.uniform(0.05, 0.5),
            rho=rng.uniform(-0.9, -0.1))
        big_t = rng.uniform(0.1, 5.0)
        f = lambda t: expected_variance(p, 0.0, t) * phi(p, t, big_t)
        g = lambda t: expected_variance(p, 0.0, t) * phi(p, t, big_t) ** 2
        qu, _ = integrate.quad(f, 0.0, big_t, epsabs=1e-14, epsrel=1e-13)
        qr, _ = integrate.quad(g, 0.0, big_t, epsabs=1e-14, epsrel=1e-13)
        qu *= p.rho * p.nu / 2.0
        qr *= p.nu ** 2 / 8.0
        worst = max(worst,
                    abs(u0(p, big_t) - qu) / abs(qu),
                    abs(r0(p, big_t) - qr) / abs(qr))

    params = make_params(nu=0.05, rho=-0.2)
    v0 = avg_expected_variance_v0(params.heston, 0.3)
    k = jump_laws.compensator_k(params.jumps)
    r_hat = params.r - params.jumps.intensity * k
    disc = math.exp(-params.jumps.intensity * k * 0.3)
    worst_gn = 0.0
    for n in range(9):
        closed, _, _ = gn_term(n, params, ATM)
        generic = disc * jump_laws.gn_generic(
            math.log(100.0), n, params.jumps, v0, r_hat, 100.0, 0.3)
        worst_gn = max(worst_gn, abs(closed - generic) / abs(generic))
    ok = worst <= 1e-9 and worst_gn <= 1e-9
    record_criterion(7, ok, f"U0/R0 max rel {worst:.2e} over 1000 sets, "
                            f"G_n max rel {worst_gn:.2e} for n <= 8 "
                            f"(tol 1e-9)")
    assert ok


def test_criterion_08_reductions():
    # lambda = 0: decomposition collapses to the no-jump three-term form
    p_nojump = make_params(nu=0.05, rho=-0.2, lam=0.0)
    v0 = avg_expected_variance_v0(p_nojump.heston, 0.3)
    x = math.log(100.0)
    manual = (bs_price(x, v0, 100.0, p_nojump.r, 0.3)
              + u0(p_nojump.heston, 0.3)
              * lambda_gamma_bs(x, v0, 100.0, p_nojump.r, 0.3)
              + r0(p_nojump.heston, 0.3)
              * gamma2_bs(x, v0, 100.0, p_nojump.r, 0.3))
    gap_heston = abs(price_approx(p_nojump, ATM).price - manual)

    # nu = 0 with jumps: exact in this framework, MC must agree
    p_merton = make_params(nu=0.0, rho=0.0)
    mc, se = mc_price(p_merton, ATM,
                      McConfig(n_paths=400_000, seed=5, antithetic=True))
    z_merton = abs(mc - price_approx(p_merton, ATM).price) / se

    # lambda = 0 and nu = 0: plain lognormal model
    p_flat = make_params(nu=0.0, rho=0.0, lam=0.0)
    v0f = avg_expected_variance_v0(p_flat.heston, 0.3)
    gap_bs = abs(price_approx(p_flat, ATM).price
                 - bs_price(x, v0f, 100.0, p_flat.r, 0.3))

    ok = gap_heston <= 1e-14 and z_merton <= 3.0 and gap_bs <= 1e-12
    record_criterion(8, ok, f"no-jump gap {gap_heston:.1e} (tol 1e-14), "
                            f"nu=0 MC |z| {z_merton:.2f} (tol 3), "
                            f"flat-vs-BS gap {gap_bs:.1e} (tol 1e-12)")
    assert ok


def test_criterion_09_error_monotonicity():
    def atm_err(nu, rho):
        p = make_params(nu=nu, rho=rho)
        return abs(price_approx(p, ATM).price - price_reference(p, ATM))

    nu_errs = [atm_err(nu, -0.8) for nu in (0.05, 0.1, 0.2, 0.4)]
    rho_errs = [atm_err(0.05, -r) for r in (0.1, 0.4, 0.8)]
    slack = 1e-12
    nu_mono = all(b >= a - slack for a, b in zip(nu_errs, nu_errs[1:]))
    rho_mono = all(b >= a - slack for a, b in zip(rho_errs, rho_errs[1:]))
    ok = nu_mono and rho_mono
    record_criterion(
        9, ok,
        "nu sweep " + "->".join(f"{e:.1e}" for e in nu_errs)
        + " rising: " + str(nu_mono)
        + "; |rho| sweep " + "->".join(f"{e:.1e}" for e in rho_errs)
        + " rising: " + str(rho_mono))
    assert ok


def test_criterion_10_convolution_densities():
    laws = {
        "kou": JumpLaw(intensity=0.1, variant=Kou(p=0.4, eta1=10.0,
                                                  eta2=5.0)),
        "loguniform": JumpLaw(intensity=0.1, variant=LogUniform(a=-0.3,
                                                                b=0.2)),
    }
    worst_mass = 0.0
    worst_conv = 0.0
    for law in laws.values():
        f1 = jump_laws.convolution_density(1, law)
        lo1, hi1, kinks1 = jump_laws.jump_support(1, law)
        m1, _ = integrate.quad(lambda t: t * f1(t), lo1, hi1,
                               points=list(kinks1) or None)
        m2, _ = integrate.quad(lambda t: t * t * f1(t), lo1, hi1,
                               points=list(kinks1) or None)
        var1 = m2 - m1 * m1
        for n in (2, 3, 4):
            fn = jump_laws.convolution_density(n, law)
            lo, hi, kinks = jump_laws.jump_support(n, law)
            mass = 0.0
            edges = [lo, *kinks, hi]
            for a, b in zip(edges[:-1], edges[1:]):
                val, _ = integrate.quad(fn, a, b, epsabs=1e-12, limit=200)
                mass += val
            worst_mass = max(worst_mass, abs(mass - 1.0))

            fprev = jump_laws.convolution_density(n - 1, law)
            plo, phi_, pkinks = jump_laws.jump_support(n - 1, law)
            sd_n = math.sqrt(n * var1)
            for u in np.linspace(n * m1 - 2.0 * sd_n,
                                 n * m1 + 2.0 * sd_n, 7):
                u = float(u)
                # integrand kinks: f_{n-1} kinks, plus u minus each f_1
                # kink or support edge
                pts = sorted({p for p in (*pkinks,
                                          *(u - s for s in (lo1, hi1,
                                                            *kinks1)))
                              if plo < p < phi_})
                val, _ = integrate.quad(
                    lambda t: fprev(t) * f1(u - t), plo, phi_,
                    points=pts or None, epsabs=1e-12, limit=200)
                worst_conv = max(worst_conv, abs(fn(u) - val))
    ok = worst_mass <= 1e-8 and worst_conv <= 1e-8
    record_criterion(10, ok, f"max mass defect {worst_mass:.2e}, max "
                             f"self-convolution gap {worst_conv:.2e} "
                             f"(tol 1e-8)")
    assert ok
