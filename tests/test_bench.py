"""Benchmark harness: sampling, smile reports, timing plumbing."""
import json
import math
import pathlib

import numpy as np
import pytest

import svj.approx_pricer as approx_pricer
import svj.bench as bench
import svj.implied_vol as implied_vol
import svj.reference_pricer as reference_pricer
from conftest import make_params
from svj import bs_kernel
from svj.approx_pricer import (Contract, maturity_terms, price_approx,
                               price_smile)
from svj.errors import ParamError, QuadratureError
from svj.implied_vol import iv_smile_approx
from svj.mc_oracle import McConfig


def test_sample_param_sets_deterministic():
    a = bench.sample_param_sets(5, seed=42)
    b = bench.sample_param_sets(5, seed=42)
    assert a == b
    assert bench.sample_param_sets(5, seed=43) != a


def test_sample_param_sets_ranges_and_feller():
    sets = bench.sample_param_sets(100, seed=7)
    assert len(sets) == 100
    for p in sets:
        h = p.heston
        lo, hi = bench.PARAM_RANGES["sigma0_sq"]
        assert lo <= h.sigma0_sq <= hi
        assert bench.PARAM_RANGES["kappa"][0] <= h.kappa <= bench.PARAM_RANGES["kappa"][1]
        assert bench.PARAM_RANGES["rho"][0] <= h.rho <= bench.PARAM_RANGES["rho"][1]
        assert 2.0 * h.kappa * h.theta >= h.nu ** 2
        assert p.jumps.intensity <= 0.5
        assert p.r == bench.BENCH_RATE


def test_sample_marginals_uniform():
    """Chi-square at 1% on the coordinates the Feller rejection leaves
    untouched."""
    sets = bench.sample_param_sets(2000, seed=11)
    from scipy import stats
    for get, key in ((lambda p: p.heston.sigma0_sq, "sigma0_sq"),
                     (lambda p: p.heston.rho, "rho"),
                     (lambda p: p.jumps.intensity, "lam"),
                     (lambda p: p.jumps.variant.mu_j, "mu_j"),
                     (lambda p: p.jumps.variant.sigma_j, "sigma_j")):
        lo, hi = bench.PARAM_RANGES[key]
        vals = np.array([get(p) for p in sets])
        counts, _ = np.histogram(vals, bins=10, range=(lo, hi))
        chi2 = ((counts - 200.0) ** 2 / 200.0).sum()
        assert chi2 < stats.chi2.ppf(0.99, df=9)


def test_option_batch_is_the_documented_grid():
    batch = bench.option_batch()
    assert len(batch) == 100
    strikes = sorted({c.strike for c in batch})
    mats = sorted({c.maturity for c in batch})
    assert strikes == sorted(bench.STRIKE_GRID)
    assert mats == sorted(bench.MATURITY_GRID)


def test_smile_report_csv_contract():
    params = make_params(nu=0.05, rho=-0.2)
    rep = bench.run_smile(params, 100.0, [110.0, 90.0, 100.0], 0.3)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "strike,maturity,approx_price,ref_price,abs_error"
    got_strikes = [float(line.split(",")[0]) for line in lines[1:]]
    assert got_strikes == [90.0, 100.0, 110.0]
    assert rep.n_failed == 0


def test_smile_iv_columns():
    params = make_params(nu=0.05, rho=-0.2)
    rep = bench.run_smile(params, 100.0, [100.0], 0.3, with_iv=True)
    header = rep.to_csv().split("\n")[0]
    assert header == ("strike,maturity,approx_price,ref_price,abs_error,"
                      "approx_iv,ref_iv,iv_abs_error")


def test_smile_builds_maturity_terms_once(series_calls):
    """run_smile's approximation leg shares one set of strike-free terms."""
    params = make_params(nu=0.3, rho=-0.5, lam=0.5)
    rep = bench.run_smile(params, 100.0, range(80, 130, 5), 2.0)
    counts = dict(series_calls)
    assert len(rep.rows) == 10 and rep.n_failed == 0
    assert maturity_terms(params, 2.0).truncation.n_max > 5
    assert counts == {"truncate_series": 1, "lognormal_shift": 1,
                      "avg_expected_variance_v0": 1, "u0": 1, "r0": 1}


def test_analytic_smile_takes_ivs_from_the_surface(monkeypatch):
    """With analytic, the approximation leg is one iv_smile_approx call:
    approx_iv holds the surface's IVs and approx_price stays unpriced."""
    params = make_params(nu=0.05, rho=-0.2)
    strikes = [110.0, 90.0, 100.0]
    monkeypatch.setattr(bench, "price_smile_checked", None)  # never called
    rep = bench.run_smile(params, 100.0, strikes, 0.3, with_iv=True,
                          analytic=True)
    assert rep.n_failed == 0
    for row, (k, pt) in zip(rep.rows, iv_smile_approx(params, 100.0,
                                                      strikes, 0.3)):
        assert row.strike == k and row.approx_iv == pt.iv_approx
        assert math.isnan(row.approx_price) and math.isfinite(row.ref_iv)


def test_abs_error_recomputed_not_stored():
    row = bench.SmileRow(strike=100.0, maturity=0.3, approx_price=10.0,
                         ref_price=10.5)
    assert row.abs_error == pytest.approx(0.5)
    row.approx_price = 10.4
    assert row.abs_error == pytest.approx(0.1)


def test_row_failure_sentinel(monkeypatch):
    params = make_params(nu=0.05, rho=-0.2)

    def boom(p, s0, strikes, big_t, *a, **kw):
        return [QuadratureError("synthetic failure") if k == 100.0 else 1.23
                for k in strikes]

    monkeypatch.setattr(bench, "price_reference_smile_checked", boom)
    rep = bench.run_smile(params, 100.0, [90.0, 100.0, 110.0], 0.3)
    assert rep.n_failed == 1
    csv = rep.to_csv()
    bad = [line for line in csv.split("\n") if line.startswith("100")]
    assert bad and "ERROR" in bad[0]
    good = [line for line in csv.split("\n") if line.startswith("90")]
    assert "ERROR" not in good[0]


def test_shared_reference_failure_fails_every_ref_cell(monkeypatch):
    """One failed Fourier integral fails the reference cell of every row;
    the approximation leg keeps its prices."""
    def boom(*a, **kw):
        raise QuadratureError("synthetic failure")

    monkeypatch.setattr(reference_pricer, "integrate_semi_infinite", boom)
    params = make_params(nu=0.05, rho=-0.2)
    rep = bench.run_smile(params, 100.0, [90.0, 100.0, 110.0], 0.3, with_iv=True)
    assert rep.n_failed == len(rep.rows) == 3
    for row in rep.rows:
        assert math.isnan(row.ref_price) and math.isnan(row.ref_iv)
        assert set(row.failures) == {"ref_price"}
        assert row.error == "QuadratureError: synthetic failure"
        assert math.isfinite(row.approx_price) and math.isfinite(row.approx_iv)


@pytest.mark.parametrize("bad", [-5.0, math.nan, np.float32("nan")])
def test_run_smile_refuses_an_invalid_strike_before_pricing(monkeypatch, bad):
    """An invalid strike raises its Contract ParamError before either leg
    is called."""
    calls = []

    def counted(*args):
        calls.append(args)
        return []

    monkeypatch.setattr(bench, "price_smile_checked", counted)
    monkeypatch.setattr(bench, "price_reference_smile_checked", counted)
    params = make_params(nu=0.05, rho=-0.2)
    with pytest.raises(ParamError, match="strike must be"):
        bench.run_smile(params, 100.0, [90.0, bad, 110.0], 0.3, with_iv=True)
    assert calls == []


@pytest.mark.parametrize("analytic", [False, True])
def test_run_smile_checks_its_strikes_once(monkeypatch, analytic):
    """run_smile checks its strikes once and hands each leg the checked
    ascending floats: no leg pairs them again through pair_strikes."""
    masks, legs = [], []

    def counted_mask(*args):
        masks.append(args)
        return mask(*args)

    def never(*args):
        raise AssertionError("strikes paired again")

    def recorded(leg):
        def call(params, s0, strikes, big_t):
            legs.append(strikes)
            return leg(params, s0, strikes, big_t)
        return call

    mask = bench._strike_mask
    monkeypatch.setattr(bench, "_strike_mask", counted_mask)
    for module in (approx_pricer, implied_vol, reference_pricer):
        monkeypatch.setattr(module, "pair_strikes", never)
    for name in ("price_smile_checked", "iv_smile_approx_checked",
                 "price_reference_smile_checked"):
        monkeypatch.setattr(bench, name, recorded(getattr(bench, name)))
    params = make_params(nu=0.05, rho=-0.2)
    rep = bench.run_smile(params, 100.0, [110, 90.0, np.float32(100.0)],
                          0.3, with_iv=True, analytic=analytic)
    assert rep.n_failed == 0 and len(masks) == 1
    assert legs == [[90.0, 100.0, 110.0]] * 2
    assert all(type(k) is float for strikes in legs for k in strikes)


def test_run_smile_runs_one_reference_integral(monkeypatch):
    """The reference leg of a smile is one shared integration, however
    many strikes it has."""
    calls = []

    def counted(f, cfg):
        calls.append(cfg)
        return integrate(f, cfg)

    integrate = reference_pricer.integrate_semi_infinite
    monkeypatch.setattr(reference_pricer, "integrate_semi_infinite", counted)
    params = make_params(nu=0.3, rho=-0.5)
    for strikes in ([100.0], list(bench.STRIKE_GRID), list(range(50, 200, 3))):
        calls.clear()
        rep = bench.run_smile(params, 100.0, strikes, 1.0, with_iv=True)
        assert rep.n_failed == 0
        assert calls == [reference_pricer.DEFAULT_REF_QUAD]


FOOTNOTE = pathlib.Path(__file__).parents[1] / "params" / "paper_footnote.json"
# the (nu, rho) regimes of the paper's footnote experiments
FOOTNOTE_REGIMES = ((0.05, -0.2), (0.05, -0.8), (0.5, -0.2), (0.5, -0.8))


def footnote_smiles():
    """(params, s0, maturity) of the footnote smiles: every regime and
    bench maturity."""
    data = json.loads(FOOTNOTE.read_text())
    for nu, rho in FOOTNOTE_REGIMES:
        params, s0 = bench.params_from_dict(data, nu, rho)
        for big_t in bench.MATURITY_GRID:
            yield params, s0, big_t


# STRIKE_GRID unsorted as ints, floats and np.float32s, which
# _strike_mask tells; with np.int64s it cannot, and Contracts check them
MASKED_STRIKES = [130, 70.0, np.float32(105.0), 150, 90.0, np.float32(80.0),
                  100, 95.0, 120.0, np.float32(110.0)]
UNMASKED_STRIKES = [np.int64(k) if type(k) is int else k
                    for k in MASKED_STRIKES]


def test_run_smile_rows_are_the_per_strike_composition(monkeypatch):
    """Every cell of run_smile(with_iv=True) on the footnote smiles is,
    bit for bit, the legs' price of its strike and implied_vol_invert of
    that price at the strike's Contract; Contracts are built only where
    _strike_mask cannot check the strikes."""
    built = []

    def counted(**kw):
        built.append(kw["strike"])
        return Contract(**kw)

    monkeypatch.setattr(bench, "Contract", counted)
    n = 0
    for params, s0, big_t in footnote_smiles():
        strikes = sorted(map(float, MASKED_STRIKES))
        assert strikes == sorted(bench.STRIKE_GRID)
        approx = price_smile(params, s0, strikes, big_t)
        ref = reference_pricer.price_reference_smile(params, s0, strikes, big_t)
        want = []
        for (k, a), (_, p) in zip(approx, ref):
            c = Contract(s0=s0, strike=k, maturity=big_t)
            want.append((k, a.price, p,
                         reference_pricer.implied_vol_invert(a.price, c, params.r),
                         reference_pricer.implied_vol_invert(p, c, params.r)))
        for given, n_built in ((MASKED_STRIKES, 0), (UNMASKED_STRIKES, 10)):
            built.clear()
            rep = bench.run_smile(params, s0, given, big_t, with_iv=True)
            assert len(built) == n_built
            got = [(row.strike, row.approx_price, row.ref_price, row.approx_iv,
                    row.ref_iv) for row in rep.rows]
            assert [[v.hex() for v in row] for row in got] == \
                [[v.hex() for v in row] for row in want], (params, big_t)
            assert rep.n_failed == 0
            n += len(got)
    assert n == 2 * 4 * len(bench.MATURITY_GRID) * len(bench.STRIKE_GRID)


def test_footnote_smiles_price_no_bracket_end(monkeypatch):
    """The 800 IV inversions of the footnote smiles price neither end of
    IV_BRACKET: the bounds on BS there decide both signs. With Halley
    steps they take 3.18 price_vega calls each on average (4.61 with
    Newton steps)."""
    ys = []

    def recorded(*args):
        ys.append(args[-1])
        return price_vega(*args)

    price_vega = bs_kernel.price_vega
    monkeypatch.setattr(bs_kernel, "price_vega", recorded)
    inversions = []

    def counted(*args):
        inversions.append(args)
        return invert(*args)

    invert = bench.implied_vol
    monkeypatch.setattr(bench, "implied_vol", counted)
    for params, s0, big_t in footnote_smiles():
        assert bench.run_smile(params, s0, list(bench.STRIKE_GRID), big_t,
                               with_iv=True).n_failed == 0
    assert len(inversions) == 800
    assert 3 * len(inversions) < len(ys) <= 3.3 * len(inversions)
    assert not set(ys) & set(reference_pricer.IV_BRACKET)


def test_run_bench_tiny(monkeypatch):
    monkeypatch.setitem(bench.TASK_SETS, 1, 2)
    rep = bench.run_bench(bench.BenchTask(task_id=1, seed=3),
                          methods=("approximation", "two_integral"))
    assert rep["n_options"] == 200
    m = rep["methods"]
    assert m["approximation"]["failures"] == {}
    assert not m["approximation"]["extrapolated"]
    assert rep["speedup_vs_two_integral"]["approximation"] > 1.0
    # identical draws across methods: checksums must be close
    assert m["approximation"]["checksum"] == pytest.approx(
        m["two_integral"]["checksum"], rel=1e-3)


def test_approximation_method_prices_each_row_in_one_call(monkeypatch):
    """One price_smile per (set, maturity); prices bit-equal to
    price_approx's and a failed option counted once."""
    calls = []

    def counted(params, s0, strikes, big_t):
        calls.append(len(strikes))
        out = smile(params, s0, strikes, big_t)
        if big_t == 1.0:
            out[2] = (out[2][0], QuadratureError("synthetic failure"))
        return out

    smile = bench.price_smile
    monkeypatch.setattr(bench, "price_smile", counted)
    sets = bench.sample_param_sets(2, seed=3)
    batch = bench.option_batch()
    _, checksum, failures = bench._price_pass(
        bench._method_fn("approximation"), sets, batch)
    assert calls == [len(bench.STRIKE_GRID)] * (2 * len(bench.MATURITY_GRID))
    assert failures == {"QuadratureError": 2}
    failed = (1.0, sorted(bench.STRIKE_GRID)[2])
    assert checksum == math.fsum(
        price_approx(mp, c).price for mp in sets for c in batch
        if (c.maturity, c.strike) != failed)


def test_run_bench_subsamples_reference(monkeypatch):
    monkeypatch.setitem(bench.TASK_SETS, 1, 4)
    rep = bench.run_bench(bench.BenchTask(task_id=1, seed=3),
                          methods=("approximation", "two_integral"),
                          max_ref_sets=2)
    assert rep["methods"]["two_integral"]["extrapolated"]
    assert rep["methods"]["two_integral"]["timed_sets"] == 2
    assert not rep["methods"]["approximation"]["extrapolated"]


def test_bench_task_validation():
    with pytest.raises(ParamError):
        bench.BenchTask(task_id=4, seed=1)


def test_mc_check_passes_and_corrupt_fails():
    params = make_params(nu=0.05, rho=-0.2)
    c = Contract(s0=100.0, strike=100.0, maturity=0.3)
    cfg = McConfig(n_paths=60_000, seed=17, antithetic=True)
    ok = bench.mc_check(params, c, cfg)
    assert ok["passed"] and abs(ok["z_score"]) <= 3.0
    bad = bench.mc_check(params, c, cfg, corrupt_drift=True)
    assert not bad["passed"]


def test_params_to_dict_round_trips_variants():
    from svj.heston_moments import HestonParams
    from svj.jump_laws import JumpLaw, Kou, LogUniform
    from svj.approx_pricer import ModelParams
    base = HestonParams(kappa=1.0, theta=0.2, nu=0.1, rho=-0.5,
                        sigma0_sq=0.2)
    kou = ModelParams(base, JumpLaw(0.1, Kou(p=0.4, eta1=10.0, eta2=5.0)),
                      0.01)
    lu = ModelParams(base, JumpLaw(0.1, LogUniform(a=-0.2, b=0.1)), 0.01)
    assert bench.params_to_dict(kou)["jump"]["type"] == "kou"
    assert bench.params_to_dict(lu)["jump"]["type"] == "loguniform"
    assert bench.params_to_dict(kou, s0=90.0)["s0"] == 90.0
    for mp in (kou, lu, make_params(nu=0.05, rho=-0.2)):
        doc = bench.params_to_dict(mp, s0=90.0)
        assert bench.params_from_dict(doc) == (mp, 90.0)
