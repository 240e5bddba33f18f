"""Tests of the benchmark itself: smoke runs, negative controls, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _first_round(wl):
    out = {}
    for i, op in enumerate(wl.ops):
        try:
            out[i] = wl.run(op)
        except Exception:
            pass
    return out


@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced(name):
    res = run.run_workload(name, seed=3, seconds=0, trace=False, tiny=True)
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0.0
    expected_failures = 1 if name == "generic_laws" else 0
    assert res["failed"] == expected_failures


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced(name, capsys):
    res = run.run_workload(name, seed=3, seconds=0, trace=True, tiny=True)
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert "was not hit" not in capsys.readouterr().out
    assert res["metrics"]["approx_pricer.calls"]["value"] > 0


def test_failed_share_is_whole_rounds():
    wl = workloads.GenericLaws(seed=5, tiny=True)
    p = run.run_rounds(wl, workloads.error_type, rounds=2)
    assert p.attempted == 2 * len(wl.ops)
    assert dict(p.failures) == {"QuadratureError": 2}


def test_op_times_are_scaled_by_the_speed_probe(monkeypatch):
    """An op and its probe slowed by the same factor keep one scaled time."""
    cpu = [0.0]
    paces = itertools.cycle([1.0, 3.0, 2.0])   # the machine changes pace after every op
    pace = [next(paces)]

    def probe():
        cpu[0] += 1e-3 * pace[0]

    class Fake:
        name = "fake"
        ops = [10, 20]

        def run(self, op):
            cpu[0] += op * 1e-3 * pace[0]
            pace[0] = next(paces)

        def options_per_op(self, op):
            return 1

    monkeypatch.setitem(run.PROBES, "fake", (probe, 0.5e-3))
    monkeypatch.setattr(run.time, "process_time", lambda: cpu[0])
    p = run.run_rounds(Fake(), workloads.error_type, rounds=3)
    assert p.probe_times == pytest.approx([1e-3, 3e-3, 2e-3] * 2)
    assert p.cpu == pytest.approx((10 + 60 + 20 + 20 + 30 + 40) * 1e-3)
    assert p.times_by_op[0] == pytest.approx([5e-3] * 3)
    assert p.times_by_op[1] == pytest.approx([10e-3] * 3)


def test_grid_check_rejects_perturbed_term():
    wl = workloads.BatesGrid(seed=3, tiny=True)
    results = {0: wl.run(wl.ops[0])}
    assert wl.check(results) == []
    big_t, row = results[0][4]
    strike, res = row[3]
    bad = dataclasses.replace(res, base_term=res.base_term + 1e-6)
    bad = dataclasses.replace(bad, price=bad.base_term + bad.r0_term + bad.u0_term)
    row[3] = (strike, bad)
    problems = wl.check(results)
    assert len(problems) == 1 and "base_term" in problems[0]


def test_grid_check_rejects_broken_composition():
    wl = workloads.BatesGrid(seed=3, tiny=True)
    results = {0: wl.run(wl.ops[0])}
    big_t, row = results[0][0]
    strike, res = row[0]
    row[0] = (strike, dataclasses.replace(res, price=res.price + 1e-12 * abs(res.price) + 1e-15))
    assert any("price != base_term" in p for p in wl.check(results))


def test_term_oracle_fed_shifted_strike_fails():
    wl = workloads.GenericLaws(seed=3, tiny=True)
    op = wl.ops[0]
    res = wl.run(op)
    model = workloads.to_model(op.params, op.contract.s0)
    c = op.contract
    assert workloads.check_terms(res, model, c.strike, c.maturity, "ok") == []
    assert workloads.check_terms(res, model, c.strike * 1.0001, c.maturity, "shifted")


@pytest.mark.parametrize("field", ["u0_term", "r0_term"])
def test_generic_check_rejects_perturbed_correction(field):
    wl = workloads.GenericLaws(seed=3, tiny=True)
    results = _first_round(wl)
    assert wl.check(results) == []
    i = min(results)
    res = results[i]
    bad = dataclasses.replace(res, **{field: getattr(res, field) + 1e-8})
    results[i] = dataclasses.replace(bad, price=bad.base_term + bad.r0_term + bad.u0_term)
    problems = wl.check(results)
    assert len(problems) == 1 and field in problems[0]


def test_smile_check_rejects_perturbed_reference_and_iv():
    wl = workloads.BatesSmileIv(seed=3, tiny=True)
    results = _first_round(wl)
    assert wl.check(results) == []
    rep = results[0]
    n = wl.check_every - 1          # the first row whose legs go to the oracle
    rep.rows[n].ref_price += 1e-6
    problems = wl.check(results)
    assert any("reference" in p and "oracle" in p for p in problems)
    rep.rows[n].ref_price -= 1e-6
    rep.rows[0].approx_iv += 1e-4
    assert any("BS(approx iv" in p for p in wl.check(results))


def test_benign_bound_fails_for_a_shifted_oracle(monkeypatch):
    wl = workloads.BatesSmileIv(seed=3, tiny=True)
    assert wl.check_benign() == []
    real = oracles.call_price
    monkeypatch.setattr(oracles, "call_price",
                        lambda model, k, t: real(dict(model, sigma0_sq=model["sigma0_sq"] * 1.01), k, t))
    assert wl.check_benign()


def test_oracle_black_scholes_matches_scipy_normal():
    from scipy.stats import norm
    s0, k, t, r, vol = 100.0, 110.0, 0.7, 0.01, 0.3
    d1 = (math.log(s0 / k) + (r + 0.5 * vol * vol) * t) / (vol * math.sqrt(t))
    want = s0 * norm.cdf(d1) - k * math.exp(-r * t) * norm.cdf(d1 - vol * math.sqrt(t))
    assert oracles.bs_call(s0, k, t, r, vol) == pytest.approx(want, rel=1e-13)


def test_self_time_is_span_minus_children():
    tracer = layertrace.Tracer()

    def inner():
        time.sleep(0.03)

    traced_inner = tracer.wrap("b", "inner", inner)

    def outer():
        time.sleep(0.02)
        traced_inner()

    tracer.wrap("a", "outer", outer)()
    assert tracer.self_s["a"] == pytest.approx(0.02, abs=0.01)
    assert tracer.self_s["b"] == pytest.approx(0.03, abs=0.01)
    outer_span, = [s for s in tracer.spans if s["name"] == "outer"]
    inner_span, = [s for s in tracer.spans if s["name"] == "inner"]
    assert inner_span["parent"] == outer_span["id"]


def test_install_restores_every_binding():
    from svj import bench, jump_laws, quadrature, reference_pricer
    before = (bench.price_reference, jump_laws.gk15_adaptive, dict(jump_laws._KERNELS),
              quadrature.gk15_adaptive, reference_pricer.integrate_semi_infinite)
    with layertrace.Tracer():
        assert bench.price_reference is not before[0]
    after = (bench.price_reference, jump_laws.gk15_adaptive, dict(jump_laws._KERNELS),
             quadrature.gk15_adaptive, reference_pricer.integrate_semi_infinite)
    assert after == before


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
