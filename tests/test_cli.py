"""Command line interface: golden outputs, exit codes, argument parsing."""
import json
import math
import pathlib
import subprocess
import sys

import pytest

import svj.bench as bench
import svj.cli as cli
from svj.bs_kernel import bs_price
from svj.errors import ParamError, QuadratureError

GOLDEN = pathlib.Path(__file__).parent / "golden"
FOOTNOTE = pathlib.Path(__file__).parents[1] / "params" / "paper_footnote.json"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_smile_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, [
        "smile", "--params", str(FOOTNOTE), "--nu", "0.05", "--rho", "-0.2",
        "--strikes", "90,100,110", "--maturity", "0.3", "--iv"])
    assert code == 0
    assert out == (GOLDEN / "smile_fig1.csv").read_text()


@pytest.mark.parametrize("golden, argv", [
    ("iv_analytic_fig1.csv", ["iv", "--strikes", "90,100,110", "--analytic"]),
    ("price_tol1e-6_fig1.json", ["price", "--strike", "100", "--tol", "1e-6"])])
def test_footnote_golden_bytes(capsys, golden, argv):
    code, out, _ = run_cli(capsys, [
        *argv, "--params", str(FOOTNOTE), "--nu", "0.05", "--rho", "-0.2",
        "--maturity", "0.3"])
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_sample_params_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, ["sample-params", "--n", "2",
                                    "--seed", "42"])
    assert code == 0
    assert out == (GOLDEN / "sample_params_n2_seed42.json").read_text()


def test_price_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, [
        "price", "--params", str(FOOTNOTE), "--nu", "0.05", "--rho", "-0.2",
        "--strike", "100", "--maturity", "0.3"])
    assert code == 0
    doc = json.loads(out)

    from svj.approx_pricer import Contract, price_approx
    params, s0 = cli.load_params(str(FOOTNOTE), nu=0.05, rho=-0.2)
    res = price_approx(params, Contract(s0=s0, strike=100.0, maturity=0.3))
    assert doc["price"] == pytest.approx(res.price, rel=1e-15)
    assert doc["base_term"] == pytest.approx(res.base_term, rel=1e-15)
    assert doc["truncation"]["n_max"] == res.truncation.n_max


def test_price_degenerate_model_is_black_scholes(tmp_path, capsys):
    """lambda=0, nu=0 collapses to the flat lognormal price."""
    doc = {
        "s0": 100.0, "r": 0.02, "sigma0_sq": 0.09, "kappa": 1.5,
        "theta": 0.09, "nu": 0.0, "rho": 0.0,
        "jump": {"type": "lognormal", "lambda": 0.0,
                 "mu_j": -0.05, "sigma_j": 0.5},
    }
    pfile = tmp_path / "flat.json"
    pfile.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, [
        "price", "--params", str(pfile), "--strike", "105",
        "--maturity", "0.7"])
    assert code == 0
    got = json.loads(out)["price"]
    want = bs_price(math.log(100.0), 0.3, 105.0, 0.02, 0.7)
    assert got == pytest.approx(want, abs=1e-12)


def test_malformed_params_exit_2(tmp_path, capsys):
    pfile = tmp_path / "broken.json"
    pfile.write_text("{not json")
    code, _, err = run_cli(capsys, [
        "price", "--params", str(pfile), "--strike", "100",
        "--maturity", "0.3"])
    assert code == 2
    assert "error:" in err


def test_null_nu_without_flag_exit_2(capsys):
    code, _, err = run_cli(capsys, [
        "price", "--params", str(FOOTNOTE), "--strike", "100",
        "--maturity", "0.3"])
    assert code == 2
    assert "nu" in err


def test_unknown_jump_type_exit_2(tmp_path, capsys):
    doc = json.loads(FOOTNOTE.read_text())
    doc["jump"]["type"] = "cauchy"
    doc["nu"], doc["rho"] = 0.05, -0.2
    pfile = tmp_path / "weird.json"
    pfile.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, [
        "price", "--params", str(pfile), "--strike", "100",
        "--maturity", "0.3"])
    assert code == 2


def test_iv_header(capsys):
    code, out, _ = run_cli(capsys, [
        "iv", "--params", str(FOOTNOTE), "--nu", "0.05", "--rho", "-0.2",
        "--strikes", "100", "--maturity", "0.3"])
    assert code == 0
    assert out.split("\n")[0] == "strike,maturity,approx_iv,ref_iv,iv_abs_error"


def test_iv_analytic_inverts_only_the_reference(capsys, monkeypatch):
    inverted = []

    def counted(price, s0, strike, ends, m):
        inverted.append(strike)
        return invert(price, s0, strike, ends, m)

    invert = bench.implied_vol
    monkeypatch.setattr(bench, "implied_vol", counted)
    code, _, _ = run_cli(capsys, [
        "iv", "--params", str(FOOTNOTE), "--nu", "0.05", "--rho", "-0.2",
        "--strikes", "90,100,110", "--maturity", "0.3", "--analytic"])
    assert code == 0
    assert inverted == [90.0, 100.0, 110.0]


def test_iv_analytic_builds_maturity_terms_once(capsys, series_calls):
    """The smile and every analytic IV of it share one truncation."""
    code, _, _ = run_cli(capsys, [
        "iv", "--params", str(FOOTNOTE), "--nu", "0.05", "--rho", "-0.2",
        "--strikes", "90,100,110", "--maturity", "0.3", "--analytic"])
    assert code == 0
    assert series_calls["truncate_series"] == 1
    assert series_calls["lognormal_shift"] == 1


def test_smile_failed_rows_exit_3(capsys, monkeypatch):
    def boom(params, s0, strikes, big_t, *a, **kw):
        return [(k, QuadratureError("synthetic")) for k in sorted(strikes)]

    monkeypatch.setattr(bench, "price_reference_smile", boom)
    code, out, err = run_cli(capsys, [
        "smile", "--params", str(FOOTNOTE), "--nu", "0.05", "--rho", "-0.2",
        "--strikes", "100", "--maturity", "0.3"])
    assert code == 3
    assert "ERROR" in out
    assert "failed" in err


def test_smile_keeps_valid_legs_of_a_failed_row(tmp_path, capsys):
    """At K=130 the approximation's price is negative, so only its IV and
    the IV gap cannot exist; both prices, their gap and the reference IV
    are still printed."""
    pfile = tmp_path / "set15.json"
    mp = bench.sample_param_sets(40, seed=11)[15]
    pfile.write_text(json.dumps(bench.params_to_dict(mp, 100.0)))
    args = ["--params", str(pfile), "--strikes", "120,130,140",
            "--maturity", "0.1"]
    code, out, err = run_cli(capsys, ["smile", *args, "--iv"])
    assert code == 3
    assert "1 row(s) failed" in err
    rows = {line.split(",")[0]: line.split(",")[2:]
            for line in out.strip().split("\n")[1:]}
    approx, ref, gap, approx_iv, ref_iv, iv_gap = rows["130"]
    assert float(approx) < 0.0 < float(ref)
    assert float(gap) == pytest.approx(float(ref) - float(approx), rel=1e-15)
    assert (approx_iv, iv_gap) == ("ERROR", "ERROR")
    assert float(ref_iv) > 0.0
    assert "ERROR" not in rows["120"] + rows["140"]

    code, out, _ = run_cli(capsys, ["iv", *args])
    assert code == 3
    assert out.split("\n")[2].split(",")[2:] == ["ERROR", ref_iv, "ERROR"]
    # the analytic surface needs no inversion of the negative price
    code, out, _ = run_cli(capsys, ["iv", *args, "--analytic"])
    assert code == 0
    assert "ERROR" not in out


GENERIC_LAWS = {
    "kou": {"type": "kou", "lambda": 0.25, "p": 0.4, "eta1": 10.0, "eta2": 5.0},
    # lambda T = 0.3: the Irwin-Hall density of the convolution route
    # cancels here, the Fourier route prices it
    "loguniform": {"type": "loguniform", "lambda": 0.3, "a": -0.3, "b": 0.2},
}


@pytest.mark.parametrize("law", GENERIC_LAWS)
def test_generic_law_price_and_smile(tmp_path, capsys, law):
    """svj price and svj smile --iv price Kou and LogUniform laws in
    full, at the prices of price_smile."""
    from svj.approx_pricer import price_smile
    doc = json.loads(FOOTNOTE.read_text())
    doc["nu"], doc["rho"] = 0.05, -0.2
    doc["jump"] = GENERIC_LAWS[law]
    pfile = tmp_path / f"{law}.json"
    pfile.write_text(json.dumps(doc))
    params, s0 = cli.load_params(str(pfile))

    code, out, _ = run_cli(capsys, ["price", "--params", str(pfile),
                                    "--strike", "100", "--maturity", "1"])
    assert code == 0
    (_, want), = price_smile(params, s0, [100.0], 1.0)
    got = json.loads(out)
    assert (got["price"], got["base_term"], got["r0_term"], got["u0_term"]) \
        == (want.price, want.base_term, want.r0_term, want.u0_term)

    strikes = [90.0, 100.0, 110.0]
    code, out, err = run_cli(capsys, ["smile", "--params", str(pfile),
                                      "--strikes", "90,100,110",
                                      "--maturity", "1", "--iv"])
    assert code == 0 and err == ""
    assert "ERROR" not in out
    lines = out.strip().split("\n")
    assert lines[0].split(",")[2] == "approx_price"
    got = [float(line.split(",")[2]) for line in lines[1:]]
    assert got == [res.price for _, res in price_smile(params, s0, strikes, 1.0)]


@pytest.mark.parametrize("command", [
    ["price", "--strike", "100", "--maturity", "0.3"],
    ["smile", "--strikes", "90,100", "--maturity", "0.3"]])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_param_exit_2(tmp_path, capsys, command, value):
    doc = json.loads(FOOTNOTE.read_text())
    doc["nu"], doc["rho"] = 0.05, -0.2
    doc["sigma0_sq"] = value
    pfile = tmp_path / "nonfinite.json"
    pfile.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, [*command, "--params", str(pfile)])
    assert code == 2
    assert out == ""
    assert "sigma0_sq must be finite" in err


def test_error_classes_map_to_exit_codes(capsys, monkeypatch):
    """Any ParamError exits 2 and any ArithmeticError exits 3, subclasses
    the CLI does not name included."""
    class OddParam(ParamError):
        pass

    class OddArithmetic(ArithmeticError):
        pass

    argv = ["price", "--params", str(FOOTNOTE), "--nu", "0.05",
            "--rho", "-0.2", "--strike", "100", "--maturity", "0.3"]
    for exc, want in ((OddParam("bad"), 2), (OddArithmetic("nan"), 3),
                      (FloatingPointError("underflow"), 3)):
        def boom(*a, **kw):
            raise exc
        monkeypatch.setattr(cli, "price_approx", boom)
        code, _, err = run_cli(capsys, argv)
        assert code == want
        assert str(exc) in err


@pytest.mark.parametrize("argv", [["--max-ref-sets", "0"],
                                  ["--max-ref-sets", "-5"],
                                  ["--methods", "approximation,bogus"]])
def test_bench_refuses_bad_input_before_timing(capsys, monkeypatch, argv):
    def timed(*a, **kw):
        raise AssertionError("a timing pass started")
    monkeypatch.setattr(bench, "_price_pass", timed)
    code, out, err = run_cli(capsys, ["bench", "--task", "1", *argv])
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_parse_strikes_forms():
    assert cli.parse_strikes("90,100,110") == [90.0, 100.0, 110.0]
    assert cli.parse_strikes("80:120:20") == [80.0, 100.0, 120.0]
    assert cli.parse_strikes("100") == [100.0]
    with pytest.raises(ParamError):
        cli.parse_strikes("100:90:5")
    with pytest.raises(ParamError):
        cli.parse_strikes("a,b")
    for spec in ("nan:100:10", "80:inf:10", "80:120:nan"):
        with pytest.raises(ParamError):
            cli.parse_strikes(spec)
    # a range may make at most 10000 strikes
    assert cli.parse_strikes("1:10000:1") == [float(k) for k in range(1, 10001)]
    with pytest.raises(ParamError):
        cli.parse_strikes("0:10000:1")


def test_console_script_smoke():
    out = subprocess.run(
        [sys.executable, "-m", "svj.cli", "price",
         "--params", str(FOOTNOTE), "--nu", "0.05", "--rho", "-0.2",
         "--strike", "100", "--maturity", "0.3"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert json.loads(out.stdout)["price"] == pytest.approx(
        10.871517802292965, rel=1e-12)
