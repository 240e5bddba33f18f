"""Command-line front end.

Subcommands: price, smile, iv, bench, mc-check, sample-params.
Exit codes: 0 ok, 2 parse/validation error (ParamError), 3 numerical
failure (ArithmeticError), 4 failed Monte Carlo agreement check.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

from . import bench
from .approx_pricer import Contract, price_approx
from .errors import ParamError
from .mc_oracle import McConfig

MAX_STRIKES = 10_000  # longest start:stop:step range; at most one more is built


def load_params(path: str, nu: float = None, rho: float = None):
    """Parse a params JSON file into (ModelParams, s0).

    nu/rho arguments fill or override the file values; the shipped
    footnote file leaves them null because the experiments vary them.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParamError(f"cannot read params file: {exc}")
    except json.JSONDecodeError as exc:
        raise ParamError(f"params file is not valid JSON: {exc}")
    return bench.params_from_dict(data, nu, rho)


def parse_strikes(spec: str) -> list:
    """Comma list '80,90,100' or inclusive range 'start:stop:step'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParamError("strike range must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ParamError(f"non-numeric strike range {spec!r}")
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ParamError(f"strike range must be finite, got {spec!r}")
        if step <= 0 or stop < start:
            raise ParamError("strike range needs step > 0 and stop >= start")
        last = stop + 1e-9 * max(1.0, abs(stop))
        out = list(itertools.takewhile(lambda v: v <= last, (
            start + k * step for k in range(MAX_STRIKES + 1))))
        if len(out) > MAX_STRIKES:
            raise ParamError(f"strike range {spec!r} makes more than "
                             f"{MAX_STRIKES} strikes")
        return out
    try:
        out = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise ParamError(f"non-numeric strike in {spec!r}")
    if not out:
        raise ParamError("empty strike list")
    return out


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_rows(report, csv: str) -> int:
    """Print a smile CSV; exit 3 if any of its rows failed."""
    sys.stdout.write(csv)
    if report.n_failed:
        print(f"{report.n_failed} row(s) failed", file=sys.stderr)
        return 3
    return 0


def cmd_price(args) -> int:
    params, s0 = load_params(args.params, args.nu, args.rho)
    contract = Contract(s0=s0, strike=args.strike, maturity=args.maturity)
    res = price_approx(params, contract, tol=args.tol)
    _emit_json({
        "price": res.price,
        "base_term": res.base_term,
        "r0_term": res.r0_term,
        "u0_term": res.u0_term,
        "truncation": {
            "n_max": res.truncation.n_max,
            "tail_mass": res.truncation.tail_mass,
            "tolerance": res.truncation.tolerance,
        },
    })
    return 0


def cmd_smile(args) -> int:
    params, s0 = load_params(args.params, args.nu, args.rho)
    report = bench.run_smile(params, s0, parse_strikes(args.strikes),
                             args.maturity, with_iv=args.iv)
    return _emit_rows(report, report.to_csv())


def cmd_iv(args) -> int:
    params, s0 = load_params(args.params, args.nu, args.rho)
    report = bench.run_smile(params, s0, parse_strikes(args.strikes),
                             args.maturity, with_iv=True,
                             analytic=args.analytic)
    return _emit_rows(report, bench.rows_to_csv(
        report.rows, ["strike", "maturity", "approx_iv", "ref_iv",
                      "iv_abs_error"]))


def cmd_bench(args) -> int:
    methods = tuple(args.methods.split(","))
    report = bench.run_bench(bench.BenchTask(task_id=args.task, seed=args.seed),
                             methods=methods, max_ref_sets=args.max_ref_sets)
    _emit_json(report)
    return 0


def cmd_mc_check(args) -> int:
    params, s0 = load_params(args.params, args.nu, args.rho)
    contract = Contract(s0=s0, strike=args.strike, maturity=args.maturity)
    cfg = McConfig(n_paths=args.paths, seed=args.seed, n_steps=args.steps,
                   antithetic=args.antithetic, variance_scheme=args.scheme)
    report = bench.mc_check(params, contract, cfg,
                            corrupt_drift=args.corrupt_drift)
    _emit_json(report)
    if not report["passed"]:
        print(f"mc-check FAIL: |z| = {abs(report['z_score']):.2f} > 3",
              file=sys.stderr)
        return 4
    return 0


def cmd_sample_params(args) -> int:
    sets = bench.sample_param_sets(args.n, args.seed)
    _emit_json([bench.params_to_dict(p) for p in sets])
    return 0


def _add_params_args(sub) -> None:
    sub.add_argument("--params", required=True, help="params JSON file")
    sub.add_argument("--nu", type=float, default=None,
                     help="vol-of-vol override (fills a null in the file)")
    sub.add_argument("--rho", type=float, default=None,
                     help="correlation override (fills a null in the file)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svj",
        description="Decomposition-based SVJ call pricing and benchmarks")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("price", help="price one call, JSON output")
    _add_params_args(sp)
    sp.add_argument("--strike", type=float, required=True)
    sp.add_argument("--maturity", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="Poisson series tail tolerance")
    sp.set_defaults(func=cmd_price)

    sp = subs.add_parser("smile", help="price smile CSV with error columns")
    _add_params_args(sp)
    sp.add_argument("--strikes", required=True,
                    help="comma list or start:stop:step range")
    sp.add_argument("--maturity", type=float, required=True)
    sp.add_argument("--iv", action="store_true",
                    help="append implied-vol columns")
    sp.set_defaults(func=cmd_smile)

    sp = subs.add_parser("iv", help="implied-vol smile CSV")
    _add_params_args(sp)
    sp.add_argument("--strikes", required=True,
                    help="comma list or start:stop:step range")
    sp.add_argument("--maturity", type=float, required=True)
    sp.add_argument("--analytic", action="store_true",
                    help="use the analytic surface instead of inverting the "
                         "approximated price")
    sp.set_defaults(func=cmd_iv)

    sp = subs.add_parser("bench", help="timing tasks, JSON output")
    sp.add_argument("--task", type=int, required=True, choices=(1, 2, 3))
    sp.add_argument("--seed", type=int, default=20240)
    sp.add_argument("--methods",
                    default="approximation,one_integral,two_integral")
    sp.add_argument("--max-ref-sets", type=int, default=100,
                    help="cap on parameter sets timed for reference methods "
                         "(scaled up and flagged extrapolated)")
    sp.set_defaults(func=cmd_bench)

    sp = subs.add_parser("mc-check", help="Monte Carlo agreement test")
    _add_params_args(sp)
    sp.add_argument("--strike", type=float, required=True)
    sp.add_argument("--maturity", type=float, required=True)
    sp.add_argument("--paths", type=int, default=200_000)
    sp.add_argument("--seed", type=int, default=20240)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--antithetic", action="store_true")
    sp.add_argument("--scheme", default="full-truncation",
                    choices=("full-truncation", "reflection"))
    sp.add_argument("--corrupt-drift", action="store_true",
                    help="negative control: shift the MC drift so the check "
                         "must fail")
    sp.set_defaults(func=cmd_mc_check)

    sp = subs.add_parser("sample-params", help="draw benchmark parameter sets")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=20240)
    sp.set_defaults(func=cmd_sample_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
