"""Smile reports, parameter sampling and timing harness behind the CLI.

Timing methodology: one warm-up pass is excluded, the reported wall time
is the median over `repeats` full passes, and pricing runs single-thread
so method ratios compare algorithms rather than schedulers. Reference
methods on the large tasks are timed on a leading subsample of the
parameter sets and scaled up; such entries carry extrapolated=True.
"""
from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# price_approx and implied_vol_invert are not called here; they stay
# bound because perfbench/layertrace.py wraps them in bench by name
from .approx_pricer import (Contract, ModelParams, _strike_mask,
                            price_approx, price_smile,  # noqa: F401
                            price_smile_checked)
from .errors import PRICING_ERRORS, ParamError
from .heston_moments import HestonParams
from .implied_vol import iv_smile_approx_checked
from .jump_laws import JumpLaw, Kou, LogNormal, LogUniform
from .mc_oracle import McConfig, mc_price
from .reference_pricer import (implied_vol, implied_vol_invert,  # noqa: F401
                               iv_inputs, price_reference,
                               price_reference_smile_checked)

BATCH_S0 = 100.0
STRIKE_GRID = (70.0, 80.0, 90.0, 95.0, 100.0, 105.0, 110.0, 120.0, 130.0, 150.0)
MATURITY_GRID = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)

TASK_SETS = {1: 100, 2: 1000, 3: 10000}

# uniform sampling ranges for benchmark parameter sets; r is held at the
# reference rate because the experiments vary the variance and jump inputs
PARAM_RANGES = {
    "sigma0_sq": (0.05, 0.5),
    "theta": (0.05, 0.5),
    "kappa": (0.5, 3.0),
    "nu": (0.05, 0.5),
    "rho": (-0.9, -0.1),
    "lam": (0.0, 0.5),
    "mu_j": (-0.2, 0.1),
    "sigma_j": (0.05, 0.6),
}
BENCH_RATE = 0.001

# params-file spelling of the jump amplitude laws; a law's fields are
# stored under the names of its dataclass fields
JUMP_TYPES = {"lognormal": LogNormal, "kou": Kou, "loguniform": LogUniform}


@dataclass(frozen=True)
class BenchTask:
    task_id: int
    seed: int

    def __post_init__(self):
        if self.task_id not in TASK_SETS:
            raise ParamError(f"task_id must be one of {sorted(TASK_SETS)}")

    @property
    def n_param_sets(self) -> int:
        return TASK_SETS[self.task_id]


def option_batch(s0: float = BATCH_S0) -> tuple:
    """The fixed 100-contract strike/maturity grid."""
    return tuple(Contract(s0=s0, strike=k, maturity=t)
                 for t in MATURITY_GRID for k in STRIKE_GRID)


def sample_param_sets(n: int, seed: int) -> list:
    """Uniform draws over PARAM_RANGES at r = BENCH_RATE, rejecting
    Feller violations.

    Draw order is fixed (range-dict order, one set at a time, full redraw
    on rejection) so a seed pins the output exactly.
    """
    if n < 1:
        raise ParamError("n must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        d = {key: rng.uniform(lo, hi) for key, (lo, hi) in PARAM_RANGES.items()}
        heston = HestonParams(kappa=d["kappa"], theta=d["theta"], nu=d["nu"],
                              rho=d["rho"], sigma0_sq=d["sigma0_sq"])
        if not heston.feller_satisfied():
            continue
        jumps = JumpLaw(intensity=d["lam"],
                        variant=LogNormal(mu_j=d["mu_j"], sigma_j=d["sigma_j"]))
        out.append(ModelParams(heston=heston, jumps=jumps, r=BENCH_RATE))
    return out


@dataclass
class SmileRow:
    """One strike of a smile.

    Each leg is computed on its own: a cell whose computation failed, or
    that is derived from such a cell, stays NaN, and `failures` maps each
    failed cell to "Type: message".
    """
    strike: float
    maturity: float
    approx_price: float = math.nan
    ref_price: float = math.nan
    approx_iv: float = math.nan
    ref_iv: float = math.nan
    failures: dict = field(default_factory=dict)

    @property
    def error(self) -> str:
        """"Type: message" of the first failure; empty on a clean row."""
        return next(iter(self.failures.values()), "")

    def fail(self, column: str, exc: Exception) -> None:
        self.failures[column] = f"{type(exc).__name__}: {exc}"

    def fill_iv(self, column: str, price: float, inputs: tuple) -> None:
        """Invert price into an IV cell, from the strike's
        reference_pricer.iv_inputs, or record why that failed; a NaN
        (failed) price is skipped."""
        if not math.isnan(price):
            try:
                setattr(self, column, implied_vol(price, *inputs))
            except PRICING_ERRORS as exc:
                self.fail(column, exc)

    @property
    def abs_error(self) -> float:
        return abs(self.approx_price - self.ref_price)

    @property
    def iv_abs_error(self) -> float:
        return abs(self.approx_iv - self.ref_iv)


@dataclass
class SmileReport:
    rows: list
    with_iv: bool = False

    @property
    def n_failed(self) -> int:
        return sum(1 for row in self.rows if row.error)

    def to_csv(self) -> str:
        cols = ["strike", "maturity", "approx_price", "ref_price", "abs_error"]
        if self.with_iv:
            cols += ["approx_iv", "ref_iv", "iv_abs_error"]
        return rows_to_csv(self.rows, cols)


def rows_to_csv(rows, cols) -> str:
    """CSV of SmileRow columns; a NaN cell of a failed row prints ERROR."""
    lines = [",".join(cols)]
    for row in rows:
        vals = (getattr(row, c) for c in cols)
        lines.append(",".join("ERROR" if row.failures and math.isnan(v)
                              else _fmt(v) for v in vals))
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def run_smile(params: ModelParams, s0: float, strikes, maturity: float,
              with_iv: bool = False, analytic: bool = False) -> SmileReport:
    """Price/IV rows for ascending strikes; a failed cell keeps its row.

    The strikes are checked once, by comparisons (approx_pricer's
    _strike_mask), and taken as ascending floats. A strike that makes no
    valid Contract raises its ParamError before either leg prices; only
    then are Contracts built, in the given order, to raise it. Each leg
    takes the checked strikes and prices every one in one call, a
    failure of the call failing each strike's cell:
    price_reference_smile_checked from one shared Fourier integral, and
    price_smile_checked, or with analytic iv_smile_approx_checked, whose
    IVs fill approx_iv and leave approx_price NaN. with_iv inverts the
    prices there are into the IV columns by
    reference_pricer.implied_vol, both of a strike from its one
    iv_inputs; an end of the vol bracket is priced only where a bound
    cannot tell its sign (none on the footnote smiles). Every cell is
    bit for bit that of the strike priced and inverted on its own
    (implied_vol_invert).
    """
    strikes = list(strikes)
    if not strikes:
        raise ParamError("strikes must be nonempty")
    if all(_strike_mask(s0, strikes, maturity)):
        strikes = sorted(map(float, strikes))
    else:
        strikes = sorted(Contract(s0=s0, strike=float(k),
                                  maturity=maturity).strike for k in strikes)
    approx_leg, column = ((iv_smile_approx_checked, "approx_iv") if analytic
                          else (price_smile_checked, "approx_price"))
    s0_f, tau, r = float(s0), float(maturity), params.r
    rows = []
    for k, approx, ref in zip(
            strikes, approx_leg(params, s0, strikes, maturity),
            price_reference_smile_checked(params, s0, strikes, maturity)):
        row = SmileRow(strike=k, maturity=maturity)
        if isinstance(approx, Exception):
            row.fail(column, approx)
        elif analytic:
            row.approx_iv = approx.iv_approx
        else:
            row.approx_price = approx.price
        if isinstance(ref, Exception):
            row.fail("ref_price", ref)
        else:
            row.ref_price = ref
        if with_iv:
            inputs = iv_inputs(s0_f, k, tau, r)
            if not analytic:
                row.fill_iv("approx_iv", row.approx_price, inputs)
            row.fill_iv("ref_iv", row.ref_price, inputs)
        rows.append(row)
    return SmileReport(rows=rows, with_iv=with_iv)


def _approx_prices(params: ModelParams, batch) -> list:
    """Price or exception per contract of batch, one price_smile per
    (s0, maturity) run of contracts."""
    out = []
    for (s0, big_t), row in itertools.groupby(
            batch, key=lambda c: (c.s0, c.maturity)):
        out += (res if isinstance(res, Exception) else res.price
                for _, res in price_smile(params, s0,
                                          [c.strike for c in row], big_t))
    return out


def _per_contract(price):
    """price(params, contract) lifted to a batch, failures kept in place."""
    def prices(params: ModelParams, batch) -> list:
        out = []
        for contract in batch:
            try:
                out.append(price(params, contract))
            except PRICING_ERRORS as exc:
                out.append(exc)
        return out
    return prices


def _method_fn(name: str):
    """(params, batch) -> one price or exception per contract."""
    if name == "approximation":
        return _approx_prices
    if name == "one_integral":
        return _per_contract(
            lambda p, c: price_reference(p, c, method="one-integral"))
    if name == "two_integral":
        return _per_contract(
            lambda p, c: price_reference(p, c, method="two-integral"))
    raise ParamError(f"unknown method {name!r}")


def _price_pass(fn, param_sets, batch):
    """One full pass; returns (wall seconds, price checksum, failures),
    failures counting the failed options by exception type name."""
    acc = []
    failures = collections.Counter()
    t0 = time.perf_counter()
    for mp in param_sets:
        for out in fn(mp, batch):
            if isinstance(out, Exception):
                failures[type(out).__name__] += 1
            else:
                acc.append(out)
    wall = time.perf_counter() - t0
    return wall, math.fsum(acc), dict(failures)


def _time_method(fn, param_sets, batch, repeats: int, max_sets: int):
    timed_sets = param_sets[:max_sets] if max_sets < len(param_sets) else param_sets
    scale = len(param_sets) / len(timed_sets)
    # warm-up pass, excluded from the medians
    _price_pass(fn, timed_sets[: max(1, min(2, len(timed_sets)))], batch)
    walls = []
    checksum = failures = None
    for _ in range(repeats):
        wall, checksum, failures = _price_pass(fn, timed_sets, batch)
        walls.append(wall)
    wall = statistics.median(walls) * scale
    n_options = len(param_sets) * len(batch)
    return {
        "wall_s": wall,
        "per_option_us": wall / n_options * 1e6,
        "repeats": repeats,
        "extrapolated": scale != 1.0,
        "timed_sets": len(timed_sets),
        "checksum": checksum,
        "failures": failures,
    }


def run_bench(task: BenchTask, methods=("approximation", "one_integral",
                                        "two_integral"),
              max_ref_sets: int = 100) -> dict:
    """Per-method wall time over n_param_sets x 100 options, plus speedups.

    Identical parameter draws and option batch across methods. Large tasks
    subsample the reference methods (never the approximation) and scale;
    task 1 uses median of 3 passes, larger tasks a single timed pass.
    Unknown methods and max_ref_sets < 1 are refused before any timing.
    """
    if max_ref_sets < 1:
        raise ParamError(f"max_ref_sets must be >= 1, got {max_ref_sets}")
    fns = {name: _method_fn(name) for name in methods}
    param_sets = sample_param_sets(task.n_param_sets, task.seed)
    batch = option_batch()
    repeats = 3 if task.task_id == 1 else 1
    report = {
        "task_id": task.task_id,
        "seed": task.seed,
        "n_param_sets": task.n_param_sets,
        "n_options": task.n_param_sets * len(batch),
        "single_thread": True,
        "methods": {},
    }
    for name, fn in fns.items():
        cap = len(param_sets)
        if name != "approximation":
            cap = min(cap, max_ref_sets)
        report["methods"][name] = _time_method(fn, param_sets, batch,
                                               repeats, cap)
    if "two_integral" in report["methods"]:
        base = report["methods"]["two_integral"]["wall_s"]
        report["speedup_vs_two_integral"] = {
            name: base / info["wall_s"]
            for name, info in report["methods"].items()
            if name != "two_integral"
        }
    return report


def mc_check(params: ModelParams, contract: Contract, cfg: McConfig,
             corrupt_drift: bool = False) -> dict:
    """Reference-vs-MC agreement; PASS iff |z| <= 3.

    corrupt_drift reprices the MC leg with a shifted rate, as a negative
    control that the z-test actually rejects.
    """
    ref = price_reference(params, contract)
    mc_params = params
    if corrupt_drift:
        mc_params = dataclasses.replace(params, r=params.r + 0.05)
    est, se = mc_price(mc_params, contract, cfg)
    z = (est - ref) / se
    return {
        "ref_price": ref,
        "mc_price": est,
        "std_error": se,
        "z_score": z,
        "n_paths": cfg.n_paths,
        "passed": abs(z) <= 3.0,
    }


def params_to_dict(params: ModelParams, s0: float = None) -> dict:
    """JSON-ready echo of a parameter set (params-file key layout)."""
    jumps = params.jumps
    jtype = next(name for name, law in JUMP_TYPES.items()
                 if isinstance(jumps.variant, law))
    out = {"r": params.r, **dataclasses.asdict(params.heston),
           "jump": {"type": jtype, "lambda": jumps.intensity,
                    **dataclasses.asdict(jumps.variant)}}
    if s0 is not None:
        out["s0"] = s0
    return out


def params_from_dict(data, nu: float = None, rho: float = None) -> tuple:
    """(ModelParams, s0) from the layout params_to_dict writes.

    nu/rho fill or override the dict's values; the shipped footnote file
    leaves them null because the experiments vary them. s0 defaults to
    BATCH_S0.
    """
    if not isinstance(data, dict):
        raise ParamError("params file must hold a JSON object")
    overrides = {"nu": nu, "rho": rho}
    data = {**data, **{k: v for k, v in overrides.items() if v is not None}}

    def number(obj, key):
        val = obj.get(key)
        if val is None:
            hint = (" (set it in the file or pass the matching flag)"
                    if key in overrides else "")
            raise ParamError(f"missing parameter {key!r}{hint}")
        try:
            return float(val)
        except (TypeError, ValueError):
            raise ParamError(f"parameter {key!r} must be a number, got {val!r}")

    heston = HestonParams(**{f.name: number(data, f.name)
                             for f in dataclasses.fields(HestonParams)})
    jd = data.get("jump")
    if not isinstance(jd, dict):
        raise ParamError("params file needs a 'jump' object")
    jtype = jd.get("type")
    if jtype not in JUMP_TYPES:
        raise ParamError(f"unknown jump type {jtype!r}; expected one of "
                         f"{sorted(JUMP_TYPES)}")
    law = JUMP_TYPES[jtype]
    variant = law(**{f.name: number(jd, f.name)
                     for f in dataclasses.fields(law)})
    params = ModelParams(heston=heston,
                         jumps=JumpLaw(intensity=number(jd, "lambda"),
                                       variant=variant),
                         r=number(data, "r"))
    s0 = number(data, "s0") if "s0" in data else BATCH_S0
    if not (math.isfinite(s0) and s0 > 0.0):
        raise ParamError(f"s0 must be finite and > 0, got {s0}")
    return params, s0
