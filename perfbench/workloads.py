"""The benchmark's three workloads: inputs, timed operations, checks.

An operation ("op") is the unit a user waits for. Each workload builds
one round of ops from its seed; a run repeats whole rounds, so every
run attempts the same ops in the same proportions. Each op returns its
outputs or raises; `check` then compares the outputs of the first round
against the independent oracles in `oracles.py`, outside the timed
pass, and `accuracy` computes the accuracy metrics on a fixed panel.

The program is reached only through its public modules and always
looked up at call time (`approx_pricer.price_smile`, `bench.run_smile`,
...), so the traced run's wrappers see every call.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from svj import approx_pricer, bench, heston_moments, reference_pricer
from svj.approx_pricer import Contract, ModelParams
from svj.errors import BracketError
from svj.heston_moments import HestonParams
from svj.jump_laws import JumpLaw, Kou, LogNormal, LogUniform

import oracles  # noqa: E402

# Seed of the fixed accuracy panels: approx_gap_mean and iv_gap_mean are
# computed on inputs that do not depend on --seed, so they compare
# exactly across runs and commits.
PANEL_SEED = 20240

# oracle tolerances (absolute, price units unless noted)
TOL_REFERENCE = 1e-8      # price_reference vs little-trap CF + quad
TOL_BASE = 1e-8           # base_term vs nu=0 Lewis integral
TOL_CORRECTION = 1e-9     # r0_term, u0_term vs polynomial-weighted Lewis
TOL_APPROX = 1e-8         # approximation price vs oracle term sum
TOL_MOMENT = 1e-12        # v0^2, u0, r0 vs quadrature of their integrals
TOL_IV_ROUND_TRIP = 1e-9  # Black-Scholes(iv) vs the price it came from
BENIGN_GAP = 5e-4         # criterion 1: nu=0.05, rho=-0.2, T=0.3

FOOTNOTE = Path(__file__).resolve().parent.parent / "params" / "paper_footnote.json"


class RowError(Exception):
    """A smile row came back with the program's error sentinel."""

    def __init__(self, type_name: str, message: str):
        super().__init__(message)
        self.type_name = type_name


def error_type(exc: BaseException) -> str:
    return exc.type_name if isinstance(exc, RowError) else type(exc).__name__


# ---------------------------------------------------------------------------
# parameter plumbing: svj types <-> the oracles' plain dicts

def to_model(mp: ModelParams, s0: float) -> dict:
    h, law = mp.heston, mp.jumps
    v = law.variant
    if isinstance(v, LogNormal):
        jump = {"type": "lognormal", "mu_j": v.mu_j, "sigma_j": v.sigma_j}
    elif isinstance(v, Kou):
        jump = {"type": "kou", "p": v.p, "eta1": v.eta1, "eta2": v.eta2}
    else:
        jump = {"type": "loguniform", "a": v.a, "b": v.b}
    return {"s0": s0, "r": mp.r, "sigma0_sq": h.sigma0_sq, "kappa": h.kappa,
            "theta": h.theta, "nu": h.nu, "rho": h.rho, "lam": law.intensity,
            "jump": jump}


def footnote_params(nu: float, rho: float) -> tuple:
    """(ModelParams, s0) from params/paper_footnote.json with nu, rho set."""
    d = json.loads(FOOTNOTE.read_text())
    j = d["jump"]
    heston = HestonParams(kappa=d["kappa"], theta=d["theta"], nu=nu, rho=rho,
                          sigma0_sq=d["sigma0_sq"])
    jumps = JumpLaw(intensity=j["lambda"],
                    variant=LogNormal(mu_j=j["mu_j"], sigma_j=j["sigma_j"]))
    return ModelParams(heston=heston, jumps=jumps, r=d["r"]), d.get("s0", 100.0)


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _check_moments(mp: ModelParams, model: dict, big_t: float, where: str) -> list:
    """svj.heston_moments against quadrature of the defining integrals."""
    problems = []
    pairs = (("v0^2", heston_moments.avg_expected_variance_v0(mp.heston, big_t) ** 2,
              oracles.avg_variance(model, big_t)),
             ("u0", heston_moments.u0(mp.heston, big_t), oracles.u0(model, big_t)),
             ("r0", heston_moments.r0(mp.heston, big_t), oracles.r0(model, big_t)))
    for name, got, want in pairs:
        if not _close(got, want, TOL_MOMENT):
            problems.append(f"{where}: {name} {got!r} vs quadrature {want!r}")
    return problems


def check_terms(res, model: dict, strike: float, big_t: float, where: str) -> list:
    """One PriceResult against the oracle terms, plus exact composition."""
    problems = []
    if res.price != res.base_term + res.r0_term + res.u0_term:
        problems.append(f"{where}: price != base_term + r0_term + u0_term")
    want = oracles.decomposition_terms(model, strike, big_t)
    for key, tol in (("base_term", TOL_BASE), ("r0_term", TOL_CORRECTION),
                     ("u0_term", TOL_CORRECTION)):
        got = getattr(res, key)
        if not _close(got, want[key], tol):
            problems.append(f"{where}: {key} {got!r} vs oracle {want[key]!r}")
    return problems


def _iv_or_none(price: float, contract: Contract, r: float):
    try:
        return reference_pricer.implied_vol_invert(price, contract, r)
    except BracketError:
        return None


@dataclass
class Accuracy:
    approx_gap_mean: float
    iv_gap_mean: float
    rows: int
    iv_rows: int
    notes: list = field(default_factory=list)


def _panel_accuracy(items) -> Accuracy:
    """items: (ModelParams, Contract, approx price). Reference and both
    IVs are computed here, outside any timed pass. A row whose
    approximate price has no implied vol is left out of iv_gap_mean and
    reported in notes."""
    gaps, iv_gaps, notes = [], [], []
    for mp, c, approx in items:
        ref = reference_pricer.price_reference(mp, c)
        gaps.append(abs(approx - ref))
        iv_a, iv_r = _iv_or_none(approx, c, mp.r), _iv_or_none(ref, c, mp.r)
        if iv_a is None or iv_r is None:
            notes.append(f"no implied vol at K={c.strike}, T={c.maturity}: "
                         f"approx {approx!r}, reference {ref!r}")
            continue
        iv_gaps.append(abs(iv_a - iv_r))
    return Accuracy(statistics.fmean(gaps), statistics.fmean(iv_gaps),
                    len(gaps), len(iv_gaps), notes)


# ---------------------------------------------------------------------------
# bates_grid: one calibration-objective evaluation per op

class BatesGrid:
    """Seeded lognormal-jump sets, each priced on the 100-contract grid."""

    name = "bates_grid"
    n_sets = 150
    check_ops = (0, 75)         # ops whose full grid is checked against oracles
    panel_sets = 4

    def __init__(self, seed: int, tiny: bool = False):
        if tiny:
            self.n_sets, self.check_ops, self.panel_sets = 3, (0,), 1
        self.s0 = bench.BATCH_S0
        self.grid = self._grid()
        self.ops = bench.sample_param_sets(self.n_sets, seed)

    @staticmethod
    def _grid() -> list:
        """(maturity, strikes) rows of bench.option_batch()."""
        by_t = {}
        for c in bench.option_batch():
            by_t.setdefault(c.maturity, []).append(c.strike)
        return sorted(by_t.items())

    def options_per_op(self, op) -> int:
        return sum(len(ks) for _, ks in self.grid)

    def run(self, mp):
        out = []
        for big_t, strikes in self.grid:
            row = approx_pricer.price_smile(mp, self.s0, strikes, big_t)
            for _, res in row:
                if isinstance(res, Exception):
                    raise res
            out.append((big_t, row))
        return out

    def check(self, results: dict) -> list:
        problems = []
        for i, out in results.items():
            for big_t, row in out:
                for strike, res in row:
                    if res.price != res.base_term + res.r0_term + res.u0_term:
                        problems.append(f"set {i} K={strike} T={big_t}: price "
                                        "!= base_term + r0_term + u0_term")
        for i in self.check_ops:
            if i not in results:
                continue
            mp = self.ops[i]
            model = to_model(mp, self.s0)
            for big_t, row in results[i]:
                problems += _check_moments(mp, model, big_t, f"set {i} T={big_t}")
                for strike, res in row:
                    problems += check_terms(res, model, strike, big_t,
                                            f"set {i} K={strike} T={big_t}")
        return problems

    def accuracy(self, results: dict) -> Accuracy:
        """On the fixed panel; the run's own results are not used."""
        items = []
        for mp in bench.sample_param_sets(self.panel_sets, PANEL_SEED):
            for c in bench.option_batch(self.s0):
                items.append((mp, c, approx_pricer.price_approx(mp, c).price))
        return _panel_accuracy(items)


# ---------------------------------------------------------------------------
# bates_smile_iv: the paper's Fourier comparison with implied vols

REGIMES = ((0.05, -0.2), (0.05, -0.8), (0.5, -0.2), (0.5, -0.8))


@dataclass(frozen=True)
class SmileOp:
    nu: float
    rho: float
    maturity: float


class BatesSmileIv:
    """bench.run_smile(with_iv=True) on the footnote set, every regime and
    bench maturity; the seed only sets the order of the smiles."""

    name = "bates_smile_iv"
    check_every = 4             # reference/approx legs: every 4th row

    def __init__(self, seed: int, tiny: bool = False):
        regimes = REGIMES[:2] if tiny else REGIMES
        maturities = bench.MATURITY_GRID[:2] if tiny else bench.MATURITY_GRID
        self.strikes = list(bench.STRIKE_GRID)
        ops = [SmileOp(nu, rho, t) for nu, rho in regimes for t in maturities]
        order = np.random.default_rng(seed).permutation(len(ops))
        self.ops = [ops[i] for i in order]
        self._params = {(nu, rho): footnote_params(nu, rho) for nu, rho in regimes}

    def options_per_op(self, op) -> int:
        return len(self.strikes)

    def run(self, op: SmileOp):
        mp, s0 = self._params[(op.nu, op.rho)]
        rep = bench.run_smile(mp, s0, self.strikes, op.maturity, with_iv=True)
        for row in rep.rows:
            if row.error:
                type_name, _, msg = row.error.partition(": ")
                raise RowError(type_name, msg)
        return rep

    def check(self, results: dict) -> list:
        problems = []
        n = 0
        for i, rep in results.items():
            op = self.ops[i]
            mp, s0 = self._params[(op.nu, op.rho)]
            model = to_model(mp, s0)
            for row in rep.rows:
                where = f"nu={op.nu} rho={op.rho} T={row.maturity} K={row.strike}"
                for leg, iv, price in (("approx", row.approx_iv, row.approx_price),
                                       ("reference", row.ref_iv, row.ref_price)):
                    back = oracles.bs_call(s0, row.strike, row.maturity, mp.r, iv)
                    if not _close(back, price, TOL_IV_ROUND_TRIP):
                        problems.append(f"{where}: BS({leg} iv={iv!r}) = {back!r} "
                                        f"!= {leg} price {price!r}")
                n += 1
                if n % self.check_every:
                    continue
                want = oracles.call_price(model, row.strike, row.maturity)
                terms = oracles.decomposition_terms(model, row.strike, row.maturity)
                if not _close(row.ref_price, want, TOL_REFERENCE):
                    problems.append(f"{where}: reference {row.ref_price!r} vs "
                                    f"oracle {want!r}")
                if not _close(row.approx_price, terms["price"], TOL_APPROX):
                    problems.append(f"{where}: approx {row.approx_price!r} vs "
                                    f"oracle terms {terms['price']!r}")
        return problems + self.check_benign()

    def check_benign(self) -> list:
        """Criterion 1's bound: approximation vs the oracle CF price."""
        mp, s0 = footnote_params(0.05, -0.2)
        model = to_model(mp, s0)
        problems = []
        for k in range(80, 125, 5):
            c = Contract(s0=s0, strike=float(k), maturity=0.3)
            gap = abs(approx_pricer.price_approx(mp, c).price
                      - oracles.call_price(model, c.strike, c.maturity))
            if not gap <= BENIGN_GAP:
                problems.append(f"benign regime K={k}: gap {gap:.3e} > {BENIGN_GAP}")
        return problems

    def accuracy(self, results: dict) -> Accuracy:
        """Gaps of the timed smiles themselves; one round holds every smile."""
        rows = [row for rep in results.values() for row in rep.rows]
        return Accuracy(statistics.fmean(r.abs_error for r in rows),
                        statistics.fmean(r.iv_abs_error for r in rows),
                        len(rows), len(rows))


# ---------------------------------------------------------------------------
# generic_laws: Kou and LogUniform one option at a time

@dataclass(frozen=True)
class OptionOp:
    params: ModelParams
    contract: Contract
    expect_failure: bool = False


# LogUniform at lam*T = 0.3 fails today with QuadratureError: the
# Irwin-Hall alternating sum behind its n-fold density cancels for
# n >= 9 series terms. The op is fixed (seed-independent) and kept so
# that a fix shows as failed going to 0.
FAILING_LOGUNIFORM = dict(lam=0.3, a=-0.3, b=0.2, strike=100.0, maturity=1.0)

# The cost of a generic-law op is set by its law, lam*T and variance
# regime, which sit on this fixed grid; the seed draws the strike (one in
# each band) and a small jitter of each law parameter. So every seed
# prices a round of the same cost make-up, and runs differ by their
# inputs, not their load.
GENERIC_MATURITIES = (0.25, 0.5, 1.0, 2.0)
STRIKE_BANDS = ((80.0, 105.0), (105.0, 130.0))
KOU_SHAPES = ((0.4, 10.0, 5.0), (0.3, 4.0, 3.0), (0.6, 20.0, 10.0))  # p, eta1, eta2
KOU_LAMBDAS = (0.1, 0.25, 0.45)
LU_SHAPES = ((-0.3, 0.2), (-0.1, 0.05), (-0.4, 0.3))                  # a, b
# lam*T for LogUniform stays at or below 0.03 (its jitter only lowers
# it): at 0.05 some options already hit the QuadratureError above
LU_LAMTS = (0.005, 0.01, 0.015, 0.02, 0.025, 0.03)
JITTER = 0.05


class GenericLaws:
    name = "generic_laws"
    panel_ops = 12

    def __init__(self, seed: int, tiny: bool = False):
        ops = self._draw(seed, tiny)
        order = np.random.default_rng([seed, 1]).permutation(len(ops))
        self.ops = [ops[i] for i in order] + [self._failing()]
        if tiny:
            self.panel_ops = 2

    def _draw(self, seed: int, tiny: bool) -> list:
        mats = GENERIC_MATURITIES[:1] if tiny else GENERIC_MATURITIES
        kou_lams = KOU_LAMBDAS[:1] if tiny else KOU_LAMBDAS
        lu_lamts = LU_LAMTS[:1] if tiny else LU_LAMTS
        rng = np.random.default_rng(seed)
        jit = lambda v: v * rng.uniform(1.0 - JITTER, 1.0 + JITTER)
        regimes = itertools.cycle(REGIMES)
        ops = []
        for big_t, band in itertools.product(mats, STRIKE_BANDS):
            for i, lam in enumerate(kou_lams):
                p, eta1, eta2 = KOU_SHAPES[i % len(KOU_SHAPES)]
                law = JumpLaw(intensity=jit(lam),
                              variant=Kou(p=jit(p), eta1=jit(eta1), eta2=jit(eta2)))
                ops.append(self._op(next(regimes), law, rng.uniform(*band), big_t))
            for i, lamt in enumerate(lu_lamts):
                a, b = LU_SHAPES[i % len(LU_SHAPES)]
                law = JumpLaw(intensity=lamt * rng.uniform(1.0 - JITTER, 1.0) / big_t,
                              variant=LogUniform(a=jit(a), b=jit(b)))
                ops.append(self._op(next(regimes), law, rng.uniform(*band), big_t))
        return ops

    def _op(self, regime, law, strike, big_t, expect_failure=False) -> OptionOp:
        mp, s0 = footnote_params(*regime)
        return OptionOp(dataclasses.replace(mp, jumps=law),
                        Contract(s0=s0, strike=float(strike), maturity=big_t),
                        expect_failure)

    def _failing(self) -> OptionOp:
        f = FAILING_LOGUNIFORM
        law = JumpLaw(intensity=f["lam"], variant=LogUniform(a=f["a"], b=f["b"]))
        return self._op(REGIMES[0], law, f["strike"], f["maturity"], expect_failure=True)

    def options_per_op(self, op) -> int:
        return 1

    def run(self, op: OptionOp):
        return approx_pricer.price_approx(op.params, op.contract)

    def check(self, results: dict) -> list:
        problems = []
        for i, res in results.items():
            op = self.ops[i]
            c = op.contract
            model = to_model(op.params, c.s0)
            where = f"op {i} {model['jump']['type']} lam={model['lam']:.4g} " \
                    f"K={c.strike:.4g} T={c.maturity}"
            problems += check_terms(res, model, c.strike, c.maturity, where)
        return problems

    def accuracy(self, results: dict) -> Accuracy:
        """On the fixed panel; the run's own results are not used."""
        panel = [op for op in GenericLaws(PANEL_SEED).ops if not op.expect_failure]
        items = [(op.params, op.contract,
                  approx_pricer.price_approx(op.params, op.contract).price)
                 for op in panel[:self.panel_ops]]
        return _panel_accuracy(items)


WORKLOADS = {w.name: w for w in (BatesGrid, BatesSmileIv, GenericLaws)}
