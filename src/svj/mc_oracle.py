"""Monte Carlo oracle for the SVJ model.

Euler discretization of the log-price with exact compound-Poisson jump
increments per step; CIR variance handled by full-truncation (default)
or reflection. The variance shares the Brownian increment of the
price's correlated leg.

Paths are generated in fixed-size chunks of 2^16, chunk i seeded by
Philox key (seed, i). Results therefore depend only on (seed, n_paths,
n_steps), never on how chunks are scheduled; per-chunk partial sums are
combined in chunk order. Chunks are simulated on up to `WORKERS`
threads: numpy releases the GIL while it draws Gaussians and runs the
array arithmetic, which is nearly all of a chunk's time.

Antithetic mode reuses each chunk's jump draws and negates every
Gaussian increment, doubling the sample; standard errors then treat
each (path, mirror) pair mean as one observation.
"""
from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import jump_laws
from .approx_pricer import Contract, ModelParams
from .errors import ParamError
from .jump_laws import Kou, LogNormal, LogUniform

CHUNK = 1 << 16
WORKERS = min(4, len(os.sched_getaffinity(0)))

_SCHEMES = ("full-truncation", "reflection")


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    seed: int
    n_steps: Optional[int] = None
    antithetic: bool = False
    variance_scheme: str = "full-truncation"

    def __post_init__(self):
        if self.n_paths < 2:
            raise ParamError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps is not None and self.n_steps < 1:
            raise ParamError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.variance_scheme not in _SCHEMES:
            raise ParamError(f"variance_scheme must be one of {_SCHEMES}")

    def steps_for(self, big_t: float) -> int:
        if self.n_steps is not None:
            return self.n_steps
        return int(math.ceil(300.0 * max(1.0, big_t)))


def _jump_sums(rng, counts: np.ndarray, variant) -> np.ndarray:
    """Sum of `counts[i]` i.i.d. amplitudes per path, exact in law."""
    if isinstance(variant, LogNormal):
        # sum of c normals is N(c mu, c sigma^2): one Gaussian per path
        z = rng.standard_normal(counts.shape[0])
        return counts * variant.mu_j + variant.sigma_j * np.sqrt(counts) * z
    out = np.zeros(counts.shape[0])
    total = int(counts.sum())
    if total == 0:
        return out
    if isinstance(variant, Kou):
        up = rng.random(total) < variant.p
        mag = rng.exponential(1.0, total)
        amps = np.where(up, mag / variant.eta1, -mag / variant.eta2)
    elif isinstance(variant, LogUniform):
        amps = variant.a + (variant.b - variant.a) * rng.random(total)
    else:
        raise ParamError(f"unknown jump variant {type(variant).__name__}")
    owners = np.repeat(np.nonzero(counts)[0], counts[counts > 0])
    np.add.at(out, owners, amps)
    return out


def _chunk_terminals(params: ModelParams, big_t: float, cfg: McConfig,
                     chunk_idx: int, m: int) -> np.ndarray:
    """Terminal log-prices (X_0 = 0) for one chunk; (2m,) if antithetic.

    The jump process is independent of both Brownian drivers and enters
    X additively, so the whole compound-Poisson sum J_T is drawn once
    and added at the end; the step loop integrates only the continuous
    part. Antithetic mirrors share J_T and negate every Gaussian.
    """
    h = params.heston
    lam = params.jumps.intensity
    k = jump_laws.compensator_k(params.jumps)
    n_steps = cfg.steps_for(big_t)
    dt = big_t / n_steps
    sdt = math.sqrt(dt)
    drift_r = (params.r - lam * k) * dt
    half_dt = 0.5 * dt
    kdt, nu_sdt = h.kappa * dt, h.nu * sdt
    rho, rho_c = h.rho, math.sqrt(1.0 - h.rho * h.rho)
    reflect = cfg.variance_scheme == "reflection"

    rng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.seed % (1 << 64), chunk_idx], dtype=np.uint64)))

    branches = [(1.0, np.zeros(m), np.full(m, h.sigma0_sq))]
    if cfg.antithetic:
        branches.append((-1.0, np.zeros(m), np.full(m, h.sigma0_sq)))
    vp, sv, dw, tmp = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
    z1, z2 = np.empty(m), np.empty(m)
    for _ in range(n_steps):
        rng.standard_normal(out=z1)
        rng.standard_normal(out=z2)
        np.multiply(z1, rho, out=dw)
        dw += rho_c * z2
        for sgn, x, v in branches:
            if reflect:
                np.abs(v, out=v)   # reflected state is the new base
                vp = v
            else:
                np.maximum(v, 0.0, out=vp)
            np.sqrt(vp, out=sv)
            # x += sgn sdt sv dw - dt/2 vp + drift_r, then
            # v += kdt (theta - vp) + sgn nu sdt sv z1, term by term
            np.multiply(sgn * sdt, sv, out=tmp)
            tmp *= dw
            x += tmp
            np.multiply(half_dt, vp, out=tmp)
            x -= tmp
            x += drift_r
            np.subtract(h.theta, vp, out=tmp)
            tmp *= kdt
            v += tmp
            np.multiply(sgn * nu_sdt, sv, out=tmp)
            tmp *= z1
            v += tmp

    if lam > 0.0:
        counts = rng.poisson(lam * big_t, m)
        jumps = _jump_sums(rng, counts, params.jumps.variant)
        for _sgn, x, _v in branches:
            x += jumps
    if cfg.antithetic:
        return np.concatenate([branches[0][1], branches[1][1]])
    return branches[0][1]


def _iter_chunks(params: ModelParams, big_t: float,
                 cfg: McConfig) -> Iterator[np.ndarray]:
    """Chunk terminals in chunk order; WORKERS threads simulate ahead."""
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        pending = deque()
        for idx, done in enumerate(range(0, cfg.n_paths, CHUNK)):
            m = min(CHUNK, cfg.n_paths - done)
            pending.append(pool.submit(_chunk_terminals, params, big_t,
                                       cfg, idx, m))
            if len(pending) > WORKERS:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def simulate_terminal(params: ModelParams, big_t: float,
                      cfg: McConfig) -> np.ndarray:
    """Terminal log-prices with X_0 = 0; length n_paths (x2 antithetic)."""
    if big_t <= 0.0:
        raise ParamError(f"need T > 0, got {big_t}")
    return np.concatenate(list(_iter_chunks(params, big_t, cfg)))


def mc_price(params: ModelParams, contract: Contract,
             cfg: McConfig) -> tuple:
    """(price, std_error) for a European call, streaming over chunks.

    With antithetic sampling the standard error is computed over
    pair means, not the doubled raw sample.
    """
    disc = math.exp(-params.r * contract.maturity)
    log_m = math.log(contract.strike / contract.s0)
    s_sum = 0.0
    s_sq = 0.0
    n_obs = 0
    for x in _iter_chunks(params, contract.maturity, cfg):
        pay = disc * contract.s0 * np.maximum(np.exp(x) - math.exp(log_m), 0.0)
        if cfg.antithetic:
            m = pay.shape[0] // 2
            pay = 0.5 * (pay[:m] + pay[m:])
        s_sum += float(pay.sum())
        s_sq += float(np.dot(pay, pay))
        n_obs += pay.shape[0]
    mean = s_sum / n_obs
    var = max(s_sq / n_obs - mean * mean, 0.0) * n_obs / (n_obs - 1)
    return mean, math.sqrt(var / n_obs)
