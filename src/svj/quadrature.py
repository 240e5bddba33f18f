"""Adaptive Gauss-Kronrod (7,15) quadrature.

A 7-point Gauss rule is nested inside the 15-point Kronrod rule; the
difference between the two estimates drives local bisection. The
integrand is called on numpy arrays of abscissae (all intervals queued
for refinement are evaluated in one call), so vectorised integrands pay
Python overhead once per refinement round, not once per node. An
integrand may also return m stacked components per node; they share
one node set, refined wherever any component is short of its own
tolerance.

Every integration starts from _INITIAL_PIECES equal subintervals, not
from one. Rounds, not nodes, bound the cost of the Fourier and Lewis
integrands priced here: each round pays one integrand call (one
characteristic-function evaluation) plus the per-round bookkeeping, and
a one-interval start spends its first rounds bisecting down to a width
that the equal pieces reach at once. On the footnote set's 40 smiles
(four nu, rho regimes x ten maturities) the one-integral reference on
u = (1-s)/s took a median of 2 rounds from 16 pieces, against 6 from
one interval, for 300 nodes against 285.

Equal pieces suit an integrand whose features scale with its range. A
feature of another width is better met by a map of the range than by
more pieces. The one-integral reference integrates c f(c t) over
t in [0, inf), so its map is u = c (1-s)/s, with c = 2/sqrt(E int
sigma^2) twice the inverse width of its integrand: the same 40 smiles
then take a median of 1 round, 53 in all against 80. The Kou/LogUniform
Lewis integrand (approx_pricer._lewis_sums) has a feature about 1/2 wide at
u = 0 on a range [0, U] with U of 13-37 on the generic_laws benchmark,
and on u = U s^2 its first piece is U/256 wide, so it takes one round
where equal pieces of u take 2-4.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

# QUADPACK dqk15 constants: positive Kronrod abscissae on [-1, 1], the
# matching Kronrod weights, and the weights of the embedded 7-point
# Gauss rule (which lives on abscissae 1, 3, 5 of the positive half plus 0).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full 15-node layout, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_W_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass(frozen=True)
class QuadratureConfig:
    """Targets and budget for one adaptive integration."""
    abs_tol: float
    rel_tol: float
    max_subdivisions: int


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    n_evals: int
    n_subdivisions: int


# No tolerance asks for less than the rounding error of the sums: 50
# machine epsilons (QUADPACK's dqk15 floor) of sum_i |integral over
# interval i|, which approaches the integral of |f| as the intervals
# resolve the integrand. Without it a cancelling integrand, large
# against its integral, refines until the budget runs out while its
# error estimate only accumulates rounding noise.
_ROUNDOFF = 50.0 * np.finfo(float).eps

# equal subintervals of [a, b] evaluated in the first round
_INITIAL_PIECES = 16


def gk15_adaptive(f, a: float, b: float,
                  config: QuadratureConfig) -> QuadratureResult:
    """Integrate f over [a, b] to the configured tolerance.

    The first round evaluates _INITIAL_PIECES equal subintervals of
    [a, b] in one call of f: a few more nodes than a one-interval start
    needs, for a fraction of its rounds (see the module docstring). The
    starting pieces count towards the max_subdivisions budget.

    f must accept a 1-d numpy array of N abscissae and return N values,
    or an (m, N) array: m integrands sharing one adaptive node set. Each
    component j must meet max(abs_tol, rel_tol*|integral_j|), but never
    less than the rounding floor of its interval sums (_ROUNDOFF). An
    interval is split while any component's error on it exceeds its
    width-share of that component's tolerance. value and error_estimate
    are floats for a scalar integrand and (m,) arrays for a stacked one.
    Raises QuadratureError if meeting every component's tolerance would
    take more than max_subdivisions intervals, or if the integrand
    returns non-finite values. A refinement round is refused before it
    is evaluated if it would take the count past the budget.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("gk15_adaptive needs finite endpoints; transform first")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, 0)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    # intervals already evaluated: for m components, rows [0, m) of est
    # hold the Kronrod estimates, rows [m, 2m) the error estimates and rows
    # [2m, 3m) the estimates' absolute values, one column per interval
    ivl_lo = np.empty(0)
    ivl_hi = np.empty(0)
    est = None
    # intervals queued for evaluation
    edges = np.linspace(float(a), float(b), _INITIAL_PIECES + 1)
    pend_lo = edges[:-1]
    pend_hi = edges[1:]
    n_evals = 0
    n_splits = 0

    while True:
        mid = 0.5 * (pend_lo + pend_hi)
        half = 0.5 * (pend_hi - pend_lo)
        pts = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
        fy = np.asarray(f(pts), dtype=float)
        stacked = fy.ndim == 2
        fy = fy.reshape(-1, len(mid), 15)
        m = len(fy)
        if not np.isfinite(fy).all():
            raise QuadratureError("gk15_adaptive: integrand returned non-finite values")
        n_evals += pts.size
        k_est = np.add.reduce(fy * _W_KRONROD, axis=2) * half
        g_est = np.add.reduce(fy * _W_GAUSS, axis=2) * half
        new = np.concatenate([k_est, np.abs(k_est - g_est), np.abs(k_est)])

        ivl_lo = np.concatenate([ivl_lo, pend_lo])
        ivl_hi = np.concatenate([ivl_hi, pend_hi])
        est = new if est is None else np.concatenate([est, new], axis=1)

        sums = np.add.reduce(est, axis=1)
        total, total_err = sums[:m], sums[m:2 * m]
        tol = [max(config.abs_tol, config.rel_tol * abs(t), _ROUNDOFF * t_abs)
               for t, t_abs in zip(total.tolist(), sums[2 * m:].tolist())]
        if all(e <= t for e, t in zip(total_err.tolist(), tol)):
            if stacked:
                return QuadratureResult(sign * total, total_err, n_evals, n_splits)
            return QuadratureResult(sign * float(total[0]), float(total_err[0]),
                                    n_evals, n_splits)
        tol = np.array(tol)

        # split every interval carrying more than its width-share of some
        # component's budget; at least one such interval exists whenever
        # a component's total error exceeds its tolerance
        errs = est[m:2 * m]
        share = tol[:, None] * (ivl_hi - ivl_lo) / (b - a)
        bad = np.logical_or.reduce(errs > share)
        if not bad.any():
            worst = errs[total_err > tol]
            bad = (worst >= worst.max(axis=1, keepdims=True)).any(axis=0)
        # each split adds one interval; refuse a round that would end
        # past the budget before paying for its evaluation
        n_bad = int(np.count_nonzero(bad))
        if len(ivl_lo) + n_bad > config.max_subdivisions:
            j = int(np.argmax(total_err / tol))
            raise QuadratureError(
                f"gk15_adaptive: {len(ivl_lo)} subintervals, {n_bad} more "
                f"needed past a budget of {config.max_subdivisions}; error "
                f"estimate {total_err[j]:.3e} > tolerance {tol[j]:.3e} "
                f"on [{a}, {b}]")
        lo_bad, hi_bad = ivl_lo[bad], ivl_hi[bad]
        mid_bad = 0.5 * (lo_bad + hi_bad)
        pend_lo = np.concatenate([lo_bad, mid_bad])
        pend_hi = np.concatenate([mid_bad, hi_bad])
        n_splits += n_bad
        keep = ~bad
        ivl_lo, ivl_hi = ivl_lo[keep], ivl_hi[keep]
        est = est[:, keep]


def integrate_semi_infinite(f, config: QuadratureConfig) -> QuadratureResult:
    """Integrate f over [0, inf) via the substitution u = (1 - s) / s.

    The transformed integrand is f((1-s)/s) / s^2 on s in (0, 1); the
    GK15 nodes never touch the endpoints, so f is only evaluated at
    finite u > 0 and decaying integrands underflow harmlessly. f may
    return stacked (m, N) values, as in gk15_adaptive.
    """
    def g(s):
        u = (1.0 - s) / s
        return f(u) / (s * s)

    return gk15_adaptive(g, 0.0, 1.0, config)
