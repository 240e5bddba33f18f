"""Adaptive Gauss-Kronrod (7,15) quadrature.

A 7-point Gauss rule is nested inside the 15-point Kronrod rule; the
difference between the two estimates drives local bisection. The
integrand is called on numpy arrays of abscissae (all intervals queued
for refinement are evaluated in one call), so vectorised integrands pay
Python overhead once per refinement round, not once per node.
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
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 512


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    n_evals: int
    n_subdivisions: int


DEFAULT_CONFIG = QuadratureConfig()


def gk15_adaptive(f, a: float, b: float,
                  config: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integrate f over [a, b] to the configured tolerance.

    f must accept a 1-d numpy array and return same-shape values.
    Raises QuadratureError if the subdivision budget is exhausted
    before the error estimate meets max(abs_tol, rel_tol*|integral|),
    or if the integrand returns non-finite values.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("gk15_adaptive needs finite endpoints; transform first")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, 0)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    # intervals already evaluated
    ivl_lo = np.empty(0)
    ivl_hi = np.empty(0)
    vals = np.empty(0)
    errs = np.empty(0)
    # intervals queued for evaluation
    pend_lo = np.array([float(a)])
    pend_hi = np.array([float(b)])
    n_evals = 0
    n_splits = 0

    while True:
        mid = 0.5 * (pend_lo + pend_hi)
        half = 0.5 * (pend_hi - pend_lo)
        pts = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
        fy = np.asarray(f(pts), dtype=float).reshape(len(mid), 15)
        if not np.isfinite(fy).all():
            raise QuadratureError("gk15_adaptive: integrand returned non-finite values")
        n_evals += pts.size
        k_est = (fy * _W_KRONROD).sum(axis=1) * half
        g_est = (fy * _W_GAUSS).sum(axis=1) * half

        ivl_lo = np.concatenate([ivl_lo, pend_lo])
        ivl_hi = np.concatenate([ivl_hi, pend_hi])
        vals = np.concatenate([vals, k_est])
        errs = np.concatenate([errs, np.abs(k_est - g_est)])

        total = float(vals.sum())
        total_err = float(errs.sum())
        tol = max(config.abs_tol, config.rel_tol * abs(total))
        if total_err <= tol:
            return QuadratureResult(sign * total, total_err, n_evals, n_splits)
        if len(vals) >= config.max_subdivisions:
            raise QuadratureError(
                f"gk15_adaptive: {len(vals)} subintervals, error estimate "
                f"{total_err:.3e} > tolerance {tol:.3e} on [{a}, {b}]")

        # split every interval carrying more than its width-share of the
        # budget; at least one such interval exists whenever total_err > tol
        share = tol * (ivl_hi - ivl_lo) / (b - a)
        bad = errs > share
        if not bad.any():
            bad = errs >= errs.max()
        mid_bad = 0.5 * (ivl_lo[bad] + ivl_hi[bad])
        pend_lo = np.concatenate([ivl_lo[bad], mid_bad])
        pend_hi = np.concatenate([mid_bad, ivl_hi[bad]])
        n_splits += int(bad.sum())
        keep = ~bad
        ivl_lo, ivl_hi = ivl_lo[keep], ivl_hi[keep]
        vals, errs = vals[keep], errs[keep]


def integrate_semi_infinite(f, config: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integrate f over [0, inf) via the substitution u = (1 - s) / s.

    The transformed integrand is f((1-s)/s) / s^2 on s in (0, 1); the
    GK15 nodes never touch the endpoints, so f is only evaluated at
    finite u > 0 and decaying integrands underflow harmlessly.
    """
    def g(s):
        u = (1.0 - s) / s
        return f(u) / (s * s)

    return gk15_adaptive(g, 0.0, 1.0, config)
