"""Adaptive GK15 engine checks against closed forms and scipy."""
import math

import numpy as np
import pytest
from scipy import integrate

from svj.errors import QuadratureError
from svj.quadrature import QuadratureConfig, gk15_adaptive, integrate_semi_infinite

TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=256)


def test_polynomial_exact():
    # every 15-point panel integrates low-degree polynomials exactly
    for deg in range(0, 13):
        res = gk15_adaptive(lambda x, d=deg: x ** d, 0.0, 2.0, TIGHT)
        exact = 2.0 ** (deg + 1) / (deg + 1)
        assert abs(res.value - exact) <= 1e-12 * exact


def test_smooth_vs_scipy():
    f = lambda x: math.exp(-x * x) * math.cos(3.0 * x)
    got = gk15_adaptive(lambda x: np.exp(-x * x) * np.cos(3.0 * x),
                        -2.0, 3.0, TIGHT).value
    want, _ = integrate.quad(f, -2.0, 3.0, epsabs=1e-13, epsrel=1e-13)
    assert abs(got - want) < 1e-12


def test_kink_subdivides():
    res = gk15_adaptive(lambda x: np.abs(x - 0.37), -1.0, 1.0, TIGHT)
    exact = (1.37 ** 2 + 0.63 ** 2) / 2.0
    assert abs(res.value - exact) < 1e-12
    assert res.n_subdivisions > 1


def test_error_estimate_is_honest():
    res = gk15_adaptive(lambda x: np.exp(x), 0.0, 1.0, TIGHT)
    assert abs(res.value - (math.e - 1.0)) <= max(res.error_estimate, 1e-15)


def test_budget_exceeded_raises():
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=2)
    with pytest.raises(QuadratureError):
        gk15_adaptive(lambda x: np.abs(np.sin(40.0 * x)) ** 0.3, 0.0, 9.0, cfg)


@pytest.mark.parametrize("budget", [40, 100, 300])
def test_budget_is_checked_before_a_round(budget):
    """A failing integration stops before the round that would take it
    past its budget, so it never holds more than max_subdivisions
    intervals; checked after each round, it overshot."""
    sizes = []

    def f(x):
        sizes.append(x.size // 15)
        return np.abs(np.sin(40.0 * x)) ** 0.3

    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15,
                           max_subdivisions=budget)
    with pytest.raises(QuadratureError):
        gk15_adaptive(f, 0.0, 9.0, cfg)
    # a later round evaluates both halves of every interval it splits
    held = sizes[0] + sum(n // 2 for n in sizes[1:])
    assert held <= budget


def test_semi_infinite_exponential():
    res = integrate_semi_infinite(lambda x: np.exp(-x), TIGHT)
    assert abs(res.value - 1.0) < 1e-12


def test_semi_infinite_gaussian():
    res = integrate_semi_infinite(lambda x: np.exp(-x * x), TIGHT)
    assert abs(res.value - math.sqrt(math.pi) / 2.0) < 1e-12


# (value, error estimate, evals, subdivisions) of the scalar engine on the
# cases above, from its 16-piece start, pinned bit for bit as float.hex
SCALAR_PINS = {
    "smooth": ((lambda x: np.exp(-x * x) * np.cos(3.0 * x)), -2.0, 3.0,
               "0x1.77aca5a8378e8p-3", "0x1.1042400000000p-48", 240, 0),
    "kink": ((lambda x: np.abs(x - 0.37)), -1.0, 1.0,
             "0x1.230be0ded3044p+0", "0x1.a760714b68000p-45", 600, 12),
    "exp": ((lambda x: np.exp(x)), 0.0, 1.0,
            "0x1.b7e151628aebcp+0", "0x1.b000000000000p-48", 240, 0),
}
SEMI_INFINITE_PINS = {
    "exponential": ((lambda x: np.exp(-x)),
                    "0x1.fffffffffffe5p-1", "0x1.87ca88ae234b0p-48", 300, 2),
    "gaussian": ((lambda x: np.exp(-x * x)),
                 "0x1.c5bf891b4ef53p-1", "0x1.dd7520fc0cbf7p-47", 240, 0),
}


def _as_tuple(res):
    return (np.asarray(res.value).item().hex(),
            np.asarray(res.error_estimate).item().hex(),
            res.n_evals, res.n_subdivisions)


@pytest.mark.parametrize("name", SCALAR_PINS)
def test_scalar_and_one_component_runs_are_pinned(name):
    """A scalar integrand and the same integrand stacked as one component
    take the pinned node sequence bit for bit."""
    f, a, b, *want = SCALAR_PINS[name]
    scalar = gk15_adaptive(f, a, b, TIGHT)
    assert type(scalar.value) is float
    assert _as_tuple(scalar) == tuple(want)
    stacked = gk15_adaptive(lambda x: f(x)[None, :], a, b, TIGHT)
    assert stacked.value.shape == (1,)
    assert _as_tuple(stacked) == tuple(want)


@pytest.mark.parametrize("name", SEMI_INFINITE_PINS)
def test_semi_infinite_runs_are_pinned(name):
    f, *want = SEMI_INFINITE_PINS[name]
    assert _as_tuple(integrate_semi_infinite(f, TIGHT)) == tuple(want)
    stacked = integrate_semi_infinite(lambda x: f(x)[None, :], TIGHT)
    assert _as_tuple(stacked) == tuple(want)


def test_stacked_components_match_their_own_integrals():
    """Each component of a stacked run meets its own tolerance, on a node
    set refined for the hardest one (the kink)."""
    parts = [lambda x: np.exp(-x * x) * np.cos(3.0 * x),
             lambda x: np.abs(x - 0.37),
             lambda x: 1e-6 * np.exp(x)]
    res = gk15_adaptive(lambda x: np.stack([f(x) for f in parts]),
                        -1.0, 1.0, TIGHT)
    assert res.value.shape == res.error_estimate.shape == (3,)
    alone = [gk15_adaptive(f, -1.0, 1.0, TIGHT) for f in parts]
    assert res.n_evals >= max(r.n_evals for r in alone)
    for got, err, want in zip(res.value, res.error_estimate, alone):
        tol = max(TIGHT.abs_tol, TIGHT.rel_tol * abs(want.value))
        assert err <= tol
        assert abs(got - want.value) <= 2.0 * tol


def test_stacked_semi_infinite_components():
    res = integrate_semi_infinite(
        lambda x: np.stack([np.exp(-x), np.exp(-x * x), 1.0 / (1.0 + x * x)]),
        TIGHT)
    want = [1.0, math.sqrt(math.pi) / 2.0, math.pi / 2.0]
    assert res.value == pytest.approx(want, rel=0, abs=1e-11)


def test_stacked_budget_exceeded_raises():
    """One component short of its tolerance exhausts the budget even when
    the other converges at once."""
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=2)
    with pytest.raises(QuadratureError):
        gk15_adaptive(lambda x: np.stack([np.ones_like(x),
                                          np.abs(np.sin(40.0 * x)) ** 0.3]),
                      0.0, 9.0, cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("round_", [0, 1])
@pytest.mark.parametrize("stacked", [False, True])
def test_a_non_finite_value_at_any_node_raises(bad, round_, stacked):
    """One NaN or +-inf at any of a piece's 15 node positions, the Gauss
    rule's zero-weight ones included, raises QuadratureError, in the
    first round (the shared [0, 1] layout) and in a refinement round.
    Stacked, it sits in the second component only."""
    for pos in range(15):
        calls = [0]

        def f(x, pos=pos):
            y = np.abs(x - 0.37)        # refines past the first round
            if calls[0] == round_:
                y[15 + pos] = bad       # the call's second piece
            calls[0] += 1
            return np.stack([np.ones_like(x), y]) if stacked else y

        with pytest.raises(QuadratureError, match="non-finite"):
            gk15_adaptive(f, 0.0, 1.0, TIGHT)
        assert calls[0] == round_ + 1
