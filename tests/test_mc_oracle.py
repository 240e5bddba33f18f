"""Monte Carlo oracle: determinism, schemes, and law checks."""
import math

import numpy as np
import pytest

from conftest import make_params
from svj import bs_kernel, heston_moments, mc_oracle
from svj.approx_pricer import Contract, ModelParams, price_approx
from svj.errors import ParamError
from svj.heston_moments import HestonParams
from svj.jump_laws import JumpLaw, Kou, LogNormal
from svj.mc_oracle import CHUNK, McConfig, mc_price, simulate_terminal

ATM = Contract(s0=100.0, strike=100.0, maturity=0.3)


def test_same_seed_same_result():
    params = make_params(nu=0.3, rho=-0.6)
    cfg = McConfig(n_paths=40_000, seed=123, antithetic=True)
    a = mc_price(params, ATM, cfg)
    b = mc_price(params, ATM, cfg)
    assert a == b


def test_chunk_boundary_paths_are_stable():
    """First CHUNK paths are identical whether or not more chunks follow."""
    params = make_params(nu=0.3, rho=-0.6)
    small = simulate_terminal(params, 0.3, McConfig(n_paths=CHUNK, seed=9))
    big = simulate_terminal(params, 0.3, McConfig(n_paths=CHUNK + 500, seed=9))
    np.testing.assert_array_equal(small, big[:CHUNK])


def test_thread_count_does_not_change_results(monkeypatch):
    """Chunks are combined in chunk order however many threads run them."""
    params = make_params(nu=0.3, rho=-0.6, lam=0.2)
    cfg = McConfig(n_paths=3 * CHUNK + 500, seed=4, n_steps=20,
                   antithetic=True)
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(mc_oracle, "WORKERS", workers)
        runs.append((simulate_terminal(params, 0.3, cfg),
                     mc_price(params, ATM, cfg)))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_antithetic_reduces_error():
    params = make_params(nu=0.1, rho=-0.3)
    plain = mc_price(params, ATM, McConfig(n_paths=60_000, seed=5))
    anti = mc_price(params, ATM, McConfig(n_paths=60_000, seed=5,
                                          antithetic=True))
    assert anti[1] < plain[1]


def test_flat_model_hits_bs():
    params = make_params(nu=0.0, rho=0.0, lam=0.0)
    v0 = heston_moments.avg_expected_variance_v0(params.heston, 0.3)
    want = bs_kernel.bs_price(math.log(100.0), v0, 100.0, 0.001, 0.3)
    est, se = mc_price(params, ATM, McConfig(n_paths=60_000, seed=21,
                                             antithetic=True))
    assert abs(est - want) <= 3.0 * se
    assert se < 0.05


def test_pure_jump_terminal_law():
    """nu=0 with jumps: the mixture price is exact, MC must agree."""
    params = make_params(nu=0.0, rho=0.0, lam=0.4, mu_j=-0.1, sigma_j=0.3)
    want = price_approx(params, ATM).price
    est, se = mc_price(params, ATM, McConfig(n_paths=120_000, seed=33,
                                             antithetic=True))
    assert abs(est - want) <= 3.0 * se


def test_kou_jumps_in_simulation():
    params = ModelParams(
        heston=HestonParams(kappa=1.5, theta=0.2, nu=0.0, rho=0.0,
                            sigma0_sq=0.25),
        jumps=JumpLaw(intensity=0.4, variant=Kou(p=0.4, eta1=10.0, eta2=5.0)),
        r=0.001)
    want = price_approx(params, ATM).price
    est, se = mc_price(params, ATM, McConfig(n_paths=120_000, seed=44,
                                             antithetic=True))
    assert abs(est - want) <= 3.0 * se


def test_both_variance_schemes_converge():
    params = make_params(nu=0.3, rho=-0.6)
    for scheme in ("full-truncation", "reflection"):
        cfg = McConfig(n_paths=80_000, seed=55, antithetic=True,
                       variance_scheme=scheme)
        est, se = mc_price(params, ATM, cfg)
        # schemes share the discretization bias budget at 300 steps/year
        assert abs(est - 10.8715) <= 4.0 * se + 0.05


def test_martingale_property():
    # discounted terminal spot averages to s0
    params = make_params(nu=0.3, rho=-0.6, lam=0.2)
    x = simulate_terminal(params, 0.5, McConfig(n_paths=200_000, seed=77,
                                                antithetic=True))
    disc_spot = 100.0 * np.exp(x) * math.exp(-0.001 * 0.5)
    se = disc_spot.std(ddof=1) / math.sqrt(len(disc_spot))
    assert abs(disc_spot.mean() - 100.0) <= 4.0 * se


def test_steps_default_scales_with_maturity():
    assert McConfig(n_paths=2, seed=0).steps_for(0.3) == 300
    assert McConfig(n_paths=2, seed=0).steps_for(2.0) == 600
    assert McConfig(n_paths=2, seed=0, n_steps=50).steps_for(2.0) == 50


def test_config_validation():
    with pytest.raises(ParamError):
        McConfig(n_paths=0, seed=1)
    with pytest.raises(ParamError):
        McConfig(n_paths=100, seed=1, variance_scheme="euler-naive")
