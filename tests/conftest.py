"""Shared fixtures plus the acceptance-criteria summary block."""
import pytest

from svj import heston_moments, jump_laws
from svj.approx_pricer import ModelParams
from svj.heston_moments import HestonParams
from svj.jump_laws import JumpLaw, LogNormal

# one line per acceptance criterion, printed after the run
_CRITERION_LINES = {}


def record_criterion(num: int, passed: bool, detail: str) -> None:
    _CRITERION_LINES[num] = f"criterion {num:2d}: " \
                            f"{'PASS' if passed else 'FAIL'} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[num])


def make_params(nu, rho, lam=0.05, mu_j=-0.05, sigma_j=0.5, r=0.001,
                sigma0_sq=0.25, kappa=1.5, theta=0.2) -> ModelParams:
    """Footnote parameter set with the experiment-specific knobs exposed."""
    return ModelParams(
        heston=HestonParams(kappa=kappa, theta=theta, nu=nu, rho=rho,
                            sigma0_sq=sigma0_sq),
        jumps=JumpLaw(intensity=lam, variant=LogNormal(mu_j=mu_j,
                                                       sigma_j=sigma_j)),
        r=r)


@pytest.fixture
def series_calls(monkeypatch):
    """Counts of the strike-free calls the pricer makes: truncate_series,
    poisson_pmf, lognormal_shift, and the v0, u0, r0 moments. A function
    not called has no entry."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def wrapped(*a, **kw):
            calls[name] = calls.get(name, 0) + 1
            return original(*a, **kw)
        monkeypatch.setattr(module, name, wrapped)

    for name in ("truncate_series", "poisson_pmf", "lognormal_shift"):
        count(jump_laws, name)
    for name in ("avg_expected_variance_v0", "u0", "r0"):
        count(heston_moments, name)
    return calls


# the three canonical regimes: benign, skewed, adverse
@pytest.fixture
def fig1_params():
    return make_params(nu=0.05, rho=-0.2)


@pytest.fixture
def fig2_params():
    return make_params(nu=0.05, rho=-0.8)


@pytest.fixture
def fig3_params():
    return make_params(nu=0.5, rho=-0.8)
