"""Decomposition-based pricing for Heston-with-jumps (SVJ/Bates) models.

Public surface: model/contract types, the three-term approximated call
price, the analytic implied-vol surface, the Fourier reference pricer
with IV inversion, a Monte Carlo oracle, and the benchmark harness used
by the `svj` CLI.
"""
from .approx_pricer import (Contract, ModelParams, PriceResult, price_approx,
                            price_smile)
from .bench import BenchTask, SmileReport, mc_check, run_bench, run_smile, sample_param_sets
from .errors import (BracketError, DomainError, NumericalError, ParamError,
                     QuadratureError, SeriesTruncationError)
from .heston_moments import HestonParams, avg_expected_variance_v0, r0, u0
from .implied_vol import (IvPoint, iv_atm_approx, iv_atm_display, iv_smile_approx,
                          iv_surface_approx)
from .jump_laws import (JumpLaw, Kou, LogNormal, LogUniform, SeriesTruncation,
                        compensator_k, jump_char_fn)
from .mc_oracle import McConfig, mc_price, simulate_terminal
from .reference_pricer import (bates_char_fn, implied_vol_invert, price_reference,
                               price_reference_smile)

__version__ = "0.1.0"

__all__ = [
    "BenchTask", "BracketError", "Contract", "DomainError", "HestonParams",
    "IvPoint", "JumpLaw", "Kou", "LogNormal", "LogUniform",
    "McConfig", "ModelParams", "NumericalError", "ParamError", "PriceResult",
    "QuadratureError", "SeriesTruncation", "SeriesTruncationError",
    "SmileReport", "avg_expected_variance_v0", "bates_char_fn",
    "compensator_k", "implied_vol_invert",
    "iv_atm_approx", "iv_atm_display", "iv_smile_approx", "iv_surface_approx",
    "jump_char_fn", "mc_check", "mc_price", "price_approx",
    "price_reference", "price_reference_smile", "price_smile", "r0",
    "run_bench", "run_smile", "sample_param_sets", "simulate_terminal", "u0",
    "__version__",
]
