"""Exception types shared across the package.

The CLI maps these onto exit codes: ParamError -> 2, ArithmeticError
(NumericalError and its subclasses, OverflowError, ZeroDivisionError)
-> 3. Library code raises, it never calls sys.exit.
"""
import dataclasses
import functools
import math
import numbers


class ParamError(ValueError):
    """Invalid model/contract parameters or a malformed params file."""


class DomainError(ParamError):
    """Inputs outside the domain of a closed-form expression.

    Raised e.g. by the BS derivative operators when y*sqrt(tau) is
    degenerate and the expression has no finite limit.
    """


class NumericalError(ArithmeticError):
    """A numerical routine failed to reach its target accuracy."""


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge within its subdivision budget."""


class SeriesTruncationError(NumericalError):
    """Poisson series needs more terms than the hard cap allows."""


class BracketError(NumericalError):
    """Root bracketing failed (e.g. price outside no-arbitrage bounds)."""


# everything a pricing call raises on bad inputs or a failed numerical
# step; per-row and per-option failure handling catches exactly this
PRICING_ERRORS = (ParamError, ArithmeticError)


@functools.cache
def _field_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


def check_finite(obj) -> None:
    """Raise ParamError naming the first real-valued field of a dataclass
    that is NaN or infinite, numpy scalars such as np.float32 included."""
    for name in _field_names(type(obj)):
        val = getattr(obj, name)
        # float first, as the common case and cheaper than an ABC test
        real = isinstance(val, float) or (
            isinstance(val, numbers.Real) and not isinstance(val, numbers.Integral))
        if real and not math.isfinite(val):
            raise ParamError(f"{name} must be finite, got {val}")
