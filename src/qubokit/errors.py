"""Exception types shared across the toolkit, and the two input checks that
every public boundary applies to what a caller passes:

* ``check_count``: an integer (a bool is not one) at least a lower bound
  the caller names, for sizes, counts and caps;
* ``check_finite_real``: a real number, not a bool, a string, NaN or ±inf,
  optionally positive; ``is_finite_real`` is its test.

Both raise ``ValidationError`` with a message that names the input.
"""

import math
import numbers


class QubokitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QubokitError, ValueError):
    """Raised when a model, vector, or parameter record is malformed."""


class UnsupportedOrderError(ValidationError):
    """Raised when a polynomial order outside the supported range is requested."""


class SizeCapError(ValidationError):
    """Raised when an exact method is asked for a problem above its size cap."""


class GenerationError(QubokitError, RuntimeError):
    """Raised when an instance generator exhausts its retry budget."""


class ReferenceUndefinedError(QubokitError, ValueError):
    """Raised when an optimality gap is requested against a zero reference energy."""


def check_count(name: str, value, low: int = 1):
    """Refuse ``value`` unless it is an integer >= ``low`` (bools refused)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def is_finite_real(value) -> bool:
    """Whether ``value`` is a real number other than NaN and ±inf; bools and
    strings are not real numbers here."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and -math.inf < value < math.inf)


def check_finite_real(name: str, value, positive: bool = False):
    """Refuse ``value`` unless it is a finite real number, and > 0 when
    ``positive``."""
    if not (is_finite_real(value) and (value > 0 or not positive)):
        rule = "positive and finite" if positive else "a finite number"
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
