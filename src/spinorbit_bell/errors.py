"""Exception types shared across the package, and the one table of parameter
domains that every layer checks its inputs against."""

import cmath
import math
import numbers
import sys
from typing import NamedTuple


class SimulationError(Exception):
    """Base class for all package errors."""


class TruncationError(SimulationError):
    """Raised when a state cannot be represented within the configured cutoffs.

    Attributes:
        required_cutoff: smallest per-mode cutoff that would satisfy the
            requested tail tolerance, when known.
    """

    def __init__(self, message, required_cutoff=None):
        super().__init__(message)
        self.required_cutoff = required_cutoff


class ConfigError(SimulationError):
    """Raised on invalid run configuration; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class Domain(NamedTuple):
    """Finite numbers of one kind, never a bool, and unless complex within
    [low, high]; a refusal reads "<name>=<value> is not <wording>"."""

    kind: type
    wording: str
    low: float = -math.inf
    high: float = math.inf


_UNIT = Domain(numbers.Real, "a number in [0, 1]", 0.0, 1.0)
_ANGLE = Domain(numbers.Real, "a finite real number")
_AMPLITUDE = Domain(numbers.Complex, "a finite complex number")
_COUNT = Domain(numbers.Integral, "an integer >= 1", 1)
_HALF_MAX = sys.float_info.max / 2

#: Every parameter's domain: the StateSpec fields, angles, the mixed-coherent
#: phase points and the CLI's grid sizes. An int has no float limit, so
#: n = 10**400 is in its domain.
DOMAINS = {
    "n": Domain(numbers.Integral, "a nonnegative integer", 0),
    "p": _UNIT,
    "u": _AMPLITUDE,
    "reflectivity": _UNIT,
    "phi": _ANGLE,
    "zeta": _AMPLITUDE,
    "angle": _ANGLE,
    "phase_points": Domain(numbers.Integral, "an integer >= 5", 5),
    "points": _COUNT,
    "resolution": _COUNT,
    # A pattern spans [-extent, extent]. Over floats [ulp(0), high] is (0, high].
    "extent": Domain(numbers.Real, f"a number in (0, {_HALF_MAX:g}]", math.ulp(0.0), _HALF_MAX),
}

#: The Python type each kind of number is returned as.
_AS = {numbers.Integral: int, numbers.Real: float, numbers.Complex: complex}


def _shown(value) -> str:
    """repr(value) for a refusal message, or its type where repr raises: an int
    longer than ``sys.get_int_max_str_digits()`` has no repr."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


def checked(name: str, value, domain: Domain | None = None):
    """value as a Python int, float or complex, by the kind of its domain,
    ``DOMAINS[name]`` unless given; SimulationError naming it unless it is in it."""
    domain = DOMAINS[name] if domain is None else domain
    if isinstance(value, domain.kind) and not isinstance(value, bool):
        try:
            x = _AS[domain.kind](value)
        except OverflowError:  # an int beyond the float range
            x = math.nan
        # An int is exact at any size, so only a float or complex must be finite.
        if isinstance(x, int) or cmath.isfinite(x):
            if isinstance(x, complex) or domain.low <= x <= domain.high:
                return x
    raise SimulationError(f"{name}={_shown(value)} is not {domain.wording}")
