"""Exception types shared across the package, and the checks with which the
file and wire loaders raise SchemaViolation."""
import math
from typing import Tuple


class DynavError(Exception):
    """Base class for all package-specific errors."""


class PoseOutOfBounds(DynavError):
    """A pose lies outside the world grid."""


class NoEscape(DynavError):
    """Reactive avoidance found no collision-free displaced pose."""


class UnresolvableGoal(DynavError):
    """No object in the world matches the goal description."""


class GenerationFailed(DynavError):
    """Procedural world generation could not satisfy the request."""


class EmptyBoundary(DynavError):
    """No traversable ray remains; the caller should rotate in place."""


class EmptyName(DynavError):
    """Graph node names must be non-empty."""


class SelfLoop(DynavError):
    """Graph edges must connect two distinct nodes."""


class SchemaViolation(DynavError):
    """A payload (file or wire message) does not match its documented schema."""


class BackendUnavailable(DynavError):
    """The decision backend could not produce a usable response."""


class TransportError(BackendUnavailable):
    """HTTP transport failed after all retries."""


class RequestTimeout(BackendUnavailable):
    """The backend did not answer within the configured deadline."""


class BindFailure(DynavError):
    """The stub server could not bind its port."""


class EmptyInput(DynavError):
    """An aggregate operation received no data."""


class Unreachable(DynavError):
    """No collision-free grid path reaches the goal region."""


class ConfigError(DynavError):
    """Invalid configuration file or flag combination."""


# -- schema checks for values read from JSON -----------------------------------

def check(value, ok: bool, what: str):
    """``value``, or a SchemaViolation saying what it must be."""
    if not ok:
        raise SchemaViolation(f"{what}, not {value!r:.60}")
    return value


def check_strings(value, what: str) -> Tuple[str, ...]:
    """A JSON list of strings, as a tuple; a bare string is refused, not split."""
    return tuple(check(value, isinstance(value, list)
                       and all(isinstance(v, str) for v in value),
                       f"{what} must be a list of strings"))


def check_finite(value, what: str) -> float:
    """A finite JSON number (an integer, or a float but not NaN or infinity)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        ok = number and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        ok = False
    return float(check(value, ok, f"{what} must be a finite number"))


def check_integer(value, what: str) -> int:
    return check(value, isinstance(value, int) and not isinstance(value, bool),
                 f"{what} must be an integer")
