"""Exception types shared across the package, the one reader of JSON files,
and the checks with which the file and wire loaders raise SchemaViolation."""
import json
import math
from typing import Optional, Tuple


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


class SchemaViolation(DynavError):
    """A payload (file or wire message) does not match its documented schema."""


class BackendUnavailable(DynavError):
    """The decision backend could not produce a usable response."""


class TransportError(BackendUnavailable):
    """HTTP transport failed after all retries."""


class RequestTimeout(BackendUnavailable):
    """The backend did not answer within the configured deadline."""


class BindFailure(DynavError):
    """The decision server could not bind its port."""


class EmptyInput(DynavError):
    """An aggregate operation received no data."""


class Unreachable(DynavError):
    """No collision-free grid path reaches the goal region."""


class ConfigError(DynavError):
    """Invalid configuration file or flag combination."""


# -- reading JSON files, and the schema checks for what they hold ---------------

def read_json(path, error=SchemaViolation, lines: bool = False):
    """The JSON value in the file at ``path``, or with ``lines`` the values on
    its non-blank lines.  A file that cannot be read or decoded raises ``error``
    (``path:line:col: msg`` for a syntax error)."""
    line0 = 0
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if not lines:
            return json.loads(text)
        values = []
        for line0, line in enumerate(text.split("\n")):
            if line.strip():
                values.append(json.loads(line))
        return values
    except OSError as e:
        raise error(f"cannot read {path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise error(f"{path}:{line0 + e.lineno}:{e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8, too long an integer, too deep
        raise error(f"{path}: not valid JSON: {e}") from e


def refuse(value, what: str):
    """Raise the SchemaViolation saying what ``value`` must be."""
    raise SchemaViolation(f"{what}, not {value!r:.60}")


def check(value, ok: bool, what: str):
    """``value``, or a SchemaViolation saying what it must be."""
    if not ok:
        refuse(value, what)
    return value


# Each check below builds its message only when it raises: the wire loaders
# run them on every field of every message.

_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}


def check_type(value, kind: type, what: str):
    """``value`` if its JSON type is ``kind``: dict, list, str or bool."""
    if type(value) is not kind:
        refuse(value, f"{what} must be {_JSON_NAMES[kind]}")
    return value


def check_strings(value, what: str) -> Tuple[str, ...]:
    """A JSON list of strings, as a tuple; a bare string is refused, not split."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        refuse(value, f"{what} must be a list of strings")
    return tuple(value)


def check_finite(value, what: str) -> float:
    """A finite JSON number (an integer, or a float but not NaN or infinity)."""
    if type(value) is not float and (not isinstance(value, (int, float))
                                     or isinstance(value, bool)):
        refuse(value, f"{what} must be a number")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer too large for a float
        pass
    raise SchemaViolation(f"{what} is not finite: {value!r:.60}")


def check_integer(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        refuse(value, f"{what} must be an integer")
    return value


def check_location(value, what: str) -> Optional[Tuple[float, float]]:
    """A place: null, or a list of two finite numbers (as a tuple of floats)."""
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 2):
        refuse(value, f"{what} must be null or a list of two numbers")
    return check_finite(value[0], what), check_finite(value[1], what)
