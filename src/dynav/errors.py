"""Exception types shared across the package."""


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
