"""Run configuration with defaults, file loading, and flag precedence."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .errors import (ConfigError, SchemaViolation, check_finite, check_integer, check_type,
                     read_json)
from .geometry import AgentBody


@dataclass(frozen=True)
class RunConfig:
    """Free parameters of the pipeline.  Flags beat the config file, which
    beats these defaults."""

    alpha: float = 0.8                 # boundary safety scale, (0, 1]
    theta_delta_deg: float = 15.0      # min angular gap between candidates
    r_min: float = 0.1                 # drop candidates shorter than this, meters
    tau_stop: float = 0.6              # stop-confidence threshold
    success_threshold_m: float = 0.3   # distance to goal boundary counting as success
    d_max: float = 10.0                # sensing range, meters
    n_rays: int = 181
    fov_deg: float = 131.0
    agent_radius: float = 0.17
    hazard_clearance_m: float = 0.5
    memory_enabled: bool = True
    memory_budget: int = 12            # clauses in a rendered memory excerpt
    memory_hops: int = 2
    seed: int = 0
    workers: int = 1
    max_steps: int = 200               # per-goal step budget
    max_distance_m: float = 200.0      # per-goal distance budget
    backend: str = "oracle"            # "oracle" | "remote"
    endpoint: Optional[str] = None
    timeout_ms: int = 10_000
    max_retries: int = 2
    max_backend_failures: int = 5      # consecutive failures before aborting

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, not {value}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must lie in (0, 1]")
        if self.theta_delta_deg < 0 or self.tau_stop < 0 or self.tau_stop > 1:
            raise ConfigError("theta_delta_deg must be >= 0 and tau_stop in [0, 1]")
        if self.success_threshold_m < 0 or self.d_max <= 0 or self.n_rays < 2:
            raise ConfigError("thresholds and sensing parameters must be positive")
        if not 0.0 < self.fov_deg < 360.0:
            # the fan's ray angles must increase strictly over [-fov/2, fov/2]
            raise ConfigError(f"fov_deg must lie in (0, 360), not {self.fov_deg}")
        if self.r_min < 0 or self.agent_radius <= 0:
            raise ConfigError("r_min must be >= 0 and agent_radius positive")
        if self.hazard_clearance_m < 0:
            raise ConfigError("hazard_clearance_m must be >= 0")
        if self.workers < 1 or self.max_steps < 1 or self.max_distance_m <= 0:
            raise ConfigError("workers and budgets must be positive")
        if self.memory_hops < 0 or self.memory_budget < 0:
            raise ConfigError("memory_hops and memory_budget must be >= 0")
        if self.max_backend_failures < 0:
            raise ConfigError("max_backend_failures must be >= 0")
        if self.backend not in ("oracle", "remote"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == "remote" and not self.endpoint:
            raise ConfigError("remote backend needs --endpoint")

    # radians views and the agent's body, as the geometry code takes them
    @property
    def theta_delta(self) -> float:
        return math.radians(self.theta_delta_deg)

    @property
    def fov(self) -> float:
        return math.radians(self.fov_deg)

    @property
    def avoid_clearance(self) -> float:
        return self.agent_radius + 0.15

    @property
    def body(self) -> AgentBody:
        return AgentBody(radius=self.agent_radius, max_sense=self.d_max)


# each field's type, as written: "float", "int", "bool", "str" or "Optional[...]"
_TYPES = {f.name: f.type for f in fields(RunConfig)}
_CHECKS = {"float": check_finite, "int": check_integer,
           "bool": lambda v, what: check_type(v, bool, what),
           "str": lambda v, what: check_type(v, str, what)}


def _checked(key: str, value):
    """A config-file value, checked against the JSON type of its field."""
    if value is None and _TYPES[key].startswith("Optional["):
        return None
    return _CHECKS[_TYPES[key].removeprefix("Optional[").rstrip("]")](value, f"config key {key}")


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Defaults, then config-file values, then explicit flag overrides.

    A config file that cannot be read or decoded, is not a JSON object, or has
    an unknown key or a value of the wrong JSON type raises ConfigError.
    """
    values: dict = {}
    if path:
        raw = read_json(path, ConfigError)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = set(raw) - set(_TYPES)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
        try:
            values.update((key, _checked(key, value)) for key, value in raw.items())
        except SchemaViolation as e:
            raise ConfigError(f"{path}: {e}") from e
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    try:
        return RunConfig(**values)
    except TypeError as e:
        raise ConfigError(str(e)) from e
