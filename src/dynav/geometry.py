"""Poses, polar actions, and small angle helpers."""
from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def normalize_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (a + math.pi) % TWO_PI - math.pi


def angular_distance(a: float, b: float) -> float:
    """Smallest absolute difference between two angles, in [0, pi]."""
    return abs(normalize_angle(a - b))


@dataclass(frozen=True)
class Pose:
    """Planar pose: position in meters, heading in radians, wrapped to [-pi, pi)."""

    x: float
    y: float
    heading: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise ValueError(f"pose must be three finite numbers, not "
                             f"({self.x}, {self.y}, {self.heading})")
        object.__setattr__(self, "heading", normalize_angle(self.heading))

    def distance_to(self, other: "Pose") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "heading": self.heading}


@dataclass(frozen=True)
class PolarAction:
    """Rotate by theta (radians), then translate by r (meters), or stop.

    A stop action carries r = 0, theta = 0 and terminates the episode; it is
    never executed as motion.
    """

    r: float = 0.0
    theta: float = 0.0
    stop: bool = False

    def __post_init__(self):
        if self.stop:
            object.__setattr__(self, "r", 0.0)
            object.__setattr__(self, "theta", 0.0)
            return
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"action range must be finite and >= 0, got {self.r}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @classmethod
    def stop_action(cls) -> "PolarAction":
        return cls(stop=True)

    def to_dict(self) -> dict:
        if self.stop:
            return {"stop": True}
        return {"stop": False, "r": self.r, "theta_deg": math.degrees(self.theta)}


@dataclass(frozen=True)
class MotionResult:
    """Outcome of executing a move: final pose, distance actually covered,
    and whether the translation was cut short by an obstacle."""

    new_pose: Pose
    traveled: float
    truncated: bool


@dataclass(frozen=True)
class AgentBody:
    """Physical footprint of the agent: disc radius and sensing range, meters."""

    radius: float = 0.17
    max_sense: float = 10.0

    def __post_init__(self):
        if self.radius <= 0 or self.max_sense <= 0:
            raise ValueError("body radius and sensing range must be positive")
