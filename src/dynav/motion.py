"""Motion execution, reactive obstacle avoidance, and the success predicate."""
from __future__ import annotations

import math
from typing import Optional

from .errors import NoEscape, PoseOutOfBounds, UnresolvableGoal
from .geometry import AgentBody, MotionResult, PolarAction, Pose, normalize_angle
from .sensing import Observation
from .goals import GoalSpec
from .world import WorldMap

# advance below this is treated as contact with the blocking surface
_CONTACT = 1e-4
_EPS = 1e-9
# bound on the rounding in a Lipschitz bound on computed clearances
_SLACK = 1e-9
# radius of a local clearance view (``WorldMap.local_clearance``)
_REACH = 0.1


class _RayClearance:
    """Exact clearance at points of one ray, each named by its offset.

    A point within ``_REACH`` of the last view's centre is answered from that
    view.  Where the points come densely, a point within ``_REACH`` of the
    last one measured builds a new view; any other point takes a full query.
    Offsets stand for distances along the ray: a unit direction and the
    rounding of the points stretch them by far less than the view's margin.
    """

    __slots__ = ("world", "last", "centre", "view")

    def __init__(self, world: WorldMap):
        self.world = world
        self.last = -math.inf  # offset of the last point measured
        self.centre = math.inf  # offset of the view's centre
        self.view = None

    def __call__(self, t: float, x: float, y: float) -> float:
        if abs(t - self.centre) <= _REACH:
            return self.view(x, y)
        if abs(t - self.last) <= _REACH:
            c, self.view = self.world.local_clearance(x, y, _REACH)
            self.centre = t
        else:
            c = self.world.clearance(x, y)
        self.last = t
        return c

    def known(self, t: float) -> None:
        """Note that the clearance at offset ``t`` was measured elsewhere."""
        self.last = t


def _max_travel(world: WorldMap, x0: float, y0: float, ux: float, uy: float,
                r: float, radius: float) -> float:
    """Farthest collision-free advance of a disc along a segment.

    Conservative distance marching (sphere tracing): each step advances by
    the current clearance minus the body radius, which can never jump past a
    contact.  Short steps near a surface are answered from local views.
    """
    clearance_at = _RayClearance(world)
    t = 0.0
    while t < r - _EPS:
        c = clearance_at(t, x0 + t * ux, y0 + t * uy) - radius
        if c <= _CONTACT:
            break
        t += min(c, r - t)
    return t


def execute(world: WorldMap, pose: Pose, body: AgentBody, action: PolarAction) -> MotionResult:
    """Rotate, then translate along the new heading, stopping short of contact.

    The swept disc of the body never intersects an obstacle cell, an object,
    or the map border; when the requested range cannot be realized the motion
    is truncated at the last collision-free point and flagged.
    """
    if action.stop:
        raise ValueError("stop actions are not executable motion")
    if not world.in_bounds(pose.x, pose.y):
        raise PoseOutOfBounds(f"pose ({pose.x:.2f}, {pose.y:.2f}) is outside the world")
    heading = normalize_angle(pose.heading + action.theta)
    if action.r == 0.0:
        return MotionResult(Pose(pose.x, pose.y, heading), 0.0, False)
    ux = math.cos(heading)
    uy = math.sin(heading)
    t = _max_travel(world, pose.x, pose.y, ux, uy, action.r, body.radius)
    new_pose = Pose(pose.x + t * ux, pose.y + t * uy, heading)
    return MotionResult(new_pose, t, t < action.r - _CONTACT)


def reactive_avoid(world: WorldMap, pose: Pose, body: AgentBody, clearance: float) -> Pose:
    """Nudge the pose directly away from the nearest obstacle.

    If anything blocks within ``clearance`` of the pose, the pose is displaced
    along the away direction until the clearance is restored, up to a cap of
    2x clearance.  When the cap is reached without restoration the best
    still-collision-free sample along the ray is returned; if even that fails
    the agent is boxed in and NoEscape is raised.

    Samples lie every ``min(0.01, clearance / 10)`` along the ray.  Clearance
    is 1-Lipschitz in position, so a sample at offset t has at most
    ``c + |t - s|`` for any sample at offset s already measured at c; samples
    this bound rules out are never measured, and those near a measured one
    are answered from local views.
    """
    c0, nearest = world.clearance_with_nearest(pose.x, pose.y)
    if c0 >= clearance:
        return pose
    dx = pose.x - nearest[0]
    dy = pose.y - nearest[1]
    norm = math.hypot(dx, dy)
    if norm < 1e-12:
        dx, dy = 1.0, 0.0  # degenerate contact: pick an arbitrary fixed direction
    else:
        dx /= norm
        dy /= norm
    step = min(0.01, clearance / 10.0)
    samples = []  # offset and position of every in-bounds sample, in order
    t = step
    cap = 2.0 * clearance
    while t <= cap + _EPS:
        x, y = pose.x + dx * t, pose.y + dy * t
        if world.in_bounds(x, y):
            samples.append((t, x, y))
        t += step

    clearance_at = _RayClearance(world)
    clearance_at.known(0.0)
    # the first sample that restores the clearance
    found = []  # offset and clearance of the samples measured here, in order
    low = c0  # min of c - s over the pose and the measured samples
    for t, x, y in samples:
        if low + t + _SLACK < clearance:
            continue
        c = clearance_at(t, x, y)
        if c >= clearance:
            return Pose(x, y, pose.heading)
        found.append((t, c))
        low = min(low, c - t)

    # boxed in: the first sample with the most clearance, if that keeps the
    # body clear; bounded by the measured samples on both sides
    best_pose = pose if c0 >= body.radius else None
    best_c = c0 if best_pose is not None else -math.inf
    low = c0
    clearance_at.known(0.0)
    ahead = iter(found + [(math.inf, math.inf)])
    t_next, c_next = next(ahead)
    for t, x, y in samples:
        if t == t_next:
            c = c_next
            t_next, c_next = next(ahead)
            clearance_at.known(t)
        else:
            bound = min(low + t, c_next + (t_next - t)) + _SLACK
            if bound <= best_c or bound < body.radius:
                continue
            c = clearance_at(t, x, y)
        low = min(low, c - t)
        if c > best_c and c >= body.radius:
            best_c = c
            best_pose = Pose(x, y, pose.heading)
    if best_pose is None:
        raise NoEscape("no collision-free displaced pose within 2x clearance")
    return best_pose


def success(world: WorldMap, pose: Pose, goal: GoalSpec, obs: Optional[Observation],
            threshold: float, visibility_required: bool = False) -> bool:
    """True when the pose sits within ``threshold`` of a matching object boundary.

    The check is inclusive at exactly the threshold.  With
    ``visibility_required`` some ray of the supplied observation must also hit
    a matching object.
    """
    matching = [o for o in world.objects if goal.matches(o)]
    if not matching:
        raise UnresolvableGoal(f"no object matches goal {goal.text!r}")
    d = min(o.boundary_distance(pose.x, pose.y) for o in matching)
    if d > threshold:
        return False
    if visibility_required:
        if obs is None:
            return False
        names = {o.name for o in matching}
        return any(label in names for label, _, _ in obs.hits)
    return True
