"""Motion execution, reactive obstacle avoidance, and the success predicate."""
from __future__ import annotations

import math

from .errors import NoEscape, PoseOutOfBounds
from .geometry import AgentBody, MotionResult, PolarAction, Pose, normalize_angle
from .goals import GoalSpec
from .world import WorldMap

# advance below this is treated as contact with the blocking surface
_CONTACT = 1e-4
_EPS = 1e-9
# bound on the rounding in a Lipschitz bound on computed clearances
_SLACK = 1e-9


def _max_travel(world: WorldMap, x0: float, y0: float, ux: float, uy: float,
                r: float, radius: float) -> float:
    """Farthest collision-free advance of a disc along a segment.

    Conservative distance marching (sphere tracing, Hart 1996): each step
    advances by the current clearance minus the body radius, which can never
    jump past a contact.  Every point it measures lies on the segment, so
    each clearance is read from the surfaces along it, nearest first
    (``WorldMap.surfaces_along``), with the bits of a full scan.
    """
    near = world.surfaces_along(x0, y0, ux, uy, r)
    t = 0.0
    while t < r - _EPS:
        c = world.clearance_along(x0 + t * ux, y0 + t * uy, near) - radius
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
    2x clearance.  When the cap is reached without restoration, the first
    sample with the most clearance, if that is at least the body's radius,
    is returned (the pose itself counts as the sample before the first);
    if no sample keeps the body clear the agent is boxed in and NoEscape is
    raised.

    Samples lie every ``min(0.01, clearance / 10)`` along the ray, up to
    where it leaves the world: the pose lies in the world (PoseOutOfBounds
    otherwise), a rectangle, and each coordinate of the samples moves one
    way, so no later sample is back in.  Clearance is 1-Lipschitz in
    position, so a sample at offset t has at most ``c + |t - s|`` for any
    sample at offset s already measured at c; the search for a sample that
    restores the clearance never measures one that this bound rules out.
    Once none restores it, every sample is measured in order.  Every sample
    lies on the ray, so each clearance is read from the surfaces along it,
    nearest first (``WorldMap.surfaces_along``), with the bits of a full
    scan.
    """
    if not world.in_bounds(pose.x, pose.y):
        raise PoseOutOfBounds(f"pose ({pose.x:.2f}, {pose.y:.2f}) is outside the world")
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
    # the ray's end, with a slack under half a step over the sum's rounding:
    # 2 * clearance / step samples (20 below 0.1 m), none for a zero-length ray
    end = 2.0 * clearance + min(_EPS, step / 2.0)
    near = world.surfaces_along(pose.x, pose.y, dx, dy, end)
    width, height = world.width_m, world.height_m
    samples = []  # position of every in-bounds sample, in order
    low = c0  # min of c - s over the pose and the measured samples
    # the first sample that restores the clearance; samples past it are not made
    t = step
    while 0.0 < t <= end:
        x, y = pose.x + dx * t, pose.y + dy * t
        if not (0.0 <= x < width and 0.0 <= y < height):
            break  # each coordinate moves one way, so no later sample is back in
        samples.append((x, y))
        if low + t + _SLACK >= clearance:
            c = world.clearance_along(x, y, near)
            if c >= clearance:
                return Pose(x, y, pose.heading)
            low = min(low, c - t)
        t += step

    # boxed in: the first sample with the most clearance, if that keeps the body clear
    best_pose = pose if c0 >= body.radius else None
    best_c = c0 if best_pose is not None else -math.inf
    for x, y in samples:
        c = world.clearance_along(x, y, near)
        if c > best_c and c >= body.radius:
            best_c = c
            best_pose = Pose(x, y, pose.heading)
    if best_pose is None:
        raise NoEscape("no collision-free displaced pose within 2x clearance")
    return best_pose


def success(world: WorldMap, pose: Pose, goal: GoalSpec, threshold: float) -> bool:
    """True when the pose sits within ``threshold`` of a matching object
    boundary; inclusive at exactly the threshold."""
    return min(o.boundary_distance(pose.x, pose.y)
               for o in goal.matching_objects(world)) <= threshold
