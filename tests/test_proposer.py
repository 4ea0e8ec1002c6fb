"""Candidate proposal: greedy far-first sampling and backend filter clamps."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynav.geometry import angular_distance
from dynav.proposer import (
    Adjustment,
    BoundaryPoint,
    Candidate,
    CandidateSet,
    apply_filter_response,
    boundary,
    sample_initial,
)
from dynav.sensing import sense

from conftest import make_pose, rays_of

DEG = math.radians(1.0)


def reference_sample(points, alpha, theta_delta, r_min):
    """Independent reimplementation of the greedy far-first rule."""
    pool = [(p.r * alpha, p.theta) for p in points if p.r * alpha >= r_min]
    kept = []
    while pool:
        best = min(pool, key=lambda rt: (-rt[0], abs(rt[1]), rt[1]))
        pool.remove(best)
        if min((angular_distance(best[1], k[1]) for k in kept), default=math.inf) >= theta_delta:
            kept.append(best)
    return sorted(kept, key=lambda rt: rt[1])


def test_worked_example():
    points = [
        BoundaryPoint(5.0, 0.0),
        BoundaryPoint(2.0, -5 * DEG),
        BoundaryPoint(1.0, 8 * DEG),
        BoundaryPoint(4.0, 30 * DEG),
        BoundaryPoint(3.0, -20 * DEG),
    ]
    out = sample_initial(points, alpha=0.8, theta_delta=10 * DEG, r_min=0.1)
    got = [(c.id, round(c.r, 9), round(math.degrees(c.theta), 6)) for c in out.candidates]
    assert got == [(1, 2.4, -20.0), (2, 4.0, 0.0), (3, 3.2, 30.0)]


def test_range_tie_prefers_straight_ahead():
    points = [BoundaryPoint(2.0, 5 * DEG), BoundaryPoint(2.0, -3 * DEG)]
    out = sample_initial(points, alpha=1.0, theta_delta=10 * DEG, r_min=0.1)
    assert len(out) == 1
    assert out.candidates[0].theta == pytest.approx(-3 * DEG)

    points = [BoundaryPoint(2.0, 4 * DEG), BoundaryPoint(2.0, -4 * DEG)]
    out = sample_initial(points, alpha=1.0, theta_delta=10 * DEG, r_min=0.1)
    assert out.candidates[0].theta == pytest.approx(-4 * DEG)


def test_r_min_drops_short_candidates():
    points = [BoundaryPoint(0.12, 0.0), BoundaryPoint(3.0, 90 * DEG)]
    out = sample_initial(points, alpha=0.8, theta_delta=10 * DEG, r_min=0.1)
    assert [c.r for c in out.candidates] == [pytest.approx(2.4)]


def test_sample_validates_parameters():
    points = [BoundaryPoint(1.0, 0.0)]
    with pytest.raises(ValueError):
        sample_initial(points, alpha=0.0, theta_delta=0.1, r_min=0.1)
    with pytest.raises(ValueError):
        sample_initial(points, alpha=1.2, theta_delta=0.1, r_min=0.1)
    with pytest.raises(ValueError):
        sample_initial(points, alpha=0.8, theta_delta=-0.1, r_min=0.1)


points_strategy = st.lists(
    st.builds(
        BoundaryPoint,
        r=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        theta=st.floats(min_value=-math.pi / 2, max_value=math.pi / 2, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(points=points_strategy,
       alpha=st.floats(min_value=0.3, max_value=1.0),
       theta_delta=st.floats(min_value=0.0, max_value=0.6),
       r_min=st.floats(min_value=0.0, max_value=0.5))
def test_sampling_invariants(points, alpha, theta_delta, r_min):
    out = sample_initial(points, alpha, theta_delta, r_min)
    cands = out.candidates

    # ids are 1..n in ascending bearing order
    assert list(out.ids()) == list(range(1, len(cands) + 1))
    assert all(b.theta >= a.theta for a, b in zip(cands, cands[1:]))

    # every candidate comes from a scaled input point and respects r_min
    inputs = {(round(p.r * alpha, 12), round(p.theta, 12)) for p in points}
    for c in cands:
        assert (round(c.r, 12), round(c.theta, 12)) in inputs
        assert c.r >= r_min

    # pairwise angular separation
    for i, a in enumerate(cands):
        for b in cands[i + 1:]:
            assert angular_distance(a.theta, b.theta) >= theta_delta - 1e-12

    # far priority: anything dropped is dominated by a kept candidate nearby
    kept = [(c.r, c.theta) for c in cands]
    for p in points:
        r = p.r * alpha
        if r < r_min or (round(r, 12), round(p.theta, 12)) in {(round(a, 12), round(b, 12)) for a, b in kept}:
            continue
        assert any(kr >= r - 1e-12 and angular_distance(kt, p.theta) < theta_delta + 1e-12
                   for kr, kt in kept)

    # matches an independently written reference
    ref = reference_sample(points, alpha, theta_delta, r_min)
    assert [(c.r, c.theta) for c in cands] == ref


# A small pool of values, so that duplicate bearings, exact range ties and
# -0.0 against 0.0 come up often; bearings run past +-pi on both sides.
_TIE_RANGES = st.sampled_from([0.05, 0.5, 1.0, 2.0, 2.0000000000000004, 7.5])
_TIE_BEARINGS = st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.2, math.pi, -math.pi, 3.5, -3.5,
                                 2 * math.pi, -2 * math.pi, 7.0, -9.0, 1e-16])
exactness_points = st.lists(
    st.builds(BoundaryPoint,
              r=_TIE_RANGES | st.floats(min_value=0.01, max_value=10.0),
              theta=_TIE_BEARINGS | st.floats(min_value=-4 * math.pi, max_value=4 * math.pi)),
    min_size=0, max_size=30)


def bits(pairs):
    return [(r.hex(), theta.hex()) for r, theta in pairs]


@settings(max_examples=500, deadline=None)
@given(points=exactness_points,
       alpha=st.sampled_from([1.0, 0.8]) | st.floats(min_value=0.1, max_value=1.0),
       theta_delta=st.sampled_from([0.0, 0.1, 0.2, math.pi, 4.0])
       | st.floats(min_value=0.0, max_value=7.0),
       r_min=st.sampled_from([0.0, 0.5, 2.0]) | st.floats(min_value=0.0, max_value=3.0))
def test_sample_initial_equals_reference_bit_for_bit(points, alpha, theta_delta, r_min):
    # the sampler inlines angular_distance; the reference calls it
    out = sample_initial(points, alpha, theta_delta, r_min)
    assert bits((c.r, c.theta) for c in out.candidates) == bits(
        reference_sample(points, alpha, theta_delta, r_min))


def test_boundary_masking(box_world, body):
    obs = sense(box_world, make_pose(5.0, 4.0, 0.0), body, n_rays=5)
    pts = boundary(obs, [True] * 5)
    assert len(pts) == 5
    assert [p.theta for p in pts] == [r.theta for r in rays_of(obs)]
    assert [p.r for p in pts] == [r.depth for r in rays_of(obs)]

    pts = boundary(obs, [True, False, True, False, True])
    assert len(pts) == 3
    assert boundary(obs, [False] * 5) == []
    with pytest.raises(ValueError):
        boundary(obs, [True] * 4)


# -- filter response clamps ---------------------------------------------------


def make_set():
    points = [BoundaryPoint(5.0, -30 * DEG), BoundaryPoint(4.0, 0.0), BoundaryPoint(5.0, 30 * DEG)]
    initial = sample_initial(points, alpha=0.8, theta_delta=15 * DEG, r_min=0.1)
    return points, initial


def apply(initial, points, removals=(), adjustments=()):
    assert initial.points == tuple(points)  # the set keeps the boundary it was sampled from
    return apply_filter_response(initial, removals, adjustments,
                                 fov=math.radians(131.0), ray_gap=31 * DEG)


def test_filter_removals():
    points, initial = make_set()
    out = apply(initial, points, removals=[2])
    assert out.ids() == (1, 3)


def test_filter_applies_valid_adjustment():
    points, initial = make_set()
    # candidate 2 is (3.2, 0 deg); nudge within theta_delta/2 and below its range
    out = apply(initial, points, adjustments=[Adjustment(2, 2.0, 5 * DEG)])
    c = out.by_id(2)
    assert c.r == pytest.approx(2.0)
    assert c.theta == pytest.approx(5 * DEG)


@pytest.mark.parametrize("adj", [
    Adjustment(2, 9.0, 0.0),           # extends beyond the original range
    Adjustment(2, 2.0, 9 * DEG),       # moves more than theta_delta/2
    Adjustment(2, -1.0, 0.0),          # non-positive range
    Adjustment(2, float("nan"), 0.0),  # non-finite range
])
def test_filter_drops_invalid_adjustments(adj):
    points, initial = make_set()
    out = apply(initial, points, adjustments=[adj])
    assert out.by_id(2) == initial.by_id(2)


def test_filter_respects_boundary_extent():
    points, initial = make_set()
    # at 5 deg the nearby boundary support is 4.0 m; alpha caps travel at 3.2
    out = apply(initial, points, adjustments=[Adjustment(2, 3.5, 5 * DEG)])
    assert out.by_id(2) == initial.by_id(2)


def test_filter_fov_clamp():
    points = [BoundaryPoint(5.0, -60 * DEG), BoundaryPoint(4.0, -52 * DEG)]
    initial = sample_initial(points, alpha=1.0, theta_delta=5 * DEG, r_min=0.1)
    out = apply_filter_response(initial, [], [Adjustment(1, 1.0, -62 * DEG)],
                                fov=120 * DEG, ray_gap=10 * DEG)
    # -62 deg falls outside the 120 deg field of view: adjustment dropped
    assert out.by_id(1) == initial.by_id(1)


def test_filter_reverts_separation_breakers():
    # candidates exactly theta_delta apart: any nudge toward the neighbor breaks it
    points = [BoundaryPoint(5.0, -30 * DEG), BoundaryPoint(4.0, -15 * DEG),
              BoundaryPoint(5.0, 30 * DEG)]
    initial = sample_initial(points, alpha=0.8, theta_delta=15 * DEG, r_min=0.1)
    assert [round(math.degrees(c.theta)) for c in initial.candidates] == [-30, -15, 30]
    out = apply(initial, points, adjustments=[Adjustment(1, 1.0, -22.5 * DEG)])
    assert out.by_id(1) == initial.by_id(1)
    assert out.by_id(2) == initial.by_id(2)


def test_filter_ignores_adjustment_for_removed_id():
    points, initial = make_set()
    out = apply(initial, points, removals=[2], adjustments=[Adjustment(2, 1.0, 0.0)])
    assert out.ids() == (1, 3)


def test_candidate_validation():
    with pytest.raises(ValueError):
        Candidate(0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Candidate(1, -1.0, 0.0)
    with pytest.raises(ValueError):
        Candidate(1, math.inf, 0.0)
    with pytest.raises(ValueError):
        CandidateSet((Candidate(1, 1.0, 0.0), Candidate(1, 2.0, 0.5)), 0.8, 0.1)
