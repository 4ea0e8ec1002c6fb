"""World queries and whole steps hand back Python floats, never numpy scalars.

A numpy scalar that reaches a pose stays in every pose after it, and every
later addition on it runs as numpy scalar arithmetic, several times slower
than on a float with the same bits.  These tests run real episodes and check
the type of every number a step produces.
"""
import math
import random
from pathlib import Path

import pytest

from dynav import episodes
from dynav.backends import OracleBackend
from dynav.config import RunConfig
from dynav.episodes import EpisodeSpec, load_episode_specs, run_episode
from dynav.geometry import AgentBody
from dynav.goals import GoalSpec
from dynav.world import OBSTACLE, SemanticObject, WorldMap
from dynav.worldgen import WorldGenSpec, generate_world, random_free_pose

from conftest import empty_world, rays_of

ROOT = Path(__file__).resolve().parent.parent

# gate-4 worlds whose episodes nudge away from objects on many steps
NUDGED_SEEDS = (2, 7, 38)


def _recorded_run(monkeypatch, spec, cfg):
    """Run the episode; return its result, every step outcome and the graphs."""
    outcomes, graphs = [], []
    real_step = episodes.step

    def recording_step(state, world, mem, *args, **kwargs):
        outcome = real_step(state, world, mem, *args, **kwargs)
        outcomes.append(outcome)
        graphs.append(mem)
        return outcome

    monkeypatch.setattr(episodes, "step", recording_step)
    return run_episode(spec, OracleBackend.from_config(cfg), cfg), outcomes, graphs


def _non_floats(world, result, outcomes, graphs):
    """Every number of the run that is not exactly a float, with its place."""
    values = [("object", v) for o in world.objects for v in (*o.center, o.radius)]
    values += [("trajectory", v) for p in result.trajectory for v in (p.x, p.y, p.heading)]
    values += [("goal", v) for g in result.goal_results for v in (g.path_length, g.shortest)]
    for o in outcomes:
        values += [("pose", v) for v in (o.observation.pose.x, o.observation.pose.y)]
        values += [("depth", r.depth) for r in rays_of(o.observation)]
        values += [("candidate", v) for c in o.candidates.candidates for v in (c.r, c.theta)]
        values += [("score", s) for s in o.decision.scores.values()]
        values += [("s_stop", o.decision.s_stop), ("traveled", o.traveled)]
    values += [("memory", v) for mem in graphs for node in mem.nodes.values()
               if node.location is not None for v in node.location]
    return [(where, type(v).__name__) for where, v in values if type(v) is not float]


@pytest.mark.parametrize("seed", NUDGED_SEEDS)
def test_objectnav_steps_with_object_nudges_stay_plain_floats(monkeypatch, seed):
    cfg = RunConfig(max_distance_m=10000.0)
    world = generate_world(WorldGenSpec(categories=("chair", "table"), rooms=2,
                                        objects_per_category=2), seed)
    start = random_free_pose(world, random.Random(seed + 1000), AgentBody())
    spec = EpisodeSpec(episode_id=f"w{seed}", world=world,
                       goals=(GoalSpec.name_goal("chair"),), start=start, seed=seed)
    result, outcomes, graphs = _recorded_run(monkeypatch, spec, cfg)
    nudged = sum(len(o.segments) == 2 for o in outcomes)
    assert nudged >= 5, "the episode no longer nudges; pick a seed that does"
    assert _non_floats(spec.world, result, outcomes, graphs) == []


def test_a_multigoal_episode_with_memory_stays_plain_floats(monkeypatch):
    cfg = RunConfig(max_distance_m=10000.0)
    spec = load_episode_specs(str(ROOT / "specs" / "multigoal_demo.json"), cfg)[0]
    result, outcomes, graphs = _recorded_run(monkeypatch, spec, cfg)
    assert len(result.goal_results) == 3 and cfg.memory_enabled
    assert graphs[-1].nodes, "the oracle sent no memory node"
    assert any(len(o.segments) == 2 for o in outcomes)
    assert _non_floats(spec.world, result, outcomes, graphs) == []


def test_clearance_with_nearest_returns_plain_floats_on_every_branch():
    grid = empty_world(6.0, 5.0, walled=False).grid.copy()
    grid[10, 10] = OBSTACLE  # a pillar covering [1.0, 1.1] x [1.0, 1.1]
    world = WorldMap(grid, 0.1, [SemanticObject("plant_1", "plant", (4.0, 2.5), 0.3)])
    cases = {
        "border": (0.05, 3.0),
        "cell": (1.3, 1.05),
        "object": (4.45, 2.6),
        "object centre": (4.0, 2.5),
    }
    for branch, (x, y) in cases.items():
        c, (nx, ny) = world.clearance_with_nearest(x, y)
        assert [type(v) for v in (c, nx, ny)] == [float] * 3, branch
    # the cases really take their branches
    assert world.clearance_with_nearest(0.05, 3.0)[1] == (0.0, 3.0)
    assert world.clearance_with_nearest(1.3, 1.05)[1] == (1.1, 1.05)
    assert world.clearance_with_nearest(4.0, 2.5)[1] == (4.3, 2.5)
    c, (nx, ny) = world.clearance_with_nearest(4.45, 2.6)
    assert abs(c - (math.hypot(0.45, 0.1) - 0.3)) < 1e-12
    assert abs(math.hypot(nx - 4.0, ny - 2.5) - 0.3) < 1e-12
