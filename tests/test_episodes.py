"""Episode running: budgets, termination, reproducibility, and spec files."""
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from dynav.backends.oracle import OracleBackend
from dynav.backends.protocol import DecisionResponse
from dynav.config import RunConfig
from dynav.episodes import (
    ABORTED,
    BUDGET_EXHAUSTED,
    STOPPED,
    EpisodeResult,
    EpisodeSpec,
    GoalResult,
    load_episode_specs,
    run_episode,
)
from dynav.errors import BackendUnavailable, SchemaViolation
from dynav.geometry import AgentBody
from dynav.goals import GoalSpec
from dynav.memory import MemoryGraph
from dynav.motion import success
from dynav.sensing import sense
from dynav.world import OBSTACLE, SemanticObject, WorldMap

from conftest import (BAD_WORLDGEN, MISSING, dotted, empty_world, json_values, make_pose, replaced,
                      replacements)


def chair_world():
    chair = SemanticObject(name="chair_1", category="chair", center=(8.0, 4.0),
                           radius=0.3, attributes=("red",))
    return empty_world(10.0, 8.0, objects=[chair])


def sealed_world():
    chair = SemanticObject(name="chair_1", category="chair", center=(8.0, 4.0), radius=0.3)
    table = SemanticObject(name="table_1", category="table", center=(3.0, 4.0), radius=0.3)
    base = empty_world(10.0, 8.0)
    grid = np.array(base.grid)
    grid[:, 60] = OBSTACLE  # wall sealing the chair into the right half
    return WorldMap(grid, base.resolution, [chair, table])


class AlwaysStop:
    def decide(self, req):
        return DecisionResponse(kind=req.kind, scores={c.id: 0.5 for c in req.candidates},
                                s_stop=1.0)


class AlwaysDown:
    def decide(self, req):
        raise BackendUnavailable("down")


def test_visible_goal_reached_quickly():
    cfg = RunConfig(n_rays=61)
    spec = EpisodeSpec(episode_id="e1", world=chair_world(),
                       goals=(GoalSpec.name_goal("chair"),),
                       start=make_pose(5.0, 4.0, 0.0))
    res = run_episode(spec, OracleBackend.from_config(cfg), cfg)
    g = res.goal_results[0]
    assert g.success and g.stopped
    assert g.steps <= 5
    assert res.termination == STOPPED
    assert g.shortest == pytest.approx(2.4, abs=0.2)
    assert g.path_length >= g.shortest - 0.5


class StopInPlace:
    """Removes every candidate and is sure it should stop: the agent rotates
    by theta_delta once, then stops."""

    def decide(self, req):
        return DecisionResponse(kind=req.kind, removals=req.candidate_ids(), s_stop=1.0)


def fresh_success(world, pose, goal, cfg):
    """Success judged on a new scan at the final pose."""
    body = AgentBody(radius=cfg.agent_radius, max_sense=cfg.d_max)
    obs = sense(world, pose, body, cfg.n_rays, fov=cfg.fov)
    return success(world, pose, goal, obs, cfg.success_threshold_m, True)


@pytest.mark.parametrize("backend, start, expected", [
    ("oracle", make_pose(5.0, 4.0, 0.0), True),         # walks up to the chair
    ("stop_in_place", make_pose(7.5, 4.0, 0.0), True),  # beside it, facing it
    ("stop_in_place", make_pose(7.5, 4.0, 180.0), False),  # beside it, facing away
])
def test_visibility_required_judges_the_final_view(backend, start, expected):
    # the avoidance nudge keeps 0.32 m from the chair, so widen the threshold
    cfg = RunConfig(n_rays=61, visibility_required=True, success_threshold_m=0.5)
    world = chair_world()
    goal = GoalSpec.name_goal("chair")
    spec = EpisodeSpec(episode_id="vis", world=world, goals=(goal,), start=start)
    res = run_episode(spec, OracleBackend.from_config(cfg) if backend == "oracle" else StopInPlace(), cfg)
    g = res.goal_results[0]
    assert g.stopped and res.termination == STOPPED
    final = res.trajectory[-1]
    assert g.success == fresh_success(world, final, goal, cfg) == expected
    # without the flag, standing within the threshold is enough
    plain = run_episode(spec, OracleBackend.from_config(cfg) if backend == "oracle" else StopInPlace(),
                        replace(cfg, visibility_required=False))
    assert plain.goal_results[0].success


def test_step_budget_exhaustion():
    cfg = RunConfig(n_rays=61)
    spec = EpisodeSpec(episode_id="e2", world=chair_world(),
                       goals=(GoalSpec.name_goal("chair"),),
                       start=make_pose(1.0, 7.0, 180.0), max_steps=1)
    res = run_episode(spec, OracleBackend.from_config(cfg), cfg)
    g = res.goal_results[0]
    assert not g.success and not g.stopped
    assert g.steps == 1
    assert res.termination == BUDGET_EXHAUSTED


def test_distance_budget_exhaustion():
    cfg = RunConfig(n_rays=61)
    spec = EpisodeSpec(episode_id="e3", world=chair_world(),
                       goals=(GoalSpec.name_goal("chair"),),
                       start=make_pose(1.0, 7.0, 180.0), max_distance_m=0.5)
    res = run_episode(spec, OracleBackend.from_config(cfg), cfg)
    g = res.goal_results[0]
    assert not g.success
    assert res.termination == BUDGET_EXHAUSTED
    assert g.steps < cfg.max_steps


def test_runs_are_bit_reproducible():
    cfg = RunConfig(n_rays=61)
    spec = EpisodeSpec(episode_id="repro", world=chair_world(),
                       goals=(GoalSpec.name_goal("chair"),), seed=7)
    a = run_episode(spec, OracleBackend.from_config(cfg), cfg)
    b = run_episode(spec, OracleBackend.from_config(cfg), cfg)
    assert a == b  # includes the full trajectory, pose for pose


def test_stop_without_reaching_goal_fails():
    cfg = RunConfig(n_rays=31)
    spec = EpisodeSpec(episode_id="e4", world=chair_world(),
                       goals=(GoalSpec.name_goal("chair"),),
                       start=make_pose(2.0, 6.0, 180.0))
    res = run_episode(spec, AlwaysStop(), cfg)
    g = res.goal_results[0]
    assert g.stopped and not g.success
    assert g.steps == 2  # two consecutive confident stop checks
    assert res.termination == STOPPED


def test_backend_outage_aborts():
    cfg = RunConfig(n_rays=31, max_backend_failures=2)
    spec = EpisodeSpec(episode_id="e5", world=chair_world(),
                       goals=(GoalSpec.name_goal("chair"),),
                       start=make_pose(5.0, 4.0, 0.0))
    res = run_episode(spec, AlwaysDown(), cfg)
    assert res.termination == ABORTED
    assert res.goal_results[0].steps == 3  # failures tolerated, then abort
    assert not res.goal_results[0].success


def test_unreachable_goal_is_flagged_and_skipped():
    cfg = RunConfig(n_rays=61)
    spec = EpisodeSpec(episode_id="e6", world=sealed_world(),
                       goals=(GoalSpec.name_goal("chair"), GoalSpec.name_goal("table")),
                       start=make_pose(2.0, 4.0, 0.0))
    res = run_episode(spec, OracleBackend.from_config(cfg), cfg)
    first, second = res.goal_results
    assert first.unreachable and first.shortest is None and not first.success
    assert first.steps == 0
    assert second.success  # the table is in the open half and gets attempted
    assert res.termination == STOPPED



@pytest.mark.parametrize("x", [-0.05, 1e308])
def test_start_outside_the_world_leaves_every_goal_unreachable(x):
    # a spec built in code skips the file's checks: the planner refuses the
    # start, so no step runs from it
    cfg = RunConfig(n_rays=61)
    start = make_pose(x, 4.0, 0.0)
    spec = EpisodeSpec(episode_id="out", world=chair_world(),
                       goals=(GoalSpec.name_goal("chair"),) * 2, start=start)
    res = run_episode(spec, OracleBackend.from_config(cfg), cfg)
    assert [g.unreachable for g in res.goal_results] == [True, True]
    assert res.termination == STOPPED and res.trajectory == (start,)

def test_caller_memory_is_copied_not_mutated():
    cfg = RunConfig(n_rays=61)
    mem0 = MemoryGraph()
    mem0.add_node("landmark", ["old"], (1.0, 1.0), step=0)
    v0 = mem0.version
    spec = EpisodeSpec(episode_id="e7", world=chair_world(),
                       goals=(GoalSpec.name_goal("chair"),),
                       start=make_pose(5.0, 4.0, 0.0))
    run_episode(spec, OracleBackend.from_config(cfg), cfg, mem0=mem0)
    assert set(mem0.nodes) == {"landmark"}
    assert mem0.version == v0


def test_step_log_records_every_step():
    cfg = RunConfig(n_rays=61)
    spec = EpisodeSpec(episode_id="logged", world=chair_world(),
                       goals=(GoalSpec.name_goal("chair"),),
                       start=make_pose(5.0, 4.0, 0.0))
    buf = io.StringIO()
    res = run_episode(spec, OracleBackend.from_config(cfg), cfg, step_log=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert len(lines) == res.goal_results[0].steps
    first = lines[0]
    assert first["episode_id"] == "logged"
    assert first["step"] == 0
    assert {"pose", "candidate_set", "scores", "s_stop", "chosen",
            "traveled", "memory_version"} <= set(first)
    versions = [l["memory_version"] for l in lines]
    assert versions == sorted(versions)


def test_episode_spec_validation():
    with pytest.raises(ValueError):
        EpisodeSpec(episode_id="bad", world=chair_world(), goals=())
    with pytest.raises(ValueError):
        EpisodeSpec(episode_id="bad", world=chair_world(),
                    goals=tuple(GoalSpec.name_goal("chair") for _ in range(11)))


def test_episode_result_round_trip():
    res = EpisodeResult(
        episode_id="rt", seed=3,
        goal_results=(GoalResult("chair", "chair", True, 4.0, 3.5, 9, True),),
        trajectory=(make_pose(1.0, 2.0, 30.0), make_pose(2.0, 2.0, 0.0)),
        termination=STOPPED,
    )
    again = EpisodeResult.from_dict(json.loads(json.dumps(res.to_dict())))
    assert again.episode_id == res.episode_id
    assert again.goal_results == res.goal_results
    assert again.termination == res.termination
    assert len(again.trajectory) == 2
    assert again.trajectory[0].x == pytest.approx(1.0)
    assert again.trajectory[0].heading == pytest.approx(math.radians(30.0))
    with pytest.raises(SchemaViolation):
        EpisodeResult.from_dict({"episode_id": "x"})


# -- episode spec files -----------------------------------------------------------


def test_load_episode_specs(tmp_path):
    world = chair_world()
    wpath = tmp_path / "world.json"
    world.save(wpath)
    payload = {
        "episodes": [
            {
                "id": "alpha",
                "world": "world.json",
                "start": {"x": 2.0, "y": 4.0, "heading_deg": 90.0},
                "goals": [{"kind": "name", "category": "chair"}],
                "constraints": ["avoid the rug"],
                "max_steps": 50,
            },
            {
                "world": "world.json",
                "goals": [{"kind": "instance", "attributes": ["red"]}],
            },
            {
                "id": "generated",
                "worldgen": {"rooms": 2, "categories": ["chair"], "seed": 5},
                "goals": [{"kind": "name", "category": "chair"}],
            },
        ]
    }
    path = tmp_path / "episodes.json"
    path.write_text(json.dumps(payload))
    cfg = RunConfig(seed=100)
    specs = load_episode_specs(str(path), cfg)
    assert [s.episode_id for s in specs] == ["alpha", "ep0001", "generated"]
    assert specs[0].start.heading == pytest.approx(math.pi / 2)
    assert specs[0].constraints == ("avoid the rug",)
    assert specs[0].max_steps == 50
    assert specs[0].seed == 100 and specs[1].seed == 101
    # the same world file is loaded once and shared
    assert specs[0].world is specs[1].world
    assert specs[2].world.objects  # generated world carries chairs


def test_load_episode_specs_rejects_bad_files(tmp_path):
    cfg = RunConfig()
    bad = tmp_path / "bad.json"

    bad.write_text("{...")
    with pytest.raises(SchemaViolation):
        load_episode_specs(str(bad), cfg)

    bad.write_text(json.dumps({"episodes": []}))
    with pytest.raises(SchemaViolation):
        load_episode_specs(str(bad), cfg)

    bad.write_text(json.dumps({"episodes": [{"goals": []}]}))
    with pytest.raises(SchemaViolation):
        load_episode_specs(str(bad), cfg)

    bad.write_text(json.dumps({"episodes": [
        {"worldgen": {"rooms": 1}, "goals": [{"kind": "telepathy"}]}]}))
    with pytest.raises(SchemaViolation):
        load_episode_specs(str(bad), cfg)

def write_spec(directory, payload) -> str:
    path = directory / "episodes.json"
    path.write_text(json.dumps(payload))
    return str(path)


def one_episode(**fields) -> dict:
    episode = {"id": "a", "world": "world.json", "goals": [{"kind": "name", "category": "chair"}]}
    episode.update(fields)
    return {"episodes": [episode]}


BAD_RECORDS = {
    "episodes-not-a-list": {"episodes": 5},
    "episode-not-an-object": {"episodes": ["x"]},
    "start-nan": one_episode(start={"x": math.nan, "y": 4.0}),
    "start-huge-int": one_episode(start={"x": 5.0, "y": 10 ** 400}),
    "max-steps-string": one_episode(max_steps="5"),
    "max-steps-negative": one_episode(max_steps=-3),
    "max-steps-zero": one_episode(max_steps=0),
    "max-distance-negative": one_episode(max_distance_m=-1.0),
    "constraints-string": one_episode(constraints="avoid"),
    "id-with-separator": one_episode(id="../a"),
    "id-repeated": {"episodes": one_episode()["episodes"] * 2},
    "seed-string": one_episode(seed="7"),
    "world-file-absent": one_episode(world="absent.json"),
    "world-and-worldgen": one_episode(worldgen={"rooms": 2}),
    "goal-category-list": one_episode(goals=[{"kind": "name", "category": ["chair"]}]),
    "goal-attributes-string": one_episode(goals=[{"kind": "instance", "attributes": "red"}]),
    "goal-not-an-object": one_episode(goals=["chair"]),
    "worldgen-not-an-object": {"episodes": [{"worldgen": [["rooms", 2]],
                                             "goals": [{"kind": "name", "category": "chair"}]}]},
    **{f"worldgen-{name}": {"episodes": [{"worldgen": worldgen,
                                         "goals": [{"kind": "name", "category": "chair"}]}]}
       for name, worldgen in BAD_WORLDGEN.items()},
    "worldgen-more-objects-than-cells": {"episodes": [{
        "worldgen": {"objects_per_category": 2_000_000, "max_attempts": 1},
        "goals": [{"kind": "name", "category": "chair"}]}]},
    "worldgen-impossible": {"episodes": [{
        "worldgen": {"width_m": 4.0, "height_m": 4.0, "objects_per_category": 40,
                     "max_attempts": 2},
        "goals": [{"kind": "name", "category": "chair"}]}]},
}


@pytest.mark.parametrize("payload", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_load_episode_specs_rejects_bad_records(tmp_path, payload):
    chair_world().save(tmp_path / "world.json")
    with pytest.raises(SchemaViolation):
        load_episode_specs(write_spec(tmp_path, payload), RunConfig())


@pytest.mark.parametrize("d", [
    "chair", None, {"kind": 5}, {"kind": "name"}, {"kind": "name", "category": ["chair"]},
    {"kind": "instance", "attributes": "red"}, {"kind": "description", "category": "table"},
    {"kind": "name", "category": "chair", "text": None},
    # keys older versions read: hints the text never carried, and free text
    {"kind": "description", "category": "chair", "attributes": ["red"],
     "relation_hints": ["near the door"]},
    {"kind": "name", "category": "chair", "text": "the red chair"},
], ids=repr)
def test_goal_from_dict_raises_only_schema_violation(d):
    with pytest.raises(SchemaViolation):
        GoalSpec.from_dict(d)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("specs")
    chair_world().save(directory / "world.json")
    return directory


VALID_SPEC = one_episode(
    seed=3, start={"x": 5.0, "y": 4.0, "heading_deg": 90.0},
    goals=[{"kind": "description", "category": "chair", "attributes": ["red"]}],
    constraints=["avoid the rug"], max_steps=5, max_distance_m=20.0)
# paths into VALID_SPEC; a list index is replaced, never removed
SPEC_PATHS = [
    ("episodes",), ("episodes", 0), ("episodes", 0, "id"), ("episodes", 0, "seed"),
    ("episodes", 0, "world"), ("episodes", 0, "start"),
    ("episodes", 0, "start", "x"), ("episodes", 0, "start", "heading_deg"),
    ("episodes", 0, "goals"), ("episodes", 0, "goals", 0),
    ("episodes", 0, "goals", 0, "kind"), ("episodes", 0, "goals", 0, "category"),
    ("episodes", 0, "goals", 0, "attributes"), ("episodes", 0, "constraints"),
    ("episodes", 0, "max_steps"), ("episodes", 0, "max_distance_m"),
]
GENERATED_SPEC = {"episodes": [{"worldgen": {"rooms": 1, "categories": ["chair"], "seed": 2},
                                "goals": [{"kind": "name", "category": "chair"}]}]}
FIELDS = ([(VALID_SPEC, path) for path in SPEC_PATHS]
          + [(GENERATED_SPEC, ("episodes", 0, "worldgen")),
             (GENERATED_SPEC, ("episodes", 0, "worldgen", "seed"))])


def loads_or_violates(directory, payload):
    try:
        specs = load_episode_specs(write_spec(directory, payload), RunConfig())
    except SchemaViolation:
        return
    for spec in specs:
        assert spec.max_steps is None or spec.max_steps >= 1
        assert all(isinstance(c, str) for c in spec.constraints)
        assert spec.start is None or all(map(math.isfinite, (spec.start.x, spec.start.y)))


@settings(max_examples=100, deadline=None)
@given(payload=json_values)
def test_load_episode_specs_raises_only_schema_violation(spec_dir, payload):
    loads_or_violates(spec_dir, payload)


@pytest.mark.parametrize("valid, path", FIELDS, ids=[dotted(path) for _, path in FIELDS])
@settings(max_examples=30, deadline=None)
@given(value=replacements)
def test_load_episode_specs_field_raises_only_schema_violation(spec_dir, valid, path, value):
    if isinstance(path[-1], int) and value is MISSING:
        return
    loads_or_violates(spec_dir, replaced(valid, path, value))
