"""End-to-end command line checks: every subcommand plus exit-code mapping."""
import _thread
import argparse
import dataclasses
import json
import signal
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import dynav.cli
from dynav.backends import BackendConfig, RemoteBackend
from dynav.backends.oracle import OracleBackend
from dynav.backends.protocol import make_score_request, request_context
from dynav.backends.server import DecisionServer
from dynav.cli import build_parser, main
from dynav.config import RunConfig
from dynav.errors import ConfigError
from dynav.geometry import AgentBody
from dynav.goals import GoalSpec
from dynav.memory import MemoryGraph, load_graph, merge, save_graph
from dynav.proposer import Candidate, CandidateSet
from dynav.sensing import sense
from dynav.world import OBSTACLE, WorldMap, SemanticObject

from conftest import BAD_WORLDGEN, empty_world, make_pose

ROOT = Path(__file__).resolve().parent.parent
# the environment of a child ``python -m dynav``
CHILD_ENV = {"PYTHONPATH": str(ROOT / "src"), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"}


def test_package_runs_as_a_module(tmp_path):
    """``python -m dynav`` is the ``dynav`` command."""
    out = subprocess.run(
        [sys.executable, "-m", "dynav", "--help"], cwd=tmp_path, env=CHILD_ENV,
        capture_output=True, text=True, check=True).stdout
    assert out.startswith("usage: dynav ")
    assert all(cmd in out for cmd in ("run", "worldgen", "memory", "serve", "eval"))


@pytest.fixture()
def sigint_handled():
    """Ctrl-C raises KeyboardInterrupt, here and in a child started here,
    even when the suite runs as a background job, which ignores SIGINT."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


def test_serve_answers_with_the_oracle_until_interrupted(tmp_path, sigint_handled):
    chair = SemanticObject(name="chair_1", category="chair", center=(8.0, 4.0), radius=0.3)
    obs = sense(empty_world(10.0, 8.0, objects=[chair]), make_pose(5.0, 4.0), AgentBody(),
                n_rays=31)
    req = make_score_request(
        request_context(obs, session_id="serve", goal=GoalSpec.name_goal("chair")),
        CandidateSet((Candidate(1, 2.0, 0.0), Candidate(2, 2.0, 0.5)), alpha=0.8,
                     theta_delta=0.2))
    with subprocess.Popen([sys.executable, "-m", "dynav", "serve", "--port", "0"],
                          cwd=tmp_path, env=CHILD_ENV, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving the oracle on http://127.0.0.1:")
            endpoint = line.split()[-1]
            with closing(RemoteBackend(BackendConfig(endpoint=endpoint))) as backend:
                reply = backend.decide(req)
            assert reply == OracleBackend.from_config(RunConfig()).decide(req)
            assert reply.scores[1] > reply.scores[2]  # toward the chair
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 130
        finally:
            proc.terminate()
            proc.wait(timeout=10)


@pytest.mark.parametrize("port", [-1, 65536, 70000])
def test_serve_refuses_a_port_outside_0_to_65535_before_binding(capsys, monkeypatch, port):
    import dynav.backends.server

    def bind(*args, **kwargs):
        raise AssertionError("the server was built")

    monkeypatch.setattr(dynav.backends.server, "DecisionServer", bind)
    assert main(["serve", "--port", str(port)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: serve needs a --port in 0-65535, not {port}\n"


@pytest.fixture()
def episode_file(tmp_path):
    chair = SemanticObject(name="chair_1", category="chair", center=(8.0, 4.0),
                           radius=0.3, attributes=("red",))
    world = empty_world(10.0, 8.0, objects=[chair])
    world.save(tmp_path / "world.json")
    payload = {"episodes": [
        {"id": "a", "world": "world.json",
         "start": {"x": 5.0, "y": 4.0, "heading_deg": 0.0},
         "goals": [{"kind": "name", "category": "chair"}], "max_steps": 30},
        {"id": "b", "world": "world.json",
         "start": {"x": 3.0, "y": 6.0, "heading_deg": -45.0},
         "goals": [{"kind": "name", "category": "chair"}], "max_steps": 30},
    ]}
    path = tmp_path / "episodes.json"
    path.write_text(json.dumps(payload))
    return path


def run_dir_files(out):
    return {p.name for p in out.iterdir()}


def test_run_oracle_end_to_end(tmp_path, episode_file, capsys):
    out = tmp_path / "out"
    code = main(["run", "--episodes", str(episode_file), "--out", str(out),
                 "--n-rays", "61"])
    assert code == 0
    names = run_dir_files(out)
    assert {"results.jsonl", "report.json", "report.txt",
            "a.steps.jsonl", "b.steps.jsonl"} <= names
    lines = (out / "results.jsonl").read_text().splitlines()
    assert [json.loads(l)["episode_id"] for l in lines] == ["a", "b"]
    assert all(json.loads(l)["goals"][0]["success"] for l in lines)
    report = json.loads((out / "report.json").read_text())
    assert report["format"] == "dynav-report/1"
    assert report["sr"] == 1.0
    assert "SR" in capsys.readouterr().out


def test_run_workers_parity(tmp_path, episode_file):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["run", "--episodes", str(episode_file), "--out", str(out1),
                 "--n-rays", "61", "--workers", "1"]) == 0
    assert main(["run", "--episodes", str(episode_file), "--out", str(out2),
                 "--n-rays", "61", "--workers", "2"]) == 0
    assert (out1 / "results.jsonl").read_text() == (out2 / "results.jsonl").read_text()
    for name in ("a.steps.jsonl", "b.steps.jsonl"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_run_no_memory_flag(tmp_path, episode_file):
    out = tmp_path / "out"
    assert main(["run", "--episodes", str(episode_file), "--out", str(out),
                 "--n-rays", "61", "--no-memory"]) == 0
    steps = [json.loads(l) for l in (out / "a.steps.jsonl").read_text().splitlines()]
    assert steps and all(s["memory_version"] == 0 for s in steps)


def test_run_aborts_give_exit_2(tmp_path, episode_file):
    script = [{"kind": k, "status": 500, "body": {}}
              for k in ("filter", "score", "stop_check")]
    server = DecisionServer(port=0, script=script).start()
    try:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "max_retries": 0, "max_backend_failures": 1, "timeout_ms": 2000,
        }))
        out = tmp_path / "out"
        code = main(["run", "--episodes", str(episode_file), "--out", str(out),
                     "--config", str(cfg_path), "--backend", "remote",
                     "--endpoint", server.endpoint, "--n-rays", "31"])
        assert code == 2
        lines = (out / "results.jsonl").read_text().splitlines()
        assert all(json.loads(l)["termination"] == "aborted" for l in lines)
        assert all("consecutive backend failures" in json.loads(l)["abort_reason"]
                   for l in lines)
    finally:
        server.stop()


def test_run_survives_a_malformed_backend_reply(tmp_path):
    # every episode gets a non-JSON score reply at step 3: each one aborts on
    # its own, and the batch still writes all results and the report
    script = [
        {"kind": "filter", "body": {}},
        {"kind": "score", "scores_all": 0.5},
        {"kind": "score", "step": 3, "raw_body": "not json"},
        {"kind": "stop_check", "body": {"s_stop": 0.0}},
    ]
    spec = ROOT / "specs" / "objectnav_small.json"
    out = tmp_path / "out"
    with DecisionServer(script=script) as stub:
        code = main(["run", "--episodes", str(spec), "--out", str(out),
                     "--backend", "remote", "--endpoint", stub.endpoint])
    assert code == 2
    results = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
    assert [r["episode_id"] for r in results] == [f"objectnav-{i}" for i in range(5)]
    for r in results:
        assert r["termination"] == "aborted"
        assert "not JSON" in r["abort_reason"]
        assert r["goals"][0]["steps"] == 3
    assert {"report.json", "report.txt"} <= run_dir_files(out)


def test_run_survives_a_malformed_memory_op(tmp_path):
    # a score reply at step 3 whose memory op has a one-number location
    script = [
        {"kind": "filter", "body": {}},
        {"kind": "score", "scores_all": 0.5},
        {"kind": "score", "step": 3, "scores_all": 0.5, "body": {"memory_ops": [
            {"op": "add_node", "name": "a", "location_m": [1]}]}},
        {"kind": "stop_check", "body": {"s_stop": 0.0}},
    ]
    spec = ROOT / "specs" / "objectnav_small.json"
    out = tmp_path / "out"
    with DecisionServer(script=script) as stub:
        code = main(["run", "--episodes", str(spec), "--out", str(out),
                     "--backend", "remote", "--endpoint", stub.endpoint])
    assert code == 2
    results = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
    assert len(results) == 5
    for r in results:
        assert r["termination"] == "aborted"
        assert "location_m" in r["abort_reason"]
        assert r["goals"][0]["steps"] == 3


def test_run_survives_an_episode_that_raises(tmp_path, episode_file, monkeypatch):
    # a fault of any type in one episode aborts that episode alone; the
    # others finish exactly as in a clean run
    payload = json.loads(episode_file.read_text())
    payload["episodes"].append(dict(payload["episodes"][0], id="c",
                                    start={"x": 2.0, "y": 2.0, "heading_deg": 90.0}))
    episode_file.write_text(json.dumps(payload))
    argv = ["run", "--episodes", str(episode_file), "--n-rays", "61"]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
    clean = (tmp_path / "clean" / "results.jsonl").read_text().splitlines()

    original = OracleBackend.decide

    def faulty(self, req):
        if req.context.session_id == "b" and req.context.step >= 2:
            raise RuntimeError("sensor cable unplugged")
        return original(self, req)

    monkeypatch.setattr(OracleBackend, "decide", faulty)
    out = tmp_path / "faulty"
    assert main(argv + ["--out", str(out)]) == 2
    lines = (out / "results.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert [lines[0], lines[2]] == [clean[0], clean[2]]
    b = json.loads(lines[1])
    assert b["episode_id"] == "b" and b["termination"] == "aborted"
    assert "RuntimeError" in b["abort_reason"] and b["goals"][0]["steps"] == 2
    for name in ("a.steps.jsonl", "c.steps.jsonl"):
        assert (out / name).read_text() == (tmp_path / "clean" / name).read_text()


def test_run_aborts_only_the_episode_whose_goal_matches_no_object(tmp_path, episode_file):
    # the world holds only chair_1: episode b's sofa cannot be resolved
    argv = ["run", "--episodes", str(episode_file), "--n-rays", "61"]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
    payload = json.loads(episode_file.read_text())
    payload["episodes"][1]["goals"] = [{"kind": "name", "category": "sofa"}]
    episode_file.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    lines = (out / "results.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == (tmp_path / "clean" / "results.jsonl").read_text().splitlines()[0]
    b = json.loads(lines[1])
    assert b["episode_id"] == "b" and b["termination"] == "aborted"
    assert b["abort_reason"] == "no object matches goal 'sofa'" and b["goals"] == []
    assert (out / "b.steps.jsonl").read_text() == ""
    assert (out / "a.steps.jsonl").read_text() == (tmp_path / "clean" / "a.steps.jsonl").read_text()
    assert (out / "report.json").exists()


def test_run_aborts_only_the_episode_whose_world_has_no_start_pose(tmp_path, episode_file):
    # episode b gives no start, and its world's only free cells form a 0.2 m
    # pocket, too small for the agent's body
    argv = ["run", "--episodes", str(episode_file), "--n-rays", "61"]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
    grid = np.full((20, 20), OBSTACLE, dtype=np.uint8)
    grid[9:11, 9:11] = 0
    WorldMap(grid, 0.1).save(tmp_path / "pocket.json")
    payload = json.loads(episode_file.read_text())
    payload["episodes"][1]["world"] = "pocket.json"
    del payload["episodes"][1]["start"]
    episode_file.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    lines = (out / "results.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == (tmp_path / "clean" / "results.jsonl").read_text().splitlines()[0]
    b = json.loads(lines[1])
    assert b["episode_id"] == "b" and b["termination"] == "aborted"
    assert "no free pose" in b["abort_reason"]
    assert b["goals"] == [] and b["trajectory"] == []
    assert (out / "report.json").exists()


def test_every_run_flag_reaches_the_config(tmp_path, monkeypatch):
    # a flag the parser takes but cmd_run dropped would run with the default
    run = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["run"]
    flags = [a for a in run._actions
             if a.dest not in ("help", "episodes", "out", "config", "no_memory")]
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert [a.dest for a in flags if a.dest not in fields] == []
    values = {"backend": "remote", "endpoint": "http://127.0.0.1:1/decide"}
    values.update((a.dest, {int: 3, float: 0.5}[a.type]) for a in flags if a.dest not in values)
    assert all(values[k] != getattr(RunConfig(), k) for k in values)

    seen = []

    def load_episode_specs(path, cfg):
        seen.append(cfg)
        raise ConfigError("stop before running")

    monkeypatch.setattr(dynav.cli, "load_episode_specs", load_episode_specs)
    argv = ["run", "--episodes", "e.json", "--out", str(tmp_path), "--no-memory"]
    for a in flags:
        argv += [a.option_strings[0], str(values[a.dest])]
    assert main(argv) == 1
    assert {k: getattr(seen[0], k) for k in values} == values
    assert seen[0].memory_enabled is False


@pytest.mark.parametrize("workers", [1, 2])
def test_run_closes_each_episode_backend(tmp_path, episode_file, monkeypatch, workers):
    closed = []
    original = RemoteBackend.close
    monkeypatch.setattr(RemoteBackend, "close",
                        lambda self: (closed.append(self), original(self)))
    script = [{"kind": "filter", "body": {}}, {"kind": "score", "scores_all": 0.5},
              {"kind": "stop_check", "body": {"s_stop": 0.0}}]
    with DecisionServer(script=script) as stub:
        assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out"),
                     "--backend", "remote", "--endpoint", stub.endpoint, "--n-rays", "31",
                     "--max-steps", "5", "--workers", str(workers)]) == 0
    assert len(closed) == len(set(map(id, closed))) == 2


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_interrupt_starts_no_queued_episode(tmp_path, monkeypatch, capsys, sigint_handled,
                                               workers):
    # Ctrl-C once every worker runs an episode: those running finish, and
    # none of the queued ones starts
    started, lock = [], threading.Lock()

    def run_episode(spec, backend, cfg, step_log=None):
        with lock:
            started.append(spec.episode_id)
            last = len(started) == workers
        if last:
            _thread.interrupt_main()
        time.sleep(0.2)

    monkeypatch.setattr(dynav.cli, "run_episode", run_episode)
    assert main(["run", "--episodes", str(ROOT / "specs" / "objectnav_small.json"),
                 "--out", str(tmp_path / "out"), "--workers", str(workers)]) == 130
    assert len(started) == workers
    assert "interrupted" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.jsonl").exists()


def test_run_rejects_a_non_http_endpoint(tmp_path, episode_file, capsys):
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out"),
                 "--backend", "remote", "--endpoint", "ftp://127.0.0.1/decide"]) == 1
    assert "http://" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("timeout_ms", [10 ** 13, 10 ** 400], ids=["past-time_t", "past-float"])
def test_run_refuses_a_timeout_past_the_sockets_limit(tmp_path, episode_file, capsys, timeout_ms):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": "remote", "endpoint": "http://127.0.0.1:9/decide",
                               "timeout_ms": timeout_ms}))
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: timeout_ms must lie in (0, ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_run_missing_episode_file(tmp_path):
    assert main(["run", "--episodes", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 1


def test_run_bad_config_file(tmp_path, episode_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"alpha": 0.5,')
    assert main(["run", "--episodes", str(episode_file),
                 "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps({"warp_drive": True}))
    assert main(["run", "--episodes", str(episode_file),
                 "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 1


@pytest.mark.parametrize("flags, config", [
    (["--d-max", "nan"], {}),
    (["--fov-deg=0"], {}),
    (["--fov-deg=-30"], {}),
    ([], {"fov_deg": 360}),
    ([], {"memory_hops": -1}),
    ([], {"memory_budget": -4}),
    ([], {"n_rays": 2.5}),
    ([], {"memory_enabled": "false"}),
])
def test_run_rejects_bad_config_values_before_running(tmp_path, episode_file, flags, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)] + flags) == 1
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_bad_episode_record_before_running(tmp_path, episode_file, capsys):
    payload = json.loads(episode_file.read_text())
    payload["episodes"][1]["max_steps"] = -3
    episode_file.write_text(json.dumps(payload))
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out")]) == 1
    assert "max_steps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("x", [1e308, -0.05, 10.0])
def test_run_refuses_a_start_outside_the_world(tmp_path, episode_file, capsys, x):
    payload = json.loads(episode_file.read_text())
    payload["episodes"][1]["start"]["x"] = x
    episode_file.write_text(json.dumps(payload))
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out")]) == 1
    assert "start must lie inside the world" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_takes_a_success_threshold_past_any_box(tmp_path, episode_file):
    # the goal box is the whole grid: every free cell is in the goal region
    out = tmp_path / "out"
    assert main(["run", "--episodes", str(episode_file), "--out", str(out),
                 "--success-threshold-m", "1e308"]) == 0
    results = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
    assert [r["goals"][0]["shortest"] for r in results] == [0.0, 0.0]


def test_run_takes_an_object_past_any_box(tmp_path, episode_file):
    # a disc of radius 1e308 blocks the whole grid of its world: the episode
    # there has no reachable goal, and the other episode runs as before
    world = json.loads((tmp_path / "world.json").read_text())
    world["objects"][0]["radius"] = 1e308
    (tmp_path / "huge.json").write_text(json.dumps(world))
    payload = json.loads(episode_file.read_text())
    payload["episodes"][1]["world"] = "huge.json"
    episode_file.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["run", "--episodes", str(episode_file), "--out", str(out)]) == 0
    a, b = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
    assert a["goals"][0]["success"] and a["goals"][0]["shortest"] > 0.0
    assert b["goals"][0]["unreachable"] and b["termination"] == "stopped"

@pytest.mark.parametrize("key, value", [("relation_hints", ["near the door"]),
                                        ("text", "the red chair")])
def test_run_refuses_a_goal_key_it_does_not_read(tmp_path, episode_file, capsys, key, value):
    # a goal's text is always rendered from its kind, category and attributes
    payload = json.loads(episode_file.read_text())
    payload["episodes"][1]["goals"][0][key] = value
    episode_file.write_text(json.dumps(payload))
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out")]) == 1
    assert f"unknown goal keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_object_name_a_ray_cannot_carry(tmp_path, episode_file, capsys):
    world = json.loads((tmp_path / "world.json").read_text())
    world["objects"][0]["name"] = "wall"  # a ray could not tell it from a wall
    (tmp_path / "world.json").write_text(json.dumps(world))
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out")]) == 1
    assert '"wall" is reserved' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_empty_object_attribute(tmp_path, episode_file, capsys):
    world = json.loads((tmp_path / "world.json").read_text())
    world["objects"][0]["attributes"] = ["red", ""]
    (tmp_path / "world.json").write_text(json.dumps(world))
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out")]) == 1
    assert "attributes must be non-empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, attribute", [
    ("a. b", "red"), ("tv.", "red"), ("tv (old)", "red"), ("c", "red, tall"), ("c", "x)")],
    ids=repr)
def test_run_carries_any_other_object_name_and_attribute(tmp_path, episode_file, name,
                                                         attribute):
    # the memory text once misread each of these; the records carry them whole
    world = json.loads((tmp_path / "world.json").read_text())
    world["objects"][0].update(name=name, attributes=[attribute])
    (tmp_path / "world.json").write_text(json.dumps(world))
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "results.jsonl").exists()


def test_worldgen_writes_loadable_world(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["worldgen", "--out", str(out), "--seed", "3"]) == 0
    assert "wrote" in capsys.readouterr().out
    world = WorldMap.load(out)
    assert world.objects


def test_worldgen_spec_file_and_seed_precedence(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rooms": 2, "categories": ["chair"], "seed": 9}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["worldgen", "--spec", str(spec), "--out", str(a)]) == 0
    assert main(["worldgen", "--spec", str(spec), "--out", str(b), "--seed", "9"]) == 0
    assert a.read_text() == b.read_text()  # flag seed 9 == file seed 9
    c = tmp_path / "c.json"
    assert main(["worldgen", "--spec", str(spec), "--out", str(c), "--seed", "10"]) == 0
    assert a.read_text() != c.read_text()
    cats = {o.category for o in WorldMap.load(a).objects}
    assert cats == {"chair"}


HUGE_GRID = {"width_m": 1e7, "height_m": 1e7, "resolution": 0.1}  # 10**16 cells


@pytest.mark.parametrize("payload", [*BAD_WORLDGEN.values(), {"seed": "9"}],
                         ids=[*BAD_WORLDGEN, "seed-string"])
def test_worldgen_bad_spec_exits_1(tmp_path, capsys, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    assert main(["worldgen", "--spec", str(spec), "--out", str(tmp_path / "w.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("payload, name", [({"categories": ["a. b"]}, "a. b_1"),
                                           ({"hazards": ["tv."]}, "tv._1")])
def test_worldgen_names_objects_after_any_category(tmp_path, payload, name):
    # the memory text once misread such names; the records carry them whole
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    assert main(["worldgen", "--spec", str(spec), "--out", str(tmp_path / "w.json")]) == 0
    assert name in {o.name for o in WorldMap.load(tmp_path / "w.json").objects}


def test_run_refuses_a_grid_over_the_cell_limit(tmp_path, capsys):
    episodes = tmp_path / "episodes.json"
    episodes.write_text(json.dumps({"episodes": [
        {"worldgen": HUGE_GRID, "goals": [{"kind": "name", "category": "chair"}]}]}))
    assert main(["run", "--episodes", str(episodes), "--out", str(tmp_path / "out")]) == 1
    assert "exceeds the limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_worldgen_impossible_spec_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width_m": 4.0, "height_m": 4.0, "objects_per_category": 40}))
    assert main(["worldgen", "--spec", str(spec), "--out", str(tmp_path / "w.json")]) == 2


def graph_pair(tmp_path):
    a, b = MemoryGraph(), MemoryGraph()
    a.add_node("lamp_1", ["tall"], (1.0, 2.0), step=1)
    b.add_node("sofa_1", ["green"], (3.0, 4.0), step=2)
    b.add_node("lamp_1", [], (1.0, 2.0), step=2)
    b.add_edge("lamp_1", "sofa_1", "near")
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(a, pa)
    save_graph(b, pb)
    return a, b, pa, pb


def test_memory_export_merge_show(tmp_path, capsys):
    a, b, pa, pb = graph_pair(tmp_path)
    out = tmp_path / "m.json"
    assert main(["memory", "merge", str(pa), str(pb), "--out", str(out)]) == 0
    assert load_graph(out).to_dict() == merge(a, b).to_dict()

    exported = tmp_path / "e.json"
    assert main(["memory", "export", str(pb), "--out", str(exported)]) == 0
    assert load_graph(exported).to_dict() == b.to_dict()

    assert main(["memory", "show", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "lamp_1" in shown and "nodes: 2" in shown


def test_memory_show_budget(tmp_path, capsys):
    one, empty = MemoryGraph(), MemoryGraph()
    one.add_node("lamp_1", ["tall"], (1.0, 2.0), step=1)
    paths = {"one": tmp_path / "one.json", "empty": tmp_path / "empty.json"}
    save_graph(one, paths["one"])
    save_graph(empty, paths["empty"])

    def show(name, budget):
        code = main(["memory", "show", str(paths[name]), "--budget", str(budget)])
        return code, capsys.readouterr()

    assert show("one", 1)[1].out == "lamp_1 (tall) at (1.0, 2.0).\nnodes: 1, edges: 0, version: 1\n"
    assert show("one", 0)[1].out == "\nnodes: 1, edges: 0, version: 1\n"
    assert show("empty", 0)[1].out == "(empty graph)\nnodes: 0, edges: 0, version: 0\n"
    code, captured = show("one", -1)
    assert code == 1 and captured.out == ""
    assert captured.err == "error: memory show needs a --budget of at least 0, not -1\n"


def test_memory_merge_needs_two_inputs(tmp_path):
    _, _, pa, _ = graph_pair(tmp_path)
    assert main(["memory", "merge", str(pa), "--out", str(tmp_path / "m.json")]) == 1


@pytest.mark.parametrize("argv", [["export", "{a}", "{b}", "--out", "{out}"],
                                  ["show", "{a}", "{missing}"]])
def test_memory_export_and_show_take_one_input(tmp_path, capsys, argv):
    _, _, pa, pb = graph_pair(tmp_path)
    out = tmp_path / "c.json"
    paths = dict(a=pa, b=pb, out=out, missing=tmp_path / "missing.json")
    assert main(["memory"] + [arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: memory {argv[0]} takes one input file, not 2\n"


@pytest.mark.parametrize("action", ["export", "merge"])
def test_memory_write_needs_out(tmp_path, capsys, action):
    _, _, pa, pb = graph_pair(tmp_path)
    assert main(["memory", action, str(pa), str(pb)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: memory {action} needs --out\n"


def test_eval_recomputes_report(tmp_path, episode_file, capsys):
    out = tmp_path / "out"
    main(["run", "--episodes", str(episode_file), "--out", str(out), "--n-rays", "61"])
    first = capsys.readouterr().out
    ev_out = tmp_path / "ev"
    assert main(["eval", "--results", str(out / "results.jsonl"),
                 "--out", str(ev_out)]) == 0
    assert capsys.readouterr().out == first
    assert json.loads((ev_out / "report.json").read_text()) == \
        json.loads((out / "report.json").read_text())


def test_eval_missing_results_exits_1(tmp_path):
    assert main(["eval", "--results", str(tmp_path / "nope.jsonl")]) == 1


@pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_eval_refuses_a_results_file_without_a_record(tmp_path, capsys, content):
    results = tmp_path / "results.jsonl"
    results.write_text(content)
    assert main(["eval", "--results", str(results), "--out", str(tmp_path / "ev")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {results}: no episode result records\n"
    assert not (tmp_path / "ev").exists()

# -- every command that reads a file exits 1 on one it cannot use ----------------------

READERS = {
    "run --episodes": ["run", "--episodes", "{bad}", "--out", "{out}"],
    "run --config": ["run", "--episodes", "{episodes}", "--config", "{bad}", "--out", "{out}"],
    "worldgen --spec": ["worldgen", "--spec", "{bad}", "--out", "{out}"],
    "memory show": ["memory", "show", "{bad}"],
    "memory merge": ["memory", "merge", "{good}", "{bad}", "--out", "{out}"],
    "memory export": ["memory", "export", "{bad}", "--out", "{out}"],
    "eval --results": ["eval", "--results", "{bad}"],
    "serve --script": ["serve", "--port", "0", "--script", "{bad}"],
}
UNUSABLE = {
    "nested": b"[" * 100_000,
    "latin-1": '{"name": "café"}'.encode("latin-1"),
    "long-integer": b"1" * 5000,
    "wrong-type": b'"text"',
}


@pytest.mark.parametrize("content", UNUSABLE.values(), ids=UNUSABLE.keys())
@pytest.mark.parametrize("argv", READERS.values(), ids=READERS.keys())
def test_unusable_file_exits_1(tmp_path, episode_file, capsys, argv, content):
    _, _, good, _ = graph_pair(tmp_path)
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_bytes(content)
    assert main([a.format(bad=bad, good=good, episodes=episode_file, out=out)
                 for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, content", [
    (READERS["memory show"], {"format": "dynav-graph/1", "nodes": [5]}),
    (READERS["memory show"], {"format": "dynav-graph/1",
                              "nodes": [{"name": "a", "attributes": "red"}]}),
    (READERS["serve --script"], [{"kind": "score"}, 5]),
], ids=["graph-node-not-an-object", "graph-attributes-string", "script-entry-not-an-object"])
def test_mistyped_record_exits_1(tmp_path, capsys, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    assert main([a.format(bad=bad) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_refuses_negative_lengths(tmp_path, capsys):
    # these two goals once gave an SPL of 0.2, one term being -0.6
    goal = {"goal_text": "chair", "category": "chair", "success": True, "path_length": 2.0,
            "shortest": 1.0, "steps": 3, "stopped": True, "unreachable": False}
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps({
        "episode_id": "e", "termination": "stopped", "trajectory": [],
        "goals": [dict(goal, shortest=-3.0, path_length=-2.0), goal]}) + "\n")
    assert main(["eval", "--results", str(results), "--out", str(tmp_path / "ev")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: path_length must not be")
    assert not (tmp_path / "ev").exists()


def test_eval_refuses_a_success_that_is_not_a_boolean(tmp_path, episode_file, capsys):
    out = tmp_path / "out"
    main(["run", "--episodes", str(episode_file), "--out", str(out), "--n-rays", "61"])
    results = out / "results.jsonl"
    results.write_text(results.read_text().replace('"success": true', '"success": "false"'))
    capsys.readouterr()
    assert main(["eval", "--results", str(results)]) == 1
    assert "success" in capsys.readouterr().err
