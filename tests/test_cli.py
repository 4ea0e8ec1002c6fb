"""End-to-end command line checks: every subcommand plus exit-code mapping."""
import json
from pathlib import Path

import pytest

from dynav.backends import RemoteBackend
from dynav.backends.stub import StubServer
from dynav.cli import main
from dynav.memory import MemoryGraph, load_graph, merge, save_graph
from dynav.world import WorldMap, SemanticObject, empty_world


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
              for k in ("filter", "score", "stop_check", "memory_extract")]
    server = StubServer(port=0, script=script).start()
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
    spec = Path(__file__).resolve().parent.parent / "specs" / "objectnav_small.json"
    out = tmp_path / "out"
    with StubServer(script=script) as stub:
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
    spec = Path(__file__).resolve().parent.parent / "specs" / "objectnav_small.json"
    out = tmp_path / "out"
    with StubServer(script=script) as stub:
        code = main(["run", "--episodes", str(spec), "--out", str(out),
                     "--backend", "remote", "--endpoint", stub.endpoint])
    assert code == 2
    results = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
    assert len(results) == 5
    for r in results:
        assert r["termination"] == "aborted"
        assert "location_m" in r["abort_reason"]
        assert r["goals"][0]["steps"] == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_run_closes_each_episode_backend(tmp_path, episode_file, monkeypatch, workers):
    closed = []
    original = RemoteBackend.close
    monkeypatch.setattr(RemoteBackend, "close",
                        lambda self: (closed.append(self), original(self)))
    script = [{"kind": "filter", "body": {}}, {"kind": "score", "scores_all": 0.5},
              {"kind": "stop_check", "body": {"s_stop": 0.0}}]
    with StubServer(script=script) as stub:
        assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out"),
                     "--backend", "remote", "--endpoint", stub.endpoint, "--n-rays", "31",
                     "--max-steps", "5", "--workers", str(workers)]) == 0
    assert len(closed) == len(set(map(id, closed))) == 2


def test_run_rejects_a_non_http_endpoint(tmp_path, episode_file, capsys):
    assert main(["run", "--episodes", str(episode_file), "--out", str(tmp_path / "out"),
                 "--backend", "remote", "--endpoint", "ftp://127.0.0.1/decide"]) == 1
    assert "http://" in capsys.readouterr().err
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


def test_worldgen_impossible_spec_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width_m": 4.0, "height_m": 4.0,
                                "objects_per_category": 40, "max_attempts": 2}))
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


def test_memory_merge_needs_two_inputs(tmp_path):
    _, _, pa, _ = graph_pair(tmp_path)
    assert main(["memory", "merge", str(pa), "--out", str(tmp_path / "m.json")]) == 1


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