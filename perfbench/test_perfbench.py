"""Quick tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs to its end at a tiny size, and each output check rejects a
hand-corrupted result.
"""
import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER.items())
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_runs_to_its_end(workload, trace, monkeypatch, capsys):
    # two episodes instead of the workload's full set, so that the test is quick
    monkeypatch.setattr(run.inputs, "OBJECTNAV_SEEDS", run.inputs.OBJECTNAV_SEEDS[:2])
    monkeypatch.setattr(run.inputs, "MULTIGOAL_SEEDS", run.inputs.MULTIGOAL_SEEDS[:2])
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    stdout, stderr = capsys.readouterr()
    assert code == 0, stderr
    out = json.loads(stdout.splitlines()[-1])
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] > 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(out["metrics"]) == set(names)
    for name, m in out["metrics"].items():
        assert m["unit"] == names[name]
        assert isinstance(m["value"], (int, float))


def test_fails_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "objectnav", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_cancels_host_speed():
    times, cals = [[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]], [[0.01, 0.01], [0.02, 0.005], [0.01, 0.02]]
    slower = calib.at_reference(np.multiply(times, 1.7), np.multiply(cals, 1.7))
    assert np.allclose(slower, calib.at_reference(times, cals))
    assert np.allclose(calib.at_reference(times, cals), [15.0 * calib.REF_S, 20.0 * calib.REF_S])
    assert np.allclose(calib.around([1.0, 3.0, 5.0]), [2.0, 4.0])


@pytest.fixture(scope="module")
def episode():
    """One objectnav episode: plain world, goals, result record, step poses."""
    cfg = run.run_config()
    specs = [run.inputs.objectnav_episode(0)]
    p = run.run_pass(specs, run.oracle_backend(cfg), cfg, calib.Kernel(), keep_lines=True)
    poses = [(rec["pose"]["x"], rec["pose"]["y"]) for rec in map(json.loads, p.logs[0].lines)]
    goals = [g.to_dict() for g in specs[0].goals]
    return (run.plain_world(specs[0].world), goals, p.dicts()[0], poses,
            cfg.success_threshold_m, cfg.agent_radius)


def test_untouched_episode_passes(episode):
    world, goals, result, poses, threshold, radius = episode
    assert result["goals"][0]["success"]
    assert checks.check_episode(*episode) == []


def test_moved_final_pose_fails(episode):
    world, goals, result, poses, threshold, radius = episode
    moved = poses[:-1] + [(poses[-1][0] + 1.0, poses[-1][1])]
    problems = checks.check_episode(world, goals, result, moved, threshold, radius)
    assert any("final pose" in p for p in problems)


def test_changed_shortest_fails(episode):
    world, goals, result, poses, threshold, radius = episode
    bad = copy.deepcopy(result)
    bad["goals"][0]["shortest"] += 0.1
    problems = checks.check_episode(world, goals, bad, poses, threshold, radius)
    assert any("Dijkstra" in p for p in problems)


def test_pose_in_wall_fails(episode):
    world, goals, result, poses, threshold, radius = episode
    bad = copy.deepcopy(result)
    iy, ix = np.argwhere(world.obstacle)[0]
    bad["trajectory"][1][:2] = [(ix + 0.5) * world.resolution, (iy + 0.5) * world.resolution]
    problems = checks.check_episode(world, goals, bad, poses, threshold, radius)
    assert any("nearest surface" in p for p in problems)


def test_changed_path_length_fails(episode):
    world, goals, result, poses, threshold, radius = episode
    bad = copy.deepcopy(result)
    bad["goals"][0]["path_length"] += 1e-6
    problems = checks.check_episode(world, goals, bad, poses, threshold, radius)
    assert any("path lengths" in p for p in problems)


def test_changed_spl_fails(episode):
    result = episode[2]
    assert checks.check_spl([result], checks.spl([result])) == []
    assert checks.check_spl([result], checks.spl([result]) + 1e-6) != []


def test_different_remote_result_fails(episode):
    result = episode[2]
    bad = copy.deepcopy(result)
    bad["trajectory"][-1][2] += 1e-12
    assert checks.check_same("remote", [result], [result]) == []
    assert checks.check_same("remote", [bad], [result]) != []


def test_failed_check_prints_no_metrics(monkeypatch, capsys):
    monkeypatch.setattr(run.inputs, "OBJECTNAV_SEEDS", run.inputs.OBJECTNAV_SEEDS[:2])
    monkeypatch.setattr(run.checks, "check_same", lambda label, got, want: [f"{label} differs"])
    code = run.main(["--workload", "objectnav", "--seed", "3", "--seconds", "15",
                     "--trace", "0"])
    stdout, stderr = capsys.readouterr()
    assert code == 1 and "pass 1 differs" in stderr
    out = json.loads(stdout.splitlines()[-1])
    assert out["correct"] is False and out["metrics"] == {}
