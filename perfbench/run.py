"""dynav benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload objectnav|multigoal|remote \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; dynav is imported from ``src/``.
With ``--trace 0`` the run makes a fixed number of whole passes over the
workload's episodes, set by S (``pass_count``), and reports the end-to-end
metrics, with every time scaled to a reference host speed (``calib.py``); with ``--trace 1`` it makes an untraced pass, a pass on two threads
and a traced pass, and reports per-layer metrics.  Either way it checks the
program's outputs with ``checks.py`` and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``.  Operations are goals.
See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import http.client
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter
from typing import List, Optional, Sequence

import numpy as np

import calib
import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Whole passes per minute of --seconds, for every workload.  The count is
# fixed, not timed, so that every run with the same --seconds does the same
# work and a median over passes means the same in each run.
PASSES_PER_MINUTE = 8
# the remote workload runs the first half of the objectnav set, so that a run
# fits four passes over the wire into its time
REMOTE_EPISODES = 25

END_TO_END = {
    "setup_s": "s", "episodes_per_s": "1/s", "step_ms_p50": "ms",
    "step_ms_p95": "ms", "peak_rss_mb": "MiB", "spl": "1",
}
PER_LAYER = {
    "worldgen.generate_ms_per_world": "ms",
    "cli.import_s": "s",
    "episodes.load_specs_ms": "ms",
    "cli.step_log_kb_per_episode": "KiB",
    "cli.workers_speedup": "x",
    "sensing.sense_ms_per_step": "ms",
    "sensing.sense_calls_per_step": "count",
    "proposer.propose_self_ms_per_step": "ms",
    "proposer.candidates_per_step": "count",
    "proposer.kept_frac": "1",
    "protocol.build_ms_per_step": "ms",
    "protocol.requests_per_step": "count",
    "protocol.request_kb_per_step": "KiB",
    "oracle.filter_ms_per_step": "ms",
    "oracle.score_ms_per_step": "ms",
    "oracle.stop_ms_per_step": "ms",
    "remote.round_trip_ms.filter": "ms",
    "remote.round_trip_ms.score": "ms",
    "remote.round_trip_ms.stop_check": "ms",
    "remote.server_ms_per_request": "ms",
    "remote.retries": "count",
    "motion.reactive_avoid_ms_per_step": "ms",
    "motion.execute_ms_per_step": "ms",
    "motion.nudged_frac": "1",
    "world.clearance_calls_per_step": "count",
    "world.clearance_ms_per_step": "ms",
    "memory.excerpt_ms_per_step": "ms",
    "memory.excerpt_chars_per_step": "chars",
    "memory.ops_per_step": "count",
    "memory.changed_per_op": "1",
    "planning.shortest_path_ms_per_goal": "ms",
    "policy.step_self_ms_per_step": "ms",
    "policy.select_action_self_ms_per_step": "ms",
    "episodes.run_episode_self_ms_per_step": "ms",
    "trace.overhead_pct": "%",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_config():
    from dynav.config import RunConfig

    return RunConfig(max_distance_m=10000.0)


def oracle_backend(cfg):
    from dynav.backends import OracleBackend

    return OracleBackend(hazard_clearance=cfg.hazard_clearance_m,
                         success_threshold=cfg.success_threshold_m, r_scale=cfg.d_max)


def plain_world(world):
    """The world as plain data for the independent checks."""
    from dynav.world import OBSTACLE

    return checks.World(world.grid == OBSTACLE, world.resolution, tuple(
        checks.Obj(o.name, o.category, o.center[0], o.center[1], o.radius, tuple(o.attributes))
        for o in world.objects))


def step_metrics(stamps, cals) -> dict:
    """Step latency percentiles at reference speed (calib.py).

    ``stamps[r][e]`` holds the step-log write times of episode ``e`` in
    repeat ``r``, and ``cals[r][e]`` the calibration around that episode; a
    step is the interval between consecutive writes.  Every repeat runs the
    same steps, and each step is taken at the median of its repeats.
    """
    steps = np.concatenate([
        calib.at_reference([np.diff(st) for st in per_repeat], [[c] for c in cal])
        for per_repeat, cal in zip(zip(*stamps), zip(*cals))
    ]) * 1000.0
    return {"step_ms_p50": float(np.percentile(steps, 50)),
            "step_ms_p95": float(np.percentile(steps, 95))}


def pass_count(args) -> int:
    return max(1, round(args.seconds * PASSES_PER_MINUTE / 60.0))


def count_goals(results: Sequence[dict]) -> tuple:
    goals = [g for r in results for g in r["goals"]]
    return len(goals), sum(not g["success"] for g in goals)


# -- in-process episodes (objectnav, remote) ---------------------------------------


class StepLog:
    """``step_log`` for ``run_episode`` that timestamps each line it receives."""

    def __init__(self, keep: bool):
        self.stamps: List[float] = []
        self.lines: Optional[List[str]] = [] if keep else None
        self.nbytes = 0

    def write(self, line: str) -> None:
        self.stamps.append(perf_counter())
        self.nbytes += len(line)
        if self.lines is not None:
            self.lines.append(line)


@dataclass
class Pass:
    results: list          # EpisodeResult, in run order
    logs: List[StepLog]
    episode_s: List[float]
    cal_s: List[float]     # the calibration around each episode
    wall_s: float          # episodes only, without the calibration

    def dicts(self) -> List[dict]:
        return [r.to_dict() for r in self.results]


def run_pass(specs, backend, cfg, kernel: calib.Kernel, keep_lines: bool = False) -> Pass:
    """All episodes one after another, as ``dynav run --workers 1`` does, with
    a calibration slice before, between and after them."""
    from dynav import episodes

    logs = [StepLog(keep_lines) for _ in specs]
    results, times, cal = [], [], [kernel.slice()]
    for sp, log in zip(specs, logs):
        t = perf_counter()
        results.append(episodes.run_episode(sp, backend, cfg, step_log=log))
        times.append(perf_counter() - t)
        cal.append(kernel.slice())
    return Pass(results, logs, times, list(calib.around(cal)), sum(times))


def run_pool(specs, make_backend, cfg) -> Pass:
    """All episodes on two threads with a backend each, as ``--workers 2`` does."""
    from dynav import episodes

    backends = []

    def one(sp):
        backends.append(make_backend())
        return episodes.run_episode(sp, backends[-1], cfg, step_log=StepLog(False))

    t0 = perf_counter()
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(one, specs))
    finally:
        for b in backends:
            getattr(b, "close", lambda: None)()
    return Pass(results, [], [], [], perf_counter() - t0)


def check_pass(specs, p: Pass, cfg) -> List[str]:
    """Independent checks on every episode of a pass whose lines were kept."""
    problems = []
    for sp, res, log in zip(specs, p.dicts(), p.logs):
        poses = [(rec["pose"]["x"], rec["pose"]["y"]) for rec in map(json.loads, log.lines)]
        problems += checks.check_episode(plain_world(sp.world), [g.to_dict() for g in sp.goals],
                                         res, poses, cfg.success_threshold_m, cfg.agent_radius)
    return problems


def spl_of(results) -> float:
    from dynav.metrics import compute_metrics

    return compute_metrics(sorted(results, key=lambda r: r.episode_id)).spl


@contextmanager
def decision_server():
    """The remote workload's decision server, in its own process."""
    proc = subprocess.Popen([sys.executable, str(HERE / "server.py")], env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError("decision server did not start")
        yield int(line.split()[1])
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def server_stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def stats_delta(before: dict, after: dict) -> dict:
    return {k: {f: after[k][f] - before[k][f] for f in after[k]} for k in after}


def inprocess(args, remote: bool) -> dict:
    cfg = run_config()
    seeds = inputs.OBJECTNAV_SEEDS[:REMOTE_EPISODES if remote else None]
    seeds = [seeds[i] for i in inputs.order(len(seeds), args.seed)]
    kernel = calib.Kernel()

    def build() -> tuple:
        """The set-up: fresh worlds and start poses, so that every pass also
        pays for the caches a world fills lazily.  Returns the specs, the
        build time of each and the calibration around each."""
        specs, times, cal = [], [], [kernel.slice()]
        for s in seeds:
            t0 = perf_counter()
            specs.append(inputs.objectnav_episode(s))
            times.append(perf_counter() - t0)
            cal.append(kernel.slice())
        return specs, times, calib.around(cal)

    with decision_server() if remote else nullcontext() as port:
        if remote:
            from dynav.backends import BackendConfig, RemoteBackend

            url = f"http://127.0.0.1:{port}/decide"

            def make_backend():
                return RemoteBackend(BackendConfig(endpoint=url))
        else:
            def make_backend():
                return oracle_backend(cfg)

        def one_pass(specs, keep_lines):
            backend = make_backend()
            try:
                return run_pass(specs, backend, cfg, kernel, keep_lines)
            finally:
                getattr(backend, "close", lambda: None)()

        if args.trace:
            with spans.Tracer() as setup_tracer:
                specs = build()[0]
            plain = one_pass(specs, True)
            pool = run_pool(build()[0], make_backend, cfg)
            fresh = build()[0]
            with spans.Tracer() as tracer:
                before = server_stats(port) if remote else None
                traced = one_pass(fresh, False)
                server = stats_delta(before, server_stats(port)) if remote else None
            passes = [plain, traced, pool]
            checked = plain
        else:
            n = pass_count(args)
            passes, builds = [], []
            for i in range(n):
                # only the last pass keeps its worlds and step lines, for the
                # checks, so that peak_rss_mb holds one set of worlds at a time
                specs = None
                specs, times, cal = build()
                builds.append((times, cal))
                passes.append(one_pass(specs, keep_lines=i == n - 1))
            checked = passes[-1]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the server has stopped here

    problems = check_pass(specs, checked, cfg)
    reference = checked.dicts()
    for i, p in enumerate(passes, 1):
        if p is not checked:
            problems += checks.check_same(f"pass {i}", p.dicts(), reference)
    if remote:
        local = run_pass(specs, oracle_backend(cfg), cfg, kernel)
        problems += checks.check_same("remote vs in-process", reference, local.dicts())
    spl = spl_of(checked.results)
    problems += checks.check_spl(reference, spl)
    attempted = failed = 0
    for p in passes:
        a, f = count_goals(p.dicts())
        attempted, failed = attempted + a, failed + f

    if problems:
        metrics = {}  # passes that disagree give no comparable timings
    elif args.trace:
        metrics = spans.layer_metrics(tracer.summary(), server)
        metrics.update({
            "worldgen.generate_ms_per_world": 1000.0 * setup_tracer.total_s[
                "worldgen.generate_world"] / setup_tracer.calls["worldgen.generate_world"],
            "episodes.load_specs_ms": load_specs_ms(specs, cfg),
            "cli.import_s": cli_import_s(),
            "cli.step_log_kb_per_episode": sum(l.nbytes for l in plain.logs) / 1024.0 / len(specs),
            "cli.workers_speedup": plain.wall_s / pool.wall_s,
            "trace.overhead_pct": overhead_pct(traced.wall_s, plain.wall_s, tracer.total_s),
        })
        write_trace(args.workload, tracer, metrics)
    else:
        # each world, episode and step at reference speed, median over the
        # passes (calib.py)
        metrics = step_metrics([[log.stamps for log in p.logs] for p in passes],
                               [p.cal_s for p in passes])
        episodes_s = calib.at_reference([p.episode_s for p in passes], [p.cal_s for p in passes])
        metrics.update({
            "setup_s": float(calib.at_reference(*zip(*builds)).sum()),
            "episodes_per_s": len(specs) / float(episodes_s.sum()),
            "peak_rss_mb": rss_mb,
            "spl": spl,
        })
    return {"problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def overhead_pct(traced_s: float, plain_s: float, total_s: dict) -> float:
    """The traced pass's time over the untraced pass's, in percent, without
    the tracer's own re-encoding of requests (``trace.encode``), which
    measures request sizes and is no cost of the span wrappers."""
    return 100.0 * ((traced_s - total_s.get("trace.encode", 0.0)) / plain_s - 1.0)


def load_specs_ms(specs, cfg) -> float:
    """``load_episode_specs`` on the same episodes written as a spec file."""
    from dynav import episodes

    path = OUT / f"load-{os.getpid()}.json"
    path.write_text(json.dumps(inputs.objectnav_spec(specs)))
    try:
        t0 = perf_counter()
        episodes.load_episode_specs(str(path), cfg)
        return 1000.0 * (perf_counter() - t0)
    finally:
        path.unlink()


def cli_import_s() -> float:
    """``import dynav.cli`` in a fresh interpreter."""
    path = OUT / f"import-{os.getpid()}.json"
    subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(path)],
                   env=child_env(), check=True)
    try:
        return json.loads(path.read_text())["import_s"]
    finally:
        path.unlink()


def write_trace(workload: str, tracer, metrics: dict) -> None:
    """Keep the spans and the per-layer figures of the traced run."""
    tracer.write_spans(str(OUT / f"trace-{workload}.spans.json"))
    (OUT / f"trace-{workload}.json").write_text(json.dumps(
        {"summary": tracer.summary(), "metrics": metrics}, indent=1, sort_keys=True))


# -- multigoal: the dynav CLI in a child process -------------------------------------


@dataclass
class CliRun:
    wall_s: float          # the whole command, less its calibration slices
    rss_mb: float
    setup_s: float
    cal_before_s: float    # the calibration slice right before the command
    report: dict
    out_dir: Path

    def results(self) -> List[dict]:
        with open(self.out_dir / "results.jsonl") as fh:
            return [json.loads(line) for line in fh]


def run_cli(spec: Path, out_dir: Path, workers: int, kernel: calib.Kernel,
            trace: Optional[Path] = None) -> CliRun:
    """``dynav run --episodes spec --out out_dir --workers N`` in a fresh interpreter."""
    report = out_dir.with_suffix(".child.json")
    cmd = [sys.executable, str(HERE / "cli_child.py"), str(report)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    cmd += ["--", "run", "--episodes", str(spec), "--out", str(out_dir),
            "--workers", str(workers)]
    with open(out_dir.with_suffix(".stderr"), "w") as err:
        cal_before = kernel.slice()
        t0 = monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}; "
                           f"see {out_dir.with_suffix('.stderr')}")
    rep = json.loads(report.read_text())
    return CliRun(wall - rep["cal_s"], usage.ru_maxrss / 1024.0, rep["first_step_open"] - t0,
                  cal_before, rep, out_dir)


def check_cli_run(run: CliRun, spec: dict, worlds: dict, cfg) -> List[str]:
    problems = []
    goals = {e["id"]: e["goals"] for e in spec["episodes"]}
    results = run.results()
    for res in results:
        eid = res["episode_id"]
        with open(run.out_dir / f"{eid}.steps.jsonl") as fh:
            poses = [(rec["pose"]["x"], rec["pose"]["y"]) for rec in map(json.loads, fh)]
        problems += checks.check_episode(plain_world(worlds[eid]), goals[eid], res, poses,
                                         cfg.success_threshold_m, cfg.agent_radius)
    report = json.loads((run.out_dir / "report.json").read_text())
    return problems + checks.check_spl(results, report["spl"])


def multigoal(args) -> dict:
    from dynav.config import RunConfig

    cfg = RunConfig()
    spec, worlds = inputs.multigoal_spec(inputs.MULTIGOAL_SEEDS)
    spec["episodes"] = [spec["episodes"][i] for i in inputs.order(len(spec["episodes"]), args.seed)]
    n = len(spec["episodes"])
    kernel = calib.Kernel()
    work = OUT / f"multigoal-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec, indent=1))
        dirs = (work / f"run{i}" for i in itertools.count())

        if args.trace:
            one = run_cli(spec_path, next(dirs), 1, kernel)
            two = run_cli(spec_path, next(dirs), 2, kernel)
            summary_path = work / "trace.json"
            traced = run_cli(spec_path, next(dirs), 1, kernel, trace=summary_path)
            runs = [two, one, traced]
        else:
            # the default single worker: with --workers 2 a step also holds the
            # other worker's turns at the interpreter lock, and its percentiles
            # moved by a third between two sets of runs
            runs = [run_cli(spec_path, next(dirs), 1, kernel) for _ in range(pass_count(args))]

        first = runs[0]
        problems = check_cli_run(first, spec, worlds, cfg)
        reference = first.results()
        for i, r in enumerate(runs[1:], 1):
            problems += checks.check_same(f"run {i + 1}", r.results(), reference)
        attempted = failed = 0
        for r in runs:
            a, f = count_goals(r.results())
            attempted, failed = attempted + a, failed + f

        if problems:
            metrics = {}  # runs that disagree give no comparable timings
        elif args.trace:
            summary = json.loads(summary_path.read_text())
            metrics = spans.layer_metrics(summary)
            total_s, calls = summary["total_s"], summary["calls"]
            log_bytes = sum(p.stat().st_size for p in one.out_dir.glob("*.steps.jsonl"))
            metrics.update({
                "worldgen.generate_ms_per_world": 1000.0 * total_s["worldgen.generate_world"]
                / calls["worldgen.generate_world"],
                "episodes.load_specs_ms": 1000.0 * total_s["episodes.load_specs"],
                "cli.import_s": one.report["import_s"],
                "cli.step_log_kb_per_episode": log_bytes / 1024.0 / n,
                "cli.workers_speedup": one.wall_s / two.wall_s,
                "trace.overhead_pct": overhead_pct(traced.wall_s, one.wall_s, total_s),
            })
            (OUT / "trace-multigoal.json").write_text(json.dumps(
                {"summary": summary, "metrics": metrics}, indent=1, sort_keys=True))
            shutil.move(str(work / "trace.spans.json"), str(OUT / "trace-multigoal.spans.json"))
        else:
            # each step, CLI run and set-up at reference speed, median over
            # the runs (calib.py).  A run's calibration is that around its
            # episodes, weighted by their steps; set-up lies between the slice
            # before the command and the one before its first log.
            logs = list(first.report["cal"])
            cals = [[float(np.mean(r.report["cal"][k])) for k in logs] for r in runs]
            metrics = step_metrics([[r.report["stamps"][k] for k in logs] for r in runs], cals)
            steps = [len(first.report["stamps"][k]) - 1 for k in logs]
            run_cals = [[float(np.average(c, weights=steps))] for c in cals]
            setup_cals = [[(r.cal_before_s + r.report["cal"][logs[0]][0]) / 2.0] for r in runs]
            metrics.update({
                "setup_s": float(calib.at_reference([[r.setup_s] for r in runs], setup_cals)[0]),
                "episodes_per_s": n / float(calib.at_reference([[r.wall_s] for r in runs],
                                                               run_cals)[0]),
                "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
                "spl": json.loads((first.out_dir / "report.json").read_text())["spl"],
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics}


WORKLOADS = {
    "objectnav": lambda args: inprocess(args, remote=False),
    "multigoal": multigoal,
    "remote": lambda args: inprocess(args, remote=True),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "dynav" / "__init__.py").is_file():
        print(f"error: no dynav sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    out = WORKLOADS[args.workload](args)
    for problem in out["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": out["metrics"][k], "unit": unit}
                    for k, unit in names.items() if k in out["metrics"]},
    }))
    return 0 if not out["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
