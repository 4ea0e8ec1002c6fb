"""Command line interface.

Subcommands: ``run`` (navigate episodes), ``worldgen`` (generate a world
file), ``memory`` (export / merge / show graph files), ``serve`` (decision
server: the oracle or a script), and ``eval`` (recompute a report from
results).  Exit codes: 0 success, 1 configuration or input error, 2 runtime
failure (aborted episodes, generation failure), 130 interrupted.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import itertools
import json
import logging
import os
import sys
from typing import List, Optional

from .backends import BackendConfig, OracleBackend, RemoteBackend
from .config import RunConfig, load_config
from .episodes import ABORTED, EpisodeResult, load_episode_specs, run_episode
from .errors import ConfigError, DynavError, SchemaViolation, check_integer, read_json
from .memory import load_graph, merge, save_graph
from .metrics import compute_metrics, export_report, load_results
from .worldgen import WorldGenSpec, generate_world

log = logging.getLogger(__name__)


def _backend_factory(cfg: RunConfig):
    """A function building one episode's backend; checks the endpoint first."""
    if cfg.backend == "remote":
        try:
            bcfg = BackendConfig(endpoint=cfg.endpoint, timeout_ms=cfg.timeout_ms,
                                 max_retries=cfg.max_retries)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        return lambda: RemoteBackend(bcfg)
    return lambda: OracleBackend.from_config(cfg)


def _run_on_threads(run_one, specs, workers: int) -> List[EpisodeResult]:
    """``run_one`` of every spec on ``workers`` threads.  This thread hands
    out each episode as a worker frees up, so after an interrupt no queued
    episode starts; the running ones finish."""
    queued = iter(specs)
    results: List[EpisodeResult] = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        running = {pool.submit(run_one, s) for s in itertools.islice(queued, workers)}
        while running:
            done, running = concurrent.futures.wait(
                running, return_when=concurrent.futures.FIRST_COMPLETED)
            results += (f.result() for f in done)
            running |= {pool.submit(run_one, s) for s in itertools.islice(queued, len(done))}
    return results


def cmd_run(args) -> int:
    # every run flag named after a RunConfig field overrides it
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields}
    if args.no_memory:
        overrides["memory_enabled"] = False
    cfg = load_config(args.config, overrides)
    specs = load_episode_specs(args.episodes, cfg)
    make_backend = _backend_factory(cfg)
    os.makedirs(args.out, exist_ok=True)

    def run_one(spec) -> EpisodeResult:
        backend = make_backend()
        log_path = os.path.join(args.out, f"{spec.episode_id}.steps.jsonl")
        try:
            with open(log_path, "w") as fh:
                return run_episode(spec, backend, cfg, step_log=fh)
        finally:
            getattr(backend, "close", lambda: None)()

    results: List[EpisodeResult] = []
    try:
        if cfg.workers > 1:
            results = _run_on_threads(run_one, specs, cfg.workers)
        else:
            results = [run_one(s) for s in specs]
    except KeyboardInterrupt:
        print("interrupted; partial step logs are on disk", file=sys.stderr)
        return 130

    results.sort(key=lambda r: r.episode_id)
    with open(os.path.join(args.out, "results.jsonl"), "w") as fh:
        for r in results:
            fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")
    report = compute_metrics(results)
    export_report(report, args.out)
    print(report.to_text())
    return 2 if any(r.termination == ABORTED for r in results) else 0


def cmd_worldgen(args) -> int:
    raw = read_json(args.spec) if args.spec else {}
    spec = WorldGenSpec.from_dict(raw)
    seed = args.seed if args.seed is not None else check_integer(raw.get("seed", 0), "seed")
    world = generate_world(spec, seed)
    world.save(args.out)
    print(f"wrote {args.out}: {world.width_cells}x{world.height_cells} cells, "
          f"{len(world.objects)} objects")
    return 0


def cmd_memory(args) -> int:
    if args.action in ("export", "merge") and args.out is None:
        raise ConfigError(f"memory {args.action} needs --out")
    if args.action != "merge" and len(args.paths) > 1:
        raise ConfigError(f"memory {args.action} takes one input file, not {len(args.paths)}")
    if args.action == "export":
        save_graph(load_graph(args.paths[0]), args.out)
    elif args.action == "merge":
        if len(args.paths) < 2:
            raise ConfigError("memory merge needs two input files")
        save_graph(functools.reduce(merge, map(load_graph, args.paths)), args.out)
    elif args.action == "show":
        if args.budget < 0:
            raise ConfigError(f"memory show needs a --budget of at least 0, not {args.budget}")
        g = load_graph(args.paths[0])
        print(g.render_text(budget=args.budget) if g.nodes or g.edges else "(empty graph)")
        print(f"nodes: {len(g.nodes)}, edges: {len(g.edges)}, version: {g.version}")
    return 0


def cmd_serve(args) -> int:
    from .backends.server import DecisionServer

    if not 0 <= args.port <= 65535:
        raise ConfigError(f"serve needs a --port in 0-65535, not {args.port}")
    script = read_json(args.script) if args.script else None
    server = DecisionServer(port=args.port, script=script, record=False)
    print(f"serving {args.script or 'the oracle'} on {server.endpoint}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        return 130
    finally:
        server.stop()
    return 0


def cmd_eval(args) -> int:
    results = load_results(args.results)
    report = compute_metrics(results)
    if args.out:
        export_report(report, args.out)
    print(report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dynav",
                                description="polar-action navigation pipeline")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run navigation episodes")
    run.add_argument("--episodes", required=True, help="episode spec JSON file")
    run.add_argument("--out", default="runs/out", help="output directory")
    run.add_argument("--config", default=None, help="JSON config file")
    run.add_argument("--backend", choices=["oracle", "remote"], default=None)
    run.add_argument("--endpoint", default=None, help="remote backend URL")
    run.add_argument("--alpha", type=float, default=None)
    run.add_argument("--theta-delta-deg", dest="theta_delta_deg", type=float, default=None)
    run.add_argument("--r-min", dest="r_min", type=float, default=None)
    run.add_argument("--tau-stop", dest="tau_stop", type=float, default=None)
    run.add_argument("--success-threshold-m", dest="success_threshold_m",
                     type=float, default=None)
    run.add_argument("--d-max", dest="d_max", type=float, default=None)
    run.add_argument("--n-rays", dest="n_rays", type=int, default=None)
    run.add_argument("--fov-deg", dest="fov_deg", type=float, default=None)
    run.add_argument("--epsilon-mask", dest="epsilon_mask", type=float, default=None)
    run.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    run.add_argument("--max-distance-m", dest="max_distance_m", type=float, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--no-memory", action="store_true", help="disable graph memory")
    run.set_defaults(func=cmd_run)

    wg = sub.add_parser("worldgen", help="generate a world file")
    wg.add_argument("--spec", default=None, help="worldgen spec JSON file")
    wg.add_argument("--seed", type=int, default=None)
    wg.add_argument("--out", required=True, help="output world JSON path")
    wg.set_defaults(func=cmd_worldgen)

    mem = sub.add_parser("memory", help="graph memory file tools")
    mem.add_argument("action", choices=["export", "merge", "show"])
    mem.add_argument("paths", nargs="+", help="input graph file(s)")
    mem.add_argument("--out", default=None, help="output graph path")
    mem.add_argument("--budget", type=int, default=20, help="clauses shown by 'show'")
    mem.set_defaults(func=cmd_memory)

    serve = sub.add_parser("serve", help="answer decision requests over HTTP")
    serve.add_argument("--port", type=int, default=8808, help="listen port (0: any free one)")
    serve.add_argument("--script", default=None,
                       help="canned response script JSON (default: the oracle)")
    serve.set_defaults(func=cmd_serve)

    ev = sub.add_parser("eval", help="recompute a report from results.jsonl")
    ev.add_argument("--results", required=True)
    ev.add_argument("--out", default=None,
                    help="directory to write report.json and report.txt into")
    ev.set_defaults(func=cmd_eval)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, SchemaViolation, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DynavError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
