"""Command line interface.

Subcommands: ``run`` (navigate episodes), ``worldgen`` (generate a world
file), ``memory`` (export / merge / show graph files), ``serve-stub`` (scripted
protocol server), and ``eval`` (recompute a report from results).  Exit codes:
0 success, 1 configuration or input error, 2 runtime failure (aborted
episodes, generation failure), 130 interrupted.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import os
import sys
from typing import List, Optional

from .backends import BackendConfig, OracleBackend, RemoteBackend
from .config import RunConfig, load_config
from .episodes import ABORTED, EpisodeResult, load_episode_specs, run_episode
from .errors import ConfigError, DynavError, SchemaViolation
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
    return lambda: OracleBackend(hazard_clearance=cfg.hazard_clearance_m,
                                 success_threshold=cfg.success_threshold_m,
                                 r_scale=cfg.d_max)


def cmd_run(args) -> int:
    overrides = {k: getattr(args, k) for k in (
        "alpha", "theta_delta_deg", "r_min", "tau_stop", "success_threshold_m",
        "d_max", "n_rays", "fov_deg", "seed", "workers", "backend", "endpoint",
        "epsilon_mask", "max_steps", "max_distance_m",
    )}
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
            with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(run_one, specs))
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
    if args.spec:
        with open(args.spec) as fh:
            raw = json.load(fh)
        seed = args.seed if args.seed is not None else int(raw.pop("seed", 0))
        spec = WorldGenSpec.from_dict(raw)
    else:
        spec = WorldGenSpec()
        seed = args.seed or 0
    world = generate_world(spec, seed)
    world.save(args.out)
    print(f"wrote {args.out}: {world.width_cells}x{world.height_cells} cells, "
          f"{len(world.objects)} objects")
    return 0


def cmd_memory(args) -> int:
    if args.action in ("export", "merge") and args.out is None:
        raise ConfigError(f"memory {args.action} needs --out")
    if args.action == "export":
        g = load_graph(args.paths[0])
        save_graph(g, args.out)
    elif args.action == "merge":
        if len(args.paths) < 2:
            raise ConfigError("memory merge needs two input files")
        merged = merge(load_graph(args.paths[0]), load_graph(args.paths[1]))
        for extra in args.paths[2:]:
            merged = merge(merged, load_graph(extra))
        save_graph(merged, args.out)
    elif args.action == "show":
        g = load_graph(args.paths[0])
        print(g.render_text(budget=args.budget) or "(empty graph)")
        print(f"nodes: {len(g.nodes)}, edges: {len(g.edges)}, version: {g.version}")
    return 0


def cmd_serve_stub(args) -> int:
    from .backends.stub import StubServer

    script = None
    if args.script:
        with open(args.script) as fh:
            script = json.load(fh)
    server = StubServer(port=args.port, script=script)
    print(f"stub listening on {server.endpoint}")
    try:
        server.start()
        server._thread.join()
    except KeyboardInterrupt:
        server.stop()
        return 130
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

    stub = sub.add_parser("serve-stub", help="run the scripted protocol stub")
    stub.add_argument("--port", type=int, default=8808)
    stub.add_argument("--script", default=None, help="canned response script JSON")
    stub.set_defaults(func=cmd_serve_stub)

    ev = sub.add_parser("eval", help="recompute a report from results.jsonl")
    ev.add_argument("--results", required=True)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, SchemaViolation, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DynavError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
