"""Span tracing for the traced benchmark run.

A ``Tracer`` rebinds dynav's public functions at the names their callers look
up (``dynav.policy.sense``, ``dynav.episodes.shortest_path``,
``OracleBackend.decide``, ``WorldMap.clearance_with_nearest``, ...) with
wrappers that time each call.  Spans stay in memory; a span's self time is its
duration minus the time covered by its child spans.  The tracer assumes one
thread: traced runs execute episodes one after another.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[list] = []  # [span index, time covered by children]
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            self.spans[idx] = (name, start, end, parent)
            self.self_s[name] += dur - frame[1]
            self.total_s[name] += dur
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur

    def timed(self, name, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrapper timing ``fn``; ``name`` may be a function of the call's
        arguments; ``after(result, *args)`` runs once the span has closed."""
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            result = self.call(label, fn, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    def counted(self, fn: Callable, after: Callable) -> Callable:
        """Wrapper that records ``after(result, *args)`` without a span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, *args)
            return result
        return wrapper

    # -- installation -----------------------------------------------------------

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Tracer":
        install_dynav(self)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)


def install_dynav(t: Tracer) -> None:
    """Wrap each layer of dynav at the names its callers look up."""
    import requests

    import dynav.backends.protocol as protocol
    import dynav.cli as cli
    import dynav.episodes as episodes
    import dynav.policy as policy
    import dynav.proposer as proposer
    import dynav.sensing as sensing
    import dynav.worldgen as worldgen
    from dynav.backends.oracle import OracleBackend
    from dynav.backends.remote import RemoteBackend
    from dynav.memory import MemoryGraph
    from dynav.world import WorldMap

    def span(name, after=None):
        return lambda fn: t.timed(name, fn, after)

    def count(key, amount):
        def after(result, *args):
            t.counts[key] += amount(result, *args)
        return lambda fn: t.counted(fn, after)

    def encoded_size(req, *args):
        # a child span, so the encoding is no layer's self time
        t.counts["protocol.request_bytes"] += t.call(
            "trace.encode", lambda: len(json.dumps(req.to_dict())))

    def nudged(result, world, pose, *args):
        t.counts["motion.nudged"] += result != pose

    def memory_write(fn):
        def wrapper(graph, *args, **kwargs):
            before = graph.version
            result = fn(graph, *args, **kwargs)
            t.counts["memory.ops"] += 1
            t.counts["memory.changed"] += graph.version != before
            return result
        return wrapper

    t.patch(episodes, "run_episode", span("episodes.run_episode"))
    t.patch(cli, "run_episode", span("episodes.run_episode"))
    t.patch(episodes, "load_episode_specs", span("episodes.load_specs"))
    t.patch(cli, "load_episode_specs", span("episodes.load_specs"))
    t.patch(episodes, "generate_world", span("worldgen.generate_world"))
    t.patch(worldgen, "generate_world", span("worldgen.generate_world"))
    t.patch(episodes, "shortest_path", span("planning.shortest_path"))
    t.patch(episodes, "step", span("policy.step"))
    t.patch(policy, "select_action", span("policy.select_action"))
    t.patch(policy, "sense", span("sensing.sense"))
    t.patch(sensing, "sense", span("sensing.sense"))  # run_episode's check after a stop
    t.patch(policy, "memory_excerpt", span(
        "memory.excerpt", lambda text, *a: t.counts.update({"memory.excerpt_chars": len(text)})))
    t.patch(policy, "propose", span(
        "proposer.propose", lambda cands, *a: t.counts.update({"proposer.kept": len(cands)})))
    t.patch(proposer, "sample_initial", count("proposer.initial", lambda cands, *a: len(cands)))
    t.patch(protocol, "make_filter_request", span("protocol.build", encoded_size))
    t.patch(policy, "make_score_request", span("protocol.build", encoded_size))
    t.patch(policy, "make_stop_request", span("protocol.build", encoded_size))
    t.patch(OracleBackend, "decide", span(lambda self, req: "oracle." + req.kind))
    t.patch(RemoteBackend, "decide", span(lambda self, req: "remote." + req.kind))
    t.patch(requests.Session, "post", count("remote.posts", lambda *a: 1))
    t.patch(MemoryGraph, "add_node", memory_write)
    t.patch(MemoryGraph, "add_edge", memory_write)
    t.patch(policy, "reactive_avoid", span("motion.reactive_avoid", nudged))
    t.patch(policy, "execute", span("motion.execute"))
    t.patch(WorldMap, "clearance_with_nearest", span("world.clearance"))


KINDS = ("filter", "score", "stop_check")


def layer_metrics(s: dict, server: Optional[dict] = None) -> Dict[str, float]:
    """Per-layer figures from a tracer summary of one run of episodes.

    ``server`` holds the decision server's own per-kind counters when the
    backend was remote; the oracle then ran there, not in this process.
    """
    self_s, total_s = s["self_s"], s["total_s"]
    calls, counts = s["calls"], s["counts"]

    def g(d, k):
        return d.get(k, 0)

    steps = g(calls, "policy.step")
    goals = g(calls, "planning.shortest_path")

    def per_step_ms(seconds):
        return 1000.0 * seconds / steps

    remote = any(g(calls, "remote." + k) for k in KINDS)
    out = {
        "sensing.sense_ms_per_step": per_step_ms(g(self_s, "sensing.sense")),
        "sensing.sense_calls_per_step": g(calls, "sensing.sense") / steps,
        "proposer.propose_self_ms_per_step": per_step_ms(g(self_s, "proposer.propose")),
        "proposer.candidates_per_step": g(counts, "proposer.initial") / steps,
        "proposer.kept_frac": g(counts, "proposer.kept") / max(1, g(counts, "proposer.initial")),
        "protocol.build_ms_per_step": per_step_ms(g(self_s, "protocol.build")),
        "protocol.requests_per_step": g(calls, "protocol.build") / steps,
        "protocol.request_kb_per_step": g(counts, "protocol.request_bytes") / 1024.0 / steps,
        "motion.reactive_avoid_ms_per_step": per_step_ms(g(self_s, "motion.reactive_avoid")),
        "motion.execute_ms_per_step": per_step_ms(g(self_s, "motion.execute")),
        "motion.nudged_frac":
            g(counts, "motion.nudged") / max(1, g(calls, "motion.reactive_avoid")),
        "world.clearance_calls_per_step": g(calls, "world.clearance") / steps,
        "world.clearance_ms_per_step": per_step_ms(g(self_s, "world.clearance")),
        "memory.excerpt_ms_per_step": per_step_ms(g(self_s, "memory.excerpt")),
        "memory.excerpt_chars_per_step": g(counts, "memory.excerpt_chars") / steps,
        "memory.ops_per_step": g(counts, "memory.ops") / steps,
        "memory.changed_per_op": g(counts, "memory.changed") / max(1, g(counts, "memory.ops")),
        "planning.shortest_path_ms_per_goal": 1000.0 * g(total_s, "planning.shortest_path") / goals,
        "policy.step_self_ms_per_step": per_step_ms(g(self_s, "policy.step")),
        "policy.select_action_self_ms_per_step": per_step_ms(g(self_s, "policy.select_action")),
        "episodes.run_episode_self_ms_per_step": per_step_ms(g(self_s, "episodes.run_episode")),
    }
    side = "remote." if remote else "oracle."
    for kind in KINDS:
        n = g(calls, side + kind)
        out[f"remote.round_trip_ms.{kind}"] = 1000.0 * g(total_s, side + kind) / max(1, n)
    if server is not None:
        for kind, name in zip(KINDS, ("filter", "score", "stop")):
            out[f"oracle.{name}_ms_per_step"] = per_step_ms(server[kind]["decide_s"])
        n = sum(server[k]["requests"] for k in KINDS)
        out["remote.server_ms_per_request"] = 1000.0 * sum(
            server[k]["handle_s"] for k in KINDS) / max(1, n)
    else:
        for kind, name in zip(KINDS, ("filter", "score", "stop")):
            out[f"oracle.{name}_ms_per_step"] = per_step_ms(g(self_s, "oracle." + kind))
        n = sum(g(calls, "oracle." + k) for k in KINDS)
        out["remote.server_ms_per_request"] = 1000.0 * sum(
            g(self_s, "oracle." + k) for k in KINDS) / max(1, n)
    out["remote.retries"] = g(counts, "remote.posts") - sum(g(calls, "remote." + k) for k in KINDS)
    return out
