"""Wire protocol between the navigation policy and decision backends.

Requests and responses are JSON with angles in degrees and distances in
meters; both directions carry ``version: "dynav/5"``.  A request carries its
step's rays as columns, plus one table of the distinct hits they index, and
its goal and memory excerpt twice: as records, which a backend reads, and as
text for a prompt.  ``RequestContext`` holds the rays in that same form, as
the sensor's ``Observation`` does, so neither side builds a record per ray.
A step sends exactly one request: ``score`` (prune/nudge the sampled
candidates, rate the survivors and stop confidence, and optionally emit
memory operations), or ``stop_check`` (rate stop confidence alone, for a
step with no candidate).  A third kind, ``filter`` (prune/nudge alone),
stays answerable, but the policy never sends it.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import (SchemaViolation, check, check_finite, check_integer, check_location,
                      check_strings, check_type)
from ..goals import GoalSpec
from ..memory import MemoryNode
from ..proposer import Adjustment, CandidateSet
from ..sensing import HitEntry, Observation

log = logging.getLogger(__name__)

PROTOCOL_VERSION = "dynav/5"

FILTER = "filter"
SCORE = "score"
STOP_CHECK = "stop_check"
KINDS = (FILTER, SCORE, STOP_CHECK)

TEMPLATES = {
    "name": "goal-name/3",
    "description": "goal-description/3",
    "instance": "goal-instance/3",
    "stop": "stop-check/1",
    "filter": "filter/1",
}


class WireCandidate(NamedTuple):
    id: int
    r_m: float
    theta_deg: float


class WireNode(NamedTuple):
    """A node of the memory excerpt, its attributes sorted."""
    name: str
    attributes: Tuple[str, ...]
    location_m: Optional[Tuple[float, float]]

    def to_dict(self) -> dict:
        return {"name": self.name, "attributes": list(self.attributes),
                "location_m": None if self.location_m is None else list(self.location_m)}


@dataclass(frozen=True)
class RequestContext:
    """Per-step identity, goal, observation and memory excerpt shared by
    every request of that step; built by ``request_context``.  The goal and
    the excerpt come as records, which a backend reads, and as prompt text.

    The rays are the wire's columns: ray i points at ``theta_deg[i]``
    relative to the heading, ends at ``distance_m[i]`` and hit
    ``hits[hit[i]]``, a ``(label, attributes, tags)`` entry."""

    session_id: str
    step: int
    goal_text: str
    goal: GoalSpec
    pose: Tuple[float, float, float]  # x_m, y_m, heading_deg
    theta_deg: Tuple[float, ...]
    distance_m: Tuple[float, ...]
    hit: Tuple[int, ...]
    hits: Tuple[HitEntry, ...]
    memory_text: str = ""
    memory: Tuple[WireNode, ...] = ()
    constraints: Tuple[str, ...] = ()

    def observation(self) -> dict:
        """The pose, the rays as three columns, and the table of hits that
        ``rays.hit`` indexes."""
        return {"pose": {"x_m": self.pose[0], "y_m": self.pose[1], "heading_deg": self.pose[2]},
                "rays": {"theta_deg": list(self.theta_deg),
                         "distance_m": list(self.distance_m), "hit": list(self.hit)},
                "hits": [{"label": label, "attributes": list(attributes), "tags": list(tags)}
                         for label, attributes, tags in self.hits]}


@dataclass(frozen=True)
class DecisionRequest:
    """One question about a step: its kind, the step's context, the
    candidates asked about (none for a stop check) and the prompt template."""

    kind: str
    context: RequestContext
    candidates: Tuple[WireCandidate, ...]
    template_id: str

    def candidate_ids(self) -> Tuple[int, ...]:
        return tuple(c.id for c in self.candidates)

    def to_dict(self) -> dict:
        ctx = self.context
        d = {"version": PROTOCOL_VERSION, "kind": self.kind, "session_id": ctx.session_id,
             "step": ctx.step, "goal_text": ctx.goal_text, "goal": ctx.goal.to_dict(),
             "observation": ctx.observation(), "memory_text": ctx.memory_text,
             "memory": [node.to_dict() for node in ctx.memory],
             "constraints": list(ctx.constraints), "template_id": self.template_id}
        if self.kind in (FILTER, SCORE):
            d["candidates"] = [{"id": c.id, "r_m": c.r_m, "theta_deg": c.theta_deg}
                               for c in self.candidates]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionRequest":
        try:
            check_type(d, dict, "a request")
            if d.get("version") != PROTOCOL_VERSION:
                raise SchemaViolation(f"bad request version: {d.get('version')!r}")
            kind = d["kind"]
            if kind not in KINDS:
                raise SchemaViolation(f"unknown request kind: {kind!r}")
            obs = check_type(d["observation"], dict, "observation")
            pose = tuple(check_finite(obs["pose"][k], k) for k in ("x_m", "y_m", "heading_deg"))
            thetas, dists, index, table = _parse_rays(obs["rays"], obs["hits"])
            cands = tuple(
                WireCandidate(check_integer(c["id"], "candidate id"),
                              check_finite(c["r_m"], "candidate r_m"),
                              check_finite(c["theta_deg"], "candidate theta_deg"))
                for c in d.get("candidates", ())
            )
            if kind in (FILTER, SCORE) and not cands:
                raise SchemaViolation(f"{kind} requests must carry at least one candidate")
            context = RequestContext(
                session_id=check_type(d["session_id"], str, "session_id"),
                step=check_integer(d["step"], "step"),
                goal_text=check_type(d.get("goal_text", ""), str, "goal_text"),
                goal=GoalSpec.from_dict(d["goal"]), pose=pose, theta_deg=thetas,
                distance_m=dists, hit=index, hits=table,
                memory_text=check_type(d.get("memory_text", ""), str, "memory_text"),
                memory=tuple(_wire_node(check_type(n, dict, "a memory node"), "memory node")
                             for n in check_type(d.get("memory", []), list, "memory")),
                constraints=check_strings(d.get("constraints", []), "constraints"))
            return cls(kind, context, cands,
                       check_type(d.get("template_id", ""), str, "template_id"))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise SchemaViolation(f"bad request payload: {e}") from e


_NUMBER_TYPES = frozenset((float, int))


def _numbers(values, what: str) -> Tuple[float, ...]:
    """A ray column of finite JSON numbers, as floats.  A valid column is
    checked and converted in C-level passes, not per ray."""
    types = set(map(type, check_type(values, list, what)))
    try:
        if types <= _NUMBER_TYPES and all(map(math.isfinite, values)):
            return tuple(values if types == {float} else map(float, values))
    except OverflowError:  # an integer too large for a float
        pass
    return tuple(check_finite(v, what) for v in values)  # raises at the first value at fault


def _parse_rays(columns, hits) -> Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[int, ...],
                                         Tuple[HitEntry, ...]]:
    """The ``theta_deg``, ``distance_m`` and ``hit`` columns of
    ``observation.rays`` and the table of ``observation.hits``, as parsed.  A
    column of the wrong type or length, a malformed hits entry, or a ``hit``
    that is not an index into the hits raises SchemaViolation."""
    check_type(columns, dict, "observation rays")
    thetas = _numbers(columns["theta_deg"], "ray theta_deg")
    dists = _numbers(columns["distance_m"], "ray distance_m")
    index = check_type(columns["hit"], list, "ray hit")
    if not len(thetas) == len(dists) == len(index):
        raise SchemaViolation(f"ray columns differ in length: {len(thetas)} theta_deg, "
                              f"{len(dists)} distance_m, {len(index)} hit")
    table = []
    for entry in check_type(hits, list, "observation hits"):
        check_type(entry, dict, "a hits entry")
        label = entry["label"]
        table.append((check(label, label is None or type(label) is str,
                            "a hits entry label must be a string or null"),
                      check_strings(entry["attributes"], "a hits entry attributes"),
                      check_strings(entry["tags"], "a hits entry tags")))
    n = len(table)
    if index and not (set(map(type, index)) <= {int} and 0 <= min(index) and max(index) < n):
        for i in index:  # raises at the first index at fault
            check(i, type(i) is int and 0 <= i < n, f"ray hit must index the {n} hits")
    return thetas, dists, tuple(index), tuple(table)


def _wire_node(raw: dict, what: str) -> WireNode:
    """The name, attributes and location_m of a memory record or of an
    add_node op."""
    return WireNode(check_type(raw["name"], str, f"{what} name"),
                    check_strings(raw.get("attributes", []), f"{what} attributes"),
                    check_location(raw.get("location_m"), f"{what} location_m"))


@dataclass(frozen=True)
class MemoryOp:
    op: str  # "add_node" | "add_edge"
    name: str = ""
    attributes: Tuple[str, ...] = ()
    location: Optional[Tuple[float, float]] = None
    start: str = ""
    target: str = ""
    relation: str = ""

    def to_dict(self) -> dict:
        if self.op == "add_node":
            return {"op": "add_node", "name": self.name,
                    "attributes": list(self.attributes),
                    "location_m": list(self.location) if self.location else None}
        return {"op": "add_edge", "start": self.start, "target": self.target,
                "relation": self.relation}


@dataclass(frozen=True)
class DecisionResponse:
    kind: str = SCORE
    removals: Tuple[int, ...] = ()
    adjustments: Tuple[Adjustment, ...] = ()
    scores: Dict[int, float] = field(default_factory=dict)
    s_stop: float = 0.0
    memory_ops: Tuple[MemoryOp, ...] = ()
    rationale: str = ""

    def to_dict(self) -> dict:
        return {
            "version": PROTOCOL_VERSION,
            "kind": self.kind,
            "removals": list(self.removals),
            "adjustments": [{"id": a.id, "r_m": a.r, "theta_deg": math.degrees(a.theta)}
                            for a in self.adjustments],
            "scores": [{"id": i, "s": s} for i, s in sorted(self.scores.items())],
            "s_stop": self.s_stop,
            "memory_ops": [op.to_dict() for op in self.memory_ops],
            "rationale": self.rationale,
        }


def _clamp_unit(value: float, what: str) -> float:
    if not (0.0 <= value <= 1.0):
        clamped = min(1.0, max(0.0, value))
        log.warning("%s=%s outside [0, 1]; clamped to %s", what, value, clamped)
        return clamped
    return value


def parse_response(payload: dict, request: DecisionRequest) -> DecisionResponse:
    """Validate a raw response dict against its request and normalize it.

    Finite out-of-range scores are clamped with a warning; structural problems
    (wrong version, kind mismatch, unknown candidate ids, malformed fields, an
    id that is not an integer, a number that is not a finite JSON number)
    raise SchemaViolation.
    """
    check_type(payload, dict, "a response")
    if payload.get("version") != PROTOCOL_VERSION:
        raise SchemaViolation(f"bad response version: {payload.get('version')!r}")
    kind = payload.get("kind")
    if kind != request.kind:
        raise SchemaViolation(f"response kind {kind!r} does not match request {request.kind!r}")
    known = set(request.candidate_ids())
    lists = {k: check_type(payload.get(k, []), list, k)
             for k in ("removals", "adjustments", "scores", "memory_ops")}
    try:
        removals = tuple(check_integer(i, "removal id") for i in lists["removals"])
        adjustments = tuple(
            Adjustment(check_integer(a["id"], "adjustment id"),
                       check_finite(a["r_m"], "adjustment r_m"),
                       math.radians(check_finite(a["theta_deg"], "adjustment theta_deg")))
            for a in lists["adjustments"])
        scores = {check_integer(e["id"], "score id"):
                  _clamp_unit(check_finite(e["s"], "score"), "score")
                  for e in lists["scores"]}
        s_stop = _clamp_unit(check_finite(payload.get("s_stop", 0.0), "s_stop"), "s_stop")
        ops: List[MemoryOp] = []
        for raw in lists["memory_ops"]:
            op = check_type(raw, dict, "a memory op").get("op")
            if op == "add_node":
                ops.append(MemoryOp("add_node", *_wire_node(raw, "memory op")))
            elif op == "add_edge":
                ops.append(MemoryOp(
                    op="add_edge", start=check_type(raw["start"], str, "memory op start"),
                    target=check_type(raw["target"], str, "memory op target"),
                    relation=check_type(raw["relation"], str, "memory op relation")))
            else:
                raise SchemaViolation(f"unknown memory op: {op!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaViolation(f"bad response payload: {e}") from e

    for what, ids in (("removal", removals), ("adjustment", [a.id for a in adjustments]),
                      ("score", scores)):
        for i in ids:
            if i not in known:
                raise SchemaViolation(f"{what} references unknown candidate id {i}")
    return DecisionResponse(
        kind=kind, removals=removals, adjustments=adjustments, scores=scores, s_stop=s_stop,
        memory_ops=tuple(ops),
        rationale=check_type(payload.get("rationale", ""), str, "rationale"),
    )


# -- wire encoding -----------------------------------------------------------

_encode = json.JSONEncoder(allow_nan=False).encode


def encode_request(req: DecisionRequest) -> bytes:
    """The request body: ``json.dumps(req.to_dict(), allow_nan=False).encode()``,
    byte for byte.  Raises SchemaViolation on a non-finite number."""
    try:
        return _encode(req.to_dict()).encode()
    except (TypeError, ValueError) as e:
        raise SchemaViolation(f"request cannot be encoded: {e}") from e


# -- request builders --------------------------------------------------------

# bearings in degrees per fan, keyed on the identity of the fan's tuple of
# bearings in radians, not on its value: equal tuples may differ in the sign
# of a zero.  Each entry holds that tuple, so no other tuple can take its id.
_FAN_DEGREES: Dict[int, Tuple[tuple, Tuple[float, ...]]] = {}
_FAN_DEGREES_MAX = 64


def _fan_degrees(thetas: Tuple[float, ...]) -> Tuple[float, ...]:
    """``thetas`` in degrees, computed once per fan: every observation of one
    fan shares its tuple of bearings, and every context the tuple returned."""
    entry = _FAN_DEGREES.get(id(thetas))
    if entry is None:
        if len(_FAN_DEGREES) >= _FAN_DEGREES_MAX:
            _FAN_DEGREES.clear()
        entry = _FAN_DEGREES[id(thetas)] = (thetas, tuple(map(math.degrees, thetas)))
    return entry[1]


def request_context(obs: Observation, session_id: str, goal: GoalSpec, memory_text: str = "",
                    cut: Sequence = (), constraints: Tuple[str, ...] = ()) -> RequestContext:
    """The context of the step that sensed ``obs``.

    The pose is converted to wire form here; the ray columns and the hits
    table are the observation's own.  ``cut`` is the memory excerpt
    (``MemoryGraph.cut``) whose text is ``memory_text``; its nodes become the
    memory records, in its order.
    """
    return RequestContext(
        session_id=session_id, step=obs.step, goal_text=goal.text, goal=goal,
        pose=(obs.pose.x, obs.pose.y, math.degrees(obs.pose.heading)),
        theta_deg=_fan_degrees(obs.thetas), distance_m=obs.depths, hit=obs.hit, hits=obs.hits,
        memory_text=memory_text,
        memory=tuple(WireNode(n.name, tuple(sorted(n.attributes)), n.location)
                     for n in cut if isinstance(n, MemoryNode)),
        constraints=constraints)


def _wire_candidates(cands: CandidateSet) -> Tuple[WireCandidate, ...]:
    return tuple(WireCandidate(c.id, c.r, math.degrees(c.theta)) for c in cands.candidates)


def make_filter_request(ctx: RequestContext, candidates: CandidateSet) -> DecisionRequest:
    # answerable, but never sent by the policy: the score reply carries the filter
    return DecisionRequest(FILTER, ctx, _wire_candidates(candidates), TEMPLATES["filter"])


def make_score_request(ctx: RequestContext, candidates: CandidateSet,
                       template_id: str) -> DecisionRequest:
    return DecisionRequest(SCORE, ctx, _wire_candidates(candidates), template_id)


def make_stop_request(ctx: RequestContext) -> DecisionRequest:
    # for a step with no candidate to score: no candidates attached
    return DecisionRequest(STOP_CHECK, ctx, (), TEMPLATES["stop"])
