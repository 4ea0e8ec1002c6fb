"""Wire protocol between the navigation policy and decision backends.

Requests and responses are JSON with angles in degrees and distances in
meters; both directions carry ``version: PROTOCOL_VERSION``.  A request
carries its step's rays as columns, plus one table of the distinct hits they
index, and its goal and memory excerpt twice: as records, which a backend
reads, and as text for a prompt.  The bearing and distance columns travel
packed, as base64 of their float64 values.  ``RequestContext`` holds the rays
as columns too, as the sensor's ``Observation`` does, so neither side builds
a record per ray.
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
import struct
from binascii import a2b_base64, b2a_base64
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import (SchemaViolation, check, check_finite, check_integer, check_location,
                      check_strings, check_type, refuse)
from ..goals import GoalSpec
from ..memory import MemoryNode
from ..proposer import Adjustment, CandidateSet
from ..sensing import HitEntry, Observation

log = logging.getLogger(__name__)

PROTOCOL_VERSION = "dynav/6"

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
    """Per-step identity, goal, observation and memory excerpt of the
    step's request; built by ``request_context``.  The goal and the excerpt
    come as records, which a backend reads, and as prompt text.

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
        """The pose, the rays as three columns, the first two packed, and the
        table of hits that ``rays.hit`` indexes.  A packed column that holds
        anything but finite floats raises SchemaViolation."""
        return {"pose": {"x_m": self.pose[0], "y_m": self.pose[1], "heading_deg": self.pose[2]},
                "rays": {"theta_deg": _pack_bearings(self.theta_deg),
                         "distance_m": _pack(self.distance_m, "ray distance_m"),
                         "hit": list(self.hit)},
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
            if kind == STOP_CHECK and "candidates" in d:
                raise SchemaViolation("stop_check requests carry no candidates")
            context = RequestContext(
                session_id=check_type(d["session_id"], str, "session_id"),
                step=check_integer(d["step"], "step"),
                goal_text=check_type(d.get("goal_text", ""), str, "goal_text"),
                goal=GoalSpec.from_dict(d["goal"]), pose=pose, theta_deg=thetas,
                distance_m=dists, hit=index, hits=table,
                memory_text=check_type(d.get("memory_text", ""), str, "memory_text"),
                memory=tuple(_wire_node(check_type(n, dict, "a memory node"), _RECORD_FIELDS)
                             for n in check_type(d.get("memory", []), list, "memory")),
                constraints=check_strings(d.get("constraints", []), "constraints"))
            return cls(kind, context, cands,
                       check_type(d.get("template_id", ""), str, "template_id"))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise SchemaViolation(f"bad request payload: {e}") from e


_FLOAT = frozenset((float,))


def _pack(column: Tuple[float, ...], what: str) -> str:
    """A column of finite floats as the wire carries it: padded base64 (RFC
    4648, standard alphabet, no line breaks) of its float64 values,
    little-endian, in ray order."""
    if not (set(map(type, column)) <= _FLOAT and all(map(math.isfinite, column))):
        bad = next(v for v in column if type(v) is not float or not math.isfinite(v))
        raise SchemaViolation(f"request cannot be encoded: {what} must hold finite floats, "
                              f"not {bad!r:.60}")
    return b2a_base64(struct.pack(f"<{len(column)}d", *column), newline=False).decode("ascii")


# the last bearing column packed, and its text: every request of one fan
# carries the fan's own tuple.  The column is told by identity, not value:
# 0.0 == -0.0, so a value key would hand one fan another's text, and the
# memo's reference keeps the id from passing to a new tuple
_PACKED: Tuple[Optional[Tuple[float, ...]], str] = (None, "")


def _pack_bearings(column: Tuple[float, ...]) -> str:
    """``_pack`` of a ``theta_deg`` column, skipped when the column is the
    very tuple packed last."""
    global _PACKED
    last, text = _PACKED
    if column is not last:
        text = _pack(column, "ray theta_deg")
        _PACKED = (column, text)
    return text


def _unpack(text, what: str) -> Tuple[float, ...]:
    """The floats of a packed column, the inverse of ``_pack``.  Text that is
    not a string, not the canonical padded base64 of its bytes or not a whole
    number of float64 values, and a value that is NaN or infinite, raise
    SchemaViolation naming the column."""
    if type(text) is not str:
        refuse(text, f"{what} must be a base64 string")
    try:
        raw = a2b_base64(text)
    except ValueError as e:  # binascii.Error, or text that is not ASCII
        raise SchemaViolation(f"{what} is not padded base64: {e}") from None
    # the one text ``_pack`` writes for these bytes: refuses whitespace, a
    # missing or extra pad, the URL-safe alphabet and stray bits in the last
    # character, none of which a2b_base64 refuses by itself
    if b2a_base64(raw, newline=False).decode("ascii") != text:
        raise SchemaViolation(f"{what} is not padded base64: not the text of its bytes")
    if len(raw) % 8:
        raise SchemaViolation(f"{what} holds {len(raw)} bytes, not whole float64 values")
    values = struct.unpack(f"<{len(raw) >> 3}d", raw)
    # NaN or an infinity in any value makes the sum NaN or infinite; a finite
    # sum thus clears the column in one C pass, and only an overflowing one
    # needs the value-by-value check
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise SchemaViolation(f"{what} is not finite: "
                              f"{next(v for v in values if not math.isfinite(v))!r}")
    return values


# the last bearing column read, and its floats: every request of one fan
# carries the same bearings, so the text repeats from step to step
_BEARINGS: Tuple[str, Tuple[float, ...]] = ("", ())


def _unpack_bearings(text) -> Tuple[float, ...]:
    """``_unpack`` of a ``theta_deg`` column, skipped when the text is that
    of the last one read."""
    global _BEARINGS
    last_text, values = _BEARINGS
    if text != last_text:
        values = _unpack(text, "ray theta_deg")
        _BEARINGS = (text, values)
    return values


def _parse_rays(columns, hits) -> Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[int, ...],
                                         Tuple[HitEntry, ...]]:
    """The ``theta_deg``, ``distance_m`` and ``hit`` columns of
    ``observation.rays`` and the table of ``observation.hits``, as parsed.  A
    malformed packed column, a column of the wrong type or length, a
    malformed hits entry, or a ``hit`` that is not an index into the hits
    raises SchemaViolation."""
    check_type(columns, dict, "observation rays")
    thetas = _unpack_bearings(columns["theta_deg"])
    dists = _unpack(columns["distance_m"], "ray distance_m")
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


# what error messages call the fields of a memory record and of an add_node op
_RECORD_FIELDS = ("memory node name", "memory node attributes", "memory node location_m")
_OP_FIELDS = ("memory op name", "memory op attributes", "memory op location_m")


def _wire_node(raw: dict, fields: Tuple[str, str, str]) -> WireNode:
    """The name, attributes and location_m of a memory record or of an
    add_node op; ``fields`` names the three in error messages."""
    name, attributes, location = fields
    return WireNode(check_type(raw["name"], str, name),
                    check_strings(raw.get("attributes", []), attributes),
                    check_location(raw.get("location_m"), location))


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
    (wrong version, kind mismatch, unknown candidate ids, a candidate scored
    or adjusted twice, malformed fields, an id that is not an integer, a
    number that is not a finite JSON number) raise SchemaViolation.
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
                ops.append(MemoryOp("add_node", *_wire_node(raw, _OP_FIELDS)))
            elif op == "add_edge":
                ops.append(MemoryOp(
                    op="add_edge", start=check_type(raw["start"], str, "memory op start"),
                    target=check_type(raw["target"], str, "memory op target"),
                    relation=check_type(raw["relation"], str, "memory op relation")))
            else:
                raise SchemaViolation(f"unknown memory op: {op!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaViolation(f"bad response payload: {e}") from e

    adjusted, scored = [a.id for a in adjustments], [e["id"] for e in lists["scores"]]
    for what, ids in (("removal", removals), ("adjustment", adjusted), ("score", scored)):
        for i in ids:
            if i not in known:
                raise SchemaViolation(f"{what} references unknown candidate id {i}")
    for what, ids in (("adjustment", adjusted), ("score", scored)):
        if len(set(ids)) != len(ids):
            twice = next(i for i in ids if ids.count(i) > 1)
            raise SchemaViolation(f"more than one {what} names candidate id {twice}")
    return DecisionResponse(
        kind=kind, removals=removals, adjustments=adjustments, scores=scores, s_stop=s_stop,
        memory_ops=tuple(ops),
        rationale=check_type(payload.get("rationale", ""), str, "rationale"),
    )


# -- wire encoding -----------------------------------------------------------

_encode = json.JSONEncoder(allow_nan=False).encode


def encode_request(req: DecisionRequest) -> bytes:
    """The request body: ``json.dumps(req.to_dict(), allow_nan=False).encode()``,
    byte for byte.  Raises SchemaViolation on a non-finite number, and on a
    packed ray column that holds anything but floats."""
    try:
        return _encode(req.to_dict()).encode()
    except (TypeError, ValueError) as e:
        raise SchemaViolation(f"request cannot be encoded: {e}") from e


# -- request builders --------------------------------------------------------

def request_context(obs: Observation, session_id: str, goal: GoalSpec, memory_text: str = "",
                    cut: Sequence = (), constraints: Tuple[str, ...] = ()) -> RequestContext:
    """The context of the step that sensed ``obs``.

    The pose is converted to wire form here; the bearings in degrees are the
    fan's, and the other ray columns and the hits table the observation's
    own.  ``cut`` is the memory excerpt (``MemoryGraph.cut``) whose text is
    ``memory_text``; its nodes become the memory records, in its order.
    """
    return RequestContext(
        session_id=session_id, step=obs.step, goal_text=goal.text, goal=goal,
        pose=(obs.pose.x, obs.pose.y, math.degrees(obs.pose.heading)),
        theta_deg=obs.fan.degrees, distance_m=obs.depths, hit=obs.hit, hits=obs.hits,
        memory_text=memory_text,
        memory=tuple(WireNode(n.name, tuple(sorted(n.attributes)), n.location)
                     for n in cut if isinstance(n, MemoryNode)),
        constraints=constraints)


def _wire_candidates(cands: CandidateSet) -> Tuple[WireCandidate, ...]:
    return tuple(WireCandidate(c.id, c.r, math.degrees(c.theta)) for c in cands.candidates)


def make_filter_request(ctx: RequestContext, candidates: CandidateSet) -> DecisionRequest:
    # answerable, but never sent by the policy: the score reply carries the filter
    return DecisionRequest(FILTER, ctx, _wire_candidates(candidates), TEMPLATES["filter"])


def make_score_request(ctx: RequestContext, candidates: CandidateSet) -> DecisionRequest:
    return DecisionRequest(SCORE, ctx, _wire_candidates(candidates), TEMPLATES[ctx.goal.kind])


def make_stop_request(ctx: RequestContext) -> DecisionRequest:
    # for a step with no candidate to score: no candidates attached
    return DecisionRequest(STOP_CHECK, ctx, (), TEMPLATES["stop"])
