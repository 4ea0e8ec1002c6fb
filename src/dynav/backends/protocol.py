"""Wire protocol between the navigation policy and decision backends.

Requests and responses are JSON with angles in degrees and distances in
meters; both directions carry ``version: "dynav/1"``.  Four request kinds
exist: ``filter`` (prune/nudge candidates), ``score`` (rate candidates and
optionally emit memory operations), ``stop_check`` (rate stop confidence on
the raw, un-annotated observation), and ``memory_extract`` (memory operations
only).
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SchemaViolation
from ..proposer import CandidateSet
from ..sensing import Observation

log = logging.getLogger(__name__)

PROTOCOL_VERSION = "dynav/1"

FILTER = "filter"
SCORE = "score"
STOP_CHECK = "stop_check"
MEMORY_EXTRACT = "memory_extract"
KINDS = (FILTER, SCORE, STOP_CHECK, MEMORY_EXTRACT)

TEMPLATES = {
    "name": "goal-name/1",
    "description": "goal-description/1",
    "instance": "goal-instance/1",
    "stop": "stop-check/1",
    "filter": "filter/1",
    "memory": "memory-extract/1",
}


@dataclass(frozen=True)
class RequestContext:
    """Per-step identity and text shared by every request of that step."""

    session_id: str
    step: int
    goal_text: str
    memory_text: str = ""
    constraints: Tuple[str, ...] = ()


@dataclass(frozen=True)
class WireRay:
    theta_deg: float
    distance_m: float
    label: Optional[str]
    attributes: Tuple[str, ...] = ()
    tags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class WireCandidate:
    id: int
    r_m: float
    theta_deg: float


@dataclass(frozen=True)
class DecisionRequest:
    version: str
    kind: str
    session_id: str
    step: int
    goal_text: str
    pose: Tuple[float, float, float]  # x_m, y_m, heading_deg
    rays: Tuple[WireRay, ...]
    candidates: Tuple[WireCandidate, ...]
    memory_text: str
    constraints: Tuple[str, ...]
    template_id: str

    def candidate_ids(self) -> Tuple[int, ...]:
        return tuple(c.id for c in self.candidates)

    def to_dict(self) -> dict:
        return {**self._head(), "observation": {"pose": self._pose(), "rays": self._rays()},
                **self._tail()}

    # to_dict in three parts, so that encode_request can reuse an encoded
    # observation; the order of the keys is the order on the wire
    def _head(self) -> dict:
        return {"version": self.version, "kind": self.kind, "session_id": self.session_id,
                "step": self.step, "goal_text": self.goal_text}

    def _pose(self) -> dict:
        return {"x_m": self.pose[0], "y_m": self.pose[1], "heading_deg": self.pose[2]}

    def _rays(self) -> list:
        return [{"theta_deg": r.theta_deg, "distance_m": r.distance_m, "label": r.label,
                 "attributes": list(r.attributes), "tags": list(r.tags)}
                for r in self.rays]

    def _tail(self) -> dict:
        d = {"memory_text": self.memory_text, "constraints": list(self.constraints),
             "template_id": self.template_id}
        if self.kind in (FILTER, SCORE):
            d["candidates"] = [{"id": c.id, "r_m": c.r_m, "theta_deg": c.theta_deg}
                               for c in self.candidates]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionRequest":
        try:
            d = _object(d, "request")
            if d.get("version") != PROTOCOL_VERSION:
                raise SchemaViolation(f"bad request version: {d.get('version')!r}")
            kind = d["kind"]
            if kind not in KINDS:
                raise SchemaViolation(f"unknown request kind: {kind!r}")
            obs = d["observation"]
            pose = (float(obs["pose"]["x_m"]), float(obs["pose"]["y_m"]),
                    float(obs["pose"]["heading_deg"]))
            # r["theta_deg"] comes first: anything but an object fails there
            rays = tuple(
                WireRay(float(r["theta_deg"]), float(r["distance_m"]), r.get("label"),
                        tuple(r.get("attributes", ())), tuple(r.get("tags", ())))
                for r in obs["rays"]
            )
            cands = tuple(
                WireCandidate(int(c["id"]), float(c["r_m"]), float(c["theta_deg"]))
                for c in d.get("candidates", ())
            )
            if kind in (FILTER, SCORE) and not cands:
                raise SchemaViolation(f"{kind} requests must carry at least one candidate")
            return cls(
                version=d["version"], kind=kind, session_id=str(d["session_id"]),
                step=int(d["step"]), goal_text=str(d.get("goal_text", "")), pose=pose,
                rays=rays, candidates=cands, memory_text=str(d.get("memory_text", "")),
                constraints=tuple(d.get("constraints", ())),
                template_id=str(d.get("template_id", "")),
            )
        except SchemaViolation:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise SchemaViolation(f"bad request payload: {e}") from e


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolation(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaViolation(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def _strings(value, what: str) -> Tuple[str, ...]:
    if not all(isinstance(v, str) for v in _list(value, what)):
        raise SchemaViolation(f"{what} must be a list of strings")
    return tuple(value)


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
    version: str = PROTOCOL_VERSION
    kind: str = SCORE
    removals: Tuple[int, ...] = ()
    adjustments: Tuple[dict, ...] = ()       # {"id", "r_m", "theta_deg"}
    scores: Dict[int, float] = field(default_factory=dict)
    s_stop: float = 0.0
    memory_ops: Tuple[MemoryOp, ...] = ()
    rationale: str = ""

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "kind": self.kind,
            "removals": list(self.removals),
            "adjustments": [dict(a) for a in self.adjustments],
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


def _location(loc) -> Optional[Tuple[float, float]]:
    """A memory op's ``location_m``: null, or two finite numbers."""
    if loc is None:
        return None
    if not (isinstance(loc, list) and len(loc) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in loc)):
        raise SchemaViolation("memory op location_m must be null or a list of two numbers")
    x, y = float(loc[0]), float(loc[1])
    # json accepts NaN and Infinity; neither is a place
    if not (math.isfinite(x) and math.isfinite(y)):
        raise SchemaViolation(f"memory op location is not finite: {(x, y)}")
    return x, y


def parse_response(payload: dict, request: DecisionRequest) -> DecisionResponse:
    """Validate a raw response dict against its request and normalize it.

    Out-of-range scores are clamped with a warning; structural problems
    (wrong version, kind mismatch, unknown candidate ids, malformed fields)
    raise SchemaViolation.
    """
    if not isinstance(payload, dict):
        raise SchemaViolation("response must be a JSON object")
    if payload.get("version") != PROTOCOL_VERSION:
        raise SchemaViolation(f"bad response version: {payload.get('version')!r}")
    kind = payload.get("kind")
    if kind != request.kind:
        raise SchemaViolation(f"response kind {kind!r} does not match request {request.kind!r}")
    known = set(request.candidate_ids())
    try:
        removals = tuple(int(i) for i in _list(payload.get("removals", []), "removals"))
        adjustments = []
        for a in _list(payload.get("adjustments", []), "adjustments"):
            adjustments.append({"id": int(a["id"]),
                                "r": float(a["r_m"]),
                                "theta": math.radians(float(a["theta_deg"]))})
        scores: Dict[int, float] = {}
        for entry in _list(payload.get("scores", []), "scores"):
            scores[int(entry["id"])] = _clamp_unit(float(entry["s"]), "score")
        s_stop = _clamp_unit(float(payload.get("s_stop", 0.0)), "s_stop")
        ops: List[MemoryOp] = []
        for raw in _list(payload.get("memory_ops", []), "memory_ops"):
            raw = _object(raw, "memory op")
            op = raw.get("op")
            if op == "add_node":
                ops.append(MemoryOp(op="add_node", name=str(raw["name"]),
                                    attributes=_strings(raw.get("attributes", []),
                                                        "memory op attributes"),
                                    location=_location(raw.get("location_m"))))
            elif op == "add_edge":
                ops.append(MemoryOp(op="add_edge", start=str(raw["start"]),
                                    target=str(raw["target"]), relation=str(raw["relation"])))
            else:
                raise SchemaViolation(f"unknown memory op: {op!r}")
    except SchemaViolation:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaViolation(f"bad response payload: {e}") from e

    for i in removals:
        if i not in known:
            raise SchemaViolation(f"removal references unknown candidate id {i}")
    for a in adjustments:
        if a["id"] not in known:
            raise SchemaViolation(f"adjustment references unknown candidate id {a['id']}")
    for i in scores:
        if i not in known:
            raise SchemaViolation(f"score references unknown candidate id {i}")
    return DecisionResponse(
        version=PROTOCOL_VERSION, kind=kind, removals=removals,
        adjustments=tuple(adjustments), scores=scores, s_stop=s_stop,
        memory_ops=tuple(ops), rationale=str(payload.get("rationale", "")),
    )


# -- wire encoding -----------------------------------------------------------

_encode = json.JSONEncoder(allow_nan=False).encode


def encode_request(req: DecisionRequest, memo: Optional[list] = None) -> bytes:
    """The request body: ``json.dumps(req.to_dict(), allow_nan=False).encode()``,
    byte for byte.

    ``memo`` is a caller-owned list ``[rays, text]`` holding the last rays tuple
    encoded and its JSON text.  A request carrying that same tuple reuses the
    text, so the requests of one step, which share one rays tuple, encode the
    ray fan once.  Raises SchemaViolation on a non-finite number.
    """
    try:
        if memo is not None and memo[0] is req.rays:
            rays = memo[1]
        else:
            rays = _encode(req._rays())
            if memo is not None:
                memo[:] = [req.rays, rays]
        head, tail = _encode(req._head()), _encode(req._tail())
        text = (f'{head[:-1]}, "observation": {{"pose": {_encode(req._pose())}, '
                f'"rays": {rays}}}, {tail[1:]}')
    except (TypeError, ValueError) as e:
        raise SchemaViolation(f"request cannot be encoded: {e}") from e
    return text.encode()


# -- request builders --------------------------------------------------------

def _wire_rays(obs: Observation) -> Tuple[WireRay, ...]:
    """The observation's rays in wire form.

    Every request of a step carries the same rays, so they are converted once
    and kept on the (immutable) observation.
    """
    rays = getattr(obs, "_wire_rays", None)
    if rays is None:
        rays = tuple(
            WireRay(math.degrees(r.theta), r.depth, r.hit.label, tuple(r.hit.attributes),
                    tuple(sorted(r.hit.tags)))
            if r.hit is not None and r.hit.kind == "object"
            else WireRay(math.degrees(r.theta), r.depth, r.hit.label if r.hit else None)
            for r in obs.rays)
        object.__setattr__(obs, "_wire_rays", rays)
    return rays


def _wire_candidates(cands: CandidateSet) -> Tuple[WireCandidate, ...]:
    return tuple(WireCandidate(c.id, c.r, math.degrees(c.theta)) for c in cands.candidates)


def _base(ctx: RequestContext, obs: Observation, kind: str,
          candidates: Tuple[WireCandidate, ...], template_id: str) -> DecisionRequest:
    return DecisionRequest(
        version=PROTOCOL_VERSION, kind=kind, session_id=ctx.session_id, step=ctx.step,
        goal_text=ctx.goal_text,
        pose=(obs.pose.x, obs.pose.y, math.degrees(obs.pose.heading)),
        rays=_wire_rays(obs), candidates=candidates, memory_text=ctx.memory_text,
        constraints=ctx.constraints, template_id=template_id,
    )


def make_filter_request(ctx: RequestContext, obs: Observation,
                        candidates: CandidateSet) -> DecisionRequest:
    return _base(ctx, obs, FILTER, _wire_candidates(candidates), TEMPLATES["filter"])


def make_score_request(ctx: RequestContext, obs: Observation, candidates: CandidateSet,
                       template_id: str) -> DecisionRequest:
    return _base(ctx, obs, SCORE, _wire_candidates(candidates), template_id)


def make_stop_request(ctx: RequestContext, obs: Observation) -> DecisionRequest:
    # stop confidence is judged on the raw observation: no candidates attached
    return _base(ctx, obs, STOP_CHECK, (), TEMPLATES["stop"])


def make_memory_request(ctx: RequestContext, obs: Observation) -> DecisionRequest:
    return _base(ctx, obs, MEMORY_EXTRACT, (), TEMPLATES["memory"])
