"""Wire protocol serialization plus the HTTP client against the scriptable stub."""
import base64
import http.client
import json
import logging
import math
import random
import select
import socket
import struct
import threading
import time
from contextlib import closing
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynav.backends.oracle import OracleBackend
from dynav.backends.protocol import (
    FILTER,
    KINDS,
    PROTOCOL_VERSION,
    SCORE,
    STOP_CHECK,
    TEMPLATES,
    DecisionRequest,
    DecisionResponse,
    MemoryOp,
    RequestContext,
    WireCandidate,
    WireNode,
    encode_request,
    make_filter_request,
    make_score_request,
    make_stop_request,
    parse_response,
    request_context,
)
from dynav import cli
from dynav.backends import protocol, remote
from dynav.backends.remote import MAX_HEADERS, MAX_LINE, BackendConfig, RemoteBackend
from dynav.backends.server import POLL_INTERVAL_S, DecisionServer
from dynav.config import RunConfig
from dynav.episodes import EpisodeSpec, run_episode
from dynav.errors import BindFailure, RequestTimeout, SchemaViolation, TransportError
from dynav.geometry import AgentBody
from dynav.goals import DESCRIPTION, INSTANCE, NAME, GoalSpec
from dynav.memory import MemoryNode, render
from dynav.policy import AgentState, step
from dynav.proposer import Adjustment, Candidate, CandidateSet
from dynav.sensing import sense
from dynav.worldgen import WorldGenSpec, generate_world, random_free_pose

from conftest import (MISSING, Row, boundary_of, dotted, has_words, json_values, make_pose,
                      packed, rays_of, replaced, replacements, run_python, unpacked, with_rays)


CHAIR = GoalSpec.name_goal("chair")


def make_req(kind=SCORE, step=0, n_cands=2, rays=(), pose=(1.0, 2.0, 30.0), memory=()):
    cands = tuple(WireCandidate(i + 1, 2.0 + i, 10.0 * i) for i in range(n_cands))
    if kind == STOP_CHECK:
        cands = ()
    ctx = with_rays(RequestContext, rays, session_id="s1", step=step, goal_text="chair",
                    goal=CHAIR, pose=pose, memory=memory)
    return DecisionRequest(kind, ctx, cands, "goal-name/3")


def ok_body(**extra):
    body = {"version": PROTOCOL_VERSION, "kind": SCORE}
    body.update(extra)
    return body


# -- request serialization ---------------------------------------------------------


def test_score_request_golden(plant_world, body):
    obs = sense(plant_world, make_pose(5.0, 4.0, 0.0), body, n_rays=3, step=4)
    cands = CandidateSet((Candidate(1, 2.16, 0.0),), alpha=0.8, theta_delta=math.radians(15))
    cut = [MemoryNode("plant_1", ("green", "potted"), (8.0, 4.0)), MemoryNode("pot_1")]
    ctx = request_context(obs, "ep1", GoalSpec.name_goal("plant"), render(cut), cut,
                          ("keep right",))
    d = make_score_request(ctx, cands).to_dict()
    assert d["version"] == "dynav/6"
    assert d["kind"] == "score"
    assert d["session_id"] == "ep1" and d["step"] == 4
    assert d["goal_text"] == "plant"
    assert d["goal"] == {"kind": "name", "category": "plant", "attributes": []}
    assert d["memory_text"] == "plant_1 (green, potted) at (8.0, 4.0). pot_1."
    assert d["memory"] == [
        {"name": "plant_1", "attributes": ["green", "potted"], "location_m": [8.0, 4.0]},
        {"name": "pot_1", "attributes": [], "location_m": None}]
    assert list(d) == ["version", "kind", "session_id", "step", "goal_text", "goal",
                       "observation", "memory_text", "memory", "constraints", "template_id",
                       "candidates"]
    assert d["constraints"] == ["keep right"]
    assert d["template_id"] == "goal-name/3"
    pose = d["observation"]["pose"]
    assert pose == {"x_m": 5.0, "y_m": 4.0, "heading_deg": 0.0}
    rays, hits = d["observation"]["rays"], d["observation"]["hits"]
    assert set(rays) == {"theta_deg", "distance_m", "hit"}
    # the bearings and distances travel packed, as the context holds them
    assert rays["theta_deg"] == packed(ctx.theta_deg)
    assert rays["distance_m"] == packed(ctx.distance_m)
    thetas, dists = unpacked(rays["theta_deg"]), unpacked(rays["distance_m"])
    assert thetas == pytest.approx([-65.5, 0.0, 65.5])
    # the two walls share the table's first entry, the plant is its second
    assert rays["hit"] == [0, 1, 0]
    assert thetas[1] == 0.0 and dists[1] == pytest.approx(2.7)
    assert hits[rays["hit"][1]] == {"label": "plant_1", "attributes": ["green"], "tags": []}
    assert hits[rays["hit"][0]] == {"label": "wall", "attributes": [], "tags": []}
    assert dists[0] == pytest.approx(3.9 / math.sin(math.radians(65.5)))
    assert d["candidates"] == [{"id": 1, "r_m": 2.16, "theta_deg": 0.0}]


def test_stop_requests_have_no_candidates(plant_world, body):
    obs = sense(plant_world, make_pose(5.0, 4.0, 0.0), body, n_rays=3)
    cands = CandidateSet((Candidate(1, 2.0, 0.0),), 0.8, 0.1)
    ctx = request_context(obs, session_id="s", goal=GoalSpec.name_goal("plant"))
    stop = make_stop_request(ctx)
    filt = make_filter_request(ctx, cands)
    assert stop.kind == STOP_CHECK and "candidates" not in stop.to_dict()
    assert filt.kind == FILTER and filt.to_dict()["candidates"]
    assert stop.template_id == "stop-check/1"
    # the requests of one step hold its one context
    assert stop.context is filt.context is ctx


def test_prompt_bundle_holds_one_text_per_template():
    prompts = Path(__file__).resolve().parent.parent / "docs" / "prompts"
    files = {p.name: p.read_text() for p in prompts.glob("*.txt")}
    assert sorted(files) == sorted(f"{t.replace('/', '-')}.txt" for t in TEMPLATES.values())
    for template in TEMPLATES.values():
        text = files[f"{template.replace('/', '-')}.txt"]
        assert text.startswith(f"template_id: {template}\n")
        # a score reply carries the filter and rates stop confidence too, so
        # its prompt asks for removals, adjustments and s_stop
        if template.startswith("goal-"):
            assert "{candidates}" in text and "{constraints}" in text
            assert all(key in text for key in ("removals", "adjustments", "s_stop"))


def test_wire_rays_match_a_per_ray_conversion(cluttered_world, body):
    obs = sense(cluttered_world, make_pose(7.5, 5.0, 0.0), body, n_rays=61)
    assert any(r.attributes for r in rays_of(obs)) and any(r.label == "wall" for r in rays_of(obs))
    rays = rays_of(request_context(obs, session_id="s", goal=CHAIR))
    assert len(rays) == obs.n_rays
    for wire, r in zip(rays, rays_of(obs)):
        assert wire == (math.degrees(r.theta), r.depth, r.label, r.attributes, r.tags)


def test_request_dict_round_trip(plant_world, body):
    obs = sense(plant_world, make_pose(5.0, 4.0, 20.0), body, n_rays=5, step=7)
    cands = CandidateSet((Candidate(1, 2.0, 0.1), Candidate(2, 3.0, 0.4)), 0.8, 0.2)
    cut = [MemoryNode("plant_1", ("green",), (1.0, 2.0))]
    ctx = request_context(obs, session_id="rt", goal=GoalSpec(DESCRIPTION, "plant", ("green",)),
                          memory_text="m", cut=cut, constraints=("c1", "c2"))
    req = make_score_request(ctx, cands)
    again = DecisionRequest.from_dict(json.loads(json.dumps(req.to_dict())))
    assert again == req


def test_request_from_dict_validation():
    good = make_req().to_dict()
    with pytest.raises(SchemaViolation):
        DecisionRequest.from_dict(dict(good, version="dynav/0"))
    with pytest.raises(SchemaViolation):
        DecisionRequest.from_dict(dict(good, kind="mystery"))
    with pytest.raises(SchemaViolation, match="unknown request kind"):
        DecisionRequest.from_dict(dict(make_req(STOP_CHECK).to_dict(), kind="memory_extract"))
    with pytest.raises(SchemaViolation):
        DecisionRequest.from_dict(dict(good, candidates=[]))  # score needs candidates
    with pytest.raises(SchemaViolation):
        DecisionRequest.from_dict({"version": PROTOCOL_VERSION, "kind": SCORE})


@pytest.mark.parametrize("candidates", [[], [{"id": 1, "r_m": 2.0, "theta_deg": 0.0}]],
                         ids=["empty", "one"])
def test_a_stop_check_with_candidates_is_refused(candidates):
    """A stop check omits the candidates key, so its parse is the identity
    on the way back through ``to_dict``; one that carries the key, even an
    empty list, is refused rather than parsed into candidates ``to_dict``
    would drop."""
    stop = make_req(STOP_CHECK).to_dict()
    assert DecisionRequest.from_dict(stop).to_dict() == stop
    with pytest.raises(SchemaViolation, match="stop_check"):
        DecisionRequest.from_dict(dict(stop, candidates=candidates))


@pytest.mark.parametrize("field, value", [
    ("constraints", "avoid"), ("constraints", [1]), ("constraints", None),
    ("session_id", 5), ("session_id", None), ("goal_text", ["chair"]),
    ("memory_text", None), ("template_id", 1), ("goal", "chair"), ("goal", None),
    ("memory", "chair_1"), ("memory", None),
])
def test_request_from_dict_refuses_mistyped_text(field, value):
    with pytest.raises(SchemaViolation, match=field):
        DecisionRequest.from_dict(dict(make_req().to_dict(), **{field: value}))


@pytest.mark.parametrize("path, value", [
    (("observation", "pose", "x_m"), "nan"), (("observation", "pose", "x_m"), math.nan),
    (("observation", "pose", "y_m"), "1e999"), (("observation", "pose", "y_m"), -math.inf),
    (("observation", "pose", "heading_deg"), True), (("observation", "pose", "heading_deg"), None),
    (("step",), 3.7), (("step",), "3"), (("step",), False),
    (("candidates", 0, "id"), 1.0), (("candidates", 0, "id"), "1"),
    (("candidates", 0, "r_m"), "2.0"), (("candidates", 0, "r_m"), math.inf),
    (("candidates", 1, "theta_deg"), math.nan), (("candidates", 1, "theta_deg"), [10.0]),
], ids=lambda v: dotted(v) if isinstance(v, tuple) else repr(v))
def test_request_from_dict_refuses_mistyped_numbers(path, value):
    with pytest.raises(SchemaViolation, match=path[-1]):
        DecisionRequest.from_dict(replaced(make_req().to_dict(), path, value))


# -- response parsing ----------------------------------------------------------------


def test_parse_response_clamps_scores_with_warning(caplog):
    req = make_req()
    with caplog.at_level(logging.WARNING, logger="dynav.backends.protocol"):
        resp = parse_response(ok_body(scores=[{"id": 1, "s": 1.7}, {"id": 2, "s": -0.2}]), req)
    assert resp.scores == {1: 1.0, 2: 0.0}
    assert any("clamped" in r.message for r in caplog.records)


def test_parse_response_structural_errors():
    req = make_req()
    with pytest.raises(SchemaViolation):
        parse_response("not a dict", req)
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(version="dynav/0"), req)
    with pytest.raises(SchemaViolation):
        parse_response({"version": PROTOCOL_VERSION, "kind": STOP_CHECK}, req)  # kind mismatch
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(scores=[{"id": 99, "s": 0.5}]), req)  # unknown id
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(removals=[99]), req)
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(adjustments=[{"id": 99, "r_m": 1.0, "theta_deg": 0.0}]), req)
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(scores=[{"id": 1, "s": "high"}]), req)
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(memory_ops=[{"op": "forget_everything"}]), req)
    with pytest.raises(SchemaViolation, match="more than one score names candidate id 1"):
        parse_response(ok_body(scores=[{"id": 1, "s": 0.9}, {"id": 1, "s": 0.1}]), req)
    with pytest.raises(SchemaViolation, match="more than one adjustment names candidate id 2"):
        parse_response(ok_body(adjustments=[{"id": 2, "r_m": 1.0, "theta_deg": 0.0},
                                            {"id": 2, "r_m": 1.5, "theta_deg": 1.0}]), req)


def test_parse_response_memory_ops_and_defaults():
    req = make_req()
    resp = parse_response(ok_body(memory_ops=[
        {"op": "add_node", "name": "chair_1", "attributes": ["red"], "location_m": [1.0, 2.0]},
        {"op": "add_node", "name": "noise"},
        {"op": "add_edge", "start": "chair_1", "target": "table_1", "relation": "next to"},
    ]), req)
    assert resp.s_stop == 0.0  # omitted field defaults
    assert resp.removals == () and resp.adjustments == ()
    node, bare, edge = resp.memory_ops
    assert node.location == (1.0, 2.0) and node.attributes == ("red",)
    assert bare.location is None
    assert edge.relation == "next to"
    # adjustments arrive in degrees and are converted to radians
    resp = parse_response(ok_body(adjustments=[{"id": 1, "r_m": 1.5, "theta_deg": 45.0}]), req)
    assert resp.adjustments[0].theta == pytest.approx(math.pi / 4)
    assert resp.adjustments[0].r == 1.5


@pytest.mark.parametrize("location", ["[NaN, 1.0]", "[1.0, Infinity]", "[-Infinity, NaN]"])
def test_parse_response_rejects_non_finite_locations(location):
    # Python's json reads NaN and Infinity; a memory node must not store them
    payload = json.loads('{"version": "dynav/6", "kind": "score", "memory_ops": '
                         '[{"op": "add_node", "name": "chair_9", "location_m": %s}]}' % location)
    with pytest.raises(SchemaViolation, match="not finite"):
        parse_response(payload, make_req())


@pytest.mark.parametrize("field, body", [
    ("score id", {"scores": [{"id": 1.7, "s": 0.5}]}),
    ("score id", {"scores": [{"id": True, "s": 0.5}]}),
    ("score id", {"scores": [{"id": "2", "s": 0.5}]}),
    ("score", {"scores": [{"id": 1, "s": "0.5"}]}),
    ("score", {"scores": [{"id": 1, "s": math.nan}]}),
    ("score", {"scores": [{"id": 2, "s": math.inf}]}),
    ("s_stop", {"s_stop": "1e999"}),
    ("s_stop", {"s_stop": -math.inf}),
    ("s_stop", {"s_stop": math.nan}),
    ("s_stop", {"s_stop": True}),
    ("removal id", {"removals": [1.0]}),
    ("removal id", {"removals": [True]}),
    ("removal id", {"removals": ["2"]}),
    ("adjustment id", {"adjustments": [{"id": 2.0, "r_m": 1.0, "theta_deg": 0.0}]}),
    ("adjustment id", {"adjustments": [{"id": False, "r_m": 1.0, "theta_deg": 0.0}]}),
    ("adjustment r_m", {"adjustments": [{"id": 1, "r_m": "1.5", "theta_deg": 0.0}]}),
    ("adjustment r_m", {"adjustments": [{"id": 1, "r_m": math.inf, "theta_deg": 0.0}]}),
    ("adjustment theta_deg", {"adjustments": [{"id": 1, "r_m": 1.0, "theta_deg": math.nan}]}),
    ("adjustment theta_deg", {"adjustments": [{"id": 1, "r_m": 1.0, "theta_deg": "45"}]}),
], ids=repr)
def test_parse_response_refuses_mistyped_numbers(field, body):
    # int() and float() would read each of these as a valid id or number
    with pytest.raises(SchemaViolation, match=field):
        parse_response(ok_body(**body), make_req())


# -- HTTP client against the decision server -----------------------------------------


def test_remote_round_trip_records_request():
    script = [{"kind": "score", "scores_all": 0.5,
               "body": {"rationale": "canned"}}]
    with DecisionServer(script=script) as stub:
        cfg = BackendConfig(endpoint=stub.endpoint, timeout_ms=2000)
        with closing(RemoteBackend(cfg)) as backend:
            resp = backend.decide(make_req(step=3))
        assert resp.scores == {1: 0.5, 2: 0.5}
        assert resp.rationale == "canned"
        assert len(stub.requests) == 1
        seen = stub.requests[0]
        assert seen["version"] == "dynav/6"
        assert seen["step"] == 3
        # the recorded payload parses back into the identical request
        assert DecisionRequest.from_dict(seen) == make_req(step=3)


def test_a_dynav_4_server_is_refused_at_once():
    # a dynav/4 server reads the goal and the remembered objects by parsing
    # goal_text and memory_text, which are prompt text only and misread some
    # names: its first reply is refused, and not retried
    script = [{"kind": "score", "scores_all": 0.5, "body": {"version": "dynav/4"}}]
    with DecisionServer(script=script) as stub:
        with closing(RemoteBackend(BackendConfig(endpoint=stub.endpoint))) as backend:
            with pytest.raises(SchemaViolation, match="bad response version: 'dynav/4'"):
                backend.decide(make_req())
        assert len(stub.requests) == 1


def test_a_dynav_5_server_is_refused_at_once():
    # a dynav/5 server reads the bearings and distances as lists of numbers,
    # not as the packed columns this client sends
    script = [{"kind": "score", "scores_all": 0.5, "body": {"version": "dynav/5"}}]
    with DecisionServer(script=script) as stub:
        with closing(RemoteBackend(BackendConfig(endpoint=stub.endpoint))) as backend:
            with pytest.raises(SchemaViolation, match="bad response version: 'dynav/5'"):
                backend.decide(make_req())
        assert len(stub.requests) == 1


def test_remote_timeout_retries_then_raises(monkeypatch):
    script = [{"kind": "score", "delay_ms": 400, "scores_all": 0.5}]
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    with DecisionServer(script=script) as stub:
        cfg = BackendConfig(endpoint=stub.endpoint, timeout_ms=100, max_retries=2)
        with closing(RemoteBackend(cfg)) as backend, pytest.raises(RequestTimeout):
            backend.decide(make_req())
        assert len(stub.requests) == 3  # initial try plus two retries
    assert sleeps == [0.25, 0.5]  # exponential backoff


class FakeConnection:
    """Stands in for ``remote.Connection``: answers each ``post`` with the
    next ``(status, body)`` pair, or raises it when it is an exception."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []

    def post(self, body, headers):
        self.calls.append({"body": body, "headers": headers})
        out = self.replies.pop(0)
        if isinstance(out, BaseException):
            raise out
        return out


def reply(status, payload=None):
    return status, b"" if payload is None else json.dumps(payload).encode()


def fake_backend(monkeypatch, replies, sleeps=None, **cfg):
    """A RemoteBackend on a FakeConnection answering ``replies``; backoff
    sleeps go to ``sleeps`` instead of the clock."""
    conn = FakeConnection(replies)
    monkeypatch.setattr(remote, "Connection", lambda cfg: conn)
    monkeypatch.setattr(time, "sleep", [].append if sleeps is None else sleeps.append)
    return RemoteBackend(BackendConfig(endpoint="http://x/decide", **cfg)), conn


def test_remote_retries_5xx_then_succeeds(monkeypatch):
    ok = reply(200, ok_body(scores=[{"id": 1, "s": 0.9}, {"id": 2, "s": 0.1}]))
    backend, conn = fake_backend(monkeypatch, [reply(500), ok], max_retries=2)
    resp = backend.decide(make_req())
    assert resp.scores[1] == 0.9
    assert len(conn.calls) == 2
    # the retry sends the same encoded body
    assert conn.calls[0]["body"] == conn.calls[1]["body"] == encode_request(make_req())


def test_remote_exhausts_retries_on_5xx(monkeypatch):
    backend, conn = fake_backend(monkeypatch, [reply(503)] * 3, max_retries=2)
    with pytest.raises(TransportError):
        backend.decide(make_req())
    assert len(conn.calls) == 3


def test_remote_4xx_is_not_retried(monkeypatch):
    backend, conn = fake_backend(monkeypatch, [reply(404)], max_retries=5)
    with pytest.raises(SchemaViolation):
        backend.decide(make_req())
    assert len(conn.calls) == 1


def test_remote_3xx_is_not_followed(monkeypatch):
    backend, conn = fake_backend(monkeypatch, [(302, b"")], max_retries=5)
    with pytest.raises(SchemaViolation, match="302"):
        backend.decide(make_req())
    assert len(conn.calls) == 1


def test_remote_bad_schema_is_not_retried(monkeypatch):
    backend, conn = fake_backend(
        monkeypatch, [reply(200, {"version": "dynav/0", "kind": SCORE})], max_retries=5)
    with pytest.raises(SchemaViolation):
        backend.decide(make_req())
    assert len(conn.calls) == 1


def test_remote_transport_failures_are_retried(monkeypatch):
    ok = reply(200, ok_body(scores=[{"id": 1, "s": 0.5}, {"id": 2, "s": 0.5}]))
    sleeps = []
    backend, conn = fake_backend(monkeypatch, [ConnectionResetError(104, "reset"),
                                               http.client.RemoteDisconnected("closed"), ok],
                                 sleeps, max_retries=2)
    assert backend.decide(make_req()).scores[1] == 0.5
    assert sleeps == [0.25, 0.5]
    backend, conn = fake_backend(
        monkeypatch, [TimeoutError()] * 2 + [ConnectionRefusedError(111, "refused")],
        max_retries=2)
    with pytest.raises(TransportError, match="refused"):
        backend.decide(make_req())
    backend, conn = fake_backend(monkeypatch, [TimeoutError()] * 3, max_retries=2)
    with pytest.raises(RequestTimeout):
        backend.decide(make_req())


def test_non_finite_request_is_never_sent(monkeypatch):
    backend, conn = fake_backend(monkeypatch, [])
    req = make_req(pose=(math.nan, 2.0, 30.0))
    with pytest.raises(SchemaViolation, match="encoded"):
        backend.decide(req)
    assert conn.calls == []


@pytest.mark.parametrize("column", ["theta_deg", "distance_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "1.0", 2, True],
                         ids=repr)
def test_a_packed_column_of_anything_but_finite_floats_is_never_sent(monkeypatch, column,
                                                                      value):
    # struct would pack an integer or a bool as a float and refuse None or a
    # string with struct.error; the encoder refuses each before packing
    backend, conn = fake_backend(monkeypatch, [])
    ctx = replace(VALID_REQ.context, **{column: (1.0, value, 2.0)})
    with pytest.raises(SchemaViolation, match=f"encoded: ray {column} must hold finite floats"):
        backend.decide(replace(VALID_REQ, context=ctx))
    assert conn.calls == []


def test_remote_non_json_body_raises():
    script = [{"kind": "score", "raw_body": "{not json"}]
    with DecisionServer(script=script) as stub:
        cfg = BackendConfig(endpoint=stub.endpoint)
        with closing(RemoteBackend(cfg)) as backend, pytest.raises(SchemaViolation):
            backend.decide(make_req())


def test_remote_unscripted_kind_is_schema_error():
    with DecisionServer(script=[]) as stub:
        cfg = BackendConfig(endpoint=stub.endpoint)
        with closing(RemoteBackend(cfg)) as backend, pytest.raises(SchemaViolation):
            backend.decide(make_req())


def test_remote_sends_bearer_token(monkeypatch):
    monkeypatch.setenv("DYNAV_TOKEN", "sesame")
    ok = reply(200, ok_body(scores=[{"id": 1, "s": 0.5}, {"id": 2, "s": 0.5}]))
    backend, conn = fake_backend(monkeypatch, [ok])
    backend.decide(make_req())
    assert conn.calls[0]["headers"]["Authorization"] == "Bearer sesame"
    assert conn.calls[0]["headers"]["Content-Type"] == "application/json"


def test_remote_backend_class_and_scripted_stop():
    # a wildcard score plus an exact stop_check at step 5 drives a stop
    script = [
        {"kind": "score", "scores_all": 0.4},
        {"kind": "stop_check", "body": {"s_stop": 0.0}},
        {"kind": "stop_check", "step": 5, "body": {"s_stop": 0.95}},
    ]
    with DecisionServer(script=script) as stub:
        backend = RemoteBackend(BackendConfig(endpoint=stub.endpoint))
        try:
            early = backend.decide(make_req(kind=STOP_CHECK, step=2))
            late = backend.decide(make_req(kind=STOP_CHECK, step=5))
            assert early.s_stop == 0.0
            assert late.s_stop == 0.95
        finally:
            backend.close()


def test_stub_rejects_double_bind():
    with DecisionServer() as stub:
        with pytest.raises(BindFailure):
            DecisionServer(port=stub.port)


UNUSABLE_BODIES = [b"{not json", b"[]", b'{"kind": "score", "step": "x"}',
                   b'{"kind": "score", "step": 1, "candidates": [5]}']


@pytest.mark.parametrize("script", [None, [{"kind": "score", "scores_all": 0.5}]],
                         ids=["oracle", "script"])
def test_server_answers_an_unusable_body_with_400_on_the_same_connection(script):
    req = make_req(step=1)
    with DecisionServer(script=script) as server, closing(
            http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)) as conn:

        def post(body):
            conn.request("POST", "/decide", body)
            reply = conn.getresponse()
            return reply.status, json.loads(reply.read())

        assert post(encode_request(req))[0] == 200
        sock = conn.sock
        for body in UNUSABLE_BODIES:
            status, reply = post(body)
            assert status == 400 and reply["error"]
            assert conn.sock is sock
        status, reply = post(encode_request(req))
        assert status == 200 and parse_response(reply, req).kind == SCORE
        assert conn.sock is sock
        # where the body ends is unknown, so the server hangs up after answering
        conn.request("POST", "/decide", b"{}", headers={"Content-Length": "x"})
        reply = conn.getresponse()
        assert reply.status == 400 and reply.will_close and json.loads(reply.read())["error"]


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://x", timeout_ms=0)
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://x", max_retries=-1)
    for bad in ("ftp://x/decide", "localhost:8080/decide", "http:///decide", "http://x:port/"):
        with pytest.raises(ValueError):
            BackendConfig(endpoint=bad)
    BackendConfig(endpoint="https://[::1]:8443/decide?v=1")


def test_an_endpoint_that_cannot_be_a_request_target_is_refused():
    # the path and query go into the request line as they are
    for bad in ("http://x/a b", "http://x/d\u00e9cide", "http://x/decide?q=\x01"):
        with pytest.raises(ValueError, match="printable ASCII"):
            BackendConfig(endpoint=bad)
    BackendConfig(endpoint="http://x/a%20b?q=%C3%A9")


# -- malformed replies ---------------------------------------------------------------


@pytest.mark.parametrize("ops", [
    [5],
    ["add_node"],
    [{"op": "add_node", "name": "a", "location_m": [1]}],
    [{"op": "add_node", "name": "a", "location_m": [1.0, 2.0, 3.0]}],
    [{"op": "add_node", "name": "a", "location_m": "ab"}],
    [{"op": "add_node", "name": "a", "location_m": [True, 1.0]}],
    [{"op": "add_node", "name": "a", "location_m": ["1", "2"]}],
    [{"op": "add_node", "name": "a", "attributes": [["red"]]}],
    {"op": "add_node", "name": "a"},
    [{"op": "add_node", "name": None}],
    [{"op": "add_node", "name": 7}],
    [{"op": "add_edge", "start": "a", "target": "b", "relation": ["near"]}],
    [{"op": "add_edge", "start": None, "target": "b", "relation": "near"}],
    [{"op": "add_edge", "start": "a", "target": 2, "relation": "near"}],
])
def test_parse_response_rejects_malformed_memory_ops(ops):
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(memory_ops=ops), make_req())


# memory records and goals that a request's parser refuses; a record is
# checked as a reply's add_node op is
@pytest.mark.parametrize("field, value", [
    ("memory", [5]), ("memory", ["chair_1"]), ("memory", {"name": "a"}),
    ("memory", [{"attributes": ["red"]}]),
    ("memory", [{"name": "a", "location_m": [1]}]),
    ("memory", [{"name": "a", "location_m": [1.0, math.nan]}]),
    ("memory", [{"name": "a", "location_m": ["1", "2"]}]),
    ("memory", [{"name": "a", "attributes": "red"}]),
    ("memory", [{"name": "a", "attributes": [["red"]]}]),
    ("memory", [{"name": None}]),
    ("goal", {"kind": "name"}),
    ("goal", {"kind": "name", "category": "chair", "text": "the chair"}),
    ("goal", {"kind": "instance", "attributes": "red"}),
    ("goal", {"kind": "instance", "attributes": [""]}),
    ("goal", {"kind": "relation", "category": "chair"}),
    ("goal", ["name", "chair"]),
], ids=repr)
def test_request_from_dict_rejects_malformed_records(field, value):
    with pytest.raises(SchemaViolation):
        DecisionRequest.from_dict(dict(make_req().to_dict(), **{field: value}))


@pytest.mark.parametrize("field, value", [
    ("removals", "12"), ("removals", [1e300]), ("scores", {"id": 1, "s": 0.5}),
    ("scores", [[1, 0.5]]), ("adjustments", [3]), ("s_stop", None),
    # a rationale is text; nothing else is turned into its str()
    ("rationale", [1, 2]), ("rationale", None), ("rationale", {"a": 1}), ("rationale", 5),
    ("rationale", True),
])
def test_parse_response_rejects_malformed_fields(field, value):
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(**{field: value}), make_req())


def test_parse_response_keeps_a_string_rationale():
    assert parse_response(ok_body(rationale="chair ahead"), make_req()).rationale == "chair ahead"
    assert parse_response(ok_body(), make_req()).rationale == ""


def test_response_to_dict_parses_back():
    # a server that answers with to_dict, as the benchmark's does, must be able
    # to send every field, adjustments included
    resp = DecisionResponse(
        kind=SCORE, removals=(1,), adjustments=(Adjustment(2, 1.5, 0.3),),
        scores={1: 0.25, 2: 0.75}, s_stop=0.5, rationale="r",
        memory_ops=(MemoryOp(op="add_node", name="chair_1", attributes=("red",),
                             location=(1.0, 2.0)),
                    MemoryOp(op="add_node", name="lamp_1"),
                    MemoryOp(op="add_edge", start="chair_1", target="lamp_1",
                             relation="near")))
    again = parse_response(json.loads(json.dumps(resp.to_dict())), make_req())
    (adj,) = again.adjustments
    assert adj.id == 2 and adj.r == 1.5
    assert adj.theta == pytest.approx(0.3, abs=1e-12)
    assert replace(again, adjustments=resp.adjustments) == resp


@pytest.mark.parametrize("script", [
    [{"kind": "score"}, 5],
    {"kind": "score"},
    [{"step": 1}],
    [{"kind": "score", "step": "1"}],
    [{"kind": "score", "body": []}],
    [{"kind": "score", "raw_body": 5}],
    [{"kind": "score", "status": "500"}],
    [{"kind": "score", "delay_ms": None}],
    [{"kind": "score", "scores_all": "0.5"}],
])
def test_stub_refuses_a_malformed_script(script):
    with pytest.raises(SchemaViolation):
        DecisionServer(port=0, script=script)


# -- fuzzing the wire parsers --------------------------------------------------------

VALID_RESPONSE = ok_body(
    removals=[1], adjustments=[{"id": 2, "r_m": 1.5, "theta_deg": 5.0}],
    scores=[{"id": 1, "s": 0.5}, {"id": 2, "s": 0.7}], s_stop=0.2, rationale="r",
    memory_ops=[{"op": "add_node", "name": "chair_1", "attributes": ["red"],
                 "location_m": [1.0, 2.0]},
                {"op": "add_edge", "start": "chair_1", "target": "table_1",
                 "relation": "near"}])
# paths into VALID_RESPONSE; a list index is replaced, never removed
RESPONSE_PATHS = [
    ("version",), ("kind",), ("removals",), ("removals", 0), ("adjustments",),
    ("adjustments", 0), ("adjustments", 0, "id"), ("adjustments", 0, "r_m"),
    ("adjustments", 0, "theta_deg"), ("scores",), ("scores", 1), ("scores", 1, "id"),
    ("scores", 1, "s"), ("s_stop",), ("rationale",), ("memory_ops",), ("memory_ops", 0),
    ("memory_ops", 0, "op"), ("memory_ops", 0, "name"), ("memory_ops", 0, "attributes"),
    ("memory_ops", 0, "attributes", 0), ("memory_ops", 0, "location_m"),
    ("memory_ops", 0, "location_m", 1), ("memory_ops", 1), ("memory_ops", 1, "op"),
    ("memory_ops", 1, "start"), ("memory_ops", 1, "relation"),
]


def parses_or_violates(payload):
    try:
        resp = parse_response(payload, make_req())
    except SchemaViolation:
        return
    assert type(resp.rationale) is str
    for op in resp.memory_ops:
        assert all(isinstance(a, str) for a in op.attributes)
        assert op.location is None or all(map(math.isfinite, op.location))


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_parse_response_raises_only_schema_violation(payload):
    parses_or_violates(payload)


@pytest.mark.parametrize("path", RESPONSE_PATHS, ids=dotted)
@settings(max_examples=40, deadline=None)
@given(value=replacements)
def test_parse_response_field_raises_only_schema_violation(path, value):
    if isinstance(path[-1], int) and value is MISSING:
        return
    parses_or_violates(replaced(VALID_RESPONSE, path, value))


VALID_REQ = make_req(rays=(
    Row(-10.0, 2.5, None),
    Row(10.0, 3.0, "chair_1", ("red",), ("hazard",)),
    Row(20.0, 2.0, None)),
    memory=(WireNode("chair_1", ("red",), (3.0, 1.5)), WireNode("chair_2", (), None)))
VALID_REQUEST = VALID_REQ.to_dict()
REQUEST_PATHS = [
    ("version",), ("kind",), ("session_id",), ("step",), ("goal_text",),
    ("observation",), ("observation", "pose"), ("observation", "pose", "x_m"),
    ("observation", "rays"), ("observation", "rays", "theta_deg"),
    ("observation", "rays", "distance_m"), ("observation", "rays", "hit"),
    ("observation", "rays", "hit", 1), ("observation", "hits"), ("observation", "hits", 1),
    ("observation", "hits", 1, "label"), ("observation", "hits", 1, "attributes"),
    ("observation", "hits", 1, "tags"),
    ("candidates",), ("candidates", 0), ("candidates", 0, "id"), ("candidates", 0, "r_m"),
    ("memory_text",), ("constraints",), ("template_id",),
    ("goal",), ("goal", "kind"), ("goal", "category"), ("goal", "attributes"),
    ("memory",), ("memory", 0), ("memory", 0, "name"), ("memory", 0, "attributes"),
    ("memory", 0, "location_m"), ("memory", 1, "location_m"),
]


def parses_or_refuses_request(d):
    """``from_dict(d)`` raises SchemaViolation or gives rays that hold what
    the wire promises: finite floats, a label that is a string or null, and
    attributes and tags that are tuples of strings; and a goal and memory
    records the oracle can read."""
    try:
        req = DecisionRequest.from_dict(d)
    except SchemaViolation:
        return
    assert type(req.context.goal) is GoalSpec
    for name, attributes, location in req.context.memory:
        assert type(name) is str
        assert type(attributes) is tuple and all(type(a) is str for a in attributes)
        assert location is None or (type(location) is tuple and len(location) == 2
                                    and all(type(v) is float and math.isfinite(v)
                                            for v in location))
    for theta, dist, label, attributes, tags in rays_of(req.context):
        assert type(theta) is float and math.isfinite(theta)
        assert type(dist) is float and math.isfinite(dist)
        assert label is None or type(label) is str
        for names in (attributes, tags):
            assert type(names) is tuple and all(type(n) is str for n in names)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_request_from_dict_raises_only_schema_violation(d):
    parses_or_refuses_request(d)


@pytest.mark.parametrize("path", REQUEST_PATHS, ids=dotted)
@settings(max_examples=40, deadline=None)
@given(value=replacements)
def test_request_from_dict_field_raises_only_schema_violation(path, value):
    if isinstance(path[-1], int) and value is MISSING:
        return
    parses_or_refuses_request(replaced(VALID_REQUEST, path, value))


# a packed column: base64 of arbitrary bytes, whose length may be ragged, or
# of whole float64 values, which may be NaN or infinite and may be fewer or
# more than the valid request's three rays
packed_columns = (st.binary(max_size=40).map(lambda raw: base64.b64encode(raw).decode())
                  | st.lists(st.floats() | st.sampled_from((math.nan, math.inf, -math.inf)),
                             max_size=5).map(packed))
PACKED_PATHS = [("observation", "rays", "theta_deg"), ("observation", "rays", "distance_m")]


@pytest.mark.parametrize("path", PACKED_PATHS, ids=dotted)
@settings(max_examples=150, deadline=None)
@given(value=packed_columns)
def test_request_from_dict_packed_column_raises_only_schema_violation(path, value):
    parses_or_refuses_request(replaced(VALID_REQUEST, path, value))


def test_valid_request_parses():
    # the fuzzed and the refused requests are this one with one field changed
    assert VALID_REQUEST["observation"]["rays"]["hit"] == [0, 1, 0]
    assert VALID_REQUEST["observation"]["rays"]["distance_m"] == packed([2.5, 3.0, 2.0])
    assert DecisionRequest.from_dict(VALID_REQUEST) == VALID_REQ


def test_a_dynav_5_request_is_refused():
    # dynav/5 sent the bearing and distance columns as lists of numbers
    rays = VALID_REQUEST["observation"]["rays"]
    lists = {"theta_deg": unpacked(rays["theta_deg"]),
             "distance_m": unpacked(rays["distance_m"]), "hit": rays["hit"]}
    old = dict(replaced(VALID_REQUEST, ("observation", "rays"), lists), version="dynav/5")
    with pytest.raises(SchemaViolation, match="bad request version: 'dynav/5'"):
        DecisionRequest.from_dict(old)
    # nor is the list form read beside the packed one
    with pytest.raises(SchemaViolation, match="ray theta_deg must be a base64 string"):
        DecisionRequest.from_dict(dict(old, version=PROTOCOL_VERSION))


@pytest.mark.parametrize("path, value, match", [
    (("observation", "rays", "distance_m"), packed([]), "columns differ in length"),
    (("observation", "rays", "hit"), [0, 1, 0, 1], "columns differ in length"),
    (("observation", "rays", "theta_deg"), True, "ray theta_deg must be a base64 string"),
    (("observation", "rays", "theta_deg"), "10.0", "ray theta_deg is not padded base64"),
    (("observation", "rays", "distance_m"), None, "ray distance_m must be a base64 string"),
    (("observation", "rays", "distance_m"), [2.5, 3.0, 2.0],
     "ray distance_m must be a base64 string"),
    (("observation", "rays", "hit", 1), -1, "ray hit must index the 2 hits"),
    (("observation", "rays", "hit", 1), 2, "ray hit must index the 2 hits"),
    (("observation", "rays", "hit", 1), True, "ray hit must index the 2 hits"),
    (("observation", "rays", "hit", 1), 1.0, "ray hit must index the 2 hits"),
    (("observation", "hits"), [], "ray hit must index the 0 hits"),
    (("observation", "hits"), {}, "observation hits must be a list"),
    (("observation", "hits", 1), "chair_1", "a hits entry must be an object"),
    (("observation", "hits", 1, "label"), ["chair_1"], "label must be a string or null"),
    (("observation", "hits", 1, "label"), 3, "label must be a string or null"),
    (("observation", "hits", 1, "attributes"), "red", "attributes must be a list of strings"),
    (("observation", "hits", 1, "attributes"), ["red", 1], "attributes must be a list of str"),
    (("observation", "hits", 1, "tags"), [None], "tags must be a list of strings"),
    (("observation", "hits", 1, "tags"), "hazard", "tags must be a list of strings"),
    (("observation", "rays"), [], "observation rays must be an object"),
], ids=repr)
def test_request_from_dict_checks_each_ray(path, value, match):
    with pytest.raises(SchemaViolation, match=match):
        DecisionRequest.from_dict(replaced(VALID_REQUEST, path, value))


_THREE = packed([2.5, 3.0, 2.0])  # 24 bytes, 32 characters, no padding


@pytest.mark.parametrize("column", ["theta_deg", "distance_m"])
@pytest.mark.parametrize("text, match", [
    (base64.b64encode(bytes(7)).decode(), "holds 7 bytes, not whole float64 values"),
    (base64.b64encode(bytes(25)).decode(), "holds 25 bytes"),
    (packed([2.5])[:-1], "is not padded base64"),  # a missing pad
    (packed([2.5]) + "=", "is not padded base64"),  # one pad too many
    (_THREE[:16] + "\n" + _THREE[16:], "is not padded base64"),
    (_THREE + "\n", "is not padded base64"),
    (" " + _THREE, "is not padded base64"),
    (_THREE[:8] + "-_" + _THREE[10:], "is not padded base64"),  # the URL-safe alphabet
    (_THREE[:-4] + "\u00c5AAA", "is not padded base64"),  # not ASCII
    ("AAAAAAAAAAB=", "is not padded base64"),  # stray bits: AAAAAAAAAAA= is 8 zero bytes
    (packed([math.nan, 3.0, 2.0]), "is not finite: nan"),
    (packed([2.5, math.inf, 2.0]), "is not finite: inf"),
    (packed([2.5, 3.0, -math.inf]), "is not finite: -inf"),
    (packed([2.5, 3.0, 2.0, 1.0]), "columns differ in length"),
    (packed([2.5, 3.0]), "columns differ in length"),
], ids=repr)
def test_request_from_dict_refuses_a_malformed_packed_column(column, text, match):
    path = ("observation", "rays", column)
    if "columns" not in match:
        match = f"ray {column} {match}"
    with pytest.raises(SchemaViolation, match=match):
        DecisionRequest.from_dict(replaced(VALID_REQUEST, path, text))


def test_request_from_dict_reads_a_changed_bearing_column():
    # a repeated bearing column is read once; a changed one, or a refused
    # one between two valid ones, is read anew
    column = ("observation", "rays", "theta_deg")
    for values in ([-10.0, 0.0, 10.0], [-5.0, 0.0, 5.0], [-10.0, 0.0, 10.0]):
        d = replaced(VALID_REQUEST, column, packed(values))
        assert DecisionRequest.from_dict(d).context.theta_deg == tuple(values)
        bad = replaced(VALID_REQUEST, column, packed([values[0], math.nan, values[2]]))
        with pytest.raises(SchemaViolation, match="ray theta_deg is not finite: nan"):
            DecisionRequest.from_dict(bad)


def test_request_from_dict_reads_packed_columns_bit_for_bit():
    # a negative zero, subnormals and the extremes keep their bits, as floats
    values = [-0.0, 5e-324, -1.7976931348623157e308]
    d = replaced(VALID_REQUEST, ("observation", "rays", "distance_m"), packed(values))
    depths = DecisionRequest.from_dict(d).context.distance_m
    assert type(depths) is tuple and [type(v) for v in depths] == [float] * 3
    assert struct.pack("<3d", *depths) == struct.pack("<3d", *values)


# the table of hits: null, wall and object labels, one label with two
# attribute sets, and arbitrary text; a small pool makes repeats common
_hit_keys = st.one_of(
    st.sampled_from(((None, (), ()), ("wall", (), ()), ("chair_1", ("red", "wooden"), ()),
                     ("chair_1", ("red",), ()), ("sign_1", (), ("hazard",)))),
    st.tuples(st.none() | st.text(max_size=4),
              st.lists(st.text(max_size=3), max_size=2).map(tuple),
              st.lists(st.text(max_size=3), max_size=2).map(tuple)))
_wire_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 0.1, 1e16))
def _names(min_size=0):
    return st.lists(st.text(min_size=1, max_size=3), min_size=min_size, max_size=2).map(tuple)


_category = st.text(min_size=1, max_size=5).filter(has_words)
_goals = st.one_of(st.builds(GoalSpec, st.just(NAME), _category),
                   st.builds(GoalSpec, st.just(DESCRIPTION), _category, _names(1)),
                   st.builds(GoalSpec, st.just(INSTANCE), st.just(""), _names(1)))
_memory = st.lists(st.builds(WireNode, st.text(max_size=4), _names(),
                             st.none() | st.tuples(_wire_floats, _wire_floats)),
                   max_size=3).map(tuple)
_contexts = st.builds(
    with_rays, st.just(RequestContext),
    st.lists(st.builds(lambda t, d, key: Row(t, d, *key),
                       _wire_floats, _wire_floats, _hit_keys), max_size=40),
    session_id=st.text(max_size=6), step=st.integers(0, 10 ** 6),
    goal_text=st.text(max_size=8), goal=_goals,
    pose=st.tuples(_wire_floats, _wire_floats, _wire_floats),
    memory_text=st.text(max_size=8), memory=_memory,
    constraints=st.lists(st.text(max_size=4)).map(tuple))
_candidates = st.lists(st.builds(WireCandidate, st.integers(0, 50), _wire_floats, _wire_floats),
                       min_size=1, max_size=4).map(tuple)


def float_bits(req) -> bytes:
    """The bits of every float of a request: the pose, the rays' angles and
    distances, the memory records' locations, and the candidates' ranges and
    angles."""
    ctx = req.context
    values = [*ctx.pose, *(x for r in rays_of(ctx) for x in r[:2]),
              *(x for n in ctx.memory for x in n.location_m or ()),
              *(x for c in req.candidates for x in c[1:])]
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=300, deadline=None)
@given(ctx=_contexts, kind=st.sampled_from(KINDS), cands=_candidates)
def test_request_round_trips_through_the_wire_bit_for_bit(ctx, kind, cands):
    req = DecisionRequest(kind, ctx, () if kind == STOP_CHECK else cands, "goal-name/3")
    d = json.loads(encode_request(req))
    again = DecisionRequest.from_dict(d)
    assert again == req
    assert float_bits(again) == float_bits(req)  # == takes -0.0 for 0.0; the bits do not
    # one table entry per distinct hit, in order of first appearance
    table = [(e["label"], tuple(e["attributes"]), tuple(e["tags"]))
             for e in d["observation"]["hits"]]
    assert table == list(dict.fromkeys(r[2:] for r in rays_of(ctx)))


# -- encoding ------------------------------------------------------------------------


def dumped(req) -> bytes:
    return json.dumps(req.to_dict(), allow_nan=False).encode()


def recorded_encodings(monkeypatch):
    """Every JSON text the protocol module encodes from now on."""
    texts = []
    encode = protocol._encode

    def recording(value):
        texts.append(encode(value))
        return texts[-1]

    monkeypatch.setattr(protocol, "_encode", recording)
    return texts


@pytest.mark.parametrize("kinds", [(FILTER,), (SCORE,), (STOP_CHECK,),
                                   (FILTER, SCORE, STOP_CHECK)], ids="+".join)
def test_encode_request_matches_json_dumps(kinds, cluttered_world, body, monkeypatch):
    obs = sense(cluttered_world, make_pose(7.5, 5.0, -0.0), body, n_rays=61, step=3)
    cut = [MemoryNode("chair \"red\"_1", ("wooden",), (9.0, 5.0))]
    ctx = request_context(obs, session_id="sé", goal=GoalSpec.name_goal("chair \"red\""),
                          memory_text=render(cut), cut=cut, constraints=("keep right",))
    cands = CandidateSet((Candidate(1, 2.0, 0.1), Candidate(2, 1.5, -0.4)), 0.8, 0.2)
    build = {FILTER: lambda: make_filter_request(ctx, cands),
             SCORE: lambda: make_score_request(ctx, cands),
             STOP_CHECK: lambda: make_stop_request(ctx)}
    texts = recorded_encodings(monkeypatch)
    for kind in kinds:
        req = build[kind]()
        assert encode_request(req) == dumped(req)
    # each request is encoded whole, once, with its one pose and each ray once
    assert len(texts) == len(kinds)
    assert all(t.count('"heading_deg"') == 1 for t in texts)
    assert all(len(unpacked(json.loads(t)["observation"]["rays"]["distance_m"])) == 61
               for t in texts)
    for kind in kinds:
        assert encode_request(make_req(kind)) == dumped(make_req(kind))


def test_a_fans_bearings_are_packed_once(cluttered_world, body, monkeypatch):
    """Every request of one fan carries the fan's tuple of bearings, and its
    text is packed once; an equal column whose zero has the other sign gets
    its own text."""
    packs = []
    pack = protocol._pack

    def counting(column, what):
        packs.append(what)
        return pack(column, what)

    monkeypatch.setattr(protocol, "_pack", counting)
    monkeypatch.setattr(protocol, "_PACKED", (None, ""))
    for i, heading in enumerate((0.0, 1.0, 2.0)):
        obs = sense(cluttered_world, make_pose(7.5, 5.0, heading), body, n_rays=61, step=i)
        req = make_stop_request(request_context(obs, session_id="s", goal=CHAIR))
        assert encode_request(req) == dumped(req)
    # each request built its dict twice, once per encoder
    assert packs.count("ray theta_deg") == 1 and packs.count("ray distance_m") == 6
    ctx = request_context(obs, session_id="s", goal=CHAIR)
    texts = [json.loads(encode_request(make_stop_request(replace(
        ctx, theta_deg=(zero,) + ctx.theta_deg[1:]))))["observation"]["rays"]["theta_deg"]
        for zero in (0.0, -0.0, 0.0)]
    assert [math.copysign(1.0, unpacked(t)[0]) for t in texts] == [1.0, -1.0, 1.0]


def step_requests(world, pose):
    """The one score request of a real step, between a filter request on its
    candidates, which a backend still answers, and a stop check on its
    context, which a step without candidates would send."""
    seen = []

    class Recording(OracleBackend):
        def decide(self, req):
            seen.append(req)
            return super().decide(req)

    step(AgentState(pose=pose), world, None,
         GoalSpec.name_goal("chair"), Recording.from_config(RunConfig()), RunConfig())
    assert [r.kind for r in seen] == [SCORE]
    score = seen[0]
    filt = DecisionRequest(FILTER, score.context, score.candidates, TEMPLATES["filter"])
    return [filt, score, make_stop_request(score.context)]


def test_request_dict_round_trip_of_a_real_step(cluttered_world):
    for req in step_requests(cluttered_world, make_pose(7.5, 5.0, 0.0)):
        assert any(r.attributes for r in rays_of(req.context))  # object hits, not only walls
        assert DecisionRequest.from_dict(req.to_dict()) == req
        assert DecisionRequest.from_dict(json.loads(encode_request(req))) == req


@pytest.mark.parametrize("record", [boundary_of([(2.0, 0.1)]), WireCandidate(1, 2.0, 5.0)],
                         ids=lambda record: type(record).__name__)
def test_per_ray_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)


def test_ray_columns_are_immutable(cluttered_world, body):
    """The fan's columns and hits table are tuples in the observation, its
    fan and the context that hands them on, so no reader can change what
    another reads."""
    obs = sense(cluttered_world, make_pose(7.5, 5.0, 0.0), body, n_rays=61)
    ctx = request_context(obs, session_id="s", goal=CHAIR)
    for record, names in ((obs.fan, ("thetas", "degrees")), (obs, ("depths", "hit", "hits")),
                          (ctx, ("theta_deg", "distance_m", "hit", "hits"))):
        for name in names:
            assert type(getattr(record, name)) is tuple
            with pytest.raises(AttributeError):
                setattr(record, name, ())
    for record, name in ((obs, "fan"), (obs.fan, "fov")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert all(type(entry) is tuple for entry in obs.hits)
    assert (ctx.distance_m, ctx.hit, ctx.hits) == (obs.depths, obs.hit, obs.hits)


def test_encode_request_of_a_real_step(cluttered_world):
    seen = step_requests(cluttered_world, make_pose(3.0, 5.0, 0.0))
    ctx = seen[0].context
    assert all(req.context is ctx for req in seen)
    for req in seen:
        assert encode_request(req) == dumped(req)
    # a changed context, even one with the same rays, encodes its own observation
    fewer_rays = replace(ctx, theta_deg=ctx.theta_deg[:5], distance_m=ctx.distance_m[:5],
                         hit=ctx.hit[:5])
    for other in (replace(ctx, pose=(1.0, -0.0, 45.5)), fewer_rays):
        req = replace(seen[2], context=other)
        assert encode_request(req) == dumped(req)


# The mean request body of the objectnav episodes of world seeds 0 and 1 (16
# steps of three requests, 48 requests of 181 rays each) in the dynav/1
# layout, where each ray was an object with its hit's label, attributes and
# tags: 1 061 512 bytes in all.  Its stop requests carried no candidates, so
# the mean of its filter and score requests alone was larger still.
V1_MEAN_BODY_BYTES = 1061512 / 48


def test_request_bodies_are_at_most_half_of_the_per_ray_layout():
    bodies = []

    class Recording(OracleBackend):
        def decide(self, req):
            bodies.append(len(encode_request(req)))
            return super().decide(req)

    spec = WorldGenSpec(categories=("chair", "table"), rooms=2, objects_per_category=2)
    cfg = RunConfig(max_distance_m=10000.0)
    for seed in (0, 1):
        world = generate_world(spec, seed)
        start = random_free_pose(world, random.Random(seed + 1000), AgentBody())
        run_episode(EpisodeSpec(episode_id=f"w{seed}", world=world, start=start, seed=seed,
                                goals=(GoalSpec.name_goal("chair"),)),
                    Recording.from_config(cfg), cfg)
    assert len(bodies) == 16  # the same 16 steps, each one score request
    assert sum(bodies) / len(bodies) <= V1_MEAN_BODY_BYTES / 2


# -- the keep-alive connection, against a server that writes raw bytes --------------


class RawServer:
    """A one-thread server on a raw socket.  It reads each request (its head,
    then ``Content-Length`` bytes of body), records it, and writes
    ``replies[i]`` for the i-th request (the last entry for any later one)
    as given.  A reply is ``(data, then)``: ``then`` is ``"close"`` to hang
    up after writing, ``"keep"`` to read the next request on the same
    connection, and ``"trickle"`` to keep it after writing the data three
    bytes at a time.  ``closed`` is set once it has closed a connection."""

    def __init__(self, replies):
        self.replies = replies
        self.requests = []  # (connection number, head, body)
        self.connections = 0
        self.closed = threading.Event()
        self._stop = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(POLL_INTERVAL_S)
        self.endpoint = f"http://127.0.0.1:{self._listener.getsockname()[1]}/decide"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            with sock, sock.makefile("rb") as rfile:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while self._answer(sock, rfile):
                    pass
            self.closed.set()

    def _answer(self, sock, rfile) -> bool:
        """Answers one request; False when the connection is done."""
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = rfile.readline()
            if not line:
                return False
            head += line
        length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
        self.requests.append((self.connections, head, rfile.read(length)))
        data, then = self.replies[min(len(self.requests), len(self.replies)) - 1]
        if then == "trickle":
            for i in range(0, len(data), 3):
                sock.sendall(data[i:i + 3])
                time.sleep(0.001)
        else:
            sock.sendall(data)
        return then != "close"

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        self._listener.close()


def stop_reply(s_stop: float) -> bytes:
    return json.dumps({"version": PROTOCOL_VERSION, "kind": STOP_CHECK,
                       "s_stop": s_stop}).encode()


def framed(body: bytes, *fields: bytes, status=b"HTTP/1.1 200 OK") -> bytes:
    return b"\r\n".join((status, b"Content-Length: %d" % len(body), *fields, b"", body))


def test_remote_backend_keeps_one_connection():
    with RawServer([(framed(stop_reply(0.0)), "keep")]) as server:
        with closing(RemoteBackend(BackendConfig(endpoint=server.endpoint))) as backend:
            for i in range(6):
                assert backend.decide(make_req(STOP_CHECK, step=i)).s_stop == 0.0
        assert [number for number, _, _ in server.requests] == [1] * 6


# a server closes an idle keep-alive connection after a reply that did not
# say so in its headers
IDLE_HANG_UP = [(framed(stop_reply(0.0)), "close")]


def test_remote_backend_reconnects_after_an_idle_hang_up(monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    with RawServer(IDLE_HANG_UP) as server:
        with closing(RemoteBackend(BackendConfig(endpoint=server.endpoint,
                                                 max_retries=2))) as backend:
            backend.decide(make_req(STOP_CHECK, step=0))
            assert server.closed.wait(timeout=5)
            backend.decide(make_req(STOP_CHECK, step=1))
        # one POST each, on two connections, and no attempt lost to the stale one
        assert [number for number, _, _ in server.requests] == [1, 2]
    assert sleeps == []


def test_late_reply_is_not_read_as_the_next_answer():
    script = [{"kind": "stop_check", "step": 1, "delay_ms": 300, "body": {"s_stop": 0.1}},
              {"kind": "stop_check", "step": 2, "body": {"s_stop": 0.2}}]
    with DecisionServer(script=script) as stub:
        backend = RemoteBackend(BackendConfig(endpoint=stub.endpoint, timeout_ms=100,
                                              max_retries=0))
        try:
            with pytest.raises(RequestTimeout):
                backend.decide(make_req(STOP_CHECK, step=1))
            assert backend.decide(make_req(STOP_CHECK, step=2)).s_stop == 0.2
            time.sleep(0.4)  # the late step-1 reply has been sent by now
            assert backend.decide(make_req(STOP_CHECK, step=2)).s_stop == 0.2
        finally:
            backend.close()


SPEC = Path(__file__).resolve().parent.parent / "specs" / "objectnav_small.json"


def test_a_remote_run_writes_the_in_process_run_byte_for_byte(tmp_path):
    """``dynav run`` on the objectnav spec through RemoteBackend, against a
    server answering with the oracle, writes the step logs and results of
    the in-process run, byte for byte, and sends one request per step and no
    filter request."""
    def outputs(name, *flags):
        out = tmp_path / name
        assert cli.main(["run", "--episodes", str(SPEC), "--out", str(out), *flags]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name.endswith(".steps.jsonl") or p.name == "results.jsonl"}

    with DecisionServer() as server:
        remote = outputs("remote", "--backend", "remote", "--endpoint", server.endpoint)
    local = outputs("local")
    assert remote == local
    assert len(local) == 6  # five step logs and the results
    steps = sum(text.count(b"\n") for name, text in local.items() if name != "results.jsonl")
    kinds = [req["kind"] for req in server.requests]
    assert len(kinds) == steps
    assert FILTER not in kinds


def test_cli_import_leaves_requests_out():
    # nor the decision server's http.server, which the CLI imports only for
    # serve, nor http.client and its email parser, nor ssl, which only
    # an https endpoint needs
    out = run_python("import sys, dynav.cli; print(*(m in sys.modules for m in "
                     "('requests', 'http.server', 'http.client', 'email', 'ssl')))")
    assert out == "False False False False False"


def test_backend_counts_requests_retries_and_reconnects(monkeypatch):
    monkeypatch.setattr(time, "sleep", lambda s: None)
    script = [{"kind": "stop_check", "body": {"s_stop": 0.0}},
              {"kind": "stop_check", "step": 1, "status": 503}]
    with DecisionServer(script=script) as stub:
        with closing(RemoteBackend(BackendConfig(endpoint=stub.endpoint,
                                                 max_retries=1))) as backend:
            backend.decide(make_req(STOP_CHECK, step=0))
            with pytest.raises(TransportError, match="503"):
                backend.decide(make_req(STOP_CHECK, step=1))
            backend.decide(make_req(STOP_CHECK, step=2))
            assert (backend.requests, backend.retries, backend.reconnects) == (4, 1, 0)
    with RawServer(IDLE_HANG_UP) as server:
        with closing(RemoteBackend(BackendConfig(endpoint=server.endpoint))) as backend:
            backend.decide(make_req(STOP_CHECK, step=0))
            assert server.closed.wait(timeout=5)
            backend.decide(make_req(STOP_CHECK, step=1))
            assert (backend.requests, backend.retries, backend.reconnects) == (2, 0, 1)


def test_an_idle_hang_up_is_seen_without_poll(monkeypatch):
    # as on Windows, where the client looks with select() instead
    monkeypatch.setattr(remote, "select", SimpleNamespace(select=select.select))
    monkeypatch.setattr(time, "sleep", lambda s: pytest.fail("an attempt was lost"))
    with RawServer(IDLE_HANG_UP) as server:
        with closing(RemoteBackend(BackendConfig(endpoint=server.endpoint))) as backend:
            backend.decide(make_req(STOP_CHECK, step=0))
            assert server.closed.wait(timeout=5)
            backend.decide(make_req(STOP_CHECK, step=1))
            assert (backend.requests, backend.retries, backend.reconnects) == (2, 0, 1)


# -- reply framing ------------------------------------------------------------------


def chunked(body: bytes) -> bytes:
    """``body`` in two chunks, the first with an extension, then a trailer."""
    a, b = body[:5], body[5:]
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x;name=value\r\n%s\r\n" % (len(a), a)
            + b"%X\r\n%s\r\n" % (len(b), b) + b"0\r\nX-Trailer: yes\r\n\r\n")


@pytest.mark.parametrize("reply, then, connections", [
    (chunked(stop_reply(0.25)), "keep", 1),
    (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + stop_reply(0.25),
     "close", 2),
    (framed(stop_reply(0.25), b"Connection: close"), "keep", 2),
    (b"HTTP/1.1 100 Continue\r\n\r\n" + framed(stop_reply(0.25)), "keep", 1),
    (framed(stop_reply(0.25)), "trickle", 1),
    (framed(stop_reply(0.25)) + framed(stop_reply(0.75)), "keep", 2),
    (framed(stop_reply(0.25), b"X-Long: " + b"a" * (MAX_LINE - 10)), "keep", 1),
    (framed(stop_reply(0.25), *[b"X-%d: a" % i for i in range(MAX_HEADERS - 1)]), "keep", 1),
], ids=["chunked", "http/1.0 to close", "connection close", "100 continue", "trickled",
        "bytes past the reply", "longest header line", "most header lines"])
def test_replies_framed_every_way_parse(reply, then, connections):
    # two requests: a reply that ends its connection sends the next request
    # out on a new one, and any other keeps the connection
    with RawServer([(reply, then)]) as server:
        with closing(RemoteBackend(BackendConfig(endpoint=server.endpoint,
                                                 timeout_ms=2000))) as backend:
            for step in range(2):
                assert backend.decide(make_req(STOP_CHECK, step=step)).s_stop == 0.25
            assert (backend.requests, backend.retries) == (2, 0)
        assert server.connections == connections
        assert [number for number, _, _ in server.requests] == [1, connections]


@pytest.mark.parametrize("reply", [
    framed(stop_reply(0.25))[:-10],
    framed(stop_reply(0.25), b"X-Long: " + b"a" * (MAX_LINE - 9)),
    framed(stop_reply(0.25), *[b"X-%d: a" % i for i in range(MAX_HEADERS)]),
    b"HTTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
], ids=["truncated body", "header line of 65537 bytes", "101 header lines", "garbage status"])
def test_malformed_replies_are_retried_then_refused(monkeypatch, reply):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    with RawServer([(reply, "close")]) as server:
        with closing(RemoteBackend(BackendConfig(endpoint=server.endpoint, timeout_ms=2000,
                                                 max_retries=2))) as backend:
            with pytest.raises(TransportError):
                backend.decide(make_req(STOP_CHECK))
            assert (backend.requests, backend.retries) == (3, 2)
        assert len(server.requests) == 3
    assert sleeps == [0.25, 0.5]


def test_a_request_is_its_head_then_its_body(monkeypatch):
    monkeypatch.setenv("DYNAV_TOKEN", "sesame")
    with RawServer([(framed(stop_reply(0.5)), "keep")]) as server:
        with closing(RemoteBackend(BackendConfig(endpoint=server.endpoint))) as backend:
            req = make_req(STOP_CHECK, step=4)
            backend.decide(req)
        port = server.endpoint.split(":")[2].split("/")[0]
        (_, head, body), = server.requests
    body_bytes = encode_request(req)
    assert head == (b"POST /decide HTTP/1.1\r\nHost: 127.0.0.1:%s\r\n"
                    b"Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
                    b"Authorization: Bearer sesame\r\nContent-Length: %d\r\n\r\n"
                    % (port.encode(), len(body_bytes)))
    assert body == body_bytes


@pytest.mark.parametrize("endpoint, host", [
    ("http://example.org/decide", b"example.org"),
    ("http://example.org:80/decide", b"example.org"),
    ("https://example.org:443/decide", b"example.org"),
    ("http://example.org:443/decide", b"example.org:443"),
    ("https://[::1]:8443/decide?v=1", b"[::1]:8443"),
    ("http://[::1]/decide", b"[::1]"),
])
def test_host_is_written_as_http_client_writes_it(endpoint, host):
    # http.client writes the request line, then Host (an IPv6 address in
    # brackets, no port when it is the scheme's default), then Accept-Encoding
    sent = []
    url = urlsplit(endpoint)
    cls = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
    conn = cls(url.hostname, url.port or cls.default_port)
    conn.send = sent.append
    conn.request("POST", (url.path or "/") + (f"?{url.query}" if url.query else ""), b"")
    assert remote._request_head(url) == sent[0].split(b"Content-Length")[0]
    assert b"\r\nHost: " + host + b"\r\n" in remote._request_head(url)
