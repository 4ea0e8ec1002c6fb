"""Wire protocol serialization plus the HTTP client against the scriptable stub."""
import copy
import http.client
import json
import logging
import math
import subprocess
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynav.backends.oracle import OracleBackend
from dynav.backends.protocol import (
    FILTER,
    MEMORY_EXTRACT,
    PROTOCOL_VERSION,
    SCORE,
    STOP_CHECK,
    DecisionRequest,
    RequestContext,
    WireCandidate,
    WireRay,
    encode_request,
    make_filter_request,
    make_memory_request,
    make_score_request,
    make_stop_request,
    parse_response,
)
from dynav.backends.remote import BackendConfig, RemoteBackend, remote_call
from dynav.backends.stub import StubServer, serve_stub
from dynav.config import RunConfig
from dynav.errors import BindFailure, RequestTimeout, SchemaViolation, TransportError
from dynav.goals import GoalSpec
from dynav.policy import AgentState, step
from dynav.proposer import Candidate, CandidateSet
from dynav.sensing import sense

from conftest import make_pose


def make_req(kind=SCORE, step=0, n_cands=2):
    cands = tuple(WireCandidate(i + 1, 2.0 + i, 10.0 * i) for i in range(n_cands))
    if kind in (STOP_CHECK, MEMORY_EXTRACT):
        cands = ()
    return DecisionRequest(
        version=PROTOCOL_VERSION, kind=kind, session_id="s1", step=step,
        goal_text="chair", pose=(1.0, 2.0, 30.0), rays=(), candidates=cands,
        memory_text="", constraints=(), template_id="goal-name/1",
    )


def ok_body(**extra):
    body = {"version": PROTOCOL_VERSION, "kind": SCORE}
    body.update(extra)
    return body


# -- request serialization ---------------------------------------------------------


def test_score_request_golden(plant_world, body):
    obs = sense(plant_world, make_pose(5.0, 4.0, 0.0), body, n_rays=3)
    cands = CandidateSet((Candidate(1, 2.16, 0.0),), alpha=0.8, theta_delta=math.radians(15))
    ctx = RequestContext(session_id="ep1", step=4, goal_text="plant",
                         memory_text="plant_1 at (8.0, 4.0)", constraints=("keep right",))
    d = make_score_request(ctx, obs, cands, "goal-name/1").to_dict()
    assert d["version"] == "dynav/1"
    assert d["kind"] == "score"
    assert d["session_id"] == "ep1" and d["step"] == 4
    assert d["goal_text"] == "plant"
    assert d["memory_text"] == "plant_1 at (8.0, 4.0)"
    assert d["constraints"] == ["keep right"]
    assert d["template_id"] == "goal-name/1"
    pose = d["observation"]["pose"]
    assert pose == {"x_m": 5.0, "y_m": 4.0, "heading_deg": 0.0}
    rays = d["observation"]["rays"]
    assert [r["theta_deg"] for r in rays] == pytest.approx([-65.5, 0.0, 65.5])
    assert rays[1] == {"theta_deg": 0.0, "distance_m": pytest.approx(2.7),
                       "label": "plant_1", "attributes": ["green"], "tags": []}
    assert rays[0]["label"] == "wall" and rays[0]["attributes"] == []
    assert rays[0]["distance_m"] == pytest.approx(3.9 / math.sin(math.radians(65.5)))
    assert d["candidates"] == [{"id": 1, "r_m": 2.16, "theta_deg": 0.0}]


def test_stop_and_memory_requests_have_no_candidates(plant_world, body):
    obs = sense(plant_world, make_pose(5.0, 4.0, 0.0), body, n_rays=3)
    cands = CandidateSet((Candidate(1, 2.0, 0.0),), 0.8, 0.1)
    ctx = RequestContext(session_id="s", step=0, goal_text="plant")
    stop = make_stop_request(ctx, obs)
    mem = make_memory_request(ctx, obs)
    filt = make_filter_request(ctx, obs, cands)
    assert stop.kind == STOP_CHECK and "candidates" not in stop.to_dict()
    assert mem.kind == MEMORY_EXTRACT and "candidates" not in mem.to_dict()
    assert filt.kind == FILTER and filt.to_dict()["candidates"]
    assert stop.template_id == "stop-check/1"
    assert mem.template_id == "memory-extract/1"
    # the requests of one observation share one wire form of its rays
    assert stop.rays is mem.rays is filt.rays


def test_wire_rays_match_a_per_ray_conversion(cluttered_world, body):
    obs = sense(cluttered_world, make_pose(7.5, 5.0, 0.0), body, n_rays=61)
    hit_kinds = {r.hit.kind if r.hit else None for r in obs.rays}
    assert hit_kinds == {"object", "wall"}
    ctx = RequestContext(session_id="s", step=0, goal_text="chair")
    rays = make_stop_request(ctx, obs).rays
    assert len(rays) == obs.n_rays
    for wire, r in zip(rays, obs.rays):
        assert wire.theta_deg == math.degrees(r.theta) and wire.distance_m == r.depth
        assert wire.label == r.hit.label
        if r.hit.kind == "object":
            assert wire.attributes == r.hit.attributes
            assert wire.tags == tuple(sorted(r.hit.tags))
        else:
            assert wire.attributes == () and wire.tags == ()


def test_request_dict_round_trip(plant_world, body):
    obs = sense(plant_world, make_pose(5.0, 4.0, 20.0), body, n_rays=5)
    cands = CandidateSet((Candidate(1, 2.0, 0.1), Candidate(2, 3.0, 0.4)), 0.8, 0.2)
    ctx = RequestContext(session_id="rt", step=7, goal_text="plant (green)",
                         memory_text="m", constraints=("c1", "c2"))
    req = make_score_request(ctx, obs, cands, "goal-description/1")
    again = DecisionRequest.from_dict(json.loads(json.dumps(req.to_dict())))
    assert again == req


def test_request_from_dict_validation():
    good = make_req().to_dict()
    with pytest.raises(SchemaViolation):
        DecisionRequest.from_dict(dict(good, version="dynav/0"))
    with pytest.raises(SchemaViolation):
        DecisionRequest.from_dict(dict(good, kind="mystery"))
    with pytest.raises(SchemaViolation):
        DecisionRequest.from_dict(dict(good, candidates=[]))  # score needs candidates
    with pytest.raises(SchemaViolation):
        DecisionRequest.from_dict({"version": PROTOCOL_VERSION, "kind": SCORE})


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
    assert resp.adjustments[0]["theta"] == pytest.approx(math.pi / 4)
    assert resp.adjustments[0]["r"] == 1.5


@pytest.mark.parametrize("location", ["[NaN, 1.0]", "[1.0, Infinity]", "[-Infinity, NaN]"])
def test_parse_response_rejects_non_finite_locations(location):
    # Python's json reads NaN and Infinity; a memory node must not store them
    payload = json.loads('{"version": "dynav/1", "kind": "score", "memory_ops": '
                         '[{"op": "add_node", "name": "chair_9", "location_m": %s}]}' % location)
    with pytest.raises(SchemaViolation, match="not finite"):
        parse_response(payload, make_req())


# -- HTTP client against the stub ----------------------------------------------------


def test_remote_round_trip_records_request():
    script = [{"kind": "score", "scores_all": 0.5,
               "body": {"rationale": "canned"}}]
    with StubServer(script=script) as stub:
        cfg = BackendConfig(endpoint=stub.endpoint, timeout_ms=2000)
        resp = remote_call(cfg, make_req(step=3))
        assert resp.scores == {1: 0.5, 2: 0.5}
        assert resp.rationale == "canned"
        assert len(stub.requests) == 1
        seen = stub.requests[0]
        assert seen["version"] == "dynav/1"
        assert seen["step"] == 3
        # the recorded payload parses back into the identical request
        assert DecisionRequest.from_dict(seen) == make_req(step=3)


def test_remote_timeout_retries_then_raises():
    script = [{"kind": "score", "delay_ms": 400, "scores_all": 0.5}]
    sleeps = []
    with StubServer(script=script) as stub:
        cfg = BackendConfig(endpoint=stub.endpoint, timeout_ms=100, max_retries=2)
        with pytest.raises(RequestTimeout):
            remote_call(cfg, make_req(), sleep=sleeps.append)
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


def test_remote_retries_5xx_then_succeeds():
    ok = reply(200, ok_body(scores=[{"id": 1, "s": 0.9}, {"id": 2, "s": 0.1}]))
    conn = FakeConnection([reply(500), ok])
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=2)
    resp = remote_call(cfg, make_req(), conn=conn, sleep=lambda s: None)
    assert resp.scores[1] == 0.9
    assert len(conn.calls) == 2
    # the retry sends the same encoded body
    assert conn.calls[0]["body"] == conn.calls[1]["body"] == encode_request(make_req())


def test_remote_exhausts_retries_on_5xx():
    conn = FakeConnection([reply(503)] * 3)
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=2)
    with pytest.raises(TransportError):
        remote_call(cfg, make_req(), conn=conn, sleep=lambda s: None)
    assert len(conn.calls) == 3


def test_remote_4xx_is_not_retried():
    conn = FakeConnection([reply(404)])
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=5)
    with pytest.raises(SchemaViolation):
        remote_call(cfg, make_req(), conn=conn, sleep=lambda s: None)
    assert len(conn.calls) == 1


def test_remote_3xx_is_not_followed():
    conn = FakeConnection([(302, b"")])
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=5)
    with pytest.raises(SchemaViolation, match="302"):
        remote_call(cfg, make_req(), conn=conn, sleep=lambda s: None)
    assert len(conn.calls) == 1


def test_remote_bad_schema_is_not_retried():
    conn = FakeConnection([reply(200, {"version": "dynav/0", "kind": SCORE})])
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=5)
    with pytest.raises(SchemaViolation):
        remote_call(cfg, make_req(), conn=conn, sleep=lambda s: None)
    assert len(conn.calls) == 1


def test_remote_transport_failures_are_retried():
    ok = reply(200, ok_body(scores=[{"id": 1, "s": 0.5}, {"id": 2, "s": 0.5}]))
    conn = FakeConnection([ConnectionResetError(104, "reset"),
                           http.client.RemoteDisconnected("closed"), ok])
    sleeps = []
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=2)
    assert remote_call(cfg, make_req(), conn=conn, sleep=sleeps.append).scores[1] == 0.5
    assert sleeps == [0.25, 0.5]
    conn = FakeConnection([TimeoutError()] * 2 + [ConnectionRefusedError(111, "refused")])
    with pytest.raises(TransportError, match="refused"):
        remote_call(cfg, make_req(), conn=conn, sleep=lambda s: None)
    conn = FakeConnection([TimeoutError()] * 3)
    with pytest.raises(RequestTimeout):
        remote_call(cfg, make_req(), conn=conn, sleep=lambda s: None)


def test_non_finite_request_is_never_sent():
    conn = FakeConnection([])
    req = replace(make_req(), pose=(math.nan, 2.0, 30.0))
    with pytest.raises(SchemaViolation, match="encoded"):
        remote_call(BackendConfig(endpoint="http://x/decide"), req, conn=conn)
    assert conn.calls == []


def test_remote_non_json_body_raises():
    script = [{"kind": "score", "raw_body": "{not json"}]
    with StubServer(script=script) as stub:
        cfg = BackendConfig(endpoint=stub.endpoint)
        with pytest.raises(SchemaViolation):
            remote_call(cfg, make_req())


def test_remote_unscripted_kind_is_schema_error():
    with StubServer(script=[]) as stub:
        cfg = BackendConfig(endpoint=stub.endpoint)
        with pytest.raises(SchemaViolation):
            remote_call(cfg, make_req())


def test_remote_sends_bearer_token(monkeypatch):
    monkeypatch.setenv("DYNAV_TOKEN", "sesame")
    ok = reply(200, ok_body(scores=[{"id": 1, "s": 0.5}, {"id": 2, "s": 0.5}]))
    conn = FakeConnection([ok])
    remote_call(BackendConfig(endpoint="http://x/decide"), make_req(), conn=conn)
    assert conn.calls[0]["headers"]["Authorization"] == "Bearer sesame"
    assert conn.calls[0]["headers"]["Content-Type"] == "application/json"


def test_remote_backend_class_and_scripted_stop():
    # a wildcard score plus an exact stop_check at step 5 drives a stop
    script = [
        {"kind": "score", "scores_all": 0.4},
        {"kind": "stop_check", "body": {"s_stop": 0.0}},
        {"kind": "stop_check", "step": 5, "body": {"s_stop": 0.95}},
    ]
    with StubServer(script=script) as stub:
        backend = RemoteBackend(BackendConfig(endpoint=stub.endpoint))
        try:
            early = backend.decide(make_req(kind=STOP_CHECK, step=2))
            late = backend.decide(make_req(kind=STOP_CHECK, step=5))
            assert early.s_stop == 0.0
            assert late.s_stop == 0.95
        finally:
            backend.close()


def test_stub_rejects_double_bind():
    with StubServer() as stub:
        with pytest.raises(BindFailure):
            StubServer(port=stub.port)


def test_serve_stub_helper():
    stub = serve_stub(0, [{"kind": "stop_check", "body": {"s_stop": 0.2}}])
    try:
        resp = remote_call(BackendConfig(endpoint=stub.endpoint), make_req(kind=STOP_CHECK))
        assert resp.s_stop == 0.2
    finally:
        stub.stop()


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://x", timeout_ms=0)
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://x", max_retries=-1)
    for bad in ("ftp://x/decide", "localhost:8080/decide", "http:///decide", "http://x:port/"):
        with pytest.raises(ValueError):
            BackendConfig(endpoint=bad)
    BackendConfig(endpoint="https://[::1]:8443/decide?v=1")


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
])
def test_parse_response_rejects_malformed_memory_ops(ops):
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(memory_ops=ops), make_req())


@pytest.mark.parametrize("field, value", [
    ("removals", "12"), ("removals", [1e300]), ("scores", {"id": 1, "s": 0.5}),
    ("scores", [[1, 0.5]]), ("adjustments", [3]), ("s_stop", None),
])
def test_parse_response_rejects_malformed_fields(field, value):
    with pytest.raises(SchemaViolation):
        parse_response(ok_body(**{field: value}), make_req())


# -- fuzzing the wire parsers --------------------------------------------------------

# json reads NaN, Infinity and integers of any size; Hypothesis draws them rarely
edge_numbers = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 10 ** 400, -(10 ** 400)])
scalars = (st.none() | st.booleans() | st.integers() | st.floats() | edge_numbers
           | st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10)
# a value for one field of a valid message; MISSING removes the field
MISSING = object()
replacements = json_values | st.lists(scalars, max_size=3) | st.just(MISSING)


def replaced(valid: dict, path: tuple, value) -> dict:
    d = copy.deepcopy(valid)
    node = d
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return d


def dotted(path) -> str:
    return ".".join(map(str, path))


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


VALID_REQUEST = replace(make_req(), rays=(
    WireRay(-10.0, 2.5, None),
    WireRay(10.0, 3.0, "chair_1", ("red",), ("hazard",)))).to_dict()
REQUEST_PATHS = [
    ("version",), ("kind",), ("session_id",), ("step",), ("goal_text",),
    ("observation",), ("observation", "pose"), ("observation", "pose", "x_m"),
    ("observation", "rays"), ("observation", "rays", 1),
    ("observation", "rays", 1, "theta_deg"), ("observation", "rays", 1, "label"),
    ("observation", "rays", 1, "attributes"), ("observation", "rays", 1, "tags"),
    ("candidates",), ("candidates", 0), ("candidates", 0, "id"), ("candidates", 0, "r_m"),
    ("memory_text",), ("constraints",), ("template_id",),
]


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_request_from_dict_raises_only_schema_violation(d):
    try:
        DecisionRequest.from_dict(d)
    except SchemaViolation:
        pass


@pytest.mark.parametrize("path", REQUEST_PATHS, ids=dotted)
@settings(max_examples=40, deadline=None)
@given(value=replacements)
def test_request_from_dict_field_raises_only_schema_violation(path, value):
    if isinstance(path[-1], int) and value is MISSING:
        return
    try:
        DecisionRequest.from_dict(replaced(VALID_REQUEST, path, value))
    except SchemaViolation:
        pass


# -- encoding ------------------------------------------------------------------------


def dumped(req) -> bytes:
    return json.dumps(req.to_dict(), allow_nan=False).encode()


@pytest.mark.parametrize("kind", [FILTER, SCORE, STOP_CHECK, MEMORY_EXTRACT])
def test_encode_request_matches_json_dumps(kind, cluttered_world, body):
    obs = sense(cluttered_world, make_pose(7.5, 5.0, -0.0), body, n_rays=61)
    ctx = RequestContext(session_id="sé", step=3, goal_text="chair \"red\"",
                         memory_text="chair_1 at (9.0, 5.0).", constraints=("keep right",))
    cands = CandidateSet((Candidate(1, 2.0, 0.1), Candidate(2, 1.5, -0.4)), 0.8, 0.2)
    req = {FILTER: lambda: make_filter_request(ctx, obs, cands),
           SCORE: lambda: make_score_request(ctx, obs, cands, "goal-name/1"),
           STOP_CHECK: lambda: make_stop_request(ctx, obs),
           MEMORY_EXTRACT: lambda: make_memory_request(ctx, obs)}[kind]()
    assert encode_request(req) == dumped(req)
    assert encode_request(make_req(kind)) == dumped(make_req(kind))


def test_encode_request_reuses_the_rays_of_a_step(cluttered_world):
    seen = []

    class Recording(OracleBackend):
        def decide(self, req):
            seen.append(req)
            return super().decide(req)

    cfg = RunConfig()
    step(AgentState(pose=make_pose(3.0, 5.0, 0.0)), cluttered_world, None,
         GoalSpec.name_goal("chair"), Recording(), cfg)
    assert [r.kind for r in seen] == [FILTER, SCORE, STOP_CHECK]
    memo = [None, ""]
    for req in seen:
        assert encode_request(req, memo) == dumped(req)
        assert memo[0] is seen[0].rays  # one encoding for the step
    # a moved pose with the same rays, then equal rays in a new tuple
    moved = replace(seen[2], pose=(1.0, -0.0, 45.5))
    assert encode_request(moved, memo) == dumped(moved)
    fresh = replace(seen[2], rays=tuple(list(seen[2].rays)))
    assert fresh.rays is not seen[2].rays
    assert encode_request(fresh, memo) == dumped(fresh)
    assert memo[0] is fresh.rays
    other = replace(seen[2], rays=seen[2].rays[:5])
    assert encode_request(other, memo) == dumped(other)


# -- the keep-alive connection -------------------------------------------------------


class KeepAliveServer:
    """HTTP/1.1 server answering every request with an empty reply of its
    kind.  Records the client port of each request; with ``hang_up`` it closes
    each connection after one reply, without saying so in the headers, as a
    server does when an idle keep-alive connection times out."""

    def __init__(self, hang_up: bool = False):
        self.ports = []
        self.hung_up = threading.Semaphore(0)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, *args):
                pass

            def do_POST(self):
                req = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                outer.ports.append(self.client_address[1])
                body = json.dumps({"version": PROTOCOL_VERSION, "kind": req["kind"]}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                self.close_connection = hang_up

        class Server(ThreadingHTTPServer):
            def shutdown_request(self, request):
                super().shutdown_request(request)
                outer.hung_up.release()

        self._httpd = Server(("127.0.0.1", 0), Handler)
        self.endpoint = f"http://127.0.0.1:{self._httpd.server_address[1]}/decide"
        threading.Thread(target=self._httpd.serve_forever, daemon=True).start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()


def test_remote_backend_keeps_one_connection():
    with KeepAliveServer() as server:
        backend = RemoteBackend(BackendConfig(endpoint=server.endpoint))
        try:
            for i in range(6):
                assert backend.decide(make_req(STOP_CHECK, step=i)).s_stop == 0.0
        finally:
            backend.close()
        assert len(server.ports) == 6 and len(set(server.ports)) == 1


def test_remote_backend_reconnects_after_an_idle_hang_up(monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    with KeepAliveServer(hang_up=True) as server:
        backend = RemoteBackend(BackendConfig(endpoint=server.endpoint, max_retries=2))
        try:
            backend.decide(make_req(STOP_CHECK, step=0))
            assert server.hung_up.acquire(timeout=5)
            backend.decide(make_req(STOP_CHECK, step=1))
        finally:
            backend.close()
        # one POST each, on two connections, and no attempt lost to the stale one
        assert len(server.ports) == 2 and len(set(server.ports)) == 2
    assert sleeps == []


def test_late_reply_is_not_read_as_the_next_answer():
    script = [{"kind": "stop_check", "step": 1, "delay_ms": 300, "body": {"s_stop": 0.1}},
              {"kind": "stop_check", "step": 2, "body": {"s_stop": 0.2}}]
    with StubServer(script=script) as stub:
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


def test_cli_import_leaves_requests_out():
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dynav.cli; print('requests' in sys.modules)"],
        env={"PYTHONPATH": str(src), "PATH": ""}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
