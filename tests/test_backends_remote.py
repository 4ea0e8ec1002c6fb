"""Wire protocol serialization plus the HTTP client against the scriptable stub."""
import json
import logging
import math

import pytest

from dynav.backends.protocol import (
    FILTER,
    MEMORY_EXTRACT,
    PROTOCOL_VERSION,
    SCORE,
    STOP_CHECK,
    DecisionRequest,
    RequestContext,
    WireCandidate,
    make_filter_request,
    make_memory_request,
    make_score_request,
    make_stop_request,
    parse_response,
)
from dynav.backends.remote import BackendConfig, RemoteBackend, remote_call
from dynav.backends.stub import StubServer, serve_stub
from dynav.errors import BindFailure, RequestTimeout, SchemaViolation, TransportError
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


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers,
                           "timeout": timeout})
        out = self.responses.pop(0)
        if isinstance(out, Exception):
            raise out
        return out


def test_remote_retries_5xx_then_succeeds():
    ok = FakeResponse(200, ok_body(scores=[{"id": 1, "s": 0.9}, {"id": 2, "s": 0.1}]))
    session = FakeSession([FakeResponse(500), ok])
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=2)
    resp = remote_call(cfg, make_req(), session=session, sleep=lambda s: None)
    assert resp.scores[1] == 0.9
    assert len(session.calls) == 2


def test_remote_exhausts_retries_on_5xx():
    session = FakeSession([FakeResponse(503)] * 3)
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=2)
    with pytest.raises(TransportError):
        remote_call(cfg, make_req(), session=session, sleep=lambda s: None)
    assert len(session.calls) == 3


def test_remote_4xx_is_not_retried():
    session = FakeSession([FakeResponse(404)])
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=5)
    with pytest.raises(SchemaViolation):
        remote_call(cfg, make_req(), session=session, sleep=lambda s: None)
    assert len(session.calls) == 1


def test_remote_bad_schema_is_not_retried():
    session = FakeSession([FakeResponse(200, {"version": "dynav/0", "kind": SCORE})])
    cfg = BackendConfig(endpoint="http://x/decide", max_retries=5)
    with pytest.raises(SchemaViolation):
        remote_call(cfg, make_req(), session=session, sleep=lambda s: None)
    assert len(session.calls) == 1


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
    ok = FakeResponse(200, ok_body(scores=[{"id": 1, "s": 0.5}, {"id": 2, "s": 0.5}]))
    session = FakeSession([ok])
    remote_call(BackendConfig(endpoint="http://x/decide"), make_req(), session=session)
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sesame"


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
