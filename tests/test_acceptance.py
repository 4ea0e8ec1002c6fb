"""Release gate: nine numbered end-to-end checks with pinned tolerances and budgets.

Every check is seed-frozen and prints one PASS/FAIL line, so running this
module with ``pytest -s tests/test_acceptance.py`` doubles as the sign-off
checklist.  Expected values come from independent reference
implementations (brute-force aggregation and a sparse-graph shortest-path
solver embedded below, and the greedy re-implementation of candidate
sampling that ``conftest.reference_sample`` shares with the proposer tests),
not from the code under test.
"""
import base64
import itertools
import json
import math
import random
import struct
import time
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from dynav.backends import BackendConfig, OracleBackend, RemoteBackend
from dynav.backends.protocol import (
    SCORE,
    STOP_CHECK,
    DecisionResponse,
    make_score_request,
    request_context,
)
from dynav.backends.server import DecisionServer
from dynav.config import RunConfig
from dynav.episodes import EpisodeResult, EpisodeSpec, GoalResult, STOPPED, run_episode
from dynav.errors import RequestTimeout, SchemaViolation, TransportError, Unreachable
from dynav.geometry import AgentBody, Pose, angular_distance
from dynav.goals import GoalSpec
from dynav.memory import MemoryGraph, load_graph, merge, save_graph
from dynav.metrics import compute_metrics
from dynav.planning import SQRT2, goal_cells, shortest_path
from dynav.policy import propose, select_action
from dynav.proposer import (
    Adjustment,
    Candidate,
    CandidateSet,
    apply_filter_response,
    boundary,
    sample_initial,
)
from dynav.sensing import sense
from dynav.world import OBSTACLE, SemanticObject, WorldMap
from dynav.worldgen import WorldGenSpec, generate_world, random_free_pose

from conftest import Point, boundary_of, empty_world, random_grid_world, reference_sample


def _verdict(k, label, problems):
    ok = not problems
    print(f"[gate {k}/9] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"gate {k}/9 {label}: {problems[:5]}"


# -- 1. metric aggregation vs. brute force -----------------------------------------


def _rand_goal_result(rng):
    if rng.random() < 0.1:
        return GoalResult("box", "box", False, 0.0, None, 0, False, unreachable=True)
    category = rng.choice(("chair", "table", "plant"))
    shortest = 0.0 if rng.random() < 0.05 else rng.uniform(0.1, 20.0)
    traveled = 0.0 if shortest == 0.0 else shortest * rng.uniform(0.5, 2.5)
    success = rng.random() < 0.6
    return GoalResult(category, category, success, traveled, shortest,
                      rng.randrange(1, 50), success)


def _brute_report(eps):
    included = [g for ep in eps for g in ep.goal_results
                if not (g.unreachable or g.shortest is None)]

    def term(g):
        if not g.success:
            return 0.0
        denom = max(g.path_length, g.shortest)
        return g.shortest / denom if denom > 0 else 1.0

    sr = sum(g.success for g in included) / len(included)
    spl = sum(term(g) for g in included) / len(included)
    wins = [g.path_length for g in included if g.success]
    acd = sum(wins) / len(wins) if wins else None
    ep_ok = []
    for ep in eps:
        inc = [g for g in ep.goal_results if not (g.unreachable or g.shortest is None)]
        ep_ok.append(bool(ep.goal_results) and all(g.success for g in inc))
    cats = {}
    for g in included:
        cats.setdefault(g.category, []).append(g)
    cat_stats = {c: (len(gs), sum(g.success for g in gs) / len(gs),
                     sum(term(g) for g in gs) / len(gs)) for c, gs in cats.items()}
    return sr, spl, acd, sum(ep_ok) / len(ep_ok), cat_stats, len(included)


def test_1_metric_aggregation_matches_brute_force():
    rng = random.Random(101)
    t0 = time.monotonic()
    problems = []
    n_results = 0
    for trial in range(60):
        eps = []
        for e in range(rng.randrange(1, 6)):
            goals = [_rand_goal_result(rng) for _ in range(rng.randrange(1, 5))]
            if all(g.unreachable for g in goals):
                goals.append(GoalResult("chair", "chair", True, 4.0, 3.0, 5, True))
            eps.append(EpisodeResult(f"t{trial}e{e}", e, tuple(goals), (), STOPPED))
        n_results += len(eps)
        rep = compute_metrics(eps)
        sr, spl, acd, ep_sr, cats, n_sub = _brute_report(eps)
        checks = [
            abs(rep.sr - sr) <= 1e-9,
            abs(rep.spl - spl) <= 1e-9,
            (rep.acd_m is None) == (acd is None),
            acd is None or abs(rep.acd_m - acd) <= 1e-9,
            abs(rep.per_episode_sr - ep_sr) <= 1e-9,
            rep.n_subtasks == n_sub,
            rep.spl <= rep.sr + 1e-12,
            set(rep.per_category) == set(cats),
        ]
        for c, (n, csr, cspl) in cats.items():
            got = rep.per_category[c]
            checks += [got.n == n, abs(got.sr - csr) <= 1e-9, abs(got.spl - cspl) <= 1e-9]
        if not all(checks):
            problems.append(trial)
    elapsed = time.monotonic() - t0
    if n_results < 100:
        problems.append(f"only {n_results} synthetic results")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(1, "metric aggregation matches brute-force re-evaluation", problems)


# -- 2. shortest path vs. sparse-graph solver ---------------------------------------


def _csgraph_shortest(world, start, goal, threshold, body):
    free = np.array(world.free_with_clearance(body.radius))
    six, siy = world.cell_of(start.x, start.y)
    free[siy, six] = True
    h, w = free.shape

    def idx(x, y):
        return y * w + x

    rows, cols, data = [], [], []
    for y in range(h):
        for x in range(w):
            if not free[y, x]:
                continue
            for dx, dy, cost in ((1, 0, 1.0), (0, 1, 1.0), (1, 1, SQRT2), (1, -1, SQRT2)):
                nx, ny = x + dx, y + dy
                if not (0 <= nx < w and 0 <= ny < h and free[ny, nx]):
                    continue
                if dx and dy and not (free[y, nx] and free[ny, x]):
                    continue
                rows.append(idx(x, y))
                cols.append(idx(nx, ny))
                data.append(cost)
    m = csr_matrix((data, (rows, cols)), shape=(h * w, h * w))
    dist = dijkstra(m, directed=False, indices=idx(six, siy))
    goals = goal_cells(world, goal, threshold, body)
    return min(dist[idx(x, y)] for (y, x) in np.argwhere(goals)) * world.resolution


def test_2_shortest_path_matches_reference():
    body = AgentBody()
    t0 = time.monotonic()
    problems = []
    compared = 0
    for seed in range(50):
        rng = random.Random(seed)
        base = random_grid_world(rng, n=64, fill=0.2)
        bare = WorldMap(np.array(base.grid), base.resolution)
        spots = np.argwhere(bare.free_with_clearance(0.35))
        iy, ix = spots[rng.randrange(len(spots))]
        obj = SemanticObject(name="target", category="box",
                             center=bare.cell_center(int(ix), int(iy)), radius=0.2)
        world = WorldMap(np.array(base.grid), base.resolution, [obj])
        cells = np.argwhere(world.free_with_clearance(body.radius))
        iy, ix = cells[rng.randrange(len(cells))]
        start = Pose(*world.cell_center(int(ix), int(iy)), 0.0)
        goal = GoalSpec.name_goal("box")
        if not goal_cells(world, goal, 0.3, body).any():
            continue
        try:
            got = shortest_path(world, start, goal, 0.3, body)
        except Unreachable:
            if not math.isinf(_csgraph_shortest(world, start, goal, 0.3, body)):
                problems.append((seed, "reference found a path"))
            continue
        ref = _csgraph_shortest(world, start, goal, 0.3, body)
        if abs(got - ref) > 1e-9:
            problems.append((seed, got, ref))
        compared += 1
    elapsed = time.monotonic() - t0
    if compared < 40:
        problems.append(f"only {compared} comparable worlds")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(2, "shortest path agrees with sparse-graph solver on 50 worlds", problems)


# -- 3. candidate sampling and filter invariants ------------------------------------


def test_3_candidate_sampling_invariants_in_bulk():
    rng = random.Random(2024)
    t0 = time.monotonic()
    problems = []
    for trial in range(1000):
        fov = math.radians(rng.uniform(20.0, 300.0))
        n = rng.randrange(3, 61)
        thetas = [-fov / 2 + fov * i / (n - 1) for i in range(n)]
        points = [Point(0.0 if rng.random() < 0.1 else rng.uniform(0.0, 12.0), t)
                  for t in thetas]
        alpha = rng.uniform(0.2, 1.0)
        theta_delta = math.radians(rng.uniform(0.0, 40.0))
        r_min = rng.uniform(0.0, 0.5)
        out = sample_initial(boundary_of(points, fov), alpha, theta_delta, r_min)
        got = [(round(c.r, 12), round(c.theta, 12)) for c in out.candidates]
        ref = [(round(r, 12), round(t, 12))
               for r, t in reference_sample(points, alpha, theta_delta, r_min)]
        if got != ref:
            problems.append((trial, "greedy mismatch"))
            continue
        cands = out.candidates
        if [c.id for c in cands] != list(range(1, len(cands) + 1)):
            problems.append((trial, "ids not 1..n"))
        if any(c.r < r_min - 1e-12 for c in cands):
            problems.append((trial, "r below r_min"))
        scaled = {round(p.theta, 12): p.r * alpha for p in points}
        if any(abs(scaled[round(c.theta, 12)] - c.r) > 1e-9 for c in cands):
            problems.append((trial, "margin law broken"))
        for a, b in itertools.combinations(cands, 2):
            if angular_distance(a.theta, b.theta) < theta_delta - 1e-12:
                problems.append((trial, "separation broken"))
        if cands:
            best_kept = max(c.r for c in cands)
            best_avail = max((p.r * alpha for p in points if p.r * alpha >= r_min),
                             default=0.0)
            if abs(best_kept - best_avail) > 1e-12:
                problems.append((trial, "farthest point not kept"))

        # randomized filter responses keep the subset and separation laws
        ids = [c.id for c in cands]
        removals = [i for i in ids if rng.random() < 0.3]
        adjustments = []
        for c in cands:
            roll = rng.random()
            if roll < 0.2:
                theta = c.theta + rng.uniform(-theta_delta / 2, theta_delta / 2)
                adjustments.append(Adjustment(c.id, c.r * rng.uniform(0.3, 1.0), theta))
            elif roll < 0.3:  # invalid: r grows or flips sign
                adjustments.append(Adjustment(c.id, c.r * rng.choice((1.5, -1.0)), c.theta))
            elif roll < 0.35:  # invalid: angular move beyond the half-gap
                adjustments.append(Adjustment(c.id, c.r, c.theta + theta_delta * 1.1))
        final = apply_filter_response(out, removals, adjustments)
        if not {c.id for c in final.candidates} <= set(ids) - set(removals):
            problems.append((trial, "subset law broken"))
        for a, b in itertools.combinations(final.candidates, 2):
            if angular_distance(a.theta, b.theta) < theta_delta - 1e-9:
                problems.append((trial, "post-filter separation broken"))
        orig = {c.id: c for c in cands}
        for c in final.candidates:
            if c.r > orig[c.id].r + 1e-12:
                problems.append((trial, "adjustment extended a candidate"))
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(3, "candidate sampling and filtering laws over 1000 boundaries", problems)


# -- 4. navigation competence of the deterministic backend --------------------------


_WORLDS = WorldGenSpec(categories=("chair", "table"), rooms=2, objects_per_category=2)


def test_4_oracle_backend_reaches_every_goal():
    t0 = time.monotonic()
    problems = []
    for seed in range(50):
        cfg = RunConfig(max_distance_m=10000.0)
        world = generate_world(_WORLDS, seed)
        start = random_free_pose(world, random.Random(seed + 1000), AgentBody())
        spec = EpisodeSpec(episode_id=f"w{seed}", world=world,
                           goals=(GoalSpec.name_goal("chair"),), start=start, seed=seed)
        g = run_episode(spec, OracleBackend.from_config(cfg), cfg).goal_results[0]
        if not g.success or g.steps > 200:
            problems.append((seed, g.success, g.steps))
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(4, "success rate 1.0 on 50 generated single-goal worlds", problems)


# -- 5. graph memory helps the second goal ------------------------------------------


class _SightingRecorder:
    """Flags whether any goal-1 scoring request ever saw a table-labelled ray."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = False

    def decide(self, req):
        if req.kind == SCORE and req.context.goal_text == "chair":
            if any(label and "table" in label for label, _, _ in req.context.hits):
                self.seen = True
        return self.inner.decide(req)


def test_5_memory_improves_revisit_efficiency():
    picked, rows, w_sel, wo_sel = [], [], [], []
    seed = 0
    while len(picked) < 30 and seed < 200:
        cfg = RunConfig(max_distance_m=10000.0)
        world = generate_world(_WORLDS, seed)
        start = random_free_pose(world, random.Random(seed + 1000), AgentBody())
        spec = EpisodeSpec(
            episode_id=f"p{seed}", world=world,
            goals=(GoalSpec.name_goal("chair"), GoalSpec.name_goal("table")),
            start=start, seed=seed)
        rec = _SightingRecorder(OracleBackend.from_config(cfg))
        w = run_episode(spec, rec, replace(cfg, memory_enabled=True))
        wo = run_episode(spec, rec, replace(cfg, memory_enabled=False))
        if rec.seen:
            picked.append(seed)
            w_sel.append(w)
            wo_sel.append(wo)
            rows.append((w.goal_results[1].path_length, wo.goal_results[1].path_length))
        seed += 1
    problems = []
    if len(picked) != 30:
        problems.append(f"only {len(picked)} conditioned pairs")
    else:
        rw, rwo = compute_metrics(w_sel), compute_metrics(wo_sel)
        le = sum(1 for a, b in rows if a <= b + 1e-9)
        if not rw.spl > rwo.spl:
            problems.append(f"mean SPL not improved: {rw.spl:.4f} vs {rwo.spl:.4f}")
        if le < math.ceil(0.8 * len(rows)):
            problems.append(f"goal-2 path shorter-or-equal in only {le}/{len(rows)}")
        # determinism freeze of the measured outcome
        if picked != [0, 1, 2, 3, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18, 20,
                      21, 22, 23, 25, 26, 27, 28, 30, 31, 32, 33, 34, 35]:
            problems.append(f"conditioned seed set drifted: {picked}")
        if le != 24:
            problems.append(f"pair outcome drifted: {le}/30")
        if not (abs(rw.spl - 0.3670) < 2e-4 and abs(rwo.spl - 0.3351) < 2e-4):
            problems.append(f"SPL drifted: {rw.spl:.4f}/{rwo.spl:.4f}")
        if rw.sr != 1.0 or rwo.sr != 1.0:
            problems.append(f"SR dropped: {rw.sr}/{rwo.sr}")
    _verdict(5, "memory-enabled arm beats memory-disabled arm on 30 pairs", problems)


# -- 6. the two-consecutive-confidence stop rule ------------------------------------


class _StopScript:
    def __init__(self, stops):
        self.stops = list(stops)

    def decide(self, req):
        if req.kind == STOP_CHECK:
            return DecisionResponse(kind=STOP_CHECK, s_stop=self.stops.pop(0))
        return DecisionResponse(kind=SCORE, scores={c.id: 0.5 for c in req.candidates},
                                s_stop=self.stops.pop(0))


def test_6_stop_rule_exhaustive_truth_table():
    tau, eps = 0.6, 0.05
    cfg = RunConfig(tau_stop=tau, n_rays=11)
    world = empty_world(10.0, 8.0)
    obs = sense(world, Pose(5.0, 4.0, 0.0), AgentBody(), n_rays=11)
    cset = CandidateSet((Candidate(1, 2.0, 0.0),), alpha=0.8,
                        theta_delta=math.radians(15.0))
    ctx = request_context(obs, session_id="adhoc", goal=GoalSpec.name_goal("chair"))
    problems = []
    for length in range(1, 5):
        for seq in itertools.product((0.0, tau, tau + eps), repeat=length):
            expected = next((i for i in range(1, length)
                             if seq[i - 1] > tau and seq[i] > tau), None)
            backend = _StopScript(seq)
            streak, got = 0, None
            for i in range(length):
                decision = select_action(ctx, cset, backend, cfg, streak)[0]
                streak = decision.stop_streak
                if decision.chosen.stop:
                    got = i
                    break
            if got != expected:
                problems.append((seq, got, expected))
    _verdict(6, "stop fires exactly on two consecutive confident checks", problems)


# -- 7. merge algebra and persistence ------------------------------------------------


_NODE_POOL = [f"{n}_{i}" for n in ("lamp", "sofa", "door", "sink") for i in range(3)]


def _rand_graph(rng):
    g = MemoryGraph()
    for _ in range(rng.randrange(0, 14)):
        if rng.random() < 0.65:
            g.add_node(rng.choice(_NODE_POOL),
                       rng.sample(("red", "tall", "old", "metal"), rng.randrange(3)),
                       (round(rng.uniform(0, 9), 2), round(rng.uniform(0, 9), 2)),
                       step=rng.randrange(40))
        else:
            a, b = rng.sample(_NODE_POOL, 2)
            g.add_edge(a, b, rng.choice(("near", "left of")))
    return g


def test_7_merge_algebra_and_lossless_persistence(tmp_path):
    rng = random.Random(77)
    problems = []
    for trial in range(100):  # 100 pairs + 100 triples = 200 randomized cases
        a, b = _rand_graph(rng), _rand_graph(rng)
        if merge(a, b).to_dict() != merge(b, a).to_dict():
            problems.append((trial, "not commutative"))
        if merge(a, a).to_dict() != a.to_dict():
            problems.append((trial, "not idempotent"))
        if merge(a, MemoryGraph()).to_dict() != a.to_dict():
            problems.append((trial, "empty graph is not an identity"))
    for trial in range(100):
        a, b, c = _rand_graph(rng), _rand_graph(rng), _rand_graph(rng)
        if merge(a, merge(b, c)).to_dict() != merge(merge(a, b), c).to_dict():
            problems.append((trial, "not associative"))
        path = tmp_path / f"g{trial}.json"
        save_graph(merge(a, merge(b, c)), path)
        if load_graph(path).to_dict() != merge(a, merge(b, c)).to_dict():
            problems.append((trial, "lossy save/load"))
    _verdict(7, "merge is commutative, associative, idempotent; files are lossless",
             problems)


# -- 8. wire protocol conformance against the scripted server -----------------------


def _plant_request():
    plant = SemanticObject(name="plant_1", category="plant", center=(8.0, 4.0),
                           radius=0.3, attributes=("green",))
    world = empty_world(10.0, 8.0, objects=[plant])
    obs = sense(world, Pose(5.0, 4.0, 0.0), AgentBody(), n_rays=3,
                fov=math.radians(131.0), step=2)
    ctx = request_context(obs, session_id="golden", goal=GoalSpec.name_goal("plant"))
    cset = CandidateSet((Candidate(1, 2.16, 0.0),), alpha=0.8,
                        theta_delta=math.radians(15.0))
    return make_score_request(ctx, cset)


def test_8_wire_protocol_conformance():
    problems = []
    req = _plant_request()

    def client(server, **config):
        return closing(RemoteBackend(BackendConfig(endpoint=server.endpoint, **config)))

    server = DecisionServer(script=[{"kind": "score", "scores_all": 0.25}])
    with server, client(server) as backend:
        resp = backend.decide(req)
        if resp.scores != {1: 0.25}:
            problems.append(("scores", resp.scores))
        rec = server.requests[-1]
        if rec != req.to_dict():
            problems.append(("request drifted on the wire", rec))
        rays = rec["observation"]["rays"]
        hit = rec["observation"]["hits"][rays["hit"][1]]
        # the bearings and distances travel as base64 of little-endian float64s
        theta_deg, distance_m = (struct.unpack("<3d", base64.b64decode(rays[k], validate=True))
                                 for k in ("theta_deg", "distance_m"))
        if not (rec["version"] == "dynav/6" and rec["kind"] == "score"
                and rec["template_id"] == "goal-name/3"
                and rec["goal"] == {"kind": "name", "category": "plant", "attributes": []}
                and rec["memory"] == []
                and hit["label"] == "plant_1" and abs(distance_m[1] - 2.7) < 1e-6
                and theta_deg[1] == 0.0 and hit["attributes"] == ["green"]
                and rec["candidates"] == [{"id": 1, "r_m": 2.16, "theta_deg": 0.0}]
                and rec["observation"]["pose"] == {"x_m": 5.0, "y_m": 4.0,
                                                   "heading_deg": 0.0}):
            problems.append(("golden fields", rec))

    server = DecisionServer(script=[{"kind": "score", "scores_all": 1.7}])
    with server, client(server) as backend:
        resp = backend.decide(req)
        if resp.scores != {1: 1.0}:
            problems.append(("clamp", resp.scores))

    server = DecisionServer(script=[{"kind": "score", "raw_body": "{not json"}])
    with server, client(server) as backend:
        with pytest.raises(SchemaViolation):
            backend.decide(req)

    server = DecisionServer(script=[{"kind": "score", "delay_ms": 300}])
    with server, client(server, timeout_ms=80, max_retries=1) as backend:
        with pytest.raises(RequestTimeout):
            backend.decide(req)
        if len(server.requests) != 2:
            problems.append(("timeout retries", len(server.requests)))

    server = DecisionServer(script=[{"kind": "score", "status": 500}])
    with server, client(server, max_retries=2) as backend:
        with pytest.raises(TransportError):
            backend.decide(req)
        if len(server.requests) != 3:
            problems.append(("transport retries", len(server.requests)))

    # a fully scripted episode stops exactly on the two-step confidence streak
    chair = SemanticObject(name="chair_1", category="chair", center=(8.0, 4.0),
                           radius=0.3)
    world = empty_world(10.0, 8.0, objects=[chair])
    script = [
        {"kind": "score", "scores_all": 0.5},
        {"kind": "stop_check", "body": {"s_stop": 0.0}},
        {"kind": "score", "step": 4, "scores_all": 0.5, "body": {"s_stop": 0.9}},
        {"kind": "score", "step": 5, "scores_all": 0.5, "body": {"s_stop": 0.9}},
    ]
    server = DecisionServer(script=script)
    with server, client(server) as backend:
        cfg = RunConfig(n_rays=31, backend="remote", endpoint=server.endpoint)
        spec = EpisodeSpec(episode_id="scripted", world=world,
                           goals=(GoalSpec.name_goal("chair"),),
                           start=Pose(2.0, 6.0, math.radians(180.0)))
        res = run_episode(spec, backend, cfg)
        g = res.goal_results[0]
        if not (g.steps == 6 and g.stopped and res.termination == STOPPED):
            problems.append(("scripted episode", g.steps, g.stopped, res.termination))
        if len(server.requests) != g.steps:  # one request per step
            problems.append(("requests per episode", len(server.requests), g.steps))

    _verdict(8, "wire protocol golden/timeout/retry/clamp/schema and scripted stop",
             problems)


# -- 9. constraint-driven hazard filtering ------------------------------------------


def test_9_hazard_candidates_always_filtered():
    sign = SemanticObject(name="sign_1", category="sign", center=(5.0, 4.0),
                          radius=0.25, attributes=("yellow",),
                          tags=frozenset({"hazard"}))
    world = empty_world(10.0, 8.0, objects=[sign])
    cfg = RunConfig()
    body = AgentBody()
    backend = OracleBackend.from_config(cfg)
    constraints = ("avoid the caution sign",)
    rng = random.Random(99)
    problems = []
    removed_total = 0
    for i in range(100):
        pose = random_free_pose(world, rng, body)
        obs = sense(world, pose, body, n_rays=cfg.n_rays, fov=cfg.fov, step=i)
        initial = sample_initial(boundary(obs), cfg.alpha, cfg.theta_delta, cfg.r_min)
        ctx = request_context(obs, session_id="adhoc", goal=GoalSpec.name_goal("chair"),
                              constraints=constraints)
        # the step's one request: its reply's removals apply in select_action
        _, final, _ = select_action(ctx, propose(obs, cfg), backend, cfg, 0)
        removed_total += len(initial.candidates) - len(final.candidates)
        for c in final.candidates:
            ex = pose.x + c.r * math.cos(pose.heading + c.theta)
            ey = pose.y + c.r * math.sin(pose.heading + c.theta)
            gap = math.hypot(ex - 5.0, ey - 4.0) - 0.25
            if gap < cfg.hazard_clearance_m - 1e-9:
                problems.append((i, c.id, round(gap, 3)))
    if removed_total != 6:  # deterministic fixture: the filter did fire
        problems.append(f"removed {removed_total} candidates, expected 6")
    _verdict(9, "no surviving candidate within hazard clearance over 100 poses",
             problems)