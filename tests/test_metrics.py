"""Aggregation of success rate, path efficiency, and distance metrics."""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynav.episodes import EpisodeResult, GoalResult
from dynav.errors import EmptyInput, SchemaViolation
from dynav.geometry import Pose
from dynav.metrics import compute_metrics, export_report, load_results, spl_term


def goal_result(success=True, path=10.0, shortest=8.0, category="chair",
                unreachable=False):
    return GoalResult(goal_text=category, category=category, success=success,
                      path_length=path, shortest=None if unreachable else shortest,
                      steps=12, stopped=success, unreachable=unreachable)


def episode(eid, goals):
    return EpisodeResult(episode_id=eid, seed=0, goal_results=tuple(goals),
                         trajectory=(Pose(1.0, 1.0, 0.0),), termination="stopped")


# -- per-goal efficiency term -------------------------------------------------------


def test_spl_term_basics():
    assert spl_term(True, 3.0, 6.0) == pytest.approx(0.5)
    assert spl_term(False, 3.0, 6.0) == 0.0
    assert spl_term(True, 5.0, 5.0) == pytest.approx(1.0)
    # traveling less than the oracle path (grid slack) still caps at 1
    assert spl_term(True, 5.0, 4.0) == pytest.approx(1.0)
    # spawning inside the goal region counts as perfect
    assert spl_term(True, 0.0, 0.0) == 1.0


@settings(max_examples=200, deadline=None)
@given(success=st.booleans(),
       shortest=st.floats(0.0, 100.0),
       traveled=st.floats(0.0, 300.0))
def test_spl_term_bounds(success, shortest, traveled):
    term = spl_term(success, shortest, traveled)
    assert 0.0 <= term <= 1.0
    assert term <= (1.0 if success else 0.0)


# -- aggregation ---------------------------------------------------------------------


def test_frozen_aggregate_example():
    # one success with l=10, p=20 and one failure: SR 0.5, SPL (0.5 + 0)/2
    results = [episode("e1", [goal_result(True, path=20.0, shortest=10.0)]),
               episode("e2", [goal_result(False)])]
    rep = compute_metrics(results)
    assert rep.sr == pytest.approx(0.5)
    assert rep.spl == pytest.approx(0.25)
    assert rep.acd_m == pytest.approx(20.0)
    assert rep.per_episode_sr == pytest.approx(0.5)
    assert rep.n_episodes == 2 and rep.n_subtasks == 2


# the SPL terms of the 42 sub-tasks of the multigoal benchmark, in order
MULTIGOAL_SPL_TERMS = (
    0.5163399154429239, 0.02754011339248613, 0.794155362106077, 0.03760710958777706, 0.0,
    0.10831230047975487, 0.6917860398841376, 0.9426125156015408, 0.6593394156759682,
    0.0501443504913273, 0.039484579437808136, 0.4990450240045708, 0.14040403310066465, 0.0,
    0.7796464844215673, 0.9383193694811837, 0.0, 0.09180631218284432, 0.8572935520443866,
    0.12053098004038941, 0.7869951114014504, 0.8038401256695707, 0.0, 0.30945886300400205,
    0.603943523077911, 0.2670659679798178, 0.566449756969304, 0.4394655453038277, 0.0,
    0.17767401346782682, 0.028183625974659014, 0.027251724376604853, 0.7948683433348359,
    0.05630458162365451, 0.03310560216307928, 0.07370944323500862, 0.7720379311679201,
    0.7390000749089248, 0.8842688363718392, 0.06019444669197286, 0.11164958563135925,
    0.1920986362643151,
)


def test_means_add_from_left_to_right():
    """Each mean adds its terms in order, rounding after each addition, on
    every Python: a compensated sum, as the built-in ``sum`` adds floats from
    Python 3.12 on, gives 0.35766507609507836 here."""
    n = len(MULTIGOAL_SPL_TERMS)
    mean = 0.3576650760950783
    assert math.fsum(MULTIGOAL_SPL_TERMS) / n != mean
    # l = term and p = 1 give the term itself; a term of 0 is a failure
    rep = compute_metrics([episode("spl", [goal_result(t > 0.0, path=1.0, shortest=t)
                                           for t in MULTIGOAL_SPL_TERMS])])
    assert rep.spl == rep.per_category["chair"].spl == mean
    # successes with these path lengths and l = 0 give them as the mean distance
    rep = compute_metrics([episode("acd", [goal_result(True, path=t, shortest=0.0)
                                           for t in MULTIGOAL_SPL_TERMS])])
    assert rep.acd_m == mean


def test_aggregate_matches_brute_force():
    results = [
        episode("a", [goal_result(True, 12.0, 9.0, "chair"),
                      goal_result(False, 30.0, 7.0, "table")]),
        episode("b", [goal_result(True, 5.0, 5.0, "table")]),
        episode("c", [goal_result(True, 8.0, 2.0, "chair")]),
    ]
    rep = compute_metrics(results)
    terms = [9.0 / 12.0, 0.0, 1.0, 2.0 / 8.0]
    assert rep.spl == pytest.approx(sum(terms) / 4, abs=1e-9)
    assert rep.sr == pytest.approx(3 / 4, abs=1e-9)
    assert rep.acd_m == pytest.approx((12.0 + 5.0 + 8.0) / 3, abs=1e-9)
    assert rep.per_episode_sr == pytest.approx(2 / 3, abs=1e-9)
    assert rep.per_category["chair"].n == 2
    assert rep.per_category["chair"].sr == pytest.approx(1.0)
    assert rep.per_category["chair"].spl == pytest.approx((9 / 12 + 2 / 8) / 2, abs=1e-9)
    assert rep.per_category["table"].sr == pytest.approx(0.5)
    assert rep.spl <= rep.sr + 1e-12


def test_unreachable_subtasks_are_excluded():
    results = [episode("a", [goal_result(True, 10.0, 5.0),
                             goal_result(unreachable=True)])]
    rep = compute_metrics(results)
    assert rep.n_subtasks == 1
    assert rep.excluded_unreachable == 1
    assert rep.sr == 1.0

    with pytest.raises(EmptyInput):
        compute_metrics([episode("a", [goal_result(unreachable=True)])])
    with pytest.raises(EmptyInput):
        compute_metrics([])


def test_aborted_and_wholly_excluded_episodes_are_not_fully_successful():
    """A chair-then-sofa episode in a world without a sofa aborts after its
    successful first goal and lists only that goal; another episode's only
    goal was excluded as unreachable.  Neither succeeded at every goal."""
    aborted = EpisodeResult(episode_id="a", seed=0, goal_results=(goal_result(True),),
                            trajectory=(Pose(1.0, 1.0, 0.0),), termination="aborted",
                            abort_reason="no object matches goal 'sofa'")
    excluded = episode("b", [goal_result(unreachable=True)])
    rep = compute_metrics([aborted, excluded, episode("c", [goal_result(True)])])
    assert rep.n_subtasks == 2 and rep.sr == 1.0
    assert rep.per_episode_sr == pytest.approx(1 / 3)
    assert "episodes fully successful: 33.3 % of 3" in rep.to_text()


def test_all_failures_have_no_acd():
    rep = compute_metrics([episode("a", [goal_result(False)])])
    assert rep.acd_m is None
    assert rep.sr == 0.0 and rep.spl == 0.0
    assert "n/a" in rep.to_text()


# -- report serialization ----------------------------------------------------------


def test_report_round_trip_and_export(tmp_path):
    rep = compute_metrics([
        episode("a", [goal_result(True, 12.0, 9.0, "chair")]),
        episode("b", [goal_result(False, 30.0, 7.0, "table")]),
    ])
    export_report(rep, str(tmp_path))
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload == rep.to_dict()
    assert payload["format"] == "dynav-report/1"
    assert payload["sr"] == pytest.approx(0.5)
    text = (tmp_path / "report.txt").read_text()
    assert "chair" in text and "overall" in text and "SPL" in text


def test_load_results_jsonl(tmp_path):
    eps = [episode("a", [goal_result(True)]), episode("b", [goal_result(False)])]
    path = tmp_path / "results.jsonl"
    with open(path, "w") as fh:
        for ep in eps:
            fh.write(json.dumps(ep.to_dict()) + "\n")
        fh.write("\n")  # trailing blank line is tolerated
    loaded = load_results(str(path))
    assert loaded == eps


def write_results(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


VALID_RESULT = episode("a", [goal_result(True), goal_result(False, unreachable=True)]).to_dict()
VALID_RESULT["abort_reason"] = "why"


@pytest.mark.parametrize("path, value", [
    (("goals", 0, "success"), "false"),  # bool("false") would count a success
    (("goals", 0, "stopped"), 1),
    (("goals", 0, "unreachable"), None),
    (("goals", 0, "path_length"), "10"),
    (("goals", 0, "path_length"), float("nan")),
    (("goals", 1, "shortest"), [8.0]),
    (("goals", 0, "steps"), 12.0),
    (("goals", 0, "steps"), -1),
    (("goals", 0, "path_length"), -2.0),  # an SPL term of a negative path is negative
    (("goals", 0, "shortest"), -3.0),
    (("goals", 0, "goal_text"), None),
    (("goals", 0), "chair"),
    (("goals",), {}),
    (("trajectory", 0), [1.0, 1.0]),
    (("trajectory", 0, 2), float("inf")),
    (("trajectory",), None),
    (("episode_id",), 5),
    (("seed",), "0"),
    (("termination",), None),
    (("termination",), "success"),
    (("abort_reason",), 3),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v))
def test_load_results_refuses_a_wrong_type(tmp_path, path, value):
    record = json.loads(json.dumps(VALID_RESULT))
    node = record
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    write_results(tmp_path / "results.jsonl", [VALID_RESULT, record])
    with pytest.raises(SchemaViolation):
        load_results(str(tmp_path / "results.jsonl"))


def test_load_results_names_the_line_of_a_syntax_error(tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(VALID_RESULT) + "\n\n" + '{"episode_id": "b",,}\n')
    with pytest.raises(SchemaViolation, match=r"results.jsonl:3:20:"):
        load_results(str(path))
    write_results(path, [VALID_RESULT])
    (again,) = load_results(str(path))
    assert again.to_dict() == VALID_RESULT
