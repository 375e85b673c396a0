"""Result records and report serialization."""

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsupercheck.report import Report, SweepPlan, result_json
from qsupercheck.results import CheckResult, Status, canonical_params

from oracles import plan_dict, report_dict, result_dict


def test_fails_requires_witness():
    with pytest.raises(ValueError):
        CheckResult("thm12", {"d": 3, "n": 5}, Status.FAILS)


def test_canonical_params_sorted_and_flattened():
    assert canonical_params({"n": 3, "d": 2}) == "d=2;n=3"
    assert canonical_params({"n_list": (1, 0, 2), "m": 3}) == "m=3;n_list=1,0,2"


def test_report_summary_and_sorting():
    plan = SweepPlan([("a", {"x": 2}), ("a", {"x": 1})], seed=1, trials=5)
    report = Report(plan, [
        CheckResult("a", {"x": 2}, Status.HOLDS),
        CheckResult("a", {"x": 1}, Status.SKIPPED_PRECONDITION, note="why"),
    ])
    data = report_dict(report)
    assert data["summary"] == {"holds": 1, "fails": 0, "skipped": 1}
    assert [r["params"]["x"] for r in data["results"]] == [1, 2]
    parsed = json.loads(report.to_json())
    assert parsed["plan"]["instances"] == 2
    assert parsed["plan"]["fast_mode"] is False


def test_a_plan_takes_fast_mode_only_as_false():
    # perfbench/worker.py passes False by position; there is no fast mode.
    plan = SweepPlan([], 1, 5, False, suite="paper-default")
    assert plan_dict(plan)["fast_mode"] is False
    assert not hasattr(plan, "fast_mode")
    with pytest.raises(ValueError):
        SweepPlan([], 1, 5, True)


def test_csv_rendering_and_tuple_params():
    plan = SweepPlan([("km", {"n_list": (1, 1), "m": 2})], seed=1, trials=5)
    report = Report(plan, [CheckResult("km", {"n_list": (1, 1), "m": 2},
                                       Status.HOLDS)])
    lines = report.to_csv().splitlines()
    assert lines[0] == "id,params,status,elapsed_ms"
    assert lines[1].startswith("km,") and "n_list=1,1" in lines[1]
    with pytest.raises(ValueError):
        report.render("xml")


def _dumps(report):
    """The report as ``json.dumps`` lays it out: what ``to_json`` must give
    byte for byte."""
    return json.dumps(report_dict(report), indent=2, sort_keys=True) + "\n"


def _csv(report):
    """The CSV as it was written before each parameter string was built
    once: sorted on (id, canonical params), one row per result."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "params", "status", "elapsed_ms"])
    for r in sorted(report.results,
                    key=lambda r: (r.check_id, canonical_params(r.params))):
        writer.writerow([r.check_id, canonical_params(r.params),
                         r.status.value, round(r.elapsed_ms, 3)])
    return buf.getvalue()


_RESULTS = [
    CheckResult("thm12", {"d": 3, "n": 5}, Status.HOLDS, elapsed_ms=1.23456),
    CheckResult("thm12", {"d": 3, "n": 2}, Status.HOLDS,
                note="boundary case n = 2: accepted", elapsed_ms=0.0004),
    CheckResult("km", {"m": 3, "n_list": (1, 0, 2), "trials": 5, "seed": 42},
                Status.HOLDS, elapsed_ms=12),
    CheckResult("km", {"m": 0, "n_list": (), "trials": 5, "seed": 42},
                Status.SKIPPED_PRECONDITION, note="requires m >= 1"),
    CheckResult("eq13", {"d": 2, "n": 3}, Status.FAILS,
                witness='cross-multiplied "q\\x" é≤ \U0001d4b5\n\t',
                elapsed_ms=3.5),
    CheckResult("p3_32", {"d": 5, "n": 4, "r": 1}, Status.ERROR,
                witness="RuntimeError: no certificate", elapsed_ms=0.25),
    CheckResult("qbinom_vanish", {"n": 4, "j": -1, "expect": "nonzero"},
                Status.HOLDS, elapsed_ms=float("inf")),
]


@pytest.mark.parametrize("suite", ["paper-default", None])
def test_json_layout_is_the_encoders_byte_for_byte(suite):
    # A suite plan and a grid plan; notes; FAILS witnesses with quotes,
    # backslashes, control characters and non-ASCII text; ERROR results;
    # km offset tuples, empty ones too.
    plan = SweepPlan([(r.check_id, r.params) for r in _RESULTS], seed=42,
                     trials=5, suite=suite)
    report = Report(plan, list(_RESULTS))
    report.total_elapsed_ms = 17.123456
    assert report.to_json() == _dumps(report)
    for r in _RESULTS:
        assert result_json(r) == json.dumps(result_dict(r), indent=2,
                                            sort_keys=True)
    assert report.to_csv() == _csv(report)
    assert report.summary() == {"holds": 4, "fails": 1, "skipped": 1,
                                "errors": 1}


def test_empty_sweep_report():
    for suite in ("paper-default", None):
        report = Report(SweepPlan([], seed=1, trials=5, suite=suite), [])
        assert report.to_json() == _dumps(report)
        assert report.to_csv() == _csv(report) == "id,params,status,elapsed_ms\n"
    assert '"results": []' in report.to_json()
    assert '"checks": []' in report.to_json()


_json_leaf = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
              | st.floats(allow_nan=True) | st.text(max_size=6))
_json_value = st.recursive(
    _json_leaf, lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
_param_values = (st.integers(-5, 60) | st.tuples(st.integers(0, 5))
                 | st.lists(st.integers(-3, 3), max_size=3) | _json_value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["km", "thm12", "p7_45", "été", 'a"b']),
    st.dictionaries(st.sampled_from(["d", "n", "r", "n_list", "x\\y", "é"]),
                    _param_values, max_size=3),
    st.sampled_from(list(Status)),
    st.text(max_size=8), st.none() | st.text(max_size=8),
    st.floats(allow_nan=False) | st.integers(0, 100)), max_size=8),
    st.none() | st.sampled_from(["paper-default", "süite"]),
    _json_value, st.floats(allow_nan=False, allow_infinity=False))
def test_json_layout_matches_the_encoder_on_any_report(rows, suite, seed,
                                                       total):
    results = [CheckResult(cid, params, status, witness=witness, note=note,
                           elapsed_ms=elapsed)
               for cid, params, status, witness, note, elapsed in rows]
    plan = SweepPlan([(r.check_id, r.params) for r in results], seed=seed,
                     trials=5, suite=suite)
    report = Report(plan, results)
    report.total_elapsed_ms = total
    assert report.to_json() == _dumps(report)
    assert report.to_csv() == _csv(report)
    for r in results:
        assert result_json(r) == json.dumps(result_dict(r), indent=2,
                                            sort_keys=True)
