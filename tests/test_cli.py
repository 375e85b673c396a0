"""Command-line interface: exit codes, reports, determinism."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsupercheck import catalog, cli
from qsupercheck.cli import main

from oracles import result_dict


def _strip_timing(report: dict) -> dict:
    out = copy.deepcopy(report)
    out.pop("total_elapsed_ms", None)
    for result in out.get("results", []):
        result.pop("elapsed_ms", None)
    return out


def test_verify_holds_exit_zero(capsys):
    code = main(["verify", "--check", "thm12", "--d", "3", "--n", "5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "HOLDS"
    assert out["id"] == "thm12"
    assert out["params"] == {"d": 3, "n": 5}


def test_verify_skipped_exit_zero(capsys):
    code = main(["verify", "--check", "thm11", "--d", "4", "--n", "6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "SKIPPED_PRECONDITION"


def test_verify_qbinom_rewrite_without_positive_d_is_skipped(capsys):
    code = main(["verify", "--check", "qbinom_rewrite", "--d", "0", "--r", "4",
                 "--n", "11", "--k", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "SKIPPED_PRECONDITION"


def test_verify_qbinom_rewrite_skip_names_the_negative_top(capsys):
    # n == -r (mod d) and k >= 0 both hold; top = n - 1 - (n + r)/d = -1.
    code = main(["verify", "--check", "qbinom_rewrite", "--d", "3", "--r", "4",
                 "--n", "2", "--k", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "SKIPPED_PRECONDITION"
    assert out["note"] == "requires n - 1 - (n + r)/d >= 0"


def test_verify_qbinom_vanish_expect_without_j_is_skipped(capsys):
    # Every j in 0..4 vanishes, so a silently dropped expectation would
    # read as HOLDS.
    code = main(["verify", "--check", "qbinom_vanish", "--n", "5",
                 "--expect", "nonzero"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "SKIPPED_PRECONDITION"
    assert out["note"] == "requires j with expect"
    assert out["params"] == {"n": 5, "expect": "nonzero"}


def test_verify_km_without_trials_is_skipped(capsys):
    code = main(["verify", "--check", "km", "--n-list", "1,2", "--trials", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "SKIPPED_PRECONDITION"
    assert out["note"] == "requires trials >= 1"


def test_verify_unknown_check_exit_two(capsys):
    assert main(["verify", "--check", "bogus", "--n", "3"]) == 2


def test_verify_missing_params_exit_two(capsys):
    assert main(["verify", "--check", "thm12", "--d", "3"]) == 2


def test_verify_fails_exit_one(capsys):
    code = main(["verify", "--check", "qbinom_vanish", "--n", "2",
                 "--j", "2", "--expect", "zero"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "FAILS"
    assert "witness" in out


@pytest.mark.parametrize("argv, status, code", [
    (["--check", "thm12", "--d", "3", "--n", "5"], "HOLDS", 0),
    (["--check", "qbinom_vanish", "--n", "5", "--j", "7", "--expect", "zero"],
     "FAILS", 1),
    (["--check", "thm11", "--d", "4", "--n", "6"], "SKIPPED_PRECONDITION", 0),
    (["--check", "km", "--n-list", "1,2"], "HOLDS", 0),
])
def test_verify_prints_the_result_oracle_byte_for_byte(argv, status, code,
                                                       capsys, monkeypatch):
    # The result verify ran, caught on its way out, laid out by json.dumps
    # from the tests' result_dict: a witness, a note and an offset list.
    seen, real = [], cli.run_check

    def run(*task):
        seen.append(real(*task))
        return seen[-1]

    monkeypatch.setattr(cli, "run_check", run)
    assert main(["verify", *argv]) == code
    (result,) = seen
    assert result.status.value == status
    assert capsys.readouterr().out == json.dumps(
        result_dict(result), indent=2, sort_keys=True) + "\n"


def test_sweep_inline_grid(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["sweep", "--check", "thm12", "--d", "3,5",
                 "--n", "2,4,5,8,9", "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["plan"]["instances"] == 10
    summary = report["summary"]
    assert summary["fails"] == 0
    assert summary["holds"] + summary["skipped"] == 10
    ids = [(r["id"], r["params"]["d"], r["params"]["n"])
           for r in report["results"]]
    assert ids == sorted(ids)


def test_grid_sweep_json_report_loads_with_its_summary(tmp_path, capsys):
    # The JSON report is laid out by hand, not by the json encoder.
    out_path = tmp_path / "report.json"
    assert main(["sweep", "--check", "pochhammer_split_general",
                 "--d", "3,5,7,9,11,13", "--r", "1,2,3,4",
                 "--k", "0,1,2,3,4,5,6,7,8", "--format", "json",
                 "--out", str(out_path)]) == 0
    with out_path.open(encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["summary"] == {"holds": 198, "fails": 0, "skipped": 18}
    assert capsys.readouterr().err.splitlines()[-1] == (
        "holds=198 fails=0 skipped=18")


def test_sweep_reports_are_reproducible(tmp_path):
    args = ["sweep", "--check", "km", "--m-max", "2", "--nj-max", "2",
            "--trials", "3", "--seed", "42"]
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    report_a = _strip_timing(json.loads(path_a.read_text()))
    report_b = _strip_timing(json.loads(path_b.read_text()))
    assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("flag", [["--seed", "1"], ["--trials", "9"]])
def test_sampling_flags_on_another_check_are_usage_errors(command, flag,
                                                          capsys):
    # Only km samples; thm12 would drop the flag and report HOLDS.
    code = main([command, "--check", "thm12", "--d", "3", "--n", "5", *flag])
    assert code == 2
    assert f"{flag[0]} does not apply to thm12" in capsys.readouterr().err


def test_km_sampling_flags_default_when_not_given(capsys):
    assert main(["verify", "--check", "km", "--n-list", "1,2"]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert (params["seed"], params["trials"]) == (42, 5)


@pytest.mark.parametrize("module, absent", [
    ("qsupercheck", ("dataclasses", "inspect")),
    ("qsupercheck.cli", ("dataclasses", "inspect", "multiprocessing",
                         "concurrent.futures")),
])
def test_import_leaves_heavy_modules_unloaded(module, absent):
    # The process pool loads only under --jobs > 1, and dataclasses
    # would bring inspect, ast, dis and tokenize to every process.
    src = str(Path(cli.__file__).parents[1])
    code = (f"import sys, {module}; "
            f"print(*[m for m in {absent!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_sweep_m_max_on_another_check_is_a_usage_error(capsys):
    code = main(["sweep", "--check", "p4_33", "--d", "3", "--r", "1",
                 "--n", "5", "--m-max", "3"])
    assert code == 2
    assert "--m-max applies only to sweep --check km" in capsys.readouterr().err


def test_sweep_nj_max_without_m_max_is_a_usage_error(capsys):
    code = main(["sweep", "--check", "km", "--n-list", "1,2", "--nj-max", "2"])
    assert code == 2
    assert "--nj-max needs --m-max" in capsys.readouterr().err


def test_sweep_n_list_with_m_max_is_a_usage_error(capsys):
    code = main(["sweep", "--check", "km", "--m-max", "2", "--n-list", "1,2"])
    assert code == 2
    assert "--n-list does not combine with --m-max" in capsys.readouterr().err


def test_sweep_m_max_below_one_is_a_usage_error(capsys):
    # An empty km grid would otherwise run nothing and exit 0.
    for value in ("0", "-2"):
        code = main(["sweep", "--check", "km", "--m-max", value])
        assert code == 2
        assert "--m-max must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--suite", "--plan"])
@pytest.mark.parametrize("flag, value", [
    ("--check", "thm12"), ("--d", "3"), ("--r", "1"), ("--n", "5"),
    ("--j", "1"), ("--k", "2"), ("--p", "7"), ("--m", "2"),
    ("--n-list", "1,2"), ("--expect", "zero"), ("--m-max", "2"),
    ("--nj-max", "1")])
def test_flags_beside_a_suite_or_plan_are_usage_errors(tmp_path, capsys,
                                                       source, flag, value):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"checks": []}))
    given = "paper-default" if source == "--suite" else str(plan_path)
    assert main(["sweep", source, given, flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{flag} does not combine with {source}" in err
    assert "running" not in err


def test_suite_and_plan_together_are_a_usage_error(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"checks": []}))
    assert main(["sweep", "--plan", str(plan_path), "--suite",
                 "paper-default"]) == 2
    assert "--suite does not combine with --plan" in capsys.readouterr().err


def test_run_flags_stay_allowed_beside_a_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"checks": [
        {"id": "km", "params": {"n_list": [1]}}]}))
    out_path = tmp_path / "report.csv"
    assert main(["sweep", "--plan", str(plan_path), "--seed", "3",
                 "--trials", "2", "--jobs", "1", "--format", "csv",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[1].startswith("km,m=1;n_list=1;seed=3;trials=2,HOLDS")


@pytest.mark.parametrize("key, flag", [("seed", "--seed"),
                                       ("trials", "--trials")])
def test_sampling_flag_beside_a_plan_that_sets_it_is_a_usage_error(
        tmp_path, capsys, key, flag):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"checks": [
        {"id": "km", "params": {"n_list": [1]}}], key: 7}))
    assert main(["sweep", "--plan", str(plan_path), flag, "3"]) == 2
    err = capsys.readouterr().err
    assert f"{flag} does not combine with a plan that sets {key}" in err
    assert "running" not in err


@pytest.mark.parametrize("argv, flag, text", [
    (["sweep", "--check", "thm12", "--d", "", "--n", "5"], "--d", "''"),
    (["sweep", "--check", "thm12", "--d", "1,,3", "--n", "5"], "--d",
     "'1,,3'"),
    (["verify", "--check", "thm12", "--d", "", "--n", "5"], "--d", "''"),
    (["sweep", "--check", "km", "--n-list", ""], "--n-list", "''"),
    (["verify", "--check", "km", "--n-list", ""], "--n-list", "''"),
])
def test_empty_integer_items_are_usage_errors(capsys, argv, flag, text):
    assert main(argv) == 2
    assert f"{flag} expects integers, got {text}" in capsys.readouterr().err


def test_sweep_negative_nj_max_is_a_usage_error(capsys):
    code = main(["sweep", "--check", "km", "--m-max", "2", "--nj-max", "-3"])
    assert code == 2
    assert "--nj-max must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("entry,message", [
    ({"id": "thm12", "params": {"d": 3}}, "thm12 needs plan parameter 'n'"),
    ({"id": "thm41", "params": {"d": 4, "n": 7}},
     "thm41 needs plan parameter 'r'"),
    ({"id": "thm12", "params": {"d": 3, "n": 5, "x": 1}},
     "plan parameter 'x' does not apply to thm12"),
    ({"id": "km", "params": {"trials": 2}}, "km needs plan parameter 'n_list'"),
    ({"id": "thm12", "params": [1]}, "has an object params in each entry"),
    ({"id": "thm12"}, "has an object params in each entry"),
])
def test_plan_entry_names_follow_the_flag_rule(tmp_path, capsys, entry,
                                               message):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"checks": [entry]}))
    assert main(["sweep", "--plan", str(plan_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("plan,message", [
    ({"checks": [{"id": "thm12", "params": {"d": "3", "n": 5}}]},
     "plan parameter 'd' expects an integer, got '3'"),
    ({"checks": [{"id": "km", "params": {"n_list": [1, 2], "trials": 2.5}}]},
     "plan parameter 'trials' expects an integer, got 2.5"),
    ({"checks": [{"id": "km", "params": {"n_list": [1]}}], "trials": "5"},
     "plan 'trials' expects an integer, got '5'"),
    ({"checks": [{"id": "km", "params": {"n_list": [1, "2"]}}]},
     "plan parameter 'n_list' expects a list of integers, got (1, '2')"),
    ({"checks": [{"id": "qbinom_vanish",
                  "params": {"n": 4, "j": 1, "expect": "maybe"}}]},
     "plan parameter 'expect' expects zero or nonzero, got 'maybe'"),
    ({"checks": [{"id": "thm12", "params": {"d": True, "n": 5}}]},
     "plan parameter 'd' expects an integer, got True"),
])
def test_plan_values_follow_the_flag_rule(tmp_path, capsys, monkeypatch,
                                          plan, message):
    # As `--d x` is a usage error, so is a plan value the flag would not
    # read; no check runs.
    monkeypatch.setattr(cli, "run_check", None)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert main(["sweep", "--plan", str(plan_path)]) == 2
    assert message in capsys.readouterr().err


def test_optional_parameters_are_declared_per_check(tmp_path, capsys):
    # Only qbinom_vanish and km may leave parameters out, so a ratio shift
    # without j is a usage error, from the flags or from a plan entry,
    # before any check runs.
    assert {cid: spec.optional.split() for cid, spec in cli.REGISTRY.items()
            if spec.optional} == {"km": ["m", "trials", "seed"],
                                  "qbinom_vanish": ["j", "expect"]}
    assert main(["verify", "--check", "ratio_shift_central", "--d", "5",
                 "--r", "2", "--n", "8", "--k", "1"]) == 2
    assert "ratio_shift_central needs --j" in capsys.readouterr().err
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"checks": [
        {"id": "ratio_shift_generic",
         "params": {"d": 5, "r": 2, "n": 8, "k": 1}}]}))
    assert main(["sweep", "--plan", str(plan_path)]) == 2
    assert ("ratio_shift_generic needs plan parameter 'j'"
            in capsys.readouterr().err)
    assert main(["verify", "--check", "qbinom_vanish", "--n", "3"]) == 0


@pytest.mark.parametrize("plan", [[1], {"checks": 5}, {"seed": 1},
                                  {"checks": [7]}])
def test_plan_of_the_wrong_shape_is_a_usage_error(tmp_path, capsys, plan):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert main(["sweep", "--plan", str(plan_path)]) == 2
    assert "has an object params in each entry" in capsys.readouterr().err


def test_sweep_plan_file_and_failure_exit(tmp_path, capsys):
    plan = {"checks": [
        {"id": "thm12", "params": {"d": 3, "n": 5}},
        {"id": "qbinom_vanish", "params": {"n": 2, "j": 2, "expect": "zero"}},
    ]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_path = tmp_path / "report.json"
    code = main(["sweep", "--plan", str(plan_path), "--out", str(out_path)])
    assert code == 1
    report = json.loads(out_path.read_text())
    assert report["summary"] == {"holds": 1, "fails": 1, "skipped": 0}


def test_plan_km_entries_take_the_plan_seed_and_trials(tmp_path, capsys):
    # An entry without its own seed or trials lists the ones it ran with,
    # whatever its status; the echoed plan stays as written.
    checks = [{"id": "km", "params": {"n_list": [1, 2]}},
              {"id": "km", "params": {"n_list": [1], "trials": 0}}]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"checks": checks, "seed": 7}))
    out_path = tmp_path / "report.json"
    assert main(["sweep", "--plan", str(plan_path), "--trials", "3",
                 "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    params = {r["status"]: r["params"] for r in report["results"]}
    assert params["HOLDS"] == {"m": 2, "n_list": [1, 2], "seed": 7,
                               "trials": 3}
    assert params["SKIPPED_PRECONDITION"] == {"m": 1, "n_list": [1],
                                              "seed": 7, "trials": 0}
    assert report["plan"]["checks"] == checks


def test_sweep_empty_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"checks": []}))
    code = main(["sweep", "--plan", str(plan_path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["results"] == []
    assert report["summary"] == {"holds": 0, "fails": 0, "skipped": 0}


def test_sweep_unreadable_plan_exit_two(tmp_path):
    assert main(["sweep", "--plan", str(tmp_path / "missing.json")]) == 2


def test_sweep_write_failure_exit_three(tmp_path):
    code = main(["sweep", "--check", "bracket_factorization", "--n", "6",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "r.json")])
    assert code == 3


def test_sweep_csv_format(tmp_path):
    out_path = tmp_path / "report.csv"
    code = main(["sweep", "--check", "bracket_factorization", "--n", "4,6",
                 "--format", "csv", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "id,params,status,elapsed_ms"
    assert lines[1].startswith("bracket_factorization,n=4,HOLDS")
    assert lines[2].startswith("bracket_factorization,n=6,HOLDS")


def test_sweep_parallel_jobs_match_serial(tmp_path):
    args = ["sweep", "--check", "thm41", "--d", "2", "--r", "1",
            "--n", "3,5,7"]
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
    report_s = _strip_timing(json.loads(serial.read_text()))
    report_p = _strip_timing(json.loads(parallel.read_text()))
    assert report_s == report_p


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_usage_error(jobs, capsys):
    code = main(["sweep", "--check", "bracket_factorization", "--n", "4",
                 "--jobs", jobs])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err


def test_sweep_jobs_capped_by_cpus_and_instances(monkeypatch, tmp_path):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the size, forks nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # The sweep imports the pool class only when it starts a pool.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    out = str(tmp_path / "r.json")
    base = ["sweep", "--check", "bracket_factorization", "--out", out]
    assert main(base + ["--n", "2,3,4,5,6", "--jobs", "5000"]) == 0
    assert main(base + ["--n", "2,3", "--jobs", "8"]) == 0
    assert main(base + ["--n", "2,3", "--jobs", "1"]) == 0  # serial, no pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(base + ["--n", "2,3", "--jobs", "8"]) == 0  # serial, no pool
    assert sizes == [3, 2]


def test_list_prints_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for cid in ("eq13", "thm42", "p1_24", "km", "rv_11", "bracket_factorization"):
        assert cid in out


def test_list_matches_the_golden_catalog(capsys):
    golden = Path(__file__).parent / "data" / "list.txt"
    assert main(["list"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_fast_mode_flag_is_a_usage_error(capsys):
    assert main(["sweep", "--suite", "paper-default", "--fast-mode"]) == 2


def test_engine_error_exit_four(tmp_path, capsys, monkeypatch):
    # A plan that passes the flag rules reaches no engine fault, so one is
    # planted in the verifier that catalog's runners look up by name.
    real = catalog.verify_theorem

    def faulty(check_id, **params):
        if params["d"] == 5:
            raise TypeError("planted engine fault")
        return real(check_id, **params)

    monkeypatch.setattr(catalog, "verify_theorem", faulty)
    plan = {"checks": [
        {"id": "thm12", "params": {"d": 3, "n": 5}},
        {"id": "qbinom_vanish", "params": {"n": 2, "j": 2, "expect": "zero"}},
        {"id": "thm12", "params": {"d": 5, "n": 9}},
        {"id": "eq13", "params": {"d": 5, "n": 6}},
        {"id": "thm41", "params": {"d": 5, "r": 2, "n": 8}},
    ]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_path = tmp_path / "report.json"
    code = main(["sweep", "--plan", str(plan_path), "--out", str(out_path)])
    assert code == 4
    report = json.loads(out_path.read_text())
    assert report["summary"] == {"holds": 1, "fails": 1, "skipped": 0,
                                 "errors": 3}
    error = [r for r in report["results"] if r["status"] == "ERROR"]
    assert [r["witness"] for r in error] == [
        "TypeError: planted engine fault"] * 3
