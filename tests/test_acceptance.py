"""Acceptance suite: every advertised grid at zero tolerance.

Each criterion prints one PASS/FAIL line (run with -s to watch them).
The exact-mode suite results are computed once and shared; every
congruence criterion demands exact ring or polynomial equality.
"""

import contextlib
import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from qsupercheck import cli
from qsupercheck.catalog import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    GRID_COR41_I,
    GRID_COR41_II,
    GRID_DEINES,
    GRID_EQ13,
    GRID_EQ14,
    GRID_EQ15,
    GRID_EQ22,
    GRID_LEMMA21,
    GRID_PARAMETRIC,
    GRID_PREFACTOR,
    GRID_RV11_PRIMES,
    GRID_THM11,
    GRID_THM12,
    GRID_THM13,
    GRID_THM41,
    GRID_THM42,
    GRID_WLT,
    QBINOM_MAX_N,
    _WIDE_ROWS,
    km_offset_lists,
    paper_default_suite,
    paper_wide_suite,
    run_check,
)
from qsupercheck.families import THEOREMS, at_r
from qsupercheck.padic import shadow_sum
from qsupercheck.parametric import verify_parametric
from qsupercheck.report import _SUMMARY_KEYS, Report, SweepPlan
from qsupercheck.residue import ResidueRing
from qsupercheck.results import Status, canonical_params
from qsupercheck.verifier import lhs_sum, rhs_closed_form, verify_theorem

from oracles import (
    classical_lhs_sum,
    lhs_sum_whole,
    written_out_summand,
    written_out_value,
)


# `qsupercheck sweep --suite paper-default --format json` without its
# elapsed_ms lines.
GOLDEN_REPORT = Path(__file__).parent / "data" / "paper_default_report.json"
# The benchmark's pinned paper-default instance list.
PINNED_SUITE = (Path(__file__).parent.parent / "perfbench"
                / "paper_default_suite.json")
# One `<check id> holds=H fails=F skipped=S` line per paper-wide row, in
# row order.
WIDE_SUMMARY = Path(__file__).parent / "data" / "paper_wide_summary.txt"


@pytest.fixture(scope="module")
def exact_results():
    plan = paper_default_suite()
    results = {}
    for cid, params in plan:
        results[(cid, canonical_params(params))] = run_check(cid, params)
    return results


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _assert_all_hold(results, cid, param_dicts):
    for params in param_dicts:
        result = results[(cid, canonical_params(params))]
        assert result.status is Status.HOLDS, (
            f"{cid} {params}: {result.status.value} {result.witness}")


def test_criterion_1_phi_squared_congruence_grid(exact_results):
    with criterion("1 Phi_n^2 congruence grid"):
        _assert_all_hold(exact_results, "eq13",
                         [{"d": d, "n": n} for d, n in GRID_EQ13])
        _assert_all_hold(exact_results, "eq14",
                         [{"d": d, "n": n} for d, n in GRID_EQ14])
        _assert_all_hold(exact_results, "eq15",
                         [{"d": d, "n": n} for d, n in GRID_EQ15])
        _assert_all_hold(exact_results, "thm11",
                         [{"d": d, "n": n} for d, n in GRID_THM11])
        _assert_all_hold(exact_results, "thm12",
                         [{"d": d, "n": n} for d, n in GRID_THM12])
        _assert_all_hold(exact_results, "lemma21",
                         [{"d": d, "n": n, "r": r} for d, r, n in GRID_LEMMA21])
        _assert_all_hold(exact_results, "eq22",
                         [{"d": d, "n": n} for d, n in GRID_EQ22])
        _assert_all_hold(exact_results, "thm41",
                         [{"d": d, "n": n, "r": r} for d, r, n in GRID_THM41])
        _assert_all_hold(exact_results, "thm42",
                         [{"d": d, "n": n, "r": r} for d, r, n in GRID_THM42])


def test_criterion_2_bracket_squared_divisibility(exact_results):
    with criterion("2 divisibility by [n]^2"):
        _assert_all_hold(exact_results, "thm13",
                         [{"d": d, "n": n} for d, n in GRID_THM13])


def test_criterion_3_parametric_substitutions(exact_results):
    with criterion("3 parametric checks at a = q^(+-n) with a = 1 collapse"):
        for cid, grid in GRID_PARAMETRIC.items():
            _assert_all_hold(exact_results, cid,
                             [{"d": d, "n": n, "r": r} for d, r, n in grid])


def test_criterion_4_karlsson_minton(exact_results):
    with criterion("4 Karlsson-Minton exact random evaluation"):
        offsets = km_offset_lists()
        assert len(offsets) == 5 + 25 + 125
        _assert_all_hold(exact_results, "km",
                         [{"m": len(t), "n_list": t, "trials": 5, "seed": 42}
                          for t in offsets])


def test_criterion_5_qbinomial_vanishing(exact_results):
    with criterion("5 terminating q-binomial vanishing, n <= 30"):
        _assert_all_hold(exact_results, "qbinom_vanish",
                         [{"n": n} for n in range(1, QBINOM_MAX_N + 1)])


def test_criterion_6_proof_step_catalog(exact_results):
    with criterion("6 proof-step identity catalog"):
        step_counts = {}
        for (cid, _key), result in exact_results.items():
            if cid in ("ratio_shift_generic", "ratio_shift_central",
                       "qbinom_rewrite", "exponent_identity",
                       "sum_decomposition", "pochhammer_split_r1",
                       "pochhammer_split_general", "prefactor_divisibility",
                       "bracket_factorization"):
                assert result.status is Status.HOLDS, (cid, _key, result.witness)
                step_counts[cid] = step_counts.get(cid, 0) + 1
        assert step_counts["prefactor_divisibility"] == len(GRID_PREFACTOR)
        assert step_counts["bracket_factorization"] == 29
        assert step_counts["sum_decomposition"] == len(GRID_LEMMA21)
        for cid in ("ratio_shift_generic", "ratio_shift_central",
                    "qbinom_rewrite", "exponent_identity",
                    "pochhammer_split_r1", "pochhammer_split_general"):
            assert step_counts[cid] > 0


def test_criterion_7_padic_grid(exact_results):
    with criterion("7 classical checks mod p^2"):
        _assert_all_hold(exact_results, "rv_11",
                         [{"p": p} for p in GRID_RV11_PRIMES])
        _assert_all_hold(exact_results, "deines_12",
                         [{"d": d, "p": p} for d, p in GRID_DEINES])
        _assert_all_hold(exact_results, "cor41_i",
                         [{"d": d, "p": p, "r": r} for d, r, p in GRID_COR41_I])
        _assert_all_hold(exact_results, "cor41_ii",
                         [{"d": d, "p": p, "r": r} for d, r, p in GRID_COR41_II])
        _assert_all_hold(exact_results, "gamma_factorial",
                         [{"d": d, "p": p, "r": r}
                          for d, r, p in sorted(set(GRID_COR41_I) | set(GRID_COR41_II))])
        _assert_all_hold(exact_results, "wlt_integrality",
                         [{"d": d, "n": n} for d, n in GRID_WLT])


def test_criterion_8a_r1_collapse():
    with criterion("8a r = 1 collapse of the two-parameter closed forms"):
        pairs = [(3, 5, "eq14", "thm12"), (3, 8, "eq14", "thm12"),
                 (4, 7, "thm11", "eq15"), (5, 9, "eq14", "thm12"),
                 (4, 3, None, "eq15"), (3, 2, None, "thm12")]
        for d, n, mixed_id, squared_id in pairs:
            ring = ResidueRing(n)
            pairs = [("thm42", squared_id)]
            if mixed_id:
                pairs.append(("thm41", mixed_id))
            for two_param, one_param in pairs:
                num2, den2 = rhs_closed_form(two_param, d, 1, n, ring)
                num1, den1 = written_out_value(one_param, d, n, ring)
                assert num2 * den1 == num1 * den2, (two_param, d, n)


def _summand_value_at_one(num_factors, d, k):
    """Exact value at q = 1 of one truncated-sum term.

    Each factor 1 - q^e is (1 - q) times a polynomial worth e at q = 1, so
    a term with as many factors above as below is worth prod e / prod e',
    and one with more above vanishes.
    """
    num = [e + d * t for e, mult in num_factors for t in range(k)
           for _ in range(mult)]
    den = [d + d * t for t in range(k)] * d
    if len(num) < len(den):
        raise ArithmeticError("pole of the term at q = 1")
    return Fraction(prod(num) if len(num) == len(den) else 0, prod(den))


def _family_sum_at_one_mod(check_id, d, r, p, precision=2):
    """Sum over k < p of the q = 1 term values of the displayed summand,
    reduced mod p^precision."""
    factors = written_out_summand(check_id, d, r)
    total = sum(_summand_value_at_one(factors, d, k) for k in range(p))
    modulus = p**precision
    if total.denominator % p == 0:
        raise ZeroDivisionError("denominator divisible by p")
    return total.numerator * pow(total.denominator, -1, modulus) % modulus


def test_criterion_8b_q1_specialization_matches_padic():
    with criterion("8b q = 1 specialization agrees with the mod-p^2 sums"):
        for d, r, p in ((3, 1, 5), (4, 1, 7), (5, 2, 13)):
            for kind in ("thm41", "thm42"):
                at_one = _family_sum_at_one_mod(kind, d, r, p)
                assert at_one == classical_lhs_sum(kind, d, r, p)
                num, den = shadow_sum(kind, d, r, p - 1)
                assert at_one == num * pow(den, -1, p * p) % (p * p)


def test_criterion_8c_incremental_vs_whole_sum_oracle():
    with criterion("8c fraction-free sums match the one-shot oracle, n <= 10"):
        seen = 0
        grids = [("eq13", [(d, 1, n) for d, n in GRID_EQ13]),
                 ("eq14", [(d, 1, n) for d, n in GRID_EQ14]),
                 ("eq15", [(d, 1, n) for d, n in GRID_EQ15]),
                 ("thm11", [(d, 1, n) for d, n in GRID_THM11]),
                 ("thm12", [(d, 1, n) for d, n in GRID_THM12]),
                 ("lemma21", GRID_LEMMA21),
                 ("thm41", GRID_THM41),
                 ("thm42", GRID_THM42)]
        for cid, grid in grids:
            for d, r, n in grid:
                if n > 10:
                    continue
                ring = ResidueRing(n)
                statement, at = at_r(THEOREMS[cid], r)
                num, den = lhs_sum(statement, d, at, n, ring)
                assert num == lhs_sum_whole(cid, d, r, n, ring) * den, (
                    cid, d, r, n)
                seen += 1
        assert seen >= 30


def test_criterion_9_mutation_harness():
    with criterion("9 negative controls: mutated closed forms must fail"):
        theorem_cases = [("eq13", 2, 1, 3), ("eq14", 3, 1, 5),
                         ("eq15", 4, 1, 3), ("thm11", 4, 1, 7),
                         ("thm12", 3, 1, 5), ("thm41", 5, 2, 8),
                         ("thm42", 3, 2, 4)]
        for cid, d, r, n in theorem_cases:
            for mutation in ("sign", "exponent"):
                result = verify_theorem(cid, d, n, r, mutation=mutation)
                assert result.status is Status.FAILS, (cid, mutation)
        parametric_cases = [("p3_32", 5, 1, 4), ("p4_33", 3, 1, 5),
                            ("p5_43", 4, 1, 7), ("p6_44", 2, 1, 3),
                            ("p7_45", 7, 3, 4), ("p8_46", 3, 1, 5)]
        for cid, d, r, n in parametric_cases:
            for mutation in ("sign", "exponent"):
                result = verify_parametric(cid, d, r, n, mutation=mutation)
                assert result.status is Status.FAILS, (cid, mutation)


def test_criterion_10_report_identical_apart_from_timing(exact_results):
    with criterion("10 paper-default report matches the committed one"):
        plan = SweepPlan(paper_default_suite(), DEFAULT_SEED, DEFAULT_TRIALS,
                         suite="paper-default")
        report = Report(plan, list(exact_results.values())).to_json()
        untimed = "".join(line for line in report.splitlines(keepends=True)
                          if "elapsed_ms" not in line)
        assert untimed == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_paper_default_suite_matches_the_benchmark_pin():
    pinned = json.loads(PINNED_SUITE.read_text(encoding="utf-8"))
    suite = paper_default_suite(pinned["km_seed"])
    assert json.loads(json.dumps(suite)) == pinned["instances"]


def _csv_rows(text):
    """(id, params, status) of each row of a CSV report, elapsed set aside."""
    return [(row["id"], row["params"], row["status"])
            for row in csv.DictReader(text.splitlines())]


def test_paper_default_through_the_process_pool(exact_results, monkeypatch,
                                                tmp_path, capsys):
    # Two CPUs, so that a one-CPU host still starts the pool.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "pool.csv"
    assert cli.main(["sweep", "--suite", "paper-default", "--jobs", "2",
                     "--format", "csv", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "holds=607 fails=0 skipped=0"
    plan = SweepPlan(paper_default_suite(), DEFAULT_SEED, DEFAULT_TRIALS,
                     suite="paper-default")
    serial = Report(plan, list(exact_results.values())).to_csv()
    assert _csv_rows(out.read_text(encoding="utf-8")) == _csv_rows(serial)


def _wide_golden():
    return [line.split(" ", 1)
            for line in WIDE_SUMMARY.read_text(encoding="utf-8").splitlines()]


def test_paper_wide_rows_name_checks_and_their_parameters():
    for cid, names, axes in _WIDE_ROWS:
        # The rule `sweep --check` applies to its flags: a known check, its
        # own parameters, and every one its registry row does not declare
        # optional.
        cli._check_names(cid, names, str)
        assert len(set(names)) == len(names) == len(axes), cid
        assert all(isinstance(axis, (range, tuple)) for axis in axes), cid


def test_paper_wide_golden_lists_each_row_once_with_its_size():
    golden = _wide_golden()
    assert [cid for cid, _ in golden] == [cid for cid, _, _ in _WIDE_ROWS]
    for (cid, line), (_, _, axes) in zip(golden, _WIDE_ROWS):
        counts = [int(item.split("=")[1]) for item in line.split()]
        assert sum(counts) == prod(len(axis) for axis in axes), cid


def test_paper_wide_suite_repeats_no_instance():
    keys = [(cid, canonical_params(params))
            for cid, params in paper_wide_suite()]
    assert len(set(keys)) == len(keys) == 125205


def test_importing_the_package_builds_no_paper_wide_instance():
    # A profile hook sees every Python call the imports make.
    probe = (
        "import sys\n"
        "calls = []\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name in (\n"
        "            'paper_wide_suite', '_grid_instances'):\n"
        "        calls.append(frame.f_code.co_name)\n"
        "sys.setprofile(hook)\n"
        "import qsupercheck.cli\n"
        "sys.setprofile(None)\n"
        "print(*calls)\n")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_criterion_11_paper_wide_matches_its_golden_summaries(tmp_path,
                                                             capsys):
    with criterion("11 paper-wide sweep matches its golden per-check lines"):
        out = tmp_path / "wide.csv"
        assert cli.main(["sweep", "--suite", "paper-wide", "--format",
                         "csv", "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "holds=3182 fails=0 skipped=122023"
        counts = {}
        with out.open(encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                count = counts.setdefault(
                    row["id"], {"holds": 0, "fails": 0, "skipped": 0})
                key = _SUMMARY_KEYS[Status(row["status"])]
                count[key] = count.get(key, 0) + 1
        got = {cid: " ".join(f"{k}={v}" for k, v in count.items())
               for cid, count in counts.items()}
        assert got == dict(_wide_golden())
