"""Rectangular sweeps are total: every instance yields a status, never a crash."""

import json

import pytest

from qsupercheck.catalog import REGISTRY, paper_default_suite, run_check
from qsupercheck.cli import main
from qsupercheck.results import Status


def test_rectangular_grid_is_total():
    ids = ["eq13", "eq14", "eq15", "thm11", "thm12", "lemma21", "thm41",
           "thm42", "thm13", "p1_24", "p4_33", "p6_44", "p8_46"]
    statuses = set()
    for cid in ids:
        needs_r = "r" in REGISTRY[cid].param_names
        for d in range(2, 6):
            for n in range(2, 8):
                for r in (range(1, 4) if needs_r else (1,)):
                    params = {"d": d, "n": n}
                    if needs_r:
                        params["r"] = r
                    result = run_check(cid, params)
                    statuses.add(result.status)
                    assert result.status in (Status.HOLDS,
                                             Status.SKIPPED_PRECONDITION), (
                        cid, params, result.witness)
    assert Status.HOLDS in statuses
    assert Status.SKIPPED_PRECONDITION in statuses


def test_out_of_catalog_instances_also_hold():
    # Spot instances beyond the acceptance grids.
    cases = [("eq14", {"d": 7, "n": 13}),
             ("eq13", {"d": 6, "n": 7}),
             ("thm42", {"d": 6, "r": 5, "n": 7}),
             ("lemma21", {"d": 8, "r": 3, "n": 13}),
             ("p5_43", {"d": 6, "r": 1, "n": 5}),
             ("km", {"n_list": (3, 2), "trials": 2, "seed": 5})]
    for cid, params in cases:
        result = run_check(cid, params)
        assert result.status is Status.HOLDS, (cid, params, result.witness,
                                               result.note)


def test_engine_fault_is_error_not_fails():
    result = run_check("thm12", {"d": 3, "n": "x"})
    assert result.status is Status.ERROR
    assert result.witness.startswith("TypeError")


def test_arithmetic_exceptions_stay_fails(monkeypatch):
    import qsupercheck.catalog
    from qsupercheck.poly import Poly
    from qsupercheck.residue import NonUnitError

    def raise_(exc):
        def check(*args, **kwargs):
            raise exc
        return check

    monkeypatch.setattr(qsupercheck.catalog, "verify_theorem",
                        raise_(NonUnitError(Poly((1, 1)))))
    refused = run_check("thm12", {"d": 3, "n": 5})
    assert refused.status is Status.FAILS
    assert refused.witness.startswith("NonUnitError")
    monkeypatch.setattr(qsupercheck.catalog, "verify_theorem",
                        raise_(KeyError("r")))
    assert run_check("thm12", {"d": 3, "n": 5}).status is Status.ERROR


def test_run_check_times_every_status():
    skipped = run_check("thm11", {"d": 4, "n": 6})
    held = run_check("thm12", {"d": 3, "n": 5})
    failed = run_check("qbinom_vanish", {"n": 2, "j": 2, "expect": "zero"})
    assert [r.status for r in (skipped, held, failed)] == [
        Status.SKIPPED_PRECONDITION, Status.HOLDS, Status.FAILS]
    assert all(r.elapsed_ms > 0 for r in (skipped, held, failed))


_VERIFIERS = ("verify_theorem", "verify_divisibility", "verify_parametric",
              "verify_karlsson_minton", "verify_qbinomial_vanishing",
              "verify_proof_step", "verify_classical")


def _planted(monkeypatch, exc):
    """Every verifier that catalog's runners look up by name raises exc."""
    import qsupercheck.catalog

    def check(*args, **kwargs):
        raise exc

    for name in _VERIFIERS:
        monkeypatch.setattr(qsupercheck.catalog, name, check)


def test_each_refusal_of_the_mathematics_reads_fails(monkeypatch):
    from qsupercheck.families import IntegralityError
    from qsupercheck.padic import ResidueDenominatorError
    from qsupercheck.parametric import DegenerateSubstitutionError
    from qsupercheck.poly import Poly
    from qsupercheck.qfuncs import DegenerateProductError
    from qsupercheck.residue import NonUnitError

    for exc in (NonUnitError(Poly((1, 1))), IntegralityError("1/2"),
                DegenerateProductError("denominator factor 1 - q^0"),
                DegenerateSubstitutionError("denominator base q^0"),
                ResidueDenominatorError("denominator of 1/5 divisible by 5")):
        _planted(monkeypatch, exc)
        result = run_check("p5_43", {"d": 5, "r": 2, "n": 8})
        assert result.status is Status.FAILS
        assert result.witness == f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("exc", [
    ZeroDivisionError("integer division or modulo by zero"),
    OverflowError("int too large to convert to float")])
def test_a_stray_arithmetic_error_is_an_engine_fault(monkeypatch, tmp_path,
                                                     exc):
    # A bug such as 1 // 0 says nothing about the mathematics: in every
    # catalog runner it reads ERROR, never a counterexample, and a sweep
    # that meets it exits 4.
    _planted(monkeypatch, exc)
    first = {}
    for cid, params in paper_default_suite():
        first.setdefault(cid, params)
    assert set(first) == set(REGISTRY)
    for cid, params in first.items():
        result = run_check(cid, params)
        assert result.status is Status.ERROR, cid
        assert result.witness == f"{type(exc).__name__}: {exc}"
    out = tmp_path / "report.json"
    assert main(["sweep", "--suite", "paper-default", "--out", str(out)]) == 4
    assert json.loads(out.read_text())["summary"] == {
        "holds": 0, "fails": 0, "skipped": 0, "errors": 607}
