"""Rectangular sweeps are total: every instance yields a status, never a crash."""

from qsupercheck.catalog import REGISTRY, run_check
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
