"""Check registry, parameter grids, and the built-in sweep suites.

Every check is a pure function of (id, params), so sweeps can
run instances in any order or concurrently and merge deterministically by
sorting on (id, canonical parameter string).  ``run_check`` is the one
place a check is timed, and it keeps sweeps total: a
``results.RefusalError`` is the mathematics refusing the instance and
reads as FAILS; any other exception, a stray ZeroDivisionError or
OverflowError included, is an engine fault and reads as ERROR.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple

from .identities import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    verify_karlsson_minton,
    verify_proof_step,
    verify_qbinomial_vanishing,
)
from .padic import verify_classical
from .parametric import verify_parametric
from .results import CheckResult, RefusalError, errored, fails
from .verifier import verify_divisibility, verify_theorem


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

# A check's id, parameter names, description, its runner, which takes
# (check id, params), and the parameters an instance may leave out, named
# in one string as the fields are here.
CheckSpec = namedtuple("CheckSpec",
                       "check_id param_names description runner optional",
                       defaults=("",))


# Runners take (check id, params), pass the params by name (each default is
# the verifier's own), and look the verifier up by its name in this module
# when they run, so a wrapper patched over that name sees every call.
_theorem = lambda cid, p: verify_theorem(cid, **p)
_parametric = lambda cid, p: verify_parametric(cid, **p)
_proof_step = lambda cid, p: verify_proof_step(cid, **p)
_classical = lambda cid, p: verify_classical(cid, **p)

_DN, _DNR, _DRN = ("d", "n"), ("d", "n", "r"), ("d", "r", "n")
_DRP, _DRNK = ("d", "r", "p"), ("d", "r", "n", "k")
_DRNJK = ("d", "r", "n", "j", "k")
# The tail every parametric description shares.
_SUBS = "; exact equality at a = q^n and a = q^-n plus termwise a = 1 collapse"

# check id -> (parameter names, description, runner[, optional ones])
_CHECKS = {
    "eq13": (_DN, "sum (q^(d-1);q^d)_k^d q^(dk) / (q^d;q^d)_k^d vs closed "
             "form, mod Phi_n(q)^2, n == 1 (mod d)", _theorem),
    "eq14": (_DN, "mixed sum (q^(d+1);q^d)_k^(d-1)(q^(1-d);q^d)_k, odd d, "
             "vs closed form mod Phi_n(q)^2", _theorem),
    "eq15": (_DN, "squared sum (q^(d+1);q^d)_k^(d-2)(q;q^d)_k^2, even d, "
             "vs closed form mod Phi_n(q)^2", _theorem),
    "thm11": (_DN, "mixed sum as eq14 but even d, sign (-1)^((n+1)/d)",
              _theorem),
    "thm12": (_DN, "squared sum as eq15 but odd d, positive sign", _theorem),
    "lemma21": (_DNR, "two-parameter sum with (q^r;q^d)_k^r (q^(r-d);q^d)_k "
                "vanishing mod Phi_n(q)^2", _theorem),
    "eq22": (_DN, "lemma21 at r = 1: (q^(d+1);q^d)_k^(d-2)(q,q^(1-d);q^d)_k "
             "vanishes mod Phi_n(q)^2", _theorem),
    "thm41": (_DNR, "two-parameter mixed sum vs closed form with exponent "
              "A(d,n,r), mod Phi_n(q)^2", _theorem),
    "thm42": (_DNR, "two-parameter squared sum vs closed form with exponent "
              "A(d,n,r)-r, mod Phi_n(q)^2", _theorem),
    "thm13": (_DN, "(q^d;q^d)_(n-1)^d/(1-q)^(dn-d) times eq22's sum "
              "(q^(d+1);q^d)_k^(d-2)(q,q^(1-d);q^d)_k is divisible by [n]^2 "
              "as a polynomial",
              lambda cid, p: verify_divisibility(**p)),
    "p1_24": (_DRN, "parametric vanishing sum, d + r odd, index k-2 central "
              "band" + _SUBS, _parametric),
    "p2_25": (_DRN, "parametric vanishing sum, d and r odd, index k-2 central "
              "band" + _SUBS, _parametric),
    "p3_32": (_DRN, "parametric squared-sum congruence, odd d > 3, r = 1"
              + _SUBS, _parametric),
    "p4_33": (_DRN, "parametric squared-sum congruence at d = 3, r = 1"
              + _SUBS, _parametric),
    "p5_43": (_DRN, "parametric closed form B_q, d + r odd, d - r >= 3"
              + _SUBS, _parametric),
    "p6_44": (_DRN, "parametric closed form B_q at d - r = 1" + _SUBS,
              _parametric),
    "p7_45": (_DRN, "parametric closed form C_q, d and r odd, d - r >= 4"
              + _SUBS, _parametric),
    "p8_46": (_DRN, "parametric closed form C_q at d - r = 2" + _SUBS,
              _parametric),
    "km": (("m", "n_list", "trials", "seed"), "terminating Karlsson-Minton "
           "summation, exact random rational evaluation",
           lambda cid, p: verify_karlsson_minton(**p), "m trials seed"),
    "qbinom_vanish": (("n", "j", "expect"), "alternating q-binomial sum "
                      "vanishes for 0 <= j <= n-1",
                      lambda cid, p: verify_qbinomial_vanishing(**p),
                      "j expect"),
    "ratio_shift_generic": (_DRNJK, "Pochhammer ratio shift outside the "
                            "central band, by exponent counting", _proof_step),
    "ratio_shift_central": (_DRNJK, "Pochhammer ratio shift on the central "
                            "band with indices k-2 and (n+r)/d-2, by exponent "
                            "counting", _proof_step),
    "qbinom_rewrite": (_DRNK, "terminating Pochhammer quotient as signed "
                       "q-binomial times a q-power", _proof_step),
    "exponent_identity": (_DRNK, "integer identity between the two q-power "
                          "exponent forms", _proof_step),
    "sum_decomposition": (_DN, "three-sum bracket decomposition, term by "
                          "term on the factors the terms do not share",
                          _proof_step),
    "pochhammer_split_r1": (("d", "k"), "splitting of (q^(d+1),q^(1-d);q^d)_k "
                            "into -q[d-1](1 + ...)(q;q^d)_k^2", _proof_step),
    "pochhammer_split_general": (("d", "r", "k"), "splitting of (q^(d+r),"
                                 "q^(r-d);q^d)_k into -q^r([d-r]/[r])"
                                 "(1 + ...)(q^r;q^d)_k^2", _proof_step),
    "prefactor_divisibility": (_DN, "prod [md]^d divisible by the squared "
                               "cyclotomic divisors of n", _proof_step),
    "bracket_factorization": (("n",), "[n] equals Phi_n times the proper "
                              "cyclotomic divisors", _proof_step),
    "rv_11": (("p",), "sum (1/2)_k^2/k!^2 == (-1)^((p-1)/2) mod p^2",
              _classical),
    "deines_12": (("d", "p"), "sum ((d-1)/d)_k^d/k!^d == -Gamma_p(1/d)^d "
                  "mod p^2", _classical),
    "cor41_i": (_DRP, "two-parameter mixed classical sum vs (d-r)/d (r/d)^r "
                "Gamma_p(-r/d)^d mod p^2", _classical),
    "cor41_ii": (_DRP, "two-parameter squared classical sum vs -(r/d)^(r+1) "
                 "Gamma_p(-r/d)^d mod p^2", _classical),
    "gamma_factorial": (_DRP, "(p-1-(p+r)/d)!/((p+r)/d)!^(d-1) vs "
                        "-(-1)^((p+r)/d) Gamma_p(-r/d)^d mod p^2", _classical),
    "wlt_integrality": (_DN, "(n-1)!^d d^(dn-d) n^-2 times eq22's "
                        "classical sum is an integer", _classical),
}

REGISTRY = {cid: CheckSpec(cid, *row) for cid, row in _CHECKS.items()}


def run_check(check_id: str, params: dict) -> CheckResult:
    """Run and time one check; never raises for a known check id."""
    spec = REGISTRY.get(check_id)
    if spec is None:
        raise ValueError(f"unknown check id {check_id!r}")
    start = time.perf_counter()
    try:
        result = spec.runner(check_id, params)
    except RefusalError as exc:  # non-unit, pole, non-integral exponent
        result = fails(check_id, params, f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # sweeps must stay total
        result = errored(check_id, params, f"{type(exc).__name__}: {exc}")
    result.elapsed_ms = (time.perf_counter() - start) * 1000
    return result


# --------------------------------------------------------------------------
# Acceptance grids
# --------------------------------------------------------------------------

GRID_EQ13 = ((2, 3), (2, 5), (3, 4), (3, 7), (4, 5), (5, 6))
GRID_EQ14 = ((3, 5), (3, 8), (5, 9), (5, 14))
GRID_EQ15 = ((4, 3), (4, 7), (4, 11), (6, 5))
GRID_THM11 = ((4, 7), (4, 11), (6, 11))
GRID_THM12 = ((3, 2), (3, 5), (3, 8), (5, 4), (5, 9))
GRID_LEMMA21 = ((4, 1, 7), (5, 1, 9), (5, 2, 8), (5, 2, 13), (7, 2, 12),
                (7, 3, 11))
GRID_EQ22 = ((4, 7), (5, 9))
GRID_THM41 = GRID_LEMMA21 + ((2, 1, 3), (2, 1, 5), (2, 1, 7), (3, 1, 5),
                             (3, 1, 8))
GRID_THM42 = ((2, 1, 3), (3, 2, 4), (3, 2, 7), (4, 3, 5), (5, 4, 6),
              (3, 1, 2), (4, 1, 3), (5, 2, 3), (7, 5, 2))
GRID_THM13 = ((2, 3), (2, 5), (3, 5), (3, 8), (4, 7), (5, 9))
GRID_PARAMETRIC = {
    "p1_24": ((4, 1, 7), (5, 2, 8), (7, 2, 12)),
    "p2_25": ((5, 1, 9), (7, 3, 11)),
    "p3_32": ((5, 1, 4), (5, 1, 9), (7, 1, 6)),
    "p4_33": ((3, 1, 2), (3, 1, 5), (3, 1, 8)),
    "p5_43": ((4, 1, 7), (5, 2, 8)),
    "p6_44": ((2, 1, 3), (3, 2, 4), (4, 3, 5)),
    "p7_45": ((5, 1, 4), (5, 1, 9), (7, 3, 4), (7, 3, 11)),
    "p8_46": ((3, 1, 2), (3, 1, 5), (5, 3, 2), (5, 3, 7)),
}
GRID_RV11_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
GRID_DEINES = ((3, 7), (3, 13), (4, 5), (4, 13), (5, 11), (6, 7))
GRID_COR41_I = ((4, 1, 7), (4, 1, 11), (5, 2, 13), (5, 2, 23), (7, 2, 19))
GRID_COR41_II = ((3, 1, 5), (3, 1, 11), (4, 3, 5), (4, 3, 13), (5, 4, 11))
GRID_WLT = ((2, 3), (2, 9), (3, 5), (3, 11), (4, 7))
GRID_PREFACTOR = ((2, 9), (3, 8), (4, 15))
QBINOM_MAX_N = 30
BRACKET_MAX_N = 30
PROOF_STEP_MAX_K = 6
KM_MAX_M = 3
KM_MAX_NJ = 4


def km_offset_lists(max_m: int = KM_MAX_M, max_nj: int = KM_MAX_NJ):
    """Every (n_1..n_m) with 1 <= m <= max_m and 0 <= n_j <= max_nj."""
    return [t for m in range(1, max_m + 1)
            for t in itertools.product(range(max_nj + 1), repeat=m)]


def km_instances(seed: int, trials: int, max_m: int = KM_MAX_M,
                 max_nj: int = KM_MAX_NJ):
    """One km instance for each offset list of ``km_offset_lists``."""
    return [("km", {"m": len(t), "n_list": t, "trials": trials, "seed": seed})
            for t in km_offset_lists(max_m, max_nj)]


def _grid_instances(rows):
    """(check id, params) for each point of each (id, names, grid) row."""
    return [(cid, dict(zip(names, point)))
            for cid, names, grid in rows for point in grid]


def _proof_step_instances():
    instances = []
    for d, r, n in GRID_LEMMA21:
        for k in range(PROOF_STEP_MAX_K + 1):
            instances.append(("qbinom_rewrite", {"d": d, "r": r, "n": n, "k": k}))
            instances.append(("exponent_identity", {"d": d, "r": r, "n": n, "k": k}))
            instances.append(("pochhammer_split_r1", {"d": d, "k": k}))
            instances.append(("pochhammer_split_general", {"d": d, "r": r, "k": k}))
            if (d + r) % 2:
                lo, hi = (d - r - 1) // 2, (d + r - 1) // 2
                for j in range(1, d):
                    step = ("ratio_shift_central" if lo <= j <= hi
                            else "ratio_shift_generic")
                    instances.append((step, {"d": d, "r": r, "n": n,
                                             "j": j, "k": k}))
        instances.append(("sum_decomposition", {"d": d, "n": n}))
    instances += _grid_instances((
        ("prefactor_divisibility", _DN, GRID_PREFACTOR),
        ("bracket_factorization", ("n",),
         [(n,) for n in range(2, BRACKET_MAX_N + 1)]),
    ))
    # Equal instances share a key; the dict keeps the first one's place.
    unique = {(cid, tuple(sorted(params.items()))): (cid, params)
              for cid, params in instances}
    return list(unique.values())


# (check id, parameter names, grid) rows of the suite before and after the
# km, q-binomial and proof-step instances, in suite order.
_Q_ROWS = (
    ("eq13", _DN, GRID_EQ13),
    ("eq14", _DN, GRID_EQ14),
    ("eq15", _DN, GRID_EQ15),
    ("thm11", _DN, GRID_THM11),
    ("thm12", _DN, GRID_THM12),
    ("lemma21", _DRN, GRID_LEMMA21),
    ("eq22", _DN, GRID_EQ22),
    ("thm41", _DRN, GRID_THM41),
    ("thm42", _DRN, GRID_THM42),
    ("thm13", _DN, GRID_THM13),
    *((cid, _DRN, grid) for cid, grid in GRID_PARAMETRIC.items()),
)
_CLASSICAL_ROWS = (
    ("rv_11", ("p",), [(p,) for p in GRID_RV11_PRIMES]),
    ("deines_12", ("d", "p"), GRID_DEINES),
    ("cor41_i", _DRP, GRID_COR41_I),
    ("cor41_ii", _DRP, GRID_COR41_II),
    ("gamma_factorial", _DRP,
     sorted(set(GRID_COR41_I) | set(GRID_COR41_II))),
    ("wlt_integrality", _DN, GRID_WLT),
)


def paper_default_suite(seed: int = DEFAULT_SEED,
                        trials: int = DEFAULT_TRIALS):
    """The built-in acceptance grid as (check id, params) instances."""
    return (_grid_instances(_Q_ROWS) + km_instances(seed, trials)
            + [("qbinom_vanish", {"n": n}) for n in range(1, QBINOM_MAX_N + 1)]
            + _proof_step_instances() + _grid_instances(_CLASSICAL_ROWS))


# (check id, parameter names, axes) rows past the acceptance grid, one
# instance per point of the axes' product.  The axes are ranges and tuples,
# so importing this module builds no instance.
_WIDE_D, _WIDE_R, _WIDE_N, _WIDE_P = (range(2, 12), range(1, 10),
                                      range(2, 41), range(2, 120))
_WIDE_ROWS = (
    ("thm12", _DN, ((3,), range(2, 51))),
    ("thm42", _DRN, (range(2, 9), range(1, 6), range(2, 31))),
    ("thm13", _DN, (range(2, 8), (11, 14, 15, 17, 19, 20, 23, 24))),
    ("p1_24", _DRN, (range(4, 10), range(1, 5), _WIDE_N)),
    ("p2_25", _DRN, (_WIDE_D, _WIDE_R, _WIDE_N)),
    ("p3_32", _DRN, (range(5, 12, 2), (1,), _WIDE_N)),
    ("p4_33", _DRN, (_WIDE_D, _WIDE_R, _WIDE_N)),
    ("p5_43", _DRN, (_WIDE_D, _WIDE_R, _WIDE_N)),
    ("p6_44", _DRN, (_WIDE_D, _WIDE_R, _WIDE_N)),
    ("p7_45", _DRN, (range(5, 12, 2), range(1, 8, 2), _WIDE_N)),
    ("p8_46", _DRN, (_WIDE_D, _WIDE_R, _WIDE_N)),
    ("qbinom_vanish", ("n",), (range(1, 81),)),
    ("ratio_shift_central", _DRNJK, ((4, 5, 6, 7, 8, 9, 11), range(1, 5),
                                     range(5, 41), range(1, 11), range(7))),
    ("sum_decomposition", _DN, (_WIDE_D, range(1, 41))),
    ("pochhammer_split_general", ("d", "r", "k"),
     (range(3, 14, 2), range(1, 5), range(9))),
    ("rv_11", ("p",), (_WIDE_P,)),
    ("deines_12", ("d", "p"), (_WIDE_D, _WIDE_P)),
    ("cor41_i", _DRP, (_WIDE_D, _WIDE_R, _WIDE_P)),
    ("cor41_ii", _DRP, (_WIDE_D, _WIDE_R, _WIDE_P)),
    ("gamma_factorial", _DRP, (_WIDE_D, _WIDE_R, _WIDE_P)),
    ("wlt_integrality", _DN, (range(2, 9), range(1, 60))),
)


def paper_wide_suite(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS):
    """The evidence past the acceptance grid as (check id, params)
    instances; no row is km, so ``seed`` and ``trials`` go unused."""
    return _grid_instances((cid, names, itertools.product(*axes))
                           for cid, names, axes in _WIDE_ROWS)


SUITES = {"paper-default": paper_default_suite,
          "paper-wide": paper_wide_suite}
