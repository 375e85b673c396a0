"""Check registry, parameter grids, and the built-in sweep suites.

Every check is a pure function of (id, params), so sweeps can
run instances in any order or concurrently and merge deterministically by
sorting on (id, canonical parameter string).  ``run_check`` is the one
place a check is timed, and it keeps sweeps total: an arithmetic
exception is the mathematics refusing the instance and reads as FAILS,
any other exception is an engine fault and reads as ERROR.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .identities import (
    PROOF_STEP_IDS,
    verify_karlsson_minton,
    verify_proof_step,
    verify_qbinomial_vanishing,
)
from .padic import CLASSICAL_IDS, verify_classical
from .parametric import PARAMETRIC_IDS, verify_parametric
from .results import CheckResult, errored, fails
from .verifier import THEOREM_IDS, verify_divisibility, verify_theorem

DEFAULT_SEED = 42
DEFAULT_TRIALS = 5


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    param_names: tuple[str, ...]
    description: str


def _theorem_descriptions() -> dict[str, str]:
    return {
        "eq13": "sum (q^(d-1);q^d)_k^d q^(dk) / (q^d;q^d)_k^d vs closed form, "
                "mod Phi_n(q)^2, n == 1 (mod d)",
        "eq14": "mixed sum (q^(d+1);q^d)_k^(d-1)(q^(1-d);q^d)_k, odd d, "
                "vs closed form mod Phi_n(q)^2",
        "eq15": "squared sum (q^(d+1);q^d)_k^(d-2)(q;q^d)_k^2, even d, "
                "vs closed form mod Phi_n(q)^2",
        "thm11": "mixed sum as eq14 but even d, sign (-1)^((n+1)/d)",
        "thm12": "squared sum as eq15 but odd d, positive sign",
        "lemma21": "two-parameter sum with (q^r;q^d)_k^r (q^(r-d);q^d)_k "
                   "vanishing mod Phi_n(q)^2",
        "eq22": "lemma21 at r = 1: (q^(d+1);q^d)_k^(d-2)(q,q^(1-d);q^d)_k "
                "vanishes mod Phi_n(q)^2",
        "thm41": "two-parameter mixed sum vs closed form with exponent "
                 "A(d,n,r), mod Phi_n(q)^2",
        "thm42": "two-parameter squared sum vs closed form with exponent "
                 "A(d,n,r)-r, mod Phi_n(q)^2",
    }


def build_registry() -> dict[str, CheckSpec]:
    registry: dict[str, CheckSpec] = {}
    descriptions = _theorem_descriptions()
    for cid in THEOREM_IDS:
        names = ("d", "n", "r") if cid in ("lemma21", "thm41", "thm42") else ("d", "n")
        registry[cid] = CheckSpec(cid, names, descriptions[cid])
    registry["thm13"] = CheckSpec(
        "thm13", ("d", "n"),
        "(q^d;q^d)_(n-1)^d/(1-q)^(dn-d) times the mixed sum is divisible "
        "by [n]^2 as a polynomial")
    param_desc = {
        "p1_24": "parametric vanishing sum, d + r odd, index k-2 central band",
        "p2_25": "parametric vanishing sum, d and r odd, index k-2 central band",
        "p3_32": "parametric squared-sum congruence, odd d > 3, r = 1",
        "p4_33": "parametric squared-sum congruence at d = 3, r = 1",
        "p5_43": "parametric closed form B_q, d + r odd, d - r >= 3",
        "p6_44": "parametric closed form B_q at d - r = 1",
        "p7_45": "parametric closed form C_q, d and r odd, d - r >= 4",
        "p8_46": "parametric closed form C_q at d - r = 2",
    }
    for cid in PARAMETRIC_IDS:
        registry[cid] = CheckSpec(
            cid, ("d", "r", "n"),
            param_desc[cid] + "; exact equality at a = q^n and a = q^-n "
            "plus termwise a = 1 collapse")
    registry["km"] = CheckSpec(
        "km", ("m", "n_list", "trials", "seed"),
        "terminating Karlsson-Minton summation, exact random rational "
        "evaluation")
    registry["qbinom_vanish"] = CheckSpec(
        "qbinom_vanish", ("n", "j", "expect"),
        "alternating q-binomial sum vanishes for 0 <= j <= n-1")
    step_desc = {
        "ratio_shift_generic": "Pochhammer ratio shift outside the central "
                               "band, by exponent counting",
        "ratio_shift_central": "Pochhammer ratio shift on the central band "
                               "with indices k-2 and (n+r)/d-2, by exponent "
                               "counting",
        "qbinom_rewrite": "terminating Pochhammer quotient as signed "
                          "q-binomial times a q-power",
        "exponent_identity": "integer identity between the two q-power "
                             "exponent forms",
        "sum_decomposition": "three-sum bracket decomposition, term by "
                             "term on the factors the terms do not share",
        "pochhammer_split_r1": "splitting of (q^(d+1),q^(1-d);q^d)_k into "
                               "-q[d-1](1 + ...)(q;q^d)_k^2",
        "pochhammer_split_general": "splitting of (q^(d+r),q^(r-d);q^d)_k "
                                    "into -q^r([d-r]/[r])(1 + ...)(q^r;q^d)_k^2",
        "prefactor_divisibility": "prod [md]^d divisible by the squared "
                                  "cyclotomic divisors of n",
        "bracket_factorization": "[n] equals Phi_n times the proper "
                                 "cyclotomic divisors",
    }
    step_params = {
        "ratio_shift_generic": ("d", "r", "n", "j", "k"),
        "ratio_shift_central": ("d", "r", "n", "j", "k"),
        "qbinom_rewrite": ("d", "r", "n", "k"),
        "exponent_identity": ("d", "r", "n", "k"),
        "sum_decomposition": ("d", "n"),
        "pochhammer_split_r1": ("d", "k"),
        "pochhammer_split_general": ("d", "r", "k"),
        "prefactor_divisibility": ("d", "n"),
        "bracket_factorization": ("n",),
    }
    for cid in PROOF_STEP_IDS:
        registry[cid] = CheckSpec(cid, step_params[cid], step_desc[cid])
    classical_desc = {
        "rv_11": "sum (1/2)_k^2/k!^2 == (-1)^((p-1)/2) mod p^2",
        "deines_12": "sum ((d-1)/d)_k^d/k!^d == -Gamma_p(1/d)^d mod p^2",
        "cor41_i": "two-parameter mixed classical sum vs "
                   "(d-r)/d (r/d)^r Gamma_p(-r/d)^d mod p^2",
        "cor41_ii": "two-parameter squared classical sum vs "
                    "-(r/d)^(r+1) Gamma_p(-r/d)^d mod p^2",
        "gamma_factorial": "(p-1-(p+r)/d)!/((p+r)/d)!^(d-1) vs "
                           "-(-1)^((p+r)/d) Gamma_p(-r/d)^d mod p^2",
        "wlt_integrality": "(n-1)!^d d^(dn-d) n^-2 times the mixed classical "
                           "sum is an integer",
    }
    classical_params = {
        "rv_11": ("p",),
        "deines_12": ("d", "p"),
        "cor41_i": ("d", "r", "p"),
        "cor41_ii": ("d", "r", "p"),
        "gamma_factorial": ("d", "r", "p"),
        "wlt_integrality": ("d", "n"),
    }
    for cid in CLASSICAL_IDS:
        registry[cid] = CheckSpec(cid, classical_params[cid],
                                  classical_desc[cid])
    return registry


REGISTRY = build_registry()


def _dispatch(check_id: str, params: dict) -> CheckResult:
    if check_id in THEOREM_IDS:
        return verify_theorem(check_id, params["d"], params["n"],
                              params.get("r", 1))
    if check_id == "thm13":
        return verify_divisibility(params["d"], params["n"])
    if check_id in PARAMETRIC_IDS:
        return verify_parametric(check_id, params["d"], params["r"],
                                 params["n"])
    if check_id == "km":
        return verify_karlsson_minton(params["n_list"],
                                      params.get("trials", DEFAULT_TRIALS),
                                      params.get("seed", DEFAULT_SEED),
                                      params.get("m"))
    if check_id == "qbinom_vanish":
        return verify_qbinomial_vanishing(params["n"], params.get("j"),
                                          params.get("expect"))
    if check_id in PROOF_STEP_IDS:
        return verify_proof_step(check_id, params)
    if check_id in CLASSICAL_IDS:
        return verify_classical(check_id, params)
    raise ValueError(f"unknown check id {check_id!r}")


def run_check(check_id: str, params: dict) -> CheckResult:
    """Run and time one check; never raises for a known check id."""
    if check_id not in REGISTRY:
        raise ValueError(f"unknown check id {check_id!r}")
    start = time.perf_counter()
    try:
        result = _dispatch(check_id, params)
    except ArithmeticError as exc:  # non-unit, pole, non-integral exponent
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
    out = []
    for m in range(1, max_m + 1):
        stack = [()]
        for _ in range(m):
            stack = [t + (v,) for t in stack for v in range(max_nj + 1)]
        out.extend(stack)
    return out


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
    for d, n in GRID_PREFACTOR:
        instances.append(("prefactor_divisibility", {"d": d, "n": n}))
    for n in range(2, BRACKET_MAX_N + 1):
        instances.append(("bracket_factorization", {"n": n}))
    seen = set()
    unique = []
    for cid, params in instances:
        key = (cid, tuple(sorted(params.items())))
        if key not in seen:
            seen.add(key)
            unique.append((cid, params))
    return unique


def paper_default_suite(seed: int = DEFAULT_SEED,
                        trials: int = DEFAULT_TRIALS):
    """The built-in acceptance grid as (check id, params) instances."""
    plan: list[tuple[str, dict]] = []
    for d, n in GRID_EQ13:
        plan.append(("eq13", {"d": d, "n": n}))
    for d, n in GRID_EQ14:
        plan.append(("eq14", {"d": d, "n": n}))
    for d, n in GRID_EQ15:
        plan.append(("eq15", {"d": d, "n": n}))
    for d, n in GRID_THM11:
        plan.append(("thm11", {"d": d, "n": n}))
    for d, n in GRID_THM12:
        plan.append(("thm12", {"d": d, "n": n}))
    for d, r, n in GRID_LEMMA21:
        plan.append(("lemma21", {"d": d, "n": n, "r": r}))
    for d, n in GRID_EQ22:
        plan.append(("eq22", {"d": d, "n": n}))
    for d, r, n in GRID_THM41:
        plan.append(("thm41", {"d": d, "n": n, "r": r}))
    for d, r, n in GRID_THM42:
        plan.append(("thm42", {"d": d, "n": n, "r": r}))
    for d, n in GRID_THM13:
        plan.append(("thm13", {"d": d, "n": n}))
    for cid, grid in GRID_PARAMETRIC.items():
        for d, r, n in grid:
            plan.append((cid, {"d": d, "n": n, "r": r}))
    for n_list in km_offset_lists():
        plan.append(("km", {"m": len(n_list), "n_list": n_list,
                            "trials": trials, "seed": seed}))
    for n in range(1, QBINOM_MAX_N + 1):
        plan.append(("qbinom_vanish", {"n": n}))
    plan.extend(_proof_step_instances())
    for prime in GRID_RV11_PRIMES:
        plan.append(("rv_11", {"p": prime}))
    for d, prime in GRID_DEINES:
        plan.append(("deines_12", {"d": d, "p": prime}))
    for d, r, prime in GRID_COR41_I:
        plan.append(("cor41_i", {"d": d, "p": prime, "r": r}))
    for d, r, prime in GRID_COR41_II:
        plan.append(("cor41_ii", {"d": d, "p": prime, "r": r}))
    for d, r, prime in sorted(set(GRID_COR41_I) | set(GRID_COR41_II)):
        plan.append(("gamma_factorial", {"d": d, "p": prime, "r": r}))
    for d, n in GRID_WLT:
        plan.append(("wlt_integrality", {"d": d, "n": n}))
    return plan


SUITES = {"paper-default": paper_default_suite}
