"""Summation-formula and proof-step identity checks.

The Karlsson-Minton style summation is verified by exact random-point
evaluation: with rational q and b_j, both sides are exact rationals and a
single non-degenerate agreement is overwhelming evidence; five seeded
trials make the check deterministic in practice.  The terminating
q-binomial vanishing builds the row [n k], k = 0..n, once by the
q-Pascal rule on ints packed at q = 2^B; each alternating sum is n + 1
shifted adds of that row, decided by ``Packed.is_zero``, and B fits
2^n, the sum of the row's L1 norms.  The proof-step catalog
collects the small exact identities the congruence proofs lean on: the
two Pochhammer ratio shifts, the q-binomial rewriting with its integer
exponent identity, the three-sum decomposition, the two Pochhammer
splittings, the prefactor divisibility (by counting cyclotomic factors),
and the cyclotomic factorization of [n].  The ratio shifts, the
q-binomial rewriting and the splittings are equalities of quotients
+-q^s prod (1 - q^e)^{+-1}, decided by ``quotients_differ`` on the
sorted exponent lists of their ratio; the one sum among them, 1 + ratio
in the splittings, is decided by ``relation_vanishes`` as A + B - C.  The
three-sum decomposition, mixed = [d] divisibility - q [d-1] squared over
their (statement, r) templates, holds term by term.  Each run's intercepts
are congruent to run 1's mod d, so the ratios of their terms telescope,
and cleared of them the relation has degree D = 1 in x = q^{dk}:
``first_failing_term`` decides it on terms 0..D + 1, which prove it for
every n.  A term among them that differs is a FAILS, and templates whose
ratios do not telescope have no certificate, which is an ERROR.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .cyclotomic import cyclotomic, divisors, q_integer
from .families import family_template
from .parametric import parametric_precondition
from .poly import poly_prod
from .qfuncs import (
    DegenerateProductError,
    Packed,
    first_failing_term,
    packed_width,
    quotients_differ,
    relation_vanishes,
)
from .results import CheckResult, fails, holds, skipped


# ---------------------------------------------------------------------------
# Karlsson-Minton type summation
# ---------------------------------------------------------------------------

# The sampling every km entry point uses unless told otherwise.
DEFAULT_TRIALS = 5
DEFAULT_SEED = 42


class SampleExhaustionError(RuntimeError):
    """Too many consecutive degenerate random samples."""


def _scalar_poch(x: Fraction, q: Fraction, k: int) -> Fraction:
    value = Fraction(1)
    power = Fraction(1)
    for _ in range(k):
        value *= 1 - x * power
        power *= q
    return value


def _km_sides(q: Fraction, bs: list[Fraction], ns: list[int]):
    total_n = sum(ns)
    lhs = Fraction(0)
    for k in range(total_n + 1):
        term = _scalar_poch(q ** -total_n, q, k) * q**k
        term /= _scalar_poch(q, q, k)
        for b, nj in zip(bs, ns):
            term *= _scalar_poch(b * q**nj, q, k) / _scalar_poch(b, q, k)
        lhs += term
    rhs = (-1) ** total_n * _scalar_poch(q, q, total_n)
    rhs *= q ** sum(nj * (nj - 1) // 2 for nj in ns)
    for b, nj in zip(bs, ns):
        rhs *= b**nj / _scalar_poch(b, q, nj)
    return lhs, rhs


def _km_degenerate(q: Fraction, bs: list[Fraction], total_n: int) -> bool:
    if q == 1:
        return True
    for b in bs:
        power = Fraction(1)
        for _ in range(max(total_n, 1)):
            if b * power == 1:
                return True
            power *= q
    return False


def verify_karlsson_minton(n_list, trials: int = DEFAULT_TRIALS,
                           seed: int = DEFAULT_SEED,
                           m: int | None = None) -> CheckResult:
    """Exact random-point check of the terminating summation formula."""
    ns = list(n_list)
    if m is None:
        m = len(ns)
    params = {"m": m, "n_list": tuple(ns), "trials": trials, "seed": seed}
    if m < 1 or m != len(ns) or any(nj < 0 for nj in ns):
        return skipped("km", params, "requires m = len(n_list) >= 1, n_j >= 0")
    if trials < 1:  # no trial would check anything
        return skipped("km", params, "requires trials >= 1")
    rng = random.Random(seed)
    total_n = sum(ns)
    for trial in range(trials):
        misses = 0
        while True:
            q = Fraction(rng.randint(2, 100), rng.randint(2, 100))
            bs = [Fraction(rng.randint(2, 100), rng.randint(2, 100))
                  for _ in range(m)]
            if not _km_degenerate(q, bs, total_n):
                break
            misses += 1
            if misses >= 100:
                raise SampleExhaustionError(
                    "100 consecutive degenerate Karlsson-Minton samples")
        lhs, rhs = _km_sides(q, bs, ns)
        if lhs != rhs:
            return fails("km", params,
                         f"trial {trial}: q={q}, b={bs}: {lhs} != {rhs}")
    return holds("km", params)


# ---------------------------------------------------------------------------
# Terminating q-binomial vanishing
# ---------------------------------------------------------------------------

def qbinomial_row(n: int, width: int) -> list[int]:
    """[n k], k = 0..n, each packed at q = 2^width, by the q-Pascal rule
    [m k] = [m-1 k-1] + q^k [m-1 k].  The coefficients of [n k] are
    nonnegative and sum to C(n, k), so the rows' L1 norms sum to 2^n."""
    row = [1]
    for m in range(1, n + 1):
        row = [1, *(row[k - 1] + (row[k] << k * width)
                    for k in range(1, m)), 1]
    return row


def _alternating_sum(row: list[int], j: int, width: int) -> Packed:
    """sum_k (-1)^k [n k] q^{C(n-k,2) + jk}, zero exactly for 0 <= j <= n-1,
    packed from ``qbinomial_row``: n + 1 shifted adds, of L1 norm at most
    2^n.  A negative j gives negative exponents, so the sum is built
    offset by its smallest shift."""
    n = len(row) - 1
    shifts = [(n - k) * (n - k - 1) // 2 + j * k for k in range(n + 1)]
    low = min(shifts)
    value = 0
    for k, (term, shift) in enumerate(zip(row, shifts)):
        term <<= (shift - low) * width
        value += -term if k % 2 else term
    return Packed(value, low, n, width)


def verify_qbinomial_vanishing(n: int, j: int | None = None,
                               expect: str | None = None) -> CheckResult:
    """Vanishing of the alternating q-binomial sum.

    Without j, every exponent 0..n-1 must give the zero polynomial.  With
    an explicit j the expectation defaults to zero inside that range and
    to nonzero outside it (diagnostic mode); pass ``expect`` to override.
    ``expect`` without j is refused as a precondition, and any ``expect``
    but ``"zero"`` or ``"nonzero"`` raises ValueError.
    """
    if expect not in (None, "zero", "nonzero"):
        raise ValueError(f"expect must be 'zero' or 'nonzero', not {expect!r}")
    params = {"n": n}
    if j is not None:
        params["j"] = j
    if expect is not None:
        params["expect"] = expect
    if n < 1:
        return skipped("qbinom_vanish", params, "requires n >= 1")
    if j is None and expect is not None:
        return skipped("qbinom_vanish", params, "requires j with expect")
    if j is None:
        targets = [(jj, "zero") for jj in range(n)]
        note = None
    else:
        expectation = expect or ("zero" if 0 <= j <= n - 1 else "nonzero")
        targets = [(j, expectation)]
        note = ("expected-nonvanishing outside stated range"
                if expectation == "nonzero" else None)
    width = packed_width(n)
    row = qbinomial_row(n, width)
    for jj, expectation in targets:
        value = _alternating_sum(row, jj, width)
        if expectation == "zero" and not value.is_zero():
            return fails("qbinom_vanish", params, "nonzero polynomial at"
                         f" j = {jj}: {value.laurent()!r}")
        if expectation == "nonzero" and value.is_zero():
            return fails("qbinom_vanish", params,
                         f"unexpected vanishing at j = {jj}")
    return holds("qbinom_vanish", params, note)


# ---------------------------------------------------------------------------
# Proof-step catalog
# ---------------------------------------------------------------------------

def _poch_parts(base: int, step: int, idx: int):
    """Exponent lists (numerator, denominator) of (q^base; q^step)_idx."""
    if idx >= 0:
        return [base + step * t for t in range(idx)], []
    den = [base - step * t for t in range(1, -idx + 1)]
    if any(e == 0 for e in den):
        raise DegenerateProductError(
            "degenerate reciprocal q-shifted factorial")
    return [], den


def _central_band(d: int, r: int) -> range:
    return range((d - r - 1) // 2, (d + r - 1) // 2 + 1)


def _ratio_shift_pre(d, r, n, j, k, central: bool) -> str | None:
    """p1_24's precondition, whose summand the ratio shifts rewrite, then
    the index rules."""
    reason = parametric_precondition("p1_24", d, r, n)
    if reason:
        return reason
    if k < 0:
        return "requires k >= 0"
    if not 1 <= j <= d - 1:
        return "requires 1 <= j <= d - 1"
    inside = j in _central_band(d, r)
    if central != inside:
        band = _central_band(d, r)
        return (f"requires j in [{band.start}, {band.stop - 1}]" if central
                else f"requires j outside [{band.start}, {band.stop - 1}]")
    return None


def _ratio_shift_sides(d, r, n, j, k, central: bool):
    """Both sides of the ratio shift as (sign, shift, num, den) exponent
    lists of factors 1 - q^e."""
    m = (n + r) // d
    b = d - (d - 2 * j) * n
    top = d + r - (d - 2 * j - 1) * n
    lnum, lden = _poch_parts(top, d, k - 2 if central else k)
    lden2, _ = _poch_parts(b, d, k)
    rnum, rden = _poch_parts(b + d * k, d, m - 2 if central else m)
    rden2, _ = _poch_parts(b, d, m)
    return (1, 0, lnum, lden + lden2), (1, 0, rnum, rden + rden2)


def _check_ratio_shift(d, r, n, j, k, central: bool) -> str | None:
    lhs, rhs = _ratio_shift_sides(d, r, n, j, k, central)
    if quotients_differ(lhs, rhs):
        return f"ratio shift differs at j={j}, k={k}"
    return None


def _qbinom_rewrite_sides(d, r, n, k):
    """q^{dk} (q^{d+r-(d-1)n}; q^d)_k / (q^d; q^d)_k and
    (-1)^k q^{e} [top k]_{q^d}, top = n - 1 - (n + r)/d, as (sign, shift,
    num, den); [top k]_{q^d} = prod_{t<k} (1 - q^{d(top-t)}) / (1 - q^{d(t+1)})
    has the factor 1 - q^0 exactly when k > top."""
    top = n - 1 - (n + r) // d
    exponent = d * k * (k - 1) // 2 + (n + 2 * d + r - d * n) * k
    den = [d + d * t for t in range(k)]
    lhs = (1, d * k, [d + r - (d - 1) * n + d * t for t in range(k)], den)
    rhs = ((-1) ** k, exponent, [d * (top - t) for t in range(k)], den)
    return lhs, rhs


def _check_qbinom_rewrite(d, r, n, k) -> str | None:
    lhs, rhs = _qbinom_rewrite_sides(d, r, n, k)
    if quotients_differ(lhs, rhs):
        return f"q-binomial rewrite differs at k={k}"
    return None


def _check_exponent_identity(d, r, n, k) -> str | None:
    m = (n + r) // d
    top = n - 1 - m
    lhs = d * k * (k - 1) // 2 + (n + 2 * d + r - d * n) * k
    rhs = d * (top - k) * (top - k - 1) // 2 - d * top * (top - 1) // 2
    if lhs != rhs:
        return f"exponent identity differs: {lhs} != {rhs}"
    return None


# The decomposition's mixed, divisibility and squared sums as (statement, r).
DECOMPOSITION_SUMMANDS = (("thm41", 1), ("lemma21", 1), ("thm42", 1))


def _decomposition_templates(d) -> list[tuple]:
    """The decomposition's three sums as ``family_template`` templates."""
    return [family_template(statement, d, r)
            for statement, r in DECOMPOSITION_SUMMANDS]


def _decomposition_relation(d):
    """(1 - q) s1 - (1 - q^d) s2 + q (1 - q^{d-1}) s3, zero termwise."""
    return (1, 0, [1]), (-1, 0, [d]), (1, 1, [d - 1])


def _check_sum_decomposition(d, n) -> str | None:
    """s1 = [d] s2 - q [d-1] s3, term by term, decided on the templates'
    certificate by ``first_failing_term``: (1 - q)[m] = 1 - q^m."""
    if first_failing_term(_decomposition_templates(d),
                          _decomposition_relation(d), d, n - 1) is not None:
        return "three-sum decomposition differs"
    return None


def _poch_split_sides(d, r, k):
    """(q^{d+r}, q^{r-d}; q^d)_k = -q^r [d-r]/[r] (1 + B/A) (q^r; q^d)_k^2
    with A = q^d (1 - q^{dk+r-d}) and B = 1 - q^d, as the left side and
    the right side without 1 + B/A, each (sign, shift, num, den), and the
    terms (A, B, C), each (shift, exponents), of the sum A + B = C with
    C = 1 - q^{dk+r}, which makes 1 + B/A = C/A."""
    lhs = (1, 0, [d + r + d * t for t in range(k)]
           + [r - d + d * t for t in range(k)], [])
    square = [r + d * t for t in range(k)] * 2
    rest = (-1, r, [d - r] + square, [r])  # [d-r]/[r] = (1 - q^{d-r})/(1 - q^r)
    terms = ((d, [d * k + r - d]), (0, [d]), (0, [d * k + r]))
    return lhs, rest, terms


def _check_poch_split(d, r, k) -> str | None:
    lhs, (sign, shift, num, den), terms = _poch_split_sides(d, r, k)
    (sa, ea), (sb, eb), (sc, ec) = terms
    if not relation_vanishes(0, [(1, sa, ea, None), (1, sb, eb, None),
                                 (-1, sc, ec, None)]):
        return f"1 + ratio differs at d={d}, r={r}, k={k}"
    rhs = (sign, shift + sc - sa, num + ec, den + ea)  # times C/A
    if quotients_differ(lhs, rhs):
        return f"Pochhammer splitting differs at d={d}, r={r}, k={k}"
    return None


def _check_prefactor_divisibility(d, n) -> str | None:
    """prod_{j<n} [jd]^d is divisible by prod Phi_m^2 over m | n, 1 < m < n.

    [jd] = prod_{m | jd, m > 1} Phi_m, so Phi_m divides the product exactly
    d #{0 < j < n : m | jd} times, and distinct Phi_m^2 are coprime.
    """
    for m in divisors(n):
        if 1 < m < n:
            count = d * sum(1 for j in range(1, n) if j * d % m == 0)
            if count < 2:
                return f"Phi_{m} divides the product {count} times, not twice"
    return None


def _check_bracket_factorization(n) -> str | None:
    product = cyclotomic(n) * poly_prod(
        [cyclotomic(m) for m in divisors(n) if 1 < m < n])
    if product != q_integer(n):
        return f"cyclotomic product differs from [{n}]"
    return None


def _qbinom_rewrite_pre(d, r, n, k) -> str | None:
    if d < 1:
        return "requires d >= 1"
    if (n + r) % d or k < 0:
        return "requires n == -r (mod d), k >= 0"
    if n - 1 - (n + r) // d < 0:
        return "requires n - 1 - (n + r)/d >= 0"
    return None


def _exponent_identity_pre(d, r, n, k) -> str | None:
    if d < 1:
        return "requires d >= 1"
    return "requires n == -r (mod d)" if (n + r) % d else None


# Step id -> (precondition, check), both called with the step's parameters
# by name: the precondition gives the reason to skip or None, the check
# the witness of FAILS or None.
_PROOF_STEPS = {
    "ratio_shift_generic": (partial(_ratio_shift_pre, central=False),
                            partial(_check_ratio_shift, central=False)),
    "ratio_shift_central": (partial(_ratio_shift_pre, central=True),
                            partial(_check_ratio_shift, central=True)),
    "qbinom_rewrite": (_qbinom_rewrite_pre, _check_qbinom_rewrite),
    "exponent_identity": (_exponent_identity_pre, _check_exponent_identity),
    "sum_decomposition": (
        lambda d, n: None if d >= 2 and n >= 1
        else "requires d >= 2 and n >= 1", _check_sum_decomposition),
    "pochhammer_split_r1": (
        lambda d, k: None if d >= 2 and k >= 0
        else "requires d >= 2 and k >= 0",
        lambda d, k: _check_poch_split(d, 1, k)),
    "pochhammer_split_general": (
        lambda d, r, k: None if d > r >= 1 and k >= 0
        else "requires d > r >= 1 and k >= 0", _check_poch_split),
    "prefactor_divisibility": (
        lambda d, n: None if d >= 2 and n >= 2
        else "requires d >= 2 and n >= 2", _check_prefactor_divisibility),
    "bracket_factorization": (
        lambda n: None if n >= 2 else "requires n >= 2",
        _check_bracket_factorization),
}


def verify_proof_step(step_id: str, **params) -> CheckResult:
    """One exact proof-step identity check, on the parameters its step
    names, so a missing one is a TypeError that names it; the result
    echoes the parameters given."""
    if step_id not in _PROOF_STEPS:
        raise ValueError(f"unknown proof step {step_id!r}")
    precondition, check = _PROOF_STEPS[step_id]
    reason = precondition(**params)
    if reason:
        return skipped(step_id, params, reason)
    witness = check(**params)
    if witness is not None:
        return fails(step_id, params, witness)
    return holds(step_id, params)
