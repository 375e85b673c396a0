"""Parametric congruence families, certified at a = q^n and a = q^{-n}.

Each family's summand multiplies Pochhammers whose bases are a^j q^e with
the a-exponents j running from d-1 down to 1-d in steps of 2, a central
band of bases carrying the low q-power (or a shifted Pochhammer index),
and the fixed denominator bases {q^d} + {a^j q^d : j = d-2, d-4, ..., 2-d}.
Substituting a = q^{+-n} makes everything univariate, and term k >= 1 of
each sum is [x + d(k - 1)] over fixed intercept lists: an O(d) template.
The substitution enters the template and the closed form only as j s n,
for j from ``numerator_entries``, ``rhs_band`` and ``_den_core``; where
each is the same multiset under j -> -j, a = q^{-n} gives the a = q^n
identity with its factors reordered, so a = q^n alone is decided.  A
list that is not symmetric raises RuntimeError, an ERROR.
The a = q^n sum is decided by Gasper's proof of the Karlsson-Minton
summation (SIAM J. Math. Anal. 12, 1981), by exponent counting on the
template.  Within each residue class mod d, each a intercept x in
ascending order takes the largest open b intercept y <= x
(``pair_intercepts``), with span L = (x - y)/d.  Five premises must
hold, or the check reads ERROR "no certificate": (1) the unpaired b
intercepts are [d] and the unpaired a ones [-dN]; (2) the upper limit is
at least N; (3) c_0 is c less d; (4) no constant factor 1 - q^0 is in
b_0 or a pair's (q^y; q^d)_L; (5) M = sum L + |c| <= N.  With x = q^{dk},
term k is then const x (q^{-dN}; q^d)_k / (q^d; q^d)_k P(x), where P(x) =
prod_pairs prod_{t<L} (1 - q^{y+dt} x) prod_c (1 - q^{c-d} x) has degree
M and const = prod a_0 / (prod b_0 prod_pairs (q^y; q^d)_L).  By the
terminating q-binomial theorem the sum of (q^{-dN}; q^d)_k / (q^d; q^d)_k
q^{d(j+1)k}, k <= N, is (q^{d(1+j-N)}; q^d)_N: 0 for 0 <= j < N and
(q^d; q^d)_N at j = N.  So the sum vanishes when M < N, as lemma21's
deformations do, and at M = N it is const (-1)^M q^{sum of P's lead
exponents} (q^d; q^d)_N, which ``quotients_differ`` compares with the
closed form on sorted exponent lists.
At a = 1 the same template must reproduce the non-parametric summand
term by term: the thm42 family's unless the index is shifted.  Neither
template depends on n, so whether their sorted lists agree is decided
once per shape; templates that differ are decided at each n by
``first_failing_term``, which reads ERROR "no certificate" where their
terms' ratios do not telescope.  Each helper takes only what it reads,
so the three memos are ``functools.lru_cache``s of 4,096 entries keyed
by their arguments: ``_witness``, the work after the precondition, which
families share (p3_32 is p7_45 at r = 1); ``_left_side``, the part of it
that no mutation reaches (the symmetry check, the template, Gasper's sum
and the a = 1 collapse), so that a mutant twin run after its sibling
builds only its closed form and one ``quotients_differ``; and
``_same_shape``.
Each family deforms a q-statement of the catalog, lemma21 or thm42, and
is admissible where that statement is and its own condition on (d, r)
holds.
"""

from __future__ import annotations

import functools

from .families import (a_exponent, family_template, mutated,
                       theorem_precondition)
from .qfuncs import first_failing_term, pair_intercepts, quotients_differ
from .results import CheckResult, RefusalError, fails, holds, skipped

# Family -> (the q-statement it deforms, its condition on (d, r), that
# condition in words).  The lemma21 deformations vanish, as lemma21 does,
# and use index k - 2 on their central band.
_DEFORMS = {
    "p1_24": ("lemma21", lambda d, r: (d + r) % 2, "d + r odd"),
    "p2_25": ("lemma21", lambda d, r: d % 2 and r % 2, "d, r odd"),
    "p3_32": ("thm42", lambda d, r: d % 2 and d > 3 and r == 1,
              "odd d > 3 and r = 1"),
    "p4_33": ("thm42", lambda d, r: d == 3 and r == 1, "d = 3 and r = 1"),
    "p5_43": ("thm42", lambda d, r: (d + r) % 2 and d - r >= 3,
              "d + r odd and d - r >= 3"),
    "p6_44": ("thm42", lambda d, r: (d + r) % 2 and d - r == 1,
              "d + r odd and d - r = 1"),
    "p7_45": ("thm42", lambda d, r: d % 2 and r % 2 and d - r >= 4,
              "d, r odd and d - r >= 4"),
    "p8_46": ("thm42", lambda d, r: d % 2 and r % 2 and d - r == 2,
              "d, r odd and d - r = 2"),
}
PARAMETRIC_IDS = tuple(_DEFORMS)
_SHIFTED_INDEX = tuple(cid for cid, (statement, _, _) in _DEFORMS.items()
                       if statement == "lemma21")


class DegenerateSubstitutionError(RefusalError, ZeroDivisionError):
    """A substituted denominator factor is identically zero."""


def _a_exponents(d: int) -> range:
    return range(d - 1, -d, -2)


def _den_core(d: int) -> list[int]:
    return list(range(d - 2, 1 - d, -2))


def _central(check_id: str, j: int, r: int) -> bool:
    if check_id in ("p1_24", "p5_43", "p6_44"):
        return abs(j) <= r
    return j != 0 and abs(j) <= r + 1


def numerator_entries(check_id: str, d: int, r: int) -> list[tuple[int, int, int]]:
    """(a-exponent, q-exponent, index offset) triples for the summand."""
    entries = []
    for j in _a_exponents(d):
        central = _central(check_id, j, r)
        if check_id in _SHIFTED_INDEX:
            entries.append((j, d + r, -2 if central else 0))
        else:
            entries.append((j, r if central else d + r, 0))
    return entries


def rhs_band(check_id: str, d: int, r: int) -> list[int]:
    return [j for j in _a_exponents(d) if _central(check_id, j, r)]


def parametric_precondition(check_id: str, d: int, r: int, n: int) -> str | None:
    """None when (d, r, n) is admissible, else a short reason to skip."""
    if check_id not in _DEFORMS:
        raise ValueError(f"unknown parametric id {check_id!r}")
    statement, condition, words = _DEFORMS[check_id]
    reason = theorem_precondition(statement, d, n, r)
    if reason:
        return f"as {statement}: {reason}"
    return None if condition(d, r) else f"requires {words}"


def _upper_limit(shifted: bool, d: int, r: int, n: int) -> int:
    if shifted:
        return n - 1 - (n + r) // d
    return n - 1


def _sum_template(shifted: bool, d: int, r: int, n: int, s: int, entries):
    """The LHS as a template (head, a, b, c) of ``truncated_sum`` increments,
    from the summand's ``numerator_entries``, which a check builds once
    for both its templates; ``shifted`` is whether the central band has
    index k - 2.

    s = +1 or -1 selects a = q^{sn}; s = 0 gives the a = 1 collapse, which
    reads no n.
    Term k multiplies (x; q^d)_{k+off} over the numerator bases x and
    divides by (x; q^d)_k over the denominator bases, q^d among them.
    An index k - 2 puts its reciprocal factors 1 - x q^{-2d}, 1 - x q^{-d}
    into b_0 and takes them back from a_1 and a_2.  Term 0 is the head
    (a_0, b_0, c_0); every term k >= 1 is ``qfuncs.expand``'s
    [x + d(k - 1)] over the intercept lists a, b and c.
    """
    entries = [(j * s * n + e, off) for j, e, off in entries]
    den_bases = [j * s * n + d for j in [0] + _den_core(d)]
    for e in den_bases:
        if e % d == 0 and e <= 0:
            raise DegenerateSubstitutionError(f"denominator base q^{e}")
    reciprocal = [x + d * (off + t) for x, off in entries for t in range(-off)]
    if 0 in reciprocal:
        raise DegenerateSubstitutionError("reciprocal factor 1 - q^0")
    width = r if shifted else 0
    return (([], reciprocal, [r - d] * width),
            [x + d * off for x, off in entries], den_bases, [r] * width)


def _key(template):
    """The template with each list sorted.  Equal lists as multisets give
    equal increments at every k, so equal keys give the same terms."""
    (a0, b0, c0), a, b, c = template
    return tuple(tuple(sorted(exps)) for exps in (a0, b0, c0, a, b, c))


def _rhs_factors(band, d: int, r: int, n: int, s: int,
                 mutation: str | None):
    """Substituted closed form sign q^shift prod_num (1 - q^e) over
    prod_den (1 - q^e), as (sign, shift, num exponents, den exponents),
    from the family's ``rhs_band``."""
    m = (n + r) // d
    shift = a_exponent(d, n, r) - r
    sign = 1 if (n - 1 - m) % 2 == 0 else -1
    num = [j * s * n + r for j in band]
    num += [d * t for t in range(1, n - m)]
    den = [j * s * n + d + d * t for j in _den_core(d) for t in range(m)]
    return mutated((sign, shift, num, den), mutation)


def _reference_template(shifted: bool, d: int, r: int):
    """The non-parametric summand the a = 1 collapse must reproduce, as a
    template (head, a, b, c) like ``_sum_template``'s.

    Without the shifted index it is the thm42 summand.  The shifted index
    writes term k as q^{dk} (q^{d+r}; q^d)_k^{d-r-1} (q^{r-d}; q^d)_k^{r+1}
    over (q^d; q^d)_k^d, divided by ((1 - q^{r-d})(1 - q^r))^{r+1}, since
    (q^{d+r}; q^d)_{k-2} is (q^{r-d}; q^d)_k over those two factors, and
    multiplied by (1 - q^{dk-d+r})^r.
    """
    if not shifted:
        return family_template("thm42", d, r)
    return (([], [r - d, r] * (r + 1), [r - d] * r),
            [d + r] * (d - r - 1) + [r - d] * (r + 1), [d] * d, [r] * r)


@functools.lru_cache(maxsize=4096)
def _same_shape(shifted: bool, entries, d: int, r: int) -> bool:
    """Whether the a = 1 template and the reference's have equal keys;
    neither depends on n, so the answer is kept once per shape."""
    return _key(_sum_template(shifted, d, r, 0, 0, entries)) == _key(
        _reference_template(shifted, d, r))


def _collapse_at_one(shifted: bool, d: int, r: int, n: int,
                     entries) -> str | None:
    """Termwise a = 1 consistency against the reference summand; a witness
    on failure.

    Term k of the sum at a = 1 is q^{dk} prod_{j<=k} a_j c_k / prod_{j<=k} b_j
    over the same template the substituted sum is built from.  Equal keys
    answer at once, since the sum templates refuse a denominator 1 - q^0.
    Templates that differ are decided by ``first_failing_term`` with the
    relation lhs - rhs, up to n's limit.
    """
    if _same_shape(shifted, entries, d, r):
        return None
    k = first_failing_term((_sum_template(shifted, d, r, n, 0, entries),
                            _reference_template(shifted, d, r)),
                           ((1, 0, []), (-1, 0, [])), d,
                           _upper_limit(shifted, d, r, n))
    if k is None:
        return None
    return f"a = 1 collapse differs from reference summand at k = {k}"


def verify_parametric(check_id: str, d: int, r: int, n: int,
                      mutation: str | None = None) -> CheckResult:
    """Exact equality at a = q^n, which stands for a = q^{-n} too, plus the
    a = 1 termwise collapse.

    The work after the precondition depends on the family only through
    the shifted index, ``numerator_entries`` and ``rhs_band``, which
    ``_witness`` takes with d, r, n and the mutation, so it is done once
    per process for each such argument list, and its verdict is returned
    under the id that asks."""
    params = {"d": d, "n": n, "r": r}
    reason = parametric_precondition(check_id, d, r, n)
    if reason is not None:
        return skipped(check_id, params, reason)
    witness = _witness(d, r, n, mutation, check_id in _SHIFTED_INDEX,
                       tuple(numerator_entries(check_id, d, r)),
                       tuple(rhs_band(check_id, d, r)))
    if witness is not None:
        return fails(check_id, params, witness)
    return holds(check_id, params)


def _refuse_asymmetry(entries, band, d: int) -> None:
    """RuntimeError unless the entries, the band and ``_den_core`` are each
    the same multiset under j -> -j, which makes the a = q^{-n} identity
    the a = q^n one."""
    core = _den_core(d)
    for name, items, mirror in (
            ("numerator_entries", entries,
             [(-j, e, off) for j, e, off in entries]),
            ("rhs_band", band, [-j for j in band]),
            ("_den_core", core, [-j for j in core])):
        if sorted(items) != sorted(mirror):
            raise RuntimeError(f"{name} is not symmetric under j -> -j")


def _gasper_sum(template, d: int, limit: int):
    """The template's sum, k = 0..limit, by Gasper's argument on the five
    premises of the module: (sign, shift, num, den) as ``_rhs_factors``
    gives a closed form, None where it vanishes; RuntimeError "no
    certificate" where a premise fails."""
    (a0, b0, c0), _, _, c = template
    kept_a, kept_b, pairs = pair_intercepts(template, d, limit)
    if kept_b != [d] or len(kept_a) != 1 or kept_a[0] > 0 or kept_a[0] % d:
        raise RuntimeError("no certificate: the kept intercepts are not"
                           " b = [d] and a = [-dN]")
    top = -kept_a[0] // d
    if limit < top:
        raise RuntimeError(f"no certificate: the sum ends before N = {top}")
    if sorted(c0) != sorted(e - d for e in c):
        raise RuntimeError("no certificate: c_0 is not c at k = 0")
    fixed = [y + d * t for y, span in pairs for t in range(span)]
    if 0 in fixed or 0 in b0:
        raise RuntimeError("no certificate: a constant factor 1 - q^0")
    lead = fixed + [e - d for e in c]
    if len(lead) > top:
        raise RuntimeError(f"no certificate: P has degree {len(lead)}"
                           f" > N = {top}")
    if len(lead) < top:
        return None
    # (q^{d(1 + j - N)}; q^d)_N vanishes for j < N, so only P's leading
    # coefficient (-1)^M q^{sum lead} meets (q^d; q^d)_N.
    return (-1) ** top, sum(lead), list(a0) + [
        d * t for t in range(1, top + 1)], list(b0) + fixed


@functools.lru_cache(maxsize=4096)
def _left_side(d: int, r: int, n: int, shifted: bool, entries,
               band) -> tuple:
    """What no mutation reaches: the a = q^n sum by Gasper's argument, as
    ``_gasper_sum`` gives it, and the a = 1 collapse's witness or None.
    A mutant twin reads its sibling's, and builds only its closed form;
    every caller shares the sum's lists, which are read, never changed."""
    _refuse_asymmetry(entries, band, d)
    template = _sum_template(shifted, d, r, n, 1, entries)
    total = _gasper_sum(template, d, _upper_limit(shifted, d, r, n))
    return total, _collapse_at_one(shifted, d, r, n, entries)


@functools.lru_cache(maxsize=4096)
def _witness(d: int, r: int, n: int, mutation: str | None, shifted: bool,
             entries, band) -> str | None:
    """``verify_parametric``'s witness of FAILS, None where it HOLDS."""
    total, collapse = _left_side(d, r, n, shifted, entries, band)
    # None for a sum that vanishes, as lemma21's, which has no mutation.
    closed = (mutated(None, mutation) if shifted
              else _rhs_factors(band, d, r, n, 1, mutation))
    if quotients_differ(total, closed):
        return (f"substituted sum nonzero at a = q^{n}" if closed is None
                else f"sides differ at a = q^{n}")
    return collapse
