"""Parametric congruence families, certified at a = q^n and a = q^{-n}.

Each family's summand multiplies Pochhammers whose bases are a^j q^e with
the a-exponents j running from d-1 down to 1-d in steps of 2, a central
band of bases carrying the low q-power (or a shifted Pochhammer index),
and the fixed denominator bases {q^d} + {a^j q^d : j = d-2, d-4, ..., 2-d}.
Substituting a = q^{+-n} makes everything univariate; the congruence
modulo (1 - a q^n)(a - q^n) is certified by exact rational-function
equality at both substitution points.  Term k >= 1 of each sum is
[x + d(k - 1)] over fixed intercept lists, so a sum is an O(d) template,
expanded into lists only where one is built.
The substitution enters the template and the closed form only as j s n,
for j from ``numerator_entries``, ``rhs_band`` and ``_den_core``.  Where
each of those lists is the same multiset under j -> -j, a = q^{-n} gives
the a = q^n identity with its commuting factors reordered, so deciding
a = q^n decides both points.  The symmetry is checked on the O(d) lists
of every check; a list that is not symmetric raises RuntimeError, an
ERROR, since the second point would then need its own identity.  Most
a intercepts exceed a b intercept by a multiple of d, so most numerator
factors 1 - q^e of a term reappear in the denominator of a later term;
``template_increments`` cancels them on the intercepts and ends the sum
where a numerator factor 1 - q^0 zeroes every later term, as the
terminating q-binomial theorem does, and the closed form's denominator,
exponent lists as ``families.closed_form`` gives them, is cancelled
against what is left.  The cross products N den = sign q^shift D num, or
N = 0, are one ``relation_vanishes`` call.  Substituting a = 1 into the
same template must reproduce the corresponding non-parametric summand
term by term, which pins down the reconstruction of the displayed
exponent patterns.
The reference summand is a template too, the thm42 family's own unless
the index is shifted.  Neither template depends on n, so whether their
sorted lists agree is stored once per shape (the shifted index, the
entries, d and r): equal sorted templates give equal terms at every k
and every n.  Templates that differ are decided at each n on their
certificate by ``first_failing_term``, which reads ERROR "no
certificate" where their terms' ratios do not telescope.  Each family
deforms a q-statement of the catalog, lemma21 or thm42, and is
admissible where that statement is and its own condition on (d, r)
holds.
"""

from __future__ import annotations

from .families import (F6_THM42, a_exponent, family_template, mutated,
                       theorem_precondition)
from .qfuncs import (first_failing_term, relation_vanishes,
                     template_increments, without_common)
from .results import CheckResult, fails, holds, skipped

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


class DegenerateSubstitutionError(ZeroDivisionError):
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


def _upper_limit(check_id: str, d: int, r: int, n: int) -> int:
    if check_id in _SHIFTED_INDEX:
        return n - 1 - (n + r) // d
    return n - 1


def _sum_template(check_id: str, d: int, r: int, n: int, s: int, entries):
    """The LHS as a template (head, a, b, c) of ``truncated_sum`` increments,
    from the summand's ``numerator_entries``, which a check builds once
    for both its templates.

    s = +1 or -1 selects a = q^{sn}; s = 0 gives the a = 1 collapse.
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
    width = r if check_id in _SHIFTED_INDEX else 0
    return (([], reciprocal, [r - d] * width),
            [x + d * off for x, off in entries], den_bases, [r] * width)


def _key(template):
    """The template with each list sorted.  Equal lists as multisets give
    equal increments at every k, so equal keys give the same terms."""
    (a0, b0, c0), a, b, c = template
    return tuple(tuple(sorted(exps)) for exps in (a0, b0, c0, a, b, c))


def _rhs_factors(check_id: str, d: int, r: int, n: int, s: int,
                 mutation: str | None):
    """Substituted closed form sign q^shift prod_num (1 - q^e) over
    prod_den (1 - q^e), as (sign, shift, num exponents, den exponents)."""
    m = (n + r) // d
    shift = a_exponent(d, n, r) - r
    sign = 1 if (n - 1 - m) % 2 == 0 else -1
    num = [j * s * n + r for j in rhs_band(check_id, d, r)]
    num += [d * t for t in range(1, n - m)]
    den = [j * s * n + d + d * t for j in _den_core(d) for t in range(m)]
    return mutated((sign, shift, num, den), mutation)


def _reference_template(check_id: str, d: int, r: int):
    """The non-parametric summand the a = 1 collapse must reproduce, as a
    template (head, a, b, c) like ``_sum_template``'s.

    Without the shifted index it is the thm42 summand.  The shifted index
    writes term k as q^{dk} (q^{d+r}; q^d)_k^{d-r-1} (q^{r-d}; q^d)_k^{r+1}
    over (q^d; q^d)_k^d, divided by ((1 - q^{r-d})(1 - q^r))^{r+1}, since
    (q^{d+r}; q^d)_{k-2} is (q^{r-d}; q^d)_k over those two factors, and
    multiplied by (1 - q^{dk-d+r})^r.
    """
    if check_id not in _SHIFTED_INDEX:
        return family_template(F6_THM42, d, r)
    return (([], [r - d, r] * (r + 1), [r - d] * r),
            [d + r] * (d - r - 1) + [r - d] * (r + 1), [d] * d, [r] * r)


# Witnesses (None for HOLDS) of the work after the precondition, keyed on
# what decides it; ``p3_32`` is ``p7_45`` at r = 1, for one.
_CERTIFIED: dict = {}
_CERTIFIED_MAX = 4096


def _stored(store: dict, key, decide):
    """store[key], set to ``decide()`` when absent; at most
    ``_CERTIFIED_MAX`` entries are kept, the oldest dropped first."""
    if key not in store:
        while len(store) >= _CERTIFIED_MAX:
            del store[next(iter(store))]
        store[key] = decide()
    return store[key]


def _same_shape(check_id: str, d: int, r: int, n: int, entries) -> bool:
    """Whether the a = 1 template and the reference's have equal keys;
    neither depends on n."""
    return _key(_sum_template(check_id, d, r, n, 0, entries)) == _key(
        _reference_template(check_id, d, r))


# ``_same_shape`` of each shape: the shifted index, the entries, d and r.
_SAME_SHAPE: dict = {}


def _collapse_at_one(check_id: str, d: int, r: int, n: int,
                     entries) -> str | None:
    """Termwise a = 1 consistency against the reference summand; a witness
    on failure.

    Term k of the sum at a = 1 is q^{dk} prod_{j<=k} a_j c_k / prod_{j<=k} b_j
    over the same template the substituted sum is built from.  Equal keys
    answer at once, since the sum templates refuse a denominator 1 - q^0,
    and that answer is stored once per shape.  Templates that differ are
    decided by ``first_failing_term`` with the relation lhs - rhs, up to
    n's limit.
    """
    shape = (check_id in _SHIFTED_INDEX, tuple(entries), d, r)
    if _stored(_SAME_SHAPE, shape,
               lambda: _same_shape(check_id, d, r, n, entries)):
        return None
    k = first_failing_term((_sum_template(check_id, d, r, n, 0, entries),
                            _reference_template(check_id, d, r)),
                           ((1, 0, []), (-1, 0, [])), d,
                           _upper_limit(check_id, d, r, n))
    if k is None:
        return None
    return f"a = 1 collapse differs from reference summand at k = {k}"


def verify_parametric(check_id: str, d: int, r: int, n: int,
                      mutation: str | None = None) -> CheckResult:
    """Exact equality at a = q^n, which stands for a = q^{-n} too, plus the
    a = 1 termwise collapse.

    The work after the precondition depends on the family only through
    the shifted index, ``numerator_entries`` and ``rhs_band``, so it is
    done once per process for each such key, with d, r, n and the
    mutation, and its verdict is returned under the id that asks."""
    params = {"d": d, "n": n, "r": r}
    reason = parametric_precondition(check_id, d, r, n)
    if reason is not None:
        return skipped(check_id, params, reason)
    entries = numerator_entries(check_id, d, r)
    band = rhs_band(check_id, d, r)
    key = (d, r, n, mutation, check_id in _SHIFTED_INDEX, tuple(entries),
           tuple(band))
    witness = _stored(_CERTIFIED, key, lambda: _witness(
        check_id, d, r, n, mutation, entries, band))
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


def _witness(check_id: str, d: int, r: int, n: int, mutation: str | None,
             entries, band) -> str | None:
    """``verify_parametric``'s witness of FAILS, None where it HOLDS."""
    _refuse_asymmetry(entries, band, d)
    template = _sum_template(check_id, d, r, n, 1, entries)
    # None for a sum that vanishes, as lemma21's does; it refuses every
    # mutation.
    closed = (mutated(None, mutation) if check_id in _SHIFTED_INDEX
              else _rhs_factors(check_id, d, r, n, 1, mutation))
    increments = template_increments(template, d,
                                     _upper_limit(check_id, d, r, n))
    if closed is None:
        if not relation_vanishes(d, [(1, 0, [], increments)]):
            return f"substituted sum nonzero at a = q^{n}"
    else:
        sign, shift, num, den = closed
        # The increments hold no denominator 1 - q^0, so no such factor
        # cancels.
        den, lhs_den = without_common(
            den, [e for _, b, _ in increments for e in b])
        if not relation_vanishes(d, [(1, 0, den, increments),
                                     (-sign, shift, lhs_den + num, None)]):
            return f"sides differ at a = q^{n}"
    return _collapse_at_one(check_id, d, r, n, entries)
