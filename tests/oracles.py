"""Slow, direct implementations that the tests compare the engine against.

Each one builds its value by dense Laurent or rational-function
arithmetic, where the engine counts exponents or works on packed sums,
or writes out by hand what the engine derives from the families.
"""

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import factorial
from math import gcd as igcd

from qsupercheck import __version__, identities, parametric
from qsupercheck.families import (
    a_exponent,
    closed_form,
    mutated,
    numerator_bases,
)
from qsupercheck.cyclotomic import cyclotomic, is_prime
from qsupercheck.laurent import Laurent, RatFunc
from qsupercheck.padic import padic_gamma, rational_residue
from qsupercheck.parametric import (
    _SHIFTED_INDEX,
    DegenerateSubstitutionError,
    _den_core,
    _upper_limit,
    numerator_entries,
)
from qsupercheck.poly import Poly, pack, poly_prod
from qsupercheck.qfuncs import (
    DegenerateProductError,
    _refuse_zero_denominator,
    expand,
    one_minus_product,
    poch_power_base,
    q_binomial,
    relation_vanishes,
    sum_bounds,
    without_common,
)
from qsupercheck.residue import NonUnitError
from qsupercheck.results import Status, canonical_params


def one_minus(c, exp):
    """1 - c*q**exp as a Laurent polynomial, exp of either sign."""
    if exp > 0:
        return Laurent(Poly((1,) + (0,) * (exp - 1) + (-c,)), 0)
    if exp == 0:
        return Laurent(Poly((1 - c,)), 0)
    return Laurent(Poly((-c,) + (0,) * (-exp - 1) + (1,)), exp)


def laurent_product(exps):
    """prod (1 - q^e), the factors multiplied one Laurent product at a
    time."""
    product = Laurent(Poly((1,)))
    for e in exps:
        product = product * one_minus(1, e)
    return product


@dataclass(frozen=True)
class QMonomial:
    """A single term c * q**e with c != 0; Pochhammer bases look like this."""

    coeff: Fraction | int
    exp: int

    def __post_init__(self):
        if not self.coeff:
            raise ValueError("QMonomial coefficient must be nonzero")


def q_pochhammer(x: QMonomial, step: int, k: int):
    """(x; q**step)_k as a Laurent polynomial (k >= 0) or RatFunc (k < 0)."""
    if step < 1:
        raise ValueError("step must be >= 1")
    shifts = range(k) if k >= 0 else range(-1, k - 1, -1)
    factors = [one_minus(x.coeff, x.exp + step * j) for j in shifts]
    product = Laurent(poly_prod([f.body for f in factors]),
                      sum(f.min_exp for f in factors))
    if k >= 0:
        return product
    if product.is_zero():
        raise DegenerateProductError(
            f"a factor of (({x.coeff})q^{x.exp}; q^{step})_{k} vanishes")
    return RatFunc(Laurent(Poly((1,))), product)


def inflate(p: Poly, d: int) -> Poly:
    """Substitute q -> q**d."""
    if d < 1:
        raise ValueError("inflate expects d >= 1")
    if d == 1 or p.is_zero():
        return p
    out = [0] * (p.degree * d + 1)
    for e, c in enumerate(p.coeffs):
        out[e * d] = c
    return Poly(out)


def qbinom_alternating_sum(n: int, j: int) -> Laurent:
    """sum_k (-1)^k [n k] q^{C(n-k,2) + jk}, each [n k] by dividing
    factorial polynomials and the sum added as Polys, offset by its
    smallest shift."""
    shifts = [(n - k) * (n - k - 1) // 2 + j * k for k in range(n + 1)]
    low = min(shifts)
    total = Poly()
    for k, shift in enumerate(shifts):
        term = q_binomial(n, k).shift(shift - low)
        total = total + (term if k % 2 == 0 else -term)
    return Laurent(total, low)


def _exact(num, den):
    assert num % den == 0, (num, den)
    return num // den


def written_out_summand(check_id, d, r=1):
    """The summand's numerator Pochhammers as the paper displays them, each
    (q^e; q^d)_k^m as (e, m), for a theorem id, thm13 or a classical id,
    whose sum is its q-statement's at q = 1 ((e/d)_k^m / k!^d); the
    denominator is (q^d; q^d)_k^d and the term carries q^{dk}."""
    if check_id in ("eq13", "deines_12"):
        return ((d - 1, d),)
    if check_id == "rv_11":  # (1/2)_k^2 / k!^2, at d = 2
        return ((1, 2),)
    if check_id in ("eq14", "thm11"):
        return ((d + 1, d - 1), (1 - d, 1))
    if check_id in ("eq15", "thm12"):
        return ((d + 1, d - 2), (1, 2))
    if check_id in ("eq22", "thm13", "wlt_integrality"):
        return ((d + 1, d - 2), (1, 1), (1 - d, 1))
    if check_id == "lemma21":
        return ((d + r, d - r - 1), (r, r), (r - d, 1))
    if check_id in ("thm41", "cor41_i"):
        return ((d + r, d - r), (r, r - 1), (r - d, 1))
    assert check_id in ("thm42", "cor41_ii"), check_id
    return ((d + r, d - r - 1), (r, r + 1))


def summand_counts(check_id, d, r=1):
    """``written_out_summand`` as a Counter of numerator bases."""
    counts = Counter()
    for e, mult in written_out_summand(check_id, d, r):
        counts[e] += mult
    return +counts


def written_out_closed_form(check_id, d, n, r=1):
    """The closed form as the paper displays it: (sign, q-power, unit
    factors (e, multiplicity), numerator and denominator Pochhammers
    (base, step, length, multiplicity)); None when it is zero."""
    if check_id == "eq13":
        t = _exact(n - 1, d)
        return (-1 if ((d - 1) * t) % 2 else 1,
                _exact((d - 1) * (n - 1) * (d + n - 1), 2 * d),
                (), ((d, d, (d - 1) * t, 1),), ((d, d, t, d - 1),))
    if check_id in ("eq14", "thm11", "eq15", "thm12"):
        m = _exact(n + 1, d)
        core = _exact(d * (d + n) * (n + 1) - (n + 1) ** 2, 2 * d)
        if check_id in ("eq14", "thm11"):
            sign = 1 if check_id == "thm11" and m % 2 else -1
            return (sign, core - 1, ((1, 1), (d - 1, 1)),
                    ((d, d, n - 1 - m, 1),), ((d, d, m, d - 1),))
        sign = -1 if check_id == "eq15" and m % 2 else 1
        return (sign, core - 2, ((1, 2),),
                ((d, d, n - 1 - m, 1),), ((d, d, m, d - 1),))
    if check_id in ("lemma21", "eq22"):
        return None
    m = _exact(n + r, d)
    if check_id == "thm41":  # -(-1)^(n-1-m)
        return (-1 if (n - 1 - m) % 2 == 0 else 1, a_exponent(d, n, r),
                ((r, r), (d - r, 1)), ((d, d, n - 1 - m, 1),),
                ((d, d, m, d - 1),))
    assert check_id == "thm42", check_id
    return (1 if (n - 1 - m) % 2 == 0 else -1, a_exponent(d, n, r) - r,
            ((r, r + 1),), ((d, d, n - 1 - m, 1),), ((d, d, m, d - 1),))


def written_out_counts(check_id, d, n, r, mutation):
    """``written_out_closed_form`` with its sign flipped or its q-power
    raised for a mutation, as (sign, shift, numerator exponent counts,
    denominator exponent counts)."""
    sign, shift, units, poch_num, poch_den = written_out_closed_form(
        check_id, d, n, r)
    if mutation == "sign":
        sign = -sign
    elif mutation == "exponent":
        shift += 1
    num, den = Counter(), Counter()
    for e, mult in units:
        num[e] += mult
    for pochs, counts in ((poch_num, num), (poch_den, den)):
        for base, step, length, mult in pochs:
            for j in range(length):
                counts[base + step * j] += mult
    return sign, shift, num, den


def reduce_laurent(ring, f):
    """The ring class of a Laurent polynomial: its body reduced, times
    ``pow_q`` of its lowest exponent, or the power of the ring's inverse of
    q for a negative one."""
    body = ring.element(f.body)
    if f.min_exp >= 0:
        return body * ring.pow_q(f.min_exp)
    return body * ring.inv_q ** (-f.min_exp)


def written_out_value(check_id, d, n, ring, r=1):
    """``written_out_closed_form`` as a (num, den) pair in the ring."""
    sign, shift, num, den = written_out_counts(check_id, d, n, r, None)
    rhs = ring.pow_q(shift) * reduce_laurent(
        ring, laurent_product(num.elements()))
    return (rhs if sign > 0 else -rhs), reduce_laurent(
        ring, laurent_product(den.elements()))


def ring_lhs_sum(statement, d, r, n, ring):
    """``verifier.lhs_sum`` built in the ring alone: each factor
    1 - q^{e + d(k-1)} and each h_k = (1 - q^{dk})^d from ``pow_q`` by ring
    multiplies, N_k = N_{k-1} h_k + T_k and D_k = D_{k-1} h_k."""
    factors = Counter(numerator_bases(statement, d, r))
    running = {e: ring.one for e in factors}
    base = {e: ring.pow_q(e) for e in running}
    q_step = ring.pow_q(d)
    q_power = ring.one  # q^{d(k-1)} at the top of the loop, q^{dk} below
    num = den = ring.one  # the k = 0 term is 1
    for k in range(1, n):
        for e in running:
            running[e] = running[e] * (ring.one - base[e] * q_power)
        if d * k % n == 0:
            raise NonUnitError(cyclotomic(n))
        q_power = q_power * q_step
        h = (ring.one - q_power) ** d
        term = q_power
        for e, mult in factors.items():
            term = term * running[e] ** mult
        num = num * h + term
        den = den * h
    return num, den


def ring_rhs_closed_form(statement, d, r, n, ring, mutation=None):
    """``verifier.rhs_closed_form`` built in the ring alone: each product
    of factors 1 - q^e unfolded by ``one_minus_product``, reduced by
    ``reduce_laurent`` and multiplied by ``pow_q`` of the shift."""
    quotient = mutated(closed_form(statement, d, n, r), mutation)
    if quotient is None:
        return ring.zero, ring.one
    sign, shift, num, den = quotient
    for e in den:
        if e % n == 0:
            raise NonUnitError(cyclotomic(n) if e else Poly())
    rhs = ring.pow_q(shift) * reduce_laurent(ring, one_minus_product(num))
    return (rhs if sign > 0 else -rhs), reduce_laurent(
        ring, one_minus_product(den))


def lhs_sum_whole(check_id, d, r, n, ring):
    """The congruence sum of ``written_out_summand`` built as numerator
    over a common denominator, both reduced once, and divided in the
    ring."""
    factors = written_out_summand(check_id, d, r)
    num_total = Laurent(Poly())
    for k in range(n):
        term = Laurent(Poly((1,))).shifted(d * k)
        for e, mult in factors:
            term = term * poch_power_base(e, d, k) ** mult
        cofactor = poch_power_base(d * (k + 1), d, n - 1 - k) ** d
        num_total = num_total + term * cofactor
    den = poch_power_base(d, d, n - 1) ** d
    return reduce_laurent(ring, num_total) * reduce_laurent(
        ring, den).invert()


# Parametric families whose instances are another family's wherever they
# are admissible, written out from the paper's conditions: p3_32 (odd
# d > 3, r = 1) is p7_45 at r = 1, and p4_33 (d = 3, r = 1) is p8_46 there.
SAME_WORK = {"p3_32": "p7_45", "p4_33": "p8_46"}


def sum_increments(check_id, d, r, n, s):
    """A parametric LHS written out as ``truncated_sum`` increments
    (a_k, b_k, c_k), k = 0..limit, each term's lists built whole.

    s = +1 or -1 selects a = q^{sn}; s = 0 gives the a = 1 collapse.
    Term k multiplies (x; q^d)_{k+off} over the numerator bases x and
    divides by (x; q^d)_k over the denominator bases, q^d among them.
    An index k - 2 puts its reciprocal factors 1 - x q^{-2d}, 1 - x q^{-d}
    into b_0 and takes them back from a_1 and a_2.
    """
    entries = [(j * s * n + e, off)
               for j, e, off in numerator_entries(check_id, d, r)]
    den_bases = [j * s * n + d for j in [0] + _den_core(d)]
    for e in den_bases:
        if e % d == 0 and e <= 0:
            raise DegenerateSubstitutionError(f"denominator base q^{e}")
    reciprocal = [x + d * (off + t) for x, off in entries for t in range(-off)]
    if 0 in reciprocal:
        raise DegenerateSubstitutionError("reciprocal factor 1 - q^0")
    width = r if check_id in _SHIFTED_INDEX else 0
    increments = [([], reciprocal, [r - d] * width)]
    for k in range(1, _upper_limit(check_id in _SHIFTED_INDEX, d, r, n) + 1):
        increments.append(([x + d * (k - 1 + off) for x, off in entries],
                           [x + d * (k - 1) for x in den_bases],
                           [d * k - d + r] * width))
    return increments


def reference_increments(check_id, d, r, n):
    """The non-parametric summand the a = 1 collapse must reproduce,
    written out as ``truncated_sum`` increments, k = 0..limit: the thm42
    family's own unless the index is shifted."""
    limit = _upper_limit(check_id in _SHIFTED_INDEX, d, r, n)
    if check_id not in _SHIFTED_INDEX:
        bases = list(summand_counts("thm42", d, r).elements())
        return [([], [], [])] + [([e + d * (k - 1) for e in bases],
                                  [d * k] * d, []) for k in range(1, limit + 1)]
    increments = [([], [r - d, r] * (r + 1), [r - d] * r)]
    for k in range(1, limit + 1):
        increments.append(([d + r + d * (k - 1)] * (d - r - 1)
                           + [r - d + d * (k - 1)] * (r + 1),
                           [d * k] * d, [d * k - d + r] * r))
    return increments


def identity(increments, closed):
    """A substituted identity up to the order of its factors 1 - q^e,
    which commute: each term's increments and the closed form's factor
    lists, sorted, with the closed form's sign and shift."""
    terms = tuple(tuple(tuple(sorted(exps)) for exps in inc)
                  for inc in increments)
    if closed is None:
        return terms
    sign, shift, num, den = closed
    return terms, sign, shift, tuple(sorted(num)), tuple(sorted(den))


def reference_summand(check_id, d, r, k):
    """The non-parametric term the a = 1 collapse must reproduce, as
    (sign, q-shift, numerator exponents, denominator exponents), written
    out whole for one k."""
    num_exps = [d + r + d * t for t in range(k)] * (d - r - 1)
    den_exps = [d + d * t for t in range(k)] * d
    if check_id in _SHIFTED_INDEX:
        if k >= 2:
            num_exps += [d + r + d * t for t in range(k - 2)] * (r + 1)
        elif k == 1:
            den_exps += [r] * (r + 1)
        else:
            den_exps += [r, r - d] * (r + 1)
        num_exps += [d * k - d + r] * r
    else:
        num_exps += [r + d * t for t in range(k)] * (r + 1)
    return 1, d * k, num_exps, den_exps


def collapse_at_one(check_id, d, r, n):
    """The a = 1 collapse with every term's normal form rebuilt from all
    its factors at every k, against ``reference_summand``: quadratic."""
    num, den = [], []
    for k, (a, b, c) in enumerate(sum_increments(check_id, d, r, n, 0)):
        num += a
        den += b
        ref = one_minus_normal_form(*reference_summand(check_id, d, r, k))
        if one_minus_normal_form(1, d * k, num + c, den) != ref:
            return f"a = 1 collapse differs from reference summand at k = {k}"
    return None


def one_minus_normal_form(sign: int, shift: int, num, den):
    """Normal form of sign q^shift prod_num (1 - q^e) / prod_den (1 - q^e).

    Returns (sign, shift, counts) with counts the frozenset of (e, m), e > 0,
    m != 0 the net multiplicity of 1 - q^e; None when a numerator factor is
    1 - q^0, which a denominator one refuses with DegenerateProductError.
    Phi_m divides 1 - q^e to the first power exactly when m | e, so
    Moebius inversion recovers the counts from the cyclotomic factorization:
    two such quotients are equal exactly when their normal forms are.
    ``qfuncs.quotients_differ`` decides the same equality on sorted lists.
    """
    if 0 in den:
        raise DegenerateProductError("denominator factor 1 - q^0")
    if 0 in num:
        return None
    counts = Counter()
    for exps, unit in ((num, 1), (den, -1)):
        for e in exps:
            if e < 0:  # 1 - q^e = -q^e (1 - q^-e)
                sign, shift, e = -sign, shift + unit * e, -e
            counts[e] += unit
    return sign, shift, frozenset((e, m) for e, m in counts.items() if m)


def first_differing_term(lhs, rhs):
    """The first k at which term k of two increment lists differ, each
    term's normal form rebuilt from all its factors."""
    lnum, lden, rnum, rden = [], [], [], []
    for k, ((la, lb, lc), (ra, rb, rc)) in enumerate(zip(lhs, rhs)):
        lnum, lden, rnum, rden = lnum + la, lden + lb, rnum + ra, rden + rb
        ref = one_minus_normal_form(1, 0, rnum + rc, rden)
        if one_minus_normal_form(1, 0, lnum + lc, lden) != ref:
            return k
    return None


def normal_forms_differ(lhs, rhs):
    """Whether two quotients (sign, shift, num, den), None for 0, differ,
    by comparing their two ``one_minus_normal_form``s; lhs's is built
    first, so a denominator 1 - q^0 in it raises first."""
    forms = [None if side is None else one_minus_normal_form(*side)
             for side in (lhs, rhs)]
    return forms[0] != forms[1]


class _Dense:
    """Oracle: sign * q^low * sum_i coeffs[i] q^i on a dense integer list,
    updated in place, one pass over the list per factor 1 - q^e."""

    __slots__ = ("coeffs", "low", "sign")

    def __init__(self, coeffs, low=0, sign=1):
        self.coeffs, self.low, self.sign = coeffs, low, sign

    def times_one_minus(self, exps):
        f = self.coeffs
        for e in exps:
            if not e:  # 1 - q^0 = 0
                f.clear()
            if not f:
                break
            if e < 0:  # 1 - q^e = -q^e (1 - q^-e)
                e, self.low, self.sign = -e, self.low + e, -self.sign
            f.extend([0] * e)
            f[e:] = map(operator.sub, f[e:], f[:-e])
        return self

    def add(self, other, shift):
        """self += other * q^shift."""
        if not other.coeffs:
            return
        low = other.low + shift
        if low < self.low:
            self.coeffs[:0] = [0] * (self.low - low)
            self.low = low
        f, g = self.coeffs, other.coeffs
        at = low - self.low
        f.extend([0] * (at + len(g) - len(f)))
        op = operator.add if other.sign == self.sign else operator.sub
        f[at:at + len(g)] = map(op, f[at:at + len(g)], g)

    def laurent(self):
        body = self.coeffs if self.sign > 0 else [-c for c in self.coeffs]
        return Laurent(Poly(body), self.low)


def dense_sum(step, increments):
    """``truncated_sum``'s N and the product D of every b, by the same
    recurrence on dense lists, as Laurent polynomials."""
    num, den, run = _Dense([]), _Dense([1]), _Dense([1])
    for k, (a, b, c) in enumerate(increments):
        num.times_one_minus(b)
        den.times_one_minus(b)
        run.times_one_minus(a)
        term = _Dense(list(run.coeffs), run.low, run.sign) if c else run
        num.add(term.times_one_minus(c), step * k)
    return num.laurent(), den.laurent()


def folded_laurent(f, n):
    """A Laurent polynomial's representative of degree < 2n modulo
    (1 - q^n)^2, monomial by monomial: q^{jn+s} = (1 - j) q^s + j q^{n+s}
    for 0 <= s < n and every integer j."""
    coeffs = [0] * (2 * n)
    for i, c in enumerate(f.body.coeffs):
        j, s = divmod(f.min_exp + i, n)
        coeffs[s] += (1 - j) * c
        coeffs[n + s] += j * c
    return Poly(coeffs)


def dense_product(exps):
    """prod (1 - q^e) on a dense list, one pass per factor."""
    return _Dense([1]).times_one_minus(exps).laurent()


def packed_truncated_sum(step, increments, width, fold=0):
    """``truncated_sum``'s N as (value, low, bits): the forward recurrence
    on dense coefficient lists at the kernel's offsets, packed once at
    ``width``, with the bound of ``sum_bounds``.  With ``fold = n`` every
    product is reduced onto degree < 2n by q^{jn+s} = (1 - j) q^s +
    j q^{n+s}, and the offset is 0."""
    if any(0 in b for _, b, _ in increments):
        raise DegenerateProductError("denominator factor 1 - q^0")

    def plus(f, g, sign=1):
        return [x + sign * y for x, y in zip_longest(f, g, fillvalue=0)]

    def reduced(f, e):  # q^e f modulo (1 - q^fold)^2
        g = [0] * (2 * fold)
        for i, c in enumerate(f):
            j, s = divmod(i + e, fold)
            g[s] += (1 - j) * c
            g[fold + s] += j * c
        return g

    def times(f, low, exps):
        for e in exps:
            if fold:
                f = plus(f, reduced(f, e), -1)
            elif e > 0:
                f = plus(f, [0] * e + f, -1)
            elif e < 0:  # 1 - q^e = -q^e (1 - q^-e)
                f, low = plus([0] * -e + f, f, -1), low + e
            else:
                f = []
        return f, low

    num, low, run, run_low = [], 0, [1], 0
    for k, (a, b, c) in enumerate(increments):
        num, low = times(num, low, b)
        run, run_low = times(run, run_low, a)
        term, at = times(run, run_low, c)
        if not any(term):
            continue
        if fold:
            num = plus(num, reduced(term, step * k))
            continue
        at += step * k
        if at < low:
            num, low = [0] * (low - at) + num, at
        num = plus(num, [0] * (at - low) + term)
    return pack(num, width // 8), low, sum_bounds(increments, step, fold)


def times_q(value: int, e: int, n: int, width: int) -> int:
    """q^e value mod (X - 1)^2, X = 2^{n width}, folded into [0, X^2): the
    folded kernel's old step, which reduced each factor's shifted copy of
    the value on its own, before subtracting it."""
    j, s = divmod(e, n)
    value <<= s * width
    value += j * ((value << n * width) - value)
    while high := value >> 2 * n * width:  # X^2 = 2X - 1
        value += (high << n * width + 1) - high - (high << 2 * n * width)
    return value


def folded_times_one_minus(value: int, exps, n: int, width: int) -> int:
    """The old fold branch of ``_times_one_minus``: value prod (1 - q^e)
    modulo (X - 1)^2, the running value itself never reduced."""
    for e in exps:
        value -= times_q(value, e, n, width)
    return value


def cancel_increments(increments):
    """The same sum as ``truncated_sum``'s increments over a smaller D, by
    counting on the expanded lists, as ``template_increments`` does
    on a template's intercepts.

    Walking k upward, an exponent e of b_k that equals a still unmatched
    exponent of some a_j, j <= k, is paired with the latest such j: the
    factor 1 - q^e leaves a_j and b_k, and joins c_t for j <= t < k.
    Terms t >= k lose it from numerator and denominator alike, terms
    j <= t < k keep it through c_t, and D loses it: every term keeps its
    value, and the bound of ``sum_bounds`` halves with each pair.  Only
    equal nonzero exponents pair, so 1 - q^0 is refused or zeroes terms as
    before, and e never pairs with its associate -e.
    """
    out = [(list(a), [], list(c)) for a, _, c in increments]
    open_at = {}  # e -> the j of each a_j holding an unmatched e, in order
    for k, (a, b, _) in enumerate(increments):
        for e in a:
            if e in open_at:
                open_at[e].append(k)
            else:
                open_at[e] = [k]
        for e in b:
            js = open_at.get(e)
            if e and js:
                j = js.pop()
                out[j][0].remove(e)
                for t in range(j, k):
                    out[t][2].append(e)
            else:
                out[k][1].append(e)
    return out


def template_increments(template, step: int, limit: int):
    """The template's sum, k = 0..limit, as ``truncated_sum`` increments
    over a smaller D, cancelled on its intercepts; step > 0.

    A denominator 1 - q^0 anywhere in the range raises
    DegenerateProductError first.  An a intercept x <= 0 with step | x
    puts 1 - q^0 into the running product at j = 1 - x/step, which zeroes
    every term from j on, so the sum ends before j.  Then an a intercept
    x is paired with a b intercept y, x - y = L step >= 0: the quotient
    (q^x; q^step)_k / (q^y; q^step)_k is (q^{y + step k}; q^step)_L over
    (q^y; q^step)_L.  So b_k keeps y only for k <= L, a_j keeps x only for
    j > limit - L, and c_t gains x + step (j - 1) for the j <= limit - L
    with j <= t < j + L: every term keeps its value, and D loses a factor
    at each k > L.  Within a residue class mod step, each x in ascending
    order pairs with the largest unpaired y <= x.
    """
    _refuse_zero_denominator(template, step, limit)
    (a0, b0, c0), a, b, c = template
    limit = min([limit] + [-x // step for x in a if x <= 0 and x % step == 0])
    open_b, kept_a, pairs = {}, [], []
    for e, is_a in sorted([(y, False) for y in b] + [(x, True) for x in a]):
        ys = open_b.setdefault(e % step, [])
        if not is_a:
            ys.append(e)
        elif ys:
            y = ys.pop()
            span = (e - y) // step
            # The a_j factors that pair, j = 1..limit - L.
            pairs.append((e, y, span, range(e, e + step * (limit - span),
                                            step)))
        else:
            kept_a.append(e)
    kept_b = [y for ys in open_b.values() for y in ys]
    increments = [(list(a0), list(b0), list(c0))]
    for k in range(1, limit + 1):
        shift = step * (k - 1)
        a_k = [x + shift for x in kept_a]
        b_k = [y + shift for y in kept_b]
        c_k = [x + shift for x in c]
        for x, y, span, paired in pairs:
            if k > limit - span:
                a_k.append(x + shift)
            if k <= span:
                b_k.append(y + shift)
                c_k += paired[:k]
            else:
                c_k += paired[k - span:k]
        increments.append((a_k, b_k, c_k))
    return increments


def packed_witness(check_id, d, r, n, mutation=None):
    """``verify_parametric``'s witness by the packed cross product: the
    sum at a = q^n cancelled by ``template_increments``, the closed form's
    denominator cancelled against what is left, and N den = sign q^shift
    D num, or N = 0, decided by one ``relation_vanishes`` call; then the
    a = 1 collapse by ``collapse_at_one``, term by term."""
    shifted = check_id in _SHIFTED_INDEX
    entries = tuple(numerator_entries(check_id, d, r))
    band = tuple(parametric.rhs_band(check_id, d, r))
    parametric._refuse_asymmetry(entries, band, d)
    template = parametric._sum_template(shifted, d, r, n, 1, entries)
    closed = (mutated(None, mutation) if shifted
              else parametric._rhs_factors(band, d, r, n, 1, mutation))
    increments = template_increments(template, d,
                                     _upper_limit(shifted, d, r, n))
    if closed is None:
        if not relation_vanishes(d, [(1, 0, [], increments)]):
            return f"substituted sum nonzero at a = q^{n}"
    else:
        sign, shift, num, den = closed
        den, lhs_den = without_common(
            den, [e for _, b, _ in increments for e in b])
        if not relation_vanishes(d, [(1, 0, den, increments),
                                     (-sign, shift, lhs_den + num, None)]):
            return f"sides differ at a = q^{n}"
    return collapse_at_one(check_id, d, r, n)


def tally(count: dict, exps, unit: int) -> dict:
    """Add ``unit`` to count[e] for each exponent e and drop the entries
    that reach 0, so an empty count means that every factor cancelled."""
    for e in exps:
        m = count.get(e, 0) + unit
        if m:
            count[e] = m
        else:
            del count[e]
    return count


def counting_first_failing_term(runs, relation):
    """The first k with sum_i relation_i term_k(runs[i]) != 0, or None, on
    increment lists of any length: every run counted at every term as
    signed exponents relative to run 0, the counts running from term to
    term, and the factors no run shares decided by ``relation_vanishes``.
    ``qfuncs.first_failing_term`` decides only the terms of a template
    relation's certificate."""
    rel = [{} for _ in runs[1:]]
    held = 0
    equal = relation_vanishes(0, [(*part, None) for part in relation])
    for k, ((a0, b0, c0), *rest) in enumerate(zip(*runs)):
        if 0 in b0 or any(0 in b for _, b, _ in rest):
            raise DegenerateProductError("denominator factor 1 - q^0")
        held += a0.count(0)
        counts, left = [], [[] for _ in runs]
        for count, (a, b, c) in zip(rel, rest):
            tally(tally(count, a, 1), a0, -1)
            tally(tally(count, b, -1), b0, 1)
            counts.append(tally(tally(dict(count), c, 1), c0, -1))
        for e in set().union(*counts):
            ms = [0] + [count.get(e, 0) for count in counts]
            low = min(ms)
            for exps, m in zip(left, ms):
                exps += [e] * (m - low)
        zero = held + c0.count(0) + min([0] + [c.get(0, 0) for c in counts])
        if zero <= 0 and not (relation_vanishes(0, [
                (sign, shift, exps + extra, None) for (sign, shift, exps),
                extra in zip(relation, left)]) if any(counts) else equal):
            return k
    return None


def decomposition_sums(d, n):
    """The three sums of the decomposition, mixed, divisibility and
    squared, as ``truncated_sum`` increments k = 0..n - 1 over the common
    denominator (q^d; q^d)_{n-1}^d, expanded from the templates that
    ``identities`` reads when it is called."""
    return [expand(t, d, n - 1) for t in identities._decomposition_templates(d)]


def whole_sum_decomposition(d, sums):
    """The decomposition's witness, or None, decided on the whole sums by
    one ``relation_vanishes`` call: (1 - q) s1 - (1 - q^d) s2
    + q (1 - q^{d-1}) s3 = 0, since (1 - q)[m] = 1 - q^m."""
    relation = ((1, 0, [1]), (-1, 0, [d]), (1, 1, [d - 1]))
    if relation_vanishes(d, [(*part, inc) for part, inc
                             in zip(relation, sums, strict=True)]):
        return None
    return "three-sum decomposition differs"


def km_certificate(ns, rhs_shift=0):
    """Karlsson-Minton's summation for all b at the offsets ``ns``, decided
    by one ``relation_vanishes`` call; the right-hand side is multiplied by
    q^rhs_shift, so only rhs_shift = 0 may hold.

    Times (q; q)_N prod_j (b_j; q)_{n_j}, N = sum n_j, the summation reads
    sum_k q^k (q^{-N}; q)_k (q^{k+1}; q)_{N-k} prod_j (b_j q^k; q)_{n_j}
    = (-1)^N q^{sum C(n_j, 2)} (q; q)_N^2 prod_j b_j^{n_j}, a polynomial of
    degree at most n_j in each b_j.  Substituting b_j = q^{D_j}, with D_1
    above the q-exponent span of every term read from its exponent lists
    and D_{j+1} = D_j (n_j + 1), maps distinct b-monomials to q-powers at
    least D_1 apart, so it is injective on such polynomials (Kronecker
    substitution): the N + 2 terms vanish exactly when the relation holds
    for all b.
    """
    total = sum(ns)
    # Term k: its q-power, its factors 1 - q^e, and for each j the e of
    # its factors 1 - b_j q^e.
    lhs = [(k, [t - total for t in range(k)]
            + [k + 1 + t for t in range(total - k)],
            [range(k, k + nj) for nj in ns]) for k in range(total + 1)]
    rhs_shift += sum(nj * (nj - 1) // 2 for nj in ns)
    squared = list(range(1, total + 1)) * 2
    # Every q-exponent of the coefficient of a b-monomial is in [low, high].
    low = min([rhs_shift] + [k + sum(e for e in fixed if e < 0)
                             for k, fixed, _ in lhs])
    high = max([rhs_shift + sum(squared)]
               + [k + sum(e for e in fixed if e > 0) + sum(map(sum, bs))
                  for k, fixed, bs in lhs])
    powers, base = [], high - low + 1
    for nj in ns:
        powers.append(base)
        base *= nj + 1
    relation = [(1, k, fixed + [p + e for p, es in zip(powers, bs)
                                for e in es], None)
                for k, fixed, bs in lhs]
    relation.append((-(-1) ** total, rhs_shift + sum(
        p * nj for p, nj in zip(powers, ns)), squared, None))
    return relation_vanishes(0, relation)


def rising_factorial_mod(x, j, p, k=2):
    """(x)_j = x (x+1) ... (x+j-1) reduced mod p**k, term by term."""
    if j < 0:
        raise ValueError("rising factorial index must be >= 0")
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {x} divisible by {p}")
    modulus = p**k
    num = 1
    a, b = x.numerator, x.denominator
    for i in range(j):
        num = num * (a + i * b) % modulus
    return num * pow(b, -j, modulus) % modulus if j else 1


def _hypergeometric_sum_mod(numerators, d, p):
    """sum_{k<p} prod (x)_k^mult / k!^d mod p^2, with x and mult listed."""
    modulus = p * p
    total = 0
    fact = 1
    for k in range(p):
        if k:
            fact = fact * k % modulus
        term = pow(pow(fact, -1, modulus), d, modulus)
        for x, mult in numerators:
            term = term * pow(rising_factorial_mod(x, k, p), mult,
                              modulus) % modulus
        total = (total + term) % modulus
    return total


def classical_lhs_sum(kind, d, r, p):
    """The q -> 1 shadow of the two-parameter sums, mod p^2, with the
    rising factorials written out by hand."""
    if kind == "thm41":
        numerators = [(Fraction(d + r, d), d - r), (Fraction(r, d), r - 1),
                      (Fraction(r - d, d), 1)]
    elif kind == "thm42":
        numerators = [(Fraction(d + r, d), d - r - 1), (Fraction(r, d), r + 1)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    numerators = [(x, m) for x, m in numerators if m > 0]
    return _hypergeometric_sum_mod(numerators, d, p)


def wlt_integrality_value(d, n):
    """(n-1)!^d d^(dn-d) n^-2 times eq22's classical sum, as a Fraction
    summed term by term."""
    total = Fraction(0)
    for k in range(n):
        term = Fraction(1, factorial(k) ** d)
        for x, mult in ((Fraction(d + 1, d), d - 2), (Fraction(1, d), 1),
                        (Fraction(1 - d, d), 1)):
            value = Fraction(1)
            for i in range(k):
                value *= x + i
            if mult > 0:
                term *= value**mult
        total += term
    return Fraction(factorial(n - 1) ** d * d ** (d * n - d), n * n) * total


def written_out_classical(check_id, params):
    """(status, witness) of a classical check with each admissibility rule
    and each left-hand side written out by hand; a skip has no witness.
    gamma_factorial leaves out the gcd(d, r) = 1 of thm42, as these rules
    once did, so it reads FAILS at (d, r, p) = (10, 5, 5)."""
    d, r, prime = params.get("d"), params.get("r"), params.get("p")
    square = (prime or 0) ** 2
    if check_id == "rv_11":
        if not is_prime(prime) or prime == 2:
            return Status.SKIPPED_PRECONDITION, None
        lhs = _hypergeometric_sum_mod([(Fraction(1, 2), 2)], 2, prime)
        rhs = (-1) ** ((prime - 1) // 2) % square
    elif check_id == "deines_12":
        if d < 2 or not is_prime(prime) or prime % d != 1:
            return Status.SKIPPED_PRECONDITION, None
        lhs = _hypergeometric_sum_mod([(Fraction(d - 1, d), d)], d, prime)
        rhs = -padic_gamma(prime, 2, Fraction(1, d)) ** d % square
    elif check_id == "cor41_i":
        if (r < 1 or d < r + 3 or igcd(d, r) != 1 or not is_prime(prime)
                or prime < 2 * d - r or (prime + r) % d):
            return Status.SKIPPED_PRECONDITION, None
        lhs = classical_lhs_sum("thm41", d, r, prime)
        rhs = rational_residue(Fraction(d - r, d) * Fraction(r, d) ** r, prime)
        rhs = rhs * padic_gamma(prime, 2, Fraction(-r, d)) ** d % square
    elif check_id == "cor41_ii":
        if (not d > r >= 1 or igcd(d, r) != 1 or not is_prime(prime)
                or prime < 5 or (prime + r) % d):
            return Status.SKIPPED_PRECONDITION, None
        lhs = classical_lhs_sum("thm42", d, r, prime)
        rhs = -rational_residue(Fraction(r, d) ** (r + 1), prime)
        rhs = rhs * padic_gamma(prime, 2, Fraction(-r, d)) ** d % square
    elif check_id == "gamma_factorial":  # without gcd(d, r) = 1
        if (not d > r >= 1 or not is_prime(prime) or prime < 5
                or (prime + r) % d):
            return Status.SKIPPED_PRECONDITION, None
        m = (prime + r) // d
        lhs = Fraction(factorial(prime - 1 - m), factorial(m) ** (d - 1))
        lhs = rational_residue(lhs, prime)
        rhs = -((-1) ** m) * padic_gamma(prime, 2, Fraction(-r, d)) ** d
        rhs %= square
    else:
        assert check_id == "wlt_integrality", check_id
        n = params["n"]
        if d < 2 or (n + 1) % d or n < 2 * d - 1:
            return Status.SKIPPED_PRECONDITION, None
        value = wlt_integrality_value(d, n)
        if value.denominator != 1:
            return Status.FAILS, f"non-integer value {value}"
        return Status.HOLDS, None
    if lhs != rhs:
        return Status.FAILS, f"{lhs} != {rhs} (mod {prime}^2)"
    return Status.HOLDS, None


def _jsonable(params):
    """Parameters with each tuple a list, as JSON reads them back."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in sorted(params.items())}


def result_dict(result):
    """A result as the JSON object ``report.result_json`` lays out."""
    out = {"id": result.check_id, "params": _jsonable(result.params),
           "status": result.status.value,
           "elapsed_ms": round(result.elapsed_ms, 3)}
    if result.witness is not None:
        out["witness"] = result.witness
    if result.note is not None:
        out["note"] = result.note
    return out


def plan_dict(plan):
    """A sweep plan's header as ``Report.to_json`` lays it out: the suite's
    name, or every check when there is none."""
    out = {"seed": plan.seed, "trials": plan.trials, "fast_mode": False,
           "instances": len(plan.checks)}
    if plan.suite:
        out["suite"] = plan.suite
    else:
        out["checks"] = [{"id": cid, "params": _jsonable(params)}
                         for cid, params in plan.checks]
    return out


def report_dict(report):
    """A report as ``Report.to_json`` lays it out, its results sorted on
    (check id, canonical parameters)."""
    results = sorted(report.results, key=lambda r: (
        r.check_id, canonical_params(r.params)))
    return {"version": __version__, "plan": plan_dict(report.plan),
            "results": [result_dict(r) for r in results],
            "summary": report.summary(),
            "total_elapsed_ms": round(report.total_elapsed_ms, 3)}
