"""Products of factors 1 - q^e: q-shifted factorials, Gaussian binomials,
the comparison of their quotients, and the packed kernel that sums them.

A q-shifted factorial (q^e; q^s)_k with monic base is the product of the
factors 1 - q^{e + s t}, t < k, so the checks carry it as that exponent
list.  For k < 0 it is the reciprocal product forced by the
infinite-quotient definition, (x; q)_{-m} = prod_{j=1..m} (1 - x q^{-j})^{-1},
the unique extension with (x;q)_a (x q^a;q)_b = (x;q)_{a+b} for all
integers; the verification sums hit indices k-2 at k = 0, 1.

The packed kernel holds a Laurent polynomial with integer coefficients
as its value at q = 2^B, one Python int, on the plain pair (value, low):
a factor 1 - q^e is one shift and one subtraction (``_times_one_minus``),
and a shifted sum one shift and one addition (``_plus_shifted``).  With
``fold = n`` it keeps only the class modulo (1 - q^n)^2, an int modulo
(X - 1)^2 for X = 2^{n B}, and folds the running value by X^2 = 2X - 1
after each factor and each sum.  ``one_minus_product``, ``folded_product``,
``truncated_sum`` and ``relation_vanishes`` build a product, the same
folded modulo (1 - q^n)^2, a truncated sum's numerator and a signed sum
of products and numerators, and wrap it once in ``Packed`` with a bound
counted from the factors, to decide zero or unpack it exactly.
A template, a sum's head and the intercept lists that term k >= 1 moves
by step (k - 1), stands for its increments (``expand``) and is read by
exponent counting: ``pair_intercepts`` for Gasper's Karlsson-Minton
argument, ``termwise_degree`` and ``first_failing_term`` for termwise
relations, the latter counting each run's term over run 0's, so only the
exponents where the runs differ are visited.  ``quotients_differ``
decides equality of two quotients of factors with no polynomial
arithmetic and no multiset: their ratio is 1 when the sorted |e| of its
numerator and denominator are one list, its sign parity even and its
shift 0.
"""

from __future__ import annotations

import functools

from .laurent import Laurent
from .poly import Poly, exact_div, unpack
from .results import RefusalError


class DegenerateProductError(RefusalError, ZeroDivisionError):
    """A denominator, such as a reciprocal q-shifted factorial, vanishes."""


def poch_power_base(e: int, step: int, k: int) -> Laurent:
    """(q**e; q**step)_k for k >= 0, the all-monic-base common case."""
    if k < 0:
        raise ValueError("poch_power_base expects k >= 0")
    return one_minus_product([e + step * j for j in range(k)])


@functools.lru_cache(maxsize=None)
def q_factorial_poly(n: int) -> Poly:
    """(q; q)_n as a dense polynomial, for ``q_binomial``."""
    return one_minus_product(range(1, n + 1)).to_poly()


@functools.lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> Poly:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_{n-k}) by exact division.

    Returns the zero polynomial for k outside 0..n.  It has no caller in
    the package: the tests use it as an oracle, and the benchmark's tracer
    (``perfbench/tracer.py``) wraps it by name.
    """
    if n < 0:
        raise ValueError("q_binomial expects n >= 0")
    if k < 0 or k > n:
        return Poly()
    return exact_div(q_factorial_poly(n), q_factorial_poly(k) * q_factorial_poly(n - k))


def one_minus_product(exponents) -> Laurent:
    """prod (1 - q^e) over the exponent list, packed and unpacked once."""
    width = packed_width(len(exponents))
    return Packed(*_times_one_minus(1, 0, exponents, width),
                  len(exponents), width).laurent()


def folded_product(exponents, n: int, shift: int = 0) -> list[int]:
    """q^shift prod (1 - q^e) over the exponent list, folded modulo
    (1 - q^n)^2: the coefficients of its balanced residue, of degree < 2n,
    lowest first.  The product is built on the packed pair at ``fold = n``
    with the width of its ``grown_bits``, and unpacked once."""
    bits = grown_bits(0, exponents, n, shift)
    width = packed_width(bits)
    value, _ = _plus_shifted(0, 0, 1, 0, shift, width, n)
    value, _ = _times_one_minus(value, 0, exponents, width, n)
    return Packed(value, 0, bits, width, n).coefficients()


def quotients_differ(lhs, rhs) -> bool:
    """Whether two quotients sign q^shift prod_num (1 - q^e) / prod_den
    (1 - q^e), each (sign, shift, num, den) or None for 0, differ.

    A denominator 1 - q^0 raises DegenerateProductError, lhs's first, and
    a numerator one makes its side 0.  Otherwise lhs / rhs is s1 s2
    q^{h1 - h2} prod_up (1 - q^e) / prod_down (1 - q^e), up = num1 + den2
    and down = den1 + num2, and 1 - q^e = -q^e (1 - q^-e) for e < 0 turns
    it into sign q^shift times factors 1 - q^|e|.  Phi_m divides 1 - q^e
    to the first power exactly when m | e, so by Moebius inversion it is 1
    exactly when the sorted |e| of up and down are one list, the sign
    (-1)^(number of e < 0) s1 s2 is 1 and the shift is 0: once the |e|
    agree, the e < 0 of up less those of down sum to (sum up - sum down)/2.
    """
    for side in (lhs, rhs):
        if side is not None and 0 in side[3]:
            raise DegenerateProductError("denominator factor 1 - q^0")
    zero = [side is None or 0 in side[2] for side in (lhs, rhs)]
    if any(zero):
        return zero[0] != zero[1]
    (s1, h1, n1, d1), (s2, h2, n2, d2) = lhs, rhs
    up, down = n1 + d2, d1 + n2
    if sorted(map(abs, up)) != sorted(map(abs, down)):
        return True
    negative = [e for e in up + down if e < 0]
    return (s1 * s2 * (-1) ** len(negative) != 1
            or h1 - h2 + (sum(up) - sum(down)) // 2 != 0)


class PackingOverflowError(RuntimeError):
    """A packed value's coefficient bound does not fit its digit width, so
    the comparison or unpacking asked of it would not be exact."""


def packed_width(bits: int) -> int:
    """Digit width B, in whole bytes, for values of L1 norm at most 2^bits."""
    return (bits + 2 + 7) // 8 * 8


def fold_bits(span: int, n: int) -> int:
    """Bits that reduction modulo (1 - q^n)^2 adds to an L1 bound when no
    exponent exceeds ``span`` in absolute value: q^{jn+s}, 0 <= s < n,
    reduces to (1 - j) q^s + j q^{n+s}, of norm at most 2J + 1 for
    J = span // n + 1, and ceil(log2(2J + 1)) is the bit length of 2J."""
    return (2 * (span // n + 1)).bit_length()


def grown_bits(bits: int, exps, fold: int = 0, shift: int = 0) -> int:
    """Bound of q^shift prod_{exps} (1 - q^e) P, ||P||_1 <= 2^bits: a bit per
    factor; with ``fold = n``, P of degree < 2n, the span's ``fold_bits``."""
    bits += len(exps)
    if fold:
        bits += fold_bits(2 * fold + sum(map(abs, exps)) + abs(shift), fold)
    return bits


def _times_one_minus(value: int, low: int, exps, width: int, fold: int = 0):
    """The packed pair (value, low) times prod (1 - q^e) over the exponent
    list; with ``fold = n`` its class modulo (X - 1)^2, X = 2^{n width}:
    factor e = jn + s subtracts the value's q^s shift t times X^j =
    1 + j(X - 1), then folds the value into [0, X^2) by X^2 = 2X - 1."""
    if fold:
        digits, mask = fold * width, (1 << 2 * fold * width) - 1
        for e in exps:
            j, s = divmod(e, fold)
            term = value << s * width
            if j:  # X^j = 1 + j (X - 1)
                term += j * ((term << digits) - term)
            value -= term
            while high := value >> 2 * digits:  # X^2 = 2X - 1
                value = (value & mask) + (high << digits + 1) - high
        return value, low
    for e in exps:
        if e > 0:
            value -= value << (e * width)
        elif e < 0:  # 1 - q^e = -q^e (1 - q^-e)
            value = (value << (-e * width)) - value
            low += e
        else:  # 1 - q^0 = 0
            return 0, low
    return value, low


def _plus_shifted(value: int, low: int, term: int, term_low: int, k: int,
                  width: int, fold: int = 0):
    """The packed pair (value, low) plus q^k (term, term_low), over the
    lower of the two offsets; with ``fold = n`` every offset is 0, and the
    sum is folded as ``_times_one_minus`` folds."""
    if fold:
        digits, (j, s) = fold * width, divmod(k, fold)
        term <<= s * width
        value += term + j * ((term << digits) - term)
        while high := value >> 2 * digits:
            value += (high << digits + 1) - high - (high << 2 * digits)
        return value, 0
    k += term_low
    if k < low:
        return (value << (low - k) * width) + term, k
    return value + (term << (k - low) * width), low


class Packed:
    """q^low P(q) held as the integer P(2^width), with ||P||_1 <= 2^bits:
    the checked result of the packed kernel.

    Evaluation at q = 2^width is a ring homomorphism from Z[q], so the
    kernel's sums, shifts and factors 1 - q^e are exact on the value,
    whatever the coefficients, and its result is wrapped here once, with
    the bound that chose the width.  It is injective on polynomials with
    coefficients below 2^width in absolute value: while bits + 2 <= width,
    the value is zero exactly when P is, and the coefficients are its
    balanced digits; beyond, deciding or unpacking raises PackingOverflowError.

    With ``fold = n`` only the class modulo M = (X - 1)^2, X = 2^{n width},
    is carried, the image of Z[q]/((1 - q^n)^2) at q = 2^width, and low is
    0 (``_times_one_minus`` gives the step).  P is the class's
    representative of degree < 2n, and ``bits`` also adds its reduction's
    ``fold_bits``.  While bits + 2 <= width, the balanced residue mod M is
    P(2^width), so the class is zero when M | value.
    """

    __slots__ = ("value", "low", "bits", "width", "fold")

    def __init__(self, value: int, low: int, bits: int, width: int,
                 fold: int = 0):
        self.value, self.low, self.bits = value, low, bits
        self.width, self.fold = width, fold

    def _modulus(self) -> int:
        return ((1 << self.fold * self.width) - 1) ** 2

    def _exact(self) -> None:
        if self.bits + 2 > self.width:
            raise PackingOverflowError(f"coefficient bound 2^{self.bits} does"
                                       f" not fit {self.width}-bit digits")

    def is_zero(self) -> bool:
        self._exact()
        return not (self.value % self._modulus() if self.fold else self.value)

    def coefficients(self) -> list[int]:
        """The coefficients of P, unpacked, lowest first; the list may end
        in zeros."""
        self._exact()
        value, half = self.value, self.fold and self._modulus() >> 1
        if half:  # the balanced residue
            value = (value + half) % (2 * half + 1) - half
        return unpack(value, self.width // 8)

    def laurent(self) -> Laurent:
        """q^low P, unpacked."""
        return Laurent(Poly(self.coefficients()), self.low)


def sum_bounds(increments, step: int = 0, fold: int = 0) -> int:
    """Bits b with ||N||_1 <= 2^b for ``truncated_sum``'s N: term k of N
    has the factors of a_0..a_k, c_k and b_{k+1}..b_L.  With ``fold = n``
    it adds the ``fold_bits`` of an exponent bound, step L plus every |e|."""
    later = sum(len(b) for _, b, _ in increments)
    ran = total = 0
    for a, b, c in increments:
        ran += len(a)
        later -= len(b)
        total += 1 << (ran + len(c) + later)
    grow = fold and fold_bits(abs(step) * len(increments) + sum(
        abs(e) for inc in increments for exps in inc for e in exps), fold)
    return (total - 1).bit_length() + grow


def expand(template, step: int, limit: int) -> list[tuple[list, list, list]]:
    """A template's ``truncated_sum`` increments (a_k, b_k, c_k), k = 0..limit.

    A template ((a_0, b_0, c_0), a, b, c) is a sum's head, term 0's own
    lists, and the intercept lists of every later term: term k >= 1 is
    [x + step (k - 1)] over a, b and c.  A denominator 1 - q^0 raises
    DegenerateProductError, as in ``pair_intercepts``; step > 0.
    """
    _refuse_zero_denominator(template, step, limit)
    (a0, b0, c0), a, b, c = template
    increments = [(list(a0), list(b0), list(c0))]
    for shift in range(0, step * limit, step):
        increments.append(([x + shift for x in a], [x + shift for x in b],
                           [x + shift for x in c]))
    return increments


def _refuse_zero_denominator(template, step: int, limit: int) -> None:
    """DegenerateProductError when some b_k, k <= limit, holds 1 - q^0."""
    (_, b0, _), _, b, _ = template
    if 0 in b0 or any(y <= 0 and y % step == 0 and -y // step < limit
                      for y in b):
        raise DegenerateProductError("denominator factor 1 - q^0")


def pair_intercepts(template, step: int, limit: int):
    """The template's a and b intercepts as (kept a, kept b, pairs), each
    pair (y, L) for a paired a intercept x = y + L step; step > 0.

    A denominator 1 - q^0 anywhere in the range raises
    DegenerateProductError first.  Within a residue class mod step, each
    x in ascending order takes the largest open y <= x, so that
    (q^x; q^step)_k / (q^y; q^step)_k is (q^{y + step k}; q^step)_L over
    the constant (q^y; q^step)_L: a polynomial of degree L in q^{step k}.
    """
    _refuse_zero_denominator(template, step, limit)
    _, a, b, _ = template
    open_b, kept_a, pairs = {}, [], []
    for e, is_a in sorted([(y, False) for y in b] + [(x, True) for x in a]):
        ys = open_b.setdefault(e % step, [])
        if not is_a:
            ys.append(e)
        elif ys:
            y = ys.pop()
            pairs.append((y, (e - y) // step))
        else:
            kept_a.append(e)
    return kept_a, [y for ys in open_b.values() for y in ys], pairs


def without_common(up, down):
    """up less down and down less up, as multisets (the lists are short)."""
    rest, only = list(down), []
    for e in up:
        if e in rest:
            rest.remove(e)
        else:
            only.append(e)
    return only, rest


def _telescoped(up, down, step: int):
    """prod_up (q^u; q^step)_k over prod_down (q^v; q^step)_k, k >= 1, as
    the intercepts beta of its factors 1 - q^{beta + step k} above and
    below, and of its constant factors 1 - q^beta below; None when the
    lists, less their common part, do not pair up within residue classes
    mod step.  Sorted pairs u - v = L step telescope to |L| factors."""
    classes = {}
    for side, exps in enumerate(without_common(up, down)):
        for e in sorted(exps):
            classes.setdefault(e % step, ([], []))[side].append(e)
    above, below, fixed = [], [], []
    for us, vs in classes.values():
        if len(us) != len(vs):
            return None
        for u, v in zip(us, vs):
            if u >= v:  # (q^{v + step k}; q^step)_L / (q^v; q^step)_L
                above += range(v, u, step)
                fixed += range(v, u, step)
            else:  # (q^u; q^step)_L / (q^{u + step k}; q^step)_L
                below += range(u, v, step)
    return above, below, fixed


def termwise_degree(templates, step: int, limit: int) -> int | None:
    """Degree D in x = q^{step k} of a termwise relation between template
    sums, cleared of the ratios of each run's term k >= 1 to run 0's; None
    where no such D proves the relation.  step > 0.

    A ratio of Pochhammers (q^u; q^step)_k whose bases agree mod step
    telescopes to factors 1 - q^{beta + step k} (A = B, ch. 5), and each
    c intercept gives one such factor.  Times the least common multiple
    of the factors below and the constants below, sum_i relation_i
    term_k(run i) is term_k(run 0) times a polynomial of degree at most D
    in x.  The q^{step k} are distinct, so the relation holds at every
    k >= 1 once it holds at D + 1 of them, provided that run 0's term is
    nonzero there and no factor cleared below vanishes at any k >= 1:
    checking terms 0..D + 1 proves it.  None when a ratio does not
    telescope or that proviso fails.  A denominator 1 - q^0 in any run,
    k <= limit, raises DegenerateProductError, as the whole sums would.
    """
    for template in templates:
        _refuse_zero_denominator(template, step, limit)
    (head, _, _), a0, b0, c0 = templates[0]
    if 0 in head or any(e <= 0 and e % step == 0 for e in a0 + c0):
        return None
    lcm, parts = {}, []
    for _, a, b, c in templates[1:]:
        ratio = _telescoped(a + b0, a0 + b, step)
        if ratio is None:
            return None
        above, below, fixed = ratio
        c_up, c_down = without_common(c, c0)
        above += [e - step for e in c_up]
        below += [e - step for e in c_down]
        if 0 in fixed or any(e < 0 and e % step == 0 for e in below):
            return None
        for e in below:
            lcm[e] = max(lcm.get(e, 0), below.count(e))
        parts.append((len(above), len(below)))
    degree = sum(lcm.values())
    return max([degree] + [up + degree - down for up, down in parts])


def _numerator(step: int, increments, width: int, fold: int = 0):
    """``truncated_sum``'s N as the packed pair (value, low), on plain ints;
    the increments hold no denominator 1 - q^0."""
    num = low = run_low = 0
    run = 1
    for k, (a, b, c) in enumerate(increments):
        num, low = _times_one_minus(num, low, b, width, fold)
        run, run_low = _times_one_minus(run, run_low, a, width, fold)
        term, term_low = _times_one_minus(run, run_low, c, width, fold)
        if term:  # a zero term would only realign num
            num, low = _plus_shifted(num, low, term, term_low, step * k,
                                     width, fold)
    return num, low


def truncated_sum(step: int, increments) -> Packed:
    """Numerator N of Sum_{k=0}^{L} T_k / prod_{j<=k} B_j = N / D, packed.

    ``increments[k] = (a_k, b_k, c_k)`` are lists of exponents e of factors
    1 - q^e, with B_k = prod_{b_k} (1 - q^e) and
    T_k = q^{step k} prod_{j<=k} prod_{a_j} (1 - q^e) prod_{c_k} (1 - q^e):
    a and b accumulate from term to term, c belongs to term k alone.  The
    forward recurrence N_k = N_{k-1} B_k + T_k gives
    N = sum_k T_k prod_{j>k} B_j over D = prod_j B_j, which a caller that
    needs it builds as the product of every b.  N is packed at the width
    of its own bound, ``sum_bounds``.  A factor 1 - q^0 zeroes every later
    term from a, only term k from c, and raises DegenerateProductError
    from b.
    """
    if any(0 in b for _, b, _ in increments):
        raise DegenerateProductError("denominator factor 1 - q^0")
    bits = sum_bounds(increments, step)
    width = packed_width(bits)
    return Packed(*_numerator(step, increments, width), bits, width)


def relation_vanishes(step: int, terms, fold: int = 0) -> bool:
    """Whether sum_i sign_i q^shift_i prod_{exps_i} (1 - q^e) N_i is zero,
    modulo (1 - q^n)^2 with ``fold = n``.

    ``terms[i] = (sign, shift, exps, increments)`` with sign 1, -1 or 0;
    N_i is ``truncated_sum``'s numerator of the increments, 1 for None;
    the increments come from ``expand``, which refuses a denominator
    1 - q^0, so it is not looked for again here.
    Term i's bound b_i is its ``sum_bounds`` grown by ``grown_bits``, and
    the width fits the total's, the bit length of sum_i 2^{b_i} - 1.  The
    total is summed on plain ints and packed once, to be decided.
    """
    bound = 0
    for _, shift, exps, inc in terms:
        bound += 1 << grown_bits(0 if inc is None else sum_bounds(
            inc, step, fold), exps, fold, shift)
    bits = (bound - 1).bit_length()
    width = packed_width(bits)
    total = low = 0
    for sign, shift, exps, inc in terms:
        if inc is None:
            value, at = sign, 0
        else:
            value, at = _numerator(step, inc, width, fold)
            value *= sign
        value, at = _times_one_minus(value, at, exps, width, fold)
        total, low = _plus_shifted(total, low, value, at, shift, width, fold)
    return Packed(total, low, bits, width, fold).is_zero()


def _over_run0(lists, lists0):
    """Term lists (a, b, c) over run 0's (a0, b0, c0), as the exponents
    counted up and down: a + b0 less a0 + b and back, then c less c0 and
    back."""
    (a, b, c), (a0, b0, c0) = lists, lists0
    return (*without_common(a + b0, a0 + b), *without_common(c, c0))


def first_failing_term(templates, relation, step: int,
                       limit: int) -> int | None:
    """The first k <= limit with sum_i relation_i term_k(templates[i]) != 0,
    or None, decided on the relation's certificate; step > 0.

    ``relation[i] = (sign, shift, exps)`` is sign q^shift prod (1 - q^e),
    one for each template; another number of parts raises ValueError.
    ``termwise_degree`` reads the degree D for which terms 0..D + 1 prove
    the relation for every k, and refuses a denominator 1 - q^0 with
    DegenerateProductError; templates from which it reads none have no
    certificate, which raises RuntimeError.  Each of those terms is
    decided whole, read straight from the head and the intercepts.  Term k
    of run i is q^{step k} prod (1 - q^e)^{m_i(e)}, and is carried as its
    count over run 0's, m_i - m_0: the runs share most factors, so a
    running count per run adds only the few exponents where its head or
    intercepts differ from run 0's, and a copy adds those of c_k.  The
    least m_i(e) of every e != 0 is divided out, which leaves run 0 the
    factors some run lacks, and the factors left are decided by one
    ``relation_vanishes`` call; 1 - q^0 is never divided out, so it still
    zeroes its term.  Terms past D + 1 are never read, so ``_failing_term``
    keeps the verdict per templates, relation, step and min(limit, D + 1):
    a sum decided for every n at one d decides its certificate once for
    each n <= D + 1 and once for all larger n.
    """
    degree = termwise_degree(templates, step, limit)
    if degree is None:
        raise RuntimeError("no certificate: the terms' ratios do not"
                           " telescope to a bounded degree")
    return _failing_term(
        tuple((tuple(map(tuple, head)), *map(tuple, lists))
              for head, *lists in templates),
        tuple((sign, shift, tuple(exps)) for sign, shift, exps in relation),
        step, min(limit, degree + 1))


@functools.lru_cache(maxsize=4096)
def _failing_term(templates, relation, step: int, top: int) -> int | None:
    """``first_failing_term``'s terms 0..top, decided on tuples and kept
    per key."""
    (head0, *lists0), *rest = templates
    overs = ([_over_run0(head, head0) for head, *_ in rest],
             [_over_run0(lists, lists0) for _, *lists in rest])
    running = [{} for _ in rest]
    zeros = 0  # run 0's factors 1 - q^0 so far
    for k in range(top + 1):
        # Term 0 is the head; term k >= 1 moves the intercepts.
        move = step * (k - 1) if k else 0
        a0, _, c0 = lists0 if k else head0
        zeros += a0.count(-move)
        held = zeros + c0.count(-move)
        counts, low = [], {}
        for (grow, shrink, up, down), run in zip(overs[k > 0], running):
            for e in grow:
                run[e + move] = run.get(e + move, 0) + 1
            for e in shrink:
                run[e + move] = run.get(e + move, 0) - 1
            count = run.copy()
            for e in up:
                count[e + move] = count.get(e + move, 0) + 1
            for e in down:
                count[e + move] = count.get(e + move, 0) - 1
            for e, m in count.items():
                if e and m < low.get(e, 0):
                    low[e] = m
            counts.append(count)
        parts = [[0] * held + [e for e, m in low.items() for _ in range(-m)]]
        for count in counts:
            part = [0] * (held + count.pop(0, 0))
            for e, m in low.items():
                count[e] = count.get(e, 0) - m
            parts.append(part + [e for e, m in count.items()
                                 for _ in range(m)])
        if not relation_vanishes(0, [
                (sign, shift, [*exps, *part], None)
                for (sign, shift, exps), part
                in zip(relation, parts, strict=True)]):
            return k
    return None
