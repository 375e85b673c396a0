"""The quotient ring mod Phi_n(q)^2."""

import random

import pytest

from qsupercheck.cyclotomic import cyclotomic
from qsupercheck.laurent import Laurent
from qsupercheck.poly import Poly, divrem, xgcd
from qsupercheck.residue import NonUnitError, ResidueRing


@pytest.fixture(scope="module")
def ring5():
    return ResidueRing(5)


def test_rejects_n_1():
    with pytest.raises(ValueError):
        ResidueRing(1)


def test_class_of_q_pow_n_is_not_one(ring5):
    # Only Phi_n divides q^n - 1, so q^n is not 1 mod Phi_n^2.
    el = ring5.element(Laurent(Poly((1,)), 5))
    assert el == ring5.pow_q(5)
    assert el != ring5.one


def test_q_pow_n_minus_one_squares_to_zero(ring5):
    el = ring5.element(Laurent(Poly((-1, 0, 0, 0, 0, 1))))
    assert not el.is_zero()
    assert (el * el).is_zero()


def test_negative_power_reduction_consistency(ring5):
    # 2 - q - q^-1 = -q^-1 (1 - q)^2; check both routes and the
    # multiply-by-q cross-check.
    lhs = ring5.element(Laurent(Poly((-1, 2, -1)), -1))
    rhs = -ring5.inv_q * ring5.element(Laurent(Poly((1, -2, 1))))
    assert lhs == rhs
    assert lhs * ring5.pow_q(1) == ring5.element(Laurent(Poly((-1, 2, -1))))


def test_invert_q(ring5):
    assert ring5.pow_q(1).invert() == ring5.inv_q
    assert ring5.pow_q(1) * ring5.inv_q == ring5.one


def test_invert_one_minus_q_cubed(ring5):
    el = ring5.element(Poly((1, 0, 0, -1)))
    g, _, _ = xgcd(Poly((1, 0, 0, -1)), ring5.modulus)
    assert g == Poly((1,))
    assert el * el.invert() == ring5.one


def test_invert_non_unit_carries_witness(ring5):
    el = ring5.element(Poly((1, 0, 0, 0, 0, -1)))  # 1 - q^5
    with pytest.raises(NonUnitError) as err:
        el.invert()
    assert err.value.witness == cyclotomic(5)


def test_pow_q_basics(ring5):
    assert ring5.pow_q(0) == ring5.one
    deg = ring5.modulus.degree
    assert ring5.pow_q(deg + 3) == ring5.element(Laurent(Poly((1,)), deg + 3))
    assert ring5.pow_q(-1) * ring5.pow_q(1) == ring5.one


def _random_laurent(rng, max_deg=10):
    body = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, max_deg))])
    return Laurent(body, rng.randint(-6, 6))


def test_reduction_is_ring_homomorphism(ring5):
    rng = random.Random(23)
    for _ in range(80):
        f, g = _random_laurent(rng), _random_laurent(rng)
        assert ring5.element(f * g) == ring5.element(f) * ring5.element(g)
        assert ring5.element(f + g) == ring5.element(f) + ring5.element(g)


@pytest.mark.parametrize("n", range(2, 13))
def test_reduce_matches_brute_force_oracle(n):
    # Oracle path: clear the negative powers by hand, long-divide by the
    # modulus, then undo the shift with an inverse computed afresh by
    # extended Euclid rather than the ring's cached inverse of q.
    ring = ResidueRing(n)
    rng = random.Random(100 + n)
    for _ in range(20):
        f = _random_laurent(rng)
        shift = max(0, -f.min_exp)
        dense = f.body.shift(f.min_exp + shift)
        _, rem = divrem(dense, ring.modulus)
        if shift:
            q_pow = Poly((0,) * shift + (1,))
            _, q_pow_red = divrem(q_pow, ring.modulus)
            g, s, _ = xgcd(q_pow_red, ring.modulus)
            assert g == Poly((1,))
            _, expected = divrem(rem * s, ring.modulus)
        else:
            expected = rem
        assert ring.element(f).rep == expected


def test_double_inversion_is_identity(ring5):
    rng = random.Random(9)
    seen = 0
    while seen < 25:
        el = ring5.element(Poly([rng.randint(-9, 9) for _ in range(8)]))
        try:
            inv = el.invert()
        except NonUnitError:
            continue
        seen += 1
        assert inv.invert() == el
