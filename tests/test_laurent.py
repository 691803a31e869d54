import itertools
import random
from fractions import Fraction

import pytest

from symrank.laurent import (
    L,
    ONE,
    ZERO,
    DivisionByZero,
    LaurentPolynomial,
    NonzeroRemainder,
    ZeroBase,
    monomial,
)

EVAL_POINTS = (-3, 2, 3, 5, 7)


def random_poly(rng: random.Random, max_terms: int = 6) -> LaurentPolynomial:
    terms: dict[int, int] = {}
    for _ in range(rng.randint(0, max_terms)):
        e = rng.randint(-4, 8)
        terms[e] = terms.get(e, 0) + rng.randint(-9, 9)
    return LaurentPolynomial(terms)


def test_monomial_unit_zero_and_generator():
    assert monomial(1, 0) == ONE
    assert monomial(0, 5) == ZERO
    assert monomial(0, 5).terms() == {}
    assert monomial(1, 1) == L
    assert L.terms() == {1: 1}


def test_add_cancellation():
    assert (L - 1) + 1 == L
    assert L**2 + (-(L**2)) == ZERO
    assert (L**3 - L**2) + (L**2 - 1) == L**3 - 1


def test_mul():
    assert L * monomial(1, -1) == ONE
    assert (L - 1) * (L + 1) == L**2 - 1
    # schoolbook: (L - 1)(L^2 - 1) = L*L^2 - L - L^2 + 1
    assert (L - 1) * (L**2 - 1) == L**3 - L**2 - L + 1


def test_div_exact():
    quotient = (L**3 - L**2).div_exact(L - 1)
    assert quotient == L**2
    assert quotient * (L - 1) == L**3 - L**2
    assert (L**2 - 1).div_exact(L - 1) == L + 1
    with pytest.raises(NonzeroRemainder):
        (L**2 + 1).div_exact(L - 1)
    with pytest.raises(DivisionByZero):
        ONE.div_exact(ZERO)
    assert ZERO.div_exact(L - 1) == ZERO


def test_div_exact_laurent_shifts():
    assert ONE.div_exact(monomial(1, -1)) == L
    assert (monomial(1, -2) - monomial(1, -3)).div_exact(L - 1) == monomial(1, -3)
    with pytest.raises(NonzeroRemainder):
        (2 * L).div_exact(3 * L)


def test_eval_int():
    assert (L - 1).eval_int(3) == 2
    assert ONE.eval_int(97) == 1
    # invertible symmetric 2x2 over F_3, counted directly
    invertible = sum(
        1
        for a, b, c in itertools.product(range(3), repeat=3)
        if (a * c - b * b) % 3 != 0
    )
    assert invertible == 18
    assert (L**3 - L**2).eval_int(3) == invertible


def test_eval_int_negative_exponents():
    p = monomial(1, -1) + 1
    assert p.eval_int(2) == Fraction(3, 2)
    with pytest.raises(ZeroBase):
        p.eval_int(0)
    # a genuine polynomial may be evaluated at 0
    assert (L**2 + 7).eval_int(0) == 7


def test_degree_range():
    assert (L**3 - L**2).degree_range() == (2, 3)
    assert ZERO.degree_range() is None
    assert (5 * monomial(1, -2) + L).degree_range() == (-2, 1)


def test_canonical_text_form():
    assert str(L**5 - L**2) == "L^5 - L^2"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-(L**2)) == "-L^2"
    assert str(5 * monomial(1, -2) + L) == "L + 5L^-2"
    assert str(2 * L - 3) == "2L - 3"
    assert repr(L - 1) == "LaurentPolynomial('L - 1')"


def test_latex_form():
    assert (L**5 - L**2).latex() == "L^{5} - L^{2}"
    assert (2 * L - 3).latex() == "2L - 3"
    assert ZERO.latex() == "0"


def test_json_round_trip():
    p = L**5 - L**2
    data = p.to_json_dict()
    assert data == {"5": "1", "2": "-1"}
    assert LaurentPolynomial.from_json_dict(data) == p
    assert LaurentPolynomial.from_json_dict({}) == ZERO


def test_equality_and_hash():
    assert L - 1 == monomial(1, 1) - monomial(1, 0)
    assert hash(L - 1) == hash(monomial(1, 1) - 1)
    assert ONE == 1
    assert ZERO == 0
    assert (L != 1) is True


def test_constants_hash_like_ints():
    for poly, value in ((ONE, 1), (ZERO, 0), (monomial(-3, 0), -3), (L - L - 1, -1)):
        assert poly == value
        assert hash(poly) == hash(value)
        assert len({poly, value}) == 1


def test_no_zero_coefficients_survive_operations():
    rng = random.Random(7)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        for result in (p + q, p - q, p * q):
            assert all(c != 0 for c in result.terms().values())


def test_ring_properties_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        p, q, r = random_poly(rng), random_poly(rng), random_poly(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_eval_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        for x in EVAL_POINTS:
            assert (p * q).eval_int(x) == p.eval_int(x) * q.eval_int(x)
            assert (p + q).eval_int(x) == p.eval_int(x) + q.eval_int(x)


def test_div_exact_round_trip_randomized():
    rng = random.Random(4242)
    done = 0
    while done < 200:
        r, q = random_poly(rng), random_poly(rng)
        if q.is_zero():
            continue
        assert (r * q).div_exact(q) == r
        done += 1


def test_pow():
    assert (L - 1) ** 0 == ONE
    assert (L - 1) ** 2 == L**2 - 2 * L + 1
    with pytest.raises(ValueError):
        (L - 1) ** -1
