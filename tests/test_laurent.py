import itertools
import json
import random

import pytest

from symrank.laurent import (
    L,
    ONE,
    ZERO,
    DivisionByZero,
    LaurentPolynomial,
    NonzeroRemainder,
    monomial,
    shifted_sum,
)

EVAL_POINTS = (-3, 2, 3, 5, 7)


def random_poly(rng: random.Random, max_terms: int = 6) -> LaurentPolynomial:
    terms: dict[int, int] = {}
    for _ in range(rng.randint(0, max_terms)):
        e = rng.randint(0, 12)
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
    assert (L**2 + 7).eval_int(0) == 7


def test_negative_exponents_refused():
    with pytest.raises(ValueError):
        LaurentPolynomial({-1: 1, 2: 3})
    with pytest.raises(ValueError):
        monomial(1, -1)
    with pytest.raises(NonzeroRemainder):
        L.div_exact(L**2)
    with pytest.raises(NonzeroRemainder):
        (L + 1).div_exact(L**2 + L)  # would be L^-1
    for x in (-3, 0, 2):
        assert type((L**3 - 2 * L).eval_int(x)) is int


def test_canonical_text_form():
    assert str(L**5 - L**2) == "L^5 - L^2"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-(L**2)) == "-L^2"
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
    assert LaurentPolynomial({int(e): int(c) for e, c in data.items()}) == p
    assert ZERO.to_json_dict() == {}


@pytest.mark.parametrize("pad", ["", "  ", "%d "])
@pytest.mark.parametrize(
    "p",
    [
        LaurentPolynomial({9: 2, 6: -3, 2: 1}),
        L**3 - L**2 + L - 1,
        monomial(2**64 + 1, 4) - monomial(3**50, 1),
        -(L**4) + 2 * L,
        monomial(-7, 0),
        ZERO,
    ],
    ids=["interior_zeros", "unit_coefficients", "above_2_64", "negative_lead", "constant", "zero"],
)
def test_json_text_is_json_dumps(p, pad):
    expected = json.dumps(p.to_json_dict(), indent=2).replace("\n", "\n" + pad)
    assert p.to_json(pad) == expected


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
        for result in (p + q, p - q, p * q, shifted_sum(((p, 3, 1), (q, 0, -1)))):
            assert all(c != 0 for c in result.terms().values())


def chained(terms) -> dict[int, int]:
    """The terms of the sum shifted_sum computes, accumulated exponent by
    exponent from each operand's terms(), with none of the package's
    arithmetic."""
    total: dict[int, int] = {}
    for poly, shift, c in terms:
        for exp, coeff in poly.terms().items():
            total[exp + shift] = total.get(exp + shift, 0) + c * coeff
    return {exp: coeff for exp, coeff in total.items() if coeff}


def product_terms(p: LaurentPolynomial, q: LaurentPolynomial) -> dict[int, int]:
    """The terms of p * q: p shifted and scaled by each term of q."""
    return chained((p, exp, coeff) for exp, coeff in q.terms().items())


def assert_canonical(poly: LaurentPolynomial) -> None:
    """Stored canonically: zero as the empty tuple at 0, anything else as
    a tuple with no zero at either end, starting at the valuation."""
    assert type(poly._coeffs) is tuple
    if not poly._coeffs:
        assert (poly._lo, poly._coeffs) == (0, ())
    else:
        assert poly._coeffs[0] and poly._coeffs[-1]
        assert poly._lo == min(poly.terms())


def test_shifted_sum_matches_chained_operators_randomized():
    rng = random.Random(31)
    for _ in range(300):
        terms = [
            (random_poly(rng), rng.randint(0, 20), rng.choice((1, -1, 2, -2, 5)))
            for _ in range(rng.randint(0, 6))
        ]
        result = shifted_sum(terms)
        assert result.terms() == chained(terms)
        assert_canonical(result)


@pytest.mark.parametrize(
    "terms,expected",
    [
        ([], ZERO),
        ([(ZERO, 4, 1), (ZERO, 0, -1)], ZERO),
        ([(L**2 - 1, 1, 1), (L**3 - L, 0, -1)], ZERO),
        ([(L + 1, 3, 1), (L**4 + L**3, 0, -1)], ZERO),
        ([(L - 1, 2, 1), (L**3 - L**2, 0, -1), (ONE, 7, 1)], L**7),
        ([(ZERO, 2, 1), (L, 0, 1), (ONE, 9, 1)], L**9 + L),
        ([(2 * L + 3, 0, -1), (L, 5, -1)], -(L**6) - 2 * L - 3),
        ([(L**5 - 1, 0, 1), (ONE, 0, 1), (L**5, 0, -1)], ZERO),
        ([(L**3 + L, 0, 1), (L**3, 0, -1)], L),
        ([(L + 1, 1, 3), (L**2, 0, -3), (L - 1, 0, -2)], L + 2),
        ([(2 * L - 1, 0, 5), (L, 0, -10), (ONE, 0, 5)], ZERO),
    ],
    ids=[
        "empty", "zero-operands", "cancels", "cancels-shifted", "cancels-to-gap",
        "gap-of-zeros", "negative-signs", "cancels-both-ends", "cancels-top",
        "scaled", "scaled-cancels",
    ],
)
def test_shifted_sum_cases(terms, expected):
    result = shifted_sum(terms)
    assert result == expected
    assert result.terms() == chained(terms)
    assert_canonical(result)


def test_operators_match_dict_references_randomized():
    rng = random.Random(1717)
    for _ in range(300):
        p, q = random_poly(rng), random_poly(rng)
        k = rng.randint(-9, 9)
        const = monomial(k, 0)
        cases = [
            (p + q, [(p, 0, 1), (q, 0, 1)]),
            (p - q, [(p, 0, 1), (q, 0, -1)]),
            (-p, [(p, 0, -1)]),
            (k - p, [(const, 0, 1), (p, 0, -1)]),
            (p - k, [(p, 0, 1), (const, 0, -1)]),
            (k + p, [(const, 0, 1), (p, 0, 1)]),
        ]
        for result, terms in cases:
            assert result.terms() == chained(terms)
            assert_canonical(result)


def test_mul_matches_dict_reference_randomized():
    rng = random.Random(2718)
    for _ in range(300):
        p = random_poly(rng)
        a, m = rng.randint(0, 4), rng.randint(1, 12)
        b = binomial(a, m)
        assert (b._lo, b._coeffs) == (a, (-1,) + (0,) * (m - 1) + (1,))
        factors = [
            random_poly(rng),
            b,
            monomial(rng.choice((-3, -1, 1, 2)), rng.randint(0, 9)),
            ZERO,
        ]
        for q in factors:
            for result in (p * q, q * p):
                assert result.terms() == product_terms(p, q)
                assert_canonical(result)
        k = rng.randint(-9, 9)
        for result in (p * k, k * p):
            assert result.terms() == product_terms(p, monomial(k, 0))
            assert_canonical(result)


def test_constructor_stores_the_given_terms():
    rng = random.Random(5150)
    for _ in range(300):
        terms = {rng.randint(0, 12): rng.randint(-3, 3) for _ in range(rng.randint(0, 6))}
        poly = LaurentPolynomial(terms)
        assert poly.terms() == {e: c for e, c in terms.items() if c}
        assert_canonical(poly)


def test_shifted_sum_rejects_terms_below_constant():
    assert shifted_sum([(L**3, -1, 1)]) == L**2
    with pytest.raises(ValueError, match="never inverted"):
        shifted_sum([(L**2, 0, 1), (L + 1, -1, 1)])


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


def binomial(a: int, m: int) -> LaurentPolynomial:
    """L^a (L^m - 1), built from monomials."""
    return monomial(1, a + m) - monomial(1, a)


def test_binomial_product_is_shift_minus_operand():
    rng = random.Random(1010)
    for m in range(1, 61):
        for a in range(4):
            p = random_poly(rng)
            product = p * binomial(a, m)
            # Products with a monomial take the schoolbook path.
            assert product == p * monomial(1, a + m) - p * monomial(1, a)
            assert binomial(a, m) * p == product
            for x in EVAL_POINTS:
                assert product.eval_int(x) == p.eval_int(x) * (x ** (a + m) - x**a)


def test_binomial_division_round_trip_and_remainders():
    rng = random.Random(2020)
    for m in range(1, 61):
        for a in range(4):
            b = binomial(a, m)
            p = random_poly(rng)
            assert (p * b).div_exact(b) == p
            # A nonzero remainder of degree below b's.
            r = LaurentPolynomial({rng.randrange(a + m): rng.choice((-2, -1, 1, 3))})
            with pytest.raises(NonzeroRemainder):
                (p * b + r).div_exact(b)
            if not p.is_zero():
                # p moved to valuation 0: the quotient p / L needs L^-1.
                low = min(p.terms())
                p0 = LaurentPolynomial({e - low: c for e, c in p.terms().items()})
                with pytest.raises(NonzeroRemainder):
                    (p0 * b).div_exact(b * L)


def test_binomial_division_refuses_short_and_misaligned_numerators():
    b = L**5 - 1
    for num in (L**4 - 1, L**5, L**5 - 2, L**10 - L**5 + 1, 2 * L**5 - 2 + L):
        with pytest.raises(NonzeroRemainder):
            num.div_exact(b)
    assert (L**10 - 1).div_exact(b) == L**5 + 1
    assert (L**7 - L**2).div_exact(L**2 * b) == ONE


def test_binomial_and_general_division_agree():
    rng = random.Random(3030)
    for m in range(1, 61):
        b = L**m - 1
        # Neither 1 - L^m nor 2 (L^m - 1) has the binomial's tuple.
        p = random_poly(rng)
        num = 2 * p * b
        assert num.div_exact(b) == 2 * p
        assert num.div_exact(1 - L**m) == -2 * p
        assert num.div_exact(2 * b) == p
        with pytest.raises(NonzeroRemainder):
            (num + 1).div_exact(1 - L**m)
