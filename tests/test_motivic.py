import json

import pytest

from symrank import ffield, motivic
from symrank.laurent import L, ONE, ZERO, monomial
from symrank.motivic import (
    InvalidRange,
    MotivicClass,
    NegativeExponent,
    TateSummand,
    VarietyDescriptor,
)


def brute_rank_count(n: int, p: int, k: int) -> int:
    return ffield.enumerate_rank_counts(n, ffield.PrimeField(p)).counts[k]


class TestClassExact:
    def test_base_cases(self):
        assert motivic.class_exact(1, 1).value == L - 1
        assert motivic.class_exact(5, 7).value == ZERO
        assert motivic.class_exact(3, -1).value == ZERO
        assert motivic.class_exact(4, 0).value == ONE
        assert motivic.class_exact(0, 0).value == ONE

    def test_small_classes_against_enumeration(self):
        assert motivic.class_exact(2, 1).value == L**2 - 1
        assert brute_rank_count(2, 3, 1) == 8
        assert motivic.class_exact(2, 1).value.eval_int(3) == 8

        assert motivic.class_exact(2, 2).value == L**3 - L**2
        assert brute_rank_count(2, 3, 2) == 18
        assert brute_rank_count(2, 5, 2) == 100
        assert motivic.class_exact(2, 2).value.eval_int(5) == 100

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            motivic.class_exact(-1, 0)

    def test_values_are_polynomials(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                lo_hi = motivic.class_exact(n, k).value.degree_range()
                if lo_hi is not None:
                    assert lo_hi[0] >= 0

    def test_route_tag(self):
        assert motivic.class_exact(2, 2).route == "recursion"
        assert motivic.closed_form(2, 2).route == "closed-form"
        assert motivic.class_at_most(2, 1).route == "sum"
        assert motivic.projective_full_rank(2).route == "quotient"


class TestClassAtMost:
    def test_whole_space_is_affine(self):
        for n in range(0, 9):
            expected = monomial(1, n * (n + 1) // 2)
            assert motivic.class_at_most(n, n).value == expected

    def test_rank_zero(self):
        assert motivic.class_at_most(3, 0).value == ONE

    def test_singular_two_by_two(self):
        # 9 singular symmetric 2x2 matrices over F_3
        assert motivic.class_at_most(2, 1).value == L**2
        singular = sum(
            ffield.enumerate_rank_counts(2, ffield.PrimeField(3)).counts[:2]
        )
        assert singular == 9

    def test_negative_k_is_empty(self):
        assert motivic.class_at_most(3, -2).value == ZERO

    def test_k_above_n_saturates(self):
        assert motivic.class_at_most(2, 9).value == motivic.class_at_most(2, 2).value


class TestClassRange:
    def test_examples(self):
        assert motivic.class_range(2, 1, 2).value == L**3 - 1
        assert brute_rank_count(2, 3, 1) + brute_rank_count(2, 3, 2) == 26
        assert motivic.class_range(3, 0, 3).value == L**6

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            motivic.class_range(4, 2, 1)


def test_routes_agree_for_at_most_and_range():
    for n in range(0, 9):
        for l in range(-1, n + 2):
            rec = motivic.class_at_most(n, l)
            closed = motivic.class_at_most(n, l, route=motivic.ROUTE_CLOSED_FORM)
            assert closed == rec
            for k in range(-1, l + 1):
                rec = motivic.class_range(n, k, l)
                closed = motivic.class_range(n, k, l, route=motivic.ROUTE_CLOSED_FORM)
                assert closed == rec
    with pytest.raises(ValueError, match="unknown route"):
        motivic.class_at_most(3, 1, route="guess")
    with pytest.raises(ValueError, match="unknown route"):
        motivic.class_range(3, 1, 2, route="guess")


class TestClosedForm:
    def test_examples(self):
        assert motivic.closed_form(2, 2).value == L**3 - L**2
        assert motivic.closed_form(3, 1).value == L**3 - 1
        assert brute_rank_count(3, 3, 1) == 26
        for n in range(0, 7):
            assert motivic.closed_form(n, 0).value == ONE
        assert motivic.closed_form(4, 6).value == ZERO
        assert motivic.closed_form(4, -1).value == ZERO

    def test_agrees_with_recursion_to_n8(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                assert motivic.closed_form(n, k).value == motivic.class_exact(n, k).value

    def test_agrees_with_recursion_large_spot_checks(self):
        for n, k in ((16, 16), (16, 9), (14, 7)):
            assert motivic.closed_form(n, k).value == motivic.class_exact(n, k).value


class TestFullRankProduct:
    def test_examples(self):
        assert motivic.full_rank_product(2).value == L**3 - L**2
        assert motivic.full_rank_product(3).value == (L**3 - 1) * (L**3 - L**2)
        assert motivic.full_rank_product(1).value == L - 1

    def test_equals_recursion_to_n12(self):
        for n in range(1, 13):
            assert motivic.full_rank_product(n).value == motivic.class_exact(n, n).value

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            motivic.full_rank_product(0)


class TestProjectiveFullRank:
    def test_examples(self):
        assert motivic.projective_full_rank(1).value == ONE
        assert motivic.projective_full_rank(2).value == L**2
        assert motivic.projective_full_rank(3).value == L**5 - L**2

    def test_matches_projective_enumeration(self):
        for n in (1, 2, 3):
            for p in (3, 5):
                counted = ffield.projective_count(n, ffield.PrimeField(p))
                assert motivic.projective_full_rank(n).value.eval_int(p) == counted

    def test_divisibility_for_all_strata(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                value = motivic.class_exact(n, k).value
                assert value.div_exact(L - 1) * (L - 1) == value


class TestTateDecomposition:
    def test_punctured_line_anchor(self):
        summands = motivic.tate_decomposition(motivic.class_exact(1, 1))
        assert summands == [TateSummand(1, 2, 1), TateSummand(0, 1, 1)]

    def test_point(self):
        summands = motivic.tate_decomposition(motivic.class_exact(3, 0))
        assert summands == [TateSummand(0, 0, 1)]

    def test_full_rank_two_by_two(self):
        summands = motivic.tate_decomposition(motivic.class_exact(2, 2))
        assert summands == [TateSummand(3, 6, 1), TateSummand(2, 5, 1)]

    def test_signed_sum_and_properness_everywhere(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                cls = motivic.class_exact(n, k)
                total = ZERO
                for s in motivic.tate_decomposition(cls):
                    assert s.shift >= 2 * s.twist
                    sign = -1 if s.shift % 2 else 1
                    total = total + monomial(sign * s.multiplicity, s.twist)
                assert total == cls.value

    def test_negative_exponent_rejected(self):
        bad = MotivicClass(
            VarietyDescriptor.exact(1, 1), monomial(1, -1), motivic.ROUTE_RECURSION
        )
        with pytest.raises(NegativeExponent):
            motivic.tate_decomposition(bad)

    def test_summand_validation(self):
        with pytest.raises(ValueError):
            TateSummand(-1, 0, 1)
        with pytest.raises(ValueError):
            TateSummand(1, 1, 1)  # improper: shift < 2 * twist
        with pytest.raises(ValueError):
            TateSummand(0, 0, 0)
        assert str(TateSummand(2, 5, 3)) == "F(2)[5]^3"


class TestEvaluations:
    def test_euler_characteristic(self):
        assert motivic.euler_characteristic(motivic.class_exact(4, 0)) == 1
        assert motivic.euler_characteristic(motivic.class_exact(3, 2)) == 0
        assert motivic.euler_characteristic(motivic.class_at_most(3, 3)) == 1

    def test_point_count(self):
        assert motivic.point_count(motivic.class_exact(2, 2), 3) == 18
        assert motivic.point_count(motivic.class_exact(1, 1), 5) == 4
        assert motivic.point_count(motivic.class_at_most(2, 2), 3) == 27
        # prime powers are fine for evaluation
        assert motivic.point_count(motivic.class_exact(2, 2), 9) == 648
        with pytest.raises(ValueError):
            motivic.point_count(motivic.class_exact(2, 2), 1)


class TestDescriptorsAndJson:
    def test_descriptor_validation(self):
        with pytest.raises(InvalidRange):
            VarietyDescriptor.rank_range(3, 2, 1)
        with pytest.raises(ValueError):
            VarietyDescriptor.projective_full(0)
        with pytest.raises(ValueError):
            VarietyDescriptor(3, "bogus", 1)

    def test_json_schema(self):
        cls = motivic.class_exact(2, 2)
        assert cls.to_json_dict() == {
            "n": 2,
            "rank": {"kind": "exact", "k": 2},
            "polynomial": {"3": "1", "2": "-1"},
            "route": "recursion",
        }
        ranged = motivic.class_range(2, 1, 2)
        assert ranged.to_json_dict()["rank"] == {"kind": "range", "k": 1, "l": 2}
        proj = motivic.projective_full_rank(2)
        assert proj.to_json_dict()["rank"] == {"kind": "projective_full", "k": 2}
        # serialized form parses back to the same dict
        assert json.loads(cls.to_json()) == cls.to_json_dict()

    def test_latex(self):
        assert motivic.class_exact(2, 2).value.latex() == "L^{3} - L^{2}"


def test_memoization_is_semantically_invisible():
    warm = {(n, k): motivic.class_exact(n, k).value for n in range(7) for k in range(n + 1)}
    motivic.clear_caches()
    for (n, k), value in warm.items():
        assert motivic.class_exact(n, k).value == value
