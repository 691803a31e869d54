import json
import random
import sys
import threading

import pytest

from reference import class_json_dict
from symrank import ffield, motivic
from symrank.laurent import L, ONE, ZERO, LaurentPolynomial, monomial
from symrank.motivic import (
    InvalidRange,
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
                terms = motivic.class_exact(n, k).value.terms()
                assert min(terms, default=0) >= 0

    def test_closed_form_route(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                via_route = motivic.class_exact(n, k, route="closed-form")
                assert via_route == motivic.closed_form(n, k)
                assert via_route.route == "closed-form"
        with pytest.raises(ValueError, match="unknown route"):
            motivic.class_exact(2, 1, route="guess")

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
    # The route is checked even when no rank is covered.
    with pytest.raises(ValueError, match="unknown route"):
        motivic.class_at_most(3, -2, route="guess")


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

    def test_agrees_with_recursion_at_n40_and_n60(self):
        cases = [(40, k) for k in range(0, 41)]
        cases += [(60, k) for k in (1, 2, 29, 30, 59, 60)]
        for n, k in cases:
            assert motivic.closed_form(n, k).value == motivic.class_exact(n, k).value

    def test_single_class_multiplies_only_its_own_factors(self, monkeypatch):
        calls = []
        mul = LaurentPolynomial.__mul__

        def counted(self, other):
            calls.append((self, other))
            return mul(self, other)

        motivic.clear_caches()
        monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
        monkeypatch.setattr(LaurentPolynomial, "__rmul__", counted)
        motivic.closed_form(60, 2)
        # Two factors of row 60, then the power of L: not the whole row.
        assert len(calls) <= 3


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

    def test_divides_the_class_that_class_exact_gives(self, monkeypatch):
        # As class_at_most sums its strata, the quotient reads its full-rank
        # class through class_exact.
        class_exact = motivic.class_exact

        def times_l(n, k, route="recursion"):
            c = class_exact(n, k, route)
            return motivic.MotivicClass(c.descriptor, c.value * L, c.route)

        monkeypatch.setattr(motivic, "class_exact", times_l)
        assert motivic.class_at_most(2, 2).value == L**4
        assert motivic.projective_full_rank(2).value == L**3

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

    @pytest.mark.parametrize(
        "args",
        [(3, "projective_full"), (3, "projective_full", 1), (3, "exact", 1, 7), (3, "range", 1)],
        ids=["projective_full_no_k", "projective_full_k_not_n", "exact_with_l", "range_no_l"],
    )
    def test_descriptor_k_and_l_must_fit_the_kind(self, args):
        with pytest.raises(ValueError):
            VarietyDescriptor(*args)

    def test_every_classmethod_builds_with_an_int_k(self):
        built = [
            VarietyDescriptor.exact(3, 1),
            VarietyDescriptor.at_most(3, -1),
            VarietyDescriptor.rank_range(3, 1, 2),
            VarietyDescriptor.projective_full(3),
        ]
        assert [d.kind for d in built] == ["exact", "at_most", "range", "projective_full"]
        assert all(isinstance(d.k, int) for d in built)
        assert [d.l for d in built] == [None, None, 2, None]

    def test_ranks_are_clipped_to_size(self):
        assert list(VarietyDescriptor.exact(3, 2).ranks()) == [2]
        assert list(VarietyDescriptor.exact(3, 5).ranks()) == []
        assert list(VarietyDescriptor.exact(3, -1).ranks()) == []
        assert list(VarietyDescriptor.at_most(3, -2).ranks()) == []
        assert list(VarietyDescriptor.at_most(2, 9).ranks()) == [0, 1, 2]
        assert list(VarietyDescriptor.rank_range(3, -1, 2).ranks()) == [0, 1, 2]
        assert list(VarietyDescriptor.rank_range(3, 2, 7).ranks()) == [2, 3]
        assert list(VarietyDescriptor.projective_full(3).ranks()) == [3]

    def test_json_schema(self):
        cls = motivic.class_exact(2, 2)
        assert json.loads(cls.to_json()) == {
            "n": 2,
            "rank": {"kind": "exact", "k": 2},
            "polynomial": {"3": "1", "2": "-1"},
            "route": "recursion",
        }
        ranged = motivic.class_range(2, 1, 2)
        assert json.loads(ranged.to_json())["rank"] == {"kind": "range", "k": 1, "l": 2}
        proj = motivic.projective_full_rank(2)
        assert json.loads(proj.to_json())["rank"] == {"kind": "projective_full", "k": 2}

    @pytest.mark.parametrize("pad", ["", "  "])
    @pytest.mark.parametrize("route", motivic.ROUTES)
    @pytest.mark.parametrize(
        "make",
        [
            lambda route: motivic.class_exact(6, 3, route),
            lambda route: motivic.class_at_most(6, 4, route),
            lambda route: motivic.class_range(9, 2, 5, route),
            lambda route: motivic.class_exact(3, 5, route),
            lambda route: motivic.class_at_most(3, -1, route),
            lambda route: motivic.projective_full_rank(5),
        ],
        ids=["exact", "at_most", "range", "zero_exact", "zero_at_most", "projective_full"],
    )
    def test_json_text_is_json_dumps(self, make, route, pad):
        cls = make(route)
        expected = json.dumps(class_json_dict(cls), indent=2)
        expected = "\n".join(pad + line for line in expected.split("\n"))
        assert cls.to_json(pad) == expected

    def test_latex(self):
        assert motivic.class_exact(2, 2).value.latex() == "L^{3} - L^{2}"


def test_memoization_is_semantically_invisible():
    warm = {(n, k): motivic.class_exact(n, k).value for n in range(7) for k in range(n + 1)}
    motivic.clear_caches()
    for (n, k), value in warm.items():
        assert motivic.class_exact(n, k).value == value
    # The closed form's row cache, asked across rows and back in k: cold,
    # warm, then cold again.
    jumps = ((10, 7), (10, 3), (9, 9), (10, 10), (10, 0), (4, 6), (4, -1))
    for clear in (False, False, True):
        if clear:
            motivic.clear_caches()
        for n, k in jumps:
            closed = motivic.class_exact(n, k, motivic.ROUTE_CLOSED_FORM).value
            assert closed == motivic.class_exact(n, k).value


def test_closed_form_row_cache_under_threads():
    # Threads jumping between rows must never read a value of another row
    # or index: the row is replaced whole, never edited in place.
    expected = {(n, k): motivic.class_exact(n, k).value for n in range(6, 13) for k in range(n + 1)}
    wrong = []

    def ask(seed):
        try:
            for n, k in random.Random(seed).sample(sorted(expected), len(expected)):
                if motivic.closed_form(n, k).value != expected[(n, k)]:
                    wrong.append((n, k))
        except Exception as exc:  # a thread's exception would otherwise be lost
            wrong.append(exc)

    motivic.clear_caches()
    threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


class TestDeepRecursion:
    def test_cold_row_1000_by_recursion(self):
        motivic.clear_caches()
        assert motivic.class_exact(1000, 2).value == motivic.closed_form(1000, 2).value

    def test_no_cold_call_descends_past_one_stride(self, monkeypatch):
        # With a stride of 4 a cold (40, 20) descends at most 4 rows, so it
        # fits a stack that the 40 rows of a plain recursion would overflow.
        monkeypatch.setattr(motivic, "_FILL_STRIDE", 4)
        motivic.clear_caches()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            filled = motivic.class_exact(40, 20).value
            projective = motivic.projective_full_rank(40).value
        finally:
            sys.setrecursionlimit(limit)
        assert filled == motivic.closed_form(40, 20).value
        assert projective * (L - 1) == motivic.full_rank_product(40).value

    def test_warm_call_below_one_stride_takes_no_loop(self, monkeypatch):
        motivic.class_exact(60, 30)
        calls = []
        exact_value = motivic._exact_value

        def counted(n, k):
            calls.append((n, k))
            return exact_value(n, k)

        monkeypatch.setattr(motivic, "_exact_value", counted)
        motivic.class_exact(60, 30)
        assert calls == [(60, 30)]
