"""Acceptance suite: every criterion is exact (no tolerances) and prints
one verdict line. Run with ``pytest tests/test_acceptance.py -v -s``.

The counting criteria enumerate tens of millions of matrices; the whole
module finishes in well under a minute single-threaded.
"""

import random
import time

from symrank import ffield, motivic
from symrank.laurent import L, LaurentPolynomial, monomial

COUNTING_GRID = (
    [(n, 3) for n in range(0, 5)]
    + [(n, 5) for n in range(0, 5)]
    + [(n, 7) for n in range(0, 4)]
    + [(5, 3)]
)
FIBER_GRID = [(n, p) for p in (3, 5) for n in range(1, 5)]


def _report(num: int, label: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {status} ({time.perf_counter() - started:.1f}s)")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_closed_form_equals_recursion():
    started = time.perf_counter()
    ok = all(
        motivic.closed_form(n, k).value == motivic.class_exact(n, k).value
        for n in range(0, 13)
        for k in range(0, n + 1)
    )
    _report(1, "closed form == recursion for 0 <= k <= n <= 12", ok, started)


def test_criterion_2_strata_partition_affine_space():
    started = time.perf_counter()
    ok = True
    for n in range(0, 13):
        total = LaurentPolynomial()
        for k in range(0, n + 1):
            total = total + motivic.class_exact(n, k).value
        ok = ok and total == monomial(1, n * (n + 1) // 2)
    _report(2, "rank strata sum to L^(n(n+1)/2) for n <= 12", ok, started)


def test_criterion_3_point_count_oracle():
    started = time.perf_counter()
    ok = True
    visited = 0
    for n, p in COUNTING_GRID:
        hist = ffield.enumerate_rank_counts(n, ffield.PrimeField(p))
        visited += hist.total()
        predicted = tuple(
            motivic.point_count(motivic.class_exact(n, k), p) for k in range(n + 1)
        )
        ok = ok and hist.counts == predicted
        if (n, p) == (2, 3):
            ok = ok and hist.counts == (1, 8, 18)
        if (n, p) == (5, 3):
            ok = ok and hist.total() == 14_348_907
    _report(3, f"enumerated rank counts match evaluations ({visited} matrices)", ok, started)


def test_criterion_4_fiber_census():
    started = time.perf_counter()
    ok = True
    for n, p in FIBER_GRID:
        field = ffield.PrimeField(p)
        census = ffield.fiber_census(n, field)
        minor_hist = ffield.enumerate_rank_counts(n - 1, field)
        expected = {}
        for r, n_r in enumerate(minor_hist.counts):
            if n_r == 0:
                continue
            for s, per_minor in (
                (r, p**r),
                (r + 1, p**r * (p - 1)),
                (r + 2, p**n - p ** (r + 1)),
            ):
                if s <= n and per_minor:
                    expected[(r, s)] = per_minor * n_r
        ok = ok and census.table == expected
    _report(4, "fiber buckets equal p^r, p^r(p-1), p^n - p^(r+1) per minor", ok, started)


def test_criterion_5_full_rank_products():
    started = time.perf_counter()
    ok = all(
        motivic.full_rank_product(n).value == motivic.class_exact(n, n).value
        for n in range(1, 13)
    )
    _report(5, "full-rank product formula for n <= 12", ok, started)


def test_criterion_6_projectivization():
    started = time.perf_counter()
    ok = True
    for n in range(1, 13):
        value = motivic.class_exact(n, n).value
        quotient = value.div_exact(L - 1)  # raises NonzeroRemainder on failure
        ok = ok and quotient * (L - 1) == value
    for n in (1, 2, 3):
        for p in (3, 5):
            counted = ffield.projective_count(n, ffield.PrimeField(p))
            ok = ok and motivic.projective_full_rank(n).value.eval_int(p) == counted
    _report(6, "(L-1) divides full-rank classes; quotient counts projectively", ok, started)


def test_criterion_7_tate_anchor_and_properness():
    started = time.perf_counter()
    anchor = motivic.tate_decomposition(motivic.class_exact(1, 1))
    ok = set(anchor) == {motivic.TateSummand(0, 1, 1), motivic.TateSummand(1, 2, 1)}
    for n in range(0, 13):
        for k in range(0, n + 1):
            cls = motivic.class_exact(n, k)
            total = LaurentPolynomial()
            for s in motivic.tate_decomposition(cls):
                ok = ok and s.shift >= 2 * s.twist
                total = total + monomial(-s.multiplicity if s.shift % 2 else s.multiplicity, s.twist)
            ok = ok and total == cls.value
    _report(7, "punctured-line anchor F(0)[1] + F(1)[2]; proper summands reconstruct", ok, started)


def test_criterion_8_euler_characteristics():
    started = time.perf_counter()
    ok = True
    for n in range(0, 13):
        ok = ok and motivic.euler_characteristic(motivic.class_exact(n, 0)) == 1
        for k in range(1, n + 1):
            ok = ok and motivic.euler_characteristic(motivic.class_exact(n, k)) == 0
    _report(8, "Euler characteristic 1 at k=0, 0 at 1 <= k <= n <= 12", ok, started)


def test_criterion_9_ring_layer_properties():
    started = time.perf_counter()
    rng = random.Random(20240901)

    def poly():
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = rng.randint(0, 12)
            terms[e] = terms.get(e, 0) + rng.randint(-9, 9)
        return LaurentPolynomial(terms)

    ok = True
    for _ in range(1000):
        a, b, c = poly(), poly(), poly()
        ok = ok and a + b == b + a and a * b == b * a
        ok = ok and (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        x = rng.choice((-3, 2, 3, 5, 7))
        ok = ok and (a * b).eval_int(x) == a.eval_int(x) * b.eval_int(x)
        ok = ok and (a + b).eval_int(x) == a.eval_int(x) + b.eval_int(x)
        if not b.is_zero():
            ok = ok and (a * b).div_exact(b) == a
    _report(9, "1000 randomized ring and evaluation property cases", ok, started)
