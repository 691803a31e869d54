import json
from collections import Counter

import numpy as np
import pytest

from symrank import ffield, motivic, verify
from symrank.ffield import OddPrimeRequired
from symrank.laurent import L


def entry_counts(report):
    return report.summary


def wrong_full_rank_class_at_2(monkeypatch):
    """Make [2, 2] one more than it is, so (L - 1) no longer divides it;
    the recursion's own table, and so every other class, stays right."""
    recursive_value = motivic._recursive_value
    monkeypatch.setattr(
        motivic,
        "_recursive_value",
        lambda n, k: recursive_value(n, k) + (1 if (n, k) == (2, 2) else 0),
    )


class TestFormulaVsRecursion:
    def test_small_grid_all_pass(self):
        report = verify.verify_formula_vs_recursion(2)
        # class checks: 1 + 2 + 3; sum checks: 3; product checks: 2;
        # bundle checks: 1, at (n, k) = (2, 1)
        assert len(report.results) == 6 + 3 + 2 + 1
        assert entry_counts(report) == {"pass": 12, "fail": 0, "skipped": 0}

    def test_max_n_zero(self):
        report = verify.verify_formula_vs_recursion(0)
        assert entry_counts(report) == {"pass": 2, "fail": 0, "skipped": 0}

    def test_full_depth(self):
        report = verify.verify_formula_vs_recursion(12)
        assert not report.has_failures

    def test_bundle_fault_fails_only_at_most_bundle(self, monkeypatch):
        class_at_most = motivic.class_at_most

        def wrong_at_3_1(n, k, route=motivic.ROUTE_RECURSION):
            c = class_at_most(n, k, route)
            if (n, k) == (3, 1):
                return motivic.MotivicClass(c.descriptor, c.value + 1, c.route)
            return c

        monkeypatch.setattr(motivic, "class_at_most", wrong_at_3_1)
        report = verify.verify_formula_vs_recursion(4)
        failed = {r.check_id for r in report.results if r.status == "fail"}
        assert failed == {"at_most_bundle"}
        families = {r.check_id for r in report.results}
        assert families - failed == {
            "closed_form_equals_recursion",
            "strata_sum_to_affine_space",
            "full_rank_product_equals_recursion",
        }

    def test_stratum_fault_fails_bundles_of_the_next_row(self, monkeypatch):
        # The bundle side reads row n - 1's strata: a stratum wrong at
        # (3, 1) must reach every bundle of row 4, through the edge
        # (k = 1, 2) and the running prefix (k = 3). Row 3's at-most side
        # sums the same wrong stratum, and row 5 reads only row 4.
        class_exact = motivic.class_exact

        def wrong_at_3_1(n, k, route=motivic.ROUTE_RECURSION):
            c = class_exact(n, k, route)
            if (n, k) == (3, 1):
                return motivic.MotivicClass(c.descriptor, c.value + 1, c.route)
            return c

        monkeypatch.setattr(motivic, "class_exact", wrong_at_3_1)
        report = verify.verify_formula_vs_recursion(5)
        failed = {
            (r.params["n"], r.params["k"])
            for r in report.results
            if r.check_id == "at_most_bundle" and r.status == "fail"
        }
        assert failed == {(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}


class TestPointCounts:
    def test_small_pass(self):
        report = verify.verify_point_counts(2, [3])
        assert len(report.results) == 3
        assert entry_counts(report) == {"pass": 3, "fail": 0, "skipped": 0}

    def test_skips_beyond_budget_with_reason(self):
        report = verify.verify_point_counts(6, [7])
        assert len(report.results) == 7
        skipped = [r for r in report.results if r.status == "skipped"]
        assert [r.params["n"] for r in skipped] == [4, 5, 6]
        for r in skipped:
            assert "matrix visits" in r.reason
        passed = [r for r in report.results if r.status == "pass"]
        assert [r.params["n"] for r in passed] == [0, 1, 2, 3]

    def test_cross_product_accounting(self):
        report = verify.verify_point_counts(3, [3, 5], budget=10**4)
        assert len(report.results) == 4 * 2

    def test_rejects_even_prime(self):
        with pytest.raises(OddPrimeRequired):
            verify.verify_point_counts(2, [2])

    def test_rejects_composite(self):
        with pytest.raises(OddPrimeRequired):
            verify.verify_point_counts(2, [9])


class TestFibers:
    def test_small_pass(self):
        report = verify.verify_fibers(2, [3, 5])
        assert len(report.results) == 2 * 2 * 2
        assert not report.has_failures

    def test_degenerate_case(self):
        report = verify.verify_fibers(1, [3])
        assert entry_counts(report) == {"pass": 2, "fail": 0, "skipped": 0}

    def test_skips_come_in_pairs(self):
        report = verify.verify_fibers(4, [7], budget=2 * 10**5)
        skipped = [r for r in report.results if r.status == "skipped"]
        assert len(skipped) == 2  # buckets + marginals for n=4 at p=7
        assert {r.check_id for r in skipped} == {"fiber_buckets", "fiber_marginals"}


    def test_rows_cover_both_sides_in_key_order(self, monkeypatch):
        expected_fiber_table = verify.expected_fiber_table

        def moved(n, p, minor_counts):
            table = expected_fiber_table(n, p, minor_counts)
            table[(0, 3)] = table.pop((0, 2))
            return table

        field = ffield.PrimeField(3)
        rows = verify.fiber_rows(2, field, 10**4, {})
        assert rows == [(0, 0, 1, 1), (0, 1, 2, 2), (0, 2, 6, 6), (1, 1, 6, 6), (1, 2, 12, 12)]
        monkeypatch.setattr(verify, "expected_fiber_table", moved)
        rows = verify.fiber_rows(2, field, 10**4, {})
        assert rows[2:4] == [(0, 2, 6, 0), (0, 3, 0, 6)]


class TestProjective:
    def test_small_pass(self):
        report = verify.verify_projective(3, [3, 5])
        assert len(report.results) == 3 + 6
        assert not report.has_failures

    def test_symbolic_runs_even_when_counts_skipped(self):
        report = verify.verify_projective(12, [3], budget=10**5)
        divisibility = [r for r in report.results if r.check_id == "projective_divisibility"]
        assert len(divisibility) == 12
        assert all(r.status == "pass" for r in divisibility)
        counts = [r for r in report.results if r.check_id == "projective_count"]
        assert len(counts) == 12
        assert [r.status for r in counts] == ["pass"] * 4 + ["skipped"] * 8

    def test_only_nonzero_remainder_is_a_failure(self, monkeypatch):
        def patch_value(value):
            cls = motivic.MotivicClass(motivic.VarietyDescriptor.exact(1, 1), value, "recursion")
            monkeypatch.setattr(motivic, "class_exact", lambda n, k: cls)

        patch_value(L)  # not divisible by L - 1
        result = verify.verify_projective(1, [3], budget=0).results[0]
        assert result.status == "fail"
        assert result.actual.startswith("NonzeroRemainder: ")
        # A broken class is a program error, not a failed check.
        patch_value(None)
        with pytest.raises(AttributeError):
            verify.verify_projective(1, [3], budget=0)

    def test_non_divisible_class_fails_and_skips_its_counts(self, monkeypatch):
        wrong_full_rank_class_at_2(monkeypatch)
        results = verify.verify_projective(3, [3]).results
        assert len(results) == 3 + 3
        failed = [r for r in results if r.status == "fail"]
        assert [(r.check_id, r.params) for r in failed] == [("projective_divisibility", {"n": 2})]
        assert failed[0].expected == "exact division by L - 1"
        assert failed[0].actual.startswith("NonzeroRemainder: ")
        skipped = [(r.check_id, r.params, r.reason) for r in results if r.status == "skipped"]
        assert skipped == [("projective_count", {"n": 2, "p": 3}, "[n, n] is not divisible by L - 1")]

    def test_one_quotient_per_n(self, monkeypatch):
        calls = []
        projective_full_rank = motivic.projective_full_rank

        def counted(n):
            calls.append(n)
            return projective_full_rank(n)

        monkeypatch.setattr(motivic, "projective_full_rank", counted)
        report = verify.verify_projective(3, [3, 5])
        assert [r.status for r in report.results] == ["pass"] * (3 + 6)
        assert calls == [1, 2, 3]

    def test_trivial_projective_point(self):
        report = verify.verify_projective(1, [3])
        count = [r for r in report.results if r.check_id == "projective_count"][0]
        assert count.status == "pass"
        assert count.actual == "1"


class TestReports:
    def test_summary_matches_tallies(self):
        report = verify.run_full_suite(2, 2, [3], budget=10**4)
        tally = {"pass": 0, "fail": 0, "skipped": 0}
        for r in report.results:
            tally[r.status] += 1
        assert report.summary == tally
        assert not report.has_failures

    def test_deterministic(self):
        a = verify.run_full_suite(2, 2, [3], budget=10**4)
        b = verify.run_full_suite(2, 2, [3], budget=10**4)
        assert a.results == b.results
        assert a.config == b.config

    def test_json_round_trip(self):
        report = verify.verify_formula_vs_recursion(1)
        data = json.loads(report.to_json())
        assert data["summary"] == report.summary
        assert len(data["results"]) == len(report.results)
        assert data["results"][0]["check_id"] == "closed_form_equals_recursion"
        assert data["config"] == {"max_n": 1}

    @pytest.mark.parametrize(
        "report",
        [
            verify.VerificationReport(
                [
                    verify.CheckResult("demo", {"n": 2, "k": 1}, "fail", "L - 1", "L + 1"),
                    verify.CheckResult("demo", {"n": 3, "p": 5}, "skipped", reason="over budget"),
                    verify.CheckResult("q\"uote", {"back\\slash": 1}, "pass", "a\nb", "\u00e9"),
                    verify.CheckResult("no_params", {}, "pass", "1", "1"),
                ],
                {"max_n": 3, "primes": [3, 5], "label": "caf\u00e9 \"\\\n"},
            ),
            verify.VerificationReport([], {"max_n": 0}),
            verify.VerificationReport([verify.CheckResult("demo", {"n": 1}, "pass", "1", "1")]),
            verify.VerificationReport([]),
        ],
        ids=["fail-skip-escapes-empty-params", "no-results", "no-config", "empty"],
    )
    def test_to_json_is_json_dumps_with_indent(self, report):
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)

    def test_default_suite_to_json_is_json_dumps_with_indent(self):
        report = verify.run_full_suite()
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)

    def test_failures_render_both_sides(self):
        result = verify._check("demo", {"n": 1}, [1, 2], [1, 3])
        assert result.status == "fail"
        assert result.expected == "[1, 2]"
        assert result.actual == "[1, 3]"

    def test_negative_budget_raises(self):
        with pytest.raises(ffield.InvalidBudget, match="budget must be >= 0, got -1"):
            verify.run_full_suite(1, 1, [3], -1)

    @pytest.mark.parametrize("budget", [-1, ffield.MAX_BUDGET + 1])
    def test_bad_budget_refused_before_any_check(self, budget, monkeypatch):
        def no_symbolic_work(*args, **kwargs):
            raise AssertionError("a check ran before the budget was refused")

        monkeypatch.setattr(motivic, "class_exact", no_symbolic_work)
        with pytest.raises(ffield.InvalidBudget):
            verify.run_full_suite(30, 5, (3,), budget)

    def test_bad_prime_refused_before_any_check(self, monkeypatch):
        def no_symbolic_work(*args, **kwargs):
            raise AssertionError("a check ran before the prime was refused")

        monkeypatch.setattr(motivic, "class_exact", no_symbolic_work)
        with pytest.raises(OddPrimeRequired):
            verify.run_full_suite(30, 5, (4,), 10**6)

    @pytest.mark.parametrize(
        "primes,named", [((3, 3), "3"), ([5, 3, 7, 5, 3], "3, 5")], ids=["one", "two"]
    )
    def test_repeated_prime_refused_before_any_check(self, primes, named, monkeypatch):
        # A repeated prime would walk each of its censuses twice.
        censuses = []

        def counting_census(n, field, budget=ffield.DEFAULT_BUDGET):
            censuses.append((n, field.p))
            raise AssertionError("a census ran before the repeated prime was refused")

        def no_symbolic_work(*args, **kwargs):
            raise AssertionError("a check ran before the repeated prime was refused")

        monkeypatch.setattr(ffield, "fiber_census", counting_census)
        monkeypatch.setattr(motivic, "class_exact", no_symbolic_work)
        with pytest.raises(ValueError, match=f"^primes repeat {named}$"):
            verify.run_full_suite(2, 2, primes, 10**6)
        assert censuses == []

    def test_summary_table_format(self):
        report = verify.run_full_suite(1, 1, [3], budget=10**4)
        table = verify.summary_table(report)
        assert table.endswith("result: PASS\n")
        assert "closed_form_equals_recursion" in table
        assert "total" in table


def test_each_space_walked_once_per_run(monkeypatch):
    walks = Counter()

    def counting(kind, fn):
        def shim(n, field, budget=ffield.DEFAULT_BUDGET):
            walks[(kind, n, field.p)] += 1
            return fn(n, field, budget)

        return shim

    monkeypatch.setattr(
        ffield, "enumerate_rank_counts", counting("histogram", ffield.enumerate_rank_counts)
    )
    monkeypatch.setattr(ffield, "fiber_census", counting("census", ffield.fiber_census))
    one_run = Counter(
        {("histogram", n, p): 1 for n in range(3) for p in (3, 5)}
        | {("census", n, p): 1 for n in range(1, 3) for p in (3, 5)}
    )
    first = verify.run_full_suite(2, 2, (3, 5))
    assert walks == one_run
    second = verify.run_full_suite(2, 2, (3, 5))
    assert walks == one_run + one_run
    assert first.to_json() == second.to_json()


def test_histogram_and_census_use_different_kernels(monkeypatch):
    # A fault planted in the census kernel alone must surface as a
    # marginal mismatch against the histogram kernel.
    batched_rank = ffield._batched_rank

    def zero_matrix_off_by_one(dense, field):
        ranks = batched_rank(dense, field)
        if dense.shape[0]:
            ranks = ranks + ~dense.any(axis=(0, 1))
        return ranks

    monkeypatch.setattr(ffield, "_batched_rank", zero_matrix_off_by_one)
    report = verify.run_full_suite(2, 2, (3,))
    statuses = Counter((r.check_id, r.status) for r in report.results)
    assert statuses[("fiber_marginals", "fail")] > 0
    assert statuses[("point_count_histogram", "pass")] == 3
    assert statuses[("point_count_histogram", "fail")] == 0


def histogram_statuses(report):
    return {
        r.params["n"]: r.status for r in report.results if r.check_id == "point_count_histogram"
    }


def test_walk_fault_fails_point_counts(monkeypatch):
    # Both kernels walk one minor per scaling orbit through the same
    # walker, so neither can catch a fault in it; a walk that drops one
    # nonzero orbit representative (minor index 1, there from n = 2 on)
    # must fail the point counts against the formula.
    minor_groups = ffield._minor_groups

    def drop_first_representative(k, width, group, span, p):
        for minors, weights, slices in minor_groups(k, width, group, span, p):
            kept = minors != 1
            if kept.any():
                yield minors[kept], weights[kept], slices

    monkeypatch.setattr(ffield, "_minor_groups", drop_first_representative)
    report = verify.run_full_suite(counting_max_n=3, primes=(3,))
    assert histogram_statuses(report) == {0: "pass", 1: "pass", 2: "fail", 3: "fail"}


def drop_first_moved_row(table, weights, p):
    # The first row with b != 0 (a border there from n = 2 on) is not walked.
    kept = np.ones(len(weights), dtype=bool)
    kept[np.flatnonzero(weights > 1)[:1]] = False
    return table[:, kept], weights[kept]


def first_row_moved(table, weights, p):
    # The row a = 0, b = 0 counts as an orbit of p - 1 rows. At n = 1 the
    # histogram's one border is that row, so the fault shows there too.
    weights = weights.copy()
    weights[:1] = p - 1
    return table, weights


@pytest.mark.parametrize(
    "fault,at_n1",
    [(drop_first_moved_row, "pass"), (first_row_moved, "fail")],
)
def test_row_walk_fault_fails_point_counts(monkeypatch, fault, at_n1):
    # The completing rows are walked by orbit of (a, b) -> (c^2 a, cb)
    # through the same walker as the minors; a walk that loses a row's
    # orbit or miscounts a row with b = 0 must fail the point counts
    # against the formula from n = 2 on.
    minor_groups = ffield._minor_groups

    def faulty_rows(k, width, group, span, p):
        for minors, minor_weights, slices in minor_groups(k, width, group, span, p):
            yield minors, minor_weights, [fault(table, weights, p) for table, weights in slices]

    monkeypatch.setattr(ffield, "_minor_groups", faulty_rows)
    report = verify.run_full_suite(counting_max_n=3, primes=(3,))
    assert histogram_statuses(report) == {0: "pass", 1: at_n1, 2: "fail", 3: "fail"}


def test_zero_minor_weight_fault_fails_every_count_it_reaches(monkeypatch):
    # The zero minor leads the walk's first run of minors with weight 1.
    # Counted as an orbit of p - 1 minors, it adds matrices of rank at most
    # 2 (of the histograms and censuses at every n, the full-rank count at
    # n <= 2), as first_row_moved does for the row with a = 0, b = 0.
    minor_groups = ffield._minor_groups

    def zero_minor_moved(k, width, group, span, p):
        for minors, weights, slices in minor_groups(k, width, group, span, p):
            yield minors, np.where(minors == 0, p - 1, weights), slices

    monkeypatch.setattr(ffield, "_minor_groups", zero_minor_moved)
    report = verify.run_full_suite(counting_max_n=3, primes=(3,))
    failed = {(r.check_id, r.params["n"]) for r in report.results if r.status == "fail"}
    counted = ("point_count_histogram", "fiber_buckets", "fiber_marginals")
    assert failed == {(check, n) for check in counted for n in (1, 2, 3)} | {
        ("projective_count", 1),
        ("projective_count", 2),
    }


def test_prediction_fault_fails_only_fiber_buckets(monkeypatch):
    # The fault that makes ``symrank fibers`` print MISMATCH fails the
    # suite's bucket check too; the marginals never read the prediction.
    expected_fiber_table = verify.expected_fiber_table

    def off_by_one(n, p, minor_counts):
        table = expected_fiber_table(n, p, minor_counts)
        table[(0, 0)] += 1
        return table

    monkeypatch.setattr(verify, "expected_fiber_table", off_by_one)
    report = verify.run_full_suite(2, 2, (3,))
    failed = Counter(r.check_id for r in report.results if r.status == "fail")
    assert failed == {"fiber_buckets": 2}
    statuses = Counter((r.check_id, r.status) for r in report.results)
    assert statuses[("fiber_marginals", "pass")] == 2
