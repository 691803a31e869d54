import itertools
import random

import numpy as np
import pytest

from symrank import ffield
from symrank.ffield import (
    BudgetExceeded,
    FiberCensus,
    OddPrimeRequired,
    PrimeField,
    RankHistogram,
    SymMatrix,
    _batched_rank,
    _dense_batch,
)


def det_mod(rows, cols, mat, p):
    """Determinant of the selected square submatrix via Leibniz expansion."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i, pi in enumerate(perm):
            term *= mat[rows[i]][cols[pi]]
        total += term
    return total % p


def rank_by_minors(mat, p):
    """Largest s with some nonvanishing s x s minor (independent oracle)."""
    n = len(mat)
    for s in range(n, 0, -1):
        for rows in itertools.combinations(range(n), s):
            for cols in itertools.combinations(range(n), s):
                if det_mod(rows, cols, mat, p) != 0:
                    return s
    return 0


class TestPrimeField:
    def test_accepts_odd_primes_in_range(self):
        for p in (3, 5, 7, 11, 97):
            field = PrimeField(p)
            assert field.p == p
            for x in range(1, p):
                assert field.inverse_table[x] * x % p == 1

    @pytest.mark.parametrize("bad", [2, 4, 9, 1, 0, -3, 99, 101])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(OddPrimeRequired):
            PrimeField(bad)


class TestSymMatrix:
    def test_dense_round_trip(self):
        m = SymMatrix.from_dense([[1, 2, 0], [2, 1, 1], [0, 1, 2]])
        assert m.entries == (1, 2, 0, 1, 1, 2)
        assert m.to_dense() == [[1, 2, 0], [2, 1, 1], [0, 1, 2]]
        assert m.minor().to_dense() == [[1, 1], [1, 2]]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix.from_dense([[0, 1], [2, 0]])

    def test_rejects_bad_entry_count(self):
        with pytest.raises(ValueError):
            SymMatrix(2, (1, 2))

    def test_from_index_digit_order(self):
        # first packed entry (the (0,0) cell) is the least-significant digit
        m = SymMatrix.from_index(2, 3, 1)
        assert m.entries == (1, 0, 0)
        m = SymMatrix.from_index(2, 3, 3)
        assert m.entries == (0, 1, 0)
        with pytest.raises(ValueError):
            SymMatrix.from_index(2, 3, 27)

    def test_empty_matrix(self):
        m = SymMatrix(0, ())
        assert m.to_dense() == []
        assert ffield.rank(m, PrimeField(3)) == 0


class TestRank:
    def test_examples(self):
        f3, f5 = PrimeField(3), PrimeField(5)
        for n in range(1, 4):
            zero = SymMatrix(n, (0,) * (n * (n + 1) // 2))
            assert ffield.rank(zero, f3) == 0
        identity = SymMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert ffield.rank(identity, f5) == 3
        all_ones = SymMatrix.from_dense([[1, 1], [1, 1]])
        assert ffield.rank(all_ones, f3) == 1
        assert rank_by_minors(all_ones.to_dense(), 3) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_all_minors_oracle_exhaustively(self, n):
        f3 = PrimeField(3)
        for idx in range(3 ** (n * (n + 1) // 2)):
            m = SymMatrix.from_index(n, 3, idx)
            assert ffield.rank(m, f3) == rank_by_minors(m.to_dense(), 3)

    @pytest.mark.parametrize("n,p", [(1, 97), (2, 3), (2, 5), (3, 3), (3, 5), (4, 3)])
    def test_batched_matches_scalar_exhaustively(self, n, p):
        field = PrimeField(p)
        total = p ** (n * (n + 1) // 2)
        idx = np.arange(total, dtype=np.int64)
        batched = _batched_rank(_dense_batch(idx, n, p), field)
        for i in range(total):
            assert batched[i] == ffield.rank(SymMatrix.from_index(n, p, i), field)

    @pytest.mark.parametrize("n,p", [(4, 7), (5, 97), (6, 11)])
    def test_batched_matches_scalar_randomized(self, n, p):
        rng = random.Random(n * 1000 + p)
        field = PrimeField(p)
        mats = [
            SymMatrix(n, tuple(rng.randrange(p) for _ in range(n * (n + 1) // 2)))
            for _ in range(150)
        ]
        dense = np.array([m.to_dense() for m in mats], dtype=np.int32)
        batched = _batched_rank(np.moveaxis(dense, 0, -1), field)
        for m, r in zip(mats, batched):
            assert r == ffield.rank(m, field)

    def test_batched_edge_cases(self):
        field = PrimeField(5)
        sizes = _batched_rank(_dense_batch(np.arange(4, dtype=np.int64), 0, 5), field)
        assert sizes.tolist() == [0, 0, 0, 0]
        empty = _batched_rank(_dense_batch(np.arange(0, dtype=np.int64), 3, 5), field)
        assert empty.shape == (0,)


class TestEnumerateRankCounts:
    def test_examples(self):
        assert ffield.enumerate_rank_counts(1, PrimeField(3)).counts == (1, 2)
        assert ffield.enumerate_rank_counts(2, PrimeField(3)).counts == (1, 8, 18)
        assert ffield.enumerate_rank_counts(2, PrimeField(5)).counts == (1, 24, 100)

    def test_degenerate_size_zero(self):
        assert ffield.enumerate_rank_counts(0, PrimeField(3)).counts == (1,)

    def test_totals(self):
        hist = ffield.enumerate_rank_counts(3, PrimeField(3))
        assert hist.total() == 3**6
        assert hist.counts[0] == 1

    def test_budget_refusal_carries_required_size(self):
        with pytest.raises(BudgetExceeded) as excinfo:
            ffield.enumerate_rank_counts(3, PrimeField(3), budget=100)
        assert excinfo.value.required == 3**6
        assert excinfo.value.budget == 100

    def test_budget_above_int64_cap_refused(self):
        field = PrimeField(3)
        assert ffield.enumerate_rank_counts(1, field, budget=ffield.MAX_BUDGET).counts == (1, 2)
        over = ffield.MAX_BUDGET + 1
        for enumerate_space in (
            lambda: ffield.enumerate_rank_counts(1, field, budget=over),
            lambda: ffield.fiber_census(1, field, budget=over),
            lambda: ffield.partitioned_enumeration(1, field, 2, budget=over),
        ):
            with pytest.raises(ValueError, match="budget must be <="):
                enumerate_space()


class TestCompletionsCensus:
    def test_examples(self):
        f3 = PrimeField(3)
        assert ffield.completions_census(SymMatrix(1, (0,)), f3) == {0: 1, 1: 2, 2: 6}
        assert ffield.completions_census(SymMatrix(1, (1,)), f3) == {1: 3, 2: 6}
        identity2 = SymMatrix.from_dense([[1, 0], [0, 1]])
        assert ffield.completions_census(identity2, f3) == {2: 9, 3: 18}

    def test_degenerate_empty_minor(self):
        assert ffield.completions_census(SymMatrix(0, ()), PrimeField(3)) == {0: 1, 1: 2}

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("minor_n", [0, 1, 2])
    def test_bucket_closed_forms_all_small_minors(self, minor_n, p):
        field = PrimeField(p)
        n = minor_n + 1
        for idx in range(p ** (minor_n * (minor_n + 1) // 2)):
            minor = SymMatrix.from_index(minor_n, p, idx)
            r = ffield.rank(minor, field)
            expected = {
                s: c
                for s, c in (
                    (r, p**r),
                    (r + 1, p**r * (p - 1)),
                    (r + 2, p**n - p ** (r + 1)),
                )
                if s <= n and c
            }
            assert ffield.completions_census(minor, field) == expected

    def test_bucket_closed_forms_size_three_minors(self):
        field = PrimeField(3)
        for idx in range(3**6):
            minor = SymMatrix.from_index(3, 3, idx)
            r = ffield.rank(minor, field)
            census = ffield.completions_census(minor, field)
            assert sum(census.values()) == 3**4
            expected = {
                s: c
                for s, c in ((r, 3**r), (r + 1, 3**r * 2), (r + 2, 3**4 - 3 ** (r + 1)))
                if s <= 4 and c
            }
            assert census == expected

    def test_cap_refusal(self):
        minor = SymMatrix(9, (0,) * 45)
        with pytest.raises(BudgetExceeded):
            ffield.completions_census(minor, PrimeField(7))


class TestFiberCensus:
    def test_small_table(self):
        census = ffield.fiber_census(2, PrimeField(3))
        assert census.table == {(0, 0): 1, (0, 1): 2, (0, 2): 6, (1, 1): 6, (1, 2): 12}
        assert census.total() == 27

    def test_degenerate_minor(self):
        census = ffield.fiber_census(1, PrimeField(3))
        assert census.table == {(0, 0): 1, (0, 1): 2}

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 3), (3, 5)])
    def test_buckets_scale_with_minor_counts(self, n, p):
        field = PrimeField(p)
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
        assert census.table == expected

    @pytest.mark.parametrize("n,p", [(3, 3), (2, 5)])
    def test_chunk_boundaries_inside_minor_runs(self, n, p, monkeypatch):
        # A chunk size that does not divide p^n splits runs of completions
        # that share one minor across chunks.
        field = PrimeField(p)
        whole = ffield.fiber_census(n, field)
        monkeypatch.setattr(ffield, "_CHUNK", 7)
        assert ffield.fiber_census(n, field) == whole

    def test_marginals(self):
        field = PrimeField(3)
        census = ffield.fiber_census(3, field)
        full = [0] * 4
        minor = [0] * 3
        for (r, s), c in census.table.items():
            full[s] += c
            minor[r] += c
        assert tuple(full) == ffield.enumerate_rank_counts(3, field).counts
        minor_hist = ffield.enumerate_rank_counts(2, field)
        assert minor == [3**3 * n_r for n_r in minor_hist.counts]


class TestProjectiveCount:
    def test_examples(self):
        assert ffield.projective_count(1, PrimeField(3)) == 1
        assert ffield.projective_count(2, PrimeField(3)) == 9
        assert ffield.projective_count(2, PrimeField(5)) == 25


class TestPartitionedEnumeration:
    def test_partition_by_first_entry(self):
        parts = ffield.partitioned_enumeration(2, PrimeField(3), 3)
        assert len(parts) == 3
        merged = [sum(p.counts[k] for p in parts) for k in range(3)]
        assert merged == [1, 8, 18]

    def test_single_part(self):
        parts = ffield.partitioned_enumeration(1, PrimeField(3), 1)
        assert [p.counts for p in parts] == [(1, 2)]

    def test_full_split_into_singletons(self):
        parts = ffield.partitioned_enumeration(2, PrimeField(3), 27)
        assert len(parts) == 27
        assert all(p.total() == 1 for p in parts)
        merged = [sum(p.counts[k] for p in parts) for k in range(3)]
        assert merged == [1, 8, 18]

    def test_part_count_rounds_up_to_power_of_p(self):
        parts = ffield.partitioned_enumeration(2, PrimeField(3), 5)
        assert len(parts) == 9
        merged = [sum(p.counts[k] for p in parts) for k in range(3)]
        assert merged == [1, 8, 18]

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            ffield.partitioned_enumeration(2, PrimeField(3), 0)


class TestCsvEmission:
    def test_rank_histogram_csv(self):
        hist = RankHistogram(2, 3, (1, 8, 18))
        assert hist.to_csv() == "n,p,k,count\n2,3,0,1\n2,3,1,8\n2,3,2,18\n"

    def test_fiber_census_csv_sorted(self):
        census = FiberCensus(2, 3, {(1, 2): 12, (0, 0): 1, (0, 1): 2, (1, 1): 6, (0, 2): 6})
        assert census.to_csv() == (
            "n,p,minor_rank,full_rank,count\n"
            "2,3,0,0,1\n"
            "2,3,0,1,2\n"
            "2,3,0,2,6\n"
            "2,3,1,1,6\n"
            "2,3,1,2,12\n"
        )
