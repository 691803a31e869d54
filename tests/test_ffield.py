import ast
import itertools
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference
from reference import SymMatrix
from symrank import ffield, verify
from symrank.ffield import (
    BudgetExceeded,
    InvalidBudget,
    OddPrimeRequired,
    PrimeField,
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


def unpack_bits(words, width):
    """The first ``width`` bits of each row of packed words, as bools."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :width].astype(bool)


def bordered_pairs(n, field):
    """The histogram kernel's (minor, border) pairs in packed-index order
    over the walked minors and borders, as three flat arrays: base = r +
    2 [outside], corner_free = not outside, and the weight, the minor's
    orbit size times the border's. The ranks are each group's from
    :func:`ffield._reduce_minors`, and the outside bits the words of each
    run (:func:`ffield._any_row`), unpacked and placed by the kernel's
    order: group by group, slice by slice, run by run. No border of weight
    other than p - 1 may be outside, and the histogram must equal the
    pairs' corners tallied by weight."""
    minor_groups, reduce_minors, any_row = (
        ffield._minor_groups,
        ffield._reduce_minors,
        ffield._any_row,
    )
    groups = []

    def recording_groups(*args):
        for group in minor_groups(*args):
            groups.append((group, [], []))
            yield group

    def recording_reduce_minors(minors, k, field):
        rank, keys = reduce_minors(minors, k, field)
        groups[-1][1].append(rank)
        return rank, keys

    def recording_any_row(table, where):
        words = any_row(table, where)
        groups[-1][2].append(words)
        return words

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ffield, "_minor_groups", recording_groups)
        patch.setattr(ffield, "_reduce_minors", recording_reduce_minors)
        patch.setattr(ffield, "_any_row", recording_any_row)
        histogram = ffield.enumerate_rank_counts(n, field, budget=ffield.MAX_BUDGET)
    p = field.p
    base, corner_free, weights = [], [], []
    for (minors, minor_weights, slices), [minor_rank], runs in groups:
        runs = iter(runs)
        columns = []
        for _, border_weights in slices:
            column = []
            while sum(map(len, column)) < len(minors):
                column.append(unpack_bits(next(runs), len(border_weights)))
            columns.append(np.concatenate(column))
        assert next(runs, None) is None
        bits = np.concatenate(columns, axis=1)
        border_weights = np.concatenate([w for _, w in slices])
        assert not bits[:, border_weights != p - 1].any()
        base.append((minor_rank[:, None] + 2 * bits).ravel())
        corner_free.append(~bits.ravel())
        weights.append(np.outer(minor_weights, border_weights).ravel())
    base, corner_free, weights = map(np.concatenate, (base, corner_free, weights))
    # A pair's p corners: all at base, or one at base and p - 1 above it.
    counts = np.zeros(n + 2, dtype=np.int64)
    np.add.at(counts, base, np.where(corner_free, 1, p) * weights)
    np.add.at(counts, base[corner_free] + 1, (p - 1) * weights[corner_free])
    assert tuple(counts.tolist()) == histogram.counts + (0,)
    return base, corner_free, weights


def walked_rows(slices, p):
    """The packed indices and the weights of the rows of a walk's slices."""
    tables, weights = zip(*slices)
    table = np.concatenate(tables, axis=1)
    return p ** np.arange(len(table), dtype=np.int64) @ table, np.concatenate(weights)


def walked_matrices(n, p):
    """The packed indices of the p corners of every border the walk takes
    over each minor it takes, in packed order, and the weight of each."""
    groups = list(ffield._minor_groups(n - 1, n - 1, ffield._CHUNK, ffield._CHUNK, p))
    minors = np.concatenate([minors for minors, _, _ in groups])
    weights = np.concatenate([weights for _, weights, _ in groups])
    borders, border_weights = walked_rows(groups[0][2], p)
    rows = (borders[:, None] * p + np.arange(p)).ravel()  # the corner is the low digit
    idx = (minors[:, None] * p**n + rows).ravel()
    return idx, np.repeat(np.outer(weights, border_weights).ravel(), p)


def assert_rows_stand_for_every_row_once(k, width, p, slices):
    """Each walked row (a, b), a its low width - k digits and b its top k,
    stands for itself when b = 0 and for its orbit {(c^2 a, cb)} under
    congruence by diag(c, 1, ..., 1) when b != 0, where the highest nonzero
    digit of b is 1. These sets must cover all p^width rows exactly once,
    each row's weight the size of its set."""
    covered = []
    for table, weights in slices:
        for digits, weight in zip(table.T.tolist(), weights.tolist()):
            a, b = digits[: width - k], digits[width - k :]
            if any(b):
                assert [d for d in b if d][-1] == 1
            scales = range(1, p) if any(b) else [1]
            orbit = {tuple([c * c * d % p for d in a] + [c * d % p for d in b]) for c in scales}
            assert weight == len(orbit)
            covered.extend(orbit)
    assert sum(weights.sum() for _, weights in slices) == p**width
    assert len(set(covered)) == len(covered) == p**width


def assert_pairs_rank_their_corners(n, field):
    """Ranks the p corners of every walked (minor, border) pair with
    _batched_rank, in packed order, and requires each pair's corners,
    sorted, to rank [base] * p, or [base] + [base + 1] * (p - 1) when the
    pair is corner-free, and each pair to carry its weight. Returns the
    ranks and the weight of each."""
    p = field.p
    idx, weights = walked_matrices(n, p)
    ranks = _batched_rank(_dense_batch(idx, n, p), field)
    base, corner_free, pair_weights = bordered_pairs(n, field)
    expected = np.repeat(base[:, None], p, axis=1)
    expected[:, 1:] += corner_free[:, None]
    assert np.array_equal(np.sort(ranks.reshape(-1, p), axis=1), expected)
    assert np.array_equal(np.repeat(pair_weights, p), weights)
    return ranks, weights


# Shapes where the row walk's c^2 moves the corner a (over F_3 every c^2
# is 1), up to 7^6 matrices: a chunk of 5 cuts the census's p rows with
# b = 0 across a slice, beside the first rows with b != 0.
C2_MOVES_CORNER = [(n, p, chunk) for n, p in [(2, 7), (3, 7), (2, 13)] for chunk in (5, None)]


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
        assert reference.rank(m, PrimeField(3)) == 0


class TestRank:
    def test_examples(self):
        f3, f5 = PrimeField(3), PrimeField(5)
        for n in range(1, 4):
            zero = SymMatrix(n, (0,) * (n * (n + 1) // 2))
            assert reference.rank(zero, f3) == 0
        identity = SymMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert reference.rank(identity, f5) == 3
        all_ones = SymMatrix.from_dense([[1, 1], [1, 1]])
        assert reference.rank(all_ones, f3) == 1
        assert rank_by_minors(all_ones.to_dense(), 3) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_all_minors_oracle_exhaustively(self, n):
        f3 = PrimeField(3)
        for idx in range(3 ** (n * (n + 1) // 2)):
            m = SymMatrix.from_index(n, 3, idx)
            assert reference.rank(m, f3) == rank_by_minors(m.to_dense(), 3)

    @pytest.mark.parametrize("n,p", [(1, 97), (2, 3), (2, 5), (3, 3), (3, 5), (4, 3)])
    def test_batched_matches_scalar_exhaustively(self, n, p):
        field = PrimeField(p)
        total = p ** (n * (n + 1) // 2)
        idx = np.arange(total, dtype=np.int64)
        batched = _batched_rank(_dense_batch(idx, n, p), field)
        for i in range(total):
            assert batched[i] == reference.rank(SymMatrix.from_index(n, p, i), field)

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
            assert r == reference.rank(m, field)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_batched_leaves_input_unchanged(self, dtype):
        field = PrimeField(7)
        dense = _dense_batch(np.arange(7**6, dtype=np.int64), 3, 7).astype(dtype)
        before = dense.copy()
        _batched_rank(dense, field)
        assert dense.dtype == dtype
        assert np.array_equal(dense, before)

    def test_batched_edge_cases(self):
        field = PrimeField(5)
        sizes = _batched_rank(_dense_batch(np.arange(4, dtype=np.int64), 0, 5), field)
        assert sizes.tolist() == [0, 0, 0, 0]
        empty = _batched_rank(_dense_batch(np.arange(0, dtype=np.int64), 3, 5), field)
        assert empty.shape == (0,)


class TestMinorGroups:
    # (0, 1, 3) is the census at n = 1 (no minor, no border); the rows
    # walked are below every span but 1 at (1, 1, 5), above 7 and 100 at
    # (1, 3, 11) and (2, 3, 7), the census at (3, 7), and above _CHUNK at
    # (0, 3, 97).
    @pytest.mark.parametrize(
        "k,width,p,span",
        [
            (k, width, p, span)
            for k, width, p in [
                (0, 1, 3), (0, 0, 5), (1, 1, 5), (2, 2, 3), (1, 3, 7), (1, 3, 11), (2, 3, 7)
            ]
            for span in [1, 7, 100, 1 << 16]
        ]
        + [(0, 3, 97, 1 << 16)],
    )
    def test_visits_every_matrix_once_in_packed_order(self, k, width, p, span):
        # Every walked row over each walked minor, each once, in packed
        # order, and the same rows, with the same weights, for every minor.
        digits = p ** np.arange(width, dtype=np.int64)
        walked, visited = [], []
        groups = list(ffield._minor_groups(k, width, span, span, p))
        rows, weights = walked_rows(groups[0][2], p)
        for minors, _, slices in groups:
            walked.append(minors)
            # Each group's matrices, minor-major over all of its slices.
            over_slices = [minors[:, None] * p**width + digits @ table for table, _ in slices]
            visited.append(np.concatenate(over_slices, axis=1).ravel())
            assert len(minors) <= span
            for table, table_weights in slices:
                assert 0 < table.shape[1] <= span
                assert table_weights.shape == (table.shape[1],)
            assert np.array_equal(walked_rows(slices, p)[1], weights)
        over_walked = np.concatenate(walked)[:, None] * p**width + rows
        assert np.array_equal(np.concatenate(visited), over_walked.ravel())
        assert rows.tolist() == sorted(set(rows.tolist()))
        assert weights.sum() == p**width

    @pytest.mark.parametrize("span", [1, 7, 100])
    @pytest.mark.parametrize("k,p", [(0, 3), (1, 5), (2, 3), (2, 5), (3, 3), (1, 7)])
    def test_orbit_walk_takes_one_minor_per_scaling_orbit(self, k, p, span):
        t = k * (k + 1) // 2
        groups = list(ffield._minor_groups(k, k + 1, span, span, p))
        # The census's rows: p corners each for b = 0 and for one border b
        # per orbit of b -> cb, in p^(k+1) rows altogether.
        rows = p * (1 + (p**k - 1) // (p - 1))
        assert_rows_stand_for_every_row_once(k, k + 1, p, groups[0][2])
        assert walked_rows(groups[0][2], p)[0].shape == (rows,)
        minors = np.concatenate([group for group, _, _ in groups]).tolist()
        assert len(minors) == 1 + (p**t - 1) // (p - 1)
        assert minors == sorted(set(minors))
        # The zero minor is an orbit of its own and leads the first group;
        # the groups are cut from one sequence, so only the last may be short.
        assert minors[0] == 0
        assert all(len(group) == span for group, _, _ in groups[:-1])
        weights = 0
        multiples = set()
        for group, group_weights, _ in groups:
            assert group_weights.tolist() == [p - 1 if m else 1 for m in group.tolist()]
            weights += group_weights.sum()
            for m in group.tolist():
                entries = SymMatrix.from_index(k, p, m).entries
                if m:
                    assert [e for e in entries if e][-1] == 1
                multiples |= {tuple(c * e % p for e in entries) for c in range(1, p)}
        assert weights == p**t
        assert len(multiples) == p**t  # the orbits cover every minor

    def test_walk_holds_one_group_of_minors(self):
        # The walk cuts each group from the ranges [p^t, 2 p^t) as it is
        # asked for. At (4, 5), in the histogram's groups at _CHUNK = 100
        # (100 // 3 minors), its traced peak stays below half of what its
        # 3,907 minor indices would take at once.
        tracemalloc.start()
        try:
            for minors, _, _ in ffield._minor_groups(3, 3, 100 // 3, 7, 5):
                assert len(minors) <= 100 // 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3907 * 8 // 2


class TestBorderedKernel:
    # (2, 97) is the largest field, where int16 elimination is tightest.
    # n = 0 has no corner to tally: its histogram is returned before any walk.
    @pytest.mark.parametrize(
        "n,p", [(0, 5), (0, 97), (1, 97), (2, 13), (2, 97), (3, 5), (4, 3)]
    )
    def test_matches_batched_matrix_for_matrix(self, n, p):
        field = PrimeField(p)
        if n == 0:
            assert _batched_rank(_dense_batch(np.arange(1), 0, p), field).tolist() == [0]
            assert ffield.enumerate_rank_counts(0, field).counts == (1,)
            return
        assert_pairs_rank_their_corners(n, field)

    @pytest.mark.parametrize("chunk", [7, 1, 100, 3, 50])
    @pytest.mark.parametrize("n,p", [(3, 3), (2, 5)])
    def test_chunk_size_changes_no_rank(self, n, p, chunk, monkeypatch):
        # The walk takes 5 borders at (3, 3) and 2 at (2, 5): 3 and 1
        # split each minor's borders across chunks (1 down to one border
        # per chunk), 7 holds them in one; 100 groups all 13 nonzero walked
        # minors at (3, 3) in one chunk and 50 in groups of 10 and 3; at
        # (2, 5) the walk holds only the minors 0 and 1.
        field = PrimeField(p)
        whole = ffield.enumerate_rank_counts(n, field)
        pairs = bordered_pairs(n, field)
        monkeypatch.setattr(ffield, "_CHUNK", chunk)
        assert ffield.enumerate_rank_counts(n, field) == whole
        for chunked, whole_walk in zip(bordered_pairs(n, field), pairs):
            assert np.array_equal(chunked, whole_walk)

    @pytest.mark.parametrize("chunk", [7, 1, 100, 3])
    @pytest.mark.parametrize("n,p", [(3, 3), (2, 5), (3, 5)])
    def test_corner_tally_equals_per_matrix_ranks(self, n, p, chunk, monkeypatch):
        # The histogram tallies each pair's p corners without ranking them
        # one by one; each pair must rank its own corners, and the
        # histogram must equal the bincount of the ranks, each counted
        # once per member of its orbit. At (3, 5) a minor's 7 walked
        # borders fill a chunk of 7 and span 3 chunks of 3 and 7 of 1.
        monkeypatch.setattr(ffield, "_CHUNK", chunk)
        field = PrimeField(p)
        ranks, weights = assert_pairs_rank_their_corners(n, field)
        expected = tuple(np.bincount(np.repeat(ranks, weights), minlength=n + 1).tolist())
        assert ffield.enumerate_rank_counts(n, field).counts == expected

    @pytest.mark.parametrize("k,p", [(1, 97), (2, 13), (3, 3), (3, 5)])
    def test_reduce_minors_keys_span_the_left_kernel(self, k, p):
        # Decoded, the keys of each walked minor N of rank r are a map Z
        # with Z N = 0 whose k - r nonzero rows are independent: they span
        # the left kernel, whose dimension is k - r.
        field = PrimeField(p)
        groups = ffield._minor_groups(k, k, ffield._CHUNK, ffield._CHUNK, p)
        minors = np.concatenate([group for group, _, _ in groups])
        rank, keys = ffield._reduce_minors(minors, k, field)
        assert keys.shape == (k, len(minors))
        dense = _dense_batch(minors, k, p)
        assert np.array_equal(rank, _batched_rank(dense, field))
        kernel = ffield._decode_digits(keys.ravel(), k, p).reshape(k, k, -1).transpose(1, 0, 2)
        assert not (np.einsum("ijm,jlm->ilm", kernel.astype(np.int64), dense) % p).any()
        assert np.array_equal((keys != 0).sum(axis=0), k - rank)
        assert np.array_equal(_batched_rank(kernel, field), k - rank)

    def test_planted_kernel_fault_changes_the_histogram(self, monkeypatch):
        # Zeroing one nonzero row of Z for one nonzero rank-deficient minor
        # hides the borders that only that row sees from the histogram.
        reduce_minors = ffield._reduce_minors
        planted = []

        def faulty(minors, k, field):
            rank, keys = reduce_minors(minors, k, field)
            deficient = np.flatnonzero((0 < rank) & (rank < k))
            if not planted and len(deficient):
                j = deficient[0]
                keys = keys.copy()
                keys[np.flatnonzero(keys[:, j])[0], j] = 0
                planted.append(minors[j])
            return rank, keys

        field = PrimeField(5)
        expected = reference.full_walk_histogram(3, field)
        assert ffield.enumerate_rank_counts(3, field) == expected
        monkeypatch.setattr(ffield, "_reduce_minors", faulty)
        assert ffield.enumerate_rank_counts(3, field) != expected
        assert len(planted) == 1

    def test_one_elimination_per_walk_at_4_5(self, monkeypatch):
        # The oracle's (4, 5) histogram eliminates its 3,907 walked minors,
        # the zero minor among them, in one call at the default _CHUNK.
        reduce_minors = ffield._reduce_minors
        reduced = []

        def recording_reduce(minors, k, field):
            reduced.append(len(minors))
            return reduce_minors(minors, k, field)

        monkeypatch.setattr(ffield, "_reduce_minors", recording_reduce)
        ffield.enumerate_rank_counts(4, PrimeField(5))
        assert reduced == [1 + (5**6 - 1) // 4] == [3907]

    @pytest.mark.parametrize("width", [1, 7, 63, 64, 65, 130])
    def test_pack_bits_round_trip(self, width):
        # Bit j of word w is column 64 w + j, and the pad bits are 0.
        bits = np.random.default_rng(width).random((5, width)) < 0.5
        words = ffield._pack_bits(bits)
        assert words.shape == (5, -(-width // 64))
        assert np.array_equal(unpack_bits(words, width), bits)
        assert np.bitwise_count(words).sum() == bits.sum()

    def test_planted_pad_bit_fault_changes_the_histogram(self, monkeypatch):
        # The 7 walked borders of (3, 5) fill 7 bits of a word. Bits past
        # the last border are counted as they are, so they must be 0: set,
        # they count as outside pairs that do not exist.
        nonzero_table = ffield._nonzero_table

        def padded(rows, borders, p):
            table = nonzero_table(rows, borders, p)
            return table | ~ffield._pack_bits(np.ones((1, borders.shape[1]), dtype=bool))

        field = PrimeField(5)
        expected = reference.full_walk_histogram(3, field)
        assert ffield.enumerate_rank_counts(3, field) == expected
        monkeypatch.setattr(ffield, "_nonzero_table", padded)
        assert ffield.enumerate_rank_counts(3, field) != expected

    def test_outside_bits_across_words(self, monkeypatch):
        # At (3, 67) the walk takes 69 borders, two words a row once one
        # slice holds them all (_CHUNK = 2^18). Each pair's bit must say
        # whether its corner-0 matrix [[0, b^T], [b, N]] has rank r + 2,
        # and the point counts must equal the formula.
        monkeypatch.setattr(ffield, "_CHUNK", 1 << 18)
        n, p = 3, 67
        field = PrimeField(p)
        base, corner_free, _ = bordered_pairs(n, field)
        groups = list(ffield._minor_groups(n - 1, n - 1, ffield._CHUNK, ffield._CHUNK, p))
        borders, _ = walked_rows(groups[0][2], p)
        assert len(borders) == 69
        minors = np.concatenate([minors for minors, _, _ in groups])
        idx = (minors[:, None] * p**n + borders * p).ravel()  # corner a = 0
        ranks = _batched_rank(_dense_batch(idx, n, p), field)
        outside = ~corner_free
        assert np.array_equal(ranks == base - 2 * outside + 2, outside)
        report = verify.verify_point_counts(n, (p,), budget=p**6)
        assert [r.status for r in report.results] == ["pass"] * (n + 1)

    def test_dot_products_exact_in_float32(self):
        # The dot table's float32 matmul is exact while a dot product of
        # two vectors of n - 1 entries in [0, p), at most (n-1)(p-1)^2, is
        # below 2^24, and _reduce_minors' int32 keys while p^(n-1) is
        # below 2^31, for every space an accepted budget can admit.
        spaces = 0
        for p in (p for p in range(3, 98, 2) if ffield._is_prime(p)):
            n = 2
            while p ** (n * (n + 1) // 2) <= ffield.MAX_BUDGET:
                assert (n - 1) * (p - 1) ** 2 < 2**24
                assert p ** (n - 1) < 2**31
                spaces += 1
                n += 1
        assert spaces >= 24  # at least n = 2 and 3 for each of the 24 primes


class TestEnumerateRankCounts:
    def test_examples(self):
        assert ffield.enumerate_rank_counts(1, PrimeField(3)).counts == (1, 2)
        assert ffield.enumerate_rank_counts(2, PrimeField(3)).counts == (1, 8, 18)
        assert ffield.enumerate_rank_counts(2, PrimeField(5)).counts == (1, 24, 100)

    def test_degenerate_size_zero(self):
        assert ffield.enumerate_rank_counts(0, PrimeField(3)).counts == (1,)

    def test_totals(self):
        hist = ffield.enumerate_rank_counts(3, PrimeField(3))
        assert sum(hist.counts) == 3**6
        assert hist.counts[0] == 1

    # The grid of the census's full-walk test, and the largest field.
    @pytest.mark.parametrize(
        "n,p,chunk",
        [(n, p, chunk) for n in (1, 2, 3) for p in (3, 5) for chunk in (1, 7, 100)]
        + [(4, 3, 7), (4, 3, 100), (2, 97, None)]
        + C2_MOVES_CORNER,
    )
    def test_orbit_histogram_equals_full_walk(self, n, p, chunk, monkeypatch):
        field = PrimeField(p)
        expected = reference.full_walk_histogram(n, field)
        if chunk is not None:
            monkeypatch.setattr(ffield, "_CHUNK", chunk)
        assert ffield.enumerate_rank_counts(n, field) == expected

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
        ):
            with pytest.raises(ValueError, match="budget must be <="):
                enumerate_space()
        # A negative budget is a bad argument, not a refusal of a 3-matrix space.
        for enumerate_space in (
            ffield.enumerate_rank_counts,
            ffield.fiber_census,
            ffield.projective_count,
        ):
            with pytest.raises(InvalidBudget, match="budget must be >= 0"):
                enumerate_space(1, field, budget=-1)


class TestFiberCensus:
    def test_small_table(self):
        census = ffield.fiber_census(2, PrimeField(3))
        assert census.table == {(0, 0): 1, (0, 1): 2, (0, 2): 6, (1, 1): 6, (1, 2): 12}
        assert sum(census.table.values()) == 27

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

    @pytest.mark.parametrize("chunk", [7, 1, 100])
    @pytest.mark.parametrize("n,p", [(3, 3), (2, 5)])
    def test_chunk_boundaries_inside_minor_runs(self, n, p, chunk, monkeypatch):
        # The walk takes 15 completing rows at (3, 3) and 10 at (2, 5): 7
        # and 1 split each minor's rows across chunks (1 down to one matrix
        # per chunk); 100 groups 6 whole minors per chunk at (3, 3), where
        # the last group is short, and at (2, 5) the walk holds only the
        # minors 0 and 1.
        field = PrimeField(p)
        whole = ffield.fiber_census(n, field)
        monkeypatch.setattr(ffield, "_CHUNK", chunk)
        assert ffield.fiber_census(n, field) == whole

    # At (4, 3) a chunk of 1 would take 29,565 one-matrix kernel calls
    # (about 8 s); (3, 3) and (3, 5) already split every fiber that far.
    @pytest.mark.parametrize(
        "n,p,chunk",
        [(n, p, chunk) for n in (1, 2, 3) for p in (3, 5) for chunk in (1, 7, 100)]
        + [(4, 3, 7), (4, 3, 100)]
        + C2_MOVES_CORNER,
    )
    def test_orbit_census_equals_full_walk(self, n, p, chunk, monkeypatch):
        field = PrimeField(p)
        expected = reference.full_walk_census(n, field)
        if chunk is not None:
            monkeypatch.setattr(ffield, "_CHUNK", chunk)
        assert ffield.fiber_census(n, field) == expected

    @pytest.mark.parametrize("chunk", [None, 7, 1, 100])
    def test_batches_bounded_by_chunk(self, chunk, monkeypatch):
        # The budget bounds memory as well as visits: no batch the census
        # ranks, of completions or of minors, holds more than _CHUNK
        # matrices, in spaces larger than _CHUNK.
        shapes = [(3, 7), (2, 97)] if chunk is None else [(3, 3), (2, 5)]
        if chunk is not None:
            monkeypatch.setattr(ffield, "_CHUNK", chunk)
        batched_rank = ffield._batched_rank
        sizes = []

        def recording(dense, field):
            sizes.append(dense.shape[2])
            return batched_rank(dense, field)

        monkeypatch.setattr(ffield, "_batched_rank", recording)
        # The histogram at size n eliminates at most _CHUNK // (n - 1)
        # minors at a time, tests each border slice against a dot table of
        # at most (n - 1) _CHUNK entries (distinct rows of Z by borders),
        # and holds at most _CHUNK (minor, border) pairs in a run's words.
        reduce_minors, nonzero_table, any_row = (
            ffield._reduce_minors, ffield._nonzero_table, ffield._any_row
        )
        reduced, table_sizes, widths, run_sizes = [], [], [], []

        def recording_reduce(minors, k, field):
            reduced.append(len(minors))
            return reduce_minors(minors, k, field)

        def recording_table(rows, borders, p):
            table_sizes.append(rows.shape[0] * borders.shape[1])
            widths.append(borders.shape[1])
            return nonzero_table(rows, borders, p)

        def recording_any_row(table, where):
            run_sizes.append(where.shape[1] * widths[-1])
            return any_row(table, where)

        monkeypatch.setattr(ffield, "_reduce_minors", recording_reduce)
        monkeypatch.setattr(ffield, "_nonzero_table", recording_table)
        monkeypatch.setattr(ffield, "_any_row", recording_any_row)
        for n, p in shapes:
            total = p ** (n * (n + 1) // 2)
            assert total > ffield._CHUNK
            assert sum(ffield.fiber_census(n, PrimeField(p)).table.values()) == total
            reduced.clear()
            table_sizes.clear()
            assert sum(ffield.enumerate_rank_counts(n, PrimeField(p)).counts) == total
            assert 0 < max(reduced) <= max(1, ffield._CHUNK // (n - 1))
            assert 0 < max(table_sizes) <= (n - 1) * ffield._CHUNK
        assert max(sizes) <= ffield._CHUNK
        assert max(run_sizes) <= ffield._CHUNK

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


def test_oracle_imports_only_stdlib_and_numpy():
    # The oracle stays independent of the symbolic layer it falsifies.
    tree = ast.parse(Path(ffield.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert {m.split(".")[0] for m in modules} <= sys.stdlib_module_names | {"numpy"}


def test_declared_numpy_has_bitwise_count():
    # The histogram counts each minor's outside pairs with
    # np.bitwise_count, which numpy has from 2.0 on, so the package must
    # not admit an older numpy.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert [int(major) for major in re.findall(r'"numpy>=(\d+)', pyproject)] == [2]
