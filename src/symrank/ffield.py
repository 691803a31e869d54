"""Brute-force counting oracle over small prime fields of odd characteristic.

Everything the symbolic layer claims is checked here by exact point
counting: every symmetric n x n matrix over F_p is counted, ranked by
Gaussian elimination or as a scalar multiple of one that is, and the
tallies compared against the polynomial predictions. Nothing in this
module knows the formulas it is used to falsify.

Matrices are packed as their upper triangle in row-major order, so entry
(0, 0) comes first, the rest of the first row next, and the minor
obtained by deleting the first row and column occupies the trailing
slots. Enumeration is lexicographic with the first packed entry varying
fastest, which makes every traversal reproducible.

The per-matrix work is vectorized with numpy. Both kernels share one
walk (:func:`_minor_groups`) and differ only in elimination. It takes
one (n-1) x (n-1) minor N per orbit of N -> cN, c in F_p^*, and over it
one completing row (a, b) per orbit of (a, b) -> (c^2 a, cb), congruence
by diag(c, 1, ..., 1); each tally counts once per member of the orbit,
except that a row with b = 0 stands for itself. Scaling maps the p^n
matrices over N one to one onto those over cN, congruence fixes N, and
both keep every rank, which is linear algebra, not the filtration the
oracle tests. The walk yields its minors in groups, the zero minor
leading the first, each minor with its orbit size, and one decoded table
of walked rows in slices. Rank histograms (:func:`enumerate_rank_counts`)
reduce a group of at most ``_CHUNK`` // (n-1) minors N at once, by forward
elimination, to their left-kernel maps Z, and then test each border b
(the first row and column below the corner) against them in a table,
per slice of borders, of its dot products with the distinct rows of the
group's maps: at most (n-1) ``_CHUNK`` entries, packed 64 borders to a
word. N is symmetric, so Z b != 0 gives rank r + 2 for every corner a,
and N x = b gives r + [a != x^T N x], r for exactly one a; each pair is
tallied once for all p corners without computing x. A minor's outside
borders take one bit count over at most ``_CHUNK`` pairs at a time,
weighed p - 1; b = 0 is never outside. The fiber census ranks whole
matrices with :func:`_batched_rank`, in lockstep, one pivot column at a
time, in int16, which is exact because every entry stays in (-p^2, p^2)
for p <= 97. The walk is checked from outside: by the point counts against
the formula, and by the tests' tallies of every matrix of the space.
Budgets bound the space's size p^(n(n+1)/2), never the pairs ranked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Cap on matrix visits for the big enumerations (override per call).
DEFAULT_BUDGET = 200_000_000
#: Largest budget accepted: packed indices are int64 arrays.
MAX_BUDGET = 2**63 - 1

_CHUNK = 1 << 16


class OddPrimeRequired(ValueError):
    """The modulus is not an odd prime in the supported range."""


class InvalidBudget(ValueError):
    """The budget is below 0 or above :data:`MAX_BUDGET`."""


class BudgetExceeded(Exception):
    """An enumeration would visit more matrices than the budget allows."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration needs {required} matrix visits, budget is {budget}"
        )


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """Arithmetic tables for F_p, p an odd prime with 3 <= p <= 97.

    Inverses are table lookups: with moduli this small that is faster
    and simpler than computing them on the fly, and the table doubles
    as a constructor self-check.
    """

    __slots__ = ("p", "inverse_table", "_inv_array")

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or p > 97 or p % 2 == 0 or not _is_prime(p):
            raise OddPrimeRequired(
                f"modulus must be an odd prime with 3 <= p <= 97, got {p!r}"
            )
        self.p = p
        self.inverse_table = tuple([0] + [pow(x, -1, p) for x in range(1, p)])
        for x in range(1, p):
            assert self.inverse_table[x] * x % p == 1
        self._inv_array = np.array(self.inverse_table, dtype=np.int16)


class _ScratchField(PrimeField):
    """F_p with the working memory of :func:`_batched_rank` for batches of
    at most ``capacity`` matrices of size at most n. A walk that makes one
    and ranks every chunk over it allocates that memory once, not on
    every call, so the allocator has nothing to hand back to the system
    and fault in again between chunks. It goes where the field goes, so
    the kernel's (dense, field) signature stays as it is.
    """

    __slots__ = ("ints", "bools")

    def __init__(self, p: int, n: int, capacity: int):
        super().__init__(p)
        self.ints = np.empty((n * n + 3 * n) * capacity, dtype=np.int16)
        self.bools = np.empty((2 * n + 2) * capacity, dtype=bool)


def _views(buffer: np.ndarray, batch: int, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive arrays of shapes ``shape + (batch,)`` from the front of
    the flat ``buffer``."""
    views, lo = [], 0
    for shape in shapes:
        size = math.prod(shape) * batch
        views.append(buffer[lo : lo + size].reshape(*shape, batch))
        lo += size
    return views


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


def _check_budget(budget: int) -> None:
    """The one check of a budget's range: raises :class:`InvalidBudget` for
    one below 0, or above :data:`MAX_BUDGET` (its indices would overflow
    the int64 arrays)."""
    if budget < 0:
        raise InvalidBudget(f"budget must be >= 0, got {budget}")
    if budget > MAX_BUDGET:
        raise InvalidBudget(f"budget must be <= {MAX_BUDGET}, got {budget}")


def _space_size(n: int, p: int, budget: int) -> int:
    """The p^(n(n+1)/2) matrices to visit, refused if over ``budget``:
    :func:`_check_budget`, then :class:`BudgetExceeded` for a larger space.
    """
    _check_budget(budget)
    total = p ** _triangle(n)
    if total > budget:
        raise BudgetExceeded(total, budget)
    return total


@dataclass(frozen=True)
class RankHistogram:
    """Rank tallies of an enumerated set of symmetric matrices.

    For a full-space enumeration ``counts`` sums to p^(n(n+1)/2) and
    ``counts[0]`` is 1.
    """

    n: int
    p: int
    counts: tuple[int, ...]

    def projective_count(self) -> Fraction:
        """Full-rank matrices up to scalar: the exact quotient ``counts[n]``
        / (p - 1), an integer unless the count is wrong, since scalars act
        freely on nonzero matrices. A wrong count is left to the checks.

        >>> RankHistogram(2, 5, (1, 24, 101)).projective_count()
        Fraction(101, 4)
        """
        return Fraction(self.counts[self.n], self.p - 1)


@dataclass(frozen=True)
class FiberCensus:
    """Joint tally of (minor rank, full rank) over all n x n symmetric
    matrices; only realized buckets are stored."""

    n: int
    p: int
    table: dict[tuple[int, int], int]


@functools.lru_cache(maxsize=None)
def _pack_positions(n: int) -> np.ndarray:
    pos = np.empty((n, n), dtype=np.int64)
    slot = 0
    for i in range(n):
        for j in range(i, n):
            pos[i, j] = slot
            pos[j, i] = slot
            slot += 1
    pos.flags.writeable = False
    return pos


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """x %= p in place, via ``scratch`` (same shape): numpy divides by a
    scalar much faster than it takes a remainder."""
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch


def _decode_digits(indices: np.ndarray, count: int, p: int) -> np.ndarray:
    """Base-p digits of ``indices``, digit-major: row j holds digit j of
    every index, least significant first, in int16 like the kernels."""
    digits = np.empty((count, indices.shape[0]), dtype=np.int16)
    rem = indices.copy()
    quot = np.empty_like(rem)
    for j in range(count):
        np.floor_divide(rem, p, out=quot)
        np.subtract(rem, quot * p, out=digits[j], casting="unsafe")
        rem, quot = quot, rem
    return digits


def _dense_batch(indices: np.ndarray, n: int, p: int) -> np.ndarray:
    """The matrices at ``indices`` as an (n, n, B) batch, batch axis last."""
    return _decode_digits(indices, _triangle(n), p)[_pack_positions(n)]


def _batched_rank(dense: np.ndarray, field: PrimeField) -> np.ndarray:
    """Ranks of an (n, n, B) batch, eliminating one column across the
    whole batch at a time.

    Rows are never swapped: each matrix takes its first unused row with
    a nonzero entry in the column as pivot and marks it used, and every
    other unused row is reduced by it. Only the columns right of the
    pivot column are updated, since no later step reads the others.
    It works in one int16 copy of ``dense`` and leaves the input unchanged.
    The copy and every other buffer come from ``field`` when it is a
    :class:`_ScratchField`, and are allocated for this call otherwise.
    """
    n, _, batch = dense.shape
    p = field.p
    if not isinstance(field, _ScratchField):
        field = _ScratchField(p, n, batch)
    a, factors, buf = _views(field.ints, batch, (n, n), (n,), (2 * n,))
    np.copyto(a, dense, casting="unsafe")
    # pivot: the one-hot pivot row of each matrix in the current column.
    free, pivot, cand, found = _views(field.bools, batch, (n,), (n,), (), ())
    free[:] = True
    rank = np.zeros(batch, dtype=np.int16)
    for col in range(n):
        column = a[:, col, :]
        found[:] = False
        for i in range(n):
            np.logical_and(free[i], column[i], out=cand)
            np.greater(cand, found, out=pivot[i])  # a candidate, none above
            found |= cand
        np.greater(free, pivot, out=free)  # free and not the pivot
        rank += found
        if col == n - 1:
            break
        # Each matrix's pivot row from this column on (zero if none):
        # its entry here selects the inverse, the rest update the rows.
        piv_rows, prod = buf[: n - col], buf[n : 2 * n - col]
        np.multiply(a[0, col:, :], pivot[0], out=piv_rows)
        for i in range(1, n):
            np.multiply(a[i, col:, :], pivot[i], out=prod)
            piv_rows += prod
        # A matrix with no pivot here has only zeros in its free rows of
        # this column, so all its factors vanish.
        np.multiply(column, free, out=factors)
        factors *= np.take(field._inv_array, piv_rows[0], out=prod[0])
        _reduce(factors, p, buf[n:])
        for i in range(n):
            rest = a[i, col + 1 :, :]
            np.multiply(factors[i], piv_rows[1:], out=prod[1:])
            rest -= prod[1:]
            _reduce(rest, p, prod[1:])
    return rank


def _orbit_representatives(digits: int, p: int, size: int):
    """0, then [p^t, 2 p^t) for t < ``digits``: one packed vector of
    ``digits`` base-p digits per orbit of v -> cv, c in F_p^* (highest
    nonzero digit 1). Yields them in order, in pieces of at most ``size``,
    each cut from the ranges when it is asked for, so no more than one
    piece is ever held."""
    piece, held = [], 0
    for lo, hi in [(0, 1)] + [(p**t, 2 * p**t) for t in range(digits)]:
        while lo < hi:
            take = min(hi - lo, size - held)
            piece.append(np.arange(lo, lo + take, dtype=np.int64))
            lo, held = lo + take, held + take
            if held == size:
                yield np.concatenate(piece)
                piece, held = [], 0
    if piece:
        yield np.concatenate(piece)


def _minor_groups(k: int, width: int, group: int, span: int, p: int):
    """One k x k minor per orbit of N -> cN, c in F_p^*, times one
    completing row per orbit of (a, b) -> (c^2 a, cb) (index = minor *
    p^width + row: a row's low width - k digits are the corner a, its top
    k the border b), both by :func:`_orbit_representatives`. Yields
    (minors, weights, slices): groups of at most ``group`` minors' packed
    indices in order and their orbit sizes, 1 for the zero minor, which
    leads the first group, and p - 1 for every other; and, the same for
    every group, (table, weights) pairs of at most ``span`` columns of the
    walked rows' digit-major table (:func:`_decode_digits`) and weights:
    1 for every a with b = 0 (c^2 a reaches only a's square class), p - 1
    for every a with each other b.
    """
    corners = p ** (width - k)
    borders = next(_orbit_representatives(k, p, p**k))
    rows = (borders[:, None] * corners + np.arange(corners)).ravel()
    table, weights = _decode_digits(rows, width, p), np.where(rows < corners, 1, p - 1)
    slices = [(table[:, i : i + span], weights[i : i + span]) for i in range(0, len(rows), span)]
    for minors in _orbit_representatives(_triangle(k), p, group):
        yield minors, np.where(minors > 0, p - 1, 1), slices


def _reduce_minors(minors: np.ndarray, k: int, field: PrimeField):
    """Forward elimination of the k x k minors at packed indices
    ``minors``, batched across them, as the bordered kernel needs it.

    Each minor N is reduced together with an identity block, ``[N | I]``
    -> ``[R | E]`` with E N = R, under the pivot rule of
    :func:`_batched_rank`: each column's pivot is the first unused row
    with a nonzero entry there, rows are never swapped, and only the rows
    not yet used are reduced by it. The k - r rows that never pivot end
    with zeros in R, so their rows of E form Z, Z N = 0: they are
    independent and span the left kernel of N. It works in int16, exact
    for the reason :func:`_batched_rank` is.

    Returns the rank r of each minor, shape (m,), and the rows of Z as
    base-p keys (entry j is digit j), shape (k, m), a pivot row's key 0.
    """
    p = field.p
    m = minors.shape[0]
    aug = np.zeros((k, 2 * k, m), dtype=np.int16)
    aug[:, :k] = _dense_batch(minors, k, p)
    aug[:, k:] = np.eye(k, dtype=np.int16)[:, :, None]
    scratch = np.empty_like(aug)
    free = np.ones((k, m), dtype=bool)
    pivot = np.empty((k, m), dtype=bool)
    found = np.empty(m, dtype=bool)
    for col in range(k):
        cand = free & (aug[:, col] != 0)
        found[:] = False
        for i in range(k):
            np.greater(cand[i], found, out=pivot[i])  # a candidate, none above
            found |= cand[i]
        free &= ~pivot
        # The pivot row from this column on (zero where there is none) and
        # each free row's multiple of it; every other row keeps a zero
        # factor. No later step reads a column left of the next one.
        row = (aug[:, col:] * pivot[:, None, :]).sum(axis=0, dtype=np.int16)
        factors = aug[:, col] * free * field._inv_array[row[0]]
        _reduce(factors, p, scratch[:, 0])
        rest = aug[:, col + 1 :]
        rest -= factors[:, None, :] * row[1:]
        _reduce(rest, p, scratch[:, col + 1 :])
    kernel = aug[:, k:] * free[:, None, :]
    return k - free.sum(axis=0), np.einsum("ijm,j->im", kernel, p ** np.arange(k, dtype=np.int32))


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """The rows of a 2-d bool array packed 64 columns to a uint64 word:
    bit j of word w is column 64 w + j, and every bit past the last
    column is 0."""
    packed = np.zeros((bits.shape[0], -(-bits.shape[1] // 64) * 8), dtype=np.uint8)
    packed[:, : -(-bits.shape[1] // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def _nonzero_table(rows: np.ndarray, borders: np.ndarray, p: int) -> np.ndarray:
    """Whether each of the (d, k) ``rows`` of Z has a nonzero dot product
    mod p with each border among the columns of ``borders`` (k, nb), as a
    (d, ceil(nb / 64)) table of words (:func:`_pack_bits`), from one
    float32 matmul of d nb entries. Entries are integers below p, so every
    dot product is at most k (p-1)^2, below 2^24, exact in float32.
    """
    dots = rows.astype(np.float32) @ borders.astype(np.float32)
    return _pack_bits(np.fmod(dots, p) != 0)


def _any_row(table: np.ndarray, where: np.ndarray) -> np.ndarray:
    """For each column j of ``where`` (t, m), the OR of the t rows
    ``table[where[:, j]]``: shape (m, nw), all zero when t = 0."""
    out = np.zeros((where.shape[1], table.shape[1]), dtype=table.dtype)
    for keys in where:
        out |= table[keys]
    return out


def enumerate_rank_counts(
    n: int, field: PrimeField, budget: int = DEFAULT_BUDGET
) -> RankHistogram:
    """Rank histogram of all p^(n(n+1)/2) symmetric matrices, ranked by
    bordered elimination over one minor per scaling orbit and one border
    per orbit of b -> cb (:func:`_minor_groups`).

    Each (minor, border) pair stands for its p corners; congruence by
    diag(c, 1, ..., 1) permutes the corners of b onto those of cb. A
    border b is outside when Z b != 0 (:func:`_reduce_minors`): b lies
    outside the column space of N, the orthogonal complement of its left
    kernel. Then [[a, b^T], [b, N]] has rank r + 2 for every corner a,
    since N is symmetric and b^T lies outside its row space too. Otherwise
    N x = b for some x, and the rank is r + [a != x^T N x]: one corner
    keeps rank r and the other p - 1 have r + 1, so x is never computed.

    The walk yields groups of m <= ``_CHUNK`` // k minors, k = n - 1, each
    eliminated once. The group's k m rows of Z take d <= min(p^k, k m)
    distinct values, and each border slice is tested against those once
    (:func:`_nonzero_table`); slices are sized so that a table holds at
    most k ``_CHUNK`` entries. Then, for a run of the group's minors at a
    time, at most ``_CHUNK`` pairs, Z b != 0 is an OR of k gathered words
    (:func:`_any_row`), 64 borders to a word, and each minor's outside
    borders are one bit count, so the pad bits past the last border must
    be, and are, 0. Z 0 = 0, so b = 0 is never outside and every outside
    border weighs p - 1, the size of its orbit. The pairs, the walk's
    border weights summed, and those outside are tallied per minor rank
    r once per group, weighted by each minor's orbit size, in int64.
    Raises :class:`BudgetExceeded` with the exact required visit count if
    the space is larger than ``budget``.
    """
    if n < 0:
        raise ValueError(f"matrix size must be >= 0, got {n}")
    p = field.p
    _space_size(n, p, budget)
    if n == 0:
        return RankHistogram(0, p, (1,))
    k = n - 1
    group = max(1, _CHUNK // max(1, k))
    span = max(1, k * _CHUNK // max(1, min(p**k, k * group)))
    # Column r: pairs over rank-r minors, and those of them outside.
    tally = np.zeros((2, n), dtype=np.int64)
    for minors, weights, border_slices in _minor_groups(k, k, group, span, p):
        minor_rank, keys = _reduce_minors(minors, k, field)
        present = np.zeros(p**k, dtype=bool)
        present[keys] = True
        rows = _decode_digits(np.flatnonzero(present), k, p).T
        where = (np.cumsum(present) - 1)[keys]  # each key's row of the table
        pairs, outside = 0, np.zeros(len(minors), dtype=np.int64)
        for borders, border_weights in border_slices:
            table = _nonzero_table(rows, borders, p)
            run = max(1, _CHUNK // borders.shape[1])
            for lo in range(0, len(minors), run):
                words = _any_row(table, where[:, lo : lo + run])
                outside[lo : lo + run] += np.bitwise_count(words).sum(axis=1, dtype=np.int64)
            pairs += int(border_weights.sum())
        np.add.at(tally[0], minor_rank, pairs * weights)
        np.add.at(tally[1], minor_rank, (p - 1) * outside * weights)
    pairs, outside = tally
    inside = pairs - outside
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[:-1] += inside  # an inside pair's corner a = x^T N x keeps rank r
    counts[1:] += (p - 1) * inside
    counts[2:] += p * outside[:-1]  # a full-rank minor has no border outside
    return RankHistogram(n, p, tuple(int(c) for c in counts))


def fiber_census(n: int, field: PrimeField, budget: int = DEFAULT_BUDGET) -> FiberCensus:
    """Joint (minor rank, full rank) tally over the whole space, ranking
    one row per orbit of (a, b) -> (c^2 a, cb) over one minor per scaling
    orbit (:func:`_minor_groups`). Each matrix is tallied under a key of
    its weight class too, [minor of weight p - 1] + [row of weight p - 1],
    and a chunk adds t_0 + (p - 1) t_1 + (p - 1)^2 t_2. The minors of a
    walked group are ranked once, and each slice of rows is crossed with a
    run of them at a time, at most ``_CHUNK`` matrices.

    The 0 x 0 minor of a 1 x 1 matrix counts as rank 0, so the n = 1
    census degenerates gracefully.
    """
    if n < 1:
        raise ValueError(f"fiber census needs n >= 1, got {n}")
    p = field.p
    _space_size(n, p, budget)
    base = n + 1
    acc = np.zeros((n + 1) * base, dtype=np.int64)
    # No chunk exceeds _CHUNK; np.empty touches only the pages a chunk uses.
    dense = np.empty((n, n, _CHUNK), dtype=np.int16)
    scratch = _ScratchField(p, n, _CHUNK)
    for minor_idx, minor_weights, row_slices in _minor_groups(n - 1, n, _CHUNK, _CHUNK, p):
        minors = _dense_batch(minor_idx, n - 1, p)
        minor_keys = _batched_rank(minors, scratch) * base + np.int16(acc.size) * (minor_weights > 1)
        for rows, row_weights in row_slices:
            moved = np.int16(acc.size) * (row_weights > 1)
            run = max(1, _CHUNK // rows.shape[1])
            for lo in range(0, len(minor_idx), run):
                part = minors[..., lo : lo + run]
                flat = dense[:, :, : part.shape[-1] * rows.shape[1]]
                batch = flat.reshape(n, n, part.shape[-1], rows.shape[1])  # a view: fills flat
                batch[0] = rows[:, None, :]
                batch[1:, 0] = rows[1:, None, :]
                batch[1:, 1:] = part[..., None]
                ranks = _batched_rank(flat, scratch).reshape(part.shape[-1], -1)
                keys = ranks + minor_keys[lo : lo + run, None] + moved
                classes = np.bincount(keys.ravel(), minlength=3 * acc.size).reshape(3, -1)
                acc += classes[0] + (p - 1) * (classes[1] + (p - 1) * classes[2])
    grid = acc.reshape(n + 1, base)
    table = {(int(r), int(s)): int(grid[r, s]) for r, s in zip(*np.nonzero(grid))}
    return FiberCensus(n, p, table)


def projective_count(n: int, field: PrimeField, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Number of full-rank matrices up to scalar: the enumerated
    full-rank count over p - 1, an exact quotient that is an integer
    unless the count is wrong (:meth:`RankHistogram.projective_count`)."""
    if n < 1:
        raise ValueError(f"projective count needs n >= 1, got {n}")
    return enumerate_rank_counts(n, field, budget).projective_count()
