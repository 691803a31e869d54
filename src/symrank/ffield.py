"""Brute-force counting oracle over small prime fields of odd characteristic.

Everything the symbolic layer claims is checked here by exhaustive
enumeration: every symmetric n x n matrix over F_p is visited, its rank
computed by Gaussian elimination, and the tallies compared against the
polynomial predictions. Nothing in this module knows the formulas it is
used to falsify.

Matrices are packed as their upper triangle in row-major order, so entry
(0, 0) comes first, the rest of the first row next, and the minor
obtained by deleting the first row and column occupies the trailing
slots. Enumeration is lexicographic with the first packed entry varying
fastest, which makes every traversal reproducible.

The per-matrix work is vectorized with numpy, in two independent
kernels. Rank histograms (:func:`enumerate_rank_counts`) use bordered
elimination: each run of p^n consecutive indices shares one minor, so
every minor is Gauss-Jordan reduced once, batched across minors, and each
completion then reduces only its first row and column against the
reduced minor. The fiber census uses :func:`_batched_rank`, which
eliminates whole matrices in lockstep, one pivot column at a time across
the batch. The census marginals are checked against the histograms, so
each kernel tests the other. The 14.3M-matrix histogram at n = 5, p = 3
takes about 0.4 s on one core of a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: Cap on matrix visits for the big enumerations (override per call).
DEFAULT_BUDGET = 200_000_000
#: Largest budget accepted: packed indices are int64 arrays.
MAX_BUDGET = 2**63 - 1

_CHUNK = 1 << 16


class OddPrimeRequired(ValueError):
    """The modulus is not an odd prime in the supported range."""


class NonintegralQuotient(ArithmeticError):
    """A count that must divide evenly did not (implementation bug)."""


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
        self._inv_array = np.array(self.inverse_table, dtype=np.int32)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


def _space_size(n: int, p: int, budget: int) -> int:
    """The p^(n(n+1)/2) matrices to visit, refused if over ``budget``.

    Raises ``ValueError`` for a budget above :data:`MAX_BUDGET`, whose
    indices would overflow the int64 arrays.
    """
    if budget > MAX_BUDGET:
        raise ValueError(f"budget must be <= {MAX_BUDGET}, got {budget}")
    total = p ** _triangle(n)
    if total > budget:
        raise BudgetExceeded(total, budget)
    return total


@dataclass(frozen=True)
class SymMatrix:
    """A symmetric n x n matrix stored as its packed upper triangle."""

    n: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"matrix size must be >= 0, got {self.n}")
        if len(self.entries) != _triangle(self.n):
            raise ValueError(
                f"need {_triangle(self.n)} packed entries for n={self.n}, "
                f"got {len(self.entries)}"
            )

    @classmethod
    def from_dense(cls, rows: list[list[int]]) -> SymMatrix:
        n = len(rows)
        for i in range(n):
            if len(rows[i]) != n:
                raise ValueError("dense matrix must be square")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i}, {j})")
        packed = tuple(rows[i][j] for i in range(n) for j in range(i, n))
        return cls(n, packed)

    @classmethod
    def from_index(cls, n: int, p: int, index: int) -> SymMatrix:
        """The matrix at a lexicographic position (first packed entry is
        the least-significant base-p digit of ``index``)."""
        count = _triangle(n)
        if not 0 <= index < p**count:
            raise ValueError(f"index {index} out of range for n={n}, p={p}")
        digits = []
        for _ in range(count):
            index, d = divmod(index, p)
            digits.append(d)
        return cls(n, tuple(digits))

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.n for _ in range(self.n)]
        it = iter(self.entries)
        for i in range(self.n):
            for j in range(i, self.n):
                v = next(it)
                out[i][j] = v
                out[j][i] = v
        return out


@dataclass(frozen=True)
class RankHistogram:
    """Rank tallies of an enumerated set of symmetric matrices.

    For a full-space enumeration ``counts`` sums to p^(n(n+1)/2) and
    ``counts[0]`` is 1.
    """

    n: int
    p: int
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)

    def projective_count(self) -> int:
        """Full-rank matrices up to scalar: ``counts[n]`` divided, exactly,
        by p - 1."""
        full = self.counts[self.n]
        quotient, remainder = divmod(full, self.p - 1)
        if remainder:
            raise NonintegralQuotient(
                f"full-rank count {full} is not divisible by {self.p - 1}"
            )
        return quotient


@dataclass(frozen=True)
class FiberCensus:
    """Joint tally of (minor rank, full rank) over all n x n symmetric
    matrices; only realized buckets are stored."""

    n: int
    p: int
    table: dict[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.table.values())


def rank(m: SymMatrix, field: PrimeField) -> int:
    """Rank over F_p by Gaussian elimination with first-nonzero pivots."""
    p = field.p
    inv = field.inverse_table
    a = [[x % p for x in row] for row in m.to_dense()]
    n = m.n
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, n):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pivot_inv = inv[a[r][col]]
        a[r] = [(x * pivot_inv) % p for x in a[r]]
        for i in range(r + 1, n):
            f = a[i][col]
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


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
    every index, least significant first."""
    digits = np.empty((count, indices.shape[0]), dtype=np.int32)
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
    """
    n, _, batch = dense.shape
    if n == 0 or batch == 0:
        return np.zeros(batch, dtype=np.int64)
    p = field.p
    a = dense.astype(np.int32, copy=True)
    free = np.ones((n, batch), dtype=bool)
    pivot = np.empty((n, batch), dtype=bool)  # one-hot pivot row per matrix
    found = np.empty(batch, dtype=bool)
    rank = np.zeros(batch, dtype=np.int64)
    buf = np.empty(n * n * batch, dtype=np.int32)
    for col in range(n):
        cand = free & (a[:, col, :] != 0)
        found[:] = False
        for i in range(n):
            np.greater(cand[i], found, out=pivot[i])  # a candidate, none above
            found |= cand[i]
        free &= ~pivot
        rank += found
        if col == n - 1:
            break
        # A matrix with no pivot here has only zeros in its free rows of
        # this column, so all its factors vanish.
        column = a[:, col, :]
        piv_inv = field._inv_array[(column * pivot).sum(axis=0)]
        factors = column * free * piv_inv
        _reduce(factors, p, np.empty_like(factors))
        m = n - col - 1
        piv_rows = buf[: m * batch].reshape(m, batch)
        piv_rows[:] = 0
        for i in range(n):
            np.copyto(piv_rows, a[i, col + 1 :, :], where=pivot[i])
        prod = buf[m * batch : (n + 1) * m * batch].reshape(n, m, batch)
        np.multiply(factors[:, None, :], piv_rows, out=prod)
        rest = a[:, col + 1 :, :]
        rest -= prod
        _reduce(rest, p, prod)
    return rank


def _reduce_minors(minors: np.ndarray, k: int, field: PrimeField):
    """Gauss-Jordan elimination of the k x k minors at packed indices
    ``minors``, batched across them, as the bordered kernel needs it.

    Each minor N is reduced together with an identity block, ``[N | I]``
    -> ``[R | E]`` with E N = R, under the same pivot rule as
    :func:`_batched_rank`: each column's pivot is the first unused row
    with a nonzero entry there, rows are never swapped, and the pivot row
    is scaled to a unit pivot and cleared from every other row.

    Returns the rank r of each minor, shape (m,), and the stacked maps
    ``[Z; W; Q]``, shape (3k, m, k), with entries in [0, p):

    - Z: the rows of E that are not pivot rows (pivot rows zeroed);
    - W = I - R^T S, with S[i, c] = 1 when row i pivots column c;
      W b is b with its pivot-column entries cleared by R's pivot rows;
    - Q = S^T E, so Q[c_i] = E[i] for the pivot row i of column c_i.
    """
    p = field.p
    m = minors.shape[0]
    aug = np.zeros((k, 2 * k, m), dtype=np.int64)
    aug[:, :k] = _dense_batch(minors, k, p)
    aug[:, k:] = np.eye(k, dtype=np.int64)[:, :, None]
    scratch = np.empty_like(aug)
    free = np.ones((k, m), dtype=bool)
    select = np.zeros((k, k, m), dtype=bool)  # S, batch last
    found = np.empty(m, dtype=bool)
    for col in range(k):
        pivot = select[:, col]
        cand = free & (aug[:, col] != 0)
        found[:] = False
        for i in range(k):
            np.greater(cand[i], found, out=pivot[i])  # a candidate, none above
            found |= cand[i]
        free &= ~pivot
        # The pivot row scaled to a unit pivot; zero where there is none.
        row = (aug * pivot[:, None, :]).sum(axis=0)
        row *= field._inv_array[row[col]]
        _reduce(row, p, scratch[0])
        aug -= (aug[:, col] * ~pivot)[:, None, :] * row
        np.copyto(aug, row, where=pivot[:, None, :])
        _reduce(aug, p, scratch)
    reduced, e = aug[:, :k], aug[:, k:]
    maps = np.concatenate(
        [
            e * free[:, None, :],
            np.eye(k, dtype=np.int64)[:, :, None] - np.einsum("ijm,ilm->jlm", reduced, select),
            np.einsum("icm,ijm->cjm", select, e),
        ]
    )
    _reduce(maps, p, np.empty_like(maps))
    return k - free.sum(axis=0), np.moveaxis(maps, -1, 1)


def _border_ranks(
    minor_rank: np.ndarray, maps: np.ndarray, borders: np.ndarray, p: int
) -> np.ndarray:
    """Ranks of the matrices [[a, b^T], [b, N]] for every minor N of a
    :func:`_reduce_minors` batch, every border b among the columns of
    ``borders`` (k, nb) and every a in F_p.

    Clearing row 0 and column 0 against R's unit pivots leaves an r x r
    identity block beside [[a - q, w^T], [u, 0]], where u = Z b,
    w = W b and q = b^T Q b, so the rank is
    r + [u != 0] + [w != 0] + [u = 0 and w = 0 and a != q].

    Returns shape (p, m * nb): entry [a, j] ranks the j-th (minor, border)
    pair, minor-major, completed by corner a, so the transpose read row
    by row is packed-index order.
    """
    rows, m, k = maps.shape
    nb = borders.shape[1]
    float_maps = maps.astype(np.float32)
    float_borders = borders.astype(np.float32)
    scratch = np.empty((m, nb), dtype=np.int32)

    def image(row: int) -> np.ndarray:
        # Entries are integers below p, so each float32 dot product
        # (< k p^2, far below 2^24) is exact.
        x = (float_maps[row] @ float_borders).astype(np.int32)
        _reduce(x, p, scratch)
        return x

    u_nonzero = np.zeros((m, nb), dtype=bool)
    w_nonzero = np.zeros((m, nb), dtype=bool)
    q = np.zeros((m, nb), dtype=np.int32)
    for i in range(k):
        u_nonzero |= image(i) != 0
        w_nonzero |= image(k + i) != 0
        q += image(2 * k + i) * borders[i]
    _reduce(q, p, scratch)
    u_nonzero, w_nonzero, q = u_nonzero.ravel(), w_nonzero.ravel(), q.ravel()
    corner_free = ~(u_nonzero | w_nonzero)
    return (np.repeat(minor_rank, nb) + u_nonzero + w_nonzero) + (
        corner_free & (np.arange(p)[:, None] != q)
    )


def _bordered_rank_chunks(n: int, field: PrimeField):
    """Ranks of all p^(n(n+1)/2) symmetric n x n matrices, in chunks of at
    most max(_CHUNK, p): arrays shaped as :func:`_border_ranks` returns
    them, whose transposes, read row by row and chunk by chunk, run in
    packed-index order.

    The first row fills the n low packed digits, so each run of p^n
    consecutive indices shares one (n-1) x (n-1) minor. Every minor is
    eliminated once (:func:`_reduce_minors`); each completion then
    reduces only its border. A chunk holds whole minors, or, when one
    minor has more than _CHUNK completions, a slice of its borders.
    """
    p = field.p
    if n == 0:
        yield np.zeros((1, 1), dtype=np.int64)
        return
    k = n - 1
    borders = _decode_digits(np.arange(p**k, dtype=np.int64), k, p)
    per_chunk = max(1, _CHUNK // p)  # border vectors
    group = max(1, per_chunk // p**k)  # minors
    minor_count = p ** _triangle(k)
    for lo in range(0, minor_count, group):
        minors = np.arange(lo, min(lo + group, minor_count), dtype=np.int64)
        minor_rank, maps = _reduce_minors(minors, k, field)
        for b_lo in range(0, p**k, per_chunk):
            yield _border_ranks(minor_rank, maps, borders[:, b_lo : b_lo + per_chunk], p)


def enumerate_rank_counts(
    n: int, field: PrimeField, budget: int = DEFAULT_BUDGET
) -> RankHistogram:
    """Exhaustive rank histogram over all p^(n(n+1)/2) symmetric matrices,
    ranked by bordered elimination (:func:`_bordered_rank_chunks`).

    Raises :class:`BudgetExceeded` with the exact required visit count if
    the space is larger than ``budget``.
    """
    if n < 0:
        raise ValueError(f"matrix size must be >= 0, got {n}")
    _space_size(n, field.p, budget)
    counts = np.zeros(n + 1, dtype=np.int64)
    for ranks in _bordered_rank_chunks(n, field):
        counts += np.bincount(ranks.ravel(), minlength=n + 1)
    return RankHistogram(n, field.p, tuple(int(c) for c in counts))


def fiber_census(n: int, field: PrimeField, budget: int = DEFAULT_BUDGET) -> FiberCensus:
    """Joint (minor rank, full rank) tally over the whole space.

    The 0 x 0 minor of a 1 x 1 matrix counts as rank 0, so the n = 1
    census degenerates gracefully.
    """
    if n < 1:
        raise ValueError(f"fiber census needs n >= 1, got {n}")
    p = field.p
    total = _space_size(n, p, budget)
    # Packed layout puts the first row in the low digits, so consecutive
    # runs of p^n indices share one minor. Each chunk ranks just the
    # minors it touches, so memory follows the chunk, not the space.
    row_span = p**n
    base = n + 1
    acc = np.zeros((n + 1) * base, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        ranks = _batched_rank(_dense_batch(idx, n, p), field)
        minor_idx = idx // row_span
        first = int(minor_idx[0])
        minors = np.arange(first, int(minor_idx[-1]) + 1, dtype=np.int64)
        minor_ranks = _batched_rank(_dense_batch(minors, n - 1, p), field)
        mr = minor_ranks[minor_idx - first]
        acc += np.bincount(mr * base + ranks, minlength=len(acc))
    table: dict[tuple[int, int], int] = {}
    for r in range(n + 1):
        for s in range(n + 1):
            c = int(acc[r * base + s])
            if c:
                table[(r, s)] = c
    return FiberCensus(n, p, table)


def projective_count(n: int, field: PrimeField, budget: int = DEFAULT_BUDGET) -> int:
    """Number of full-rank matrices up to scalar: the enumerated
    full-rank count divided (exactly) by p - 1."""
    if n < 1:
        raise ValueError(f"projective count needs n >= 1, got {n}")
    return enumerate_rank_counts(n, field, budget).projective_count()
