"""Reference implementations the tests compare the package against.

A symmetric matrix type over packed upper triangles and a one-matrix
Gaussian elimination, kept apart from ``symrank.ffield`` so that the
tests compare both vectorized kernels against code they do not share;
the rank histogram and the fiber census over every matrix of the space,
which the package's two kernels must reproduce: both walk one minor per
scaling orbit N -> cN and, over it, one completing row (a, b) per orbit
of congruence by diag(c, 1, ..., 1), (a, b) -> (c^2 a, cb), which fixes
the minor and keeps every rank (a row with b = 0 stands for itself).
Outside the tests only the point counts against the formula check that
walk. Last, the JSON object of a class, which
``json.dumps`` renders as the bytes ``MotivicClass.to_json`` must
reproduce.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from symrank.ffield import FiberCensus, PrimeField, RankHistogram, _batched_rank, _dense_batch
from symrank.motivic import MotivicClass


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


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


def _full_space(n: int, p: int) -> np.ndarray:
    return _dense_batch(np.arange(p ** _triangle(n), dtype=np.int64), n, p)


def full_walk_histogram(n: int, field: PrimeField) -> RankHistogram:
    """The rank tally of every one of the p^(n(n+1)/2) matrices, ranked in
    one batch by the whole-matrix kernel (which the tests hold to
    :func:`rank`)."""
    ranks = _batched_rank(_full_space(n, field.p), field)
    return RankHistogram(n, field.p, tuple(np.bincount(ranks, minlength=n + 1).tolist()))


def full_walk_census(n: int, field: PrimeField) -> FiberCensus:
    """The (minor rank, full rank) tally of every one of the p^(n(n+1)/2)
    matrices, each and its minor ranked in one batch by the whole-matrix
    kernel (which the tests hold to :func:`rank`)."""
    p = field.p
    dense = _full_space(n, p)
    full = _batched_rank(dense, field).tolist()
    minor = _batched_rank(dense[1:, 1:], field).tolist()
    return FiberCensus(n, p, dict(Counter(zip(minor, full))))


def class_json_dict(c: MotivicClass) -> dict:
    """The JSON object of a class: size, rank condition, polynomial, route."""
    d = c.descriptor
    rank = {"kind": d.kind, "k": d.k}
    if d.l is not None:
        rank["l"] = d.l
    return {
        "n": d.n,
        "rank": rank,
        "polynomial": c.value.to_json_dict(),
        "route": c.route,
    }
