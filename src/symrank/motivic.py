"""Classes of symmetric-matrix rank strata as polynomials in ``L``.

For n x n symmetric matrices over a field of odd characteristic, the
locus of fixed rank k has a class in the Grothendieck ring of varieties
that is an honest polynomial in the Lefschetz class L. Projecting a
matrix to the minor obtained by deleting its first row and column
stratifies the rank-<=k locus into affine bundles over the smaller rank
strata, which yields a three-term recursion in n:

    [n, k] = (L^n - L^(k-1)) * [n-1, k-2]
           + (L^k - L^(k-1)) * [n-1, k-1]
           + L^k             * [n-1, k]

with [n, 0] = 1, [1, 1] = L - 1 and [n, k] = 0 outside 0 <= k <= n.
The same classes admit a closed product formula whose denominator
divides the numerator exactly in Z[L]; this module computes both and
the package's verification layer insists they agree everywhere.

Everything here is a pure function over immutable values. The memo
table behind the recursion is idempotent per key, so concurrent fills
are harmless; :func:`clear_caches` exists so tests can prove the cache
is semantically invisible.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .laurent import L, ONE, ZERO, LaurentPolynomial, monomial


class InvalidRange(ValueError):
    """A rank range [k, l] with k > l."""


RANK_EXACT = "exact"
RANK_AT_MOST = "at_most"
RANK_RANGE = "range"
RANK_PROJECTIVE_FULL = "projective_full"

ROUTE_RECURSION = "recursion"
ROUTE_CLOSED_FORM = "closed-form"
ROUTE_QUOTIENT = "quotient"
ROUTE_SUM = "sum"


@dataclass(frozen=True)
class VarietyDescriptor:
    """Which family of symmetric matrices a class describes.

    ``kind`` is one of ``exact`` (rank == k), ``at_most`` (rank <= k),
    ``range`` (k <= rank <= l) or ``projective_full`` (full-rank
    matrices up to scalar).
    """

    n: int
    kind: str
    k: int | None = None
    l: int | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"matrix size must be >= 0, got {self.n}")
        if self.kind not in (RANK_EXACT, RANK_AT_MOST, RANK_RANGE, RANK_PROJECTIVE_FULL):
            raise ValueError(f"unknown rank condition kind {self.kind!r}")
        if self.kind == RANK_RANGE:
            if self.k is None or self.l is None:
                raise ValueError("range condition needs both k and l")
            if self.k > self.l:
                raise InvalidRange(f"empty range [{self.k}, {self.l}]")
        elif self.kind == RANK_PROJECTIVE_FULL:
            if self.n < 1:
                raise ValueError("projective full rank needs n >= 1")
        elif self.k is None:
            raise ValueError(f"{self.kind} condition needs k")

    @classmethod
    def exact(cls, n: int, k: int) -> VarietyDescriptor:
        return cls(n, RANK_EXACT, k)

    @classmethod
    def at_most(cls, n: int, k: int) -> VarietyDescriptor:
        return cls(n, RANK_AT_MOST, k)

    @classmethod
    def rank_range(cls, n: int, k: int, l: int) -> VarietyDescriptor:
        return cls(n, RANK_RANGE, k, l)

    @classmethod
    def projective_full(cls, n: int) -> VarietyDescriptor:
        return cls(n, RANK_PROJECTIVE_FULL, n)

    def rank_json(self) -> dict:
        out: dict = {"kind": self.kind, "k": self.k}
        if self.kind == RANK_RANGE:
            out["l"] = self.l
        return out


@dataclass(frozen=True)
class MotivicClass:
    """A class value together with its descriptor and derivation route."""

    descriptor: VarietyDescriptor
    value: LaurentPolynomial
    route: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.descriptor.n,
            "rank": self.descriptor.rank_json(),
            "polynomial": self.value.to_json_dict(),
            "route": self.route,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


@dataclass(frozen=True)
class TateSummand:
    """One summand F(twist)[shift] with a positive multiplicity.

    Proper summands satisfy shift >= 2 * twist; the constructor enforces
    it because the decompositions emitted here never leave that cone.
    """

    twist: int
    shift: int
    multiplicity: int

    def __post_init__(self) -> None:
        if self.twist < 0:
            raise ValueError(f"twist must be >= 0, got {self.twist}")
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")
        if self.shift < 2 * self.twist:
            raise ValueError(
                f"improper summand: shift {self.shift} < 2 * twist {self.twist}"
            )

    def __str__(self) -> str:
        base = f"F({self.twist})[{self.shift}]"
        return base if self.multiplicity == 1 else f"{base}^{self.multiplicity}"


@functools.lru_cache(maxsize=None)
def _exact_value(n: int, k: int) -> LaurentPolynomial:
    if k < 0 or k > n:
        return ZERO
    if k == 0:
        return ONE
    if n == 1 and k == 1:
        # rank-1 locus of 1x1 matrices: the punctured line.
        return L - 1
    return (
        (monomial(1, n) - monomial(1, k - 1)) * _exact_value(n - 1, k - 2)
        + (monomial(1, k) - monomial(1, k - 1)) * _exact_value(n - 1, k - 1)
        + monomial(1, k) * _exact_value(n - 1, k)
    )


def _strata_sum(n: int, ranks: range, route: str) -> LaurentPolynomial:
    """Sum of the exact-rank classes over ``ranks``, each by ``route``."""
    if route not in (ROUTE_RECURSION, ROUTE_CLOSED_FORM):
        raise ValueError(f"unknown route {route!r}")
    total = ZERO
    for m in ranks:
        if route == ROUTE_RECURSION:
            total = total + _exact_value(n, m)
        else:
            total = total + closed_form(n, m).value
    return total


@functools.lru_cache(maxsize=None)
def _at_most_value(n: int, k: int) -> LaurentPolynomial:
    total = _strata_sum(n, range(0, min(k, n) + 1), ROUTE_RECURSION)
    if 0 < k < n:
        # The minor projection stratifies the rank-<=k locus into three
        # affine bundles; the resulting identity must agree with the sum
        # of exact-rank classes or the recursion is mistranscribed.
        bundles = (
            monomial(1, n) * _at_most_value(n - 1, k - 2)
            + monomial(1, k) * _exact_value(n - 1, k - 1)
            + monomial(1, k) * _exact_value(n - 1, k)
        )
        if bundles != total:
            raise RuntimeError(
                f"bundle decomposition of the rank-<={k} locus disagrees with the "
                f"stratum sum at n={n}: {bundles} != {total}"
            )
    return total


def class_exact(n: int, k: int) -> MotivicClass:
    """The class of n x n symmetric matrices of rank exactly k.

    Any integer k is accepted; the class is 0 outside 0 <= k <= n
    because the recursion naturally probes out-of-range indices.

    >>> class_exact(1, 1).value
    LaurentPolynomial('L - 1')
    >>> class_exact(2, 2).value
    LaurentPolynomial('L^3 - L^2')
    """
    if n < 0:
        raise ValueError(f"matrix size must be >= 0, got {n}")
    return MotivicClass(VarietyDescriptor.exact(n, k), _exact_value(n, k), ROUTE_RECURSION)


def class_at_most(n: int, k: int, route: str = ROUTE_RECURSION) -> MotivicClass:
    """The class of n x n symmetric matrices of rank at most k.

    The strata are summed by ``route`` (``recursion`` or ``closed-form``);
    the result's own route is ``sum`` either way.
    """
    if n < 0:
        raise ValueError(f"matrix size must be >= 0, got {n}")
    if route == ROUTE_RECURSION:
        value = _at_most_value(n, k)
    else:
        value = _strata_sum(n, range(0, min(k, n) + 1), route)
    return MotivicClass(VarietyDescriptor.at_most(n, k), value, ROUTE_SUM)


def class_range(n: int, k: int, l: int, route: str = ROUTE_RECURSION) -> MotivicClass:
    """The class of n x n symmetric matrices of rank between k and l,
    with strata summed by ``route`` as in :func:`class_at_most`."""
    if n < 0:
        raise ValueError(f"matrix size must be >= 0, got {n}")
    if k > l:
        raise InvalidRange(f"empty range [{k}, {l}]")
    value = _strata_sum(n, range(k, l + 1), route)
    return MotivicClass(VarietyDescriptor.rank_range(n, k, l), value, ROUTE_SUM)


def closed_form(n: int, k: int) -> MotivicClass:
    """The exact-rank class by its closed product formula.

    The numerator multiplies the factors L^(2i) for 1 <= i <= floor(k/2)
    and (L^(n-i) - 1) for 0 <= i < k; the denominator is the product of
    the (L^(2i) - 1). The quotient is taken by a single exact division at
    the end, so the result is guaranteed to be an honest polynomial --
    a nonzero remainder would mean the formula is mistranscribed.

    >>> closed_form(3, 1).value
    LaurentPolynomial('L^3 - 1')
    """
    if n < 0:
        raise ValueError(f"matrix size must be >= 0, got {n}")
    descriptor = VarietyDescriptor.exact(n, k)
    if k < 0 or k > n:
        return MotivicClass(descriptor, ZERO, ROUTE_CLOSED_FORM)
    if k == 0:
        return MotivicClass(descriptor, ONE, ROUTE_CLOSED_FORM)
    numerator = ONE
    denominator = ONE
    for i in range(1, k // 2 + 1):
        numerator = numerator * monomial(1, 2 * i)
        denominator = denominator * (monomial(1, 2 * i) - 1)
    for i in range(0, k):
        numerator = numerator * (monomial(1, n - i) - 1)
    return MotivicClass(descriptor, numerator.div_exact(denominator), ROUTE_CLOSED_FORM)


def full_rank_product(n: int) -> MotivicClass:
    """The full-rank class in fully factored form.

    For even n the factors are (L^(n+1) - L^(2i)) over 1 <= i <= n/2,
    for odd n they are (L^n - L^(2i)) over 0 <= i <= (n-1)/2.

    >>> full_rank_product(1).value
    LaurentPolynomial('L - 1')
    """
    if n < 1:
        raise ValueError(f"full-rank product needs n >= 1, got {n}")
    product = ONE
    if n % 2 == 0:
        for i in range(1, n // 2 + 1):
            product = product * (monomial(1, n + 1) - monomial(1, 2 * i))
    else:
        for i in range(0, (n - 1) // 2 + 1):
            product = product * (monomial(1, n) - monomial(1, 2 * i))
    return MotivicClass(VarietyDescriptor.exact(n, n), product, ROUTE_CLOSED_FORM)


def projective_full_rank(n: int) -> MotivicClass:
    """The class of full-rank matrices up to scalar.

    Scalars act freely on nonzero matrices, so the full-rank class is
    (L - 1) times the projective one; the division is always exact.
    """
    if n < 1:
        raise ValueError(f"projective full rank needs n >= 1, got {n}")
    value = _exact_value(n, n).div_exact(L - 1)
    return MotivicClass(VarietyDescriptor.projective_full(n), value, ROUTE_QUOTIENT)


def tate_decomposition(c: MotivicClass) -> list[TateSummand]:
    """Candidate decomposition of a class into summands F(a)[b]^m.

    Minimal-shift convention: an exponent a with coefficient c_a > 0
    contributes F(a)[2a]^(c_a); with c_a < 0 it contributes
    F(a)[2a+1]^(-c_a). In the signed sum, F(a)[b] counts as
    (-1)^b * L^a, so the class is reconstructed by construction.

    The convention is exact for n = 1 (the punctured line splits as
    F(0)[1] + F(1)[2]); for larger classes it is a candidate only, not
    a proved multiplicity table. Summands are returned in decreasing
    twist order.
    """
    summands = []
    for exp in sorted(c.value.terms(), reverse=True):
        coeff = c.value.coefficient(exp)
        if coeff > 0:
            summands.append(TateSummand(exp, 2 * exp, coeff))
        else:
            summands.append(TateSummand(exp, 2 * exp + 1, -coeff))
    signed_sum = ZERO
    for s in summands:
        sign = -1 if s.shift % 2 else 1
        signed_sum = signed_sum + monomial(sign * s.multiplicity, s.twist)
    assert signed_sum == c.value, "signed sum failed to reconstruct the class"
    return summands


def euler_characteristic(c: MotivicClass) -> int:
    """Specialization of the class at L = 1."""
    return c.value.eval_int(1)


def point_count(c: MotivicClass, q: int) -> int:
    """The number of points over the field with q elements, i.e. the
    class evaluated at L = q. Meaningful for odd prime powers q; no
    claim is made for characteristic 2."""
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    return c.value.eval_int(q)


def clear_caches() -> None:
    """Drop all memoized class values (recomputation must be identical)."""
    _exact_value.cache_clear()
    _at_most_value.cache_clear()
