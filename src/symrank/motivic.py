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

with [n, 0] = 1 and [n, k] = 0 outside 0 <= k <= n, so [1, 1] = L - 1.
The same classes admit a closed product formula whose denominator
divides the numerator exactly in Z[L]; this module computes both and
the package's verification layer insists they agree everywhere.

This module alone maps a rank condition to the ranks it covers
(:meth:`VarietyDescriptor.ranks`) and a route to the function computing
an exact-rank class (:func:`class_exact`); every other class sums
exact-rank classes over its ranks, or, for the projective full-rank
class, divides the full-rank one by (L - 1). The bundle identity of the
rank-<=k locus is the verification layer's ``at_most_bundle`` check.

Everything here is a pure function over immutable values, behind two
memo tables: the recursion's, one entry per (n, k) and idempotent per
key, and the closed form's running product, one row for the last n
asked (:func:`closed_form`), replaced whole, never edited in place. So
concurrent fills are harmless, and neither route reads the other's
table. :func:`clear_caches` clears both, so tests can prove the caches
are semantically invisible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .laurent import L, ONE, ZERO, LaurentPolynomial, monomial, shifted_sum


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
#: The routes an exact-rank class can be computed by.
ROUTES = (ROUTE_RECURSION, ROUTE_CLOSED_FORM)


@dataclass(frozen=True)
class VarietyDescriptor:
    """Which family of symmetric matrices a class describes.

    ``kind`` is one of ``exact`` (rank == k), ``at_most`` (rank <= k),
    ``range`` (k <= rank <= l) or ``projective_full`` (full-rank
    matrices up to scalar, k == n). Every kind needs the int k; only
    ``range`` takes l.
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
        if self.k is None:
            raise ValueError(f"{self.kind} condition needs k")
        if (self.l is None) == (self.kind == RANK_RANGE):
            raise ValueError(f"only range takes l, and needs it: {self.kind}, l={self.l}")
        if self.kind == RANK_RANGE and self.k > self.l:
            raise InvalidRange(f"empty range [{self.k}, {self.l}]")
        if self.kind == RANK_PROJECTIVE_FULL and not 1 <= self.k == self.n:
            raise ValueError(f"projective full rank needs k = n >= 1, got n={self.n}, k={self.k}")

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

    def ranks(self) -> range:
        """The exact ranks the descriptor covers, clipped to 0..n."""
        lo = 0 if self.kind == RANK_AT_MOST else self.k
        hi = self.l if self.kind == RANK_RANGE else self.k
        return range(max(lo, 0), min(hi, self.n) + 1)


@dataclass(frozen=True)
class MotivicClass:
    """A class value together with its descriptor and derivation route."""

    descriptor: VarietyDescriptor
    value: LaurentPolynomial
    route: str

    def to_json(self, pad: str = "") -> str:
        """The bytes of ``json.dumps`` of the class's JSON object with
        ``indent=2``, every line prefixed by ``pad``; no trailing newline.

        Written as text because ``json.dumps`` with an indent runs CPython's
        pure-Python encoder, which costs more than computing the class. The
        kind and route are this module's identifiers and need no escaping,
        the ints are formatted with ``d``, and the polynomial is
        :meth:`LaurentPolynomial.to_json`, which makes no object per term:
        a max-n 60 table is 819,363 terms, 19.3 MB of text.

        >>> print(class_exact(1, 1).to_json())
        {
          "n": 1,
          "rank": {
            "kind": "exact",
            "k": 1
          },
          "polynomial": {
            "1": "1",
            "0": "-1"
          },
          "route": "recursion"
        }
        """
        d = self.descriptor
        upper = f',\n{pad}    "l": {d.l:d}' if d.kind == RANK_RANGE else ""
        return (
            f'{pad}{{\n{pad}  "n": {d.n:d},\n{pad}  "rank": {{\n'
            f'{pad}    "kind": "{d.kind}",\n{pad}    "k": {d.k:d}{upper}\n{pad}  }},\n'
            f'{pad}  "polynomial": {self.value.to_json(pad + "  ")},\n'
            f'{pad}  "route": "{self.route}"\n{pad}}}'
        )


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


#: Rows a cold recursive call may descend before it meets a filled row.
_FILL_STRIDE = 128


@functools.lru_cache(maxsize=None)
def _exact_value(n: int, k: int) -> LaurentPolynomial:
    if k < 0 or k > n:
        return ZERO
    if k == 0:
        return ONE
    a, b, c = _exact_value(n - 1, k - 2), _exact_value(n - 1, k - 1), _exact_value(n - 1, k)
    return shifted_sum(((a, n, 1), (a, k - 1, -1), (b, k, 1), (b, k - 1, -1), (c, k, 1)))


def _recursive_value(n: int, k: int) -> LaurentPolynomial:
    """:func:`_exact_value` without deep recursion: for n past
    :data:`_FILL_STRIDE`, ranks 0..k of every _FILL_STRIDE-th row below n
    are asked first, bottom-up, so no cold call descends more rows than
    that. Smaller n take no loop."""
    for m in range(_FILL_STRIDE, n, _FILL_STRIDE):
        for j in range(min(k, m) + 1):
            _exact_value(m, j)
    return _exact_value(n, k)


def _strata_sum(descriptor: VarietyDescriptor, route: str) -> LaurentPolynomial:
    """Sum of the exact-rank classes over ``descriptor.ranks()``, each by
    ``route``; an unknown route raises even when no rank is covered."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return shifted_sum((class_exact(descriptor.n, m, route).value, 0, 1) for m in descriptor.ranks())


def class_exact(n: int, k: int, route: str = ROUTE_RECURSION) -> MotivicClass:
    """The class of n x n symmetric matrices of rank exactly k, by
    ``route``: ``recursion``, or ``closed-form`` (:func:`closed_form`).

    Any integer k is accepted; the class is 0 outside 0 <= k <= n
    because the recursion naturally probes out-of-range indices.

    >>> class_exact(1, 1).value
    LaurentPolynomial('L - 1')
    >>> class_exact(2, 2).value
    LaurentPolynomial('L^3 - L^2')
    """
    if route == ROUTE_CLOSED_FORM:
        return closed_form(n, k)
    if route != ROUTE_RECURSION:
        raise ValueError(f"unknown route {route!r}")
    return MotivicClass(VarietyDescriptor.exact(n, k), _recursive_value(n, k), ROUTE_RECURSION)


def class_at_most(n: int, k: int, route: str = ROUTE_RECURSION) -> MotivicClass:
    """The class of n x n symmetric matrices of rank at most k.

    The strata are summed by ``route`` (``recursion`` or ``closed-form``);
    the result's own route is ``sum`` either way.
    """
    descriptor = VarietyDescriptor.at_most(n, k)
    return MotivicClass(descriptor, _strata_sum(descriptor, route), ROUTE_SUM)


def class_range(n: int, k: int, l: int, route: str = ROUTE_RECURSION) -> MotivicClass:
    """The class of n x n symmetric matrices of rank between k and l,
    with strata summed by ``route`` as in :func:`class_at_most`."""
    descriptor = VarietyDescriptor.rank_range(n, k, l)
    return MotivicClass(descriptor, _strata_sum(descriptor, route), ROUTE_SUM)


def closed_form(n: int, k: int) -> MotivicClass:
    """The exact-rank class by its closed product formula.

    The numerator multiplies the factors L^(2i) for 1 <= i <= floor(k/2)
    and (L^(n-i) - 1) for 0 <= i < k; the denominator is the product of
    the (L^(2i) - 1). The class is L^s, the product of the L^(2i), times
    V_k, the k-th value of a running product over one row n: V_0 = 1,
    V_(i+1) = V_i (L^(n-i) - 1), and after the first 2j factors an exact
    division by (L^(2j) - 1). Each division is exact because V_2j is the
    first 2j numerator binomials over the first j denominator ones,
    which is closed_form(n, 2j) / L^(j(j+1)), a polynomial. Every divisor
    is monic, so quotients are unique and the result is the one a single
    division at the end would give; a nonzero remainder would mean the
    formula is mistranscribed. Dividing as the product grows keeps every
    intermediate at the size of a class, not of the whole numerator.

    V_k for k and V_(k+1) for k + 1 share all but one factor, so the row
    is cached (:func:`_running_product`): walking k upward within n, as
    tables and range sums do, computes each factor once, and a single
    class computes only its own k factors. The cache never reads the
    recursion's, so the two routes stay independent computations.

    >>> closed_form(3, 1).value
    LaurentPolynomial('L^3 - 1')
    """
    descriptor = VarietyDescriptor.exact(n, k)
    if k < 0 or k > n:
        return MotivicClass(descriptor, ZERO, ROUTE_CLOSED_FORM)
    half = k // 2
    value = monomial(1, half * (half + 1)) * _running_product(n, k)
    return MotivicClass(descriptor, value, ROUTE_CLOSED_FORM)


#: The closed form's row cache: (n, (V_0, ..., V_m)) for the last n
#: asked, m the largest k asked of it since. Replaced whole, never edited
#: in place, so a concurrent reader always sees a consistent row.
_row: tuple[int, tuple[LaurentPolynomial, ...]] = (0, (ONE,))


def _running_product(n: int, k: int) -> LaurentPolynomial:
    """V_k of :func:`closed_form`'s row n (0 <= k <= n), from the cached
    row when it is row n, extending it to k if it stops short."""
    global _row
    row_n, row = _row
    if row_n != n:
        row = (ONE,)
    if k >= len(row):
        values = list(row)
        for i in range(len(row) - 1, k):
            value = values[i] * (monomial(1, n - i) - 1)
            if i % 2:
                value = value.div_exact(monomial(1, i + 1) - 1)
            values.append(value)
        row = tuple(values)
    _row = (n, row)
    return row[k]


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
    """The class of full-rank matrices up to scalar: :func:`class_exact`
    (n, n) over (L - 1), exact as scalars act freely on nonzero matrices.
    A remainder (a wrong full-rank class) raises ``NonzeroRemainder``."""
    if n < 1:
        raise ValueError(f"projective full rank needs n >= 1, got {n}")
    value = class_exact(n, n).value.div_exact(L - 1)
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
    signed_sum = shifted_sum(
        (ONE, s.twist, -s.multiplicity if s.shift % 2 else s.multiplicity) for s in summands
    )
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
    """Drop all memoized class values, the recursion's table and the
    closed form's row (recomputation must be identical)."""
    global _row
    _exact_value.cache_clear()
    _row = (0, (ONE,))
