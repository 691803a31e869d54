"""Exact arithmetic for polynomials in one variable ``L``.

Every class computed by this package lives in the ring Z[L]:
coefficients are Python's arbitrary-precision integers, exponents are
never negative (L is never inverted), and nothing is ever rounded or
truncated. The only division offered is *exact* division -- a formula
that looks rational must clear its denominator completely in Z[L] or
the operation fails loudly.

Values are dense: the valuation ``_lo`` (the lowest exponent with a
nonzero coefficient) plus the tuple of coefficients from it up, with no
zero at either end (zero is the empty tuple at 0). Starting at the
valuation, not at L^0, halves classes like [60, 60] (L^930 to L^1830).
The form is canonical, so two polynomials are equal iff their
valuations and tuples are equal.

Every factor the classes are built from has the shape L^a (L^m - 1).
Multiplying or dividing by such a binomial takes a shifted pass over
slices, with no Python loop over coefficients: the product is the
operand shifted by m minus itself, and the quotient is a running sum in
each residue class mod m. Every other divisor takes long division.
Every sum, difference, negation, schoolbook product and polynomial built
from terms is one integer-weighted sum of shifted terms in one buffer
(:func:`shifted_sum`), as are the recursion and strata sums.

The JSON text (:meth:`LaurentPolynomial.to_json`) is one ``%`` format
over the interleaved exponents and coefficients, with no object per term:
a max-n 60 table is 819,363 terms and 19.3 MB, and a string per term cost
more than computing the classes.
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import add, neg, sub
from typing import Mapping


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


class NonzeroRemainder(ArithmeticError):
    """Exact division failed: no quotient exists in Z[L]."""


class LaurentPolynomial:
    """A dense polynomial in L with integer coefficients.

    Instances are immutable; every operation returns a new polynomial.
    Integers coerce on either side of the arithmetic operators. A
    negative exponent raises ``ValueError``.

    >>> (L - 1) * (L + 1)
    LaurentPolynomial('L^2 - 1')
    >>> (L**3 - L**2).div_exact(L - 1)
    LaurentPolynomial('L^2')
    """

    __slots__ = ("_lo", "_coeffs")

    def __init__(self, terms: Mapping[int, int] | None = None):
        p = shifted_sum((monomial(c, e), 0, 1) for e, c in (terms or {}).items())
        self._lo, self._coeffs = p._lo, p._coeffs

    def terms(self) -> dict[int, int]:
        """The exponent -> coefficient map (zero-free)."""
        lo = self._lo
        return {lo + i: c for i, c in enumerate(self._coeffs) if c}

    def coefficient(self, exp: int) -> int:
        i = exp - self._lo
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- ring operations ------------------------------------------------

    def __add__(self, other: int | LaurentPolynomial) -> LaurentPolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return shifted_sum(((self, 0, 1), (other, 0, 1)))

    __radd__ = __add__

    def __neg__(self) -> LaurentPolynomial:
        return shifted_sum(((self, 0, -1),))

    def __sub__(self, other: int | LaurentPolynomial) -> LaurentPolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return shifted_sum(((self, 0, 1), (other, 0, -1)))

    def __rsub__(self, other: int | LaurentPolynomial) -> LaurentPolynomial:
        return (-self) + other

    def __mul__(self, other: int | LaurentPolynomial) -> LaurentPolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = (self, other) if len(self._coeffs) <= len(other._coeffs) else (other, self)
        m = _binomial_degree(a._coeffs) if a._coeffs else 0
        if m:
            # b * (L^m - 1): b shifted up by m, minus b. The ends are
            # -b[0] and b[-1], both nonzero.
            coeffs = b._coeffs
            out = [0] * m + list(coeffs)
            out[: len(coeffs)] = map(sub, out[: len(coeffs)], coeffs)
            return _canonical(a._lo + b._lo, tuple(out))
        # Schoolbook: one shifted, scaled copy of the longer operand per
        # nonzero coefficient of the shorter.
        return shifted_sum((b, a._lo + i, c) for i, c in enumerate(a._coeffs) if c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPolynomial:
        if n < 0:
            raise ValueError("negative powers are not defined: L is never inverted")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def div_exact(self, divisor: int | LaurentPolynomial) -> LaurentPolynomial:
        """The unique r with r * divisor == self, if one exists in Z[L].

        Raises :class:`NonzeroRemainder` when no exact quotient exists
        (including quotients that would need fractional coefficients or
        a negative power of L, as in ``L.div_exact(L**2)``) and
        :class:`DivisionByZero` when the divisor is zero. Remainders are
        an error, never a truncation.
        """
        divisor = _coerce(divisor)
        if divisor is NotImplemented:
            raise TypeError("divisor must be an integer or LaurentPolynomial")
        if divisor.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        # Z is a domain, so valuations add under multiplication: the
        # quotient's is the difference, and must not be negative.
        lo = self._lo - divisor._lo
        if lo < 0:
            raise NonzeroRemainder(f"{self} is not divisible by {divisor}")
        num = list(self._coeffs)
        den = divisor._coeffs
        top = len(den) - 1
        size = len(num) - top
        if size <= 0:
            raise NonzeroRemainder(f"{self} is not divisible by {divisor}")
        m = _binomial_degree(den)
        if m:
            # q * (L^m - 1) == num means q_j = q_(j-m) - num_j, so within
            # each residue class mod m q is the running sum of -num. The
            # last sum of each class lies past the quotient's top (index
            # size or above), where q must vanish; a class starting there
            # has that one entry, so only the first min(m, size) classes
            # need summing.
            quot = list(map(neg, num))
            for r in range(min(m, size)):
                quot[r::m] = accumulate(quot[r::m])
            if any(quot[size:]):
                raise NonzeroRemainder(f"{self} is not divisible by {divisor}")
            return _canonical(lo, tuple(quot[:size]))
        # With the valuations set aside, both tuples start at a nonzero
        # constant term, so this is ordinary long division.
        lead = den[top]
        rest = [(i, c) for i, c in enumerate(den[:top]) if c]
        quot = [0] * size
        for shift in range(size - 1, -1, -1):
            t = num[shift + top]
            if not t:
                continue
            q, r = divmod(t, lead)
            if r:
                raise NonzeroRemainder(f"{self} is not divisible by {divisor}")
            quot[shift] = q
            for i, c in rest:
                num[shift + i] -= q * c
        if any(num[:top]):
            raise NonzeroRemainder(f"{self} is not divisible by {divisor}")
        # An exact quotient's end coefficients divide self's, so are nonzero.
        return _canonical(lo, tuple(quot))

    def eval_int(self, x: int) -> int:
        """Exact evaluation at the integer ``x`` (Horner's rule)."""
        value = 0
        for c in reversed(self._coeffs):
            value = value * x + c
        return value * x**self._lo

    # -- comparisons and rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._lo == other._lo and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # A constant hashes like the int it equals.
        if self._lo == 0 and len(self._coeffs) <= 1:
            return hash(self._coeffs[0] if self._coeffs else 0)
        return hash((self._lo, self._coeffs))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"LaurentPolynomial('{self}')"

    def _render(self, left: str, right: str) -> str:
        """Terms in decreasing exponent order, powers written L^<left>exp<right>."""
        coeffs = self._coeffs
        if not coeffs:
            return "0"
        lo = self._lo
        parts: list[str] = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            exp = lo + i
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "L" if exp == 1 else f"L^{left}{exp}{right}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(f" + {body}" if c > 0 else f" - {body}")
        # Every term carries a " + " / " - " separator; the leading
        # term's becomes no sign or a bare "-".
        text = "".join(parts)
        return text[3:] if text[1] == "+" else f"-{text[3:]}"

    def __str__(self) -> str:
        """Canonical text form: terms in decreasing exponent order.

        >>> str(L**5 - L**2)
        'L^5 - L^2'
        >>> str(ZERO)
        '0'
        """
        return self._render("", "")

    def latex(self) -> str:
        """LaTeX form in descending powers, e.g. ``L^{5} - L^{2}``."""
        return self._render("{", "}")

    def to_json_dict(self) -> dict[str, str]:
        """JSON form: decimal exponent strings to decimal coefficient strings."""
        coeffs, lo = self._coeffs, self._lo
        return {str(lo + i): str(coeffs[i]) for i in range(len(coeffs) - 1, -1, -1) if coeffs[i]}

    def to_json(self, pad: str = "") -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, every line after
        the first prefixed by ``pad``, from one ``%`` format whose ``%d``
        writes each int straight into the output: no string per term.

        >>> print((L**2 - 3).to_json())
        {
          "2": "1",
          "0": "-3"
        }
        """
        rc = self._coeffs[::-1]
        if not rc:
            return "{}"
        values = list(compress(rc, rc))
        flat = values * 2
        flat[::2] = compress(range(self._lo + len(rc) - 1, self._lo - 1, -1), rc)
        flat[1::2] = values
        pad = pad.replace("%", "%%")
        lines = (f',\n{pad}  "%d": "%d"' * len(values))[1:]
        return f"{{{lines}\n{pad}}}" % tuple(flat)


def shifted_sum(terms) -> LaurentPolynomial:
    """The sum of c * L^shift * P over the (P, shift, c) of ``terms``, c a
    nonzero integer, in one buffer with one slice pass per term; a term
    reaching below L^0 raises ``ValueError``.

    >>> shifted_sum(((L + 1, 2, 1), (L**2, 0, -1), (ONE, 1, 1), (L - 1, 0, 3)))
    LaurentPolynomial('L^3 + 4L - 3')
    """
    spans = [(p._lo + s, p._coeffs, c) for p, s, c in terms if p._coeffs]
    if not spans:
        return ZERO
    lo = min(start for start, _, _ in spans)
    if lo < 0:
        raise ValueError(f"negative exponent {lo}: L is never inverted")
    out = [0] * (max(start + len(coeffs) for start, coeffs, _ in spans) - lo)
    for k, (start, coeffs, c) in enumerate(spans):
        i = start - lo
        j = i + len(coeffs)
        # +-1 take a plain add or sub pass; any other c scales the slice.
        row = coeffs if c in (1, -1) else map(c.__mul__, coeffs)
        if k:
            out[i:j] = map(sub if c == -1 else add, out[i:j], row)
        else:  # the first term lands on zeros: copied, not added
            out[i:j] = map(neg, coeffs) if c == -1 else row
    return _stripped(lo, out)


def _canonical(lo: int, coeffs: tuple[int, ...]) -> LaurentPolynomial:
    """Wrap coefficients already free of zeros at both ends."""
    p = object.__new__(LaurentPolynomial)
    p._lo, p._coeffs = (lo, coeffs) if coeffs else (0, ())
    return p


def _stripped(lo: int, coeffs: list[int]) -> LaurentPolynomial:
    """Wrap coefficients after trimming zeros from both ends."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    start = 0
    while start < hi and not coeffs[start]:
        start += 1
    return _canonical(lo + start, tuple(coeffs[start:hi] if start or hi < len(coeffs) else coeffs))


def _binomial_degree(coeffs: tuple[int, ...]) -> int:
    """m if ``coeffs`` is (-1, 0, ..., 0, 1), the tuple of L^m - 1, else 0."""
    m = len(coeffs) - 1
    if m and coeffs[0] == -1 and coeffs[m] == 1 and not any(coeffs[1:m]):
        return m
    return 0


def _coerce(value: object) -> LaurentPolynomial:
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, int):
        return monomial(value, 0)
    return NotImplemented


def monomial(coeff: int, exp: int) -> LaurentPolynomial:
    """The single-term polynomial ``coeff * L^exp`` (zero if coeff is 0).

    A negative ``exp`` raises ``ValueError``."""
    if exp < 0:
        raise ValueError(f"negative exponent {exp}: L is never inverted")
    return _canonical(int(exp), (int(coeff),) if coeff else ())


ZERO = _canonical(0, ())
ONE = monomial(1, 0)
#: The class of the affine line; point counting substitutes L = q.
L = monomial(1, 1)
