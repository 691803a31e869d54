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
"""

from __future__ import annotations

from operator import add, sub
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
        if terms and min(terms) < 0:
            raise ValueError(f"negative exponent {min(terms)}: L is never inverted")
        cleaned = {int(e): int(c) for e, c in terms.items() if c != 0} if terms else {}
        if not cleaned:
            self._lo, self._coeffs = 0, ()
            return
        lo = min(cleaned)
        coeffs = [0] * (max(cleaned) - lo + 1)
        for exp, coeff in cleaned.items():
            coeffs[exp - lo] = coeff
        self._lo, self._coeffs = lo, tuple(coeffs)

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

    def _combine(self, other: LaurentPolynomial, op) -> LaurentPolynomial:
        """``op`` (add or sub) applied coefficient-wise, slices aligned."""
        a, b = self._coeffs, other._coeffs
        if not b:
            return self
        if not a:
            return other if op is add else -other
        alo, blo = self._lo, other._lo
        lo = min(alo, blo)
        out = [0] * (max(alo + len(a), blo + len(b)) - lo)
        i = alo - lo
        out[i : i + len(a)] = a
        j = blo - lo
        out[j : j + len(b)] = map(op, out[j : j + len(b)], b)
        return _stripped(lo, out)

    def __add__(self, other: int | LaurentPolynomial) -> LaurentPolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self) -> LaurentPolynomial:
        return _canonical(self._lo, tuple(-c for c in self._coeffs))

    def __sub__(self, other: int | LaurentPolynomial) -> LaurentPolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, sub)

    def __rsub__(self, other: int | LaurentPolynomial) -> LaurentPolynomial:
        return (-self) + other

    def __mul__(self, other: int | LaurentPolynomial) -> LaurentPolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        # Schoolbook, one row per nonzero coefficient of the shorter
        # operand. Z is a domain, so the end coefficients stay nonzero.
        # Rows for +-1 skip the scaling: the classes are built from
        # factors like L^a - L^b, and this halves their cost.
        width = len(b)
        out = [0] * (len(a) + width - 1)
        for i, c in enumerate(a):
            if c == 1:
                out[i : i + width] = map(add, out[i : i + width], b)
            elif c == -1:
                out[i : i + width] = map(sub, out[i : i + width], b)
            elif c:
                out[i : i + width] = map(add, out[i : i + width], map(c.__mul__, b))
        return _canonical(self._lo + other._lo, tuple(out))

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
        # With the valuations set aside, both tuples start at a nonzero
        # constant term, so this is ordinary long division.
        num = list(self._coeffs)
        den = divisor._coeffs
        top = len(den) - 1
        lead = den[top]
        rest = [(i, c) for i, c in enumerate(den[:top]) if c]
        size = len(num) - top
        if size <= 0:
            raise NonzeroRemainder(f"{self} is not divisible by {divisor}")
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
        if isinstance(other, int):
            other = monomial(other, 0)
        if not isinstance(other, LaurentPolynomial):
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
    return _canonical(lo + start, tuple(coeffs[start:hi]))


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


ZERO = LaurentPolynomial()
ONE = monomial(1, 0)
#: The class of the affine line; point counting substitutes L = q.
L = monomial(1, 1)
