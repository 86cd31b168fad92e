"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A value a + b*sqrt(d), for a fixed positive non-square rational d, is held
as one reduced integer triple (A, B, E) meaning (A + B*sqrt(d)) / E, the
form every kernel of the package computes with.  Signs, comparisons and
floors are decided by exact integer tests; nothing in this module rounds.  The only numeric
escape hatch is :meth:`QuadRat.approx`, which is for display.

The text form is ``a+b*sqrt(d)`` with each part a rational like ``p/q``,
e.g. ``2+1*sqrt(3)`` or ``-9+5*sqrt(3)``.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import MixedRadicand, RationalSquare


def sign_sqrt(a: int, b: int, dn: int, dd: int) -> int:
    """Exact sign in {-1, 0, +1} of a + b*sqrt(dn/dd) for integers a, b.

    dn/dd is a positive non-square rational with dd > 0.  When a and b
    have opposite signs the comparison reduces to a^2 dd vs b^2 dn,
    whose strict inequality decides which term dominates.  This is the
    package's one exact order test; QuadRat.sign delegates to it.
    """
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    lhs = a * a * dd
    rhs = b * b * dn
    if lhs > rhs:
        return sa
    if lhs < rhs:
        return sb
    return 0  # unreachable for a non-square radicand


def floor_sqrt(a: int, b: int, big_d: int, e: int) -> int:
    """Exact floor of (a + b*sqrt(big_d)) / e for integers a, b, e > 0 and
    big_d > 0 non-square, as floor((a + floor(b*sqrt(big_d))) / e), where
    b*sqrt(big_d) is irrational for b != 0.  QuadRat.floor delegates to it.
    """
    if b == 0:
        return a // e
    y = math.isqrt(b * b * big_d)
    return (a + y) // e if b > 0 else (a - y - 1) // e


def is_rational_square(x: Fraction) -> bool:
    """True iff x is the square of a rational.

    x is reduced, so it suffices that numerator and denominator are both
    perfect squares.
    """
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def check_radicand(d: Fraction) -> Fraction:
    """Validate d for use as a radicand: positive and not a rational square."""
    d = Fraction(d)
    if d <= 0:
        raise RationalSquare(f"radicand must be positive, got {d}")
    if is_rational_square(d):
        raise RationalSquare(f"radicand {d} is a rational square")
    return d


class QuadRat:
    """An element a + b*sqrt(d) of Q(sqrt(d)), exact and immutable.

    Stored as the integer triple (A, B, E) of (A + B*sqrt(d)) / E with
    E > 0 and gcd(A, B, E) = 1, over the Fraction d.  That triple is
    unique for each value, so field-wise equality and hashing are value
    equality (sqrt(d) is irrational).  QuadRat(a, b, d) takes the two
    rational parts; :func:`quad` also validates the radicand.  Arithmetic
    between two QuadRat values requires identical d; a rational operand,
    or a QuadRat with b = 0, is re-tagged to this d.  As in Fraction, the
    fields are private slots behind read-only properties.
    """

    __slots__ = ("_a", "_b", "_e", "_d")

    def __init__(self, a, b, d):
        a, b = Fraction(a), Fraction(b)
        e = math.lcm(a.denominator, b.denominator)  # over the lcm no common factor is left
        self._a, self._b, self._e, self._d = int(a * e), int(b * e), e, Fraction(d)

    @classmethod
    def _of(cls, a: int, b: int, e: int, d: Fraction) -> "QuadRat":
        """(a + b*sqrt(d)) / e for ints, e != 0, and a Fraction d, reduced
        by one gcd to E > 0."""
        if not e:
            raise ZeroDivisionError(f"({a} + {b}*sqrt({d})) / 0")
        g = math.gcd(e, a, b) if e > 0 else -math.gcd(e, a, b)
        x = object.__new__(cls)
        x._a, x._b, x._e, x._d = a // g, b // g, e // g, d
        return x

    # -- structure ---------------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._e)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._e)

    @property
    def d(self) -> Fraction:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def scaled(self) -> tuple[int, int, int]:
        """The triple (A, B, E): self = (A + B*sqrt(d)) / E, E > 0."""
        return self._a, self._b, self._e

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (the product with the conjugate)."""
        dn, dd = self._d.numerator, self._d.denominator
        return Fraction(self._a * self._a * dd - self._b * self._b * dn, self._e * self._e * dd)

    def __eq__(self, other):
        if other.__class__ is not QuadRat:
            return NotImplemented
        return self.scaled() == other.scaled() and self._d == other._d

    def __hash__(self):
        return hash((self.a, self.b, self._d))

    def __repr__(self) -> str:
        return f"QuadRat(a={self.a!r}, b={self.b!r}, d={self._d!r})"

    def _parts(self, other):
        """other's triple over this d, or None for an unsupported type."""
        if isinstance(other, QuadRat):
            if other._d is self._d or other._d == self._d or other._b == 0:
                return other._a, other._b, other._e
            raise MixedRadicand(f"cannot combine sqrt({self._d}) with sqrt({other._d})")
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    # -- ring operations ----------------------------------------------------

    def _plus(self, a: int, b: int, e: int) -> "QuadRat":
        """self + (a + b*sqrt(d)) / e, reduced by _of."""
        sa, sb, se = self._a, self._b, self._e
        return QuadRat._of(sa * e + a * se, sb * e + b * se, se * e, self._d)

    def __add__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else self._plus(*o)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat._of(-self._a, -self._b, self._e, self._d)

    def __sub__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else self._plus(-o[0], -o[1], o[2])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        (a, b, e), sa, sb, d = o, self._a, self._b, self._d
        dn, dd = d.numerator, d.denominator
        return QuadRat._of(sa * a * dd + sb * b * dn, (sa * b + sb * a) * dd, self._e * e * dd, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadRat":
        """Multiplicative inverse via the conjugate: E dd (A - B sqrt(d))
        over A^2 dd - B^2 dn, which vanishes only for zero because sqrt(d)
        is irrational."""
        a, b, e = self.scaled()
        if a == 0 and b == 0:
            raise ZeroDivisionError("inverse of zero")
        dn, dd = self._d.numerator, self._d.denominator
        return QuadRat._of(e * dd * a, -e * dd * b, a * a * dd - b * b * dn, self._d)

    def __truediv__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else self * QuadRat._of(*o, self._d).inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    # -- exact order --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, that of A + B*sqrt(d) as E > 0,
        decided by :func:`sign_sqrt`."""
        return sign_sqrt(self._a, self._b, self._d.numerator, self._d.denominator)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def floor(self) -> int:
        """Largest integer n <= (A + B*sqrt(d)) / E; with d = dn/dd that is
        floor((A*dd + B*sqrt(dn*dd)) / (E*dd))."""
        dn, dd = self._d.numerator, self._d.denominator
        return floor_sqrt(self._a * dd, self._b, dn * dd, self._e * dd)

    # -- presentation ---------------------------------------------------

    def approx(self, prec: int = 50) -> Decimal:
        """Decimal approximation at prec + 10 digits, for display and numeric
        cross-checks; with A, B of opposite signs it is the norm over the
        conjugate, (A^2 dd - B^2 dn) / (dd E (A - B sqrt(d))) for d = dn/dd, so
        no digits cancel.  A rational (B = 0) is A / E alone, so it keeps its
        own exponent: 0 prints as 0 and 7/5 as 1.4."""
        a, b, e, dn, dd = self._a, self._b, self._e, self._d.numerator, self._d.denominator
        with localcontext() as ctx:
            ctx.prec = prec + 10
            if not b:
                return Decimal(a) / e
            root = (Decimal(dn) / Decimal(dd)).sqrt()
            if a * b < 0:
                return Decimal(a * a * dd - b * b * dn) / (dd * e * (a - b * root))
            return +(Decimal(a) / e + Decimal(b) / e * root)

    def __str__(self) -> str:
        op = "-" if self._b < 0 else "+"
        return f"{self.a}{op}{abs(self.b)}*sqrt({self._d})"


def quad(a, b, d) -> QuadRat:
    """Build a + b*sqrt(d), validating the radicand."""
    return QuadRat(a, b, check_radicand(d))


_RAT = r"[+-]?\d+(?:/\d+)?"
_QUAD_RE = re.compile(
    rf"^(?P<a>{_RAT})?"
    rf"(?:(?P<op>[+-])?(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt\((?P<d>{_RAT})\))?$"
)


def parse_rat(text: str) -> Fraction:
    """Parse a rational such as ``7``, ``-5/3`` or ``1e-9``; a zero
    denominator is a ValueError like any other malformed rational."""
    text = text.strip()
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        pass
    try:
        return Fraction(Decimal(text))
    except (ArithmeticError, ValueError):  # ValueError: a NaN has no ratio
        raise ValueError(f"not a rational: {text!r}") from None


def parse_quad(text: str, d=None) -> QuadRat:
    """Parse the text form ``a+b*sqrt(d)``.

    Also accepts bare rationals (requires d), ``sqrt(d)``, ``-sqrt(d)``
    and ``b*sqrt(d)``.  A d keyword must agree with an explicit radicand.
    """
    s = text.strip().replace(" ", "")
    m = _QUAD_RE.match(s)
    if not m or (m.group("a") is None and m.group("d") is None):
        raise ValueError(f"cannot parse quadratic value: {text!r}")
    a = parse_rat(m.group("a")) if m.group("a") is not None else 0
    if m.group("d") is None:
        if d is None:
            raise ValueError(f"bare rational {text!r} needs an explicit radicand")
        return QuadRat(a, 0, check_radicand(Fraction(d)))
    rad = check_radicand(parse_rat(m.group("d")))
    if d is not None and Fraction(d) != rad:
        raise ValueError(f"radicand mismatch: {rad} in text, {d} requested")
    b = parse_rat(m.group("b")) if m.group("b") is not None else 1
    if m.group("op") == "-":
        b = -b
    elif m.group("op") is None and m.group("a") is not None:
        raise ValueError(f"missing sign between parts in {text!r}")
    return QuadRat(a, b, rad)
