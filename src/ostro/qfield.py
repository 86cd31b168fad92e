"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A value is a pair of rationals (a, b) denoting a + b*sqrt(d) for a fixed
positive non-square rational d.  Signs, comparisons and floors are decided
by exact integer tests; nothing in this module rounds.  The only numeric
escape hatch is :meth:`QuadRat.approx`, which is for display.

The text form is ``a+b*sqrt(d)`` with each part a rational like ``p/q``,
e.g. ``2+1*sqrt(3)`` or ``-9+5*sqrt(3)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class QuadRat:
    """An element a + b*sqrt(d) of Q(sqrt(d)), exact and immutable.

    Instances are normally built with :func:`quad`, which validates the
    radicand.  Arithmetic between two QuadRat values requires identical d.
    Equality is component-wise, which is also value equality because
    sqrt(d) is irrational.
    """

    a: Fraction
    b: Fraction
    d: Fraction

    def __post_init__(self):
        # unrolled: this constructor is the hottest allocation site
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))
        if type(self.d) is not Fraction:
            object.__setattr__(self, "d", Fraction(self.d))

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (the product with the conjugate)."""
        return self.a * self.a - self.b * self.b * self.d

    def _coerce(self, other) -> "QuadRat":
        if isinstance(other, QuadRat):
            if other.d is self.d or other.d == self.d:
                return other
            if other.is_rational:  # re-tag a purely rational operand
                return QuadRat(other.a, Fraction(0), self.d)
            raise MixedRadicand(f"cannot combine sqrt({self.d}) with sqrt({other.d})")
        if isinstance(other, (int, Fraction)):
            return QuadRat(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadRat":
        """Multiplicative inverse via the conjugate.

        a^2 - b^2 d never vanishes for a nonzero element because sqrt(d)
        is irrational.
        """
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("inverse of zero")
        n = self.norm()
        return QuadRat(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    # -- exact order --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        Scaled by the positive a.denominator * b.denominator this is the
        sign of an integer pair, decided by :func:`sign_sqrt`.
        """
        a, b, d = self.a, self.b, self.d
        return sign_sqrt(
            a.numerator * b.denominator, b.numerator * a.denominator,
            d.numerator, d.denominator,
        )

    def scaled(self) -> tuple[int, int, int]:
        """(A, B, D) with self = (A + B*sqrt(d)) / D and D > 0 the lcm of
        the two denominators."""
        a, b = self.a, self.b
        den = math.lcm(a.denominator, b.denominator)
        return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def floor(self) -> int:
        """Largest integer n <= a + b*sqrt(d); with (A, B, E) = scaled()
        and d = dn/dd that is floor((A*dd + B*sqrt(dn*dd)) / (E*dd))."""
        a, b, e = self.scaled()
        dn, dd = self.d.numerator, self.d.denominator
        return floor_sqrt(a * dd, b, dn * dd, e * dd)

    # -- presentation ---------------------------------------------------

    def approx(self, prec: int = 50) -> Decimal:
        """Decimal approximation, for display and for numeric cross-checks."""
        with localcontext() as ctx:
            ctx.prec = prec + 10
            root = (Decimal(self.d.numerator) / Decimal(self.d.denominator)).sqrt()
            val = (
                Decimal(self.a.numerator) / Decimal(self.a.denominator)
                + (Decimal(self.b.numerator) / Decimal(self.b.denominator)) * root
            )
            return +val

    def __str__(self) -> str:
        op = "-" if self.b < 0 else "+"
        return f"{self.a}{op}{abs(self.b)}*sqrt({self.d})"


def quad(a, b, d) -> QuadRat:
    """Build a + b*sqrt(d), validating the radicand."""
    return QuadRat(Fraction(a), Fraction(b), check_radicand(d))


_RAT = r"[+-]?\d+(?:/\d+)?"
_QUAD_RE = re.compile(
    rf"^(?P<a>{_RAT})?"
    rf"(?:(?P<op>[+-])?(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt\((?P<d>{_RAT})\))?$"
)


def parse_rat(text: str) -> Fraction:
    """Parse a rational such as ``7``, ``-5/3`` or ``1e-9``."""
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:
        pass
    try:
        return Fraction(Decimal(text))
    except ArithmeticError:
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
    a = Fraction(m.group("a")) if m.group("a") is not None else Fraction(0)
    if m.group("d") is None:
        if d is None:
            raise ValueError(f"bare rational {text!r} needs an explicit radicand")
        return QuadRat(a, Fraction(0), check_radicand(Fraction(d)))
    rad = check_radicand(Fraction(m.group("d")))
    if d is not None and Fraction(d) != rad:
        raise ValueError(f"radicand mismatch: {rad} in text, {d} requested")
    b = Fraction(m.group("b")) if m.group("b") is not None else Fraction(1)
    if m.group("op") == "-":
        b = -b
    elif m.group("op") is None and m.group("a") is not None:
        raise ValueError(f"missing sign between parts in {text!r}")
    return QuadRat(a, b, rad)
