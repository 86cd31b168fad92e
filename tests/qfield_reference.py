"""The Fraction-pair QuadRat that ostro.qfield replaced, kept as the
reference for the integer-triple QuadRat.

A value a + b*sqrt(d) is the pair of Fractions (a, b) over the Fraction d,
a frozen dataclass, so equality and hashing are field-wise on Fractions;
the arithmetic is the textbook one on the pair.  It shares only the
integer order primitives sign_sqrt and floor_sqrt (and the radicand check)
with the library; tests/test_qfield.py checks those against a 100-digit
Decimal oracle, and its differential test requires every operation of
ostro.qfield.QuadRat to give the same value, text and hash as this class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from ostro.errors import MixedRadicand
from ostro.qfield import check_radicand, floor_sqrt, sign_sqrt


@dataclass(frozen=True)
class RefQuadRat:
    """An element a + b*sqrt(d) of Q(sqrt(d)) as two Fractions.

    Instances are normally built with :func:`ref_quad`, which validates
    the radicand.  Arithmetic between two QuadRat values requires identical d.
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

    def _coerce(self, other) -> "RefQuadRat":
        if isinstance(other, RefQuadRat):
            if other.d is self.d or other.d == self.d:
                return other
            if other.is_rational:  # re-tag a purely rational operand
                return RefQuadRat(other.a, Fraction(0), self.d)
            raise MixedRadicand(f"cannot combine sqrt({self.d}) with sqrt({other.d})")
        if isinstance(other, (int, Fraction)):
            return RefQuadRat(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RefQuadRat(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return RefQuadRat(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RefQuadRat(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RefQuadRat(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "RefQuadRat":
        """Multiplicative inverse via the conjugate.

        a^2 - b^2 d never vanishes for a nonzero element because sqrt(d)
        is irrational.
        """
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("inverse of zero")
        n = self.norm()
        return RefQuadRat(self.a / n, -self.b / n, self.d)

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
        """Decimal approximation, for display and for numeric cross-checks.
        With a and b of opposite signs, a + b sqrt(d) is evaluated as
        (a^2 - b^2 d) / (a - b sqrt(d)), both over the common denominator e
        of a and b, so that no digits cancel."""
        dn, dd = self.d.numerator, self.d.denominator
        with localcontext() as ctx:
            ctx.prec = prec + 10
            if self.b == 0:  # a rational keeps its own exponent
                return Decimal(self.a.numerator) / Decimal(self.a.denominator)
            root = (Decimal(dn) / Decimal(dd)).sqrt()
            if self.a * self.b < 0:
                e = math.lcm(self.a.denominator, self.b.denominator)
                a, b = int(self.a * e), int(self.b * e)
                return Decimal(a * a * dd - b * b * dn) / (dd * e * (a - b * root))
            val = (
                Decimal(self.a.numerator) / Decimal(self.a.denominator)
                + (Decimal(self.b.numerator) / Decimal(self.b.denominator)) * root
            )
            return +val

    def __str__(self) -> str:
        op = "-" if self.b < 0 else "+"
        return f"{self.a}{op}{abs(self.b)}*sqrt({self.d})"


def ref_quad(a, b, d) -> RefQuadRat:
    """Build a + b*sqrt(d), validating the radicand."""
    return RefQuadRat(Fraction(a), Fraction(b), check_radicand(d))
