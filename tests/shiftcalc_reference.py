"""The QuadRat body of times_sqrt_real that ostro.shiftcalc replaced, kept
as the reference for its integer certificate.

times_sqrt_real_quadrat re-tags x over cf.d, takes its sign, whole part
and reduced part c by QuadRat operations, finds the digit count by the
same bisection, multiplies through times_sqrt_frac and certifies
|result - sqrt(d) x| < eps by QuadRat subtraction, abs and sign.  The
library decides the sign, the whole part and the certificate on integer
triples; the tests require equal results and equal errors.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from ostro.cfrac import CFData, ShiftConstants
from ostro.errors import DepthExceeded, OutOfDomain, VerificationFailed
from ostro.ostrowski import encode_real
from ostro.qfield import QuadRat, sign_sqrt
from ostro.shiftcalc import times_sqrt_frac


def times_sqrt_real_quadrat(x, eps, cf: CFData, sc: ShiftConstants,
                            bound: int | None = None) -> QuadRat:
    """sqrt(d) * x for any x >= 0, certified to |error| < eps, in QuadRat arithmetic."""
    x = QuadRat._of(0, 0, 1, cf.d) + x  # over cf.d, a rational x re-tagged
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if x.sign() < 0:
        raise OutOfDomain(f"{x} is negative")

    root = cf.sqrt_d()
    whole = (x + root - cf.a0).floor()  # x - whole lies in I exactly
    c = x - whole

    dn, dd, en, ed = cf.d.numerator, cf.d.denominator, eps.numerator, eps.denominator
    ps, qs = cf.conv_p, cf.conv_q

    def below_eps(k: int) -> bool:
        s = 1 if k % 2 else -1
        dq, dp = qs[k] - qs[k + 1], ps[k] - ps[k + 1]
        return sign_sqrt(s * dq * dn * ed - en * dd, -s * dp * dd * ed, dn, dd) < 0

    bound = cf.depth if bound is None else min(bound, cf.depth)
    depth = bisect_right(range(1, bound + 1), False, key=below_eps) + 1
    if depth > bound:
        raise DepthExceeded(f"eps={eps} needs more than {bound} digit positions")

    digits = encode_real(c, cf.at_least(depth - 1 + cf.m), depth)
    result = times_sqrt_frac(digits, sc) + QuadRat._of(0, whole, 1, cf.d)
    err = result - root * x
    if not (abs(err) - eps).sign() < 0:
        raise VerificationFailed(f"certified bound violated: |{err}| >= {eps}")
    return result
