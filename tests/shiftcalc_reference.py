"""Bodies that ostro.shiftcalc replaced, kept as references for the tests.

natural_dots_single_level is the one-level Ostrowski counter that the
two-level natural_dots_upto replaced: n + 1 runs a carry search over
every digit of n, sums the raised position's row into its tail and
splices the digit tuple.  The tests require equal yields and equal
DepthExceeded messages at the same n, for n_max >= 0 (at n_max < 0 it
still yields n = 0).

times_sqrt_real_quadrat is the QuadRat body of times_sqrt_real, kept as
the reference for its integer certificate.  It re-tags x over cf.d, takes its sign, whole part
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
from ostro.shiftcalc import _dots, times_sqrt_frac


def natural_dots_single_level(cf: CFData, sc: ShiftConstants, n_max: int):
    """(digits of n, natural_dots of them) for n = 0 .. n_max, one carry search per n."""
    m = cf.m
    top = cf.depth - m  # the last position whose shift by m is materialized
    caps = [cf.period[k % m] for k in range(max(top, 0) + 2)]  # k reaches top + 1 at most
    rise = [cap - (k == 0) for k, cap in enumerate(caps)]
    digits: tuple[int, ...] = ()
    rows, zeros = [], []  # row k and zeros[k] = (0,) * k, built as the digits reach k
    tails = [(0,) * 7]  # one longer than digits, ending in zeros
    for _ in range(n_max):
        yield digits, tails[0]
        k, size = 0, len(digits)
        while True:
            b = digits[k] + 1 if k < size else 1
            if b <= rise[k] and (k + 1 >= size or digits[k + 1] != caps[k + 1]):
                break
            k += 1
        if k > top:
            raise DepthExceeded(f"shifted index {k + m} exceeds depth {cf.depth}")
        if k >= size:
            rows += [_dots(cf, sc, (1,), j) for j in range(size, k + 1)]
            zeros += [(0,) * j for j in range(len(zeros), k + 1)]
            tails += [tails[-1]] * (k + 1 - size)
        (f0, f1, f2, f3, f4, f5, f6), (r0, r1, r2, r3, r4, r5, r6) = tails[k], rows[k]
        tail = (f0 + r0, f1 + r1, f2 + r2, f3 + r3, f4 + r4, f5 + r5, f6 + r6)
        if k:
            digits = zeros[k] + (b,) + digits[k + 1:]
            tails[:k + 1] = [tail] * (k + 1)
        else:
            digits = (b,) + digits[1:]
            tails[0] = tail
    yield digits, tails[0]


def times_sqrt_real_quadrat(x, eps, cf: CFData, sc: ShiftConstants) -> QuadRat:
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

    depth = bisect_right(range(1, cf.depth + 1), False, key=below_eps) + 1
    if depth > cf.depth:
        raise DepthExceeded(f"eps={eps} needs more than {cf.depth} digit positions")

    digits = encode_real(c, cf.at_least(depth - 1 + cf.m), depth)
    result = times_sqrt_frac(digits, sc) + QuadRat._of(0, whole, 1, cf.d)
    err = result - root * x
    if not (abs(err) - eps).sign() < 0:
        raise VerificationFailed(f"certified bound violated: |{err}| >= {eps}")
    return result
