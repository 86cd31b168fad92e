"""Bodies that ostro.shiftcalc and ostro.harness replaced, kept as references for the tests.

natural_dots_per_n is the per-n view of the block sweep natural_dots_upto:
(digits, the seven ints) for each n = 0 .. n_max, each n of a block being
its remainder's low-table entry plus the block's high digits and ints.
The differentials that compare the sweep with encode_nat and natural_dots
per n read it.

pass_over_n_per_n is the pass over n that decided every check at every n
before harness._pass_over_n decided them once per table entry and once
per block: the same per-n body, on natural_dots_per_n.  The tests require
the same report entries, counts, first failures and witnesses.

natural_dots_single_level is the one-level Ostrowski counter that the
greedy sweep natural_dots_upto replaced: n + 1 runs a carry search over
every digit of n, sums the raised position's row into its tail and
splices the digit tuple.  The library encodes each n greedily and sums
its digits with _dots instead, so this odometer and its running-tail sum
live only here, as the independent side of the differential.  The tests
require equal yields and equal DepthExceeded messages at the same n, for
n_max >= 0 (at n_max < 0 it still yields n = 0).

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
from math import isqrt
from operator import add

from ostro import ostrowski, shiftcalc
from ostro.cfrac import CFData, ShiftConstants
from ostro.errors import DepthExceeded, OutOfDomain, VerificationFailed
from ostro.harness import _sweep, _witness_first
from ostro.ostrowski import encode_real
from ostro.qfield import QuadRat, sign_sqrt
from ostro.shiftcalc import _dots, times_sqrt_frac


def natural_dots_per_n(cf: CFData, sc: ShiftConstants, n_max: int):
    """(digits of n, natural_dots of them) for n = 0 .. n_max, from the block sweep."""
    low = []
    for item in shiftcalc.natural_dots_upto(cf, sc, n_max):
        if len(item) == 2:  # the low-table entry of n = len(low)
            low.append(item)
            yield item
            continue
        _, rem, room, high, ints = item
        for digits, dots in low[rem:room]:
            yield digits + high[len(digits):], tuple(map(add, dots, ints))


def pass_over_n_per_n(ctx) -> None:
    """harness._pass_over_n with every check decided at every n; it leaves in ctx
    the count and failures of the exact products, as the pass does."""
    cf, sc, config, out = ctx.cf, ctx.sc, ctx.config, ctx.out
    n_max = min(config.n_max, cf.q(cf.depth - cf.m + 1) - 1)
    exact_top = min(config.lambda_n_max, n_max) + 1
    recovery_checked = exact_checked = 0
    rt_fails, frac_fails, nat_fails, exact_fails = [], [], [], []
    printed_frac_fails = printed_nat_fails = 0
    example = None
    a0, dd, example_n = cf.a0, cf.dd, min(5, n_max)
    dndd = cf.dn * dd
    for n, (digits, (fa, fb, ya, yb, v1, w0, w1)) in enumerate(
            natural_dots_per_n(cf, sc, n_max)):
        if fb != n:
            rt_fails.append({"n": n, "reason": "roundtrip"})
            continue
        recovery_checked += 1
        if a0 - fa != isqrt((n + 1) ** 2 * dndd) // dd:
            rt_fails.append({"n": n, "reason": "fractional part outside I"})
        if n < exact_top:
            exact_checked += 1
            if any(shiftcalc.sqrt_product(cf, sc, fa, fb, ya, yb)[0]):
                exact_fails.append((n, digits))
        if any(shiftcalc.frac_verdicts(cf, sc, fa, fb, ya, yb)):
            frac_fails.append((n, digits))
        if shiftcalc.nat_verdicts(sc, fb, v1, w0):
            nat_fails.append((n, digits))
        if n <= 50:
            frac_printed, nat_printed = shiftcalc.printed_verdicts(cf, sc, fa, fb, ya, yb, v1, w1)
            printed_frac_fails += not frac_printed
            printed_nat_fails += not nat_printed
        if n == example_n:
            example = ostrowski.OstDigits._of(cf, digits, ostrowski.KIND_NAT)
    ctx.exact_checked, ctx.exact_fails = exact_checked, exact_fails
    _sweep(out, "roundtrip_and_split", n_max + 1, rt_fails)
    _sweep(out, "recover_frac", recovery_checked, _witness_first(
        cf, frac_fails, lambda n, x: shiftcalc.check_recover_frac(x, sc).to_json()))
    _sweep(out, "recover_nat", recovery_checked, _witness_first(
        cf, nat_fails, lambda n, x: shiftcalc.check_recover_nat(x, sc).to_json()))
    out["recovery_printed_fails_upto_50"] = {"frac": printed_frac_fails, "nat": printed_nat_fails}
    out["recovery_example"] = None if example is None else {
        "frac": shiftcalc.check_recover_frac(example, sc).to_json(),
        "nat": shiftcalc.check_recover_nat(example, sc).to_json(),
    }


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
            rows += [_dots(cf, sc, (0,) * j + (1,)) for j in range(size, k + 1)]
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
