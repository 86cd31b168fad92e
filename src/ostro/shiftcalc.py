"""Multiplication by sqrt(d) as a digit shift, and the checks behind it.

Two recovery identities are audited per digit string x of a natural n:

  * frac recovery: the beta-value of x equals (-1)^m * U times the
    all-ones beta sum of x shifted by the period length m, where U is
    the unit q_{m-1} sqrt(d) + p_{m-1}.  The commonly printed constant
    q_m sqrt(d) + q_{m-1} + a0 q_m is also evaluated and reported.
  * nat recovery: n itself is recovered from the v-weighted p dot
    product of x at shift 1 and the w-weighted one at shift 0, with the
    shift constants v and w.  The variant with the w-terms also taken at
    shift 1 (an index slip seen in print) is reported alongside.

Both are decided on Python ints that natural_dots reads off the digits
in one pass, or that natural_dots_upto sums over a greedy sweep: a table
of low digit strings, then one descent and sum of the high digits per
block of n.  frac_verdicts and nat_verdicts return integer residuals,
zero exactly where the check holds and linear in the ints, and frac
recovery is decided as y = U^-1 f, so y is never multiplied by U.  The
witness builders check_recover_frac and check_recover_nat form the exact
sides of an AuditEntry.  On top of them sit representation-level
multiplication by sqrt(d) (exact on naturals and on interval values,
eps-certified on arbitrary non-negative inputs) and the digit-extraction
probes that mirror the first-order definability arguments: prefix
windows, digit reads by thresholds, and periodic residue-class witnesses.
``embed`` lists a digit string's nonzero (position, digit) pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from . import ostrowski
from .cfrac import CFData, ShiftConstants, Value, _verdict
from .errors import (
    DepthExceeded,
    InvalidDigits,
    OutOfDomain,
    VerificationFailed,
    WitnessUnavailable,
)
from .ostrowski import (
    KIND_REAL,
    OstDigits,
    _split_position,
    decode_nat,
    decode_real,
    encode_nat,
    encode_real,
    make_digits,
    mult_nat_by_sqrt,
    tail_window,
)
from .qfield import QuadRat, floor_sqrt, sign_sqrt


def embed(x: OstDigits) -> tuple[tuple[int, int], ...]:
    """The (position, digit) pairs of x's nonzero digits, in position order."""
    return tuple((k, b) for k, b in enumerate(x.digits) if b)


# ---------------------------------------------------------------------------
# recovery identities
# ---------------------------------------------------------------------------


class AuditEntry(Value):
    """One audited instance of a recovery identity, an immutable Value.

    printed and corrected are "holds" or "fails".  lhs and rhs hold the
    exact values; they are stringified only when the entry is serialized.
    """

    __slots__ = _fields = ("lemma", "n", "printed", "corrected", "lhs", "rhs")

    def __init__(self, lemma: str, n: int, printed: str, corrected: str, lhs, rhs) -> None:
        self._fill(lemma, n, printed, corrected, lhs, rhs)

    def to_json(self) -> dict:
        return {**self._asdict(), "lhs": str(self.lhs), "rhs": str(self.rhs)}


def _dots(cf: CFData, sc: ShiftConstants, digits) -> tuple[int, ...]:
    """The seven sums of natural_dots over digits: digit k weighs -p_k, q_k, the p and
    q of k + m signed by (-1)^m, p_{k+1} v and p_k, p_{k+1} w (sc's numerators at
    k mod t)."""
    m, ps, qs = cf.m, cf.conv_p, cf.conv_q  # qs[i] = q_{i-1}
    nv, nw, t = sc.v_num, sc.w_num, sc.t
    bp = n = yp = yq = v1 = w0 = w1 = 0
    for k, b in enumerate(digits):
        if b:
            i = k % t
            p0, p1 = b * ps[k + 1], b * ps[k + 2]
            bp, n = bp + p0, n + b * qs[k + 1]
            yp, yq = yp + b * ps[k + m + 1], yq + b * qs[k + m + 1]
            v1, w0, w1 = v1 + nv[i] * p1, w0 + nw[i] * p0, w1 + nw[i] * p1
    s = -1 if m % 2 else 1
    return -bp, n, -s * yp, s * yq, v1, w0, w1


def natural_dots(x: OstDigits, sc: ShiftConstants) -> tuple[int, ...]:
    """(fa, n, ya, yb, v1, w0, w1) from one depth check (the last digit moved up
    by m) and one pass over x: fa + n sqrt(d) is the beta-value of x, ya + yb sqrt(d)
    is (-1)^m times its all-ones beta sum at shift m, and v1, w0, w1 are its p dot
    products weighted by sc.v_num at shift 1 and by sc.w_num at shifts 0 and 1."""
    cf = x.cf
    if x.digits and (top := len(x.digits) - 1 + cf.m) > cf.depth:
        raise DepthExceeded(f"shifted index {top} exceeds depth {cf.depth}")
    return _dots(cf, sc, x.digits)


def natural_dots_upto(cf: CFData, sc: ShiftConstants, n_max: int):
    """The greedy sweep over n = 0 .. n_max, in blocks.  With J = _split_position(cf,
    depth - m) it yields the low table, (encode_nat(n, cf).digits, natural_dots of them)
    for each n < q_J from the module's encode_nat and _dots, then one (n, rem, room,
    high, ints) per block.  ostrowski._descend runs from the top digit down to J at the
    block's first n, leaving the remainder rem; its digits from J up (unique, by
    Ostrowski's theorem) hold for the n that follow, up to the room: the first remainder
    at which one would change or the cap check trip, q_J or q_{J-1} at a capped digit J
    on a correct table.  high is n's digits with zeros below J, ints their seven sums;
    n - rem + r for r in [rem, room) has the digits lo + high[len(lo):] of table entry
    (lo, dots) and the ints dots + ints.  The sweep keeps no table.  The first n with a
    digit whose shift by m passes the depth raises DepthExceeded as natural_dots does.
    """
    qs, period, m, depth = cf.conv_q, cf.period, cf.m, cf.depth  # qs[k + 1] = q_k
    # no split: the table is n = 0 alone (q_j = 1), and j = 1 when q_1 = q_0 = 1
    # keeps the first digit count swept from being empty
    j = _split_position(cf, depth - m) or int(qs[2] == 1)
    for n in range(min(n_max + 1, qs[j + 1])):
        digits = ostrowski.encode_nat(n, cf).digits
        yield digits, _dots(cf, sc, digits)
    for k in range(j + 1, bisect_right(qs, n_max, 1)):  # the n with k digits: q_{k-1} <= n < q_k
        if k - 1 + m > depth:
            raise DepthExceeded(f"shifted index {k - 1 + m} exceeds depth {depth}")
        n, end = qs[k], min(n_max + 1, qs[k + 1])
        while n < end:  # one block: the n whose digits from J up are those of its first n
            rem = ostrowski._descend(digits := [0] * k, n, k, j, qs, period, m)
            # room: the first remainder at which a digit i >= J would change (rem + t
            # reaches q_i) or digit J at its cap trip the cap check (rem reaches q_{J-1});
            # above J a capped digit's check trips where the 0 below it would change
            room, t = rem + end - n, 0
            for i in range(j, k):
                room, t = min(room, qs[i + 1] - t), t + digits[i] * qs[i + 1]
            if digits[j] and digits[j] == period[j % m]:
                room = min(room, qs[j])
            high = tuple(digits)
            yield n, rem, room, high, _dots(cf, sc, high)
            n += room - rem


def frac_verdicts(cf: CFData, sc: ShiftConstants, fa: int, n: int, ya: int, yb: int) -> tuple:
    """The residuals of corrected frac recovery on natural_dots, both zero exactly when
    f = U y for f = fa + n sqrt(d), y = ya + yb sqrt(d), taken as y = U^-1 f (U != 0): the
    unit-sized U^-1 = (ia + ib sqrt(d)) / ie meets only the small fa and n, never ya and yb."""
    dd, (ia, ib, ie) = cf.dd, sc.unit_inverse
    return ya * ie * dd - fa * ia * dd - n * ib * cf.dn, yb * ie - fa * ib - n * ia


def nat_verdicts(sc: ShiftConstants, n: int, v1: int, w0: int) -> int:
    """The residual of corrected nat recovery on natural_dots, zero exactly when
    (v1 + w0) / num(d) == n."""
    return v1 + w0 - n * sc.dn


def printed_verdicts(cf: CFData, sc: ShiftConstants, fa: int, n: int, ya: int, yb: int,
                     v1: int, w1: int) -> tuple[bool, bool]:
    """(frac printed holds, nat printed holds) on natural_dots: frac with the
    printed constant c0 + c1 sqrt(d) in place of U, nat with w at shift 1."""
    dn, dd = cf.dn, cf.dd
    c1 = cf.conv_q[cf.m + 1]
    c0 = cf.conv_q[cf.m] + cf.a0 * c1
    return (c0 * ya * dd + c1 * yb * dn == fa * dd and c0 * yb + c1 * ya == n,
            v1 + w1 == n * dn)


def sqrt_product(cf: CFData, sc: ShiftConstants, fa: int, fb: int, ya: int, yb: int):
    """(residuals, product as a QuadRat triple) of times_sqrt_frac on natural_dots;
    the two residuals are zero exactly when the product is sqrt(d) f = fb d + fa sqrt(d)."""
    pn, pd = sc.pell_norm.numerator, sc.pell_norm.denominator
    b, e = sc.b_const, sc.a_const * pd
    pa, pb = ya * pn + b * fa * pd, yb * pn + b * fb * pd
    return (pa * cf.dd - fb * cf.dn * e, pb - fa * e), (pa, pb, e)


def check_recover_frac(x: OstDigits, sc: ShiftConstants) -> AuditEntry:
    """Audit: beta-value of x == (-1)^m * U * (all-ones beta sum at shift m),
    decided by frac_verdicts and printed_verdicts on natural_dots."""
    cf = x.cf
    fa, n, ya, yb, v1, _, w1 = natural_dots(x, sc)
    corrected = not any(frac_verdicts(cf, sc, fa, n, ya, yb))
    printed = printed_verdicts(cf, sc, fa, n, ya, yb, v1, w1)[0]
    return AuditEntry("frac-recovery", n, _verdict(printed), _verdict(corrected),
                      QuadRat._of(fa, n, 1, cf.d), sc.unit * QuadRat._of(ya, yb, 1, cf.d))


def check_recover_nat(x: OstDigits, sc: ShiftConstants) -> AuditEntry:
    """Audit: n == Sigma_v(shift 1) - F_v(shift 1) + Sigma_w(shift 0) - F_w(shift 0).

    The q-sums minus beta-sums turn each q_{k+l} sqrt(d) - beta_{k+l}
    into p_{k+l}, so with the shift constants the whole thing collapses
    to sum_k x[k] q_k = n.  The printed variant takes the w-terms at
    shift 1 as well.  Decided by nat_verdicts and printed_verdicts on
    natural_dots, so x's last digit moved up by m must be inside the depth.
    """
    cf = x.cf
    fa, n, ya, yb, v1, w0, w1 = natural_dots(x, sc)
    printed = printed_verdicts(cf, sc, fa, n, ya, yb, v1, w1)[1]
    corrected = not nat_verdicts(sc, n, v1, w0)
    return AuditEntry("nat-recovery", n, _verdict(printed), _verdict(corrected),
                      n, QuadRat._of(v1 + w0, 0, cf.d.numerator, cf.d))


# ---------------------------------------------------------------------------
# multiplication by sqrt(d) at representation level
# ---------------------------------------------------------------------------


def times_sqrt_frac(x: OstDigits, sc: ShiftConstants) -> QuadRat:
    """sqrt(d) times the beta-value of x, assembled from shifted digit sums.

    With a = q_{m-1}, b = p_{m-1} (so U = a sqrt(d) + b):
        sqrt(d) * f = ((a^2 d - b^2) / a) * (f / U) + (b / a) * f
    and f / U is realized representationally as (-1)^m times the
    all-ones beta sum of the m-shifted digits.
    """
    fa, fb, ya, yb, *_ = natural_dots(x, sc)
    return QuadRat._of(*sqrt_product(x.cf, sc, fa, fb, ya, yb)[1], x.cf.d)


def times_sqrt_nat(n: int, cf: CFData, sc: ShiftConstants) -> QuadRat:
    """n * sqrt(d) split through its digits: integer part plus interval part.

    sc is not needed for naturals; it is taken so that all three
    times_sqrt_* functions share one calling convention.
    """
    whole, frac = mult_nat_by_sqrt(encode_nat(n, cf))
    return decode_real(frac) + whole


def times_sqrt_real(x, eps, cf: CFData, sc: ShiftConstants) -> QuadRat:
    """sqrt(d) * x for any x >= 0, certified to |error| < eps.

    x is reduced mod 1 into the fundamental interval, encoded to enough
    digits that the tail (times sqrt(d)) is below eps, no more than
    cf.depth, and sqrt_product on their natural_dots gives the product of
    the encoded part, from cf grown to the depth its digits shifted by m
    reach.  The sign, floor and certificate are integer tests.
    """
    xa, xb, xe = (QuadRat._of(0, 0, 1, cf.d) + x).scaled()  # over cf.d, a rational x re-tagged
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    dn, dd, en, ed = cf.dn, cf.dd, eps.numerator, eps.denominator
    if sign_sqrt(xa, xb, dn, dd) < 0:
        raise OutOfDomain(f"{QuadRat._of(xa, xb, xe, cf.d)} is negative")
    # x - whole lies in I exactly: whole = floor(x + sqrt(d) - a0), as QuadRat.floor takes it
    whole = floor_sqrt((xa - cf.a0 * xe) * dd, xb + xe, dn * dd, xe * dd)

    # depth = the first k with (|beta_{k-1}| + |beta_k|) sqrt(d) < eps, by bisection: that
    # tail strictly decreases in k.  The betas alternate, so it is s (beta_{k-1} - beta_k),
    # s the sign of beta_{k-1}; times sqrt(d), minus eps and scaled by dd*ed, a sign_sqrt.
    ps, qs = cf.conv_p, cf.conv_q
    def below_eps(k: int) -> bool:
        s = 1 if k % 2 else -1
        dq, dp = qs[k] - qs[k + 1], ps[k] - ps[k + 1]
        return sign_sqrt(s * dq * dn * ed - en * dd, -s * dp * dd * ed, dn, dd) < 0

    depth = bisect_right(range(1, cf.depth + 1), False, key=below_eps) + 1
    if depth > cf.depth:
        raise DepthExceeded(f"eps={eps} needs more than {cf.depth} digit positions")

    # encoded over the depth its digits shifted by m can reach
    c = QuadRat._of(xa - whole * xe, xb, xe, cf.d)
    fa, fb, ya, yb, *_ = natural_dots(encode_real(c, cf.at_least(depth - 1 + cf.m), depth), sc)
    pa, pb, e = sqrt_product(cf, sc, fa, fb, ya, yb)[1]
    result = QuadRat._of(pa, pb + whole * e, e, cf.d)  # sqrt(d) c + whole sqrt(d)
    # err = result - sqrt(d) x = (ea + eb sqrt(d)) / big_e; |err| < eps is two sign tests
    ra, rb, re = result.scaled()
    ea, eb, big_e = ra * xe * dd - xb * dn * re, (rb * xe - xa * re) * dd, re * xe * dd
    if not (sign_sqrt(ea * ed - en * big_e, eb * ed, dn, dd) < 0
            < sign_sqrt(ea * ed + en * big_e, eb * ed, dn, dd)):
        raise VerificationFailed(
            f"certified bound violated: |{QuadRat._of(ea, eb, big_e, cf.d)}| >= {eps}")
    return result


# ---------------------------------------------------------------------------
# digit probes
# ---------------------------------------------------------------------------


def prefix_window(cf: CFData, l: int, last_digit_zero: bool) -> tuple[QuadRat, QuadRat]:
    """Window [lo, hi) with: first l+1 digits of c equal those of n iff
    c - f(n) lies in the window, where f(n) is the beta-value of n's
    digits and last_digit_zero says whether n's digit at position l is 0.

    This is the tail window of position l+1; the window is wider when
    the digit at l is zero because the next digit is then unrestricted.
    """
    return tail_window(cf, l + 1, blocked=not last_digit_zero)


def prefix_nat(cf: CFData, l: int, c: QuadRat) -> int:
    """The unique natural n < q_{l+1} whose digits match the first l+1
    digits of c, certified by encode_real's tail-window test at l+1; at
    l = -1, the empty prefix, it is 0."""
    if l < -1:
        raise ValueError(f"prefix position must be at least -1, got {l}")
    n = decode_nat(encode_real(c, cf, l + 1))
    if n >= cf.q(l + 1):
        raise VerificationFailed(f"prefix natural {n} >= q_{l + 1} = {cf.q(l + 1)} for {c}")
    return n


def prefix_digit(cf: CFData, l: int, n: int) -> int:
    """Digit at position l of the prefix natural n < q_{l+1}, by thresholds.

    The digit is 0 when n < q_l and otherwise the unique i with
    i q_l <= n < min(q_{l+1}, (i+1) q_l), that is i = n // q_l.
    """
    if l < 0:
        raise ValueError(f"digit position must be nonnegative, got {l}")
    i = n // cf.q(l)
    if i > cf.a(l + 1):
        raise VerificationFailed(
            f"digit {i} at l={l} exceeds a_{l + 1} = {cf.a(l + 1)} (prefix natural {n})"
        )
    return i


def window_digit(cf: CFData, l: int, c: QuadRat) -> int:
    """Digit of c at position l, read off the prefix natural by thresholds."""
    return prefix_digit(cf, l, prefix_nat(cf, l, c))


def residue_class_probe(cf: CFData, j: int, n_mod: int, l_max: int) -> tuple[bool, ...]:
    """Probe the positions of an arithmetic progression of digit indices.

    Builds the witness value whose digits are 1 exactly at positions
    congruent to j mod n_mod (truncated past l_max), then reads each
    position back through window_digit.  Entry l of the result is True
    iff the recovered digit at l is 1, which must match l = j mod n_mod.

    The witness does not exist when j = 0 and a_1 = 1 (position 0 cannot
    hold a 1); that raises WitnessUnavailable.
    """
    if n_mod < 2:
        raise ValueError(f"modulus must be at least 2, got {n_mod}")
    j = j % n_mod
    length = l_max + 2 * n_mod + 1
    if length > cf.depth:
        raise DepthExceeded(f"need depth {length}, have {cf.depth}")
    try:
        witness = make_digits(
            cf, [1 if k % n_mod == j else 0 for k in range(length)], KIND_REAL
        )
    except InvalidDigits as exc:
        raise WitnessUnavailable(
            f"no interval value has digit 1 at position {j} for d={cf.d}"
        ) from exc
    c = decode_real(witness)
    return tuple(window_digit(cf, l, c) == 1 for l in range(l_max + 1))

