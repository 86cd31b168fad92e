"""Ostrowski numeration relative to the continued fraction of sqrt(d).

Natural numbers: N = sum_k digits[k] * q_k, uniquely, under the digit
constraints
    digits[0] < a_1,
    digits[k] <= a_{k+1},
    digits[k] == a_{k+1}  implies  digits[k-1] == 0.
Digits are stored least significant first: digits[k] multiplies q_k.

Reals: every c in the fundamental interval
    I = [a0 - sqrt(d), a0 + 1 - sqrt(d))
has a unique expansion c = sum_k digits[k] * beta_k under the same
constraints (plus a tie-break on infinite tails that never materializes
for finite truncations).  The greedy encoder below is certified at each
step: the set of values reachable by valid digit tails from position n
is a half-open interval whose endpoints are exact quadratic numbers
(see tail_window), and those windows tile the parent window in order of
the digit.  So each digit is found by one-sided sign tests against the
ends of the pieces, and one exact two-sided membership test of the last
residual, with the digit constraints, certifies the whole string.

The text form of a digit string is ``0,1,0,1@d=3`` (least significant
first; empty digit list for zero).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import attrgetter

from .cfrac import CFData
from .errors import DepthExceeded, InvalidDigits, OutOfInterval, VerificationFailed
from .qfield import QuadRat, parse_rat, sign_sqrt

KIND_NAT = "natural"
KIND_REAL = "real"
_new = object.__new__  # bound once: the encoders build their results through it


class OstDigits:
    """An Ostrowski digit string over a fixed expansion.

    kind says whether the string denotes a natural number (weights q_k)
    or a real in I (weights beta_k); the digit constraints are the same.
    OstDigits(cf, digits, kind) takes any iterable, drops trailing zeros
    (so equal values compare and hash equal), raises InvalidDigits naming
    the first invalid position, then DepthExceeded for a last digit past
    cf.depth.  OstDigits._of drops trailing zeros (no scan when the last
    digit is nonzero) but trusts the rest: to encode_real's caps, retag and
    the audit's witnesses; encode_nat sets the slots itself.  As in QuadRat,
    the fields are private slots behind read-only properties.
    """

    __slots__ = ("_cf", "_digits", "_kind")

    def __new__(cls, cf: CFData, digits, kind: str) -> "OstDigits":
        x = cls._of(cf, tuple(digits), kind)
        ok, idx = validate(x)
        if not ok:
            raise InvalidDigits(f"digit constraint violated at position {idx}: {list(x._digits)}")
        if len(x._digits) > cf.depth + 1:
            raise DepthExceeded(f"digit index {len(x._digits) - 1} exceeds depth {cf.depth}")
        return x

    def __getnewargs__(self):  # copy and pickle rebuild through the checks
        return self._cf, self._digits, self._kind

    @classmethod
    def _of(cls, cf: CFData, digits: tuple[int, ...], kind: str) -> "OstDigits":
        if digits and not digits[-1]:
            top = len(digits) - 1
            while top and not digits[top - 1]:
                top -= 1
            digits = digits[:top]
        x = _new(cls)
        x._cf, x._digits, x._kind = cf, digits, kind
        return x

    cf = property(attrgetter("_cf"))
    digits = property(attrgetter("_digits"))
    kind = property(attrgetter("_kind"))

    def __eq__(self, other):
        if other.__class__ is not OstDigits:
            return NotImplemented
        return (self._cf, self._digits, self._kind) == (other._cf, other._digits, other._kind)

    def __hash__(self):
        return hash((self._cf, self._digits, self._kind))

    def __repr__(self) -> str:
        return f"OstDigits(cf={self._cf!r}, digits={self._digits!r}, kind={self._kind!r})"

    def __str__(self) -> str:
        return ",".join(str(b) for b in self._digits) + f"@d={self._cf.d}"

    def retag(self, kind: str) -> "OstDigits":
        """The same digits under another kind, which the constraints ignore."""
        return OstDigits._of(self._cf, self._digits, kind)


def make_digits(cf: CFData, digits, kind: str = KIND_NAT) -> OstDigits:
    """OstDigits(cf, digits, kind), with the natural kind by default."""
    return OstDigits(cf, digits, kind)


def validate(x: OstDigits) -> tuple[bool, int | None]:
    """Check the digit constraints; returns (ok, first violating position).
    The bound a_{k+1} of digit k is period[k % m]."""
    period, m = x.cf.period, x.cf.m
    prev = 0
    for k, b in enumerate(x.digits):
        cap = period[k % m]
        if b < 0 or b > cap or (b == cap and (k == 0 or prev != 0)):
            return False, k
        prev = b
    return True, None


# ---------------------------------------------------------------------------
# natural numbers
# ---------------------------------------------------------------------------


def encode_nat(n: int, cf: CFData) -> OstDigits:
    """Greedy digit expansion of a natural number over the q_k scale.

    On a correct expansion the remainder after position k is < q_k, which
    keeps the next digit in range and zeroes the digit below a maximal one.
    The loop checks this per digit, so only a corrupted table fails: a digit
    over its cap, or at it with remainder >= q_{k-1}, raises InvalidDigits
    naming the highest such position and the digits found down to it.  It
    stops at remainder 0: the zeros below are under every cap (each >= 1).
    """
    if n < 0:
        raise ValueError(f"natural number expected, got {n}")
    qs = cf.conv_q  # qs[i] = q_{i-1}
    if n >= qs[-1]:
        raise DepthExceeded(f"{n} >= q_depth = {qs[-1]}; expand deeper")
    k = bisect_right(qs, n, 1) - 1  # the digit count; the top one is n // q_{k-1} >= 1
    _descend(digits := [0] * k, n, k, 0, qs, cf.period, cf.m)
    x = _new(OstDigits)  # the last digit is nonzero: no zeros for _of to drop
    x._cf, x._digits, x._kind = cf, tuple(digits), KIND_NAT
    return x


def _descend(digits: list[int], rem: int, k: int, stop: int, qs, period, m: int) -> int:
    """encode_nat's loop: rem's digits k-1 down to stop into digits; the remainder.
    shiftcalc.natural_dots_upto runs it down to its split position J once per block
    of n that share their digits from J up."""
    for q in qs[k:stop:-1]:  # q_{k-1} down to q_stop: after k -= 1, q is qs[k + 1]
        k -= 1
        if rem >= q:  # a zero digit is under every cap
            b = rem // q
            rem %= q
            digits[k], cap = b, period[k % m]
            if b >= cap and (b > cap or k == 0 or rem >= qs[k]):
                raise InvalidDigits(f"digit constraint violated at position {k}: {digits}")
            if not rem:
                break
    return rem


def _split_position(cf: CFData, last: int) -> int | None:
    """The first J in 1 .. last with q_J >= 64, or None: the sweep over n encodes
    the n < q_J once (on the block sweep, the recovery stage of the nine audit-default
    radicands, 991 and 99991 took 116.2 ms in all at 64, 118.4 at 128, 122.9 at 32
    and 127.8 at 256; medians of 20 interleaved rounds, each the min of 5)."""
    return next((k for k in range(1, last + 1) if cf.conv_q[k + 1] >= 64), None)


def beta_parts(x: OstDigits) -> tuple[int, int]:
    """Integers (A, B) with A + B*sqrt(d) = sum_k b_k beta_k: with
    beta_k = q_k sqrt(d) - p_k, B is the q_k dot product (x as a natural)
    and -A the p_k one, all inside the depth the constructor checked.  The
    audit's pass over n reads them from shiftcalc.natural_dots."""
    qs, ps = x._cf.conv_q, x._cf.conv_p  # qs[i] = q_{i-1}
    bq = bp = 0
    for i, b in enumerate(x._digits, 1):
        if b:
            bq += b * qs[i]
            bp += b * ps[i]
    return -bp, bq


def decode_nat(x: OstDigits) -> int:
    """Value of a digit string on the q_k scale."""
    return beta_parts(x)[1]


def decode_real(x: OstDigits) -> QuadRat:
    """Value of a digit string on the beta_k scale, as an exact quadratic.

    For the digits of a natural n this is the offset of n*sqrt(d) from
    the nearest lattice of convergent numerators.
    """
    return QuadRat._of(*beta_parts(x), 1, x._cf.d)


def mult_nat_by_sqrt(x: OstDigits) -> tuple[int, OstDigits]:
    """Split n*sqrt(d) into an integer part and a fractional part in I.

    n sqrt(d) = sum b_k q_k sqrt(d) = sum b_k p_k + sum b_k beta_k, so the
    same digits, reread on the beta scale, give the fractional part; the
    integer part is the p_k dot product.
    """
    return -beta_parts(x)[0], x.retag(KIND_REAL)


def enumerate_valid(cf: CFData, length: int):
    """Yield every valid digit tuple of the given length (LSF order), position 0
    varying slowest, by an odometer: the last digit that can rise (below its cap
    a_{k+1}, or to it when k >= 1 and digit k-1 is 0) rises and the ones after
    it return to 0.  Used by the uniqueness sweeps, which check that decoding
    is a bijection onto [0, q_length)."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    caps = [cf.a(k + 1) for k in range(length)]
    digits = [0] * length
    while True:
        yield tuple(digits)
        for k in range(length - 1, -1, -1):
            b = digits[k] + 1
            if b < caps[k] or b == caps[k] and k and not digits[k - 1]:
                digits[k] = b
                break
            digits[k] = 0
        else:
            return


# ---------------------------------------------------------------------------
# reals in the fundamental interval
# ---------------------------------------------------------------------------


def interval_bounds(cf: CFData) -> tuple[QuadRat, QuadRat]:
    """The fundamental interval I = [a0 - sqrt(d), a0 + 1 - sqrt(d)), which
    is the blocked tail window at 0."""
    return tail_window(cf, 0, blocked=True)


def in_interval(cf: CFData, c: QuadRat) -> bool:
    """Whether c lies in I, which is the blocked tail window at 0."""
    return in_window(cf, *c.scaled(), window_parts(cf, 0, blocked=True))


def window_parts(cf: CFData, n: int, blocked: bool) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact value range [lo, hi) of valid digit tails from position n.

    Each endpoint is an integer pair (A, B) standing for A + B*sqrt(d);
    -beta_k is (p_k, -q_k).

    blocked means the digit at position n is capped one below its usual
    bound (because the previous digit was nonzero, or n == 0).  The
    endpoints follow from telescoping the recurrence
    a_{k+1} beta_k = beta_{k+1} - beta_{k-1} over one parity class:

        free    n even  [-beta_n,             -beta_{n-1})
        free    n odd   [-beta_{n-1},         -beta_n)
        blocked n even  [-beta_n,             -(beta_{n-1} + beta_n))
        blocked n odd   [-(beta_{n-1} + beta_n), -beta_n)

    At n = 0 the blocked window is exactly I (beta_{-1} = -1).
    """
    if n < 0 or n > cf.depth:
        raise DepthExceeded(f"window index {n} not materialized (depth {cf.depth})")
    ps, qs = cf.conv_p, cf.conv_q
    near = (ps[n + 1], -qs[n + 1])
    if blocked:
        far = (ps[n] + ps[n + 1], -(qs[n] + qs[n + 1]))
    else:
        far = (ps[n], -qs[n])
    return (near, far) if n % 2 == 0 else (far, near)


def tail_window(cf: CFData, n: int, blocked: bool) -> tuple[QuadRat, QuadRat]:
    """window_parts as exact quadratic endpoints."""
    return tuple(QuadRat._of(a, b, 1, cf.d) for a, b in window_parts(cf, n, blocked))


def in_window(cf: CFData, a: int, b: int, den: int, win) -> bool:
    """Whether (a + b*sqrt(d)) / den, den > 0, lies in the window [lo, hi)
    given by integer pairs as window_parts returns them."""
    (la, lb), (ha, hb) = win
    dn, dd = cf.dn, cf.dd
    return (
        sign_sqrt(a - la * den, b - lb * den, dn, dd) >= 0
        and sign_sqrt(a - ha * den, b - hb * den, dn, dd) < 0
    )


def encode_real(c: QuadRat, cf: CFData, depth: int) -> OstDigits:
    """First `depth` Ostrowski digits of c in I, greedily and certified.

    The residual r at position k lies in its tail window W_k, which the
    pieces b*beta_k + W_{k+1}(blocked = b != 0), b = 0 .. cap, tile in order
    of b; piece b ends at b*beta_k - beta_{k+1} towards piece b + 1.  So the
    digit is the first b with r - b*beta_k short of -beta_{k+1}: one sign
    test per candidate, none for the last.  The certificate is the final
    two-sided test r_K in W_K with the digit constraints, which the caps
    period[k % m] - blocked make hold, so OstDigits._of does not validate
    again: it puts every r_j in W_j (r_j = r_{j+1} + b_j beta_j lies in
    piece b_j of W_j), so a wrong digit anywhere fails it.  The residual
    after K digits is bounded by |beta_{K-1}| + |beta_K|.  A c that is
    already a QuadRat over cf.d is taken as it is; any other is re-tagged.
    """
    if isinstance(c, QuadRat) and c.d is not cf.d and c.d != cf.d and not c.is_rational:
        raise OutOfInterval(f"value in Q(sqrt({c.d})) cannot be encoded over d={cf.d}")
    if not (isinstance(c, QuadRat) and (c.d is cf.d or c.d == cf.d)):
        c = QuadRat._of(0, 0, 1, cf.d) + c  # over cf.d, a rational c re-tagged
    if not in_interval(cf, c):
        raise OutOfInterval(f"{c} is outside [{interval_bounds(cf)[0]}, {interval_bounds(cf)[1]})")
    if depth < 0:
        raise ValueError(f"digit count must be nonnegative, got {depth}")
    if depth > cf.depth:
        raise DepthExceeded(f"requested {depth} digits but depth is {cf.depth}")

    # The residual is (ra + rb*sqrt(d)) / den; subtracting beta_k =
    # q_k sqrt(d) - p_k keeps it on integers.
    ra, rb, den = c.scaled()
    ps, qs, period, m, dn, dd = cf.conv_p, cf.conv_q, cf.period, cf.m, cf.dn, cf.dd
    digits: list[int] = []
    blocked = True  # position 0 is capped: digits[0] < a_1
    end_a, end_b = ps[1] * den, qs[1] * den  # den * -beta_0, position 0's step
    for k in range(depth):
        cap = period[k % m] - blocked
        step_a, step_b = end_a, end_b  # den * -beta_k, carried from position k - 1
        end_a, end_b = ps[k + 2] * den, qs[k + 2] * den  # den * -beta_{k+1}
        b = 0
        # past pieces < b, r is in piece b iff r - b beta_k + beta_{k+1} < 0 (k even) or >= 0
        while b < cap and (sign_sqrt(ra - end_a, rb + end_b, dn, dd) < 0) != (k % 2 == 0):
            ra += step_a
            rb -= step_b
            b += 1
        digits.append(b)
        blocked = b != 0
    if not in_window(cf, ra, rb, den, window_parts(cf, depth, blocked)):
        rem = QuadRat._of(ra, rb, den, cf.d)
        raise VerificationFailed(
            f"residual {rem} of {c} after {depth} digits {digits} "
            f"is outside its tail window"
        )
    return OstDigits._of(cf, tuple(digits), KIND_REAL)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def parse_digit_text(text: str) -> tuple[list[int], Fraction | None]:
    """Parse ``0,1,0,1@d=3`` into (digits, d); d is None if no suffix."""
    s = text.strip()
    d = None
    if "@" in s:
        s, _, suffix = s.partition("@")
        if not suffix.startswith("d="):
            raise ValueError(f"digit string suffix must be @d=<rational>: {text!r}")
        d = parse_rat(suffix[2:])
    s = s.strip()
    if not s:
        return [], d
    try:
        digits = [int(part) for part in s.split(",")]
    except ValueError:
        raise ValueError(f"digits must be comma-separated integers: {text!r}") from None
    return digits, d
