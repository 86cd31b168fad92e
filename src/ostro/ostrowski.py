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
(see tail_window), those windows tile the parent window, and each digit
choice is validated by exact membership tests.

The text form of a digit string is ``0,1,0,1@d=3`` (least significant
first; empty digit list for zero).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .cfrac import CFData
from .errors import DepthExceeded, InvalidDigits, OutOfInterval, VerificationFailed
from .qfield import QuadRat, parse_rat, sign_sqrt

KIND_NAT = "natural"
KIND_REAL = "real"


@dataclass(frozen=True)
class OstDigits:
    """An Ostrowski digit string over a fixed expansion.

    Canonical form carries no trailing zeros, so equal values compare
    equal.  kind records whether the string denotes a natural number
    (weights q_k) or a real in I (weights beta_k); the digit constraints
    are identical.  Construction validates the digit constraints and
    raises InvalidDigits naming the first violating position, so every
    instance holds a valid digit string.
    """

    cf: CFData
    digits: tuple[int, ...]
    kind: str

    def __post_init__(self) -> None:
        ok, idx = validate(self)
        if not ok:
            raise InvalidDigits(
                f"digit constraint violated at position {idx}: {list(self.digits)}"
            )

    def __str__(self) -> str:
        return ",".join(str(b) for b in self.digits) + f"@d={self.cf.d}"

    def retag(self, kind: str) -> "OstDigits":
        """The same digits under another kind.  The digit constraints do
        not depend on kind, so the valid digits are not validated again."""
        out = object.__new__(OstDigits)
        object.__setattr__(out, "cf", self.cf)
        object.__setattr__(out, "digits", self.digits)
        object.__setattr__(out, "kind", kind)
        return out


def make_digits(cf: CFData, digits, kind: str = KIND_NAT) -> OstDigits:
    """Build a canonical OstDigits: trailing zeros are dropped."""
    ds = list(digits)
    while ds and ds[-1] == 0:
        ds.pop()
    return OstDigits(cf, tuple(ds), kind)


def validate(x: OstDigits) -> tuple[bool, int | None]:
    """Check the digit constraints; returns (ok, first violating position)."""
    cf = x.cf
    for k, b in enumerate(x.digits):
        cap = cf.a(k + 1)
        if b < 0 or b > cap or (k == 0 and b >= cap):
            return False, k
        if b == cap and k >= 1 and x.digits[k - 1] != 0:
            return False, k
    return True, None


# ---------------------------------------------------------------------------
# natural numbers
# ---------------------------------------------------------------------------


def encode_nat(n: int, cf: CFData) -> OstDigits:
    """Greedy digit expansion of a natural number over the q_k scale.

    Greedy subtraction of the largest q_k automatically satisfies the
    digit constraints; the remainder after position k is < q_k, which
    keeps the next digit in range and zeroes the digit below a maximal
    one.
    """
    if n < 0:
        raise ValueError(f"natural number expected, got {n}")
    qs = cf.conv_q  # qs[i] = q_{i-1}
    if n >= qs[-1]:
        raise DepthExceeded(f"{n} >= q_depth = {qs[-1]}; expand deeper")
    digits = [0] * (bisect_right(qs, n, 1) - 1)
    rem = n
    for k in range(len(digits) - 1, -1, -1):
        digits[k], rem = divmod(rem, qs[k + 1])
    return make_digits(cf, digits, KIND_NAT)


def check_depth(x: OstDigits, l: int = 0) -> None:
    """Raise DepthExceeded if x's last nonzero digit, moved up by l, is
    past the materialized depth."""
    top = len(x.digits) - 1
    while top >= 0 and x.digits[top] == 0:
        top -= 1
    if top >= 0 and top + l > x.cf.depth:
        what = "shifted index" if l else "digit index"
        raise DepthExceeded(f"{what} {top + l} exceeds depth {x.cf.depth}")


def beta_parts(x: OstDigits, l: int = 0) -> tuple[int, int]:
    """Integers (A, B) with A + B*sqrt(d) = sum_k b_k beta_{k+l}, the one
    evaluation of a digit string: beta_k = q_k sqrt(d) - p_k, so B is the
    q_{k+l} dot product (x as a natural at l = 0) and -A the p_{k+l} one.
    """
    check_depth(x, l)
    qs, ps = x.cf.conv_q, x.cf.conv_p  # qs[i] = q_{i-1}
    bq = bp = 0
    for i, b in enumerate(x.digits, l + 1):
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
    a, b = beta_parts(x)
    return QuadRat(Fraction(a), Fraction(b), x.cf.d)


def mult_nat_by_sqrt(x: OstDigits) -> tuple[int, OstDigits]:
    """Split n*sqrt(d) into an integer part and a fractional part in I.

    n sqrt(d) = sum b_k q_k sqrt(d) = sum b_k p_k + sum b_k beta_k, so the
    same digits, reread on the beta scale, give the fractional part; the
    integer part is the p_k dot product.
    """
    return -beta_parts(x)[0], x.retag(KIND_REAL)


def enumerate_valid(cf: CFData, length: int):
    """Yield every valid digit tuple of the given length (LSF order).

    Exhaustive by construction; used by the uniqueness sweeps, which
    check that decoding is a bijection onto [0, q_length).
    """
    def rec(k: int, prefix: list[int]):
        if k == length:
            yield tuple(prefix)
            return
        cap = cf.a(k + 1)
        hi = cap - 1 if k == 0 else cap
        for b in range(0, hi + 1):
            if k >= 1 and b == cap and prefix[k - 1] != 0:
                continue
            prefix.append(b)
            yield from rec(k + 1, prefix)
            prefix.pop()

    yield from rec(0, [])


# ---------------------------------------------------------------------------
# reals in the fundamental interval
# ---------------------------------------------------------------------------


def interval_bounds(cf: CFData) -> tuple[QuadRat, QuadRat]:
    """The fundamental interval I = [a0 - sqrt(d), a0 + 1 - sqrt(d))."""
    lo = QuadRat(Fraction(cf.a0), Fraction(-1), cf.d)
    return lo, lo + 1


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
    return tuple(
        QuadRat(Fraction(a), Fraction(b), cf.d) for a, b in window_parts(cf, n, blocked)
    )


def in_window(cf: CFData, a: int, b: int, den: int, win) -> bool:
    """Whether (a + b*sqrt(d)) / den, den > 0, lies in the window [lo, hi)
    given by integer pairs as window_parts returns them."""
    (la, lb), (ha, hb) = win
    dn, dd = cf.d.numerator, cf.d.denominator
    return (
        sign_sqrt(a - la * den, b - lb * den, dn, dd) >= 0
        and sign_sqrt(a - ha * den, b - hb * den, dn, dd) < 0
    )


def encode_real(c: QuadRat, cf: CFData, depth: int) -> OstDigits:
    """First `depth` Ostrowski digits of c in I, greedily and certified.

    Position by position the digit is the unique value whose residual
    lands in the tail window of the next position; the windows tile, so
    exactly one candidate passes the exact membership test.  The residual
    after K digits is bounded by |beta_{K-1}| + |beta_K|.
    """
    if isinstance(c, (int, Fraction)):
        c = QuadRat(Fraction(c), Fraction(0), cf.d)
    if c.d != cf.d:
        if not c.is_rational:
            raise OutOfInterval(f"value in Q(sqrt({c.d})) cannot be encoded over d={cf.d}")
        c = QuadRat(c.a, Fraction(0), cf.d)
    if not in_interval(cf, c):
        raise OutOfInterval(f"{c} is outside [{interval_bounds(cf)[0]}, {interval_bounds(cf)[1]})")
    if depth > cf.depth:
        raise DepthExceeded(f"requested {depth} digits but depth is {cf.depth}")

    # The residual is (ra + rb*sqrt(d)) / den; subtracting beta_k =
    # q_k sqrt(d) - p_k keeps it on integers.
    ra, rb, den = c.scaled()
    ps, qs = cf.conv_p, cf.conv_q
    digits: list[int] = []
    blocked = True  # position 0 is capped: digits[0] < a_1
    for k in range(depth):
        cap = cf.a(k + 1) - (1 if blocked else 0)
        step_a, step_b = ps[k + 1] * den, qs[k + 1] * den
        for b in range(cap + 1):
            if in_window(cf, ra, rb, den, window_parts(cf, k + 1, blocked=b != 0)):
                break
            ra += step_a
            rb -= step_b
        else:  # cannot happen: the windows tile the parent window
            raise VerificationFailed(f"no digit fits at position {k} for {c}")
        digits.append(b)
        blocked = b != 0
    if not in_window(cf, ra, rb, den, window_parts(cf, depth, blocked)):
        rem = QuadRat(Fraction(ra, den), Fraction(rb, den), cf.d)
        raise VerificationFailed(
            f"residual {rem} of {c} after {depth} digits {digits} "
            f"is outside its tail window"
        )
    return make_digits(cf, digits, KIND_REAL)


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
