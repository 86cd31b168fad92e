"""Digit-shift calculus over Ostrowski representations.

The objects here are eventually-zero digit maps (position -> value)
together with two families of evaluation functionals:

    weighted_q_sum(x, u, l)    = sqrt(d) * sum_k x[k] * u[k mod t] * q_{k+l}
    weighted_beta_sum(x, u, l) =           sum_k x[k] * u[k mod t] * beta_{k+l}

The weight index is the residue of the digit's *original* position mod
t, while the convergent index is shifted by l.  (Composing "shift the
map, then evaluate unshifted" instead pairs weights with the shifted
residues; the two differ by a rotation of u.  The identities below need
the original-residue pairing; see the composition test suite.)

Two recovery identities are audited per digit string x of a natural n:

  * frac recovery: the beta-value of x equals (-1)^m * U times the
    all-ones beta sum of x shifted by the period length m, where U is
    the unit q_{m-1} sqrt(d) + p_{m-1}.  The commonly printed constant
    q_m sqrt(d) + q_{m-1} + a0 q_m is also evaluated and reported.
  * nat recovery: n itself is recovered from the four weighted sums with
    the shift constants v (at shift 1) and w (at shift 0).  The variant
    with the w-terms also taken at shift 1 (an index slip seen in print)
    is reported alongside.

On top of these sit representation-level multiplication by sqrt(d)
(exact on naturals and on interval values, eps-certified on arbitrary
non-negative inputs) and the digit-extraction probes that mirror the
first-order definability arguments: prefix windows, digit windows, and
periodic residue-class witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cfrac import CFData, ShiftConstants, _verdict, expand
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
    beta_parts,
    check_depth,
    decode_real,
    encode_nat,
    encode_real,
    in_interval,
    in_window,
    make_digits,
    mult_nat_by_sqrt,
    tail_window,
    window_parts,
)
from .qfield import QuadRat, sign_sqrt

_F0 = Fraction(0)


@dataclass(frozen=True)
class GenDigits:
    """An eventually-zero digit map: sorted (position, value) pairs.

    Values are bounded by s_max (the largest partial quotient), so every
    Ostrowski digit string embeds, but arbitrary bounded maps are allowed
    too: the evaluation functionals do not need the adjacency constraint.
    """

    cf: CFData
    items: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def max_pos(self) -> int:
        return self.items[-1][0] if self.items else -1

    def __str__(self) -> str:
        body = ";".join(f"{k}:{v}" for k, v in self.items)
        return body + f"@d={self.cf.d}"


def gen_digits(cf: CFData, mapping) -> GenDigits:
    """Build a GenDigits from any {position: value} mapping, validating bounds."""
    items = []
    for k, v in sorted(dict(mapping).items()):
        if v == 0:
            continue
        if k < 0 or not (0 < v <= cf.s_max):
            raise InvalidDigits(f"entry {k}:{v} out of range (s_max={cf.s_max})")
        items.append((int(k), int(v)))
    return GenDigits(cf, tuple(items))


def embed(x: OstDigits) -> GenDigits:
    """Embed an Ostrowski digit string (valid by construction) as a digit map."""
    return GenDigits(x.cf, tuple((k, b) for k, b in enumerate(x.digits) if b))


def shift(x: GenDigits, l: int) -> GenDigits:
    """Translate every position up by l (the value at k+l is x's at k)."""
    if l < 0:
        raise ValueError(f"shift must be non-negative, got {l}")
    return GenDigits(x.cf, tuple((k + l, v) for k, v in x.items))


@dataclass(frozen=True)
class Weights:
    """A rational weight vector indexed by residue classes mod t."""

    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, seq) -> "Weights":
        return cls(tuple(Fraction(v) for v in seq))

    @classmethod
    def ones(cls, t: int) -> "Weights":
        return cls((Fraction(1),) * t)

    def __len__(self) -> int:
        return len(self.values)

    def scaled(self) -> tuple[tuple[int, ...], int]:
        """Integer numerators over one common denominator (memoized)."""
        cached = self.__dict__.get("_scaled")
        if cached is None:
            den = math.lcm(*(v.denominator for v in self.values))
            cached = tuple(v.numerator * (den // v.denominator) for v in self.values), den
            object.__setattr__(self, "_scaled", cached)
        return cached


def _residue_dots(x: GenDigits, t: int, l: int) -> tuple[list[int], list[int]]:
    """Per-residue integer dot products of x against q_{k+l} and p_{k+l}."""
    cf = x.cf
    if x.items and x.max_pos + l > cf.depth:
        raise DepthExceeded(
            f"shifted index {x.max_pos + l} exceeds depth {cf.depth}"
        )
    acc_q = [0] * t
    acc_p = [0] * t
    qs, ps = cf.conv_q, cf.conv_p
    for k, v in x.items:
        i = k % t
        acc_q[i] += v * qs[k + l + 1]
        acc_p[i] += v * ps[k + l + 1]
    return acc_q, acc_p


def _sigma_f_pair(x: GenDigits, u: Weights, l: int) -> tuple[QuadRat, QuadRat]:
    """(weighted_q_sum, weighted_beta_sum) of x from a single dot pass."""
    acc_q, acc_p = _residue_dots(x, len(u), l)
    nums, den = u.scaled()
    tq = Fraction(sum(n * a for n, a in zip(nums, acc_q)), den)
    tp = Fraction(sum(n * a for n, a in zip(nums, acc_p)), den)
    d = x.cf.d
    return QuadRat(_F0, tq, d), QuadRat(-tp, tq, d)


def weighted_q_sum(x: GenDigits, u: Weights, l: int = 0) -> QuadRat:
    """sqrt(d) * sum_k x[k] * u[k mod t] * q_{k+l}, exactly."""
    return _sigma_f_pair(x, u, l)[0]


def weighted_beta_sum(x: GenDigits, u: Weights, l: int = 0) -> QuadRat:
    """sum_k x[k] * u[k mod t] * beta_{k+l}, exactly."""
    return _sigma_f_pair(x, u, l)[1]


# ---------------------------------------------------------------------------
# recovery identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    """One audited instance of a recovery identity.

    lhs and rhs hold the exact values; they are stringified only when the
    entry is serialized.
    """

    lemma: str
    n: int
    printed: str  # "holds" | "fails"
    corrected: str
    lhs: object
    rhs: object

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "n": self.n,
            "printed": self.printed,
            "corrected": self.corrected,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


def _integer_constants(sc: ShiftConstants) -> tuple:
    """(unit.scaled(), v scaled, w scaled) of sc, computed once per
    ShiftConstants instance and kept on it."""
    cached = sc.__dict__.get("_integer_constants")
    if cached is None:
        cached = sc.unit.scaled(), Weights.of(sc.v).scaled(), Weights.of(sc.w).scaled()
        object.__setattr__(sc, "_integer_constants", cached)
    return cached


def _period_dots(x: OstDigits) -> tuple[int, int, int, int]:
    """(fa, fb, ya, yb): f = fa + fb sqrt(d) is the beta-value of x and
    f / U = ya + yb sqrt(d) is (-1)^m times its all-ones beta sum at m."""
    s = -1 if x.cf.m % 2 else 1
    ya, yb = beta_parts(x, x.cf.m)
    return (*beta_parts(x), s * ya, s * yb)


def check_recover_frac(x: OstDigits, sc: ShiftConstants) -> AuditEntry:
    """Audit: beta-value of x == (-1)^m * U * (all-ones beta sum at shift m).

    Decided on integers: the beta-value is fa + n sqrt(d) and the
    shifted sum times (-1)^m is y = ya + yb sqrt(d), both from
    beta_parts; a constant c0 + c1 sqrt(d) times y has rational part
    c0 ya + c1 yb d and sqrt(d) part c0 yb + c1 ya.
    """
    cf = x.cf
    m = cf.m
    fa, n, ya, yb = _period_dots(x)
    dn, dd = cf.d.numerator, cf.d.denominator
    (ua, ub, uden), _, _ = _integer_constants(sc)
    # U y = (ra / dd + rb sqrt(d)) / uden
    ra = ua * ya * dd + ub * yb * dn
    rb = ua * yb + ub * ya
    c0, c1 = cf.q(m - 1) + cf.a0 * cf.q(m), cf.q(m)
    pa = c0 * ya * dd + c1 * yb * dn
    pb = c0 * yb + c1 * ya
    return AuditEntry(
        lemma="frac-recovery",
        n=n,
        printed=_verdict(pa == fa * dd and pb == n),
        corrected=_verdict(ra == fa * dd * uden and rb == n * uden),
        lhs=QuadRat(Fraction(fa), Fraction(n), cf.d),
        rhs=QuadRat(Fraction(ra, dd * uden), Fraction(rb, uden), cf.d),
    )


def check_recover_nat(x: OstDigits, sc: ShiftConstants) -> AuditEntry:
    """Audit: n == Sigma_v(shift 1) - F_v(shift 1) + Sigma_w(shift 0) - F_w(shift 0).

    The q-sums minus beta-sums turn each q_{k+l} sqrt(d) - beta_{k+l}
    into p_{k+l}, so with the shift constants the whole thing collapses
    to sum_k x[k] q_k = n.  The printed variant takes the w-terms at
    shift 1 as well.  Decided on integers: the right-hand side is the
    v- and w-weighted p dot products over the weights' denominators.
    """
    cf = x.cf
    check_depth(x, 1)
    qs, ps = cf.conv_q, cf.conv_p
    _, (nv, dv), (nw, dw) = _integer_constants(sc)
    t = sc.t
    n = v1 = w0 = w1 = 0
    for k, b in enumerate(x.digits):
        if b:
            i = k % t
            p0, p1 = b * ps[k + 1], b * ps[k + 2]
            n += b * qs[k + 1]
            v1 += nv[i] * p1
            w0 += nw[i] * p0
            w1 += nw[i] * p1
    den = dv * dw
    val = v1 * dw + w0 * dv
    return AuditEntry(
        lemma="nat-recovery",
        n=n,
        printed=_verdict(v1 * dw + w1 * dv == n * den),
        corrected=_verdict(val == n * den),
        lhs=n,
        rhs=QuadRat(Fraction(val, den), _F0, cf.d),
    )


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
    fa, fb, ya, yb = _period_dots(x)  # f = fa + fb sqrt(d), f / U = ya + yb sqrt(d)
    pell, a, b = sc.pell_norm, sc.a_const, sc.b_const
    return QuadRat(Fraction(ya * pell + b * fa, a), Fraction(yb * pell + b * fb, a), x.cf.d)


def times_sqrt_nat(n: int, cf: CFData, sc: ShiftConstants) -> QuadRat:
    """n * sqrt(d) split through its digits: integer part plus interval part.

    sc is not needed for naturals; it is taken so that all three
    times_sqrt_* functions share one calling convention.
    """
    whole, frac = mult_nat_by_sqrt(encode_nat(n, cf))
    return QuadRat(Fraction(whole), _F0, cf.d) + decode_real(frac)


def times_sqrt_real(x, eps, cf: CFData, sc: ShiftConstants) -> QuadRat:
    """sqrt(d) * x for any x >= 0, certified to |error| < eps.

    x is reduced mod 1 into the fundamental interval, encoded to enough
    digits that the tail (times sqrt(d)) is below eps, and the shifted
    digit machinery supplies the product of the encoded part, from a
    deeper expansion if the digits shifted by m pass cf.depth.  The error
    bound is certified by an exact sign test before returning.
    """
    if isinstance(x, (int, Fraction)):
        x = QuadRat(Fraction(x), Fraction(0), cf.d)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if x.sign() < 0:
        raise OutOfDomain(f"{x} is negative")

    root = cf.sqrt_d()
    whole = (x + root - cf.a0).floor()  # x - whole lies in I exactly
    c = x - whole
    if not in_interval(cf, c):
        raise VerificationFailed(f"{x} - {whole} = {c} is outside I for d={cf.d}")

    # depth = the first k with (|beta_{k-1}| + |beta_k|) sqrt(d) < eps.  The
    # betas alternate, so that tail is s (beta_{k-1} - beta_k), s the sign of
    # beta_{k-1}; times sqrt(d), minus eps and scaled by dd*ed it is a sign_sqrt.
    dn, dd, en, ed = cf.d.numerator, cf.d.denominator, eps.numerator, eps.denominator
    ps, qs = cf.conv_p, cf.conv_q
    for depth in range(1, cf.depth + 1):
        s = 1 if depth % 2 else -1
        dq, dp = qs[depth] - qs[depth + 1], ps[depth] - ps[depth + 1]
        if sign_sqrt(s * dq * dn * ed - en * dd, -s * dp * dd * ed, dn, dd) < 0:
            break
    else:
        raise DepthExceeded(f"eps={eps} needs more than {cf.depth} digit positions")

    digits = encode_real(c, cf, depth)
    reach = len(digits.digits) - 1 + cf.m
    if reach > cf.depth:
        digits = make_digits(expand(cf.d, reach), digits.digits, KIND_REAL)
    result = QuadRat(Fraction(0), Fraction(whole), cf.d) + times_sqrt_frac(digits, sc)
    err = result - root * x
    if not (abs(err) - eps).sign() < 0:
        raise VerificationFailed(f"certified bound violated: |{err}| >= {eps}")
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


def digit_window(cf: CFData, l: int, printed: bool = False) -> tuple[QuadRat, QuadRat]:
    """The parity-dependent window pair (g1, g2) at position l.

    Corrected form (the blocked prefix window, always with g1 < g2):
        l even: (-(beta_l + beta_{l+1}), -beta_{l+1})
        l odd:  (-beta_{l+1}, -(beta_l + beta_{l+1}))
    printed=True returns the odd case as sometimes printed,
    (-beta_l, -(beta_l + beta_{l+1})), whose entries come out in the
    wrong order (g1 > g2); it is exposed for the audit only.
    """
    b_l, b_next = cf.beta(l), cf.beta(l + 1)
    if l % 2 == 0:
        return -(b_l + b_next), -b_next
    if printed:
        return -b_l, -(b_l + b_next)
    return -b_next, -(b_l + b_next)


def prefix_nat(cf: CFData, l: int, c: QuadRat) -> int:
    """The unique natural n < q_{l+1} whose digits match the first l+1
    digits of c, certified by the exact window inequalities."""
    x = encode_real(c, cf, l + 1)
    fa, n = beta_parts(x)  # f(x) = fa + n sqrt(d), n the value on the q scale
    digit_l = x.digits[l] if l < len(x.digits) else 0
    ca, cb, den = c.scaled()  # c - f(x) must lie in prefix_window(cf, l, digit_l == 0)
    win = window_parts(cf, l + 1, blocked=digit_l != 0)
    if not in_window(cf, ca - fa * den, cb - n * den, den, win):
        raise VerificationFailed(f"prefix window certificate failed at l={l} for {c}")
    if n >= cf.q(l + 1):
        raise VerificationFailed(f"prefix natural {n} >= q_{l + 1} = {cf.q(l + 1)} for {c}")
    return n


def prefix_digit(cf: CFData, l: int, n: int) -> int:
    """Digit at position l of the prefix natural n < q_{l+1}, by thresholds.

    The digit is 0 when n < q_l and otherwise the unique i with
    i q_l <= n < min(q_{l+1}, (i+1) q_l), that is i = n // q_l.
    """
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
    if not in_interval(cf, c):
        raise VerificationFailed(f"witness {witness} decodes to {c}, outside I")
    return tuple(window_digit(cf, l, c) == 1 for l in range(l_max + 1))


# ---------------------------------------------------------------------------
# unary layer decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnaryLayers:
    """Digit map split into t x s_max unary layers.

    supports[(i, j)] lists the positions k with k = i mod t and value at
    least j, so column j is the j-th unary threshold of the digits in
    residue class i.  Columns shrink as j grows and the original map is
    recovered by counting layers.
    """

    cf: CFData
    t: int
    s_max: int
    supports: dict

    def recompose(self) -> GenDigits:
        counts: dict[int, int] = {}
        for (_, _), positions in self.supports.items():
            for k in positions:
                counts[k] = counts.get(k, 0) + 1
        return gen_digits(self.cf, counts)


def unary_layers(x: GenDigits) -> UnaryLayers:
    """Decompose a digit map into per-residue unary threshold layers."""
    cf = x.cf
    t, s = cf.t, cf.s_max
    supports = {
        (i, j): tuple(k for k, v in x.items if k % t == i and v >= j)
        for i in range(t)
        for j in range(1, s + 1)
    }
    layers = UnaryLayers(cf=cf, t=t, s_max=s, supports=supports)
    back = layers.recompose()
    if back != x:
        raise VerificationFailed(f"unary layers of {x} recompose to {back}")
    return layers
