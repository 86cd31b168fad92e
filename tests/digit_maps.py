"""Digit maps and weighted digit sums: the reference algebra that the
shift calculus tests compare the library against.  Eventually-zero digit
maps (position -> value) carry two families of evaluation functionals:

    weighted_q_sum(x, u, l)    = sqrt(d) * sum_k x[k] * u[k mod t] * q_{k+l}
    weighted_beta_sum(x, u, l) =           sum_k x[k] * u[k mod t] * beta_{k+l}

The weight index is the residue of the digit's *original* position mod
t, while the convergent index is shifted by l.  (Composing "shift the
map, then evaluate unshifted" instead pairs weights with the shifted
residues; the two differ by a rotation of u.  The recovery identities
need the original-residue pairing.)  Also here: the printed and corrected
digit windows, the unary threshold layers of a digit map, and the digit
constraints as a per-digit rule, and the shift constants by a 2x2
linear solve per residue, the reference for the library's reading of
them off the complete quotients, and the interval encoder that tests
every candidate digit two-sidedly, the reference for encode_real.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ostro import shiftcalc
from ostro.cfrac import CFData, ShiftConstants
from ostro.errors import (
    DepthExceeded,
    InvalidDigits,
    OutOfInterval,
    SingularSystem,
    VerificationFailed,
)
from ostro.ostrowski import (
    KIND_REAL,
    OstDigits,
    in_interval,
    in_window,
    interval_bounds,
    make_digits,
    window_parts,
)
from ostro.qfield import QuadRat


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
    """An Ostrowski digit string (valid by construction) as a digit map."""
    return GenDigits(x.cf, shiftcalc.embed(x))


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


def _sigma_f_pair(x: GenDigits, u: Weights, l: int) -> tuple[QuadRat, QuadRat]:
    """(weighted_q_sum, weighted_beta_sum) of x from per-residue integer
    dot products against q_{k+l} and p_{k+l}."""
    cf, t = x.cf, len(u.values)
    if x.items and x.items[-1][0] + l > cf.depth:
        raise DepthExceeded(f"shifted index {x.items[-1][0] + l} exceeds depth {cf.depth}")
    acc_q, acc_p = [0] * t, [0] * t
    qs, ps = cf.conv_q, cf.conv_p
    for k, v in x.items:
        acc_q[k % t] += v * qs[k + l + 1]
        acc_p[k % t] += v * ps[k + l + 1]
    tq = sum((w * a for w, a in zip(u.values, acc_q)), Fraction(0))
    tp = sum((w * a for w, a in zip(u.values, acc_p)), Fraction(0))
    return QuadRat(Fraction(0), tq, cf.d), QuadRat(-tp, tq, cf.d)


def weighted_q_sum(x: GenDigits, u: Weights, l: int = 0) -> QuadRat:
    """sqrt(d) * sum_k x[k] * u[k mod t] * q_{k+l}, exactly."""
    return _sigma_f_pair(x, u, l)[0]


def weighted_beta_sum(x: GenDigits, u: Weights, l: int = 0) -> QuadRat:
    """sum_k x[k] * u[k mod t] * beta_{k+l}, exactly."""
    return _sigma_f_pair(x, u, l)[1]


def validate_reference(cf: CFData, digits) -> tuple[bool, int | None]:
    """The digit constraints with one a_{k+1} lookup per digit: the rule
    ostrowski.validate must agree with on every string, valid or not."""
    for k, b in enumerate(digits):
        cap = cf.a(k + 1)
        if b < 0 or b > cap or (k == 0 and b >= cap):
            return False, k
        if b == cap and k >= 1 and digits[k - 1] != 0:
            return False, k
    return True, None


def encode_real_reference(c, cf: CFData, depth: int) -> OstDigits:
    """The greedy interval encoder with a two-sided exact membership test
    of every candidate's residual in the next tail window, first candidate
    that fits wins: the loop that ostrowski.encode_real's one-sided search
    over the tiling replaced, and the reference its digits and errors must
    agree with."""
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
        else:
            raise VerificationFailed(f"no digit fits at position {k} for {c}")
        digits.append(b)
        blocked = b != 0
    if not in_window(cf, ra, rb, den, window_parts(cf, depth, blocked)):
        raise VerificationFailed(f"residual of {c} after {depth} digits is outside its tail window")
    return make_digits(cf, digits, KIND_REAL)


def shift_constants_reference(cf: CFData) -> ShiftConstants:
    """The shift constants by solving, per residue i, the 2x2 system
    q_{kt+i} = v_i p_{kt+i+1} + w_i p_{kt+i} at k = 0, 1, then checking
    every index of cf.at_least(2t+2) in Fraction arithmetic.  The solved
    weights are stored over num(d); one that is not integral there raises."""
    t = cf.t
    cf = cf.at_least(2 * t + 2)
    dn = cf.d.numerator
    vs: list[int] = []
    ws: list[int] = []
    for i in range(t):
        det = cf.p(i + 1) * cf.p(t + i) - cf.p(i) * cf.p(t + i + 1)
        if det == 0:
            raise SingularSystem(f"singular 2x2 system at residue {i} for d={cf.d}")
        v = Fraction(cf.q(i) * cf.p(t + i) - cf.q(t + i) * cf.p(i), det)
        w = Fraction(cf.p(i + 1) * cf.q(t + i) - cf.p(t + i + 1) * cf.q(i), det)
        for idx in range(i, cf.depth, t):
            if cf.q(idx) != v * cf.p(idx + 1) + w * cf.p(idx):
                raise VerificationFailed(f"shift constants for d={cf.d} fail at index {idx}")
        vn, wn = v * dn, w * dn
        if vn.denominator != 1 or wn.denominator != 1:
            raise VerificationFailed(f"weights {v}, {w} for d={cf.d} are not over num(d)")
        vs.append(vn.numerator)
        ws.append(wn.numerator)
    a_const, b_const = cf.q(cf.m - 1), cf.p(cf.m - 1)
    return ShiftConstants(
        d=cf.d,
        t=t,
        v_num=tuple(vs),
        w_num=tuple(ws),
        unit=QuadRat(Fraction(b_const), Fraction(a_const), cf.d),
        a_const=a_const,
        b_const=b_const,
        pell_norm=Fraction(a_const * a_const) * cf.d - b_const * b_const,
    )


def digit_window(cf: CFData, l: int, printed: bool = False) -> tuple[QuadRat, QuadRat]:
    """The parity-dependent window pair (g1, g2) at position l.

    Corrected form (the blocked prefix window, always with g1 < g2):
        l even: (-(beta_l + beta_{l+1}), -beta_{l+1})
        l odd:  (-beta_{l+1}, -(beta_l + beta_{l+1}))
    printed=True returns the odd case as sometimes printed,
    (-beta_l, -(beta_l + beta_{l+1})), whose entries come out in the
    wrong order (g1 > g2).
    """
    b_l, b_next = cf.beta(l), cf.beta(l + 1)
    if l % 2 == 0:
        return -(b_l + b_next), -b_next
    if printed:
        return -b_l, -(b_l + b_next)
    return -b_next, -(b_l + b_next)


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
        for positions in self.supports.values():
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
