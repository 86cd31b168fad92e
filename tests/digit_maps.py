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
constraints as a per-digit rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ostro import shiftcalc
from ostro.cfrac import CFData
from ostro.errors import DepthExceeded, InvalidDigits, VerificationFailed
from ostro.ostrowski import OstDigits
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
