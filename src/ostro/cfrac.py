"""Continued-fraction expansion of sqrt(d) and the constants derived from it.

For a non-square rational d > 1 the expansion is
``[a0; a1, ..., a_{m-1}, 2*a0]`` repeated forever: the period starts at
index 1, its interior is a palindrome and its last digit is 2*a0.  The
complete quotients are (P + sqrt(D))/Q with D = num(d)*den(d), computed
by the classical integer recurrence on (P, Q); the period is detected
when the pair of the first one recurs.

Alongside the digits we materialize the convergents p_k/q_k; the
differences beta_k = q_k*sqrt(d) - p_k alternate in sign and shrink
strictly.  Index -1 is included (p=1, q=0, beta=-1) because several
identities reach one step below zero.

``audit_identities`` re-checks the classical identities in two variants
each: the form as commonly printed (several of which are misindexed) and
the corrected form.  ``derive_shift_constants`` solves for the rational
weights that express q_k through p_{k+1}, p_k along residue classes, the
engine behind the digit-shift multiplication in :mod:`ostro.shiftcalc`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import (
    DepthExceeded,
    SingularSystem,
    UnsupportedRadicand,
    VerificationFailed,
)
from .qfield import QuadRat, check_radicand, quad, sign_sqrt

DEFAULT_DEPTH = 64
MAX_PERIOD = 10_000  # longest period expand searches for


@dataclass(frozen=True)
class CFData:
    """Materialized continued-fraction data for sqrt(d).

    conv_p and conv_q start at index -1; use the accessors p(), q(),
    beta() which take the mathematical index k >= -1.  zetas holds zeta_1
    .. zeta_m of one full period as the pairs (P, Q) of (P + sqrt(D))/Q,
    D = num(d)*den(d).
    """

    d: Fraction
    a0: int
    period: tuple[int, ...]
    m: int
    s_max: int
    conv_p: tuple[int, ...]
    conv_q: tuple[int, ...]
    zetas: tuple[tuple[int, int], ...]
    depth: int

    def sqrt_d(self) -> QuadRat:
        return QuadRat(Fraction(0), Fraction(1), self.d)

    def a(self, k: int) -> int:
        """Partial quotient a_k, k >= 0, from the periodic digit stream."""
        if k == 0:
            return self.a0
        if k < 0:
            raise IndexError(f"partial quotient index {k} out of range")
        return self.period[(k - 1) % self.m]

    def _at(self, seq, k: int):
        if k < -1 or k + 1 >= len(seq):
            raise DepthExceeded(f"convergent index {k} not materialized (depth {self.depth})")
        return seq[k + 1]

    def p(self, k: int) -> int:
        return self._at(self.conv_p, k)

    def q(self, k: int) -> int:
        return self._at(self.conv_q, k)

    def beta(self, k: int) -> QuadRat:
        return QuadRat(Fraction(-self.p(k)), Fraction(self.q(k)), self.d)

    def zeta(self, k: int) -> QuadRat:
        """Complete quotient zeta_k; zeta_0 = sqrt(d), periodic for k >= 1."""
        if k < 0:
            raise IndexError(f"complete quotient index {k} out of range")
        if k == 0:
            return self.sqrt_d()
        big_p, big_q = self.zetas[(k - 1) % self.m]  # sqrt(D) = den(d) sqrt(d)
        return QuadRat(Fraction(big_p, big_q), Fraction(self.d.denominator, big_q), self.d)

    @property
    def t(self) -> int:
        """Residue-class modulus used by the shift constants: max(m, 2)."""
        return max(self.m, 2)

    def at_least(self, k: int) -> CFData:
        """This expansion if it reaches index k, else sqrt(d) expanded to k."""
        return self if k <= self.depth else expand(self.d, k)


def expand(d, depth: int = DEFAULT_DEPTH) -> CFData:
    """Expand sqrt(d) to the given depth with exact arithmetic.

    d must be a non-square rational greater than 1 (below 1 the
    pre-period is longer; rescale with normalize_d first).  The full
    period is always detected, whatever the depth; one longer than
    MAX_PERIOD raises DepthExceeded.
    """
    d = check_radicand(d)
    if d <= 1:
        raise UnsupportedRadicand(f"d must exceed 1, got {d}; use normalize_d")
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")

    # zeta_{k+1} = 1/(zeta_k - a_k) takes (P, Q) to (P', Q') with
    # P' = a_k Q - P and Q' = (D - P'^2)/Q, an exact division, starting
    # from zeta_0 = sqrt(d) = (0, den(d)).  For d > 1 zeta_1 is reduced:
    # every Q is positive and the pre-period is exactly one term.
    dn, dd = d.numerator, d.denominator
    big_d, root = dn * dd, math.isqrt(dn * dd)
    a0 = root // dd
    big_p, big_q = a0 * dd, dn - a0 * a0 * dd  # zeta_1
    first = (big_p, big_q)
    period: list[int] = []
    zetas: list[tuple[int, int]] = []
    while True:
        zetas.append((big_p, big_q))
        ak = (big_p + root) // big_q
        period.append(ak)
        big_p = ak * big_q - big_p
        big_q = (big_d - big_p * big_p) // big_q
        if (big_p, big_q) == first:
            break
        if len(period) == MAX_PERIOD:
            raise DepthExceeded(f"period of sqrt({d}) not found within {MAX_PERIOD} terms")
    m = len(period)

    # Expected shape: palindromic interior, final digit 2*a0, minimal m.
    if period[-1] != 2 * a0 or period[:-1] != period[-2::-1]:
        raise VerificationFailed(f"period of sqrt({d}) has unexpected shape {period}")
    for div in range(1, m):
        if m % div == 0 and period[:div] * (m // div) == period:
            raise VerificationFailed(f"period {period} of sqrt({d}) is not minimal")

    ps = [1, a0]  # p_{-1}, p_0, ...
    qs = [0, 1]
    for k in range(1, depth + 1):
        ak = period[(k - 1) % m]
        ps.append(ak * ps[-1] + ps[-2])
        qs.append(ak * qs[-1] + qs[-2])

    # Sanity sweep: determinant identity, sign alternation, strict decay.
    # With beta_k of sign s, |beta_{k+1}| - |beta_k| = -s (beta_k + beta_{k+1}).
    for k in range(0, depth + 1):
        i, s = k + 1, (-1) ** k  # offset into the lists, sign of beta_k
        det = ps[i] * qs[i - 1] - ps[i - 1] * qs[i]
        if det != -s:
            raise VerificationFailed(
                f"p_{k} q_{k - 1} - p_{k - 1} q_{k} = {det} for sqrt({d}), expected {-s}"
            )
        if sign_sqrt(-ps[i], qs[i], dn, dd) != s:
            raise VerificationFailed(f"beta_{k} = {qs[i]}*sqrt({d}) - {ps[i]} has the wrong sign")
        if k < depth and s * sign_sqrt(ps[i] + ps[i + 1], -(qs[i] + qs[i + 1]), dn, dd) >= 0:
            raise VerificationFailed(f"|beta_{k + 1}| >= |beta_{k}| for sqrt({d})")

    return CFData(
        d=d,
        a0=a0,
        period=tuple(period),
        m=m,
        s_max=max(period),
        conv_p=tuple(ps),
        conv_q=tuple(qs),
        zetas=tuple(zetas),
        depth=depth,
    )


# ---------------------------------------------------------------------------
# identity audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityVerdict:
    """Outcome of checking one identity in printed and corrected form.

    witness documents the first failing index of the printed form with
    both sides rendered exactly; None when the printed form holds.
    """

    fact_id: str
    printed: str  # "holds" | "fails"
    corrected: str
    witness: dict | None

    def to_json(self) -> dict:
        return asdict(self)


def _verdict(ok: bool) -> str:
    return "holds" if ok else "fails"


def _first_failure(pairs) -> dict | None:
    """pairs yields (k, lhs, rhs) of QuadRat/int; report the first mismatch."""
    for k, lhs, rhs in pairs:
        if lhs != rhs:
            return {"k": k, "lhs": str(lhs), "rhs": str(rhs)}
    return None


def audit_identities(cf: CFData, k_max: int | None = None) -> list[IdentityVerdict]:
    """Re-check the convergent identities over all materialized indices.

    Every identity is evaluated in two variants: the commonly printed
    form and the index-corrected form.  A failing printed form carries a
    witness (first failing index, both sides exact).  For one deep period
    of sanity the complete quotients are re-derived from the recurrence
    rather than read from the period table.

    k_max caps the quantified index ranges (default: everything the
    expansion materialized).
    """
    if cf.depth < 3 * cf.m + 3:
        raise DepthExceeded(f"audit needs depth >= {3 * cf.m + 3}, have {cf.depth}")
    d, m, a0 = cf.d, cf.m, cf.a0
    root = cf.sqrt_d()
    out: list[IdentityVerdict] = []
    kcap = cf.depth if k_max is None else min(k_max, cf.depth)

    # Complete quotients from scratch, to validate the periodic table.
    zeta_chain = [root]
    for k in range(0, 3 * m + 2):
        zeta_chain.append((zeta_chain[-1] - zeta_chain[-1].floor()).inverse())
    for k in range(1, 3 * m + 2):
        if zeta_chain[k] != cf.zeta(k):
            raise VerificationFailed(
                f"zeta_{k} of sqrt({d}) is {zeta_chain[k]} by the recurrence "
                f"but {cf.zeta(k)} in the periodic table"
            )

    # convergent recurrence: p_{k+1} = a_{k+1} p_k + p_{k-1}, same for q.
    rec = _first_failure(
        (k + 1, (cf.p(k + 1), cf.q(k + 1)),
         (cf.a(k + 1) * cf.p(k) + cf.p(k - 1), cf.a(k + 1) * cf.q(k) + cf.q(k - 1)))
        for k in range(0, min(kcap, cf.depth - 1) + 1)
    )
    out.append(IdentityVerdict("convergent-recurrence", _verdict(rec is None), _verdict(rec is None), rec))

    # beta quotient step: beta_{k+1} = -beta_k / zeta_{k+2}, checked
    # multiplicatively to stay division-free.
    bq = _first_failure(
        (k, cf.beta(k + 1) * cf.zeta(k + 2), -cf.beta(k))
        for k in range(0, min(kcap, cf.depth - 1) + 1)
    )
    out.append(IdentityVerdict("beta-quotient-step", _verdict(bq is None), _verdict(bq is None), bq))

    # period shape: interior palindrome, last digit 2*a0 (verified at
    # expansion time; recorded here so every report carries it).
    shape_ok = cf.period[-1] == 2 * a0 and cf.period[:-1] == cf.period[-2::-1]
    out.append(IdentityVerdict("period-palindrome", _verdict(shape_ok), _verdict(shape_ok), None))

    # period entry point.  Printed: zeta_{lm+1} = zeta_1 = sqrt(d) + a0.
    # Corrected: zeta_{lm} = sqrt(d) + a0 (the quotient *ending* the
    # period block is the shifted root; the one starting it is not,
    # unless m = 1).
    target = root + a0
    l_top = max(1, min(kcap, (cf.depth - 1) // m if m else 1))
    printed_pairs = []
    for l in range(1, l_top + 1):
        printed_pairs.append((l, cf.zeta(l * m + 1), cf.zeta(1)))
        printed_pairs.append((l, cf.zeta(1), target))
    w = _first_failure(printed_pairs)
    w_corr = _first_failure((l, cf.zeta(l * m), target) for l in range(1, l_top + 1))
    out.append(IdentityVerdict("zeta-period-entry", _verdict(w is None), _verdict(w_corr is None), w))

    # p/q connection at period multiples.
    # Printed: p_{km} = a0 q_{km} + q_{km-1} and d q_{km} = a0 p_{km} + p_{km-1}
    # for every natural k.  Corrected: the same two equations one index
    # earlier, p_{km-1} = a0 q_{km-1} + q_{km-2} and
    # d q_{km-1} = a0 p_{km-1} + p_{km-2}, for k >= 1.
    k_top = min(kcap, (cf.depth - 1) // m if m else kcap)
    wp = _first_failure(
        (k, cf.p(k * m), a0 * cf.q(k * m) + cf.q(k * m - 1)) for k in range(0, k_top + 1)
    )
    wq = _first_failure(
        (k, d * cf.q(k * m), a0 * cf.p(k * m) + cf.p(k * m - 1)) for k in range(0, k_top + 1)
    )
    k_top_c = min(kcap, cf.depth // m if m else kcap)
    wp_c = _first_failure(
        (k, cf.p(k * m - 1), a0 * cf.q(k * m - 1) + (cf.q(k * m - 2) if k * m - 2 >= -1 else 0))
        for k in range(1, k_top_c + 1)
    )
    wq_c = _first_failure(
        (k, d * cf.q(k * m - 1), a0 * cf.p(k * m - 1) + (cf.p(k * m - 2) if k * m - 2 >= -1 else 1))
        for k in range(1, k_top_c + 1)
    )
    out.append(IdentityVerdict("pq-connection-p", _verdict(wp is None), _verdict(wp_c is None), wp))
    out.append(IdentityVerdict("pq-connection-q", _verdict(wq is None), _verdict(wq_c is None), wq))

    # Product of one period of complete quotients.
    # Printed: zeta_1 ... zeta_{m+1} = q_m sqrt(d) + q_{m-1} + a0 q_m.
    # Corrected: U := zeta_1 ... zeta_m = q_{m-1} sqrt(d) + p_{m-1}.
    prod_m = quad(1, 0, d)
    for k in range(1, m + 1):
        prod_m = prod_m * cf.zeta(k)
    prod_m1 = prod_m * cf.zeta(m + 1)
    printed_rhs = quad(cf.q(m - 1) + a0 * cf.q(m), cf.q(m), d)
    unit = quad(cf.p(m - 1), cf.q(m - 1), d)
    w_prod = None if prod_m1 == printed_rhs else {"k": m + 1, "lhs": str(prod_m1), "rhs": str(printed_rhs)}
    out.append(
        IdentityVerdict(
            "unit-product", _verdict(w_prod is None), _verdict(prod_m == unit), w_prod
        )
    )

    # Shift of beta by one period length.
    # Printed: (zeta_1 ... zeta_{m+1}) beta_{k+m} = (-1)^m beta_k.
    # Corrected: U beta_{k+m} = (-1)^m beta_k.
    sign = (-1) ** m
    k_beta = min(kcap, cf.depth - m)
    w_shift = _first_failure(
        (k, prod_m1 * cf.beta(k + m), sign * cf.beta(k)) for k in range(0, k_beta + 1)
    )
    w_shift_c = _first_failure(
        (k, unit * cf.beta(k + m), sign * cf.beta(k)) for k in range(0, k_beta + 1)
    )
    out.append(
        IdentityVerdict(
            "beta-unit-shift", _verdict(w_shift is None), _verdict(w_shift_c is None), w_shift
        )
    )
    return out


# ---------------------------------------------------------------------------
# shift constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftConstants:
    """Rational weights linking q to p along residue classes mod t.

    For every residue i and every block index k:
        q_{kt+i} = v[i] * p_{kt+i+1} + w[i] * p_{kt+i}
    t = max(m, 2) so the weights are constant along classes (t is always
    a multiple of the period length m).  U is the unit
    q_{m-1} sqrt(d) + p_{m-1}; a_const, b_const are its coefficients and
    pell_norm records a_const^2 d - b_const^2 (for integer d this is the
    classical +-1).
    """

    d: Fraction
    t: int
    v: tuple[Fraction, ...]
    w: tuple[Fraction, ...]
    unit: QuadRat
    a_const: int
    b_const: int
    pell_norm: Fraction

    def to_json(self) -> dict:
        return {
            "d": str(self.d),
            "t": self.t,
            "v": [str(x) for x in self.v],
            "w": [str(x) for x in self.w],
            "U": str(self.unit),
            "a": self.a_const,
            "b": self.b_const,
            "pell_norm": str(self.pell_norm),
        }


def derive_shift_constants(cf: CFData) -> ShiftConstants:
    """Solve for the per-residue weights and verify them on every index.

    Each (v_i, w_i) comes from the 2x2 system at block indices k = 0, 1
    and is then checked against every k of cf.at_least(2t+2); any
    mismatch raises VerificationFailed.  A singular system (cannot happen
    for d > 1, but checked anyway) raises SingularSystem.
    """
    t = cf.t
    cf = cf.at_least(2 * t + 2)
    vs: list[Fraction] = []
    ws: list[Fraction] = []
    for i in range(t):
        det = cf.p(i + 1) * cf.p(t + i) - cf.p(i) * cf.p(t + i + 1)
        if det == 0:
            raise SingularSystem(f"singular 2x2 system at residue {i} for d={cf.d}")
        v = Fraction(cf.q(i) * cf.p(t + i) - cf.q(t + i) * cf.p(i), det)
        w = Fraction(cf.p(i + 1) * cf.q(t + i) - cf.p(t + i + 1) * cf.q(i), det)
        for idx in range(i, cf.depth, t):
            if cf.q(idx) != v * cf.p(idx + 1) + w * cf.p(idx):
                raise VerificationFailed(
                    f"shift constants for d={cf.d} fail at index {idx}: "
                    f"q={cf.q(idx)} vs {v}*{cf.p(idx + 1)}+{w}*{cf.p(idx)}"
                )
        vs.append(v)
        ws.append(w)

    a_const = cf.q(cf.m - 1)
    b_const = cf.p(cf.m - 1)
    unit = QuadRat(Fraction(b_const), Fraction(a_const), cf.d)
    if not unit > 1:
        raise VerificationFailed(f"unit {unit} for d={cf.d} is not > 1")
    pell = Fraction(a_const * a_const) * cf.d - b_const * b_const
    if cf.d.denominator == 1 and abs(pell) != 1:
        raise VerificationFailed(f"unit norm {pell} for integer d={cf.d} is not +-1")
    return ShiftConstants(
        d=cf.d,
        t=t,
        v=tuple(vs),
        w=tuple(ws),
        unit=unit,
        a_const=a_const,
        b_const=b_const,
        pell_norm=pell,
    )


# ---------------------------------------------------------------------------
# radicand normalization
# ---------------------------------------------------------------------------


def normalize_d(d) -> tuple[Fraction, Fraction]:
    """Rescale d into the band (9/4, 4): d = scale^2 * d_norm exactly.

    Returns (d_norm, scale) with scale a dyadic rational h / 2^e, found
    by the smallest e admitting an integer h with d * 4^e / 4 < h^2 <
    d * 4^e * 4 / 9.  The band has ratio 16/9 > 1 so the search
    terminates.  The result keeps sqrt(d_norm) strictly between 3/2 and
    2 (so its integer part is 1).
    """
    d = check_radicand(d)
    lo, hi = Fraction(9, 4), Fraction(4)
    if lo < d < hi:
        return d, Fraction(1)
    e = 0
    while e < 64:
        n = d * 4**e
        h_lo = n / 4  # need h^2 strictly above this
        h_hi = 4 * n / 9  # and strictly below this
        h = math.isqrt(math.floor(h_lo)) + 1
        while h * h < h_hi:
            if h * h > h_lo:
                scale = Fraction(h, 2**e)
                d_norm = d / (scale * scale)
                if not (lo < d_norm < hi and scale * scale * d_norm == d):
                    raise VerificationFailed(
                        f"normalize_d({d}): {d_norm} with scale {scale} is outside "
                        f"the band ({lo}, {hi}) or does not rescale to d"
                    )
                return d_norm, scale
            h += 1
        e += 1
    raise VerificationFailed(f"no dyadic scale found for d={d}")  # unreachable
