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
identities reach one step below zero.  expand verifies its tables on
integers by induction: beta_0 > 0, zeta > 1 for each complete quotient
of the period, the determinant at index 0, at every index k >= 1 the
recurrence p_k = a_k p_{k-1} + p_{k-2} (same for q), zeta_k = a_k +
1/zeta_{k+1} on the period entries read, and the step beta_k zeta_{k+1}
= -beta_{k-1} at one index.  These carry the step, and with it the sign
alternation and the decay, to every index.
CFData.at_least extends the tables and sweeps only the new indices.

``audit_identities`` re-checks the classical identities in two variants
each: the form as commonly printed (several of which are misindexed) and
the corrected form.  Verdicts are integer identities over the convergent,
period and (P, Q) tables, but the unit shift's: its QuadRat sides at k = 0
and 1 decide every k where the convergent recurrence holds (else every k is
compared).  One helper gives every witness (first index, both sides exact).
``derive_shift_constants`` gives the weights that express q_k through
p_{k+1}, p_k along residue classes, the engine behind the digit-shift
multiplication in :mod:`ostro.shiftcalc`, off the complete quotients:
dn*q_k = Q_{k+1} p_{k+1} - P_{k+2} p_k for d = dn/dd, so the weights are
the integers Q_{k+1} and -P_{k+2} over the one denominator dn, and no
linear system is solved.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import DepthExceeded, UnsupportedRadicand, VerificationFailed
from .qfield import QuadRat, check_radicand, floor_sqrt, sign_sqrt

DEFAULT_DEPTH = 64
MAX_PERIOD = 10_000  # longest period expand searches for


class Value:
    """Base of the immutable value classes.  A subclass lists its
    constructor inputs in _fields, in order, the values it derives from them
    in _derived, and both in __slots__; __init__ hands the fields and then
    the derived values to _fill, which sets each slot past __setattr__.
    Setting or deleting an attribute raises AttributeError; equality,
    hashing, repr, copy, pickle and replace read the fields only, so a copy
    rebuilds its derived slots through __init__."""

    __slots__ = ()
    _derived = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in (*cls._fields, *cls._derived))

    def _fill(self, *values) -> None:
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._setters)} values "
                            f"(fields, then derived), got {len(values)}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy with the named fields changed, built by __init__."""
        return self.__class__(**{**self._asdict(), **changes})


class CFData(Value):
    """Materialized continued-fraction data for sqrt(d), a Value.

    conv_p and conv_q start at index -1; use the accessors p(), q(),
    beta() which take the mathematical index k >= -1.  zetas holds zeta_1
    .. zeta_m of one full period as the pairs (P, Q) of (P + sqrt(D))/Q,
    D = num(d)*den(d).  Derived on construction: a0 = floor(sqrt(d)), the
    period length m, the largest digit bound s_max, the depth (the last
    materialized index), t = max(m, 2), the residue-class modulus of the
    shift constants, dn, dd = num(d), den(d) as ints, and swept, False
    here (so after replace, copy or pickle): expand sets it once its sweep
    has passed the tables from index 0, and at_least keeps it.
    """

    _fields = ("d", "period", "conv_p", "conv_q", "zetas")
    _derived = ("a0", "m", "s_max", "depth", "t", "dn", "dd", "swept")
    __slots__ = (*_fields, *_derived)

    def __init__(self, d: Fraction, period: tuple[int, ...], conv_p: tuple[int, ...],
                 conv_q: tuple[int, ...], zetas: tuple[tuple[int, int], ...]) -> None:
        m, dn, dd = len(period), d.numerator, d.denominator
        self._fill(d, period, conv_p, conv_q, zetas, math.isqrt(dn * dd) // dd, m, max(period),
                   len(conv_p) - 2, max(m, 2), dn, dd, False)

    def sqrt_d(self) -> QuadRat:
        return QuadRat._of(0, 1, 1, self.d)

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
        return QuadRat._of(-self.p(k), self.q(k), 1, self.d)

    def zeta(self, k: int) -> QuadRat:
        """Complete quotient zeta_k; zeta_0 = sqrt(d), periodic for k >= 1."""
        if k < 0:
            raise IndexError(f"complete quotient index {k} out of range")
        dd = self.d.denominator  # sqrt(D) = dd sqrt(d), and zeta_0 = (0 + sqrt(D))/dd
        big_p, big_q = self.zetas[(k - 1) % self.m] if k else (0, dd)
        return QuadRat._of(big_p, dd, big_q, self.d)

    def at_least(self, k: int) -> CFData:
        """This expansion if it reaches index k, else a copy with the tables
        extended to index k; expand's sweep checks the new indices only, so
        the copy is swept if this expansion is."""
        if k <= self.depth:
            return self
        ps, qs, j = list(self.conv_p), list(self.conv_q), self.depth % self.m  # a_{depth+1}
        _extend(ps, qs, itertools.islice(itertools.cycle(self.period), j, j + k - self.depth))
        _check_convergents(self.d, ps, qs, self.zetas, k, self.depth + 1)
        grown = self.replace(conv_p=tuple(ps), conv_q=tuple(qs))
        CFData.swept.__set__(grown, self.swept)
        return grown


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

    ps, qs = [1, a0], [0, 1]  # p_{-1}, p_0, ...
    _extend(ps, qs, itertools.islice(itertools.cycle(period), depth))
    _check_convergents(d, ps, qs, zetas, depth)
    cf = CFData(d, tuple(period), tuple(ps), tuple(qs), tuple(zetas))
    CFData.swept.__set__(cf, True)
    return cf


def _beta_quotient_holds(dn: int, dd: int, ps, qs, zetas, k: int) -> bool:
    """beta_{k+1} zeta_{k+2} = -beta_k on the tables (index -1 first) for
    d = dn/dd.  With zeta_{k+2} = (P + sqrt(D))/Q and sqrt(D) = dd sqrt(d)
    that is q_{k+1} dn - p_{k+1} P = Q p_k and q_{k+1} P - p_{k+1} dd = -Q q_k."""
    big_p, big_q = zetas[(k + 1) % len(zetas)]
    p1, q1 = ps[k + 2], qs[k + 2]
    return q1 * dn - p1 * big_p == big_q * ps[k + 1] and q1 * big_p - p1 * dd == -big_q * qs[k + 1]


def _extend(ps: list, qs: list, quotients) -> None:
    """Append p_k = a_k p_{k-1} + p_{k-2} (same for q) to the tables for
    each next partial quotient a_k."""
    p2, p1, q2, q1 = ps[-2], ps[-1], qs[-2], qs[-1]
    for ak in quotients:
        p2, p1 = p1, ak * p1 + p2
        q2, q1 = q1, ak * q1 + q2
        ps.append(p1)
        qs.append(q1)


def _check_convergents(d: Fraction, ps, qs, zetas, depth: int, start: int = 0) -> None:
    """Sanity sweep of expand over the convergent tables (index -1 first)
    at the indices start .. depth; those below start passed an earlier
    sweep.  From start = 0: beta_0 > 0, every complete quotient of the
    period > 1, and p_0 q_-1 - p_-1 q_0 = -1.  At every k >= lo = max(start,
    1) the recurrence p_k = a_k p_{k-1} + p_{k-2} (same for q), a_k read off
    zeta_k, carries the determinant to k; with the closure zeta_k = a_k +
    1/zeta_{k+1} on the entries read and the step beta_{lo-1} zeta_lo =
    -beta_{lo-2}, it gives beta_k = beta_{k-1}(a_k - zeta_k) = -beta_{k-1}/
    zeta_{k+1} at every k: sign alternation and strict decay."""
    dn, dd = d.numerator, d.denominator
    m, big_d = len(zetas), dn * dd
    # a_{j+1} = floor(zeta_{j+1}) = (P + isqrt(D)) // Q for Q > 0, since sqrt(D)
    # is irrational; zeta_{j+1} > 1 iff it is >= 1, and 0 marks Q <= 0
    root = math.isqrt(big_d)
    quots = [(big_p + root) // big_q if big_q > 0 else 0 for big_p, big_q in zetas]
    if start == 0:
        if sign_sqrt(-ps[1], qs[1], dn, dd) != 1:
            raise VerificationFailed(f"beta_0 = {qs[1]}*sqrt({d}) - {ps[1]} has the wrong sign")
        for j, ((big_p, big_q), ak) in enumerate(zip(zetas, quots)):
            if ak < 1:
                raise VerificationFailed(
                    f"zeta_{j + 1} = ({big_p}+sqrt({big_d}))/{big_q} of sqrt({d}) is not > 1"
                )
        det = ps[1] * qs[0] - ps[0] * qs[1]
        if det != -1:
            raise VerificationFailed(f"p_0 q_-1 - p_-1 q_0 = {det} for sqrt({d}), expected -1")
    lo = max(start, 1)
    for k, p2, p1, p, q2, q1, q in zip(range(lo, depth + 1), ps[lo - 1:], ps[lo:], ps[lo + 1:],
                                       qs[lo - 1:], qs[lo:], qs[lo + 1:]):
        ak = quots[(k - 1) % m]
        if p != ak * p1 + p2 or q != ak * q1 + q2:
            if not _beta_quotient_holds(dn, dd, ps, qs, zetas, k - 1):
                raise VerificationFailed(f"beta_{k} zeta_{k + 1} != -beta_{k - 1} for sqrt({d})")
            raise VerificationFailed(f"p_{k}, q_{k} do not follow from a_{k} = {ak} for sqrt({d})")
    for k in range(lo, min(lo + m, depth + 1)):  # the closure, on the entries read
        (big_p, big_q), (next_p, next_q) = zetas[(k - 1) % m], zetas[k % m]
        if big_p + next_p != quots[(k - 1) % m] * big_q or big_q * next_q != big_d - next_p**2:
            raise VerificationFailed(f"zeta_{k} != a_{k} + 1/zeta_{k + 1} for sqrt({d})")
    if not _beta_quotient_holds(dn, dd, ps, qs, zetas, lo - 2):
        raise VerificationFailed(f"beta_{lo - 1} zeta_{lo} != -beta_{lo - 2} for sqrt({d})")


# ---------------------------------------------------------------------------
# identity audit
# ---------------------------------------------------------------------------


class IdentityVerdict(Value):
    """Outcome of checking one identity in printed and corrected form, a Value.

    printed and corrected are "holds" or "fails".  witness documents the
    first failing index of the printed form with both sides rendered
    exactly; None when the printed form holds.
    """

    __slots__ = _fields = ("fact_id", "printed", "corrected", "witness")

    def __init__(self, fact_id: str, printed: str, corrected: str, witness: dict | None) -> None:
        self._fill(fact_id, printed, corrected, witness)

    def to_json(self) -> dict:
        return {**self._asdict(), "witness": self.witness and dict(self.witness)}


def _verdict(ok: bool) -> str:
    return "holds" if ok else "fails"


def _first_witness(ks, sides, holds=None) -> dict | None:
    """The witness of the first k in ks where an identity fails, with both
    sides exact as given by sides(k).  With holds(k) the identity is decided
    on integers and the sides are built only for the witness; without it
    the two sides (ints, Fractions or QuadRat values) are compared."""
    for k in ks:
        if not (holds(k) if holds else operator.eq(*sides(k))):
            lhs, rhs = sides(k)
            return {"k": k, "lhs": str(lhs), "rhs": str(rhs)}
    return None


def audit_identities(cf: CFData, k_max: int | None = None) -> list[IdentityVerdict]:
    """Re-check the convergent identities over all materialized indices.

    Every identity is evaluated in two variants: the commonly printed
    form and the index-corrected form.  A failing printed form carries a
    witness (first failing index, both sides exact) from _first_witness.
    One period and one step of complete quotients are re-derived from the
    recurrence; zeta_{m+1} = zeta_1 then closes the chain on the table.

    Verdicts are decided on the integers of conv_p, conv_q, period and
    zetas, but the unit shift's on the QuadRat sides of its witness:
    c beta_{k+m} - (-1)^m beta_k follows the convergent recurrence, so where
    that holds through every k + m read, k = 0 and 1 decide every k, and
    otherwise every k is compared.

    k_max caps the quantified index ranges (default: everything the
    expansion materialized).
    """
    if cf.depth < 3 * cf.m + 3:
        raise DepthExceeded(f"audit needs depth >= {3 * cf.m + 3}, have {cf.depth}")
    d, m, a0 = cf.d, cf.m, cf.a0
    dn, dd = d.numerator, d.denominator
    big_d = dn * dd
    ps, qs, zetas = cf.conv_p, cf.conv_q, cf.zetas  # ps[k + 1] = p_k
    out: list[IdentityVerdict] = []
    kcap = cf.depth if k_max is None else min(k_max, cf.depth)

    # The printed form fails iff it has a witness, {} for a failure with no
    # index to show (reported as None); corrected defaults to its verdict.
    def add(fact_id: str, witness: dict | None, corrected: bool | None = None) -> None:
        ok = witness is None
        corrected = ok if corrected is None else corrected
        out.append(IdentityVerdict(fact_id, _verdict(ok), _verdict(corrected), witness or None))

    # Complete quotients from scratch, to validate the periodic table: on
    # reduced triples (A + B sqrt(D))/E with E > 0, zeta_0 = sqrt(D)/dd, each
    # floor by floor_sqrt and each inverse by the conjugate.  zeta_k > 1 for
    # k >= 1, so its reduced triple is (P, 1, Q) for the pair of its entry.
    # Each zeta is a function of the last, so once zeta_{m+1} = zeta_1 the
    # chain repeats the table at every later k: checking to m + 1 is enough.
    a, b, e = 0, 1, dd
    for k in range(1, m + 2):
        a -= floor_sqrt(a, b, big_d, e) * e
        a, b, e = e * a, -e * b, a * a - b * b * big_d
        if e < 0:
            a, b, e = -a, -b, -e
        g = math.gcd(a, b, e)
        a, b, e = a // g, b // g, e // g
        big_p, big_q = zetas[(k - 1) % m]
        if (a, b, e) != (big_p, 1, big_q):
            chain = QuadRat._of(a, b * dd, e, d)
            raise VerificationFailed(
                f"zeta_{k} of sqrt({d}) is {chain} by the recurrence "
                f"but {cf.zeta(k)} in the periodic table"
            )

    # convergent recurrence: p_k = a_k p_{k-1} + p_{k-2}, same for q.
    def recurrence(k):
        ak = cf.period[(k - 1) % m]
        return (ps[k + 1], qs[k + 1]), (ak * ps[k] + ps[k - 1], ak * qs[k] + qs[k - 1])

    rec_top = min(kcap + 1, cf.depth)
    rec = _first_witness(range(1, rec_top + 1), recurrence)
    add("convergent-recurrence", rec)

    # beta quotient step: beta_{k+1} = -beta_k / zeta_{k+2}, checked
    # multiplicatively at every index to stay division-free; expand's sweep
    # runs it once and carries it by induction.
    add("beta-quotient-step",
        _first_witness(range(0, min(kcap, cf.depth - 1) + 1),
                       lambda k: (cf.beta(k + 1) * cf.zeta(k + 2), -cf.beta(k)),
                       lambda k: _beta_quotient_holds(dn, dd, ps, qs, zetas, k)))

    # period shape: interior palindrome, last digit 2*a0 (verified at
    # expansion time; recorded here so every report carries it).
    shape_ok = cf.period[-1] == 2 * a0 and cf.period[:-1] == cf.period[-2::-1]
    add("period-palindrome", None if shape_ok else {})

    # period entry point.  Printed: zeta_{lm+1} = zeta_1 = sqrt(d) + a0.
    # Corrected: zeta_{lm} = sqrt(d) + a0 (the quotient *ending* the
    # period block is the shifted root; the one starting it is not,
    # unless m = 1).  The table is periodic, so zeta_{lm+1} is the entry
    # of zeta_1 and zeta_{lm} that of zeta_m for every l >= 1, and
    # (P + sqrt(D))/Q = a0 + sqrt(d) iff (P, Q) = (a0 dd, dd).
    entry = (a0 * dd, dd)
    add("zeta-period-entry",
        _first_witness([1], lambda k: (cf.zeta(k), cf.sqrt_d() + a0),
                       lambda k: zetas[k - 1] == entry),
        zetas[m - 1] == entry)

    # p/q connection at period multiples: p_j = a0 q_j + q_{j-1} and
    # d q_j = a0 p_j + p_{j-1}.  Printed at j = km for every natural k;
    # corrected one index earlier, at j = km - 1 for k >= 1.
    for name, xs, c, ys in (("p", ps, 1, qs), ("q", qs, d, ps)):
        def connection(j):  # c x_j = a0 y_j + y_{j-1}
            return c * xs[j + 1], a0 * ys[j + 1] + ys[j]

        printed = _first_witness(range(0, min(kcap, (cf.depth - 1) // m) + 1),
                                 lambda k: connection(k * m))
        corrected = _first_witness(range(1, min(kcap, cf.depth // m) + 1),
                                   lambda k: connection(k * m - 1))
        add(f"pq-connection-{name}", printed, corrected is None)

    # Product of one period of complete quotients, as (x + y sqrt(D))/z.
    # Printed: zeta_1 ... zeta_{m+1} = q_m sqrt(d) + q_{m-1} + a0 q_m.
    # Corrected: U := zeta_1 ... zeta_m = q_{m-1} sqrt(d) + p_{m-1}.
    x, y, z = 1, 0, 1
    for big_p, big_q in zetas:
        x, y, z = x * big_p + y * big_d, x + y * big_p, z * big_q
    big_p, big_q = zetas[0]  # zeta_{m+1}
    x1, y1, z1 = x * big_p + y * big_d, x + y * big_p, z * big_q
    b0, b1 = ps[m], qs[m]  # U = b0 + b1 sqrt(d)
    c0, c1 = qs[m] + a0 * qs[m + 1], qs[m + 1]
    prod_m1 = QuadRat._of(x1, y1 * dd, z1, d)
    add("unit-product",
        _first_witness([m + 1], lambda k: (prod_m1, QuadRat._of(c0, c1, 1, d)),
                       lambda k: x1 == c0 * z1 and y1 * dd == c1 * z1),
        x == b0 * z and y * dd == b1 * z)

    # Shift of beta by one period length.
    # Printed: (zeta_1 ... zeta_{m+1}) beta_{k+m} = (-1)^m beta_k.
    # Corrected: U beta_{k+m} = (-1)^m beta_k.  Both decided at k = 0 and 1
    # where the recurrence holds through every k + m read, else stepwise.
    k_top = min(kcap, cf.depth - m)
    if rec is None and k_top + m <= rec_top:
        k_top = min(k_top, 1)
    ks = range(0, k_top + 1)
    printed, corrected = (_first_witness(ks, lambda k: (c * cf.beta(k + m), (-1) ** m * cf.beta(k)))
                          for c in (prod_m1, QuadRat._of(b0, b1, 1, d)))
    add("beta-unit-shift", printed, corrected is None)
    return out


# ---------------------------------------------------------------------------
# shift constants
# ---------------------------------------------------------------------------


class ShiftConstants(Value):
    """Integer weights linking q to p along residue classes mod t, a Value.

    For every residue i and every block index k, with d = dn/dd:
        dn q_{kt+i} = v_num[i] p_{kt+i+1} + w_num[i] p_{kt+i}
    t = max(m, 2) so the weights are constant along classes (t is always
    a multiple of the period length m).  With the complete quotients
    (P_j + sqrt(D))/Q_j, the classical identity dn q_k = Q_{k+1} p_{k+1}
    - P_{k+2} p_k gives v_num[i] = Q_{i+1} and w_num[i] = -P_{i+2} (P and
    Q have period m); v and w are the rational weights v_num[i]/dn and
    w_num[i]/dn.  U is the unit q_{m-1} sqrt(d) + p_{m-1}.  Derived on
    construction: t = len(v_num), a_const and b_const with U = b_const +
    a_const sqrt(d), pell_norm = -norm(U) = a_const^2 d - b_const^2 (for
    integer d the classical +-1), unit_inverse, U^-1 as the triple
    (A, B, E) of (A + B sqrt(d)) / E, as small as U, and dn, dd = num(d),
    den(d) as ints.
    """

    _fields = ("d", "v_num", "w_num", "unit")
    _derived = ("t", "a_const", "b_const", "pell_norm", "unit_inverse", "dn", "dd")
    __slots__ = (*_fields, *_derived)

    def __init__(self, d: Fraction, v_num: tuple[int, ...], w_num: tuple[int, ...],
                 unit: QuadRat) -> None:
        b_const, a_const, _ = unit.scaled()  # U = b + a sqrt(d)
        self._fill(d, v_num, w_num, unit, len(v_num), a_const, b_const, -unit.norm(),
                   unit.inverse().scaled(), d.numerator, d.denominator)

    @property
    def v(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.d.numerator) for x in self.v_num)

    @property
    def w(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.d.numerator) for x in self.w_num)

    def to_json(self) -> dict:
        def ratio(x: int) -> str:  # str(Fraction(x, dn)), without building it
            g = math.gcd(x, self.dn)
            return str(x // g) if g == self.dn else f"{x // g}/{self.dn // g}"

        return {
            "d": str(self.d),
            "t": self.t,
            "v": [ratio(x) for x in self.v_num],
            "w": [ratio(x) for x in self.w_num],
            "U": str(self.unit),
            "a": self.a_const,
            "b": self.b_const,
            "pell_norm": str(self.pell_norm),
        }


def derive_shift_constants(cf: CFData) -> ShiftConstants:
    """Read the per-residue weights off the complete quotients, valid on
    every index: v_num[i] = Q_{i+1}, w_num[i] = -P_{i+2}.

    By the recurrence p_{k+1} = a_{k+1} p_k + p_{k-1} and the closure P_{k+1}
    + P_{k+2} = a_{k+1} Q_{k+1}, the identity dn q_k = Q_{k+1} p_{k+1} -
    P_{k+2} p_k of ShiftConstants is dn q_k = Q_{k+1} p_{k-1} + P_{k+1} p_k,
    the rational half of the step beta_k zeta_{k+1} = -beta_{k-1}: expand's
    sweep, which checks those two and carries that step to every index,
    implies it once the closure has been read on every period entry.  An
    expansion that sweep has not passed gets it here, once, at its own depth,
    and raises VerificationFailed naming the first failing entry; then either
    grows to m, at_least sweeping the new indices.  No linear system is solved.
    """
    if not cf.swept:
        _check_convergents(cf.d, cf.conv_p, cf.conv_q, cf.zetas, cf.depth)
    t, m, cf = cf.t, cf.m, cf.at_least(cf.m)
    v_num = tuple(cf.zetas[i % m][1] for i in range(t))  # Q_{i+1}
    w_num = tuple(-cf.zetas[(i + 1) % m][0] for i in range(t))  # -P_{i+2}
    return ShiftConstants(cf.d, v_num, w_num, fundamental_unit(cf))


def fundamental_unit(cf: CFData) -> QuadRat:
    """U = p_{m-1} + q_{m-1} sqrt(d), read at cf.at_least(m - 1) and checked
    > 1 and, for integer d, of Pell norm q_{m-1}^2 d - p_{m-1}^2 = +-1."""
    cf = cf.at_least(cf.m - 1)
    unit = QuadRat._of(cf.p(cf.m - 1), cf.q(cf.m - 1), 1, cf.d)
    if not unit > 1:
        raise VerificationFailed(f"unit {unit} for d={cf.d} is not > 1")
    pell = -unit.norm()
    if cf.d.denominator == 1 and abs(pell) != 1:
        raise VerificationFailed(f"unit norm {pell} for integer d={cf.d} is not +-1")
    return unit


# ---------------------------------------------------------------------------
# radicand normalization
# ---------------------------------------------------------------------------


def normalize_d(d) -> tuple[Fraction, Fraction]:
    """Rescale d into the band (9/4, 4): d = scale^2 * d_norm exactly.

    Returns (d_norm, scale) with scale a dyadic rational h / 2^e, found
    by the smallest e admitting an integer h with d * 4^e / 4 < h^2 <
    d * 4^e * 4 / 9.  For n = d * 4^e that range of h, (sqrt(n)/2,
    2 sqrt(n)/3), is wider than 1 once n > 36, so the search terminates.
    The result keeps sqrt(d_norm) strictly between 3/2 and 2 (so its
    integer part is 1).
    """
    d = check_radicand(d)
    lo, hi = Fraction(9, 4), Fraction(4)
    if lo < d < hi:
        return d, Fraction(1)
    for e in itertools.count():
        n4, dd = d.numerator << 2 * e, d.denominator  # n = n4 / dd
        h = math.isqrt(n4 // (4 * dd)) + 1  # the least h with h^2 > n/4
        if 9 * h * h * dd < 4 * n4:  # h^2 < 4n/9
            scale, d_norm = Fraction(h, 1 << e), Fraction(n4, dd * h * h)
            if not (lo < d_norm < hi and scale * scale * d_norm == d):
                raise VerificationFailed(
                    f"normalize_d({d}): {d_norm} with scale {scale} is outside "
                    f"the band ({lo}, {hi}) or does not rescale to d"
                )
            return d_norm, scale
