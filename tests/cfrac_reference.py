"""The references for ostro.cfrac's integer verification: the identity
audit with every side evaluated as a QuadRat product over Fractions, the
convergent sweep with the sign and decay of beta_k decided by sign_sqrt at
every index, and the stepwise sweep that checks the beta step at every
index, which expand ran before it checked the step by induction.  The
library decides the same verdicts; the tests require equal verdicts,
witnesses and VerificationFailed messages on true and corrupted tables.
normalize_d's search over Fractions is kept too: the library runs it on
the numerator and denominator, and the tests require the same pair.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ostro.cfrac import CFData, IdentityVerdict, _verdict
from ostro.errors import DepthExceeded, VerificationFailed
from ostro.qfield import check_radicand, quad, sign_sqrt


def check_convergents_reference(d: Fraction, ps, qs, depth: int) -> None:
    """Sanity sweep over the convergent tables (index -1 first):
    determinant identity, sign alternation, strict decay.  With beta_k of
    sign s, |beta_{k+1}| - |beta_k| = -s (beta_k + beta_{k+1})."""
    dn, dd = d.numerator, d.denominator
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


def check_convergents_stepwise(d: Fraction, ps, qs, zetas, depth: int, start: int = 0) -> None:
    """The convergent sweep with the beta step run at every index: from
    start = 0 beta_0 > 0, every complete quotient of the period > 1 and
    p_0 q_-1 - p_-1 q_0 = -1; at every k in max(start, 1) .. depth first the
    step beta_k zeta_{k+1} = -beta_{k-1}, then the recurrence p_k = a_k
    p_{k-1} + p_{k-2} (same for q) with a_k read off zeta_k."""
    dn, dd = d.numerator, d.denominator
    m, big_d = len(zetas), dn * dd
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
    for k in range(max(start, 1), depth + 1):
        p2, p1, p, q2, q1, q = ps[k - 1], ps[k], ps[k + 1], qs[k - 1], qs[k], qs[k + 1]
        big_p, big_q = zetas[k % m]  # zeta_{k+1}
        if q * dn - p * big_p != big_q * p1 or q * big_p - p * dd != -big_q * q1:
            raise VerificationFailed(f"beta_{k} zeta_{k + 1} != -beta_{k - 1} for sqrt({d})")
        ak = quots[(k - 1) % m]
        if p != ak * p1 + p2 or q != ak * q1 + q2:
            raise VerificationFailed(
                f"p_{k}, q_{k} do not follow from a_{k} = {ak} for sqrt({d})"
            )


def _first_failure(pairs) -> dict | None:
    """pairs yields (k, lhs, rhs) of QuadRat/int; report the first mismatch."""
    for k, lhs, rhs in pairs:
        if lhs != rhs:
            return {"k": k, "lhs": str(lhs), "rhs": str(rhs)}
    return None


def audit_identities_reference(cf: CFData, k_max: int | None = None) -> list[IdentityVerdict]:
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


def normalize_d_reference(d) -> tuple[Fraction, Fraction]:
    """(d_norm, scale) with d = scale^2 * d_norm in (9/4, 4), scale = h / 2^e
    for the smallest e admitting an integer h with n/4 < h^2 < 4n/9, n = d 4^e."""
    d = check_radicand(d)
    if Fraction(9, 4) < d < 4:
        return d, Fraction(1)
    for e in itertools.count():
        n = d * 4**e
        h = math.isqrt(math.floor(n / 4)) + 1  # the least h with h^2 > n/4
        if h * h < 4 * n / 9:
            scale = Fraction(h, 2**e)
            return d / (scale * scale), scale
