"""Expansion of sqrt(d): period shape, convergents against an
independent fold oracle, identity audit verdicts, shift constants."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostro import (
    DepthExceeded,
    RationalSquare,
    UnsupportedRadicand,
    audit_identities,
    derive_shift_constants,
    expand,
    normalize_d,
    quad,
)
from ostro.harness import DEFAULT_D_LIST


def fold_convergent(a0: int, partials) -> Fraction:
    """[a0; a1, ..., ak] evaluated by back substitution, no recurrences."""
    acc = Fraction(partials[-1]) if partials else None
    for a in reversed(partials[:-1]):
        acc = a + 1 / acc
    return a0 + 1 / acc if acc is not None else Fraction(a0)


# ---------------------------------------------------------------------------
# expansion shape
# ---------------------------------------------------------------------------


def test_frozen_small_expansions(cf_of):
    cf2 = cf_of(2)
    assert (cf2.a0, list(cf2.period), cf2.m) == (1, [2], 1)
    assert cf2.zeta(1) == quad(1, 1, 2)

    cf3 = cf_of(3)
    assert (cf3.a0, list(cf3.period), cf3.m) == (1, [1, 2], 2)
    assert cf3.zeta(1) == quad(Fraction(1, 2), Fraction(1, 2), 3)
    assert cf3.zeta(2) == quad(1, 1, 3)

    cf32 = cf_of(Fraction(3, 2))
    assert (cf32.a0, list(cf32.period), cf32.m) == (1, [4, 2], 2)


def test_period_shape_across_suite(cf_of):
    for d in DEFAULT_D_LIST:
        cf = cf_of(d)
        assert cf.period[-1] == 2 * cf.a0
        assert list(cf.period[:-1]) == list(cf.period[:-1])[::-1]
        assert cf.s_max == max(cf.period)
        # minimality: no proper divisor of m repeats to the full period
        p = list(cf.period)
        for div in range(1, cf.m):
            if cf.m % div == 0:
                assert p[:div] * (cf.m // div) != p


def test_convergents_match_fold_oracle(cf_of):
    for d in (2, 3, 13, Fraction(3, 2), Fraction(32, 9)):
        cf = cf_of(d)
        for k in range(0, 30):
            want = fold_convergent(cf.a0, [cf.a(i) for i in range(1, k + 1)])
            assert Fraction(cf.p(k), cf.q(k)) == want


def test_determinant_and_beta_shape(cf_of):
    for d in (2, 3, 61, Fraction(13, 4)):
        cf = cf_of(d)
        root = cf.sqrt_d()
        assert cf.beta(-1) == quad(-1, 0, d)
        prev = None
        for k in range(0, cf.depth):
            assert cf.p(k) * cf.q(k - 1) - cf.p(k - 1) * cf.q(k) == (-1) ** (k + 1)
            beta = cf.q(k) * root - cf.p(k)
            assert cf.beta(k) == beta
            assert beta.sign() == (-1) ** k
            if prev is not None:
                mag, pmag = (beta if k % 2 == 0 else -beta), (prev if k % 2 == 1 else -prev)
                assert (pmag - mag).sign() > 0
            prev = beta


def test_complete_quotient_periodicity(cf_of):
    assert cf_of(2).zeta(5) == quad(1, 1, 2)
    assert cf_of(3).zeta(0) == quad(0, 1, 3)
    assert cf_of(3).zeta(4) == quad(1, 1, 3)


def floor_by_bisection(z):
    """floor(z) from exact sign tests alone, independent of QuadRat.floor."""
    lo, hi = -1, 1
    while (z - lo).sign() < 0:
        lo *= 2
    while (z - hi).sign() >= 0:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if (z - mid).sign() >= 0 else (lo, mid)
    return lo


def test_integer_zetas_match_quadrat_recurrence():
    # the (P, Q) recurrence of expand against zeta_{k+1} = 1/(zeta_k - a_k)
    for d in DEFAULT_D_LIST + (Fraction(991), Fraction(1000003, 7)):
        cf = expand(d, 8)
        z = cf.sqrt_d()
        for k in range(0, 2 * cf.m + 3):
            assert cf.zeta(k) == z, (d, k)
            assert cf.a(k) == floor_by_bisection(z), (d, k)
            z = (z - floor_by_bisection(z)).inverse()


def test_expand_rejects_bad_radicands():
    for bad in (1, 4, 9, Fraction(9, 4)):  # 1 is a square, caught first
        with pytest.raises(RationalSquare):
            expand(bad, 8)
    for low in (Fraction(1, 2), Fraction(2, 3)):
        with pytest.raises(UnsupportedRadicand):
            expand(low, 8)
    with pytest.raises(ValueError):
        expand(3, 0)


def test_expand_deterministic():
    assert expand(7, 20) == expand(7, 20)


def test_at_least_grows_only_past_the_depth():
    cf = expand(991, 8)  # m = 60
    assert cf.at_least(1) is cf and cf.at_least(8) is cf
    deep = cf.at_least(183)
    assert deep.depth == 183 and deep == expand(991, 183)
    assert (deep.period, deep.zetas) == (cf.period, cf.zetas)
    assert deep.conv_p[: len(cf.conv_p)] == cf.conv_p
    assert deep.conv_q[: len(cf.conv_q)] == cf.conv_q


# ---------------------------------------------------------------------------
# identity audit
# ---------------------------------------------------------------------------


def verdict_map(cf, k_max=None):
    return {v.fact_id: v for v in audit_identities(cf, k_max)}


def test_audit_d3_full_table(cf_of):
    vm = verdict_map(cf_of(3))
    assert vm["convergent-recurrence"].printed == "holds"
    assert vm["beta-quotient-step"].corrected == "holds"
    assert vm["period-palindrome"].printed == "holds"

    v = vm["zeta-period-entry"]
    assert (v.printed, v.corrected) == ("fails", "holds")
    assert v.witness == {"k": 1, "lhs": "1/2+1/2*sqrt(3)", "rhs": "1+1*sqrt(3)"}

    v = vm["pq-connection-p"]
    assert (v.printed, v.corrected) == ("fails", "holds")
    assert v.witness == {"k": 1, "lhs": "5", "rhs": "4"}

    v = vm["pq-connection-q"]
    assert (v.printed, v.corrected) == ("fails", "holds")
    assert v.witness["k"] == 0

    v = vm["unit-product"]
    assert (v.printed, v.corrected) == ("fails", "holds")

    v = vm["beta-unit-shift"]
    assert (v.printed, v.corrected) == ("fails", "holds")
    assert v.witness["k"] == 0


def test_audit_d2_period_one_shape(cf_of):
    vm = verdict_map(cf_of(2))
    # with m = 1 the period-entry and product forms coincide as printed
    assert vm["zeta-period-entry"].printed == "holds"
    assert vm["unit-product"].printed == "holds"
    # the beta shift is off by one quotient factor for every d
    assert vm["beta-unit-shift"].printed == "fails"
    assert all(v.corrected == "holds" for v in vm.values())


def test_audit_corrected_holds_for_sampled_suite(cf_of):
    for d in (5, 61, Fraction(3, 2), Fraction(13, 4)):
        assert all(v.corrected == "holds" for v in audit_identities(cf_of(d)))


def test_audit_requires_depth():
    cf = expand(61, 12)  # m = 11 needs depth >= 36
    with pytest.raises(DepthExceeded):
        audit_identities(cf)


def test_audit_json_schema(cf_of):
    row = verdict_map(cf_of(3))["pq-connection-p"].to_json()
    assert row == {
        "fact_id": "pq-connection-p",
        "printed": "fails",
        "corrected": "holds",
        "witness": {"k": 1, "lhs": "5", "rhs": "4"},
    }


# ---------------------------------------------------------------------------
# shift constants
# ---------------------------------------------------------------------------


def test_constants_d3_frozen(cf_of, sc_of):
    sc = sc_of(3)
    assert sc.t == 2
    assert sc.v == (Fraction(2, 3), Fraction(1, 3))
    assert sc.w == (Fraction(-1, 3), Fraction(-1, 3))
    assert sc.unit == quad(2, 1, 3)
    assert (sc.a_const, sc.b_const) == (1, 2)
    assert sc.pell_norm == -1

    cf = cf_of(3)
    # spot check the defining relation at block k = 2, both residues
    assert cf.q(4) == 11 and cf.p(5) == 26 and cf.p(4) == 19
    assert Fraction(11) == sc.v[0] * 26 + sc.w[0] * 19
    assert cf.q(5) == 15 and cf.p(6) == 71
    assert Fraction(15) == sc.v[1] * 71 + sc.w[1] * 26


def test_constants_d2_residues_agree(sc_of):
    sc = sc_of(2)
    assert sc.v[0] == sc.v[1] == Fraction(1, 2)
    assert sc.w[0] == sc.w[1] == Fraction(-1, 2)
    assert sc.unit == quad(1, 1, 2)
    assert sc.pell_norm == 1


def test_constants_relation_all_materialized(cf_of, sc_of):
    for d in (2, 3, 7, Fraction(32, 9)):
        cf, sc = cf_of(d), sc_of(d)
        for i in range(sc.t):
            k = 0
            while k * sc.t + i + 1 <= cf.depth:
                idx = k * sc.t + i
                assert Fraction(cf.q(idx)) == sc.v[i] * cf.p(idx + 1) + sc.w[i] * cf.p(idx)
                k += 1


def test_constants_grow_past_a_shallow_expansion():
    # t = 60 needs 2t+2 = 122 indices; the shallow input is grown, not refused
    assert derive_shift_constants(expand(991, 8)) == derive_shift_constants(expand(991, 183))


def test_constants_unit_exceeds_one(cf_of, sc_of):
    for d in DEFAULT_D_LIST:
        sc = sc_of(d)
        assert (sc.unit - 1).sign() > 0
        cf = cf_of(d)
        assert sc.unit == quad(cf.p(cf.m - 1), cf.q(cf.m - 1), d)
        if d.denominator == 1:
            assert sc.pell_norm in (1, -1)


# ---------------------------------------------------------------------------
# radicand normalization
# ---------------------------------------------------------------------------


def test_normalize_frozen():
    assert normalize_d(3) == (Fraction(3), Fraction(1))
    assert normalize_d(2) == (Fraction(32, 9), Fraction(3, 4))


@given(st.fractions(min_value=0, max_value=100, max_denominator=60))
def test_normalize_contract(d):
    if d <= 0:
        return
    try:
        d_norm, scale = normalize_d(d)
    except RationalSquare:
        return
    assert Fraction(9, 4) < d_norm < 4
    assert scale * scale * d_norm == d
