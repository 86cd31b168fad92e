"""Digit-shift machinery: evaluation functionals against a literal
double-sum oracle, the two recovery identities, representation-level
multiplication by sqrt(d), and the window/probe layer."""

import collections
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import ostro
from ostro import (
    DepthExceeded,
    InvalidDigits,
    OutOfDomain,
    OutOfInterval,
    VerificationFailed,
    WitnessUnavailable,
    check_recover_frac,
    check_recover_nat,
    encode_nat,
    encode_real,
    make_digits,
    prefix_nat,
    prefix_window,
    quad,
    residue_class_probe,
    tail_window,
    times_sqrt_frac,
    times_sqrt_nat,
    times_sqrt_real,
    window_digit,
)
from ostro import shiftcalc
from ostro.ostrowski import KIND_REAL, beta_parts, decode_nat, decode_real
from ostro.qfield import QuadRat

from digit_maps import (Weights, digit_window, embed, gen_digits, shift, unary_layers,
                        weighted_beta_sum, weighted_q_sum)
from shiftcalc_reference import (natural_dots_per_n, natural_dots_single_level,
                                 times_sqrt_real_quadrat)

D_SMALL = [Fraction(x) for x in (2, 3, "3/2", "32/9")]


def sigma_oracle(cf, x, u, l):
    """Literal double sum over residue classes, built from raw q_k."""
    tot = Fraction(0)
    t = len(u.values)
    for pos, val in x.items:
        tot += u.values[pos % t] * val * cf.q(pos + l)
    return quad(0, tot, cf.d)


def f_oracle(cf, x, u, l):
    t = len(u.values)
    out = quad(0, 0, cf.d)
    for pos, val in x.items:
        out = out + u.values[pos % t] * val * cf.beta(pos + l)
    return out


def rand_gen_digits(cf, rng, span=12, use=4):
    vals = {k: rng.randint(0, cf.s_max) for k in rng.sample(range(span), use)}
    return gen_digits(cf, vals)


# ---------------------------------------------------------------------------
# embedding and shifting
# ---------------------------------------------------------------------------


def test_embed_frozen(cf_of):
    cf3, cf2 = cf_of(3), cf_of(2)
    assert embed(encode_nat(5, cf3)).as_dict() == {1: 1, 3: 1}
    assert embed(encode_nat(0, cf3)).as_dict() == {}
    assert embed(make_digits(cf2, (0, 2))).as_dict() == {1: 2}


def test_digit_map_algebra_is_not_in_the_library():
    # the digit maps and weighted sums are a test-side reference
    # (digit_maps.py); the library keeps embed, as plain pairs
    moved = ("GenDigits", "gen_digits", "shift", "Weights", "weighted_q_sum",
             "weighted_beta_sum", "digit_window", "UnaryLayers", "unary_layers")
    assert [n for n in moved + ("embed",) if hasattr(ostro, n) or n in ostro.__all__] == []
    assert [n for n in moved + ("_residue_dots", "_sigma_f_pair")
            if hasattr(shiftcalc, n)] == []
    assert shiftcalc.embed(encode_nat(5, ostro.expand(3))) == ((1, 1), (3, 1))


def test_shift_frozen(cf_of):
    cf3 = cf_of(3)
    x = gen_digits(cf3, {1: 1, 3: 1})
    assert shift(x, 2).as_dict() == {3: 1, 5: 1}
    assert shift(gen_digits(cf3, {}), 5).as_dict() == {}


@given(st.integers(0, 6), st.integers(0, 6), st.randoms(use_true_random=False))
def test_shift_is_monoid_action(cf_of, l1, l2, rng):
    cf = cf_of(3)
    x = rand_gen_digits(cf, rng)
    assert shift(shift(x, l1), l2) == shift(x, l1 + l2)


@given(st.sampled_from(D_SMALL), st.integers(0, 4), st.integers(0, 4),
       st.randoms(use_true_random=False))
def test_evaluations_match_literal_double_sum(cf_of, d, l, j, rng):
    cf = cf_of(d)
    x = rand_gen_digits(cf, rng)
    u = Weights(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                      for _ in range(cf.t)))
    assert weighted_q_sum(x, u, l) == sigma_oracle(cf, x, u, l)
    assert weighted_beta_sum(x, u, l) == f_oracle(cf, x, u, l)
    # shifting the object equals rotating the weights and deepening l
    rot = Weights(tuple(u.values[(i + j) % cf.t] for i in range(cf.t)))
    assert weighted_q_sum(shift(x, j), u, l) == weighted_q_sum(x, rot, l + j)
    assert weighted_beta_sum(shift(x, j), u, l) == weighted_beta_sum(x, rot, l + j)


def test_shifted_decode_is_reindexed_sum(cf_of):
    cf = cf_of(3)
    x = encode_nat(37, cf)
    val = weighted_q_sum(embed(x), Weights.ones(cf.t), 1)
    assert val == quad(0, sum(b * cf.q(k + 1) for k, b in enumerate(x.digits)), Fraction(3))


def reference_beta_parts(x, l):
    """beta_parts from the GenDigits path: the all-ones beta sum at shift l."""
    val = weighted_beta_sum(embed(x), Weights.ones(x.cf.t), l)
    return val.a, val.b


@given(st.sampled_from(D_SMALL + [Fraction(7), Fraction(13, 4)]), st.integers(0, 10**9),
       st.booleans())
def test_beta_parts_matches_weighted_beta_sum(cf_of, sc_of, d, n, real):
    cf = cf_of(d)
    x = encode_nat(n, cf)
    if real:  # the kind does not enter the evaluation
        x = x.retag(KIND_REAL)
    assert beta_parts(x) == reference_beta_parts(x, 0), (d, n)
    assert decode_nat(x) == beta_parts(x)[1] == n
    # the sum shifted by m is read only by natural_dots, signed by (-1)^m
    ya, yb = shiftcalc.natural_dots(x, sc_of(d))[2:4]
    s = -1 if cf.m % 2 else 1
    assert (s * ya, s * yb) == reference_beta_parts(x, cf.m), (d, n)


def test_beta_parts_overrun_message(cf_of, sc_of):
    # q_64 - 1 over a depth-64 expansion has its top digit at 63: moved up
    # by m it is past the depth in natural_dots, and reread over a depth-8
    # expansion the constructor refuses it
    for d in (3, Fraction(13, 4), 7):
        cf, shallow = cf_of(d), cf_of(d, 8)
        x = encode_nat(cf.q(cf.depth) - 1, cf)
        top = len(x.digits) - 1
        assert top == cf.depth - 1
        assert beta_parts(x) == reference_beta_parts(x, 0)
        with pytest.raises(DepthExceeded) as ours:
            shiftcalc.natural_dots(x, sc_of(d))
        with pytest.raises(DepthExceeded) as ref:
            reference_beta_parts(x, cf.m)
        assert str(ours.value) == str(ref.value) == f"shifted index {top + cf.m} exceeds depth 64"
        with pytest.raises(DepthExceeded, match=f"^digit index {top} exceeds depth 8$"):
            make_digits(shallow, x.digits)


def test_evaluation_frozen_values(cf_of, sc_of):
    cf3, sc3 = cf_of(3), sc_of(3)
    emb5 = embed(encode_nat(5, cf3))
    v, w = Weights(sc3.v), Weights(sc3.w)
    assert weighted_q_sum(emb5, w, 0) == quad(0, Fraction(-5, 3), 3)
    assert weighted_q_sum(emb5, v, 1) == quad(0, Fraction(14, 3), 3)
    assert weighted_beta_sum(emb5, Weights.ones(2), 2) == quad(-33, 19, 3)
    assert weighted_beta_sum(emb5, v, 1) == quad(-8, Fraction(14, 3), 3)
    assert weighted_beta_sum(emb5, w, 0) == quad(3, Fraction(-5, 3), 3)
    zeros = Weights((Fraction(0), Fraction(0)))
    assert weighted_q_sum(emb5, zeros, 0) == quad(0, 0, 3)


# ---------------------------------------------------------------------------
# recovery identities
# ---------------------------------------------------------------------------


def test_recover_frac_d3_worked_case(cf_of, sc_of):
    entry = check_recover_frac(encode_nat(5, cf_of(3)), sc_of(3))
    assert entry.corrected == "holds"
    assert entry.printed == "fails"
    assert entry.lhs == quad(-9, 5, 3)
    assert entry.rhs == quad(-9, 5, 3)
    # the corrected unit action, spelled out
    assert quad(2, 1, 3) * quad(-33, 19, 3) == quad(-9, 5, 3)


def test_recover_nat_d3_worked_case(cf_of, sc_of):
    entry = check_recover_nat(encode_nat(5, cf_of(3)), sc_of(3))
    assert entry.corrected == "holds"
    assert entry.printed == "fails"
    assert entry.n == 5
    assert entry.rhs == quad(5, 0, 3)  # exactly 5, no irrational residue


def test_recover_trivial_zero(cf_of, sc_of):
    for d in (2, 3):
        e = check_recover_frac(encode_nat(0, cf_of(d)), sc_of(d))
        assert e.corrected == "holds" and e.lhs == quad(0, 0, d)
        e = check_recover_nat(encode_nat(0, cf_of(d)), sc_of(d))
        assert e.corrected == "holds" and e.n == 0


def test_recover_sweeps(cf_of, sc_of):
    for d in (2, Fraction(3, 2)):
        cf, sc = cf_of(d), sc_of(d)
        for n in range(0, 101):
            x = encode_nat(n, cf)
            assert check_recover_frac(x, sc).corrected == "holds"
            assert check_recover_nat(x, sc).corrected == "holds"


def reference_recoveries(x, sc):
    """Both recovery identities in QuadRat arithmetic, from the weighted
    sums: ((printed, corrected, lhs, rhs) frac, (printed, corrected, rhs) nat,
    the seven ints of natural_dots)."""
    cf, m = x.cf, x.cf.m
    emb, s = embed(x), (-1) ** m
    lhs = decode_real(x)
    y = weighted_beta_sum(emb, Weights.ones(cf.t), m)
    rhs = sc.unit * y * s
    printed = quad(cf.q(m - 1) + cf.a0 * cf.q(m), cf.q(m), cf.d) * y * s
    frac = (printed == lhs, rhs == lhs, lhs, rhs)

    def p_sum(u, l):  # sqrt(d) q-sum minus beta-sum: the p dot product
        return weighted_q_sum(emb, u, l) - weighted_beta_sum(emb, u, l)

    v, w = Weights.of(sc.v), Weights.of(sc.w)
    n = quad(decode_nat(x), 0, cf.d)
    val = p_sum(v, 1) + p_sum(w, 0)
    nat = (p_sum(v, 1) + p_sum(w, 1) == n, val == n, val)
    f, ys = weighted_beta_sum(emb, Weights.ones(cf.t)), y * s
    vn, wn = Weights.of(sc.v_num), Weights.of(sc.w_num)
    dots = (f.a, f.b, ys.a, ys.b, p_sum(vn, 1).a, p_sum(wn, 0).a, p_sum(wn, 1).a)
    return frac, nat, dots


# (d, x, eps) of ostro mul inputs whose digit strings hold 84-210 digits,
# over expansions that the shift by m takes past depth 64
MUL_INPUTS = (
    (Fraction(3), Fraction(123457, 9973), Fraction(1, 10**24)),
    (Fraction(3), Fraction(9972, 9973), Fraction(1, 10**59)),
    (Fraction(61), Fraction(50001, 9973), Fraction(1, 10**40)),
    (Fraction(61), Fraction(7, 5), Fraction(1, 10**80)),
    (Fraction(99991), Fraction(1, 9973), Fraction(1, 10**60)),
    (Fraction(99991), Fraction(888888, 9973), Fraction(1, 10**100)),
)


@lru_cache(maxsize=None)
def mul_string(d, x, eps):
    """The string times_sqrt_real builds for sqrt(d) x to eps: x mod 1 encoded
    to the eps depth, over the expansion deepened by the shift m."""
    cf = ostro.cfrac.expand(d, 256)
    depth = reference_real_depth(cf, eps)
    c = x - (quad(x, 0, d) + cf.sqrt_d() - cf.a0).floor()
    return encode_real(quad(c, 0, d), cf.at_least(depth - 1 + cf.m), depth)


def digit_string(cf_of, d, n):
    """encode_nat(n) over d, or for n a (d, x, eps) triple of MUL_INPUTS the
    string times_sqrt_real builds for it."""
    return encode_nat(n, cf_of(d)) if isinstance(n, int) else mul_string(*n)


def with_mul_examples(test):
    """Every MUL_INPUTS string through test as an explicit, uncorrupted example."""
    for inputs in MUL_INPUTS:
        test = example(inputs[0], inputs, None, 0, Fraction(1))(test)
    return test


def corrupt(sc, field, i, delta):
    """sc with one integer weight of v or w stepped by the nonzero
    numerator of delta, the unit b + a sqrt(d) with a stepped by that
    numerator and b by i, or the unit moved by delta.  a_const, b_const,
    pell_norm and unit_inverse follow the unit."""
    if field in ("v", "w"):
        vals = list(getattr(sc, field + "_num"))
        vals[i % sc.t] += delta.numerator
        return sc.replace(**{field + "_num": tuple(vals)})
    if field == "ab":
        return sc.replace(unit=quad(sc.b_const + i, sc.a_const + delta.numerator, sc.d))
    if field == "unit":
        return sc.replace(unit=sc.unit + delta)
    return sc


@with_mul_examples
@given(st.sampled_from([Fraction(x) for x in (2, 3, 7, 13, "3/2", "32/9", "13/4")]),
       st.one_of(st.integers(0, 10**6), st.sampled_from(MUL_INPUTS)),
       st.sampled_from([None, "v", "w", "ab", "unit"]),
       st.integers(0, 7),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
def test_integer_recoveries_match_quadrat_reference(cf_of, sc_of, d, n, field, i, delta):
    # n is a natural over d, or a long real string as ostro mul builds it
    x = digit_string(cf_of, d, n)
    sc = corrupt(sc_of(x.cf.d), field, i, delta)
    (fp, fc, flhs, frhs), (np_, nc, nrhs), dots = reference_recoveries(x, sc)
    assert shiftcalc.natural_dots(x, sc) == dots  # all seven ints
    if not isinstance(n, int):  # a mul string's natural is its q-weighted sum
        n = dots[1]
    ef, en = check_recover_frac(x, sc), check_recover_nat(x, sc)
    verdict = {True: "holds", False: "fails"}
    assert (ef.printed, ef.corrected) == (verdict[fp], verdict[fc])
    assert (ef.n, ef.lhs, ef.rhs) == (n, flhs, frhs)
    assert (en.printed, en.corrected) == (verdict[np_], verdict[nc])
    assert (en.n, en.lhs, en.rhs) == (n, n, nrhs)


def test_integer_recoveries_report_corruption(cf_of, sc_of):
    # n = 5 over d = 3 has digits 1 at positions 1 and 3 (residue 1 mod 2)
    x = encode_nat(5, cf_of(3))
    for field in ("v", "w", "ab", "unit"):
        sc = corrupt(sc_of(3), field, 1, Fraction(1, 2))
        fails = [e.corrected for e in (check_recover_frac(x, sc), check_recover_nat(x, sc))]
        assert "fails" in fails, field


def audit_cf(d):
    """The audit's expansion of d: 3m+3 deep, so the counter reaches n = 2000."""
    cf = ostro.cfrac.expand(Fraction(d), 64)
    return cf.at_least(3 * cf.m + 3)


def with_units(sc):
    """sc and sc with its unit moved by 1/5 (so E = 5), negated and doubled."""
    return [sc] + [sc.replace(unit=u) for u in (sc.unit + Fraction(1, 5), -sc.unit, 2 * sc.unit)]


@pytest.mark.parametrize("d", ["2", "3", "13/4", "32/9", "991", "99991", "1000003/7"])
def test_frac_verdicts_match_the_unit_product(d):
    # the audit decides U y == f as y == U^-1 f, both residuals zero; the
    # reference multiplies the period-sized y by U, on the counter's ints and
    # on each of them moved by one, for the true unit and for three wrong ones
    cf = audit_cf(d)
    verdicts = []
    for sc in with_units(ostro.cfrac.derive_shift_constants(cf)):
        for _, (fa, n, ya, yb, *_) in natural_dots_per_n(cf, sc, 2000):
            uy, f = sc.unit * QuadRat._of(ya, yb, 1, cf.d), QuadRat._of(fa, n, 1, cf.d)
            for fa2, n2 in [(fa, n), (fa + 1, n), (fa - 1, n), (fa, n + 1), (fa, n - 1)]:
                ours = not any(shiftcalc.frac_verdicts(cf, sc, fa2, n2, ya, yb))
                assert ours == (uy == QuadRat._of(fa2, n2, 1, cf.d)), (sc.unit, n, fa2, n2)
                verdicts.append(ours)
            for ya2, yb2 in [(ya + 1, yb), (ya - 1, yb), (ya, yb + 1), (ya, yb - 1)]:
                ours = not any(shiftcalc.frac_verdicts(cf, sc, fa, n, ya2, yb2))
                uy2 = sc.unit * QuadRat._of(ya2, yb2, 1, cf.d)
                assert ours == (uy2 == f), (sc.unit, n, ya2, yb2)
                verdicts.append(ours)
            # U (sa + sb sqrt(d)) == e f exactly, so it holds under every unit
            sa, sb, e = (sc.unit.inverse() * f).scaled()
            assert not any(shiftcalc.frac_verdicts(cf, sc, e * fa, e * n, sa, sb)), (sc.unit, n)
    # the unmoved ints under the true unit, and n = 0 (f = y = 0) under every unit
    assert verdicts.count(True) == 2001 + 3


@pytest.mark.parametrize("d", ["2", "3", "13/4", "32/9", "99991"])
def test_recovery_entries_hold_exactly_when_their_sides_agree(d):
    # the verdict comes from the ints, the sides from the witness builders
    cf = audit_cf(d)
    good = ostro.cfrac.derive_shift_constants(cf)
    bad = [corrupt(good, field, 1, Fraction(1, 2)) for field in ("v", "w", "ab", "unit")]
    seen = set()
    for sc in [*with_units(good), *bad]:
        for n in range(0, 200, 7):
            x = encode_nat(n, cf)
            for entry in (check_recover_frac(x, sc), check_recover_nat(x, sc)):
                agree = (entry.rhs - entry.lhs).sign() == 0  # the nat lhs is the int n
                assert (entry.corrected == "holds") == agree, (entry, sc)
                seen.add((entry.lemma, agree))
    assert len(seen) == 4  # each lemma both holds and fails


def test_zero_unit_is_an_error_entry(monkeypatch):
    # only a corrupted ShiftConstants can hold U = 0, which has no inverse
    derive = ostro.harness.cfrac.derive_shift_constants
    monkeypatch.setattr(ostro.harness.cfrac, "derive_shift_constants",
                        lambda cf: derive(cf).replace(unit=quad(0, 0, cf.d)))
    report = ostro.run_suite(ostro.SuiteConfig(d_list=(Fraction(3),), n_max=20))
    (res,) = report["results"]
    assert res == {"d": "3", "error": "ZeroDivisionError: inverse of zero"}
    assert ostro.harness.corrected_failures(report) >= 1


def test_audit_entry_serialization(cf_of, sc_of):
    row = check_recover_nat(encode_nat(5, cf_of(3)), sc_of(3)).to_json()
    assert row == {
        "lemma": "nat-recovery",
        "n": 5,
        "printed": "fails",
        "corrected": "holds",
        "lhs": "5",
        "rhs": "5+0*sqrt(3)",
    }


@pytest.mark.parametrize("d", [*ostro.harness.DEFAULT_D_LIST, Fraction(991),
                               Fraction(1000003, 7)], ids=str)
def test_counter_matches_encode_and_natural_dots(d):
    # the audit's expansion: 3m+3 deep, so d = 991 and 1000003/7 count
    # through positions past their first period; depths 64 and 3m+3 at the
    # split's edges are swept by test_encode_nat_upto_matches_per_n_encoding
    cf = ostro.cfrac.expand(d, 64)
    cf = cf.at_least(3 * cf.m + 3)
    sc = ostro.cfrac.derive_shift_constants(cf)
    n_max = min(3000, cf.q(cf.depth - cf.m + 1) - 1)
    seen = 0
    for n, (digits, dots) in enumerate(natural_dots_per_n(cf, sc, n_max)):
        x = encode_nat(n, cf)
        assert digits == x.digits, n
        assert dots == shiftcalc.natural_dots(x, sc), n
        seen += 1
    assert seen == n_max + 1


def _outcomes(items):
    """What an iterable yields, then the (type, message) of the InvalidDigits or
    DepthExceeded that ended it, if any; any other error propagates."""
    out = []
    try:
        for item in items:
            out.append(item)
    except (InvalidDigits, DepthExceeded) as exc:
        out.append((type(exc), str(exc)))
    return out


CORRUPTED_TABLE_D = (2, 3, 7, Fraction(13, 4), 61)


def corrupted_tables(d):
    """The good expansion of d to the first q_k > 500, its shift constants, and each
    copy with one q or one partial quotient of the period moved by one, as in
    test_encode_nat_errors_match_the_full_scan_on_corrupted_tables."""
    deep = ostro.cfrac.expand(d, 64)
    cf = ostro.cfrac.expand(d, next(k for k in range(64) if deep.q(k) > 500))
    tables = []
    for i in range(len(cf.conv_q)):
        for step in (-1, 1):
            qs = list(cf.conv_q)
            qs[i] += step
            if qs[i] or i == 0:
                tables.append(cf.replace(conv_q=tuple(qs)))
    for i in range(cf.m):
        for step in (-1, 1):
            period = list(cf.period)
            period[i] += step
            tables.append(cf.replace(period=tuple(period)))
    return cf, ostro.cfrac.derive_shift_constants(cf), tables


@pytest.mark.parametrize("d", CORRUPTED_TABLE_D, ids=str)
def test_counter_errors_match_the_per_n_loop_on_corrupted_tables(d):
    # the tables swept with the good table's constants past q_depth: the sweep
    # yields what encode_nat and natural_dots per n yield up to their first
    # error, at the same n, and raises only InvalidDigits or DepthExceeded.
    # d = 2 and 3 split at J = 5 and 8; 7, 13/4 and 61 have no J below depth - m
    cf, sc, tables = corrupted_tables(d)
    errors = collections.Counter()
    n_max = cf.q(cf.depth) + 1
    for bad in tables:
        got = _outcomes(natural_dots_per_n(bad, sc, n_max))
        want = _outcomes((x.digits, shiftcalc.natural_dots(x, sc))
                         for x in map(encode_nat, range(n_max + 1), [bad] * (n_max + 1)))
        assert got[:-1] == want[:-1], (bad.conv_q, bad.period)
        if got[-1] != want[-1]:
            # the sweep checks a digit count's shift by m before it encodes the
            # count's first n, where the loop meets encode_nat's q_depth error
            # first (m = 1) or an InvalidDigits
            n = len(got) - 1
            k = bisect_right(bad.conv_q, n, 1) - 1  # n's digit count
            assert got[-1] == (DepthExceeded,
                               f"shifted index {k - 1 + bad.m} exceeds depth {bad.depth}")
            assert want[-1][0] is InvalidDigits or (bad.m == 1 and n == bad.q(bad.depth)), (
                bad.conv_q, bad.period, want[-1])
        errors[got[-1][0]] += 1
    # at d = 61 every n >= 1 has its shift by m past the depth 8 < m = 11
    assert errors[DepthExceeded] and (errors[InvalidDigits] or cf.m > cf.depth)


def test_counter_stops_mid_block_where_a_capped_digit_above_the_split_trips():
    # d = 3 over depth 12 (J = 8, a_11 = 1) with q_9 moved to 208, and a_10 to 3
    # so that no n with digit 9 = 2 fails first: n = 779 = q_10 + q_8 + 55 has
    # digit 10 at its cap with remainder 208 = q_9, which the descent rejects at
    # position 10.  779 lies inside the block 724 .. 779 that digit J at its cap
    # (q_7 = 56) would give, so the block must end at 778 for the sweep to raise
    # where encode_nat does
    cf = ostro.cfrac.expand(3, 12)
    sc = ostro.cfrac.derive_shift_constants(cf)
    qs = list(cf.conv_q)
    qs[10] -= 1
    bad = cf.replace(conv_q=tuple(qs), period=(1, 3))
    assert ostro.ostrowski._split_position(bad, bad.depth - bad.m) == 8
    got = _outcomes(natural_dots_per_n(bad, sc, 779))
    want = _outcomes((x.digits, shiftcalc.natural_dots(x, sc))
                     for x in map(encode_nat, range(780), [bad] * 780))
    assert got == want
    assert len(got) == 780 and got[-1] == (
        InvalidDigits, f"digit constraint violated at position 10: {[0] * 10 + [1]}")


def test_counter_depth_boundary(cf_of, sc_of):
    # over depth 14, d = 3 (m = 2) counts up to q_13 - 1 = 2910; the next
    # n has its top digit at 13, which shifted by m passes the depth
    cf, sc = cf_of(3, 14), sc_of(3, 14)
    assert cf.q(13) == 2911
    last = list(natural_dots_per_n(cf, sc, 2910))[-1]
    assert last == (encode_nat(2910, cf).digits, shiftcalc.natural_dots(encode_nat(2910, cf), sc))
    counter = shiftcalc.natural_dots_upto(cf, sc, 2911)
    with pytest.raises(DepthExceeded) as ours:
        for _ in counter:
            pass
    with pytest.raises(DepthExceeded) as ref:
        shiftcalc.natural_dots(encode_nat(2911, cf), sc)
    assert str(ours.value) == str(ref.value) == "shifted index 15 exceeds depth 14"
    assert list(shiftcalc.natural_dots_upto(cf, sc, 0)) == [((), (0,) * 7)]


def test_counter_memory_stays_with_the_digits(cf_of, sc_of):
    # at d = 99991 over depth 1311 the counter may reach position 875; each
    # step builds a transient zero prefix no longer than the digits of
    # n <= 10^4 (a few hundred bytes), where prefixes kept up to position 875
    # would take about 3 MB
    cf = cf_of(99991).at_least(1311)
    sc = sc_of(99991)
    tracemalloc.start()
    try:
        collections.deque(shiftcalc.natural_dots_upto(cf, sc, 10**4), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_counter_yields_nothing_below_zero(cf_of, sc_of):
    # n = 0 .. n_max is empty; the single-level counter yielded n = 0 here
    cf, sc = cf_of(3), sc_of(3)
    for n_max in (-1, -5):
        assert list(shiftcalc.natural_dots_upto(cf, sc, n_max)) == []


def _counted(counter):
    """A counter's yields, and the message of the DepthExceeded that ended it, if any."""
    items = []
    try:
        for item in counter:
            items.append(item)
    except DepthExceeded as exc:
        return items, str(exc)
    return items, None


@pytest.mark.parametrize("d", [*ostro.harness.DEFAULT_D_LIST, *map(Fraction, (
    991, 9949, 99991, "1000003/7", 1000001, 10**12 + 1))], ids=str)
def test_two_level_counter_matches_the_single_level(d):
    # J is the first position >= 1 with q_J >= 64; d = 1000001 has q_1 = 2000,
    # so J = 1, and d = 10^12 + 1 has q_1 = 2*10^6 > 10^4, so its sweep is
    # streamed.  Each n_max at a block edge, or the audit's 10^4, inside the
    # depth bound of the audit's expansion
    cf = ostro.cfrac.expand(d, 64)
    cf = cf.at_least(3 * cf.m + 3)
    sc = ostro.cfrac.derive_shift_constants(cf)
    j = next(k for k in range(1, cf.depth - cf.m + 1) if cf.q(k) >= 64)
    q_j, cap, bound = cf.q(j), cf.a(j + 1), cf.q(cf.depth - cf.m + 1)
    for n_max in sorted({0, 1, q_j - 2, q_j - 1, q_j, q_j + 1, cf.q(j + 1), 10**4}):
        if n_max <= 10**4 and n_max < bound:
            ours = _counted(natural_dots_per_n(cf, sc, n_max))
            assert ours == _counted(natural_dots_single_level(cf, sc, n_max)), n_max
            assert len(ours[0]) == n_max + 1 and ours[1] is None, n_max
    # digit J at its cap restricts its block to the low strings with digit
    # J-1 zero, and first comes at n = a_{J+1} q_J (d = 3: J = 8, a_9 q_8 = 153)
    assert len(ours[0]) == 10**4 + 1
    capped = [digits for digits, _ in ours[0] if len(digits) > j and digits[j] == cap]
    assert bool(capped) == (cap * q_j <= 10**4)


def test_two_level_counter_stops_at_the_depth_as_the_single_level():
    # over shallow expansions the depth falls below J (no J: streamed) or
    # past the first block; both counters stop at the same n with the same
    # message
    for d in (2, 3, 7, 13, 991):
        sc = ostro.cfrac.derive_shift_constants(ostro.cfrac.expand(d, 64))
        for depth in range(1, 21):
            cf = ostro.cfrac.expand(d, depth)
            for n_max in (0, 1, 63, 64, 65, 100, 500, 3000):
                ours = _counted(natural_dots_per_n(cf, sc, n_max))
                assert ours == _counted(natural_dots_single_level(cf, sc, n_max)), (d, depth)


def test_counter_streams_a_block_past_the_sweep():
    # d = 10^12 + 1 has q_1 = 2*10^6: the first block covers n <= 10^4, and
    # listing it would take hundreds of megabytes
    cf = ostro.cfrac.expand(Fraction(10**12 + 1), 64)
    sc = ostro.cfrac.derive_shift_constants(cf)
    assert cf.q(1) == 2 * 10**6
    tracemalloc.start()
    try:
        last = collections.deque(shiftcalc.natural_dots_upto(cf, sc, 10**4), maxlen=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert last[0] == (encode_nat(10**4, cf).digits, shiftcalc.natural_dots(encode_nat(10**4, cf), sc))


# ---------------------------------------------------------------------------
# multiplication by sqrt(d)
# ---------------------------------------------------------------------------


def test_times_sqrt_frac_frozen(cf_of, sc_of):
    cf3 = cf_of(3)
    x = make_digits(cf3, (0, 1, 0, 1), KIND_REAL)
    assert times_sqrt_frac(x, sc_of(3)) == quad(15, -9, 3)

    cf2 = cf_of(2)
    y = make_digits(cf2, (0, 2), KIND_REAL)
    assert times_sqrt_frac(y, sc_of(2)) == quad(8, -6, 2)


def test_times_sqrt_nat_frozen(cf_of, sc_of):
    assert times_sqrt_nat(5, cf_of(3), sc_of(3)) == quad(0, 5, 3)
    assert times_sqrt_nat(0, cf_of(3), sc_of(3)) == quad(0, 0, 3)
    d = Fraction(32, 9)
    assert times_sqrt_nat(7, cf_of(d), sc_of(d)) == quad(0, 7, d)


def test_times_sqrt_exactness_sweep(cf_of, sc_of):
    for d in D_SMALL:
        cf, sc = cf_of(d), sc_of(d)
        root = cf.sqrt_d()
        for n in range(0, 200):
            x = encode_nat(n, cf)
            f = decode_real(x)
            y = make_digits(cf, x.digits, KIND_REAL)
            assert times_sqrt_frac(y, sc) == root * f
            assert times_sqrt_nat(n, cf, sc) == root * n


def test_times_sqrt_real_exact_when_representable(cf_of, sc_of):
    cf3, sc3 = cf_of(3), sc_of(3)
    x = quad(-8, 5, 3)  # 1 + f(5), nonnegative, encodes exactly
    want = quad(15, -8, 3)
    for eps in (Fraction(1, 10**3), Fraction(1, 10**9), Fraction(1, 10**15)):
        assert times_sqrt_real(x, eps, cf3, sc3) == want
    assert times_sqrt_real(Fraction(0), Fraction(1, 10**9), cf3, sc3) == quad(0, 0, 3)


def test_times_sqrt_real_certification(cf_of, sc_of):
    cf3, sc3 = cf_of(3), sc_of(3)
    eps = Fraction(1, 10**9)
    got = times_sqrt_real(Fraction(7, 5), eps, cf3, sc3)
    diff = got - quad(0, Fraction(7, 5), 3)
    mag = diff if diff.sign() >= 0 else -diff
    assert (mag - eps).sign() == -1


def test_times_sqrt_real_rejects_negative(cf_of, sc_of):
    cf3, sc3 = cf_of(3), sc_of(3)
    with pytest.raises(OutOfDomain):
        times_sqrt_real(Fraction(-1, 2), Fraction(1, 10**6), cf3, sc3)
    with pytest.raises(OutOfDomain):
        times_sqrt_real(quad(-9, 5, 3), Fraction(1, 10**6), cf3, sc3)


LONG_PERIOD = [Fraction(x) for x in (991, 9949, 99991, "1000003/7")]


def _mul_inputs(d):
    """x >= 0 over d: rationals with and without whole parts, 0 as an int and
    as a QuadRat, rationals tagged with another radicand, quadratic values
    and their whole-part shifts; then negative ones and inputs of other kinds."""
    other = Fraction(2) if d != 2 else Fraction(3)
    xs = [0, 5, Fraction(7, 5), Fraction(1, 10**12), Fraction(123456789, 9973),
          quad(0, 0, d), quad(Fraction(1000, 7), 0, d), quad(Fraction(7, 5), 0, other)]
    for a, b in ((-9, 5), (Fraction(1, 3), Fraction(2, 7)), (Fraction(-10**6, 3), 10**4)):
        y = abs(quad(a, b, d))
        xs += [y, y + 17]
    return xs + [Fraction(-1, 2), -abs(quad(-9, 5, d)), quad(1, 1, other), 1.5]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("d", [*ostro.harness.DEFAULT_D_LIST, *LONG_PERIOD], ids=str)
def test_times_sqrt_real_matches_the_quadrat_reference(cf_of, sc_of, d):
    # the integer sign, floor and certificate against the QuadRat body they
    # replaced: equal products, and equal errors for x < 0 (OutOfDomain), for
    # another radicand (MixedRadicand), for a float and for eps = 0
    cf, sc = cf_of(d, 300), sc_of(d, 300)
    epsilons = [Fraction(1, 10**k) for k in (3, 9, 20, 40, 60)] + [Fraction(3, 7 * 10**15), 0]
    for x in _mul_inputs(d):
        for eps in epsilons:
            got = _outcome(times_sqrt_real, x, eps, cf, sc)
            assert got == _outcome(times_sqrt_real_quadrat, x, eps, cf, sc), (x, eps)
            if isinstance(got, QuadRat):
                assert got.d == cf.d and got.scaled()[2] > 0


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("part", [0, 1], ids=["pa", "pb"])
def test_times_sqrt_real_certificate_catches_a_moved_product(monkeypatch, cf_of, sc_of, part,
                                                             delta):
    # sqrt_product's pa or pb moved by one moves the product by 1/e or sqrt(d)/e,
    # e = q_{m-1} den(pell_norm), above eps = 1e-9 on every default radicand;
    # either sign, so each of the certificate's two sign tests must hold
    real = shiftcalc.sqrt_product

    def moved(*args):
        residuals, triple = real(*args)
        return residuals, tuple(v + delta * (i == part) for i, v in enumerate(triple))

    monkeypatch.setattr(shiftcalc, "sqrt_product", moved)
    for d in ostro.harness.DEFAULT_D_LIST:
        cf, sc = cf_of(d), sc_of(d)
        for x in (0, Fraction(7, 5), Fraction(123456789, 9973), abs(quad(-9, 5, d)) + 3):
            with pytest.raises(VerificationFailed, match=r"^certified bound violated: \|"):
                times_sqrt_real(x, Fraction(1, 10**9), cf, sc)


def reference_times_sqrt_frac(x, sc):
    """times_sqrt_frac in QuadRat arithmetic: f / U is (-1)^m times the
    all-ones beta sum at shift m, combined with f as
    ((a^2 d - b^2) / a) (f / U) + (b / a) f."""
    cf = x.cf
    f = decode_real(x)
    y = weighted_beta_sum(embed(x), Weights.ones(cf.t), cf.m)
    fu = y if cf.m % 2 == 0 else -y
    a, b = sc.a_const, sc.b_const
    c1, c2 = (a * a * cf.d - b * b) / a, Fraction(b, a)  # its own Pell formula, not sc.pell_norm
    return quad(c1 * fu.a + c2 * f.a, c1 * fu.b + c2 * f.b, cf.d)


@with_mul_examples
@given(st.sampled_from([Fraction(x) for x in (2, 3, 7, 13, "3/2", "32/9", "13/4")]),
       st.one_of(st.integers(0, 10**6), st.sampled_from(MUL_INPUTS)),
       st.sampled_from([None, "ab"]),
       st.integers(0, 7),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
def test_times_sqrt_frac_matches_quadrat_reference(cf_of, sc_of, d, n, field, i, delta):
    # n is a natural over d, or a long real string as ostro mul builds it
    x = digit_string(cf_of, d, n).retag(KIND_REAL)
    sc = corrupt(sc_of(x.cf.d), field, i, delta)
    assume(sc.a_const != 0)
    assert times_sqrt_frac(x, sc) == reference_times_sqrt_frac(x, sc)


def test_times_sqrt_frac_overrun_message(cf_of, sc_of):
    # the top digit of q_64 - 1 over d = 3 sits at 63; shifting by m = 2
    # overruns, and check_recover_nat has the same depth need
    cf, sc = cf_of(3), sc_of(3)
    x = encode_nat(cf.q(cf.depth) - 1, cf)
    with pytest.raises(DepthExceeded) as ref:
        reference_times_sqrt_frac(x.retag(KIND_REAL), sc)
    for check, y in ((times_sqrt_frac, x.retag(KIND_REAL)), (check_recover_nat, x)):
        with pytest.raises(DepthExceeded) as ours:
            check(y, sc)
        assert str(ours.value) == str(ref.value) == f"shifted index {len(x.digits) + 1} exceeds depth 64"


def reference_real_depth(cf, eps):
    """The digit count times_sqrt_real needs, from QuadRat absolute values:
    the first k with (|beta_{k-1}| + |beta_k|) sqrt(d) < eps, or None."""
    for k in range(1, cf.depth + 1):
        tail = abs(cf.beta(k - 1)) + abs(cf.beta(k))
        if (tail * cf.sqrt_d() - eps).sign() < 0:
            return k
    return None


def tail_edges(cf, k):
    """Rationals just below and just above (|beta_{k-1}| + |beta_k|) sqrt(d)."""
    tail = (abs(cf.beta(k - 1)) + abs(cf.beta(k))) * cf.sqrt_d()
    scale = 10**6 * cf.q(k) ** 2
    below = Fraction((tail * scale).floor(), scale)
    return below, below + Fraction(1, scale)


def test_times_sqrt_real_depth_matches_quadrat_reference(cf_of, sc_of, monkeypatch):
    used = []

    def spy(c, cf, depth):
        used.append(depth)
        return encode_real(c, cf, depth)

    monkeypatch.setattr(shiftcalc, "encode_real", spy)
    epsilons = [Fraction(10**6), Fraction(2), Fraction(1, 7), Fraction(1, 10**9),
                Fraction(1, 10**40), Fraction(3, 10**120)]
    for d, depth in ((3, 64), (Fraction(13, 4), 64), (991, 130), (Fraction(1000003, 7), 440)):
        cf, sc = cf_of(d, depth), sc_of(d, depth)
        # every boundary of the depth search (1000003/7 aside): just above the
        # tail at k it takes k positions, just below it k + 1, and just below
        # the tail at cf.depth more than the expansion holds
        edges = []
        for k in [*range(1, 41), cf.depth] if depth < 440 else []:
            below, above = tail_edges(cf, k)
            assert reference_real_depth(cf, above) == k
            assert reference_real_depth(cf, below) == (k + 1 if k < cf.depth else None)
            edges += [below, above]
        for eps in epsilons + edges:
            want = reference_real_depth(cf, eps)
            used.clear()
            if want is None:
                with pytest.raises(DepthExceeded, match="digit positions"):
                    times_sqrt_real(Fraction(7, 5), eps, cf, sc)
                continue
            # digits that overrun once shifted by m are read from a
            # deeper expansion, not rejected
            times_sqrt_real(Fraction(7, 5), eps, cf, sc)
            assert used == [want], (d, eps)


# ---------------------------------------------------------------------------
# windows and probes
# ---------------------------------------------------------------------------


def test_digit_window_frozen(cf_of):
    cf3 = cf_of(3)
    assert digit_window(cf3, 0) == (quad(3, -2, 3), quad(2, -1, 3))
    # even l: the printed and corrected pairs coincide
    assert digit_window(cf3, 0, printed=True) == digit_window(cf3, 0)

    cf2 = cf_of(2)
    assert digit_window(cf2, 1) == (quad(7, -5, 2), quad(10, -7, 2))
    g1, g2 = digit_window(cf2, 1, printed=True)
    assert (g1, g2) == (quad(3, -2, 2), quad(10, -7, 2))
    assert (g2 - g1).sign() == -1  # printed odd pair is misordered


def test_digit_window_ordering(cf_of):
    for d in D_SMALL:
        cf = cf_of(d)
        for l in range(0, 10):
            g1, g2 = digit_window(cf, l)
            assert (g2 - g1).sign() > 0


def test_prefix_window_matches_tail_window(cf_of):
    for d in (2, 3):
        cf = cf_of(d)
        for l in range(0, 8):
            for zero in (True, False):
                assert prefix_window(cf, l, last_digit_zero=zero) == tail_window(
                    cf, l + 1, blocked=not zero
                )


def test_prefix_nat_frozen(cf_of):
    cf3 = cf_of(3)
    assert prefix_nat(cf3, 3, quad(-9, 5, 3)) == 5
    assert prefix_nat(cf3, 5, quad(0, 0, 3)) == 0
    with pytest.raises(OutOfInterval):
        prefix_nat(cf3, 3, quad(1, 0, 3))


def test_prefix_nat_is_truncated_decode(cf_of):
    import random

    for d in (2, 3):
        cf = cf_of(d)
        lo, _ = tail_window(cf, 0, blocked=True)
        rng = random.Random(814)
        for _ in range(25):
            c = lo + Fraction(rng.getrandbits(40), 2**40)
            enc = encode_real(c, cf, 10)
            for l in range(0, 6):
                head = enc.digits[: l + 1]
                want = sum(b * cf.q(k) for k, b in enumerate(head))
                assert prefix_nat(cf, l, c) == want


def test_window_digit_frozen(cf_of):
    cf3 = cf_of(3)
    assert window_digit(cf3, 1, quad(-9, 5, 3)) == 1
    assert window_digit(cf3, 4, quad(0, 0, 3)) == 0


@pytest.mark.parametrize("l", [-1, -2, -3])
def test_digit_at_a_negative_position_is_a_value_error(cf_of, l):
    cf3 = cf_of(3)
    with pytest.raises(ValueError, match=f"position must be nonnegative, got {l}"):
        shiftcalc.prefix_digit(cf3, l, 0)
    # at l = -1 the empty prefix reaches prefix_digit; below it prefix_nat refuses l
    with pytest.raises(ValueError, match=f"position must be (nonnegative|at least -1), got {l}$"):
        window_digit(cf3, l, quad(-9, 5, 3))
    assert prefix_nat(cf3, -1, quad(-9, 5, 3)) == 0  # the one natural below q_0 = 1


def test_window_digit_matches_encoder(cf_of):
    import random

    for d in (2, Fraction(3, 2)):
        cf = cf_of(d)
        lo, _ = tail_window(cf, 0, blocked=True)
        rng = random.Random(515)
        for _ in range(20):
            c = lo + Fraction(rng.getrandbits(40), 2**40)
            enc = encode_real(c, cf, 9)
            for l in range(0, 8):
                b = enc.digits[l] if l < len(enc.digits) else 0
                assert window_digit(cf, l, c) == b


def test_residue_class_probe_frozen(cf_of):
    got = residue_class_probe(cf_of(3), 1, 2, 7)
    assert got == (False, True, False, True, False, True, False, True)

    got = residue_class_probe(cf_of(2), 2, 3, 11)
    assert got == tuple(l % 3 == 2 for l in range(12))

    # complementary residue over d = 2 (a_1 = 2 admits a digit at 0)
    got = residue_class_probe(cf_of(2), 0, 2, 7)
    assert got == tuple(l % 2 == 0 for l in range(8))

    # over d = 3 the witness digit at position 0 would need b_1 = 1 = a_1
    with pytest.raises(WitnessUnavailable):
        residue_class_probe(cf_of(3), 0, 2, 7)


def test_unary_layers_frozen(cf_of):
    cf3 = cf_of(3)
    x = gen_digits(cf3, {1: 1, 3: 1})
    ul = unary_layers(x)
    assert ul.t == 2 and ul.s_max == 2
    assert ul.supports[(1, 1)] == (1, 3)
    assert all(not sup for key, sup in ul.supports.items() if key != (1, 1))
    assert ul.recompose() == x

    empty = unary_layers(gen_digits(cf3, {}))
    assert all(not sup for sup in empty.supports.values())


@given(st.sampled_from(D_SMALL), st.randoms(use_true_random=False))
def test_unary_layers_roundtrip_and_monotone(cf_of, d, rng):
    cf = cf_of(d)
    x = rand_gen_digits(cf, rng, span=14, use=5)
    ul = unary_layers(x)
    assert ul.recompose() == x
    for i in range(ul.t):
        for s in range(1, ul.s_max):
            assert set(ul.supports[(i, s + 1)]) <= set(ul.supports[(i, s)])


def test_residue_class_probe_refuses_a_modulus_below_two():
    with pytest.raises(ValueError, match=r"^modulus must be at least 2, got 1$"):
        residue_class_probe(ostro.cfrac.expand(3, 10), 0, 1, 4)
