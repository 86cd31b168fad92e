"""Digit-shift machinery: evaluation functionals against a literal
double-sum oracle, the two recovery identities, representation-level
multiplication by sqrt(d), and the window/probe layer."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ostro import (
    DepthExceeded,
    OutOfDomain,
    OutOfInterval,
    Weights,
    WitnessUnavailable,
    check_recover_frac,
    check_recover_nat,
    digit_window,
    embed,
    encode_nat,
    encode_real,
    gen_digits,
    make_digits,
    prefix_nat,
    prefix_window,
    quad,
    residue_class_probe,
    shift,
    tail_window,
    times_sqrt_frac,
    times_sqrt_nat,
    times_sqrt_real,
    unary_layers,
    weighted_beta_sum,
    weighted_q_sum,
    window_digit,
)
from ostro import shiftcalc
from ostro.ostrowski import KIND_REAL, beta_parts, decode_nat, decode_real

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
def test_beta_parts_matches_weighted_beta_sum(cf_of, d, n, real):
    cf = cf_of(d)
    x = encode_nat(n, cf)
    if real:  # the kind does not enter the evaluation
        x = x.retag(KIND_REAL)
    for l in (0, 1, cf.m):
        assert beta_parts(x, l) == reference_beta_parts(x, l), (d, n, l)
    assert beta_parts(x) == beta_parts(x, 0)
    assert decode_nat(x) == beta_parts(x)[1] == n


def test_beta_parts_overrun_message(cf_of):
    # q_64 - 1 over a depth-64 expansion has its top digit at 63; reread
    # over a depth-8 expansion the same digits sit past the depth
    for d in (3, Fraction(13, 4), 7):
        cf, shallow = cf_of(d), cf_of(d, 8)
        x = encode_nat(cf.q(cf.depth) - 1, cf)
        top = len(x.digits) - 1
        assert top == cf.depth - 1
        for l in (0, 1, cf.m):
            if top + l <= cf.depth:
                assert beta_parts(x, l) == reference_beta_parts(x, l)
                continue
            with pytest.raises(DepthExceeded) as ours:
                beta_parts(x, l)
            with pytest.raises(DepthExceeded) as ref:
                reference_beta_parts(x, l)
            assert str(ours.value) == str(ref.value) == f"shifted index {top + l} exceeds depth 64"
        deep = make_digits(shallow, x.digits)
        with pytest.raises(DepthExceeded, match=f"^digit index {top} exceeds depth 8$"):
            beta_parts(deep)
        for l in (1, cf.m):
            with pytest.raises(DepthExceeded) as ours:
                beta_parts(deep, l)
            with pytest.raises(DepthExceeded) as ref:
                reference_beta_parts(deep, l)
            assert str(ours.value) == str(ref.value) == f"shifted index {top + l} exceeds depth 8"


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
    sums: ((printed, corrected, lhs, rhs) frac, (printed, corrected, rhs) nat)."""
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
    return frac, nat


def corrupt(sc, field, i, delta):
    """sc with one entry of v or w, the integers a_const and b_const (and
    the unit built from them), or the unit alone moved by delta."""
    if field in ("v", "w"):
        vals = list(getattr(sc, field))
        vals[i % sc.t] += delta
        return replace(sc, **{field: tuple(vals)})
    if field == "ab":
        a, b = sc.a_const + delta.numerator, sc.b_const + i
        return replace(sc, a_const=a, b_const=b, unit=quad(b, a, sc.d))
    if field == "unit":
        return replace(sc, unit=sc.unit + delta)
    return sc


@given(st.sampled_from([Fraction(x) for x in (2, 3, 7, 13, "3/2", "32/9", "13/4")]),
       st.integers(0, 10**6),
       st.sampled_from([None, "v", "w", "ab", "unit"]),
       st.integers(0, 7),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
def test_integer_recoveries_match_quadrat_reference(cf_of, sc_of, d, n, field, i, delta):
    cf = cf_of(d)
    sc = corrupt(sc_of(d), field, i, delta)
    x = encode_nat(n, cf)
    (fp, fc, flhs, frhs), (np_, nc, nrhs) = reference_recoveries(x, sc)
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


def reference_times_sqrt_frac(x, sc):
    """times_sqrt_frac in QuadRat arithmetic: f / U is (-1)^m times the
    all-ones beta sum at shift m, combined with f as
    ((a^2 d - b^2) / a) (f / U) + (b / a) f."""
    cf = x.cf
    f = decode_real(x)
    y = weighted_beta_sum(embed(x), Weights.ones(cf.t), cf.m)
    fu = y if cf.m % 2 == 0 else -y
    c1, c2 = sc.pell_norm / sc.a_const, Fraction(sc.b_const, sc.a_const)
    return quad(c1 * fu.a + c2 * f.a, c1 * fu.b + c2 * f.b, cf.d)


@given(st.sampled_from([Fraction(x) for x in (2, 3, 7, 13, "3/2", "32/9", "13/4")]),
       st.integers(0, 10**6),
       st.sampled_from([None, "pell", "ab"]),
       st.integers(0, 7),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
def test_times_sqrt_frac_matches_quadrat_reference(cf_of, sc_of, d, n, field, i, delta):
    cf, sc = cf_of(d), sc_of(d)
    if field == "pell":
        sc = replace(sc, pell_norm=sc.pell_norm + delta)
    else:
        sc = corrupt(sc, field, i, delta)
    assume(sc.a_const != 0)
    x = encode_nat(n, cf).retag(KIND_REAL)
    assert times_sqrt_frac(x, sc) == reference_times_sqrt_frac(x, sc)


def test_times_sqrt_frac_overrun_message(cf_of, sc_of):
    # the top digit of q_64 - 1 over d = 3 sits at 63; shifting by m = 2 overruns
    cf, sc = cf_of(3), sc_of(3)
    x = encode_nat(cf.q(cf.depth) - 1, cf).retag(KIND_REAL)
    with pytest.raises(DepthExceeded) as ours:
        times_sqrt_frac(x, sc)
    with pytest.raises(DepthExceeded) as ref:
        reference_times_sqrt_frac(x, sc)
    assert str(ours.value) == str(ref.value) == f"shifted index {len(x.digits) + 1} exceeds depth 64"


def reference_real_depth(cf, eps):
    """The digit count times_sqrt_real needs, from QuadRat absolute values:
    the first k with (|beta_{k-1}| + |beta_k|) sqrt(d) < eps, or None."""
    for k in range(1, cf.depth + 1):
        tail = abs(cf.beta(k - 1)) + abs(cf.beta(k))
        if (tail * cf.sqrt_d() - eps).sign() < 0:
            return k
    return None


def test_times_sqrt_real_depth_matches_quadrat_reference(cf_of, sc_of, monkeypatch):
    used = []

    def spy(c, cf, depth):
        used.append(depth)
        return encode_real(c, cf, depth)

    monkeypatch.setattr(shiftcalc, "encode_real", spy)
    epsilons = [Fraction(2), Fraction(1, 7), Fraction(1, 10**9), Fraction(1, 10**40),
                Fraction(3, 10**120)]
    for d, depth in ((3, 64), (Fraction(13, 4), 64), (991, 130), (Fraction(1000003, 7), 440)):
        cf, sc = cf_of(d, depth), sc_of(d, depth)
        for eps in epsilons:
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
