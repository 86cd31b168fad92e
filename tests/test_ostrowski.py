"""Numeration layer: greedy encoding against an independent oracle,
exhaustive uniqueness, interval membership, window structure, and the
digit-wise real encoder with its certified truncation bound."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostro import (
    InvalidDigits,
    OutOfInterval,
    decode_nat,
    decode_real,
    encode_nat,
    encode_real,
    enumerate_valid,
    in_interval,
    interval_bounds,
    make_digits,
    mult_nat_by_sqrt,
    parse_digit_text,
    quad,
    tail_window,
    validate,
)
from ostro import ostrowski
from ostro.ostrowski import KIND_REAL, OstDigits


def greedy_oracle(n, cf):
    """Largest-q_k-first subtraction, written independently of the package."""
    qs = [cf.q(k) for k in range(cf.depth + 1)]
    out = [0] * cf.depth
    rem = n
    for k in range(cf.depth - 1, -1, -1):
        out[k], rem = divmod(rem, qs[k]) if qs[k] <= rem else (0, rem)
    assert rem == 0
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def abs_q(x):
    return x if x.sign() >= 0 else -x


# ---------------------------------------------------------------------------
# natural numbers
# ---------------------------------------------------------------------------


def test_frozen_encodings(cf_of):
    cf3, cf2 = cf_of(3), cf_of(2)
    assert encode_nat(0, cf3).digits == ()
    assert encode_nat(5, cf3).digits == (0, 1, 0, 1)
    assert [cf3.q(k) for k in range(4)] == [1, 1, 3, 4]  # 5 = q_1 + q_3
    assert encode_nat(4, cf2).digits == (0, 2)
    assert [cf2.q(k) for k in range(4)] == [1, 2, 5, 12]  # 4 = 2*q_1
    assert decode_nat(encode_nat(5, cf3)) == 5
    assert decode_nat(make_digits(cf2, (0, 2))) == 4


def test_greedy_matches_independent_oracle(cf_of):
    for d in (2, 3, Fraction(3, 2)):
        cf = cf_of(d)
        for n in range(0, 2000):
            assert encode_nat(n, cf).digits == greedy_oracle(n, cf)


@given(st.sampled_from([Fraction(x) for x in (2, 3, 5, 61, "32/9")]),
       st.integers(min_value=0, max_value=10**6))
def test_roundtrip(cf_of, d, n):
    cf = cf_of(d)
    assert decode_nat(encode_nat(n, cf)) == n


def test_validate_frozen(cf_of):
    cf3, cf2 = cf_of(3), cf_of(2)
    assert validate(make_digits(cf3, ()))[0]
    assert validate(make_digits(cf3, (0, 1, 0, 1)))[0]
    # b_1 < a_1 = 1 rules out a leading 1 over d = 3
    with pytest.raises(InvalidDigits):
        make_digits(cf3, (1,))
    # maximal digit forces the lower neighbor to zero
    assert validate(make_digits(cf2, (0, 2)))[0]
    with pytest.raises(InvalidDigits):
        make_digits(cf2, (1, 2))


def test_direct_construction_validates(cf_of):
    cf3, cf2 = cf_of(3), cf_of(2)
    with pytest.raises(InvalidDigits, match=r"position 0: \[1\]"):
        OstDigits(cf3, (1,), KIND_REAL)
    with pytest.raises(InvalidDigits, match=r"position 1: \[1, 2\]"):
        OstDigits(cf2, (1, 2), KIND_REAL)
    # trailing zeros are kept by the bare constructor, dropped by make_digits
    assert OstDigits(cf2, (0, 2, 0), KIND_REAL).digits == (0, 2, 0)
    assert make_digits(cf2, (0, 2, 0)).digits == (0, 2)


def test_retag_skips_validation(cf_of, monkeypatch):
    x = encode_nat(5, cf_of(3))
    calls = []
    real_validate = ostrowski.validate
    monkeypatch.setattr(ostrowski, "validate", lambda y: calls.append(y) or real_validate(y))
    y = x.retag(KIND_REAL)
    _, frac = mult_nat_by_sqrt(x)
    assert calls == []
    for z in (y, frac):
        assert z.cf is x.cf and z.digits == x.digits and z.kind == KIND_REAL
    with pytest.raises(InvalidDigits):
        OstDigits(x.cf, (1,), KIND_REAL)
    assert len(calls) == 1


def test_exhaustive_uniqueness(cf_of):
    for d in (2, 3, 5, Fraction(3, 2)):
        cf = cf_of(d)
        length = next(l for l in range(1, cf.depth) if cf.q(l) > 500)
        seen = sorted(
            decode_nat(make_digits(cf, w)) for w in enumerate_valid(cf, length)
        )
        assert seen == list(range(cf.q(length)))


# ---------------------------------------------------------------------------
# the interval map f
# ---------------------------------------------------------------------------


def test_frozen_interval_values(cf_of):
    cf3, cf2 = cf_of(3), cf_of(2)
    lo, hi = interval_bounds(cf3)
    assert lo == quad(1, -1, 3) and hi == quad(2, -1, 3)

    f5 = decode_real(encode_nat(5, cf3))
    assert f5 == quad(-9, 5, 3)  # beta_1 + beta_3
    assert in_interval(cf3, f5)

    f4 = decode_real(make_digits(cf2, (0, 2), KIND_REAL))
    assert f4 == quad(-6, 4, 2)  # 2 * beta_1
    assert decode_real(make_digits(cf3, ())) == quad(0, 0, 3)


def test_interval_membership_sweep(cf_of):
    for d in (2, 3, 5, Fraction(13, 4)):
        cf = cf_of(d)
        for n in range(0, 500):
            assert in_interval(cf, decode_real(encode_nat(n, cf)))


def test_split_is_exact(cf_of):
    cf3, cf2 = cf_of(3), cf_of(2)
    p, frac = mult_nat_by_sqrt(encode_nat(5, cf3))
    assert p == 9 and frac.digits == (0, 1, 0, 1) and frac.kind == KIND_REAL
    assert p + decode_real(frac) == 5 * cf3.sqrt_d()

    p, frac = mult_nat_by_sqrt(encode_nat(4, cf2))
    assert p == 6
    assert p + decode_real(frac) == 4 * cf2.sqrt_d()

    p, frac = mult_nat_by_sqrt(encode_nat(0, cf3))
    assert p == 0 and frac.digits == ()


@given(st.sampled_from([Fraction(x) for x in (2, 3, 7, "3/2")]),
       st.integers(min_value=0, max_value=10**5))
def test_split_identity_property(cf_of, d, n):
    cf = cf_of(d)
    p, frac = mult_nat_by_sqrt(encode_nat(n, cf))
    assert p + decode_real(frac) == n * cf.sqrt_d()


# ---------------------------------------------------------------------------
# tail windows
# ---------------------------------------------------------------------------


def test_window_at_zero_is_interval(cf_of):
    for d in (2, 3, 5):
        cf = cf_of(d)
        assert tail_window(cf, 0, blocked=True) == interval_bounds(cf)


def test_windows_tile_their_parent(cf_of):
    # the candidate windows at position n+1, translated by multiples of
    # beta_n, must partition the parent window end to end
    for d in (2, 3, Fraction(3, 2)):
        cf = cf_of(d)
        for n in range(0, 7):
            for blocked in (True, False):
                plo, phi = tail_window(cf, n, blocked)
                cap = cf.a(n + 1) - (1 if blocked else 0)
                edge = plo if n % 2 == 0 else phi
                for b in range(cap + 1):
                    wlo, whi = tail_window(cf, n + 1, blocked=b != 0)
                    shift_v = b * cf.beta(n)
                    if n % 2 == 0:  # children stack upward from the low edge
                        assert wlo + shift_v == edge
                        edge = whi + shift_v
                    else:  # and downward from the high edge
                        assert whi + shift_v == edge
                        edge = wlo + shift_v
                assert edge == (phi if n % 2 == 0 else plo)


def test_truncation_bound_against_maximal_tails(cf_of):
    # brute-force the largest attainable |tail| after K digits and check
    # it never exceeds |beta_{K-1}| + |beta_K|
    def completions(cf, start, length, blocked):
        if length == 0:
            yield ()
            return
        cap = cf.a(start + 1)
        for b in range(0, cap + 1):
            if b == cap and blocked:
                continue
            for rest in completions(cf, start + 1, length - 1, b != 0):
                yield (b,) + rest

    for d in (2, 3):
        cf = cf_of(d)
        for K in range(1, 11):
            bound = abs_q(cf.beta(K - 1)) + abs_q(cf.beta(K))
            for blocked in (True, False):
                best = None
                for tail in completions(cf, K, 6, blocked):
                    val = quad(0, 0, cf.d)
                    for j, b in enumerate(tail):
                        val = val + b * cf.beta(K + j)
                    mag = abs_q(val)
                    if best is None or (mag - best).sign() > 0:
                        best = mag
                assert (bound - best).sign() > 0


# ---------------------------------------------------------------------------
# real encoding
# ---------------------------------------------------------------------------


def test_encode_real_frozen_and_brute_forced(cf_of):
    cf3 = cf_of(3)
    c = quad(-9, 5, 3)
    got = encode_real(c, cf3, 4)
    assert got.digits == (0, 1, 0, 1)

    # independent check: of all valid 4-digit strings, (0,1,0,1) is the
    # unique minimizer of |c - partial sum|
    def dist(w):
        return float(abs_q(c - decode_real(make_digits(cf3, w, KIND_REAL))).approx(30))

    ranked = sorted(enumerate_valid(cf3, 4), key=dist)
    assert ranked[0] == (0, 1, 0, 1)
    assert decode_real(make_digits(cf3, ranked[0], KIND_REAL)) == c


def test_encode_real_zero_and_errors(cf_of):
    cf3 = cf_of(3)
    assert encode_real(quad(0, 0, 3), cf3, 10).digits == ()
    with pytest.raises(OutOfInterval):
        encode_real(quad(1, 0, 3), cf3, 8)
    with pytest.raises(OutOfInterval):
        encode_real(quad(0, 1, 2), cf3, 8)  # wrong field entirely


def test_encode_real_truncation_residual(cf_of):
    cf2 = cf_of(2)
    c = quad(Fraction(-3, 2), 1, 2)
    for K in range(1, 12):
        enc = encode_real(c, cf2, K)
        residual = abs_q(c - decode_real(enc))
        bound = abs_q(cf2.beta(K - 1)) + abs_q(cf2.beta(K))
        assert (bound - residual).sign() >= 0


def test_encode_real_agrees_with_nat_digits(cf_of):
    # f(n) is exactly representable, so the real encoder must reproduce
    # the natural encoding digit for digit
    for d in (2, 3, Fraction(3, 2)):
        cf = cf_of(d)
        for n in range(0, 300):
            x = encode_nat(n, cf)
            c = decode_real(x)
            assert encode_real(c, cf, max(len(x.digits), 1)).digits == x.digits


@given(st.sampled_from([Fraction(x) for x in (2, 3, 7, 61, "3/2", "32/9")]),
       st.integers(0, 2**30), st.integers(0, 50), st.integers(1, 24))
def test_encode_real_residual_in_tail_window(cf_of, d, num, irr, depth):
    # the integer encoder, checked in QuadRat arithmetic: c minus the
    # value of its first `depth` digits lies in the tail window there
    cf = cf_of(d)
    x = quad(Fraction(num, 2**20), Fraction(irr, 7), d)
    c = x - (x + cf.sqrt_d() - cf.a0).floor()
    lo, hi = interval_bounds(cf)
    assert lo <= c < hi
    enc = encode_real(c, cf, depth)
    last = enc.digits[depth - 1] if depth <= len(enc.digits) else 0
    wlo, whi = tail_window(cf, depth, blocked=last != 0)
    assert wlo <= c - decode_real(enc) < whi


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def test_digit_text_round_trip(cf_of):
    cf3 = cf_of(3)
    x = encode_nat(5, cf3)
    assert str(x) == "0,1,0,1@d=3"
    digits, d = parse_digit_text("0,1,0,1@d=3")
    assert digits == [0, 1, 0, 1] and d == 3
    digits, d = parse_digit_text("0,1,0,1")
    assert digits == [0, 1, 0, 1] and d is None
    assert parse_digit_text("") == ([], None)
    assert parse_digit_text("  @d=5/3 ") == ([], Fraction(5, 3))
    with pytest.raises(ValueError):
        parse_digit_text("0,x,1@d=3")
