"""Numeration layer: greedy encoding against an independent oracle,
exhaustive uniqueness, interval membership, window structure, and the
digit-wise real encoder with its certified truncation bound."""

import pickle
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostro import (
    DepthExceeded,
    InvalidDigits,
    OstroError,
    OutOfInterval,
    VerificationFailed,
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
from ostro import cfrac, ostrowski, shiftcalc
from ostro.harness import DEFAULT_D_LIST, SuiteConfig
from ostro.ostrowski import KIND_REAL, OstDigits
from ostro.qfield import sign_sqrt

from digit_maps import encode_real_reference, validate_reference
from shiftcalc_reference import natural_dots_per_n
from ostrowski_reference import encode_nat_full_scan, enumerate_valid_recursive


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


@given(st.sampled_from([Fraction(x) for x in (2, 3, 7, 13, 61, "3/2", "13/4")]),
       st.integers(0, 10**12),
       st.lists(st.tuples(st.integers(0, 40), st.integers(-1, 15)), max_size=3))
def test_validate_matches_reference_rule(cf_of, d, n, edits):
    # the digits of n are valid; each edit sets one position, so most
    # edited strings break a bound or the zero-below-a-maximal-digit rule
    cf = cf_of(d)
    digits = list(encode_nat(n, cf).digits)
    for pos, val in edits:
        digits += [0] * (pos + 1 - len(digits))
        digits[pos] = val
    x = SimpleNamespace(cf=cf, digits=tuple(digits))  # validate reads only these
    assert validate(x) == validate_reference(cf, x.digits)


def test_direct_construction_validates(cf_of):
    cf3, cf2 = cf_of(3), cf_of(2)
    with pytest.raises(InvalidDigits, match=r"position 0: \[1\]"):
        OstDigits(cf3, (1,), KIND_REAL)
    with pytest.raises(InvalidDigits, match=r"position 1: \[1, 2\]"):
        OstDigits(cf2, (1, 2), KIND_REAL)
    # the constructor drops trailing zeros, so one value has one string
    x, y = OstDigits(cf2, (0, 2, 0), KIND_REAL), make_digits(cf2, [0, 2], KIND_REAL)
    assert x.digits == y.digits == (0, 2)
    assert x == y and hash(x) == hash(y)
    assert pickle.loads(pickle.dumps(x)) == x  # rebuilt through the checking constructor
    assert OstDigits(cf2, iter([0, 0]), KIND_REAL).digits == ()


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


def test_encode_nat_checks_its_digits_without_validate(cf_of, monkeypatch):
    cf = cf_of(3)
    calls = Counter()
    for name in ("validate", "make_digits"):
        real = getattr(ostrowski, name)
        monkeypatch.setattr(ostrowski, name,
                            lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a))
    assert all(decode_nat(encode_nat(n, cf)) == n for n in range(2001))
    assert calls == Counter()
    ostrowski.make_digits(cf, (0, 1))  # the spies do see the public path
    assert calls == Counter(validate=1, make_digits=1)


def test_encode_nat_rejects_a_corrupted_table(cf_of):
    cf2 = cf_of(2)  # a_k = 2 for k >= 1; q = 1, 2, 5, 12, ...
    # a period of (1,) caps digit 1 at 1, and greedy 4 = 2*q_1 puts 2 there
    with pytest.raises(InvalidDigits, match=r"^digit constraint violated at position 1: \[0, 2\]$"):
        encode_nat(4, cf2.replace(period=(1,)))
    # with q_2 = 6, greedy 5 = 2*q_1 + 1*q_0: digit 1 at its cap leaves rem 1 >= q_0;
    # the digits below the named position are not yet found and read 0
    qs = cf2.conv_q  # qs[i] = q_{i-1}
    bad_q = cf2.replace(conv_q=qs[:3] + (6,) + qs[4:])
    with pytest.raises(InvalidDigits, match=r"^digit constraint violated at position 1: \[0, 2\]$"):
        encode_nat(5, bad_q)
    # 28 = 2*q_3 + 2*q_1 breaks that cap twice: the loop runs down and names
    # the highest position, where validate names the lowest
    capped = cf2.replace(period=(1,))
    with pytest.raises(InvalidDigits, match=r"position 3: \[0, 0, 0, 2\]$"):
        encode_nat(28, capped)
    assert validate(SimpleNamespace(cf=capped, digits=(0, 2, 0, 2))) == (False, 1)
    assert encode_nat(4, cf2).digits == (0, 2)


def test_encode_nat_equals_the_validated_constructor(cf_of):
    # encode_nat sets OstDigits' slots itself, past the constructor's checks
    for d in (2, 3, 7, Fraction(13, 4), 61, 99991):
        cf = cf_of(d)
        for n in range(10**4 + 1):
            x = encode_nat(n, cf)
            y = make_digits(cf, x.digits)
            assert x == y and hash(x) == hash(y) and x.kind == y.kind, (d, n)
    x = encode_nat(5, cf)
    assert x != x.retag(KIND_REAL) and x != (x.cf, x.digits, x.kind)


ALL_D = DEFAULT_D_LIST + (Fraction(991), Fraction(9949), Fraction(99991), Fraction(1000003, 7))


@pytest.mark.parametrize("d", ALL_D, ids=str)
def test_encode_nat_matches_the_full_scan(cf_of, d):
    # q_20 reaches 6e15 (d = 10), so below it: every n < 5000, each q_k and
    # its neighbours, and seeded n spread over [0, q_20)
    cf = cf_of(d)
    top, rng = cf.q(20), random.Random(f"encode_nat:{d}")
    ns = [*range(5000), *(cf.q(k) + j for k in range(20) for j in (-1, 0, 1)),
          *(rng.randrange(top) for _ in range(500))]
    for n in ns:
        x = encode_nat(n, cf)
        assert x.digits == encode_nat_full_scan(n, cf) and (not x.digits or x.digits[-1]), (d, n)


def _nat_outcome(encode, n, cf):
    """(None, the digits an encoder returns), or (the type, the message) of its error."""
    try:
        x = encode(n, cf)
    except (OstroError, ValueError) as exc:
        return type(exc), str(exc)
    return None, getattr(x, "digits", x)


@pytest.mark.parametrize("d", (2, 3, 7, Fraction(13, 4), 61), ids=str)
def test_encode_nat_errors_match_the_full_scan_on_corrupted_tables(cf_of, d):
    # every entry of conv_q and of the period moved by one, as replace builds
    # them; a q entry moved to 0 is left out, since the full scan divides by
    # it below the last nonzero digit, where the early stop never looks
    deep = cf_of(d)
    cf = cf_of(d, next(k for k in range(64) if deep.q(k) > 500))
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
    errors = Counter()
    for bad in tables:
        for n in range(-1, cf.q(cf.depth) + 2):
            got = _nat_outcome(encode_nat, n, bad)
            assert got == _nat_outcome(encode_nat_full_scan, n, bad), (bad.conv_q, bad.period, n)
            errors[got[0]] += 1
    assert errors[InvalidDigits] and errors[DepthExceeded] and errors[ValueError]


@pytest.mark.parametrize("d", ALL_D, ids=str)
def test_encode_nat_upto_matches_per_n_encoding(d):
    # the greedy sweep over n that encode_nat_upto was, now the digits of
    # shiftcalc.natural_dots_upto: its descent down to J = _split_position(cf,
    # depth - m), with the digits below J and their dots read from the first
    # q_J n, against encode_nat and natural_dots per n, over depths 64 and 3m+3
    # at each end of the split and at 20000 or the last n below the depth
    # bound q_{depth-m+1}. The digits and dots of n do not depend on the depth
    # once its shift by m is inside it, so one per-n list over the audit's
    # expansion serves both depths
    audit = cfrac.expand(d, 64)
    audit = audit.at_least(3 * audit.m + 3)
    sc = cfrac.derive_shift_constants(audit)
    cases = []
    for depth in (64, 3 * audit.m + 3):
        cf = cfrac.expand(d, depth)
        bound = cf.q(max(cf.depth - cf.m + 1, 0))
        j = ostrowski._split_position(cf, cf.depth - cf.m)
        q_j = bound if j is None else cf.q(j)
        cases += [(cf, n_max) for n_max in (0, q_j - 1, q_j, q_j + 1, min(20000, bound - 1))
                  if n_max < bound]
    top = max(n_max for _, n_max in cases)
    per_n = [(x.digits, shiftcalc.natural_dots(x, sc))
             for x in map(encode_nat, range(top + 1), [audit] * (top + 1))]
    for cf, n_max in cases:
        assert list(natural_dots_per_n(cf, sc, n_max)) == per_n[:n_max + 1], (
            cf.depth, n_max)
    assert list(shiftcalc.natural_dots_upto(cf, sc, -1)) == []


def test_digits_are_read_only(cf_of):
    x = encode_nat(5, cf_of(3))
    for field in ("cf", "digits", "kind"):
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
    with pytest.raises(AttributeError):
        x.extra = 1  # slotted: no instance dict
    assert x.digits == (0, 1, 0, 1) and str(x) == "0,1,0,1@d=3"


def test_exhaustive_uniqueness(cf_of):
    for d in (2, 3, 5, Fraction(3, 2)):
        cf = cf_of(d)
        length = next(l for l in range(1, cf.depth) if cf.q(l) > 500)
        seen = sorted(
            decode_nat(make_digits(cf, w)) for w in enumerate_valid(cf, length)
        )
        assert seen == list(range(cf.q(length)))


@pytest.mark.parametrize("d", ALL_D, ids=str)
def test_enumerate_valid_matches_the_recursive_body(cf_of, d):
    # the same strings in the same order, position 0 slowest, at every length
    # up to one past the audit's max(L, l_eff + 1): L the first with
    # q_L > n_unique, l_eff the last probed level
    cf, config = cf_of(d), SuiteConfig()
    big_l = next(k for k in range(cf.depth + 1) if cf.q(k) > config.n_unique)
    l_eff = max(l for l in range(config.probe_l_max + 1) if cf.q(l + 1) <= config.probe_q_limit)
    for length in range(max(big_l, l_eff + 1) + 2):
        assert list(enumerate_valid(cf, length)) == list(enumerate_valid_recursive(cf, length))


def test_enumerate_valid_rejects_a_negative_length(cf_of):
    for length in (-1, -7):
        with pytest.raises(ValueError, match=f"^length must be non-negative, got {length}$"):
            next(enumerate_valid(cf_of(3), length))
    assert list(enumerate_valid(cf_of(3), 0)) == [()]


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
    # a rational over another radicand, or a Fraction, is re-tagged over cf.d first
    for c in (quad(Fraction(1, 5), 0, 2), Fraction(1, 5)):
        assert encode_real(c, cf3, 12) == encode_real(quad(Fraction(1, 5), 0, 3), cf3, 12)
    with pytest.raises(OutOfInterval, match=r"^1\+0\*sqrt\(3\) is outside "):
        encode_real(quad(1, 0, 2), cf3, 8)


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


def _encode_outcome(encode, c, cf, depth):
    """The digits an encoder returns, or the type of the error it raises."""
    try:
        return encode(c, cf, depth).digits
    except OstroError as exc:
        return type(exc)


@pytest.mark.parametrize("d", ALL_D, ids=str)
def test_encode_real_matches_the_two_sided_reference(cf_of, d):
    # 0, both ends of I (the upper one is outside), the ends -beta_n and
    # beta_{n-1} - beta_n of the pieces 0 and 1 at position n - 1, where the
    # search's sign test reads 0, and seeded values: a0 + u - sqrt(d) with u
    # in [0, 1), and rationals in [-1, 1), about half of which lie in I;
    # lengths up to 150, and one past the depth
    cf = cf_of(d, 150)
    rng = random.Random(f"encode_real:{d}")
    values = [quad(0, 0, d), quad(cf.a0, -1, d), quad(cf.a0 + 1, -1, d)]
    for n in range(1, 6):
        values += [-cf.beta(n), cf.beta(n - 1) - cf.beta(n)]
    for _ in range(3):
        values.append(quad(cf.a0 + Fraction(rng.randrange(10**6), 10**6), -1, d))
        values.append(quad(Fraction(rng.randrange(-10**6, 10**6), 10**6), 0, d))
    for c in values:
        for depth in (0, rng.randint(1, 149), 150):
            assert (_encode_outcome(encode_real, c, cf, depth)
                    == _encode_outcome(encode_real_reference, c, cf, depth)), (c, depth)
    assert _encode_outcome(encode_real, values[-2], cf, 151) is DepthExceeded


@given(st.sampled_from([*DEFAULT_D_LIST, Fraction(991)]), st.integers(0, 2**64 - 1), st.data())
def test_encode_real_digits_are_valid_by_construction(cf_of, d, u, data):
    # encode_real validates nothing: its caps period[k % m] - blocked keep
    # each digit valid, and _of drops the trailing zeros, so the string is
    # the one the checking constructor builds
    cf = cf_of(d, max(64, 3 * cf_of(d).m + 3))
    count = data.draw(st.integers(0, cf.depth), label="count")
    c = interval_bounds(cf)[0] + Fraction(u, 2**64)
    x = encode_real(c, cf, count)
    assert validate(x) == (True, None)
    assert not x.digits or x.digits[-1] != 0
    assert x == OstDigits(cf, x.digits, KIND_REAL)


def test_encode_real_blocked_cap_holds_over_a_lowered_table(cf_of):
    # On a true table the sign tests alone keep the digits valid, so only a
    # corrupted one shows the caps.  d = 3 has bounds 1, 2, 1, 2, ...;
    # lowered to 1 everywhere, the true digits (0, 0, 1, 1) of c put a
    # maximal 1 at position 3 after a nonzero digit, so the blocked cap stops
    # the search at 0 and the certificate refuses the string, which a search
    # capped at the bound alone would return invalid
    cf3 = cf_of(3)
    c = decode_real(make_digits(cf3, (0, 0, 1, 1), KIND_REAL))
    assert encode_real(c, cf3, 4).digits == (0, 0, 1, 1)
    with pytest.raises(VerificationFailed, match="is outside its tail window$"):
        encode_real(c, cf3.replace(period=(1, 1)), 4)


@pytest.mark.parametrize("irrational", [True, False])
@pytest.mark.parametrize("d", [Fraction(3), Fraction(61), Fraction(13, 4), Fraction(99991)],
                         ids=str)
def test_encode_real_certificate_catches_a_search_off_by_one(monkeypatch, cf_of, d, irrational):
    # Flip the verdict of one sign test of the digit search at a time.  A
    # failing test flipped stops the search early at that candidate; the
    # test that stopped it flipped moves it one candidate late.  Either way
    # the final certificate must raise.
    cf, depth = cf_of(d, 64), 40
    c = quad(cf.a0 + Fraction(1, 3), -1, d) if irrational else quad(Fraction(-1, 7), 0, d)
    signs, flip = [], []

    def spy(*args):
        s = sign_sqrt(*args)
        signs.append(s)
        if len(signs) - 1 in flip:
            return 1 if s < 0 else -1
        return s

    monkeypatch.setattr(ostrowski, "sign_sqrt", spy)
    digits = encode_real(c, cf, depth).digits
    digits += (0,) * (depth - len(digits))
    # Position k tests candidates 0 .. min(b_k, cap_k - 1), one sign test
    # each and none for the last; in_interval makes two tests before the
    # search and the certificate two after it.
    searches, i, blocked = [], 2, True
    for k, b in enumerate(digits):
        cap = cf.a(k + 1) - blocked
        for cand in range(min(b, cap - 1) + 1):
            searches.append((i, "late" if cand == b else "early"))
            i += 1
        blocked = b != 0
    assert len(signs) == i + 2
    assert {kind for _, kind in searches} == {"early", "late"}
    for i, _ in searches:
        signs.clear()
        flip[:] = [i]
        with pytest.raises(VerificationFailed, match="is outside its tail window$"):
            encode_real(c, cf, depth)


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


def test_window_parts_past_the_depth_is_refused():
    cf = cfrac.expand(3, 10)
    with pytest.raises(DepthExceeded, match=r"^window index 11 not materialized \(depth 10\)$"):
        ostrowski.window_parts(cf, cf.depth + 1, True)


def test_ostdigits_repr_names_its_table_digits_and_kind():
    cf = cfrac.expand(3, 10)
    assert repr(encode_nat(5, cf)) == f"OstDigits(cf={cf!r}, digits=(0, 1, 0, 1), kind='natural')"
