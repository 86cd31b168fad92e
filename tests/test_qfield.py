"""Exact arithmetic in Q(sqrt(d)): frozen values, a high-precision
numeric oracle for the sign test, algebraic property checks, and a
differential test of the integer-triple QuadRat against the Fraction-pair
reference in tests/qfield_reference.py."""

import math
import operator
import random
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qfield_reference import RefQuadRat, ref_quad

from ostro import (
    MixedRadicand,
    QuadRat,
    RationalSquare,
    is_rational_square,
    parse_quad,
    parse_rat,
    quad,
)
from ostro.cfrac import expand
from ostro.qfield import check_radicand

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
radicands = st.sampled_from([Fraction(x) for x in (2, 3, 5, 7, 13, "3/2", "32/9")])


def elements(d):
    return st.builds(lambda a, b: quad(a, b, d), rationals, rationals)


# ---------------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------------


def test_square_radicand_rejected():
    for d in (4, 9, Fraction(9, 4), Fraction(1, 4), 1):
        with pytest.raises(RationalSquare):
            quad(0, 1, d)
    with pytest.raises(RationalSquare):
        check_radicand(Fraction(-3))


def test_rational_square_detection():
    assert is_rational_square(Fraction(49, 64))
    assert not is_rational_square(Fraction(2))
    assert not is_rational_square(Fraction(50, 64))


def test_text_form_round_trip():
    x = quad(Fraction(-9), Fraction(5), 3)
    assert str(x) == "-9+5*sqrt(3)"
    assert parse_quad(str(x)) == x
    assert parse_quad("7/5", 3) == quad(Fraction(7, 5), 0, 3)
    assert parse_rat("1e-9") == Fraction(1, 10**9)
    assert parse_rat("3/4") == Fraction(3, 4)


def test_parse_quad_needs_a_radicand_for_a_bare_rational():
    # "7" names no sqrt(d), so only an explicit d can place it
    with pytest.raises(ValueError, match="^bare rational '7' needs an explicit radicand$"):
        parse_quad("7")


@pytest.mark.parametrize("text", ["nan", "-NaN", "snan", "inf", "-Infinity", "abc", "1e"])
def test_parse_rat_rejects_non_rationals_by_their_text(text):
    # Decimal reads NaN and Infinity, which have no ratio; the message is
    # the same for them as for any other malformed rational
    with pytest.raises(ValueError) as bad:
        parse_rat(text)
    assert str(bad.value) == f"not a rational: {text!r}"


@given(rationals, rationals, radicands)
def test_parse_inverts_str(a, b, d):
    x = quad(a, b, d)
    assert parse_quad(str(x)) == x


# ---------------------------------------------------------------------------
# frozen arithmetic values
# ---------------------------------------------------------------------------


def test_frozen_products_and_inverses():
    r2 = quad(0, 1, 2)
    r3 = quad(0, 1, 3)
    assert (1 + r2) * (1 - r2) == quad(-1, 0, 2)
    assert (r3 + 2) * (4 * r3 - 7) == r3 - 2
    assert (r2 + 1).inverse() == r2 - 1
    assert (r3 + 2).inverse() == 2 - r3
    assert quad(2, 0, 3).inverse() == quad(Fraction(1, 2), 0, 3)
    with pytest.raises(ZeroDivisionError):
        quad(0, 0, 2).inverse()


def test_frozen_signs():
    r2 = quad(0, 1, 2)
    r3 = quad(0, 1, 3)
    assert (r2 - 1).sign() == 1
    assert quad(0, 0, 2).sign() == 0
    # consecutive convergent differences for d = 3: alternating signs
    assert (3 * r3 - 5).sign() == 1
    assert (4 * r3 - 7).sign() == -1
    assert (r3 - 1).sign() == 1


def test_frozen_floors():
    r2 = quad(0, 1, 2)
    r3 = quad(0, 1, 3)
    assert r2.floor() == 1
    assert (-(r2 - 1)).floor() == -1
    assert ((r3 + 1) / 2).floor() == 1
    assert quad(Fraction(-7, 2), 0, 2).floor() == -4
    # negative b, rational radicands, and magnitudes around 10^30
    assert quad(0, -1, 2).floor() == -2
    assert quad(3, -2, 7).floor() == -3
    assert quad(Fraction(1, 3), Fraction(-5, 7), Fraction(32, 9)).floor() == -2
    assert quad(0, 1, Fraction(3, 2)).floor() == 1
    assert quad(Fraction(-7, 3), Fraction(2, 5), Fraction(13, 4)).floor() == -2
    # q_79 sqrt(2) lies just below p_79 and q_80 sqrt(2) just above p_80
    q79, p79 = 1480845785007705294702019308528, 2094232192940929332692027310337
    assert quad(0, q79, 2).floor() == p79 - 1
    assert quad(0, -q79, 2).floor() == -p79
    assert quad(0, 3575077977948634627394046618865, 2).floor() == 5055923762956339922096065927393
    assert quad(10**30 + 7, -(10**15 + 3), 61).floor() == 999999999999992189750324093329
    big = quad(Fraction(10**30, 7), Fraction(-(10**30), 11), Fraction(3, 2))
    assert big.floor() == 31516700003362034497526048552


def test_mixed_radicand_rejected():
    with pytest.raises(MixedRadicand):
        quad(1, 1, 2) + quad(1, 1, 3)
    with pytest.raises(MixedRadicand):
        quad(1, 1, 2) * quad(0, 2, 5)


# ---------------------------------------------------------------------------
# sign agreement with a high-precision numeric oracle
# ---------------------------------------------------------------------------


def _decimal_sign(x: QuadRat) -> int:
    getcontext().prec = 100
    val = (
        Decimal(x.a.numerator) / Decimal(x.a.denominator)
        + Decimal(x.b.numerator)
        / Decimal(x.b.denominator)
        * (Decimal(x.d.numerator) / Decimal(x.d.denominator)).sqrt()
    )
    # 100 digits dwarf any cancellation these magnitudes can produce
    return 0 if val == 0 else (1 if val > 0 else -1)


def test_sign_matches_numeric_oracle_on_random_elements():
    rng = random.Random(414213)
    ds = [Fraction(x) for x in (2, 3, 5, 7, 13, 61, "3/2", "32/9", "13/4")]
    for _ in range(10_000):
        d = rng.choice(ds)
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        x = quad(a, b, d)
        assert x.sign() == _decimal_sign(x)


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------


@given(radicands.flatmap(lambda d: st.tuples(elements(d), elements(d), elements(d))))
def test_field_axioms(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == quad(0, 0, x.d)


@given(radicands.flatmap(lambda d: elements(d)))
def test_inverse_and_conjugate(x):
    conj = QuadRat(x.a, -x.b, x.d)
    prod = x * conj
    assert prod.b == 0
    assert prod.a == x.a * x.a - x.d * x.b * x.b
    if x.sign() != 0:
        one = quad(1, 0, x.d)
        assert x * x.inverse() == one


@given(radicands.flatmap(lambda d: elements(d)))
def test_floor_brackets_value(x):
    n = x.floor()
    assert (x - n).sign() >= 0
    assert (x - (n + 1)).sign() < 0


@given(radicands.flatmap(lambda d: st.tuples(elements(d), elements(d))))
def test_sign_respects_order(xy):
    x, y = xy
    # sign is a total order certificate: x < y iff sign(x - y) < 0
    s = (x - y).sign()
    if s == 0:
        assert x == y
    else:
        assert x != y
        assert (y - x).sign() == -s


# ---------------------------------------------------------------------------
# differential test against the Fraction-pair reference
# ---------------------------------------------------------------------------

DIFF_DS = [Fraction(x) for x in (2, 3, 61, "13/4", "32/9")]
DERANDOMIZED = settings(derandomize=True, max_examples=300, deadline=None)
big_rationals = st.one_of(
    st.integers(-10**12, 10**12),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


def operands(d):
    """Specs of the second operand: a QuadRat over d, an int, a Fraction, a
    rational QuadRat over another radicand (re-tagged to d) and an
    irrational one over another radicand (MixedRadicand)."""
    other = st.sampled_from([e for e in DIFF_DS if e != d])
    return st.one_of(
        st.tuples(st.just("q"), big_rationals, big_rationals, st.just(d)),
        st.tuples(st.just("int"), st.integers(-10**6, 10**6)),
        st.tuples(st.just("frac"), st.fractions(min_value=-100, max_value=100,
                                                max_denominator=1000)),
        st.tuples(st.just("q"), big_rationals, st.just(0), other),
        st.tuples(st.just("q"), big_rationals, big_rationals.filter(bool), other),
    )


def build(spec):
    """The operand as (library value, reference value), built independently."""
    if spec[0] == "q":
        _, a, b, d = spec
        return quad(a, b, d), ref_quad(a, b, d)
    return spec[1], spec[1]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, MixedRadicand) as exc:
        return type(exc)


def assert_same(new, ref):
    if isinstance(ref, RefQuadRat):
        assert type(new) is QuadRat
        assert (new.a, new.b, new.d) == (ref.a, ref.b, ref.d)
        assert (str(new), hash(new)) == (str(ref), hash(ref))
        a, b, e = new.scaled()
        assert e > 0 and math.gcd(a, b, e) == 1 and Fraction(a, e) == ref.a
    else:
        assert type(new) is type(ref) and new == ref


@DERANDOMIZED
@given(st.sampled_from(DIFF_DS).flatmap(
    lambda d: st.tuples(big_rationals, big_rationals, st.just(d), operands(d))))
def test_triple_matches_fraction_pair_reference(case):
    a, b, d, spec = case
    x, rx = quad(a, b, d), ref_quad(a, b, d)
    y, ry = build(spec)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
        assert_same(outcome(op, x, y), outcome(op, rx, ry))
        if not isinstance(y, QuadRat):  # the reflected operations
            assert_same(outcome(op, y, x), outcome(op, ry, rx))
    assert_same(outcome(QuadRat.inverse, x), outcome(RefQuadRat.inverse, rx))
    assert_same(-x, -rx)
    assert_same(abs(x), abs(rx))
    assert (x.sign(), x.floor(), x.norm(), x.is_rational) == (
        rx.sign(), rx.floor(), rx.norm(), rx.is_rational)
    assert_same(x, rx)
    assert str(x.approx(40)) == str(rx.approx(40))
    assert_same(parse_quad(str(x)), rx)
    assert_same(QuadRat(x.a, x.b, x.d), rx)


def _decimal_300(x):
    """(A + B sqrt(d)) / E at 300 digits: a sum that cancels k leading digits
    keeps 300 - k, far more than approx prints."""
    a, b, e = x.scaled()
    with localcontext() as ctx:
        ctx.prec = 300
        return (Decimal(a) + Decimal(b) * (Decimal(x.d.numerator) / x.d.denominator).sqrt()) / e


def test_approx_keeps_its_digits_when_the_parts_cancel():
    # beta_k = q_k sqrt(3) - p_k up to k = 147 (|beta_147| ~ 1e-42), products
    # close to exact ones, and seeded pairs of either sign; every value keeps
    # prec + 10 significant digits, wrong by less than one unit in the 49th
    cf = expand(3, 150)
    values = [cf.beta(k) for k in range(148)] + [-cf.beta(k) / 7 for k in range(0, 148, 7)]
    rng = random.Random(2718)
    for d in (Fraction(3), Fraction(13, 4), Fraction(99991)):
        for _ in range(40):
            a, b = (Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**6)) for _ in "ab")
            values.append(quad(a, b, d))
    for x in values:
        for prec in (40, 50):
            got, ref = x.approx(prec), _decimal_300(x)
            assert len(got.as_tuple().digits) == prec + 10, x
            assert abs(got - ref) < abs(ref).scaleb(-(prec + 8)), (x, got, ref)
    assert str(cf.beta(60).approx(30)) == "5.082937832754361435195369499873086491349E-18"


def test_approx_of_a_rational_keeps_its_own_exponent():
    # b = 0 is A / E alone: no root term lends its exponent to an exact rational
    assert [str(quad(a, 0, 3).approx(40)) for a in (0, Fraction(7, 5), -5, Fraction(-1, 8))] == [
        "0", "1.4", "-5", "-0.125"]
    third = quad(Fraction(1, 3), 0, Fraction(13, 4)).approx(40)
    assert third.as_tuple().digits == (3,) * 50 and third.adjusted() == -1
