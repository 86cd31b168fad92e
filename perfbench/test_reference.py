"""Tests of the benchmark's own reference code (no ostro import).

    python3 -m pytest -q perfbench
"""

import random
from decimal import Decimal, localcontext
from fractions import Fraction

from reference import Expansion, sign
from workloads import CommandGen, KINDS, LONG_PERIOD, OVERRUNS_PER_KIND


def test_sqrt3_period_and_encode_5():
    e = Expansion(Fraction(3), 8)
    assert (e.a0, e.period) == (1, [1, 2])
    assert e.nat_digits(5) == [0, 1, 0, 1]
    assert e.nat_value([0, 1, 0, 1]) == 5


def test_long_periods():
    periods = {d: Expansion(Fraction(d), 1).m for d in ("991", "99991", "1000003/7")}
    assert periods == {"991": 60, "99991": 436, "1000003/7": 214}


def test_period_shape_for_rational_radicands():
    for d in ("3/2", "5/3", "7/2", "32/9", "13/4"):
        e = Expansion(Fraction(d), 1)
        assert e.period[-1] == 2 * e.a0
        assert e.period[:-1] == e.period[-2::-1]


def test_sign_is_exact():
    d = Fraction(2)
    assert sign(Fraction(-1414213562, 10**9), Fraction(1), d) == 1
    assert sign(Fraction(-1414213563, 10**9), Fraction(1), d) == -1
    assert sign(Fraction(577, 408), Fraction(-1), d) == 1  # 577/408 > sqrt(2)
    assert sign(Fraction(0), Fraction(0), d) == 0


def test_convergents_and_unit():
    e = Expansion(Fraction(3), 10)
    assert [e.p[k + 1] for k in range(5)] == [1, 2, 5, 7, 19]
    assert [e.q[k + 1] for k in range(5)] == [1, 1, 3, 4, 11]
    # p_{m-1}^2 - 3 q_{m-1}^2 = 1 for the unit 2 + sqrt(3)
    assert (e.p[e.m], e.q[e.m]) == (2, 1)


def test_constants_identity():
    e = Expansion(Fraction(3), 10)
    assert e.constants_hold([Fraction(2, 3), Fraction(1, 3)], [Fraction(-1, 3), Fraction(-1, 3)])
    assert not e.constants_hold([Fraction(2, 3), Fraction(1, 3)], [Fraction(-1, 3), Fraction(1, 3)])


def test_real_digit_certificate_accepts_only_the_expansion():
    rng = random.Random(7)
    for d in ("2", "7", "61", "32/9"):
        e = Expansion(Fraction(d), 64)
        for _ in range(5):
            digits = e.random_valid_digits(rng, 20)
            c = e.real_value(digits)
            assert e.in_interval(*c)
            assert e.real_digits_certified(c, digits, 20)
            assert e.real_digits_certified(c, digits[:12], 12)
            for k in range(len(digits)):
                for b in range(e.a(k + 1) + 1):
                    other = digits[:k] + [b] + digits[k + 1:]
                    if b != digits[k]:
                        while other and other[-1] == 0:
                            other.pop()
                        assert not e.real_digits_certified(c, other, 20)


def test_greedy_real_digits_are_the_certified_ones():
    rng = random.Random(11)
    for d in ("2", "13", "991", "3/2"):
        e = Expansion(Fraction(d), 64)
        for _ in range(5):
            digits = e.random_valid_digits(rng, 20)
            assert e.real_digits(e.real_value(digits), 20) == digits + [0] * (20 - len(digits))


def test_predicted_m_shift_overrun():
    # ostro mul --d 32/9 --depth 160 --x 206896/6418 --eps 1e-60 exits 3
    # with "shifted index 161 exceeds depth 160".
    e = Expansion(Fraction(32, 9), 64)
    eps = Fraction(1, 10**60)
    assert e.product_shift_index((Fraction(206896, 6418), Fraction(0)), eps) == 161


def test_eps_depth_is_the_first_sufficient_index():
    e = Expansion(Fraction(2), 64)
    with localcontext() as ctx:
        ctx.prec = 200
        root = Decimal(2).sqrt()

        def bound(k):  # (|beta_{k-1}| + |beta_k|) * sqrt(2), to 200 digits
            return sum(abs(e.q[j + 1] * root - e.p[j + 1]) for j in (k - 1, k)) * root

        for eps in (Fraction(1, 10**9), Fraction(37, 10**31), Fraction(1, 10**60)):
            k = e.depth_for_eps(eps)
            assert bound(k) < Decimal(eps.numerator) / eps.denominator <= bound(k - 1)


def test_command_mix_is_fixed_by_the_block():
    gen = CommandGen(1, [Fraction(2), Fraction(3)])
    for j in range(8):
        block = gen.block(j)
        assert sorted(c["kind"] for c in block) == sorted(KINDS * 5)
        assert sorted(str(c["d"]) for c in block if str(c["d"]) in LONG_PERIOD) == sorted(LONG_PERIOD)
        assert sum(c.get("overrun") is not None for c in block) == 2 * OVERRUNS_PER_KIND


def test_blocks_depend_only_on_seed_and_index():
    a, b = CommandGen(5, [Fraction(2), Fraction(3)]), CommandGen(5, [Fraction(2), Fraction(3)])
    a.block(0)
    assert [c["argv"] for c in a.block(3)] == [c["argv"] for c in b.block(3)]
    other = CommandGen(6, [Fraction(2), Fraction(3)])
    assert [c["argv"] for c in a.block(3)] != [c["argv"] for c in other.block(3)]


def test_checker_rejects_a_wrong_product():
    gen = CommandGen(3, [Fraction(2)])
    cmd = gen.command(random.Random(3), "mul-rat", Fraction(2))
    x = cmd["x"][0]
    assert gen.check(cmd, f"sqrt(2) * ({x}) = 0+{x}*sqrt(2)\n") is None
    assert gen.check(cmd, f"sqrt(2) * ({x}) = {2 * cmd['eps']}+{x}*sqrt(2)\n") is not None
