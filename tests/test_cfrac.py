"""Expansion of sqrt(d): period shape, convergents against an
independent fold oracle, identity audit verdicts, shift constants."""

import copy
import inspect
import math
import pickle
import random
import textwrap
from fractions import Fraction

import pytest
from cfrac_reference import (
    audit_identities_reference,
    check_convergents_reference,
    check_convergents_stepwise,
    normalize_d_reference,
)
from digit_maps import shift_constants_reference
from hypothesis import assume, given
from hypothesis import strategies as st

from ostro import (
    DepthExceeded,
    RationalSquare,
    UnsupportedRadicand,
    VerificationFailed,
    audit_identities,
    derive_shift_constants,
    expand,
    normalize_d,
    quad,
)
from ostro import cfrac
from ostro.harness import DEFAULT_D_LIST

LONG_PERIOD = (Fraction(991), Fraction(9949), Fraction(99991), Fraction(1000003, 7))


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


@pytest.mark.parametrize("table, idx, value, message", [
    # q_0 = 2: p_0 q_-1 - p_-1 q_0 = -2
    ("q", 1, 2, "p_0 q_-1 - p_-1 q_0 = -2 for sqrt(3), expected -1"),
    # p_0 = 2 keeps the determinant at -1 but puts p_0 above sqrt(3)
    ("p", 1, 2, "beta_0 = 1*sqrt(3) - 2 has the wrong sign"),
    # p_1 = 100 breaks the step from beta_0 to beta_1 before index 1 is checked
    ("p", 2, 100, "beta_1 zeta_2 != -beta_0 for sqrt(3)"),
])
def test_convergent_sweep_messages(monkeypatch, table, idx, value, message):
    cf = expand(3, 10)
    ps, qs = list(cf.conv_p), list(cf.conv_q)
    cfrac._check_convergents(cf.d, ps, qs, cf.zetas, cf.depth)  # the true tables pass
    (ps if table == "p" else qs)[idx] = value
    with pytest.raises(VerificationFailed) as exc:
        cfrac._check_convergents(cf.d, ps, qs, cf.zetas, cf.depth)
    assert str(exc.value) == message
    with pytest.raises(VerificationFailed):  # the sign_sqrt sweep sees it too
        check_convergents_reference(cf.d, ps, qs, cf.depth)
    # expand runs the sweep on its own tables
    seen = []
    monkeypatch.setattr(cfrac, "_check_convergents", lambda *args: seen.append(args))
    expand(3, 10)
    assert seen == [(Fraction(3), [*cf.conv_p], [*cf.conv_q], [*cf.zetas], 10)]


def test_convergent_sweep_rejects_a_zeta_below_one():
    cf = expand(3, 10)
    zetas = [(1, 3), cf.zetas[1]]  # (1 + sqrt(3))/3 < 1
    message = r"^zeta_1 = \(1\+sqrt\(3\)\)/3 of sqrt\(3\) is not > 1$"
    with pytest.raises(VerificationFailed, match=message):
        cfrac._check_convergents(cf.d, list(cf.conv_p), list(cf.conv_q), zetas, cf.depth)


def _misindexed_expand(sweep):
    """expand with the partial quotients read one index late, a_k =
    period[k % m] in place of period[(k - 1) % m] (the stream from period
    position 1, not 0), and the convergent sweep replaced by sweep."""
    src = textwrap.dedent(inspect.getsource(cfrac.expand))
    stream = "itertools.islice(itertools.cycle(period), depth)"
    assert src.count(stream) == 1
    namespace = {**vars(cfrac), "_check_convergents": sweep}
    late = "itertools.islice(itertools.cycle(period), 1, depth + 1)"
    exec(compile(src.replace(stream, late), cfrac.__file__, "exec"), namespace)
    return namespace["expand"]


@pytest.mark.parametrize("d", [d for d in DEFAULT_D_LIST + LONG_PERIOD if expand(d, 1).m > 1],
                         ids=str)
def test_expand_rejects_misindexed_partial_quotients(d):
    # period-1 radicands read the same digit either way
    depth = 3 * expand(d, 1).m + 3
    with pytest.raises(VerificationFailed):
        _misindexed_expand(cfrac._check_convergents)(d, depth)
    with pytest.raises(VerificationFailed):
        _misindexed_expand(lambda d, ps, qs, zetas, depth:
                           check_convergents_reference(d, ps, qs, depth))(d, depth)


@pytest.mark.parametrize("d", DEFAULT_D_LIST + LONG_PERIOD, ids=str)
def test_sign_sqrt_sweep_accepts_the_expanded_tables(d):
    cf = expand(d, 3 * expand(d, 1).m + 3)  # passed the integer sweep
    check_convergents_reference(cf.d, cf.conv_p, cf.conv_q, cf.depth)


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


@pytest.mark.parametrize("d", DEFAULT_D_LIST + LONG_PERIOD, ids=str)
def test_at_least_extends_to_a_fresh_expansion(d):
    m = expand(d, 1).m
    t = max(m, 2)
    for a, b in ((1, 3 * m + 3), (64, 2 * t + 2), (64, 1311)):
        assert expand(d, a).at_least(b) == expand(d, max(a, b)), (a, b)


@pytest.mark.parametrize("d", [13, 61, 991], ids=str)  # m = 5, 11, 60
def test_at_least_extends_from_every_offset_in_the_period(d):
    # the partial quotients a_{a+1} .. a_b are read from position a mod m of
    # the period on, through two full periods and past a third
    m = expand(d, 1).m
    for a in range(1, m + 2):
        b = a + 2 * m + 1
        assert expand(d, a).at_least(b) == expand(d, b), (a, b)


def test_at_least_sweeps_only_the_new_indices(monkeypatch):
    cf = expand(99991, 64)
    expands, sweeps = [], []
    sweep = cfrac._check_convergents
    monkeypatch.setattr(cfrac, "expand", lambda *args: expands.append(args))
    monkeypatch.setattr(cfrac, "_check_convergents", lambda *args: sweeps.append(args[4:]))
    deep = cf.at_least(874)
    assert expands == [] and sweeps == [(874, 65)]
    # the sweep from index 65 reads nothing below p_63 and q_63, from which
    # the extension grows, and checks every index up to the depth
    ps, qs = [0] * 64 + list(deep.conv_p[64:]), [0] * 64 + list(deep.conv_q[64:])
    sweep(deep.d, ps, qs, deep.zetas, 874, 65)
    for k in (65, 874):
        bad = ps[:k + 1] + [ps[k + 1] + 1] + ps[k + 2:]
        with pytest.raises(VerificationFailed, match=f"^beta_{k} zeta_{k + 1} "):
            sweep(deep.d, bad, qs, deep.zetas, 874, 65)


def test_deep_corruptions_name_their_index(monkeypatch):
    cf = expand(3, 64)
    ps = list(cf.conv_p)
    ps[38] += 1  # p_37
    with pytest.raises(VerificationFailed, match=r"^beta_37 zeta_38 != -beta_36 for sqrt\(3\)$"):
        cfrac._check_convergents(cf.d, ps, list(cf.conv_q), list(cf.zetas), cf.depth)
    deep = expand(99991, 874)
    qs = list(deep.conv_q)
    qs[501] += 1  # q_500
    message = r"^beta_500 zeta_501 != -beta_499 for sqrt\(99991\)$"
    with pytest.raises(VerificationFailed, match=message):
        cfrac._check_convergents(deep.d, list(deep.conv_p), qs, list(deep.zetas), deep.depth)
    # the same corruption in the tail that at_least extends from depth 64
    shallow, extend = expand(99991, 64), cfrac._extend

    def corrupted(ps, qs, quotients):
        extend(ps, qs, quotients)
        qs[501] += 1

    monkeypatch.setattr(cfrac, "_extend", corrupted)
    with pytest.raises(VerificationFailed, match=message):
        shallow.at_least(874)


def test_convergent_sweep_reads_the_partial_quotients_off_the_zetas():
    # zeta_1 + 1 is still > 1 and the step from beta_0 to beta_1 reads
    # zeta_2, so only the recurrence with a_1 = floor(zeta_1 + 1) sees it
    cf = expand(3, 10)
    (big_p, big_q), zeta_2 = cf.zetas
    message = r"^p_1, q_1 do not follow from a_1 = 2 for sqrt\(3\)$"
    with pytest.raises(VerificationFailed, match=message):
        cfrac._check_convergents(cf.d, list(cf.conv_p), list(cf.conv_q),
                                 [(big_p + big_q, big_q), zeta_2], cf.depth)


def _sweep_message(sweep, cf, ps, qs, zetas, start):
    """The VerificationFailed message of one sweep over the tables, None if it passes."""
    try:
        sweep(cf.d, ps, qs, zetas, cf.depth, start)
    except VerificationFailed as exc:
        return str(exc)
    return None


def _convergent_corruptions(cf, cases):
    """The tables with one p or q entry moved by one, for each (table, i, delta)."""
    for table, i, delta in cases:
        ps, qs = list(cf.conv_p), list(cf.conv_q)
        (ps if table == "p" else qs)[i] += delta
        yield (table, i, delta), ps, qs


def test_induction_sweep_names_what_the_stepwise_sweep_names():
    # the stepwise sweep runs the beta step at every index; the induction
    # carries it from one base step, so on every table corruption both raise
    # the same message at the same index, or both pass
    for d in (2, 3, 7, Fraction(13, 4), 61):
        cf = expand(d, 64)
        cases = [(t, i, delta) for t in "pq" for i in range(len(cf.conv_p)) for delta in (1, -1)]
        for case, ps, qs in _convergent_corruptions(cf, cases):
            for start in (0, 10):
                want = _sweep_message(check_convergents_stepwise, cf, ps, qs, cf.zetas, start)
                got = _sweep_message(cfrac._check_convergents, cf, ps, qs, cf.zetas, start)
                assert got == want, (d, case, start)
    rng = random.Random(2805)
    for d in (991, 99991):
        cf = expand(d, 874)
        cases = [(rng.choice("pq"), rng.randrange(len(cf.conv_p)), rng.choice((1, -1)))
                 for _ in range(40)]
        for case, ps, qs in _convergent_corruptions(cf, cases):
            start = rng.choice((0, 65))
            want = _sweep_message(check_convergents_stepwise, cf, ps, qs, cf.zetas, start)
            assert want is not None or start > case[1] + 1  # only p, q below start - 2 go unread
            got = _sweep_message(cfrac._check_convergents, cf, ps, qs, cf.zetas, start)
            assert got == want, (d, case, start)


@pytest.mark.parametrize("d", [2, 3, 7, Fraction(13, 4), 61, 991], ids=str)
def test_induction_sweep_rejects_what_the_stepwise_sweep_rejects_in_the_zetas(d):
    cf = expand(d, 64)
    ps, qs = list(cf.conv_p), list(cf.conv_q)
    caught = 0
    for j in range(cf.m):
        for part in (0, 1):
            for delta in (1, -1):
                zetas = list(cf.zetas)
                zetas[j] = tuple(x + delta * (i == part) for i, x in enumerate(zetas[j]))
                for start in (0, 10):
                    if _sweep_message(check_convergents_stepwise, cf, ps, qs, zetas, start):
                        caught += 1
                        assert _sweep_message(cfrac._check_convergents, cf, ps, qs, zetas, start)
    assert caught > 0


def test_closure_sees_a_zeta_with_the_same_floor():
    # zeta_1 = (1 + sqrt(3))/2 becomes (2 + sqrt(3))/2: a_1 = 1 either way, so
    # the recurrence holds at every index and only the closure at 1 fails
    cf = expand(3, 10)
    zetas = [(2, 2), cf.zetas[1]]
    message = r"^zeta_1 != a_1 \+ 1/zeta_2 for sqrt\(3\)$"
    with pytest.raises(VerificationFailed, match=message):
        cfrac._check_convergents(cf.d, list(cf.conv_p), list(cf.conv_q), zetas, cf.depth)
    # at depth 64 < m = 436, the stepwise sweep reads zeta_1 only through its floor
    cf = expand(99991, 64)
    (big_p, big_q), *rest = cf.zetas
    zetas = [(big_p + 1, big_q), *rest]
    check_convergents_stepwise(cf.d, cf.conv_p, cf.conv_q, zetas, cf.depth)
    with pytest.raises(VerificationFailed, match=r"^zeta_1 != a_1 \+ 1/zeta_2 for sqrt\(99991\)$"):
        cfrac._check_convergents(cf.d, cf.conv_p, cf.conv_q, zetas, cf.depth)


def test_base_step_sees_tables_that_follow_the_recurrence_from_a_wrong_start():
    # p_0 = a0 - 1 keeps beta_0 > 0 and the determinant -1, and _extend makes
    # the recurrence hold at every index from it
    cf = expand(3, 10)
    ps, qs = [1, cf.a0 - 1], [0, 1]
    cfrac._extend(ps, qs, (cf.a(k) for k in range(1, cf.depth + 1)))
    with pytest.raises(VerificationFailed, match=r"^beta_0 zeta_1 != -beta_-1 for sqrt\(3\)$"):
        cfrac._check_convergents(cf.d, ps, qs, cf.zetas, cf.depth)
    # at start > 0 the base is the step at start - 1: at_least grows the tables
    # from p_63 and p_64 by the recurrence and sweeps from 65, and p_63 is wrong
    shallow = expand(99991, 64)
    ps = list(shallow.conv_p)
    ps[64] += 1  # p_63
    message = r"^beta_64 zeta_65 != -beta_63 for sqrt\(99991\)$"
    with pytest.raises(VerificationFailed, match=message):
        shallow.replace(conv_p=tuple(ps)).at_least(874)


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


def _verdicts_or_error(audit, cf, k_max=None):
    """The audit's verdicts as JSON rows, or the message of the
    VerificationFailed it raised."""
    try:
        return [v.to_json() for v in audit(cf, k_max)]
    except VerificationFailed as exc:
        return f"VerificationFailed: {exc}"


@pytest.mark.parametrize("d", DEFAULT_D_LIST + LONG_PERIOD, ids=str)
def test_audit_matches_quadrat_reference(d):
    m = expand(d, 1).m
    for cf in {expand(d, 3 * m + 3), expand(d).at_least(3 * m + 3)}:
        for k_max in (None, 0, 1, 5):
            got = [v.to_json() for v in audit_identities(cf, k_max)]
            assert got == [v.to_json() for v in audit_identities_reference(cf, k_max)], k_max


def _assert_audits_agree(bad):
    for k_max in (None, 0, 1, 5):
        want = _verdicts_or_error(audit_identities_reference, bad, k_max)
        assert _verdicts_or_error(audit_identities, bad, k_max) == want, k_max


def _bump(table: tuple, k: int, by: int = 1) -> tuple:
    """A convergent table with by added to the entry of index k (the table starts at -1)."""
    return table[:k + 1] + (table[k + 1] + by,) + table[k + 2:]


@pytest.mark.parametrize("d, corrupt", [
    (3, lambda cf: cf.replace(zetas=((cf.zetas[0][0] + 1, cf.zetas[0][1]),) + cf.zetas[1:])),
    (991, lambda cf: cf.replace(zetas=cf.zetas[:5] + ((cf.zetas[5][0] + 1, cf.zetas[5][1]),)
                             + cf.zetas[6:])),
    # the last entry of the period (m = 60): its mismatch is the chain's step m
    (991, lambda cf: cf.replace(zetas=cf.zetas[:59] + ((cf.zetas[59][0] + 1, cf.zetas[59][1]),))),
    (3, lambda cf: cf.replace(conv_q=_bump(cf.conv_q, 100))),
    (3, lambda cf: cf.replace(conv_p=_bump(cf.conv_p, cf.m - 1))),  # U changes
    (991, lambda cf: cf.replace(conv_p=_bump(cf.conv_p, cf.m - 1))),
    # p_0 enters only the rational parts of the beta-quotient step at k = 0
    # and of the unit shift at k = 0, q_0 only their sqrt(d) parts
    (3, lambda cf: cf.replace(conv_p=_bump(cf.conv_p, 0))),
    (3, lambda cf: cf.replace(conv_q=_bump(cf.conv_q, 0))),
    # m = 1: q_1 + 1 and q_0 - a0 keep q_0 + a0 q_1, so only the sqrt(d)
    # part of the printed period product q_1 sqrt(d) + q_0 + a0 q_1 moves
    (2, lambda cf: cf.replace(conv_q=_bump(_bump(cf.conv_q, 1), 0, -cf.a0))),
    # the period of sqrt(7) is (1, 1, 1, 4): break its palindrome, then its last digit
    (7, lambda cf: cf.replace(period=(1, 1, 2, 4))),
    (7, lambda cf: cf.replace(period=(1, 1, 1, 5))),
], ids=["zeta-3", "zeta-991", "zeta59-991", "q100-3", "unit-3", "unit-991", "p0-3", "q0-3",
        "product-2", "palindrome-7", "last-digit-7"])
def test_audit_corruptions_match_quadrat_reference(d, corrupt):
    cf = expand(d, 183)
    bad = corrupt(cf)
    _assert_audits_agree(bad)
    # over every index the corruption is seen: an error, or a corrected verdict flipped
    want = _verdicts_or_error(audit_identities_reference, bad)
    assert isinstance(want, str) or any(v["corrected"] == "fails" for v in want)


@pytest.mark.parametrize("d", [2, 3, 7, Fraction(13, 4)], ids=str)
def test_unit_shift_one_entry_corruptions_match_quadrat_reference(cf_of, d):
    # the unit shift is decided at k = 0 and 1 where the recurrence sweep
    # holds through every k + m it reads, and stepwise past a failing one: at
    # d = 3 with k_max = 5 a bumped q_7 lies past that sweep, not the shift's
    cf = cf_of(d, 3 * cf_of(d).m + 3)
    for by in (1, -1):
        for k in range(-1, cf.depth + 1):
            _assert_audits_agree(cf.replace(conv_p=_bump(cf.conv_p, k, by)))
            _assert_audits_agree(cf.replace(conv_q=_bump(cf.conv_q, k, by)))
        for i in range(cf.m):
            _assert_audits_agree(
                cf.replace(period=cf.period[:i] + (cf.period[i] + by,) + cf.period[i + 1:]))


@pytest.mark.parametrize("d", [991, 99991])
def test_unit_shift_seeded_corruptions_match_quadrat_reference(cf_of, d):
    cf = cf_of(d, 3 * cf_of(d).m + 3)
    rng = random.Random(d)
    for _ in range(4):
        table = rng.choice(("conv_p", "conv_q"))
        k, by = rng.randrange(-1, cf.depth + 1), rng.choice((1, -1))
        _assert_audits_agree(cf.replace(**{table: _bump(getattr(cf, table), k, by)}))


def _regrown(cf, p_1, q_1, p0, q0):
    """cf with its convergent tables grown by _extend from p_-1, q_-1, p_0, q_0."""
    ps, qs = [p_1, p0], [q_1, q0]
    cfrac._extend(ps, qs, (cf.a(k) for k in range(1, cf.depth + 1)))
    return cf.replace(conv_p=tuple(ps), conv_q=tuple(qs))


@pytest.mark.parametrize("d", [2, 3, 7, Fraction(13, 4), 991])
@pytest.mark.parametrize("dp, dq", [(1, 0), (-1, 0), (0, 1)], ids=["p0+1", "p0-1", "q0+1"])
def test_unit_shift_on_tables_regrown_from_a_wrong_start(cf_of, d, dp, dq):
    # _extend makes the recurrence hold at every index, so only the base
    # cases k = 0 and 1 can see the wrong start
    cf = cf_of(d, 3 * cf_of(d).m + 3)
    bad = _regrown(cf, 1, 0, cf.a0 + dp, 1 + dq)
    assert verdict_map(bad)["convergent-recurrence"].printed == "holds"
    assert verdict_map(bad)["beta-unit-shift"].corrected == "fails"
    _assert_audits_agree(bad)


@pytest.mark.parametrize("d, start", [(2, (-3, -8, -1, 2)), (3, (-23, 33, 26, -18))],
                         ids=["2", "3"])
def test_unit_shift_sees_a_start_where_only_k_1_fails(cf_of, d, start):
    # (p_-1, q_-1, p_0, q_0) solves D_0 = 0 != D_1 for the printed constant c =
    # zeta_1 ... zeta_{m+1}: grown by the recurrence, the printed shift holds
    # at k = 0 and first fails at k = 1
    bad = _regrown(cf_of(d, 3 * cf_of(d).m + 3), *start)
    assert verdict_map(bad)["beta-unit-shift"].witness["k"] == 1
    _assert_audits_agree(bad)


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
    # t = m = 60: the shallow input is grown to m, not refused
    assert derive_shift_constants(expand(991, 8)) == derive_shift_constants(expand(991, 183))


@pytest.mark.parametrize("d", DEFAULT_D_LIST + LONG_PERIOD, ids=str)
def test_constants_match_linear_solve(d):
    cf = expand(d)
    assert derive_shift_constants(cf) == shift_constants_reference(cf)


@given(st.integers(2, 3000), st.integers(1, 40))
def test_constants_match_linear_solve_on_rationals(num, den):
    d = Fraction(num, den)
    assume(d > 1 and not (math.isqrt(d.numerator) ** 2 == d.numerator
                          and math.isqrt(d.denominator) ** 2 == d.denominator))
    cf = expand(d, 8)
    assert derive_shift_constants(cf) == shift_constants_reference(cf)


@pytest.mark.parametrize("d,j,closure", [(3, 0, "zeta_1 != a_1 \\+ 1/zeta_2"),
                                         (991, 5, "zeta_5 != a_5 \\+ 1/zeta_6")],
                         ids=["3-0-1", "991-5-4"])  # d, j, the first k whose weights read P_{j+1}
def test_constants_check_every_index(d, j, closure):
    # zetas[j] = (P_{j+1}, Q_{j+1}); P_{j+1} is the w weight of residue
    # j - 1 mod m, and the closure that reads it fails first
    cf = expand(d, 130)
    big_p, big_q = cf.zetas[j]
    bad = cf.replace(zetas=cf.zetas[:j] + ((big_p + 1, big_q),) + cf.zetas[j + 1:])
    with pytest.raises(VerificationFailed, match=closure):
        derive_shift_constants(bad)
    # a deep convergent: only the sweep of every index can see it
    deep = cf.replace(conv_q=cf.conv_q[:101] + (cf.conv_q[101] + 1,) + cf.conv_q[102:])
    with pytest.raises(VerificationFailed, match="beta_100 zeta_101 != -beta_99 "):
        derive_shift_constants(deep)


def test_expand_marks_its_tables_swept():
    cf = expand(991, 8)  # m = 60
    assert cf.swept and cf.at_least(183).swept and cf.at_least(8) is cf


def test_other_constructions_are_not_swept():
    cf = expand(991, 8)
    others = {
        "CFData": cfrac.CFData(cf.d, cf.period, cf.conv_p, cf.conv_q, cf.zetas),
        "replace": cf.replace(),
        "copy": copy.copy(cf),
        "pickle": pickle.loads(pickle.dumps(cf)),
        "at_least on an unswept base": cf.replace().at_least(183),
    }
    for how, other in others.items():
        assert not other.swept, how
    assert others["at_least on an unswept base"] == cf.at_least(183)


def test_constants_sweep_an_unswept_base_grown_past_its_fault():
    # at_least sweeps only the indices it adds, so only the sweep of the
    # shift constants, at the base's own depth, sees q_40
    cf = expand(991, 64)
    bad = cf.replace(conv_q=_bump(cf.conv_q, 40)).at_least(80)  # grown past q_40, unswept
    with pytest.raises(VerificationFailed, match="beta_40 zeta_41 != -beta_39 "):
        derive_shift_constants(bad)


@pytest.mark.parametrize("d", DEFAULT_D_LIST + LONG_PERIOD, ids=str)
def test_swept_constants_equal_the_constants_of_an_unswept_copy(d):
    want = derive_shift_constants(expand(d))
    for depth in (cfrac.DEFAULT_DEPTH, 1, 8, 2 * want.t + 2):
        cf = expand(d, depth)
        unswept = cf.replace()
        assert cf.swept and not unswept.swept
        assert derive_shift_constants(cf) == derive_shift_constants(unswept) == want, depth


def test_swept_constants_grow_to_the_period_only(monkeypatch):
    # a swept expansion has had its closure read on every period entry once
    # it reaches m; an unswept one is swept at its own depth, then grown alike
    grown, at_least = [], cfrac.CFData.at_least
    monkeypatch.setattr(cfrac.CFData, "at_least",
                        lambda self, k: grown.append(k) or at_least(self, k))
    shallow = expand(991, 1)  # m = t = 60
    derive_shift_constants(shallow)
    assert max(grown) == 60
    grown.clear()
    derive_shift_constants(shallow.replace())
    assert max(grown) == 60


@pytest.mark.parametrize("d", DEFAULT_D_LIST + LONG_PERIOD, ids=str)
def test_constants_json_prints_the_weights_as_fractions(d):
    sc = derive_shift_constants(expand(d, 1))
    data = sc.to_json()
    assert data["v"] == [str(Fraction(x, sc.dn)) for x in sc.v_num]
    assert data["w"] == [str(Fraction(x, sc.dn)) for x in sc.w_num]


def test_constants_json_prints_whole_and_zero_weights_as_fractions():
    # no radicand above has a whole weight; replace takes any integers
    sc = derive_shift_constants(expand(3, 1)).replace(v_num=(0, 6, -3, 2), w_num=(3, -9, 4, -1))
    data = sc.to_json()
    assert data["v"] == ["0", "2", "-1", "2/3"] and data["w"] == ["1", "-3", "4/3", "-1/3"]


@pytest.mark.parametrize("d", [3, 991], ids=str)
def test_constants_check_the_last_index(d):
    cf = expand(d, 130)
    k = cf.depth - 1  # the last index whose identity dn q_k = v p_{k+1} + w p_k the tables reach
    with pytest.raises(VerificationFailed, match=f"beta_{k} zeta_{k + 1} != -beta_{k - 1} "):
        derive_shift_constants(cf.replace(conv_q=_bump(cf.conv_q, k)))


@pytest.mark.parametrize("table", ["conv_q", "conv_p"])
@pytest.mark.parametrize("d", [3, 991], ids=str)
def test_constants_check_the_last_table_entry(d, table):
    # the sweep reads every entry, q_130 too, which no identity of the
    # constants at an index below the depth reads
    cf = expand(d, 130)
    with pytest.raises(VerificationFailed, match="beta_130 zeta_131 != -beta_129 "):
        derive_shift_constants(cf.replace(**{table: _bump(getattr(cf, table), 130)}))


def test_constants_name_the_first_failing_index():
    # q_80 and q_130 lie in residue classes 20 and 10 of t = 60: the sweep
    # runs in index order, not class by class
    cf = expand(991, 183)
    bad = cf.replace(conv_q=_bump(_bump(cf.conv_q, 80), 130))
    with pytest.raises(VerificationFailed, match="beta_80 zeta_81 != -beta_79 "):
        derive_shift_constants(bad)


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
    # small radicands need more than 63 doublings of the scale
    assert normalize_d(Fraction(2, 10**38)) == (Fraction(2 * 4**65, 9 * 10**38), Fraction(3, 2**65))
    assert normalize_d(Fraction(3, 4**70)) == (Fraction(3), Fraction(1, 2**70))


def test_normalize_matches_the_fraction_search():
    # the integer search finds the pair of the search over Fractions, on the
    # 25 radicands, on seeded num/den draws and below 1
    rng = random.Random(45)
    draws = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)) for _ in range(400)]
    for d in [*DEFAULT_D_LIST, *LONG_PERIOD, *draws, Fraction(1, 1000), Fraction(2, 9), Fraction(7, 10**20)]:
        try:
            want = normalize_d_reference(d)
        except RationalSquare:
            with pytest.raises(RationalSquare):
                normalize_d(d)
            continue
        assert normalize_d(d) == want, d


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


def test_negative_and_unmaterialized_indices_are_refused():
    # a and zeta refuse a negative index, p and q one past their tables (_at)
    cf = expand(3, 10)
    with pytest.raises(IndexError, match=r"^partial quotient index -1 out of range$"):
        cf.a(-1)
    with pytest.raises(IndexError, match=r"^complete quotient index -1 out of range$"):
        cf.zeta(-1)
    for convergent in (cf.p, cf.q):
        with pytest.raises(DepthExceeded,
                           match=r"^convergent index 11 not materialized \(depth 10\)$"):
            convergent(cf.depth + 1)
