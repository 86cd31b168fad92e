"""Suite runner: report structure, failure accounting, rendering,
config (de)serialization, and input validation."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt
from operator import add
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ostro
from ostro import (DepthExceeded, InvalidDigits, RationalSquare, SuiteConfig,
                   UnsupportedRadicand, VerificationFailed, harness, run_suite)
from ostro import cfrac, cli, ostrowski, shiftcalc
from ostro.harness import (
    STAGES,
    config_from_json,
    corrected_failures,
    printed_failures,
    render_text,
    render_tsv,
)
from ostro.qfield import sign_sqrt

from shiftcalc_reference import natural_dots_per_n, pass_over_n_per_n
from test_ostrowski import ALL_D
from test_shiftcalc import CORRUPTED_TABLE_D, corrupt, corrupted_tables

SMALL = SuiteConfig(
    d_list=(Fraction(3), Fraction(2)),
    n_max=60,
    n_unique=30,
    lambda_n_max=15,
    lambda_samples=3,
    probe_samples=3,
    probe_l_max=4,
    class_l_max=6,
)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SMALL)


def test_report_structure(small_report):
    rep = small_report
    assert [r["d"] for r in rep["results"]] == ["3", "2"]
    res = rep["results"][0]
    for key in (
        "identities", "constants", "roundtrip_and_split", "uniqueness",
        "recover_frac", "recover_nat", "times_sqrt_exact", "times_sqrt_real",
        "prefix_probe", "class_probe",
    ):
        assert key in res
    assert res["period"] == [1, 2]
    assert res["roundtrip_and_split"]["checked"] == 61
    assert res["roundtrip_and_split"]["failures"] == 0
    assert res["uniqueness"]["failures"] == 0


def test_failure_accounting(small_report):
    rep = small_report
    assert corrected_failures(rep) == 0
    assert printed_failures(rep) > 0
    assert rep["summary"]["d_count"] == 2
    assert rep["summary"]["corrected_failures"] == 0
    assert rep["summary"]["printed_failures"] == printed_failures(rep)


def test_worked_example_embedded(small_report):
    ex = small_report["results"][0]["recovery_example"]
    assert ex["nat"]["n"] == 5
    assert ex["nat"]["rhs"] == "5+0*sqrt(3)"
    assert ex["frac"]["corrected"] == "holds"
    assert ex["frac"]["printed"] == "fails"


def test_report_is_json_ready(small_report):
    text = json.dumps(small_report)
    assert json.loads(text) == small_report


def test_render_text_and_tsv(small_report):
    text = render_text(small_report)
    assert "d=3" in text
    assert "pq-connection-p" in text
    assert "printed:fails" in text and "corrected:holds" in text
    tsv = render_tsv(small_report)
    rows = [line.split("\t") for line in tsv.strip().splitlines()]
    assert rows[0][0] == "d"
    assert any(row[0] == "3" for row in rows[1:])


def test_tsv_keeps_a_skipped_prefix_probe():
    config = SMALL.replace(probe_q_limit=0)
    rows = render_tsv(run_suite(config)).splitlines()
    for d in config.d_list:
        want = f"{d}\tprefix_probe\t-\t-\tskipped: q_1 exceeds probe_q_limit=0"
        assert want in rows, d


def _sweep(checked, failures=0, first_failure=None):
    return {"checked": checked, "failures": failures, "first_failure": first_failure}


# A hand-built report with one line of every kind the renderers print: an
# identity that holds, printed-form failures with and without a witness, a
# failing corrected form, sweeps that hold, fail, fail on one error, fail
# more than once with an error first or were skipped, and an error entry.
PINNED = {
    "results": [
        {
            "d": "3", "period": [1, 2], "m": 2, "t": 2, "elapsed_s": 0.25,
            "identities": [
                {"fact_id": "convergent-recurrence", "printed": "holds", "corrected": "holds",
                 "witness": None},
                {"fact_id": "pq-connection-p", "printed": "fails", "corrected": "holds",
                 "witness": {"k": 2, "lhs": "7", "rhs": "5+1*sqrt(3)"}},
                {"fact_id": "period-palindrome", "printed": "fails", "corrected": "holds",
                 "witness": {}},
                {"fact_id": "unit-product", "printed": "holds", "corrected": "fails",
                 "witness": None},
            ],
            "roundtrip_and_split": _sweep(61),
            "recover_frac": _sweep(61, 3, {"n": 4, "lhs": "1", "rhs": "2"}),
            "recover_nat": _sweep(0, 1, {"error": "DepthExceeded: needs depth 9"}),
            "uniqueness": _sweep(21),
            "times_sqrt_exact": _sweep(16),
            "times_sqrt_real": _sweep(3, 2, {"x": "7/5", "error": "bound violated"}),
            "prefix_probe": {"skipped": "q_1 exceeds probe_q_limit=0"},
            "class_probe": {**_sweep(5), "infeasible": [{"j": 0, "mod": 2}]},
        },
        {"d": "4", "error": "RationalSquare: radicand 4 is a rational square"},
    ],
    "summary": {"d_count": 2, "corrected_failures": 8, "printed_failures": 2, "elapsed_s": 0.5,
                "stages": {"identities": 0.125, "recovery": 0.0}},
}


def test_renderers_byte_for_byte():
    assert render_text(PINNED) == (
        "d=3: period=[1, 2] m=2 t=2 (0.25s)\n"
        "  convergent-recurrence    printed:holds corrected:holds\n"
        "  pq-connection-p          printed:fails corrected:holds  [k=2: 7 vs 5+1*sqrt(3)]\n"
        "  period-palindrome        printed:fails corrected:holds\n"
        "  unit-product             printed:holds corrected:fails\n"
        "  roundtrip_and_split      checked:61 failures:0\n"
        "  recover_frac             checked:61 failures:3\n"
        "  recover_nat              checked:0 failures:1  [DepthExceeded: needs depth 9]\n"
        "  uniqueness               checked:21 failures:0\n"
        "  times_sqrt_exact         checked:16 failures:0\n"
        "  times_sqrt_real          checked:3 failures:2  [bound violated]\n"
        "  prefix_probe             skipped (q_1 exceeds probe_q_limit=0)\n"
        "  class_probe              checked:5 failures:0\n"
        "d=4: ERROR RationalSquare: radicand 4 is a rational square\n"
        "stages: identities 0.125s, recovery 0.0s\n"
        "suite: 2 radicands, corrected failures: 8, printed-form failures: 2 (0.5s)"
    )
    assert render_tsv(PINNED) == (
        "d\titem\tprinted\tcorrected\tdetail\n"
        "3\tconvergent-recurrence\tholds\tholds\t\n"
        "3\tpq-connection-p\tfails\tholds\tk=2 lhs=7 rhs=5+1*sqrt(3)\n"
        "3\tperiod-palindrome\tfails\tholds\t\n"
        "3\tunit-product\tholds\tfails\t\n"
        "3\troundtrip_and_split\t-\tholds\tchecked=61\n"
        "3\trecover_frac\t-\tfails\tchecked=61 failures=3\n"
        "3\trecover_nat\t-\tfails\tchecked=0 error=DepthExceeded: needs depth 9\n"
        "3\tuniqueness\t-\tholds\tchecked=21\n"
        "3\ttimes_sqrt_exact\t-\tholds\tchecked=16\n"
        "3\ttimes_sqrt_real\t-\tfails\tchecked=3 failures=2 error=bound violated\n"
        "3\tprefix_probe\t-\t-\tskipped: q_1 exceeds probe_q_limit=0\n"
        "3\tclass_probe\t-\tholds\tchecked=5\n"
        "4\terror\t-\t-\tRationalSquare: radicand 4 is a rational square"
    )


def test_failure_counts_are_exact():
    # recover_frac's 3 recorded failures, recover_nat's error,
    # times_sqrt_real's 2, the failing corrected identity and the error
    # entry; skipped and holding sweeps count 0, and only identities count
    # toward printed-form failures
    assert corrected_failures(PINNED) == 3 + 1 + 2 + 1 + 1
    assert printed_failures(PINNED) == 2
    error_only = {"results": PINNED["results"][1:]}
    assert (corrected_failures(error_only), printed_failures(error_only)) == (1, 0)
    entry = dict(PINNED["results"][0], prefix_probe=_sweep(40, 2))
    assert corrected_failures({"results": [entry]}) == 7 + 2


def test_config_round_trip():
    blob = json.dumps(SMALL.to_json())
    assert config_from_json(json.loads(blob)) == SMALL


def test_config_partial_parse():
    cfg = config_from_json({"d_list": ["5", "3/2"], "n_max": 12, "eps": "1e-6"})
    assert cfg.d_list == (Fraction(5), Fraction(3, 2))
    assert cfg.n_max == 12
    assert cfg.eps == Fraction(1, 10**6)
    assert cfg.depth == SuiteConfig().depth


def test_n_sweep_stops_below_the_shifted_depth():
    # the recoveries read the digits shifted by m = 2, so over depth 14
    # n stays below q_13 = 2911 instead of raising DepthExceeded
    config = config_from_json({"d_list": ["3"], "depth": 14, "n_max": 100000,
                               "n_unique": 30, "eps": "1/10", "class_l_max": 6})
    report = run_suite(config)
    res = report["results"][0]
    assert "error" not in res, res
    assert res["depth"] == 14
    for key in ("roundtrip_and_split", "recover_frac", "recover_nat"):
        assert res[key]["checked"] == 2911
    assert corrected_failures(report) == 0


# n = 15 is the last n of the times_sqrt_exact sweep (lambda_n_max = 15);
# n = 10 is inside the prefix probe's oracle, n < q_5 = 15, which reads the
# enumerated valid strings and so does not see the encoder's fault
@pytest.mark.parametrize("bad_n, exact_checked", [(40, 16), (15, 15), (10, 15)])
def test_corrupted_encoding_is_one_roundtrip_failure(monkeypatch, bad_n, exact_checked):
    encode = harness.ostrowski.encode_nat

    def corrupted(n, cf):
        return encode(n + 1 if n == bad_n else n, cf)

    monkeypatch.setattr(harness.ostrowski, "encode_nat", corrupted)
    report = run_suite(SMALL.replace(d_list=(Fraction(3),)))
    res = report["results"][0]
    assert res["roundtrip_and_split"]["failures"] == 1
    assert res["roundtrip_and_split"]["first_failure"] == {"n": bad_n, "reason": "roundtrip"}
    for key in ("recover_frac", "recover_nat", "times_sqrt_exact", "prefix_probe"):
        assert res[key]["failures"] == 0, key
    assert corrected_failures(report) == 1
    # the skipped n is not counted: n_max = 60 and lambda_n_max = 15
    assert res["recover_frac"]["checked"] == res["recover_nat"]["checked"] == 60
    assert res["times_sqrt_exact"]["checked"] == exact_checked


def test_pass_over_n_calls_encode_nat_below_the_split_only(monkeypatch):
    # the sweep calls encode_nat for n < q_J, q_8 = 153 at d = 3, and reads
    # the low digits of every later n from those encodings
    calls = []
    encode = ostrowski.encode_nat
    monkeypatch.setattr(ostrowski, "encode_nat", lambda n, cf: calls.append(n) or encode(n, cf))
    res = run_suite(SMALL.replace(d_list=(Fraction(3),), n_max=2000))["results"][0]
    assert res["roundtrip_and_split"] == {"checked": 2001, "failures": 0, "first_failure": None}
    assert calls == list(range(153))


def test_pass_over_n_descends_once_per_block(monkeypatch):
    # past q_8 = 153 at d = 3 the sweep descends once per block of n that share
    # their digits from J = 8 up, so once per distinct such string up to 2000
    cf = cfrac.expand(3, SMALL.depth)
    j = ostrowski._split_position(cf, cf.depth - cf.m)
    highs = {ostrowski.encode_nat(n, cf).digits[j:] for n in range(cf.q(j), 2001)}
    calls = []
    descend = ostrowski._descend

    def counted(digits, rem, k, stop, *rest):
        if stop:
            calls.append(rem)
        return descend(digits, rem, k, stop, *rest)

    monkeypatch.setattr(ostrowski, "_descend", counted)
    res = run_suite(SMALL.replace(d_list=(Fraction(3),), n_max=2000))["results"][0]
    assert res["roundtrip_and_split"] == {"checked": 2001, "failures": 0, "first_failure": None}
    assert len(calls) == len(highs) == 18


def test_a_fault_past_the_split_fails_its_block_in_the_roundtrip(monkeypatch):
    # up to 400 the descent above J = 8 starts blocks at 153, 209 and 362; one
    # more on 362's remainder puts the low digits of n + 1 on every n of its
    # block, which n_max cuts at the 39 n 362 .. 400, and only the roundtrip
    # sees them
    descend = ostrowski._descend

    def faulty(digits, rem, k, stop, *rest):
        return descend(digits, rem, k, stop, *rest) + (rem == 362 and stop > 0)

    monkeypatch.setattr(ostrowski, "_descend", faulty)
    res = run_suite(SMALL.replace(d_list=(Fraction(3),), n_max=400))["results"][0]
    assert "error" not in res, res["error"]
    assert res["roundtrip_and_split"] == {"checked": 401, "failures": 39,
                                          "first_failure": {"n": 362, "reason": "roundtrip"}}
    assert {key for key in SWEEP_KEYS if res[key]["failures"]} == {"roundtrip_and_split"}
    assert res["recover_frac"]["checked"] == res["recover_nat"]["checked"] == 362


def test_a_wrong_low_encoding_fails_every_n_that_reads_it(monkeypatch):
    # encode_nat(10) is the table entry of every n whose digits below J are
    # 10's: each of them fails the roundtrip, the first at n = 10
    cf = cfrac.expand(3, SMALL.depth)
    j = ostrowski._split_position(cf, cf.depth)

    def low(n):
        digits = ostrowski.encode_nat(n, cf).digits
        return (digits + (0,) * j)[:j]

    readers = [n for n in range(401) if low(n) == low(10)]
    assert readers[0] == 10 and len(readers) > 1
    encode = ostrowski.encode_nat
    monkeypatch.setattr(ostrowski, "encode_nat",
                        lambda n, cf: encode(n + 1 if n == 10 else n, cf))
    res = run_suite(SMALL.replace(d_list=(Fraction(3),), n_max=400))["results"][0]
    assert res["roundtrip_and_split"]["first_failure"] == {"n": 10, "reason": "roundtrip"}
    assert res["roundtrip_and_split"]["failures"] == len(readers)
    assert {key for key in SWEEP_KEYS if res[key]["failures"]} == {"roundtrip_and_split"}
    assert res["recover_frac"]["checked"] == 401 - len(readers)


PASS_KEYS = ("roundtrip_and_split", "recover_frac", "recover_nat", "times_sqrt_exact",
             "recovery_printed_fails_upto_50", "recovery_example")


def _both_passes(cf, sc, **config):
    """The PASS_KEYS entries of the block pass and of the per-n reference pass on
    one context each, or the (type, message) of the error each raised."""
    outs = []
    for run in (harness._pass_over_n, pass_over_n_per_n):
        ctx = SimpleNamespace(cf=cf, sc=sc, config=SuiteConfig(d_list=(cf.d,), **config), out={})
        try:
            run(ctx)
            harness._times_sqrt_exact(ctx)
        except (InvalidDigits, DepthExceeded) as exc:
            outs.append((type(exc), str(exc)))
            continue
        outs.append({key: ctx.out[key] for key in PASS_KEYS})
    return outs


@pytest.mark.parametrize("d", ALL_D, ids=str)
def test_block_pass_matches_the_per_n_reference(d):
    # the audit's expansion and config: counts, first failures, witnesses,
    # printed counts and the worked example as the per-n loop gives them
    cf = cfrac.expand(d, SuiteConfig().depth)
    cf = cf.at_least(3 * cf.m + 3)
    ours, want = _both_passes(cf, cfrac.derive_shift_constants(cf))
    assert ours == want
    assert ours["roundtrip_and_split"]["checked"] == min(10**4, cf.q(cf.depth - cf.m + 1) - 1) + 1


@pytest.mark.parametrize("d", CORRUPTED_TABLE_D, ids=str)
def test_block_pass_matches_the_per_n_reference_on_corrupted_tables(d):
    # every table of test_counter_errors_match_the_per_n_loop_on_corrupted_tables,
    # with the good table's constants, at two exact-product bounds: the same
    # entries, or the same error
    cf, sc, tables = corrupted_tables(d)
    seen = Counter()
    for bad in tables:
        for lambda_n_max in (1000, 20):
            ours, want = _both_passes(bad, sc, lambda_n_max=lambda_n_max)
            assert ours == want, (bad.conv_q, bad.period, lambda_n_max)
            seen["error" if type(ours) is tuple else
                 "fails" if any(ours[key]["failures"] for key in PASS_KEYS[:4]) else "holds"] += 1
    # at 13/4 the shift by m = 6 leaves only n = 0 inside the depth, and at 61 no n
    assert bool(seen["fails"]) == (cf.m < 6)


class _Watched(tuple):
    """A block's high digits, which note whether the pass read them: it reads
    them only where the block falls back to the per-n checks."""

    read = False

    def __getitem__(self, index):
        self.read = True
        return super().__getitem__(index)


@pytest.mark.parametrize("d", [2, 3], ids=str)
def test_block_pass_matches_the_per_n_reference_on_deep_corrupted_tables(monkeypatch, d):
    # deep enough that n_max = 2000 lies below q_{depth-m+1}, so blocks run past
    # q_J (J = 5 at d = 2, 8 at d = 3): one q_k that the low table reads (its
    # encodings up to q_J, its sums at k + m for k < J) moved by one, nonzero, or
    # one period entry.  The blocks read q_{J-1} up and add the entries' ints.
    # The same entries or the same error at two exact-product bounds, and some
    # blocks of the block pass pass whole, some fall back
    deep = cfrac.expand(d, 64)
    cf = cfrac.expand(d, next(k for k in range(64) if deep.q(k - deep.m + 1) > 2000))
    sc, m = cfrac.derive_shift_constants(cf), cf.m
    j = ostrowski._split_position(cf, cf.depth - m)
    tables = []
    for k in range(j + m + 1):  # conv_q[k] = q_{k-1}, up to q_{J-1+m}
        for step in (-1, 1):
            qs = list(cf.conv_q)
            qs[k] += step
            if qs[k] or k == 0:
                tables.append(cf.replace(conv_q=tuple(qs)))
    tables += [cf.replace(period=tuple(a + step * (i == k) for i, a in enumerate(cf.period)))
               for k in range(m) for step in (-1, 1)]
    real, sweeps = shiftcalc.natural_dots_upto, []  # per sweep, its blocks' high digits

    def watched(cf, sc, n_max):
        sweeps.append(highs := [])
        for item in real(cf, sc, n_max):
            if len(item) == 5:
                highs.append(_Watched(item[3]))
                item = (*item[:3], highs[-1], item[4])
            yield item

    monkeypatch.setattr(shiftcalc, "natural_dots_upto", watched)
    read = Counter()
    for bad in tables:
        for lambda_n_max in (1000, 20):
            sweeps.clear()
            ours, want = _both_passes(bad, sc, n_max=2000, lambda_n_max=lambda_n_max)
            assert ours == want, (bad.conv_q, bad.period, lambda_n_max)
            read.update(high.read for high in sweeps[0])  # the block pass's sweep
    assert read[True] and read[False]


def _with_item(monkeypatch, k, change):
    """The sweep with its k-th item replaced by change(cf, sc, *item)."""
    real = shiftcalc.natural_dots_upto

    def sweep(cf, sc, n_max):
        for i, item in enumerate(real(cf, sc, n_max)):
            yield change(cf, sc, *item) if i == k else item

    monkeypatch.setattr(shiftcalc, "natural_dots_upto", sweep)


# at d = 3 (J = 8, q_8 = 153) up to n = 400 the blocks start at 153 (digit 8 at
# its cap: room q_7 = 56), 209 (room 153) and 362 (cut at 400), so of the
# entries r = 56 .. 152 only the block at 209 reads r, at its interior n = 209 + r
D3 = cfrac.expand(3, SuiteConfig().depth)
SC3 = cfrac.derive_shift_constants(D3)


def test_an_entry_residual_fails_the_one_block_that_reads_it(monkeypatch):
    # entry 100's ya moved by one: a nonzero frac residual (and exact-product
    # one) at n = 100 and, through the prefix flag, at n = 309 inside 209 .. 361
    assert [item[:3] for item in shiftcalc.natural_dots_upto(D3, SC3, 400)
            if len(item) == 5] == [(153, 0, 56), (209, 0, 153), (362, 0, 39)]
    _with_item(monkeypatch, 100, lambda cf, sc, digits, ints: (
        digits, (ints[0], ints[1], ints[2] + 1, *ints[3:])))
    ours, want = _both_passes(D3, SC3, n_max=400)
    assert ours == want
    for key in ("recover_frac", "times_sqrt_exact"):
        assert ours[key]["failures"] == 2 and ours[key]["first_failure"]["n"] == 100
    frac = [n for n, (_, ints) in enumerate(natural_dots_per_n(D3, SC3, 400))
            if any(shiftcalc.frac_verdicts(D3, SC3, *ints[:4]))]
    assert frac == [100, 309]
    assert ours["roundtrip_and_split"]["failures"] == ours["recover_nat"]["failures"] == 0


@pytest.mark.parametrize("delta, failing", [
    # n + 1 with y moved by U^-1 sqrt(3) = -3 + 2 sqrt(3): the roundtrip's residual alone
    ((0, 1, -3, 2, 0, 0, 0), {"roundtrip_and_split"}),
    ((0, 0, 1, 0, 0, 0, 0), {"recover_frac", "times_sqrt_exact"}),
    ((0, 0, 0, 0, 0, 1, 0), {"recover_nat"}),
], ids=["fb", "ya", "w0"])
def test_a_block_residual_fails_every_n_of_its_block(monkeypatch, delta, failing):
    # the ints of the block at 209 (item 154, after 153 entries and the block at
    # 153) moved by delta: each of its 153 n fails
    assert SC3.unit_inverse == (2, -1, 1)

    def moved(cf, sc, n, rem, room, high, ints):
        assert (n, rem, room) == (209, 0, 153)
        return n, rem, room, high, tuple(map(add, ints, delta))

    _with_item(monkeypatch, 154, moved)
    ours, want = _both_passes(D3, SC3, n_max=400)
    assert ours == want
    assert {key for key in PASS_KEYS[:4] if ours[key]["failures"]} == failing
    for key in failing:
        assert ours[key]["failures"] == 153 and ours[key]["first_failure"]["n"] == 209


def test_a_one_n_block_decides_its_exact_product_itself(monkeypatch):
    # sqrt(1025) = [32; 64]: J = 1, and digit 1 at its cap a_2 = 64 leaves the
    # blocks at 4096 and 8193 room q_0 = 1, so entry 0 (all ints zero) is all
    # their table says.  A product kernel that reads ya + fb for ya, still
    # linear in the ints, fails at every n > 0 while frac recovery holds, and
    # at those two n only the block's own residual shows it
    cf = cfrac.expand(1025, SuiteConfig().depth)
    sc = cfrac.derive_shift_constants(cf)
    assert [item[:3] for item in shiftcalc.natural_dots_upto(cf, sc, 10**4)
            if len(item) == 5 and item[2] == 1] == [(4096, 0, 1), (8193, 0, 1)]
    real = shiftcalc.sqrt_product
    monkeypatch.setattr(shiftcalc, "sqrt_product",
                        lambda cf, sc, fa, fb, ya, yb: real(cf, sc, fa, fb, ya + fb, yb))
    ours, want = _both_passes(cf, sc, lambda_n_max=10**4)
    assert ours == want
    assert ours["times_sqrt_exact"]["failures"] == 10**4
    assert ours["recover_frac"]["failures"] == 0


@pytest.mark.parametrize("step", [1, -1], ids=["argmax", "argmin"])
def test_a_split_end_fails_a_block_whose_residuals_are_zero(monkeypatch, step):
    # entry 57 = q_7 + q_1 with step moved from q_1 to q_0 (q_0 = q_1 = 1 at
    # d = 3): the same n and every residual zero, but fa moved by step
    # (p_1 = p_0 + 1), so its beta-value lies past I, above it as the table's
    # argmax or below it as its argmin.  Its n = 57 and n = 266 inside
    # 209 .. 361 fail the split; the block's other end holds
    def moved(cf, sc, digits, ints):
        digits = (digits[0] + step, digits[1] - step, *digits[2:])
        return digits, shiftcalc._dots(cf, sc, digits)

    assert ostrowski.encode_nat(57, D3).digits == (0, 1, 0, 0, 0, 0, 0, 1)
    _with_item(monkeypatch, 57, moved)
    ours, want = _both_passes(D3, SC3, n_max=400)
    assert ours == want
    outside = "fractional part outside I"
    assert ours["roundtrip_and_split"] == {"checked": 401, "failures": 2,
                                          "first_failure": {"n": 57, "reason": outside}}
    assert all(ours[key]["failures"] == 0 for key in ("recover_frac", "recover_nat",
                                                      "times_sqrt_exact"))
    split = [n for n, (_, (fa, *_)) in enumerate(natural_dots_per_n(D3, SC3, 400))
             if D3.a0 - fa != isqrt((n + 1) ** 2 * 3)]
    assert split == [57, 266]


def per_n_reference(cf, sc, config):
    """The pass over n as a loop over the witness-building checks: the
    (failures, first_failure) of each sweep and the printed counts."""
    fails = {"recover_frac": [], "recover_nat": [], "times_sqrt_exact": []}
    printed = {"frac": 0, "nat": 0}
    for n in range(config.n_max + 1):
        x = ostrowski.encode_nat(n, cf)
        entries = {"frac": shiftcalc.check_recover_frac(x, sc),
                   "nat": shiftcalc.check_recover_nat(x, sc)}
        for kind, e in entries.items():
            if e.corrected != "holds":
                fails[f"recover_{kind}"].append(e.to_json())
            if n <= 50:
                printed[kind] += e.printed != "holds"
        if n <= config.lambda_n_max:
            prod = shiftcalc.times_sqrt_frac(x, sc)
            direct = cf.sqrt_d() * ostrowski.decode_real(x)
            if prod != direct:
                fails["times_sqrt_exact"].append({"n": n, "lhs": str(prod), "rhs": str(direct)})
    return {k: (len(v), v[0] if v else None) for k, v in fails.items()}, printed


@pytest.mark.parametrize("d", ["3", "7", "13/4"])
@pytest.mark.parametrize("field, i, delta, failing", [
    (None, 0, Fraction(1), ()),
    ("v", 1, Fraction(1, 2), ("recover_nat",)),
    ("w", 2, Fraction(-1, 3), ("recover_nat",)),
    ("ab", 1, Fraction(2), ("recover_frac", "times_sqrt_exact")),
    ("unit", 0, Fraction(1, 5), ("recover_frac", "times_sqrt_exact")),
])
def test_fused_pass_matches_per_n_checks(monkeypatch, d, field, i, delta, failing):
    config = SMALL.replace(d_list=(Fraction(d),), n_max=300, lambda_n_max=120,
                     lambda_samples=0)
    cf = cfrac.expand(Fraction(d), config.depth)
    cf = cf.at_least(3 * cf.m + 3)
    derive = cfrac.derive_shift_constants
    want, printed = per_n_reference(cf, corrupt(derive(cf), field, i, delta), config)
    monkeypatch.setattr(harness.cfrac, "derive_shift_constants",
                        lambda cf: corrupt(derive(cf), field, i, delta))
    calls = Counter()

    def spy(name):
        real = getattr(shiftcalc, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(shiftcalc, name, counted)

    for name in ("natural_dots", "check_recover_frac", "check_recover_nat", "times_sqrt_frac"):
        spy(name)
    res = run_suite(config)["results"][0]
    got = {k: (res[k]["failures"], res[k]["first_failure"]) for k in want}
    assert got == want
    assert res["recovery_printed_fails_upto_50"] == printed
    assert [k for k in want if want[k][0]] == list(failing)
    # the counter carries the ints from n to n+1; the witness builders run
    # for the worked example and each sweep's first failure only, and
    # natural_dots runs once inside each of them
    witnesses = {"check_recover_frac": 1 + ("recover_frac" in failing),
                 "check_recover_nat": 1 + ("recover_nat" in failing),
                 "times_sqrt_frac": int("times_sqrt_exact" in failing)}
    assert {k: calls[k] for k in witnesses} == witnesses
    assert calls["natural_dots"] == sum(witnesses.values())


def test_prefix_natural_computed_once_per_probe(monkeypatch):
    calls = Counter()
    prefix_nat = harness.shiftcalc.prefix_nat

    def spy(cf, l, c):
        calls[l, c] += 1
        return prefix_nat(cf, l, c)

    monkeypatch.setattr(harness.shiftcalc, "prefix_nat", spy)
    report = run_suite(SMALL.replace(d_list=(Fraction(3),)))
    res = report["results"][0]
    reads = res["class_probe"]["checked"] * (SMALL.class_l_max + 1)
    assert res["prefix_probe"]["failures"] == 0
    assert len(calls) == res["prefix_probe"]["checked"] + reads
    assert set(calls.values()) == {1}


SWEEP_KEYS = ("roundtrip_and_split", "recover_frac", "recover_nat", "uniqueness",
              "times_sqrt_exact", "times_sqrt_real", "prefix_probe", "class_probe")


def _fault(real, pick, wrong):
    """real, except that where pick(*args) holds it answers wrong(*args)."""
    return lambda *args, **kw: (wrong if pick(*args, **kw) else real)(*args, **kw)


def _stalled_counter(real):
    # the counter repeats n = 19's digits and dots at n = 20
    def counter(cf, sc, n_max):
        last = None
        for n, item in enumerate(real(cf, sc, n_max)):
            yield last if n == 20 else item
            last = item
    return counter


def _refuted(real):
    def refuted(*args):
        raise VerificationFailed("certified bound violated (seeded)")
    return _fault(real, lambda x, *rest: x > 50, refuted)


def _neighbour(real):
    # a prefix natural with the same digit at l, which prefix_digit cannot tell
    def neighbour(cf, l, c):
        n = real(cf, l, c)
        return n + 1 if (n + 1) // cf.q(l) == n // cf.q(l) else n - 1
    return _fault(real, lambda cf, l, c: l == 3, neighbour)


def _moved_window(real):
    # the lower end of the blocked window at position 3 moves by -beta_40,
    # far below what the 48-bit probe samples can see
    def moved(cf, n, blocked):
        (la, lb), hi = real(cf, n, blocked)
        return (la + cf.p(40), lb - cf.q(40)), hi
    return _fault(real, lambda cf, n, blocked: n == 3 and blocked, moved)


def test_prefix_oracle_rejects_windows_that_do_not_tile(monkeypatch):
    # the moved window is at level l = 2: the encoder and prefix_nat read
    # the same digits, but the tiling proof breaks
    monkeypatch.setattr(harness.ostrowski, "window_parts",
                        _moved_window(harness.ostrowski.window_parts))
    res = run_suite(SMALL.replace(d_list=(Fraction(3),)))["results"][0]
    probe = res["prefix_probe"]
    assert (probe["l_max"], probe["failures"]) == (4, 1)
    assert probe["first_failure"] == {"l": 2, "reason": "windows do not tile I"}


def test_prefix_oracle_catches_a_wrong_prefix_natural(monkeypatch):
    # the first read at l = 3 answers a neighbour with the same digit at l,
    # so only the oracle, not prefix_digit, can tell
    prefix_nat = harness.shiftcalc.prefix_nat
    wrong = []

    def spy(cf, l, c):
        n = prefix_nat(cf, l, c)
        if l == 3 and not wrong:
            bad = n + 1 if (n + 1) // cf.q(l) == n // cf.q(l) else n - 1
            wrong.append((str(c), n, bad))
            return bad
        return n

    monkeypatch.setattr(harness.shiftcalc, "prefix_nat", spy)
    res = run_suite(SMALL.replace(d_list=(Fraction(3),)))["results"][0]
    (c, right, bad), = wrong
    assert res["prefix_probe"]["failures"] == 1
    assert res["prefix_probe"]["first_failure"] == {"l": 3, "c": c, "got": bad, "oracle": [right]}


@pytest.mark.parametrize("d", (*harness.DEFAULT_D_LIST, *map(Fraction, (
    "991", "9949", "99991", "1000003/7", "1000001"))), ids=str)
def test_prefix_windows_run_in_alternating_digit_order(d):
    # beta_k has the sign (-1)^k, so the prefix probe takes the windows of
    # n < q_{l+1} in the order of the key (b_0, -b_1, b_2, ...); the exact
    # comparison of lower ends that once sorted them is the reference
    config = SuiteConfig()
    cf = cfrac.expand(d, config.depth)
    by_lower = cmp_to_key(lambda u, v: sign_sqrt(u[0] - v[0], u[1] - v[1], cf.dn, cf.dd))
    levels = [l for l in range(config.probe_l_max + 1) if cf.q(l + 1) <= config.probe_q_limit]
    strings = sorted(ostrowski.enumerate_valid(cf, len(levels)),
                     key=lambda s: [-b if k % 2 else b for k, b in enumerate(s)])
    for l in levels:
        lows = []
        for digits in strings:
            n = sum(b * cf.q(k) for k, b in enumerate(digits))
            if n < cf.q(l + 1):
                fa = -sum(b * cf.p(k) for k, b in enumerate(digits))
                (la, lb), _ = ostrowski.window_parts(cf, l + 1, blocked=digits[l] != 0)
                lows.append((fa + la, n + lb))
        assert len(lows) == cf.q(l + 1), (d, l)
        assert all(by_lower(u) < by_lower(v) for u, v in zip(lows, lows[1:])), (d, l)


# (kernel, fault built from the real function, the sweeps that must fail);
# each fault is seeded at one place and checked on d = 3 of SMALL
LOCALISED_FAULTS = [
    ("encode_nat", lambda real: _fault(
        real, lambda n, cf: n == 10, lambda n, cf: real(n + 1, cf)), {"roundtrip_and_split"}),
    ("natural_dots_upto", _stalled_counter, {"roundtrip_and_split"}),
    # the verdict kernels answer residuals, zero where their check holds
    ("frac_verdicts", lambda real: _fault(
        real, lambda cf, sc, fa, n, ya, yb: n == 20,
        lambda *args: (1, 0)), {"recover_frac"}),
    ("nat_verdicts", lambda real: _fault(
        real, lambda sc, n, v1, w0: n == 20,
        lambda *args: 1), {"recover_nat"}),
    # times_sqrt_real reads only the product, not the exactness residuals
    ("sqrt_product", lambda real: _fault(
        real, lambda cf, sc, fa, fb, ya, yb: fb == 7,
        lambda *args: ((0, 1), real(*args)[1])), {"times_sqrt_exact"}),
    # every c off the integer combinations of the betas loses its digits:
    # the times_sqrt_real inputs (denominator 9973) and the probe samples
    # (2^48) are such c, the class probe's witnesses are not
    ("encode_real", lambda real: _fault(
        real, lambda c, cf, depth: c.scaled()[2] > 1,
        lambda c, cf, depth: ostrowski.make_digits(cf, (), ostrowski.KIND_REAL)),
     {"times_sqrt_real", "prefix_probe"}),
    ("prefix_nat", _neighbour, {"prefix_probe"}),
    # the class probe reads its digits through prefix_digit too
    ("prefix_digit", lambda real: _fault(
        real, lambda cf, l, n: l == 2, lambda cf, l, n: real(cf, l, n) + 1),
     {"prefix_probe", "class_probe"}),
    ("window_parts", _moved_window, {"prefix_probe"}),
    ("times_sqrt_real", _refuted, {"times_sqrt_real"}),
    ("residue_class_probe", lambda real: _fault(
        real, lambda cf, j, n_mod, l_max: (j, n_mod) == (1, 3),
        lambda *args: (lambda v: (not v[0], *v[1:]))(real(*args))), {"class_probe"}),
    # the uniqueness sweep and the tiling oracle read one enumeration
    ("enumerate_valid", lambda real: _fault(
        real, lambda cf, length: True,
        lambda cf, length: (s for s in real(cf, length)
                            if sum(b * cf.q(k) for k, b in enumerate(s)) != 7)),
     {"uniqueness", "prefix_probe"}),
]


@pytest.mark.parametrize("kernel, fault, failing", LOCALISED_FAULTS,
                         ids=[row[0] for row in LOCALISED_FAULTS])
def test_one_fault_fails_only_its_sweeps(monkeypatch, kernel, fault, failing):
    real = getattr(ostrowski, kernel, None) or getattr(shiftcalc, kernel)
    faulty = fault(real)
    for module in (ostrowski, shiftcalc):  # and shiftcalc's imported copies
        if getattr(module, kernel, None) is real:
            monkeypatch.setattr(module, kernel, faulty)
    res = run_suite(SMALL.replace(d_list=(Fraction(3),)))["results"][0]
    assert "error" not in res, res["error"]
    assert {key for key in SWEEP_KEYS if res[key]["failures"]} == failing
    assert all(v["corrected"] == "holds" for v in res["identities"])


# fa + n*sqrt(d) is the fractional part of n*sqrt(d) in I, which has length
# 1, so fa +- 1 puts it outside I; fa also feeds the fractional recovery
# and the exact product (n = 10 <= lambda_n_max = 15), so those fail too,
# while the natural recovery reads only n and the roundtrip reads the digits
@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("d", ["3", "13/4"])
def test_fractional_part_outside_the_interval(monkeypatch, d, delta):
    real = shiftcalc.natural_dots_upto

    def counter(cf, sc, n_max):
        for n, (digits, (fa, *rest)) in enumerate(real(cf, sc, n_max)):
            yield digits, (fa + delta if n == 10 else fa, *rest)

    monkeypatch.setattr(shiftcalc, "natural_dots_upto", counter)
    res = run_suite(SMALL.replace(d_list=(Fraction(d),)))["results"][0]
    assert "error" not in res, res["error"]
    split = res["roundtrip_and_split"]
    assert split["failures"] == 1
    assert split["first_failure"] == {"n": 10, "reason": "fractional part outside I"}
    assert {key for key in SWEEP_KEYS if res[key]["failures"]} == {
        "roundtrip_and_split", "recover_frac", "times_sqrt_exact"}
    assert res["recover_frac"]["failures"] == res["times_sqrt_exact"]["failures"] == 1


@given(st.sampled_from([Fraction(x) for x in (2, 3, 7, 61, 99991, "3/2", "13/4", "32/9")]),
       st.integers(0, 10**12), st.sampled_from([-1, 0, 1]))
def test_split_floor_matches_in_window(cf_of, d, n, delta):
    # the pass over n's split test: A + n*sqrt(d) lies in I iff
    # a0 - A = floor((n+1) sqrt(d)) = isqrt((n+1)^2 dn dd) // dd; the digits
    # of n give the A in I, and A +- 1 lies outside
    cf = cf_of(d)
    fa = ostrowski.beta_parts(ostrowski.encode_nat(n, cf))[0] + delta
    floor_holds = cf.a0 - fa == isqrt((n + 1) ** 2 * d.numerator * d.denominator) // d.denominator
    in_i = ostrowski.in_window(cf, fa, n, 1, ostrowski.window_parts(cf, 0, blocked=True))
    assert floor_holds == in_i == (delta == 0)


def test_prefix_probe_stays_inside_a_shallow_expansion():
    # depth 1 grows to 3m+3 = 6 for d=2, and the probe stops at q_6 = 169
    # instead of reading q_9; the sweeps whose inputs need more record it
    res = run_suite(SMALL.replace(d_list=(Fraction(2),), depth=1, probe_l_max=8))["results"][0]
    assert "error" not in res and res["depth"] == 6
    assert (res["prefix_probe"]["l_max"], res["prefix_probe"]["failures"]) == (5, 0)
    assert res["class_probe"] == {
        "checked": 0, "failures": 1,
        "first_failure": {"error": "DepthExceeded: need depth 11, have 6"},
    }
    assert res["times_sqrt_real"]["first_failure"] == {
        "error": "DepthExceeded: eps=1/1000000000 needs more than 6 digit positions"
    }


def test_suite_rejects_bad_radicands():
    # the config checks its radicands when it is built, before any run
    with pytest.raises(RationalSquare, match="^radicand 4 is a rational square$"):
        SuiteConfig(d_list=(Fraction(3), Fraction(4)))
    with pytest.raises(RationalSquare):
        SuiteConfig(d_list=(Fraction(4),))
    with pytest.raises(UnsupportedRadicand, match="^d must exceed 1, got 1/2; use normalize_d$"):
        SuiteConfig(d_list=(Fraction(1, 2),))


def test_config_built_from_python_checks_integer_fields():
    # the same check and message whether the config comes from Python or
    # from JSON (where null keeps the default, so depth=None is Python only)
    for field, value in [("n_max", 5.9), ("n_max", True), ("seed", "x"),
                         ("identity_k_max", 1.0), ("depth", None)]:
        msg = f"config field {field!r} must be an integer, got {value!r}"
        with pytest.raises(ValueError) as built:
            SuiteConfig(**{field: value})
        assert str(built.value) == msg
        if value is not None:
            with pytest.raises(ValueError) as parsed:
                config_from_json({field: value})
            assert str(parsed.value) == msg
    assert SuiteConfig(seed=-1).seed == -1  # the seed alone may be negative
    assert SuiteConfig(identity_k_max=None) == SuiteConfig()


def test_config_built_from_python_checks_eps_type():
    # a float eps would certify against its binary value, not the rational
    # it reads as; JSON and the CLI parse eps from its text, so they never
    # pass one, and a float there still means its decimal text
    for value in (0.1, "1/10", True):
        with pytest.raises(ValueError) as built:
            SuiteConfig(eps=value)
        assert str(built.value) == f"config field 'eps' must be a rational, got {value!r}"
    assert SuiteConfig(eps=Fraction(1, 10)).to_json()["eps"] == "1/10"
    assert SuiteConfig(eps=1).to_json()["eps"] == 1  # an int builds and prints as before
    assert config_from_json({"eps": 0.1}).eps == Fraction(1, 10)
    assert config_from_json({"eps": "1/10"}).eps == Fraction(1, 10)


def test_config_from_json_names_a_bad_rational():
    # eps and each d_list entry are parsed from their text; one that is no
    # rational is reported by its field, as the integer fields are
    for blob, field, value in [({"eps": float("nan")}, "eps", float("nan")),
                               ({"eps": [1]}, "eps", [1]), ({"eps": "1/"}, "eps", "1/"),
                               ({"eps": "inf"}, "eps", "inf"),
                               ({"d_list": [3, "x"]}, "d_list[1]", "x"),
                               ({"d_list": ["nan", 2]}, "d_list[0]", "nan")]:
        with pytest.raises(ValueError) as bad:
            config_from_json(blob)
        assert str(bad.value) == f"config field {field!r} must be a rational, got {value!r}"
    # a zero denominator keeps the message it has wherever a rational is read
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0' \(config field 'eps'\)$"):
        config_from_json({"eps": "1/0"})
    with pytest.raises(ValueError,
                       match=r"^zero denominator in '2/0' \(config field 'd_list\[1\]'\)$"):
        config_from_json({"d_list": [3, "2/0"]})
    assert config_from_json({"d_list": ["3/2", 7], "eps": "1e-9"}) == SuiteConfig(
        d_list=(Fraction(3, 2), Fraction(7)), eps=Fraction(1, 10**9))


def test_corrupted_constants_are_counted_not_raised(monkeypatch):
    derive = harness.cfrac.derive_shift_constants

    def corrupted(cf):
        sc = derive(cf)
        return sc.replace(unit=sc.unit + 1)

    monkeypatch.setattr(harness.cfrac, "derive_shift_constants", corrupted)
    report = run_suite(SMALL.replace(d_list=(Fraction(3),)))
    res = report["results"][0]
    assert "error" not in res
    exact = res["times_sqrt_exact"]
    assert exact["checked"] == SMALL.lambda_n_max + 1
    assert exact["failures"] > 0
    assert set(exact["first_failure"]) == {"n", "lhs", "rhs"}
    assert exact["first_failure"]["lhs"] != exact["first_failure"]["rhs"]
    real = res["times_sqrt_real"]
    assert real["checked"] == SMALL.lambda_samples
    assert real["failures"] > 0
    assert set(real["first_failure"]) == {"x", "error"}
    assert corrected_failures(report) > 0


def test_unexpected_error_is_recorded_per_radicand(monkeypatch, small_report):
    # a DepthExceeded fails one sweep only in a stage that writes one; the
    # recovery stage writes three, so there it fails the radicand
    for kernel, exc in (("residue_class_probe", ZeroDivisionError("injected")),
                        ("natural_dots_upto", DepthExceeded("injected"))):
        real = getattr(harness.shiftcalc, kernel)

        def broken(cf, *args):
            if cf.d == 3:
                raise exc
            return real(cf, *args)

        with monkeypatch.context() as patch:
            patch.setattr(harness.shiftcalc, kernel, broken)
            report = run_suite(SMALL)
        bad, good = report["results"]
        assert bad == {"d": "3", "error": f"{type(exc).__name__}: injected"}, kernel
        timing = ("stages", "elapsed_s")
        want = {k: v for k, v in small_report["results"][1].items() if k not in timing}
        assert {k: v for k, v in good.items() if k not in timing} == want
        assert corrected_failures(report) == 1


def test_an_error_without_a_message_is_recorded_by_its_type_name(tmp_path, monkeypatch,
                                                                 capsys, small_report):
    # MemoryError() has an empty message: the entry names the type alone,
    # with no ": " after it, in every format
    def uniqueness(ctx):
        if ctx.cf.d == 3:
            raise MemoryError()
        return stage(ctx)

    ((_, stage, keys),) = [row for row in harness._TABLE if row[0] == "uniqueness"]
    monkeypatch.setattr(harness, "_TABLE", tuple(
        ("uniqueness", uniqueness, keys) if row[0] == "uniqueness" else row
        for row in harness._TABLE))
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL.to_json()))
    out = {}
    for fmt in ("json", "text", "tsv"):
        assert cli.main(["audit", "--config", str(cfg), "--format", fmt]) == 1
        out[fmt] = capsys.readouterr().out
    bad, good = json.loads(out["json"])["results"]
    assert bad == {"d": "3", "error": "MemoryError"}
    timing = ("stages", "elapsed_s")
    want = {k: v for k, v in small_report["results"][1].items() if k not in timing}
    assert {k: v for k, v in good.items() if k not in timing} == want
    assert out["text"].splitlines()[0] == "d=3: ERROR MemoryError"
    good_rows = render_tsv({"results": small_report["results"][1:]}).splitlines()
    assert out["tsv"].splitlines() == [good_rows[0], "3\terror\t-\t-\tMemoryError", *good_rows[1:]]


def test_small_audit_under_optimize(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL.to_json()))
    src = str(Path(ostro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ostro", "audit", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "corrected failures: 0" in proc.stdout


def test_stage_timings(small_report):
    for res in small_report["results"]:
        assert list(res["stages"]) == list(STAGES)
        assert all(v >= 0 for v in res["stages"].values())
    total = small_report["summary"]["stages"]
    assert list(total) == list(STAGES)
    for k in STAGES:
        expected = sum(r["stages"][k] for r in small_report["results"])
        assert abs(total[k] - expected) < 1e-9
    lines = [ln for ln in render_text(small_report).splitlines() if ln.startswith("stages: ")]
    assert len(lines) == 1 and all(k in lines[0] for k in STAGES)


def test_library_has_no_bare_asserts():
    # checks in library code must survive python -O; every module is parsed
    paths = sorted(Path(ostro.__file__).resolve().parent.rglob("*.py"))
    assert {"cfrac.py", "cli.py", "harness.py", "ostrowski.py", "qfield.py",
            "shiftcalc.py"} <= {path.name for path in paths}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _expand_calls(tree):
    """(enclosing function, depth argument) of every call to an `expand`."""
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so the innermost def wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, fn.name) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == "expand" or getattr(f, "attr", None) == "expand":
                depth = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "depth"), None)
                yield owner.get(node, "<module>"), depth and ast.unparse(depth)


def test_expand_only_at_requested_depths():
    # outside cfrac, expand is called only with a depth the user asked
    # for, or less where a command reads less; every need that follows
    # from the period goes through CFData.at_least, so the depth rule
    # cannot leak into another module
    pkg = Path(ostro.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "cfrac.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.stem, *call) for call in _expand_calls(tree)]
        if path.name != "__init__.py":
            assert not [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                        for a in node.names if a.name == "expand"], path.name
    assert sorted(found) == [
        ("cli", "_expand", "min(_effective_depth(args.depth), max(1, need))"),
        ("harness", "audit_one", "config.depth"),
    ]


@pytest.mark.parametrize("args", [[], ["--d", "991", "--n", "7"]])
def test_worked_example_script(args):
    # 991 has period 60, so the script must expand past its default depth
    script = Path(__file__).resolve().parent.parent / "scripts" / "worked_example.py"
    proc = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "corrected:fails" not in proc.stdout


def test_benchmark_traced_names_resolve():
    # the traced benchmark run wraps these functions by name, so each
    # must stay importable even when no production path calls it
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    assert traced
    for mod, attr in traced:
        obj = importlib.import_module(f"ostro.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod, attr)
