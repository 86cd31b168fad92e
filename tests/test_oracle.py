"""The CLI against the benchmark's independent reference.

perfbench/reference.py expands sqrt(d), encodes digits and decides signs
in plain integers and Fractions without importing ostro.  It is loaded by
file path under a private name (a top-level ``reference`` module would
collide with other test paths), and hypothesis draws derandomized,
bounded inputs: non-square radicands num/den with num <= 10^6 and
den <= 50, so long periods and rational radicands are included.  Every
command runs through cli.main with --format json, at default flags where
the command allows it, so the expansion grows on demand as in use.

The benchmark's audit workloads fail any radicand whose verdict
projection (perfbench/workloads.py, loaded the same way) differs from
perfbench/golden.json; the same check runs here on both audit subsets
at the default SuiteConfig.

The argv-grammar fuzz at the end draws only bad input: bad radicands,
squares and zero denominators, negative and huge naturals, malformed
values and digit strings, eps <= 0, and depths past OSTRO_MAX_DEPTH.  Each
must exit 2, 3 or 4 with an ``error:`` line last on stderr and no
traceback; exit 1 (a failed check) would be a defect.
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostro import SuiteConfig, run_suite
from ostro.cfrac import MAX_PERIOD
from ostro.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(stem: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_perfbench("reference")
with mock.patch.dict(sys.modules, {"reference": ref}):  # workloads imports it by that name
    workloads = _load_perfbench("workloads")

EXAMPLES = settings(derandomize=True, max_examples=50, deadline=None)


def _non_square_above_one(d: Fraction) -> bool:
    big_d = d.numerator * d.denominator  # a square iff d is, as the fraction is reduced
    return d > 1 and math.isqrt(big_d) ** 2 != big_d


radicands = st.builds(Fraction, st.integers(2, 10**6), st.integers(1, 50)).filter(
    _non_square_above_one)

_QUAD = re.compile(r"^(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)\*sqrt\((.+)\)$")


def parse_quad(text: str, d: Fraction) -> tuple[Fraction, Fraction]:
    """(a, b) of the printed a+b*sqrt(d)."""
    m = _QUAD.match(text)
    assert m and Fraction(m.group(4)) == d, text
    b = Fraction(m.group(3))
    return Fraction(m.group(1)), -b if m.group(2) == "-" else b


def cli(cmd: str, *args: str) -> tuple[int, dict | None, str]:
    """cli.main([cmd, --format json, *args]): exit code, parsed stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cmd, "--format", "json", *args])
    return code, json.loads(out.getvalue()) if code == 0 else None, err.getvalue()


def expansion(d: Fraction) -> "ref.Expansion":
    e = ref.Expansion(d, 1)
    e.extend(max(12, e.m))
    return e


@EXAMPLES
@given(radicands)
def test_cf_and_constants_match_the_reference(d):
    e, ds = expansion(d), str(d)
    code, data, err = cli("cf", "--d", ds)
    if e.m > MAX_PERIOD:
        assert code == 3 and err.startswith("error: period of sqrt("), err
        return
    assert code == 0, err
    assert (data["a0"], data["period"], data["m"]) == (e.a0, e.period, e.m)
    assert [(c["k"], c["p"], c["q"]) for c in data["convergents"]] == [
        (k, e.p[k + 1], e.q[k + 1]) for k in range(12)]
    assert parse_quad(data["unit"], d) == (e.p[e.m], e.q[e.m])  # p_{m-1} + q_{m-1} sqrt(d)

    code, sc, err = cli("constants", "--d", ds)
    assert code == 0, err
    assert sc["t"] == e.t
    assert e.constants_hold([Fraction(v) for v in sc["v"]], [Fraction(w) for w in sc["w"]])
    a, b = e.q[e.m], e.p[e.m]
    assert (sc["a"], sc["b"], Fraction(sc["pell_norm"])) == (a, b, a * a * d - b * b)


@EXAMPLES
@given(radicands, st.integers(0, 10**6 - 1), st.booleans(), st.integers(1, 60))
def test_interval_encode_is_the_certified_prefix(d, u, irrational, length):
    e, ds = expansion(d), str(d)
    u = Fraction(u, 10**6)
    if irrational:  # a0 + u - sqrt(d), u in [0, 1), lies in I
        c, text = (e.a0 + u, Fraction(-1)), f"{e.a0 + u}-sqrt({ds})"
    else:  # I = [-theta, 1 - theta), theta = sqrt(d) - a0 in (0, 1)
        c = (u if e.in_interval(u, Fraction(0)) else u - 1, Fraction(0))
        text = f"{c[0].numerator}/{c[0].denominator}"  # "0" would be the natural 0
    code, data, err = cli("encode", "--d", ds, "--digits", str(length), "--", text)
    assert code == 0, err
    assert (data["d"], data["kind"]) == (ds, "real")
    assert e.real_digits_certified(c, data["digits"], length)


@EXAMPLES
@given(radicands, st.integers(0, 10**12))
def test_natural_encode_and_decode_match_the_reference(d, n):
    e, ds = expansion(d), str(d)
    code, data, err = cli("encode", "--d", ds, str(n))
    assert code == 0, err
    assert (data["kind"], data["digits"]) == ("natural", e.nat_digits(n))
    code, back, err = cli("decode", "--d", ds, ",".join(map(str, data["digits"])))
    assert code == 0, err
    assert back["value"] == str(n)


@EXAMPLES
@given(radicands, st.integers(0, 10**6), st.integers(1, 10**4), st.integers(0, 50),
       st.integers(1, 99), st.integers(9, 40))
def test_mul_is_within_eps_of_the_product(d, num, den, irr, mantissa, exponent):
    e, ds = expansion(d), str(d)
    x = (Fraction(num, den), Fraction(irr, 7))
    eps = Fraction(mantissa, 10 ** (exponent + 1))
    argv = ["--d", ds, "--x", f"{x[0]}+{x[1]}*sqrt({ds})", "--eps", str(eps),
            "--depth", str(max(64, e.depth_for_eps(eps)))]
    code, data, err = cli("mul", *argv)
    assert code == 0, err
    ra, rb = parse_quad(data["result"], d)
    # result - sqrt(d) x, with sqrt(d) (xa + xb sqrt(d)) = xb d + xa sqrt(d)
    ea, eb = ra - x[1] * d, rb - x[0]
    assert ref.sign(ea - eps, eb, d) < 0 < ref.sign(ea + eps, eb, d)


# ---------------------------------------------------------------------------
# argv grammar: every bad input gets its documented exit code
# ---------------------------------------------------------------------------

FUZZ = settings(derandomize=True, max_examples=300, deadline=None)

small_d = st.builds(Fraction, st.integers(2, 1000), st.integers(1, 10)).filter(
    _non_square_above_one).map(str)
squares = st.one_of(
    st.integers(1, 1000).map(lambda k: str(k * k)),
    st.builds(lambda a, b: str(Fraction(a * a, b * b)), st.integers(1, 100), st.integers(1, 100)),
)
bad_d = st.one_of(
    squares,
    st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000)).filter(
        lambda d: d <= 1).map(str),  # not above 1 (1 itself is a square)
    st.builds(lambda n: f"{n}/0", st.integers(-1000, 1000)),  # zero denominator
    st.sampled_from(["", "abc", "3/", "/3", "3//4", "nan", "inf", "-inf", "1e", "0x10",
                     "3.5.1", "sqrt(3)", "2 3", "1/-2"]),
)
bad_digits = st.one_of(
    st.sampled_from(["1,,2", "a", "1;2", "1@x=3", "1@d=", "1 2", "0,1@", ",", "1.5",
                     "1,2@d=3@d=3", "0,1@d=3/0", "0,1@d=4"]),
    st.lists(st.integers(1, 50), min_size=1).map(lambda ds: ",".join(map(str, ds)) + "@d=3"),
    st.lists(st.integers(-50, -1), min_size=1).map(lambda ds: ",".join(map(str, ds)) + "@d=3"),
)
bad_quad = st.one_of(
    st.sampled_from(["1/2/3", "sqrt(3)+1", "abc", "1+2", "1+sqrt(5)", "1+1*sqrt(4)", "1*sqrt(3)2",
                     "1/0", "1+1/0*sqrt(3)", ""]),
    # outside I = [1 - sqrt(3), 2 - sqrt(3)): exit 4 from encode
    st.builds(lambda a, b: f"{a}+{b}*sqrt(3)", st.integers(-10**6, -3), st.integers(0, 1)),
)
non_positive_eps = st.one_of(st.just("0"), st.builds(lambda n, k: f"-{n}/{k}",
                                                     st.integers(1, 10**6), st.integers(1, 99)))


@pytest.mark.parametrize("d", workloads.AUDIT_DEFAULT_SUBSET + workloads.AUDIT_LONG_SUBSET)
def test_audit_matches_the_benchmark_golden_file(d):
    # the audit workloads' correctness gate: an item whose verdict
    # projection differs from perfbench/golden.json fails
    report = run_suite(SuiteConfig(d_list=(Fraction(d),)))
    assert report["summary"]["corrected_failures"] == 0
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    assert workloads.project(report["results"][0]) == golden[d]


def _case(argv, cap=10_000):
    return argv, cap


def _depth_past_cap():
    """(argv, cap): a command asking for a depth past OSTRO_MAX_DEPTH."""
    cmd = st.sampled_from([["cf", "--d", "3"], ["constants", "--d", "3"],
                           ["encode", "--d", "3", "5"], ["mul", "--d", "3", "--x", "7/5"],
                           ["decode", "0,1@d=3"], ["audit", "--d", "3"]])
    return st.integers(1, 5000).flatmap(lambda cap: st.builds(
        lambda c, depth: (c + ["--depth", str(depth)], cap), cmd, st.integers(cap + 1, 10**9)))


argv_cases = st.one_of(
    # radicands: squares, <= 1, zero denominators, malformed text
    st.builds(lambda c, d: _case([c, f"--d={d}"]), st.sampled_from(["cf", "constants"]), bad_d),
    st.builds(lambda d: _case(["mul", f"--d={d}", "--x", "1"]), bad_d),
    st.builds(lambda d: _case(["encode", f"--d={d}", "5"]), bad_d),
    st.builds(lambda d: _case(["decode", f"--d={d}", "0,1"]), bad_d),
    st.builds(lambda d: _case(["decode", f"0,1@d={d}"]), bad_d),
    st.builds(lambda d: _case(["audit", f"--d={d}"]), bad_d),
    # naturals: negative (exit 4) and past q_depth (exit 3); bad digit counts
    st.builds(lambda d, n: _case(["encode", "--d", d, "--", str(n)]), small_d,
              st.integers(-10**30, -1)),
    st.builds(lambda d, n: _case(["encode", "--d", d, str(n)]), small_d,
              st.integers(10**300, 10**320)),
    st.builds(lambda d, k: _case(["encode", "--d", d, "--digits", str(k), "--",
                                  f"1/2-1/2*sqrt({d})"]),
              small_d, st.one_of(st.integers(-10**6, -1), st.integers(65, 10**6))),
    # malformed values and digit strings
    st.builds(lambda x: _case(["encode", "--d", "3", "--", x]), bad_quad),
    st.builds(lambda x: _case(["mul", "--d", "3", "--x", x]), bad_quad),
    st.builds(lambda s, real: _case(["decode", *(["--real"] if real else []), "--", s]),
              bad_digits, st.booleans()),
    st.builds(lambda k: _case(["decode", "--depth", "10", ",".join(["0"] * k + ["1"]) + "@d=3"]),
              st.integers(11, 60)),
    # eps <= 0 and eps past the depth
    st.builds(lambda d, e: _case(["mul", "--d", d, "--x", "7/5", "--eps", e]), small_d,
              non_positive_eps),
    st.builds(lambda d, k: _case(["mul", "--d", d, "--x", "7/5", "--eps", f"1e-{k}"]), small_d,
              st.integers(200, 400)),
    st.builds(lambda e: _case(["audit", "--d", "3", "--eps", e]), non_positive_eps),
    # audit counts and depths
    st.builds(lambda flag, n: _case(["audit", "--d", "3", flag, str(n)]),
              st.sampled_from(["--n-max", "--depth"]), st.integers(-10**6, 0).filter(
                  lambda n: n < 0)),
    st.builds(lambda c, depth: _case([c, "--d", "3", "--depth", str(depth)]),
              st.sampled_from(["cf", "constants", "encode", "mul"]), st.integers(-10**6, 0)),
    # depth past OSTRO_MAX_DEPTH, and a non-integer cap
    _depth_past_cap(),
    st.builds(lambda raw: (["cf", "--d", "3"], raw), st.sampled_from(["x", "1.5", "", "0", "-3"])),
)


@contextlib.contextmanager
def _max_depth(cap):
    old = os.environ.get("OSTRO_MAX_DEPTH")
    os.environ["OSTRO_MAX_DEPTH"] = str(cap)
    try:
        yield
    finally:
        if old is None:
            del os.environ["OSTRO_MAX_DEPTH"]
        else:
            os.environ["OSTRO_MAX_DEPTH"] = old


@FUZZ
@given(argv_cases)
def test_bad_argv_exits_with_its_documented_code(case):
    argv, cap = case
    out, err = io.StringIO(), io.StringIO()
    with _max_depth(cap), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the grammar itself
            code = exc.code
    text = err.getvalue()
    assert code in (2, 3, 4), (argv, cap, code, text)
    assert "Traceback" not in text
    last = text.rstrip("\n").splitlines()[-1]
    assert last.startswith("error: ") or re.match(r"ostro \w+: error: ", last), (argv, text)
