"""The CLI against the benchmark's independent reference.

perfbench/reference.py expands sqrt(d), encodes digits and decides signs
in plain integers and Fractions without importing ostro.  It is loaded by
file path under a private name (a top-level ``reference`` module would
collide with other test paths), and hypothesis draws derandomized,
bounded inputs: non-square radicands num/den with num <= 10^6 and
den <= 50, so long periods and rational radicands are included.  Every
command runs through cli.main with --format json, at default flags where
the command allows it, so the expansion grows on demand as in use.
"""

import contextlib
import importlib.util
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ostro.cfrac import MAX_PERIOD
from ostro.cli import main

_spec = importlib.util.spec_from_file_location(
    "_perfbench_reference", Path(__file__).resolve().parent.parent / "perfbench" / "reference.py")
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

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
