"""Command line interface.

Subcommands:
    cf          expand sqrt(d): period, convergents, fundamental unit
    encode      encode a natural number (or an interval value) as digits
    decode      decode a digit string back to a natural number
    mul         multiply a nonnegative value by sqrt(d), certified to eps
    constants   derive and print the digit-shift constants
    audit       run the full verification suite and emit a report

Every command prints one object, as text or (--format json) as JSON;
--output writes exactly what stdout would show to a file instead.

Exit codes:
    0  success
    1  a corrected-form check failed
    2  bad input (square d, malformed digits, malformed config)
    3  an input needs more than --depth (eps digits, decode or encode
       --digits past it), or a depth or period bound is exceeded
    4  domain error (value outside the fundamental interval, negative x)

The environment variable OSTRO_MAX_DEPTH, when set, caps the expansion
depth accepted from flags or config files.  The depth the period needs
(2t+2, 3m+3, the m-shift of mul) grows on demand and is not counted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import cfrac, harness, ostrowski, shiftcalc
from .errors import (
    DepthExceeded,
    InvalidDigits,
    OstroError,
    OutOfDomain,
    OutOfInterval,
    RationalSquare,
    UnsupportedRadicand,
)
from .qfield import parse_quad, parse_rat

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DEPTH = 3
EXIT_DOMAIN = 4


def _effective_depth(requested: int) -> int:
    """The requested depth, checked against OSTRO_MAX_DEPTH when it is set."""
    raw = os.environ.get("OSTRO_MAX_DEPTH")
    if raw is None:
        return requested
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"OSTRO_MAX_DEPTH must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError("OSTRO_MAX_DEPTH must be positive")
    if requested > cap:
        raise DepthExceeded(f"requested depth {requested} exceeds OSTRO_MAX_DEPTH={cap}")
    return requested


def _emit(args, data, text: str, code: int = EXIT_OK) -> int:
    """Print data as JSON under --format json, else text, to --output or
    stdout; return the exit code."""
    out = json.dumps(data, indent=2) if args.format == "json" else text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            print(out, file=fh)
    else:
        print(out)
    return code


def _expand(args) -> cfrac.CFData:
    d = parse_rat(args.d)
    return cfrac.expand(d, _effective_depth(args.depth))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cf(args) -> int:
    cf = _expand(args)
    data = {
        "d": str(cf.d),
        "a0": cf.a0,
        "period": list(cf.period),
        "m": cf.m,
        "s_max": cf.s_max,
        "depth": cf.depth,
        "convergents": [
            {"k": k, "p": cf.p(k), "q": cf.q(k)} for k in range(min(cf.depth, 12))
        ],
        "unit": str(cfrac.fundamental_unit(cf)),
        "normalized": [str(v) for v in cfrac.normalize_d(cf.d)],
    }
    text = "\n".join([
        f"d = {data['d']}",
        f"a0 = {cf.a0}",
        f"period = {data['period']}  (length m = {cf.m})",
        f"largest digit bound s_max = {cf.s_max}",
        *(f"  p_{c['k']}/q_{c['k']} = {c['p']}/{c['q']}" for c in data["convergents"]),
        f"unit = {data['unit']}",
        "normalized radicand = {} (scale {})".format(*data["normalized"]),
    ])
    return _emit(args, data, text)


def cmd_encode(args) -> int:
    cf = _expand(args)
    text = args.value.strip()
    try:
        n = int(text)
    except ValueError:
        x = ostrowski.encode_real(parse_quad(text, cf.d), cf, args.digits)
    else:
        if n < 0:
            raise OutOfDomain("naturals to encode must be nonnegative")
        x = ostrowski.encode_nat(n, cf)
    return _emit(args, {"d": str(cf.d), "kind": x.kind, "digits": list(x.digits)}, str(x))


def cmd_decode(args) -> int:
    digits, d_tag = ostrowski.parse_digit_text(args.digits)
    d_flag = parse_rat(args.d) if args.d else None
    if d_tag is not None and d_flag is not None and d_tag != d_flag:
        raise ValueError(f"--d {d_flag} disagrees with the @d={d_tag} suffix")
    d = d_tag if d_tag is not None else d_flag
    if d is None:
        if digits:
            raise ValueError("no radicand: pass --d or use the @d= suffix")
        data, text = {"d": None, "value": "0"}, "0"  # the empty string is zero over any radicand
    else:
        cf = cfrac.expand(d, _effective_depth(args.depth))
        kind = ostrowski.KIND_REAL if args.real else ostrowski.KIND_NAT
        x = ostrowski.make_digits(cf, digits, kind)
        value = ostrowski.decode_real(x) if args.real else ostrowski.decode_nat(x)
        data = {"d": str(d), "value": str(value)}
        text = data["value"]
        if args.real:
            data["decimal"] = str(value.approx(40))
            text = f"{text} = {value.approx(30)}"
    return _emit(args, data, text)


def cmd_mul(args) -> int:
    cf = _expand(args)
    sc = cfrac.derive_shift_constants(cf)
    eps = parse_rat(args.eps)
    x = parse_quad(args.x, cf.d)
    result = shiftcalc.times_sqrt_real(x, eps, cf, sc)
    data = {
        "d": str(cf.d),
        "x": str(x),
        "eps": str(eps),
        "result": str(result),
        "decimal": str(result.approx(40)),
    }
    text = "sqrt({d}) * ({x}) = {result}\n  ~ {decimal}\n  certified |error| < {eps}"
    return _emit(args, data, text.format(**data))


def cmd_constants(args) -> int:
    data = cfrac.derive_shift_constants(_expand(args)).to_json()
    text = "\n".join([
        f"d = {data['d']}",
        f"t = {data['t']}",
        f"v = ({', '.join(data['v'])})",
        f"w = ({', '.join(data['w'])})",
        f"unit = {data['U']}",
        f"a = {data['a']}, b = {data['b']}, a^2*d - b^2 = {data['pell_norm']}",
    ])
    return _emit(args, data, text)


def cmd_audit(args) -> int:
    data: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        harness.config_from_json(data)  # a bad field is bad input even where a flag overrides it
    flags = {"d_list": None if args.d is None else args.d.split(","), "depth": args.depth,
             "n_max": args.n_max, "eps": args.eps, "seed": args.seed}
    config = harness.config_from_json({**data, **{k: v for k, v in flags.items() if v is not None}})
    _effective_depth(config.depth)

    report = harness.run_suite(config)
    render = harness.render_tsv if args.format == "tsv" else harness.render_text
    failed = report["summary"]["corrected_failures"]
    return _emit(args, report, render(report), EXIT_CHECK_FAILED if failed else EXIT_OK)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: parse_args keeps no state, defaults are immutable
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostro",
        description="Continued fractions of sqrt(d), Ostrowski digits, and "
        "certified multiplication by sqrt(d) on representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_d=True):
        if need_d:
            p.add_argument("--d", required=True, help="radicand (rational, > 1, non-square)")
        p.add_argument("--depth", type=int, default=cfrac.DEFAULT_DEPTH,
                       help="expansion depth (default %(default)s)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write to file instead of stdout")

    p = sub.add_parser("cf", help="expand sqrt(d)")
    add_common(p)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("encode", help="encode a natural or interval value")
    add_common(p)
    p.add_argument("value", help="natural number, or a value like '1/3-...' in the interval")
    p.add_argument("--digits", type=int, default=24,
                   help="digit count for interval values (default %(default)s)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a digit string")
    add_common(p, need_d=False)
    p.add_argument("digits", help="comma separated digits, e.g. '0,1,0,1@d=3'")
    p.add_argument("--d", help="radicand (needed when no @d= suffix)")
    p.add_argument("--real", action="store_true",
                   help="decode on the beta scale instead of as a natural")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("mul", help="multiply by sqrt(d) with a certified bound")
    add_common(p)
    p.add_argument("--x", required=True, help="nonnegative value, e.g. 7/5 or '1+1/2*sqrt(3)'")
    p.add_argument("--eps", default="1e-9", help="certified accuracy (default %(default)s)")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("constants", help="derive the digit-shift constants")
    add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("audit", help="run the verification suite")
    p.add_argument("--d", help="comma separated radicands (default: built-in suite)")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    p.add_argument("--output", help="write the report to a file")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values print at any length
    try:
        return args.func(args)
    except (RationalSquare, UnsupportedRadicand, InvalidDigits, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # json.JSONDecodeError is a ValueError
        return EXIT_BAD_INPUT
    except DepthExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEPTH
    except (OutOfDomain, OutOfInterval) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OstroError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    finally:
        sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
