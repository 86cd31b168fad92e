"""Command line interface.

Subcommands:
    cf          expand sqrt(d): period, convergents, fundamental unit
    encode      encode a natural number (or an interval value) as digits
    decode      decode a digit string back to a natural number
    mul         multiply a nonnegative value by sqrt(d), certified to eps
    constants   derive and print the digit-shift constants
    audit       run the full verification suite and emit a report

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
from dataclasses import replace

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
    if requested < 1:
        raise ValueError("depth must be positive")
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


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _expand(args) -> cfrac.CFData:
    d = parse_rat(args.d)
    return cfrac.expand(d, _effective_depth(args.depth))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cf(args) -> int:
    cf = _expand(args)
    unit = cfrac.fundamental_unit(cf)
    if args.format == "json":
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
            "unit": str(unit),
            "normalized": [str(v) for v in cfrac.normalize_d(cf.d)],
        }
        _emit(args, json.dumps(data, indent=2))
        return EXIT_OK
    lines = [
        f"d = {cf.d}",
        f"a0 = {cf.a0}",
        f"period = {list(cf.period)}  (length m = {cf.m})",
        f"largest digit bound s_max = {cf.s_max}",
    ]
    for k in range(min(cf.depth, 12)):
        lines.append(f"  p_{k}/q_{k} = {cf.p(k)}/{cf.q(k)}")
    lines.append(f"unit = {unit}")
    d_norm, scale = cfrac.normalize_d(cf.d)
    lines.append(f"normalized radicand = {d_norm} (scale {scale})")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_encode(args) -> int:
    cf = _expand(args)
    text = args.value.strip()
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is not None:
        if n < 0:
            raise OutOfDomain("naturals to encode must be nonnegative")
        x = ostrowski.encode_nat(n, cf)
    else:
        value = parse_quad(text, cf.d)
        x = ostrowski.encode_real(value, cf, args.digits)
    data = {"d": str(cf.d), "kind": x.kind, "digits": list(x.digits)}
    _emit(args, json.dumps(data, indent=2) if args.format == "json" else str(x))
    return EXIT_OK


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
        data, text = {"d": str(d), "value": str(value)}, str(value)
        if args.real:
            data["decimal"] = str(value.approx(40))
            text = f"{value} = {value.approx(30)}"
    _emit(args, json.dumps(data, indent=2) if args.format == "json" else text)
    return EXIT_OK


def cmd_mul(args) -> int:
    cf = _expand(args)
    sc = cfrac.derive_shift_constants(cf)
    eps = parse_rat(args.eps)
    x = parse_quad(args.x, cf.d)
    result = shiftcalc.times_sqrt_real(x, eps, cf, sc)
    if args.format == "json":
        data = {
            "d": str(cf.d),
            "x": str(x),
            "eps": str(eps),
            "result": str(result),
            "decimal": str(result.approx(40)),
        }
        _emit(args, json.dumps(data, indent=2))
        return EXIT_OK
    _emit(
        args,
        f"sqrt({cf.d}) * ({x}) = {result}\n"
        f"  ~ {result.approx(40)}\n"
        f"  certified |error| < {eps}",
    )
    return EXIT_OK


def cmd_constants(args) -> int:
    cf = _expand(args)
    sc = cfrac.derive_shift_constants(cf)
    if args.format == "json":
        _emit(args, json.dumps(sc.to_json(), indent=2))
        return EXIT_OK
    lines = [
        f"d = {sc.d}",
        f"t = {sc.t}",
        f"v = ({', '.join(str(v) for v in sc.v)})",
        f"w = ({', '.join(str(w) for w in sc.w)})",
        f"unit = {sc.unit}",
        f"a = {sc.a_const}, b = {sc.b_const}, a^2*d - b^2 = {sc.pell_norm}",
    ]
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_audit(args) -> int:
    config = harness.SuiteConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = harness.config_from_json(json.load(fh))
    overrides: dict = {}
    if args.d:
        overrides["d_list"] = tuple(parse_rat(s) for s in args.d.split(","))
    if args.depth is not None:
        overrides["depth"] = args.depth
    if args.n_max is not None:
        overrides["n_max"] = args.n_max
    if args.eps is not None:
        overrides["eps"] = parse_rat(args.eps)
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = replace(config, **overrides)
    _effective_depth(config.depth)

    report = harness.run_suite(config)
    if args.format == "json":
        _emit(args, json.dumps(report, indent=2))
    elif args.format == "tsv":
        _emit(args, harness.render_tsv(report))
    else:
        _emit(args, harness.render_text(report))
    if report["summary"]["corrected_failures"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


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
    p.add_argument("digits", help="comma separated digits, e.g. '0,1,0,1@d=3'")
    p.add_argument("--d", help="radicand (needed when no @d= suffix)")
    p.add_argument("--depth", type=int, default=cfrac.DEFAULT_DEPTH)
    p.add_argument("--real", action="store_true",
                   help="decode on the beta scale instead of as a natural")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", help="write to file instead of stdout")
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


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
