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

--depth is the bound on what an input may need: each command expands
only to the deepest index it reads (cf the 12 convergents it prints,
encode of n the least k with F_{k+1} > n, so q_k > n, encode of a value
and decode their digits, constants index 1), within that bound; mul reads
--depth.  The environment variable OSTRO_MAX_DEPTH, when set, caps the
expansion depth accepted from flags or config files.  The depth the
period needs (the unit's m - 1, the constants' m, the audit's 3m+3, the
m-shift of mul) grows on demand and is not counted; mul's eps digits are
bounded by --depth.
Each flag is described once, in COMMANDS.  argv is read once: a scan of
that table takes the plain forms; argparse, imported and built only when the
scan declines, reads any other argv with parse_args's help, usage, errors and
exit codes.  json loads only for --format json and audit --config.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

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
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe


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
    if args.format == "json":
        import json

        text = json.dumps(data, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    else:
        print(text)
    return code


def _expand(args, need: int, d=None) -> cfrac.CFData:
    """sqrt(d), by default --d, expanded to need, the deepest index the
    command reads, within --depth; a bad d or --depth raises first."""
    d = parse_rat(args.d) if d is None else d
    return cfrac.expand(d, min(_effective_depth(args.depth), max(1, need)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cf(args) -> int:
    cf = _expand(args, 12)
    data = {
        "d": str(cf.d),
        "a0": cf.a0,
        "period": list(cf.period),
        "m": cf.m,
        "s_max": cf.s_max,
        "depth": args.depth,  # the bound; the tables reach min(--depth, 12)
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
    text = args.value.strip()
    try:
        n = int(text)
    except ValueError:
        cf = _expand(args, args.digits)
        x = ostrowski.encode_real(parse_quad(text, cf.d), cf, args.digits)
    else:
        k, f, f1 = 0, 1, 1  # F_{k+1}, F_{k+2}: q_k >= F_{k+1}, so q_k > n once F_{k+1} > n
        while f <= n and k < args.depth:
            k, f, f1 = k + 1, f1, f + f1
        cf = _expand(args, k)
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
        cf = _expand(args, len(digits), d)
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
    cf = _expand(args, args.depth)
    sc = cfrac.derive_shift_constants(cf)
    eps = parse_rat(args.eps)
    x = parse_quad(args.x, cf.d)
    result = shiftcalc.times_sqrt_real(x, eps, cf, sc)  # eps digits <= --depth
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
    data = cfrac.derive_shift_constants(_expand(args, 1)).to_json()
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
        import json

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
# flags
# ---------------------------------------------------------------------------

# Each subcommand's help, and its flags and positionals in parser order with
# their add_argument keywords: type, default, choices, required and help.
# _scan reads the table, build_parser gives argparse the same table.
_D = {"required": True, "help": "radicand (rational, > 1, non-square)"}
_COMMON = {
    "--depth": {"type": int, "default": cfrac.DEFAULT_DEPTH,
                "help": "bound on the expansion depth an input may need (default %(default)s)"},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--output": {"help": "write to file instead of stdout"},
}
COMMANDS = {
    "cf": ("expand sqrt(d)", {"--d": _D, **_COMMON}),
    "encode": ("encode a natural or interval value", {
        "--d": _D, **_COMMON,
        "value": {"help": "natural number, or a value like '1/3-...' in the interval"},
        "--digits": {"type": int, "default": 24,
                     "help": "digit count for interval values (default %(default)s)"}}),
    "decode": ("decode a digit string", {
        **_COMMON,
        "digits": {"help": "comma separated digits, e.g. '0,1,0,1@d=3'"},
        "--d": {"help": "radicand (needed when no @d= suffix)"},
        "--real": {"action": "store_true", "default": False,
                   "help": "decode on the beta scale instead of as a natural"}}),
    "mul": ("multiply by sqrt(d) with a certified bound", {
        "--d": _D, **_COMMON,
        "--x": {"required": True, "help": "nonnegative value, e.g. 7/5 or '1+1/2*sqrt(3)'"},
        "--eps": {"default": "1e-9", "help": "certified accuracy (default %(default)s)"}}),
    "constants": ("derive the digit-shift constants", {"--d": _D, **_COMMON}),
    "audit": ("run the verification suite", {
        "--d": {"help": "comma separated radicands (default: built-in suite)"},
        "--depth": {"type": int}, "--n-max": {"type": int}, "--eps": {}, "--seed": {"type": int},
        "--config": {"help": "JSON config file (flags override it)"},
        "--format": {"choices": ("text", "json", "tsv"), "default": "text"},
        "--output": {"help": "write the report to a file"}}),
}
_HELP = ("-h", "--help")  # argparse gives every parser these; the scan declines them


def _scan(command: str, argv: list[str]) -> SimpleNamespace | None:
    """argv as the subcommand's parser reads it, or None to leave it to argparse:
    on "--", a "-" token that is no flag or unique flag prefix (-h, -5), help, a
    repeated flag, "=" on a switch, a bad value, a missing or an extra argument."""
    flags = COMMANDS[command][1]
    seen, texts, tokens = {}, [], iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            texts.append(token)
            continue
        opt, eq, text = token.partition("=")  # "--" is a prefix of every flag
        found = [opt] if opt in flags else [s for s in (*_HELP, *flags) if s.startswith(opt)]
        if len(found) != 1 or (name := found[0]) in _HELP or name in seen:
            return None
        switch = "action" in flags[name]  # --real
        if eq and switch or not (eq or switch) and (text := next(tokens, "-")).startswith("-"):
            return None  # "=" on a switch, no value, or a dash token where it goes
        seen[name] = True if switch else text
    positionals = [name for name in flags if name[0] != "-"]
    if len(texts) != len(positionals):
        return None
    seen.update(zip(positionals, texts))
    values = {}
    for name, kw in flags.items():
        if name not in seen and kw.get("required"):
            return None
        text = seen.get(name, kw.get("default"))  # a str default is typed, as parse_args does
        try:
            value = kw["type"](text) if "type" in kw and isinstance(text, str) else text
        except (TypeError, ValueError):
            return None
        if name in seen and "choices" in kw and value not in kw["choices"]:
            return None
        values[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**values, func=globals()[f"cmd_{command}"])  # as monkeypatched


@functools.cache  # one parser per process, built only when the scan declines
def build_parser():
    """The argparse parser of COMMANDS, for help, usage, errors and exit 2."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ostro",
        description="Continued fractions of sqrt(d), Ostrowski digits, and "
        "certified multiplication by sqrt(d) on representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # main parses argv[1:] with the one named first
    for command, (text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, kw in flags.items():
            p.add_argument(name, **kw)
        p.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _scan(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    if args is None:  # help, an error, "--", or no or an unknown subcommand
        parser = build_parser()
        sub = parser.subcommands.get(argv[0]) if argv else None
        args, rest = sub.parse_known_args(argv[1:]) if sub else (parser.parse_args(argv), [])
        if rest:  # as parse_args reports leftovers: under the top-level usage
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values print at any length
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader of stdout is gone: end quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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
