"""Batch verification harness: run every check over a suite of radicands.

One radicand's audit is a table of stages run in order on a shared
context: the convergent identities (printed and corrected forms), the
shift constants, one fused pass over n (round trips, the integer and
fractional split of n*sqrt(d), both recovery identities, the exact
products), exhaustive uniqueness, multiplication of reals and the two
digit probes.  The table also names the timed STAGES and the reported
SWEEPS, which _rows reads: it yields one row per report line of a result
entry, and both renderers and both failure counts read those rows.  The
pass over n reads one sweep, a low table and then blocks of n, and decides
each check once per entry and once per block, per n only where that fails.
Its split test is one floor: fa + n*sqrt(d) lies in I iff a0 - fa =
floor((n+1)*sqrt(d)), isqrt((n+1)^2 dn dd) // dd for d = dn/dd, taken per
block at two n.  The uniqueness stage enumerates the valid digit strings
once, and the prefix probe's tiling oracle reads its windows off those
strings, so no oracle calls the encoder another sweep checks.

A report is a plain dict (JSON-ready).  Only corrected-form failures
count as failures; printed-form failures are expected findings and are
reported with witnesses.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from fractions import Fraction
from math import isqrt
from operator import add, mul
from types import SimpleNamespace

from . import cfrac, ostrowski, shiftcalc
from .errors import DepthExceeded, UnsupportedRadicand, VerificationFailed, WitnessUnavailable
from .qfield import parse_rat, sign_sqrt

# Non-square radicands exercised by default: sixteen integers and five
# non-integer rationals, all greater than 1.
DEFAULT_D_LIST: tuple[Fraction, ...] = tuple(
    Fraction(x)
    for x in (
        2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 19, 21, 23, 29, 31, 61,
        "3/2", "5/3", "7/2", "32/9", "13/4",
    )
)

_COUNTS = ("n_max", "n_unique", "lambda_n_max", "lambda_samples", "probe_samples",
           "probe_l_max", "probe_q_limit", "class_l_max")  # SuiteConfig's count fields


class SuiteConfig(cfrac.Value):
    """Configuration for one harness run, a Value checked when it is built:
    a value that is not an int in an integer field (identity_k_max may be
    None), an eps that is neither a Fraction nor an int, a negative count or
    identity_k_max, a depth below 1, an eps <= 0 or an empty d_list raises
    ValueError, a square or non-positive radicand RationalSquare, and one in
    (0, 1] UnsupportedRadicand.  to_json and config_from_json read _fields."""

    __slots__ = _fields = ("d_list", "depth", "n_max", "n_unique", "lambda_n_max", "eps",
                           "lambda_samples", "probe_samples", "probe_l_max", "probe_q_limit",
                           "class_l_max", "seed", "identity_k_max")

    def __init__(self, d_list: tuple[Fraction, ...] = DEFAULT_D_LIST,
                 depth: int = cfrac.DEFAULT_DEPTH, n_max: int = 10_000, n_unique: int = 500,
                 lambda_n_max: int = 1_000, eps: Fraction = Fraction(1, 10**9),
                 lambda_samples: int = 100, probe_samples: int = 40, probe_l_max: int = 8,
                 probe_q_limit: int = 600, class_l_max: int = 12, seed: int = 20260813,
                 identity_k_max: int | None = None) -> None:
        self._fill(d_list, depth, n_max, n_unique, lambda_n_max, eps, lambda_samples, probe_samples,
                   probe_l_max, probe_q_limit, class_l_max, seed, identity_k_max)
        for name in ("depth", *_COUNTS, "seed", "identity_k_max"):
            value = getattr(self, name)  # type(), not isinstance: True is no count
            if type(value) is not int and (value is not None or name != "identity_k_max"):
                raise ValueError(f"config field {name!r} must be an integer, got {value!r}")
        if type(eps) not in (Fraction, int):
            raise ValueError(f"config field 'eps' must be a rational, got {eps!r}")
        if not d_list:
            raise ValueError("config field 'd_list' must not be empty")
        for name in (*_COUNTS, "identity_k_max"):
            if (getattr(self, name) or 0) < 0:  # identity_k_max may be None
                raise ValueError(f"config field {name!r} must be non-negative, "
                                 f"got {getattr(self, name)}")
        if depth < 1:
            raise ValueError(f"config field 'depth' must be positive, got {depth}")
        if eps <= 0:
            raise ValueError(f"config field 'eps' must be positive, got {eps}")
        for d in d_list:
            if cfrac.check_radicand(d) <= 1:
                raise UnsupportedRadicand(f"d must exceed 1, got {d}; use normalize_d")

    def to_json(self) -> dict:
        """Every field in declaration order, rationals as strings."""
        eps = str(self.eps) if isinstance(self.eps, Fraction) else self.eps
        return {**self._asdict(), "d_list": [str(x) for x in self.d_list], "eps": eps}


def config_from_json(data) -> SuiteConfig:
    """Build a SuiteConfig from parsed JSON, tolerating partial dicts:
    missing keys and null scalars keep their defaults, unknown keys are
    ignored, d_list (a list) and eps are parsed from their text, and
    SuiteConfig checks every value."""
    def rational(field: str, value) -> Fraction:  # a bad value names its field
        try:
            return parse_rat(str(value))
        except ValueError as exc:  # a zero denominator keeps parse_rat's message first
            zero = str(exc).startswith("zero denominator")
            raise ValueError(f"{exc} (config field {field!r})" if zero else
                             f"config field {field!r} must be a rational, got {value!r}") from None

    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    kwargs = {name: data[name] for name in SuiteConfig._fields if data.get(name) is not None}
    if "d_list" in data:
        if not isinstance(data["d_list"], list):
            raise ValueError(f"config field 'd_list' must be a list, got {data['d_list']!r}")
        kwargs["d_list"] = tuple(rational(f"d_list[{i}]", x) for i, x in enumerate(data["d_list"]))
    if "eps" in kwargs:
        kwargs["eps"] = rational("eps", kwargs["eps"])
    return SuiteConfig(**kwargs)


def _sweep(result: dict, name: str, checked: int, failures: list) -> None:
    result[name] = {
        "checked": checked,
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
    }


def _witness_first(cf, fails: list, witness) -> list:
    """fails, (n, digits) pairs, with the first replaced by witness(n, its OstDigits)."""
    x = fails and ostrowski.OstDigits._of(cf, fails[0][1], ostrowski.KIND_NAT)
    return [witness(fails[0][0], x), *fails[1:]] if fails else fails


def _identities(ctx) -> None:
    verdicts = cfrac.audit_identities(ctx.cf, ctx.config.identity_k_max)
    ctx.out["identities"] = [v.to_json() for v in verdicts]


def _constants(ctx) -> None:
    ctx.sc = cfrac.derive_shift_constants(ctx.cf)
    ctx.out["constants"] = ctx.sc.to_json()


def _pass_over_n(ctx) -> None:
    """Roundtrip, sqrt split, both recoveries, and the shifted-digit product
    on the fractional part of n*sqrt(d), all from the ints natural_dots_upto
    yields.  The descent checks each digit's constraint, so the roundtrip is
    that the digits sum back to n.  n < q_{depth-m+1} keeps the digits shifted
    by m inside the depth.  check runs every check at one n: each table entry,
    and each n of a block that does not pass whole.  A block passes whole when
    rem = 0, n0 > 50 (the printed forms stay per n), no entry below its room has
    a nonzero residual, its own are zero (each residual is linear in the ints),
    and the split holds at the entries of least and greatest beta (I is convex).
    Only a sweep's first failure and the worked example build exact witnesses,
    from the sweep's digits.  The exact products run here, fused; their count,
    failures and seconds are left in ctx."""
    cf, sc, config, out = ctx.cf, ctx.sc, ctx.config, ctx.out
    n_max = min(config.n_max, cf.q(cf.depth - cf.m + 1) - 1)
    exact_top = min(config.lambda_n_max, n_max) + 1
    rt_fails: list = []
    frac_fails: list = []  # (n, digits) per failing n; _witness_first reports one
    nat_fails: list = []
    exact_fails: list = []
    printed = [0, 0]  # frac and nat printed-form failures up to n = 50
    example = None
    a0, dn, dd, example_n = cf.a0, cf.dn, cf.dd, min(5, n_max)
    dndd = dn * dd  # floor(floor(y)/dd) = floor(y/dd) makes the split test exact
    exact_s = 0.0
    # bound once per pass, from the module attributes, so a patched kernel is the one called
    sqrt_product, frac_verdicts = shiftcalc.sqrt_product, shiftcalc.frac_verdicts
    nat_verdicts = shiftcalc.nat_verdicts

    def in_i(n: int, fa: int) -> bool:  # fa + n sqrt(d) lies in I
        return a0 - fa == isqrt((n + 1) ** 2 * dndd) // dd

    def check(n, digits, fa, fb, ya, yb, v1, w0, w1) -> bool:
        """Every check at n, its failures recorded; whether a residual is nonzero."""
        nonlocal exact_s, example
        if fb != n:
            rt_fails.append({"n": n, "reason": "roundtrip"})
            return True
        if not in_i(n, fa):
            rt_fails.append({"n": n, "reason": "fractional part outside I"})
        t_exact = time.perf_counter()
        exact = n < exact_top and any(sqrt_product(cf, sc, fa, fb, ya, yb)[0])
        exact_s += time.perf_counter() - t_exact
        wrong = exact, any(frac_verdicts(cf, sc, fa, fb, ya, yb)), nat_verdicts(sc, fb, v1, w0)
        for fails, bad in zip((exact_fails, frac_fails, nat_fails), wrong):
            if bad:
                fails.append((n, digits))
        if n <= 50:
            frac_printed, nat_printed = shiftcalc.printed_verdicts(cf, sc, fa, fb, ya, yb, v1, w1)
            printed[0] += not frac_printed
            printed[1] += not nat_printed
        if n == example_n:
            example = ostrowski.OstDigits._of(cf, digits, ostrowski.KIND_NAT)
        return any(wrong)

    table: list = []  # per entry: digits, ints, and up to it a nonzero flag, argmin, argmax
    flagged, lo, hi = False, 0, 0
    for item in shiftcalc.natural_dots_upto(cf, sc, n_max):
        if len(item) == 2:  # the table entry of n = r
            r, (digits, ints) = len(table), item
            flagged = check(r, digits, *ints) or flagged
            least, most = (table[lo][1], table[hi][1]) if table else (ints, ints)
            lo = r if sign_sqrt(ints[0] - least[0], ints[1] - least[1], dn, dd) < 0 else lo
            hi = r if sign_sqrt(ints[0] - most[0], ints[1] - most[1], dn, dd) > 0 else hi
            table.append((digits, ints, flagged, lo, hi))
            continue
        n, rem, room, high, g = item
        *_, nonzero, lo_r, hi_r = table[room - 1]
        if (rem or n <= 50 or nonzero or g[1] != n or any(frac_verdicts(cf, sc, *g[:4]))
                or nat_verdicts(sc, n, g[4], g[5])
                or n < exact_top and any(sqrt_product(cf, sc, *g[:4])[0])
                or not all(in_i(n + r, table[r][1][0] + g[0]) for r in (lo_r, hi_r))):
            for r in range(rem, room):
                digits, ints = table[r][:2]
                check(n - rem + r, digits + high[len(digits):], *map(add, ints, g))
    skipped = [f["n"] for f in rt_fails if f["reason"] == "roundtrip"]  # their checks did not run
    recovery_checked = n_max + 1 - len(skipped)
    exact_checked = exact_top - sum(n < exact_top for n in skipped)
    ctx.exact_checked, ctx.exact_fails, ctx.exact_s = exact_checked, exact_fails, exact_s
    _sweep(out, "roundtrip_and_split", n_max + 1, rt_fails)
    _sweep(out, "recover_frac", recovery_checked, _witness_first(
        cf, frac_fails, lambda n, x: shiftcalc.check_recover_frac(x, sc).to_json()))
    _sweep(out, "recover_nat", recovery_checked, _witness_first(
        cf, nat_fails, lambda n, x: shiftcalc.check_recover_nat(x, sc).to_json()))
    out["recovery_printed_fails_upto_50"] = {"frac": printed[0], "nat": printed[1]}
    out["recovery_example"] = None if example is None else {
        "frac": shiftcalc.check_recover_frac(example, sc).to_json(),
        "nat": shiftcalc.check_recover_nat(example, sc).to_json(),
    }


def _uniqueness(ctx) -> None:
    """Valid strings of length L decode bijectively onto [0, q_L), q_L > n_unique.
    The one enumeration, at length max(L, l_eff + 1), also leaves the
    tiling oracle (n, -sum b_k p_k, digits) for each n < q_{l_eff+1}."""
    cf = ctx.cf
    length = next((k for k in range(cf.depth + 1) if cf.q(k) > ctx.config.n_unique), None)
    qs, ps = cf.conv_q[1:], cf.conv_p[1:]  # q_0, q_1, ... weigh the digits in order
    top = cf.q(ctx.l_eff + 1)
    values, ctx.oracle = [], []
    for digits in ostrowski.enumerate_valid(cf, max(length or 0, ctx.l_eff + 1)):
        n = sum(map(mul, digits, qs))
        if length is not None and not any(digits[length:]):
            values.append(n)
        if n < top:
            ctx.oracle.append((n, -sum(map(mul, digits, ps)), digits))
    if length is None:
        raise DepthExceeded(f"uniqueness sweep needs q_k > n_unique={ctx.config.n_unique}, "
                            f"but q_{cf.depth} = {cf.q(cf.depth)} at depth {cf.depth}")
    uniq_ok = sorted(values) == list(range(cf.q(length)))
    _sweep(ctx.out, "uniqueness", cf.q(length), [] if uniq_ok else [{"reason": "not a bijection"}])


def _times_sqrt_exact(ctx) -> None:
    cf, sc = ctx.cf, ctx.sc
    _sweep(ctx.out, "times_sqrt_exact", ctx.exact_checked, _witness_first(
        cf, ctx.exact_fails, lambda n, x: {"n": n, "lhs": str(shiftcalc.times_sqrt_frac(x, sc)),
                                           "rhs": str(cf.sqrt_d() * ostrowski.decode_real(x))}))


def _times_sqrt_real(ctx) -> None:
    config, fails = ctx.config, []
    for _ in range(config.lambda_samples):
        xval = Fraction(ctx.rng.randint(0, 100 * 9973), 9973)
        try:
            shiftcalc.times_sqrt_real(xval, config.eps, ctx.cf, ctx.sc)
        except VerificationFailed as exc:
            fails.append({"x": str(xval), "error": str(exc)})
    _sweep(ctx.out, "times_sqrt_real", config.lambda_samples, fails)


def _prefix_probe(ctx) -> None:
    """Each sample's prefix naturals and their digits, against an oracle.

    At each l the windows f(n) + prefix_window(cf, l, ...) of the naturals
    n < q_{l+1} must tile I, so every c in I has exactly one prefix natural.
    beta_k has the sign (-1)^k, so they run in the order of the alternating
    digit key (b_0, -b_1, b_2, ...), by which the oracle is sorted once; the
    chain check (the ends of I, shared ends, positive widths) certifies that
    order.  Bisection over the lower ends, integer pairs, then finds each c."""
    cf, config, l_eff = ctx.cf, ctx.config, ctx.l_eff
    if l_eff < 0:
        ctx.out["prefix_probe"] = {"skipped": f"q_1 exceeds probe_q_limit={config.probe_q_limit}"}
        return
    lo_i = ostrowski.interval_bounds(cf)[0]
    samples = [lo_i + Fraction(ctx.rng.getrandbits(48), 2**48) for _ in range(config.probe_samples)]
    encodings = [ostrowski.encode_real(c, cf, l_eff + 1).digits for c in samples]
    dn, dd = cf.dn, cf.dd
    interval = ostrowski.window_parts(cf, 0, blocked=True)  # I
    oracle = sorted(ctx.oracle, key=lambda e: [-b if k % 2 else b for k, b in enumerate(e[2])])
    fails = []
    for l in range(l_eff + 1):
        top, parts = cf.q(l + 1), (ostrowski.window_parts(cf, l + 1, blocked=False),
                                   ostrowski.window_parts(cf, l + 1, blocked=True))
        wins = [(n, fa, parts[digs[l] != 0]) for n, fa, digs in oracle if n < top]
        lows = [(fa + la, n + lb) for n, fa, ((la, lb), _) in wins]
        highs = [(fa + ha, n + hb) for n, fa, (_, (ha, hb)) in wins]
        tiles = (lows[0], highs[-1]) == interval and lows[1:] == highs[:-1] and all(
            sign_sqrt(ha - la, hb - lb, dn, dd) > 0 for (la, lb), (ha, hb) in zip(lows, highs))
        if not tiles:
            fails.append({"l": l, "reason": "windows do not tile I"})
        for c, digits in zip(samples, encodings):
            n = shiftcalc.prefix_nat(cf, l, c)  # certified internally
            if shiftcalc.prefix_digit(cf, l, n) != (digits[l] if l < len(digits) else 0):
                fails.append({"l": l, "c": str(c), "reason": "digit mismatch"})
            if tiles:
                ca, cb, den = c.scaled()
                i = bisect_right(lows, False, key=lambda lo: sign_sqrt(
                    ca - lo[0] * den, cb - lo[1] * den, dn, dd) < 0) - 1  # last lower end <= c
                if wins[i][0] != n:
                    fails.append({"l": l, "c": str(c), "got": n, "oracle": [wins[i][0]]})
    _sweep(ctx.out, "prefix_probe", config.probe_samples * (l_eff + 1), fails)
    ctx.out["prefix_probe"]["l_max"] = l_eff


def _class_probe(ctx) -> None:
    fails, checked, skipped = [], 0, []
    for n_mod in (2, 3):
        for j in range(n_mod):
            try:
                verdicts = shiftcalc.residue_class_probe(ctx.cf, j, n_mod, ctx.config.class_l_max)
            except WitnessUnavailable:
                skipped.append({"j": j, "mod": n_mod})
                continue
            checked += 1
            expected = tuple(l % n_mod == j for l in range(ctx.config.class_l_max + 1))
            if verdicts != expected:
                fails.append({"j": j, "mod": n_mod, "got": list(verdicts)})
    _sweep(ctx.out, "class_probe", checked, fails)
    ctx.out["class_probe"]["infeasible"] = skipped


# One radicand's audit in report order: (stage, function, the sweeps it
# writes).  Each function reads and extends the shared context.
_TABLE = (
    ("identities", _identities, ()),
    ("constants", _constants, ()),
    ("recovery", _pass_over_n, ("roundtrip_and_split", "recover_frac", "recover_nat")),
    ("uniqueness", _uniqueness, ("uniqueness",)),
    ("times_sqrt_exact", _times_sqrt_exact, ("times_sqrt_exact",)),
    ("times_sqrt_real", _times_sqrt_real, ("times_sqrt_real",)),
    ("prefix_probe", _prefix_probe, ("prefix_probe",)),
    ("class_probe", _class_probe, ("class_probe",)),
)
STAGES = tuple(name for name, _, _ in _TABLE)  # the timed stages
SWEEPS = tuple(key for _, _, keys in _TABLE for key in keys)  # the reported sweeps


def audit_one(d: Fraction, config: SuiteConfig) -> dict:
    """Run the stage table for a single radicand and return its report dict.

    The expansion grows past config.depth to the 3m+3 the identities
    need.  A DepthExceeded in a stage that writes one sweep fails that
    sweep with its message; in any other stage it fails the radicand.
    The stages share one context: the uniqueness stage's enumeration of
    valid strings is the prefix probe's oracle, and the pass over n runs
    the exact products, whose seconds "stages" counts as times_sqrt_exact.
    Checks run on integers: A + B*sqrt(d) is a pair of ints and its order
    test is qfield.sign_sqrt.
    """
    t0 = time.perf_counter()
    cf = cfrac.expand(d, config.depth)
    cf = cf.at_least(3 * cf.m + 3)
    out: dict = {
        "d": str(d),
        "depth": cf.depth,
        "a0": cf.a0,
        "period": list(cf.period),
        "m": cf.m,
        "t": cf.t,
        "s_max": cf.s_max,
    }
    # the probed levels, read by the uniqueness enumeration and the prefix probe
    l_eff = max((l for l in range(min(config.probe_l_max, cf.depth - 1) + 1)
                 if cf.q(l + 1) <= config.probe_q_limit), default=-1)
    ctx = SimpleNamespace(cf=cf, config=config, rng=random.Random(f"{config.seed}:{d}"),
                          out=out, l_eff=l_eff)
    stages = {}
    for name, stage, keys in _TABLE:
        mark = time.perf_counter()
        try:
            stage(ctx)
        except DepthExceeded as exc:
            if len(keys) != 1:
                raise
            _sweep(out, keys[0], 0, [{"error": f"DepthExceeded: {exc}"}])
        stages[name] = time.perf_counter() - mark
    stages["recovery"] -= ctx.exact_s
    stages["times_sqrt_exact"] += ctx.exact_s
    out["stages"] = {k: round(v, 3) for k, v in stages.items()}
    out["elapsed_s"] = round(time.perf_counter() - t0, 3)
    return out


def _rows(res: dict):
    """One (item, printed, corrected, corrected failures, text line, TSV
    detail) per report line of a result entry, in report order."""
    if "error" in res:
        yield "error", "-", "-", 1, f"d={res['d']}: ERROR {res['error']}", res["error"]
        return
    for v in res["identities"]:
        w = v["witness"]
        yield (v["fact_id"], v["printed"], v["corrected"], v["corrected"] != "holds",
               f"  {v['fact_id']:24s} printed:{v['printed']:5s} corrected:{v['corrected']}"
               + (f"  [k={w['k']}: {w['lhs']} vs {w['rhs']}]" if w else ""),
               f"k={w['k']} lhs={w['lhs']} rhs={w['rhs']}" if w else "")
    for key in SWEEPS:
        sweep = res[key]
        if "skipped" in sweep:
            yield (key, "-", "-", 0, f"  {key:24s} skipped ({sweep['skipped']})",
                   f"skipped: {sweep['skipped']}")
            continue
        err, k = (sweep["first_failure"] or {}).get("error"), sweep["failures"]
        yield (key, "-", "fails" if k else "holds", k,
               f"  {key:24s} checked:{sweep['checked']} failures:{k}"
               + (f"  [{err}]" if err else ""),
               f"checked={sweep['checked']}"  # the count, unless it is the one error shown
               + (f" failures={k}" if k > bool(err) else "") + (f" error={err}" if err else ""))


def corrected_failures(report: dict) -> int:
    """Count corrected-form failures in a full report: each recorded sweep
    failure, each failing corrected identity and each error entry."""
    return sum(row[3] for res in report["results"] for row in _rows(res))


def printed_failures(report: dict) -> int:
    """Count the identities whose printed form fails."""
    return sum(row[1] == "fails" for res in report["results"] for row in _rows(res))


def run_suite(config: SuiteConfig = SuiteConfig()) -> dict:
    """Run the harness over every d in the suite and assemble the report.

    The config checked its radicands when it was built; any exception
    raised mid-run for an individual d is recorded in that d's result
    entry instead of aborting the remaining radicands.
    """
    t0 = time.perf_counter()
    results = []
    for d in config.d_list:
        try:
            results.append(audit_one(d, config))
        except Exception as exc:  # recorded per radicand; the suite goes on
            name, text = type(exc).__name__, str(exc)  # MemoryError() has no text
            results.append({"d": str(d), "error": f"{name}: {text}" if text else name})
    report = {
        "config": config.to_json(),
        "results": results,
        "summary": {},
    }
    report["summary"] = {
        "d_count": len(config.d_list),
        "corrected_failures": corrected_failures(report),
        "printed_failures": printed_failures(report),
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "stages": {
            k: round(sum(r["stages"][k] for r in results if "stages" in r), 3)
            for k in STAGES
        },
    }
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_text(report: dict) -> str:
    lines = []
    for res in report["results"]:
        if "error" not in res:
            lines.append(
                f"d={res['d']}: period={res['period']} m={res['m']} "
                f"t={res['t']} ({res['elapsed_s']}s)"
            )
        lines += [row[4] for row in _rows(res)]
    s = report["summary"]
    lines.append(
        "stages: " + ", ".join(f"{k} {v}s" for k, v in s["stages"].items())
    )
    lines.append(
        f"suite: {s['d_count']} radicands, corrected failures: "
        f"{s['corrected_failures']}, printed-form failures: {s['printed_failures']} "
        f"({s['elapsed_s']}s)"
    )
    return "\n".join(lines)


def render_tsv(report: dict) -> str:
    rows = ["d\titem\tprinted\tcorrected\tdetail"]
    for res in report["results"]:
        rows += [f"{res['d']}\t{item}\t{printed}\t{corrected}\t{detail}"
                 for item, printed, corrected, _, _, detail in _rows(res)]
    return "\n".join(rows)
