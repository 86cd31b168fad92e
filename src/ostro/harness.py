"""Batch verification harness: run every check over a suite of radicands.

The harness expands each d, audits the convergent identities (printed
and corrected forms), derives and verifies the shift constants, and then
sweeps the numeration and digit-shift layers: encode/decode round trips,
exhaustive uniqueness, the integer/fractional split of n*sqrt(d), both
recovery identities, representation-level multiplication, and the digit
probes against brute-force oracles.

A report is a plain dict (JSON-ready).  Only corrected-form failures
count as failures; printed-form failures are expected findings and are
reported with witnesses.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction

from . import cfrac, ostrowski, shiftcalc
from .errors import DepthExceeded, UnsupportedRadicand, VerificationFailed, WitnessUnavailable
from .qfield import QuadRat, parse_rat

# Non-square radicands exercised by default: sixteen integers and five
# non-integer rationals, all greater than 1.
DEFAULT_D_LIST: tuple[Fraction, ...] = tuple(
    Fraction(x)
    for x in (
        2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 19, 21, 23, 29, 31, 61,
        "3/2", "5/3", "7/2", "32/9", "13/4",
    )
)

# The timed stages of one radicand's audit, in report order.
STAGES = (
    "identities", "constants", "recovery", "uniqueness",
    "times_sqrt_exact", "times_sqrt_real", "prefix_probe", "class_probe",
)


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration for one harness run."""

    d_list: tuple[Fraction, ...] = DEFAULT_D_LIST
    depth: int = cfrac.DEFAULT_DEPTH
    n_max: int = 10_000
    n_unique: int = 500
    lambda_n_max: int = 1_000
    eps: Fraction = Fraction(1, 10**9)
    lambda_samples: int = 100
    probe_samples: int = 40
    probe_l_max: int = 8
    probe_q_limit: int = 600
    class_l_max: int = 12
    seed: int = 20260813
    identity_k_max: int | None = None

    def to_json(self) -> dict:
        """Every field in declaration order, rationals as strings."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = [str(x) for x in v]
            elif isinstance(v, Fraction):
                v = str(v)
            out[f.name] = v
        return out


def config_from_json(data) -> SuiteConfig:
    """Build a SuiteConfig from parsed JSON, tolerating partial dicts.

    Missing keys and null scalars keep their defaults, unknown keys are
    ignored, and a value of the wrong type (an integer field takes an int,
    not a bool, float, string, list or object) raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    kwargs: dict = {}
    for f in fields(SuiteConfig):
        value = data.get(f.name)
        if isinstance(f.default, tuple) and f.name in data:  # d_list
            if not isinstance(value, list):
                raise ValueError(f"config field {f.name!r} must be a list, got {value!r}")
            kwargs[f.name] = tuple(Fraction(str(x)) for x in value)
        elif isinstance(f.default, tuple) or value is None:  # absent, or a null scalar
            continue
        elif isinstance(f.default, Fraction):  # eps
            kwargs[f.name] = parse_rat(str(value))
        elif not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"config field {f.name!r} must be an integer, got {value!r}")
        else:
            kwargs[f.name] = value
    return SuiteConfig(**kwargs)


def _sweep(result: dict, name: str, checked: int, failures: list) -> None:
    result[name] = {
        "checked": checked,
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
    }


def _lap(stages: dict, name: str, mark: float) -> float:
    """Charge the time since mark to stages[name]; return the new mark."""
    now = time.perf_counter()
    stages[name] += now - mark
    return now


def _random_interval_value(cf, rng) -> QuadRat:
    lo, _ = ostrowski.interval_bounds(cf)
    return lo + Fraction(rng.getrandbits(48), 2**48)


def audit_one(d: Fraction, config: SuiteConfig) -> dict:
    """Run every check for a single radicand and return its report dict.

    The split, recovery and prefix-oracle checks run on integers: a value
    A + B*sqrt(d) is a pair of ints and its order test is
    qfield.sign_sqrt.  "stages" records the seconds spent in each sweep;
    the pass over n counts as "recovery" except its times_sqrt_exact
    products.
    """
    t0 = time.perf_counter()
    stages = dict.fromkeys(STAGES, 0.0)
    cf = cfrac.expand_for_audit(d, max(config.depth, 8))
    rng = random.Random(f"{config.seed}:{d}")

    out: dict = {
        "d": str(d),
        "depth": cf.depth,
        "a0": cf.a0,
        "period": list(cf.period),
        "m": cf.m,
        "t": cf.t,
        "s_max": cf.s_max,
    }

    # --- convergent identities, printed vs corrected -------------------
    mark = time.perf_counter()
    verdicts = cfrac.audit_identities(cf, config.identity_k_max)
    out["identities"] = [v.to_json() for v in verdicts]
    mark = _lap(stages, "identities", mark)

    # --- shift constants (derivation includes the full-index sweep) ----
    sc = cfrac.derive_shift_constants(cf)
    out["constants"] = sc.to_json()
    mark = _lap(stages, "constants", mark)

    # --- one pass over n: roundtrip, sqrt split, both recoveries, and
    # the shifted-digit product on the fractional part of n*sqrt(d); n <
    # q_{depth-m+1} keeps the digits shifted by m inside the depth -------
    n_max = min(config.n_max, cf.q(cf.depth - cf.m + 1) - 1)
    exact_checked = min(config.lambda_n_max, n_max) + 1
    rt_fails: list = []
    frac_fails: list = []
    nat_fails: list = []
    exact_fails: list = []
    printed_frac_fails = printed_nat_fails = 0
    example = None
    interval = ostrowski.window_parts(cf, 0, blocked=True)  # I
    exact_s = 0.0
    for n in range(n_max + 1):
        x = ostrowski.encode_nat(n, cf)
        fa, fb = ostrowski.beta_parts(x)  # fractional part of n*sqrt(d); fb = n
        if fb != n:
            rt_fails.append({"n": n, "reason": "roundtrip"})
            continue
        if not ostrowski.in_window(cf, fa, fb, 1, interval):
            rt_fails.append({"n": n, "reason": "fractional part outside I"})
        if n < exact_checked:
            t_exact = time.perf_counter()
            prod = shiftcalc.times_sqrt_frac(x, sc)
            direct = QuadRat(Fraction(fb * cf.d), Fraction(fa), cf.d)  # sqrt(d) (fa + fb sqrt(d))
            if prod != direct:
                exact_fails.append({"n": n, "lhs": str(prod), "rhs": str(direct)})
            exact_s += time.perf_counter() - t_exact
        e_frac = shiftcalc.check_recover_frac(x, sc)
        e_nat = shiftcalc.check_recover_nat(x, sc)
        if e_frac.corrected != "holds":
            frac_fails.append(e_frac.to_json())
        if e_nat.corrected != "holds":
            nat_fails.append(e_nat.to_json())
        if n <= 50:
            printed_frac_fails += e_frac.printed != "holds"
            printed_nat_fails += e_nat.printed != "holds"
        if n == min(5, n_max):
            example = {"frac": e_frac.to_json(), "nat": e_nat.to_json()}
    _sweep(out, "roundtrip_and_split", n_max + 1, rt_fails)
    _sweep(out, "recover_frac", n_max + 1, frac_fails)
    _sweep(out, "recover_nat", n_max + 1, nat_fails)
    out["recovery_printed_fails_upto_50"] = {
        "frac": printed_frac_fails,
        "nat": printed_nat_fails,
    }
    out["recovery_example"] = example
    mark = _lap(stages, "recovery", mark)
    stages["recovery"] -= exact_s
    stages["times_sqrt_exact"] += exact_s

    # Exhaustive uniqueness: valid strings of length L decode bijectively
    # onto [0, q_L), which covers every n <= n_unique once q_L exceeds it.
    length = next((k for k in range(cf.depth + 1) if cf.q(k) > config.n_unique), None)
    if length is None:
        raise DepthExceeded(f"uniqueness sweep needs q_k > n_unique={config.n_unique}, "
                            f"but q_{cf.depth} = {cf.q(cf.depth)} at depth {cf.depth}")
    qs = cf.conv_q
    values = sorted(
        sum(b * qs[k + 1] for k, b in enumerate(digits))
        for digits in ostrowski.enumerate_valid(cf, length)
    )
    uniq_ok = values == list(range(cf.q(length)))
    _sweep(out, "uniqueness", cf.q(length), [] if uniq_ok else [{"reason": "not a bijection"}])
    mark = _lap(stages, "uniqueness", mark)

    # --- representation-level multiplication ----------------------------
    _sweep(out, "times_sqrt_exact", exact_checked, exact_fails)
    real_fails = []
    for _ in range(config.lambda_samples):
        xval = Fraction(rng.randint(0, 100 * 9973), 9973)
        try:
            shiftcalc.times_sqrt_real(xval, config.eps, cf, sc)
        except VerificationFailed as exc:
            real_fails.append({"x": str(xval), "error": str(exc)})
    _sweep(out, "times_sqrt_real", config.lambda_samples, real_fails)
    mark = _lap(stages, "times_sqrt_real", mark)

    # --- digit probes ----------------------------------------------------
    l_eff = -1
    for l in range(config.probe_l_max + 1):
        if cf.q(l + 1) <= config.probe_q_limit:
            l_eff = l
    if l_eff >= 0:
        samples = [_random_interval_value(cf, rng) for _ in range(config.probe_samples)]
        fails = []
        got = []
        for c in samples:
            digits = ostrowski.encode_real(c, cf, l_eff + 1).digits
            row = []
            for l in range(l_eff + 1):
                n = shiftcalc.prefix_nat(cf, l, c)  # certified internally
                row.append(n)
                dig = digits[l] if l < len(digits) else 0
                if shiftcalc.prefix_digit(cf, l, n) != dig:
                    fails.append({"l": l, "c": str(c), "reason": "digit mismatch"})
            got.append(row)
        # Brute-force oracle: scan every candidate prefix natural against
        # its absolute window; the match must be unique and agree.  The
        # window of n at l is f(n) plus prefix_window(cf, l, ...), the
        # tail window at l+1, all as integer pairs.
        table = []
        for n in range(cf.q(l_eff + 1)):
            xn = ostrowski.encode_nat(n, cf)
            table.append((xn.digits, ostrowski.beta_parts(xn)))
        scaled = [c.scaled() for c in samples]
        for l in range(l_eff + 1):
            bounds = []
            for n in range(cf.q(l + 1)):
                digs, (fa, fb) = table[n]
                dig_l = digs[l] if l < len(digs) else 0
                (la, lb), (ha, hb) = ostrowski.window_parts(cf, l + 1, blocked=dig_l != 0)
                bounds.append(((fa + la, fb + lb), (fa + ha, fb + hb)))
            for ci, c in enumerate(samples):
                ca, cb, den = scaled[ci]
                matches = [
                    n for n, win in enumerate(bounds)
                    if ostrowski.in_window(cf, ca, cb, den, win)
                ]
                if matches != [got[ci][l]]:
                    fails.append(
                        {"l": l, "c": str(c), "got": got[ci][l], "oracle": matches}
                    )
        _sweep(out, "prefix_probe", config.probe_samples * (l_eff + 1), fails)
        out["prefix_probe"]["l_max"] = l_eff
    else:
        out["prefix_probe"] = {"skipped": f"q_1 exceeds probe_q_limit={config.probe_q_limit}"}
    mark = _lap(stages, "prefix_probe", mark)

    fails = []
    checked = 0
    skipped = []
    for n_mod in (2, 3):
        for j in range(n_mod):
            try:
                verdicts_ = shiftcalc.residue_class_probe(cf, j, n_mod, config.class_l_max)
            except WitnessUnavailable:
                skipped.append({"j": j, "mod": n_mod})
                continue
            checked += 1
            expected = tuple(l % n_mod == j for l in range(config.class_l_max + 1))
            if verdicts_ != expected:
                fails.append({"j": j, "mod": n_mod, "got": list(verdicts_)})
    _sweep(out, "class_probe", checked, fails)
    out["class_probe"]["infeasible"] = skipped
    _lap(stages, "class_probe", mark)

    out["stages"] = {k: round(v, 3) for k, v in stages.items()}
    out["elapsed_s"] = round(time.perf_counter() - t0, 3)
    return out


def corrected_failures(report: dict) -> int:
    """Count corrected-form failures in a full report."""
    bad = 0
    for res in report["results"]:
        if "error" in res:
            bad += 1
            continue
        bad += sum(1 for v in res["identities"] if v["corrected"] != "holds")
        for key, val in res.items():
            if isinstance(val, dict) and "failures" in val:
                bad += val["failures"]
    return bad


def printed_failures(report: dict) -> int:
    total = 0
    for res in report["results"]:
        if "error" in res:
            continue
        total += sum(1 for v in res["identities"] if v["printed"] != "holds")
    return total


def run_suite(config: SuiteConfig = SuiteConfig()) -> dict:
    """Run the harness over every d in the suite and assemble the report.

    A malformed suite (square or non-positive radicand) is rejected up
    front; any exception raised mid-run for an individual d is recorded
    in that d's result entry instead of aborting the remaining radicands.
    """
    for d in config.d_list:
        if cfrac.check_radicand(d) <= 1:
            raise UnsupportedRadicand(f"d must exceed 1, got {d}; use normalize_d")
    t0 = time.perf_counter()
    results = []
    for d in config.d_list:
        try:
            results.append(audit_one(d, config))
        except Exception as exc:  # recorded per radicand; the suite goes on
            results.append({"d": str(d), "error": f"{type(exc).__name__}: {exc}"})
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
        if "error" in res:
            lines.append(f"d={res['d']}: ERROR {res['error']}")
            continue
        lines.append(
            f"d={res['d']}: period={res['period']} m={res['m']} "
            f"t={res['t']} ({res['elapsed_s']}s)"
        )
        for v in res["identities"]:
            note = ""
            if v["witness"]:
                w = v["witness"]
                note = f"  [k={w['k']}: {w['lhs']} vs {w['rhs']}]"
            lines.append(
                f"  {v['fact_id']:24s} printed:{v['printed']:5s} "
                f"corrected:{v['corrected']}{note}"
            )
        for key in (
            "roundtrip_and_split", "uniqueness", "recover_frac", "recover_nat",
            "times_sqrt_exact", "times_sqrt_real", "prefix_probe", "class_probe",
        ):
            info = res.get(key)
            if info is None:
                continue
            if "skipped" in info:
                lines.append(f"  {key:24s} skipped ({info['skipped']})")
            else:
                lines.append(
                    f"  {key:24s} checked:{info['checked']} failures:{info['failures']}"
                )
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
        if "error" in res:
            rows.append(f"{res['d']}\terror\t-\t-\t{res['error']}")
            continue
        for v in res["identities"]:
            detail = ""
            if v["witness"]:
                w = v["witness"]
                detail = f"k={w['k']} lhs={w['lhs']} rhs={w['rhs']}"
            rows.append(
                f"{res['d']}\t{v['fact_id']}\t{v['printed']}\t{v['corrected']}\t{detail}"
            )
        for key, val in res.items():
            if isinstance(val, dict) and "failures" in val:
                rows.append(
                    f"{res['d']}\t{key}\t-\t"
                    f"{'holds' if val['failures'] == 0 else 'fails'}\t"
                    f"checked={val['checked']}"
                )
    return "\n".join(rows)
