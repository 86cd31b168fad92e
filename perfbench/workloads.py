"""Inputs, closed loops and output checks for the three workloads.

Every workload runs in one process, single-threaded, as a closed loop
with one client: the next item starts when the previous one returns.
Inputs are generated and every output is checked outside the timed
regions.  An item fails if it raises, exits non-zero or disagrees with
its reference.

A run's samples are (latency, ok, ranked) triples.  Ranked items make
up the latency percentiles.  Every item is ranked except the cli-mixed
`mul` commands for which the reference predicts the known m-shift
overrun: their sample is fixed by the inputs, not by the outcome.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time
from fractions import Fraction

import reference

# Audit subsets.  One pass over all 21 default radicands (about a minute)
# or all four long-period ones (about 50 s) does not fit the run length,
# so each audit workload runs a fixed subset; its seed only reaches
# SuiteConfig.seed, as in `ostro audit --seed`.
#   audit-default: one radicand per period length found in the default
#   list (1, 2, 4, 5, 6, 8, 11), plus two non-integer radicands.
AUDIT_DEFAULT_SUBSET = ("2", "3", "7", "13", "21", "31", "61", "3/2", "32/9")
#   audit-long-period: the shortest and the longest period of the set.
LONG_PERIOD = ("991", "9949", "99991", "1000003/7")
AUDIT_LONG_SUBSET = ("991", "99991")

# Sweeps present in every audit entry at the commit the golden file was
# recorded at.  Keys added to the report later are ignored.
GOLDEN_SWEEPS = (
    "roundtrip_and_split", "recover_frac", "recover_nat", "uniqueness",
    "times_sqrt_exact", "times_sqrt_real", "prefix_probe", "class_probe",
)


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        value, error = fn(*args), None
    except Exception as exc:  # a raising item is a failed item, not a crash
        value, error = None, f"{type(exc).__name__}: {exc}"
    return t0, time.perf_counter(), value, error


def _new_run() -> dict:
    return {"samples": [], "walls": [], "raw_walls": [], "failures": [],
            "mismatches": [], "swept": 0}


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def project(entry: dict) -> dict:
    """The verdict projection of one audit entry: no timings, no samples."""
    if "error" in entry:
        return {"d": entry["d"], "error": entry["error"]}
    sweeps = {}
    for key in GOLDEN_SWEEPS:
        info = entry.get(key) or {}
        if "skipped" in info:
            sweeps[key] = {"skipped": info["skipped"]}
        else:
            sweeps[key] = {"checked": info.get("checked"), "failures": info.get("failures")}
    return {
        "d": entry["d"],
        "period": entry["period"],
        "m": entry["m"],
        "t": entry["t"],
        "identities": [
            [v["fact_id"], v["printed"], v["corrected"], v["witness"]]
            for v in entry["identities"]
        ],
        "constants": entry["constants"],
        "recovery_printed_fails_upto_50": entry.get("recovery_printed_fails_upto_50"),
        "sweeps": sweeps,
    }


def run_audit(ostro, configs, passes, golden, sampler):
    """Closed loop over the audit configs, `passes` times; times in
    reference seconds."""
    run = _new_run()

    def one_pass():
        wall = raw = 0.0
        for config in configs:
            t0, t1, report, error = _timed(ostro.run_suite, config)
            ref = sampler.reference(t0, t1)
            wall += ref
            raw += t1 - t0
            d = str(config.d_list[0])
            if error is None:
                entry = report["results"][0]
                run["swept"] += entry.get("recover_frac", {}).get("checked", 0)
                if report["summary"]["corrected_failures"]:
                    error = "corrected-form failures: exit code 1"
                elif project(entry) != golden.get(d):
                    error = "verdict projection differs from the golden file"
                if error is not None:
                    run["mismatches"].append({"d": d, "why": error, "projection": project(entry)})
            run["samples"].append((ref, error is None, True))
            if error is not None:
                run["failures"].append({"d": d, "error": error})
        run["walls"].append(wall)
        run["raw_walls"].append(raw)

    for _ in range(passes):
        one_pass()
    return run


# ---------------------------------------------------------------------------
# cli-mixed
# ---------------------------------------------------------------------------

KINDS = ("cf", "constants", "mul-rat", "mul-quad", "encode-nat", "encode-real",
         "decode-nat", "decode-real")
BLOCK = 5 * len(KINDS)  # commands per block; four of them use long periods
# Of the five mul commands of each kind in a block, this many are drawn
# among the inputs the reference predicts to hit the m-shift overrun and
# the rest among those it predicts not to.  Left to chance the count per
# block ranges 0-7 (mean 4.2 of 10), so the failures of a run would
# depend on the seed; fixed, every run on a given program fails the same
# number of commands.
OVERRUNS_PER_KIND = 2
MAX_DRAWS = 1000
TRACE_BLOCKS = 20  # the fixed work of a traced cli-mixed run
# An untraced run does a fixed amount of work sized from --seconds at the
# speed of the commit the benchmark was written at: a cli-mixed block
# (40 commands with their generation and checks) took about 0.6 s there
# and an audit pass of either subset 25-30 s.
CLI_BLOCKS_PER_S = 1.5
AUDIT_PASS_S = 30

_QUAD = re.compile(r"^(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)\*sqrt\((.+)\)$")


def _parse_quad(text: str, d: Fraction):
    m = _QUAD.match(text.strip())
    if not m or Fraction(m.group(4)) != d:
        raise ValueError(f"not a value over sqrt({d}): {text!r}")
    b = Fraction(m.group(3))
    return Fraction(m.group(1)), (-b if m.group(2) == "-" else b)


def _digits_text(digits) -> str:
    return ",".join(map(str, digits))


class CommandGen:
    """Seeded command stream with its references.

    Each block holds every kind five times.  Its four long-period slots
    carry one long-period radicand each, on a kind that rotates from
    block to block; the other slots draw from the default list.  The
    seed and the block's index pick radicands, parameters and the order
    within a block, not the mix, so block j is the same in every run.
    """

    def __init__(self, seed: int, default_list):
        self.seed = seed
        self.default_list = [Fraction(d) for d in default_list]
        self.long_list = [Fraction(d) for d in LONG_PERIOD]
        self.expansions: dict[Fraction, reference.Expansion] = {}

    def expansion(self, d: Fraction) -> reference.Expansion:
        if d not in self.expansions:
            self.expansions[d] = reference.Expansion(d, reference.CLI_DEFAULT_DEPTH)
        return self.expansions[d]

    def block(self, j: int) -> list[dict]:
        rng = random.Random(f"cli-mixed:{self.seed}:{j}")
        slots = [[KINDS[s % len(KINDS)], None, False] for s in range(BLOCK)]
        for i, d in enumerate(self.long_list):
            slots[len(KINDS) * i + (2 * i + j) % len(KINDS)][1] = d
        for kind in ("mul-rat", "mul-quad"):
            on_default = [slot for slot in slots if slot[0] == kind and slot[1] is None]
            for slot in on_default[:OVERRUNS_PER_KIND]:
                slot[2] = True
        rng.shuffle(slots)
        return [self.command(rng, kind, d, overrun) for kind, d, overrun in slots]

    def command(self, rng: random.Random, kind: str, d: Fraction | None,
                overrun: bool | None = None) -> dict:
        """One command on d, or on a radicand drawn from the default list
        when d is None.  A mul command with `overrun` True or False is
        drawn again (radicand too, when d is None) until the reference's
        prediction of the m-shift overrun agrees."""
        if kind.startswith("mul") and overrun is not None:
            for _ in range(MAX_DRAWS):
                cmd = self.command(rng, kind, d)
                if (cmd["overrun"] is not None) == overrun:
                    return cmd
            raise ValueError(f"no {kind} input with overrun={overrun} in {MAX_DRAWS} draws")
        if d is None:
            d = rng.choice(self.default_list)
        e = self.expansion(d)
        ds = str(d)
        cmd = {"kind": kind, "d": d}
        if kind in ("cf", "constants"):
            cmd["argv"] = [kind, "--d", ds, "--depth", str(e.documented_depth())]
        elif kind.startswith("mul"):
            eps_text = f"{rng.randint(10, 99) / 10}e-{rng.randint(9, 60)}"
            eps = Fraction(eps_text)
            if kind == "mul-rat":
                x = (Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4)), Fraction(0))
                xtext = str(x[0])
            else:
                x = (Fraction(rng.randint(0, 1000), rng.randint(1, 100)),
                     Fraction(rng.randint(1, 50), rng.randint(1, 20)))
                xtext = f"{x[0]}+{x[1]}*sqrt({ds})"
            depth = e.documented_depth(e.depth_for_eps(eps))
            # The documented depth covers eps but not the shift by m, so
            # the product may read past it: the known m-shift overrun.
            index = e.product_shift_index(x, eps)
            cmd.update(x=x, eps=eps, argv=["mul", "--d", ds, "--depth", str(depth),
                                           "--x", xtext, "--eps", eps_text],
                       overrun=(f"exit 3: error: shifted index {index} exceeds depth {depth}"
                                if index > depth else None))
        elif kind == "encode-nat":
            k = rng.randint(1, 25)
            n = rng.randint(10 ** (k - 1), 10**k - 1)
            depth = e.documented_depth(e.depth_for_nat(n))
            cmd.update(n=n, argv=["encode", "--d", ds, "--depth", str(depth), str(n)])
        elif kind == "encode-real":
            length = rng.randint(8, 60)
            if rng.random() < 0.5:
                # a0 + u - sqrt(d) with u in [0, 1) lies in I
                u = Fraction(rng.randrange(10**6), 10**6)
                c = (e.a0 + u, Fraction(-1))
                text = f"{c[0]}-sqrt({ds})"
            else:
                while True:  # a nonnegative rational in I
                    c = (Fraction(rng.randrange(10**6), 10**6), Fraction(0))
                    if e.in_interval(*c):
                        break
                text = str(c[0])
            depth = e.documented_depth(length)
            cmd.update(c=c, length=length, argv=[
                "encode", "--d", ds, "--depth", str(depth), "--digits", str(length), text])
        else:  # decode-nat / decode-real
            real = kind == "decode-real"
            if real:
                digits = e.random_valid_digits(rng, rng.randint(8, 60))
            else:
                k = rng.randint(1, 25)
                digits = e.nat_digits(rng.randint(10 ** (k - 1), 10**k - 1))
            argv = ["decode"]
            if rng.random() < 0.5:
                argv += [f"{_digits_text(digits)}@d={ds}"]
            else:
                argv += [_digits_text(digits), "--d", ds]
            argv += ["--depth", str(e.documented_depth(len(digits)))]
            cmd.update(digits=digits, argv=argv + (["--real"] if real else []))
        return cmd

    def check(self, cmd: dict, out: str) -> str | None:
        """None when the printed output agrees with the reference, else why not."""
        d, e, kind = cmd["d"], self.expansion(cmd["d"]), cmd["kind"]
        lines = out.strip().splitlines()
        try:
            e.extend(max(12, e.m))
            if kind == "cf":
                want = [f"d = {d}", f"a0 = {e.a0}",
                        f"period = {e.period}  (length m = {e.m})"]
                if lines[:3] != want:
                    return "expansion header differs"
                conv = [f"  p_{k}/q_{k} = {e.p[k + 1]}/{e.q[k + 1]}" for k in range(12)]
                if lines[4:16] != conv:
                    return "convergents differ"
                unit = _parse_quad(lines[16].split(" = ", 1)[1], d)
                if unit != (e.p[e.m], e.q[e.m]):
                    return "fundamental unit differs"
            elif kind == "constants":
                fields = dict(line.split(" = ", 1) for line in lines[:5])
                if int(fields["t"]) != e.t:
                    return "t differs"
                v = [Fraction(s) for s in fields["v"].strip("()").split(", ")]
                w = [Fraction(s) for s in fields["w"].strip("()").split(", ")]
                if not e.constants_hold(v, w):
                    return "q_{kt+i} = v_i p_{kt+i+1} + w_i p_{kt+i} fails"
                a, b = e.q[e.m], e.p[e.m]
                if lines[5] != f"a = {a}, b = {b}, a^2*d - b^2 = {a * a * d - b * b}":
                    return "unit coefficients differ"
            elif kind.startswith("mul"):
                ra, rb = _parse_quad(lines[0].rsplit(" = ", 1)[1], d)
                xa, xb = cmd["x"]
                # result - sqrt(d) * x, with sqrt(d) * (xa + xb sqrt(d)) = xb d + xa sqrt(d)
                ea, eb = ra - xb * d, rb - xa
                eps = cmd["eps"]
                if not (reference.sign(ea - eps, eb, d) < 0 < reference.sign(ea + eps, eb, d)):
                    return "|result - sqrt(d) x| >= eps"
            elif kind == "encode-nat":
                if lines != [f"{_digits_text(e.nat_digits(cmd['n']))}@d={d}"]:
                    return "digits differ from the greedy expansion"
            elif kind == "encode-real":
                text, _, tag = lines[0].partition("@d=")
                digits = [int(s) for s in text.split(",")] if text else []
                if Fraction(tag) != d or not e.real_digits_certified(cmd["c"], digits, cmd["length"]):
                    return "digits are not the certified prefix"
            elif kind == "decode-nat":
                if lines != [str(e.nat_value(cmd["digits"]))]:
                    return "value differs"
            else:
                if _parse_quad(lines[0].split(" = ", 1)[0], d) != e.real_value(cmd["digits"]):
                    return "value differs"
        except (IndexError, KeyError, ValueError) as exc:
            return f"unparsable output ({type(exc).__name__}: {exc})"
        return None


def call_cli(main, argv):
    """cli.main(argv) with stdout and stderr captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_cli(cli, gen, blocks, sampler):
    """Closed loop of in-process cli.main calls over blocks 0 .. blocks-1;
    times in reference seconds at the block's average speed.  A failure is the known m-shift
    overrun only when the reference predicted it, message and all."""
    run = _new_run()

    def one_pass(j):
        block = gen.block(j)
        results = []
        t_pass = time.perf_counter()
        for cmd in block:
            results.append((cmd, *_timed(call_cli, cli.main, cmd["argv"])))
        t_end = time.perf_counter()
        wall = sampler.reference(t_pass, t_end)
        # commands are too short to carry their own speed estimate
        scale = wall / (t_end - t_pass - sampler.busy(t_pass, t_end))
        run["walls"].append(wall)
        run["raw_walls"].append(t_end - t_pass)
        for cmd, t0, t1, value, error in results:
            if error is None:
                code, out, err = value
                if code != 0:
                    error = f"exit {code}: {err.strip()}"
                else:
                    why = gen.check(cmd, out)
                    if why is not None:
                        error = f"wrong output: {why}"
                        run["mismatches"].append({"argv": cmd["argv"], "why": why, "output": out})
            overrun = cmd.get("overrun")
            run["samples"].append(
                ((t1 - t0 - sampler.busy(t0, t1)) * scale, error is None, overrun is None))
            if error is not None:
                run["failures"].append({
                    "argv": cmd["argv"],
                    "error": error,
                    "known_m_shift_overrun": overrun is not None and error == overrun,
                })

    for j in range(blocks):
        one_pass(j)
    return run


def default_depth_exit3(cli, radicands) -> int:
    """How many radicands make `ostro cf --d <d>` exit 3 at default flags."""
    return sum(call_cli(cli.main, ["cf", "--d", str(d)])[0] == 3 for d in radicands)
