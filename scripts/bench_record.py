#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<pr>.json.

Usage, from any directory:

    python3 scripts/bench_record.py --pr N [--root DIR]

It first byte-compiles the checkout's ``src/`` and ``perfbench/`` in a
``python -m compileall`` subprocess, so that no run compiles a module from
source, whether or not PYTHONDONTWRITEBYTECODE is set.  Then, for each
workload of the checkout's BENCHMARK.json, it runs
``perfbench/run.py`` untraced on K = 7 seeds (101 .. 107) and once
traced on seed 101, one process at a time, then times the tier-1 test
command.  The record holds the checkout's git sha, machine info, per
workload the median and quartiles of every end-to-end metric over the K
runs (with K and the raw values), and every per-layer metric of the
traced run: call counts, self times, useful ratios and tracing overhead.
Its provenance: ``git_sha``, the checkout's HEAD (the parent commit when
the change is not yet committed); ``dirty``, whether ``git status
--porcelain`` lists anything (null outside git); and ``src_sha256``, a
hash of the ``src/ostro/*.py`` bytes measured, taken once the benchmark
runs are done and equal to ``sha256sum src/ostro/*.py | sha256sum`` at
the checkout's root (C collation).
A ``layers`` block, measured in a subprocess on the checkout's ``src/``,
adds what the traced run cannot show: ``audit_stages``, per audit stage
the min of 3 runs of ``ostro.run_suite`` at the default config for
d = 99991 and for d = 3, and one entry per row of the ``kernels`` table
in ``LAYERS`` (a name and a zero-argument call on fixed inputs, such as
``harness._pass_over_n`` on a prebuilt context at d = 3 and 99991), each
``{"unit": "s", "min_of": 7, "value": <min of 7 calls in a row>}``.
An ``audit`` block times K_AUDIT = 3 runs of ``python -m ostro audit
--format json`` (the default suite) on the checkout and keeps per
radicand the min over the runs of its ``elapsed_s`` and of each stage
time.  A ``oneshot`` block runs each command of ONESHOT_ARGVS (``cf``,
``encode``, ``mul`` and ``audit --d 2``) in K_ONESHOT = 25 fresh ``python
-I`` interpreters; each imports ``ostro`` and ``ostro.cli`` and calls
``cli.main`` once, and the block keeps per command the min of the
import's seconds and the min of the first call's.  These are raw seconds
on a machine whose speed drifts between sessions, so a layer row
compares only with the same row timed in interleaved rounds of one
session, not with another record's.  ``src_lines`` counts the lines of
each ``src/ostro`` module (as ``wc -l`` does) and their total, the
tracked size of the library.

--root is the checkout to measure (default: the one holding this
script), so an older commit can be measured from a clone without this
script in it.  The record is written to BENCH_<pr>.json at the root of
the checkout holding this script.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED0, K = 101, 7  # the same seeds in every record, so records compare seed for seed
K_AUDIT = 3  # the default audit takes seconds, so fewer runs than the workloads
K_ONESHOT = 25  # fresh interpreters per one-shot command
ONESHOT_ARGVS = (["cf", "--d", "2"], ["encode", "--d", "3", "5"], ["mul", "--d", "3", "--x", "7/5"],
                 ["audit", "--d", "2"])
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def run_bench(root: Path, command: list[str], workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The last stdout line of one benchmark run, parsed."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the K values."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"k": len(values), "median": med, "q1": q1, "q3": q3, "values": values}


def src_env() -> dict:
    """The environment with the checkout's src/ first on PYTHONPATH (run from its root)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    return env


def time_tier1(root: Path) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, capture_output=True, text=True, env=src_env())
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def measure_audit(root: Path) -> dict:
    """Wall time of K_AUDIT default audits, and per radicand the min over the
    runs of elapsed_s and of each stage (radicands that errored have none)."""
    walls, runs = [], []
    for _ in range(K_AUDIT):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ostro", "audit", "--format", "json"],
                              cwd=root, capture_output=True, text=True, env=src_env())
        walls.append(time.perf_counter() - t0)
        if proc.returncode not in (0, 1):  # 1: a corrected-form check failed, still a report
            raise RuntimeError(f"ostro audit exited {proc.returncode}: {proc.stderr}")
        runs.append(json.loads(proc.stdout)["results"])
    by_d = {
        entries[0]["d"]: {
            "elapsed_s": min(e["elapsed_s"] for e in entries),
            "stages": {k: min(e["stages"][k] for e in entries) for k in entries[0]["stages"]},
        }
        for entries in zip(*runs) if "stages" in entries[0]
    }
    return {"unit": "s", "runs": K_AUDIT, "wall_s": walls, "by_d": by_d}


# Run as `python -I -c ONESHOT SRC ARGV...`: imports ostro and its CLI from SRC
# and calls cli.main(ARGV) once with stdout kept, then prints the exit code,
# the import's seconds and the call's.  It loads nothing before the import
# that a fresh interpreter has not, so the import pays for all it loads.
ONESHOT = """
import io, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ostro, ostro.cli
t1 = time.perf_counter()
stdout, sys.stdout = sys.stdout, io.StringIO()
code = ostro.cli.main(sys.argv[2:])
t2 = time.perf_counter()
sys.stdout = stdout
print(code, t1 - t0, t2 - t1)
"""


def measure_oneshot(root: Path) -> dict:
    """Per command of ONESHOT_ARGVS, the min over K_ONESHOT fresh interpreters
    of the import of ostro and ostro.cli and of cli.main's first call."""
    by_command = {}
    for argv in ONESHOT_ARGVS:
        times = []
        for _ in range(K_ONESHOT):
            proc = subprocess.run([sys.executable, "-I", "-c", ONESHOT, str(root / "src"), *argv],
                                  cwd=root, capture_output=True, text=True, check=True)
            code, import_s, call_s = proc.stdout.split()
            if code != "0":
                raise RuntimeError(f"ostro {' '.join(argv)} exited {code}")
            times.append((float(import_s), float(call_s)))
        by_command[" ".join(argv)] = {"import_s": min(t for t, _ in times),
                                      "first_call_s": min(t for _, t in times)}
    return {"unit": "s", "min_of": K_ONESHOT, "by_command": by_command}


# Run as `python -c LAYERS SRC`: imports ostro from SRC and prints one JSON line.
LAYERS = """
import collections, contextlib, io, json, os, random, sys, time, types
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
import ostro
from ostro import cfrac, cli, harness, ostrowski, shiftcalc

def timed(fn, k=7):  # the min of k calls in a row
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"unit": "s", "min_of": k, "value": min(times)}

def run_cli(argvs):
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            if cli.main(argv) != 0:
                raise RuntimeError(f"ostro {' '.join(argv)} failed")

stages = {}
for d in (99991, 3):
    runs = [ostro.run_suite(ostro.SuiteConfig(d_list=(Fraction(d),)))["results"][0]["stages"]
            for _ in range(3)]
    stages[str(d)] = {name: min(r[name] for r in runs) for name in runs[0]}
cf874, cf64, cf61 = cfrac.expand(99991, 874), cfrac.expand(99991, 64), cfrac.expand(61, 150)
unswept874 = cf874.replace()
values = [7 + Fraction(j, 40) - cf61.sqrt_d() for j in range(40)]  # over cf61.d itself
rng = random.Random(1304)
def part():
    return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
pairs = [(ostro.quad(part(), part(), Fraction(13, 4)), ostro.quad(part(), part(), Fraction(13, 4)))
         for _ in range(1000)]
cf3, cf31 = cfrac.expand(3, 64), cfrac.expand(31, 64)
sc3, sc64 = cfrac.derive_shift_constants(cf3), cfrac.derive_shift_constants(cf64)
cf1000001, cf12 = cfrac.expand(1000001, 64), cfrac.expand(10**12 + 1, 64)
sc1000001, sc12 = cfrac.derive_shift_constants(cf1000001), cfrac.derive_shift_constants(cf12)
cf1311, cf4023 = cf64.at_least(1311), cfrac.expand(2999999, 4023)  # m = 436 and m = 1340
rationals, eps = [Fraction(7, 5) + Fraction(j, 20) for j in range(20)], Fraction(1, 10**30)
cf256 = cfrac.expand(3, 256)  # eps = 10^-60 takes 212 digits, and the shift stays inside
sc256, eps60 = cfrac.derive_shift_constants(cf256), Fraction(1, 10**60)
by9973 = [Fraction(10**6 + 7 * j, 9973) for j in range(50)]
# the ints per n, for the verdict kernels: the reference flattening of the block
# sweep, kept with the checkout's tests; a checkout from before the block sweep
# has none, and its sweep yields them per n
sys.path.insert(1, os.path.join(os.path.dirname(sys.argv[1]), "tests"))
try:
    from shiftcalc_reference import natural_dots_per_n
except ImportError:
    natural_dots_per_n = shiftcalc.natural_dots_upto
dots = [t for _, t in natural_dots_per_n(cf3, sc3, 10**4)]
nats = [ostrowski.encode_nat(n, cf3) for n in range(10**4 + 1)]
dots99991 = [t for _, t in natural_dots_per_n(cf1311, sc64, 10**4)]
def pass_ctx(cf, sc):  # what audit_one hands the pass over n, at the default config
    return types.SimpleNamespace(cf=cf, sc=sc, config=ostro.SuiteConfig(d_list=(cf.d,)), out={})
ctx3, ctx99991 = pass_ctx(cf3, sc3), pass_ctx(cf1311, sc64)
short_argvs = [argv for d in ("2", "3", "7", "10", "19", "61", "13/4", "5/3") for argv in (
    ["cf", "--d", d, "--depth", "20"], ["constants", "--d", d], ["encode", "--d", d, "123456"],
    ["decode", "--real", f"0,1,0,1@d={d}"], ["mul", "--d", d, "--x", "7/5", "--eps", "1e-12"])]
kernels = {  # on the short _2_64 and _3_64 rows, building the value is a visible share
    "expand_2_64": lambda: cfrac.expand(2, 64),
    "expand_99991_64": lambda: cfrac.expand(99991, 64),  # m = 436: the closure reads 64 entries
    "expand_99991_874": lambda: cfrac.expand(99991, 874),
    "derive_shift_constants_3_64": lambda: cfrac.derive_shift_constants(cf3),
    "derive_shift_constants_99991_874": lambda: cfrac.derive_shift_constants(cf874),
    # a copy made by replace is not marked swept, so the shift constants check every index
    "derive_shift_constants_99991_874_unswept": lambda: cfrac.derive_shift_constants(unswept874),
    "at_least_99991_64_1311": lambda: cf64.at_least(1311),
    "encode_real_61_40x150": lambda: [ostrowski.encode_real(c, cf61, 150) for c in values],
    "quadrat_add_13_4_1000": lambda: [x + y for x, y in pairs],
    "quadrat_mul_13_4_1000": lambda: [x * y for x, y in pairs],
    "quadrat_sign_13_4_1000": lambda: [x.sign() for x, _ in pairs],
    # the pass over n's one sweep: the low table's greedy digits and their seven
    # sums (encode_nat below q_J), then one descent and sum per block past it
    "natural_dots_upto_3_10000": lambda: collections.deque(
        shiftcalc.natural_dots_upto(cf3, sc3, 10**4), maxlen=0),
    "natural_dots_upto_99991_10000": lambda: collections.deque(
        shiftcalc.natural_dots_upto(cf1311, sc64, 10**4), maxlen=0),
    # the audit's recovery stage on its own (n_max = 10^4): the sweep, the checks
    # per entry and per block, and the exact products; audit_stages reads it in
    # steps of 1 ms
    "pass_over_n_3_10000": lambda: harness._pass_over_n(ctx3),
    "pass_over_n_99991_10000": lambda: harness._pass_over_n(ctx99991),
    # q_1 = 2000: the first block lists 2000 low strings; q_1 = 2*10^6: streamed
    "natural_dots_upto_1000001_10000": lambda: collections.deque(
        shiftcalc.natural_dots_upto(cf1000001, sc1000001, 10**4), maxlen=0),
    "natural_dots_upto_1000000000001_10000": lambda: collections.deque(
        shiftcalc.natural_dots_upto(cf12, sc12, 10**4), maxlen=0),
    # 2885 strings: the uniqueness sweep's largest enumeration on the default list
    "enumerate_valid_31_8": lambda: collections.deque(ostrowski.enumerate_valid(cf31, 8), maxlen=0),
    "times_sqrt_real_99991_20": lambda: [shiftcalc.times_sqrt_real(x, eps, cf64, sc64)
                                         for x in rationals],
    "times_sqrt_real_3_256_50": lambda: [shiftcalc.times_sqrt_real(x, eps60, cf256, sc256)
                                         for x in by9973],
    "audit_identities_99991_1311": lambda: cfrac.audit_identities(cf1311),
    "audit_identities_2999999_4023": lambda: cfrac.audit_identities(cf4023),
    "encode_nat_3_10000": lambda: [ostrowski.encode_nat(n, cf3) for n in range(10**4 + 1)],
    "frac_verdicts_3_10000": lambda: [shiftcalc.frac_verdicts(cf3, sc3, fa, n, ya, yb)
                                      for fa, n, ya, yb, *_ in dots],
    "frac_verdicts_99991_10000": lambda: [shiftcalc.frac_verdicts(cf1311, sc64, fa, n, ya, yb)
                                          for fa, n, ya, yb, *_ in dots99991],
    "nat_verdicts_3_10000": lambda: [shiftcalc.nat_verdicts(sc3, n, v1, w0)
                                     for _, n, _, _, v1, w0, _ in dots],
    "decode_real_3_10000": lambda: [ostrowski.decode_real(x) for x in nats],
    "check_recover_frac_3_2000": lambda: [shiftcalc.check_recover_frac(x, sc3) for x in nats[:2001]],
    "check_recover_nat_3_2000": lambda: [shiftcalc.check_recover_nat(x, sc3) for x in nats[:2001]],
    "prefix_nat_61_40x9": lambda: [shiftcalc.prefix_nat(cf61, l, c) for c in values
                                   for l in range(9)],
    "cli_main_short_40": lambda: run_cli(short_argvs),  # argv parsing is a visible share
    "cli_mul_99991_64": lambda: run_cli([["mul", "--d", "99991", "--x", "7/5"]]),
    # cli-mixed's documented depth at 99991: each command reads a few indices of it
    "cli_cf_99991_874": lambda: run_cli([["cf", "--d", "99991", "--depth", "874"]]),
    "cli_constants_99991_874": lambda: run_cli([["constants", "--d", "99991", "--depth", "874"]]),
    "cli_encode_nat_99991_874": lambda: run_cli([["encode", "--d", "99991", "--depth", "874",
                                                  "1234567890123456789012345"]]),
    "cli_decode_real_99991_874": lambda: run_cli([["decode", "--d", "99991", "--depth", "874",
                                                   "--real", ",".join(["0,1"] * 15)]]),
}
layers = {name: timed(fn) for name, fn in kernels.items()}
print(json.dumps({"audit_stages": {"unit": "s", "min_of": 3, "by_d": stages}, **layers}))
"""


def measure_layers(root: Path) -> dict:
    argv = [sys.executable, "-c", LAYERS, str(root / "src")]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines(root: Path) -> dict:
    """Newline count of each src/ostro module of the checkout, and the total."""
    by_module = {p.name: p.read_bytes().count(b"\n")
                 for p in sorted((root / "src" / "ostro").glob("*.py"))}
    return {"by_module": by_module, "total": sum(by_module.values())}


def src_sha256(root: Path) -> str:
    """sha256 of the sha256sum listing of the checkout's src/ostro/*.py, in name order.

    hashlib is imported here, after the benchmark runs: it grows this process
    by about 3.5 MB, and on Linux a child's ru_maxrss starts from the RSS of
    the process it was forked from, so every later run would report at least that.
    """
    import hashlib

    listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  src/ostro/{p.name}\n"
                      for p in sorted((root / "src" / "ostro").glob("*.py")))
    return hashlib.sha256(listing.encode()).hexdigest()


def git_sha(root: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_dirty(root: Path) -> bool | None:
    """Whether git status lists any change in the checkout; None outside git."""
    proc = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True,
                          text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seeds = list(range(SEED0, SEED0 + K))
    # a subprocess, not an import of compileall, which would grow this process
    # and so the peak RSS that every run forked from it starts from
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=root,
                   check=True)

    workloads = {}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [run_bench(root, bench["command"], wl, s, bench["run_seconds"], 0) for s in seeds]
        traced = run_bench(root, bench["command"], wl, SEED0, bench["run_seconds"], 1)
        workloads[wl] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": [r["failed"] for r in runs],
            "metrics": {
                name: {"unit": m["unit"], **summary([r["metrics"][name]["value"] for r in runs])}
                for name, m in runs[0]["metrics"].items()
            },
            "traced_seed": SEED0,
            "traced": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(f"{wl}: wall_s median {workloads[wl]['metrics']['wall_s']['median']:.3f}",
              file=sys.stderr)

    record = {
        "pr": args.pr,
        "git_sha": git_sha(root),
        "dirty": git_dirty(root),
        "src_sha256": src_sha256(root),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "benchmark": {"command": bench["command"], "run_seconds": bench["run_seconds"],
                      "time_unit": "reference seconds (see perfbench/speed.py)"},
        "workloads": workloads,
        "layers": measure_layers(root),
        "audit": measure_audit(root),
        "oneshot": measure_oneshot(root),
        "tier1": time_tier1(root),
        "src_lines": src_lines(root),
    }
    out = HERE / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
