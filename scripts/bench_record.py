#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<pr>.json.

Usage, from any directory:

    python3 scripts/bench_record.py --pr N [--root DIR]

For each workload of the checkout's BENCHMARK.json this runs
``perfbench/run.py`` untraced on K = 7 seeds (101 .. 107) and once
traced on seed 101, one process at a time, then times the tier-1 test
command.  The record holds the checkout's git sha, machine info, per
workload the median and quartiles of every end-to-end metric over the K
runs (with K and the raw values), and every per-layer metric of the
traced run: call counts, self times, useful ratios and tracing overhead.
A ``layers`` block, measured in a subprocess on the checkout's ``src/``,
adds what the traced run cannot show: the min of 7 runs of
``cfrac.expand(99991, 874)``; per audit stage, the min of 3 runs of
``ostro.run_suite`` at the default config for d = 99991 and for d = 3;
and the min of 7 runs each of ``cfrac.derive_shift_constants`` on
``expand(99991, 874)``, of ``expand(99991, 64).at_least(1311)``, of
``ostrowski.encode_real`` to 150 digits over the 40 values
7 + j/40 - sqrt(61), j = 0 .. 39, and of ``QuadRat`` addition,
multiplication and sign over 1000 fixed pairs of elements of Q(sqrt(13/4))
whose parts have numerators up to 10^12 and denominators up to 10^6.

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


def time_tier1(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


# Run as `python -c LAYERS SRC`: imports ostro from SRC and prints one JSON line.
LAYERS = """
import json, random, sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
import ostro
from ostro import cfrac, ostrowski

def best(fn, k):
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)

stages = {}
for d in (99991, 3):
    runs = [ostro.run_suite(ostro.SuiteConfig(d_list=(Fraction(d),)))["results"][0]["stages"]
            for _ in range(3)]
    stages[str(d)] = {name: min(r[name] for r in runs) for name in runs[0]}
cf874, cf64, cf61 = cfrac.expand(99991, 874), cfrac.expand(99991, 64), cfrac.expand(61, 150)
values = [ostro.quad(7 + Fraction(j, 40), -1, 61) for j in range(40)]
rng = random.Random(1304)
def part():
    return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
pairs = [(ostro.quad(part(), part(), Fraction(13, 4)), ostro.quad(part(), part(), Fraction(13, 4)))
         for _ in range(1000)]
print(json.dumps({
    "expand_99991_874": {"unit": "s", "min_of": 7,
                         "value": best(lambda: cfrac.expand(99991, 874), 7)},
    "audit_stages": {"unit": "s", "min_of": 3, "by_d": stages},
    "derive_shift_constants_99991_874": {
        "unit": "s", "min_of": 7, "value": best(lambda: cfrac.derive_shift_constants(cf874), 7)},
    "at_least_99991_64_1311": {"unit": "s", "min_of": 7,
                               "value": best(lambda: cf64.at_least(1311), 7)},
    "encode_real_61_40x150": {
        "unit": "s", "min_of": 7,
        "value": best(lambda: [ostrowski.encode_real(c, cf61, 150) for c in values], 7)},
    "quadrat_add_13_4_1000": {"unit": "s", "min_of": 7,
                              "value": best(lambda: [x + y for x, y in pairs], 7)},
    "quadrat_mul_13_4_1000": {"unit": "s", "min_of": 7,
                              "value": best(lambda: [x * y for x, y in pairs], 7)},
    "quadrat_sign_13_4_1000": {"unit": "s", "min_of": 7,
                               "value": best(lambda: [x.sign() for x, _ in pairs], 7)},
}))
"""


def measure_layers(root: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", LAYERS, str(root / "src")], cwd=root,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha(root: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seeds = list(range(SEED0, SEED0 + K))

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
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "benchmark": {"command": bench["command"], "run_seconds": bench["run_seconds"],
                      "time_unit": "reference seconds (see perfbench/speed.py)"},
        "workloads": workloads,
        "layers": measure_layers(root),
        "tier1": time_tier1(root),
    }
    out = HERE / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
