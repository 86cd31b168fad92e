"""Benchmark for ostro: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload audit-default --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    audit-default      harness.run_suite once per radicand of a fixed
                       subset of DEFAULT_D_LIST, default SuiteConfig
    audit-long-period  the same call on long-period radicands
    cli-mixed          a seeded stream of in-process cli.main(argv) calls

Each run is one process, single-threaded, a closed loop with one client.
It imports the package from ``src/`` next to this directory and exits 2
without a result if that is missing.  Inputs come from ``--seed``; every
output is checked against perfbench/reference.py (cli-mixed) or against
perfbench/golden.json (audits).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``correct`` holds when every item matched its reference
or failed with the known m-shift overrun of ``ostro mul`` (a documented
depth that covers eps but not the m-position shift) exactly where the
reference predicts it; every failure is listed in the record.

Every run does a fixed amount of work, so that the items it attempts
and fails depend on the seed and the program, never on the machine's
speed.  An untraced run sizes it from ``--seconds`` at the speed of the
commit the benchmark was written at (cli-mixed blocks 0 .. n-1, or n
audit passes; see workloads.py).  A traced run does the same work
whatever ``--seconds`` says: one audit pass, or the first TRACE_BLOCKS
cli-mixed blocks.  It does that work once untraced and once with every
traced function wrapped, reports calls and self times of the traced
pass, and the difference of the two as ``trace.overhead_s``.  A full
record of the run goes to
perfbench/out/<workload>-seed<seed>-trace<trace>.json.

Every reported time is in reference seconds: raw seconds scaled by the
machine's speed at the time, as measured by a fixed calibration loop
sampled during each timed interval (see speed.py).  Raw figures are kept
in the record.

Percentiles use the nearest-rank method over the ranked items (see
workloads.py), a failed one counting as slower than every successful
one.  The cli-mixed commands that the reference predicts to overrun
(4 of the 40 in each block) are not ranked, whatever their outcome, so the sample does
not change when the program starts or stops failing them; ``ok_frac``
counts them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("audit-default", "audit-long-period", "cli-mixed")
SETUP_REPEATS = 11
# The child times its own import, then runs the calibration loop on the
# same vCPU right after it, so the import converts to reference seconds.
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import ostro, ostro.cli\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from speed import calibration_loop\n"
    "cal = []\n"
    "for _ in range(5):\n"
    "    c0 = time.perf_counter()\n"
    "    calibration_loop()\n"
    "    cal.append(time.perf_counter() - c0)\n"
    "print(t1 - t0, sorted(cal)[2])\n"
)


def measure_setup() -> list[float]:
    """`import ostro` (with its CLI module) in fresh interpreters, in
    reference seconds; one untimed import first so that every sample
    reads compiled bytecode."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            seconds, cal = map(float, proc.stdout.split())
            samples.append(seconds * speed.CAL_REF_S / cal)
    return samples


def ranked(samples) -> list[tuple[bool, float]]:
    """(failed, latency) of the ranked items, failed ones last."""
    return sorted((not ok, dt) for dt, ok, rank in samples if rank)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; a failed item reads as the slowest latency."""
    items = ranked(samples)
    failed, dt = items[max(0, math.ceil(q * len(items)) - 1)]
    return max(t for _, t in items) if failed else dt


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Workload:
    """Items and the pass loop of one workload for one seed."""

    def __init__(self, name: str, seed: int, ostro, cli, golden):
        self.name, self.ostro, self.cli, self.golden = name, ostro, cli, golden
        if name == "cli-mixed":
            self.gen = workloads.CommandGen(seed, ostro.DEFAULT_D_LIST)
            self.radicands = [str(d) for d in ostro.DEFAULT_D_LIST] + list(workloads.LONG_PERIOD)
            self.size = {"block_commands": workloads.BLOCK, "long_period_share": 4 / workloads.BLOCK,
                         "traced_blocks": workloads.TRACE_BLOCKS}
        else:
            subset = (workloads.AUDIT_DEFAULT_SUBSET if name == "audit-default"
                      else workloads.AUDIT_LONG_SUBSET)
            # one run_suite call per radicand, default SuiteConfig but the seed
            self.configs = [ostro.SuiteConfig(d_list=(Fraction(d),), seed=seed) for d in subset]
            self.radicands = ([str(d) for d in ostro.DEFAULT_D_LIST] if name == "audit-default"
                              else list(workloads.LONG_PERIOD))
            self.size = {"subset": list(subset),
                         "suite_config": {k: v for k, v in self.configs[0].to_json().items()
                                          if k != "d_list"}}

    def units(self, seconds: float | None) -> int:
        """cli-mixed blocks or audit passes of a run sized for `seconds`,
        or of the fixed traced work when None."""
        if self.name == "cli-mixed":
            per_s, traced = workloads.CLI_BLOCKS_PER_S, workloads.TRACE_BLOCKS
        else:
            per_s, traced = 1 / workloads.AUDIT_PASS_S, 1
        return traced if seconds is None else max(1, round(seconds * per_s))

    def measure(self, units: int) -> dict:
        """One measurement of `units` blocks or passes."""
        with speed.SpeedSampler() as sampler:
            if self.name == "cli-mixed":
                run = workloads.run_cli(self.cli, self.gen, units, sampler)
            else:
                run = workloads.run_audit(self.ostro, self.configs, units, self.golden, sampler)
        run["calibration_s"] = sampler.durations
        return run


def end_to_end(run: dict, setup: list[float]) -> dict:
    samples = run["samples"]
    failed = sum(1 for _, ok, _ in samples if not ok)
    n_ranked = len(ranked(samples))
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(run["walls"]), "s", len(run["walls"])),
        "item_ms_p50": (1000 * percentile(samples, 0.50), "ms", n_ranked),
        "item_ms_p99": (1000 * percentile(samples, 0.99), "ms", n_ranked),
        "ok_frac": ((len(samples) - failed) / len(samples), "1", len(samples)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(tracer: spans.Tracer, traced: dict, untraced: dict, exit3: int) -> dict:
    totals = tracer.totals()
    scale = sum(traced["walls"]) / sum(traced["raw_walls"])  # to reference seconds
    out = {}
    for name, (calls, self_s) in totals.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s * scale, "s")

    def ratio(useful, attempts):
        return useful / attempts if attempts else 0.0

    enc = totals["ostrowski.encode_nat"][0]
    out["ostrowski.encode_nat.useful_ratio"] = (ratio(len(tracer.encoded), enc), "1")
    out["ostrowski.validate.useful_ratio"] = (
        ratio(totals["ostrowski.make_digits"][0], totals["ostrowski.validate"][0]), "1")
    out["shiftcalc.check_recover_frac.useful_ratio"] = (
        ratio(traced["swept"], totals["shiftcalc.check_recover_frac"][0]), "1")
    out["trace.overhead_s"] = (
        statistics.median(traced["walls"]) - statistics.median(untraced["walls"]), "s")
    out["cli.default_depth_exit3"] = (exit3, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ostro" / "__init__.py").is_file():
        print(f"error: no ostro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    setup = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import ostro
    import ostro.cli
    if Path(ostro.__file__).resolve().parent != SRC / "ostro":
        print(f"error: imported ostro from {ostro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())

    wl = Workload(args.workload, args.seed, ostro, ostro.cli, golden)
    units = wl.units(None if args.trace else args.seconds)
    untraced = wl.measure(units)
    exit3 = workloads.default_depth_exit3(ostro.cli, wl.radicands)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "git_sha": git_sha(),
        "size": {**wl.size, ("blocks" if args.workload == "cli-mixed" else "passes"): units},
        "percentile_method": ("nearest rank over the ranked items, failed ones last; "
                              "predicted m-shift overruns are not ranked"),
        "loop": "closed, one client, single thread",
        "items": len(untraced["samples"]),
        "passes": len(untraced["walls"]),
        "time_unit": ("reference seconds: each stretch of work between two calibration "
                      "runs times CAL_REF_S over the calibration time that ends it"),
        "cal_ref_s": speed.CAL_REF_S,
        "calibration_s": {"samples": len(untraced["calibration_s"]),
                          "median": statistics.median(untraced["calibration_s"]),
                          "min": min(untraced["calibration_s"]),
                          "max": max(untraced["calibration_s"])},
        "raw_wall_s_median": statistics.median(untraced["raw_walls"]),
        "failed_frac": sum(1 for _, ok, _ in untraced["samples"] if not ok) / len(untraced["samples"]),
        "cli.default_depth_exit3": exit3,
    }
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = wl.measure(units)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced, exit3)
        record["spans"] = tracer.table()
        runs = [untraced, traced]
    else:
        metrics = end_to_end(untraced, setup)
        runs = [untraced]
    failures = [f for r in runs for f in r["failures"]]
    mismatches = [m for r in runs for m in r["mismatches"]]
    attempted = sum(len(r["samples"]) for r in runs)
    record["metrics"] = {
        k: {"value": v[0], "unit": v[1], **({"samples": v[2]} if len(v) > 2 else {})}
        for k, v in metrics.items()
    }
    record["known_m_shift_overruns"] = sum(1 for f in failures if f.get("known_m_shift_overrun"))
    record["failures"] = failures
    record["mismatches"] = mismatches
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for name, (value, unit, *count) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}" + (f"  (n={count[0]})" if count else ""))
    print(json.dumps({
        "correct": not mismatches and all(f.get("known_m_shift_overrun") for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
