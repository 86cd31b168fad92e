"""scripts/bench_record.py against a stub checkout holding a copy of the
script: one record per call at the checkout's root, medians and quartiles
over the seeds, the traced metrics, tier-1 timed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"

STUB_RUN = '''
import argparse, json
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
if a.trace == "1":
    metrics = {"f.calls": {"value": 7, "unit": "count"}}
else:
    metrics = {"wall_s": {"value": int(a.seed), "unit": "s"}}
print("wall_s 1.0 s")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
'''


def test_bench_record_on_a_stub_checkout(tmp_path):
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "tests").mkdir()
    (root / "tests" / "test_one.py").write_text("def test_one():\n    pass\n")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 1,
        "workloads": [{"name": "stub"}]}))
    (root / "scripts").mkdir()
    shutil.copy(SCRIPT, root / "scripts")
    proc = subprocess.run(  # no --root: the checkout holding the script
        [sys.executable, str(root / "scripts" / SCRIPT.name), "--pr", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads((root / "BENCH_1.json").read_text())
    assert rec["pr"] == 1 and rec["git_sha"] is None  # the stub is no git checkout
    assert rec["machine"]["nproc"] >= 1
    wl = rec["workloads"]["stub"]
    seeds = list(range(101, 108))
    assert wl["seeds"] == seeds and wl["correct"]
    assert wl["metrics"]["wall_s"] == {"unit": "s", "k": 7, "median": 104, "q1": 102.5,
                                       "q3": 105.5, "values": seeds}
    assert wl["traced_seed"] == 101
    assert wl["traced"] == {"f.calls": 7}
    assert rec["tier1"]["returncode"] == 0 and "1 passed" in rec["tier1"]["summary"]
