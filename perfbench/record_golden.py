"""Record perfbench/golden.json: the verdict projection of every audit radicand.

    python3 perfbench/record_golden.py

Audits every radicand of DEFAULT_D_LIST and of the long-period set with
the default SuiteConfig and keeps, per radicand, what workloads.project
keeps: no timings and no sampled values.  Run it only at a commit whose
verdicts are trusted; the audit workloads fail any item that differs.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ostro  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    golden = {}
    for d in [str(d) for d in ostro.DEFAULT_D_LIST] + list(workloads.LONG_PERIOD):
        report = ostro.run_suite(ostro.SuiteConfig(d_list=(Fraction(d),)))
        golden[d] = workloads.project(report["results"][0])
        print(d, report["summary"]["corrected_failures"], flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
