"""scripts/bench_record.py against a stub checkout holding a copy of the
script: the checkout's src/ and perfbench/ byte-compiled before the first
run, even under PYTHONDONTWRITEBYTECODE; one record per call at the
checkout's root, medians and quartiles over the seeds, the traced
metrics, the layers measured on the checkout's src/ (expand, the audit
stages, the shift constants on a swept expansion and on an unswept copy,
at_least, encode_real, QuadRat add/mul/sign, the natural_dots_upto
block sweep at d = 3 and 99991, on the listed first block of d = 1000001 and
on the streamed one of d = 10^12 + 1, the audit's pass over n on a prebuilt
context at d = 3 and 99991, the enumerate_valid odometer,
times_sqrt_real, the identity audit at periods 436 and 1340, encode_nat,
the recovery verdicts on the ints per n of the tests' reference
flattening, decode_real, the
recovery checks, prefix_nat and cli.main on short commands; encode_real and prefix_nat on values over the
expansion's own d object, as the audit builds them), each layer the min
of 7 calls in a row with no calibration sample anywhere in the record,
the default audit timed per radicand, the import and first call of
four one-shot commands in fresh interpreters, tier-1 timed, and the line count
of each src/ostro module; and the record's provenance: the checkout's
git sha, whether its tree is dirty, and a hash of the src/ostro modules.
The script itself loads without hashlib, which would raise the RSS floor
of every benchmark run it starts."""

import hashlib
import importlib.util
import json
import os
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

STUB_OSTRO = '''
from fractions import Fraction

from . import cfrac, ostrowski


class Quad(tuple):
    def __add__(self, other):
        return self._same(other)

    def __mul__(self, other):
        return self._same(other)

    def _same(self, other):
        if self[2] != other[2]:
            raise ValueError((self, other))
        return self

    def __rsub__(self, other):
        return Quad((other - self[0], -self[1], self[2]))

    def sign(self):
        return 1


def quad(a, b, d):
    if d != Fraction(13, 4):
        raise ValueError(d)
    return Quad((a, b, d))


class SuiteConfig:
    def __init__(self, d_list):
        self.d_list = d_list


def run_suite(config):
    (d,) = config.d_list
    return {"results": [{"d": str(d), "stages": {"identities": float(d) / 1000, "recovery": 1.0}}]}
'''

STUB_CFRAC = '''
from fractions import Fraction


class CFData:
    def __init__(self, d, depth):
        self.d, self.depth = Fraction(d), depth  # a value over it carries this object

    def sqrt_d(self):
        from . import Quad
        return Quad((0, 1, self.d))

    def at_least(self, k):
        if (self.d, self.depth, k) != (99991, 64, 1311):
            raise ValueError((self.d, self.depth, k))
        return CFData(self.d, k)

    def replace(self):
        return CFData(self.d, self.depth)


def expand(d, depth):
    if (d, depth) not in ((99991, 874), (99991, 64), (61, 150), (3, 64), (3, 256), (2, 64),
                          (31, 64), (2999999, 4023), (1000001, 64), (10**12 + 1, 64)):
        raise ValueError((d, depth))
    return CFData(d, depth)


def derive_shift_constants(cf):
    if (cf.d, cf.depth) not in ((99991, 874), (99991, 64), (3, 64), (3, 256), (1000001, 64),
                                (10**12 + 1, 64)):
        raise ValueError((cf.d, cf.depth))
    return ("sc", cf.d)


def audit_identities(cf):
    if (cf.d, cf.depth) not in ((99991, 1311), (2999999, 4023)):
        raise ValueError((cf.d, cf.depth))
    return []
'''

STUB_OSTROWSKI = '''
def encode_real(c, cf, depth):
    a, b, d = c
    if (cf.d, cf.depth, depth, b) != (61, 150, 150, -1) or d is not cf.d or not 7 <= a < 8:
        raise ValueError((c, cf.d, cf.depth, depth))


def encode_nat(n, cf):
    if (cf.d, cf.depth) != (3, 64) or not 0 <= n <= 10**4:
        raise ValueError((n, cf.d, cf.depth))
    return ("digits", n)


def decode_real(x):
    if x[0] != "digits" or not 0 <= x[1] <= 10**4:
        raise ValueError(x)


def enumerate_valid(cf, length):
    if (cf.d, cf.depth, length) != (31, 64, 8):
        raise ValueError((cf.d, cf.depth, length))
    return iter([(0,) * 8])
'''

STUB_SHIFTCALC = '''
from fractions import Fraction


def natural_dots_upto(cf, sc, n_max):
    if (cf.d, cf.depth, sc, n_max) not in ((3, 64, ("sc", 3), 10**4),
                                           (99991, 1311, ("sc", 99991), 10**4),
                                           (1000001, 64, ("sc", 1000001), 10**4),
                                           (10**12 + 1, 64, ("sc", 10**12 + 1), 10**4)):
        raise ValueError((cf.d, cf.depth, sc, n_max))
    yield (), (0,) * 7  # the low table, n = 0
    yield 1, 0, n_max, (), (0,) * 7  # one block, which only the flattening reads


def frac_verdicts(cf, sc, fa, n, ya, yb):
    if ((cf.d, cf.depth, sc) not in ((3, 64, ("sc", 3)), (99991, 1311, ("sc", 99991)))
            or (fa, ya, yb) != (-n, 0, 0)):
        raise ValueError((cf.d, cf.depth, sc, fa, n, ya, yb))


def nat_verdicts(sc, n, v1, w0):
    if (sc, v1, w0) != (("sc", 3), n, -n):
        raise ValueError((sc, n, v1, w0))


def check_recover_frac(x, sc):
    if sc != ("sc", 3) or not 0 <= x[1] <= 2000:
        raise ValueError((x, sc))


check_recover_nat = check_recover_frac


def prefix_nat(cf, l, c):
    a, b, d = c
    if ((cf.d, cf.depth, b) != (61, 150, -1) or d is not cf.d or not 0 <= l <= 8
            or not 7 <= a < 8):
        raise ValueError((cf.d, cf.depth, l, c))


def times_sqrt_real(x, eps, cf, sc):
    if (cf.d, cf.depth, sc, eps) == (3, 256, ("sc", 3), Fraction(1, 10**60)):
        if x.denominator != 9973:
            raise ValueError(x)
    elif ((cf.d, cf.depth, sc, eps) != (99991, 64, ("sc", 99991), Fraction(1, 10**30))
            or not Fraction(7, 5) <= x < Fraction(12, 5)):
        raise ValueError((x, eps, cf.d, cf.depth, sc))
'''

# the per-n view of the block sweep, which the verdict rows read
STUB_SHIFTCALC_REFERENCE = '''
def natural_dots_per_n(cf, sc, n_max):
    if (cf.d, cf.depth, sc, n_max) not in ((3, 64, ("sc", 3), 10**4),
                                           (99991, 1311, ("sc", 99991), 10**4)):
        raise ValueError((cf.d, cf.depth, sc, n_max))
    for n in range(n_max + 1):
        yield (), (-n, n, 0, 0, n, -n, 0)
'''

STUB_HARNESS = '''
def _pass_over_n(ctx):
    cf = ctx.cf
    if ((cf.d, cf.depth, ctx.sc) not in ((3, 64, ("sc", 3)), (99991, 1311, ("sc", 99991)))
            or ctx.config.d_list != (cf.d,)):
        raise ValueError((cf.d, cf.depth, ctx.sc, ctx.config.d_list))
    ctx.out["recover_nat"] = {"checked": 10**4 + 1}
'''

STUB_CLI = '''
def main(argv):
    if argv[0] not in ("cf", "constants", "encode", "decode", "mul", "audit"):
        raise ValueError(argv)
    print(" ".join(argv))
    return 0
'''

# `python -m ostro audit --format json`: the n-th run reports elapsed_s 0.5 + n
STUB_MAIN = '''
import json, sys
from pathlib import Path

if sys.argv[1:] != ["audit", "--format", "json"]:
    raise SystemExit(f"unexpected arguments {sys.argv[1:]}")
log = Path("audit_runs")
n = len(log.read_text()) if log.exists() else 0
log.write_text("x" * (n + 1))
print(json.dumps({"results": [
    {"d": "2", "elapsed_s": 0.5 + n, "stages": {"identities": 0.1 * (3 - n), "recovery": 0.4}},
    {"d": "4", "error": "RationalSquare: radicand 4 is a rational square"}]}, indent=2))
'''


# The script run as a program, with 2 fresh interpreters per one-shot
# command instead of 25: each costs a Python start-up
RUN_SCRIPT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_record", sys.argv[1])
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)
bench_record.K_ONESHOT = 2
sys.exit(bench_record.main(sys.argv[2:]))
"""


def test_bench_record_on_a_stub_checkout(tmp_path):
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "src" / "ostro").mkdir(parents=True)
    (root / "src" / "ostro" / "__init__.py").write_text(STUB_OSTRO)
    (root / "src" / "ostro" / "cfrac.py").write_text(STUB_CFRAC)
    (root / "src" / "ostro" / "ostrowski.py").write_text(STUB_OSTROWSKI)
    (root / "src" / "ostro" / "shiftcalc.py").write_text(STUB_SHIFTCALC)
    (root / "src" / "ostro" / "cli.py").write_text(STUB_CLI)
    (root / "src" / "ostro" / "harness.py").write_text(STUB_HARNESS)
    (root / "src" / "ostro" / "__main__.py").write_text(STUB_MAIN)
    (root / "tests").mkdir()
    (root / "tests" / "test_one.py").write_text("def test_one():\n    pass\n")
    (root / "tests" / "shiftcalc_reference.py").write_text(STUB_SHIFTCALC_REFERENCE)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 1,
        "workloads": [{"name": "stub"}]}))
    (root / "scripts").mkdir()
    shutil.copy(SCRIPT, root / "scripts")
    proc = subprocess.run(  # no --root: the checkout holding the script
        [sys.executable, "-c", RUN_SCRIPT, str(root / "scripts" / SCRIPT.name), "--pr", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    def compiled(package):
        return {p.name.split(".")[0] for p in (root / package / "__pycache__").glob("*.pyc")}

    assert compiled("perfbench") == {"run"}
    assert compiled("src/ostro") == {"__init__", "__main__", "cfrac", "cli", "harness",
                                     "ostrowski", "shiftcalc"}
    rec = json.loads((root / "BENCH_1.json").read_text())
    assert rec["pr"] == 1 and rec["git_sha"] is None and rec["dirty"] is None  # no git checkout
    assert rec["machine"]["nproc"] >= 1
    wl = rec["workloads"]["stub"]
    seeds = list(range(101, 108))
    assert wl["seeds"] == seeds and wl["correct"]
    assert wl["metrics"]["wall_s"] == {"unit": "s", "k": 7, "median": 104, "q1": 102.5,
                                       "q3": 105.5, "values": seeds}
    assert wl["traced_seed"] == 101
    assert wl["traced"] == {"f.calls": 7}
    layers = rec["layers"]
    for key in ("expand_2_64", "expand_99991_64", "expand_99991_874",
                "derive_shift_constants_3_64",
                "derive_shift_constants_99991_874", "derive_shift_constants_99991_874_unswept",
                "at_least_99991_64_1311",
                "encode_real_61_40x150", "quadrat_add_13_4_1000", "quadrat_mul_13_4_1000",
                "quadrat_sign_13_4_1000", "natural_dots_upto_3_10000",
                "natural_dots_upto_99991_10000", "natural_dots_upto_1000001_10000",
                "natural_dots_upto_1000000000001_10000", "pass_over_n_3_10000",
                "pass_over_n_99991_10000", "enumerate_valid_31_8",
                "times_sqrt_real_99991_20", "times_sqrt_real_3_256_50",
                "audit_identities_99991_1311", "audit_identities_2999999_4023",
                "encode_nat_3_10000", "frac_verdicts_3_10000",
                "frac_verdicts_99991_10000", "nat_verdicts_3_10000", "decode_real_3_10000", "check_recover_frac_3_2000",
                "check_recover_nat_3_2000", "prefix_nat_61_40x9", "cli_main_short_40",
                "cli_mul_99991_64", "cli_cf_99991_874", "cli_constants_99991_874",
                "cli_encode_nat_99991_874", "cli_decode_real_99991_874"):
        assert layers[key]["unit"] == "s" and layers[key]["min_of"] == 7, key
        assert layers[key]["value"] >= 0, key
    assert layers["audit_stages"] == {"unit": "s", "min_of": 3, "by_d": {
        "99991": {"identities": 99.991, "recovery": 1.0},
        "3": {"identities": 0.003, "recovery": 1.0}}}
    audit = rec["audit"]
    assert audit["unit"] == "s" and audit["runs"] == 3
    assert len(audit["wall_s"]) == 3 and min(audit["wall_s"]) > 0
    assert audit["by_d"] == {"2": {"elapsed_s": 0.5, "stages": {"identities": 0.1, "recovery": 0.4}}}
    oneshot = rec["oneshot"]
    assert (oneshot["unit"], oneshot["min_of"]) == ("s", 2)
    assert list(oneshot["by_command"]) == ["cf --d 2", "encode --d 3 5", "mul --d 3 --x 7/5",
                                           "audit --d 2"]
    for times in oneshot["by_command"].values():
        assert set(times) == {"import_s", "first_call_s"} and min(times.values()) > 0
    assert rec["tier1"]["returncode"] == 0 and "1 passed" in rec["tier1"]["summary"]
    stubs = {"__init__.py": STUB_OSTRO, "__main__.py": STUB_MAIN, "cfrac.py": STUB_CFRAC,
             "cli.py": STUB_CLI, "harness.py": STUB_HARNESS, "ostrowski.py": STUB_OSTROWSKI,
             "shiftcalc.py": STUB_SHIFTCALC}
    assert rec["src_lines"] == {"by_module": {name: text.count("\n")
                                              for name, text in sorted(stubs.items())},
                                "total": sum(text.count("\n") for text in stubs.values())}
    listing = "".join(f"{hashlib.sha256(text.encode()).hexdigest()}  src/ostro/{name}\n"
                      for name, text in sorted(stubs.items()))  # as sha256sum prints it
    assert rec["src_sha256"] == hashlib.sha256(listing.encode()).hexdigest()
    assert "cal_s" not in keys_at_any_depth(rec)


def keys_at_any_depth(node) -> set:
    """Every dict key in a JSON value, however deeply nested."""
    if isinstance(node, dict):
        return set(node).union(*map(keys_at_any_depth, node.values()))
    if isinstance(node, list):
        return set().union(*map(keys_at_any_depth, node))
    return set()


def test_bench_record_loads_without_hashlib():
    # a benchmark run's ru_maxrss starts from the RSS of the script that forks it
    probe = ("import importlib.util, sys; "
             f"spec = importlib.util.spec_from_file_location('bench_record', {str(SCRIPT)!r}); "
             "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
             "print('hashlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"


def test_bench_record_provenance_in_a_git_checkout(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                        *argv], cwd=tmp_path, check=True, capture_output=True)

    module = tmp_path / "src" / "ostro" / "one.py"
    module.parent.mkdir(parents=True)
    module.write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "one")
    sha, digest = bench_record.git_sha(tmp_path), bench_record.src_sha256(tmp_path)
    assert bench_record.git_dirty(tmp_path) is False and len(sha) == 40
    module.write_text("x = 2\n")  # the measured bytes move; the sha does not
    assert bench_record.git_dirty(tmp_path) is True and bench_record.git_sha(tmp_path) == sha
    assert bench_record.src_sha256(tmp_path) != digest
