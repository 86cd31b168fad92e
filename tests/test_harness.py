"""Suite runner: report structure, failure accounting, rendering,
config (de)serialization, and input validation."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import ostro
from ostro import RationalSquare, SuiteConfig, UnsupportedRadicand, harness, run_suite
from ostro import cfrac, ostrowski, shiftcalc
from ostro.harness import (
    STAGES,
    config_from_json,
    corrected_failures,
    printed_failures,
    render_text,
    render_tsv,
)

from test_shiftcalc import corrupt

SMALL = SuiteConfig(
    d_list=(Fraction(3), Fraction(2)),
    n_max=60,
    n_unique=30,
    lambda_n_max=15,
    lambda_samples=3,
    probe_samples=3,
    probe_l_max=4,
    class_l_max=6,
)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SMALL)


def test_report_structure(small_report):
    rep = small_report
    assert [r["d"] for r in rep["results"]] == ["3", "2"]
    res = rep["results"][0]
    for key in (
        "identities", "constants", "roundtrip_and_split", "uniqueness",
        "recover_frac", "recover_nat", "times_sqrt_exact", "times_sqrt_real",
        "prefix_probe", "class_probe",
    ):
        assert key in res
    assert res["period"] == [1, 2]
    assert res["roundtrip_and_split"]["checked"] == 61
    assert res["roundtrip_and_split"]["failures"] == 0
    assert res["uniqueness"]["failures"] == 0


def test_failure_accounting(small_report):
    rep = small_report
    assert corrected_failures(rep) == 0
    assert printed_failures(rep) > 0
    assert rep["summary"]["d_count"] == 2
    assert rep["summary"]["corrected_failures"] == 0
    assert rep["summary"]["printed_failures"] == printed_failures(rep)


def test_worked_example_embedded(small_report):
    ex = small_report["results"][0]["recovery_example"]
    assert ex["nat"]["n"] == 5
    assert ex["nat"]["rhs"] == "5+0*sqrt(3)"
    assert ex["frac"]["corrected"] == "holds"
    assert ex["frac"]["printed"] == "fails"


def test_report_is_json_ready(small_report):
    text = json.dumps(small_report)
    assert json.loads(text) == small_report


def test_render_text_and_tsv(small_report):
    text = render_text(small_report)
    assert "d=3" in text
    assert "pq-connection-p" in text
    assert "printed:fails" in text and "corrected:holds" in text
    tsv = render_tsv(small_report)
    rows = [line.split("\t") for line in tsv.strip().splitlines()]
    assert rows[0][0] == "d"
    assert any(row[0] == "3" for row in rows[1:])


def test_config_round_trip():
    blob = json.dumps(SMALL.to_json())
    assert config_from_json(json.loads(blob)) == SMALL


def test_config_partial_parse():
    cfg = config_from_json({"d_list": ["5", "3/2"], "n_max": 12, "eps": "1e-6"})
    assert cfg.d_list == (Fraction(5), Fraction(3, 2))
    assert cfg.n_max == 12
    assert cfg.eps == Fraction(1, 10**6)
    assert cfg.depth == SuiteConfig().depth


def test_n_sweep_stops_below_the_shifted_depth():
    # the recoveries read the digits shifted by m = 2, so over depth 14
    # n stays below q_13 = 2911 instead of raising DepthExceeded
    config = config_from_json({"d_list": ["3"], "depth": 14, "n_max": 100000,
                               "n_unique": 30, "eps": "1/10", "class_l_max": 6})
    report = run_suite(config)
    res = report["results"][0]
    assert "error" not in res, res
    assert res["depth"] == 14
    for key in ("roundtrip_and_split", "recover_frac", "recover_nat"):
        assert res[key]["checked"] == 2911
    assert corrected_failures(report) == 0


def test_corrupted_encoding_is_one_roundtrip_failure(monkeypatch):
    encode = harness.ostrowski.encode_nat

    def corrupted(n, cf):
        return encode(n + 1 if n == 40 else n, cf)

    monkeypatch.setattr(harness.ostrowski, "encode_nat", corrupted)
    report = run_suite(replace(SMALL, d_list=(Fraction(3),)))
    res = report["results"][0]
    assert res["roundtrip_and_split"]["failures"] == 1
    assert res["roundtrip_and_split"]["first_failure"] == {"n": 40, "reason": "roundtrip"}
    for key in ("recover_frac", "recover_nat", "times_sqrt_exact", "prefix_probe"):
        assert res[key]["failures"] == 0, key
    assert corrected_failures(report) == 1


def per_n_reference(cf, sc, config):
    """The pass over n as a loop over the witness-building checks: the
    (failures, first_failure) of each sweep and the printed counts."""
    fails = {"recover_frac": [], "recover_nat": [], "times_sqrt_exact": []}
    printed = {"frac": 0, "nat": 0}
    for n in range(config.n_max + 1):
        x = ostrowski.encode_nat(n, cf)
        entries = {"frac": shiftcalc.check_recover_frac(x, sc),
                   "nat": shiftcalc.check_recover_nat(x, sc)}
        for kind, e in entries.items():
            if e.corrected != "holds":
                fails[f"recover_{kind}"].append(e.to_json())
            if n <= 50:
                printed[kind] += e.printed != "holds"
        if n <= config.lambda_n_max:
            prod = shiftcalc.times_sqrt_frac(x, sc)
            direct = cf.sqrt_d() * ostrowski.decode_real(x)
            if prod != direct:
                fails["times_sqrt_exact"].append({"n": n, "lhs": str(prod), "rhs": str(direct)})
    return {k: (len(v), v[0] if v else None) for k, v in fails.items()}, printed


@pytest.mark.parametrize("d", ["3", "7", "13/4"])
@pytest.mark.parametrize("field, i, delta, failing", [
    (None, 0, Fraction(1), ()),
    ("v", 1, Fraction(1, 2), ("recover_nat",)),
    ("w", 2, Fraction(-1, 3), ("recover_nat",)),
    ("ab", 1, Fraction(2), ("recover_frac", "times_sqrt_exact")),
    ("unit", 0, Fraction(1, 5), ("recover_frac",)),
])
def test_fused_pass_matches_per_n_checks(monkeypatch, d, field, i, delta, failing):
    config = replace(SMALL, d_list=(Fraction(d),), n_max=300, lambda_n_max=120,
                     lambda_samples=0)
    cf = cfrac.expand(Fraction(d), config.depth)
    cf = cf.at_least(3 * cf.m + 3)
    derive = cfrac.derive_shift_constants
    want, printed = per_n_reference(cf, corrupt(derive(cf), field, i, delta), config)
    monkeypatch.setattr(harness.cfrac, "derive_shift_constants",
                        lambda cf: corrupt(derive(cf), field, i, delta))
    calls = Counter()

    def spy(name):
        real = getattr(shiftcalc, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(shiftcalc, name, counted)

    for name in ("natural_dots", "check_recover_frac", "check_recover_nat", "times_sqrt_frac"):
        spy(name)
    res = run_suite(config)["results"][0]
    got = {k: (res[k]["failures"], res[k]["first_failure"]) for k in want}
    assert got == want
    assert res["recovery_printed_fails_upto_50"] == printed
    assert [k for k in want if want[k][0]] == list(failing)
    # one kernel call per n; the witness builders run for the worked
    # example and each sweep's first failure only, one kernel call each
    witnesses = {"check_recover_frac": 1 + ("recover_frac" in failing),
                 "check_recover_nat": 1 + ("recover_nat" in failing),
                 "times_sqrt_frac": int("times_sqrt_exact" in failing)}
    assert {k: calls[k] for k in witnesses} == witnesses
    assert calls["natural_dots"] == res["recover_frac"]["checked"] + sum(witnesses.values())


def test_prefix_natural_computed_once_per_probe(monkeypatch):
    calls = Counter()
    prefix_nat = harness.shiftcalc.prefix_nat

    def spy(cf, l, c):
        calls[l, c] += 1
        return prefix_nat(cf, l, c)

    monkeypatch.setattr(harness.shiftcalc, "prefix_nat", spy)
    report = run_suite(replace(SMALL, d_list=(Fraction(3),)))
    res = report["results"][0]
    reads = res["class_probe"]["checked"] * (SMALL.class_l_max + 1)
    assert res["prefix_probe"]["failures"] == 0
    assert len(calls) == res["prefix_probe"]["checked"] + reads
    assert set(calls.values()) == {1}


def test_prefix_probe_stays_inside_a_shallow_expansion():
    # depth 1 grows to 3m+3 = 6 for d=2, and the probe stops at q_6 = 169
    # instead of reading q_9; the sweeps whose inputs need more record it
    res = run_suite(replace(SMALL, d_list=(Fraction(2),), depth=1, probe_l_max=8))["results"][0]
    assert "error" not in res and res["depth"] == 6
    assert (res["prefix_probe"]["l_max"], res["prefix_probe"]["failures"]) == (5, 0)
    assert res["class_probe"] == {
        "checked": 0, "failures": 1,
        "first_failure": {"error": "DepthExceeded: need depth 11, have 6"},
    }
    assert res["times_sqrt_real"]["first_failure"] == {
        "error": "DepthExceeded: eps=1/1000000000 needs more than 6 digit positions"
    }


def test_suite_rejects_bad_radicands():
    with pytest.raises(RationalSquare):
        run_suite(SuiteConfig(d_list=(Fraction(3), Fraction(4))))
    with pytest.raises(UnsupportedRadicand):
        run_suite(SuiteConfig(d_list=(Fraction(1, 2),)))


def test_corrupted_constants_are_counted_not_raised(monkeypatch):
    derive = harness.cfrac.derive_shift_constants

    def corrupted(cf):
        sc = derive(cf)
        return replace(sc, pell_norm=sc.pell_norm + 1)

    monkeypatch.setattr(harness.cfrac, "derive_shift_constants", corrupted)
    report = run_suite(replace(SMALL, d_list=(Fraction(3),)))
    res = report["results"][0]
    assert "error" not in res
    exact = res["times_sqrt_exact"]
    assert exact["checked"] == SMALL.lambda_n_max + 1
    assert exact["failures"] > 0
    assert set(exact["first_failure"]) == {"n", "lhs", "rhs"}
    assert exact["first_failure"]["lhs"] != exact["first_failure"]["rhs"]
    real = res["times_sqrt_real"]
    assert real["checked"] == SMALL.lambda_samples
    assert real["failures"] > 0
    assert set(real["first_failure"]) == {"x", "error"}
    # the recovery identities do not use pell_norm and still hold
    assert res["recover_frac"]["failures"] == 0
    assert corrected_failures(report) > 0


def test_unexpected_error_is_recorded_per_radicand(monkeypatch, small_report):
    probe = harness.shiftcalc.residue_class_probe

    def broken(cf, *args):
        if cf.d == 3:
            raise ZeroDivisionError("injected")
        return probe(cf, *args)

    monkeypatch.setattr(harness.shiftcalc, "residue_class_probe", broken)
    report = run_suite(SMALL)
    bad, good = report["results"]
    assert bad == {"d": "3", "error": "ZeroDivisionError: injected"}
    timing = ("stages", "elapsed_s")
    want = {k: v for k, v in small_report["results"][1].items() if k not in timing}
    assert {k: v for k, v in good.items() if k not in timing} == want
    assert corrected_failures(report) == 1


def test_small_audit_under_optimize(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL.to_json()))
    src = str(Path(ostro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ostro", "audit", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "corrected failures: 0" in proc.stdout


def test_stage_timings(small_report):
    for res in small_report["results"]:
        assert list(res["stages"]) == list(STAGES)
        assert all(v >= 0 for v in res["stages"].values())
    total = small_report["summary"]["stages"]
    assert list(total) == list(STAGES)
    for k in STAGES:
        expected = sum(r["stages"][k] for r in small_report["results"])
        assert abs(total[k] - expected) < 1e-9
    lines = [ln for ln in render_text(small_report).splitlines() if ln.startswith("stages: ")]
    assert len(lines) == 1 and all(k in lines[0] for k in STAGES)


def test_library_has_no_bare_asserts():
    # checks in library code must survive python -O
    pkg = Path(ostro.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pkg.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _expand_calls(tree):
    """(enclosing function, depth argument) of every call to an `expand`."""
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so the innermost def wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, fn.name) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == "expand" or getattr(f, "attr", None) == "expand":
                depth = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "depth"), None)
                yield owner.get(node, "<module>"), depth and ast.unparse(depth)


def test_expand_only_at_requested_depths():
    # outside cfrac, expand is called only with a depth the user asked
    # for; every need that follows from the period goes through
    # CFData.at_least, so the depth rule cannot leak into another module
    pkg = Path(ostro.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "cfrac.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.stem, *call) for call in _expand_calls(tree)]
        if path.name != "__init__.py":
            assert not [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                        for a in node.names if a.name == "expand"], path.name
    assert sorted(found) == [
        ("cli", "_expand", "_effective_depth(args.depth)"),
        ("cli", "cmd_decode", "_effective_depth(args.depth)"),
        ("harness", "audit_one", "config.depth"),
    ]


@pytest.mark.parametrize("args", [[], ["--d", "991", "--n", "7"]])
def test_worked_example_script(args):
    # 991 has period 60, so the script must expand past its default depth
    script = Path(__file__).resolve().parent.parent / "scripts" / "worked_example.py"
    proc = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "corrected:fails" not in proc.stdout


def test_benchmark_traced_names_resolve():
    # the traced benchmark run wraps these functions by name, so each
    # must stay importable even when no production path calls it
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    assert traced
    for mod, attr in traced:
        obj = importlib.import_module(f"ostro.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod, attr)
