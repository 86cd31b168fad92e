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
from ostro.harness import (
    STAGES,
    config_from_json,
    corrected_failures,
    printed_failures,
    render_text,
    render_tsv,
)

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
