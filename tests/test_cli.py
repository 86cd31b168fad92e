"""Command-line surface: subcommand output, exit codes, JSON round
trips, depth capping, and file output."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ostro
from ostro import parse_quad, quad
from ostro.cli import main
from ostro.harness import config_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# cf / constants
# ---------------------------------------------------------------------------


def test_cf_json(capsys):
    code, out = run(capsys, "cf", "--d", "3", "--depth", "10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["a0"] == 1
    assert data["period"] == [1, 2]
    assert data["m"] == 2
    assert data["unit"] == "2+1*sqrt(3)"
    assert data["convergents"][3] == {"k": 3, "p": 7, "q": 4}


def test_cf_text(capsys):
    code, out = run(capsys, "cf", "--d", "2")
    assert code == 0
    assert "period = [2]" in out


def test_cf_square_radicand_is_input_error(capsys):
    assert main(["cf", "--d", "9/4"]) == 2
    assert main(["cf", "--d", "4"]) == 2


def test_cf_low_radicand_is_input_error(capsys):
    assert main(["cf", "--d", "1/2"]) == 2


def test_constants_json(capsys):
    code, out = run(capsys, "constants", "--d", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["v"] == ["2/3", "1/3"]
    assert data["w"] == ["-1/3", "-1/3"]
    assert data["U"] == "2+1*sqrt(3)"
    assert data["pell_norm"] == "-1"


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def test_encode_decode_round_trip(capsys):
    code, out = run(capsys, "encode", "--d", "3", "5")
    assert code == 0 and out.strip() == "0,1,0,1@d=3"
    code, out = run(capsys, "decode", "0,1,0,1@d=3")
    assert code == 0 and out.strip() == "5"


def test_decode_empty_is_zero(capsys):
    code, out = run(capsys, "decode", "")
    assert code == 0 and out.strip() == "0"


def test_decode_radicand_mismatch(capsys):
    assert main(["decode", "--d", "2", "0,1,0,1@d=3"]) == 2


def test_decode_needs_some_radicand(capsys):
    assert main(["decode", "0,1"]) == 2


def test_encode_negative_is_domain_error(capsys):
    assert main(["encode", "--d", "3", "--", "-4"]) == 4


def test_encode_interval_value(capsys):
    code, out = run(capsys, "encode", "--d", "3", "--digits", "4", "--",
                    "-9+5*sqrt(3)")
    assert code == 0 and out.strip() == "0,1,0,1@d=3"


def test_encode_out_of_interval(capsys):
    assert main(["encode", "--d", "3", "1+0*sqrt(3)"]) == 4


# ---------------------------------------------------------------------------
# mul
# ---------------------------------------------------------------------------


def test_mul_zero(capsys):
    code, out = run(capsys, "mul", "--d", "3", "--x", "0", "--eps", "1e-9")
    assert code == 0
    assert "0+0*sqrt(3)" in out


def test_mul_certified(capsys):
    code, out = run(capsys, "mul", "--d", "3", "--x", "7/5", "--eps", "1e-9")
    assert code == 0
    assert "certified |error| < 1/1000000000" in out
    assert "2.4248711305" in out


def test_mul_negative_is_domain_error(capsys):
    assert main(["mul", "--d", "3", "--x", "-1", "--eps", "1e-9"]) == 4


def test_mul_reads_past_depth_for_the_shift(capsys):
    # eps needs digits up to position 117 of depth 118; shifted by m = 2
    # the product reads position 119, so mul expands one position deeper
    code, out = run(capsys, "mul", "--d", "3", "--depth", "118", "--x", "7/5",
                    "--eps", "1e-33", "--format", "json")
    assert code == 0
    result = parse_quad(json.loads(out)["result"], Fraction(3))
    err = result - quad(Fraction(7, 5), 0, 3) * quad(0, 1, 3)
    assert (abs(err) - Fraction(1, 10**33)).sign() < 0


def test_mul_json(capsys):
    code, out = run(capsys, "mul", "--d", "2", "--x", "1", "--eps", "1e-12",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    # x = 1 is exactly representable: the integer part absorbs everything
    assert data["result"] == "0+1*sqrt(2)"
    assert data["decimal"].startswith("1.414213562373095")


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_json_single_d(capsys):
    code, out = run(capsys, "audit", "--d", "3", "--n-max", "100", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    ids = {v["fact_id"]: v for v in rep["results"][0]["identities"]}
    row = ids["pq-connection-p"]
    assert row["printed"] == "fails" and row["corrected"] == "holds"
    assert row["witness"] == {"k": 1, "lhs": "5", "rhs": "4"}
    # emitted config parses back into an equivalent run
    assert config_from_json(rep["config"]).n_max == 100


def test_audit_square_suite_rejected(capsys):
    assert main(["audit", "--d", "3,4", "--n-max", "10"]) == 2


def test_audit_tsv(capsys):
    code, out = run(capsys, "audit", "--d", "2", "--n-max", "40", "--format", "tsv")
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert header[0] == "d"


def test_audit_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"d_list": ["2"], "n_max": 500, "seed": 7}))
    code, out = run(capsys, "audit", "--config", str(cfg), "--n-max", "30",
                    "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["d_list"] == ["2"]
    assert rep["config"]["n_max"] == 30  # flag wins over file
    assert rep["config"]["seed"] == 7


@pytest.mark.parametrize(
    "blob", ['{"d_list": null}', '{"d_list": 5}', '{"depth": [1]}', '[{"d_list": ["2"]}]',
             '{"n_max": 5.9, "seed": true}', '{"seed": true}', '{"depth": "64"}']
)
def test_audit_malformed_config_is_input_error(tmp_path, capsys, blob):
    cfg = tmp_path / "suite.json"
    cfg.write_text(blob)
    assert main(["audit", "--config", str(cfg), "--d", "2", "--n-max", "5"]) == 2


def test_audit_records_each_radicand_error(capsys):
    # depth 9 leaves d=3 without q_k > n_unique and d=5 without enough
    # digits for eps; both are recorded and the suite still reports
    code, out = run(capsys, "audit", "--d", "3,5", "--depth", "9", "--n-max", "5")
    assert code == 1
    errors = [ln for ln in out.splitlines() if "ERROR DepthExceeded" in ln]
    assert [ln.split(":")[0] for ln in errors] == ["d=3", "d=5"]
    assert "n_unique=500" in errors[0] and "depth 9" in errors[0]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "cf.json"
    code = main(["cf", "--d", "3", "--format", "json", "--output", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["m"] == 2


# ---------------------------------------------------------------------------
# depth cap and module entry
# ---------------------------------------------------------------------------


def test_depth_cap_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("OSTRO_MAX_DEPTH", "16")
    assert main(["cf", "--d", "3", "--depth", "64"]) == 3
    assert main(["cf", "--d", "3", "--depth", "16"]) == 0
    monkeypatch.setenv("OSTRO_MAX_DEPTH", "not-a-number")
    assert main(["cf", "--d", "3"]) == 2


def test_module_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ostro", "decode", "0,1,0,1@d=3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5"


# Documented exit codes for failures that once escaped as tracebacks.
# "{config}" stands for a config file holding a non-integer n_max.
EXIT_CASES = [
    (["decode", "--d", "3", "--depth", "2", "0,1,0,1,0,1"], 3),
    (["decode", "--d", "3", "--depth", "2", "0,1,0,1,0,1", "--real"], 3),
    (["mul", "--d", "3", "--depth", "8", "--x", "7/5", "--eps", "1e-30"], 3),
    (["audit", "--config", "{config}", "--d", "2"], 2),
]


@pytest.mark.parametrize("argv,code", EXIT_CASES, ids=["decode", "decode-real", "mul-eps", "config"])
def test_module_exit_codes(tmp_path, argv, code):
    cfg = tmp_path / "suite.json"
    cfg.write_text('{"n_max": 5.9}')
    argv = [str(cfg) if a == "{config}" else a for a in argv]
    src = str(Path(ostro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ostro", *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert [ln for ln in proc.stderr.splitlines() if ln.startswith("error: ")], proc.stderr
