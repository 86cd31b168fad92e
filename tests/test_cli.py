"""Command-line surface: subcommand output, exit codes, JSON round
trips, depth capping, and file output."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from cli_reference import parse_args_reference

import ostro
from ostro import cfrac, cli, harness, parse_quad, quad
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


# sha256 of the text and JSON output of `cf` and `constants` at default flags
# over the default radicands and the four long periods, in that order: how
# the expansion and the constants are verified must not change a byte of it.
CF_CONSTANTS_SHA256 = "acc0f605d051248bbddd7c0f25b5beb5268c21df29fe8eeee08cb8fd715dd173"


def test_cf_and_constants_output_frozen(capsys):
    digest = hashlib.sha256()
    for d in [str(d) for d in ostro.DEFAULT_D_LIST] + ["991", "9949", "99991", "1000003/7"]:
        for cmd in ("cf", "constants"):
            for fmt in ("text", "json"):
                code, out = run(capsys, cmd, "--d", d, "--format", fmt)
                assert code == 0, (cmd, d, fmt)
                digest.update(out.encode())
    assert digest.hexdigest() == CF_CONSTANTS_SHA256


@pytest.mark.parametrize("d", ["991", "9949", "99991", "1000003/7"])
def test_long_periods_run_at_default_flags(capsys, d):
    # the shift constants read the period, m entries, and mul its eps digits
    # shifted by m; both grow the expansion past the default depth 64
    code, out = run(capsys, "cf", "--d", d)
    assert code == 0 and "unit = " in out
    code, out = run(capsys, "constants", "--d", d)
    assert code == 0
    a, b, norm = re.search(r"^a = (\d+), b = (\d+), a\^2\*d - b\^2 = (\S+)$", out, re.M).groups()
    assert int(a) ** 2 * Fraction(d) - int(b) ** 2 == Fraction(norm)
    code, out = run(capsys, "mul", "--d", d, "--x", "7/5")
    assert code == 0
    first, _, certified = out.splitlines()
    assert certified == "  certified |error| < 1/1000000000"
    result = parse_quad(first.split(" = ")[1], Fraction(d))
    err = result - quad(Fraction(7, 5), 0, d) * quad(0, 1, d)
    assert (abs(err) - Fraction(1, 10**9)).sign() < 0


def test_period_cap_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cfrac, "MAX_PERIOD", 60)  # sqrt(991) has m = 60
    assert main(["cf", "--d", "991"]) == 0
    monkeypatch.setattr(cfrac, "MAX_PERIOD", 59)
    capsys.readouterr()
    assert main(["cf", "--d", "991"]) == 3
    assert capsys.readouterr().err == "error: period of sqrt(991) not found within 59 terms\n"


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
    # a rational value prints its decimal with its own exponent, not the root's
    code, out = run(capsys, "decode", "--d", "3", "--real", "0,0")
    assert code == 0 and out.strip() == "0+0*sqrt(3) = 0"


def test_decode_radicand_mismatch(capsys):
    assert main(["decode", "--d", "2", "0,1,0,1@d=3"]) == 2


def test_decode_needs_some_radicand(capsys):
    assert main(["decode", "0,1"]) == 2


def test_encode_json(capsys):
    code, out = run(capsys, "encode", "--d", "3", "--format", "json", "5")
    assert code == 0
    assert json.loads(out) == {"d": "3", "kind": "natural", "digits": [0, 1, 0, 1]}
    code, out = run(capsys, "encode", "--d", "3", "--digits", "4", "--format", "json", "--",
                    "-9+5*sqrt(3)")
    assert code == 0
    assert json.loads(out) == {"d": "3", "kind": "real", "digits": [0, 1, 0, 1]}


@pytest.mark.parametrize("digits, code, err", [
    ("0,0,0,0,0,0,1", 3, "error: digit index 6 exceeds depth 5"),
    ("1,0,0,0,0,0,1", 2, "error: digit constraint violated at position 0: [1, 0, 0, 0, 0, 0, 1]"),
    ("0,0,0,0,0,1,0,0", 0, ""),  # the trailing zeros past the depth are dropped
])
def test_decode_checks_validity_before_depth(capsys, digits, code, err):
    assert main(["decode", "--d", "3", "--depth", "5", digits]) == code
    assert capsys.readouterr().err.strip() == err


def test_decode_json(capsys):
    code, out = run(capsys, "decode", "--format", "json", "0,1,0,1@d=3")
    assert code == 0
    assert json.loads(out) == {"d": "3", "value": "5"}
    code, out = run(capsys, "decode", "--real", "--format", "json", "0,1,0,1@d=3")
    assert code == 0
    data = json.loads(out)
    assert (data["d"], data["value"]) == ("3", "-9+5*sqrt(3)")
    assert data["decimal"].startswith("-0.33974596215561353236")


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
    code, out = run(capsys, "mul", "--d", "3", "--x", "0", "--format", "json")
    assert code == 0 and json.loads(out)["decimal"] == "0"


def test_mul_certified(capsys):
    code, out = run(capsys, "mul", "--d", "3", "--x", "7/5", "--eps", "1e-9")
    assert code == 0
    assert "certified |error| < 1/1000000000" in out
    assert "2.4248711305" in out


def test_mul_negative_is_domain_error(capsys):
    assert main(["mul", "--d", "3", "--x", "-1", "--eps", "1e-9"]) == 4


def test_mul_nan_eps_is_input_error(capsys):
    assert main(["mul", "--d", "3", "--x", "1", "--eps", "nan"]) == 2
    assert capsys.readouterr().err == "error: not a rational: 'nan'\n"


def test_mul_reads_past_depth_for_the_shift(capsys):
    # eps needs digits up to position 117 of depth 118; shifted by m = 2
    # the product reads position 119, so mul expands one position deeper
    code, out = run(capsys, "mul", "--d", "3", "--depth", "118", "--x", "7/5",
                    "--eps", "1e-33", "--format", "json")
    assert code == 0
    result = parse_quad(json.loads(out)["result"], Fraction(3))
    err = result - quad(Fraction(7, 5), 0, 3) * quad(0, 1, 3)
    assert (abs(err) - Fraction(1, 10**33)).sign() < 0


def test_mul_eps_digits_stay_bounded_by_depth(capsys):
    # mul grows the expansion past --depth to m = 436 and to its eps digits
    # shifted by m, but eps = 10^-150 does not fit in the 64 digit positions
    # of --depth
    assert main(["mul", "--d", "99991", "--x", "7/5", "--eps", "1e-150"]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: eps=1/10{150} needs more than 64 digit positions\n", err)
    assert main(["mul", "--d", "99991", "--x", "7/5", "--eps", "1e-150", "--depth", "874"]) == 0


def test_mul_grows_no_table_past_its_shifted_eps_digits(monkeypatch, capsys):
    # eps = 10^-6 needs 18 digits of sqrt(991), m = 60: the product reads index
    # 18 - 1 + 60 = 77 and the shift constants the period, so nothing grows further
    grown, at_least = [], cfrac.CFData.at_least
    monkeypatch.setattr(cfrac.CFData, "at_least",
                        lambda self, k: grown.append(k) or at_least(self, k))
    code, out = run(capsys, "mul", "--d", "991", "--depth", "20", "--x", "7/5", "--eps", "1e-6")
    assert code == 0 and max(grown) == 77
    assert out == ("sqrt(991) * (7/5+0*sqrt(991)) = 73519314027-2335417976*sqrt(991)\n"
                   "  ~ 44.072213523887481285565359135012224956849048685940\n"
                   "  certified |error| < 1/1000000\n")


def test_failed_check_exits_1(monkeypatch, capsys):
    def refuted(*args):
        raise ostro.VerificationFailed("certified bound violated (seeded)")

    monkeypatch.setattr(cli.shiftcalc, "times_sqrt_real", refuted)
    assert main(["mul", "--d", "3", "--x", "7/5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "check failed: certified bound violated (seeded)\n"


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


def test_flags_and_config_file_build_the_same_audit(tmp_path, capsys, monkeypatch):
    # flags are read by the config file's parser, so the same five fields
    # give the same report either way (the clock stopped for the timings)
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"d_list": ["3", "3/2"], "depth": 20, "n_max": 5,
                               "eps": "1/10", "seed": 1}))
    by_flags = run(capsys, "audit", "--d", "3,3/2", "--depth", "20", "--n-max", "5",
                   "--eps", "1/10", "--seed", "1", "--format", "json")
    by_file = run(capsys, "audit", "--config", str(cfg), "--format", "json")
    assert by_flags == by_file
    assert json.loads(by_file[1])["config"]["d_list"] == ["3", "3/2"]


@pytest.mark.parametrize(
    "blob", ['{"d_list": null}', '{"d_list": 5}', '{"depth": [1]}', '[{"d_list": ["2"]}]',
             '{"n_max": 5.9, "seed": true}', '{"seed": true}', '{"depth": "64"}',
             '{"n_unique": -1}', '{"lambda_n_max": -3}', '{"lambda_samples": -1}',
             '{"probe_samples": -1}', '{"probe_l_max": -1}', '{"probe_q_limit": -1}',
             '{"class_l_max": -1}', '{"eps": "-1/10"}', '{"eps": 0}',
             '{"identity_k_max": -5}', '{"depth": 0}', '{"n_max": 5.9}']
)
def test_audit_malformed_config_is_input_error(tmp_path, capsys, blob):
    # a bad field is bad input even where a flag overrides it (--d, --n-max)
    cfg = tmp_path / "suite.json"
    cfg.write_text(blob)
    assert main(["audit", "--config", str(cfg), "--d", "2", "--n-max", "5"]) == 2


@pytest.mark.parametrize("argv", [["audit", "--d", ""], ["audit", "--d="],
                                  ["audit", "--config", "{config}"]], ids=" ".join)
def test_audit_empty_radicand_list_is_input_error(tmp_path, capsys, argv):
    # an empty list is bad input, not the default suite and not an empty audit
    cfg = tmp_path / "suite.json"
    cfg.write_text('{"d_list": []}')
    argv = [str(cfg) if a == "{config}" else a for a in argv]
    assert main([*argv, "--n-max", "5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_audit_missing_config_file_is_input_error(tmp_path, capsys):
    # reading an input file fails as bad input; only a closed stdout has its own code
    missing = tmp_path / "absent.json"
    assert main(["audit", "--config", str(missing), "--d", "2", "--n-max", "5"]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")


class _FullFile(io.StringIO):
    """A text file on a full disk: every write raises ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("output", [None, "report.txt"], ids=["stdout", "output"])
def test_a_failed_write_of_the_output_has_its_own_code(capsys, monkeypatch, output):
    # a full disk under stdout or --output is no bad input: exit 5, one line
    if output:
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullFile(), raising=False)
    else:
        monkeypatch.setattr(sys, "stdout", _FullFile())
    argv = ["cf", "--d", "2"] + (["--output", output] if output else [])
    assert main(argv) == cli.EXIT_OUTPUT == 5
    assert capsys.readouterr().err == (
        "error: cannot write the output: [Errno 28] No space left on device\n")


def test_out_of_memory_has_its_own_code(capsys, monkeypatch):
    # a MemoryError is no failed check: exit 6, one line and no traceback
    def exhausted(d, depth):
        raise MemoryError()

    monkeypatch.setattr(cfrac, "expand", exhausted)
    assert main(["cf", "--d", "2"]) == cli.EXIT_MEMORY == 6
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_audit_into_a_closed_pipe_ends_quietly(tmp_path):
    # the report (about 200 kB, past any pipe buffer) goes to a reader that
    # takes one line and closes: exit 141 as on SIGPIPE, and nothing on stderr
    cfg = tmp_path / "suite.json"
    cfg.write_text('{"lambda_samples": 0, "probe_samples": 0, "n_unique": 10, "class_l_max": 2}')
    src = str(Path(ostro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = ["audit", "--d", ",".join(["2"] * 60), "--n-max", "10", "--format", "json",
            "--config", str(cfg)]
    proc = subprocess.Popen([sys.executable, "-m", "ostro", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == cli.EXIT_PIPE == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_the_cli_module_runs_as_a_script():
    # python -m ostro.cli reaches cli.py's own entry and prints what python -m ostro prints
    src = str(Path(ostro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    runs = [subprocess.run([sys.executable, "-m", module, "cf", "--d", "2"], capture_output=True,
                           text=True, env=env, timeout=60) for module in ("ostro.cli", "ostro")]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout and "period = [2]" in runs[0].stdout


def test_audit_negative_count_flag_is_input_error(tmp_path, capsys):
    # a negative count is rejected whether it comes from a flag or a file
    assert main(["audit", "--d", "3", "--n-max", "-5", "--format", "json"]) == 2
    assert "'n_max' must be non-negative, got -5" in capsys.readouterr().err
    cfg = tmp_path / "suite.json"
    cfg.write_text('{"n_max": -5}')
    assert main(["audit", "--config", str(cfg), "--d", "3"]) == 2


@pytest.mark.parametrize("flag", ["--eps=0", "--eps=-1/10"])
def test_audit_non_positive_eps_flag_is_input_error(capsys, flag):
    # rejected as input, not recorded as an error entry for every radicand
    assert main(["audit", "--d", "3", "--n-max", "5", flag]) == 2
    captured = capsys.readouterr()
    assert "'eps' must be positive" in captured.err and "d=3" not in captured.out


def test_audit_records_each_radicand_error(capsys):
    # depth 9 leaves d=3 without q_k > n_unique and both radicands without
    # enough digits for eps or the class probe; each of those sweeps
    # records its error and the radicand's other sweeps still report
    code, out = run(capsys, "audit", "--d", "3,5", "--depth", "9", "--n-max", "5",
                    "--format", "json")
    assert code == 1
    by_d = {res["d"]: res for res in json.loads(out)["results"]}
    errors = {
        d: {k: v["first_failure"]["error"] for k, v in res.items()
            if isinstance(v, dict) and v.get("failures")}
        for d, res in by_d.items()
    }
    assert set(errors["3"]) == {"uniqueness", "times_sqrt_real", "class_probe"}
    assert set(errors["5"]) == {"times_sqrt_real", "class_probe"}
    assert errors["3"]["uniqueness"].startswith("DepthExceeded: ")
    assert "n_unique=500" in errors["3"]["uniqueness"] and "depth 9" in errors["3"]["uniqueness"]
    d5 = by_d["5"]
    assert all(v["corrected"] == "holds" for v in d5["identities"])
    for key in ("roundtrip_and_split", "recover_frac", "recover_nat", "uniqueness",
                "times_sqrt_exact", "prefix_probe"):
        assert d5[key]["checked"] > 0 and d5[key]["failures"] == 0, key


def test_audit_text_and_tsv_give_a_sweeps_depth_error(capsys):
    # depth 1 leaves d=2 and d=3 short of n_unique and all three short of
    # the class probe's depth; every report format gives the reason
    argv = ["audit", "--d", "2,5,3", "--depth", "1", "--n-max", "5", "--eps", "1/10"]
    reports = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("json", "text", "tsv")}
    assert {code for code, _ in reports.values()} == {1}
    errors = [(res["d"], key, val["first_failure"]["error"])
              for res in json.loads(reports["json"][1])["results"]
              for key, val in res.items() if isinstance(val, dict) and val.get("failures")]
    assert len(errors) == 5 and all(e.startswith("DepthExceeded: ") for _, _, e in errors)
    failed = [line.split(None, 1) for line in reports["text"][1].splitlines()
              if "checked:0 failures:1" in line]
    assert failed == [[key, f"checked:0 failures:1  [{e}]"] for _, key, e in errors]
    rows = [row.split("\t") for row in reports["tsv"][1].splitlines()]
    assert [(r[0], r[1], r[4]) for r in rows if r[2:4] == ["-", "fails"]] == [
        (d, key, f"checked=0 error={e}") for d, key, e in errors]


OUTPUT_CASES = [
    [*argv, "--format", fmt]
    for argv in (["cf", "--d", "3"], ["encode", "--d", "3", "5"],
                 ["decode", "--real", "0,1,0,1@d=3"], ["mul", "--d", "3", "--x", "7/5"],
                 ["constants", "--d", "3"])
    for fmt in ("text", "json")
] + [["audit", "--d", "3", "--n-max", "30", "--format", fmt] for fmt in ("text", "json", "tsv")]


def test_output_file(tmp_path, capsys, monkeypatch):
    # --output writes exactly what stdout shows, for every command and format;
    # the audit's clock is stopped so that its timings agree between the runs
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    target = tmp_path / "out"
    for argv in OUTPUT_CASES:
        code, out = run(capsys, *argv)
        assert code == 0 and out, argv
        assert main([*argv, "--output", str(target)]) == 0, argv
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == out, argv


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_parser_built_at_most_once_and_never_on_a_scanned_argv(monkeypatch, capsys):
    calls = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def spy(self, *args, **kwargs):
        calls.append(self.prog)
        return add_subparsers(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
    assert main(["cf", "--d", "3"]) == 0
    assert main(["decode", "0,1,0,1@d=3"]) == 0
    assert main(["constants", "--d", "2"]) == 0
    assert calls == []  # the scan read all three from the flag table
    assert main(["decode", "--d", "3", "--", "0,1"]) == 0
    assert main(["encode", "--d", "3", "--", "5"]) == 0
    assert calls == ["ostro"]


def test_rejected_arguments_leave_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cf", "--format", "xml", "--d", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["cf"])  # --d missing
    capsys.readouterr()
    code, out = run(capsys, "cf", "--d", "3", "--format", "json")
    assert code == 0 and json.loads(out)["period"] == [1, 2]


def test_no_namespace_leaks_between_calls(capsys):
    code, out = run(capsys, "decode", "--real", "0,1,0,1@d=3")
    assert code == 0 and out.startswith("-9+5*sqrt(3) = ")
    code, out = run(capsys, "decode", "0,1,0,1@d=3")
    assert code == 0 and out.strip() == "5"
    code, out = run(capsys, "cf", "--d", "3", "--depth", "10", "--format", "json")
    assert code == 0 and json.loads(out)["depth"] == 10
    code, out = run(capsys, "cf", "--d", "3")
    assert code == 0 and "p_11/q_11" in out  # default depth 64, not 10


# argv of every subcommand in every format: flags before and after the
# positionals, --flag=value, abbreviations and a "--" before a value
PARSED_ARGVS = [
    ["cf", "--d", "3"],
    ["cf", "--d=13/4", "--depth", "9", "--format", "json"],
    ["cf", "--dep", "9", "--d", "2", "--form", "text", "--out", "cf.txt"],
    ["encode", "--d", "3", "5"],
    ["encode", "5", "--d", "3", "--format=json"],
    ["encode", "--d", "3", "--digits", "30", "--", "-9+5*sqrt(3)"],
    ["encode", "--dig=30", "--d", "61", "--format", "text", "1/3"],
    ["decode", "0,1,0,1@d=3"],
    ["decode", "--real", "0,1@d=3", "--format", "json"],
    ["decode", "0,1", "--d", "3", "--dep", "9", "--re"],
    ["decode", "--d=3", "--format=text", "--", "0,1"],
    ["mul", "--d", "3", "--x", "7/5"],
    ["mul", "--x=7/5", "--eps", "1e-30", "--d", "99991", "--format", "json"],
    ["mul", "--d", "3", "--dep", "9", "--x", "1+1/2*sqrt(3)", "--ep=1e-5", "--form", "text"],
    ["constants", "--d", "2"],
    ["constants", "--format=json", "--d", "13/4", "--depth", "20"],
    ["constants", "--d", "5/3", "--fo", "text", "--output=c.txt"],
    ["audit"],
    ["audit", "--d", "2,3", "--n-max", "5", "--format", "tsv"],
    ["audit", "--format=json", "--seed", "7", "--eps", "1/100", "--depth", "40"],
    ["audit", "--n", "5", "--conf", "c.json", "--out", "r.txt", "--form=text", "--d=2"],
]


def _argparse_calls(monkeypatch) -> list[str]:
    """The names of the ArgumentParser parse methods called from now on."""
    calls = []
    for name in ("parse_known_args", "parse_args"):
        def spy(self, *args, _name=name, _original=getattr(argparse.ArgumentParser, name), **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, name, spy)
    return calls


@pytest.fixture
def captured(monkeypatch):
    """main with every subcommand replaced by one that records its namespace."""
    seen = []

    def record(args):
        seen.append(args)
        return 0

    for name in ("cmd_cf", "cmd_encode", "cmd_decode", "cmd_mul", "cmd_constants", "cmd_audit"):
        monkeypatch.setattr(cli, name, record)
    cli.build_parser.cache_clear()  # a parser over the recording subcommands
    yield seen
    cli.build_parser.cache_clear()


@pytest.mark.parametrize("argv", PARSED_ARGVS, ids=" ".join)
def test_main_parses_as_the_full_parser(captured, monkeypatch, argv):
    calls = _argparse_calls(monkeypatch)
    assert main(argv) == 0
    assert bool(calls) == ("--" in argv)  # the scan reads the rest without argparse
    (got,) = captured
    want = vars(parse_args_reference(argv))
    assert want.pop("command") == argv[0]
    assert vars(got) == want


def _read(fn, argv):
    """The namespace fn returns on argv, as a dict without `command`, or
    the (code, stdout, stderr) of its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = fn(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return {k: v for k, v in vars(args).items() if k != "command"}


# Each exits in the parser: help, a missing or unknown command, a missing
# flag (`mul --d 3 --bogus` misses --x before its leftover is reported),
# and leftovers, which parse_args reports with the top-level usage.
REJECTED_ARGVS = [
    [], ["-h"], ["nope"], ["mul", "-h"], ["mul"], ["mul", "--d", "3", "--bogus"],
    ["mul", "--d", "3", "--x", "1", "--bogus"], ["cf", "--d", "3", "extra"],
    ["audit", "--d", "3", "--frob"], ["decode", "0,1", "--d", "3", "x", "--y=1"],
    ["cf", "--format", "xml", "--d", "3"], ["encode", "--d", "3"],
]


@pytest.mark.parametrize("argv", REJECTED_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_rejected_argv_prints_what_the_full_parser_prints(monkeypatch, argv):
    want = _read(parse_args_reference, argv)
    calls = _argparse_calls(monkeypatch)
    code, out, err = _read(main, argv)
    assert (code, out, err) == want and calls  # argparse reads every rejected argv
    assert code == (0 if "-h" in argv else 2)


def test_leftovers_are_reported_with_the_top_level_usage():
    code, out, err = _read(main, ["cf", "--d", "3", "extra", "--frob"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: ostro [-h] {cf,encode,decode,mul,constants,audit} ...\n")
    assert err.endswith("\nostro: error: unrecognized arguments: extra --frob\n")


# ---------------------------------------------------------------------------
# the scan: main reads plain argv without argparse
# ---------------------------------------------------------------------------


# the argv shapes of the benchmark's single commands
SCANNED_ARGVS = [
    ["cf", "--d", "3", "--depth", "12"],
    ["constants", "--d", "99991", "--depth", "20"],
    ["mul", "--d", "3", "--depth", "80", "--x", "12/7", "--eps", "4.5e-21"],
    ["mul", "--d", "13/4", "--depth", "40", "--x", "1/2+3/4*sqrt(13/4)", "--eps", "2e-9"],
    ["encode", "--d", "3", "--depth", "30", "12345"],
    ["encode", "--d", "61", "--depth", "30", "--digits", "20", "22/3-sqrt(61)"],
    ["decode", "0,1,0,1@d=3", "--depth", "4"],
    ["decode", "0,1,0,1", "--d", "3", "--depth", "4"],
    ["decode", "0,1,0,1@d=3", "--depth", "4", "--real"],
]


@pytest.mark.parametrize("argv", SCANNED_ARGVS, ids=" ".join)
def test_plain_argv_never_reaches_argparse(monkeypatch, capsys, argv):
    calls = _argparse_calls(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out and calls == []


# The argv fuzz draws from each subcommand's own flags with good values, and
# from a pool of exact, prefixed, help, ambiguous ("-", "--=3") and unknown
# flags, "=" forms, dashes, blanks, "--d 3" as one token, bad ints and choices.
FUZZ_OWN = {"cf": ["--d", "--depth", "--format"], "encode": ["--d", "--depth", "--digits", "--format"],
            "decode": ["--d", "--depth", "--real", "--format"], "mul": ["--d", "--x", "--eps", "--dep"],
            "constants": ["--d", "--depth", "--fo"], "audit": ["--d", "--n-max", "--seed", "--format", "--eps"]}
FUZZ_GOOD = {"--d": "3", "--depth": "9", "--dep": "12", "--digits": "30", "--format": "json", "--fo": "text",
             "--x": "7/5", "--eps": "1e-5", "--n-max": "5", "--seed": "7"}
FUZZ_FLAGS = ["--d", "--depth", "--digits", "--format", "--output", "--real", "--x", "--eps", "--n-max",
              "--seed", "--config", "--de", "--dep", "--di", "--form", "--fo", "--out", "--re", "--e",
              "--n", "--se", "--conf", "--o", "--bogus", "--digitsx", "-d", "-", "--help", "--he", "--h"]
FUZZ_EQ = ["--d=3", "--d=13/4", "--d=", "--depth=9", "--dep=x", "--format=json", "--form=xml", "--fo=tsv",
           "--real=1", "--re=", "--x=7/5", "--x=-1/2", "--eps=1e-5", "--digits=30", "--di=x", "--n=5",
           "--=3", "--seed=7", "--bogus=1", "--output=o.txt"]
FUZZ_ODD = ["-h", "--", "-5", "-1/2", "", " ", "--d 3", "-h=1"]
FUZZ_VALUES = ["3", "2,3", "13/4", "9", "x", "json", "text", "tsv", "xml", "0,1@d=3", "0,1", "7/5",
               "1e-9", "c.json", "5", "abc", "1.5", "12", "0"]


def _fuzz_argv(rng: random.Random, command: str) -> list[str]:
    argv = [rng.choice(FUZZ_VALUES)] if command in ("encode", "decode") and rng.random() < 0.7 else []
    for _ in range(rng.randint(0, 5)):
        r = rng.random()
        if r < 0.4:
            flag = rng.choice(FUZZ_OWN[command])
            argv += [flag] if flag == "--real" else rng.choice([[flag, FUZZ_GOOD[flag]],
                                                                 [f"{flag}={FUZZ_GOOD[flag]}"]])
        elif r < 0.55:
            argv += [rng.choice(FUZZ_FLAGS), rng.choice(FUZZ_VALUES)]
        elif r < 0.7:
            argv.append(rng.choice(FUZZ_EQ))
        elif r < 0.8:
            argv.append(rng.choice(FUZZ_ODD))
        else:
            argv.append(rng.choice(FUZZ_VALUES + FUZZ_FLAGS))
    return argv


def test_scan_and_main_read_fuzzed_argv_as_the_full_parser(captured):
    def main_namespace(argv):
        assert main(argv) == 0
        return captured.pop()

    rng = random.Random(45)
    # a scan that read "--" disagreed with parse_args on these two
    draws = [("audit", ["--"]), ("cf", ["--d=3", "--"])]
    draws += [(command, _fuzz_argv(rng, command)) for command in rng.choices(list(FUZZ_OWN), k=2500)]
    scanned = 0
    for command, argv in draws:
        want = _read(parse_args_reference, [command, *argv])
        args = cli._scan(command, argv)
        if args is not None:
            scanned += 1
            assert vars(args) == want, (command, argv)
        assert _read(main_namespace, [command, *argv]) == want, (command, argv)
    assert 200 < scanned < len(draws) - 1000  # both paths are exercised


def _table_parser(monkeypatch, flags):
    """The parser of a subcommand "t" with the given flag table, added to
    cli.COMMANDS for the test, whose command is None."""
    monkeypatch.setitem(cli.COMMANDS, "t", ("a table no subcommand has", flags))
    monkeypatch.setattr(cli, "cmd_t", None, raising=False)
    cli.build_parser.cache_clear()  # a parser with the table's subcommand
    try:
        return cli.build_parser().subcommands["t"]
    finally:
        cli.build_parser.cache_clear()


def test_scan_reads_forms_no_subcommand_has_as_parse_args_does(monkeypatch, capsys):
    # a str default, which parse_args converts by type, and two flags
    # sharing a prefix, which parse_args rejects as ambiguous
    p = _table_parser(monkeypatch, {"--n": {"type": int, "default": "7"}, "--alpha": {}, "--alps": {}})
    assert vars(cli._scan("t", [])) == vars(p.parse_args([]))
    assert vars(cli._scan("t", [])) == {"n": 7, "alpha": None, "alps": None, "func": None}
    assert vars(cli._scan("t", ["--alph", "x"])) == vars(p.parse_args(["--alph", "x"]))
    assert cli._scan("t", ["--al", "x"]) is None
    with pytest.raises(SystemExit):
        p.parse_args(["--al", "x"])
    assert "ambiguous option: --al could match --alpha, --alps" in capsys.readouterr().err


def test_scan_counts_help_among_the_flags_a_prefix_may_match(monkeypatch, capsys):
    # no subcommand has a flag starting --h, so only a table with one shows
    # that --he is ambiguous between --help and that flag
    p = _table_parser(monkeypatch, {"--hex": {}})
    assert vars(cli._scan("t", ["--hex", "x"])) == vars(p.parse_args(["--hex", "x"]))
    assert cli._scan("t", ["--he", "x"]) is None
    with pytest.raises(SystemExit):
        p.parse_args(["--he", "x"])
    assert "ambiguous option: --he could match --help, --hex" in capsys.readouterr().err


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ostro", "decode", "0,1,0,1@d=3"])
    assert main() == 0
    assert capsys.readouterr().out == "5\n"


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


def test_mul_value_without_a_sign_between_parts_is_input_error(capsys):
    assert main(["mul", "--d", "2", "--x", "2 sqrt(2)"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: missing sign between parts in '2 sqrt(2)'\n")


# Documented exit codes for failures that once escaped as tracebacks.
# "{config}" stands for a config file holding a non-integer n_max.
EXIT_CASES = [
    (["decode", "--d", "3", "--depth", "2", "0,1,0,1,0,1"], 3),
    (["decode", "--d", "3", "--depth", "2", "0,1,0,1,0,1", "--real"], 3),
    (["mul", "--d", "3", "--depth", "8", "--x", "7/5", "--eps", "1e-30"], 3),
    (["encode", "--d", "3", "--digits", "100", "--", "4/3-1*sqrt(3)"], 3),
    (["encode", "--d", "3", "--digits", "-1", "3/2-sqrt(3)"], 2),
    (["audit", "--config", "{config}", "--d", "2"], 2),
    (["mul", "--d", "3", "--x", "7/5", "--eps", "1e-5000"], 3),
]


@pytest.mark.parametrize("argv,code", EXIT_CASES, ids=["decode", "decode-real", "mul-eps", "encode-digits",
                                                      "encode-negative-digits", "config",
                                                      "mul-eps-5001-digits"])
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


# ---------------------------------------------------------------------------
# --depth as a bound: each command expands only as deep as it reads
# ---------------------------------------------------------------------------


# A bad radicand, --depth or OSTRO_MAX_DEPTH is reported before the input
# that sets how deep a command reads: a negative natural is exit 4 only on
# a good radicand and depth.
@pytest.mark.parametrize("env, argv, code, err", [
    (None, ["encode", "--d", "4", "--", "-5"], 2, "error: radicand 4 is a rational square"),
    (None, ["encode", "--d", "3", "--depth", "0", "--", "-5"], 2,
     "error: depth must be positive, got 0"),
    (None, ["decode", "--d", "4", "0,1"], 2, "error: radicand 4 is a rational square"),
    ("x", ["encode", "--d", "3", "--", "-5"], 2,
     "error: OSTRO_MAX_DEPTH must be an integer, got 'x'"),
    ("5", ["encode", "--d", "3", "--depth", "6", "--", "-5"], 3,
     "error: requested depth 6 exceeds OSTRO_MAX_DEPTH=5"),
    (None, ["encode", "--d", "3", "--", "-5"], 4, "error: naturals to encode must be nonnegative"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_radicand_or_depth_comes_before_the_input(monkeypatch, capsys, env, argv, code, err):
    if env is None:
        monkeypatch.delenv("OSTRO_MAX_DEPTH", raising=False)
    else:
        monkeypatch.setenv("OSTRO_MAX_DEPTH", env)
    assert main(argv) == code
    assert capsys.readouterr().err.strip() == err


def _outputs(argvs):
    rows = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        rows.append((argv, code, out.getvalue(), err.getvalue()))
    return rows


@pytest.mark.parametrize("d", [*ostro.DEFAULT_D_LIST, *map(Fraction, ("991", "9949", "99991",
                                                                          "1000003/7"))], ids=str)
def test_commands_print_what_the_full_depth_prints(monkeypatch, d):
    # stdout, stderr and exit code of each command, exit 3 included, against
    # the same call expanded to the full --depth
    cf, ds = cfrac.expand(d, 1), str(d)
    value = f"{cf.a0 + Fraction(1, 3)}-sqrt({ds})"
    commands = [["cf"], ["constants"], ["encode", "0"], ["encode", "123456"],
                ["encode", str(10**30)], ["encode", "--", value],
                ["encode", "--digits", "3", "--", value], ["decode", "0,1,0,1,0,1,0,1"],
                ["decode", "0,1,0,0,0,0,0,0,0"], ["decode", "--real", "0,1,0,1,0,1,0,1"],
                ["decode", ""], ["mul", "--x", "7/5"]]
    argvs = [[cmd, "--d", ds, "--depth", str(depth), "--format", fmt, *rest]
             for depth in (1, 5, 64, 2 * cf.t + 2) for cmd, *rest in commands
             for fmt in ("text", "json")]
    argvs += [argv for argv, code in EXIT_CASES if code == 3]
    got = _outputs(argvs)
    full = cli._expand
    monkeypatch.setattr(cli, "_expand", lambda args, need, *d: full(args, args.depth, *d))
    assert got == _outputs(argvs)


# Each reads a few indices, so a depth bound far past what memory holds
# costs nothing.  The child runs under an address-space limit, so a build
# that grows its tables to the bound fails there, not on the machine.
HUGE_DEPTH_CHILD = """
import json, resource, sys, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from ostro.cli import main
tracemalloc.start()
t0 = time.perf_counter()
code = main(sys.argv[1:])
elapsed = time.perf_counter() - t0
print(json.dumps({"code": code, "s": elapsed, "peak": tracemalloc.get_traced_memory()[1]}))
"""


@pytest.mark.parametrize("argv", [
    ["cf", "--d", "3"], ["constants", "--d", "3"], ["encode", "--d", "3", "123"],
    ["encode", "--d", "2", "1/3"], ["decode", "0,1@d=3"],
], ids=" ".join)
def test_a_huge_depth_bound_costs_only_what_the_command_reads(argv):
    src = str(Path(ostro.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OSTRO_MAX_DEPTH"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_DEPTH_CHILD, *argv[:1], "--depth", "1000000000", *argv[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.splitlines()[-1])
    assert run["code"] == 0, proc.stderr
    assert run["s"] < 1 and run["peak"] < 10 * 2**20, run


# Exact values past Python's default limit of 4300 digits for int-to-str:
# the unit of sqrt(99999993) has 4628 digits and eps = 10^-5000 has 5001.
LONG_VALUE_CASES = [
    (["cf", "--d", "99999993", "--format", "json"], 0),
    (["constants", "--d", "99999993", "--format", "json"], 0),
    (["mul", "--d", "3", "--x", "7/5", "--eps", "1e-5000"], 3),
    (["audit", "--d", "3", "--n-max", "5", "--eps", "1e-5000", "--format", "json"], 1),
]


@pytest.mark.parametrize("argv,code", LONG_VALUE_CASES, ids=[a[0] for a, _ in LONG_VALUE_CASES])
def test_exact_values_print_at_any_length(capsys, argv, code):
    limit = sys.get_int_max_str_digits()
    assert main(argv) == code
    assert sys.get_int_max_str_digits() == limit  # main leaves the process-wide limit as it was
    out, err = capsys.readouterr()
    if argv[0] in ("cf", "constants"):
        assert max(map(len, re.findall(r"\d+", out))) > 4300
    elif argv[0] == "mul":
        assert re.fullmatch(r"error: eps=1/10{5000} needs more than 64 digit positions\n", err)
    else:
        (res,) = json.loads(out)["results"]
        assert res["times_sqrt_real"]["first_failure"]["error"].startswith("DepthExceeded: eps=")
        assert json.loads(out)["config"]["eps"] == "1/1" + "0" * 5000


# Every place a rational is read: a zero denominator is bad input, not a
# ZeroDivisionError.  "{config}" stands for a config file with "d_list": ["1/0"].
ZERO_DENOMINATOR_CASES = [
    ["cf", "--d", "3/0"],
    ["mul", "--d", "3", "--x", "1/0"],
    ["mul", "--d", "3", "--x", "1+1/0*sqrt(3)"],
    ["mul", "--d", "3", "--x", "1+1*sqrt(3/0)"],
    ["mul", "--d", "3", "--x", "1", "--eps", "1/0"],
    ["encode", "--d", "3", "1/0"],
    ["decode", "1@d=1/0"],
    ["decode", "1", "--d", "1/0"],
    ["audit", "--d", "1/0"],
    ["audit", "--config", "{config}"],
]


@pytest.mark.parametrize("argv", ZERO_DENOMINATOR_CASES, ids=" ".join)
def test_zero_denominator_is_input_error(tmp_path, capsys, argv):
    cfg = tmp_path / "suite.json"
    cfg.write_text('{"d_list": ["1/0"]}')
    argv = [str(cfg) if a == "{config}" else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: zero denominator in '"), err


# ---------------------------------------------------------------------------
# README transcripts
# ---------------------------------------------------------------------------


def readme_transcripts():
    """(command, stdout lines) for each `$ ostro` line of the README's code
    blocks: the lines after it, up to the next `$ ` line or the block's end."""
    runs, fenced, out = [], False, None
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced, out = not fenced, None
        elif fenced and line.startswith("$ "):
            out = []
            runs.append((line[2:], out))
        elif out is not None:
            out.append(line)
    return [run for run in runs if run[0].startswith("ostro ")]


README_RUNS = readme_transcripts()


def test_readme_has_eight_transcripts():
    assert len(README_RUNS) == 8


@pytest.mark.parametrize("command, expected", README_RUNS, ids=[c for c, _ in README_RUNS])
def test_readme_transcript_replays(capsys, command, expected):
    # a line "  ..." stands for any run of lines; timings are normalised
    def timed(text):
        return re.sub(r"\d+\.\d+s", "<t>s", text)

    assert main(shlex.split(command)[1:]) == 0
    pattern = "".join(r"(?:.*\n)*" if line == "  ..." else re.escape(timed(line)) + "\n"
                      for line in expected)
    out = capsys.readouterr().out
    assert re.fullmatch(pattern, timed(out)), out
