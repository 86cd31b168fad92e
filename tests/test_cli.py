"""Command-line surface: subcommand output, exit codes, JSON round
trips, depth capping, and file output."""

import argparse
import contextlib
import hashlib
import io
import json
import os
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
    # the shift constants need 2t+2 indices and mul reads its digits
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
    # mul encodes on the expansion its shift constants grew to 2t+2 = 874;
    # eps = 10^-150 fits in that, but not in the 64 digit positions of --depth
    assert main(["mul", "--d", "99991", "--x", "7/5", "--eps", "1e-150"]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: eps=1/10{150} needs more than 64 digit positions\n", err)
    assert main(["mul", "--d", "99991", "--x", "7/5", "--eps", "1e-150", "--depth", "874"]) == 0


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


def test_parser_built_once(monkeypatch, capsys):
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
def test_main_parses_as_the_full_parser(captured, argv):
    assert main(argv) == 0
    (got,) = captured
    want = vars(parse_args_reference(argv))
    assert want.pop("command") == argv[0]
    assert vars(got) == want


def _outcome(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            fn(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


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
def test_rejected_argv_prints_what_the_full_parser_prints(argv):
    code, out, err = _outcome(main, argv)
    assert (code, out, err) == _outcome(parse_args_reference, argv)
    assert code == (0 if "-h" in argv else 2)


def test_leftovers_are_reported_with_the_top_level_usage():
    code, out, err = _outcome(main, ["cf", "--d", "3", "extra", "--frob"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: ostro [-h] {cf,encode,decode,mul,constants,audit} ...\n")
    assert err.endswith("\nostro: error: unrecognized arguments: extra --frob\n")


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
