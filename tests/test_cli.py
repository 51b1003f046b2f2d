"""End-to-end runs of the installed command line.

Core claims:
    - the documented examples run with the documented outputs and exits
    - exit codes: 0 success, 1 domain error as JSON, 2 usage
      (a refusal whose details hold a 5230-digit integer prints it);
      a shape of another rank than the family's is ShapeMismatch on
      every subcommand, and an --out that cannot be written is
      OutputError
    - importing the CLI loads neither dataclasses nor csv, and loads
      every module the benchmark tracer wraps
    - --log-base only rescales the displayed logarithmic quantities
    - every run pinned in tests/golden.json prints its pinned SHA-256
      digest and exit code, run from one directory that holds families/
      and the manifest's input files; each one that exits 0, JSON and
      CSV alike, reruns byte for byte from its embedded config; the
      oracle pressure prints the same bytes from a directory that holds
      only its two inputs
    - the JSON and CSV outputs of every subcommand carry the same config
      and the same values
    - input files are read as UTF-8 whatever the locale, and integer
      options out of range or not written in ASCII digits are usage errors
    - main parses with the one parser built at import: no call builds
      another, no option leaks from one call into the next, and help
      reads the terminal width when it is printed
"""

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from pytest import approx

from rankshift import cli
from rankshift.cli import main
from rankshift.jsonout import dumps_line
from rankshift.matrices import load_family, matrix_power_product, word_count
from rankshift.shapes import Shape
from rerun_argv import argv_from_config, config_of

REPO = Path(__file__).resolve().parent.parent
FAMILIES = REPO / "families"
# every pinned run: its argv, output digest, provenance note and exit code
GOLDEN = json.loads((REPO / "tests" / "golden.json").read_text(encoding="utf-8"))


def _g(n):
    return str(FAMILIES / f"g{n}.json")


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "rankshift", *argv],
        capture_output=True, text=True)
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc


def run_json(*argv):
    return json.loads(run_cli(*argv).stdout)


@pytest.fixture(scope="module")
def g1_path():
    return str(FAMILIES / "g1.json")


@pytest.fixture()
def bad_family(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"rank": 1, "alphabet": ["0", "1"], "matrices": [[[0, 0], [1, 1]]]}))
    return str(path)


@pytest.fixture()
def pot_path(tmp_path):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({
        "window": [0], "default": 0.0,
        "entries": [{"word": {"shape": [0], "labels": [1]}, "value": 0.5}],
    }))
    return str(path)


# -- Documented examples ---------------------------------------------------------

def test_validate_example(g1_path):
    data = run_json("validate", "-f", g1_path)
    assert data["status"] == "valid"
    assert data["config"]["command"] == "validate"


def test_entropy_example(g1_path):
    data = run_json("entropy", "-f", g1_path, "--p", "1", "--mode", "both",
                    "--k", "1", "--n-max", "40")
    assert data["exact"] == approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-9)
    assert data["abs_error"] <= 1e-6
    assert len(data["sequence"]) == 40 and len(data["diffs"]) == 39


def test_search_gap_example(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        run_cli("search-gap", "-f", "/dev/null", "--exhaustive", "--size", "2",
                "--format", "csv", "--out", str(out))
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "fingerprint,alphabet_size,matrices,r1,r2,r_prod,gap"
    assert len(lines) == 24  # config + header + 22 records


def test_search_gap_needs_no_family():
    argv = ("search-gap", "--exhaustive", "--size", "2", "--format", "csv")
    bare = run_cli(*argv).stdout.splitlines()
    ignored = run_cli(*argv, "-f", "/dev/null").stdout.splitlines()
    assert len(bare) == 24
    assert bare[1:] == ignored[1:]


@pytest.mark.parametrize("options", [
    "--exhaustive --size 4", "--exhaustive --size 5", "--trials 0"])
def test_rank_one_gap_sweeps_are_refused(capsys, options):
    # refused before the sweep: not after 50 625 families (size 4), not
    # over budget (size 5), not an empty summary (no trials)
    assert main(["search-gap", *options.split(), "--rank", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "RankOne"


def test_other_commands_still_need_a_family():
    proc = run_cli("validate", expect=2)
    assert "-f/--family" in proc.stderr


# -- Exit codes --------------------------------------------------------------------

def test_validate_reports_invalid_but_exits_zero(bad_family):
    data = run_json("validate", "-f", bad_family)
    assert data["status"] == "invalid"
    assert data["violations"][0]["code"] == "NoSources"


def test_domain_error_exits_one(bad_family):
    proc = run_cli("entropy", "-f", bad_family, "--p", "1", expect=1)
    payload = json.loads(proc.stdout)
    assert payload["error"] == "InvalidFamily"


def test_zero_direction_exits_one(g1_path):
    proc = run_cli("entropy", "-f", g1_path, "--p", "0", expect=1)
    assert json.loads(proc.stdout)["error"] == "ZeroDirection"


@pytest.mark.parametrize("argv, step", [
    (["entropy", "-f", _g(3), "--p", "2,1"], [2, 1]),
    (["pressure", "-f", _g(1), "--p", "2"], [2]),
    (["pressure", "-f", _g(3), "--p", "2,0", "--method", "enumerate"], [2, 0]),
], ids=["entropy", "pressure", "pressure-enumerate"])
def test_step_beyond_cube_radius_is_scale_too_fine(argv, step):
    # entropy and pressure share one check: same code, message and details
    payload = json.loads(run_cli(*argv, expect=1).stdout)
    assert payload == {
        "error": "ScaleTooFine",
        "message": "cube radius must dominate every step coordinate",
        "details": {"k": 1, "step": step}}


@pytest.mark.parametrize("argv, shape", [
    (["entropy", "--p", "1"], [1]),
    (["entropy", "--p", "1", "--mode", "exact"], [1]),
    (["count-check", "--max-shape", "1,1,1"], [1, 1, 1]),
    (["words", "--shape", "1"], [1]),
    (["lemma-check", "--p", "1", "--max-shape", "1,1"], [1]),
    (["lemma-check", "--p", "1,1", "--max-shape", "1,0", "--m", "3"], [3]),
    (["pressure", "--p", "1"], [1]),
], ids=["entropy", "entropy-exact", "count-check", "words", "lemma-check",
        "lemma-check-m", "pressure"])
def test_shape_of_another_rank_is_shape_mismatch(capsys, argv, shape):
    # one coded error on every route, raised before any Shape arithmetic
    assert main([*argv, "-f", _g(3)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "ShapeMismatch",
        "message": "shape rank does not match family rank",
        "details": {"shape": shape, "family_rank": 2},
    }


def test_usage_errors_exit_two(g1_path):
    run_cli("no-such-command", "-f", g1_path, expect=2)
    proc = run_cli("entropy", "-f", g1_path, "--p", "1", "--n-max", "1",
                   expect=2)
    assert "usage error" in proc.stderr


def test_missing_family_file_is_parse_error():
    proc = run_cli("validate", "-f", "/no/such/file.json", expect=1)
    assert json.loads(proc.stdout)["error"] == "ParseError"


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe\x00garbage", id="not-utf8"),
    # interpreters without the integer string limit parse such a rank
    pytest.param(b'{"rank": ' + b"1" * 5000 + b"}", id="int-over-digit-limit",
                 marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="no integer string conversion limit"))])
def test_undecodable_family_file_is_parse_error(tmp_path, content):
    path = tmp_path / "family.json"
    path.write_bytes(content)
    proc = run_cli("validate", "-f", str(path), expect=1)
    assert json.loads(proc.stdout)["error"] == "ParseError"


def test_inexact_family_entries_are_parse_errors(tmp_path):
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(
        {"rank": 1, "alphabet": ["0", "1"], "matrices": [[[1.7, True], [1, 0]]]}))
    proc = run_cli("validate", "-f", str(path), expect=1)
    assert json.loads(proc.stdout)["error"] == "ParseError"


def test_non_finite_potential_is_parse_error(g1_path, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "window": [0], "default": math.nan,
        "entries": [{"word": {"shape": [0], "labels": [1]}, "value": 0.5}],
    }))
    assert "NaN" in path.read_text()
    proc = run_cli("pressure", "-f", g1_path, "--p", "1", "--n-max", "5",
                   "--potential", str(path), "--oracle", expect=1)
    assert json.loads(proc.stdout)["error"] == "ParseError"


@pytest.mark.parametrize("entries", [
    [{"word": {"shape": [3], "labels": [1]}, "value": 0.5}],
    [{"word": [1], "value": 0.5}, {"word": {"labels": [1]}, "value": -2.0}],
    [{"word": [0, 1], "value": 1}],
    [{"word": [2], "value": 1}],
], ids=["off-window", "repeated", "label-count", "label-range"])
def test_malformed_potential_words_are_parse_errors(capsys, g1_path, tmp_path,
                                                    entries):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"window": [0], "entries": entries}))
    assert main(["pressure", "-f", g1_path, "--p", "1", "--n-max", "2",
                 "--potential", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ParseError"
    assert payload["details"]["path"] == str(path)


@pytest.mark.parametrize("entry", [0, 2])
def test_potential_on_invalid_family_is_invalid_family(capsys, tmp_path,
                                                        entry):
    # the edges of the potential's words are checked against a family only
    # once it has validated, so the failure names the family, not the
    # potential file
    family, pot = tmp_path / "fam.json", tmp_path / "pot.json"
    family.write_text(json.dumps({"rank": 1, "alphabet": ["0", "1"],
                                  "matrices": [[[entry, 1], [0, 0]]]}))
    pot.write_text(json.dumps({
        "window": [1], "default": 0.0,
        "entries": [{"word": {"labels": [0, 0]}, "value": 0.5}]}))
    assert main(["pressure", "-f", str(family), "--p", "1", "--n-max", "2",
                 "--potential", str(pot)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "InvalidFamily"


@pytest.mark.parametrize("rank", [1.7, True, "1"])
def test_inexact_rank_is_parse_error(tmp_path, rank):
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(
        {"rank": rank, "alphabet": ["0", "1"], "matrices": [[[1, 1], [1, 0]]]}))
    proc = run_cli("validate", "-f", str(path), expect=1)
    assert json.loads(proc.stdout)["error"] == "ParseError"


@pytest.mark.parametrize("alphabet", ["01", [0, 1], [True, None]],
                         ids=["string", "ints", "bool-null"])
def test_alphabet_of_non_strings_is_parse_error(capsys, tmp_path, alphabet):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps(
        {"rank": 1, "alphabet": alphabet, "matrices": [[[1, 1], [1, 0]]]}))
    assert main(["validate", "-f", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "ParseError"


def _potential_file(tmp_path, default, entries=()):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({
        "window": [0], "default": default,
        "entries": [{"word": {"shape": [0], "labels": [label]}, "value": v}
                    for label, v in entries],
    }))
    return str(path)


@pytest.mark.parametrize("default, entries", [
    (True, ()), (0.0, [(1, "0.5")]), (0.0, [(True, 0.5)]), (10 ** 400, ())],
    ids=["bool-default", "str-value", "bool-label", "huge-int"])
def test_non_numeric_potential_is_parse_error(g1_path, tmp_path, default,
                                              entries):
    pot = _potential_file(tmp_path, default, entries)
    proc = run_cli("pressure", "-f", g1_path, "--p", "1", "--n-max", "5",
                   "--potential", pot, expect=1)
    assert json.loads(proc.stdout)["error"] == "ParseError"


@pytest.mark.parametrize("window", [[True], [1.0], ["1"], [1.7]],
                         ids=["bool", "float", "str", "fraction"])
def test_inexact_window_is_parse_error(g1_path, tmp_path, window):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(
        {"window": window, "default": 0.0, "entries": []}))
    proc = run_cli("pressure", "-f", g1_path, "--p", "1", "--n-max", "5",
                   "--potential", str(path), expect=1)
    assert json.loads(proc.stdout)["error"] == "ParseError"


def test_exact_entropy_respects_digit_budget(g1_path):
    proc = run_cli("entropy", "-f", g1_path, "--p", "3000", "--mode", "exact",
                   "--max-exact-digits", "5", expect=1)
    payload = json.loads(proc.stdout)
    assert payload["error"] == "BudgetExceeded"
    assert payload["details"]["max_exact_digits"] == 5


def test_enum_refusal_past_the_int_text_limit(g1_path):
    # estimated_nodes has 5230 digits, past the 4300 that int.__repr__
    # prints under Python 3.11
    proc = run_cli("words", "-f", g1_path, "--shape", "25000", "--limit", "0",
                   "--max-enum-bits", "1e9", expect=1)
    payload = json.loads(proc.stdout, parse_int=str)
    assert payload["error"] == "BudgetExceeded" and proc.stderr == ""
    nodes = payload["details"]["estimated_nodes"]
    assert len(nodes) == 5230
    count = word_count(load_family(FAMILIES / "g1.json"), Shape.of(25000))
    assert Decimal(nodes) == count * 25001


def test_non_finite_result_is_coded_error(g1_path, tmp_path):
    # finite potential values whose Birkhoff sums overflow to inf
    pot = _potential_file(tmp_path, 1e308)
    out = tmp_path / "out.json"
    proc = run_cli("pressure", "-f", g1_path, "--p", "1", "--n-max", "3",
                   "--potential", pot, "--out", str(out), expect=1)
    payload = json.loads(proc.stdout)
    assert payload["error"] == "NonFiniteResult"
    assert payload["details"] == {"path": ["sequence", 0], "value": "inf"}
    assert not out.exists()


@pytest.mark.parametrize("method, default, value", [
    ("transfer", 1e308, "inf"), ("transfer", -1e308, "-inf"),
    ("enumerate", -1e308, "-inf")])
def test_non_finite_csv_result_is_coded_error(g1_path, tmp_path, method,
                                              default, value):
    # the CSV twin of the test above: the rows would print inf, -inf, nan
    pot = _potential_file(tmp_path, default)
    out = tmp_path / "out.csv"
    proc = run_cli("pressure", "-f", g1_path, "--p", "1", "--n-max", "3",
                   "--potential", pot, "--method", method, "--format", "csv",
                   "--out", str(out), expect=1)
    payload = json.loads(proc.stdout)
    assert payload["error"] == "NonFiniteResult"
    assert payload["details"] == {"path": ["sequence", 0], "value": value}
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/out.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_is_output_error(capsys, monkeypatch, tmp_path, g1_path,
                                        out):
    # FileNotFoundError and IsADirectoryError: coded, not a traceback
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "-f", g1_path, "--out", out]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["error"] == "OutputError" and captured.err == ""
    assert payload["details"]["path"] == out and payload["details"]["reason"]


def test_exact_entropy_beyond_float_range_stays_finite(g1_path):
    data = run_json("entropy", "-f", g1_path, "--p", "1500", "--mode", "exact")
    assert data["exact"] == approx(1500 * math.log((1 + math.sqrt(5)) / 2),
                                   rel=1e-11)


def test_transfer_chain_underflow_exits_one(g1_path, tmp_path):
    # letter 0 weighs exp(-1000) = 0.0 against letter 1, and 1 -> 1 is
    # forbidden, so every weight is 0.0 after one step; the golden-mean
    # chain itself is live, so this is an underflow, not a dead end
    pot = _potential_file(tmp_path, -1000.0, [(1, 0.0)])
    proc = run_cli("pressure", "-f", g1_path, "--p", "1", "--potential", pot,
                   expect=1)
    payload = json.loads(proc.stdout)
    assert payload["error"] == "TransferChainUnderflow"
    assert payload["details"] == {"stage": 1}
    assert proc.stderr == ""


def test_overflowing_transfer_chain_is_not_a_dead_end(g1_path, tmp_path):
    # 1e308 on letter 1: exp(x - top) leaves only letter 1's weight, the
    # partition sums are too large for a float, and the chain is live
    pot = _potential_file(tmp_path, 0.0, [(1, 1e308)])
    proc = run_cli("pressure", "-f", g1_path, "--p", "1", "--n-max", "4",
                   "--method", "transfer", "--potential", pot, expect=1)
    assert json.loads(proc.stdout)["error"] == "TransferChainUnderflow"


def test_radius_underflow_exits_1():
    # a valid family whose radius (1) the float loop loses to underflow:
    # a coded error, not a log(0) usage error
    proc = run_cli("entropy", "-f", str(FAMILIES / "unipotent12.json"),
                   "--p", "1", "--mode", "exact", expect=1)
    payload = json.loads(proc.stdout)
    assert payload["error"] == "RadiusUnderflow"
    assert payload["details"] == {"step": 57}
    assert proc.stderr == ""


@pytest.mark.parametrize("option", [["--max-enum-bits", "inf"],
                                    ["--max-enum-bits", "nan"]])
def test_non_finite_budget_is_usage_error(g1_path, option):
    proc = run_cli("entropy", "-f", g1_path, "--p", "1", *option, expect=2)
    assert "not a finite number" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["words", "-f", "FAMILY", "--shape", "2", "--limit", "-1"],
    ["search-gap", "--trials", "-5"],
    ["action-entropy", "-f", "FAMILY", "--n", "2", "--k", "-1"],
    ["search-gap", "--exhaustive", "--size", "0"],
    ["search-gap", "--exhaustive", "--rank", "0"]],
    ids=["limit", "trials", "k", "size", "rank"])
def test_integer_option_out_of_range_is_usage_error(argv):
    argv = [str(FAMILIES / "g3.json") if a == "FAMILY" else a for a in argv]
    proc = run_cli(*argv, expect=2)
    assert f"argument {argv[-2]}: must be at least" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, low", [
    (["entropy", "--p", "1", "--n-max"], 1),
    (["action-entropy", "--n"], 1),
    (["words", "--shape", "2", "--max-enum-nodes"], 0),
    (["entropy", "--p", "1", "--max-exact-digits"], 0)],
    ids=["n-max", "n", "max-enum-nodes", "max-exact-digits"])
def test_integer_option_is_strict(capsys, g1_path, argv, low):
    for text in ["1_0", " +1", str(low - 1)]:
        with pytest.raises(SystemExit) as info:
            main([*argv, text, "-f", g1_path])
        assert info.value.code == 2
        assert f"argument {argv[-1]}:" in capsys.readouterr().err


def test_seed_takes_any_sign(capsys):
    assert main(["search-gap", "--seed", "-3", "--trials", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == -3


LENIENT_INTEGERS = ["1_0", " +1", "\u0661"]


@pytest.mark.parametrize("text", LENIENT_INTEGERS, ids=["underscore", "plus", "arabic"])
def test_shape_option_takes_ascii_digits_only(capsys, g1_path, text):
    assert main(["words", "-f", g1_path, "--shape", text]) == 2
    assert "ASCII digits" in capsys.readouterr().err


@pytest.mark.parametrize("text", LENIENT_INTEGERS, ids=["underscore", "plus", "arabic"])
def test_integer_option_takes_ascii_digits_only(capsys, g1_path, text):
    with pytest.raises(SystemExit) as info:
        main(["words", "-f", g1_path, "--shape", "2", "--limit", text])
    assert info.value.code == 2
    assert "argument --limit: not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("text", [*LENIENT_INTEGERS, " 1", "-\u0663"],
                         ids=["underscore", "plus", "arabic", "space",
                              "negative-arabic"])
def test_seed_takes_ascii_digits_only(capsys, text):
    with pytest.raises(SystemExit) as info:
        main(["search-gap", "--seed", text, "--trials", "2"])
    assert info.value.code == 2
    assert "argument --seed: not an integer" in capsys.readouterr().err


def test_family_file_is_read_as_utf8_under_any_locale(tmp_path):
    path = tmp_path / "accented.json"
    path.write_bytes(json.dumps(
        {"rank": 1, "alphabet": ["\u00e9", "b"], "matrices": [[[1, 1], [1, 0]]]},
        ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-m", "rankshift", "validate", "-f", str(path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(proc.stdout)
    assert data["status"] == "valid"
    assert load_family(path).alphabet.letters == ("\u00e9", "b")


def test_non_finite_density_is_usage_error():
    proc = run_cli("search-gap", "-f", "/dev/null", "--trials", "5",
                   "--density", "nan", expect=2)
    assert "not a finite number" in proc.stderr


# -- Display options ---------------------------------------------------------------

def test_log_base_two_rescales(g1_path):
    base_e = run_json("entropy", "-f", g1_path, "--p", "1", "--n-max", "10")
    base_2 = run_json("entropy", "-f", g1_path, "--p", "1", "--n-max", "10",
                      "--log-base", "2")
    assert base_2["exact"] == approx(base_e["exact"] / math.log(2), rel=1e-9)
    assert base_2["estimate"] == approx(base_e["estimate"] / math.log(2),
                                        rel=1e-9)


def test_words_origin_and_limit(g1_path):
    data = run_json("words", "-f", g1_path, "--shape", "2", "--origin", "1")
    assert data["total"] == "2"
    assert [w["labels"] for w in data["words"]] == [[1, 0, 0], [1, 0, 1]]
    limited = run_json("words", "-f", g1_path, "--shape", "2", "--limit", "2")
    assert limited["total"] == "5" and limited["returned"] == 2


def test_words_origin_total_is_power_product_row_sum():
    g3_path = str(FAMILIES / "g3.json")
    g3 = load_family(g3_path)
    power = matrix_power_product(g3, Shape.of(2, 1))
    for letter, row in zip(g3.alphabet.letters, power):
        data = run_json("words", "-f", g3_path, "--shape", "2,1",
                        "--origin", letter, "--limit", "0")
        assert data["total"] == str(sum(row))


def test_words_csv(g1_path):
    proc = run_cli("words", "-f", g1_path, "--shape", "2", "--limit", "2",
                   "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[1] == "index,word"
    assert lines[2] == "0,2:0.0.0"
    assert lines[3] == "1,2:0.0.1"


def test_count_check(g1_path):
    data = run_json("count-check", "-f", str(FAMILIES / "g3.json"),
                    "--max-shape", "2,2")
    assert data["ok"] is True and len(data["rows"]) == 9
    csv_proc = run_cli("count-check", "-f", g1_path, "--max-shape", "3",
                       "--format", "csv")
    assert "shape,enumerated,matrix_count,equal" in csv_proc.stdout


def test_action_entropy(g1_path):
    data = run_json("action-entropy", "-f", str(FAMILIES / "g3.json"), "--n", "5")
    assert data["value"] > 0
    with_k = run_json("action-entropy", "-f", str(FAMILIES / "g3.json"),
                      "--n", "5", "--k", "2")
    assert with_k["value"] > data["value"]  # bigger cube, same scaling


def test_pressure_oracle(g1_path, pot_path):
    data = run_json("pressure", "-f", g1_path, "--p", "1", "--n-max", "40",
                    "--potential", pot_path, "--oracle")
    closed = math.log((1 + math.sqrt(1 + 4 * math.exp(0.5))) / 2)
    assert data["oracle"] == approx(closed, abs=1e-9)
    assert data["abs_error"] <= 1e-6
    zero = run_json("pressure", "-f", g1_path, "--p", "1", "--n-max", "30",
                    "--oracle")
    assert zero["oracle"] == approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-9)


def test_lemma_check(g1_path):
    data = run_json("lemma-check", "-f", str(FAMILIES / "g2.json"),
                    "--p", "1", "--max-shape", "1")
    assert data["pairs"] == 36
    assert data["failures"] == 0
    assert data["all_partial_isometries"] is True


def test_lemma_csv_builds_no_json_reports(capsys, monkeypatch):
    from rankshift import patterns
    built = []
    real = patterns.reports_to_json
    monkeypatch.setattr(patterns, "reports_to_json",
                        lambda reports: built.append(None) or real(reports))
    for fmt in ("csv", "json"):
        assert main(["lemma-check", "-f", str(FAMILIES / "g1.json"), "--p",
                     "1", "--max-shape", "1", "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert len(built) == (fmt == "json")


def test_search_gap_csv_builds_no_json_records(capsys, monkeypatch):
    from rankshift import gapsearch
    built = []
    real = gapsearch.GapRecord.to_json
    monkeypatch.setattr(gapsearch.GapRecord, "to_json",
                        lambda rec: built.append(None) or real(rec))
    for fmt, count in (("csv", 0), ("json", 22)):
        built.clear()
        assert main(["search-gap", "--exhaustive", "--size", "2",
                     "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert len(built) == count


# -- What the import loads -----------------------------------------------------------

def test_import_leaves_dataclasses_inspect_and_csv_unloaded():
    # dataclasses pulls in inspect, ast and dis, about 1 MB resident per
    # run before its first job; csv serves --format csv alone.
    # The package modules the benchmark tracer wraps must all be loaded by
    # the import: Tracer.install looks each one up in sys.modules before
    # the first job, so a module loaded on first use breaks a traced run.
    code = ("import sys, rankshift.cli; loaded = set(sys.modules); "
            "sys.path.insert(0, sys.argv[1]); from spans import WRAPPED; "
            "print(sorted({'dataclasses', 'inspect', 'csv'} & loaded)); "
            "print(sorted(m for m in WRAPPED if 'rankshift.' + m not in loaded))")
    proc = subprocess.run([sys.executable, "-c", code, str(REPO / "perfbench")],
                          capture_output=True, text=True)
    assert proc.stdout == "[]\n[]\n", proc.stderr


# -- One parser per process ----------------------------------------------------------

def test_main_builds_no_parser(capsys, monkeypatch, g1_path):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(None) or real())
    assert main(["validate", "-f", g1_path]) == 0
    assert main(["entropy", "-f", g1_path, "--p", "1", "--n-max", "5"]) == 0
    assert main(["search-gap", "--exhaustive", "--format", "csv"]) == 0
    assert main(["words", "-f", g1_path, "--shape", "1_0"]) == 2
    with pytest.raises(SystemExit):
        main(["entropy", "-f", g1_path])
    assert capsys.readouterr().out
    assert built == []


def test_no_option_leaks_between_calls(capsys, g1_path):
    argv = ["pressure", "-f", g1_path, "--p", "1", "--n-max", "5"]
    assert main([*argv, "--oracle", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("# config: ")
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert "oracle" not in data
    assert data["config"]["oracle"] is False
    assert data["config"]["format"] == "json"


def test_usage_error_leaves_lemma_bytes_pinned(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    with pytest.raises(SystemExit) as info:
        main(["lemma-check", "-f", "families/g3.json", "--p", "1,1",
              "--max-shape", "1,0", "--format", "xml"])
    assert info.value.code == 2
    assert main(["lemma-check", "-f", "families/g3.json", "--p", "1_1",
                 "--max-shape", "1,0"]) == 2
    capsys.readouterr()
    pinned = {run["argv"]: run["sha256"] for run in GOLDEN["runs"]}
    for max_shape in ("0,1", "1,0"):
        for fmt in ("csv", "json"):
            argv = ("lemma-check -f families/g3.json --p 1,1 "
                    f"--max-shape {max_shape} --format {fmt}")
            assert main(argv.split()) == 0
            assert _digest(capsys.readouterr().out) == pinned[argv]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pressure_oracle_bytes_are_pinned(capsys, monkeypatch, tmp_path,
                                          pot_path, fmt):
    # a directory holding only g1 and the potential prints the manifest's
    # bytes: nothing else in the golden directory enters the output
    (tmp_path / "families").mkdir()
    (tmp_path / "families" / "g1.json").write_bytes(
        (FAMILIES / "g1.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    argv = ("pressure -f families/g1.json --p 1 --n-max 200 --oracle "
            f"--potential pot.json --format {fmt}")
    assert main(argv.split()) == 0
    pinned = {run["argv"]: run["sha256"] for run in GOLDEN["runs"]}
    assert _digest(capsys.readouterr().out) == pinned[argv]


def _help(parse, argv):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    assert info.value.code == 0


def test_help_reads_terminal_width_when_printed(capsys, monkeypatch):
    texts = {}
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        _help(main, ["entropy", "-h"])
        texts[columns] = capsys.readouterr().out
        _help(cli.build_parser().parse_args, ["entropy", "-h"])
        assert capsys.readouterr().out == texts[columns]
    assert texts["60"] != texts["200"]
    monkeypatch.setenv("COLUMNS", "60")
    _help(main, ["-h"])
    assert ("{validate,words,count-check,entropy,action-entropy,pressure,"
            "lemma-check,search-gap}") in capsys.readouterr().out


# -- Golden runs ----------------------------------------------------------------------

def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    """A copy of families/ and the manifest's input files: every golden run
    names its files relative to this one directory, and its config embeds
    them so."""
    root = tmp_path_factory.mktemp("golden")
    shutil.copytree(FAMILIES, root / "families")
    for name, content in GOLDEN["inputs"].items():
        (root / name).write_text(json.dumps(content), encoding="utf-8")
    return root


@pytest.mark.parametrize("run", GOLDEN["runs"],
                         ids=[run.get("argv") for run in GOLDEN["runs"]])
def test_golden_run(capsys, monkeypatch, golden_dir, run):
    # the argv splits on whitespace; exit is given only when it is not 0
    assert set(GOLDEN) == {"inputs", "runs"}
    assert set(run) - {"exit"} == {"argv", "sha256", "note"}, sorted(run)
    assert run.get("exit", 1) != 0, "an exit of 0 is left out"
    argvs = [other.get("argv") for other in GOLDEN["runs"]]
    assert argvs.count(run["argv"]) == 1, "duplicate argv"
    monkeypatch.chdir(golden_dir)
    assert main(run["argv"].split()) == run.get("exit", 0)
    text = capsys.readouterr().out
    digest = _digest(text)
    if digest != run["sha256"]:
        pytest.fail(f"{run['argv']}: pinned {run['sha256']} produced {digest}",
                    pytrace=False)
    if "exit" not in run:
        assert main(argv_from_config(config_of(text))) == 0
        if capsys.readouterr().out != text:
            pytest.fail(f"{run['argv']}: the rerun from its embedded config "
                        "differs", pytrace=False)


def test_rerun_script_prints_the_config_argv(tmp_path):
    # the script the console-script rerun goes through: a True flag is
    # bare, a False flag and a None option are left out, and any other
    # value is joined to its option by "=", so a value may begin with "-"
    out = tmp_path / "gap.csv"
    run_cli("search-gap", "--exhaustive", "--size", "2", "--format", "csv",
            "--out", str(out))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "rerun_argv.py"),
         str(out)], capture_output=True, text=True, check=True)
    argv = proc.stdout.split()
    assert argv[0] == "search-gap" and "--exhaustive" in argv
    assert "--size=2" in argv and "--format=csv" in argv
    assert not any(a.startswith(("--family", "--canonicalize")) for a in argv)
    rerun = run_cli(*argv)
    assert rerun.stdout == out.read_text()


# -- One emit path: JSON and CSV agree ----------------------------------------------

def _word_str(word):
    return (",".join(map(str, word["shape"])) + ":"
            + ".".join(map(str, word["labels"])))


def _series_rows(data, last):
    # exact entropy alone has no series: one row carries the exact value
    tail = f"{data[last]:.12g}" if last in data else ""
    if "sequence" not in data:
        return [["", "", "", tail]]
    seq, diffs = data["sequence"], data["diffs"]
    return [[str(i + 1), f"{a:.12g}", f"{diffs[i - 1]:.12g}" if i else "", tail]
            for i, a in enumerate(seq)]


def _gap_row(rec):
    mats = rec["family"]["matrices"]
    return [rec["fingerprint"], str(len(rec["family"]["alphabet"])),
            "|".join("".join(str(x) for row in m for x in row) for m in mats),
            *(f"{r:.12g}" for r in rec["radii"]),
            f"{rec['prod_radius']:.12g}", f"{rec['gap']:.12g}"]


# argv -> the CSV rows each JSON result implies
AGREEMENT_RUNS = [
    (["validate", "-f", _g(1)], lambda d: [["status", d["status"], ""]]),
    (["validate", "-f", _g(3)], lambda d: [["status", d["status"], ""]]),
    (["words", "-f", _g(3), "--shape", "1,1", "--limit", "5"],
     lambda d: [[str(i), _word_str(w)] for i, w in enumerate(d["words"])]),
    (["words", "-f", _g(1), "--shape", "3", "--origin", "1"],
     lambda d: [[str(i), _word_str(w)] for i, w in enumerate(d["words"])]),
    (["count-check", "-f", _g(3), "--max-shape", "2,1"],
     lambda d: [[",".join(map(str, r["shape"])), r["enumerated"],
                 r["matrix_count"], str(r["equal"])] for r in d["rows"]]),
    (["entropy", "-f", _g(1), "--p", "1", "--n-max", "8"],
     lambda d: _series_rows(d, "exact")),
    (["entropy", "-f", _g(3), "--p", "1,1", "--n-max", "5", "--mode", "bowen",
      "--log-base", "2"], lambda d: _series_rows(d, "exact")),
    (["entropy", "-f", _g(3), "--p", "2,1", "--mode", "exact"],
     lambda d: _series_rows(d, "exact")),
    (["action-entropy", "-f", _g(3), "--n", "2"],
     lambda d: [[str(d["k"]), str(d["n"]), f"{d['value']:.12g}"]]),
    (["pressure", "-f", _g(1), "--p", "1", "--n-max", "8", "--oracle"],
     lambda d: _series_rows(d, "oracle")),
    (["pressure", "-f", _g(3), "--p", "1,0", "--n-max", "4", "--method",
      "enumerate"], lambda d: _series_rows(d, "oracle")),
    (["lemma-check", "-f", _g(1), "--p", "1", "--max-shape", "1"],
     lambda d: [[_word_str(r["u"]), _word_str(r["w"]), _word_str(s["kappa"]),
                 _word_str(s["lambda"]), str(s["cells"]),
                 str(s["partial_isometry"])]
                for r in d["reports"] for s in r["patterns"]]),
    (["search-gap", "--exhaustive", "--size", "2"],
     lambda d: [_gap_row(r) for r in d["records"]]),
]


@pytest.mark.parametrize("argv, expected_rows", AGREEMENT_RUNS,
                         ids=[" ".join(a[:1] + a[3:]) for a, _ in AGREEMENT_RUNS])
def test_json_and_csv_agree(capsys, argv, expected_rows):
    assert main([*argv, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert main([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    config = {**data.pop("config"), "format": "csv"}
    assert lines[0] == "# config: " + dumps_line(config)
    rows = list(csv.reader(lines[2:]))
    assert rows == expected_rows(data)
