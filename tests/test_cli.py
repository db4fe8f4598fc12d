"""End-to-end tests for the batch runner: exit codes, reports, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cstarkit
from cstarkit.cli import console_main
from cstarkit.formats import sha256_file

DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(argv):
    return console_main([str(a) for a in argv])


def read_records(path):
    with open(path, "r", encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


# --- exit codes -----------------------------------------------------------------

def test_classical_value_exit_zero(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run_cli(["classical-value", "--game", DATA / "chsh.json", "--out", out])
    assert code == 0
    records = read_records(out)
    result = records[1]
    assert result["classical_value"] == "3/4"
    assert result["classical_value_float"] == 0.75


def test_missing_file_exit_two(tmp_path, capsys):
    code = run_cli(["classical-value", "--game", tmp_path / "absent.json"])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_malformed_game_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "k": 2, "pi": [[0.5, 0.5], [0.5, 0.5]], "win": []}')
    code = run_cli(["classical-value", "--game", bad])
    assert code == 2
    assert "sum to 1" in capsys.readouterr().err


def test_unknown_flag_exit_two():
    with pytest.raises(SystemExit) as exc:
        run_cli(["classical-value", "--nonsense"])
    assert exc.value.code == 2


def test_unregistered_presentation_exit_three(capsys):
    code = run_cli(["norm-enumerate", "--pres-id", "cuntz:2", "--poly", "s1"])
    assert code == 3
    assert "precondition error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["semidecide", "--game", DATA / "chsh.json", "--budget", 0],
    ["game-value", "--game", DATA / "chsh.json", "--budget", 0],
    ["semidecide", "--game", DATA / "chsh.json", "--grid-denominator", 3],
    ["game-value", "--game", DATA / "chsh.json", "--grid-denominator", 3],
    ["semidecide", "--game", DATA / "chsh.json", "--tol-algebraic", 1],
    ["game-value", "--game", DATA / "chsh.json", "--tol-algebraic", 1],
    ["seesaw", "--game", DATA / "chsh.json", "--delta", "nan", "--iters", 1],
    ["seesaw", "--game", DATA / "chsh.json", "--delta", -1, "--iters", 1],
    ["seesaw", "--game", DATA / "chsh.json", "--mu", "nan", "--iters", 1],
    ["classical-value", "--game", DATA / "chsh.json", "--seed", -1],
    ["game-value", "--game", DATA / "chsh.json", "--budget", 20, "--seed", -1],
    ["semidecide", "--game", DATA / "chsh.json", "--budget", 20, "--seed", -1],
    ["semidecide", "--game", DATA / "all_win.json", "--seed", -1],
    ["seesaw", "--game", DATA / "chsh.json", "--iters", 1, "--seed", -1],
    ["perturb-suite", "--budget", 1, "--dims", "2", "--seed", -1],
    ["norm-enumerate", "--pres-id", "projections:1", "--poly", "p1", "--budget", 10,
     "--seed", -1],
    ["perturb-suite", "--budget", 40, "--dims", "2..16", "--seed", 3,
     "--tol-algebraic", 1e-15],
])
def test_invalid_parameters_exit_three(tmp_path, capsys, argv):
    code = run_cli(argv + ["--out", tmp_path / "report.jsonl"])
    assert code == 3
    err_lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith("precondition error: ") for line in err_lines)


# Each command with desk-scale defaults (later flags override them) and the
# numeric flags it takes; fuzzed values mix out-of-range, non-numeric and
# valid ones.
_FUZZ_COMMANDS = {
    "classical-value": (["--game", DATA / "chsh.json"], ()),
    "game-value": (["--game", DATA / "chsh.json", "--budget", 20, "--dims", "2,3"],
                   ("--budget", "--delta", "--grid-denominator")),
    "semidecide": (["--game", DATA / "never_win.json", "--budget", 20, "--dims", "2,3"],
                   ("--budget", "--delta", "--grid-denominator")),
    "seesaw": (["--game", DATA / "chsh.json", "--iters", 2],
               ("--delta", "--mu", "--iters", "--dim")),
    "perturb-suite": (["--budget", 2, "--dims", "2,3"], ("--budget",)),
    "norm-enumerate": (["--pres-id", "projections:1", "--poly", "p1", "--budget", 20,
                        "--dims", "1,2"], ("--budget",)),
}
_FUZZ_COMMON = ("--seed", "--tol-algebraic", "--tol-spectral")
_FUZZ_INT = {"--seed": ("1", "3"), "--budget": ("1", "20"), "--iters": ("1", "2"),
             "--dim": ("1", "4"), "--grid-denominator": ("2", "1024")}
_FUZZ_FLOAT = {"--delta": ("0.05", "1"), "--mu": ("3",), "--tol-algebraic": ("1e-12", "1e-6"),
               "--tol-spectral": ("1e-12", "1e-6")}


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    base, own = _FUZZ_COMMANDS[command]
    flags = draw(st.lists(st.sampled_from(own + _FUZZ_COMMON), unique=True, max_size=3))
    argv = [command] + [str(a) for a in base]
    for flag in flags:
        if flag in _FUZZ_INT:
            values = ("-1", "0", "1e-300") + _FUZZ_INT[flag]
        else:
            values = ("-1", "0", "nan", "inf", "-inf", "1e-300") + _FUZZ_FLOAT[flag]
        argv += [flag, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_fuzzed_argv())
def test_fuzzed_numeric_flags_map_to_exit_codes(argv):
    """Every numeric flag value ends in exit 0, 2, 3 or 4, never a traceback."""
    try:
        code = console_main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3, 4), argv


def test_semidecide_budget_exhausted_exit_four(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run_cli(["semidecide", "--game", DATA / "never_win.json",
                    "--budget", 30, "--dims", "2", "--out", out])
    assert code == 4
    records = read_records(out)
    assert records[-1]["status"] == "budget_exhausted"
    assert records[1]["candidates_tried"] == 30


def test_semidecide_accepts_exit_zero(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run_cli(["semidecide", "--game", DATA / "all_win.json",
                    "--budget", 50, "--dims", "2", "--out", out])
    assert code == 0
    records = read_records(out)
    result = records[1]
    assert result["outcome"] == "accepted"
    assert result["candidates_tried"] == 1
    assert result["witness"]["certified_value"] > 0.5


# --- report structure --------------------------------------------------------------

def test_header_fields_and_digest(tmp_path):
    out = tmp_path / "report.jsonl"
    game = DATA / "chsh.json"
    code = run_cli(["classical-value", "--game", game, "--seed", 9, "--out", out])
    assert code == 0
    header = read_records(out)[0]
    assert header["type"] == "header"
    assert header["format_version"] == 1
    assert header["library"] == "cstarkit"
    assert header["library_version"] == cstarkit.__version__
    assert header["command"] == "classical-value"
    assert header["seed"] == 9
    assert "out" not in header["config"]
    assert header["config"]["seed"] == 9
    (entry,) = header["inputs"]
    assert entry["role"] == "game"
    assert entry["sha256"] == sha256_file(str(game))


def test_report_goes_to_stdout_without_out(capsys):
    code = run_cli(["classical-value", "--game", DATA / "chsh.json"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["type"] == "header"
    assert parsed[-1]["type"] == "summary"


def test_human_summary_printed_with_out(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    run_cli(["classical-value", "--game", DATA / "chsh.json", "--out", out])
    stdout = capsys.readouterr().out
    assert "classical value: 3/4" in stdout
    assert str(out) in stdout


# --- commands end to end -----------------------------------------------------------

def test_game_value_finds_classical_floor(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run_cli(["game-value", "--game", DATA / "chsh.json",
                    "--budget", 20, "--dims", "2", "--out", out])
    assert code == 0
    result = read_records(out)[1]
    assert result["candidates_examined"] == 20
    assert result["certified_value"] >= 0.75 - 2.0 ** -7 - 1e-12
    assert result["witness"]["alice"]["n"] == 2


def test_seesaw_report(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run_cli(["seesaw", "--game", DATA / "chsh.json", "--dim", 2,
                    "--iters", 3, "--seed", 1, "--out", out])
    assert code == 0
    result = read_records(out)[1]
    assert result["dim"] == 2
    assert result["iterations"] == 3
    assert len(result["trace"]) == 1 + 3 * 3
    assert result["objective"] == result["trace"][-1]
    trace = result["trace"]
    assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))


def test_perturb_suite_small_run(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run_cli(["perturb-suite", "--budget", 2, "--dims", "2,3",
                    "--out", out])
    assert code == 0
    records = read_records(out)
    trials = [r for r in records if r["type"] == "trial"]
    assert len(trials) == 15  # five kinds, three eps values
    assert all(t["ok"] for t in trials)
    assert all(t["worst_residual"] <= 1e-10 for t in trials)
    assert records[-1]["status"] == "ok"


def test_norm_enumerate_report(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run_cli(["norm-enumerate", "--pres-id", "free_unitaries:1",
                    "--poly", "u1 + u1*", "--budget", 150, "--out", out])
    assert code == 0
    records = read_records(out)
    emissions = [r for r in records if r["type"] == "emission"]
    assert emissions
    assert emissions[0]["value"] == "1/1"
    floats = [e["value_float"] for e in emissions]
    assert all(a < b for a, b in zip(floats, floats[1:]))
    summary = records[-1]
    assert summary["emissions"] == len(emissions)
    assert summary["best_float"] == floats[-1]


def test_norm_enumerate_with_presentation_file(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run_cli(["norm-enumerate", "--pres-id", "free_unitaries:1",
                    "--presentation", DATA / "free_unitary.json",
                    "--poly", "u1", "--budget", 80, "--out", out])
    assert code == 0
    records = read_records(out)
    assert records[0]["inputs"][0]["role"] == "presentation"
    emissions = [r for r in records if r["type"] == "emission"]
    assert all(e["value_float"] <= 1.0 for e in emissions)


def test_norm_enumerate_rejects_stray_poly(capsys):
    code = run_cli(["norm-enumerate", "--pres-id", "free_unitaries:1",
                    "--poly", "zz", "--budget", 10])
    assert code == 2
    assert "unknown generator" in capsys.readouterr().err


# --- determinism ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["classical-value", "--game", DATA / "chsh.json"],
    ["semidecide", "--game", DATA / "all_win.json", "--budget", 40, "--dims", "2",
     "--seed", 3],
    ["game-value", "--game", DATA / "chsh.json", "--budget", 25, "--dims", "2,3",
     "--seed", 5],
    ["perturb-suite", "--budget", 2, "--dims", "2,3", "--seed", 8],
    ["norm-enumerate", "--pres-id", "projections:1", "--poly", "p1",
     "--budget", 120, "--seed", 2],
    ["seesaw", "--game", DATA / "chsh.json", "--dim", 2, "--iters", 2, "--seed", 4],
])
def test_reports_byte_identical(tmp_path, argv):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    code1 = run_cli(argv + ["--out", first])
    code2 = run_cli(argv + ["--out", second])
    assert code1 == code2
    assert first.read_bytes() == second.read_bytes()


def test_different_seeds_differ(tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    base = ["game-value", "--game", DATA / "chsh.json", "--budget", 25,
            "--dims", "2"]
    run_cli(base + ["--seed", 1, "--out", first])
    run_cli(base + ["--seed", 2, "--out", second])
    assert first.read_bytes() != second.read_bytes()


# --- installed entry point ---------------------------------------------------------------

def test_module_invocation_matches_api(tmp_path):
    out = tmp_path / "report.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "cstarkit", "classical-value",
         "--game", str(DATA / "chsh.json"), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    assert read_records(out)[1]["classical_value"] == "3/4"


def test_module_invocation_bad_args_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "cstarkit", "no-such-command"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "RuntimeWarning" not in proc.stderr
