"""End-to-end tests for the batch runner: exit codes, reports, determinism."""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cstarkit
import cstarkit.cli as cli
from cstarkit.cli import RunConfig, _parse_dims, console_main
from cstarkit.errors import HypothesisError, PreconditionError
from cstarkit.formats import parse_polynomial, sha256_file
from cstarkit.presentations import (RepresentationCatalog, norm_lower_enumerate,
                                    registered_presentation)
from cstarkit.rounding import stability_modulus
from cstarkit.sampling import almost_unitary_instance, rng_from_seed

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


@pytest.mark.parametrize("mu, code", [(1e308, 3), (5.6e306, 0)])
def test_seesaw_refuses_a_mu_whose_penalty_overflows(tmp_path, capsys, mu, code):
    """mu times the largest CHSH penalty, 2 n^2 k^2 = 32, must be finite; 1e308 ended in a
    traceback from the report writer."""
    argv = ["seesaw", "--game", DATA / "chsh.json", "--mu", mu, "--delta", 0, "--dim", 3,
            "--iters", 1, "--out", tmp_path / "report.jsonl"]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("precondition error: mu = 1e+308 times the largest possible penalty 32 "
                       "overflows float range\n")


@pytest.mark.parametrize("argv", [
    ["game-value", "--game", DATA / "chsh.json", "--budget", 50, "--dims", "2,20000"],
    ["semidecide", "--game", DATA / "chsh.json", "--budget", 50, "--dims", "65"],
    ["seesaw", "--game", DATA / "chsh.json", "--iters", 1, "--dim", 65],
    ["perturb-suite", "--budget", 1, "--dims", "2..100"],
    ["norm-enumerate", "--pres-id", "free_unitaries:1", "--poly", "u1", "--dims", "30000"],
])
def test_dimension_above_cap_exit_three(capsys, argv):
    """Every dimension flag stops at 64 before anything is drawn."""
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition error: dimension ")
    assert "is above the supported 64" in err


def test_dims_range_past_cap_is_not_built():
    """A range past the cap stops one entry beyond it, which RunConfig rejects."""
    assert _parse_dims("2..100000") == tuple(range(2, 66))
    assert _parse_dims("3,100..100000") == (3, 100)
    assert _parse_dims("60..64") == tuple(range(60, 65))


@pytest.mark.parametrize("field, value", [
    ("dims", (2.7, 3.9)), ("dims", (2, 3.0)), ("dim", 2.5), ("grid_denominator", 1024.5),
    ("grid_denominator", 1024.0), ("seed", 1.0), ("budget", 10.5), ("seed", True),
    ("budget", "10"), ("iters", 2.5)])
def test_run_config_rejects_non_integral_fields(field, value):
    """dims=(2.7, 3.9) used to build as (2, 3); dim, grid_denominator and iters went
    unchecked (iters=2.5 ended seesaw in a TypeError)."""
    with pytest.raises(PreconditionError, match="must be an integer"):
        RunConfig("game-value", **{field: value})


def test_run_config_accepts_numpy_integers(tmp_path):
    """numpy integers are stored as ints, so the report echoes them as a plain config does."""
    game = str(DATA / "chsh.json")
    config = RunConfig("game-value", game=game, seed=np.int64(3), budget=np.int32(10),
                       dims=np.arange(2, 4), dim=np.int16(2), grid_denominator=np.uint16(64),
                       iters=np.int8(7), out=str(tmp_path / "numpy.jsonl"))
    fields = (config.seed, config.budget, *config.dims, config.dim, config.grid_denominator,
              config.iters)
    assert fields == (3, 10, 2, 3, 2, 64, 7) and all(type(v) is int for v in fields)
    plain = RunConfig("game-value", game=game, seed=3, budget=10, dims=(2, 3), dim=2,
                      grid_denominator=64, iters=7, out=str(tmp_path / "plain.jsonl"))
    assert cli.run(config) == cli.run(plain) == 0
    assert (tmp_path / "numpy.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()


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
             "--dim": ("1", "4", "100000"), "--grid-denominator": ("2", "1024")}
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


# --- numbers beyond float range and oversized documents --------------------------------

_NINES = "9" * 400                # an integer far past the float range
_NEAR_MAX = int(1.5e308)          # a float, but twice it is not
_UNITARY_RELATIONS = ["u1* u1 - e", "u1 u1* - e"]


def _presentation_file(tmp_path, bound=1, relations=_UNITARY_RELATIONS):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps({"generators": [{"name": "u1", "bound": bound}],
                                "relations": relations}))
    return path


def _norm_enumerate(poly, *extra):
    return run_cli(["norm-enumerate", "--pres-id", "free_unitaries:1", "--poly", poly,
                    "--budget", 2, *extra])


def test_poly_coefficient_beyond_float_range_exit_two(capsys):
    assert _norm_enumerate(f"{_NINES} u1") == 2
    assert "coefficient beyond float range" in capsys.readouterr().err


def test_relation_coefficient_beyond_float_range_exit_two(tmp_path, capsys):
    pres = _presentation_file(tmp_path, relations=[f"{_NINES} u1* u1 - e"])
    assert _norm_enumerate("u1", "--presentation", pres) == 2
    assert "coefficient beyond float range at relations[0]" in capsys.readouterr().err


def test_bound_beyond_float_range_exit_two(tmp_path, capsys):
    pres = _presentation_file(tmp_path, bound=2 ** 1100)
    assert _norm_enumerate("u1", "--presentation", pres) == 2
    assert "bound beyond float range at generators[0].bound" in capsys.readouterr().err


@pytest.mark.parametrize("pres_id, message", [
    ("free_unitaries:100000000", "asks for 100000000 generators, above the supported 81"),
    ("projections:82", "asks for 82 generators, above the supported 81"),
    ("free_unitaries:" + "9" * 5000, "has no registered stability witness"),
])
def test_oversized_presentation_id_exit_three(pres_id, message, capsys):
    assert run_cli(["norm-enumerate", "--pres-id", pres_id, "--poly", "u1", "--budget", 0]) == 3
    assert message in capsys.readouterr().err


def test_overflowing_poly_value_exit_three(capsys):
    assert _norm_enumerate(f"{_NEAR_MAX} u1 + {_NEAR_MAX} u1*") == 3
    assert "|q| overflows float range" in capsys.readouterr().err


def test_overflowing_relation_value_exit_three(tmp_path, capsys):
    pres = _presentation_file(tmp_path, relations=[f"{_NEAR_MAX} u1 + {_NEAR_MAX} u1*"])
    assert _norm_enumerate("u1", "--presentation", pres) == 3
    assert "a relation overflows float range" in capsys.readouterr().err


def test_norm_near_float_ceiling_is_emitted(tmp_path):
    """|q| = 1e308 is finite, and so is the emitted bound below it."""
    out = tmp_path / "report.jsonl"
    assert _norm_enumerate(f"{int(1e308)} u1", "--out", out) == 0
    emissions = [r for r in read_records(out) if r["type"] == "emission"]
    assert emissions[0]["value_float"] == 1e308


def test_integer_past_digit_limit_or_deep_nesting_exit_two(tmp_path, capsys):
    assert _norm_enumerate(f"{'9' * 5000} u1") == 2
    assert "integer of 5000 digits is too long" in capsys.readouterr().err
    game = tmp_path / "game.json"
    game.write_text('{"n": ' + "9" * 5000 + ', "k": 1, "pi": [[1]], "win": []}')
    assert run_cli(["classical-value", "--game", game]) == 2
    game.write_text("[" * 100_000)
    assert run_cli(["classical-value", "--game", game]) == 2


def test_oversized_game_exit_two(tmp_path, capsys):
    """A 40-byte document must not ask for a 10^6 x 10^6 predicate table."""
    game = tmp_path / "game.json"
    game.write_text('{"n":1,"k":1000000,"pi":[[1]],"win":[]}')
    assert run_cli(["classical-value", "--game", game]) == 2
    assert "at most 2^24 entries at k" in capsys.readouterr().err


# --- fuzzed documents --------------------------------------------------------------------

_HUGE = st.sampled_from([2 ** 1100, -(2 ** 1100), 10 ** 400, _NEAR_MAX])
_ODD_NUMBER = st.one_of(
    _HUGE, st.integers(-2, 5), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/2", "3/8", "1/3", "2/0", "-1", "x", "1e400", _NINES, "1/" + _NINES]))


def _mostly(valid, odd):
    """Draw from `valid` three times in four and from `odd` otherwise."""
    return st.integers(0, 3).flatmap(lambda i: odd if i == 0 else valid)


def _spoil(draw, rows, odd):
    """One time in four, replace one entry of a nonempty nested list by an odd value."""
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(odd)


@st.composite
def _game_document(draw):
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    doc = {"n": draw(_mostly(st.just(n), _ODD_NUMBER)),
           "k": draw(_mostly(st.just(k), _ODD_NUMBER))}
    doc["pi"] = [[f"1/{n * n}"] * n for _ in range(n)]
    _spoil(draw, doc["pi"], _ODD_NUMBER)
    odd_index = st.one_of(st.integers(-1, 4), _HUGE)
    if draw(st.booleans()):
        quad = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                         st.integers(0, k - 1), st.integers(0, k - 1)).map(list)
        doc["win"] = draw(st.lists(quad, max_size=6))
        _spoil(draw, doc["win"], odd_index)
    else:
        flat = draw(st.lists(st.sampled_from([0, 1]), min_size=n * n * k * k,
                             max_size=n * n * k * k))
        rows = [flat[i:i + k] for i in range(0, len(flat), k)]
        _spoil(draw, rows, st.one_of(odd_index, st.just(True)))
        doc["d_table"] = [[[rows[(x * n + y) * k + a] for a in range(k)]
                           for y in range(n)] for x in range(n)]
    if draw(st.integers(0, 7)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif draw(st.integers(0, 7)) == 0:
        # the size cap: a valid document but for k, far past any table numpy can shape
        doc["k"] = draw(st.sampled_from([2 ** 1100, 10 ** 400]))
    return doc


_COEFF = _mostly(st.sampled_from(["", "2 ", "1/2 ", "(1+i) ", "(-i) "]),
                 st.sampled_from([f"{_NEAR_MAX} ", f"{_NINES} ", f"1/{_NINES} ", "1/0 "]))
_WORD = _mostly(st.sampled_from(["u1", "u1*", "e", "u1 u1*", "u1* u1"]),
                st.sampled_from(["v", "zz", "u1 v*", "+"]))


@st.composite
def _presentation_document(draw):
    names = ["u1"] + draw(_mostly(st.just([]), st.lists(st.sampled_from(["v", "e", "u1"]),
                                                         min_size=1, max_size=2)))
    bound = _mostly(st.sampled_from([1, 2, 0, "1/2", "3/8"]), _ODD_NUMBER)
    doc = {"generators": [{"name": name, "bound": draw(bound)} for name in names]}
    doc["relations"] = []
    for _ in range(draw(st.integers(0, 3))):
        relation = draw(st.sampled_from(["", "-"])) + draw(_COEFF) + draw(_WORD)
        for _ in range(draw(st.integers(0, 2))):
            relation += draw(st.sampled_from([" + ", " - "])) + draw(_COEFF) + draw(_WORD)
        doc["relations"].append(relation)
    if draw(st.integers(0, 7)) == 0:
        doc["unit"] = draw(st.sampled_from(["e", "f", "u1", "1x"]))
    return doc


def _run_document(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        path.write_text(json.dumps(doc))
        return console_main([str(a) for a in argv(path)] + ["--out", str(Path(tmp) / "r.jsonl")])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_game_document())
def test_fuzzed_game_documents_map_to_exit_codes(doc):
    """Every game document ends in exit 0, 2, 3 or 4, never a traceback."""
    code = _run_document(doc, lambda path: ["classical-value", "--game", path])
    assert code in (0, 2, 3, 4), doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_presentation_document())
def test_fuzzed_presentation_documents_map_to_exit_codes(doc):
    """Every presentation document ends in exit 0, 2, 3 or 4, never a traceback."""
    code = _run_document(doc, lambda path: [
        "norm-enumerate", "--pres-id", "free_unitaries:1", "--poly", "u1", "--budget", 2,
        "--presentation", path])
    assert code in (0, 2, 3, 4), doc


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


def test_perturb_suite_raises_the_first_refusal_in_instance_order(monkeypatch, capsys):
    """Refusals of instances 3 and 7 of the second eps cell: the run stops on instance 3.

    At seed 11 instance 7 sits in a dimension group that is rounded before
    instance 3's, so the stacked run meets the later refusal first.
    """
    seed, dims = 11, (2, 3, 4)
    # the unitary kind's eps = 0.25 cell, replayed one instance at a time
    rng = rng_from_seed((seed, 0, 1))
    planted = {}
    for index in range(8):
        dim = int(rng.choice(dims))
        rng.integers(2, 5)
        a, _ = almost_unitary_instance(rng, dim, float(stability_modulus("unitary", 0.25)))
        if index in (3, 7):
            planted[index] = a
    real = cli._round_unitaries
    met = []

    def refusing(a, eps, tol):
        rounded = real(a, eps, tol)
        for i, item in enumerate(a):
            for index, target in planted.items():
                if eps[i] == 0.25 and np.array_equal(item, target):
                    rounded.errors[i] = HypothesisError(f"planted refusal of instance {index}")
                    met.append(index)
        return rounded

    monkeypatch.setattr(cli, "_round_unitaries", refusing)
    code = run_cli(["perturb-suite", "--budget", 10, "--dims", "2,3,4", "--seed", seed])
    assert code == 3
    assert capsys.readouterr().err == "precondition error: planted refusal of instance 3\n"
    assert met == [7, 3]


def test_perturb_suite_groups_stay_within_one_block(monkeypatch, tmp_path):
    """--budget 100 rounds in blocks of 32 per eps cell: no group exceeds 3 x 32 instances."""
    sizes = {}
    for name in ("_round_unitaries", "_round_projections", "_round_partial_isometries",
                 "_round_povms", "_round_pvms"):
        def counted(stack, *args, _real=getattr(cli, name), _name=name):
            sizes.setdefault(_name, []).append(len(stack))
            return _real(stack, *args)

        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "report.jsonl"
    assert run_cli(["perturb-suite", "--budget", 100, "--dims", "2", "--out", out]) == 0
    assert len(sizes) == 5
    for counts in sizes.values():
        assert max(counts) <= 3 * 32
        assert sum(counts) == 3 * 100
    # one dimension: each unitary block is a single group of all three cells
    assert sizes["_round_unitaries"] == [96, 96, 96, 12]


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


# sha256 prefixes of `norm-enumerate --budget 70 --seed 3` reports, one per family kind
_NORM_REPORT_PINS = [
    ("trivial", "e", "a69fcf14a966d0bd"),
    ("free_unitaries:2", "u1 + u2*", "9cb76a06263684ee"),
    ("projections:2", "p1 + p2", "8e69a3b268fd02cd"),
    ("matrix_units:2", "e12 + e21", "058ec5282303c026"),
    ("matrix_units:3", "e12 + e21 + e33", "2432080680708743"),
]


@pytest.mark.parametrize("pres_id, poly, prefix", _NORM_REPORT_PINS)
def test_norm_enumerate_reports_pinned(tmp_path, pres_id, poly, prefix):
    """The report keeps its digest, and its emissions are the API stream's."""
    out = tmp_path / "report.jsonl"
    code = run_cli(["norm-enumerate", "--pres-id", pres_id, "--poly", poly,
                    "--budget", 70, "--seed", 3, "--out", out])
    assert code == 0
    assert sha256_file(str(out))[:16] == prefix
    pres = registered_presentation(pres_id).presentation
    q = parse_polynomial(poly, declared=set(pres.names))
    values = norm_lower_enumerate(pres, q, RepresentationCatalog(seed=3), pres_id, 70)
    assert [r["value"] for r in read_records(out) if r["type"] == "emission"] == \
        [f"{v.numerator}/{v.denominator}" for v in values]


def test_perturb_suite_report_pinned(tmp_path):
    """Dimensions up to 64 with several instances per dimension keep their digest."""
    out = tmp_path / "report.jsonl"
    code = run_cli(["perturb-suite", "--dims", "2..64", "--budget", 12, "--seed", 5,
                    "--out", out])
    assert code == 0
    assert sha256_file(str(out))[:16] == "41dc0d0622b106fc"


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
