"""Tests for game/presentation documents, the polynomial grammar, and reports."""

import json
import math
import os
import stat
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cstarkit.dyadic import ceil_log2, floor_log2, largest_pow2_leq
from cstarkit.errors import ParseError
from cstarkit.formats import (canonical_number, parse_game, parse_polynomial,
                              parse_presentation, report_lines, sha256_file,
                              write_report)
from cstarkit.polynomials import GaussianRational, generator
from cstarkit.search import classical_value

CHSH_DOC = """
{
  "name": "chsh",
  "n": 2, "k": 2,
  "pi": [["1/4", "1/4"], ["1/4", "1/4"]],
  "win": [[0,0,0,0],[0,0,1,1],[0,1,0,0],[0,1,1,1],
          [1,0,0,0],[1,0,1,1],[1,1,0,1],[1,1,1,0]]
}
"""


# --- game documents ---------------------------------------------------------------

def test_parse_game_chsh():
    game = parse_game(CHSH_DOC)
    assert game.n == 2 and game.k == 2
    assert np.allclose(game.pi, 0.25)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    assert game.predicate[x, y, a, b] == (1 if (a ^ b) == (x & y) else 0)
    assert classical_value(game) == Fraction(3, 4)


def test_parse_game_d_table():
    doc = {
        "n": 1, "k": 2,
        "pi": [[1]],
        "d_table": [[[[0, 1], [1, 0]]]],
    }
    game = parse_game(json.dumps(doc))
    assert game.predicate[0, 0, 0, 1] == 1
    assert game.predicate[0, 0, 0, 0] == 0


def test_parse_game_pi_number_entries():
    doc = {"n": 2, "k": 2,
           "pi": [[0.5, 0.25], [0.125, 0.125]],
           "win": []}
    game = parse_game(json.dumps(doc))
    assert game.pi[0, 0] == 0.5


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(pi=[[0.5, 0.25], [0.12, 0.125]]), "sum to 1"),
    (lambda d: d.update(pi=[[1.0]]), "2x2"),
    (lambda d: d.update(n=0), "positive integer"),
    (lambda d: d.update(extra=1), "unknown game fields"),
    (lambda d: d.pop("pi"), "missing required field 'pi'"),
    (lambda d: d.pop("win"), "exactly one of"),
    (lambda d: d.update(d_table=[]), "exactly one of"),
    (lambda d: d.update(win=[[0, 0, 0]]), "four integers"),
    (lambda d: d.update(win=[[0, 0, 0, 5]]), "answer indices"),
    (lambda d: d.update(win=[[2, 0, 0, 0]]), "question indices"),
    (lambda d: d.update(pi=[[True, 0.25], [0.25, 0.25]]), "numbers or 'p/q'"),
    (lambda d: d.update(pi=[["1e400", 0.25], [0.25, 0.25]]), r"lie in \[0, 1\]"),
    (lambda d: d.update(pi=[["abc", 0.25], [0.25, 0.25]]), "not a rational number: 'abc'"),
    (lambda d: d.update(pi=[["1/0", 0.25], [0.25, 0.25]]), "not a rational number: '1/0'"),
])
def test_parse_game_errors(mutate, fragment):
    doc = {"n": 2, "k": 2,
           "pi": [[0.25, 0.25], [0.25, 0.25]],
           "win": [[0, 0, 0, 0]]}
    mutate(doc)
    with pytest.raises(ParseError, match=fragment):
        parse_game(json.dumps(doc))


def test_parse_game_bad_json_carries_location():
    with pytest.raises(ParseError) as err:
        parse_game("{\n  \"n\": 2,\n}")
    assert err.value.line == 3


def test_parse_game_d_table_rejects_booleans():
    doc = {"n": 1, "k": 2, "pi": [[1]],
           "d_table": [[[[0, True], [1, 0]]]]}
    with pytest.raises(ParseError, match="0 or 1"):
        parse_game(json.dumps(doc))


# --- presentation documents ----------------------------------------------------------

def test_parse_presentation_single_unitary():
    doc = {
        "generators": [{"name": "u1", "bound": 1}],
        "relations": ["u1* u1 - e", "u1 u1* - e"],
    }
    pres = parse_presentation(json.dumps(doc))
    assert pres.names == ("u1", "e")  # unit auto-added with bound 1
    assert pres.bounds["e"] == 1
    assert len(pres.relations) == 2


def test_parse_presentation_dyadic_bound_strings():
    doc = {"generators": [{"name": "g", "bound": "3/4"}], "relations": []}
    pres = parse_presentation(json.dumps(doc))
    assert pres.bounds["g"] == Fraction(3, 4)


@pytest.mark.parametrize("doc, fragment", [
    ({"generators": []}, "nonempty"),
    ({"generators": [{"name": "g"}]}, "missing its norm bound"),
    ({"generators": [{"name": "g", "bound": "1/3"}]}, "dyadic"),
    ({"generators": [{"name": "g", "bound": -1}]}, "dyadic"),
    ({"generators": [{"name": "2g", "bound": 1}]}, "invalid generator name"),
    ({"generators": [{"name": "g", "bound": 1}, {"name": "g", "bound": 1}]},
     "duplicate"),
    ({"generators": [{"name": "g", "bound": 1, "color": "red"}]}, "unknown generator fields"),
    ({"generators": [{"name": "g", "bound": 1}], "relations": ["h"]}, "unknown generator"),
    ({"generators": [{"name": "g", "bound": 1}], "spurious": 1}, "unknown presentation fields"),
    ({"generators": [{"name": "g", "bound": True}]}, "integers or dyadic"),
    ({"generators": [{"name": "g", "bound": "1/2^0"}]}, "not a rational bound"),
])
def test_parse_presentation_errors(doc, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_presentation(json.dumps(doc))


def test_parse_presentation_float_bound_message_names_accepted_syntax():
    doc = {"generators": [{"name": "g", "bound": 0.5}]}
    with pytest.raises(ParseError, match="integers or dyadic strings such as '3/8'") as info:
        parse_presentation(json.dumps(doc))
    assert "2^k" not in str(info.value)


def test_parse_presentation_relations_must_be_strings():
    doc = {"generators": [{"name": "g", "bound": 1}], "relations": [17]}
    with pytest.raises(ParseError, match="polynomial string"):
        parse_presentation(json.dumps(doc))


# --- polynomial grammar -----------------------------------------------------------------

def test_polynomial_basic_forms():
    p = parse_polynomial("u1* u1 - e")
    u = generator("u1")
    assert p == u.adjoint() * u - generator("e")
    assert parse_polynomial("2 g") == 2 * generator("g")
    assert parse_polynomial("- g") == -generator("g")
    assert parse_polynomial("g + g") == 2 * generator("g")
    assert parse_polynomial("1/2 g h") == Fraction(1, 2) * (generator("g") * generator("h"))


def test_polynomial_gaussian_coefficients():
    p = parse_polynomial("(1/2 + 1/2 i) g")
    coeff = p.terms[0][0]
    assert coeff == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    q = parse_polynomial("(-i) g")
    assert q.terms[0][0] == GaussianRational(Fraction(0), Fraction(-1))
    r = parse_polynomial("(2i - 1) g")
    assert r.terms[0][0] == GaussianRational(Fraction(-1), Fraction(2))


def test_polynomial_bare_i_is_a_generator():
    """Outside parentheses, i is an ordinary generator name."""
    p = parse_polynomial("i")
    assert p == generator("i")
    assert p.symbols() == {"i"}


def test_polynomial_star_binding():
    p = parse_polynomial("g* h*")
    assert p.terms[0][1] == ("g*", "h*")


def test_polynomial_whitespace_insensitive():
    assert parse_polynomial("g*g - e") == parse_polynomial("g* g-e")
    # but adjacent names need separation
    assert parse_polynomial("gh") == generator("gh")


def test_polynomial_declared_names_enforced():
    parse_polynomial("g h", declared={"g", "h"})
    with pytest.raises(ParseError, match="unknown generator 'z'"):
        parse_polynomial("g z", declared={"g"})


@pytest.mark.parametrize("text, fragment", [
    ("", "empty polynomial"),
    ("2", "at least one generator"),
    ("g + ", "expected a term"),
    ("g @ h", "unexpected character"),
    ("1/0 g", "zero denominator"),
    ("(1 + 2) g", "two real parts"),
    ("(1 i + 2 i) g", "two imag parts"),
    ("(1 ; 2) g", "expected"),
    ("g g쇼", "unexpected character"),
    ("u1 ( u2", "expected '\\+' or '-' between terms, got '\\('"),
    ("(1 2) u1", "expected '\\+', '-' or '\\)' in coefficient, got '2'"),
    ("1/ u1", "expected int"),
])
def test_polynomial_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_polynomial(text)


def test_polynomial_error_locations():
    with pytest.raises(ParseError) as err:
        parse_polynomial("g +\n z @", declared={"g", "z"})
    assert err.value.line == 2
    assert err.value.column == 4
    with pytest.raises(ParseError) as err:
        parse_polynomial("g w", declared={"g"})
    assert err.value.line == 1
    assert err.value.column == 3


def test_polynomial_evaluates_like_handwritten():
    rng = np.random.default_rng(95)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p = parse_polynomial("(1/2 + 1/2 i) g1 g2*")
    images = {"g1": a, "g2": b}
    expected = complex(0.5, 0.5) * (a @ b.conj().T)
    assert np.allclose(p.evaluate(images, 2), expected, atol=1e-12)


# --- canonical reports ----------------------------------------------------------------------

def test_canonical_number_17_digits():
    assert canonical_number(0.1) == "0.10000000000000001"
    assert canonical_number(1.0) == "1"
    assert float(canonical_number(math.pi)) == math.pi
    with pytest.raises(ValueError):
        canonical_number(float("nan"))
    with pytest.raises(ValueError):
        canonical_number(float("inf"))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_number_round_trips_any_float(x):
    assert float(canonical_number(x)) == x


@given(st.fractions(min_value=Fraction(1, 10 ** 12), max_value=Fraction(10 ** 12)))
def test_largest_pow2_leq_brackets(q):
    p = largest_pow2_leq(q)
    assert p <= q < 2 * p
    assert p.numerator == 1 or p.denominator == 1
    assert (p.numerator & (p.numerator - 1)) == 0
    assert (p.denominator & (p.denominator - 1)) == 0


def _is_pow2(q):
    """q is 2^e for an integer e: in lowest terms, one side is 1 and the other a power of two."""
    n, d = q.numerator, q.denominator
    return (n == 1 or d == 1) and n & (n - 1) == 0 and d & (d - 1) == 0


_EXPONENTS = st.integers(min_value=-3000, max_value=3000)
# positive rationals: desk-scale, huge and tiny ones, exact powers of two and their neighbours
_POSITIVE_FRACTIONS = st.one_of(
    st.fractions(min_value=Fraction(1, 10 ** 12), max_value=Fraction(10 ** 12)),
    st.builds(Fraction, st.integers(1, 2 ** 3000), st.integers(1, 2 ** 3000)),
    _EXPONENTS.map(lambda e: Fraction(2) ** e),
    st.builds(lambda e, s: Fraction(2) ** e * (1 + Fraction(s, 2 ** 64)), _EXPONENTS,
              st.sampled_from((-1, 1))),
)


@given(_POSITIVE_FRACTIONS)
def test_floor_log2_is_the_exponent_rule_of_both_power_helpers(x):
    f = floor_log2(x)
    assert Fraction(2) ** f <= x < Fraction(2) ** (f + 1)
    assert ceil_log2(x) == (f if _is_pow2(x) else f + 1)
    assert largest_pow2_leq(x) == Fraction(2) ** f


@given(st.one_of(st.just(Fraction(0)), st.fractions(max_value=0),
                 _EXPONENTS.map(lambda e: -Fraction(2) ** e)))
def test_exponent_rules_refuse_nonpositive_values(x):
    for rule in (floor_log2, ceil_log2, largest_pow2_leq):
        with pytest.raises(ValueError, match="expected a positive value"):
            rule(x)


def test_report_lines_sorted_and_typed():
    records = [{"b": 1, "a": 0.5, "flag": True, "frac": Fraction(3, 4),
                "items": [1, 2], "text": "x", "none": None}]
    line = next(iter(report_lines(records)))
    assert line == ('{"a":0.5,"b":1,"flag":true,"frac":"3/4",'
                    '"items":[1,2],"none":null,"text":"x"}')


def test_report_lines_nested_dicts():
    line = next(iter(report_lines([{"outer": {"z": 1, "a": [{"k": 2.5}]}}])))
    assert line == '{"outer":{"a":[{"k":2.5}],"z":1}}'


def test_report_rejects_unknown_types():
    with pytest.raises(ValueError):
        list(report_lines([{"bad": object()}]))
    with pytest.raises(ValueError):
        list(report_lines([{1: "non-string key"}]))


def test_write_report_byte_stable(tmp_path):
    records = [{"value": 1 / 3, "n": 7}, {"done": True}]
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_report(str(p1), records)
    write_report(str(p2), records)
    assert p1.read_bytes() == p2.read_bytes()
    assert sha256_file(str(p1)) == sha256_file(str(p2))
    assert p1.read_bytes().endswith(b"\n")


def test_write_report_follows_links_and_keeps_the_plain_write_mode(tmp_path):
    """A link keeps pointing at the report, and a new report's mode is the umask's."""
    real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
    link.symlink_to(real)
    write_report(str(link), [{"n": 1}])
    assert link.is_symlink() and real.read_bytes() == b'{"n":1}\n'
    umask = os.umask(0o022)
    os.umask(umask)
    assert stat.S_IMODE(real.stat().st_mode) == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]


def test_write_report_writes_a_pipe_in_place(tmp_path):
    """A pipe (like /dev/null, not a regular file) is written to, never replaced."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_report(str(pipe), [{"n": 1}])
        assert os.read(reader, 64) == b'{"n":1}\n'
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(pipe.stat().st_mode) and list(tmp_path.iterdir()) == [pipe]


def test_numpy_scalars_serialize():
    line = next(iter(report_lines([{"f": np.float64(0.25), "i": np.int64(3)}])))
    assert line == '{"f":0.25,"i":3}'
