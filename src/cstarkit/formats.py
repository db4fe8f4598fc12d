"""File formats: game and presentation documents, polynomial strings, reports.

Documents are JSON.  A game document carries the question distribution and
the win predicate; a presentation document carries generators with dyadic
norm bounds and relation polynomials written in a small whitespace-insensitive
grammar.  Reports are line-delimited JSON records serialized canonically
(sorted keys, floats at 17 significant digits), so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .dyadic import is_dyadic
from .errors import ParseError
from .games import NonlocalGame
from .polynomials import GaussianRational, NCPolynomial
from .presentations import Presentation

FORMAT_VERSION = 1

_DOC_KEYS_GAME = {"n", "k", "pi", "win", "d_table", "name", "comment", "description"}
_DOC_KEYS_PRES = {"generators", "relations", "unit", "name", "comment", "description"}


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        raise ParseError(f"{what} document is not valid JSON: {ex.msg}",
                         line=ex.lineno, column=ex.colno) from ex
    except (ValueError, RecursionError) as ex:
        # an integer past the interpreter's digit limit, or nesting past its recursion limit
        raise ParseError(f"{what} document is not readable JSON: {ex}") from ex


def _need(cond: bool, message: str, where: str) -> None:
    if not cond:
        raise ParseError(message, where=where)


def _as_weight(entry, where: str) -> Fraction:
    """A probability entry, exactly: JSON number or rational string "p/q"."""
    if isinstance(entry, bool) or not isinstance(entry, (int, float, str)):
        raise ParseError("probability entries must be numbers or 'p/q' strings", where=where)
    try:
        value = Fraction(entry.strip() if isinstance(entry, str) else entry)
    except (ValueError, OverflowError, ZeroDivisionError) as ex:
        raise ParseError(f"not a rational number: {entry!r}", where=where) from ex
    if not 0 <= value <= 1:
        raise ParseError(f"probability entries must lie in [0, 1], got {entry!r}", where=where)
    return value


def parse_game(text: str) -> NonlocalGame:
    """Parse a game document: fields n, k, pi, and one of win / d_table.

    Questions and answers are 0-indexed.  pi must be an n x n array of
    entries in [0, 1] summing to 1 (within 1e-12); the game keeps them
    exact in pi_exact.  `win` lists the [x, y, a, b] quadruples where the
    predicate is 1, while `d_table` gives the dense n x n x k x k 0/1
    table directly.
    """
    doc = _load_json(text, "game")
    _need(isinstance(doc, dict), "game document must be a JSON object", "$")
    unknown = set(doc) - _DOC_KEYS_GAME
    _need(not unknown, f"unknown game fields: {sorted(unknown)}", "$")
    for field in ("n", "k"):
        _need(field in doc, f"missing required field '{field}'", "$")
        _need(isinstance(doc[field], int) and not isinstance(doc[field], bool)
              and doc[field] >= 1,
              f"'{field}' must be a positive integer", field)
    n, k = doc["n"], doc["k"]
    _need(n * n * k * k <= 2 ** 24, "the dense n x n x k x k predicate table may hold "
          "at most 2^24 entries", "k")

    _need("pi" in doc, "missing required field 'pi'", "$")
    pi_doc = doc["pi"]
    _need(isinstance(pi_doc, list) and len(pi_doc) == n
          and all(isinstance(row, list) and len(row) == n for row in pi_doc),
          f"'pi' must be an {n}x{n} array", "pi")
    pi = [[_as_weight(entry, f"pi[{x}][{y}]") for y, entry in enumerate(row)]
          for x, row in enumerate(pi_doc)]
    total = float(np.array(pi, dtype=float).sum())
    _need(abs(total - 1.0) <= 1e-12,
          f"'pi' must sum to 1 within 1e-12, got {total!r}", "pi")

    has_win, has_table = "win" in doc, "d_table" in doc
    _need(has_win != has_table, "exactly one of 'win' or 'd_table' is required", "$")
    predicate = np.zeros((n, n, k, k), dtype=np.int8)
    if has_win:
        _need(isinstance(doc["win"], list), "'win' must be a list of [x,y,a,b] quadruples", "win")
        for idx, quad in enumerate(doc["win"]):
            where = f"win[{idx}]"
            _need(isinstance(quad, list) and len(quad) == 4
                  and all(isinstance(v, int) and not isinstance(v, bool) for v in quad),
                  "each winning tuple must be four integers [x,y,a,b]", where)
            x, y, a, b = quad
            _need(0 <= x < n and 0 <= y < n, f"question indices out of range in {quad}", where)
            _need(0 <= a < k and 0 <= b < k, f"answer indices out of range in {quad}", where)
            predicate[x, y, a, b] = 1
    else:
        table = doc["d_table"]
        shape_msg = f"'d_table' must be a nested {n}x{n}x{k}x{k} array of 0/1"
        _need(isinstance(table, list) and len(table) == n, shape_msg, "d_table")
        for x in range(n):
            _need(isinstance(table[x], list) and len(table[x]) == n, shape_msg, f"d_table[{x}]")
            for y in range(n):
                _need(isinstance(table[x][y], list) and len(table[x][y]) == k,
                      shape_msg, f"d_table[{x}][{y}]")
                for a in range(k):
                    row = table[x][y][a]
                    _need(isinstance(row, list) and len(row) == k,
                          shape_msg, f"d_table[{x}][{y}][{a}]")
                    for b in range(k):
                        v = row[b]
                        _need(isinstance(v, int) and not isinstance(v, bool) and v in (0, 1),
                              f"predicate entries must be 0 or 1, got {v!r}",
                              f"d_table[{x}][{y}][{a}][{b}]")
                        predicate[x, y, a, b] = v
    return NonlocalGame(pi=pi, predicate=predicate)


def _as_bound(entry, where: str) -> Fraction:
    if isinstance(entry, bool):
        raise ParseError("bounds must be integers or dyadic strings such as '3/8'", where=where)
    if isinstance(entry, int):
        bound = Fraction(entry)
    elif isinstance(entry, str):
        try:
            bound = Fraction(entry.strip())
        except (ValueError, ZeroDivisionError) as ex:
            raise ParseError(f"not a rational bound: {entry!r}", where=where) from ex
    else:
        raise ParseError("bounds must be integers or dyadic strings such as '3/8'", where=where)
    if bound < 0 or not is_dyadic(bound):
        raise ParseError(f"bounds must be nonnegative dyadic rationals, got {entry!r}",
                         where=where)
    if bound > sys.float_info.max:
        raise ParseError("bound beyond float range", where=where)
    return bound


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation document.

    Fields: generators (list of {name, bound}), relations (list of
    polynomial strings), optional unit (generator name, default "e"; added
    with bound 1 when not listed).  Every listed generator must carry a
    bound; relations may mention only declared generators.
    """
    doc = _load_json(text, "presentation")
    _need(isinstance(doc, dict), "presentation document must be a JSON object", "$")
    unknown = set(doc) - _DOC_KEYS_PRES
    _need(not unknown, f"unknown presentation fields: {sorted(unknown)}", "$")
    _need("generators" in doc, "missing required field 'generators'", "$")
    _need(isinstance(doc["generators"], list) and doc["generators"],
          "'generators' must be a nonempty list", "generators")

    unit = doc.get("unit", "e")
    _need(isinstance(unit, str) and unit.isidentifier(),
          f"'unit' must be a generator name, got {unit!r}", "unit")
    gens: list[tuple[str, Fraction]] = []
    names: set[str] = set()
    for idx, item in enumerate(doc["generators"]):
        where = f"generators[{idx}]"
        _need(isinstance(item, dict), "each generator must be an object {name, bound}", where)
        _need("name" in item, "generator is missing 'name'", where)
        _need("bound" in item, f"generator {item.get('name')!r} is missing its norm bound", where)
        extra = set(item) - {"name", "bound"}
        _need(not extra, f"unknown generator fields: {sorted(extra)}", where)
        name = item["name"]
        _need(isinstance(name, str) and name.isidentifier(),
              f"invalid generator name {name!r}", where)
        _need(name not in names, f"duplicate generator name {name!r}", where)
        names.add(name)
        gens.append((name, _as_bound(item["bound"], f"{where}.bound")))
    if unit not in names:
        names.add(unit)
        gens.append((unit, Fraction(1)))

    relations = []
    rel_doc = doc.get("relations", [])
    _need(isinstance(rel_doc, list), "'relations' must be a list of polynomial strings",
          "relations")
    for idx, item in enumerate(rel_doc):
        where = f"relations[{idx}]"
        _need(isinstance(item, str), "each relation must be a polynomial string", where)
        relations.append(parse_polynomial(item, declared=names, where=where))
    return Presentation(tuple(gens), tuple(relations), unit_generator=unit)


# --- polynomial grammar ---------------------------------------------------
#
#   polynomial := [sign] term { sign term }
#   term       := [coefficient] symbol { symbol }
#   symbol     := name ["*"]                       (juxtaposition = product)
#   coefficient:= rational | "(" gaussian ")"
#   gaussian   := [sign] part { sign part }        (one real, one imaginary)
#   part       := rational ["i"] | "i"
#   rational   := integer ["/" integer]
#
# Whitespace separates adjacent names and is otherwise ignored.  Inside a
# parenthesized coefficient the name "i" is the imaginary unit; elsewhere
# "i" is an ordinary generator name.  Constants cannot stand alone: a term
# must contain at least one generator symbol (use the unit generator).

_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<op>[()+\-*/])|(?P<bad>\S)")


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for match in _TOKEN_RE.finditer(line):
            piece = match.group()
            group = match.lastgroup
            if group == "bad":
                raise ParseError(f"unexpected character {piece!r}",
                                 line=lineno, column=match.start() + 1)
            if group == "int" and len(piece) > 4300:  # past int()'s default digit limit
                raise ParseError(f"integer of {len(piece)} digits is too long",
                                 line=lineno, column=match.start() + 1)
            kind = piece if group == "op" else group
            tokens.append(_Token(kind, piece, lineno, match.start() + 1))
    return tokens


class _PolyParser:
    def __init__(self, tokens: list[_Token], declared: set[str] | None, where: str | None):
        self.tokens = tokens
        self.pos = 0
        self.declared = declared
        self.where = where

    def error(self, message: str) -> ParseError:
        tok = self.tokens[self.pos] if self.pos < len(self.tokens) else None
        if tok is None:
            return ParseError(f"{message} (at end of input)", where=self.where)
        return ParseError(message, line=tok.line, column=tok.column)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None or (kind is not None and tok.kind != kind):
            raise self.error(f"expected {kind or 'a token'}")
        self.pos += 1
        return tok

    def parse(self) -> NCPolynomial:
        terms = []
        sign = self.opt_sign(default=1)
        while True:
            coeff, word = self.term()
            terms.append((coeff * sign, word))
            tok = self.peek()
            if tok is None:
                break
            if tok.kind not in "+-":
                raise self.error(f"expected '+' or '-' between terms, got {tok.text!r}")
            sign = 1 if self.take().kind == "+" else -1
        try:
            return NCPolynomial(tuple(terms))
        except OverflowError as ex:
            raise ParseError("coefficient beyond float range", where=self.where) from ex

    def opt_sign(self, default: int) -> int:
        tok = self.peek()
        if tok is not None and tok.kind in "+-":
            self.take()
            return 1 if tok.kind == "+" else -1
        return default

    def term(self) -> tuple[GaussianRational, tuple[str, ...]]:
        tok = self.peek()
        if tok is None:
            raise self.error("expected a term")
        coeff = GaussianRational.one()
        if tok.kind == "int":
            coeff = GaussianRational(self.rational(), Fraction(0))
        elif tok.kind == "(":
            self.take("(")
            coeff = self.gaussian()
            self.take(")")
        word = []
        while (tok := self.peek()) is not None and tok.kind == "name":
            if self.declared is not None and tok.text not in self.declared:
                raise self.error(f"unknown generator {tok.text!r}")
            self.take()
            symbol = tok.text
            if (nxt := self.peek()) is not None and nxt.kind == "*":
                self.take("*")
                symbol += "*"
            word.append(symbol)
        if not word:
            raise self.error(
                "a term needs at least one generator; constants must multiply the unit generator")
        return coeff, tuple(word)

    def rational(self) -> Fraction:
        num = int(self.take("int").text)
        if (tok := self.peek()) is not None and tok.kind == "/":
            self.take("/")
            den_tok = self.take("int")
            den = int(den_tok.text)
            if den == 0:
                self.pos -= 1
                raise self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def gaussian(self) -> GaussianRational:
        total = GaussianRational.zero()
        seen = {"real": False, "imag": False}
        while True:
            sign = self.opt_sign(default=1)
            part = "real"
            if (tok := self.peek()) is not None and tok.kind == "name" and tok.text == "i":
                self.take()
                value = Fraction(sign)
                part = "imag"
            else:
                value = sign * self.rational()
                if (tok := self.peek()) is not None and tok.kind == "name" and tok.text == "i":
                    self.take()
                    part = "imag"
            if seen[part]:
                raise self.error(f"coefficient has two {part} parts")
            seen[part] = True
            total = total + (GaussianRational(Fraction(0), value) if part == "imag"
                             else GaussianRational(value, Fraction(0)))
            tok = self.peek()
            if tok is None or tok.kind == ")":
                return total
            if tok.kind not in "+-":
                raise self.error(f"expected '+', '-' or ')' in coefficient, got {tok.text!r}")


def parse_polynomial(text: str, declared: set[str] | None = None,
                     where: str | None = None) -> NCPolynomial:
    """Parse a *-polynomial string (grammar above).

    `declared` restricts generator names when given; `where` labels the
    enclosing document location in error messages.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", where=where)
    return _PolyParser(tokens, declared, where).parse()


# --- canonical report serialization ---------------------------------------

def canonical_number(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    return format(float(x), ".17g")


def _canon(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if isinstance(value, (float, np.floating)):
        return canonical_number(float(value))
    if isinstance(value, dict):
        keys = list(value)
        if any(not isinstance(k, str) for k in keys):
            raise ValueError("report record keys must be strings")
        inner = ",".join(f"{json.dumps(k)}:{_canon(value[k])}" for k in sorted(keys))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    raise ValueError(f"cannot serialize {type(value).__name__} in a report")


def report_lines(records: Iterable[dict]) -> Iterator[str]:
    """Canonical JSON line per record: sorted keys, floats at 17 digits."""
    for record in records:
        yield _canon(record)


def write_report(path: str, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for line in report_lines(records):
            fh.write(line + "\n")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
