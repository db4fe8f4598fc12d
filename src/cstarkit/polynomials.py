"""Noncommutative *-polynomials with exact Gaussian-rational coefficients.

Terms are (coefficient, word) pairs where a word is a nonempty tuple of
generator symbols; a trailing ``*`` on a symbol means the adjoint of that
generator's image.  Constants are expressed through a distinguished unit
generator, so the zero polynomial is the only one without terms.
Coefficients stay exact Fractions; evaluation reads complex copies from a
monomial table (``compile_polynomials``) compiled on a polynomial's first
evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import PreconditionError
from .operators import dagger

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\*?\Z")


@dataclass(frozen=True)
class GaussianRational:
    """Exact element of Q(i): real and imaginary parts are Fractions."""

    real: Fraction
    imag: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "real", Fraction(self.real))
        object.__setattr__(self, "imag", Fraction(self.imag))

    @classmethod
    def from_value(cls, value) -> "GaussianRational":
        coerced = cls._coerce(value)
        if coerced is None:
            raise PreconditionError(f"cannot coerce {type(value).__name__} to a Gaussian rational")
        return coerced

    @classmethod
    def zero(cls) -> "GaussianRational":
        return cls(Fraction(0), Fraction(0))

    @classmethod
    def one(cls) -> "GaussianRational":
        return cls(Fraction(1), Fraction(0))

    @staticmethod
    def _coerce(other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        other = GaussianRational._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other):
        other = GaussianRational._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.real, -self.imag)

    def __mul__(self, other):
        other = GaussianRational._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    @property
    def is_zero(self) -> bool:
        return self.real == 0 and self.imag == 0

    def one_norm(self) -> Fraction:
        """|re| + |im|: exact rational upper bound for the modulus."""
        return abs(self.real) + abs(self.imag)

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.real != 0:
            parts.append(str(self.real))
        if self.imag != 0:
            if parts:
                sign = "-" if self.imag < 0 else "+"
                parts.append(f"{sign}{abs(self.imag)}i")
            else:
                parts.append(f"{self.imag}i")
        return "".join(parts)


def _check_word(word) -> tuple[str, ...]:
    word = tuple(word)
    if not word:
        raise PreconditionError(
            "constant terms are not allowed; multiply the unit generator instead")
    for symbol in word:
        if not isinstance(symbol, str) or not _SYMBOL_RE.match(symbol):
            raise PreconditionError(f"invalid generator symbol {symbol!r}")
    return word


def star_symbol(symbol: str) -> str:
    return symbol[:-1] if symbol.endswith("*") else symbol + "*"


def base_name(symbol: str) -> str:
    return symbol[:-1] if symbol.endswith("*") else symbol


@dataclass(frozen=True)
class NCPolynomial:
    """Canonical sum of (Gaussian-rational coefficient, word) terms.

    Construction merges duplicate words, drops zero coefficients and sorts
    terms by (length, word), so structural equality is semantic equality.
    """

    terms: tuple

    def __post_init__(self) -> None:
        merged: dict[tuple[str, ...], GaussianRational] = {}
        for coeff, word in self.terms:
            word = _check_word(word)
            coeff = GaussianRational.from_value(coeff)
            merged[word] = merged.get(word, GaussianRational.zero()) + coeff
        canon = tuple(
            (coeff, word)
            for word, coeff in sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0]))
            if not coeff.is_zero
        )
        # the complex copies are compiled lazily, but a coefficient beyond
        # float range raises OverflowError here, where parsers catch it
        for coeff, _ in canon:
            complex(coeff)
        object.__setattr__(self, "terms", canon)

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self) -> frozenset[str]:
        """Base generator names mentioned by any term (stars stripped)."""
        return frozenset(base_name(s) for _, word in self.terms for s in word)

    def adjoint(self) -> "NCPolynomial":
        return NCPolynomial(tuple(
            (coeff.conjugate(), tuple(star_symbol(s) for s in reversed(word)))
            for coeff, word in self.terms
        ))

    def scalar_mul(self, value) -> "NCPolynomial":
        c = GaussianRational.from_value(value)
        return NCPolynomial(tuple((c * coeff, word) for coeff, word in self.terms))

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        return NCPolynomial(self.terms + other.terms)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __neg__(self) -> "NCPolynomial":
        return self.scalar_mul(-1)

    def __mul__(self, other: "NCPolynomial") -> "NCPolynomial":
        return NCPolynomial(tuple(
            (c1 * c2, w1 + w2)
            for c1, w1 in self.terms
            for c2, w2 in other.terms
        ))

    def __rmul__(self, value) -> "NCPolynomial":
        return self.scalar_mul(value)

    @cached_property
    def _compiled(self) -> CompiledPolynomials:
        """The terms as a monomial table, compiled on the first evaluate."""
        return compile_polynomials((self,))

    def evaluate(self, images: Mapping[str, np.ndarray], dim: int) -> np.ndarray:
        """Substitute matrices for symbols (star = conjugate transpose)."""
        return self._compiled.evaluate(images, dim)[0]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(
            f"({coeff}) {' '.join(word)}" for coeff, word in self.terms)


# words multiplied, or polynomials summed, per stacked step; bounds the temporaries
_CHUNK = 16


@dataclass(frozen=True, eq=False)
class CompiledPolynomials:
    """A tuple of polynomials as monomial index tables, evaluated as stacked products.

    Letter k < len(names) is generator names[k] and letter len(names) + k
    its adjoint.  `words` holds the distinct words as one (count, length)
    letter table per length, shortest first; their images are stacked in
    that order, followed by one zero matrix.  Row i of `index` and `coeffs`
    lists polynomial i's terms in canonical order, padded to a common
    length by the zero matrix with coefficient 0.  `widths` holds the
    largest term count in each block of _CHUNK rows; slots past it are
    padding only and are skipped.
    """

    names: tuple[str, ...]
    words: tuple[np.ndarray, ...]
    index: np.ndarray
    coeffs: np.ndarray
    widths: tuple[int, ...]

    def evaluate(self, images: Mapping[str, np.ndarray], dim: int, lead: tuple = ()) -> np.ndarray:
        """(polynomials, *lead, dim, dim) stack of the values at the images.

        Each image is a (*lead, dim, dim) stack, so one call evaluates every
        polynomial at every item of the stack.  Words are left-fold products
        and each value sums its terms one at a time from zero, so every
        matrix equals the term-by-term sum of coefficient times product bit
        for bit, and an item's values do not depend on the rest of its stack.
        """
        n = len(self.names)
        shape = (*lead, dim, dim)
        letters = np.empty((2 * n, *shape), dtype=np.complex128)
        for k, name in enumerate(self.names):
            if name not in images:
                raise PreconditionError(f"no image for generator '{name}'")
            letters[k] = np.asarray(images[name], dtype=np.complex128)
        letters[n:] = dagger(letters[:n])
        count = sum(len(table) for table in self.words)
        words = np.empty((count + 1, *shape), dtype=np.complex128)
        words[count] = 0
        at = 0
        for table in self.words:
            for start in range(0, len(table), _CHUNK):
                rows = table[start:start + _CHUNK]
                product = letters.take(rows[:, 0], axis=0)
                for column in rows.T[1:]:
                    product = product @ letters.take(column, axis=0)
                words[at:at + len(rows)] = product
                at += len(rows)
        out = np.zeros((len(self.index), *shape), dtype=np.complex128)
        # an in-place multiply rounds differently at dim 1, so two buffers
        taken = np.empty((min(_CHUNK, len(out)), *shape), dtype=np.complex128)
        term = np.empty_like(taken)
        # one coefficient per polynomial and slot, broadcast over each value
        spread = (slice(None), slice(None)) + (None,) * len(shape)
        for start, width in zip(range(0, len(out), _CHUNK), self.widths):
            index = self.index[start:start + _CHUNK]
            coeffs = self.coeffs[start:start + _CHUNK][spread]
            part, rows = out[start:start + _CHUNK], len(index)
            for slot in range(width):
                words.take(index[:, slot], axis=0, out=taken[:rows])
                np.multiply(coeffs[:, slot], taken[:rows], out=term[:rows])
                part += term[:rows]
        return out


def compile_polynomials(polys) -> CompiledPolynomials:
    """Compile polynomials into one table of their distinct words."""
    names: dict[str, int] = {}
    for p in polys:
        for _, word in p.terms:
            for symbol in word:
                names.setdefault(base_name(symbol), len(names))
    spelled = [[(coeff, tuple(names[base_name(s)] + len(names) * s.endswith("*") for s in word))
                for coeff, word in p.terms] for p in polys]
    by_length: dict[int, dict[tuple[int, ...], None]] = {}
    for terms in spelled:
        for _, letters in terms:
            by_length.setdefault(len(letters), {})[letters] = None
    position: dict[tuple[int, ...], int] = {}
    words = []
    for length in sorted(by_length):
        table = list(by_length[length])
        position.update((letters, len(position)) for letters in table)
        words.append(np.array(table, dtype=np.intp))
    sizes = [len(terms) for terms in spelled]
    index = np.full((len(polys), max(sizes, default=0)), len(position), dtype=np.intp)
    coeffs = np.zeros(index.shape, dtype=np.complex128)
    for i, terms in enumerate(spelled):
        for slot, (coeff, letters) in enumerate(terms):
            index[i, slot] = position[letters]
            coeffs[i, slot] = complex(coeff)
    widths = tuple(max(sizes[start:start + _CHUNK]) for start in range(0, len(sizes), _CHUNK))
    return CompiledPolynomials(tuple(names), tuple(words), index, coeffs, widths)


def generator(name: str) -> NCPolynomial:
    """The polynomial consisting of the single generator `name`."""
    return NCPolynomial(((GaussianRational.one(), (name,)),))


def lipschitz_bound(p: NCPolynomial, bounds: Mapping[str, Fraction]) -> Fraction:
    """Exact rational Lipschitz constant of p over the generator-bound ball.

    Each term contributes |coeff| * len(word) * B^(len-1) where B is the
    largest generator bound; a telescoping product bound shows a joint
    perturbation of size t moves the term by at most that times t.
    Coefficient moduli use the one-norm |re|+|im|, a rational upper bound.
    """
    if not bounds:
        return Fraction(0)
    big = max(Fraction(b) for b in bounds.values())
    total = Fraction(0)
    for coeff, word in p.terms:
        total += coeff.one_norm() * len(word) * big ** (len(word) - 1)
    return total


def triangle_norm_bound(p: NCPolynomial, bounds: Mapping[str, Fraction]) -> Fraction:
    """Upper bound for |p(rep)| over reps obeying the generator bounds."""
    total = Fraction(0)
    for coeff, word in p.terms:
        prod = Fraction(1)
        for symbol in word:
            name = base_name(symbol)
            if name not in bounds:
                raise PreconditionError(f"no norm bound declared for generator '{name}'")
            prod *= Fraction(bounds[name])
        total += coeff.one_norm() * prod
    return total
