"""Tests for exact noncommutative *-polynomials."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstarkit.errors import PreconditionError
from cstarkit.operators import dagger, op_norm
from cstarkit.polynomials import (GaussianRational, NCPolynomial, compile_polynomials,
                                  generator, lipschitz_bound, triangle_norm_bound)
from cstarkit.sampling import rng_from_seed


def test_gaussian_rational_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    assert a + b == GaussianRational(Fraction(1), Fraction(0))
    assert a.conjugate() == b
    prod = a * b
    assert prod == GaussianRational(Fraction(1, 4) + Fraction(1, 9), Fraction(0))
    assert (-a) + a == GaussianRational.zero()
    assert complex(a) == complex(0.5, 1 / 3)
    assert a.one_norm() == Fraction(1, 2) + Fraction(1, 3)


def test_gaussian_rational_multiplication_i_squared():
    i = GaussianRational(Fraction(0), Fraction(1))
    assert i * i == GaussianRational(Fraction(-1), Fraction(0))


def test_gaussian_rational_coercion():
    assert GaussianRational.from_value(3) == GaussianRational(Fraction(3), Fraction(0))
    with pytest.raises(PreconditionError):
        GaussianRational.from_value(0.5)


def test_canonicalization_merges_and_sorts():
    g = generator("g")
    h = generator("h")
    p = g + h + g  # 2g + h
    assert p == 2 * g + h
    q = NCPolynomial(((1, ("g", "h")), (1, ("g",)), (-1, ("g", "h"))))
    assert q == g
    assert (g - g).is_zero
    assert NCPolynomial.zero().terms == ()


def test_constant_terms_rejected():
    with pytest.raises(PreconditionError):
        NCPolynomial(((1, ()),))


def test_invalid_symbols_rejected():
    with pytest.raises(PreconditionError):
        NCPolynomial(((1, ("2bad",)),))
    with pytest.raises(PreconditionError):
        NCPolynomial(((1, ("g**",)),))


def test_symbols_strips_stars():
    p = NCPolynomial(((1, ("a", "b*")), (1, ("c*",))))
    assert p.symbols() == {"a", "b", "c"}


def test_adjoint_involution():
    g = generator("g")
    h = generator("h")
    p = GaussianRational(Fraction(1), Fraction(2)) * (g * h) + 3 * h.adjoint()
    assert p.adjoint().adjoint() == p


def test_adjoint_reverses_products():
    g = generator("g")
    h = generator("h")
    assert (g * h).adjoint() == h.adjoint() * g.adjoint()


def test_adjoint_conjugates_coefficients():
    g = generator("g")
    i = GaussianRational(Fraction(0), Fraction(1))
    p = i * g
    assert p.adjoint() == GaussianRational(Fraction(0), Fraction(-1)) * g.adjoint()


def test_algebra_relations():
    g = generator("g")
    h = generator("h")
    k = generator("k")
    assert (g + h) * k == g * k + h * k
    assert g * (h + k) == g * h + g * k
    assert (g * h) * k == g * (h * k)
    assert g * h != h * g  # noncommutative by design


def test_evaluate_matches_direct_computation():
    rng = rng_from_seed(70)
    dim = 4
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    images = {"a": a, "b": b}
    p = 2 * (generator("a") * generator("b")) - generator("a").adjoint()
    expected = 2 * (a @ b) - dagger(a)
    assert op_norm(p.evaluate(images, dim) - expected) < 1e-12


def test_evaluate_star_is_adjoint_pointwise():
    rng = rng_from_seed(71)
    dim = 3
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    images = {"a": a}
    p = generator("a") * generator("a").adjoint()
    assert op_norm(p.evaluate(images, dim) - a @ dagger(a)) < 1e-12


def test_evaluate_adjoint_consistency():
    """(p*)(images) equals p(images)^H for a mixed-term polynomial."""
    rng = rng_from_seed(72)
    dim = 3
    images = {"a": rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
              "b": rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))}
    i = GaussianRational(Fraction(0), Fraction(1))
    p = i * (generator("a") * generator("b")) + Fraction(1, 2) * generator("b").adjoint()
    left = p.adjoint().evaluate(images, dim)
    right = dagger(p.evaluate(images, dim))
    assert op_norm(left - right) < 1e-12


def _term_by_term(p, images, dim):
    """p at the images, one left-fold product and one added term at a time."""
    expected = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, word in p.terms:
        acc = None
        for symbol in word:
            img = images[symbol.rstrip("*")]
            img = dagger(img) if symbol.endswith("*") else img
            acc = img if acc is None else acc @ img
        expected += complex(coeff) * acc
    return expected


def test_evaluate_matches_term_by_term_reference():
    """Coefficients converted once and images resolved once give the same bits."""
    rng = rng_from_seed(73)
    dim = 4
    images = {name: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
              for name in ("a", "b")}
    a, b = generator("a"), generator("b")
    i = GaussianRational(Fraction(1, 3), Fraction(-2, 7))
    p = i * (a * b * a.adjoint()) + Fraction(5, 9) * (b * b) - a.adjoint() * a + a
    assert np.array_equal(p.evaluate(images, dim), _term_by_term(p, images, dim))
    assert p == NCPolynomial(p.terms) and hash(p) == hash(NCPolynomial(p.terms))
    assert "complex" not in repr(p)


_LETTERS = ("a", "a*", "b", "b*", "c", "c*")
_FRACTIONS = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def _polynomial(draw):
    """Up to five terms: words of length 1-4 over a, b, c and their stars."""
    words = st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=4)
    coeffs = st.builds(GaussianRational, _FRACTIONS, _FRACTIONS)
    return NCPolynomial(tuple(draw(st.lists(st.tuples(coeffs, words), max_size=5))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys=st.lists(_polynomial(), max_size=4), dim=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16))
def test_compiled_evaluation_is_bit_identical_to_term_by_term(polys, dim, seed):
    """One compiled table for several polynomials, or one per polynomial: the same bits."""
    rng = rng_from_seed(seed)
    images = {name: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
              for name in "abc"}
    stacked = compile_polynomials(polys).evaluate(images, dim)
    assert stacked.shape == (len(polys), dim, dim)
    for p, value in zip(polys, stacked):
        expected = _term_by_term(p, images, dim)
        assert value.tobytes() == expected.tobytes()
        assert p.evaluate(images, dim).tobytes() == expected.tobytes()


def test_evaluate_missing_image():
    p = generator("missing")
    with pytest.raises(PreconditionError):
        p.evaluate({}, 2)


def test_evaluate_zero_polynomial():
    assert op_norm(NCPolynomial.zero().evaluate({}, 3)) == 0.0


def test_lipschitz_bound_exact_values():
    g = generator("g")
    bounds = {"g": Fraction(1), "e": Fraction(1)}
    # g + g*: two length-1 terms, each contributing 1
    assert lipschitz_bound(g + g.adjoint(), bounds) == 2
    # g g: one length-2 term, contributes 2 * 1^1
    assert lipschitz_bound(g * g, bounds) == 2
    # with bound 2 the quadratic term contributes 2 * 2 = 4
    assert lipschitz_bound(g * g, {"g": Fraction(2)}) == 4
    # coefficient scaling
    assert lipschitz_bound(3 * g, bounds) == 3
    assert lipschitz_bound(NCPolynomial.zero(), bounds) == 0


def test_lipschitz_bound_controls_perturbations():
    """Moving every image by t moves the value by at most bound * t."""
    rng = rng_from_seed(73)
    g = generator("g")
    p = g * g + 2 * g.adjoint()
    bounds = {"g": Fraction(2)}
    lip = float(lipschitz_bound(p, bounds))
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        a = rng.normal(size=(dim, dim))
        a = 2 * a / max(op_norm(a), 1.0)
        t = float(rng.uniform(0, 0.01))
        bump = rng.normal(size=(dim, dim))
        bump = t * bump / op_norm(bump)
        before = p.evaluate({"g": a}, dim)
        after = p.evaluate({"g": a + bump}, dim)
        # valid whenever both points stay inside the bound ball
        if op_norm(a + bump) <= 2:
            assert op_norm(after - before) <= lip * t + 1e-10


def test_triangle_norm_bound_exact_values():
    g = generator("g")
    e = generator("e")
    bounds = {"g": Fraction(1), "e": Fraction(1)}
    assert triangle_norm_bound(g + g.adjoint(), bounds) == 2
    assert triangle_norm_bound(g * g - e, bounds) == 2
    assert triangle_norm_bound(Fraction(3, 2) * g, {"g": Fraction(4)}) == 6
    with pytest.raises(PreconditionError):
        triangle_norm_bound(g, {})


def test_triangle_norm_bound_dominates_evaluation():
    rng = rng_from_seed(74)
    g = generator("g")
    p = g * g.adjoint() - 2 * g
    bounds = {"g": Fraction(1)}
    ceiling = float(triangle_norm_bound(p, bounds))
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a / max(op_norm(a), 1.0)
        assert op_norm(p.evaluate({"g": a}, dim)) <= ceiling + 1e-10


def test_str_round_trips_visually():
    g = generator("g")
    p = g * g.adjoint()
    text = str(p)
    assert "g" in text and "g*" in text
    assert str(NCPolynomial.zero()) == "0"
