"""Tests for the dense matrix substrate: norms, spectra, functional calculus."""

import numpy as np
import pytest

from cstarkit.operators import (DEFAULT_TOL, Tolerance, as_operator, commutator,
                                dagger, herm_part, hermitian_eig, op_norm, op_norms,
                                polar_unitary, spectral_apply)
from cstarkit.errors import PreconditionError
from cstarkit.sampling import random_hermitian, random_unitary, rng_from_seed


def test_op_norm_matches_svd():
    rng = rng_from_seed(11)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        expected = float(np.linalg.svd(m, compute_uv=False)[0])
        assert op_norm(m) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("mat, expected", [
    (np.eye(3), 1.0),
    (np.diag([2.0, -5.0, 1.0]), 5.0),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0),
    (np.zeros((2, 2)), 0.0),
])
def test_op_norm_known_values(mat, expected):
    assert op_norm(mat) == pytest.approx(expected, abs=1e-14)


def test_op_norms_matches_op_norm():
    """The stacked norm equals op_norm on every matrix, bit for bit."""
    rng = rng_from_seed(13)
    for dim in range(1, 17):
        for shape in ((int(rng.integers(1, 8)),), (2, 3)):
            full = shape + (dim, dim)
            stack = rng.normal(size=full) + 1j * rng.normal(size=full)
            norms = op_norms(stack)
            assert norms.shape == shape
            for index in np.ndindex(*shape):
                assert norms[index] == op_norm(stack[index])
        empty = op_norms(np.zeros((0, dim, dim)))
        assert empty.shape == (0,)
    for bad in (np.zeros((3, 2, 3)), np.zeros((2, 0, 0)), np.zeros(4)):
        with pytest.raises(ValueError):
            op_norms(bad)
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = np.inf
    with pytest.raises(ValueError):
        op_norms(stack)
    stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError):
        op_norms(stack)


def test_op_norm_submultiplicative_and_triangle():
    rng = rng_from_seed(12)
    for _ in range(30):
        dim = int(rng.integers(1, 7))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-10
        assert op_norm(a + b) <= op_norm(a) + op_norm(b) + 1e-10


def test_as_operator_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.zeros(4))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.nan]]))


def test_dagger_and_herm_part():
    rng = rng_from_seed(13)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(dagger(dagger(a)), a)
    h = herm_part(a)
    assert op_norm(h - dagger(h)) < 1e-14
    assert np.allclose(herm_part(a) + 1j * herm_part(-1j * a), a)


def test_commutator_antisymmetric_and_zero_on_commuting():
    rng = rng_from_seed(14)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    assert np.allclose(commutator(a, b), -commutator(b, a))
    d1 = np.diag([1.0, 2.0, 3.0])
    d2 = np.diag([4.0, 5.0, 6.0])
    assert op_norm(commutator(d1, d2)) == 0.0
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_hermitian_eig_reconstructs():
    rng = rng_from_seed(15)
    for _ in range(40):
        dim = int(rng.integers(1, 10))
        h = random_hermitian(rng, dim, norm=float(rng.uniform(0.1, 5.0)))
        spec = hermitian_eig(h)
        assert op_norm(spec.apply(lambda w: w) - h) < 1e-12
        # ascending eigenvalues, orthonormal eigenvectors
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
        gram = dagger(spec.eigenvectors) @ spec.eigenvectors
        assert op_norm(gram - np.eye(dim)) < 1e-12


def test_hermitian_eig_deterministic_phases():
    rng = rng_from_seed(16)
    h = random_hermitian(rng, 6)
    s1 = hermitian_eig(h)
    s2 = hermitian_eig(h.copy())
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_hermitian_eig_rejects_non_hermitian():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PreconditionError):
        hermitian_eig(a)


def _old_fix_phases(vectors):
    """The per-column phase fix hermitian_eig used before it took stacks."""
    v = vectors.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        mags = np.abs(col)
        significant = np.nonzero(mags > 1e-6 * mags.max())[0]
        lead = col[significant[0]]
        v[:, j] = col * (lead.conjugate() / abs(lead))
    return v


def _lead_abs_disagreements(vectors):
    """Columns whose lead entry has np.abs (array) != abs (scalar)."""
    count = 0
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        mags = np.abs(col)
        lead = col[np.nonzero(mags > 1e-6 * mags.max())[0][0]]
        count += bool(np.abs(np.array([lead]))[0] != abs(lead))
    return count


def _eig_test_stacks(rng, dim):
    shapes = ((int(rng.integers(1, 8)),), (2, 3))
    for shape in shapes:
        full = shape + (dim, dim)
        h = herm_part(rng.normal(size=full) + 1j * rng.normal(size=full))
        yield h
        yield h + 1e-13 * rng.normal(size=full)  # Hermitian only within tolerance
        # dyadic-grid entries, as the candidate search builds them
        grid = rng.integers(-1024, 1025, size=full) + 1j * rng.integers(-1024, 1025, size=full)
        yield herm_part(grid / 1024)
    # projections: eigenvalues 0 and 1, each repeated
    projections = []
    for _ in range(6):
        u = random_unitary(rng, dim)
        keep = np.diag((rng.uniform(size=dim) < 0.5).astype(float))
        projections.append(u @ keep @ dagger(u))
    yield np.array(projections)
    # repeated diagonals: real, complex-typed and with exact zeros
    diags = rng.integers(0, 3, size=(4, dim)).astype(float) / 2
    yield np.array([np.diag(row).astype(complex) for row in diags])


def test_hermitian_eig_stack_matches_per_matrix_loop():
    """One stacked eigh plus the vectorized phase fix equals the old loop, bit for bit."""
    rng = rng_from_seed(21)
    functions = (lambda w: w, lambda w: np.sqrt(np.maximum(w, 0.0)),
                 lambda w: (w >= 0.5).astype(float))
    disagreements = 0
    for dim in range(1, 17):
        for stack in _eig_test_stacks(rng, dim):
            spec = hermitian_eig(stack)
            lead = stack.shape[:-2]
            assert spec.eigenvalues.shape == lead + (dim,)
            assert spec.eigenvectors.shape == stack.shape
            applied = [spec.apply(f) for f in functions]
            for index in np.ndindex(*lead):
                w, v = np.linalg.eigh(herm_part(stack[index]))
                disagreements += _lead_abs_disagreements(v)
                v = _old_fix_phases(v)
                assert np.array_equal(spec.eigenvalues[index], w)
                assert np.array_equal(spec.eigenvectors[index], v)
                for f, out in zip(functions, applied):
                    assert np.array_equal(out[index], (v * f(w)) @ dagger(v))
        empty = hermitian_eig(np.zeros((0, dim, dim)))
        assert empty.eigenvalues.shape == (0, dim)
    # the phase must round as the scalar abs does on these columns too
    assert disagreements > 0


def test_hermitian_eig_stack_validation():
    stack = np.array([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(PreconditionError):
        hermitian_eig(stack)
    with pytest.raises(PreconditionError):
        spectral_apply(stack, np.abs)
    for bad in (np.zeros((3, 2, 3)), np.zeros((2, 0, 0)), np.zeros(4)):
        with pytest.raises(ValueError):
            hermitian_eig(bad)
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 0] = np.inf
    with pytest.raises(ValueError):
        hermitian_eig(stack)
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        hermitian_eig(stack)


def test_spectral_apply_known_function():
    h = np.diag([0.0, 1.0, 4.0]).astype(complex)
    root = spectral_apply(h, np.sqrt)
    assert op_norm(root - np.diag([0.0, 1.0, 2.0])) < 1e-14


def test_spectral_apply_composition():
    """f then g through the calculus agrees with g(f(.)) within 1e-8."""
    rng = rng_from_seed(17)
    for _ in range(25):
        dim = int(rng.integers(2, 8))
        h = random_hermitian(rng, dim, norm=2.0)
        f = lambda t: t * t + 1.0
        g = lambda t: 1.0 / t
        once = spectral_apply(spectral_apply(h, f), g)
        both = spectral_apply(h, lambda t: g(f(t)))
        assert op_norm(once - both) < 1e-8


def test_spectral_apply_step_function_gives_projection():
    """f maps the eigenvalue array; a step at 1/2 cuts out a spectral projection."""
    rng = rng_from_seed(19)
    for dim in (2, 5, 8):
        h = random_hermitian(rng, dim, norm=1.0)
        p = spectral_apply(h, lambda w: (w >= 0.5).astype(float))
        assert op_norm(p @ p - p) < 1e-12
        assert op_norm(p - dagger(p)) < 1e-12
        rank = int(np.sum(np.linalg.eigvalsh(h) >= 0.5))
        assert abs(np.trace(p).real - rank) < 1e-12


def test_spectral_apply_identity_function():
    rng = rng_from_seed(18)
    h = random_hermitian(rng, 5)
    assert op_norm(spectral_apply(h, lambda t: t) - h) < 1e-12


def test_polar_unitary_of_unitary_is_itself():
    rng = rng_from_seed(19)
    u = random_unitary(rng, 5)
    w = polar_unitary(u)
    assert op_norm(w - u) < 1e-12


def test_polar_unitary_is_unitary_and_positive_factor():
    rng = rng_from_seed(20)
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) + 3 * np.eye(dim)
        u = polar_unitary(a)
        eye = np.eye(dim)
        assert op_norm(dagger(u) @ u - eye) < 1e-12
        # the remaining factor u^H a must be positive semidefinite
        h = dagger(u) @ a
        assert op_norm(h - dagger(h)) < 1e-10
        assert float(np.linalg.eigvalsh(herm_part(h))[0]) > -1e-10


def test_polar_unitary_rejects_singular():
    with pytest.raises(PreconditionError):
        polar_unitary(np.zeros((3, 3)))


@pytest.mark.parametrize("field, value", [
    ("spectral", 0.0), ("spectral", 1e-4), ("spectral", -1e-12),
    ("algebraic", 0.0), ("algebraic", 2e-4), ("algebraic", 1e-15),
])
def test_tolerance_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        Tolerance(**{field: value})


def test_tolerance_defaults():
    assert DEFAULT_TOL.spectral == 1e-10
    assert DEFAULT_TOL.algebraic == 1e-10
    assert Tolerance(spectral=1e-6, algebraic=1e-8).spectral == 1e-6
    assert Tolerance(algebraic=1e-12).algebraic == 1e-12
