"""Tests for the dense matrix substrate: norms, spectra, functional calculus."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstarkit import operators
from cstarkit.operators import (DEFAULT_TOL, Tolerance, _fix_phases, _ordered_sum, as_operator,
                                commutator, dagger, herm_part, hermitian_eig, op_norm, op_norms,
                                polar_unitary, spectral_apply)
from cstarkit.errors import HypothesisError, PreconditionError
from cstarkit.games import Measurement
from cstarkit.rounding import PVM_STAGE_GATE, _round_pvms, projection_defect, povm_residual
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


@pytest.mark.parametrize("kind", ["zero", "hermitian", "skew"])
def test_op_norms_equal_numpy_spectral_norm(kind):
    """The first singular value equals np.linalg.norm(m, 2) bit for bit, stacked or not."""
    rng = rng_from_seed(14)
    for dim in range(1, 17):
        g = rng.normal(size=(2, 3, dim, dim)) + 1j * rng.normal(size=(2, 3, dim, dim))
        stack = {"zero": 0.0 * g, "hermitian": g + dagger(g), "skew": g - dagger(g)}[kind]
        norms = op_norms(stack)
        assert norms.tobytes() == np.linalg.norm(stack, 2, axis=(-2, -1)).tobytes()
        for index in np.ndindex(2, 3):
            expected = np.linalg.norm(stack[index], 2)
            assert norms[index].tobytes() == expected.tobytes()
            assert op_norm(stack[index]) == expected
        empty = op_norms(stack[:0, 0])
        assert empty.shape == (0,)
        assert empty.tobytes() == np.linalg.norm(stack[:0, 0], 2, axis=(-2, -1)).tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       lead=st.sampled_from([(), (0,), (1,), (6,), (2, 3)]),
       dim=st.integers(1, 6),
       kind=st.sampled_from(["dense", "sparse", "diagonal", "zero"]),
       near=st.booleans(),
       gate=st.floats(1e-12, 1e3))
def test_gated_op_norms_decide_as_plain_norms(seed, lead, dim, kind, near, gate):
    """With a gate, every comparison with it decides as on the SVD norms.

    Values at or above gate/2 are the SVD norms bit for bit, a gate <= 0
    changes no bit at all, and non-finite input is refused as without one.
    """
    rng = np.random.default_rng(seed)
    shape = lead + (dim, dim)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "sparse":
        stack = np.where(rng.uniform(size=shape) < 0.7, 0.0, stack)
    elif kind == "diagonal":
        stack = stack * np.eye(dim)
    elif kind == "zero":
        stack = 0.0 * stack
    norms = op_norms(stack)
    if near:
        # each norm within 2x of the gate, where the bound is least sure
        scale = gate * rng.uniform(0.25, 2.0, size=lead) / np.where(norms > 0, norms, 1.0)
        stack = stack * np.asarray(scale)[..., None, None]
    plain = op_norms(stack)
    gated = op_norms(stack, gate)
    assert np.shape(gated) == lead
    assert isinstance(gated, np.ndarray) == isinstance(plain, np.ndarray)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        assert np.array_equal(compare(gated, gate), compare(plain, gate))
    kept = np.asarray(gated >= gate / 2)
    assert np.asarray(gated)[kept].tobytes() == np.asarray(plain)[kept].tobytes()
    for off in (0.0, -gate):
        assert np.asarray(op_norms(stack, off)).tobytes() == np.asarray(plain).tobytes()
    if stack.size:
        for bad in (np.nan, np.inf):
            broken = stack.copy()
            broken.flat[int(rng.integers(stack.size))] = bad
            with pytest.raises(ValueError, match="finite"):
                op_norms(broken, gate)


@pytest.mark.parametrize("shape, axis", [((4, 3, 5, 5), -3), ((2, 3, 4, 2, 2), -3),
                                         ((2, 3, 4, 2, 2), 1), ((3, 2, 5), -1),
                                         ((2, 0, 3, 3), -3)])
def test_ordered_sum_matches_the_moveaxis_loop(shape, axis):
    """Indexing along the axis adds the same terms in the same order, bit for bit."""
    rng = rng_from_seed(17)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expected = 0
    for term in np.moveaxis(stack, axis, 0):
        expected = expected + term
    total = _ordered_sum(stack, axis)
    assert np.shape(total) == np.shape(expected)
    assert np.asarray(total).tobytes() == np.asarray(expected).tobytes()


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


def _symmetrized_spectrum(stack):
    """eigh of (m + m^H)/2 per matrix, with the phase fix: what hermitian_eig must give."""
    w, v = np.linalg.eigh(herm_part(stack))
    return w, _fix_phases(v)


def test_hermitian_eig_factors_exact_input_as_is(monkeypatch):
    """Exactly Hermitian stacks skip the symmetrizing and still give the symmetrized spectrum.

    Their diagonals carry imaginary parts -0.0, which (m + m^H)/2 turns into
    +0.0; eigh reads only the real part of a diagonal, so no bit moves.
    """
    rng = rng_from_seed(23)
    symmetrized = []
    monkeypatch.setattr(operators, "herm_part",
                        lambda a: symmetrized.append(a) or herm_part(a))
    for shape in ((1, 1), (4, 1, 1), (2, 2), (3, 5, 5), (2, 3, 16, 16)):
        stack = herm_part(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        dim = shape[-1]
        stack.imag[..., np.arange(dim), np.arange(dim)] = -0.0
        assert np.signbit(stack.imag.diagonal(0, -2, -1)).all()
        assert not (stack - dagger(stack)).any()
        spec = hermitian_eig(stack)
        w, v = _symmetrized_spectrum(stack)
        assert spec.eigenvalues.tobytes() == w.tobytes()
        assert spec.eigenvectors.tobytes() == v.tobytes()
    assert symmetrized == []


def test_hermitian_eig_symmetrizes_inexact_input(monkeypatch):
    """A stack Hermitian only within tolerance is factored as (m + m^H)/2, not as given."""
    rng = rng_from_seed(24)
    symmetrized = []
    monkeypatch.setattr(operators, "herm_part",
                        lambda a: symmetrized.append(a) or herm_part(a))
    for shape in ((1, 1), (2, 2), (3, 5, 5), (2, 3, 16, 16)):
        stack = herm_part(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        stack = stack + 1e-13 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        assert (stack - dagger(stack)).any()
        spec = hermitian_eig(stack)
        w, v = _symmetrized_spectrum(stack)
        assert spec.eigenvalues.tobytes() == w.tobytes()
        assert spec.eigenvectors.tobytes() == v.tobytes()
        # factored as given, a lower triangle reads other numbers (a 1x1 has none)
        assert (np.linalg.eigh(stack)[0].tobytes() != w.tobytes()) == (shape[-1] > 1)
    assert len(symmetrized) == 4
    with pytest.raises(PreconditionError,
                       match=r"^matrix is not Hermitian within tolerance: defect 1\.000000e\+00$"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


# --- gated norm checks at their call sites --------------------------------------
#
# Each site compares a defect with a fixed gate.  A "loose" defect has a
# cheap bound sqrt(|X|_1 |X|_inf) twice its norm, so only its SVD decides
# at 0.6 gate; a "tight" one has the bound equal to its norm, so at 0.6
# gate the bound lies in [gate/2, gate) and the contract still demands
# its SVD.

# 4x4 Sylvester Hadamard / 2: symmetric, unitary, |.|_1 = |.|_inf = 2
_HALF_HADAMARD = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2.0
# a symmetric permutation: norm and both bounds 1
_SWAP = np.kron(np.eye(2), [[0, 1], [1, 0]])


def _svd_inputs(monkeypatch) -> list:
    """Every matrix np.linalg.svd is handed from now on."""
    seen = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.extend(np.reshape(a, (-1,) + np.shape(a)[-2:]))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def _took_svd(seen: list, term: np.ndarray) -> bool:
    return any(np.array_equal(m, term) for m in seen)


@pytest.mark.parametrize("factor", [0.6, 1.5])
@pytest.mark.parametrize("shape", [_HALF_HADAMARD, _SWAP], ids=["loose", "tight"])
def test_hermitian_check_near_its_gate(shape, factor, monkeypatch):
    """A skew defect of 0.6 tol passes, 1.5 tol is refused with its exact norm; both take an SVD."""
    tol = DEFAULT_TOL.algebraic
    m = 0.5j * factor * tol * shape  # m - m^H = 2m, of norm factor * tol
    skew = m - dagger(m)
    seen = _svd_inputs(monkeypatch)
    if factor < 1:
        hermitian_eig(m)
    else:
        with pytest.raises(PreconditionError, match=f"defect {op_norm(skew):.6e}$"):
            hermitian_eig(m)
    assert _took_svd(seen, skew)


@pytest.mark.parametrize("factor", [0.6, 1.5])
@pytest.mark.parametrize("shape", [_HALF_HADAMARD, _SWAP], ids=["loose", "tight"])
def test_measurement_sum_check_near_its_gate(shape, factor, monkeypatch):
    """A POVM row summing 0.6 tol off the identity is a Measurement; 1.5 tol is refused exactly."""
    tol = DEFAULT_TOL.algebraic
    half = np.eye(4) / 2
    ops = np.array([[half + factor * tol * (shape - np.diag(np.diag(shape))), half]],
                   dtype=np.complex128)
    off = ops[0, 0] + ops[0, 1] - np.eye(4)
    seen = _svd_inputs(monkeypatch)
    if factor < 1:
        Measurement(ops)
    else:
        residual = povm_residual(ops[0])
        assert residual > tol
        with pytest.raises(ValueError, match=f"povm_residual {residual:.3e}$"):
            Measurement(ops)
    assert _took_svd(seen, off)


@pytest.mark.parametrize("factor", [0.6, 1.5])
@pytest.mark.parametrize("shape", [_HALF_HADAMARD, np.diag([1.0, -1.0, 1.0, -1.0])],
                         ids=["loose", "tight"])
def test_pvm_stage_gate_near_its_gate(shape, factor, monkeypatch):
    """A first block 0.6 of the stage gate off a projection passes; 1.5 is refused exactly.

    The block is q + s with q = (1 + shape) / 2 a projection, so that
    block^2 - block = s shape + s^2, of norm s + s^2.
    """
    target = factor * PVM_STAGE_GATE
    s = (np.sqrt(1 + 4 * target) - 1) / 2
    block = (np.eye(4) + shape) / 2 + s * np.eye(4)
    stack = np.array([[block, np.eye(4) - block]], dtype=np.complex128)
    term = stack[0, 0] @ stack[0, 0] - stack[0, 0]
    seen = _svd_inputs(monkeypatch)
    # a supplied entry defect of 0 lets the family past the entry gate to the stage gate
    error = _round_pvms(stack, DEFAULT_TOL, np.zeros(1)).errors[0]
    exact = float(projection_defect(stack[:, 0])[0])
    assert exact == pytest.approx(target, rel=1e-12)
    if factor < 1:
        assert error is None
    else:
        assert isinstance(error, HypothesisError) and "drifted" in str(error)
        assert error.defect == exact and error.stage == "block 0"
    assert _took_svd(seen, term)
