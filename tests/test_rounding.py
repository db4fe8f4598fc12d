"""Tests for rounding near-structures to exact ones under the dyadic moduli."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from cstarkit.errors import HypothesisError
from cstarkit.operators import DEFAULT_TOL, dagger, hermitian_eig, op_norm
from cstarkit.rounding import (ROUNDING_KINDS, PVM_ENTRY_BUDGET, PVM_STAGE_GATE, _repair_povms,
                               _round_partial_isometries, _round_povms,
                               _round_projections, _round_pvms, _round_unitaries,
                               isometry_defect, povm_defect,
                               projection_defect, pvm_defect,
                               round_to_partial_isometry, round_to_povm,
                               round_to_projection, round_to_pvm,
                               round_to_unitary, stability_modulus)
from cstarkit.sampling import (almost_partial_isometry_instance,
                               almost_povm_instance,
                               almost_projection_instance,
                               almost_pvm_instance, almost_unitary_instance,
                               random_povm, random_projection, random_pvm,
                               random_unitary, rng_from_seed)


# --- stability modulus ------------------------------------------------------

@pytest.mark.parametrize("kind, eps, expected", [
    ("unitary", 0.25, Fraction(1, 8)),
    ("unitary", 1.0, Fraction(1, 2)),
    ("projection", 0.5, Fraction(1, 64)),
    ("projection", 1.0, Fraction(1, 16)),
    ("partial_isometry", 1.0, Fraction(1, 2 ** 17)),
    ("partial_isometry", 0.5, Fraction(1, 2 ** 25)),
    ("povm", 1.0, Fraction(1, 64)),
    ("pvm", 0.25, Fraction(1, 1024)),
])
def test_stability_modulus_frozen_values(kind, eps, expected):
    assert stability_modulus(kind, eps) == expected


def test_stability_modulus_is_dyadic_and_inside_bound():
    for kind in ROUNDING_KINDS:
        for eps in (1.0, 0.75, 0.5, 0.3, 0.125, 0.01):
            delta = stability_modulus(kind, eps)
            assert delta > 0
            # exact power of two
            assert delta.numerator == 1
            den = delta.denominator
            assert den & (den - 1) == 0
            e = Fraction(eps)
            if kind == "unitary":
                assert delta <= e / 2
            elif kind == "projection":
                assert delta <= e * e / 16
                assert delta < e * e / 8
            elif kind == "partial_isometry":
                assert delta <= e ** 8 / 2 ** 17
                assert delta < e ** 8 / 2 ** 16
            else:
                assert delta <= e * e / 64


def test_stability_modulus_monotone_in_eps():
    for kind in ROUNDING_KINDS:
        values = [stability_modulus(kind, eps) for eps in (1.0, 0.5, 0.25, 0.125, 0.0625)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_stability_modulus_domain():
    with pytest.raises(ValueError):
        stability_modulus("unitary", 0.0)
    with pytest.raises(ValueError):
        stability_modulus("unitary", 1.5)
    with pytest.raises(ValueError):
        stability_modulus("mystery", 0.5)


# --- unitary ---------------------------------------------------------------

def test_round_to_unitary_scaled_identity():
    a = 1.05 * np.eye(3)
    u, report = round_to_unitary(a, 0.25)
    assert op_norm(u - np.eye(3)) < 1e-12
    assert report.output_distance == pytest.approx(0.05, abs=1e-10)
    assert report.exactness_residual <= 1e-12


def test_round_to_unitary_rejects_at_tight_eps():
    # defect of 1.05*I is about 0.1025, above the eps=0.1 modulus 2^-5
    with pytest.raises(HypothesisError):
        round_to_unitary(1.05 * np.eye(3), 0.1)


def test_round_to_unitary_fixed_point():
    rng = rng_from_seed(30)
    u = random_unitary(rng, 6)
    out, report = round_to_unitary(u, 0.5)
    assert op_norm(out - u) < 1e-12
    assert report.input_defect < 1e-12


def test_round_to_unitary_property():
    rng = rng_from_seed(31)
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        eps = float(rng.choice([0.5, 0.25, 0.125]))
        delta = float(stability_modulus("unitary", eps))
        a, _ = almost_unitary_instance(rng, dim, delta)
        u, report = round_to_unitary(a, eps)
        eye = np.eye(dim)
        assert op_norm(dagger(u) @ u - eye) <= 1e-10
        assert op_norm(u @ dagger(u) - eye) <= 1e-10
        assert report.output_distance < eps


def test_round_to_unitary_eps_domain():
    with pytest.raises(ValueError):
        round_to_unitary(np.eye(2), 1.0)
    with pytest.raises(ValueError):
        round_to_unitary(np.eye(2), 0.0)


# --- projection --------------------------------------------------------------

def test_round_to_projection_diagonal_example():
    a = np.diag([0.03, 0.97])
    p, report = round_to_projection(a, 0.9)
    assert np.allclose(p, np.diag([0.0, 1.0]), atol=1e-12)
    assert report.output_distance == pytest.approx(0.03, abs=1e-10)


def test_round_to_projection_rejects_wider_noise():
    # diag(0.05, 0.95): defect 0.0475 exceeds the eps=0.9 modulus 2^-5
    with pytest.raises(HypothesisError):
        round_to_projection(np.diag([0.05, 0.95]), 0.9)


def test_round_to_projection_norm_gate():
    with pytest.raises(HypothesisError):
        round_to_projection(2.5 * np.eye(2), 0.5)


def test_round_to_projection_fixed_point():
    rng = rng_from_seed(32)
    p = random_projection(rng, 5, rank=2)
    out, report = round_to_projection(p, 0.5)
    assert op_norm(out - p) < 1e-10
    assert report.input_defect < 1e-12


def test_round_to_projection_property():
    rng = rng_from_seed(33)
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        eps = float(rng.choice([0.5, 0.25, 0.125]))
        delta = float(stability_modulus("projection", eps))
        a, _ = almost_projection_instance(rng, dim, delta)
        p, report = round_to_projection(a, eps)
        assert op_norm(p @ p - p) <= 1e-10
        assert op_norm(p - dagger(p)) <= 1e-10
        assert report.output_distance < eps


# --- partial isometry --------------------------------------------------------

def _shift(dim):
    e = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        e[i + 1, i] = 1.0
    return e


def test_round_to_partial_isometry_near_matrix_unit():
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    p1 = np.diag([0.0, 1.0]).astype(complex)
    p2 = np.diag([1.0, 0.0]).astype(complex)
    a = (1.0 - 2.0 ** -27) * e12
    w, report = round_to_partial_isometry(a, p1, p2, 0.5)
    assert op_norm(w - e12) < 1e-7
    assert report.exactness_residual <= 1e-12


def test_round_to_partial_isometry_rejects_larger_defect():
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    p1 = np.diag([0.0, 1.0]).astype(complex)
    p2 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(HypothesisError):
        round_to_partial_isometry(0.999 * e12, p1, p2, 0.5)


def test_round_to_partial_isometry_checks_projections():
    a = np.eye(2)
    good = np.eye(2)
    bad = 0.5 * np.eye(2)
    with pytest.raises(ValueError):
        round_to_partial_isometry(a, bad, good, 0.5)
    with pytest.raises(ValueError):
        round_to_partial_isometry(a, good, bad, 0.5)


def test_round_to_partial_isometry_property():
    rng = rng_from_seed(34)
    for _ in range(40):
        dim = int(rng.integers(2, 8))
        eps = float(rng.choice([0.5, 0.25]))
        delta = float(stability_modulus("partial_isometry", eps))
        a, _, p1, p2 = almost_partial_isometry_instance(rng, dim, delta)
        w, report = round_to_partial_isometry(a, p1, p2, eps)
        assert op_norm(dagger(w) @ w - p1) <= 1e-10
        assert op_norm(w @ dagger(w) - p2) <= 1e-10
        assert report.output_distance < eps


def test_round_to_partial_isometry_fixed_point():
    dim = 5
    rng = rng_from_seed(35)
    u1 = random_unitary(rng, dim)
    u2 = random_unitary(rng, dim)
    v = u2[:, :3] @ dagger(u1[:, :3])
    p1 = u1[:, :3] @ dagger(u1[:, :3])
    p2 = u2[:, :3] @ dagger(u2[:, :3])
    w, report = round_to_partial_isometry(v, p1, p2, 0.5)
    assert op_norm(w - v) < 1e-9
    assert report.input_defect < 1e-12


# --- POVM --------------------------------------------------------------------

def test_povm_defect_zero_on_exact():
    rng = rng_from_seed(36)
    family = random_povm(rng, 4, 3)
    assert povm_defect(family) < 1e-12


def test_povm_defect_measures_sum_error():
    family = [0.6 * np.eye(2), 0.6 * np.eye(2)]
    assert povm_defect(family) == pytest.approx(0.2, abs=1e-12)


def test_povm_defect_measures_negativity():
    family = [np.diag([1.2, 1.0]), np.diag([-0.2, 0.0])]
    assert povm_defect(family) == pytest.approx(0.2, abs=1e-12)


def test_povm_defect_empty_family():
    with pytest.raises(ValueError):
        povm_defect([])


def test_round_to_povm_exact_family_unchanged():
    rng = rng_from_seed(37)
    family = random_povm(rng, 3, 4)
    out, report = round_to_povm(family)
    assert max(op_norm(a - b) for a, b in zip(family, out)) < 1e-9
    assert report.exactness_residual <= 1e-10


def test_round_to_povm_factors_two_spectra(monkeypatch):
    """One stacked eig for the family's positive parts, one for their sum."""
    import cstarkit.rounding as rounding
    calls = []

    def counted(m, tol=rounding.DEFAULT_TOL):
        calls.append(np.shape(m))
        return hermitian_eig(m, tol)

    rng = rng_from_seed(39)
    family, _ = almost_povm_instance(rng, 4, 5, float(stability_modulus("povm", 0.25)))
    monkeypatch.setattr(rounding, "hermitian_eig", counted)
    expected = round_to_povm(family)
    assert calls == [(1, 5, 4, 4), (1, 4, 4)]
    monkeypatch.undo()
    out, report = round_to_povm(family)
    assert report == expected[1]
    assert all(np.array_equal(a, b) for a, b in zip(out, expected[0]))


def _povm_block(rng, lead, k, dim):
    """A (*lead, k, d, d) stack of near-POVM families at mixed distances."""
    block = np.empty(lead + (k, dim, dim), dtype=np.complex128)
    for index in np.ndindex(*lead):
        delta = float(rng.choice([2.0 ** -12, 2.0 ** -6, 2.0 ** -3]))
        family, _ = almost_povm_instance(rng, dim, k, delta)
        block[index] = family
    return block


@pytest.mark.parametrize("lead", [(6,), (3, 2)])
def test_repair_povms_stack_matches_round_to_povm(lead):
    """The stacked repair equals round_to_povm on every family, bit for bit."""
    rng = rng_from_seed(41)
    for dim in range(1, 6):
        for k in (2, 3):
            block = _povm_block(rng, lead, k, dim)
            rounded, refused, defect, low, residual = _repair_povms(block, DEFAULT_TOL)
            assert refused.shape == defect.shape == low.shape == residual.shape == lead
            assert not refused.any()
            for index in np.ndindex(*lead):
                out, report = round_to_povm(list(block[index]))
                assert np.array_equal(np.array(out), rounded[index])
                assert report.input_defect == defect[index] == povm_defect(block[index])
                assert report.exactness_residual == residual[index]


def test_repair_povms_flags_refused_families_without_raising():
    """Far and singular-sum families are flagged; good ones still round exactly."""
    rng = rng_from_seed(42)
    dim, k = 3, 2
    block = _povm_block(rng, (5,), k, dim)
    block[1] = [np.zeros((dim, dim)), 0.4 * np.eye(dim)]  # far: defect 0.6
    block[3] = 0.0  # positive-part sum exactly singular, and far
    with np.errstate(all="raise"):
        rounded, refused, defect, low, residual = _repair_povms(block, DEFAULT_TOL)
    assert refused.tolist() == [False, True, False, True, False]
    assert defect[1] == 0.6 and defect[3] == 1.0
    assert residual[1] == residual[3] == 0.0
    for i in (0, 2, 4):
        out, report = round_to_povm(list(block[i]))
        assert np.array_equal(np.array(out), rounded[i])
        assert report.exactness_residual == residual[i]
    for i in (1, 3):
        with pytest.raises(HypothesisError):
            round_to_povm(list(block[i]))


def test_round_to_povm_singular_sum_refusal(monkeypatch):
    """A singular positive-part sum under defect 1/2 refuses with its eigenvalue."""
    import cstarkit.rounding as rounding
    real = rounding._povm_parts
    monkeypatch.setattr(rounding, "_povm_parts",
                        lambda stack, tol: (real(stack, tol)[0], 0.0 * stack))
    with pytest.raises(HypothesisError, match="singular within tolerance"):
        round_to_povm(random_povm(rng_from_seed(43), 2, 2))


def test_round_to_povm_rejects_far_families():
    with pytest.raises(HypothesisError):
        round_to_povm([np.zeros((2, 2)), 0.4 * np.eye(2)])


def test_round_to_povm_property():
    rng = rng_from_seed(38)
    for _ in range(40):
        dim = int(rng.integers(2, 8))
        k = int(rng.integers(2, 5))
        eps = float(rng.choice([0.5, 0.25, 0.125]))
        delta = float(stability_modulus("povm", eps))
        family, _ = almost_povm_instance(rng, dim, k, delta)
        out, report = round_to_povm(family)
        eye = np.eye(dim)
        assert op_norm(sum(out) - eye) <= 1e-10
        for b in out:
            assert float(np.linalg.eigvalsh(b)[0]) >= -1e-10
        assert max(op_norm(a - b) for a, b in zip(family, out)) < eps


# --- PVM ---------------------------------------------------------------------

def test_round_to_pvm_exact_family_unchanged():
    rng = rng_from_seed(39)
    family = random_pvm(rng, 6, 3)
    out, report = round_to_pvm(family)
    assert max(op_norm(a - b) for a, b in zip(family, out)) < 1e-9
    assert report.exactness_residual <= 1e-10
    # a one-member family has no block pairs to check
    out, report = round_to_pvm([np.eye(4)])
    assert len(out) == 1 and np.array_equal(out[0], np.eye(4))
    assert report.exactness_residual == 0.0 and report.output_distance == 0.0


def test_round_to_pvm_entry_budget():
    assert PVM_ENTRY_BUDGET == Fraction(1, 256)
    drift = 0.01  # above 1/256
    family = [np.diag([1.0 - drift, 0.0]), np.diag([0.0, 1.0])]
    with pytest.raises(HypothesisError):
        round_to_pvm(family)


def test_round_to_pvm_blocks_are_orthogonal():
    rng = rng_from_seed(40)
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(2, 5))
        delta = float(stability_modulus("pvm", 0.25))
        family, _ = almost_pvm_instance(rng, dim, k, delta)
        blocks, report = round_to_pvm(family)
        eye = np.eye(dim)
        assert op_norm(sum(blocks) - eye) <= 1e-10
        for i in range(k):
            assert op_norm(blocks[i] @ blocks[i] - blocks[i]) <= 1e-10
            for j in range(i + 1, k):
                assert op_norm(blocks[i] @ blocks[j]) <= 1e-10
        assert max(op_norm(a - q) for a, q in zip(family, blocks)) < 0.25


def test_round_to_pvm_dimension_mismatch():
    with pytest.raises(ValueError):
        round_to_pvm([np.eye(2), np.zeros((3, 3))])
    with pytest.raises(ValueError):
        round_to_pvm([])


# --- defect functions --------------------------------------------------------

def _norm(m):
    return float(np.linalg.norm(m, 2))


def _cone_distance(m):
    """|m - positive part of its Hermitian part|, the README's POVM surrogate."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return _norm(m - (v * np.maximum(w, 0.0)) @ v.conj().T)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_defects_vanish_on_exact_and_match_readme(dim):
    """Each defect is <= 1e-12 on the exact structure the sampler perturbed,
    and equals the README's "defect measured as" formula on the perturbation."""
    rng = rng_from_seed(50 + dim)
    delta = 1e-3
    eye = np.eye(dim)

    a, u = almost_unitary_instance(rng, dim, delta)
    assert isometry_defect(u, eye, eye) <= 1e-12
    expected = max(_norm(a.conj().T @ a - eye), _norm(a @ a.conj().T - eye))
    assert isometry_defect(a, eye, eye) == pytest.approx(expected, rel=1e-12)
    assert 0 < expected <= delta

    a, p = almost_projection_instance(rng, dim, delta)
    assert projection_defect(p) <= 1e-12
    expected = max(_norm(a - a.conj().T), _norm(a - a @ a))
    assert projection_defect(a) == pytest.approx(expected, rel=1e-12)
    assert 0 < expected <= delta

    a, v, p1, p2 = almost_partial_isometry_instance(rng, dim, delta)
    assert isometry_defect(v, p1, p2) <= 1e-12
    expected = max(_norm(a.conj().T @ a - p1), _norm(a @ a.conj().T - p2))
    assert isometry_defect(a, p1, p2) == pytest.approx(expected, rel=1e-12)
    assert 0 < expected <= delta

    family, base = almost_povm_instance(rng, dim, 3, delta)
    assert povm_defect(base) <= 1e-12
    expected = max(max(_cone_distance(m) for m in family), _norm(sum(family) - eye))
    assert povm_defect(family) == pytest.approx(expected, rel=1e-9)
    assert 0 < expected <= delta

    family, base = almost_pvm_instance(rng, dim, 3, delta)
    assert pvm_defect(base) <= 1e-12
    # a sum-preserving bump as well, so the member defects decide the max
    h = 1e-4 * random_unitary(rng, dim)
    for fam in (family, [base[0] + h, base[1] - h, base[2]]):
        expected = max(_norm(sum(fam) - eye),
                       max(max(_norm(m - m.conj().T), _norm(m - m @ m)) for m in fam))
        assert pvm_defect(fam) == pytest.approx(expected, rel=1e-12)
        assert 0 < expected <= delta


def test_stacked_defects_match_per_matrix_bit_for_bit():
    """A (..., d, d) stack gives each matrix's max(op_norm, op_norm); a matrix gives a float."""
    rng = rng_from_seed(57)
    for dim in range(1, 17):
        stack = (rng.normal(size=(2, 3, dim, dim))
                 + 1j * rng.normal(size=(2, 3, dim, dim))) / dim
        p1, p2 = random_projection(rng, dim), random_projection(rng, dim)
        projection = projection_defect(stack)
        isometry = isometry_defect(stack, p1, p2)
        assert projection.shape == isometry.shape == (2, 3)
        for index in np.ndindex(2, 3):
            a = stack[index]
            expected = max(op_norm(a - a.conj().T), op_norm(a @ a - a))
            assert type(projection_defect(a)) is float
            assert projection_defect(a) == projection[index] == expected
            expected = max(op_norm(a.conj().T @ a - p1), op_norm(a @ a.conj().T - p2))
            assert type(isometry_defect(a, p1, p2)) is float
            assert isometry_defect(a, p1, p2) == isometry[index] == expected


def test_pvm_defect_validates_family():
    with pytest.raises(ValueError):
        pvm_defect([])
    with pytest.raises(ValueError):
        pvm_defect([np.eye(2), np.zeros((3, 3))])


# --- degradation across eps ---------------------------------------------------

def test_rounding_distance_never_worsens_under_looser_eps():
    """The same admissible input rounds to the same output for any valid eps."""
    rng = rng_from_seed(41)
    delta = float(stability_modulus("unitary", 0.125))
    a, _ = almost_unitary_instance(rng, 5, delta)
    u_tight, _ = round_to_unitary(a, 0.125)
    u_loose, _ = round_to_unitary(a, 0.5)
    assert op_norm(u_tight - u_loose) < 1e-12


# --- stacked cores ------------------------------------------------------------

# a spectral tolerance wider than Tolerance admits, so that admissible inputs
# can reach the singular-polar and singular-sum refusals
_WIDE_TOL = SimpleNamespace(spectral=0.9999, algebraic=DEFAULT_TOL.algebraic)
_CORE_EPS = (0.5, 0.25, 0.125)


def _assert_core_matches_wrappers(rounded, calls):
    """Each item of a core's result equals its wrapper call, or its error is what that raises."""
    assert len(rounded.errors) == len(calls)
    for i, call in enumerate(calls):
        error = rounded.errors[i]
        if error is None:
            out, report = call()
            assert np.asarray(out).tobytes() == rounded.out[i].tobytes()
            assert report.input_defect == rounded.defect[i]
            assert report.output_distance == rounded.distance[i]
            assert report.exactness_residual == rounded.residual[i]
        else:
            with pytest.raises(type(error)) as raised:
                call()
            assert type(raised.value) is type(error)
            assert str(raised.value) == str(error)
    return [str(e) for e in rounded.errors if e is not None]


def _mixed_eps(rng, n):
    """Per-item eps, and the moduli of independently drawn eps the items are built at."""
    eps = [float(e) for e in rng.choice(_CORE_EPS, size=n)]
    return eps, [float(e) for e in rng.choice(_CORE_EPS, size=n)]


def test_stacked_unitary_core_matches_per_item_rounding():
    rng = rng_from_seed(70)
    messages = []
    for dim in range(1, 17):
        eps, built_at = _mixed_eps(rng, 6)
        stack = np.array([
            almost_unitary_instance(rng, dim, float(stability_modulus("unitary", e)))[0]
            for e in built_at])
        stack[4] = 1.6 * stack[4]  # too far at every eps
        eps[5] = 1.0  # outside (0, 1)
        for tol in (DEFAULT_TOL, _WIDE_TOL):
            rounded = _round_unitaries(stack, eps, tol)
            messages += _assert_core_matches_wrappers(
                rounded, [lambda i=i: round_to_unitary(stack[i], eps[i], tol) for i in range(6)])
    assert any("not unitary-roundable" in m for m in messages)
    assert any("eps must lie in (0, 1)" in m for m in messages)
    assert any("a^H a is singular" in m for m in messages)
    assert len(messages) < 16 * 6 * 2  # some items are admitted


def test_stacked_projection_core_matches_per_item_rounding():
    rng = rng_from_seed(71)
    messages = []
    for dim in range(1, 17):
        eps, built_at = _mixed_eps(rng, 6)
        stack = np.array([
            almost_projection_instance(rng, dim, float(stability_modulus("projection", e)))[0]
            for e in built_at])
        # |a| > 2, and far; at 1e200 the defect's a @ a would overflow
        stack[3] = (3.0 if dim % 2 else 1e200) * stack[3]
        stack[4] = stack[4] + 0.2 * np.eye(dim)  # too far at every eps
        eps[5] = float("nan")
        rounded = _round_projections(stack, eps, DEFAULT_TOL)
        messages += _assert_core_matches_wrappers(
            rounded, [lambda i=i: round_to_projection(stack[i], eps[i]) for i in range(6)])
    assert any("|a| <= 2" in m for m in messages)
    assert any("not projection-roundable" in m for m in messages)
    assert any("eps must lie in (0, 1)" in m for m in messages)
    assert len(messages) < 16 * 6


def test_stacked_partial_isometry_core_matches_per_item_rounding():
    rng = rng_from_seed(72)
    messages = []
    for dim in range(1, 17):
        eps, built_at = _mixed_eps(rng, 6)
        instances = [almost_partial_isometry_instance(
            rng, dim, float(stability_modulus("partial_isometry", e))) for e in built_at]
        a, _, p1, p2 = (np.array(part) for part in zip(*instances))
        a[2] = a[2] + 0.1 * p2[2] @ p1[2]  # too far at every eps
        p1[3] = 0.5 * p1[3]  # not a projection
        p2[4] = p2[4] + 1e-3 * np.eye(dim)  # not a projection
        p1[5] = 0.5 * p1[5]  # p1 refuses before p2, and before a^H a overflows
        p2[5] = 0.5 * p2[5]
        a[5] = 1e200 * a[5]
        rounded = _round_partial_isometries(a, p1, p2, eps, DEFAULT_TOL)
        messages += _assert_core_matches_wrappers(rounded, [
            lambda i=i: round_to_partial_isometry(a[i], p1[i], p2[i], eps[i]) for i in range(6)])
    assert any("not partial_isometry-roundable" in m for m in messages)
    assert any(m.startswith("p1 is not a projection") for m in messages)
    assert any(m.startswith("p2 is not a projection") for m in messages)
    assert len(messages) < 16 * 6


@pytest.mark.parametrize("k", [2, 3])
def test_stacked_povm_core_matches_per_item_rounding(k):
    rng = rng_from_seed(73 + k)
    messages = []
    for dim in range(1, 17):
        deltas = [float(stability_modulus("povm", e)) for e in rng.choice(_CORE_EPS, size=5)]
        stack = np.array([almost_povm_instance(rng, dim, k, delta)[0] for delta in deltas])
        stack[3] = 2.0 * stack[3]  # too far: the sum defect is 1
        for tol in (DEFAULT_TOL, _WIDE_TOL):
            rounded = _round_povms(stack, tol)
            messages += _assert_core_matches_wrappers(
                rounded, [lambda i=i: round_to_povm(list(stack[i]), tol) for i in range(5)])
    assert any("too far from a POVM" in m for m in messages)
    assert any("positive-part sum is singular" in m for m in messages)
    assert len(messages) < 16 * 5 * 2


@pytest.mark.parametrize("k", [1, 2, 4])
def test_stacked_pvm_core_matches_per_item_rounding(k):
    rng = rng_from_seed(76 + k)
    messages = []
    for dim in range(1, 17):
        deltas = [float(stability_modulus("pvm", e)) for e in rng.choice(_CORE_EPS, size=5)]
        stack = np.array([almost_pvm_instance(rng, dim, k, delta)[0] for delta in deltas])
        stack[2] = stack[2] + 0.01 * np.eye(dim)  # too far from a PVM
        rounded = _round_pvms(stack, DEFAULT_TOL)
        messages += _assert_core_matches_wrappers(
            rounded, [lambda i=i: round_to_pvm(list(stack[i])) for i in range(5)])
    assert any("too far from a PVM" in m for m in messages)
    assert len(messages) < 16 * 5


def _front_padded_families(families):
    """Families of mixed sizes as one stack, each zero-padded in front to the largest."""
    k = max(len(f) for f in families)
    dim = families[0][0].shape[0]
    stack = np.zeros((len(families), k, dim, dim), dtype=np.complex128)
    for item, family in zip(stack, families):
        item[k - len(family):] = family
    return stack, np.array([len(f) for f in families])


@pytest.mark.parametrize("kind", ["povm", "pvm"])
def test_padded_family_cores_match_per_item_rounding(kind, monkeypatch):
    """Zero members in front move no bit: each padded family rounds as it does alone."""
    import cstarkit.rounding as rounding
    builder, wrapper = ((almost_povm_instance, round_to_povm) if kind == "povm"
                        else (almost_pvm_instance, round_to_pvm))
    rng = rng_from_seed(79)
    messages = []
    # a stage gate of -1 makes every real PVM stage drift, so the stage labels show
    for gate in (PVM_STAGE_GATE, -1.0):
        monkeypatch.setattr(rounding, "PVM_STAGE_GATE", gate)
        for dim in (1, 2, 5, 9):
            families = [builder(rng, dim, int(k), float(stability_modulus(kind, 0.25)))[0]
                        for k in rng.integers(1, 5, size=6)]
            families[2] = [2.0 * m for m in families[2]]  # too far
            stack, members = _front_padded_families(families)
            rounded = (_round_povms(stack, DEFAULT_TOL) if kind == "povm"
                       else _round_pvms(stack, DEFAULT_TOL, members))
            trimmed = rounded._replace(out=[out[len(out) - n:]
                                            for out, n in zip(rounded.out, members)])
            messages += _assert_core_matches_wrappers(
                trimmed, [lambda f=f: wrapper(f) for f in families])
    assert any("too far" in m for m in messages)
    if kind == "pvm":
        assert any("(stage: block 0)" in m for m in messages)
