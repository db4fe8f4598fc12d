"""Tests for presentations, stability witnesses, and norm lower enumeration."""

import hashlib
import itertools
import math
import sys
import zlib
from fractions import Fraction

import numpy as np
import pytest

import cstarkit.presentations as presentations
from cstarkit.dyadic import ceil_log2
from cstarkit.errors import (HypothesisError, PreconditionError,
                             UnsupportedPresentationError)
from cstarkit.operators import dagger, op_norm
from cstarkit.polynomials import (CompiledPolynomials, NCPolynomial, compile_polynomials,
                                  generator, lipschitz_bound)
from cstarkit.presentations import (Presentation, Representation,
                                    RepresentationCatalog,
                                    StabilityModulusTable, combine_moduli,
                                    cuntz, eval_poly, free_unitaries,
                                    matrix_units, norm_lower_enumerate,
                                    projections_presentation,
                                    registered_presentation, relation_defect,
                                    stability_witness, toeplitz,
                                    trivial_presentation)
from cstarkit.presentations import (_below, _Block, _defects, _exact_matrix_unit_images,
                                    _q_norms, _screen, _subseed)
from cstarkit.sampling import (random_projection, random_unitary,
                               rng_from_seed)

REGISTERED_IDS = ("trivial", "free_unitaries:1", "free_unitaries:2",
                  "projections:1", "projections:3", "matrix_units:2",
                  "matrix_units:3")


def single_contraction():
    """One generator of norm at most 1 and no relations."""
    return Presentation((("e", 1), ("g", 1)), ())


def noisy_rep(images, rng, scale, dim):
    noisy = {name: img + rng.uniform(-scale, scale, (dim, dim))
             + 1j * rng.uniform(-scale, scale, (dim, dim))
             for name, img in images.items()}
    return Representation(dim, noisy)


# --- presentation construction ---------------------------------------------------

def test_presentation_validation():
    with pytest.raises(PreconditionError):
        Presentation((("e", 1), ("e", 1)), ())  # duplicate
    with pytest.raises(PreconditionError):
        Presentation((("e", 1), ("2bad", 1)), ())  # not an identifier
    with pytest.raises(PreconditionError):
        Presentation((("e", 1), ("g", Fraction(1, 3))), ())  # non-dyadic bound
    with pytest.raises(PreconditionError):
        Presentation((("e", 1), ("g", -1)), ())  # negative bound
    with pytest.raises(PreconditionError):
        Presentation((("g", 1),), ())  # unit generator missing
    with pytest.raises(PreconditionError):
        Presentation((("e", 1),), (generator("h"),))  # undeclared in relation


def test_presentation_accessors():
    pres = free_unitaries(2)
    assert pres.names == ("e", "u1", "u2")
    assert pres.bounds == {"e": 1, "u1": 1, "u2": 1}
    assert len(pres.relations) == 4


def test_builders_have_expected_relation_counts():
    assert len(trivial_presentation().relations) == 0
    assert len(projections_presentation(3).relations) == 6
    # matrix_units(k): 1 sum relation + k^2 adjoints + k^4 products
    assert len(matrix_units(2).relations) == 1 + 4 + 16
    assert len(cuntz(2).relations) == 3
    assert len(toeplitz().relations) == 1
    with pytest.raises(PreconditionError):
        matrix_units(0)
    with pytest.raises(PreconditionError):
        matrix_units(10)
    with pytest.raises(PreconditionError):
        cuntz(1)
    # sizes go through errors.integral: no TypeError for a float, no bool taken as 1
    builders = (free_unitaries, projections_presentation, matrix_units, cuntz)
    for builder, bad in itertools.product(builders, (2.5, 2.0, True)):
        with pytest.raises(PreconditionError, match="must be an integer"):
            builder(bad)
    assert len(cuntz(np.int64(2)).relations) == len(cuntz(2).relations)


def test_representation_unit_handling():
    rep = Representation(2, {"g": np.zeros((2, 2))})
    assert np.array_equal(rep.images["e"], np.eye(2))
    with pytest.raises(PreconditionError):
        Representation(2, {"e": np.zeros((2, 2))})
    with pytest.raises(PreconditionError):
        Representation(2, {"g": np.zeros((3, 3))})
    with pytest.raises(PreconditionError):
        Representation(0, {})
    for bad in (2.0, True):
        with pytest.raises(PreconditionError, match="dim must be an integer"):
            Representation(bad, {})
    rep = Representation(np.int64(2), {})
    assert type(rep.dim) is int and np.array_equal(rep.images["e"], np.eye(2))


def test_representation_images_read_only():
    rep = Representation(2, {"g": np.eye(2)})
    with pytest.raises(ValueError):
        rep.images["g"][0, 0] = 5.0
    with pytest.raises(TypeError):
        rep.images["g"] = np.zeros((2, 2))


# --- eval_poly and relation_defect --------------------------------------------------

def test_eval_poly_linearity_and_adjoint():
    rng = rng_from_seed(80)
    dim = 3
    rep = Representation(dim, {
        "a": rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
        "b": rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
    })
    p1 = generator("a") * generator("b")
    p2 = 2 * generator("b").adjoint()
    left = eval_poly(p1 + p2, rep)
    right = eval_poly(p1, rep) + eval_poly(p2, rep)
    assert op_norm(left - right) < 1e-12
    assert op_norm(eval_poly(p1.adjoint(), rep) - dagger(eval_poly(p1, rep))) < 1e-12


def test_relation_defect_zero_on_exact_matrix_units():
    pres = matrix_units(2)
    rep = Representation(2, _exact_matrix_unit_images(2, 2))
    assert relation_defect(pres, rep) < 1e-12


def test_relation_defect_eta_perturbation():
    """Perturbing e11 by eta E11 moves the defect by at most 5 eta."""
    eta = 1e-3
    pres = matrix_units(2)
    images = _exact_matrix_unit_images(2, 2)
    bump = np.zeros((2, 2), dtype=complex)
    bump[0, 0] = eta
    images["e11"] = images["e11"] + bump
    defect = relation_defect(pres, Representation(2, images))
    assert 0 < defect <= 5 * eta


def test_relation_defect_norm_bound_term():
    """g -> 1.5 under a bound-1 contraction: defect 0.5 from the bound excess."""
    rep = Representation(1, {"g": np.array([[1.5]])})
    assert relation_defect(single_contraction(), rep) == pytest.approx(0.5, abs=1e-12)


def test_relation_defect_single_unitary_at_three_halves():
    """The registered single-unitary presentation also sees u*u - e = 1.25."""
    pres = free_unitaries(1)
    rep = Representation(1, {"u1": np.array([[1.5]])})
    assert relation_defect(pres, rep) == pytest.approx(1.25, abs=1e-12)


def test_relation_defect_requires_all_images():
    pres = free_unitaries(1)
    with pytest.raises(PreconditionError):
        relation_defect(pres, Representation(2, {}))


def test_relation_defect_zero_on_registered_exacts():
    rng = rng_from_seed(81)
    for pres_id in REGISTERED_IDS:
        fam = registered_presentation(pres_id)
        catalog = RepresentationCatalog(per_round=4, seed=5)
        for rep in catalog.batch(pres_id, 0):
            assert relation_defect(fam.presentation, rep) < 1e-12, pres_id


def _defect_per_relation(pres, rep):
    """relation_defect written as one op_norm per generator and per relation."""
    worst = 0.0
    for name, bound in pres.generators:
        worst = max(worst, op_norm(rep.images[name]) - float(bound))
    for p in pres.relations:
        worst = max(worst, op_norm(eval_poly(p, rep)))
    return max(worst, 0.0)


def test_relation_defect_matches_per_relation_loop():
    rng = rng_from_seed(82)
    cases = [(registered_presentation(pres_id).presentation, pres_id)
             for pres_id in REGISTERED_IDS]
    for pres, pres_id in cases:
        catalog = RepresentationCatalog(per_round=3, seed=6)
        for rep in catalog.batch(pres_id, 0):
            images = {n: img for n, img in rep.images.items() if n != pres.unit_generator}
            for scale in (0.0, 1e-3, 0.5):
                noisy = noisy_rep(images, rng, scale, rep.dim)
                assert relation_defect(pres, noisy) == _defect_per_relation(pres, noisy), pres_id
    for pres in (cuntz(2), toeplitz()):
        for dim in (1, 2, 4):
            images = {n: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                      for n in pres.names if n != pres.unit_generator}
            rep = Representation(dim, images)
            assert relation_defect(pres, rep) == _defect_per_relation(pres, rep)
    rep = Representation(3, {})
    assert relation_defect(trivial_presentation(), rep) == 0.0
    huge = {name: 1e200 * img for name, img in _exact_matrix_unit_images(2, 2).items()
            if name != "e"}
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        relation_defect(matrix_units(2), Representation(2, huge))


def _defect_below(pres, rep, gate):
    """relation_defect(pres, rep) < gate, decided by _screen and one gated _defects pass.

    Goes through the module's _defects, so a spy on it sees every pass.
    """
    images = {name: img[None] for name, img in rep.images.items()}
    error, = _screen(pres, rep.dim, images, 1)
    if error is not None:
        raise error
    return bool(_below(presentations._defects(pres, rep.dim, images, gate), gate)[0])


def test_screened_gate_decides_as_relation_defect():
    """_below(_defects(..., gate), gate) is relation_defect(pres, rep) < gate, bound or SVD."""
    rng = rng_from_seed(84)
    gates = [Fraction(1, 2 ** m) for m in (1, 4, 8, 10, 11, 13, 30)]
    cleared = unsure = 0
    for pres_id in REGISTERED_IDS:
        pres = registered_presentation(pres_id).presentation
        for rep in RepresentationCatalog(per_round=3, seed=7).batch(pres_id, 0):
            images = {n: img for n, img in rep.images.items() if n != pres.unit_generator}
            for scale in (0.0, 2.0 ** -12, 2.0 ** -10, 2.0 ** -9, 0.5):
                noisy = noisy_rep(images, rng, scale, rep.dim)
                defect = relation_defect(pres, noisy)
                bounds = [np.sqrt(np.linalg.norm(x, 1) * np.linalg.norm(x, np.inf))
                          for x in (eval_poly(p, noisy) for p in pres.relations)]
                for gate in gates:
                    assert _defect_below(pres, noisy, gate) == (defect < gate), pres_id
                    cleared += any(b < gate / 2 for b in bounds)
                    unsure += any(b >= gate / 2 for b in bounds)
    assert cleared > 100 and unsure > 100
    assert _defect_below(trivial_presentation(), Representation(3, {}), Fraction(1, 2 ** 60))


def _stack(reps):
    """Representations of one dimension as (L, dim, dim) image stacks."""
    return {name: np.array([rep.images[name] for rep in reps]) for name in reps[0].images}


@pytest.mark.parametrize("pres_id, kind, size, dim", [
    ("matrix_units:2", "matrix_units", 2, 4),
    ("matrix_units:3", "matrix_units", 3, 3),
    ("free_unitaries:2", "free_unitaries", 2, 3),
    ("projections:3", "projections", 3, 2),
])
def test_stacked_gate_decides_as_relation_defect_per_item(pres_id, kind, size, dim):
    """_below(_defects(...), gate) on a stack is relation_defect(pres, rep) < gate item by item.

    The items straddle the gate 2^-m, so many relations are left unsure by
    the cheap bound and take the SVD; gates equal to an item's defect, and
    one float above it, cover the exact comparison.
    """
    fam = registered_presentation(pres_id)
    pres = fam.presentation
    rng = rng_from_seed((87, size, dim))
    unsure = 0
    for n in (1, 4):
        m = fam.table.of(n)
        reps = [_perturbed_family_rep(kind, size, rng, dim, 2.0 ** -m * scale)
                for scale in (0.0, 1 / 64, 1 / 8, 1 / 4, 1 / 2, 1, 2, 1 / 16, 1 / 4)]
        defects = [relation_defect(pres, rep) for rep in reps]
        gates = [Fraction(1, 2 ** m), Fraction(1, 2 ** (m + 1))]
        gates += [Fraction(defect) for defect in defects[1:4]]
        gates += [float(np.nextafter(defect, np.inf)) for defect in defects[1:4]]
        for gate in gates:
            images = _stack(reps)
            assert _screen(pres, dim, images, len(reps)) == [None] * len(reps)
            passed = _below(_defects(pres, dim, images, gate), gate)
            assert passed.tolist() == [defect < gate for defect in defects], (pres_id, gate)
            assert passed.tolist() == [_defect_below(pres, rep, gate) for rep in reps]
            for rep in reps:
                bounds = [np.sqrt(np.linalg.norm(x, 1) * np.linalg.norm(x, np.inf))
                          for x in (eval_poly(p, rep) for p in pres.relations)]
                unsure += any(b >= float(gate) / 2 for b in bounds)
        assert [defect < Fraction(defect) for defect in defects] == [False] * len(reps)
    assert unsure > 20


_NOT_UNIT = "unit generator 'e' must map to the identity exactly"
_OVERFLOW = "a relation overflows float range at dimension 2"


def _messages(errors):
    return [None if error is None else str(error) for error in errors]


def _passed(pres, dim, images, gate, errors):
    """Per item, whether _screen admitted it (errors is its verdict) and one gated
    _defects pass over the admitted items puts its defect below gate."""
    admitted = np.equal(errors, None)
    passed = np.zeros(len(errors), dtype=bool)
    if admitted.any():
        stack = {name: img[admitted] for name, img in images.items()}
        passed[admitted] = _below(_defects(pres, dim, stack, gate), gate)
    return passed


def test_stacked_gate_refuses_each_faulting_item():
    """_screen refuses every faulting item with the error relation_defect raises on it
    alone, and one gated _defects pass decides the items it admits."""
    pres = free_unitaries(1)
    rng = rng_from_seed(88)
    reps = [Representation(2, {"u1": random_unitary(rng, 2)}) for _ in range(5)]
    images = _stack(reps)
    gate = Fraction(1, 2 ** 10)
    errors = _screen(pres, 2, images, 5)
    passed = _passed(pres, 2, images, gate, errors)
    assert passed.tolist() == [True] * 5 and errors == [None] * 5
    images["e"] = images["e"].copy()
    images["e"][3, 0, 1] = 1e-300
    errors = _screen(pres, 2, images, 5)
    passed = _passed(pres, 2, images, gate, errors)
    assert passed.tolist() == [True, True, True, False, True]
    assert _messages(errors) == [None, None, None, _NOT_UNIT, None]
    images["u1"][2] *= 1e200
    errors = _screen(pres, 2, images, 5)
    passed = _passed(pres, 2, images, gate, errors)
    assert passed.tolist() == [True, True, False, False, True]
    assert _messages(errors) == [None, None, _OVERFLOW, _NOT_UNIT, None]
    with pytest.raises(PreconditionError, match="a relation overflows"):
        relation_defect(pres, Representation(2, {"u1": images["u1"][2]}))
    # an item that is wrong twice keeps the unit's error
    images["u1"][3] *= 1e200
    errors = _screen(pres, 2, images, 5)
    passed = _passed(pres, 2, images, gate, errors)
    assert passed.tolist() == [True, True, False, False, True]
    assert _messages(errors) == [None, None, _OVERFLOW, _NOT_UNIT, None]
    missing = {"e": images["e"]}
    errors = _screen(pres, 2, missing, 5)
    passed = _passed(pres, 2, missing, gate, errors)
    assert passed.tolist() == [False] * 5
    assert _messages(errors) == ["missing image for generator 'u1'"] * 3 + [_NOT_UNIT] + [
        "missing image for generator 'u1'"]
    errors = _screen(pres, 2, {"u1": images["u1"]}, 5)
    passed = _passed(pres, 2, {"u1": images["u1"]}, gate, errors)
    assert passed.tolist() == [False] * 5
    assert _messages(errors) == ["missing image for generator 'e'"] * 5


@pytest.mark.parametrize("unit_at, overflow_at", [(1, 3), (3, 1)])
def test_stack_faults_keep_their_own_errors(unit_at, overflow_at, monkeypatch):
    """A wrong unit and an overflowing relation in one stack each keep their message.

    The screen finds both errors, the gate decides the other items, |q| is
    taken at the items the screen admits only, no SVD sees a refused item's
    values, and the enumerator raises the earlier catalog position's error.
    """
    pres = free_unitaries(1)
    rng = rng_from_seed(89)
    reps = [Representation(2, {"u1": random_unitary(rng, 2)}) for _ in range(5)]
    images = _stack(reps)
    images["e"][unit_at, 1, 1] = 2.0
    images["u1"][overflow_at] *= 1e200
    gate = Fraction(1, 2 ** 10)
    q = 4 * generator("e") + generator("u1")
    real = presentations.op_norms

    def finite_only(stack, gate=0.0):
        assert np.isfinite(stack).all()
        return real(stack, gate)
    monkeypatch.setattr(presentations, "op_norms", finite_only)
    expected = [None] * 5
    expected[unit_at], expected[overflow_at] = _NOT_UNIT, _OVERFLOW
    errors = _screen(pres, 2, images, 5)
    assert _messages(errors) == expected
    assert _passed(pres, 2, images, gate, errors).tolist() == [m is None for m in expected]
    norms = _q_norms(compile_polynomials((q,)), 2, images, np.equal(errors, None))
    for i, rep in enumerate(reps):
        if expected[i] is None:
            assert _defect_below(pres, rep, gate)
            assert norms[i] == op_norm(eval_poly(q, rep))
        else:
            assert math.isnan(norms[i])
    monkeypatch.setattr(RepresentationCatalog, "_round",
                        lambda self, pres_id, j, count: [_Block(2, list(range(count)), images)])
    catalog = RepresentationCatalog(per_round=3)
    stream = norm_lower_enumerate(pres, q, catalog, "free_unitaries:1", 5)
    # round 0 emits item 0's |q| - 1 on the grid 2^-4, then meets the first fault
    first = Fraction(math.floor((norms[0] - 1) * 16), 16)
    assert _emissions(stream) == ([first], expected[min(unit_at, overflow_at)])


def test_presentation_compiles_relations_once(monkeypatch):
    """One compile per Presentation, none per representation the enumerator examines."""
    import cstarkit.polynomials as polynomials
    import cstarkit.presentations as presentations
    compiled = []

    def counted(polys, _original=polynomials.compile_polynomials):
        compiled.append(len(polys))
        return _original(polys)
    monkeypatch.setattr(presentations, "compile_polynomials", counted)
    pres = free_unitaries(2)
    assert compiled == [len(pres.relations)] == [4]
    fam = registered_presentation("matrix_units:3")
    table = fam.presentation._table
    q = generator("e12") + generator("e21")
    monkeypatch.setattr(polynomials, "compile_polynomials", counted)
    compiled.clear()
    out = list(norm_lower_enumerate(fam.presentation, q, RepresentationCatalog(per_round=8),
                                    "matrix_units:3", 40))
    # the enumerator compiles q once; no representation compiles anything
    assert out and fam.presentation._table is table and compiled == [1]
    assert trivial_presentation()._table.relations.evaluate({}, 2).shape == (0, 2, 2)


def test_matrix_unit_images_match_kron_reference():
    """The stacked einsum images are the per-unit kron images, conjugated, bit for bit."""
    rng = rng_from_seed(85)
    for k in (1, 2, 3, 4):
        for dim in (k, 2 * k + 1, 3 * k):
            full = k * (dim // k)
            for u in (None, random_unitary(rng, full)):
                images = _exact_matrix_unit_images(k, dim, u)
                assert list(images) == [f"e{i}{j}" for i in range(1, k + 1)
                                        for j in range(1, k + 1)]
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        block = np.zeros((k, k), dtype=np.complex128)
                        block[i - 1, j - 1] = 1.0
                        expected = np.kron(block, np.eye(dim // k, dtype=np.complex128))
                        if u is not None:
                            expected = u @ expected @ dagger(u)
                        assert images[f"e{i}{j}"].tobytes() == expected.tobytes()


# --- registered families and modulus tables ------------------------------------------

def test_registered_ids_resolve():
    for pres_id in REGISTERED_IDS:
        fam = registered_presentation(pres_id)
        assert fam.table.presentation_id == pres_id


def test_registered_families_built_once(monkeypatch):
    """One row per id and process; rows still call the module's current functions."""
    import cstarkit.presentations as presentations
    for pres_id in REGISTERED_IDS:
        assert registered_presentation(pres_id) is registered_presentation(pres_id)
    calls = []
    for name in ("_haar_unitaries", "_rank_projections", "round_to_unitary",
                 "round_to_projection", "round_to_pvm"):
        def counted(*args, _name=name, _original=getattr(presentations, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(presentations, name, counted)
    catalog = RepresentationCatalog(dims=(2,), per_round=1)
    for pres_id in ("free_unitaries:1", "projections:1", "matrix_units:2"):
        rep = catalog.batch(pres_id, 0)[-1]
        stability_witness(pres_id, rep, 0.5)
    assert calls == ["_haar_unitaries", "round_to_unitary", "_haar_unitaries",
                     "_rank_projections", "round_to_projection", "_haar_unitaries",
                     "round_to_pvm"]


def test_generator_count_is_capped_before_building(monkeypatch):
    """free_unitaries:N and projections:N stop at N = 81, the size of matrix_units:9."""
    import cstarkit.presentations as presentations
    assert len(registered_presentation("free_unitaries:81").presentation.names) == 82
    for builder in ("free_unitaries", "projections_presentation"):
        monkeypatch.setattr(presentations, builder, lambda n: pytest.fail(f"built {n}"))
    for pres_id in ("free_unitaries:100000000", "projections:82", "free_unitaries:" + "9" * 5000):
        with pytest.raises(UnsupportedPresentationError):
            registered_presentation(pres_id)


@pytest.mark.parametrize("bad", ["cuntz:2", "toeplitz", "free_unitaries:x",
                                 "free_unitaries:\u00b2", "matrix_units", "unknown:3", ""])
def test_unregistered_ids_raise(bad):
    with pytest.raises(UnsupportedPresentationError):
        registered_presentation(bad)


def test_modulus_tables_total_and_monotone():
    for pres_id in REGISTERED_IDS:
        table = registered_presentation(pres_id).table
        values = [table.of(n) for n in range(0, 30)]
        assert all(isinstance(v, int) and v >= 0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("size", [1, 2, 81])
def test_one_by_one_tables_are_the_rounder_moduli(size):
    """free_unitaries:N and projections:N read the unitary and projection moduli at 2^-n."""
    unitaries = registered_presentation(f"free_unitaries:{size}").table
    projections = registered_presentation(f"projections:{size}").table
    for n in range(0, 301):
        assert unitaries.of(n) == n + 1
        assert projections.of(n) == 2 * n + 4


def test_modulus_table_rejects_bad_argument():
    table = registered_presentation("trivial").table
    with pytest.raises(PreconditionError):
        table.of(-1)
    with pytest.raises(PreconditionError):
        table.of(1.5)
    with pytest.raises(PreconditionError, match="must be an integer"):
        table.of(True)
    assert registered_presentation("free_unitaries:1").table.of(np.int64(3)) == 4


def test_modulus_table_guards_non_natural_output():
    broken = StabilityModulusTable("broken", lambda n: -2)
    with pytest.raises(ArithmeticError):
        broken.of(3)


# --- stability witnesses ---------------------------------------------------------------

def test_witness_exact_unitary_unchanged():
    rng = rng_from_seed(82)
    u = random_unitary(rng, 4)
    rep = Representation(4, {"u1": u})
    out = stability_witness("free_unitaries:1", rep, 0.5)
    assert op_norm(out.images["u1"] - u) < 1e-12


def test_witness_scaled_unitary_recovers_it():
    rng = rng_from_seed(83)
    u = random_unitary(rng, 3)
    rep = Representation(3, {"u1": 1.01 * u})
    out = stability_witness("free_unitaries:1", rep, 0.1)
    assert op_norm(out.images["u1"] - u) < 1e-12


def test_witness_noisy_matrix_units():
    """Entrywise +-1e-5 noise on 2x2 matrix units repairs within 1e-3."""
    rng = rng_from_seed(84)
    images = _exact_matrix_unit_images(2, 2)
    noisy = {name: img + rng.uniform(-1e-5, 1e-5, (2, 2)) for name, img in images.items()}
    rep = Representation(2, noisy)
    out = stability_witness("matrix_units:2", rep, 1e-3)
    pres = matrix_units(2)
    assert relation_defect(pres, out) <= 1e-10
    dist = max(op_norm(out.images[n] - rep.images[n]) for n in pres.names)
    assert dist < 1e-3


def test_witness_rejects_excess_defect():
    rep = Representation(1, {"u1": np.array([[1.5]])})
    with pytest.raises(HypothesisError):
        stability_witness("free_unitaries:1", rep, 0.5)


def test_witness_rejects_nonpositive_eps():
    rep = Representation(1, {"u1": np.array([[1.0]])})
    with pytest.raises(PreconditionError):
        stability_witness("free_unitaries:1", rep, 0.0)


@pytest.mark.parametrize("eps", [float("inf"), float("nan"), float("-inf")])
def test_witness_rejects_non_finite_eps(eps):
    rep = Representation(1, {"u1": np.array([[1.0]])})
    with pytest.raises(PreconditionError, match="eps must be positive and finite"):
        stability_witness("free_unitaries:1", rep, eps)


def test_witness_decides_gates_without_exact_defect(monkeypatch):
    """One _defects pass per representation checked, and no relation_defect call.

    An admissible input takes two passes (input and output), an inadmissible
    one a single pass, whose value the HypothesisError carries bit for bit.
    """
    import cstarkit.presentations as presentations
    fam = registered_presentation("matrix_units:3")
    rng = rng_from_seed(86)
    m = fam.table.of(4)
    rep = noisy_rep(_exact_matrix_unit_images(3, 6, random_unitary(rng, 6)), rng,
                    2.0 ** -m / 64, 6)
    far = noisy_rep(_exact_matrix_unit_images(3, 6), rng, 2.0 ** -m * 4, 6)
    defect = relation_defect(fam.presentation, far)
    assert 0 < relation_defect(fam.presentation, rep) <= 2.0 ** -m < defect
    calls = []

    def counted(pres, representation, _original=presentations.relation_defect):
        calls.append(representation)
        return _original(pres, representation)
    monkeypatch.setattr(presentations, "relation_defect", counted)
    passes = _recorded(monkeypatch, "_defects")
    out = stability_witness("matrix_units:3", rep, 2.0 ** -4)
    assert calls == [] and len(passes) == 2
    assert relation_defect(fam.presentation, out) <= 1e-10
    passes.clear()
    with pytest.raises(HypothesisError) as info:
        stability_witness("matrix_units:3", far, 2.0 ** -4)
    assert calls == [] and len(passes) == 1
    assert info.value.defect == defect


def test_witness_raises_on_inexact_output(monkeypatch):
    """A witness that returns a non-representation fails the exactness check."""
    import cstarkit.presentations as presentations
    rep = Representation(1, {"u1": np.array([[1.0]])})
    row = registered_presentation("free_unitaries:1")
    broken = row._replace(
        witness=lambda pres, rep, eps, tol: Representation(1, {"u1": np.array([[1.001]])}))
    monkeypatch.setattr(presentations, "registered_presentation", lambda pres_id: broken)
    with pytest.raises(ArithmeticError, match="rounding missed exactness"):
        stability_witness("free_unitaries:1", rep, 0.5)


def test_witness_trivial_presentation():
    rep = Representation(3, {})
    out = stability_witness("trivial", rep, 0.5)
    assert np.array_equal(out.images["e"], np.eye(3))


def _perturbed_family_rep(kind, size, rng, dim, scale):
    if kind == "free_unitaries":
        images = {f"u{k}": random_unitary(rng, dim) for k in range(1, size + 1)}
    elif kind == "projections":
        images = {f"p{k}": random_projection(rng, dim) for k in range(1, size + 1)}
    else:
        u = random_unitary(rng, dim)
        images = _exact_matrix_unit_images(size, dim, u)
    return noisy_rep(images, rng, scale, dim)


@pytest.mark.parametrize("pres_id, kind, size", [
    ("free_unitaries:2", "free_unitaries", 2),
    ("projections:2", "projections", 2),
    ("matrix_units:2", "matrix_units", 2),
    ("matrix_units:3", "matrix_units", 3),
])
def test_witness_seeded_property(pres_id, kind, size):
    """1000 seeded trials: admissible inputs repair exactly and stay within eps."""
    fam = registered_presentation(pres_id)
    kind_code = {"free_unitaries": 0, "projections": 1, "matrix_units": 2}[kind]
    rng = rng_from_seed((91, kind_code, size))
    admissible = 0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = fam.table.of(n)
        if kind == "matrix_units":
            dim = size * int(rng.integers(1, 13 // size))
        else:
            dim = int(rng.integers(2, 17))
        rep = _perturbed_family_rep(kind, size, rng, dim, 2.0 ** -m / 8)
        defect = relation_defect(fam.presentation, rep)
        if not 0 < defect <= 2.0 ** -m:
            continue
        admissible += 1
        eps = 2.0 ** -n
        out = stability_witness(pres_id, rep, eps)
        assert relation_defect(fam.presentation, out) <= 1e-10
        dist = max(op_norm(out.images[g] - rep.images[g])
                   for g in fam.presentation.names)
        assert dist < eps
    assert admissible >= 500, f"only {admissible} admissible trials for {pres_id}"


# --- moduli combinators ------------------------------------------------------------------

def test_combine_moduli_direct_sum_dominates_base():
    base = registered_presentation("free_unitaries:1").table
    combined = combine_moduli("direct_sum", base, 2)
    assert combined.presentation_id == "direct_sum(free_unitaries:1,2)"
    for n in range(0, 20):
        assert combined.of(n) >= base.of(n)
        assert combined.of(n) >= n + 4


def test_combine_moduli_amplification_size_one_is_pure_shift():
    base = registered_presentation("free_unitaries:1").table
    combined = combine_moduli("matrix_amplification", base, 1)
    for n in range(0, 20):
        assert combined.of(n) == base.of(n + 4)


def test_combine_moduli_amplification_covers_matrix_units():
    base = registered_presentation("trivial").table
    combined = combine_moduli("matrix_amplification", base, 2)
    mu_table = registered_presentation("matrix_units:2").table
    for n in range(0, 20):
        assert combined.of(n) >= mu_table.of(n)


def test_combine_moduli_monotone():
    base = registered_presentation("projections:1").table
    for kind in ("direct_sum", "matrix_amplification"):
        table = combine_moduli(kind, base, 3)
        values = [table.of(n) for n in range(0, 25)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_combine_moduli_validation():
    base = registered_presentation("trivial").table
    with pytest.raises(PreconditionError):
        combine_moduli("tensor", base, 2)
    with pytest.raises(PreconditionError):
        combine_moduli("direct_sum", base, 0)
    for bad in (True, 2.0):
        with pytest.raises(PreconditionError, match="size must be an integer"):
            combine_moduli("direct_sum", base, bad)
    assert combine_moduli("direct_sum", base, np.int64(2)).of(3) == combine_moduli(
        "direct_sum", base, 2).of(3)


def test_amplified_scalars_modulus_admits_witness():
    """M2-from-scalars: inputs passing the combined modulus always repair.

    Amplifying the trivial presentation by 2 gives the 2x2 matrix-unit
    presentation; the combined table must be tight enough that any input
    within its gate satisfies the matrix-unit witness hypothesis.
    """
    base = registered_presentation("trivial").table
    combined = combine_moduli("matrix_amplification", base, 2)
    fam = registered_presentation("matrix_units:2")
    rng = rng_from_seed(92)
    repaired = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = combined.of(n)
        dim = 2 * int(rng.integers(1, 7))
        rep = _perturbed_family_rep("matrix_units", 2, rng, dim, 2.0 ** -m / 8)
        if not relation_defect(fam.presentation, rep) <= 2.0 ** -m:
            continue
        out = stability_witness("matrix_units:2", rep, 2.0 ** -n)
        assert relation_defect(fam.presentation, out) <= 1e-10
        repaired += 1
    assert repaired >= 500


# --- representation catalog -----------------------------------------------------------------

def test_catalog_batches_deterministic():
    catalog = RepresentationCatalog(dims=(2, 3), per_round=6, seed=11)
    first = catalog.batch("free_unitaries:1", 4)
    second = catalog.batch("free_unitaries:1", 4)
    assert len(first) == len(second)
    for r1, r2 in zip(first, second):
        assert r1.dim == r2.dim
        for name in r1.images:
            assert np.array_equal(r1.images[name], r2.images[name])


def test_catalog_rounds_differ():
    catalog = RepresentationCatalog(dims=(3,), per_round=2, seed=11)
    a = catalog.batch("free_unitaries:1", 0)[-1]
    b = catalog.batch("free_unitaries:1", 1)[-1]
    assert not np.array_equal(a.images["u1"], b.images["u1"])


def test_catalog_canonical_heads():
    catalog = RepresentationCatalog(dims=(4,), per_round=1, seed=0)
    units = catalog.batch("free_unitaries:1", 7)
    assert units[0].dim == 1 and units[0].images["u1"][0, 0] == 1.0
    assert units[1].dim == 1 and units[1].images["u1"][0, 0] == -1.0
    projs = catalog.batch("projections:1", 7)
    assert projs[0].images["p1"][0, 0] == 0.0
    assert projs[1].images["p1"][0, 0] == 1.0
    mats = catalog.batch("matrix_units:2", 7)
    assert mats[0].dim == 2
    assert np.array_equal(mats[0].images["e12"], np.array([[0, 1], [0, 0]]))


# dims and a digest of image names (in order) and image bytes of
# RepresentationCatalog(dims=(1, 2, 3, 5), per_round=5, seed=7).batch(pres_id, 2)
_BATCH_PINS = {
    "trivial": ([1, 1, 2, 3, 5, 1], "5b75c0f81ca64d26"),
    "free_unitaries:2": ([1, 1, 1, 2, 3, 5, 1], "ea8ab0c0aa7ce5e5"),
    "projections:2": ([1, 1, 1, 2, 3, 5, 1], "2954ff459b6d8c30"),
    "matrix_units:2": ([2, 2, 2, 2, 4, 2], "029bda80e1b0950e"),
    "matrix_units:3": ([3, 3, 3, 3, 3, 3], "082e2337e319da20"),
}


def _batch_digest(batch):
    digest = hashlib.sha256()
    for rep in batch:
        digest.update(f"{rep.dim}:{','.join(rep.images)};".encode())
        for img in rep.images.values():
            digest.update(img.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("pres_id", sorted(_BATCH_PINS))
def test_catalog_batch_reads_the_registry_row(pres_id):
    """A batch is the row's canonical representations, then the row's seeded draws.

    The batch finishes each dimension's draws as one stack; drawn and
    finished one at a time, as stacks of one, they give the same bytes.
    """
    fam = registered_presentation(pres_id)
    batch = RepresentationCatalog(dims=(1, 2, 3, 5), per_round=5, seed=7).batch(pres_id, 2)
    dims, digest = _BATCH_PINS[pres_id]
    assert [rep.dim for rep in batch] == dims
    assert _batch_digest(batch) == digest
    head = len(fam.canonical)
    assert all(rep is canon for rep, canon in zip(batch, fam.canonical))
    rng = rng_from_seed(_subseed(7, pres_id, 2))
    draws = []
    for dim in (1, 2, 3, 5, 1):
        full, parts = fam.draw(rng, dim)
        images = fam.finish(*(part[None] for part in parts))
        draws.append(Representation(full, {name: img[0] for name, img in images.items()}))
    assert _batch_digest(draws) == _batch_digest(batch[head:])


def test_catalog_dims_validation():
    with pytest.raises(PreconditionError):
        RepresentationCatalog(dims=())
    with pytest.raises(PreconditionError):
        RepresentationCatalog(dims=(0,))
    with pytest.raises(PreconditionError):
        RepresentationCatalog(per_round=-1)
    with pytest.raises(PreconditionError):
        RepresentationCatalog(seed=-1)


@pytest.mark.parametrize("field, value", [("dims", (3.9,)), ("dims", (2, 3.0)),
                                          ("per_round", 1.5), ("seed", 2.5), ("seed", "2"),
                                          ("per_round", True)])
def test_catalog_rejects_non_integral_fields(field, value):
    """Refused at construction: dims=(3.9,) used to sample dimension 3, and
    per_round=1.5 used to raise a TypeError inside batch."""
    with pytest.raises(PreconditionError, match="must be an integer"):
        RepresentationCatalog(**{field: value})


def test_catalog_accepts_numpy_integers():
    catalog = RepresentationCatalog(dims=np.arange(2, 4), per_round=np.int64(2), seed=np.int32(5))
    assert (catalog.dims, catalog.per_round, catalog.seed) == ((2, 3), 2, 5)
    plain = RepresentationCatalog(dims=(2, 3), per_round=2, seed=5)
    batch, expected = catalog.batch("free_unitaries:2", 0), plain.batch("free_unitaries:2", 0)
    assert len(batch) == len(expected)
    for rep, same in zip(batch, expected):
        assert rep.dim == same.dim and rep.images.keys() == same.images.keys()
        assert all(np.array_equal(rep.images[name], same.images[name]) for name in rep.images)


def test_catalog_matrix_units_reps_are_exact():
    catalog = RepresentationCatalog(dims=(5, 6), per_round=4, seed=3)
    pres = matrix_units(3)
    for rep in catalog.batch("matrix_units:3", 2):
        assert rep.dim % 3 == 0
        assert relation_defect(pres, rep) < 1e-12


# --- norm lower enumeration --------------------------------------------------------------------

def _enumerate(pres_id, poly, budget, dims=tuple(range(1, 17)), seed=0):
    fam = registered_presentation(pres_id)
    catalog = RepresentationCatalog(dims=dims, seed=seed)
    return list(norm_lower_enumerate(fam.presentation, poly, catalog, pres_id, budget))


def test_enumeration_self_adjoint_sum_hits_two():
    """q = u + u*: emissions are exactly 2 - 2^-j, reaching 2 - 2^-10."""
    q = generator("u1") + generator("u1").adjoint()
    values = _enumerate("free_unitaries:1", q, budget=600)
    assert values[0] == 1
    assert values == [2 - Fraction(1, 2 ** j) for j in range(len(values))]
    assert values[-1] >= 2 - Fraction(1, 2 ** 10)
    assert all(float(v) <= 2 + 1e-9 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_enumeration_slack_is_exact_below_an_ulp(monkeypatch):
    """Past j = 52, 2^-j is below an ulp of |q| = 2; the emissions still subtract it.

    Float slack emitted 2 itself at j = 53.  The record-candidate pick is
    exact too: from round 53 on each round gates one item, where the float
    pick norms - 2^-j >= bar let a second one through.
    """
    rounds, gated = [], {}
    original_round, original_defects = RepresentationCatalog._round, presentations._defects

    def round_spy(self, pres_id, round_index, count):
        rounds.append(round_index)
        return original_round(self, pres_id, round_index, count)

    def defects_spy(pres, dim, images, gate):
        count = len(images[pres.unit_generator])
        gated[rounds[-1]] = gated.get(rounds[-1], 0) + count
        return original_defects(pres, dim, images, gate)
    monkeypatch.setattr(RepresentationCatalog, "_round", round_spy)
    monkeypatch.setattr(presentations, "_defects", defects_spy)
    q = generator("u1") + generator("u1").adjoint()
    values = _enumerate("free_unitaries:1", q, budget=2000, seed=1)
    assert len(values) > 54
    assert values == [2 - Fraction(1, 2 ** j) for j in range(len(values))]
    late = [gated.get(j, 0) for j in rounds if j >= 53]
    assert late and late == [1] * len(late), late


def test_enumeration_zero_polynomial_silent():
    from cstarkit.polynomials import NCPolynomial
    values = _enumerate("free_unitaries:1", NCPolynomial.zero(), budget=200)
    assert values == []


def test_enumeration_single_generator_capped_at_one():
    q = generator("u1")
    values = _enumerate("free_unitaries:1", q, budget=400)
    assert values
    assert all(v <= 1 for v in values)
    assert values[-1] >= 1 - Fraction(1, 2 ** 8)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_enumeration_projection_norm():
    q = generator("p1")
    values = _enumerate("projections:1", q, budget=400)
    assert values
    assert all(v <= 1 for v in values)
    assert values[-1] >= Fraction(1, 2)


def test_enumeration_budget_zero():
    q = generator("u1")
    assert _enumerate("free_unitaries:1", q, budget=0) == []


def test_enumeration_counts_budget_not_emissions():
    """A tiny budget truncates the stream even though more rounds would emit."""
    q = generator("u1") + generator("u1").adjoint()
    short = _enumerate("free_unitaries:1", q, budget=40)
    long = _enumerate("free_unitaries:1", q, budget=400)
    assert len(short) < len(long)
    assert short == long[:len(short)]


def test_enumeration_rejects_stray_symbols():
    fam = registered_presentation("free_unitaries:1")
    catalog = RepresentationCatalog()
    with pytest.raises(PreconditionError):
        list(norm_lower_enumerate(fam.presentation, generator("z"), catalog,
                                  "free_unitaries:1", 100))
    with pytest.raises(UnsupportedPresentationError):
        list(norm_lower_enumerate(fam.presentation, generator("u1"), catalog,
                                  "cuntz:2", 100))
    with pytest.raises(PreconditionError):
        list(norm_lower_enumerate(fam.presentation, generator("u1"), catalog,
                                  "free_unitaries:1", -1))


@pytest.mark.parametrize("budget", [2.5, 40.0, True, "40"])
def test_enumeration_rejects_non_integral_budget(budget):
    """budget=2.5 used to examine 3 representations and budget=True one."""
    fam = registered_presentation("free_unitaries:1")
    with pytest.raises(PreconditionError, match="budget must be an integer"):
        list(norm_lower_enumerate(fam.presentation, generator("u1"), RepresentationCatalog(),
                                  "free_unitaries:1", budget))


def test_enumeration_accepts_numpy_integer_budget():
    q = generator("u1") + generator("u1").adjoint()
    assert _enumerate("free_unitaries:1", q, np.int64(70)) == _enumerate("free_unitaries:1", q, 70)


def _reference_enumerate(pres, q, catalog, pres_id, budget):
    """norm_lower_enumerate one representation at a time: _defect_below, eval_poly, op_norm.

    _defect_below is relation_defect(pres, rep) < gate, as
    test_screened_gate_decides_as_relation_defect checks.
    """
    table = registered_presentation(pres_id).table
    lip = lipschitz_bound(q, pres.bounds)
    pad = max(0, ceil_log2(lip)) if lip > 0 else 0
    best = None
    examined = 0
    for j in itertools.count():
        if examined >= budget:
            return
        gate = Fraction(1, 2 ** table.of(j + pad + 1))
        grid = 2 ** (j + 4)
        for rep in catalog.batch(pres_id, j):
            if examined >= budget:
                return
            examined += 1
            if not _defect_below(pres, rep, gate):
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                image = eval_poly(q, rep)
            if not (np.isfinite(image).all() and math.isfinite(value := op_norm(image))):
                raise PreconditionError(f"|q| overflows float range at dimension {rep.dim}")
            d = Fraction(math.floor(Fraction(value - 2.0 ** -j) * grid), grid)
            if d > 0 and (best is None or d > best):
                best = d
                yield d


def _emissions(stream):
    """The values a stream yields before it ends or fails, and the failure's message."""
    values = []
    try:
        for value in stream:
            values.append(value)
    except PreconditionError as error:
        return values, str(error)
    return values, None


_REFERENCE_CASES = {
    "free_unitaries:2": generator("u1") + generator("u2").adjoint() * generator("u1"),
    "projections:3": generator("p1") + generator("p2") * generator("p3"),
    "matrix_units:2": generator("e12") + generator("e11"),
    "matrix_units:3": generator("e12") + generator("e21") + generator("e33"),
}


@pytest.mark.parametrize("pres_id", sorted(_REFERENCE_CASES))
def test_enumeration_matches_rep_by_rep_reference(pres_id, monkeypatch):
    """The stacked rounds emit the reference's values, with budgets cutting a round mid-way.

    Seed 0 also runs with stacks of one item, with a cap of 200 entries (which
    cuts the q table and the relation table differently) and with one stack
    per dimension.
    """
    pres, q = registered_presentation(pres_id).presentation, _REFERENCE_CASES[pres_id]
    runs = [(seed, budget, presentations._STACK_ENTRIES)
            for seed in range(4) for budget in (40, 70, 99)]
    runs += [(0, 99, 1), (0, 99, 200), (0, 99, 2 ** 30)]
    for seed, budget, entries in runs:
        monkeypatch.setattr(presentations, "_STACK_ENTRIES", entries)
        catalog = RepresentationCatalog(seed=seed)
        stacked = _emissions(norm_lower_enumerate(pres, q, catalog, pres_id, budget))
        assert stacked == _emissions(_reference_enumerate(pres, q, catalog, pres_id, budget))
        assert stacked[0] and stacked[1] is None


def _recorded(monkeypatch, name):
    """Replace presentations.<name>, a function of (pres, dim, images, ...), by a
    spy; returns the list of (pres, dim, item count) it records per call."""
    calls = []
    original = getattr(presentations, name)

    def spy(pres, dim, images, *rest):
        calls.append((pres, dim, len(next(iter(images.values())))))
        return original(pres, dim, images, *rest)
    monkeypatch.setattr(presentations, name, spy)
    return calls


_BENCHMARK_Q = generator("e12") + generator("e21")


def _benchmark_job(seed):
    """The norm-matrix-units benchmark's enumeration at a catalog seed."""
    pres = registered_presentation("matrix_units:3").presentation
    return norm_lower_enumerate(pres, _BENCHMARK_Q, RepresentationCatalog(seed=seed),
                                "matrix_units:3", 66)


def test_round_stacks_hold_at_most_the_entry_cap(monkeypatch):
    """The cheap pass runs once per catalog block, within _STACK_ENTRIES q-table
    entries; every gate pass holds at most _STACK_ENTRIES relation-table entries, or one item."""
    blocks = []
    original = RepresentationCatalog._round

    def round_spy(self, pres_id, j, count):
        drawn = original(self, pres_id, j, count)
        blocks.extend(drawn)
        return drawn
    monkeypatch.setattr(RepresentationCatalog, "_round", round_spy)
    screened = _recorded(monkeypatch, "_screen")
    normed = _recorded(monkeypatch, "_q_norms")
    gated = _recorded(monkeypatch, "_defects")
    list(_benchmark_job(1))
    shapes = [(block.dim, len(block.at)) for block in blocks]
    assert len(shapes) == 10 and sum(items for _, items in shapes) == 66
    assert [(dim, items) for _, dim, items in screened] == shapes
    assert [(dim, items) for _, dim, items in normed] == shapes
    assert all(len(q.index) * items * dim ** 2 <= presentations._STACK_ENTRIES
               for q, dim, items in normed)
    assert all(len(pres.relations) * items * dim ** 2 <= presentations._STACK_ENTRIES or items == 1
               for pres, dim, items in gated)


def test_benchmark_job_gates_at_most_two_items(monkeypatch):
    """A benchmark job gates its record candidates only: one or two of its 66 items."""
    gated = _recorded(monkeypatch, "_defects")
    for seed in range(1, 11):
        gated.clear()
        assert list(_benchmark_job(seed))
        assert len(gated) <= 2 and 1 <= sum(items for _, _, items in gated) <= 2


def _unsatisfiable():
    """free_unitaries:1's relations and the unit itself, so every gate below 1 fails."""
    u, e = generator("u1"), generator("e")
    return Presentation((("e", 1), ("u1", 1)), (u.adjoint() * u - e, u * u.adjoint() - e, e))


def test_record_gating_matches_rep_by_rep_reference():
    """Gating only record candidates emits as the reference.

    Runs: the benchmark job at seeds 1-10, a presentation whose gate every
    candidate fails, and two free unitaries at budget 400.
    """
    u1, u2 = generator("u1"), generator("u2")
    runs = [(registered_presentation("matrix_units:3").presentation, _BENCHMARK_Q,
             "matrix_units:3", 66, seed) for seed in range(1, 11)]
    runs += [(_unsatisfiable(), u1 + u1.adjoint(), "free_unitaries:1", 400, 0),
             (registered_presentation("free_unitaries:2").presentation, u1 + u2,
              "free_unitaries:2", 400, 0)]
    for pres, q, pres_id, budget, seed in runs:
        catalog = RepresentationCatalog(seed=seed)
        stream = _emissions(norm_lower_enumerate(pres, q, catalog, pres_id, budget))
        assert stream == _emissions(_reference_enumerate(pres, q, catalog, pres_id, budget))
        assert stream[1] is None and bool(stream[0]) == (pres_id != "free_unitaries:1")


@pytest.mark.parametrize("rate", [4, 40])
def test_record_gating_matches_reference_when_few_items_pass(rate, monkeypatch):
    """Gates that pass about one item in `rate` still emit as the reference.

    Each item keeps its gate only when a checksum of its u1 image is
    divisible by rate (a dropped item reads an infinite defect), so the
    enumerator and the reference, which both gate through _defects, see the
    same passes.  Windows hold at most 1, 2, 4, ... candidates, back to one
    after each emission.  At 1/40 some window grows
    as wide as its whole round, and the walk still emits as the reference.
    """
    original = presentations._defects
    events, sizes = [], []
    original_gated = presentations._gated

    def windowed(pres, blocks, window, gate):
        events.append(len(window))
        sizes.append(sum(len(block.at) for block in blocks))
        return original_gated(pres, blocks, window, gate)
    monkeypatch.setattr(presentations, "_gated", windowed)

    def logged(stream):
        for value in stream:
            events.append("emit")
            yield value

    def sparse(pres, dim, images, gate):
        defects = original(pres, dim, images, gate)
        keep = [zlib.crc32(images["u1"][k].tobytes()) % rate == 0 for k in range(len(defects))]
        return np.where(keep, defects, np.inf)
    monkeypatch.setattr(presentations, "_defects", sparse)
    pres = registered_presentation("free_unitaries:1").presentation
    u = generator("u1")
    for q in (u + u.adjoint(), 3 * generator("e") + u):
        for seed in range(3):
            catalog = RepresentationCatalog(seed=seed)
            events.append("start")
            stream = _emissions(logged(norm_lower_enumerate(pres, q, catalog,
                                                            "free_unitaries:1", 400)))
            assert stream == _emissions(_reference_enumerate(pres, q, catalog, "free_unitaries:1",
                                                             400))
            assert stream[0] and stream[1] is None
    width, wide, rounds = 1, False, iter(sizes)
    for event in events:
        if event in ("start", "emit"):
            width = 1
        else:
            assert event <= width
            wide |= width >= next(rounds)
            width *= 2
    assert wide == (rate == 40)
    assert max(event for event in events if event not in ("start", "emit")) >= 4


def test_failing_gates_take_logarithmically_many_calls(monkeypatch):
    """When every candidate fails its gate, the gate windows keep doubling.

    Per round and dimension _defects then runs at most log2(round size) + 1
    times, and over the run hardly more often than once per dimension stack.
    """
    gated = _recorded(monkeypatch, "_defects")
    rounds = []
    original = RepresentationCatalog._round

    def marked(self, pres_id, j, count):
        rounds.append(len(gated))
        return original(self, pres_id, j, count)
    monkeypatch.setattr(RepresentationCatalog, "_round", marked)
    u = generator("u1")
    catalog = RepresentationCatalog()
    assert list(norm_lower_enumerate(_unsatisfiable(), u + u.adjoint(), catalog,
                                     "free_unitaries:1", 400)) == []
    size = 2 + catalog.per_round
    stacks = 0
    for start, end in zip(rounds, rounds[1:] + [len(gated)]):
        per_dim = {}
        for _, dim, _ in gated[start:end]:
            per_dim[dim] = per_dim.get(dim, 0) + 1
        assert max(per_dim.values()) <= math.log2(size) + 1
        stacks += len(per_dim)
    assert len(rounds) == 12 and len(gated) <= stacks + size


def test_overflowing_relation_raises_at_a_non_candidate(monkeypatch):
    """An item that cannot beat the last emission is never gated, yet its
    overflowing relation still raises at its catalog position."""
    rng = rng_from_seed(90)
    images = _stack([Representation(2, {"u1": random_unitary(rng, 2)}) for _ in range(4)])
    images["u1"][2] *= 1e200
    monkeypatch.setattr(RepresentationCatalog, "_round",
                        lambda self, pres_id, j, count: [_Block(2, list(range(count)), images)])
    gated = _recorded(monkeypatch, "_defects")
    # |q| = 4 everywhere: item 0 emits 3, and no later item can beat it
    stream = norm_lower_enumerate(free_unitaries(1), 4 * generator("e"),
                                  RepresentationCatalog(per_round=2), "free_unitaries:1", 10)
    assert _emissions(stream) == ([Fraction(3)], _OVERFLOW)
    assert [items for _, _, items in gated] == [1]


_NEAR_MAX = int(1.5e308)          # a float, but twice it is not


def test_screen_evaluates_only_relations_in_range_cannot_clear(monkeypatch):
    """The overflow bound clears catalog items without evaluating their relations.

    A benchmark job's screen evaluates no relation; a relation with
    coefficients near the float ceiling is evaluated at every item, and its
    finite values refuse none.
    """
    evaluated = _recorded(monkeypatch, "_relation_values")
    assert list(_benchmark_job(1))
    assert evaluated == []
    u, e = generator("u1"), generator("e")
    rng = rng_from_seed(91)
    images = _stack([Representation(2, {"u1": random_unitary(rng, 2)}) for _ in range(5)])
    evaluated.clear()
    assert _screen(free_unitaries(1), 2, images, 5) == [None] * 5
    assert evaluated == []
    near = Presentation((("e", 1), ("u1", 1)), (_NEAR_MAX * (u.adjoint() * u - e),))
    assert _screen(near, 2, images, 5) == [None] * 5
    assert [items for _, _, items in evaluated] == [5]


@pytest.mark.parametrize("entries", [presentations._STACK_ENTRIES, 200])
def test_screen_cuts_uncleared_relations_at_the_entry_cap(entries, monkeypatch):
    """Relations in_range cannot clear are evaluated in relation-table stacks.

    A coefficient of 2^1001 or more keeps in_range from clearing any item, so
    the cheap pass evaluates every item's relations.  Each _relation_values
    call holds at most _STACK_ENTRIES relation-table entries, or one item,
    though screened stacks hold more; emissions and errors are the reference's.
    """
    monkeypatch.setattr(presentations, "_STACK_ENTRIES", entries)
    e, p = generator("e"), generator("p1")
    units = registered_presentation("matrix_units:3").presentation
    projections = registered_presentation("projections:1").presentation
    # e images the identity exactly, so the added relation is 0 and the gates are as before
    zero = 2 ** 1001 * (e - e.adjoint())
    # projections:1 starts with p1 = 0, which emits, then p1 = 1, where this overflows
    overflow = _NEAR_MAX * (p + p.adjoint())
    runs = [(Presentation(units.generators, units.relations + (zero,)), _BENCHMARK_Q,
             "matrix_units:3", 66, ([Fraction(1, 2)], None)),
            (Presentation(projections.generators, projections.relations + (overflow,)), 4 * e,
             "projections:1", 50,
             ([Fraction(3)], "a relation overflows float range at dimension 1"))]
    screened = _recorded(monkeypatch, "_screen")
    evaluated = _recorded(monkeypatch, "_relation_values")
    for pres, q, pres_id, budget, expected in runs:
        catalog = RepresentationCatalog(seed=1)
        mark = len(screened), len(evaluated)
        assert _emissions(norm_lower_enumerate(pres, q, catalog, pres_id, budget)) == expected
        # in_range clears no item, so every screened item's relations are evaluated
        assert (sum(items for _, _, items in evaluated[mark[1]:])
                >= sum(items for _, _, items in screened[mark[0]:]))
        assert _emissions(_reference_enumerate(pres, q, catalog, pres_id, budget)) == expected
    assert all(len(pres.relations) * items * dim ** 2 <= entries or items == 1
               for pres, dim, items in evaluated)
    assert any(len(pres.relations) * items * dim ** 2 > entries and items > 1
               for pres, dim, items in screened)


def _footprint(table):
    """The matrices per item table.evaluate allocates: letters, word images, zero, values."""
    return 2 * len(table.names) + sum(len(words) for words in table.words) + 1 + len(table.index)


def test_many_word_q_evaluates_within_the_entry_cap(monkeypatch):
    """Every evaluation of a norm run holds at most _STACK_ENTRIES entries, or one item.

    An entry is a matrix entry evaluate allocates, so q, one polynomial of 64
    words, weighs 70 matrices per item; cut as one polynomial, a block of 32
    items at dimension 4 was evaluated as one stack of 35840 entries.
    """
    letters = [generator("u1"), generator("u2"), generator("u1").adjoint(),
               generator("u2").adjoint()]
    q = sum((a * b * c for a, b, c in itertools.product(letters, repeat=3)), NCPolynomial.zero())
    pres = registered_presentation("free_unitaries:2").presentation
    catalog = RepresentationCatalog(dims=(4,), seed=1)
    expected = _emissions(_reference_enumerate(pres, q, catalog, "free_unitaries:2", 34))
    calls = []
    original = CompiledPolynomials.evaluate

    def spy(self, images, dim, lead=()):
        calls.append((_footprint(self), dim, math.prod(lead)))
        return original(self, images, dim, lead)
    monkeypatch.setattr(CompiledPolynomials, "evaluate", spy)
    stream = _emissions(norm_lower_enumerate(pres, q, catalog, "free_unitaries:2", 34))
    assert stream == expected and stream[0] and stream[1] is None
    assert all(footprint * items * dim ** 2 <= presentations._STACK_ENTRIES or items == 1
               for footprint, dim, items in calls)
    assert any(footprint == 70 and dim == 4 and items > 1 for footprint, dim, items in calls)


def test_enumeration_errors_follow_earlier_emissions():
    """An error is raised at its catalog position, after the emissions of earlier ones."""
    huge = Fraction(10) ** 308
    # projections:1 starts with p1 = 0, then p1 = 1, where the two huge terms overflow
    q = 4 * generator("e") + huge * generator("p1") + huge * generator("p1").adjoint()
    pres = registered_presentation("projections:1").presentation
    catalog = RepresentationCatalog(seed=2)
    expected = ([Fraction(3)], "|q| overflows float range at dimension 1")
    assert _emissions(norm_lower_enumerate(pres, q, catalog, "projections:1", 50)) == expected
    assert _emissions(_reference_enumerate(pres, q, catalog, "projections:1", 50)) == expected
    # u1 as the unit: the catalog images it by 1, then by -1
    pres = Presentation((("u1", 1), ("e", 1)), (), unit_generator="u1")
    q = 4 * generator("e")
    expected = ([Fraction(3)], "unit generator 'u1' must map to the identity exactly")
    assert _emissions(norm_lower_enumerate(pres, q, catalog, "free_unitaries:1", 50)) == expected
    assert _emissions(_reference_enumerate(pres, q, catalog, "free_unitaries:1", 50)) == expected
    # a relation that overflows in the first dimension's block and in a later one:
    # the earlier catalog position's error wins
    big = Fraction(sys.float_info.max)
    u = generator("u1")
    pres = Presentation((("e", 1), ("u1", 1)), (big * u + big * u.adjoint(),))
    catalog = RepresentationCatalog(dims=(1, 2), seed=2)
    expected = ([], "a relation overflows float range at dimension 1")
    assert _emissions(norm_lower_enumerate(pres, u, catalog, "free_unitaries:1", 50)) == expected
    assert _emissions(_reference_enumerate(pres, u, catalog, "free_unitaries:1", 50)) == expected
    # a generator the family lacks is missing from the first representation on
    pres = Presentation((("e", 1), ("u1", 1), ("v", 1)), ())
    expected = ([], "missing image for generator 'v'")
    assert _emissions(norm_lower_enumerate(pres, q, catalog, "free_unitaries:1", 50)) == expected
    assert _emissions(_reference_enumerate(pres, q, catalog, "free_unitaries:1", 50)) == expected


def test_enumeration_matrix_units_off_diagonal():
    q = generator("e12")
    values = _enumerate("matrix_units:2", q, budget=300, dims=(2, 4))
    assert values
    assert all(v <= 1 for v in values)
    assert values[-1] >= Fraction(1, 2)
