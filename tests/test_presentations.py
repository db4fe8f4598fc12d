"""Tests for presentations, stability witnesses, and norm lower enumeration."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from cstarkit.errors import (HypothesisError, PreconditionError,
                             UnsupportedPresentationError)
from cstarkit.operators import dagger, op_norm
from cstarkit.polynomials import generator
from cstarkit.presentations import (Presentation, Representation,
                                    RepresentationCatalog,
                                    StabilityModulusTable, combine_moduli,
                                    cuntz, eval_poly, free_unitaries,
                                    matrix_units, norm_lower_enumerate,
                                    projections_presentation,
                                    registered_presentation, relation_defect,
                                    stability_witness, toeplitz,
                                    trivial_presentation)
from cstarkit.presentations import _defect_below, _exact_matrix_unit_images, _subseed
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


def test_representation_unit_handling():
    rep = Representation(2, {"g": np.zeros((2, 2))})
    assert np.array_equal(rep.images["e"], np.eye(2))
    with pytest.raises(PreconditionError):
        Representation(2, {"e": np.zeros((2, 2))})
    with pytest.raises(PreconditionError):
        Representation(2, {"g": np.zeros((3, 3))})
    with pytest.raises(PreconditionError):
        Representation(0, {})


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


def test_screened_gate_decides_as_relation_defect():
    """_defect_below(pres, rep, gate) is relation_defect(pres, rep) < gate, screen or SVD."""
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
    # q compiles on its first evaluate; no representation compiles anything
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
    for name in ("random_unitary", "random_projection", "round_to_unitary",
                 "round_to_projection", "round_to_pvm"):
        def counted(*args, _name=name, _original=getattr(presentations, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(presentations, name, counted)
    catalog = RepresentationCatalog(dims=(2,), per_round=1)
    for pres_id in ("free_unitaries:1", "projections:1", "matrix_units:2"):
        rep = catalog.batch(pres_id, 0)[-1]
        stability_witness(pres_id, rep, 0.5)
    assert calls == ["random_unitary", "round_to_unitary", "random_projection",
                     "round_to_projection", "random_unitary", "round_to_pvm"]


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
    """Admissible input: no relation_defect call; inadmissible: the measured defect."""
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
    out = stability_witness("matrix_units:3", rep, 2.0 ** -4)
    assert calls == []
    assert relation_defect(fam.presentation, out) <= 1e-10
    with pytest.raises(HypothesisError) as info:
        stability_witness("matrix_units:3", far, 2.0 ** -4)
    assert calls == [far]
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
    """A batch is the row's canonical representations, then the row's seeded draws."""
    fam = registered_presentation(pres_id)
    batch = RepresentationCatalog(dims=(1, 2, 3, 5), per_round=5, seed=7).batch(pres_id, 2)
    dims, digest = _BATCH_PINS[pres_id]
    assert [rep.dim for rep in batch] == dims
    assert _batch_digest(batch) == digest
    head = len(fam.canonical)
    assert all(rep is canon for rep, canon in zip(batch, fam.canonical))
    rng = rng_from_seed(_subseed(7, pres_id, 2))
    draws = [fam.sample(rng, dim) for dim in (1, 2, 3, 5, 1)]
    assert _batch_digest(draws) == _batch_digest(batch[head:])


def test_catalog_dims_validation():
    with pytest.raises(PreconditionError):
        RepresentationCatalog(dims=())
    with pytest.raises(PreconditionError):
        RepresentationCatalog(dims=(0,))
    with pytest.raises(PreconditionError):
        RepresentationCatalog(per_round=-1)


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


def test_enumeration_matrix_units_off_diagonal():
    q = generator("e12")
    values = _enumerate("matrix_units:2", q, budget=300, dims=(2, 4))
    assert values
    assert all(v <= 1 for v in values)
    assert values[-1] >= Fraction(1, 2)
