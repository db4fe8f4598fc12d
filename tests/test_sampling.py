"""Tests for the samplers' draw / stacked-shrink split."""

import inspect

import numpy as np
import pytest

from cstarkit import sampling
from cstarkit.errors import PreconditionError
from cstarkit.operators import DEFAULT_TOL, dagger
from cstarkit.presentations import registered_presentation
from cstarkit.rounding import ROUNDING_KINDS, _povm_parts, isometry_defect, stability_modulus
from cstarkit.sampling import (_draw_ginibre, _draw_partial_isometry, _draw_povm,
                               _draw_projection, _draw_pvm, _draw_unitary, _ginibre,
                               _gram_bases, _haar_unitaries, _hermitians,
                               _partial_isometry_instances, _pvm_bases, _rank_projections,
                               _povm_instances, _projection_instances, _pvm_instances, _shrink,
                               _unitary_instances, almost_partial_isometry_instance,
                               almost_povm_instance, almost_projection_instance,
                               almost_pvm_instance, almost_unitary_instance, perturbation_suite,
                               random_density, random_hermitian, random_povm, random_projection,
                               random_pvm, random_unitary, rng_from_seed)


def _stacked(kind, rng, dim, k, deltas):
    """Draw len(deltas) instances in order, then shrink them as one stack."""
    if kind == "unitary":
        draws, instances = [_draw_unitary(rng, dim) for _ in deltas], _unitary_instances
    elif kind == "projection":
        draws, instances = [_draw_projection(rng, dim) for _ in deltas], _projection_instances
    elif kind == "partial_isometry":
        draws = [_draw_partial_isometry(rng, dim) for _ in deltas]
        instances = _partial_isometry_instances
    else:
        draw = _draw_povm if kind == "povm" else _draw_pvm
        draws = [draw(rng, dim, k) for _ in deltas]
        stacks = [np.array(part) for part in zip(*draws)]
        instances = _povm_instances if kind == "povm" else _pvm_instances
        return _unmeasured(instances(*stacks, np.array(deltas), np.full(len(deltas), k)))
    return _unmeasured(instances(*(np.array(part) for part in zip(*draws)), np.array(deltas)))


def _unmeasured(stacked):
    """A stacked instances result without its measurement: the builder's parts, in order."""
    return stacked[:1] + stacked[2:]


def _per_item(kind, rng, dim, k, delta):
    if kind == "unitary":
        return almost_unitary_instance(rng, dim, delta)
    if kind == "projection":
        return almost_projection_instance(rng, dim, delta)
    if kind == "partial_isometry":
        return almost_partial_isometry_instance(rng, dim, delta)
    if kind == "povm":
        return almost_povm_instance(rng, dim, k, delta)
    return almost_pvm_instance(rng, dim, k, delta)


@pytest.mark.parametrize("kind", ROUNDING_KINDS)
def test_stacked_draws_match_per_item_builders(kind):
    """n draws shrunk together equal n builder calls bit for bit, and use the same randomness."""
    for dim in (1, 2, 3, 7, 16):
        for k in (1, 3):
            seed = (80, ROUNDING_KINDS.index(kind), dim, k)
            deltas = [float(stability_modulus(kind, eps)) for eps in (0.5, 0.125, 0.25, 0.5, 0.3)]
            stacked_rng, item_rng = rng_from_seed(seed), rng_from_seed(seed)
            stacked = _stacked(kind, stacked_rng, dim, k, deltas)
            items = [_per_item(kind, item_rng, dim, k, delta) for delta in deltas]
            assert stacked_rng.bit_generator.state == item_rng.bit_generator.state
            for i, item in enumerate(items):
                assert len(item) == len(stacked)
                for part, parts in zip(item, stacked):
                    assert np.array(part).tobytes() == parts[i].tobytes()


def test_stacked_shrink_halves_only_members_above_their_budget():
    """Members needing 0 to several halvings, shrunk together, equal the one-at-a-time loop."""
    rng = rng_from_seed(81)
    dim, n = 4, 7
    u = np.array([random_unitary(rng, dim) for _ in range(n)])
    h = np.array([random_hermitian(rng, dim) for _ in range(n)])
    eye = np.eye(dim)
    budget = 2.0 ** -np.arange(4, 4 + n)  # each member's budget half the last one's
    start = np.full(n, 2.0 ** -6)
    builds = []

    def build(items, scale):
        builds.append(len(items))
        return u[items] @ (eye + scale[:, None, None] * h[items])

    stacked, _ = _shrink(build, lambda items, a: isometry_defect(a, eye, eye), budget, start)
    halvings = []
    for i in range(n):
        scale = 2.0 ** -6
        for halving in range(60):
            a = u[i] @ (eye + scale * h[i])
            if isometry_defect(a, eye, eye) <= budget[i]:
                break
            scale /= 2
        assert stacked[i].tobytes() == a.tobytes()
        halvings.append(halving)
    assert halvings == sorted(halvings) and halvings[0] == 0 and halvings[-1] >= 4
    # the k-th build covers exactly the members that need at least k halvings
    assert builds == [sum(count >= step for count in halvings)
                      for step in range(max(halvings) + 1)]


@pytest.mark.parametrize("paired", [False, True])
def test_stacked_shrink_returns_each_items_last_measurement(paired):
    """Items needing 0, 1 and 3 halvings come back with their output's measurement, bit for bit.

    paired measures as _povm_instances does, with the positive parts.
    """
    rng = rng_from_seed(83)
    dim, k = 3, 3
    base = np.array([random_povm(rng, dim, k) for _ in range(3)])
    bumps = np.array([[random_hermitian(rng, dim) for _ in range(k)] for _ in range(3)])
    start = np.full(3, 2.0 ** -4)
    # each budget is the defect at its item's last scale, the first scale that fits
    final = (start / 2.0 ** np.array([0, 1, 3]))[:, None, None, None]
    budget = _povm_parts(base + final * bumps, DEFAULT_TOL)[0]
    builds = []

    def build(items, scale):
        builds.append(items.tolist())
        return base[items] + scale[:, None, None, None] * bumps[items]

    def measure(items, family):
        parts = _povm_parts(family, DEFAULT_TOL)
        return parts if paired else parts[0]

    out, measured = _shrink(build, measure, budget, start)
    assert builds == [[0, 1, 2], [1, 2], [2], [2]]
    assert out.tobytes() == (base + final * bumps).tobytes()
    expected = _povm_parts(out, DEFAULT_TOL)
    if paired:
        assert isinstance(measured, tuple) and len(measured) == 2
        assert measured[0].tobytes() == expected[0].tobytes()
        assert measured[1].tobytes() == expected[1].tobytes()
    else:
        assert measured.tobytes() == expected[0].tobytes()


def test_stacked_shrink_gives_up_after_sixty_halvings():
    dim = 2
    u = np.array([np.eye(dim), np.eye(dim)], dtype=complex)
    eye = np.eye(dim)
    with pytest.raises(ArithmeticError, match="failed to shrink"):
        _shrink(lambda items, scale: u[items] * (1 + scale[:, None, None]),
                lambda items, a: isometry_defect(a, eye, eye) + (items == 1),
                np.array([0.5, 0.5]), np.array([0.25, 0.25]))


def _front_padded(parts, longest):
    """One draw part of every item as a stack; (k, ...) family parts zero-padded in front."""
    if np.ndim(parts[0]) < 4:
        return np.array(parts)
    stack = np.zeros((len(parts), longest) + parts[0].shape[1:], parts[0].dtype)
    for item, part in zip(stack, parts):
        item[longest - len(part):] = part
    return stack


@pytest.mark.parametrize("kind", ["povm", "pvm"])
def test_padded_family_draws_match_per_item_builders(kind):
    """Families of mixed sizes, zero-padded in front and shrunk together, equal the builders."""
    draw, instances, builder = ((_draw_povm, _povm_instances, almost_povm_instance)
                                if kind == "povm" else
                                (_draw_pvm, _pvm_instances, almost_pvm_instance))
    for dim in (1, 2, 6):
        seed = (82, dim)
        stacked_rng, item_rng = rng_from_seed(seed), rng_from_seed(seed)
        ks = [3, 1, 4, 2, 4]
        deltas = [float(stability_modulus(kind, eps)) for eps in (0.5, 0.125, 0.25, 0.5, 0.3)]
        draws = [draw(stacked_rng, dim, k) for k in ks]
        stacks = [_front_padded(parts, max(ks)) for parts in zip(*draws)]
        family, _, base = instances(*stacks, np.array(deltas), np.array(ks))
        for i, (k, delta) in enumerate(zip(ks, deltas)):
            expected_family, expected_base = builder(item_rng, dim, k, delta)
            assert np.array(expected_family).tobytes() == family[i, max(ks) - k:].tobytes()
            assert np.array(expected_base).tobytes() == base[i, max(ks) - k:].tobytes()
            assert not family[i, :max(ks) - k].any()
        assert stacked_rng.bit_generator.state == item_rng.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 16])
def test_stacked_haar_cores_match_per_item_draws(dim):
    """Draws finished as one stack equal the random_* samplers call by call.

    Covers unitaries, projections, POVMs and PVMs; the families have 1-4
    outcomes, zero-padded in front to the longest.
    """
    stacked_rng, item_rng = rng_from_seed((81, dim)), rng_from_seed((81, dim))
    z = np.array([_draw_ginibre(stacked_rng, dim) for _ in range(6)])
    unitaries = _haar_unitaries(z)
    for i in range(6):
        assert unitaries[i].tobytes() == random_unitary(item_rng, dim).tobytes()
    assert _haar_unitaries(z.reshape(2, 3, 2, dim, dim)).tobytes() == unitaries.tobytes()
    ranks, z = zip(*((int(stacked_rng.integers(0, dim + 1)), _draw_ginibre(stacked_rng, dim))
                     for _ in range(6)))
    projections = _rank_projections(_haar_unitaries(np.array(z)), np.array(ranks))
    for i in range(6):
        assert projections[i].tobytes() == random_projection(item_rng, dim).tobytes()
    for ks in ([1, 4, 2, 3, 4, 1, 3, 2], [3, 3, 3]):
        longest = max(ks)
        normals = _front_padded([stacked_rng.normal(size=(k, 2, dim, dim)) for k in ks], longest)
        povms = _gram_bases(normals, np.array(ks))
        labels, z = zip(*((stacked_rng.integers(0, k, size=dim), _draw_ginibre(stacked_rng, dim))
                          for k in ks))
        pvms = _pvm_bases(np.array(labels), _haar_unitaries(np.array(z)), np.array(ks), longest)
        for families, sampler in ((povms, random_povm), (pvms, random_pvm)):
            for family, k in zip(families, ks):
                assert np.array(sampler(item_rng, dim, k)).tobytes() == family[-k:].tobytes()
                assert not family[:-k].any()
    assert stacked_rng.bit_generator.state == item_rng.bit_generator.state


def _raw_parts(draw):
    """The numbers of one draw, out of its (possibly nested) tuples."""
    if isinstance(draw, tuple):
        return [part for item in draw for part in _raw_parts(item)]
    return [draw]


def _is_raw(part) -> bool:
    """An integer, or an array of integers or of float64 normals."""
    if isinstance(part, (int, np.integer)):
        return True
    return isinstance(part, np.ndarray) and (part.dtype == np.float64
                                             or np.issubdtype(part.dtype, np.integer))


_DRAWS = sorted(name for name in vars(sampling) if name.startswith("_draw_"))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_draws_take_only_raw_random_numbers(dim):
    """Every sampling._draw_* and every registered family's draw returns integers and
    float64 arrays, never a complex array: the finishes form the matrices."""
    rng = rng_from_seed((85, dim))
    assert len(_DRAWS) >= 6, _DRAWS
    for name in _DRAWS:
        draw = getattr(sampling, name)
        k = (3,) if "k" in inspect.signature(draw).parameters else ()
        assert all(map(_is_raw, _raw_parts(draw(rng, dim, *k)))), name
    for pres_id in ("trivial", "free_unitaries:2", "projections:3", "matrix_units:2"):
        parts = _raw_parts(registered_presentation(pres_id).draw(rng, dim))
        assert all(map(_is_raw, parts)), pres_id


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hermitian_and_density_finish_their_raw_draw_as_a_stack_of_one(dim):
    """random_hermitian and random_density take one (2, d, d) normal draw each and
    equal it finished as a stack of one, bit for bit."""
    rng, raw_rng = rng_from_seed((86, dim)), rng_from_seed((86, dim))
    h = random_hermitian(rng, dim, norm=2.5)
    assert h.tobytes() == _hermitians(raw_rng.normal(size=(1, 2, dim, dim)), 2.5)[0].tobytes()
    rho = random_density(rng, dim)
    g = _ginibre(raw_rng.normal(size=(1, 2, dim, dim)))[0]
    gram = g @ dagger(g)
    assert rho.tobytes() == (gram / float(np.trace(gram).real)).tobytes()
    assert rng.bit_generator.state == raw_rng.bit_generator.state


def test_random_pvm_matches_per_block_construction():
    """The batched blocks equal the per-block loop u diag(labels == b) u^H byte for byte."""
    for dim in (1, 2, 3, 7, 16):
        for k in (1, 2, 3, 4):
            rng, ref_rng = rng_from_seed((84, dim, k)), rng_from_seed((84, dim, k))
            labels = ref_rng.integers(0, k, size=dim)
            u = random_unitary(ref_rng, dim)
            expected = [u @ np.diag((labels == b).astype(np.complex128)) @ dagger(u)
                        for b in range(k)]
            got = random_pvm(rng, dim, k)
            assert np.array(got).tobytes() == np.array(expected).tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def _instance(kind):
    """almost_<kind>_instance as build(rng, dim, delta, k=2)."""
    return lambda rng, dim, delta, k=2: _per_item(kind, rng, dim, k, delta)


_REFUSED = [(_instance(kind), (dim, delta), message) for kind in ROUNDING_KINDS
            for dim, delta, message in (
                (3, 0.0, "delta must be positive"), (3, -0.25, "delta must be positive"),
                (3, float("nan"), "delta must be positive"),
                (3, float("inf"), "delta must be positive and finite"),
                (0, 0.25, "dim must be a positive integer"), (2.0, 0.25, "dim must be an integer"))]
_REFUSED += [
    (_instance("povm"), (3, 0.25, 2.0), "k must be an integer"),
    (_instance("pvm"), (3, 0.25, 0), "k must be a positive integer"),
    (random_unitary, (2.0,), "dim must be an integer"),
    (random_unitary, (0,), "dim must be a positive integer"),
    (random_unitary, (True,), "dim must be an integer"),
    (random_projection, (3, 1.5), "rank must be an integer"),
    (random_projection, (3, 4), "rank must be an integer between 0 and 3"),
    (random_projection, (-1,), "dim must be a positive integer"),
    (random_hermitian, (0,), "dim must be a positive integer"),
    (random_povm, (2, 1.0), "k must be an integer"),
    (random_pvm, (2.5, 2), "dim must be an integer"),
    (random_hermitian, (2, float("nan")), "norm must be nonnegative and finite"),
    (random_hermitian, (2, float("inf")), "norm must be nonnegative and finite"),
    (random_hermitian, (2, -1.0), "norm must be nonnegative and finite"),
]


@pytest.mark.parametrize("build, args, message", _REFUSED)
def test_public_builders_refuse_bad_sizes_and_deltas_before_drawing(build, args, message):
    """dim, k and rank go through errors.integral, dim is at least 1, delta is
    positive and finite and a norm nonnegative and finite; a refused call
    raises PreconditionError and draws nothing.

    A delta of 0 or below used to run 60 shrink rounds and fail to shrink, a
    non-finite one to fail on non-finite entries, and a float dim or rank to
    raise TypeError.  A NaN norm used to fail in LAPACK, an infinite one to
    give NaN entries and a negative one a matrix of norm 1.
    """
    rng = rng_from_seed(83)
    state = rng.bit_generator.state
    with pytest.raises(PreconditionError, match=message):
        build(rng, *args)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("dims, budget, seed, message", [
    ((2, 3), -1, 0, "budget must be a positive integer, got -1"),
    ((2, 3), 0, 0, "budget must be a positive integer, got 0"),
    ((2, 3), 2.5, 0, "budget must be an integer, got 2.5"),
    ((2, 3), 2, -1, "seed must be a nonnegative integer, got -1"),
    ((2.5, 3), 2, 0, "dims entries must be an integer, got 2.5"),
    ((0, 3), 2, 0, "dims entries must be a positive integer, got 0"),
])
def test_perturbation_suite_refuses_bad_inputs(dims, budget, seed, message):
    """budget, seed and dims go through errors.integral before anything is drawn.

    A budget of 0 or below used to return 15 rows reading ok after rounding
    nothing, a float budget to raise TypeError, a negative seed numpy's
    ValueError, and a float dims entry to be truncated.
    """
    with pytest.raises(PreconditionError, match=message):
        perturbation_suite(dims, budget, seed)
