"""Tests for the samplers' draw / stacked-shrink split."""

import numpy as np
import pytest

from cstarkit.rounding import ROUNDING_KINDS, isometry_defect, stability_modulus
from cstarkit.sampling import (_draw_partial_isometry, _draw_povm, _draw_projection,
                               _draw_pvm, _draw_unitary, _partial_isometry_instances,
                               _povm_instances, _projection_instances, _pvm_instances,
                               _shrink, _unitary_instances, almost_partial_isometry_instance,
                               almost_povm_instance, almost_projection_instance,
                               almost_pvm_instance, almost_unitary_instance,
                               random_hermitian, random_unitary, rng_from_seed)


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
        return instances(*stacks, np.array(deltas), np.full(len(deltas), k))
    return instances(*(np.array(part) for part in zip(*draws)), np.array(deltas))


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

    stacked = _shrink(build, lambda items, a: isometry_defect(a, eye, eye), budget, start)
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


def test_stacked_shrink_gives_up_after_sixty_halvings():
    dim = 2
    u = np.array([np.eye(dim), np.eye(dim)], dtype=complex)
    eye = np.eye(dim)
    with pytest.raises(ArithmeticError, match="failed to shrink"):
        _shrink(lambda items, scale: u[items] * (1 + scale[:, None, None]),
                lambda items, a: isometry_defect(a, eye, eye) + (items == 1),
                np.array([0.5, 0.5]), np.array([0.25, 0.25]))


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
        stacks = []
        for parts in zip(*draws):
            stack = np.zeros((len(ks), max(ks), dim, dim), dtype=np.complex128)
            for item, part in zip(stack, parts):
                item[max(ks) - len(part):] = part
            stacks.append(stack)
        family, base = instances(*stacks, np.array(deltas), np.array(ks))
        for i, (k, delta) in enumerate(zip(ks, deltas)):
            expected_family, expected_base = builder(item_rng, dim, k, delta)
            assert np.array(expected_family).tobytes() == family[i, max(ks) - k:].tobytes()
            assert np.array(expected_base).tobytes() == base[i, max(ks) - k:].tobytes()
            assert not family[i, :max(ks) - k].any()
        assert stacked_rng.bit_generator.state == item_rng.bit_generator.state
