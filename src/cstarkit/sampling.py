"""Seeded random matrix structures and admissible near-structure instances.

Everything takes an explicit ``numpy.random.Generator`` so identical seeds
reproduce identical draws.  The ``almost_*_instance`` builders measure their
own defects and shrink the perturbation until the requested hypothesis holds,
so callers can rely on admissibility by construction.

Each builder is a draw followed by a stacked finish, as the presentation
catalog's ``draw``/``finish`` rows are: ``_draw_*`` takes only raw random
numbers (ranks, PVM labels, and each Ginibre, Gram or bump matrix as its
(2, d, d) normal parts), and ``_*_instances`` builds the exact structures of
a stack of such draws at once (``_ginibre`` alone forms the complex matrices,
one QR per stack of Haar unitaries, one Gram ``eigh`` per outcome count, rank
projections per rank), then normalizes and shrinks the perturbations, one
item per draw, with one delta per item.  A builder is the two steps on a
stack of one draw, so drawing n instances in order and finishing them
together gives the builder's n results bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError, integral
# op_norm is unused here but stays bound: perfbench's test_rebinding_is_undone
# checks that tracing rebinds cstarkit.sampling.op_norm
from .operators import (DEFAULT_TOL, Tolerance, _ordered_sum, dagger,  # noqa: F401
                        herm_part, op_norm, op_norms)
from .rounding import (ROUNDING_KINDS, _povm_parts, _pvm_defects, _pymax,
                       _round_partial_isometries, _round_povms, _round_projections,
                       _round_pvms, _round_unitaries, isometry_defect,
                       projection_defect, stability_modulus)

_SUITE_EPS = (0.5, 0.25, 0.125)
# instances per eps cell that perturbation_suite draws and rounds together
_SUITE_BLOCK = 32
# entries a perturbation_suite stack of base matrices (or base families) holds
# at most: large matrices gain little from stacking, and bounded stacks keep the
# peak memory of a run near that of rounding one instance at a time
_SUITE_STACK_ENTRIES = 2048


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    return _haar_unitaries(_draw_ginibre(rng, integral(dim, "dim", 1)))


def _draw_ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Ginibre matrix's (2, d, d) normal parts: the real parts, then the imaginary parts."""
    return rng.normal(size=(2, dim, dim))


def _ginibre(parts: np.ndarray) -> np.ndarray:
    """Complex Gaussian matrices from a (..., 2, d, d) stack of real, then imaginary parts."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def _haar_unitaries(parts: np.ndarray) -> np.ndarray:
    """random_unitary over a (..., 2, d, d) stack of Ginibre parts: one QR, phases fixed."""
    q, r = np.linalg.qr(_ginibre(parts))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_projection(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    dim = integral(dim, "dim", 1)
    rank = int(rng.integers(0, dim + 1)) if rank is None else integral(rank, "rank", 0, dim)
    return _rank_projections(random_unitary(rng, dim)[None], np.array([rank]))[0]


def _rank_projections(u: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """random_projection over a (..., d, d) stack of unitaries and a (...) stack of ranks.

    Each projection is onto the span of its unitary's first `rank` columns.
    """
    return _rank_products(u, u, ranks)


def _rank_products(left: np.ndarray, right: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """left[:, :r] right[:, :r]^H per item of two (..., d, d) stacks, r the item's rank.

    One product per rank over all items of that rank.
    """
    out = np.empty_like(left)
    # a set, not np.unique: the first np.unique call of a process adds 1.7 MB to
    # its peak RSS (numpy 2.4)
    for rank in set(np.ravel(ranks).tolist()):
        at = ranks == rank
        out[at] = left[at][..., :rank] @ dagger(right[at][..., :rank])
    return out


def random_hermitian(rng: np.random.Generator, dim: int, norm: float = 1.0) -> np.ndarray:
    dim = integral(dim, "dim", 1)
    if not 0 <= norm < math.inf:
        raise PreconditionError(f"norm must be nonnegative and finite, got {norm!r}")
    return _hermitians(_draw_ginibre(rng, dim)[None], norm)[0]


def _hermitians(parts: np.ndarray, norm: float = 1.0) -> np.ndarray:
    """random_hermitian over a (..., 2, d, d) stack of Ginibre parts.

    Each Hermitian part is scaled to operator norm `norm`; zero stays zero.
    """
    h = herm_part(_ginibre(parts))
    scale = op_norms(h)[..., None, None]
    return np.where(scale > 0, h * (norm / np.where(scale > 0, scale, 1.0)), h)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = _ginibre(_draw_ginibre(rng, integral(dim, "dim", 1)))
    rho = g @ dagger(g)
    return rho / float(np.trace(rho).real)


def _instance_dim(dim, delta, k: int = 1) -> int:
    """An almost_*_instance's dim as a Python int, once dim, k and delta are checked.

    PreconditionError unless dim and k are integers of at least 1 and delta
    is positive and finite, before any random number is drawn.
    """
    dim = integral(dim, "dim", 1)
    integral(k, "k", 1)
    if not 0 < delta < math.inf:
        raise PreconditionError(f"delta must be positive and finite, got {delta!r}")
    return dim


def random_povm(rng: np.random.Generator, dim: int, k: int) -> list[np.ndarray]:
    """Exact POVM from a ridge-regularized Gram construction."""
    dim, k = integral(dim, "dim", 1), integral(k, "k", 1)
    return list(_gram_povms(rng.normal(size=(k, 2, dim, dim))))


def _gram_povms(normals: np.ndarray) -> np.ndarray:
    """random_povm's S^-1/2 A_i S^-1/2 per family, A_i = G_i G_i^H / d + 0.1, S = sum_i A_i.

    normals is a (..., k, 2, d, d) stack: the real and imaginary parts of each G_i.
    """
    dim = normals.shape[-1]
    g = _ginibre(normals)
    raw = g @ dagger(g) / dim + 0.1 * np.eye(dim)
    w, v = np.linalg.eigh(herm_part(_ordered_sum(raw, -3)))
    root = ((v * (w ** -0.5)[..., None, :]) @ dagger(v))[..., None, :, :]
    return herm_part(root @ raw @ root)


def _gram_bases(normals: np.ndarray, members: np.ndarray) -> np.ndarray:
    """random_povm's bases from an (n, k, 2, d, d) stack of normals: (n, k, d, d) families.

    Family i is made of its last members[i] normals, one _gram_povms call
    per outcome count; its k - members[i] members in front are padding and
    come out zero.
    """
    k = normals.shape[1]
    base = np.zeros(normals.shape[:2] + normals.shape[-2:], np.complex128)
    for count in set(members.tolist()):
        at = members == count
        base[at, k - count:] = _gram_povms(normals[at, k - count:])
    return base


def random_pvm(rng: np.random.Generator, dim: int, k: int) -> list[np.ndarray]:
    """Exact PVM: a random unitary conjugate of a basis partition."""
    dim, k = integral(dim, "dim", 1), integral(k, "k", 1)
    labels = rng.integers(0, k, size=dim)
    u = random_unitary(rng, dim)
    return list(_pvm_bases(labels[None], u[None], np.array([k]), k)[0])


def _pvm_bases(labels: np.ndarray, u: np.ndarray, members: np.ndarray, k: int) -> np.ndarray:
    """random_pvm over (n, d) labels and (n, d, d) unitaries: (n, k, d, d) families.

    Family i's block b is u diag(labels == b) u^H, for b < members[i]; its
    k - members[i] members in front are padding and come out zero.
    """
    n, dim = labels.shape
    # each slot's block index; the padding's are negative and match no label
    blocks = np.arange(k) - (k - members)[:, None]
    diags = np.zeros((n, k, dim, dim), np.complex128)
    diags[..., np.arange(dim), np.arange(dim)] = labels[:, None, :] == blocks[..., None]
    base = u[:, None] @ diags @ dagger(u)[:, None]
    base[blocks < 0] = 0
    return base


def _shrink(build, measure, budget: np.ndarray, start: np.ndarray) -> tuple:
    """Deterministically shrink each item's perturbation until its defect fits.

    build(items, scales) stacks the candidates of the listed items at those
    scales and measure(items, candidates) gives their defects, or a tuple
    led by them; only the items whose defect is still above their budget
    are halved and rebuilt.  Returns each item's output and its last (the
    fitting) measurement, for a rounding core to gate on; each _*_instances
    returns these two, then the exact structures drawn.
    """
    scale = np.array(start, dtype=float)
    items = np.arange(len(scale))
    kept = None
    for _ in range(60):
        candidates = build(items, scale[items])
        measured = measure(items, candidates)
        parts = (candidates, *measured) if isinstance(measured, tuple) else (candidates, measured)
        if kept is None:
            kept, last = parts, measured  # last shares kept's arrays, so it sees their updates
        else:
            for whole, part in zip(kept, parts):
                whole[items] = part
        items = items[~(parts[1] <= budget[items])]
        if not len(items):
            return kept[0], last
        scale[items] /= 2
    raise ArithmeticError("perturbation failed to shrink under the budget")


def _single(draw: tuple) -> list:
    """A single draw as a stack of one item."""
    return [np.asarray(part)[None] for part in draw]


def almost_unitary_instance(rng: np.random.Generator, dim: int, delta: float):
    """(a, u0): a within the unitary hypothesis at delta, u0 the seed unitary."""
    dim = _instance_dim(dim, delta)
    a, _, u = _unitary_instances(*_single(_draw_unitary(rng, dim)), np.array([delta]))
    return a[0], u[0]


def _draw_unitary(rng: np.random.Generator, dim: int) -> tuple:
    return _draw_ginibre(rng, dim), _draw_ginibre(rng, dim)


def _unitary_instances(z: np.ndarray, h: np.ndarray, delta: np.ndarray):
    """almost_unitary_instance over (n, 2, d, d) stacks of Ginibre parts: seeds, then bumps."""
    u = _haar_unitaries(z)
    h = _hermitians(h)
    eye = np.eye(u.shape[-1])

    def build(items, scale):
        return u[items] @ (eye + scale[:, None, None] * h[items])

    return _shrink(build, lambda items, a: isometry_defect(a, eye, eye), delta, delta / 4) + (u,)


def almost_projection_instance(rng: np.random.Generator, dim: int, delta: float):
    """(a, p0): a within the projection hypothesis at delta (and |a| <= 2)."""
    dim = _instance_dim(dim, delta)
    a, _, p = _projection_instances(*_single(_draw_projection(rng, dim)), np.array([delta]))
    return a[0], p[0]


def _draw_projection(rng: np.random.Generator, dim: int) -> tuple:
    rank = int(rng.integers(1, dim)) if dim > 1 else 1
    return rank, _draw_ginibre(rng, dim), _draw_ginibre(rng, dim), _draw_ginibre(rng, dim)


def _projection_instances(ranks: np.ndarray, z: np.ndarray, h: np.ndarray, g: np.ndarray,
                          delta: np.ndarray):
    """almost_projection_instance over (n,) ranks and (n, 2, d, d) stacks of Ginibre parts."""
    p = _rank_projections(_haar_unitaries(z), ranks)
    h = _hermitians(h)
    g = _ginibre(g)
    skew = (g - dagger(g)) / 2
    skew = skew / _pymax(op_norms(skew), 1e-300)[:, None, None]

    def build(items, scale):
        scale = scale[:, None, None]
        return p[items] + scale * h[items] + scale * skew[items]

    return _shrink(build, lambda items, a: projection_defect(a), delta, delta / 8) + (p,)


def almost_partial_isometry_instance(rng: np.random.Generator, dim: int, delta: float):
    """(a, v0, p1, p2): a within the partial-isometry hypothesis at delta."""
    dim = _instance_dim(dim, delta)
    a, _, v, p1, p2 = _partial_isometry_instances(*_single(_draw_partial_isometry(rng, dim)),
                                                  np.array([delta]))
    return a[0], v[0], p1[0], p2[0]


def _draw_partial_isometry(rng: np.random.Generator, dim: int) -> tuple:
    rank = int(rng.integers(1, dim + 1))
    return rank, _draw_ginibre(rng, dim), _draw_ginibre(rng, dim), _draw_ginibre(rng, dim)


def _partial_isometry_instances(ranks: np.ndarray, z1: np.ndarray, z2: np.ndarray,
                                e: np.ndarray, delta: np.ndarray):
    """almost_partial_isometry_instance over (n,) ranks and (n, 2, d, d) stacks of Ginibre parts.

    v maps the first rank columns of one Haar unitary onto those of another;
    p1 and p2 are its support and range projections.
    """
    u1, u2 = _haar_unitaries(np.array([z1, z2]))
    v = _rank_products(u2, u1, ranks)
    p1, p2 = _rank_projections(u1, ranks), _rank_projections(u2, ranks)
    e = _ginibre(e)
    e = e / op_norms(e)[:, None, None]

    def build(items, scale):
        return v[items] + scale[:, None, None] * e[items]

    def measure(items, a):
        return isometry_defect(a, p1[items], p2[items])

    return _shrink(build, measure, delta, delta / 4) + (v, p1, p2)


def _family_instances(base: np.ndarray, bumps: np.ndarray, measure, delta: np.ndarray,
                      start: np.ndarray) -> tuple:
    """base plus one shrinking unit-norm Hermitian bump per member, per (k, d, d) family.

    Each bump is finished from its member's Ginibre parts.  Families shorter
    than the stack are zero-padded in front; a zero member stays zero and
    changes no family defect (see _povm_instances).
    """
    bumps = _hermitians(bumps)

    def build(items, scale):
        return base[items] + scale[:, None, None, None] * bumps[items]

    return _shrink(build, lambda items, family: measure(family), delta, start)


def almost_povm_instance(rng: np.random.Generator, dim: int, k: int, delta: float):
    """(family, base): family within povm_defect <= delta of the exact base."""
    dim = _instance_dim(dim, delta, k)
    family, _, base = _povm_instances(*_single(_draw_povm(rng, dim, k)), np.array([delta]),
                                      np.array([k]))
    return list(family[0]), list(base[0])


def _draw_povm(rng: np.random.Generator, dim: int, k: int) -> tuple:
    return rng.normal(size=(k, 2, dim, dim)), rng.normal(size=(k, 2, dim, dim))


def _povm_instances(normals: np.ndarray, bumps: np.ndarray, delta: np.ndarray,
                    members: np.ndarray):
    """almost_povm_instance over (n, k, 2, d, d) stacks of draws; measured by _povm_parts.

    Item i has members[i] outcomes, after k - members[i] zero outcomes in
    front.  The member sums start from those zeros, and 0 + x equals the
    x that summing from Python's 0 gives, so the padding moves no bit.
    """
    base = _gram_bases(normals, members)
    return _family_instances(base, bumps, lambda f: _povm_parts(f, DEFAULT_TOL),
                             delta, delta / (2 * members)) + (base,)


def almost_pvm_instance(rng: np.random.Generator, dim: int, k: int, delta: float):
    """(family, base): family within the PVM entry hypothesis at delta."""
    dim = _instance_dim(dim, delta, k)
    family, _, base = _pvm_instances(*_single(_draw_pvm(rng, dim, k)), np.array([delta]),
                                     np.array([k]))
    return list(family[0]), list(base[0])


def _draw_pvm(rng: np.random.Generator, dim: int, k: int) -> tuple:
    return rng.integers(0, k, size=dim), _draw_ginibre(rng, dim), rng.normal(size=(k, 2, dim, dim))


def _pvm_instances(labels: np.ndarray, z: np.ndarray, bumps: np.ndarray, delta: np.ndarray,
                   members: np.ndarray):
    """almost_pvm_instance over (n, d) labels, (n, 2, d, d) Ginibre and (n, k, 2, d, d) bump parts.

    Padded as in _povm_instances.
    """
    base = _pvm_bases(labels, _haar_unitaries(z), members, bumps.shape[1])
    return _family_instances(base, bumps, _pvm_defects, delta, delta / (4 * members)) + (base,)


def perturbation_suite(dims, budget: int, seed: int, tol: Tolerance = DEFAULT_TOL) -> list:
    """(kind, eps, worst_residual, worst_distance) per cell, in ROUNDING_KINDS then eps order.

    Each cell rounds budget seeded almost-instances at the dims >= 2; the first
    refusal in (kind, eps, index) order is raised, so every row returned has passed.
    budget and every dims entry are at least 1, and seed at least 0.
    """
    budget, seed = integral(budget, "budget", 1), integral(seed, "seed", 0)
    dims = np.array([d for d in dims if integral(d, "dims entries", 1) >= 2])
    if not len(dims):
        raise PreconditionError("perturb-suite needs at least one dim >= 2")
    rows = []
    for kind_code, kind in enumerate(ROUNDING_KINDS):
        rngs = [rng_from_seed((seed, kind_code, eps_code))
                for eps_code in range(len(_SUITE_EPS))]
        worst = np.zeros((len(_SUITE_EPS), 2))
        refusals = []
        for first in range(0, budget, _SUITE_BLOCK):
            block_worst, block_refusals = _suite_block(
                kind, rngs, dims, first, min(_SUITE_BLOCK, budget - first), tol)
            worst = np.maximum(worst, block_worst)
            refusals += block_refusals
        if refusals:
            # the error the instance-by-instance order meets first
            raise min(refusals, key=lambda refusal: refusal[0])[1]
        rows += [(kind, eps, residual, distance)
                 for eps, (residual, distance) in zip(_SUITE_EPS, worst.tolist())]
    return rows


def _stacked(parts) -> np.ndarray:
    """One draw part of every item as one stack.

    Family parts, the (k, 2, d, d) ones, are zero-padded in front to the
    longest family.
    """
    if np.ndim(parts[0]) < 4 or len({len(part) for part in parts}) == 1:
        return np.array(parts)
    longest = max(len(part) for part in parts)
    stack = np.zeros((len(parts), longest) + parts[0].shape[1:], parts[0].dtype)
    for item, part in zip(stack, parts):
        item[longest - len(part):] = part
    return stack


def _suite_block(kind: str, rngs: list, dims: np.ndarray, first: int, count: int,
                 tol: Tolerance):
    """Instances first .. first + count - 1 of every eps cell of `kind`, rounded.

    Each cell's stream is drawn in order; then the draws of each dimension
    are finished, shrunk and rounded as one stack, or as a few when its
    base stack would hold more than _SUITE_STACK_ENTRIES entries.  Returns
    the per-cell (residual, distance) maxima, shape (cells, 2), and the
    refusals as ((cell, index), error) pairs.
    """
    groups = {}
    for cell, rng in enumerate(rngs):
        for index in range(first, first + count):
            dim = int(dims[rng.integers(len(dims))])
            k = int(rng.integers(2, 5))
            if kind == "unitary":
                draw = _draw_unitary(rng, dim)
            elif kind == "projection":
                draw = _draw_projection(rng, dim)
            elif kind == "partial_isometry":
                draw = _draw_partial_isometry(rng, dim)
            elif kind == "povm":
                draw = _draw_povm(rng, dim, k)
            else:
                draw = _draw_pvm(rng, dim, k)
            groups.setdefault(dim, []).append(((cell, index), draw))
    worst = np.zeros((len(rngs), 2))
    refusals = []
    for dim in list(groups):
        # popped, so each group's draws are freed once it is rounded
        group = groups.pop(dim)
        # every draw ends in its bumps or perturbation direction, two normals per
        # base entry: d^2 base entries, or k d^2 for a family of k members
        size = max(1, _SUITE_STACK_ENTRIES // max(draw[-1].size // 2 for _, draw in group))
        for start in range(0, len(group), size):
            ids, draws = zip(*group[start:start + size])
            cells = [cell for cell, _ in ids]
            errors, residual, distance = _suite_group(
                kind, draws, [_SUITE_EPS[c] for c in cells], tol)
            refusals += [(i, e) for i, e in zip(ids, errors) if e is not None]
            np.maximum.at(worst, (cells, 0), residual)
            np.maximum.at(worst, (cells, 1), distance)
    return worst, refusals


def _suite_group(kind: str, draws: tuple, eps: list, tol: Tolerance):
    """Finish, shrink and round one dimension's draws as one stack: (errors, residual, distance).

    POVM and PVM families are zero-padded in front to the group's largest
    outcome count, which moves no bit of their rounding.
    """
    stacks = [_stacked(part) for part in zip(*draws)]
    budget = np.array([float(stability_modulus(kind, e)) for e in eps])
    if kind == "unitary":
        a, defect, _ = _unitary_instances(*stacks, budget)
        rounded = _round_unitaries(a, eps, tol, defect)
    elif kind == "projection":
        a, defect, _ = _projection_instances(*stacks, budget)
        rounded = _round_projections(a, eps, tol, defect)
    elif kind == "partial_isometry":
        a, defect, _, p1, p2 = _partial_isometry_instances(*stacks, budget)
        rounded = _round_partial_isometries(a, p1, p2, eps, tol, defect)
    else:
        members = np.array([len(draw[-1]) for draw in draws])
        if kind == "povm":
            family, parts, _ = _povm_instances(*stacks, budget, members)
            rounded = _round_povms(family, tol, parts, eps)
        else:
            family, defect, _ = _pvm_instances(*stacks, budget, members)
            rounded = _round_pvms(family, tol, defect, members, eps)
    return rounded.errors, rounded.residual, rounded.distance
