"""Seeded random matrix structures and admissible near-structure instances.

Everything takes an explicit ``numpy.random.Generator`` so identical seeds
reproduce identical draws.  The ``almost_*_instance`` builders measure their
own defects and shrink the perturbation until the requested hypothesis holds,
so callers can rely on admissibility by construction.

Each builder is a draw followed by a stacked shrink: ``_draw_*`` consumes
the generator and ``_*_instances`` normalizes and shrinks a stack of such
draws, one item per draw, with one delta per item.  A builder is the two
steps on a stack of one draw, so drawing n instances in order and shrinking
them together gives the builder's n results bit for bit.
"""
from __future__ import annotations

import numpy as np

# op_norm is unused here but stays bound: perfbench's test_rebinding_is_undone
# checks that tracing rebinds cstarkit.sampling.op_norm
from .operators import (DEFAULT_TOL, _ordered_sum, dagger, herm_part,  # noqa: F401
                        op_norm, op_norms)
from .rounding import (_povm_parts, _pvm_defects, _pymax, isometry_defect,
                       projection_defect)


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_projection(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    if not 0 <= rank <= dim:
        raise ValueError(f"rank must lie in [0, {dim}], got {rank}")
    u = random_unitary(rng, dim)
    cols = u[:, :rank]
    return cols @ dagger(cols)


def random_hermitian(rng: np.random.Generator, dim: int, norm: float = 1.0) -> np.ndarray:
    return _scaled(_draw_hermitians(rng, dim, 1)[0], norm)


def _draw_hermitians(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """random_hermitian's draw, count times: Hermitian parts of complex Gaussian matrices.

    One normal call of shape (count, 2, d, d) gives the numbers that 2 count
    calls of shape (d, d) give, in the same order.
    """
    g = rng.normal(size=(count, 2, dim, dim))
    return herm_part(g[:, 0] + 1j * g[:, 1])


def _scaled(h: np.ndarray, norm: float) -> np.ndarray:
    """Each matrix of a (..., d, d) stack scaled to operator norm `norm`; zero stays zero."""
    scale = op_norms(h)[..., None, None]
    return np.where(scale > 0, h * (norm / np.where(scale > 0, scale, 1.0)), h)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / float(np.trace(rho).real)


def random_povm(rng: np.random.Generator, dim: int, k: int) -> list[np.ndarray]:
    """Exact POVM from a ridge-regularized Gram construction."""
    if k < 1:
        raise ValueError(f"need at least one outcome, got {k}")
    return list(_gram_povms(rng.normal(size=(k, 2, dim, dim))))


def _gram_povms(normals: np.ndarray) -> np.ndarray:
    """random_povm's S^-1/2 A_i S^-1/2 per family, A_i = G_i G_i^H / d + 0.1, S = sum_i A_i.

    normals is a (..., k, 2, d, d) stack: the real and imaginary parts of each G_i.
    """
    dim = normals.shape[-1]
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    raw = g @ dagger(g) / dim + 0.1 * np.eye(dim)
    w, v = np.linalg.eigh(herm_part(_ordered_sum(raw, -3)))
    root = ((v * (w ** -0.5)[..., None, :]) @ dagger(v))[..., None, :, :]
    return herm_part(root @ raw @ root)


def random_pvm(rng: np.random.Generator, dim: int, k: int) -> list[np.ndarray]:
    """Exact PVM: a random unitary conjugate of a basis partition."""
    if k < 1:
        raise ValueError(f"need at least one outcome, got {k}")
    labels = rng.integers(0, k, size=dim)
    u = random_unitary(rng, dim)
    blocks = []
    for block in range(k):
        diag = np.diag((labels == block).astype(np.complex128))
        blocks.append(u @ diag @ dagger(u))
    return blocks


def _shrink(build, measure, budget: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Deterministically shrink each item's perturbation until its defect fits.

    build(items, scales) stacks the candidates of the listed items at those
    scales and measure(items, candidates) gives their defects; only the
    items whose defect is still above their budget are halved and rebuilt.
    """
    scale = np.array(start, dtype=float)
    items = np.arange(len(scale))
    out = None
    for _ in range(60):
        candidates = build(items, scale[items])
        if out is None:
            out = candidates
        else:
            out[items] = candidates
        items = items[~(measure(items, candidates) <= budget[items])]
        if not len(items):
            return out
        scale[items] /= 2
    raise ArithmeticError("perturbation failed to shrink under the budget")


def _single(draw: tuple) -> list:
    """A single draw as a stack of one item."""
    return [part[None] for part in draw]


def almost_unitary_instance(rng: np.random.Generator, dim: int, delta: float):
    """(a, u0): a within the unitary hypothesis at delta, u0 the seed unitary."""
    a, u = _unitary_instances(*_single(_draw_unitary(rng, dim)), np.array([delta]))
    return a[0], u[0]


def _draw_unitary(rng: np.random.Generator, dim: int) -> tuple:
    return random_unitary(rng, dim), _draw_hermitians(rng, dim, 1)[0]


def _unitary_instances(u: np.ndarray, h: np.ndarray, delta: np.ndarray):
    """almost_unitary_instance over (n, d, d) stacks of draws."""
    h = _scaled(h, 1.0)
    eye = np.eye(u.shape[-1])

    def build(items, scale):
        return u[items] @ (eye + scale[:, None, None] * h[items])

    a = _shrink(build, lambda items, a: isometry_defect(a, eye, eye), delta, delta / 4)
    return a, u


def almost_projection_instance(rng: np.random.Generator, dim: int, delta: float):
    """(a, p0): a within the projection hypothesis at delta (and |a| <= 2)."""
    a, p = _projection_instances(*_single(_draw_projection(rng, dim)), np.array([delta]))
    return a[0], p[0]


def _draw_projection(rng: np.random.Generator, dim: int) -> tuple:
    p = random_projection(rng, dim, rank=int(rng.integers(1, dim)) if dim > 1 else 1)
    h = _draw_hermitians(rng, dim, 1)[0]
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return p, h, (g - dagger(g)) / 2


def _projection_instances(p: np.ndarray, h: np.ndarray, skew: np.ndarray, delta: np.ndarray):
    """almost_projection_instance over (n, d, d) stacks of draws."""
    h = _scaled(h, 1.0)
    skew = skew / _pymax(op_norms(skew), 1e-300)[:, None, None]

    def build(items, scale):
        scale = scale[:, None, None]
        return p[items] + scale * h[items] + scale * skew[items]

    return _shrink(build, lambda items, a: projection_defect(a), delta, delta / 8), p


def almost_partial_isometry_instance(rng: np.random.Generator, dim: int, delta: float):
    """(a, v0, p1, p2): a within the partial-isometry hypothesis at delta."""
    a, v, p1, p2 = _partial_isometry_instances(*_single(_draw_partial_isometry(rng, dim)),
                                               np.array([delta]))
    return a[0], v[0], p1[0], p2[0]


def _draw_partial_isometry(rng: np.random.Generator, dim: int) -> tuple:
    rank = int(rng.integers(1, dim + 1))
    u1 = random_unitary(rng, dim)
    u2 = random_unitary(rng, dim)
    v = u2[:, :rank] @ dagger(u1[:, :rank])
    p1 = u1[:, :rank] @ dagger(u1[:, :rank])
    p2 = u2[:, :rank] @ dagger(u2[:, :rank])
    e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return v, p1, p2, e


def _partial_isometry_instances(v: np.ndarray, p1: np.ndarray, p2: np.ndarray, e: np.ndarray,
                                delta: np.ndarray):
    """almost_partial_isometry_instance over (n, d, d) stacks of draws."""
    e = e / op_norms(e)[:, None, None]

    def build(items, scale):
        return v[items] + scale[:, None, None] * e[items]

    def measure(items, a):
        return isometry_defect(a, p1[items], p2[items])

    return _shrink(build, measure, delta, delta / 4), v, p1, p2


def _family_instances(base: np.ndarray, bumps: np.ndarray, measure, delta: np.ndarray,
                      start: np.ndarray) -> np.ndarray:
    """base plus one shrinking unit-norm Hermitian bump per member, per (k, d, d) family.

    Families shorter than the stack are zero-padded in front; a zero member
    stays zero and changes no family defect (see _povm_instances).
    """
    bumps = _scaled(bumps, 1.0)

    def build(items, scale):
        return base[items] + scale[:, None, None, None] * bumps[items]

    return _shrink(build, lambda items, family: measure(family), delta, start)


def almost_povm_instance(rng: np.random.Generator, dim: int, k: int, delta: float):
    """(family, base): family within povm_defect <= delta of the exact base."""
    family, base = _povm_instances(*_single(_draw_povm(rng, dim, k)), np.array([delta]),
                                   np.array([k]))
    return list(family[0]), list(base[0])


def _draw_povm(rng: np.random.Generator, dim: int, k: int) -> tuple:
    return np.array(random_povm(rng, dim, k)), _draw_hermitians(rng, dim, k)


def _povm_instances(base: np.ndarray, bumps: np.ndarray, delta: np.ndarray,
                    members: np.ndarray):
    """almost_povm_instance over (n, k, d, d) stacks of draws.

    Item i has members[i] outcomes, after k - members[i] zero outcomes in
    front.  The member sums start from those zeros, and 0 + x equals the
    x that summing from Python's 0 gives, so the padding moves no bit.
    """
    family = _family_instances(base, bumps, lambda f: _povm_parts(f, DEFAULT_TOL)[0],
                               delta, delta / (2 * members))
    return family, base


def almost_pvm_instance(rng: np.random.Generator, dim: int, k: int, delta: float):
    """(family, base): family within the PVM entry hypothesis at delta."""
    family, base = _pvm_instances(*_single(_draw_pvm(rng, dim, k)), np.array([delta]),
                                  np.array([k]))
    return list(family[0]), list(base[0])


def _draw_pvm(rng: np.random.Generator, dim: int, k: int) -> tuple:
    return np.array(random_pvm(rng, dim, k)), _draw_hermitians(rng, dim, k)


def _pvm_instances(base: np.ndarray, bumps: np.ndarray, delta: np.ndarray,
                   members: np.ndarray):
    """almost_pvm_instance over (n, k, d, d) stacks of draws, padded as in _povm_instances."""
    return _family_instances(base, bumps, _pvm_defects, delta, delta / (4 * members)), base
