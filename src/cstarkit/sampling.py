"""Seeded random matrix structures and admissible near-structure instances.

Everything takes an explicit ``numpy.random.Generator`` so identical seeds
reproduce identical draws.  The ``almost_*_instance`` builders measure their
own defects and shrink the perturbation until the requested hypothesis holds,
so callers can rely on admissibility by construction.
"""
from __future__ import annotations

import numpy as np

from .operators import _ordered_sum, dagger, herm_part, op_norm
from .rounding import (isometry_defect, povm_defect, projection_defect,
                       pvm_defect)


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
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = herm_part(g)
    scale = op_norm(h)
    return h * (norm / scale) if scale > 0 else h


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


def _shrink(build, measure, budget: float, start_scale: float):
    """Deterministically shrink a perturbation until the defect fits."""
    scale = start_scale
    for _ in range(60):
        candidate = build(scale)
        if measure(candidate) <= budget:
            return candidate
        scale /= 2
    raise ArithmeticError("perturbation failed to shrink under the budget")


def almost_unitary_instance(rng: np.random.Generator, dim: int, delta: float):
    """(a, u0): a within the unitary hypothesis at delta, u0 the seed unitary."""
    u = random_unitary(rng, dim)
    h = random_hermitian(rng, dim, norm=1.0)
    eye = np.eye(dim)

    def build(scale):
        return u @ (eye + scale * h)

    return _shrink(build, lambda a: isometry_defect(a, eye, eye), delta, delta / 4), u


def almost_projection_instance(rng: np.random.Generator, dim: int, delta: float):
    """(a, p0): a within the projection hypothesis at delta (and |a| <= 2)."""
    p = random_projection(rng, dim, rank=int(rng.integers(1, dim)) if dim > 1 else 1)
    h = random_hermitian(rng, dim, norm=1.0)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    skew = (g - dagger(g)) / 2
    skew = skew / max(op_norm(skew), 1e-300)

    def build(scale):
        return p + scale * h + scale * skew

    return _shrink(build, projection_defect, delta, delta / 8), p


def almost_partial_isometry_instance(rng: np.random.Generator, dim: int, delta: float):
    """(a, v0, p1, p2): a within the partial-isometry hypothesis at delta."""
    rank = int(rng.integers(1, dim + 1))
    u1 = random_unitary(rng, dim)
    u2 = random_unitary(rng, dim)
    v = u2[:, :rank] @ dagger(u1[:, :rank])
    p1 = u1[:, :rank] @ dagger(u1[:, :rank])
    p2 = u2[:, :rank] @ dagger(u2[:, :rank])
    e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    e = e / op_norm(e)

    def build(scale):
        return v + scale * e

    return _shrink(build, lambda a: isometry_defect(a, p1, p2), delta, delta / 4), v, p1, p2


def _almost_family(rng: np.random.Generator, base: list, measure, delta: float,
                   start_scale: float):
    """(family, base): base plus one shrinking Hermitian bump per member, measure <= delta."""
    dim = base[0].shape[0]
    bumps = [random_hermitian(rng, dim, norm=1.0) for _ in base]

    def build(scale):
        return [b + scale * h for b, h in zip(base, bumps)]

    return _shrink(build, measure, delta, start_scale), base


def almost_povm_instance(rng: np.random.Generator, dim: int, k: int, delta: float):
    """(family, base): family within povm_defect <= delta of the exact base."""
    return _almost_family(rng, random_povm(rng, dim, k), povm_defect, delta, delta / (2 * k))


def almost_pvm_instance(rng: np.random.Generator, dim: int, k: int, delta: float):
    """(family, base): family within the PVM entry hypothesis at delta."""
    return _almost_family(rng, random_pvm(rng, dim, k), pvm_defect, delta, delta / (4 * k))
