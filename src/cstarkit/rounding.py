"""Rounding of almost-structures to exact ones with quantitative guarantees.

Each ``round_to_*`` function checks a closeness hypothesis sized by
``stability_modulus`` and then produces an exactly-structured output (up to
the algebraic tolerance) within the requested distance.  The moduli are
dyadic rationals sitting strictly inside the admissible ranges

    unitary           delta <= eps/2          (needs delta < eps)
    projection        delta <= eps^2/16       (needs 0 < delta < eps^2/8)
    partial_isometry  delta <= 2^-17 eps^8    (needs delta < 2^-16 eps^8)
    povm, pvm         delta <= eps^2/64

so a defect within the modulus always satisfies the underlying hypothesis
with room to spare.  The ``*_defect`` functions measure both the
hypotheses and the exactness residuals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import largest_pow2_leq
from .errors import HypothesisError
from .operators import (DEFAULT_TOL, Tolerance, as_operator, dagger, herm_part,
                        _ordered_sum, hermitian_eig, identity_like, op_norm,
                        op_norms, polar_unitary)

ROUNDING_KINDS = ("unitary", "projection", "partial_isometry", "povm", "pvm")

# round_to_pvm entry budget and per-stage drift gate (see round_to_pvm)
PVM_ENTRY_BUDGET = Fraction(1, 256)
PVM_STAGE_GATE = 0.125


@dataclass(frozen=True)
class RoundingReport:
    """What a rounding did: hypothesis size, movement, and exactness.

    For family-valued roundings the distance and residual are maxima over
    the family members.
    """

    input_defect: float
    output_distance: float
    exactness_residual: float


def stability_modulus(kind: str, eps: float) -> Fraction:
    """Admissible input defect for rounding `kind` to within eps.

    Returns the largest power of two below half (or the squared/8th-power
    scaling of) the guaranteeing bound, as an exact dyadic rational.
    Defined on eps in (0, 1]; the rounding operations themselves demand a
    strict eps < 1.
    """
    if kind not in ROUNDING_KINDS:
        raise ValueError(f"unknown rounding kind {kind!r}; expected one of {ROUNDING_KINDS}")
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    e = Fraction(eps)
    if kind == "unitary":
        bound = e / 2
    elif kind == "projection":
        bound = e * e / 16
    elif kind == "partial_isometry":
        bound = e ** 8 / 2 ** 17
    else:  # povm, pvm
        bound = e * e / 64
    return largest_pow2_leq(bound)


def _check(kind: str, eps: float, defect: float) -> float:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    delta = float(stability_modulus(kind, eps))
    if defect > delta:
        raise HypothesisError(f"input is not {kind}-roundable at eps={eps}",
                              defect=defect, bound=delta)
    return delta


def isometry_defect(a, p1, p2) -> float:
    """max(|a^H a - p1|, |a a^H - p2|); with p1 = p2 = 1, the unitary defect."""
    a = as_operator(a)
    return max(op_norm(dagger(a) @ a - p1), op_norm(a @ dagger(a) - p2))


def projection_defect(a) -> float:
    """max(|a - a^H|, |a^2 - a|)."""
    a = as_operator(a)
    return max(op_norm(a - dagger(a)), op_norm(a @ a - a))


def pvm_defect(mats) -> float:
    """|sum A_i - 1| joined with the projection defect of every member."""
    family = _family(mats)
    members = op_norms(np.concatenate([family - dagger(family), family @ family - family]))
    return max(float(_sum_defect(family)), float(members.max()))


def _family(mats) -> np.ndarray:
    """The members as one (k, d, d) stack, after as_operator's checks on each."""
    family = [as_operator(m) for m in mats]
    if not family:
        raise ValueError("empty family")
    dim = family[0].shape[0]
    if any(m.shape[0] != dim for m in family):
        raise ValueError("family members must share one dimension")
    return np.array(family)


def _step_at_half(w: np.ndarray) -> np.ndarray:
    return (w >= 0.5).astype(float)


def round_to_unitary(a, eps: float, tol: Tolerance = DEFAULT_TOL):
    """Round an almost-unitary to the unitary polar factor.

    Hypothesis: isometry_defect(a, 1, 1) within the unitary modulus.
    Returns (u, report) with |a - u| < eps and u exactly unitary.
    """
    a = as_operator(a)
    eye = identity_like(a)
    defect = isometry_defect(a, eye, eye)
    _check("unitary", eps, defect)
    u = polar_unitary(a, tol)
    return u, _report(defect, op_norm(a - u), op_norm(dagger(u) @ u - eye), eps, tol)


def round_to_projection(a, eps: float, tol: Tolerance = DEFAULT_TOL):
    """Round an almost-projection (|a| <= 2) to a spectral projection.

    Hypothesis: projection_defect(a) within the projection modulus.
    The Hermitian part then has spectrum clustered near {0, 1}; cutting at
    1/2 lands on an exact projection within eps of a.
    """
    a = as_operator(a)
    norm_a = op_norm(a)
    if norm_a > 2.0:
        raise HypothesisError(f"almost-projection must satisfy |a| <= 2, got {norm_a:.6f}")
    defect = projection_defect(a)
    _check("projection", eps, defect)
    p = hermitian_eig(herm_part(a), tol).apply(_step_at_half)
    return p, _report(defect, op_norm(a - p), projection_defect(p), eps, tol)


def _isometry_cut(a, p1, p2, cut: float, tol: Tolerance) -> np.ndarray:
    """Partial-isometry construction: compress to the corners, then rescale.

    b = p2 a p1 has b^H b supported in ran(p1) with spectrum split around
    `cut`; w = b f(b^H b) with f = 0 below the cut and t^(-1/2) above is a
    partial isometry from ran(p1) onto ran(p2).
    """
    b = p2 @ a @ p1
    spec = hermitian_eig(herm_part(dagger(b) @ b), tol)
    return b @ spec.apply(lambda w: np.where(w > cut, 1.0 / np.sqrt(np.maximum(w, cut)), 0.0))


def round_to_partial_isometry(a, p1, p2, eps: float, tol: Tolerance = DEFAULT_TOL):
    """Round a to a partial isometry w with w^H w = p1 and w w^H = p2.

    p1, p2 must be exact projections (within tolerance); the hypothesis is
    isometry_defect(a, p1, p2) within the partial-isometry modulus.
    """
    a = as_operator(a)
    p1 = as_operator(p1)
    p2 = as_operator(p2)
    if a.shape != p1.shape or a.shape != p2.shape:
        raise ValueError("a, p1, p2 must share one dimension")
    for name, p in (("p1", p1), ("p2", p2)):
        resid = projection_defect(p)
        if resid > tol.algebraic:
            raise ValueError(f"{name} is not a projection within tolerance: residual {resid:.6e}")
    defect = isometry_defect(a, p1, p2)
    delta = _check("partial_isometry", eps, defect)
    gamma = 7.0 * delta ** 0.25
    w = _isometry_cut(a, p1, p2, gamma, tol)
    return w, _report(defect, op_norm(a - w), isometry_defect(w, p1, p2), eps, tol)


def povm_defect(mats, tol: Tolerance = DEFAULT_TOL) -> float:
    """How far a family is from being a POVM.

    max over i of the distance from A_i to the positive cone (measured
    through the positive part of the Hermitian part, a computable surrogate
    for the cone distance) joined with |sum A_i - 1|.
    """
    return float(_povm_parts(_family(mats), tol)[0])


def _pymax(a, b):
    """Elementwise max(a, b) as Python's max picks: b only where b > a."""
    return np.where(b > a, b, a)


def _sum_defect(stack: np.ndarray) -> np.ndarray:
    """|sum_i A_i - 1| per (k, d, d) family of a (..., k, d, d) stack."""
    return op_norms(_ordered_sum(stack, -3) - np.eye(stack.shape[-1]))


def _povm_parts(stack: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """(povm_defect, positive parts of the Hermitian parts) of a (..., k, d, d) stack; one eig."""
    positives = hermitian_eig(herm_part(stack), tol).apply(lambda w: np.maximum(w, 0.0))
    cone = op_norms(stack - positives).max(axis=-1)
    return _pymax(cone, _sum_defect(stack)), positives


def _povm_residual(stack: np.ndarray) -> np.ndarray:
    """max(|sum A_i - 1|, -min eig A_i) per family of a (..., k, d, d) stack."""
    min_eig = np.linalg.eigvalsh(herm_part(stack))[..., 0].min(axis=-1)
    return _pymax(_sum_defect(stack), np.where(-min_eig > 0.0, -min_eig, 0.0))


def povm_residual(mats) -> float:
    """Exactness residual of a POVM: max(|sum A_i - 1|, -min eig A_i)."""
    return float(_povm_residual(_family(mats)))


def _repair_povms(stack: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, ...]:
    """Round each (k, d, d) family of a (..., k, d, d) stack to an exact POVM.

    Returns (rounded, refused, defect, low, residual) per family.  Refused
    families (defect >= 1/2, or low = min eig of the positive-part sum S <=
    tol.spectral) are masked out before S^(-1/2), raise nothing and hold
    meaningless rounded slots; an accepted one missing exactness raises.
    """
    defect, positives = _povm_parts(stack, tol)
    far = defect >= 0.5
    eye = np.eye(stack.shape[-1])
    spec = hermitian_eig(np.where(far[..., None, None], eye, _ordered_sum(positives, -3)), tol)
    low = spec.eigenvalues[..., 0]
    refused = far | (low <= tol.spectral)
    root = spec.apply(lambda w: np.where(refused[..., None], 1.0, w) ** -0.5)[..., None, :, :]
    rounded = herm_part(root @ positives @ root)
    residual = np.where(refused, 0.0, _povm_residual(rounded))
    _check_exact(float(residual.max(initial=0.0)), tol)
    return rounded, refused, defect, low, residual


def round_to_povm(mats, tol: Tolerance = DEFAULT_TOL):
    """Round a family with povm_defect < 1/2 to an exact POVM.

    Positive parts are renormalized by the inverse square root of their sum
    S; S ⪰ (1 - defect)·1 ⪰ 1/2 keeps the rescale well defined, and the
    output sums to the identity by construction.
    """
    family = _family(mats)
    rounded, refused, defect, low, residual = _repair_povms(family, tol)
    if defect >= 0.5:
        raise HypothesisError("family is too far from a POVM",
                              defect=float(defect), bound=0.5)
    if refused:
        raise HypothesisError(
            f"positive-part sum is singular within tolerance: smallest eigenvalue "
            f"{float(low):.6e}")
    return list(rounded), _report(float(defect), float(op_norms(family - rounded).max()),
                                  float(residual), None, tol)


def round_to_pvm(mats, tol: Tolerance = DEFAULT_TOL):
    """Round almost-projections that almost sum to 1 into an exact PVM.

    Entry hypothesis: every family member is an almost-projection and the
    family almost sums to the identity, all within 2^-8.  Blocks are rounded
    one at a time inside the corner left by the previous ones; the final
    block is the remaining corner identity, so the output sums to 1 exactly.
    """
    family = _family(mats)
    eye = np.eye(family.shape[-1], dtype=np.complex128)
    defect = pvm_defect(family)
    budget = float(PVM_ENTRY_BUDGET)
    if defect > budget:
        raise HypothesisError("family is too far from a PVM", defect=defect, bound=budget)
    remaining = eye
    blocks: list[np.ndarray] = []
    for i, m in enumerate(family[:-1]):
        c = remaining @ m @ remaining
        stage_defect = projection_defect(c)
        if stage_defect > PVM_STAGE_GATE:
            raise HypothesisError("compressed block drifted out of the projection cluster",
                                  defect=stage_defect, bound=PVM_STAGE_GATE,
                                  stage=f"block {i}")
        q = hermitian_eig(herm_part(c), tol).apply(_step_at_half)
        blocks.append(q)
        # re-cut the corner so float drift cannot accumulate across stages
        remaining = hermitian_eig(herm_part(remaining - q), tol).apply(_step_at_half)
    blocks.append(remaining)
    stack = np.array(blocks)
    i, j = np.triu_indices(len(blocks), 1)
    resid = max(pvm_defect(blocks), float(op_norms(stack[i] @ stack[j]).max(initial=0.0)))
    return blocks, _report(defect, float(op_norms(family - stack).max()), resid, None, tol)


def _check_exact(residual: float, tol: Tolerance) -> None:
    # unreachable once a hypothesis passed; fail loudly rather than break the contract
    if residual > tol.algebraic:
        raise ArithmeticError(f"rounding missed exactness: residual {residual:.3e}")


def _report(input_defect: float, output_distance: float, exactness_residual: float,
            eps: float | None, tol: Tolerance) -> RoundingReport:
    """The report of a rounding whose output is exact and, given eps, moved less than eps."""
    _check_exact(exactness_residual, tol)
    if eps is not None and not output_distance < eps:
        raise ArithmeticError(f"rounding moved too far: {output_distance:.6f} >= {eps}")
    return RoundingReport(input_defect, output_distance, exactness_residual)
