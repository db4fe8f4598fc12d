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

Each ``round_to_*`` is a thin wrapper over a private stacked core that
takes an ``(n, d, d)`` stack (``(n, k, d, d)`` for families) with one eps
per item; the wrapper passes its one input as a stack of one.  A core
raises nothing for a refused item: ``_refuse`` records the exception the
per-item rounding raises, and the wrapper raises it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from .dyadic import largest_pow2_leq
from .errors import HypothesisError
# op_norm is unused here but stays bound: perfbench's test_rebinding_is_undone
# checks that tracing rebinds cstarkit.rounding.op_norm
from .operators import (DEFAULT_TOL, Tolerance, _as_stack, _ordered_sum,  # noqa: F401
                        _polar_unitaries, _singular_polar, as_operator, dagger,
                        herm_part, hermitian_eig, op_norm, op_norms)

# the guaranteeing bound of each rounding kind, as a function of exact eps
_BOUNDS = {
    "unitary": lambda e: e / 2,
    "projection": lambda e: e * e / 16,
    "partial_isometry": lambda e: e ** 8 / 2 ** 17,
    "povm": lambda e: e * e / 64,
    "pvm": lambda e: e * e / 64,
}
ROUNDING_KINDS = tuple(_BOUNDS)

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


class _Rounded(NamedTuple):
    """What a stacked rounding core did to each item of its stack.

    out is (n, d, d) or (n, k, d, d); errors holds, per item, None or the
    exception the per-item rounding raises, and out, distance and residual
    are meaningless where it is set.
    """

    out: np.ndarray
    errors: list
    defect: np.ndarray
    distance: np.ndarray
    residual: np.ndarray


@cache
def stability_modulus(kind: str, eps: float) -> Fraction:
    """Admissible input defect for rounding `kind` to within eps.

    Returns the largest power of two at or below the kind's guaranteeing
    bound (see the module docstring), as an exact dyadic rational; eps may
    be a float or an exact Fraction, and each (kind, eps) is computed once.
    Defined on eps in (0, 1]; the rounding operations themselves demand a
    strict eps < 1.
    """
    if kind not in _BOUNDS:
        raise ValueError(f"unknown rounding kind {kind!r}; expected one of {ROUNDING_KINDS}")
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    return largest_pow2_leq(_BOUNDS[kind](Fraction(eps)))


def _refuse(errors: list, mask, error) -> None:
    """Record error(i) for each item i that mask flags and no earlier check refused.

    error(i) may return None, which leaves item i admitted.
    """
    for i in np.flatnonzero(mask):
        if errors[i] is None:
            errors[i] = error(i)


def _cleared(stack: np.ndarray, errors: list) -> np.ndarray:
    """An (n, d, d) stack with its refused matrices zeroed, so later stages cannot overflow."""
    refused = [e is not None for e in errors]
    if not any(refused):
        return stack
    return np.where(np.array(refused)[:, None, None], 0.0, stack)


def _gate(kind: str, eps: list, defect: np.ndarray, errors: list) -> np.ndarray:
    """Per-item modulus of `kind`; refuses an eps outside (0, 1) and a defect above its modulus.

    Refused items get the modulus 1.0, so later stages stay finite on them.
    """
    valid = [0.0 < e < 1.0 for e in eps]
    _refuse(errors, np.logical_not(valid), lambda i: ValueError(
        f"eps must lie in (0, 1), got {eps[i]!r}"))
    bound = np.array([float(stability_modulus(kind, e)) if ok else 1.0
                      for e, ok in zip(eps, valid)])
    _refuse(errors, defect > bound, lambda i: HypothesisError(
        f"input is not {kind}-roundable at eps={eps[i]}", defect=float(defect[i]),
        bound=float(bound[i])))
    return np.where(np.equal(errors, None), bound, 1.0)


def _finish(out, errors: list, defect, distance, residual, eps, tol: Tolerance) -> _Rounded:
    """A core's results, after refusing admitted items that miss exactness.

    Given eps, an item that moved eps or more is refused too.
    """
    def missed(i):
        try:
            _check_exact(float(residual[i]), tol)
            if eps is not None:
                _check_moved(float(distance[i]), eps[i])
        except ArithmeticError as error:
            return error
        return None

    _refuse(errors, np.ones(len(errors), bool), missed)
    return _Rounded(out, errors, defect, distance, residual)


def _one(rounded: _Rounded):
    """(output, report) of a one-item rounding, or the error it was refused with, raised."""
    if rounded.errors[0] is not None:
        raise rounded.errors[0]
    return rounded.out[0], RoundingReport(float(rounded.defect[0]), float(rounded.distance[0]),
                                          float(rounded.residual[0]))


def _larger_norm(first: np.ndarray, second: np.ndarray):
    """max(|first|, |second|) per matrix, from one op_norms call; a float for 2-D terms."""
    norms = op_norms(np.stack([first, second]))
    larger = _pymax(norms[0], norms[1])
    return float(larger) if larger.ndim == 0 else larger


def isometry_defect(a, p1, p2):
    """max(|a^H a - p1|, |a a^H - p2|); with p1 = p2 = 1, the unitary defect.

    a is a matrix or a (..., d, d) stack (p1 and p2 broadcast against it);
    the result is a float for a matrix and an array of shape (...) for a stack.
    """
    a = _as_stack(a)
    return _larger_norm(dagger(a) @ a - p1, a @ dagger(a) - p2)


def projection_defect(a):
    """max(|a - a^H|, |a^2 - a|), per matrix of a (..., d, d) stack as isometry_defect."""
    a = _as_stack(a)
    return _larger_norm(a - dagger(a), a @ a - a)


def pvm_defect(mats) -> float:
    """|sum A_i - 1| joined with the projection defect of every member."""
    return float(_pvm_defects(_family(mats)))


def _pvm_defects(stack: np.ndarray) -> np.ndarray:
    """pvm_defect per (k, d, d) family of a (..., k, d, d) stack."""
    return _pymax(_sum_defect(stack), projection_defect(stack).max(axis=-1))


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
    return _one(_round_unitaries(as_operator(a)[None], [eps], tol))


def _round_unitaries(a: np.ndarray, eps: list, tol: Tolerance) -> _Rounded:
    """round_to_unitary over an (n, d, d) stack; eps holds one value per matrix."""
    errors = [None] * len(eps)
    eye = np.eye(a.shape[-1], dtype=np.complex128)
    defect = isometry_defect(a, eye, eye)
    _gate("unitary", eps, defect, errors)
    u, smallest = _polar_unitaries(a)
    _refuse(errors, np.ones(len(errors), bool), lambda i: _singular_polar(smallest[i], tol))
    distance, residual = op_norms(np.stack([a - u, dagger(u) @ u - eye]))
    return _finish(u, errors, defect, distance, residual, eps, tol)


def round_to_projection(a, eps: float, tol: Tolerance = DEFAULT_TOL):
    """Round an almost-projection (|a| <= 2) to a spectral projection.

    Hypothesis: projection_defect(a) within the projection modulus.
    The Hermitian part then has spectrum clustered near {0, 1}; cutting at
    1/2 lands on an exact projection within eps of a.
    """
    return _one(_round_projections(as_operator(a)[None], [eps], tol))


def _round_projections(a: np.ndarray, eps: list, tol: Tolerance) -> _Rounded:
    """round_to_projection over an (n, d, d) stack, eps as in _round_unitaries."""
    errors = [None] * len(eps)
    norm_a = op_norms(a)
    _refuse(errors, norm_a > 2.0, lambda i: HypothesisError(
        f"almost-projection must satisfy |a| <= 2, got {norm_a[i]:.6f}"))
    a = _cleared(a, errors)
    defect = projection_defect(a)
    _gate("projection", eps, defect, errors)
    p = hermitian_eig(herm_part(a), tol).apply(_step_at_half)
    distance, skew, idempotent = op_norms(np.stack([a - p, p - dagger(p), p @ p - p]))
    return _finish(p, errors, defect, distance, _pymax(skew, idempotent), eps, tol)


def _isometry_cut(a, p1, p2, cut, tol: Tolerance) -> np.ndarray:
    """Partial-isometry construction: compress to the corners, then rescale.

    b = p2 a p1 has b^H b supported in ran(p1) with spectrum split around
    `cut`; w = b f(b^H b) with f = 0 below the cut and t^(-1/2) above is a
    partial isometry from ran(p1) onto ran(p2).  On stacks, cut may hold one
    value per matrix, shaped to broadcast against the (..., d) eigenvalues.
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
    return _one(_round_partial_isometries(a[None], p1[None], p2[None], [eps], tol))


def _round_partial_isometries(a: np.ndarray, p1: np.ndarray, p2: np.ndarray, eps: list,
                              tol: Tolerance) -> _Rounded:
    """round_to_partial_isometry over (n, d, d) stacks, eps as in _round_unitaries."""
    errors = [None] * len(eps)
    for name, p in (("p1", p1), ("p2", p2)):
        resid = projection_defect(_cleared(p, errors))
        _refuse(errors, resid > tol.algebraic, lambda i: ValueError(
            f"{name} is not a projection within tolerance: residual {resid[i]:.6e}"))
    a, p1, p2 = (_cleared(m, errors) for m in (a, p1, p2))
    defect = isometry_defect(a, p1, p2)
    delta = _gate("partial_isometry", eps, defect, errors)
    # the cut per matrix, from Python floats as the per-item rounding takes it
    gamma = np.array([7.0 * d ** 0.25 for d in delta.tolist()])[:, None]
    w = _isometry_cut(a, p1, p2, gamma, tol)
    distance, left, right = op_norms(np.stack([a - w, dagger(w) @ w - p1, w @ dagger(w) - p2]))
    return _finish(w, errors, defect, distance, _pymax(left, right), eps, tol)


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
    rounded, report = _one(_round_povms(_family(mats)[None], tol))
    return list(rounded), report


def _round_povms(stack: np.ndarray, tol: Tolerance) -> _Rounded:
    """round_to_povm over an (n, k, d, d) stack; _repair_povms checks exactness."""
    rounded, refused, defect, low, residual = _repair_povms(stack, tol)
    errors = [None] * len(stack)
    _refuse(errors, defect >= 0.5, lambda i: HypothesisError(
        "family is too far from a POVM", defect=float(defect[i]), bound=0.5))
    _refuse(errors, refused, lambda i: HypothesisError(
        f"positive-part sum is singular within tolerance: smallest eigenvalue {low[i]:.6e}"))
    distance = op_norms(stack - rounded).max(axis=-1)
    return _Rounded(rounded, errors, defect, distance, residual)


def round_to_pvm(mats, tol: Tolerance = DEFAULT_TOL):
    """Round almost-projections that almost sum to 1 into an exact PVM.

    Entry hypothesis: every family member is an almost-projection and the
    family almost sums to the identity, all within 2^-8.  Blocks are rounded
    one at a time inside the corner left by the previous ones; the final
    block is the remaining corner identity, so the output sums to 1 exactly.
    """
    blocks, report = _one(_round_pvms(_family(mats)[None], tol))
    return list(blocks), report


def _round_pvms(stack: np.ndarray, tol: Tolerance, members=None) -> _Rounded:
    """round_to_pvm over an (n, k, d, d) stack: one stage per member, all families at once.

    members, when given, holds per family how many of its k
    slots are members; the slots before them are zero padding, which a
    family passes through as an identity stage, so no bit of its rounding
    moves (sums start from zeros as in sampling._povm_instances).
    """
    n, k, _, dim = stack.shape
    errors = [None] * n
    pads = np.zeros(n, int) if members is None else k - np.asarray(members)
    defect = _pvm_defects(stack)
    budget = float(PVM_ENTRY_BUDGET)
    _refuse(errors, defect > budget, lambda i: HypothesisError(
        "family is too far from a PVM", defect=float(defect[i]), bound=budget))
    remaining = np.eye(dim, dtype=np.complex128)
    out = np.empty(stack.shape, np.complex128)
    for block in range(k - 1):
        c = remaining @ stack[:, block] @ remaining
        stage_defect = projection_defect(c)
        active = block >= pads
        _refuse(errors, (stage_defect > PVM_STAGE_GATE) & active,
                lambda i: HypothesisError(
                    "compressed block drifted out of the projection cluster",
                    defect=float(stage_defect[i]), bound=PVM_STAGE_GATE,
                    stage=f"block {block - pads[i]}"))
        q = hermitian_eig(herm_part(c), tol).apply(_step_at_half)
        # re-cut the corner so float drift cannot accumulate across stages
        cut = hermitian_eig(herm_part(remaining - q), tol).apply(_step_at_half)
        if not active.all():
            active = active[:, None, None]
            q = np.where(active, q, 0.0)
            cut = np.where(active, cut, remaining)
        out[:, block] = q
        remaining = cut
    out[:, k - 1] = remaining
    i, j = np.triu_indices(k, 1)
    products = op_norms(out[:, i] @ out[:, j]).max(axis=-1, initial=0.0)
    residual = _pymax(_pvm_defects(out), products)
    distance = op_norms(stack - out).max(axis=-1)
    return _finish(out, errors, defect, distance, residual, None, tol)


def _check_exact(residual: float, tol: Tolerance) -> None:
    # unreachable once a hypothesis passed; fail loudly rather than break the contract
    if residual > tol.algebraic:
        raise ArithmeticError(f"rounding missed exactness: residual {residual:.3e}")


def _check_moved(output_distance: float, eps: float) -> None:
    # unreachable once a hypothesis passed, as in _check_exact
    if not output_distance < eps:
        raise ArithmeticError(f"rounding moved too far: {output_distance:.6f} >= {eps}")
