"""Nonlocal games played by one-algebra strategies.

A game is a question distribution ``pi`` over pairs (x, y) and a binary
predicate ``D(x, y, a, b)``.  Both players' measurements live in the same
matrix algebra; probabilities come from the symmetrized product

    A • B = (sqrt(A) B sqrt(A) + sqrt(B) A sqrt(B)) / 2

which is positive, sums to the identity over (a, b), and collapses to the
ordinary product when the measurements commute.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
# op_norm is unused here but stays bound: perfbench's test_rebinding_is_undone
# checks that tracing rebinds cstarkit.games.op_norm
from .operators import (DEFAULT_TOL, Tolerance, _as_stack, _ordered_sum,  # noqa: F401
                        as_operator, dagger, herm_part, hermitian_eig, op_norm, op_norms)
from .rounding import _povm_residual

_PROB_SLACK = 1e-9


def _frozen_array(obj, name, value):
    arr = np.array(value)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class NonlocalGame:
    """Question distribution and winning predicate.

    pi: (n, n) nonnegative array summing to 1 within 1e-12; entries may
    be floats or Fractions, and pi_exact keeps them as Fractions (exact
    for floats too) while pi holds the nearest floats.
    predicate: (n, n, k, k) array of {0, 1}, indexed [x, y, a, b].
    """

    pi: np.ndarray
    predicate: np.ndarray
    pi_exact: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=float)
        pred = np.asarray(self.predicate)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1] or pi.shape[0] < 1:
            raise ValueError(f"pi must be square, got shape {pi.shape}")
        n = pi.shape[0]
        if pred.ndim != 4 or pred.shape[:2] != (n, n) or pred.shape[2] != pred.shape[3]:
            raise ValueError(f"predicate shape {pred.shape} does not match pi shape {pi.shape}")
        if not np.all(np.isfinite(pi)) or np.any(pi < 0):
            raise ValueError("pi entries must be finite and nonnegative")
        total = float(pi.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pi must sum to 1 within 1e-12, got {total!r}")
        if not np.isin(pred, (0, 1)).all():
            raise ValueError("predicate entries must be 0 or 1")
        exact = np.asarray(self.pi, dtype=object)
        object.__setattr__(self, "pi_exact", tuple(tuple(map(Fraction, row)) for row in exact))
        _frozen_array(self, "pi", pi)
        _frozen_array(self, "predicate", pred.astype(np.int8))

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    @property
    def k(self) -> int:
        return self.predicate.shape[2]


def chsh() -> NonlocalGame:
    """Two questions, two answers, uniform pi; win when a xor b = x and y."""
    pi = np.full((2, 2), 0.25)
    pred = np.zeros((2, 2, 2, 2), dtype=np.int8)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    pred[x, y, a, b] = 1 if (a ^ b) == (x & y) else 0
    return NonlocalGame(pi, pred)


@dataclass(frozen=True, eq=False)
class Measurement:
    """One POVM per question: ops[x][a] is outcome a of question x.

    ops has shape (n, k, dim, dim); each element A's |A - A^H| (operator
    norm) and each question's row's povm_residual are within tolerance.
    """

    ops: np.ndarray

    def __post_init__(self) -> None:
        # finite entries first, so no arithmetic below meets inf or NaN
        ops = _as_stack(self.ops)
        if ops.ndim != 4:
            raise ValueError(f"ops must have shape (n, k, dim, dim), got {ops.shape}")
        tol = DEFAULT_TOL
        herm = float(op_norms(ops - dagger(ops), tol.algebraic).max())
        if herm > tol.algebraic:
            raise ValueError(f"POVM elements must be Hermitian within tolerance, defect {herm:.3e}")
        worst = float(_povm_residual(ops, tol.algebraic).max())
        if worst > tol.algebraic:
            raise ValueError(f"each question's outcomes must form a POVM within tolerance, "
                             f"povm_residual {worst:.3e}")
        _frozen_array(self, "ops", ops)

    @property
    def questions(self) -> int:
        return self.ops.shape[0]

    @property
    def outcomes(self) -> int:
        return self.ops.shape[1]

    @property
    def dim(self) -> int:
        return self.ops.shape[2]


@dataclass(frozen=True, eq=False)
class State:
    """Density matrix: positive within tolerance, trace 1 within 1e-12."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = as_operator(self.rho)
        tol = DEFAULT_TOL
        if op_norms(rho - dagger(rho), tol.algebraic) > tol.algebraic:
            raise ValueError("state must be Hermitian within tolerance")
        low = float(np.linalg.eigvalsh(herm_part(rho))[0])
        if low < -tol.algebraic:
            raise ValueError(f"state must be positive within tolerance, min eigenvalue {low:.3e}")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"state must have trace 1 within 1e-12, got {tr!r}")
        _frozen_array(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class Strategy:
    """Two measurements and a shared state in one algebra."""

    alice: Measurement
    bob: Measurement
    state: State

    def __post_init__(self) -> None:
        if not (self.alice.dim == self.bob.dim == self.state.dim):
            raise ValueError("strategy parts must share one dimension")


def _psd_sqrt(stack: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Roots of a (..., d, d) PSD stack; raises for the first non-PSD matrix in stack order."""
    spec = hermitian_eig(stack, tol)
    low = spec.eigenvalues[..., 0].ravel()
    bad = np.flatnonzero(low < -tol.algebraic)
    if bad.size:
        raise ValueError(
            f"matrix must be positive within tolerance, min eigenvalue {float(low[bad[0]]):.3e}")
    return spec.apply(lambda w: np.sqrt(np.maximum(w, 0.0)))


def sym_product(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symmetrized product (sqrt(a) b sqrt(a) + sqrt(b) a sqrt(b)) / 2.

    Positive for positive inputs, and equal to ab when [a, b] = 0.
    """
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    ra, rb = _psd_sqrt(np.array([a, b]), tol)
    return herm_part((ra @ b @ ra + rb @ a @ rb) / 2)


def correlation(strategy: Strategy, x: int, y: int, a: int, b: int,
                tol: Tolerance = DEFAULT_TOL) -> float:
    """Probability of answers (a, b) to questions (x, y).

    Violations of [0, 1] beyond 1e-9 raise instead of being clamped.
    """
    al, bo = strategy.alice, strategy.bob
    if not (0 <= x < al.questions and 0 <= y < bo.questions):
        raise IndexError(f"question index out of range: ({x}, {y})")
    if not (0 <= a < al.outcomes and 0 <= b < bo.outcomes):
        raise IndexError(f"answer index out of range: ({a}, {b})")
    p = float(np.trace(strategy.state.rho @ sym_product(al.ops[x, a], bo.ops[y, b], tol)).real)
    if p < -_PROB_SLACK or p > 1.0 + _PROB_SLACK:
        raise ArithmeticError(f"correlation {p!r} escapes [0, 1] beyond slack {_PROB_SLACK}")
    return p


# [..., a, b] tables of sqrt(A_a) B_b sqrt(A_a) and sqrt(B_b) A_a sqrt(B_b), then their
# weighted sum over (a, b); a chunk of weighted (x, y) pairs rides on the first leading
# axis, and the batched einsum matches a per-pair one bit for bit, a matmul chain does not
_FIRST = "...aij,...bjk,...akl->...abil"
_SECOND = "...bij,...ajk,...bkl->...abil"
_WEIGH = "...ab,...abil->...il"
# product-table entries one chunk may hold; a pair whose table alone is larger is its own chunk
_PAIR_CHUNK_ENTRIES = 2 ** 15


def game_element(game: NonlocalGame, alice: Measurement, bob: Measurement,
                 tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Weighted sum of symmetrized products: sum pi(x,y) D(x,y,a,b) (A • B).

    Hermitian with spectrum in [0, 1] up to tolerance; the game value of a
    state is its expectation against this matrix.
    """
    check_shapes(game, alice, bob)
    return _game_elements(game, alice.ops, bob.ops, tol)


def _game_elements(game: NonlocalGame, alice_ops: np.ndarray, bob_ops: np.ndarray,
                   tol: Tolerance) -> np.ndarray:
    """game_element per pair of two (..., n, k, d, d) stacks; zeros, unrooted, if no pair weighs."""
    element = np.zeros(alice_ops.shape[:-4] + alice_ops.shape[-2:], dtype=np.complex128)
    weights = game.pi[:, :, None, None] * game.predicate
    pairs = np.argwhere(weights.any(axis=(2, 3)))
    if not len(pairs):
        return element
    roots = np.moveaxis(_psd_sqrt(np.stack([alice_ops, bob_ops], axis=-5), tol), -5, 0)
    # question axis first: ra[x] is the (..., k, d, d) stack of sqrt(A^x_a)
    ra, rb, alice_ops, bob_ops = (np.moveaxis(m, -4, 0) for m in (*roots, alice_ops, bob_ops))
    step = max(1, _PAIR_CHUNK_ENTRIES // (element.size * game.k ** 2))
    for start in range(0, len(pairs), step):
        xs, ys = pairs[start:start + step].T
        if len(xs) == 1:  # unbatched: einsum would copy every operand to drop a length-one axis
            xs, ys = xs[0], ys[0]
        root_a, root_b = ra[xs], rb[ys]
        first = np.einsum(_FIRST, root_a, bob_ops[ys], root_a, optimize=True)
        second = np.einsum(_SECOND, root_b, alice_ops[xs], root_b, optimize=True)
        # (pairs, 1, ..., 1, k, k): the pair axis meets the tables' own, the stack axes broadcast
        w = weights[xs, ys].reshape(np.shape(xs) + (1,) * (element.ndim - 2) + weights.shape[2:])
        # added one pair at a time, in pair order, as a per-pair loop adds them
        for term in np.einsum(_WEIGH, w, (first + second) / 2).reshape((-1,) + element.shape):
            element += term
    return herm_part(element)


def check_shapes(game: NonlocalGame, alice: Measurement, bob: Measurement) -> None:
    """Check that a measurement pair fits the game.

    Raises PreconditionError unless both are Measurements with the game's
    (questions, outcomes) shape on one shared dimension.
    """
    for side in (alice, bob):
        if not isinstance(side, Measurement):
            raise PreconditionError("players' strategies must be Measurement instances")
        if (side.questions, side.outcomes) != (game.n, game.k):
            raise PreconditionError(
                f"measurement shape ({side.questions}, {side.outcomes}) does not "
                f"match the game ({game.n}, {game.k})")
    if alice.dim != bob.dim:
        raise PreconditionError("players must share one dimension")


def game_value(game: NonlocalGame, strategy: Strategy,
               tol: Tolerance = DEFAULT_TOL) -> float:
    """Winning probability of the strategy."""
    element = game_element(game, strategy.alice, strategy.bob, tol)
    return float(np.trace(strategy.state.rho @ element).real)


class BestValue(NamedTuple):
    value: float
    state: State


def best_value(game: NonlocalGame, alice: Measurement, bob: Measurement,
               tol: Tolerance = DEFAULT_TOL) -> BestValue:
    """Best winning probability over states for fixed measurements.

    The maximum eigenvalue of the game element, attained by the rank-one
    density on its top eigenvector (returned alongside).
    """
    spec = hermitian_eig(game_element(game, alice, bob, tol), tol)
    return BestValue(value=float(spec.eigenvalues[-1]),
                     state=_top_state(spec.eigenvectors[:, -1]))


def _top_state(top: np.ndarray) -> State:
    """The rank-one density on a (top) eigenvector."""
    rho = np.outer(top, top.conj())
    return State(herm_part(rho) / float(np.trace(rho).real))


def commutator_defects(alice_ops: np.ndarray, bob_ops: np.ndarray) -> np.ndarray:
    """(..., n_a, n_b) table of sum_{a,b} |[A^x_a, B^y_b]| from two (..., n, k, d, d) op stacks.

    All commutators are formed in one broadcast and normed in one batch;
    each entry is summed in (a, b) order, as a per-pair loop would.
    """
    a = np.asarray(alice_ops)[..., :, None, :, None, :, :]
    b = np.asarray(bob_ops)[..., None, :, None, :, :, :]
    norms = op_norms(a @ b - b @ a)
    return _ordered_sum(norms.reshape(norms.shape[:-2] + (-1,)), -1)


class CommutationCheck(NamedTuple):
    ok: bool
    worst_pair: tuple[int, int]
    worst_defect: float


def is_delta_op_commuting(alice: Measurement, bob: Measurement,
                          delta: float) -> CommutationCheck:
    """Strict check: every question pair's commutator defect is < delta."""
    return _commutation_check(commutator_defects(alice.ops, bob.ops), delta)


def _commutation_check(table: np.ndarray, delta: float) -> CommutationCheck:
    """The strict delta check on one (n_a, n_b) commutator_defects table."""
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta!r}")
    x, y = np.unravel_index(np.argmax(table), table.shape)
    worst = float(table[x, y])
    return CommutationCheck(ok=worst < delta, worst_pair=(int(x), int(y)), worst_defect=worst)
