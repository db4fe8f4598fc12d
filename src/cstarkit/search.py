"""Semidecision over finite-dimensional strategy candidates.

A game family maps bit strings to games; membership is half-decided by
sweeping a deterministic stream of measurement pairs (dimension one
deterministic strategies first, then caller-planted pairs, then seeded
random dyadic-grid candidates) and accepting as soon as the best state
value, less a fixed margin, exceeds one half.  A see-saw optimizer and an
exact classical brute force round out the toolbox.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import PreconditionError, integral
from .games import (
    CommutationCheck,
    Measurement,
    NonlocalGame,
    State,
    Strategy,
    _commutation_check,
    _game_elements,
    _psd_sqrt,
    _top_state,
    best_value,
    check_shapes,
    commutator_defects,
    game_value,
    is_delta_op_commuting,
)
# op_norm and round_to_povm are unused here but stay bound: perfbench's
# test_rebinding_is_undone checks that tracing rebinds both in cstarkit.search
from .operators import (DEFAULT_TOL, Tolerance, _ordered_sum, dagger,  # noqa: F401
                        herm_part, hermitian_eig, op_norm, op_norms)
from .rounding import _povm_parts, _repair_povms, povm_residual, round_to_povm  # noqa: F401
from .sampling import _gram_povms, rng_from_seed

# Fixed margin taken off each float value estimate; acceptance demands
# value - margin > 1/2.  It is a constant, not a computed error bound, so an
# acceptance is not yet a proof that the value clears 1/2.
CERTIFIED_EIG_ERROR = 2.0 ** -7

_OUTCOMES = ("accepted", "budget_exhausted")
_STEP_GRID = tuple(0.5 * 2.0 ** -j for j in range(10))
_ENUMERATION_CAP = 2 ** 24


@dataclass(frozen=True)
class GameFamily:
    """Bit strings to games, with a commutator budget per input length."""

    encode: Callable[[str], NonlocalGame]
    delta: Callable[[int], float]


def constant_family(game: NonlocalGame, delta: float) -> GameFamily:
    """Family sending every bit string to the same game and budget."""
    return GameFamily(encode=lambda z: game, delta=lambda m: float(delta))


@dataclass(frozen=True)
class CandidateStream:
    """Deterministic recipe for generating measurement-pair candidates.

    dims is the round-robin dimension sweep for the random phase,
    grid_denominator the power of two whose inverse is the entry grid,
    and planted an optional tuple of (alice, bob) pairs inserted after
    the deterministic prefix and before the random phase.
    """

    dims: tuple[int, ...]
    grid_denominator: int = 1024
    seed: int = 0
    budget: int = 10_000
    planted: tuple = ()

    def __post_init__(self) -> None:
        dims = tuple(integral(d, "dims entries", 1) for d in self.dims)
        if not dims:
            raise PreconditionError("dims must be nonempty")
        object.__setattr__(self, "dims", dims)
        q = integral(self.grid_denominator, "grid_denominator")
        # snapping to the grid multiplies by float(q), which overflows from 2^1024 on
        if not 2 <= q <= 2 ** 1023 or q & (q - 1):
            raise PreconditionError("grid_denominator must be a power of two from 2 to 2^1023, "
                                    f"got {q}")
        object.__setattr__(self, "grid_denominator", q)
        # sys.maxsize is the most positions itertools.islice can cut the stream at
        object.__setattr__(self, "budget", integral(self.budget, "budget", 1, sys.maxsize))
        object.__setattr__(self, "seed", integral(self.seed, "seed", 0))
        object.__setattr__(self, "planted", tuple(self.planted))


@dataclass(frozen=True)
class Witness:
    """Accepted strategy: measurements, state, certified value, defect."""

    alice: Measurement
    bob: Measurement
    state: State
    certified_value: float
    defect: float


@dataclass(frozen=True)
class SearchVerdict:
    outcome: str
    witness: Witness | None
    candidates_tried: int

    def __post_init__(self) -> None:
        if self.outcome not in _OUTCOMES:
            raise ValueError(f"outcome must be one of {_OUTCOMES}, got {self.outcome!r}")
        if self.outcome == "accepted":
            if self.witness is None or not self.witness.certified_value > 0.5:
                raise ValueError("accepted verdicts need a witness certified above 1/2")


def _answer_ops(answers, k: int) -> np.ndarray:
    """(..., n, k, 1, 1) ops answering question x with answers[..., x], unvalidated."""
    return np.eye(k, dtype=np.complex128)[np.asarray(answers)][..., None, None]


def deterministic_measurement(answers: Sequence[int], k: int) -> Measurement:
    """Dimension-one measurement answering question x with answers[x]."""
    answers = tuple(int(a) for a in answers)
    if any(not 0 <= a < k for a in answers):
        raise ValueError(f"answers must lie in [0, {k}), got {answers}")
    return Measurement(_answer_ops(answers, k))


def _snap_to_grid(m: np.ndarray, q: int) -> np.ndarray:
    return (np.round(m.real * q) + 1j * np.round(m.imag * q)) / q


# width of the first block of the stream prefix and of the random phase; each
# later block of a phase is twice as wide as the one before
_FIRST_BLOCK = 16
# complex entries in a block's (2, n, k, d, d) pair stacks, 2nkd^2 per position.
# Budget-50 search jobs never reach it; at budget 1000 (BENCH_17.json) 2^14 to
# 2^16 time alike and 2^12 is about 15% slower
_BLOCK_ENTRIES = 2 ** 14
# (examined, alice, bob, check): a stream position's pair that passed the gates
Candidate = tuple[int, Measurement, Measurement, CommutationCheck]
# (examined, ops, check): the same, the pair as its (2, n, k, d, d) ops stack
Gated = tuple[int, np.ndarray, CommutationCheck]


def _positions(game: NonlocalGame, stream: CandidateStream) -> Iterator[np.ndarray | int]:
    """Stream order: deterministic and planted pair stacks, then a dimension per random position."""
    for alice, bob in stream.planted:
        check_shapes(game, alice, bob)
    k = game.k
    # nested lazy loops: product(..., repeat=2) would first build all k^n answer
    # functions; each position builds its own pair stack, validated only when
    # _handed_out makes Measurements of it
    for fa in itertools.product(range(k), repeat=game.n):
        for fb in itertools.product(range(k), repeat=game.n):
            yield _answer_ops((fa, fb), k)
    for alice, bob in stream.planted:
        yield np.array([alice.ops, bob.ops])
    for i in itertools.count():
        yield stream.dims[i % len(stream.dims)]


def _per_dim(stacks: list[np.ndarray], stacked: Callable) -> list:
    """stacked(group) on each same-dimension group of stacks as one array, in stack order."""
    groups: dict[int, list[int]] = {}
    for i, stack in enumerate(stacks):
        groups.setdefault(stack.shape[-1], []).append(i)
    results = [None] * len(stacks)
    for group in groups.values():
        for i, result in zip(group, stacked(np.array([stacks[i] for i in group]))):
            results[i] = result
    return results


def _grid_pairs(rng: np.random.Generator, dims: list[int], game: NonlocalGame, q: int,
                tol: Tolerance) -> list[np.ndarray | None]:
    """One random POVM pair stack per dim with entries snapped to the dyadic grid.

    One normal draw covers all 2n rows of every pair, Alice's then Bob's;
    each dim is rooted, snapped and repaired as one stack.  A pair with a
    row whose repair refuses (grid too coarse) is None.
    """
    n, k = game.n, game.k
    sizes = [4 * n * k * dim * dim for dim in dims]
    flat = np.split(rng.normal(size=sum(sizes)), list(itertools.accumulate(sizes))[:-1])
    draws = [f.reshape(2, n, k, 2, dim, dim) for f, dim in zip(flat, dims)]

    def repaired(group: np.ndarray) -> list:
        snapped = _snap_to_grid(_gram_povms(group), q)
        rounded, refused, *_ = _repair_povms(snapped, tol, _povm_parts(snapped, tol, 0.5),
                                             tol.algebraic)
        return [None if bad.any() else ops for ops, bad in zip(rounded, refused)]

    return _per_dim(draws, repaired)


def _blocks(game: NonlocalGame, stream: CandidateStream) -> Iterator[tuple[int, list]]:
    """(first position, positions) per block of the stream, none past the budget.

    Three rules cut the blocks.  The prefix (deterministic and planted
    positions) and the random positions never share a block.  In each of
    the two, the first block is cut at _FIRST_BLOCK positions and each
    later one at twice the width of the one before, unless the next block
    would reach the end of the budget: the block then takes that rest in
    too.  And a block holds at most _BLOCK_ENTRIES pair-stack entries
    unless it holds a single position.  Below the entry cap, a run that
    accepts at the r-th position of a phase has thus built fewer than
    4 r + 3 _FIRST_BLOCK positions of that phase.
    """
    per_square = 2 * game.n * game.k
    start, block, entries, width = 1, [], 0, _FIRST_BLOCK
    for item in itertools.islice(_positions(game, stream), stream.budget):
        dim = item if isinstance(item, int) else item.shape[-1]
        size = per_square * dim * dim
        new_phase = bool(block) and isinstance(item, int) != isinstance(block[0], int)
        # cut at the width only if the next block, twice as wide, ends before the budget
        full = len(block) >= width and stream.budget - (start + len(block) - 1) > 2 * width
        if new_phase or full or (block and entries + size > _BLOCK_ENTRIES):
            yield start, block
            start, block, entries = start + len(block), [], 0
            width = _FIRST_BLOCK if new_phase else 2 * width
        block.append(item)
        entries += size
    yield start, block


def _gated_blocks(game: NonlocalGame, stream: CandidateStream, delta: float,
                  tol: Tolerance) -> Iterator[list[Gated]]:
    """Gated pairs per block of _blocks, in stream order.

    A random block draws and repairs all its positions before any is
    gated, so an error from one of them can surface after an earlier
    position of the block accepts; a prefix block draws nothing.
    """
    rng = rng_from_seed(stream.seed)
    for start, block in _blocks(game, stream):
        if isinstance(block[0], int):
            block = _grid_pairs(rng, block, game, stream.grid_denominator, tol)
        live = [(start + i, ops) for i, ops in enumerate(block) if ops is not None]
        checks = _per_dim([ops for _, ops in live], lambda group: [
            _commutation_check(table, delta)
            for table in commutator_defects(group[:, 0], group[:, 1])])
        yield [(*pair, check) for pair, check in zip(live, checks) if check.ok]


def _handed_out(game: NonlocalGame, stream: CandidateStream, examined: int,
                ops: np.ndarray) -> tuple[Measurement, Measurement]:
    """The Measurement pair at a stream position; a planted position's is the caller's own."""
    planted = examined - game.k ** (2 * game.n) - 1
    if 0 <= planted < len(stream.planted):
        return stream.planted[planted]
    return Measurement(ops[0]), Measurement(ops[1])


def enumerate_candidates(game: NonlocalGame, stream: CandidateStream, delta: float,
                         tol: Tolerance = DEFAULT_TOL) -> Iterator[Candidate]:
    """Candidate pairs that are exact measurements and almost commute.

    Yields (examined, alice, bob, check): the 1-based stream position,
    the pair, and its passing commutation check.  Order: all dimension-one
    deterministic pairs, then planted pairs, then seeded random grid
    candidates cycling through stream.dims, each drawing all 2n rows.  The
    stream examines at most stream.budget pairs; pairs whose repair refuses
    or that fail the strict per-question-pair commutator check are dropped.
    """
    for block in _gated_blocks(game, stream, delta, tol):
        for examined, ops, check in block:
            yield (examined, *_handed_out(game, stream, examined, ops), check)


def _witnesses(game: NonlocalGame, stream: CandidateStream, delta: float,
               tol: Tolerance) -> Iterator[tuple]:
    """(examined, ops, check, certified value, top eigenvector of its game element) per pair."""
    def scored(group: np.ndarray) -> list:
        spec = hermitian_eig(_game_elements(game, group[:, 0], group[:, 1], tol), tol)
        return [(float(w[-1]) - CERTIFIED_EIG_ERROR, v[:, -1])
                for w, v in zip(spec.eigenvalues, spec.eigenvectors)]

    for block in _gated_blocks(game, stream, delta, tol):
        scores = _per_dim([ops for _, ops, _ in block], scored)
        yield from ((*gated, *score) for gated, score in zip(block, scores))


def _witness(game: NonlocalGame, stream: CandidateStream, examined: int, ops: np.ndarray,
             check: CommutationCheck, certified_value: float, top: np.ndarray) -> Witness:
    """A scored pair's Witness, at the rank-one state on its top eigenvector."""
    alice, bob = _handed_out(game, stream, examined, ops)
    return Witness(alice=alice, bob=bob, state=_top_state(top),
                   certified_value=certified_value, defect=check.worst_defect)


def _unit_delta(delta: float, name: str = "delta") -> float:
    """delta, once it is checked to lie in [0, 1]; PreconditionError otherwise (NaN too)."""
    if not 0.0 <= delta <= 1.0:
        raise PreconditionError(f"{name} = {delta!r} must lie in [0, 1]")
    return delta


def semidecide_membership(family: GameFamily, z: str, stream: CandidateStream,
                          tol: Tolerance = DEFAULT_TOL) -> SearchVerdict:
    """Half-decide membership of z by sweeping the candidate stream.

    Accepts once a pair's float best value minus the fixed margin
    CERTIFIED_EIG_ERROR (2^-7, a constant, not a computed error bound)
    clears one half; returns budget_exhausted otherwise.  Never answers "no".
    """
    if not isinstance(z, str) or set(z) - {"0", "1"}:
        raise PreconditionError(f"z must be a string of 0s and 1s, got {z!r}")
    game = family.encode(z)
    delta = _unit_delta(float(family.delta(len(z))), f"delta({len(z)})")
    for scored in _witnesses(game, stream, delta, tol):
        if scored[3] > 0.5:
            return SearchVerdict(outcome="accepted", witness=_witness(game, stream, *scored),
                                 candidates_tried=scored[0])
    return SearchVerdict(outcome="budget_exhausted", witness=None, candidates_tried=stream.budget)


def evaluate_stream(game: NonlocalGame, stream: CandidateStream, delta: float,
                    tol: Tolerance = DEFAULT_TOL) -> tuple[Witness | None, int]:
    """Best scored value over the whole candidate stream, no threshold.

    Returns the best Witness found (None when nothing in the stream passes
    the measurement and commutation gates) and the number of candidates
    examined, which is the full budget.  A pair scores its float best value
    less CERTIFIED_EIG_ERROR, a fixed margin rather than a computed error
    bound, so the result is a stream-limited estimate, not a proven lower
    bound, of the delta-almost-commuting value of the game.
    """
    _unit_delta(delta)
    best = None
    for scored in _witnesses(game, stream, delta, tol):
        if best is None or scored[3] > best[3]:
            best = scored
    return (None if best is None else _witness(game, stream, *best)), stream.budget


class WitnessAudit(NamedTuple):
    ok: bool
    povm_residual: float
    worst_defect: float
    value: float


def verify_witness(game: NonlocalGame, witness: Witness, delta: float,
                   tol: Tolerance = DEFAULT_TOL) -> WitnessAudit:
    """Independent re-check of an accepted witness.

    Sound iff every question's row of both measurements has povm_residual
    within 1e-10, the pair almost commutes under delta, and the witness
    state wins with probability above one half.
    """
    residual = max(povm_residual(row) for meas in (witness.alice, witness.bob)
                   for row in meas.ops)
    check = is_delta_op_commuting(witness.alice, witness.bob, delta)
    value = game_value(game, Strategy(witness.alice, witness.bob, witness.state), tol)
    ok = residual <= 1e-10 and check.ok and value > 0.5
    return WitnessAudit(ok=ok, povm_residual=residual,
                        worst_defect=check.worst_defect, value=value)


class SeesawRun(NamedTuple):
    strategy: Strategy
    trace: list[float]


def _penalty(alice_ops: np.ndarray, bob_ops: np.ndarray, delta: float) -> np.ndarray:
    """Sum over question pairs of the commutator defect in excess of delta, per stack entry."""
    table = np.maximum(commutator_defects(alice_ops, bob_ops) - delta, 0.0)
    return _ordered_sum(table.reshape(table.shape[:-2] + (-1,)), -1)


def _row_values(rows: np.ndarray, weights: np.ndarray, other_ops: np.ndarray,
                table: np.ndarray, rho: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Weighted bullet value of each row of a (..., x, k, d, d) stack against a fixed state.

    weights[x, a, y, b] is the coefficient of tr(rho (E^x_a • F^y_b));
    table[y, b] must hold sqrt(F) rho sqrt(F), and the trace then splits
    into two plain traces.
    """
    roots = _psd_sqrt(rows, tol)
    return 0.5 * (np.einsum("xayb,...xajk,ybkj->...x", weights, roots @ rho @ roots, other_ops)
                  + np.einsum("xayb,ybjk,...xakj->...x", weights, table, rows)).real


# Divided-difference floor for ascent proposals.  Repaired POVM elements
# carry exact kernel directions whose formal derivative entries blow up;
# a coarse floor keeps proposals pointed at the informative eigenblocks.
_PROPOSAL_FLOOR = 0.25


def _row_value_gradient(rows: np.ndarray, weights: np.ndarray, other_ops: np.ndarray,
                        table: np.ndarray, rho: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Ascent direction for each row of an (x, k, d, d) stack, from the derivative of its value.

    The value depends on a row element E through tr(rho (E • F)) summed
    with predicate weights; the derivative splits into a direct term
    sqrt(F) rho sqrt(F), read from table[y, b], and a chain term through
    sqrt(E), evaluated with the divided-difference rule for the matrix
    square root.  The divided differences are floored at _PROPOSAL_FLOOR
    where E is nearly singular.  Elements with zero weight get zero.
    """
    spec = hermitian_eig(rows, tol)
    s = np.sqrt(np.maximum(spec.eigenvalues, 0.0))
    my_root = spec.apply(lambda _: s)
    other = np.einsum("xayb,ybij->xaij", weights, other_ops)
    chain = other @ my_root @ rho + rho @ my_root @ other
    vecs = spec.eigenvectors
    divided = 1.0 / np.maximum(s[..., :, None] + s[..., None, :], _PROPOSAL_FLOOR)
    lifted = vecs @ (divided * (dagger(vecs) @ chain @ vecs)) @ dagger(vecs)
    return herm_part(0.5 * (lifted + np.einsum("xayb,ybij->xaij", weights, table)))


def _improve_rows(weights: np.ndarray, mine: Measurement, other: Measurement,
                  rho: np.ndarray, delta: float, mu: float, obj: float,
                  tol: Tolerance) -> tuple[Measurement, float]:
    """One projected-gradient pass over all of mine's POVM rows as one stack.

    The state and the other player stay fixed, so the objective splits
    into row-local pieces: weights[x, a, y, b] weighs mine[x, a] against
    other[y, b].  Every row with a nonzero step repairs its _STEP_GRID
    trials, and all are valued beside the current rows in one stack; each
    row takes its first trial that gains, and the accepted gains are
    added in row order.
    """
    roots = _psd_sqrt(other.ops, tol)
    table = roots @ rho @ roots
    grad = _row_value_gradient(mine.ops, weights, other.ops, table, rho, tol)
    grad = grad - grad.mean(axis=1, keepdims=True)
    scale = op_norms(grad).max(axis=-1)
    live = np.flatnonzero(scale > tol.algebraic)
    if not live.size:
        return mine, obj
    ops = np.array(mine.ops)
    current = ops[live]
    steps = np.array(_STEP_GRID)[:, None, None, None, None]
    moved = herm_part(current + steps * (grad[live] / scale[live, None, None, None]))
    trials, refused, *_ = _repair_povms(moved, tol, _povm_parts(moved, tol, 0.5), tol.algebraic)
    # refused slots hold no POVM: value the current row there and never pick it
    rows = np.concatenate([current[None],
                           np.where(refused[..., None, None, None], current, trials)])
    values = _row_values(rows, weights[live], other.ops, table, rho, tol)
    pens = _penalty(rows[:, :, None], other.ops, delta)
    gains = (values[1:] - values[0]) - mu * (pens[1:] - pens[0])
    better = ~refused & (gains > 1e-12)
    picks = np.argmax(better, axis=0)
    for i in np.flatnonzero(better.any(axis=0)):
        ops[live[i]] = trials[picks[i], i]
        obj += float(gains[picks[i], i])
    return Measurement(ops), obj


def seesaw_optimize(game: NonlocalGame, dim: int, delta: float = 0.0, mu: float = 10.0,
                    iters: int = 50, init: tuple[Measurement, Measurement] | None = None,
                    seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> SeesawRun:
    """Alternating ascent on value minus mu times excess commutator defect.

    Each sweep replaces the state by the top eigenvector of the game
    element, then polishes each player's POVM rows with a projected
    gradient step repaired back to an exact POVM; steps that fail to
    improve the objective are rolled back, so the recorded trace never
    decreases.  Returns the final strategy and the objective trace.
    """
    dim, iters = integral(dim, "dim", 1), integral(iters, "iters", 1)
    seed = integral(seed, "seed", 0)
    _unit_delta(delta)
    if not (math.isfinite(mu) and mu >= 0):
        raise PreconditionError(f"mu must be finite and nonnegative, got {mu!r}")
    # the penalty sums n^2 k^2 commutator norms, each at most 2
    largest = 2 * game.n ** 2 * game.k ** 2
    if not math.isfinite(mu * largest):
        raise PreconditionError(
            f"mu = {mu!r} times the largest possible penalty {largest} overflows float range")
    if init is not None:
        alice, bob = init
        check_shapes(game, alice, bob)
        if alice.dim != dim:
            raise PreconditionError(f"init dimension {alice.dim} does not match dim={dim}")
    else:
        rng = rng_from_seed(seed)
        alice, bob = (Measurement(_gram_povms(rng.normal(size=(game.n, game.k, 2, dim, dim))))
                      for _ in range(2))
    # weights[x, a, y, b]: pi V at a player's question x and answer a, the other's y and b
    predicate = game.predicate.astype(float)
    for_alice = np.einsum("xy,xyab->xayb", game.pi, predicate)
    for_bob = np.einsum("xy,xyab->ybxa", game.pi, predicate)
    rho = np.eye(dim, dtype=np.complex128) / dim
    obj = (game_value(game, Strategy(alice, bob, State(rho)), tol)
           - mu * float(_penalty(alice.ops, bob.ops, delta)))
    trace = [obj]
    for _ in range(iters):
        top = best_value(game, alice, bob, tol)
        cand = top.value - mu * float(_penalty(alice.ops, bob.ops, delta))
        if cand >= obj:
            rho = top.state.rho
            obj = cand
        trace.append(obj)
        alice, obj = _improve_rows(for_alice, alice, bob, rho, delta, mu, obj, tol)
        trace.append(obj)
        bob, obj = _improve_rows(for_bob, bob, alice, rho, delta, mu, obj, tol)
        trace.append(obj)
    return SeesawRun(strategy=Strategy(alice, bob, State(rho)), trace=trace)


def classical_optimum(game: NonlocalGame) -> tuple[Fraction, tuple[int, ...], tuple[int, ...]]:
    """Exact best deterministic strategy: value and answer functions.

    Enumerates Alice's answer functions and picks Bob's best reply per
    question, in exact rational arithmetic over game.pi_exact.
    """
    n, k = game.n, game.k
    pairs = k ** (2 * n)
    if pairs > _ENUMERATION_CAP:
        raise PreconditionError(
            f"deterministic enumeration needs k^(2n) = {pairs} strategy pairs, "
            f"above the supported {_ENUMERATION_CAP}")
    common = math.lcm(*(f.denominator for row in game.pi_exact for f in row))
    nums = [[int(f * common) for f in row] for row in game.pi_exact]
    predicate = game.predicate
    best = -1
    best_fa: tuple[int, ...] = ()
    best_fb: tuple[int, ...] = ()
    for fa in itertools.product(range(k), repeat=n):
        total = 0
        reply = []
        for y in range(n):
            scores = [sum(nums[x][y] * int(predicate[x, y, fa[x], b]) for x in range(n))
                      for b in range(k)]
            b_best = max(range(k), key=lambda b: scores[b])
            reply.append(b_best)
            total += scores[b_best]
        if total > best:
            best = total
            best_fa = fa
            best_fb = tuple(reply)
    return Fraction(best, common), best_fa, best_fb


def classical_value(game: NonlocalGame) -> Fraction:
    """Exact winning probability of the best deterministic strategy."""
    value, _, _ = classical_optimum(game)
    return value
