"""Semidecision over finite-dimensional strategy candidates.

A game family maps bit strings to games; membership is half-decided by
sweeping a deterministic stream of measurement pairs (dimension one
deterministic strategies first, then caller-planted pairs, then seeded
random dyadic-grid candidates) and accepting as soon as the best state
value certifiably exceeds one half.  A see-saw optimizer and an exact
classical brute force round out the toolbox.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
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
from .rounding import _repair_povms, povm_residual, round_to_povm  # noqa: F401
from .sampling import _gram_povms, random_povm, rng_from_seed

# Certified bound on the eigenvalue error of the value estimate.  Dense
# Hermitian solves are accurate to machine precision times the norm, so
# this is a generous ceiling; acceptance demands value - error > 1/2.
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
        dims = tuple(integral(d, "dims entries") for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise PreconditionError("dims must be a nonempty sequence of positive integers")
        object.__setattr__(self, "dims", dims)
        q = integral(self.grid_denominator, "grid_denominator")
        if q < 2 or q & (q - 1):
            raise PreconditionError("grid_denominator must be a power of two, at least 2, "
                                    f"got {self.grid_denominator!r}")
        object.__setattr__(self, "grid_denominator", q)
        budget = integral(self.budget, "budget")
        if budget < 1:
            raise PreconditionError(f"budget must be at least 1, got {self.budget!r}")
        object.__setattr__(self, "budget", budget)
        seed = integral(self.seed, "seed")
        if seed < 0:
            raise PreconditionError(f"seed must be nonnegative, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)
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
    wall_time: float

    def __post_init__(self) -> None:
        if self.outcome not in _OUTCOMES:
            raise ValueError(f"outcome must be one of {_OUTCOMES}, got {self.outcome!r}")
        if self.outcome == "accepted":
            if self.witness is None or not self.witness.certified_value > 0.5:
                raise ValueError("accepted verdicts need a witness certified above 1/2")


def deterministic_measurement(answers: Sequence[int], k: int) -> Measurement:
    """Dimension-one measurement answering question x with answers[x]."""
    answers = tuple(int(a) for a in answers)
    if any(not 0 <= a < k for a in answers):
        raise ValueError(f"answers must lie in [0, {k}), got {answers}")
    ops = np.zeros((len(answers), k, 1, 1), dtype=np.complex128)
    for x, a in enumerate(answers):
        ops[x, a, 0, 0] = 1.0
    return Measurement(ops)


def _snap_to_grid(m: np.ndarray, q: int) -> np.ndarray:
    return (np.round(m.real * q) + 1j * np.round(m.imag * q)) / q


# stream positions per block of the candidate pipeline
_BLOCK = 32
# (examined, alice, bob, check): a stream position's pair that passed the gates
Candidate = tuple[int, Measurement, Measurement, CommutationCheck]
# (examined, ops, check): the same, the pair as its (2, n, k, d, d) ops stack
Gated = tuple[int, np.ndarray, CommutationCheck]


def _positions(game: NonlocalGame, stream: CandidateStream) -> Iterator[np.ndarray | int]:
    """Stream order: deterministic and planted pair stacks, then a dimension per random position."""
    k = game.k
    # each of the k^n answer functions becomes a Measurement once, when first reached
    det = functools.cache(lambda answers: deterministic_measurement(answers, k).ops)
    for fa, fb in itertools.product(itertools.product(range(k), repeat=game.n), repeat=2):
        yield np.array([det(fa), det(fb)])
    for alice, bob in stream.planted:
        check_shapes(game, alice, bob)
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
        rounded, refused, *_ = _repair_povms(_snap_to_grid(_gram_povms(group), q), tol)
        return [None if bad.any() else ops for ops, bad in zip(rounded, refused)]

    return _per_dim(draws, repaired)


def _gated_blocks(game: NonlocalGame, stream: CandidateStream, delta: float,
                  tol: Tolerance) -> Iterator[list[Gated]]:
    """Gated pairs per block of up to _BLOCK positions, none past the budget."""
    source = _positions(game, stream)
    rng = rng_from_seed(stream.seed)
    start = 1
    while start <= stream.budget:
        block = list(itertools.islice(source, min(_BLOCK, stream.budget - start + 1)))
        dims = [item for item in block if isinstance(item, int)]
        drawn = iter(_grid_pairs(rng, dims, game, stream.grid_denominator, tol))
        pairs = [next(drawn) if isinstance(item, int) else item for item in block]
        live = [(start + i, ops) for i, ops in enumerate(pairs) if ops is not None]
        checks = _per_dim([ops for _, ops in live], lambda group: [
            _commutation_check(table, delta)
            for table in commutator_defects(group[:, 0], group[:, 1])])
        yield [(*pair, check) for pair, check in zip(live, checks) if check.ok]
        start += len(block)


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


def semidecide_membership(family: GameFamily, z: str, stream: CandidateStream,
                          tol: Tolerance = DEFAULT_TOL) -> SearchVerdict:
    """Half-decide membership of z by sweeping the candidate stream.

    Accepts once best_value minus the certified eigenvalue error clears
    one half; returns budget_exhausted otherwise.  Never answers "no".
    """
    if not isinstance(z, str) or set(z) - {"0", "1"}:
        raise PreconditionError(f"z must be a string of 0s and 1s, got {z!r}")
    game = family.encode(z)
    delta = float(family.delta(len(z)))
    if not 0.0 <= delta <= 1.0:
        raise PreconditionError(f"delta({len(z)}) = {delta!r} must lie in [0, 1]")
    start = time.perf_counter()
    for scored in _witnesses(game, stream, delta, tol):
        if scored[3] > 0.5:
            return SearchVerdict(outcome="accepted", witness=_witness(game, stream, *scored),
                                 candidates_tried=scored[0],
                                 wall_time=time.perf_counter() - start)
    return SearchVerdict(outcome="budget_exhausted", witness=None,
                         candidates_tried=stream.budget,
                         wall_time=time.perf_counter() - start)


def evaluate_stream(game: NonlocalGame, stream: CandidateStream, delta: float,
                    tol: Tolerance = DEFAULT_TOL) -> tuple[Witness | None, int]:
    """Best certified value over the whole candidate stream, no threshold.

    Returns the best Witness found (None when nothing in the stream passes
    the measurement and commutation gates) and the number of candidates
    examined, which is the full budget.  A stream-limited lower estimate
    of the delta-almost-commuting value of the game.
    """
    if not 0.0 <= delta <= 1.0:
        raise PreconditionError(f"delta = {delta!r} must lie in [0, 1]")
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


def _row_weights(game: NonlocalGame, x: int, side: str) -> np.ndarray:
    """weights[a, y, b]: coefficient of tr(rho (mine[a] • other[y, b]))."""
    predicate = game.predicate.astype(float)
    if side == "alice":
        return np.einsum("y,yab->ayb", game.pi[x, :], predicate[x])
    return np.einsum("x,xab->bxa", game.pi[:, x], predicate[:, x])


def _row_values(rows: np.ndarray, weights: np.ndarray, other_ops: np.ndarray,
                table: np.ndarray, rho: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Weighted bullet value of each row of a (T, k, d, d) stack against a fixed state.

    table[y, b] must hold sqrt(F) rho sqrt(F); the trace of rho (E • F)
    then splits into two plain traces.
    """
    roots = _psd_sqrt(rows, tol)
    return 0.5 * (np.einsum("ayb,tajk,ybkj->t", weights, roots @ rho @ roots, other_ops)
                  + np.einsum("ayb,ybjk,takj->t", weights, table, rows)).real


# Divided-difference floor for ascent proposals.  Repaired POVM elements
# carry exact kernel directions whose formal derivative entries blow up;
# a coarse floor keeps proposals pointed at the informative eigenblocks.
_PROPOSAL_FLOOR = 0.25


def _row_value_gradient(row: np.ndarray, weights: np.ndarray, other_ops: np.ndarray,
                        table: np.ndarray, rho: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Ascent direction for one row, from the derivative of its value.

    The value depends on a row element E through tr(rho (E • F)) summed
    with predicate weights; the derivative splits into a direct term
    sqrt(F) rho sqrt(F), read from table[y, b], and a chain term through
    sqrt(E), evaluated with the divided-difference rule for the matrix
    square root.  The divided differences are floored at _PROPOSAL_FLOOR
    where E is nearly singular.  Elements with zero weight get zero.
    """
    spec = hermitian_eig(row, tol)
    s = np.sqrt(np.maximum(spec.eigenvalues, 0.0))
    my_root = spec.apply(lambda _: s)
    other = np.einsum("ayb,ybij->aij", weights, other_ops)
    chain = other @ my_root @ rho + rho @ my_root @ other
    vecs = spec.eigenvectors
    divided = 1.0 / np.maximum(s[:, :, None] + s[:, None, :], _PROPOSAL_FLOOR)
    lifted = vecs @ (divided * (dagger(vecs) @ chain @ vecs)) @ dagger(vecs)
    return herm_part(0.5 * (lifted + np.einsum("ayb,ybij->aij", weights, table)))


def _improve_rows(game: NonlocalGame, alice: Measurement, bob: Measurement,
                  rho: np.ndarray, delta: float, mu: float, obj: float,
                  side: str, tol: Tolerance) -> tuple[Measurement, Measurement, float]:
    """One projected-gradient pass over the chosen side's POVM rows.

    The state and the other side stay fixed, so the objective splits
    into row-local pieces.  Each row repairs all _STEP_GRID trials as one
    stack, values them beside the current row, and takes the first
    trial that gains; each accepted step adds its exact gain.
    """
    mine = alice if side == "alice" else bob
    other = bob if side == "alice" else alice
    roots = _psd_sqrt(other.ops, tol)
    table = roots @ rho @ roots
    steps = np.array(_STEP_GRID)[:, None, None, None]
    ops = np.array(mine.ops)
    for x in range(game.n):
        weights = _row_weights(game, x, side)
        grad = _row_value_gradient(ops[x], weights, other.ops, table, rho, tol)
        grad = grad - grad.mean(axis=0)
        scale = float(op_norms(grad).max())
        if scale <= tol.algebraic:
            continue
        trials, refused, *_ = _repair_povms(herm_part(ops[x] + steps * (grad / scale)), tol)
        # refused slots hold no POVM: value the current row there and never pick it
        rows = np.concatenate([ops[x][None], np.where(refused[:, None, None, None], ops[x], trials)])
        values = _row_values(rows, weights, other.ops, table, rho, tol)
        pens = _penalty(rows[:, None], other.ops, delta)
        gains = (values[1:] - values[0]) - mu * (pens[1:] - pens[0])
        better = ~refused & (gains > 1e-12)
        if better.any():
            t = int(np.argmax(better))
            ops[x] = trials[t]
            obj += float(gains[t])
    mine = Measurement(ops)
    if side == "alice":
        return mine, other, obj
    return other, mine, obj


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
    if dim < 1:
        raise PreconditionError(f"dim must be at least 1, got {dim!r}")
    if not 0.0 <= delta <= 1.0:
        raise PreconditionError(f"delta = {delta!r} must lie in [0, 1]")
    if not (math.isfinite(mu) and mu >= 0):
        raise PreconditionError(f"mu must be finite and nonnegative, got {mu!r}")
    # the penalty sums n^2 k^2 commutator norms, each at most 2
    largest = 2 * game.n ** 2 * game.k ** 2
    if not math.isfinite(mu * largest):
        raise PreconditionError(
            f"mu = {mu!r} times the largest possible penalty {largest} overflows float range")
    if iters < 1:
        raise PreconditionError(f"iters must be at least 1, got {iters!r}")
    if init is not None:
        alice, bob = init
        check_shapes(game, alice, bob)
        if alice.dim != dim:
            raise PreconditionError(f"init dimension {alice.dim} does not match dim={dim}")
    else:
        rng = rng_from_seed(seed)
        alice = Measurement(np.array([random_povm(rng, dim, game.k) for _ in range(game.n)]))
        bob = Measurement(np.array([random_povm(rng, dim, game.k) for _ in range(game.n)]))
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
        alice, bob, obj = _improve_rows(game, alice, bob, rho, delta, mu, obj, "alice", tol)
        trace.append(obj)
        alice, bob, obj = _improve_rows(game, alice, bob, rho, delta, mu, obj, "bob", tol)
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
