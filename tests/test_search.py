"""Tests for the semidecision harness, see-saw, and classical brute force."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cstarkit import search
from cstarkit.cli import console_main
from cstarkit.errors import HypothesisError, PreconditionError
from cstarkit.games import (Measurement, NonlocalGame, State, Strategy, _psd_sqrt,
                            best_value, chsh, game_element, game_value,
                            is_delta_op_commuting)
from cstarkit.formats import parse_game
from cstarkit.operators import DEFAULT_TOL, op_norm
from cstarkit.rounding import povm_residual, round_to_povm
from cstarkit.sampling import random_density, random_povm, rng_from_seed
from cstarkit.search import (CERTIFIED_EIG_ERROR, CandidateStream, GameFamily,
                             _penalty, _row_values, _row_weights, _witness,
                             _witnesses, classical_optimum,
                             classical_value, constant_family,
                             deterministic_measurement, enumerate_candidates,
                             evaluate_stream, seesaw_optimize,
                             semidecide_membership, verify_witness)


def constant_game(bit, n=1, k=2):
    """Game whose predicate is identically `bit` on uniform questions."""
    pi = np.full((n, n), 1.0 / (n * n))
    predicate = np.full((n, n, k, k), bit, dtype=np.int8)
    return NonlocalGame(pi, predicate)


def distinct_answers_game():
    """n=1, k=2: win exactly when the answers differ."""
    predicate = np.zeros((1, 1, 2, 2), dtype=np.int8)
    predicate[0, 0, 0, 1] = 1
    predicate[0, 0, 1, 0] = 1
    return NonlocalGame(np.ones((1, 1)), predicate)


# --- candidate stream -----------------------------------------------------------

def test_stream_validation():
    with pytest.raises(ValueError):
        CandidateStream(dims=())
    with pytest.raises(ValueError):
        CandidateStream(dims=(0,))
    with pytest.raises(ValueError):
        CandidateStream(dims=(2,), grid_denominator=3)
    with pytest.raises(ValueError):
        CandidateStream(dims=(2,), budget=0)
    with pytest.raises(PreconditionError):
        CandidateStream(dims=(2,), seed=-1)


def test_deterministic_measurement():
    meas = deterministic_measurement((1, 0), 2)
    assert meas.dim == 1
    assert meas.ops[0, 1, 0, 0] == 1.0
    assert meas.ops[1, 0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        deterministic_measurement((2,), 2)


def test_stream_prefix_enumerates_deterministic_pairs():
    """The first k^(2n) candidates are the dimension-one deterministic pairs."""
    game = chsh()
    stream = CandidateStream(dims=(2,), budget=16)
    pairs = list(enumerate_candidates(game, stream, delta=1.0))
    assert len(pairs) == 16
    seen = set()
    for _, alice, bob, _ in pairs:
        assert alice.dim == 1 and bob.dim == 1
        fa = tuple(int(np.argmax(alice.ops[x, :, 0, 0].real)) for x in range(2))
        fb = tuple(int(np.argmax(bob.ops[y, :, 0, 0].real)) for y in range(2))
        seen.add((fa, fb))
    assert len(seen) == 16


def test_stream_deterministic_across_runs():
    game = chsh()
    stream = CandidateStream(dims=(2, 3), budget=24, seed=7)
    first = list(enumerate_candidates(game, stream, delta=1.0))
    second = list(enumerate_candidates(game, stream, delta=1.0))
    assert len(first) == len(second)
    for (i1, a1, b1, c1), (i2, a2, b2, c2) in zip(first, second):
        assert i1 == i2 and c1 == c2
        assert np.array_equal(a1.ops, a2.ops)
        assert np.array_equal(b1.ops, b2.ops)


def test_stream_random_phase_snaps_to_grid():
    game = constant_game(1)
    q = 1024
    stream = CandidateStream(dims=(2,), budget=8, seed=3, grid_denominator=q)
    pairs = list(enumerate_candidates(game, stream, delta=1.0))
    random_pairs = [p for p in pairs if p[1].dim > 1]
    assert random_pairs, "budget 8 must reach past the 4-pair deterministic prefix"


def test_planted_pair_position():
    """A planted pair arrives right after the k^(2n) deterministic prefix."""
    game = distinct_answers_game()
    rng = rng_from_seed(60)
    planted_alice = Measurement(np.array([random_povm(rng, 3, 2)]))
    planted_bob = Measurement(np.array([random_povm(rng, 3, 2)]))
    stream = CandidateStream(dims=(2,), budget=5,
                             planted=((planted_alice, planted_bob),))
    pairs = list(enumerate_candidates(game, stream, delta=1.0))
    assert len(pairs) == 5
    examined, alice, bob, check = pairs[4]
    assert examined == game.k ** (2 * game.n) + 1
    assert check.ok
    assert alice.dim == 3
    assert np.array_equal(alice.ops, planted_alice.ops)
    assert np.array_equal(bob.ops, planted_bob.ops)


def test_planted_pair_shape_checked():
    game = chsh()
    wrong = deterministic_measurement((0,), 2)  # one question, game has two
    stream = CandidateStream(dims=(2,), budget=20, planted=((wrong, wrong),))
    with pytest.raises(PreconditionError):
        list(enumerate_candidates(game, stream, delta=1.0))


def test_delta_zero_filters_everything():
    """No pair passes a strict delta = 0 commutation check."""
    game = chsh()
    stream = CandidateStream(dims=(2,), budget=30)
    assert list(enumerate_candidates(game, stream, delta=0.0)) == []


# --- block pipeline against the per-candidate loop ---------------------------------

DATA = Path(__file__).resolve().parent.parent / "data"


def _reference_stream(game, stream, delta, tol=DEFAULT_TOL, refuse=()):
    """The per-candidate loop: (examined, alice, bob, check, value, state) per gated pair.

    Each random position draws all 2n rows with random_povm, snaps them to
    the grid and repairs each with round_to_povm; a refusal (or a position
    in `refuse`) skips the position.  Gated pairs are scored with best_value.
    """
    n, k, q = game.n, game.k, stream.grid_denominator
    pairs = [(deterministic_measurement(fa, k), deterministic_measurement(fb, k))
             for fa in itertools.product(range(k), repeat=n)
             for fb in itertools.product(range(k), repeat=n)]
    pairs += list(stream.planted)
    rng = rng_from_seed(stream.seed)
    out = []
    for examined in range(1, stream.budget + 1):
        if examined <= len(pairs):
            alice, bob = pairs[examined - 1]
        else:
            dim = stream.dims[(examined - len(pairs) - 1) % len(stream.dims)]
            rows = [[(np.round(m.real * q) + 1j * np.round(m.imag * q)) / q
                     for m in random_povm(rng, dim, k)] for _ in range(2 * n)]
            try:
                repaired = [round_to_povm(row, tol)[0] for row in rows]
            except HypothesisError:
                continue
            if examined in refuse:
                continue
            alice, bob = Measurement(np.array(repaired[:n])), Measurement(np.array(repaired[n:]))
        check = is_delta_op_commuting(alice, bob, delta)
        if check.ok:
            best = best_value(game, alice, bob, tol)
            out.append((examined, alice, bob, check, best.value - CERTIFIED_EIG_ERROR, best.state))
    return out


def _assert_stream_matches(game, stream, delta, reference):
    witnesses = [(scored, _witness(game, stream, *scored)) for scored
                 in _witnesses(game, stream, delta, DEFAULT_TOL)]
    candidates = list(enumerate_candidates(game, stream, delta))
    assert len(witnesses) == len(candidates) == len(reference)
    for ref, cand, (scored, witness) in zip(reference, candidates, witnesses):
        examined, alice, bob, check, ref_value, state = ref
        _, ops, _, value, _ = scored
        assert np.array_equal(ops, [alice.ops, bob.ops])
        for got in (cand, (scored[0], witness.alice, witness.bob, scored[2])):
            assert got[0] == examined and got[3] == check
            assert np.array_equal(got[1].ops, alice.ops)
            assert np.array_equal(got[2].ops, bob.ops)
        assert value == witness.certified_value == ref_value
        assert witness.defect == check.worst_defect
        assert np.array_equal(witness.state.rho, state.rho)


def test_random_povm_matches_per_gram_construction():
    """One stacked draw and root give the per-Gram loop's POVM and generator state."""
    for dim in range(1, 6):
        for k in (1, 2, 4):
            rng, ref_rng = rng_from_seed(dim * 10 + k), rng_from_seed(dim * 10 + k)
            raw = []
            for _ in range(k):
                g = ref_rng.normal(size=(dim, dim)) + 1j * ref_rng.normal(size=(dim, dim))
                raw.append(g @ g.conj().T / dim + 0.1 * np.eye(dim))
            total = sum(raw)
            w, v = np.linalg.eigh((total + total.conj().T) / 2)
            root = (v * (w ** -0.5)) @ v.conj().T
            expected = [(root @ m @ root + (root @ m @ root).conj().T) / 2 for m in raw]
            got = random_povm(rng, dim, k)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            assert rng.normal() == ref_rng.normal()


@pytest.mark.parametrize("name, dims, q, delta, budget, seed", [
    ("chsh", (1, 2, 5), 1024, 1.0, 80, 1),  # 64 random positions, second block full
    ("never_win", (2, 3, 4), 64, 0.5, 50, 2),  # budget ends mid-block
    ("all_win", (5, 1), 8, 1.0, 45, 3),
    ("chsh", (3,), 4, 0.2, 40, 4),
    ("chsh", (2,), 1024, 0.0, 37, 5),  # delta = 0 gates everything out
])
def test_block_pipeline_matches_per_candidate_loop(name, dims, q, delta, budget, seed):
    game = parse_game((DATA / f"{name}.json").read_text())
    stream = CandidateStream(dims=dims, grid_denominator=q, seed=seed, budget=budget)
    reference = _reference_stream(game, stream, delta)
    assert (delta == 0.0) == (not reference)
    _assert_stream_matches(game, stream, delta, reference)


def test_block_pipeline_matches_per_candidate_loop_with_planted_pair():
    game, pair = diluted_chsh_with_planted_pair()
    stream = CandidateStream(dims=(2, 4), seed=6, budget=2 ** 6 + 40, planted=(pair,))
    reference = _reference_stream(game, stream, 0.5)
    assert any(ref[1] is pair[0] for ref in reference)
    _assert_stream_matches(game, stream, 0.5, reference)


def test_refused_position_is_skipped_and_the_rest_is_unchanged(monkeypatch):
    """A repair refusal drops only its own position; later draws do not shift."""
    game = chsh()
    stream = CandidateStream(dims=(2, 3), seed=7, budget=16 + 50)
    target = 16 + 20  # 20th random position (dim 3), in the second block
    real = search._repair_povms
    calls = []

    def refuse_one(stack, tol):
        rounded, refused, *rest = real(stack, tol)
        calls.append(stack.shape[0])
        if len(calls) % 6 == 4:  # each run: 6 calls; 4th is block 2, dim 3: 34, 36, ...
            refused = refused.copy()
            refused[1, 1, 0] = True  # position 36: one of Bob's rows
        return (rounded, refused, *rest)

    monkeypatch.setattr(search, "_repair_povms", refuse_one)
    reference = _reference_stream(game, stream, 1.0, refuse={target})
    unforced = _reference_stream(game, stream, 1.0)
    assert [ref[0] for ref in unforced if ref[0] != target] == [ref[0] for ref in reference]
    assert len(unforced) == len(reference) + 1
    _assert_stream_matches(game, stream, 1.0, reference)
    assert calls == 2 * [8, 8, 16, 16, 1, 1]


# --- semidecision ----------------------------------------------------------------

def test_semidecide_all_win_accepts_first_candidate():
    family = constant_family(constant_game(1), delta=1.0)
    stream = CandidateStream(dims=(2,), budget=100)
    verdict = semidecide_membership(family, "", stream)
    assert verdict.outcome == "accepted"
    assert verdict.candidates_tried == 1
    assert verdict.witness.certified_value > 0.5


def test_semidecide_never_win_exhausts():
    family = constant_family(constant_game(0), delta=1.0)
    stream = CandidateStream(dims=(2,), budget=50)
    verdict = semidecide_membership(family, "0", stream)
    assert verdict.outcome == "budget_exhausted"
    assert verdict.witness is None
    assert verdict.candidates_tried == 50


def test_semidecide_examines_in_stream_order():
    """Distinct-answers game: (0,0) loses, (0,1) wins, so acceptance is at 2."""
    family = constant_family(distinct_answers_game(), delta=1.0)
    stream = CandidateStream(dims=(2,), budget=10)
    verdict = semidecide_membership(family, "", stream)
    assert verdict.outcome == "accepted"
    assert verdict.candidates_tried == 2


def test_semidecide_rejects_bad_input_word():
    family = constant_family(constant_game(1), delta=1.0)
    stream = CandidateStream(dims=(2,), budget=10)
    with pytest.raises(PreconditionError):
        semidecide_membership(family, "01x", stream)


def test_semidecide_delta_out_of_range():
    family = GameFamily(encode=lambda z: constant_game(1), delta=lambda m: 2.0)
    stream = CandidateStream(dims=(2,), budget=10)
    with pytest.raises(PreconditionError):
        semidecide_membership(family, "", stream)


def test_witness_reverifies():
    family = constant_family(chsh(), delta=1.0)
    stream = CandidateStream(dims=(2,), budget=200, seed=1)
    verdict = semidecide_membership(family, "", stream)
    assert verdict.outcome == "accepted"
    audit = verify_witness(chsh(), verdict.witness, delta=1.0)
    assert audit.ok
    assert verdict.witness.defect == audit.worst_defect
    assert audit.povm_residual <= 1e-10
    assert audit.value > 0.5


def test_povm_residual_zero_on_exact_and_matches_rounding():
    meas = deterministic_measurement((0, 1), 2)
    assert [povm_residual(row) for row in meas.ops] == [0.0, 0.0]
    assert povm_residual([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]) == 0.5
    assert povm_residual([np.eye(2), np.eye(2)]) == 1.0
    rng = rng_from_seed(12)
    for dim, k in ((2, 2), (3, 4), (5, 3)):
        noisy = [m + 1e-3 * rng.normal(size=(dim, dim)) for m in random_povm(rng, dim, k)]
        rounded, report = round_to_povm(noisy)
        assert povm_residual(rounded) == report.exactness_residual


def test_evaluate_stream_scans_whole_budget():
    game = chsh()
    stream = CandidateStream(dims=(2,), budget=30, seed=5)
    best, examined = evaluate_stream(game, stream, delta=1.0)
    assert examined == 30
    assert best is not None
    assert best.defect == is_delta_op_commuting(best.alice, best.bob, 1.0).worst_defect
    # the deterministic prefix alone reaches the classical value 3/4
    assert best.certified_value >= 0.75 - 2.0 ** -7 - 1e-12


def diluted_chsh_with_planted_pair(t=0.05):
    """CHSH on questions {0, 1} at total weight 5/8; Alice's question 2 never wins.

    The classical value is 15/32, so the deterministic prefix never clears
    1/2.  The planted pair is the optimal tensor strategy with Bob's side
    conjugated by exp(i t X(x)X), which breaks commutation slightly and
    keeps the best state value near 5/8 cos^2(pi/8) ~ 0.53.
    """
    pi = np.zeros((3, 3))
    pi[:2, :2] = 5 / 32
    pi[2, :] = 1 / 8
    predicate = np.zeros((3, 3, 2, 2), dtype=np.int8)
    predicate[:2, :2] = chsh().predicate
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    u = np.cos(t) * np.eye(4) + 1j * np.sin(t) * np.kron(x, x)

    def rows(observables, lift):
        return np.array([[lift((eye + sign * obs) / 2) for sign in (1, -1)]
                         for obs in observables])

    alice = rows([z, x, z], lambda p: np.kron(p, eye))
    bob = rows([(z + x) / np.sqrt(2), (z - x) / np.sqrt(2), z],
               lambda p: u @ np.kron(eye, p) @ u.conj().T)
    return NonlocalGame(pi, predicate), (Measurement(alice), Measurement(bob))


def test_witness_defect_is_the_gate_check():
    """Both scorers report the defect their commutation gate measured."""
    game, pair = diluted_chsh_with_planted_pair()
    assert classical_value(game) == Fraction(15, 32)
    stream = CandidateStream(dims=(2,), budget=70, planted=(pair,))
    verdict = semidecide_membership(constant_family(game, 0.5), "", stream)
    assert verdict.outcome == "accepted"
    assert verdict.candidates_tried == 2 ** 6 + 1
    best, _ = evaluate_stream(game, stream, 0.5)
    for witness in (verdict.witness, best):
        assert witness.alice is pair[0] and witness.bob is pair[1]
        check = is_delta_op_commuting(witness.alice, witness.bob, 0.5)
        assert witness.defect == check.worst_defect > 0


@pytest.mark.parametrize("command, game, code, built", [
    ("semidecide", "never_win.json", 4, 4),  # the dimension-one answer functions
    ("game-value", "chsh.json", 0, 6),  # those, then the best pair's Witness
])
def test_search_builds_measurements_only_for_handed_out_pairs(monkeypatch, tmp_path, command,
                                                              game, code, built):
    """Repaired pairs travel as ops stacks; only a Witness turns one into Measurements."""
    calls = []
    validate = Measurement.__post_init__
    monkeypatch.setattr(Measurement, "__post_init__",
                        lambda self: (calls.append(1), validate(self)))
    argv = [command, "--game", str(DATA / game), "--budget", "50", "--dims", "2,3,4",
            "--seed", "1", "--out", str(tmp_path / "report.jsonl")]
    assert console_main(argv) == code
    assert len(calls) == built


def test_evaluate_stream_none_under_delta_zero():
    game = chsh()
    stream = CandidateStream(dims=(2,), budget=20)
    best, examined = evaluate_stream(game, stream, delta=0.0)
    assert best is None
    assert examined == 20


# --- see-saw ---------------------------------------------------------------------

def test_seesaw_trace_never_decreases():
    game = chsh()
    run = seesaw_optimize(game, dim=2, delta=1.0, mu=10.0, iters=8, seed=2)
    trace = run.trace
    assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))


def test_seesaw_keeps_classical_start_above_classical_value():
    """Starting from the best deterministic strategy, see-saw never drops it."""
    game = chsh()
    init_ops = np.zeros((2, 2, 1, 1), dtype=complex)
    init_ops[0, 0, 0, 0] = 1.0
    init_ops[1, 0, 0, 0] = 1.0
    det = Measurement(init_ops)
    run = seesaw_optimize(game, dim=1, delta=1.0, iters=5, init=(det, det))
    assert run.trace[-1] >= 0.75 - 1e-9
    assert game_value(game, run.strategy) >= 0.75 - 1e-9


def test_seesaw_all_win_game_reaches_one_immediately():
    game = constant_game(1)
    run = seesaw_optimize(game, dim=2, delta=1.0, iters=2, seed=4)
    # after the first state step the objective is the top eigenvalue 1
    assert run.trace[-1] == pytest.approx(1.0, abs=1e-9)


def test_seesaw_improves_over_random_init():
    game = chsh()
    run = seesaw_optimize(game, dim=2, delta=1.0, mu=10.0, iters=25, seed=6)
    assert run.trace[-1] > run.trace[0]
    assert run.trace[-1] > 0.75


def test_seesaw_strategy_is_valid():
    game = chsh()
    run = seesaw_optimize(game, dim=3, delta=1.0, iters=5, seed=8)
    # constructors re-validate POVM and state conditions
    value = game_value(game, run.strategy)
    assert 0.0 <= value <= 1.0 + 1e-9


def test_seesaw_parameter_validation():
    game = chsh()
    with pytest.raises(PreconditionError):
        seesaw_optimize(game, dim=0)
    with pytest.raises(PreconditionError):
        seesaw_optimize(game, dim=2, mu=-1.0)
    with pytest.raises(PreconditionError):
        seesaw_optimize(game, dim=2, iters=0)
    wrong_dim = deterministic_measurement((0, 0), 2)
    with pytest.raises(PreconditionError):
        seesaw_optimize(game, dim=2, init=(wrong_dim, wrong_dim))


def test_seesaw_objective_matches_game_value_when_commuting_ok():
    """With delta = 1 and near-zero penalty the objective is the state value."""
    game = chsh()
    run = seesaw_optimize(game, dim=2, delta=1.0, mu=10.0, iters=10, seed=9)
    strategy = run.strategy
    element = game_element(game, strategy.alice, strategy.bob)
    direct = float(np.trace(strategy.state.rho @ element).real)
    assert run.trace[-1] <= direct + 1e-8


def _random_game(rng, n, k):
    pi = rng.uniform(0.0, 1.0, size=(n, n))
    return NonlocalGame(pi / pi.sum(), rng.integers(0, 2, size=(n, n, k, k)).astype(np.int8))


def test_row_values_split_the_game_value():
    """Summed over one side's rows, the row values are the game value."""
    rng = rng_from_seed(31)
    cases = [(chsh(), dim) for dim in range(1, 5)]
    for _ in range(40):
        n, k = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        cases.append((_random_game(rng, n, k), int(rng.integers(1, 5))))
    for game, dim in cases:
        alice, bob = (Measurement(np.array([random_povm(rng, dim, game.k)
                                            for _ in range(game.n)])) for _ in range(2))
        rho = random_density(rng, dim)
        value = game_value(game, Strategy(alice, bob, State(rho)))
        for side, mine, other in (("alice", alice, bob), ("bob", bob, alice)):
            roots = _psd_sqrt(other.ops, DEFAULT_TOL)
            table = roots @ rho @ roots
            total = sum(float(_row_values(mine.ops[x][None], _row_weights(game, x, side),
                                          other.ops, table, rho, DEFAULT_TOL)[0])
                        for x in range(game.n))
            assert abs(total - value) <= 1e-12, (side, game.n, game.k, dim, total, value)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("delta", [0.05, 0.2, 1.0])
def test_seesaw_objective_is_value_minus_penalty(dim, delta):
    """The last trace entry is the final strategy's value minus mu times its penalty."""
    game, mu = chsh(), 10.0
    run = seesaw_optimize(game, dim=dim, delta=delta, mu=mu, iters=4, seed=dim)
    strategy = run.strategy
    expected = (game_value(game, strategy)
                - mu * float(_penalty(strategy.alice.ops, strategy.bob.ops, delta)))
    assert abs(run.trace[-1] - expected) <= 1e-9, (run.trace[-1], expected)


# --- classical brute force ---------------------------------------------------------

def test_classical_value_chsh_exact():
    assert classical_value(chsh()) == Fraction(3, 4)


def test_classical_value_constant_games():
    assert classical_value(constant_game(1)) == 1
    assert classical_value(constant_game(0)) == 0


def test_classical_optimum_strategy_attains_value():
    game = chsh()
    value, fa, fb = classical_optimum(game)
    direct = sum(Fraction(1, 4) * int(game.predicate[x, y, fa[x], fb[y]])
                 for x in range(2) for y in range(2))
    assert direct == value == Fraction(3, 4)


def test_classical_value_distinct_answers():
    assert classical_value(distinct_answers_game()) == 1


def test_classical_value_enumeration_guard():
    pi = np.full((13, 13), 1.0 / 169)
    predicate = np.zeros((13, 13, 4, 4), dtype=np.int8)
    big = NonlocalGame(pi, predicate)
    with pytest.raises(PreconditionError):
        classical_value(big)


def test_classical_value_non_uniform_pi():
    pi = np.array([[0.5, 0.25], [0.125, 0.125]])
    predicate = np.zeros((2, 2, 2, 2), dtype=np.int8)
    predicate[0, 0, :, :] = 1  # win iff the question pair is (0, 0)
    game = NonlocalGame(pi, predicate)
    assert classical_value(game) == Fraction(1, 2)


def test_classical_value_exact_for_rational_weights():
    """Non-dyadic "p/q" weights stay exact: 1/9 each, three winning cells."""
    doc = {"n": 3, "k": 2, "pi": [["1/9"] * 3] * 3,
           "win": [[0, 0, 0, 0], [1, 1, 0, 0], [2, 2, 0, 0]]}
    game = parse_game(json.dumps(doc))
    assert game.pi_exact[1][2] == Fraction(1, 9)
    assert game.pi[1, 2] == 1 / 9
    assert classical_value(game) == Fraction(1, 3)
