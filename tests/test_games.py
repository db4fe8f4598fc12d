"""Tests for nonlocal games, strategies, and the symmetrized product."""

import math

import numpy as np
import pytest

from cstarkit import games
from cstarkit.errors import PreconditionError
from cstarkit.games import (Measurement, NonlocalGame, State, Strategy,
                            best_value, chsh, commutator_defects, correlation,
                            game_element, game_value, is_delta_op_commuting,
                            sym_product)
from cstarkit.games import _game_elements, _psd_sqrt
from cstarkit.operators import DEFAULT_TOL, dagger, herm_part, op_norm
from cstarkit.rounding import povm_residual
from cstarkit.sampling import random_density, random_povm, rng_from_seed

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _projectors(observable):
    """Spectral projectors of a +-1 observable: (P_+, P_-)."""
    plus = (np.eye(2) + observable) / 2
    minus = (np.eye(2) - observable) / 2
    return plus, minus


def _tensor_measurement(observables):
    """One binary measurement per question from +-1 observables, as 4x4 blocks."""
    rows = []
    for obs in observables:
        plus, minus = _projectors(obs)
        rows.append([plus, minus])
    return rows


def chsh_tensor_strategy():
    """The standard optimal CHSH strategy embedded in one 4-dim algebra.

    Alice measures Z and X on her qubit; Bob measures (Z+X)/sqrt(2) and
    (Z-X)/sqrt(2) on his; they share the maximally entangled state.
    """
    s2 = math.sqrt(2.0)
    alice_obs = [Z, X]
    bob_obs = [(Z + X) / s2, (Z - X) / s2]
    eye = np.eye(2)
    alice_rows = [[np.kron(p, eye) for p in _projectors(obs)] for obs in alice_obs]
    bob_rows = [[np.kron(eye, p) for p in _projectors(obs)] for obs in bob_obs]
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / s2
    rho = np.outer(bell, bell.conj())
    return Strategy(Measurement(np.array(alice_rows)),
                    Measurement(np.array(bob_rows)),
                    State(rho))


def random_strategy(rng, n, k, dim):
    alice = Measurement(np.array([random_povm(rng, dim, k) for _ in range(n)]))
    bob = Measurement(np.array([random_povm(rng, dim, k) for _ in range(n)]))
    return Strategy(alice, bob, State(random_density(rng, dim)))


# --- game construction --------------------------------------------------------

def test_chsh_shape_and_predicate():
    game = chsh()
    assert game.n == 2 and game.k == 2
    assert np.allclose(game.pi, 0.25)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    assert game.predicate[x, y, a, b] == (1 if (a ^ b) == (x & y) else 0)


def test_game_validation():
    with pytest.raises(ValueError):
        NonlocalGame(pi=np.full((2, 2), 0.3), predicate=np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        NonlocalGame(pi=np.full((2, 2), -0.25), predicate=np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        NonlocalGame(pi=np.full((2, 2), np.nan), predicate=np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        NonlocalGame(pi=np.full((2, 2), 0.25), predicate=2 * np.ones((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        NonlocalGame(pi=np.full((2, 2), 0.25), predicate=np.zeros((2, 2, 3, 2)))


def test_measurement_validation():
    good = np.zeros((1, 2, 2, 2), dtype=complex)
    good[0, 0] = np.diag([1.0, 0.0])
    good[0, 1] = np.diag([0.0, 1.0])
    Measurement(good)  # fine
    bad_sum = good.copy()
    bad_sum[0, 1] = np.diag([0.0, 0.5])
    with pytest.raises(ValueError):
        Measurement(bad_sum)
    bad_pos = good.copy()
    bad_pos[0, 0] = np.diag([1.5, 0.0])
    bad_pos[0, 1] = np.diag([-0.5, 1.0])
    with pytest.raises(ValueError):
        Measurement(bad_pos)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_measurement_rejects_non_finite_entries_without_warning(entry):
    """inf and NaN fail the finiteness check before any arithmetic could warn."""
    ops = np.zeros((1, 2, 2, 2), dtype=complex)
    ops[0, 0] = np.eye(2)
    ops[0, 0, 0, 1] = entry
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        Measurement(ops)


@pytest.mark.parametrize("seed", range(4))
def test_measurement_raises_iff_residual_or_hermitian_defect_exceeds_tolerance(seed):
    """Each row's povm_residual and the operator-norm Hermitian defect decide, against 1e-10."""
    rng = rng_from_seed(seed)
    dim = 2 + seed % 3
    base = np.array([random_povm(rng, dim, 2) for _ in range(2)])
    x = seed % 2
    a = int(np.argmax([op_norm(m) for m in base[x]]))  # |A^x_a| >= 1/2, so the sum moves >= size/2
    pvm = np.zeros((1, 2, dim, dim), dtype=complex)
    pvm[0, 0, 0, 0] = 1.0
    pvm[0, 1] = np.eye(dim) - pvm[0, 0]
    for size, expected in ((5e-11, False), (3e-10, True)):
        scaled = base.copy()
        scaled[x, a] *= 1 + size
        tilted = base.copy()
        tilted[1 - x, 1, 0, 1] += size
        negative = pvm.copy()  # eigenvalue -size, the sum unchanged
        negative[0, 0, 1, 1] = -size
        negative[0, 1, 1, 1] = 1 + size
        for ops in (scaled, tilted, negative):
            residual = max(povm_residual(row) for row in ops)
            herm = max(op_norm(m - dagger(m)) for row in ops for m in row)
            assert bool(residual > 1e-10 or herm > 1e-10) is expected
            if herm > 1e-10:
                with pytest.raises(ValueError, match="Hermitian"):
                    Measurement(ops)
            elif residual > 1e-10:
                with pytest.raises(ValueError, match=f"povm_residual {residual:.3e}"):
                    Measurement(ops)
            else:
                Measurement(ops)


def test_measurement_hermitian_defect_is_the_operator_norm():
    """|A - A^H| is 1.6e-10 with entries of 4e-11: refused, as hermitian_eig refuses it."""
    skew = 2e-11j * np.ones((4, 4))
    ops = np.array([[np.eye(4) / 2 + skew, np.eye(4) / 2 - skew]] * 2)
    with pytest.raises(ValueError, match="Hermitian within tolerance, defect 1.600e-10"):
        Measurement(ops)
    m = Measurement(ops / 2 + dagger(ops) / 2)
    best_value(chsh(), m, m)


def test_state_validation():
    State(np.eye(2) / 2)
    with pytest.raises(ValueError):
        State(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        State(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_game_parts_compare_by_identity_and_hash():
    """Equality is identity, never an elementwise array comparison."""
    game = chsh()
    assert (game == game) is True
    assert (chsh() == chsh()) is False
    ops = np.zeros((1, 2, 2, 2), dtype=complex)
    ops[0, 0] = np.diag([1.0, 0.0])
    ops[0, 1] = np.diag([0.0, 1.0])
    meas = Measurement(ops)
    state = State(np.eye(2) / 2)
    assert (Measurement(ops) == Measurement(ops)) is False
    assert len({game, chsh(), meas, state, game, meas, state}) == 4
    strategy = Strategy(meas, meas, state)
    assert strategy == Strategy(meas, meas, state)
    assert strategy != Strategy(Measurement(ops), meas, state)
    assert len({strategy, Strategy(meas, meas, state)}) == 1


# --- symmetrized product --------------------------------------------------------

def test_sym_product_symmetric():
    rng = rng_from_seed(50)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        a = random_povm(rng, dim, 2)[0]
        b = random_povm(rng, dim, 2)[1]
        assert op_norm(sym_product(a, b) - sym_product(b, a)) < 1e-12


def test_sym_product_collapses_on_commuting():
    a = np.diag([0.3, 0.7, 0.1]).astype(complex)
    b = np.diag([0.5, 0.2, 0.9]).astype(complex)
    assert op_norm(sym_product(a, b) - a @ b) < 1e-12


def test_sym_product_positive_for_positive_inputs():
    rng = rng_from_seed(51)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        a = random_povm(rng, dim, 3)[0]
        b = random_povm(rng, dim, 3)[2]
        low = float(np.linalg.eigvalsh(sym_product(a, b))[0])
        assert low > -1e-10


def test_sym_product_rejects_negative_input():
    with pytest.raises(ValueError):
        sym_product(np.diag([-0.5, 1.0]), np.eye(2) / 2)


def test_psd_sqrt_stack_names_first_negative_matrix():
    """Stacked roots match one root per matrix; a failure names the first bad one."""
    rng = rng_from_seed(41)
    ops = np.array([random_povm(rng, 3, 2) for _ in range(2)])
    roots = _psd_sqrt(ops, DEFAULT_TOL)
    for x, a in np.ndindex(2, 2):
        assert np.array_equal(roots[x, a], _psd_sqrt(ops[x, a], DEFAULT_TOL))
    bad = ops.copy()
    bad[1, 0] = np.diag([-0.25, 1.0, 1.0])
    bad[1, 1] = np.diag([-0.5, 1.0, 1.0])
    with pytest.raises(ValueError, match="-2.500e-01"):
        _psd_sqrt(bad, DEFAULT_TOL)


# --- correlations and values ---------------------------------------------------

def test_chsh_tensor_strategy_value():
    """The optimal tensor strategy wins with probability cos^2(pi/8)."""
    strategy = chsh_tensor_strategy()
    value = game_value(chsh(), strategy)
    assert value == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-9)


def test_chsh_tensor_correlations_match_oracle():
    """Each correlation equals the textbook (1 +- <obs x obs>)/4 pattern."""
    strategy = chsh_tensor_strategy()
    c = math.cos(math.pi / 8) ** 2
    game = chsh()
    for x in range(2):
        for y in range(2):
            win = sum(correlation(strategy, x, y, a, b)
                      for a in range(2) for b in range(2)
                      if game.predicate[x, y, a, b])
            assert win == pytest.approx(c, abs=1e-9)


def test_correlation_normalization():
    rng = rng_from_seed(52)
    for _ in range(15):
        n, k = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        dim = int(rng.integers(2, 5))
        strategy = random_strategy(rng, n, k, dim)
        for x in range(n):
            for y in range(n):
                total = sum(correlation(strategy, x, y, a, b)
                            for a in range(k) for b in range(k))
                assert total == pytest.approx(1.0, abs=1e-10)


def test_correlation_index_checks():
    strategy = chsh_tensor_strategy()
    with pytest.raises(IndexError):
        correlation(strategy, 2, 0, 0, 0)
    with pytest.raises(IndexError):
        correlation(strategy, 0, 0, 0, 5)


def test_game_element_spectrum_in_unit_interval():
    rng = rng_from_seed(53)
    game = chsh()
    for _ in range(15):
        dim = int(rng.integers(2, 5))
        strategy = random_strategy(rng, 2, 2, dim)
        element = game_element(game, strategy.alice, strategy.bob)
        assert op_norm(element - dagger(element)) < 1e-12
        eigs = np.linalg.eigvalsh(element)
        assert float(eigs[0]) >= -1e-10
        assert float(eigs[-1]) <= 1.0 + 1e-10


def test_game_element_rejects_mismatched_shapes():
    rng = rng_from_seed(55)
    game = chsh()
    fits = random_strategy(rng, 2, 2, 2)
    mismatched = [
        random_strategy(rng, 1, 2, 2).alice,  # one question, game has two
        random_strategy(rng, 2, 3, 2).alice,  # three outcomes, game has two
        random_strategy(rng, 2, 2, 3).alice,  # dimension differs from bob's
    ]
    for alice in mismatched:
        with pytest.raises(PreconditionError):
            game_element(game, alice, fits.bob)
    with pytest.raises(PreconditionError):
        game_element(game, fits.alice, fits.bob.ops)


def test_game_value_equals_weighted_correlations():
    rng = rng_from_seed(54)
    game = chsh()
    strategy = random_strategy(rng, 2, 2, 3)
    direct = sum(game.pi[x, y] * correlation(strategy, x, y, a, b)
                 for x in range(2) for y in range(2)
                 for a in range(2) for b in range(2)
                 if game.predicate[x, y, a, b])
    assert game_value(game, strategy) == pytest.approx(direct, abs=1e-10)


def test_best_value_dominates_all_states():
    rng = rng_from_seed(55)
    game = chsh()
    strategy = random_strategy(rng, 2, 2, 4)
    top = best_value(game, strategy.alice, strategy.bob)
    assert top.value + 1e-10 >= game_value(game, strategy)
    hit = game_value(game, Strategy(strategy.alice, strategy.bob, top.state))
    assert hit == pytest.approx(top.value, abs=1e-10)


def test_relabeling_invariance():
    """Permuting answers in the measurement and the predicate leaves the value."""
    rng = rng_from_seed(56)
    game = chsh()
    strategy = random_strategy(rng, 2, 2, 3)
    value = game_value(game, strategy)
    perm = [1, 0]
    swapped_pred = game.predicate[:, :, perm, :]
    swapped_game = NonlocalGame(game.pi, swapped_pred)
    swapped_alice = Measurement(strategy.alice.ops[:, perm])
    swapped = Strategy(swapped_alice, strategy.bob, strategy.state)
    assert game_value(swapped_game, swapped) == pytest.approx(value, abs=1e-12)


def test_deterministic_embedding_matches_exact_count():
    """Dimension-one deterministic strategies score the exact predicate average."""
    game = chsh()
    ops_a = np.zeros((2, 2, 1, 1), dtype=complex)
    ops_b = np.zeros((2, 2, 1, 1), dtype=complex)
    fa, fb = (0, 1), (1, 1)
    for x, a in enumerate(fa):
        ops_a[x, a, 0, 0] = 1.0
    for y, b in enumerate(fb):
        ops_b[y, b, 0, 0] = 1.0
    strategy = Strategy(Measurement(ops_a), Measurement(ops_b),
                        State(np.eye(1)))
    expected = sum(0.25 * game.predicate[x, y, fa[x], fb[y]]
                   for x in range(2) for y in range(2))
    assert game_value(game, strategy) == pytest.approx(float(expected), abs=1e-15)


# --- commutator checks -----------------------------------------------------------

def test_commutator_defect_pauli():
    """[Z, X] has norm 2, and both PVMs contribute one such pair."""
    ops = np.zeros((1, 2, 2, 2), dtype=complex)
    ops[0, 0] = _projectors(Z)[0]
    ops[0, 1] = _projectors(Z)[1]
    meas_z = Measurement(ops)
    ops = np.zeros((1, 2, 2, 2), dtype=complex)
    ops[0, 0] = _projectors(X)[0]
    ops[0, 1] = _projectors(X)[1]
    meas_x = Measurement(ops)
    # each of the four projector pairs contributes |[P, Q]| = 1/2
    table = commutator_defects(meas_z.ops, meas_x.ops)
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_commutator_defects_match_per_pair_loop():
    """Entry [x, y] is the answer sum of |[A^x_a, B^y_b]|, for unequal shapes too."""
    rng = rng_from_seed(70)
    for n_a, n_b, k_a, k_b, dim in ((2, 2, 2, 2, 2), (3, 2, 2, 4, 3), (1, 3, 3, 2, 4)):
        alice = np.array([random_povm(rng, dim, k_a) for _ in range(n_a)])
        bob = np.array([random_povm(rng, dim, k_b) for _ in range(n_b)])
        table = commutator_defects(alice, bob)
        assert table.shape == (n_a, n_b)
        for x in range(n_a):
            for y in range(n_b):
                # term by term from 0.0: Python 3.12+ compensates a float sum()
                expected = 0.0
                for a in range(k_a):
                    for b in range(k_b):
                        expected += op_norm(alice[x, a] @ bob[y, b] - bob[y, b] @ alice[x, a])
                assert table[x, y] == expected
                assert table[x, y] > 0
        check = is_delta_op_commuting(Measurement(alice), Measurement(bob), 100.0)
        assert check.worst_defect == table.max()
        assert table[check.worst_pair] == table.max()


def _measurement_stack(rng, lead, n, k, dim):
    """A (*lead, n, k, d, d) stack of random POVM rows."""
    return np.array([[random_povm(rng, dim, k) for _ in range(n)]
                     for _ in np.ndindex(*lead)]).reshape(lead + (n, k, dim, dim))


def _per_pair_element(game, alice, bob):
    """game_element written out: one einsum per (x, y) pair on a (n, k, d, d) pair."""
    ra, rb = _psd_sqrt(np.array([alice, bob]), DEFAULT_TOL)
    weights = game.pi[:, :, None, None] * game.predicate
    element = np.zeros(alice.shape[-2:], dtype=np.complex128)
    for x, y in np.argwhere(weights.any(axis=(2, 3))):
        first = np.einsum("aij,bjk,akl->abil", ra[x], bob[y], ra[x], optimize=True)
        second = np.einsum("bij,ajk,bkl->abil", rb[y], alice[x], rb[y], optimize=True)
        element += np.einsum("ab,abil->il", weights[x, y], (first + second) / 2)
    return herm_part(element)


def _weighted_games(rng, n, k):
    """A random game, one with exactly one weighted (x, y) pair, and one with all n^2 weighted."""
    pi = rng.random((n, n))
    yield NonlocalGame(pi / pi.sum(), rng.integers(0, 2, size=(n, n, k, k)))
    one = np.zeros((n, n))
    one[rng.integers(n), rng.integers(n)] = 1.0
    for weights in (one, pi / pi.sum()):
        predicate = rng.integers(0, 2, size=(n, n, k, k))
        predicate[:, :, 0, 0] = 1
        yield NonlocalGame(weights, predicate)


_CORE_SHAPES = ((1, 2), (2, 2), (3, 2), (2, 3), (3, 3))
# (dim, (n, k), pairs per chunk): every shape at the default entry budget, and a few
# with the budget cut to one or two pairs' tables, so a chunk boundary falls mid-pairs
_CORE_CASES = ([(dim, nk, None) for dim in range(1, 6) for nk in _CORE_SHAPES]
               + [(dim, nk, per) for dim in (1, 3) for nk in ((3, 2), (3, 3)) for per in (1, 2)])


@pytest.mark.parametrize("lead", [(5,), (2, 3), ()])
def test_stacked_game_cores_match_per_pair_calls(lead, monkeypatch):
    """The element core and commutator_defects on stacks equal per-pair calls bit for bit.

    The element core is also checked with its weighted pairs split into
    chunks of one or two, so a chunk boundary falls mid-pairs.
    """
    rng = rng_from_seed(71)
    budget = games._PAIR_CHUNK_ENTRIES
    for dim, (n, k), pairs_per_chunk in _CORE_CASES:
        table = math.prod(lead) * k * k * dim * dim
        monkeypatch.setattr(games, "_PAIR_CHUNK_ENTRIES",
                            pairs_per_chunk * table if pairs_per_chunk else budget)
        alice = _measurement_stack(rng, lead, n, k, dim)
        bob = _measurement_stack(rng, lead, n, k, dim)
        for game in _weighted_games(rng, n, k):
            elements = _game_elements(game, alice, bob, DEFAULT_TOL)
            assert elements.shape == lead + (dim, dim)
            for index in np.ndindex(*lead):
                pair = Measurement(alice[index]), Measurement(bob[index])
                assert np.array_equal(elements[index], game_element(game, *pair))
                assert np.array_equal(elements[index],
                                      _per_pair_element(game, alice[index], bob[index]))
        if pairs_per_chunk:
            continue
        tables = commutator_defects(alice, bob)
        assert tables.shape == lead + (n, n)
        for index in np.ndindex(*lead):
            norms = [op_norm(alice[index][x, a] @ bob[index][y, b]
                             - bob[index][y, b] @ alice[index][x, a])
                     for x in range(n) for y in range(n)
                     for a in range(k) for b in range(k)]
            expected = np.zeros(n * n)
            for j, norm in enumerate(norms):  # (a, b) order, one add at a time
                expected[j // (k * k)] += norm
            assert np.array_equal(tables[index], expected.reshape(n, n))
            assert np.array_equal(tables[index], commutator_defects(alice[index], bob[index]))


def test_weighted_game_shapes():
    """_weighted_games yields one game with a single weighted pair and one with all n^2."""
    for n in (1, 3):
        counts = [int(game.predicate.any(axis=(2, 3))[game.pi > 0].sum())
                  for game in _weighted_games(rng_from_seed(73), n, 2)]
        assert counts[1:] == [1, n * n]


def _einsum_spy(monkeypatch):
    """Record each np.einsum call's subscripts and its largest operand or result size."""
    calls = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        out = einsum(subscripts, *operands, **kwargs)
        calls.append((subscripts, max(np.size(m) for m in (*operands, out))))
        return out

    monkeypatch.setattr(np, "einsum", spy)
    return calls


@pytest.mark.parametrize("n", [1, 3])
def test_game_element_contracts_all_pairs_in_three_einsums(n, monkeypatch):
    """All weighted pairs of a small game share one chunk: three einsum calls, as for n = 1."""
    game = NonlocalGame(np.full((n, n), 1 / n ** 2), np.ones((n, n, 2, 2), dtype=np.int8))
    rng = rng_from_seed(74)
    alice, bob = (_measurement_stack(rng, (4,), n, 2, 2) for _ in range(2))
    calls = _einsum_spy(monkeypatch)
    _game_elements(game, alice, bob, DEFAULT_TOL)
    assert len(calls) == 3
    assert max(size for _, size in calls) <= games._PAIR_CHUNK_ENTRIES


def test_large_stack_chunks_stay_within_the_entry_budget(monkeypatch):
    """A (32, 3, 3, 64, 64) all-weighted stack: one pair per chunk, no table over one pair's."""
    n, k, dim, lead = 3, 3, 64, 32
    game = NonlocalGame(np.full((n, n), 1 / n ** 2), np.ones((n, n, k, k), dtype=np.int8))
    ops = np.broadcast_to(np.eye(dim) / k, (lead, n, k, dim, dim)).astype(np.complex128)
    calls = _einsum_spy(monkeypatch)
    element = _game_elements(game, ops, ops, DEFAULT_TOL)
    one_pair = lead * k * k * dim * dim
    assert one_pair > games._PAIR_CHUNK_ENTRIES
    assert len(calls) == 3 * n * n
    assert max(size for _, size in calls) == one_pair
    assert np.allclose(element, np.eye(dim))  # every answer wins: sum_ab A_a • B_b = 1


def test_weightless_game_element_is_zero_without_roots(monkeypatch):
    """No weighted (x, y) pair: the element is exact zeros and nothing is rooted."""
    never = NonlocalGame(np.full((2, 2), 0.25), np.zeros((2, 2, 2, 2), dtype=np.int8))
    strategy = random_strategy(rng_from_seed(72), 2, 2, 3)
    monkeypatch.setattr(games, "hermitian_eig", None)
    element = game_element(never, strategy.alice, strategy.bob)
    assert element.dtype == np.complex128
    assert np.array_equal(element, np.zeros((3, 3)))
    with pytest.raises(PreconditionError):
        game_element(never, strategy.alice, strategy.bob.ops)


def test_is_delta_op_commuting():
    strategy = chsh_tensor_strategy()
    check = is_delta_op_commuting(strategy.alice, strategy.bob, 1e-10)
    assert check.ok
    assert check.worst_defect < 1e-12
    with pytest.raises(ValueError):
        is_delta_op_commuting(strategy.alice, strategy.bob, -0.5)
    with pytest.raises(ValueError, match="delta must be nonnegative, got nan"):
        is_delta_op_commuting(strategy.alice, strategy.bob, math.nan)


def test_commuting_strategies_satisfy_plain_product():
    """For tensor strategies the bullet product is the plain product."""
    strategy = chsh_tensor_strategy()
    a = strategy.alice.ops[0, 0]
    b = strategy.bob.ops[1, 1]
    assert op_norm(sym_product(a, b) - a @ b) < 1e-12
