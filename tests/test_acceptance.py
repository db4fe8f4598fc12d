"""Acceptance gate: one numbered criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every criterion recomputes its expected quantities independently of the
library's own reports and enforces a wall-clock budget.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from cstarkit.cli import console_main
from cstarkit.games import (Measurement, NonlocalGame, State, Strategy, chsh,
                            correlation, game_element, game_value)
from cstarkit.operators import dagger, herm_part, op_norm
from cstarkit.polynomials import generator
from cstarkit.presentations import (RepresentationCatalog, norm_lower_enumerate,
                                    registered_presentation)
from cstarkit.rounding import (round_to_partial_isometry, round_to_povm,
                               round_to_projection, round_to_pvm,
                               round_to_unitary, stability_modulus)
from cstarkit.sampling import (almost_partial_isometry_instance,
                               almost_povm_instance, almost_projection_instance,
                               almost_pvm_instance, almost_unitary_instance,
                               random_density, random_povm, rng_from_seed)
from cstarkit.search import (CandidateStream, classical_value, constant_family,
                             seesaw_optimize, semidecide_membership,
                             verify_witness)

DATA = Path(__file__).resolve().parent.parent / "data"

INSTANCES_PER_CELL = 1000
EPS_GRID = (0.5, 0.25, 0.125)
ROUNDING_KINDS = ("unitary", "projection", "partial_isometry", "povm", "pvm")


@contextmanager
def criterion(num: int, label: str, seconds: float):
    """Print one PASS/FAIL summary line and enforce the runtime budget."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, budget {seconds:.0f}s")
    except BaseException:
        print(f"criterion {num} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {num} ({label}): PASS ({elapsed:.1f}s)", flush=True)


# --- criterion 1: perturbation suite ---------------------------------------------------

def _rounding_case(kind: str, rng, dim: int, eps: float, delta: float):
    """Round one admissible instance; return its repair distance and residual.

    Residuals are recomputed here from the outputs, not read off the
    rounding report, so the gate cannot pass on a lying report.
    """
    eye = np.eye(dim)
    if kind == "unitary":
        a, _ = almost_unitary_instance(rng, dim, delta)
        u, _ = round_to_unitary(a, eps)
        resid = max(op_norm(dagger(u) @ u - eye), op_norm(u @ dagger(u) - eye))
        return op_norm(a - u), resid
    if kind == "projection":
        a, _ = almost_projection_instance(rng, dim, delta)
        p, _ = round_to_projection(a, eps)
        resid = max(op_norm(p - dagger(p)), op_norm(p @ p - p))
        return op_norm(a - p), resid
    if kind == "partial_isometry":
        a, _, p1, p2 = almost_partial_isometry_instance(rng, dim, delta)
        w, _ = round_to_partial_isometry(a, p1, p2, eps)
        resid = max(op_norm(dagger(w) @ w - p1), op_norm(w @ dagger(w) - p2))
        return op_norm(a - w), resid
    if kind == "povm":
        k = int(rng.integers(2, 5))
        family, _ = almost_povm_instance(rng, dim, k, delta)
        out, _ = round_to_povm(family)
        resid = op_norm(sum(out) - eye)
        for b in out:
            resid = max(resid, -min(float(np.linalg.eigvalsh(herm_part(b))[0]), 0.0))
        return max(op_norm(a - b) for a, b in zip(family, out)), resid
    k = int(rng.integers(2, 5))
    family, _ = almost_pvm_instance(rng, dim, k, delta)
    blocks, _ = round_to_pvm(family)
    resid = op_norm(sum(blocks) - eye)
    for i, q in enumerate(blocks):
        resid = max(resid, op_norm(q - dagger(q)), op_norm(q @ q - q))
        for r in blocks[i + 1:]:
            resid = max(resid, op_norm(q @ r))
    return max(op_norm(a - q) for a, q in zip(family, blocks)), resid


def test_criterion_1_perturbation_suite():
    with criterion(1, "perturbation suite", 120.0):
        # the moduli respect the stability constants verbatim, as exact rationals
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            assert 0 < stability_modulus("projection", eps) < eps * eps / 8
            assert stability_modulus("partial_isometry", eps) < eps ** 8 / 2 ** 16
        for kind_code, kind in enumerate(ROUNDING_KINDS):
            for eps_code, eps in enumerate(EPS_GRID):
                delta = float(stability_modulus(kind, eps))
                for trial in range(INSTANCES_PER_CELL):
                    rng = rng_from_seed((2026, kind_code, eps_code, trial))
                    dim = int(rng.integers(2, 17))
                    dist, resid = _rounding_case(kind, rng, dim, eps, delta)
                    assert resid <= 1e-10, (kind, eps, trial, resid)
                    assert dist < eps, (kind, eps, trial, dist)


# --- criterion 2: exact classical value -------------------------------------------------

def test_criterion_2_chsh_classical_value():
    with criterion(2, "classical CHSH value", 1.0):
        assert classical_value(chsh()) == Fraction(3, 4)


# --- criterion 3: quantum CHSH value ----------------------------------------------------

def _qubit_projectors(observable):
    plus = (np.eye(2) + observable) / 2
    return plus, np.eye(2) - plus


def _chsh_tensor_strategy() -> Strategy:
    """The standard optimal strategy, embedded in one 4-dim algebra."""
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s2 = math.sqrt(2.0)
    eye = np.eye(2)
    alice = [[np.kron(p, eye) for p in _qubit_projectors(obs)] for obs in (z, x)]
    bob = [[np.kron(eye, p) for p in _qubit_projectors(obs)]
           for obs in ((z + x) / s2, (z - x) / s2)]
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / s2
    return Strategy(Measurement(np.array(alice)), Measurement(np.array(bob)),
                    State(np.outer(bell, bell.conj())))


def _jittered(meas: Measurement, rng, scale: float) -> Measurement:
    """Perturb every entry by a Hermitian bump, then repair rows to POVMs."""
    rows = []
    for x in range(meas.questions):
        bumped = [meas.ops[x, a] + scale * herm_part(
                      rng.normal(size=(meas.dim, meas.dim))
                      + 1j * rng.normal(size=(meas.dim, meas.dim)))
                  for a in range(meas.outcomes)]
        repaired, _ = round_to_povm(bumped)
        rows.append(repaired)
    return Measurement(np.array(rows))


def test_criterion_3_chsh_quantum_value():
    with criterion(3, "quantum CHSH value", 30.0):
        game = chsh()
        tensor = _chsh_tensor_strategy()
        target = math.cos(math.pi / 8) ** 2
        assert abs(game_value(game, tensor) - target) <= 1e-9
        rng = rng_from_seed(424242)
        init = (_jittered(tensor.alice, rng, 5e-3),
                _jittered(tensor.bob, rng, 5e-3))
        run = seesaw_optimize(game, dim=4, delta=1.0, mu=10.0, iters=200, init=init)
        assert run.trace[-1] >= 0.8525, run.trace[-1]


# --- criterion 4: strategy invariants ---------------------------------------------------

def test_criterion_4_strategy_invariants():
    with criterion(4, "strategy invariants", 60.0):
        rng = rng_from_seed(77)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            dim = int(rng.integers(2, 7))
            alice = Measurement(np.array([random_povm(rng, dim, k) for _ in range(n)]))
            bob = Measurement(np.array([random_povm(rng, dim, k) for _ in range(n)]))
            strategy = Strategy(alice, bob, State(random_density(rng, dim)))
            for x in range(n):
                for y in range(n):
                    total = sum(correlation(strategy, x, y, a, b)
                                for a in range(k) for b in range(k))
                    assert abs(total - 1.0) <= 1e-10, (n, k, dim, x, y, total)
            pi = np.full((n, n), 1.0 / (n * n))
            predicate = rng.integers(0, 2, size=(n, n, k, k)).astype(np.int8)
            element = game_element(NonlocalGame(pi, predicate), alice, bob)
            spectrum = np.linalg.eigvalsh(element)
            assert float(spectrum[0]) >= -1e-10
            assert float(spectrum[-1]) <= 1.0 + 1e-10


# --- criterion 5: semidecision harness --------------------------------------------------

def _constant_game(bit: int) -> NonlocalGame:
    pi = np.ones((1, 1))
    return NonlocalGame(pi, np.full((1, 1, 2, 2), bit, dtype=np.int8))


def test_criterion_5_semidecision_harness():
    with criterion(5, "semidecision harness", 60.0):
        always = semidecide_membership(constant_family(_constant_game(1), 1.0), "",
                                       CandidateStream(dims=(2, 3, 4), budget=10_000))
        assert always.outcome == "accepted"
        assert always.candidates_tried <= 10

        never = semidecide_membership(constant_family(_constant_game(0), 1.0), "",
                                      CandidateStream(dims=(2, 3, 4), budget=10_000))
        assert never.outcome == "budget_exhausted"
        assert never.witness is None
        assert never.candidates_tried == 10_000

        chsh_run = semidecide_membership(constant_family(chsh(), 1.0), "",
                                         CandidateStream(dims=(2, 3, 4), budget=10_000))
        assert chsh_run.outcome == "accepted"
        for verdict, game in ((always, _constant_game(1)), (chsh_run, chsh())):
            audit = verify_witness(game, verdict.witness, 1.0)
            assert audit.ok
            assert audit.povm_residual <= 1e-10
            assert audit.worst_defect <= 1.0
            assert audit.value > 0.5


# --- criterion 6: norm lower enumeration ------------------------------------------------

def test_criterion_6_norm_lower_enumeration():
    with criterion(6, "norm lower enumeration", 60.0):
        fam = registered_presentation("free_unitaries:1")
        q = generator("u1") + generator("u1").adjoint()
        catalog = RepresentationCatalog(dims=tuple(range(1, 17)), seed=0)
        values = list(norm_lower_enumerate(fam.presentation, q, catalog,
                                           "free_unitaries:1", 600))
        assert values, "no emissions"
        assert values[-1] >= 2 - Fraction(1, 2 ** 10)
        assert all(float(v) <= 2 + 1e-9 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))


# --- criterion 7: report determinism ----------------------------------------------------

CLI_CASES = (
    ("classical-value", "--game", DATA / "chsh.json"),
    ("game-value", "--game", DATA / "chsh.json", "--budget", 25, "--dims", "2,3",
     "--seed", 5),
    ("semidecide", "--game", DATA / "all_win.json", "--budget", 40, "--dims", "2",
     "--seed", 3),
    ("seesaw", "--game", DATA / "chsh.json", "--dim", 2, "--iters", 2, "--seed", 4),
    ("perturb-suite", "--budget", 2, "--dims", "2,3", "--seed", 8),
    ("norm-enumerate", "--pres-id", "projections:1", "--poly", "p1",
     "--budget", 120, "--seed", 2),
    ("semidecide", "--game", DATA / "never_win.json", "--budget", 50, "--dims", "2,3,4",
     "--seed", 1),
    ("seesaw", "--game", DATA / "chsh.json", "--dim", 3, "--iters", 20, "--seed", 1,
     "--delta", 0.05),
    ("norm-enumerate", "--pres-id", "matrix_units:3", "--poly", "e12 + e21",
     "--budget", 66, "--seed", 1),
    ("perturb-suite", "--budget", 10, "--dims", "2..16", "--seed", 1),
)


def test_criterion_7_report_determinism(tmp_path):
    with criterion(7, "report determinism", 120.0):
        for case_no, argv in enumerate(CLI_CASES):
            first = tmp_path / f"{case_no}_first.jsonl"
            second = tmp_path / f"{case_no}_second.jsonl"
            base = [str(a) for a in argv]
            code1 = console_main(base + ["--out", str(first)])
            code2 = console_main(base + ["--out", str(second)])
            assert code1 == code2
            assert first.read_bytes() == second.read_bytes(), argv[0]
            assert first.read_bytes().strip(), argv[0]
