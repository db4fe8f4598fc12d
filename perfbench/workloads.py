"""The four benchmark workloads: seeded cstarkit CLI jobs and their output checks.

Each workload is a batch of CLI jobs of one kind.  A job is one
``cstarkit.cli.console_main`` call with its own ``--seed`` and ``--out``;
``items`` is the work one job gets through (candidates examined, catalog
representations examined, or rounding instances).  ``check`` re-reads the
job's report and returns a list of problems, empty when the output is right.

Job sizes are fixed so that one job takes a few tenths of a second on a
laptop-class core: a run then holds enough jobs for a tail percentile with
ten jobs beyond it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# search certificate margin (cstarkit.search.CERTIFIED_EIG_ERROR), restated
# here so the check does not lean on the code it checks
EIG_MARGIN = 2.0 ** -7
SEARCH_BUDGET = 50
NORM_BUDGET = 66            # two catalog rounds of 1 canonical + 32 random reps
SUITE_BUDGET = 10           # instances per (kind, eps) pair
SUITE_KINDS = ("unitary", "projection", "partial_isometry", "povm", "pvm")
SUITE_EPS = (0.5, 0.25, 0.125)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    items: int
    inputs: tuple[str, ...]
    check: Callable[[dict, int, list[dict], int], list[str]]

    def job_argv(self, seed: int, out: Path) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", str(out)]


def _frame(records: list[dict], command: str, seed: int, code: int,
           want_code: int) -> list[str]:
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if len(records) < 2 or records[0].get("type") != "header" \
            or records[-1].get("type") != "summary":
        return problems + ["report is not header, records, summary"]
    header = records[0]
    if header.get("command") != command or header.get("seed") != seed:
        problems.append("header does not echo the job's command and seed")
    return problems


def check_never_win(ctx: dict, seed: int, records: list[dict], code: int) -> list[str]:
    problems = _frame(records, "semidecide", seed, code, 4)
    if problems:
        return problems
    result = records[1]
    if result.get("outcome") != "budget_exhausted":
        problems.append(f"outcome {result.get('outcome')!r}, expected budget_exhausted")
    if result.get("candidates_tried") != SEARCH_BUDGET:
        problems.append(f"candidates_tried {result.get('candidates_tried')}, "
                        f"expected {SEARCH_BUDGET}")
    if "witness" in result:
        problems.append("a game nobody wins produced a witness")
    return problems


def _matrix(rec: dict) -> np.ndarray:
    return np.array(rec["re"], dtype=float) + 1j * np.array(rec["im"], dtype=float)


def _ops(rec: dict) -> np.ndarray:
    return np.array([[_matrix(m) for m in row] for row in rec["ops"]])


def _psd_root(m: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    return (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def povm_residual(ops: np.ndarray) -> float:
    """Worst of |sum_a A_xa - 1|, |A - A^H| and negative eigenvalue mass."""
    eye = np.eye(ops.shape[-1])
    worst = 0.0
    for row in ops:
        worst = max(worst, _norm(row.sum(axis=0) - eye))
        for m in row:
            worst = max(worst, _norm(m - m.conj().T),
                        -min(float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]), 0.0))
    return worst


def commutator_defect(alice: np.ndarray, bob: np.ndarray) -> float:
    """max over (x, y) of sum over (a, b) of |[A_xa, B_yb]|."""
    return max(sum(_norm(a @ b - b @ a) for a in alice[x] for b in bob[y])
               for x in range(alice.shape[0]) for y in range(bob.shape[0]))


def game_element(pi: np.ndarray, predicate: np.ndarray, alice: np.ndarray,
                 bob: np.ndarray) -> np.ndarray:
    """sum pi(x,y) D(x,y,a,b) (sqrt(A) B sqrt(A) + sqrt(B) A sqrt(B)) / 2."""
    dim = alice.shape[-1]
    element = np.zeros((dim, dim), dtype=complex)
    n, k = predicate.shape[0], predicate.shape[2]
    for x in range(n):
        for y in range(n):
            for a in range(k):
                for b in range(k):
                    if predicate[x, y, a, b]:
                        ra, rb = _psd_root(alice[x, a]), _psd_root(bob[y, b])
                        element += pi[x, y] * (ra @ bob[y, b] @ ra
                                               + rb @ alice[x, a] @ rb) / 2
    return element


def audit_witness(ctx: dict, witness: dict) -> list[str]:
    """Rebuild a game-value witness from its report record and re-check it."""
    alice, bob = _ops(witness["alice"]), _ops(witness["bob"])
    rho = _matrix(witness["state"])
    problems = []
    residual = max(povm_residual(alice), povm_residual(bob))
    if residual > 1e-10:
        problems.append(f"witness POVM residual {residual:.3e} > 1e-10")
    defect = commutator_defect(alice, bob)
    if not defect < ctx["delta"]:
        problems.append(f"witness commutator defect {defect:.6f} >= delta {ctx['delta']}")
    if abs(np.trace(rho) - 1.0) > 1e-9 or float(np.linalg.eigvalsh(rho)[0]) < -1e-10:
        problems.append("witness state is not a density matrix")
    value = float(np.trace(rho @ game_element(ctx["pi"], ctx["predicate"], alice, bob)).real)
    if not value > 0.5:
        problems.append(f"witness wins with probability {value:.6f}, not above 1/2")
    if witness["certified_value"] > value - EIG_MARGIN + 1e-9:
        problems.append(f"certified value {witness['certified_value']:.6f} exceeds the "
                        f"witness's value {value:.6f} minus the margin")
    return problems


def check_chsh(ctx: dict, seed: int, records: list[dict], code: int) -> list[str]:
    problems = _frame(records, "game-value", seed, code, 0)
    if problems:
        return problems
    result = records[1]
    if result.get("candidates_examined") != SEARCH_BUDGET:
        problems.append(f"candidates_examined {result.get('candidates_examined')}, "
                        f"expected {SEARCH_BUDGET}")
    value = result.get("certified_value")
    # the deterministic pairs come first (classical value 3/4), and the game
    # element's spectrum lies in [0, 1]
    if value is None or not 0.75 - EIG_MARGIN <= value <= 1 - EIG_MARGIN + 1e-9:
        return problems + [f"certified value {value!r} outside [3/4 - 2^-7, 1 - 2^-7]"]
    if "witness" not in result or result["witness"]["certified_value"] != value:
        return problems + ["result carries no witness for its certified value"]
    return problems + audit_witness(ctx, result["witness"])


def check_norm(ctx: dict, seed: int, records: list[dict], code: int) -> list[str]:
    problems = _frame(records, "norm-enumerate", seed, code, 0)
    if problems:
        return problems
    emissions = records[1:-1]
    if any(r.get("type") != "emission" for r in emissions) \
            or [r["index"] for r in emissions] != list(range(len(emissions))):
        return problems + ["records are not emissions indexed 0, 1, ..."]
    values = [Fraction(r["value"]) for r in emissions]
    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append("emissions are not strictly increasing")
    # |e12 + e21| = 1 in every representation of the matrix units
    if any(v > 1 + 1e-9 for v in values):
        problems.append(f"emission above the norm 1: {max(values)}")
    if records[-1].get("emissions") != len(emissions):
        problems.append("summary emission count does not match the records")
    return problems


def check_suite(ctx: dict, seed: int, records: list[dict], code: int) -> list[str]:
    problems = _frame(records, "perturb-suite", seed, code, 0)
    if problems:
        return problems
    trials = records[1:-1]
    expected = [(kind, eps) for kind in SUITE_KINDS for eps in SUITE_EPS]
    if [(t.get("kind"), t.get("eps")) for t in trials] != expected:
        return problems + ["trial records do not cover every (kind, eps) pair in order"]
    for t in trials:
        where = f"{t['kind']} eps={t['eps']}"
        if t.get("ok") is not True:
            problems.append(f"{where}: trial not ok")
        if t.get("instances") != SUITE_BUDGET:
            problems.append(f"{where}: {t.get('instances')} instances, expected {SUITE_BUDGET}")
        if not t["worst_residual"] <= 1e-10:
            problems.append(f"{where}: residual {t['worst_residual']:.3e} > 1e-10")
        if not t["worst_distance"] < t["eps"]:
            problems.append(f"{where}: distance {t['worst_distance']:.6f} >= eps")
    if records[-1].get("status") != "ok":
        problems.append(f"summary status {records[-1].get('status')!r}")
    return problems


_SEARCH_DIMS = ("--dims", "2,3,4", "--budget", str(SEARCH_BUDGET))

WORKLOADS = {w.name: w for w in (
    Workload("search-never-win",
             ("semidecide", "--game", "data/never_win.json", *_SEARCH_DIMS),
             SEARCH_BUDGET, ("data/never_win.json",), check_never_win),
    Workload("search-chsh",
             ("game-value", "--game", "data/chsh.json", *_SEARCH_DIMS),
             SEARCH_BUDGET, ("data/chsh.json",), check_chsh),
    Workload("norm-matrix-units",
             ("norm-enumerate", "--pres-id", "matrix_units:3", "--poly", "e12 + e21",
              "--budget", str(NORM_BUDGET)),
             NORM_BUDGET, (), check_norm),
    Workload("rounding-suite",
             ("perturb-suite", "--dims", "2..16", "--budget", str(SUITE_BUDGET)),
             SUITE_BUDGET * len(SUITE_KINDS) * len(SUITE_EPS), (), check_suite),
)}


def parse_inputs(workload: Workload) -> dict:
    """Parse the workload's input documents with cstarkit; context for the checks."""
    from cstarkit.formats import parse_game

    ctx: dict = {"delta": 1.0}
    for path in workload.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            game = parse_game(fh.read())
        ctx["pi"], ctx["predicate"] = game.pi, game.predicate
    return ctx
