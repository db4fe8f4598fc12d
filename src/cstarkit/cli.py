"""Batch experiment runner.

Subcommands: game-value, seesaw, semidecide, perturb-suite, norm-enumerate,
classical-value.  Every run emits a report of line-delimited JSON records
(header with config echo and input digests, result records, summary); the
report goes to --out when given, else to stdout.  Reports are byte-identical
across runs with the same config and seed: they never contain wall-clock
times, and the --out path itself is not echoed.

Exit codes: 0 success, 2 parse error (bad flags or malformed input files),
3 hypothesis/precondition error, 4 budget exhausted without acceptance
(semidecide only); run maps the summary status to 0 or 4, console_main errors to 2 or 3.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ParseError, PreconditionError, integral
from .formats import (FORMAT_VERSION, parse_game, parse_polynomial, parse_presentation,
                      report_lines, report_target, write_report)
from .games import Measurement, NonlocalGame, game_value
# op_norm is unused here but stays bound: perfbench's test_rebinding_is_undone
# checks that tracing rebinds cstarkit.cli.op_norm
from .operators import Tolerance, op_norm  # noqa: F401
from .presentations import (RepresentationCatalog, norm_lower_enumerate,
                            registered_presentation)
from .sampling import perturbation_suite
from .search import (CandidateStream, Witness, classical_value,
                     constant_family, evaluate_stream, seesaw_optimize,
                     semidecide_membership)

# largest matrix dimension a command accepts; desk scale with room to spare,
# far below sizes whose draws would exhaust memory
_MAX_DIM = 64
# largest --budget or --iters: 100 times any example's (still days of work at dimension 64)
_MAX_COUNT = 10 ** 6


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, fully determined (modulo wall time) by its fields."""

    command: str
    game: str | None = None
    presentation: str | None = None
    poly: str | None = None
    pres_id: str | None = None
    z: str = ""
    seed: int = 0
    budget: int = 10_000
    dims: tuple = (2, 3, 4)
    delta: float = 1.0
    mu: float = 10.0
    iters: int = 50
    dim: int = 2
    grid_denominator: int = 1024
    out: str | None = None
    tol_algebraic: float | None = None
    tol_spectral: float | None = None

    def __post_init__(self) -> None:
        if self.command not in _RUNNERS:
            raise PreconditionError(f"unknown command {self.command!r}")
        for name, low, high in (("seed", 0, None), ("budget", 0, _MAX_COUNT),
                                ("iters", 1, _MAX_COUNT), ("dim", None, None),
                                ("grid_denominator", None, None)):
            object.__setattr__(self, name, integral(getattr(self, name), name, low, high))
        object.__setattr__(self, "dims", tuple(integral(d, "dims entries") for d in self.dims))
        for d in (*self.dims, self.dim):
            if d > _MAX_DIM:
                raise PreconditionError(
                    f"dimension {d} is above the supported {_MAX_DIM}")

    def tolerance(self) -> Tolerance:
        given = {"algebraic": self.tol_algebraic, "spectral": self.tol_spectral}
        return Tolerance(**{k: v for k, v in given.items() if v is not None})


def _read_input(path: str) -> tuple[str, str]:
    """An input file's text and the sha256 of its bytes, both from one read.

    The text is decoded as open(path, encoding="utf-8") decodes it, newlines
    made universal, so parse errors keep their line and column.  A file
    that cannot be read or decoded is a ParseError (exit 2).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as ex:
        raise ParseError(f"cannot read input file: {ex}") from None
    return text, hashlib.sha256(data).hexdigest()


def _header(config: RunConfig, inputs: list[tuple[str, str, str]]) -> dict:
    return {
        "type": "header",
        "format_version": FORMAT_VERSION,
        "library": "cstarkit",
        "library_version": __version__,
        "command": config.command,
        "config": {k: v for k, v in vars(config).items() if k != "out"},
        "inputs": [{"role": role, "path": path, "sha256": digest}
                   for role, path, digest in inputs],
        "seed": config.seed,
    }


def _matrix_record(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _measurement_record(meas: Measurement) -> dict:
    n, k = meas.ops.shape[:2]
    return {"n": n, "k": k, "dim": meas.ops.shape[2],
            "ops": [[_matrix_record(meas.ops[x, a]) for a in range(k)]
                    for x in range(n)]}


def _witness_record(witness: Witness) -> dict:
    return {
        "certified_value": witness.certified_value,
        "commutator_defect": witness.defect,
        "alice": _measurement_record(witness.alice),
        "bob": _measurement_record(witness.bob),
        "state": _matrix_record(witness.state.rho),
    }


def _require(config: RunConfig, name: str) -> str:
    value = getattr(config, name)
    if value is None:
        raise PreconditionError(f"command {config.command!r} requires --{name.replace('_', '-')}")
    return value


def _load_game(config: RunConfig) -> tuple[NonlocalGame, list[tuple[str, str, str]]]:
    path = _require(config, "game")
    text, digest = _read_input(path)
    return parse_game(text), [("game", path, digest)]


def _stream(config: RunConfig) -> CandidateStream:
    return CandidateStream(dims=config.dims, grid_denominator=config.grid_denominator,
                           seed=config.seed, budget=config.budget)


def _cmd_classical_value(config: RunConfig, tol: Tolerance):
    game, inputs = _load_game(config)
    value = classical_value(game)
    records = [{"type": "result", "classical_value": value,
                "classical_value_float": float(value)}]
    lines = [f"classical value: {value} ({float(value):.6f})"]
    return inputs, records, {}, lines


def _cmd_game_value(config: RunConfig, tol: Tolerance):
    game, inputs = _load_game(config)
    best, examined = evaluate_stream(game, _stream(config), config.delta, tol)
    record = {"type": "result", "candidates_examined": examined}
    if best is None:
        record["certified_value"] = None
        lines = [f"no candidate passed the gates in {examined} examined"]
    else:
        record["certified_value"] = best.certified_value
        record["witness"] = _witness_record(best)
        lines = [f"best certified value: {best.certified_value:.6f} "
                 f"(commutator defect {best.defect:.3e}, {examined} candidates examined)"]
    return inputs, [record], {}, lines


def _cmd_semidecide(config: RunConfig, tol: Tolerance):
    game, inputs = _load_game(config)
    family = constant_family(game, config.delta)
    verdict = semidecide_membership(family, config.z, _stream(config), tol)
    record = {"type": "result", "outcome": verdict.outcome,
              "candidates_tried": verdict.candidates_tried}
    lines = [f"budget exhausted after {verdict.candidates_tried} candidates, no acceptance"]
    if verdict.witness is not None:  # accepted
        record["witness"] = _witness_record(verdict.witness)
        lines = [f"accepted at candidate {verdict.candidates_tried}: "
                 f"certified value {verdict.witness.certified_value:.6f} > 1/2"]
    return inputs, [record], {"status": verdict.outcome}, lines


def _cmd_seesaw(config: RunConfig, tol: Tolerance):
    game, inputs = _load_game(config)
    result = seesaw_optimize(game, dim=config.dim, delta=config.delta, mu=config.mu,
                             iters=config.iters, seed=config.seed, tol=tol)
    value = game_value(game, result.strategy, tol)
    records = [{"type": "result", "objective": result.trace[-1],
                "game_value": value, "iterations": config.iters,
                "dim": config.dim, "trace": list(result.trace)}]
    lines = [f"seesaw objective: {result.trace[-1]:.6f} (game value {value:.6f}, "
             f"dim {config.dim}, {config.iters} iterations)"]
    return inputs, records, {}, lines


def _cmd_perturb_suite(config: RunConfig, tol: Tolerance):
    records = []
    lines = []
    for kind, eps, worst_residual, worst_distance in perturbation_suite(
            config.dims, config.budget, config.seed, tol):
        records.append({"type": "trial", "kind": kind, "eps": eps,
                        "instances": config.budget, "worst_residual": worst_residual,
                        "worst_distance": worst_distance, "ok": True})
        lines.append(f"{kind:17s} eps={eps:<6g} {config.budget} instances: "
                     f"residual {worst_residual:.2e}, distance {worst_distance:.4f} ok")
    return [], records, {}, lines


def _cmd_norm_enumerate(config: RunConfig, tol: Tolerance):
    pres_id = _require(config, "pres_id")
    family = registered_presentation(pres_id)
    inputs = []
    if config.presentation is not None:
        text, digest = _read_input(config.presentation)
        pres = parse_presentation(text)
        inputs.append(("presentation", config.presentation, digest))
    else:
        pres = family.presentation
    poly = parse_polynomial(_require(config, "poly"), declared=set(pres.names))
    catalog = RepresentationCatalog(dims=config.dims, seed=config.seed)
    records = []
    best = None
    for index, value in enumerate(norm_lower_enumerate(
            pres, poly, catalog, pres_id, config.budget)):
        records.append({"type": "emission", "index": index, "value": value,
                        "value_float": float(value)})
        best = value
    summary = {"emissions": len(records), "best": best,
               "best_float": None if best is None else float(best)}
    lines = [f"{len(records)} emissions within budget {config.budget}"]
    if best is not None:
        lines.append(f"best certified lower bound: {best} ({float(best):.6f})")
    return inputs, records, summary, lines


_RUNNERS = {
    "classical-value": _cmd_classical_value,
    "game-value": _cmd_game_value,
    "semidecide": _cmd_semidecide,
    "seesaw": _cmd_seesaw,
    "perturb-suite": _cmd_perturb_suite,
    "norm-enumerate": _cmd_norm_enumerate,
}


def run(config: RunConfig) -> int:
    """Execute one configured command; write the report; return the exit code.

    A runner gives inputs, records, summary fields and console lines.  The
    summary status is "ok" unless a field sets it; run returns 4 for
    "budget_exhausted", else 0, and console_main maps ParseError and
    PreconditionError to 2 and 3.  An --out that is empty, a directory or
    bound for a missing directory is a ParseError before the run, as is a failed write.
    """
    if config.out is not None:
        target = report_target(config.out)
        if os.path.isdir(target or "."):  # '' names the working directory
            raise ParseError(f"cannot write report: {config.out!r} is a directory")
        if not os.path.isdir(os.path.dirname(target) or "."):
            raise ParseError(f"cannot write report: the directory of {config.out!r} is missing")
    inputs, records, fields, lines = _RUNNERS[config.command](config, config.tolerance())
    summary = {"type": "summary", "status": "ok", **fields}
    report = [_header(config, inputs)] + records + [summary]
    if config.out is not None:
        try:
            write_report(config.out, report)
        except OSError as ex:
            raise ParseError(f"cannot write report: {ex}") from None
        for line in lines:
            print(line)
        print(f"report: {config.out}")
    else:
        for line in report_lines(report):
            print(line)
    return 4 if summary["status"] == "budget_exhausted" else 0


def _parse_dims(text: str) -> tuple:
    try:
        dims = []
        for piece in text.split(","):
            piece = piece.strip()
            if ".." in piece:
                lo, hi = (int(end) for end in piece.split(".."))
                # one entry past the cap is enough for RunConfig to reject,
                # so a huge range is never built
                dims.extend(range(lo, min(hi, max(lo, _MAX_DIM + 1)) + 1))
            else:
                dims.append(int(piece))
        if not dims or any(d < 1 for d in dims):
            raise ValueError
        return tuple(dims)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be positive integers like '2,3,4' or '2..16', got {text!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarkit",
        description="Batch runner: game values, semidecision, rounding suites, "
                    "norm enumeration.")
    # a flag left off never reaches the namespace, so it takes RunConfig's default
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, argument_default=argparse.SUPPRESS))

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="report file (JSON lines)")
        p.add_argument("--tol-algebraic", type=float, dest="tol_algebraic")
        p.add_argument("--tol-spectral", type=float, dest="tol_spectral")

    def stream(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", type=float)
        p.add_argument("--budget", type=int)
        p.add_argument("--dims", type=_parse_dims)
        p.add_argument("--grid-denominator", type=int, dest="grid_denominator")
        common(p)

    p = sub.add_parser("classical-value", help="exact classical game value")
    p.add_argument("--game", required=True)
    common(p)

    p = sub.add_parser("game-value",
                       help="best value over the candidate stream, less a fixed margin")
    p.add_argument("--game", required=True)
    stream(p)

    p = sub.add_parser("semidecide", help="semidecide via the candidate stream")
    p.add_argument("--game", required=True)
    p.add_argument("--z", help="input word for the game family (0/1 string)")
    stream(p)

    p = sub.add_parser("seesaw", help="alternating local optimization of a game value")
    p.add_argument("--game", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--iters", type=int)
    common(p)

    p = sub.add_parser("perturb-suite",
                       help="seeded rounding suite over all five structure kinds")
    p.add_argument("--budget", type=int, default=200,
                   help="instances per (kind, eps) pair")
    p.add_argument("--dims", type=_parse_dims, default=tuple(range(2, 17)))
    common(p)

    p = sub.add_parser("norm-enumerate",
                       help="certified lower bounds for a polynomial's universal norm")
    p.add_argument("--pres-id", required=True, dest="pres_id",
                   help="registered presentation id, e.g. free_unitaries:1")
    p.add_argument("--poly", required=True, help="polynomial string, e.g. 'u1 + u1*'")
    p.add_argument("--presentation", help="presentation file overriding the registered one")
    p.add_argument("--budget", type=int, default=1000,
                   help="catalog representations examined")
    p.add_argument("--dims", type=_parse_dims, default=tuple(range(1, 17)))
    common(p)

    return parser


def console_main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(RunConfig(**vars(args)))
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 2
    except PreconditionError as ex:
        print(f"precondition error: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(console_main())
