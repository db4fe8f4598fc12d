"""Exception types shared across the package, and the integer check that raises one.

Plain ``ValueError`` is used for malformed inputs (shape mismatches,
non-finite entries, out-of-range parameters).  The classes below cover
the remaining failure modes that callers may want to distinguish.
"""
from __future__ import annotations

import contextlib
import operator


class PreconditionError(ValueError):
    """A mathematical precondition of an operation does not hold."""


def integral(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """value as a Python int (numpy integers too) in [low, high]; PreconditionError otherwise.

    Uses operator.index, so 2.7 or 10.0 is refused rather than truncated;
    a bool is refused too, although Python counts it as an int.  Either
    bound may be left out (high only together with low); a value outside
    them is refused as, say, "dim must be a positive integer, got 0".
    """
    n = None
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            n = operator.index(value)
    if n is None:
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    if (low is not None and n < low) or (high is not None and n > high):
        wanted = (f"an integer between {low} and {high}" if high is not None
                  else {0: "a nonnegative integer", 1: "a positive integer"}.get(
                      low, f"an integer of at least {low}"))
        raise PreconditionError(f"{name} must be {wanted}, got {n}")
    return n


class HypothesisError(PreconditionError):
    """A quantitative closeness hypothesis fails.

    Carries the measured defect and the admissible bound so callers can
    report how far off the input was.
    """

    def __init__(self, message: str, *, defect: float | None = None,
                 bound: float | None = None, stage: str | None = None):
        detail = message
        if defect is not None and bound is not None:
            detail = f"{message}: measured defect {defect:.6e} exceeds bound {bound:.6e}"
        if stage is not None:
            detail = f"{detail} (stage: {stage})"
        super().__init__(detail)
        self.defect = defect
        self.bound = bound
        self.stage = stage


class UnsupportedPresentationError(PreconditionError):
    """The presentation identifier has no registered witness machinery."""


class ParseError(ValueError):
    """An input document failed to parse; carries a location when known.

    ``line``/``column`` are 1-based and refer to the source text; ``where``
    is a path-like label (e.g. ``pi[0][1]``) for schema-level failures.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, where: str | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        elif where is not None:
            loc = f" at {where}"
        super().__init__(message + loc)
        self.line = line
        self.column = column
        self.where = where
