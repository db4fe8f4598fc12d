"""Outside-in layer tracing of cstarkit: wrap public functions, record spans.

The package imports by name (``search`` binds ``round_to_povm``, most
modules bind ``op_norm``, ...), so wrapping a function means rebinding
every module attribute that holds it; ``Tracer.uninstall`` puts every one
back.  Each call becomes a span (name, start, end, parent) kept in flat
arrays; self time is a span's duration minus the durations of its child
spans, and since every span nests inside one job span the self times add
up to the traced job time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

CALL, RESUME, REFUSED, REJECTED, RAISED = range(5)


@dataclass(frozen=True)
class Target:
    """One traced callable: metric name, defining module, dotted attribute.

    ``result_count`` maps a return value to (counter name, amount).
    ``refusals`` counts HypothesisError raises as ``<name>.refused``.
    ``rejects`` counts falsy ``.ok`` results as ``<name>.rejected``.
    """

    name: str
    module: str
    attr: str
    refusals: bool = False
    rejects: bool = False
    result_count: Callable | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


def _t(name: str, attr: str | None = None, **kw) -> Target:
    layer, _, default = name.partition(".")
    return Target(name, f"cstarkit.{layer}", attr or default, **kw)


TARGETS = (
    _t("operators.op_norm"),
    _t("operators.hermitian_eig"),
    _t("operators.spectral_apply"),
    _t("operators.polar_unitary"),
    _t("rounding.povm_defect"),
    _t("rounding.round_to_povm", refusals=True),
    _t("rounding.round_to_unitary", refusals=True),
    _t("rounding.round_to_projection", refusals=True),
    _t("rounding.round_to_partial_isometry", refusals=True),
    _t("rounding.round_to_pvm", refusals=True),
    _t("sampling.random_povm"),
    _t("sampling.random_unitary"),
    _t("sampling.almost_unitary_instance"),
    _t("sampling.almost_projection_instance"),
    _t("sampling.almost_partial_isometry_instance"),
    _t("sampling.almost_povm_instance"),
    _t("sampling.almost_pvm_instance"),
    _t("games.Measurement", "Measurement.__post_init__"),
    _t("games.State", "State.__post_init__"),
    _t("games.game_element"),
    _t("games.best_value"),
    _t("games.is_delta_op_commuting", rejects=True),
    _t("search.semidecide_membership",
       result_count=lambda verdict: ("search.examined", verdict.candidates_tried)),
    _t("search.evaluate_stream",
       result_count=lambda result: ("search.examined", result[1])),
    _t("polynomials.NCPolynomial.evaluate"),
    _t("presentations.eval_poly"),
    _t("presentations.relation_defect"),
    _t("presentations.RepresentationCatalog.batch"),
    _t("presentations.norm_lower_enumerate"),
    _t("formats.parse_game"),
    _t("formats.parse_polynomial"),
    _t("formats.write_report"),
    _t("cli.console_main"),
)
LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))
_SEARCH_ENTRIES = ("search.semidecide_membership", "search.evaluate_stream")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for t in TARGETS:
        names += [f"{t.name}.calls", f"{t.name}.self_s"]
        if t.refusals:
            names.append(f"{t.name}.refused")
        if t.rejects:
            names.append(f"{t.name}.rejected")
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["search.examined", "search.scored", "search.scored_ratio",
              "presentations.gate_pass_ratio"]
    return names


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Rebinds the TARGETS to span-recording wrappers while installed."""

    def __init__(self):
        self.targets = TARGETS
        self.names = [t.name for t in TARGETS]
        self._rebound: list[tuple[object, str, object]] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    # --- span recording ---------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.flag.append(CALL)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, flag: int) -> None:
        self.end[idx] = time.perf_counter()
        self.flag[idx] = flag
        self._stack.pop()

    def _wrap(self, nid: int, target: Target, fn):
        from cstarkit.errors import HypothesisError

        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                flag = CALL
                while True:
                    idx = tracer._open(nid)
                    try:
                        value = next(gen)
                    except StopIteration:
                        tracer._close(idx, flag)
                        return
                    except BaseException:
                        tracer._close(idx, RAISED)
                        raise
                    tracer._close(idx, flag)
                    flag = RESUME
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except HypothesisError:
                tracer._close(idx, REFUSED if target.refusals else RAISED)
                raise
            except BaseException:
                tracer._close(idx, RAISED)
                raise
            flag = CALL
            if target.rejects and not result.ok:
                flag = REJECTED
            tracer._close(idx, flag)
            if target.result_count is not None:
                key, amount = target.result_count(result)
                tracer.counts[key] = tracer.counts.get(key, 0) + int(amount)
            return result
        return wrapper

    # --- rebinding ----------------------------------------------------------

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "cstarkit" or key.startswith("cstarkit.")]
        try:
            for nid, target in enumerate(self.targets):
                owner, leaf = _resolve(target)
                original = getattr(owner, leaf)
                wrapper = self._wrap(nid, target, original)
                if inspect.isclass(owner):
                    self._rebind(owner, leaf, original, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        self._rebound.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._rebound:
            owner, key, original = self._rebound.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- aggregation ----------------------------------------------------------

    def summary(self, jobs: int) -> dict[str, float]:
        """Per-job calls and self times, counters and ratios, from the spans."""
        if self._stack:
            raise RuntimeError("spans are still open")
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        flag = np.frombuffer(self.flag, dtype=np.int8)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(name))
        width = len(self.names)
        self_s = np.bincount(name, weights=duration - child, minlength=width)
        calls = np.bincount(name[flag != RESUME], minlength=width)
        refused = np.bincount(name[flag == REFUSED], minlength=width)
        rejected = np.bincount(name[flag == REJECTED], minlength=width)
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, t in enumerate(self.targets):
            out[f"{t.name}.calls"] = int(calls[nid]) / jobs
            out[f"{t.name}.self_s"] = float(self_s[nid]) / jobs
            if t.refusals:
                out[f"{t.name}.refused"] = int(refused[nid]) / jobs
            if t.rejects:
                out[f"{t.name}.rejected"] = int(rejected[nid]) / jobs
            layer_self[t.layer] += float(self_s[nid])
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total / jobs
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def calls_under(callee: str, callers: tuple[str, ...]) -> int:
            ids = [self.names.index(c) for c in callers]
            mask = (name == self.names.index(callee)) & np.isin(parent_name, ids)
            return int(mask.sum())

        examined = self.counts.get("search.examined", 0)
        scored = calls_under("games.best_value", _SEARCH_ENTRIES)
        out["search.examined"] = examined / jobs
        out["search.scored"] = scored / jobs
        out["search.scored_ratio"] = scored / examined if examined else 0.0
        gated = int(calls[self.names.index("presentations.relation_defect")])
        passed = calls_under("presentations.eval_poly",
                             ("presentations.norm_lower_enumerate",))
        out["presentations.gate_pass_ratio"] = passed / gated if gated else 0.0
        return out

    def job_time(self) -> float:
        """Total duration of the root spans, the traced job time."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(duration[parent < 0].sum())

    def write_spans(self, path, limit: int) -> int:
        """Write the first `limit` spans as tab-separated lines; return the count."""
        count = min(limit, len(self.name))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tflag\n")
            for i in range(count):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.flag[i]}\n")
        return count
