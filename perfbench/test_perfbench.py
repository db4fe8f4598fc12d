"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench -q``.

They are kept out of the package's own suite (pyproject's testpaths), so
that suite does not grow.
"""
from __future__ import annotations

import copy
import inspect
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


@pytest.fixture(scope="module")
def benches():
    made = {}

    def get(name: str) -> run.Bench:
        if name not in made:
            made[name] = run.Bench(WORKLOADS[name], 7)
        return made[name]

    yield get
    for bench in made.values():
        bench.close()


def _cstarkit_bindings() -> dict:
    """Every attribute of every cstarkit module and traced class, by identity."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "cstarkit" or key.startswith("cstarkit."):
            for attr, value in vars(module).items():
                out[(key, attr)] = value
                if inspect.isclass(value):
                    for name, member in vars(value).items():
                        out[(key, attr, name)] = member
    return out


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_for(m["name"]) for m in spec["per_layer"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_output_check_rejects_a_corrupted_report(benches, name):
    bench = benches(name)
    job = bench.run_job(0)
    assert job.problems == []
    records = [json.loads(line) for line in job.report.splitlines()]
    bad = copy.deepcopy(records)
    if name == "search-never-win":
        bad[1]["outcome"] = "accepted"
    elif name == "search-chsh":
        # swapping Alice's answers turns a CHSH value v into 1 - v < 1/2
        ops = bad[1]["witness"]["alice"]["ops"]
        for row in ops:
            row.reverse()
    elif name == "norm-matrix-units":
        bad[-2]["value"] = "3/2"
    else:
        bad[1]["ok"] = False
    seed = run.job_seed(bench.seed, 0)
    problems = bench.workload.check(bench.ctx, seed, bad, job.code)
    assert problems, f"corrupted {name} report passed its check"
    if name == "search-chsh":
        assert any("not above 1/2" in p for p in problems)
    assert bench.workload.check(bench.ctx, seed, records, 99) != []


def test_traced_runs_repeat_counts_and_fingerprints(benches):
    bench = benches("search-chsh")
    first = run.run_traced(bench, seconds=0)
    second = run.run_traced(bench, seconds=0)
    counts = [{k: v for k, (v, unit) in metrics.items()
               if unit in ("count/job", "ratio") and not k.startswith("trace.")}
              for metrics, _, _ in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["search.examined"] == WORKLOADS["search-chsh"].items
    assert first[1]["fingerprint"] == second[1]["fingerprint"]
    assert "nondeterministic" not in first[1]
    assert all(not job.problems for job in first[2])
    assert 0.99 < first[0]["trace.attributed_frac"][0] <= 1.0


def test_fingerprint_is_shared_by_both_modes(benches):
    bench = benches("search-never-win")
    _, untraced, _ = run.run_untraced(bench, seconds=0)
    _, traced, _ = run.run_traced(bench, seconds=0)
    assert untraced["fingerprint"] == traced["fingerprint"]


def test_rebinding_is_undone(benches):
    bench = benches("search-chsh")
    import cstarkit.operators
    import cstarkit.rounding
    import cstarkit.search

    before = _cstarkit_bindings()
    op_norm = cstarkit.operators.op_norm
    round_to_povm = cstarkit.rounding.round_to_povm
    with pytest.raises(KeyError):
        with tracing.Tracer() as tracer:
            assert cstarkit.search.round_to_povm.__wrapped__ is round_to_povm
            for module in ("operators", "games", "rounding", "sampling", "presentations",
                           "cli", "search"):
                assert sys.modules[f"cstarkit.{module}"].op_norm.__wrapped__ is op_norm
            bench.run_job(0)
            assert len(tracer.name) > 0
            raise KeyError("leave the traced block by an exception")
    after = _cstarkit_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-chsh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
