"""cstarkit benchmark: batches of seeded CLI jobs, end to end and per layer.

Run from the root of a checkout (nothing needs building or installing):

    python3 perfbench/run.py --workload search-chsh --seed 1 --seconds 25 --trace 0

Each run is one process running one workload as a closed loop with a single
client: the benchmark calls ``cstarkit.cli.console_main`` in-process, and
the next job starts when the previous one returns.  Job seeds derive from
``--seed``; each job's report goes to a scratch file and is checked.

``--trace 0`` loops over fresh jobs for ``--seconds`` and reports the
end-to-end metrics: items_per_s (candidates, catalog representations or
rounding instances per second of job time), job_p50_s, job_tail_s (the
highest percentile with at least ten jobs beyond it), setup_s (median over
fresh processes of import, input parsing and one warm-up job) and
peak_rss_mb.

Times are in nominal seconds.  The machines this runs on share cores with
other tenants, and their speed drifts by 20% or more over tens of seconds,
which no length of run averages out.  So a fixed reference kernel (numpy
norms and spectra plus interpreter work, independent of cstarkit) is timed
before and after every job and setup, and each time is scaled by
REF_S / (mean of the two reference times).  That leaves the program's own
speed; the unscaled figures are recorded in the info line.  The process
also runs with PYTHONHASHSEED=0 (re-executing itself to set it), because
per-process hash salts alone move job times by several percent.

``--trace 1`` runs the first FINGERPRINT_JOBS jobs once untraced, then
repeats them with every public function of cstarkit wrapped (see
tracing.py) until ``--seconds`` pass, and reports per-job call counts and
self times (unscaled) per function and per module, count-derived ratios,
and the tracing overhead from the scaled traced and untraced throughputs.

The last line of standard output is the result object; the line before it
records the environment, the tail percentile and job count, failed_frac and
the report fingerprint (sha256 over the reports of the first
FINGERPRINT_JOBS jobs, the same in both modes for one seed).  Both lines
are also written to perfbench/.work/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, parse_inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
FINGERPRINT_JOBS = 8
MIN_JOBS = 20
SETUP_PROBES = 5
TAIL_BEYOND = 10
# reference kernel time on a quiet 2-core Intel Xeon (numpy 2.4, OpenBLAS 0.3.31)
REF_S = 0.013
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"items_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.job_s": "s", "trace.attributed_frac": "ratio",
               "trace.items_per_s": "1/s", "trace.untraced_items_per_s": "1/s",
               "trace.overhead_frac": "ratio"}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources or inputs)."""


def import_cstarkit():
    """Import cstarkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cstarkit" / "__init__.py").is_file():
        raise SetupError(f"no cstarkit sources under {src}")
    sys.path.insert(0, str(src))
    import cstarkit.cli

    if Path(cstarkit.cli.__file__).resolve().parent != src / "cstarkit":
        raise SetupError(f"imported cstarkit from {cstarkit.cli.__file__}, not {src}")
    return cstarkit.cli


def reference_time() -> float:
    """Wall time of a fixed kernel independent of cstarkit: the speed yardstick.

    It mixes the two kinds of work the workloads do: small dense LAPACK calls
    (norms and spectra up to 16x16) and interpreter-bound numpy calls (small
    einsum contractions and Python loops).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for d in (2, 3, 4, 4, 6, 8, 12, 16)]
    stacks = [rng.normal(size=(2, 3, 3)) for _ in range(4)]
    start = time.perf_counter()
    acc = 0.0
    for _ in range(10):
        for m in mats:
            acc += float(np.linalg.norm(m, 2))
            acc += float(np.linalg.eigh(m + m.conj().T)[0][-1])
            acc += sum(abs(complex(x)) for x in m[0])
    for _ in range(40):
        for a in stacks:
            acc += float(np.einsum("aij,ajk->ik", a, a, optimize=True)[0, 0])
            acc += sum(x * x for x in range(40))
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel lost its result")
    return elapsed


def job_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Job:
    """Outcome of one CLI job: wall time, exit code, check problems, report."""

    elapsed: float
    code: object
    problems: list[str]
    report: bytes
    scaled: float | None = None


class Bench:
    """One workload at one seed: set up on construction, then run jobs."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.cli = import_cstarkit()
        for path in workload.inputs:
            if not (ROOT / path).is_file():
                raise SetupError(f"missing input {path}")
        self.ctx = parse_inputs(workload)
        WORK.mkdir(parents=True, exist_ok=True)
        self.out = WORK / f"{workload.name}-{os.getpid()}.jsonl"
        warm = self.run_job(-1)
        if warm.problems:
            raise SetupError(f"warm-up job failed: {warm.problems}")
        self.last_ref: float | None = None

    def timed_job(self, index: int) -> Job:
        """run_job, with its time also scaled to the nominal machine speed."""
        before = self.last_ref if self.last_ref is not None else reference_time()
        job = self.run_job(index)
        self.last_ref = reference_time()
        job.scaled = job.elapsed * 2 * REF_S / (before + self.last_ref)
        return job

    def run_job(self, index: int) -> Job:
        seed = job_seed(self.seed, index)
        argv = self.workload.job_argv(seed, self.out.relative_to(ROOT))
        self.out.unlink(missing_ok=True)
        sink = io.StringIO()
        problems: list[str] = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.console_main(argv)
        except SystemExit as ex:
            code = ex.code
        except Exception:
            code = None
            problems.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        report = b""
        try:
            report = self.out.read_bytes()
            records = [json.loads(line) for line in report.splitlines()]
            problems += self.workload.check(self.ctx, seed, records, code)
        except Exception as ex:  # any malformed report is a failed job
            problems.append(f"report check raised {ex!r}")
        return Job(elapsed, code, problems, report)

    def close(self) -> None:
        self.out.unlink(missing_ok=True)


def tail(times: list[float]) -> tuple[float, int]:
    """Nearest-rank value at the highest whole percentile with TAIL_BEYOND jobs beyond."""
    ordered = sorted(times)
    n = len(ordered)
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Start-to-ready times of fresh processes (one at a time): scaled, raw."""
    scaled, raw = [], []
    before = reference_time()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--setup-only"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SetupError(f"setup probe exited with {code}")
        after = reference_time()
        raw.append(ready)
        scaled.append(ready * 2 * REF_S / (before + after))
        before = after
    return scaled, raw


def _fail_lines(jobs: list[Job]) -> list[str]:
    return [f"job {i}: {p}" for i, job in enumerate(jobs) for p in job.problems][:20]


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict, list[Job]]:
    setup, setup_raw = measure_setup(bench.workload.name, bench.seed)
    jobs: list[Job] = []
    digest = hashlib.sha256()
    started = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - started < seconds:
        job = bench.timed_job(len(jobs))
        if len(jobs) < FINGERPRINT_JOBS:
            digest.update(job.report)
        jobs.append(job)
    items = sum(1 for j in jobs if not j.problems) * bench.workload.items
    times = [j.scaled for j in jobs]
    raw = [j.elapsed for j in jobs]
    tail_s, pct = tail(times)
    metrics = {
        "items_per_s": items / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"tail_percentile": pct, "jobs": len(jobs), "fingerprint": digest.hexdigest(),
            "unscaled": {"items_per_s": items / sum(raw), "job_p50_s": statistics.median(raw),
                         "job_tail_s": tail(raw)[0], "setup_s": statistics.median(setup_raw)},
            "setup_samples_s": setup, "reference_s": bench.last_ref}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info, jobs


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict, list[Job]]:
    from tracing import Tracer

    def one_pass() -> tuple[list[Job], str]:
        done = [bench.timed_job(i) for i in range(FINGERPRINT_JOBS)]
        return done, hashlib.sha256(b"".join(j.report for j in done)).hexdigest()

    items = bench.workload.items
    untraced, fingerprint = one_pass()
    untraced_rate = items * len(untraced) / sum(j.scaled for j in untraced)
    traced: list[Job] = []
    digests = set()
    tracer = Tracer()
    started = time.perf_counter()
    with tracer:
        while not traced or time.perf_counter() - started < seconds:
            done, digest = one_pass()
            if not traced:
                first_pass_spans = len(tracer.name)
            traced += done
            digests.add(digest)
    metrics = tracer.summary(len(traced))
    job_time = sum(j.elapsed for j in traced)
    traced_rate = items * len(traced) / sum(j.scaled for j in traced)
    metrics.update({
        "trace.job_s": job_time / len(traced),
        "trace.attributed_frac": tracer.job_time() / job_time,
        "trace.items_per_s": traced_rate,
        "trace.untraced_items_per_s": untraced_rate,
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
    })
    spans_path = WORK / f"{bench.workload.name}-seed{bench.seed}-spans.tsv"
    info = {"jobs": len(untraced) + len(traced), "traced_jobs": len(traced),
            "fingerprint": fingerprint, "spans": len(tracer.name),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_written": tracer.write_spans(spans_path, first_pass_spans)}
    if digests != {fingerprint}:
        info["nondeterministic"] = "traced passes wrote reports that differ"
    units = {name: unit_for(name) for name in metrics}
    return {k: (v, units[k]) for k, v in metrics.items()}, info, untraced + traced


def unit_for(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in TRACE_UNITS:
        return TRACE_UNITS[name]
    if name.endswith(".self_s"):
        return "s/job"
    if name.endswith("_ratio"):
        return "ratio"
    return "count/job"


def per_layer_names() -> list[str]:
    from tracing import metric_names

    return metric_names() + list(TRACE_UNITS)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (one setup_s sample)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashes are salted per process, and the table layouts that
        # follow move job times by several percent from run to run
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    os.chdir(ROOT)
    bench = None
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        runner = run_traced if args.trace else run_untraced
        metrics, info, jobs = runner(bench, args.seconds)
    except SetupError as ex:
        print(f"benchmark setup failed: {ex}", file=sys.stderr)
        return 2
    finally:
        if bench is not None:
            bench.close()
    failed = sum(1 for j in jobs if j.problems)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "failed_frac": failed / len(jobs), **info,
            "failures": _fail_lines(jobs), "environment": environment()}
    result = {"correct": failed == 0 and "nondeterministic" not in info,
              "attempted": len(jobs), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    lines = [json.dumps(info, sort_keys=True), json.dumps(result)]
    record = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
