"""Benchmark of the mrtensor pipeline: one workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload recovery|season|deep --seed N \\
        --seconds S --trace 0|1

The run generates its inputs from the seed, sets them up five times
(``setup_s`` is the median over them of the numpy and mrtensor import
time in a fresh interpreter plus input generation and writing), then
repeats the workload's stages until ``--seconds`` have passed (at least
three repetitions).  Within a repetition the encode, fit and dissim
stages each run again and again for at least ``STAGE_SECONDS``.  A
stage's time is its mean time per call over the whole run, and
``total_s`` is the sum of these (``run_repetition`` says why not the
median).  Every repetition's outputs are checked.  With ``--trace 1``
one more set-up and one more repetition run with every traced mrtensor
function wrapped, and the per-module numbers come from them; their spans are
written to ``.bench_run/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A line starting
with ``env`` before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

# One thread per process: pinned before numpy is first imported, so the
# numbers measure the program and not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "MRTENSOR_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPETITIONS = 3
SETUPS = 5
# The stages whose times are end-to-end metrics, and the least time each
# of them runs for, call after call, in one untraced repetition.
REPEATED = ("encode", "fit", "dissim")
STAGE_SECONDS = 1.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("recovery", "season", "deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MRTENSOR_THREADS")},
    }


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, mrtensor; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of numpy and mrtensor in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_repetition(workload, inputs, workdir, memo, tracer=None):
    """Run every stage (timed), then every check.

    Untraced, a stage of ``REPEATED`` runs again and again until
    ``STAGE_SECONDS`` have passed.  On a shared host (a 2-vCPU VM) the
    same call runs in a fast or, for seconds to a minute at a time, a
    1.4-1.7x slower spell, so the median of a run's calls flips between
    the two, and the mean over the run, which weighs the spells by
    their length, is the steadiest figure.  In 10 min of recovery's
    stages in one process, the spread (IQR / median) over 55 s windows
    was 0.08 / 0.05 / 0.06 for the mean time of encode / fit / dissim,
    0.10 / 0.08 / 0.06 for the median and 0.13 / 0.13 / 0.05 for the
    least time.  Traced, every stage runs once, so call counts repeat.

    Returns (time of each call per stage, stages failed, stages
    attempted).
    """
    state: dict = {}
    stages = workload.stages(inputs, workdir, state, memo)
    times: dict[str, list[float]] = {}
    broken: set[str] = set()
    for name, run, _ in stages:
        span = tracer.span(f"stage.{name}") if tracer else nullcontext()
        repeat = tracer is None and name in REPEATED
        calls = times[name] = []
        first = time.perf_counter()
        try:
            with span:
                while True:
                    start = time.perf_counter()
                    run()
                    calls.append(time.perf_counter() - start)
                    if (not repeat or
                            time.perf_counter() - first >= STAGE_SECONDS):
                        break
        except Exception as exc:  # a failing stage is counted, not fatal
            broken.add(name)
            calls.append(time.perf_counter() - start)
            print(f"stage {name} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    for name, _, check in stages:
        if name in broken:
            continue
        try:
            check()
        except Exception as exc:  # includes CheckFailed
            broken.add(name)
            print(f"check of {name} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    return times, len(broken), len(stages)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mrtensor", "__init__.py")):
        print(f"error: no mrtensor sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import tracing
    import workloads

    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(
        run_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    attempted = failed = 0
    try:
        setup_times, digests = [], []
        for _ in range(SETUPS):
            imports = import_seconds()
            start = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_times.append(imports + time.perf_counter() - start)
            digests.append(sorted(
                workloads.file_digest(os.path.join(workdir, name))
                for name in os.listdir(workdir)
                if name.endswith(".csv")))
        attempted += 1
        if any(d != digests[0] for d in digests):
            failed += 1
            print("set-up is not deterministic in the seed", file=sys.stderr)

        memo: dict = {}
        reps: list[dict[str, list[float]]] = []
        t0 = time.perf_counter()
        while (len(reps) < MIN_REPETITIONS
               or time.perf_counter() - t0 < args.seconds):
            times, bad, n = run_repetition(workload, inputs, workdir, memo)
            reps.append(times)
            attempted += n
            failed += bad

        mean = {stage: statistics.mean(t for r in reps for t in r[stage])
                for stage in reps[0]}
        untraced_total = sum(mean.values())
        if not args.trace:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "total_s": (untraced_total, "s"),
                "encode_s": (mean["encode"], "s"),
                "fit_s": (mean["fit"], "s"),
                "dissim_s": (mean["dissim"], "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "MB"),
            }
        else:
            tracer = tracing.Tracer()
            with tracer.install():
                # Set-up is traced too: recovery samples its data with
                # analysis.simulate.
                with tracer.span("setup"):
                    inputs = workload.setup(args.seed, workdir)
                with tracer.span("repetition"):
                    times, bad, n = run_repetition(
                        workload, inputs, workdir, memo, tracer)
            attempted += n
            failed += bad
            metrics = per_module_metrics(
                tracer, memo, sum(sum(t) for t in times.values())
                - untraced_total,
                failed / attempted)
            tracer.write(os.path.join(
                run_dir, f"spans-{args.workload}-{args.seed}.jsonl"), env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"repetitions {len(reps)}; mean time per call over them:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_module_metrics(tracer, memo, overhead_s, failure_ratio):
    """Per-module spans plus the work counters of the traced repetition."""
    import tracing

    summary = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.TRACED:
        row = summary.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        metrics[f"{name}.s"] = (row["s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.calls"] = (row["calls"], "count")

    for key, (value, unit) in workload_properties(memo).items():
        metrics[key] = (value, unit)
    metrics["sptensor.factor_rows.rows"] = (tracer.factor_rows, "count")

    reports = tracer.reports
    outer = sum(r.outer_iterations for r in reports)
    attempted = sum(summary.get(name, {"calls": 0})["calls"]
                    for name in ("solver.update_scores", "solver.update_mode"))
    rejected = sum(r.rejected_blocks for r in reports)
    fit_s = summary.get("solver.fit_block_gs", {"s": 0.0})["s"]
    metrics.update({
        "solver.outer_iterations": (outer, "count"),
        "solver.inner_sweeps": (
            sum(sum(r.inner_iterations) for r in reports), "count"),
        "solver.blocks_attempted": (attempted, "count"),
        "solver.blocks_rejected": (rejected, "count"),
        "solver.accept_ratio": (
            1.0 - rejected / attempted if attempted else 0.0, "1"),
        "solver.converged": (sum(bool(r.converged) for r in reports), "count"),
        "solver.s_per_outer": (fit_s / outer if outer else 0.0, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    cosine, term_error = memo.get("quality", (0.0, 0.0))
    metrics["motif_cosine"] = (cosine, "1")
    metrics["term_count_error"] = (term_error, "terms")
    metrics["failure_ratio"] = (failure_ratio, "1")
    return metrics


def workload_properties(memo) -> dict[str, tuple[float, str]]:
    """Input properties, summed over the run's data sets."""
    import numpy as np

    tables, tensors = memo.get("tables", []), memo.get("tensors", [])
    if not tensors:  # the first repetition's encode check failed
        return {}
    nnz = sum(t.nnz for t in tensors)
    cells = sum(len(np.unique(t.indices[:, :-1], axis=0)) for t in tensors)
    return {
        "ingest.events": (sum(t.n_events for t in tables), "count"),
        "ingest.replicates": (sum(t.n_replicates for t in tables), "count"),
        "ingest.teams": (
            sum(len({r.team for r in t.replicates}) for t in tables), "count"),
        "sptensor.nnz": (nnz, "count"),
        "sptensor.cell_share": (cells / nnz, "1"),
        "sptensor.modes": (tensors[0].ndim - 1, "count"),
    }


if __name__ == "__main__":
    sys.exit(main())
