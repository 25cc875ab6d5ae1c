"""Smoke test of the benchmark at a tiny size.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import io
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import mrtensor.analysis  # noqa: E402
import mrtensor.solver  # noqa: E402
from mrtensor.ingest import parse_events  # noqa: E402

import generators  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Counters that must repeat exactly for a fixed seed.
COUNTERS = (
    "ingest.events", "ingest.replicates", "ingest.teams", "sptensor.nnz",
    "sptensor.cell_share", "sptensor.modes", "sptensor.factor_rows.rows",
    "solver.outer_iterations", "solver.inner_sweeps",
    "solver.blocks_attempted", "solver.blocks_rejected",
    "solver.accept_ratio", "solver.converged", "motif_cosine",
    "term_count_error", "failure_ratio",
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "RECOVERY_DATA_SETS", 1)
    monkeypatch.setattr(workloads, "RECOVERY_RESTARTS", 2)
    monkeypatch.setattr(workloads, "RECOVERY_MAX_OUTER", 3)
    monkeypatch.setattr(workloads, "SEASON_EVENTS", 3000)
    monkeypatch.setattr(run, "STAGE_SECONDS", 0.0)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def bench_run(capsys, workload, seed, trace):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared(kind)
    return {k: v["value"] for k, v in result["metrics"].items()}


def traced_run(capsys, workload, seed):
    return bench_run(capsys, workload, seed, trace=1)


def test_untraced_run_reports_every_end_to_end_metric(tiny, capsys):
    metrics = bench_run(capsys, "recovery", 1, trace=0)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", ["recovery", "season"])
def test_seed_reproduces_inputs_and_counters(tiny, capsys, workload):
    first = traced_run(capsys, workload, 3)
    second = traced_run(capsys, workload, 3)
    for name in COUNTERS:
        assert first[name] == second[name], name
    for name in tracing.TRACED:
        assert first[f"{name}.calls"] == second[f"{name}.calls"], name
    assert first["ingest.events"] > 0 and first["solver.outer_iterations"] > 0


def test_generators_are_deterministic_in_the_seed():
    assert generators.season_events(7, 500) == generators.season_events(7, 500)
    assert generators.season_events(7, 500) != generators.season_events(8, 500)
    truth = generators.planted_truth(2)
    tensor_a, text_a = generators.recovery_events(truth, 2)
    tensor_b, text_b = generators.recovery_events(truth, 2)
    assert text_a == text_b
    assert workloads.same_tensor(tensor_a, tensor_b)


@pytest.mark.parametrize("scale", [1, 2, 3])
def test_dissimilarity_reference_matches_program(scale):
    table = parse_events(io.StringIO(
        generators.season_events(5, 2000, n_teams=4, per_team=3)))
    result = mrtensor.analysis.dissimilarity_matrix(table, scale)
    labels, ref = workloads.dissimilarity_reference(table, scale)
    assert labels == result.labels
    assert np.abs(result.values - ref).max() <= 1e-12
    workloads.check_dissimilarity(result.labels, result.values, table, scale)


def test_self_times_add_up_to_the_root_spans(tiny, tmp_path):
    workload = workloads.WORKLOADS["recovery"]
    tracer = tracing.Tracer()
    original = mrtensor.solver.fit_block_gs
    with tracer.install():
        assert mrtensor.solver.fit_block_gs is not original
        with tracer.span("setup"):
            inputs = workload.setup(0, str(tmp_path))
        with tracer.span("repetition"):
            _, failed, _ = run.run_repetition(
                workload, inputs, str(tmp_path), {}, tracer)
    assert failed == 0
    assert mrtensor.solver.fit_block_gs is original
    summary = tracer.summary()
    total_self = sum(row["self_s"] for row in summary.values())
    roots = summary["setup"]["s"] + summary["repetition"]["s"]
    assert total_self == pytest.approx(roots, rel=1e-9)
    assert summary["analysis.simulate"]["calls"] == 1
    assert summary["solver.fit_block_gs"]["calls"] == 2
    outer = sum(r.outer_iterations for r in tracer.reports)
    assert summary["solver.update_scores"]["calls"] == outer


def test_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(mrtensor.analysis, "write_motif_svg")
    tracer = tracing.Tracer()
    with tracer.install():
        pass
    assert tracer.absent == ["analysis.write_motif_svg"]
