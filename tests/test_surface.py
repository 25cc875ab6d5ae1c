"""The public surface, pinned: a new public name, solver knob, report
field or CLI flag must be added here on purpose."""

import argparse
import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import mrtensor
from mrtensor import FitReport, SolverConfig
from mrtensor.cli import build_parser

PUBLIC_NAMES = [
    "CpBtdModel", "DissimilarityMatrix", "EventTable", "FieldGeometry",
    "FitReport", "Replicate", "SolverConfig", "SolverError",
    "SparseCountTensor", "adjacency_at_scale", "bray_curtis",
    "build_tensor", "chain_index", "dissimilarity_matrix",
    "effective_rank", "effective_terms", "fit_block_gs", "initialize",
    "marginalize_to_scale", "match_motifs",
    "mm_poisson_regression_group", "motif_at_scale",
    "node_tile", "normalize_scores", "objective", "parse_events",
    "rank_motifs", "read_model", "read_report", "read_tensor", "simulate",
    "team_minutes", "write_dissimilarity_csv", "write_model",
    "write_motif_csv", "write_motif_svg", "write_report", "write_tensor",
]

SOLVER_KNOBS = [
    "n_terms", "rank", "beta", "max_outer", "max_inner", "outer_tol", "seed",
]

REPORT_FIELDS = [
    "objective", "inner_iterations", "effective_terms", "duration",
    "rejected_blocks", "stop_reason",
]


GEOMETRY_FLAGS = {"--length", "--width", "--attack-direction"}
SOLVER_FLAGS = {"--terms", "-H", "--rank", "-R", "--beta",
                "--max-outer", "--max-inner", "--outer-tol", "--seed"}
CLI_FLAGS = {
    "encode": {"--scales", "-S", "--out"} | GEOMETRY_FLAGS,
    "fit": {"--out", "--report"} | SOLVER_FLAGS,
    "motifs": {"--top", "--scales", "--edges", "--out"},
    "dissim": {"--scale", "--out"} | GEOMETRY_FLAGS,
    "simulate": {"--seed", "--out"},
    "scores": {"--out"},
}


def test_public_names():
    assert sorted(mrtensor.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(mrtensor, name), name


def test_public_names_documented():
    for name in PUBLIC_NAMES:
        doc = inspect.getdoc(getattr(mrtensor, name)) or ""
        # A dataclass without a docstring gets its signature as one.
        assert doc.strip() and not doc.startswith(f"{name}("), name


def test_solver_config_fields():
    assert [f.name for f in fields(SolverConfig)] == SOLVER_KNOBS


def test_report_fields():
    assert [f.name for f in fields(FitReport)] == REPORT_FIELDS


def test_cli_flags():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {flag for action in sub._actions
               for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert flags == CLI_FLAGS


# Listed in bench/tracing.py but deleted from the package; the benchmark
# reports them absent until its list is updated.
STALE_TRACED = {
    "sptensor.design_for_replicate", "sptensor.design_for_mode_slice",
}


def traced_names():
    """bench/tracing.py's TRACED tuple, read without importing bench."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if getattr(target, "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED")


def test_traced_names_resolve():
    # As the tracer looks them up: a function in the module's namespace,
    # or a classmethod of the module's SparseCountTensor.
    absent = set()
    for name in traced_names():
        module_name, func_name = name.split(".")
        home = importlib.import_module(f"mrtensor.{module_name}")
        cls = getattr(home, "SparseCountTensor", None)
        found = func_name in vars(home) or (
            cls is not None
            and isinstance(vars(cls).get(func_name), classmethod)
        )
        if not found:
            absent.add(name)
    assert absent <= STALE_TRACED
