"""The public surface, pinned: a new public name or solver knob must be
added here on purpose."""

from dataclasses import fields

import mrtensor
from mrtensor import SolverConfig

PUBLIC_NAMES = [
    "CpBtdModel", "DissimilarityMatrix", "EventTable", "FieldGeometry",
    "FitReport", "MultiIndex", "Replicate",
    "ScoreSummary", "SolverConfig", "SolverError", "SparseCountTensor",
    "adjacency_at_scale", "binary_code", "bray_curtis", "build_tensor",
    "chain_index", "cosine_similarity", "decode_binary_code",
    "dense_reconstruct", "dissimilarity_matrix", "effective_rank",
    "effective_terms", "encode_event", "fit_block_gs",
    "fit_em", "fold_to_multiindex", "initialize", "intensity_at",
    "marginalize_to_scale", "match_motifs", "mm_poisson_regression",
    "mm_poisson_regression_group", "motif_at_scale",
    "node_tile", "normalize_scores", "objective", "parse_events",
    "rank_motifs", "read_model", "read_report", "read_tensor", "simulate",
    "team_minutes", "write_dissimilarity_csv", "write_model",
    "write_motif_csv", "write_motif_svg", "write_report", "write_tensor",
]

SOLVER_KNOBS = [
    "n_terms", "rank", "beta", "max_outer", "max_inner", "outer_tol", "seed",
]


def test_public_names():
    assert sorted(mrtensor.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(mrtensor, name), name


def test_solver_config_fields():
    assert [f.name for f in fields(SolverConfig)] == SOLVER_KNOBS
