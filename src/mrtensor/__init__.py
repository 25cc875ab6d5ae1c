"""Multiresolution tensor models of passing networks.

Pass events with origin and destination coordinates become sparse
count tensors over nested dyadic tilings of the playing surface.  A
block-structured nonnegative decomposition with Poisson likelihood
extracts recurring flow motifs and per-replicate usage scores, with
optional shrinkage that prunes redundant terms automatically.
"""

from .analysis import (
    DissimilarityMatrix,
    bray_curtis,
    dissimilarity_matrix,
    match_motifs,
    rank_motifs,
    simulate,
    write_dissimilarity_csv,
    write_motif_csv,
    write_motif_svg,
)
from .encode import (
    MultiIndex,
    adjacency_at_scale,
    binary_code,
    build_tensor,
    chain_index,
    decode_binary_code,
    encode_event,
    fold_to_multiindex,
    marginalize_to_scale,
    node_tile,
)
from .ingest import (
    EventTable,
    FieldGeometry,
    Replicate,
    parse_events,
    team_minutes,
)
from .model import (
    CpBtdModel,
    ScoreSummary,
    effective_rank,
    effective_terms,
    motif_at_scale,
    normalize_scores,
    objective,
    read_model,
    write_model,
)
from .solver import (
    FitReport,
    SolverConfig,
    SolverError,
    fit_block_gs,
    fit_em,
    initialize,
    mm_poisson_regression_group,
    read_report,
    write_report,
)
from .sptensor import (
    SparseCountTensor,
    dense_reconstruct,
    read_tensor,
    write_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "CpBtdModel",
    "DissimilarityMatrix",
    "EventTable",
    "FieldGeometry",
    "FitReport",
    "MultiIndex",
    "Replicate",
    "ScoreSummary",
    "SolverConfig",
    "SolverError",
    "SparseCountTensor",
    "adjacency_at_scale",
    "binary_code",
    "bray_curtis",
    "build_tensor",
    "chain_index",
    "decode_binary_code",
    "dense_reconstruct",
    "dissimilarity_matrix",
    "effective_rank",
    "effective_terms",
    "encode_event",
    "fit_block_gs",
    "fit_em",
    "fold_to_multiindex",
    "initialize",
    "marginalize_to_scale",
    "match_motifs",
    "mm_poisson_regression_group",
    "motif_at_scale",
    "node_tile",
    "normalize_scores",
    "objective",
    "parse_events",
    "rank_motifs",
    "read_model",
    "read_report",
    "read_tensor",
    "simulate",
    "team_minutes",
    "write_dissimilarity_csv",
    "write_model",
    "write_motif_csv",
    "write_motif_svg",
    "write_report",
    "write_tensor",
]
