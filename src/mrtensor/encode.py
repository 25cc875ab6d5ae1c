"""Multiresolution dyadic encoding of pass events.

A standardized coordinate c in [0, 1) falls in tile floor(c * 2**S) of
the dyadic grid with 2**S cells per axis.  The tile's binary digits,
coarsest first, pick one half of the axis per scale: the scale-s bit
is (tile >> (S - s)) & 1, and the first s bits locate the tile in the
coarser 2**s grid.

A pass has four coordinate modes (x_o, y_o, x_d, y_d).
``_quadrant_columns`` takes the bits of every event at once and folds
each end's x and y bit at scale s into one 0-based quadrant label,
x_bit + 2 * y_bit, so an event at depth S becomes 2S labels (origin,
destination, scale 1 first).  ``build_tensor`` appends the replicate
and counts events into a sparse tensor of shape 4 x ... x 4 x N whose
marginals telescope across scales: summing out the two finest modes is
exactly the encoding one scale up.  ``chain_index`` reads one end's
labels as base-4 digits, coarsest most significant, to name its node
of the 4**s grid, and ``node_tile`` maps a node back to its tile.
"""
from __future__ import annotations

import numpy as np

from .ingest import EventTable
from .sptensor import SparseCountTensor, _int64

# Most cells a dense node x node output may hold: twenty teams' scale-5
# networks (20 x 4**10 cells) fit, one scale-7 matrix (4**14) does not.
NODE_CELL_CAP = 2**25


def _grid_depth(sizes, scale: int | None = None) -> int:
    """Depth S of quadrant modes ``sizes`` laid out as above; a given
    ``scale`` must lie in [1, S]."""
    if not sizes or len(sizes) % 2 or any(n != 4 for n in sizes):
        raise ValueError(f"modes {sizes} are not quadrant pairs of size 4")
    depth = len(sizes) // 2
    if scale is not None and not isinstance(scale, (int, np.integer)):
        raise ValueError(f"scale {scale!r} is not an integer")
    if scale is not None and not 1 <= scale <= depth:
        raise ValueError(f"scale {scale} out of range [1, {depth}]")
    return depth


def _dense_side(scale: int, copies: int = 1) -> int:
    """Node count 4**scale of ``copies`` dense node x node matrices at a
    range-checked scale; raises past NODE_CELL_CAP cells."""
    cells = copies * 16**scale
    if cells > NODE_CELL_CAP:
        raise ValueError(f"scale {scale} needs {cells} dense node x node "
                         f"cells, over the cap {NODE_CELL_CAP}")
    return 4**scale


def _quadrant_columns(coords: np.ndarray, scales: int) -> np.ndarray:
    """0-based quadrant labels, shape (n_events, 2 * scales).

    Columns alternate origin, destination from scale 1 to ``scales``.
    """
    if not isinstance(scales, (int, np.integer)):
        raise ValueError(f"scales {scales!r} is not an integer")
    # Tile indices floor(c * 2**scales) must fit in int64.
    if not 1 <= scales <= 63:
        raise ValueError("scales must be >= 1 and <= 63")
    tiles = np.floor(coords * 2**scales).astype(np.int64)
    cols = np.empty((coords.shape[0], 2 * scales), dtype=np.int64)
    for s in range(1, scales + 1):
        shift = scales - s
        bits = (tiles >> shift) & 1
        cols[:, 2 * s - 2] = bits[:, 0] + 2 * bits[:, 1]
        cols[:, 2 * s - 1] = bits[:, 2] + 2 * bits[:, 3]
    return cols


def build_tensor(table: EventTable, scales: int) -> SparseCountTensor:
    """Count events into the multiresolution tensor at depth ``scales``.

    The result has 2 * scales quadrant modes of size 4 followed by the
    replicate mode of size table.n_replicates; the total count equals
    table.n_events.
    """
    quadrants = _quadrant_columns(table.coords, scales)
    if table.n_replicates == 0:
        raise ValueError("table has no replicates to encode")
    shape = (4,) * (2 * scales) + (table.n_replicates,)
    idx = np.column_stack([quadrants, table.replicate_index])
    return SparseCountTensor.from_entries(
        shape, idx, np.ones(len(idx), dtype=np.int64)
    )


def marginalize_to_scale(
    tensor: SparseCountTensor, scales: int
) -> SparseCountTensor:
    """Sum out every mode finer than ``scales``.

    The result has 2 * scales + 1 modes and the same total count; for
    the tensor's own depth it is a copy.
    """
    _grid_depth(tensor.shape[:-1], scales)
    keep = list(range(2 * scales)) + [tensor.ndim - 1]
    shape = tuple(tensor.shape[m] for m in keep)
    return SparseCountTensor.from_entries(
        shape, tensor.indices[:, keep], tensor.counts.copy()
    )


def chain_index(quadrants: np.ndarray) -> np.ndarray:
    """Collapse 0-based per-scale quadrant columns into one node index.

    Column s-1 holds scale-s labels; the coarsest scale is the most
    significant base-4 digit, so parents at scale s-1 own contiguous
    blocks of 4 children.
    """
    q = np.atleast_2d(_int64(quadrants, "quadrant labels"))
    if q.min(initial=0) < 0 or q.max(initial=0) > 3:
        raise ValueError("quadrant labels must lie in 0..3")
    s = q.shape[1]
    weights = 4 ** np.arange(s - 1, -1, -1, dtype=np.int64)
    return q @ weights


def node_tile(node: int, scales: int) -> tuple[int, int]:
    """(x, y) tile of a 0-based chained node index on the 2**s grid."""
    if not all(isinstance(v, (int, np.integer)) for v in (node, scales)):
        raise ValueError(f"node {node!r} and scale {scales!r} need integers")
    if scales < 0 or not 0 <= node < 4**scales:
        raise ValueError(f"node {node} out of range for scale {scales}")
    tx = ty = 0
    for s in range(scales):
        digit = (node // 4 ** (scales - 1 - s)) % 4
        tx = (tx << 1) | (digit & 1)
        ty = (ty << 1) | (digit >> 1)
    return tx, ty


def _networks(quadrants, scale, group, n_groups, counts=None):
    """Origin x destination counts, shape (n_groups, 4**scale, 4**scale):
    row k of the quadrant columns adds ``counts[k]`` (default 1) to the
    network ``group[k]``; a scalar ``group`` takes every row."""
    size = _dense_side(scale, n_groups)
    key = ((group * size + chain_index(quadrants[:, 0 : 2 * scale : 2]))
           * size + chain_index(quadrants[:, 1 : 2 * scale : 2]))
    return np.bincount(key, counts, n_groups * size * size).reshape(
        n_groups, size, size)


def adjacency_at_scale(
    tensor: SparseCountTensor, replicate: int, scales: int
) -> np.ndarray:
    """Origin x destination pass counts for one replicate at one scale.

    Nodes are the chained per-scale quadrant labels, so the matrix is
    4**scales square and entry sums are the replicate's event count.
    A parent edge equals the sum of its 16 child edges one scale down.
    """
    _grid_depth(tensor.shape[:-1], scales)
    n = tensor.shape[-1]
    if not isinstance(replicate, (int, np.integer)) or not 0 <= replicate < n:
        raise ValueError(f"replicate must be an integer in [0, {n})")
    rows = tensor.indices[:, -1] == replicate
    # Weighted sums come back as float64, exact integers below 2**53.
    return _networks(tensor.indices[rows], scales, 0, 1,
                     tensor.counts[rows])[0].astype(np.int64)
