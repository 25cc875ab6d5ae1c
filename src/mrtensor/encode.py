"""Multiresolution dyadic encoding of pass events.

A standardized coordinate c in [0, 1) falls in tile floor(c * 2**S) of
the dyadic grid with 2**S cells per axis.  Writing the tile index in
binary, i = sum_s bits[s] * 2**(S-s), exposes one bit per scale with
bit 1 the coarsest: prefixes of the bit string locate the tile in every
coarser grid at once.

A pass has four coordinate modes (x_o, y_o, x_d, y_d).  At each scale
the two origin bits fold into one quadrant label in {1, 2, 3, 4} and
likewise for the destination, so an event at depth S becomes a
multi-index with 2S quadrant modes plus the replicate mode.  Counting
events over those multi-indices yields a sparse tensor of shape
4 x ... x 4 x N whose marginals telescope across scales: summing out
the two finest modes is exactly the encoding one scale up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import EventTable
from .sptensor import SparseCountTensor

# Most cells a dense node x node output may hold: twenty teams' scale-5
# networks (20 x 4**10 cells) fit, one scale-7 matrix (4**14) does not.
NODE_CELL_CAP = 2**25


def _grid_depth(sizes, scale: int | None = None) -> int:
    """Depth S of quadrant modes ``sizes`` laid out as above; a given
    ``scale`` must lie in [1, S]."""
    if not sizes or len(sizes) % 2 or any(n != 4 for n in sizes):
        raise ValueError(f"modes {sizes} are not quadrant pairs of size 4")
    depth = len(sizes) // 2
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


def binary_code(i: int, scales: int) -> tuple[int, ...]:
    """Bits of tile index ``i`` at depth ``scales``, coarsest first."""
    if scales < 1:
        raise ValueError("scales must be >= 1")
    if not 0 <= i < 2**scales:
        raise ValueError(f"tile index {i} out of range for S={scales}")
    return tuple((i >> (scales - s)) & 1 for s in range(1, scales + 1))


def decode_binary_code(bits) -> int:
    """Inverse of binary_code: coarsest-first bits back to the index."""
    i = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        i = (i << 1) | int(b)
    return i


def encode_event(tiles, scales: int) -> np.ndarray:
    """Index matrix of one event: rows (x_o, y_o, x_d, y_d), columns scales.

    ``tiles`` holds the four tile indices of the event at depth
    ``scales``; entry [k, s-1] of the result is the scale-s bit of
    mode k's tile index.
    """
    tiles = tuple(int(t) for t in tiles)
    if len(tiles) != 4:
        raise ValueError("an event has exactly four coordinate modes")
    return np.array([binary_code(t, scales) for t in tiles], dtype=np.int64)


@dataclass(frozen=True)
class MultiIndex:
    """Folded per-scale quadrant labels of one event (1-based).

    ``pairs[s-1]`` is (origin quadrant, destination quadrant) at scale
    s, each label in {1, 2, 3, 4}; ``replicate`` is the replicate slot.
    """

    pairs: tuple[tuple[int, int], ...]
    replicate: int

    def __post_init__(self):
        for o, d in self.pairs:
            if not (1 <= o <= 4 and 1 <= d <= 4):
                raise ValueError("quadrant labels must be in {1, 2, 3, 4}")

    def flat(self) -> tuple[int, ...]:
        """(o_1, d_1, ..., o_S, d_S, replicate), labels 1-based."""
        out: list[int] = []
        for o, d in self.pairs:
            out.extend((o, d))
        out.append(self.replicate)
        return tuple(out)


def fold_to_multiindex(index_matrix: np.ndarray, replicate: int) -> MultiIndex:
    """Fold a 4 x S index matrix into per-scale quadrant pairs.

    At each scale the x bit is the fast axis and the y bit the slow
    one: quadrant = x_bit + 2 * y_bit + 1.
    """
    b = np.asarray(index_matrix)
    if b.ndim != 2 or b.shape[0] != 4:
        raise ValueError("index matrix must be 4 x S")
    if not np.isin(b, (0, 1)).all():
        raise ValueError("index matrix entries must be bits")
    pairs = tuple(
        (int(b[0, s] + 2 * b[1, s]) + 1, int(b[2, s] + 2 * b[3, s]) + 1)
        for s in range(b.shape[1])
    )
    return MultiIndex(pairs, replicate)


def _quadrant_columns(coords: np.ndarray, scales: int) -> np.ndarray:
    """0-based quadrant labels, shape (n_events, 2 * scales).

    Columns alternate origin, destination from scale 1 to ``scales``.
    """
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
    q = np.atleast_2d(np.asarray(quadrants, dtype=np.int64))
    s = q.shape[1]
    weights = 4 ** np.arange(s - 1, -1, -1, dtype=np.int64)
    return q @ weights


def node_tile(node: int, scales: int) -> tuple[int, int]:
    """(x, y) tile of a 0-based chained node index on the 2**s grid."""
    tx = ty = 0
    for s in range(scales):
        digit = (node // 4 ** (scales - 1 - s)) % 4
        tx = (tx << 1) | (digit & 1)
        ty = (ty << 1) | (digit >> 1)
    return tx, ty


def adjacency_at_scale(
    tensor: SparseCountTensor, replicate: int, scales: int
) -> np.ndarray:
    """Origin x destination pass counts for one replicate at one scale.

    Nodes are the chained per-scale quadrant labels, so the matrix is
    4**scales square and entry sums are the replicate's event count.
    A parent edge equals the sum of its 16 child edges one scale down.
    """
    _grid_depth(tensor.shape[:-1], scales)
    if not 0 <= replicate < tensor.shape[-1]:
        raise ValueError("replicate out of range")
    size = _dense_side(scales)
    rows = tensor.indices[:, -1] == replicate
    idx = tensor.indices[rows]
    vo = chain_index(idx[:, 0 : 2 * scales : 2])
    vd = chain_index(idx[:, 1 : 2 * scales : 2])
    out = np.zeros((size, size), dtype=np.int64)
    np.add.at(out, (vo, vd), tensor.counts[rows])
    return out
