"""Sparse count tensors and the sampled rows of factor-model designs.

Counts are stored coordinate-wise: an (nnz, ndim) index array plus a
count vector, canonically sorted in ascending lexicographic order with
duplicates merged.  Indices are 0-based in memory; the text format and
other presentation surfaces are 1-based.

For a factor model with column-stochastic mode factors Phi^(p) and
block-normalized mixing weights, the full design matrix over all cells
is the Khatri-Rao product of the factors times the block-diagonal
weight matrix.  Its defining property is that every column sums to one
over the complete cell grid, so fitted coefficient blocks carry the
expected counts.  The full design is never materialized: solvers only
ever need its rows at observed cells, which are Hadamard products of
factor rows (``factor_rows``).  Those rows depend only on the
non-replicate cell, and ``cell_groups`` lists each distinct cell once
with the cell of every stored entry, so the products are computed once
per cell and gathered to the entries.  ``mode_order`` groups the stored
entries by one mode's index, the layout of a block update's design.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

FORMAT_HEADER = "mrtensor v1"

# Elements per gathered temporary of a row-blocked computation: 2**16
# float64s, 512 KB, so a block's operands stay in L2 cache.
_BLOCK_ELEMENTS = 2**16


def _int64(values, what: str) -> np.ndarray:
    """``values`` as int64, without a copy when they already are;
    raises ValueError where the cast would change one (1.5, NaN, inf)."""
    values = np.asarray(values)
    if values.dtype.kind == "i":
        return values.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        cast = values.astype(np.int64)
    if not np.array_equal(cast, values):
        raise ValueError(f"{what} must be integers")
    return cast


@dataclass
class SparseCountTensor:
    """Canonical sparse nonnegative integer count tensor."""

    shape: tuple[int, ...]
    indices: np.ndarray
    counts: np.ndarray
    _mode_orders: dict = field(init=False, repr=False, default_factory=dict)
    _cells: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        if not self.shape or min(self.shape) <= 0:
            raise ValueError("need one or more modes, all of positive size")
        if max(self.shape) > np.iinfo(np.int64).max:
            raise ValueError("mode sizes must fit in int64")
        self.indices = _int64(self.indices, "indices")
        self.counts = _int64(self.counts, "counts")
        if self.indices.ndim != 2 or self.indices.shape[1] != len(self.shape):
            raise ValueError("indices must be (nnz, ndim)")
        if self.counts.shape != (self.indices.shape[0],):
            raise ValueError("counts must align with indices")
        if self.counts.min(initial=1) <= 0:
            raise ValueError("stored counts must be positive")
        upper = np.asarray(self.shape, dtype=np.int64)
        if self.indices.min(initial=0) < 0 or (self.indices >= upper).any():
            raise ValueError("index out of range for shape")
        # Consecutive rows compare at their first differing column.
        step = np.diff(self.indices, axis=0)
        lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
        if (lead < 0).any():
            raise ValueError("entries must be sorted lexicographically")
        if (lead == 0).any():
            raise ValueError("duplicate entries")

    @classmethod
    def from_entries(cls, shape, indices, counts) -> "SparseCountTensor":
        """Build the canonical form: merge duplicates, sort, drop zeros."""
        indices = _int64(indices, "indices")
        counts = _int64(counts, "counts")
        if indices.ndim != 2:
            indices = indices.reshape(len(counts), len(shape))
        order = np.lexsort(indices.T[::-1])
        indices = indices[order]
        counts = counts[order]
        new_group = np.ones(len(indices), dtype=bool)
        new_group[1:] = (np.diff(indices, axis=0) != 0).any(axis=1)
        starts = np.flatnonzero(new_group)
        counts = np.add.reduceat(counts, starts)
        indices = indices[starts]
        keep = counts != 0
        indices, counts = indices[keep], counts[keep]
        return cls(tuple(shape), indices, counts)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return len(self.counts)

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_replicates(self) -> int:
        return self.shape[-1]

    def mode_order(self, mode: int) -> np.ndarray:
        """Stable permutation of the stored entries by indices[:, mode].

        Computed once per mode and cached; within one mode value the
        entries keep their canonical (lexicographic) order.
        """
        if not 0 <= mode < self.ndim:
            raise ValueError("mode out of range")
        if mode not in self._mode_orders:
            self._mode_orders[mode] = np.argsort(
                self.indices[:, mode], kind="stable"
            )
        return self._mode_orders[mode]

    def cell_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(cells, inverse): the distinct non-replicate cells, ascending,
        and each stored entry's cell, so cells[inverse] == indices[:, :-1].

        Canonical order keeps a cell's entries contiguous, so no sort is
        needed.  Computed once and cached.
        """
        if self._cells is None:
            lead = self.indices[:, :-1]
            new = np.ones(self.nnz, dtype=bool)
            new[1:] = (np.diff(lead, axis=0) != 0).any(axis=1)
            self._cells = (lead[new], np.cumsum(new) - 1)
        return self._cells


def write_tensor(tensor: SparseCountTensor, path) -> None:
    """Write the ``mrtensor v1`` text form (1-based, lexicographic)."""
    with open(path, "w", encoding="utf-8") as handle:
        shape = ",".join(str(d) for d in tensor.shape)
        handle.write(
            f"{FORMAT_HEADER} modes={tensor.ndim} shape={shape} "
            f"nnz={tensor.nnz}\n"
        )
        line = " ".join(["%d"] * (tensor.ndim + 1)) + "\n"
        rows = np.column_stack([tensor.indices + 1, tensor.counts])
        handle.write(line * tensor.nnz % tuple(rows.ravel().tolist()))


def read_tensor(path) -> SparseCountTensor:
    """Read and validate the ``mrtensor v1`` text form."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        fields = header.split()
        if fields[:2] != FORMAT_HEADER.split() or len(fields) != 5:
            raise ValueError(f"malformed header: {header!r}")
        try:
            parsed = dict(f.split("=", 1) for f in fields[2:])
            modes = int(parsed["modes"])
            shape = tuple(int(d) for d in parsed["shape"].split(","))
            nnz = int(parsed["nnz"])
        except (KeyError, ValueError):
            raise ValueError(f"malformed header: {header!r}") from None
        if modes != len(shape):
            raise ValueError("header modes disagrees with shape")
        with warnings.catch_warnings():
            # loadtxt warns about an empty body, which nnz=0 expects.
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(handle, dtype=np.int64, ndmin=2)
    if not rows.size:
        rows = rows.reshape(0, modes + 1)
    if rows.shape != (nnz, modes + 1):
        raise ValueError(
            f"expected {nnz} entry lines of {modes + 1} fields, "
            f"found shape {rows.shape}"
        )
    return SparseCountTensor(shape, rows[:, :modes] - 1, rows[:, modes])


def factor_rows(
    indices: np.ndarray, factors: list[np.ndarray], skip: int | None = None
) -> np.ndarray:
    """Hadamard products of factor rows at the given cell indices.

    Column r of the result is prod_{p != skip} factors[p][indices[:, p], r];
    with no ``skip`` the product runs over every factor.  This is the
    row-sampled Khatri-Rao product (columnwise), never densified.
    """
    n = len(indices)
    width = factors[0].shape[1]
    out = np.ones((n, width))
    for p, phi in enumerate(factors):
        if p == skip:
            continue
        out *= phi[indices[:, p], :]
    return out


def _block_rows(width: int) -> int:
    """Rows per row block: _BLOCK_ELEMENTS // width, one at least."""
    return max(1, _BLOCK_ELEMENTS // max(1, width))


def _row_blocks(n_rows: int, width: int):
    """Consecutive slices over n_rows rows, each of _block_rows(width)
    rows but the last, which may be shorter."""
    step = _block_rows(width)
    return (slice(s, s + step) for s in range(0, n_rows, step))
