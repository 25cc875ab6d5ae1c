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


def _checked(shape, indices, counts, least: int):
    """(shape, indices, counts) as a tuple of ints and int64 arrays;
    raises ValueError unless the indices are (nnz, ndim) and inside
    ``shape`` and each has one count of at least ``least`` (0 or 1),
    and the counts sum within int64, which bounds every merged sum."""
    shape = tuple(int(d) for d in shape)
    if not shape or min(shape) <= 0:
        raise ValueError("need one or more modes, all of positive size")
    if max(shape) > np.iinfo(np.int64).max:
        raise ValueError("mode sizes must fit in int64")
    indices = _int64(indices, "indices")
    counts = _int64(counts, "counts")
    if indices.ndim != 2 or indices.shape[1] != len(shape):
        raise ValueError("indices must be (nnz, ndim)")
    if counts.shape != (indices.shape[0],):
        raise ValueError("counts must align with indices")
    if counts.min(initial=least) < least:
        raise ValueError("stored counts must be positive" if least
                         else "counts must not be negative")
    # Only counts this large can overflow; their exact sum decides.
    if (counts.max(initial=0) > (2**63 - 1) // max(1, len(counts))
            and sum(counts.tolist()) > 2**63 - 1):
        raise ValueError("the counts' total overflows int64")
    upper = np.asarray(shape, dtype=np.int64)
    if indices.min(initial=0) < 0 or (indices >= upper).any():
        raise ValueError("index out of range for shape")
    return shape, indices, counts


@dataclass
class SparseCountTensor:
    """Canonical sparse nonnegative integer count tensor."""

    shape: tuple[int, ...]
    indices: np.ndarray
    counts: np.ndarray
    _mode_orders: dict = field(init=False, repr=False, default_factory=dict)
    _cells: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.shape, self.indices, self.counts = _checked(
            self.shape, self.indices, self.counts, least=1)
        # Consecutive rows compare at their first differing column.
        step = np.diff(self.indices, axis=0)
        lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
        if (lead < 0).any():
            raise ValueError("entries must be sorted lexicographically")
        if (lead == 0).any():
            raise ValueError("duplicate entries")

    @classmethod
    def from_entries(cls, shape, indices, counts) -> "SparseCountTensor":
        """Build the canonical form: merge duplicates, sort, drop zeros.
        A negative count or an index outside ``shape`` raises before any
        merge, where it would cancel or alias another entry's count."""
        indices = _int64(indices, "indices")
        if indices.ndim != 2:
            indices = indices.reshape(np.size(counts), len(shape))
        shape, indices, counts = _checked(shape, indices, counts, least=0)
        # Mixed-radix keys, most significant first, each packing a run of
        # columns whose sizes multiply to at most 2**62: they sort as rows.
        keys, start, size = [], 0, 1
        for stop, d in enumerate(shape + (2**63,)):
            if size * d > 2**62 and stop > start:
                keys.append(np.ravel_multi_index(indices[:, start:stop].T,
                                                 shape[start:stop]))
                start, size = stop, 1
            size *= d
        keys = np.array(keys)
        order = np.lexsort(keys[::-1]) if len(keys) > 1 else keys[0].argsort()
        # A group starts where the sorted keys change (keys are >= 0).
        starts = np.flatnonzero(
            np.diff(keys[:, order], axis=1, prepend=-1).any(axis=0))
        counts = np.add.reduceat(counts[order], starts)
        keep = counts != 0
        return cls(shape, indices.take(order[starts[keep]], axis=0),
                   counts[keep])

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
        # Each distinct cell's "i_1 ... i_P " prefix is formatted once.
        cells, inverse = tensor.cell_groups()
        prefixes = ("%d " * (tensor.ndim - 1) + "\n") * len(cells) % tuple(
            (cells + 1).ravel().tolist())
        prefixes = np.array(prefixes.split("\n"), dtype=object)
        rows = np.column_stack([prefixes[inverse], tensor.indices[:, -1] + 1,
                                tensor.counts])
        handle.write("%s%d %d\n" * tensor.nnz % tuple(rows.ravel().tolist()))


def _key_values(words, kinds: dict, message: str) -> list:
    """The values of the ``key=value`` words in ``kinds`` order, each key
    of ``kinds`` once and no other; ``kinds`` maps a key to ``int`` or to
    ``tuple`` (a comma list of ints).  Raises ``ValueError(message)``."""
    try:
        found = dict(word.split("=", 1) for word in words)
        if len(words) != len(kinds) or found.keys() != kinds.keys():
            raise ValueError
        return [tuple(map(int, found[key].split(","))) if kind is tuple
                else int(found[key]) for key, kind in kinds.items()]
    except ValueError:
        raise ValueError(message) from None


def read_tensor(path) -> SparseCountTensor:
    """Read and validate the ``mrtensor v1`` text form."""
    with open(path, encoding="utf-8-sig") as handle:
        header = handle.readline().strip()
        fields, malformed = header.split(), f"malformed header: {header!r}"
        if fields[:2] != FORMAT_HEADER.split():
            raise ValueError(malformed)
        modes, shape, nnz = _key_values(
            fields[2:], {"modes": int, "shape": tuple, "nnz": int}, malformed)
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
    kept = [p for p in range(len(factors)) if p != skip]
    if not kept:
        return np.ones((len(indices), factors[0].shape[1]))
    # Starting from the first rows instead of ones is exact: x * 1.0 == x.
    out = factors[kept[0]][indices[:, kept[0]], :]
    for p in kept[1:]:
        out *= factors[p][indices[:, p], :]
    return out


def _block_rows(width: int) -> int:
    """Rows per row block: _BLOCK_ELEMENTS // width, one at least."""
    return max(1, _BLOCK_ELEMENTS // max(1, width))


def _row_blocks(n_rows: int, width: int):
    """Consecutive slices over n_rows rows, each of _block_rows(width)
    rows but the last, which may be shorter."""
    step = _block_rows(width)
    return (slice(s, s + step) for s in range(0, n_rows, step))
