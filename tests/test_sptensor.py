"""Sparse tensor storage, design extraction, and the text format.

Design rows are checked against scalar intensity evaluation, as is the
dense reconstruction oracle; the routes share no code path beyond the
factor arrays.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtensor.cli import main
from mrtensor.model import CpBtdModel
from mrtensor.solver import block_design
from mrtensor.sptensor import (
    FORMAT_HEADER,
    SparseCountTensor,
    factor_rows,
    read_tensor,
    write_tensor,
)
from oracles import (
    canonical_entries, dense_reconstruct, densify, intensity_at, omega_matrix,
    write_tensor_rows,
)


def small_tensor():
    idx = np.array(
        [
            [0, 1, 0],
            [1, 0, 0],
            [1, 2, 1],
            [2, 2, 1],
        ]
    )
    return SparseCountTensor((3, 3, 2), idx, np.array([2, 1, 4, 3]))


def random_model(rng, sizes=(4, 4), ranks=(2, 1), n_rep=3):
    total = sum(ranks)
    factors = []
    for size in sizes:
        u = rng.uniform(0.1, 1.0, size=(size, total))
        factors.append(u / u.sum(axis=0))
    omega = np.concatenate(
        [rng.dirichlet(np.ones(r)) for r in ranks]
    )
    upsilon = rng.uniform(0.5, 2.0, size=(len(ranks), n_rep))
    return CpBtdModel(tuple(ranks), factors, omega, upsilon)


class TestCanonicalForm:
    def test_from_entries_sorts_and_merges(self):
        shape = (2, 2)
        idx = np.array([[1, 1], [0, 0], [1, 1], [0, 1]])
        t = SparseCountTensor.from_entries(shape, idx, [3, 1, 2, 4])
        np.testing.assert_array_equal(t.indices, [[0, 0], [0, 1], [1, 1]])
        np.testing.assert_array_equal(t.counts, [1, 4, 5])

    def test_from_entries_drops_zeros(self):
        t = SparseCountTensor.from_entries(
            (2, 2), np.array([[0, 0], [1, 0]]), [0, 2]
        )
        assert t.nnz == 1
        np.testing.assert_array_equal(t.indices, [[1, 0]])

    def test_from_entries_one_mode_from_flat_indices(self):
        t = SparseCountTensor.from_entries((5,), [3, 1, 3, 0], [1, 2, 3, 0])
        assert t.shape == (5,)
        np.testing.assert_array_equal(t.indices, [[1], [3]])
        np.testing.assert_array_equal(t.counts, [2, 4])

    def test_from_entries_one_mode_with_no_rows(self):
        t = SparseCountTensor.from_entries((3,), [], [])
        assert t.nnz == 0
        assert t.indices.shape == (0, 1)

    def test_from_entries_rejects_negative_counts_before_merging(self):
        # The -3 would cancel the 3 at (0, 1) and leave one entry.
        for idx, counts in (([[0, 1], [0, 1], [1, 2]], [3, -3, 2]),
                            ([[0, 1]], [-1])):
            with pytest.raises(ValueError,
                               match="counts must not be negative"):
                SparseCountTensor.from_entries((2, 3), idx, counts)

    @pytest.mark.parametrize("rows", [[[1, 1], [0, 5]], [[1, 1], [2, -3]]])
    def test_from_entries_rejects_rows_that_alias_a_cell(self, rows):
        # In shape (2, 4) both bad rows pack to the same key as (1, 1).
        with pytest.raises(ValueError, match="index out of range for shape"):
            SparseCountTensor.from_entries((2, 4), rows, [1, 1])

    def test_from_entries_rejects_a_total_past_int64(self):
        # Merged duplicates and a stored total past 2**63 - 1 would wrap.
        for shape, idx, counts in (((1,), [[0]] * 4, [2**62] * 4),
                                   ((1,), [[0]] * 2, [2**62] * 2),
                                   ((2, 3), [[1, 1], [0, 0]], [2**63 - 1, 1])):
            with pytest.raises(ValueError, match="total overflows int64"):
                SparseCountTensor.from_entries(shape, idx, counts)
        with pytest.raises(ValueError, match="total overflows int64"):
            SparseCountTensor((2, 3), [[0, 0], [1, 1]], [1, 2**63 - 1])
        t = SparseCountTensor.from_entries((1,), [[0]] * 2, [2**62 - 1] * 2)
        assert t.total == 2**63 - 2

    def test_from_entries_rejects_a_scalar_count(self):
        with pytest.raises(ValueError, match="counts must align with indices"):
            SparseCountTensor.from_entries((2,), [0], 5)

    def test_counters(self):
        t = small_tensor()
        assert t.ndim == 3
        assert t.nnz == 4
        assert t.n_cells == 18
        assert t.total == 10
        assert t.n_replicates == 2

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            SparseCountTensor((2, 2), np.array([[0, 0]]), np.array([0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            SparseCountTensor((2, 2), np.array([[0, 2]]), np.array([1]))

    def test_rejects_what_the_int64_cast_changes(self):
        with pytest.raises(ValueError, match="indices must be integers"):
            SparseCountTensor((4, 2), [[1.5, 0.9]], [1])
        with pytest.raises(ValueError, match="counts must be integers"):
            SparseCountTensor((4, 2), [[1, 0]], [1.7])
        for bad in (0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="counts must be integers"):
                SparseCountTensor.from_entries((4, 2), [[1, 0]], [bad])
            with pytest.raises(ValueError, match="indices must be integers"):
                SparseCountTensor.from_entries((4, 2), [[bad, 0]], [1])
        # Integral floats are exact; int64 input is stored without a copy.
        t = SparseCountTensor((2, 2), np.zeros((1, 2)), np.ones(1))
        assert t.indices.dtype == t.counts.dtype == np.int64
        idx, counts = np.array([[0, 1]]), np.array([2])
        t = SparseCountTensor((2, 2), idx, counts)
        assert t.indices is idx and t.counts is counts

    def test_rejects_unsorted(self):
        # Out of order in the leading column, then only in a later one.
        for idx in ([[1, 0], [0, 0]], [[0, 1], [0, 0]]):
            with pytest.raises(ValueError, match="sorted"):
                SparseCountTensor((2, 2), np.array(idx), np.array([1, 1]))

    def test_rejects_duplicates(self):
        idx = np.array([[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="duplicate"):
            SparseCountTensor((2, 2), idx, np.array([1, 1]))

    def test_mode_order_brute_force(self):
        # Stable: each value's entries keep their canonical order.
        rng = np.random.default_rng(3)
        idx = np.unique(rng.integers(0, 4, size=(60, 3)), axis=0)
        t = SparseCountTensor.from_entries(
            (4, 4, 4), idx, np.ones(len(idx), dtype=int)
        )
        for mode in range(3):
            order = t.mode_order(mode)
            values = t.indices[order, mode]
            for value in range(4):
                expect = np.flatnonzero(t.indices[:, mode] == value)
                np.testing.assert_array_equal(order[values == value], expect)
            np.testing.assert_array_equal(values, np.sort(values))

    def test_densify_matches_scatter(self):
        t = small_tensor()
        dense = np.zeros(t.shape, dtype=np.int64)
        for row, c in zip(t.indices, t.counts):
            dense[tuple(row)] = c
        np.testing.assert_array_equal(densify(t), dense)


@st.composite
def raw_entries(draw):
    """(shape, indices, counts) for ``from_entries``: 1-8 modes, some so
    large that the sizes multiply past 2**62, rows drawn with repeats
    from a few cells that share leading indices, counts 0-5, nnz 0-30."""
    size = st.one_of(st.integers(1, 6), st.sampled_from(
        [2**31, 2**40 + 3, 2**62, 2**63 - 1]))
    shape = tuple(draw(st.lists(size, min_size=1, max_size=8)))
    cell = st.tuples(*(st.one_of(st.integers(0, min(d, 3) - 1),
                                 st.integers(0, d - 1)) for d in shape))
    cells = draw(st.lists(cell, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(cells), max_size=30))
    counts = draw(st.lists(st.integers(0, 5), min_size=len(rows),
                           max_size=len(rows)))
    indices = np.array(rows, dtype=np.int64).reshape(-1, len(shape))
    return shape, indices, counts


class TestFromEntriesOracle:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(raw_entries())
    def test_matches_lexsort_oracle(self, entries):
        t = SparseCountTensor.from_entries(*entries)
        indices, counts = canonical_entries(*entries)
        assert np.array_equal(t.indices, indices)
        assert np.array_equal(t.counts, counts)


@st.composite
def count_tensors(draw):
    """Canonical tensors of 0-5 modes plus the replicate mode, nnz 0-40,
    with multi-digit indices and counts."""
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=6)))
    cell = st.tuples(*(st.integers(0, d - 1) for d in shape))
    entries = draw(st.lists(cell, max_size=40, unique=True))
    counts = draw(st.lists(st.integers(1, 2**40), min_size=len(entries),
                           max_size=len(entries)))
    idx = np.array(entries, dtype=np.int64).reshape(-1, len(shape))
    return SparseCountTensor.from_entries(shape, idx, counts)


class TestTensorFormat:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(count_tensors())
    def test_bytes_match_row_writer_and_read_back(self, t):
        with tempfile.TemporaryDirectory() as tmp:
            path, oracle = (os.path.join(tmp, n) for n in ("t.txt", "o.txt"))
            write_tensor(t, path)
            with open(oracle, "w") as handle:
                write_tensor_rows(t, handle)
            with open(path, "rb") as got, open(oracle, "rb") as want:
                text = got.read()
                assert text == want.read()
            back = read_tensor(path)
        assert text.count(b"\n") == t.nnz + 1
        assert back.shape == t.shape
        np.testing.assert_array_equal(back.indices, t.indices)
        np.testing.assert_array_equal(back.counts, t.counts)

    def test_round_trip_exact(self, tmp_path):
        t = small_tensor()
        path = tmp_path / "t.txt"
        write_tensor(t, path)
        back = read_tensor(path)
        assert back.shape == t.shape
        np.testing.assert_array_equal(back.indices, t.indices)
        np.testing.assert_array_equal(back.counts, t.counts)

    def test_on_disk_indices_are_one_based(self, tmp_path):
        t = SparseCountTensor((2, 2), np.array([[0, 1]]), np.array([7]))
        path = tmp_path / "t.txt"
        write_tensor(t, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith(FORMAT_HEADER)
        assert lines[1].split() == ["1", "2", "7"]

    def test_header_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("something else v9 modes=2 shape=2,2 nnz=0\n")
        with pytest.raises(ValueError):
            read_tensor(path)

    @pytest.mark.parametrize("body", ["1 2 3 5\n2 1 4 6\n",
                                      "1 2 3\n2 1 4 6\n"],
                             ids=["every line", "one line"])
    def test_extra_fields_rejected(self, tmp_path, body):
        # Not cut to modes + 1 fields: "1 2 3 5" is not the count 3.
        path = tmp_path / "t.txt"
        path.write_text(f"{FORMAT_HEADER} modes=2 shape=2,2 nnz=2\n{body}")
        with pytest.raises(ValueError):
            read_tensor(path)

    def test_oversized_mode_rejected(self, tmp_path):
        # 2**63 does not fit the int64 index arrays: bad input, exit 2.
        path = tmp_path / "t.txt"
        path.write_text(f"{FORMAT_HEADER} modes=2 shape=4,{2**63} nnz=0\n")
        with pytest.raises(ValueError, match="fit in int64"):
            read_tensor(path)
        assert main(["fit", str(path), "--out", str(tmp_path / "m")]) == 2

    def test_entry_lines_after_nnz_zero_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(f"{FORMAT_HEADER} modes=2 shape=2,3 nnz=0\n1 1 5\n")
        with pytest.raises(ValueError, match="expected 0 entry lines"):
            read_tensor(path)

    def test_truncated_body_rejected(self, tmp_path):
        t = small_tensor()
        path = tmp_path / "t.txt"
        write_tensor(t, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            read_tensor(path)


class TestDesignRows:
    def test_factor_rows_hand_case(self):
        factors = [
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([[5.0, 6.0], [7.0, 8.0]]),
        ]
        idx = np.array([[0, 1], [1, 0]])
        np.testing.assert_allclose(
            factor_rows(idx, factors), [[7.0, 16.0], [15.0, 24.0]]
        )
        np.testing.assert_allclose(
            factor_rows(idx, factors, skip=0), [[7.0, 8.0], [5.0, 6.0]]
        )

    @staticmethod
    def _check_block_design(model, t, mode):
        # The solver's segmented design: row j times its segment's
        # starting coefficients is the intensity at stored entry
        # order[j], and its count is that entry's count.  Its columns
        # are the live terms or components, in order.
        order = t.mode_order(mode)
        design, counts, segment, coef, live = block_design(model, t, mode)
        mass = (model.term_usage() if mode == t.ndim - 1
                else model.component_scale())
        np.testing.assert_array_equal(live, np.flatnonzero(mass > 0))
        assert design.shape[1] == len(coef) == len(live)
        np.testing.assert_array_equal(counts, t.counts[order])
        np.testing.assert_array_equal(segment, t.indices[order, mode])
        assert (np.diff(segment) >= 0).all()
        lam = np.einsum("jk,kj->j", design, coef[:, segment])
        for j, row in enumerate(order):
            cell, rep = t.indices[row][:-1], int(t.indices[row][-1])
            assert lam[j] == pytest.approx(
                intensity_at(model, cell, rep), rel=1e-12
            )

    @staticmethod
    def _random_tensor(rng):
        idx = np.unique(rng.integers(0, 4, size=(40, 2)), axis=0)
        idx = np.column_stack([idx, rng.integers(0, 3, size=len(idx))])
        return SparseCountTensor.from_entries(
            (4, 4, 3), idx, np.ones(len(idx), dtype=int)
        )

    def test_replicate_design_reproduces_intensity(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        t = self._random_tensor(rng)
        self._check_block_design(model, t, t.ndim - 1)

    def test_mode_slice_design_reproduces_intensity(self):
        rng = np.random.default_rng(22)
        model = random_model(rng)
        t = self._random_tensor(rng)
        for mode in range(t.ndim - 1):
            self._check_block_design(model, t, mode)

    def test_design_with_dead_columns_reproduces_intensity(self):
        # Term 1 is dead (zero scores); term 0 keeps one live component
        # of two (the other's weight is 0), and term 2 both of its own.
        rng = np.random.default_rng(23)
        model = random_model(rng, ranks=(2, 1, 2))
        model.upsilon[1] = 0.0
        model.omega[:2] = [0.0, 1.0]
        t = self._random_tensor(rng)
        for mode in range(t.ndim):
            self._check_block_design(model, t, mode)
        assert len(block_design(model, t, 0)[4]) == 3
        assert len(block_design(model, t, t.ndim - 1)[4]) == 2


@st.composite
def canonical_tensors(draw):
    """Canonical tensors of 1-4 modes plus the replicate mode, any nnz."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=5)))
    cell = st.tuples(*(st.integers(0, d - 1) for d in shape))
    entries = draw(st.lists(cell, max_size=40))
    idx = np.array(entries, dtype=np.int64).reshape(-1, len(shape))
    return SparseCountTensor.from_entries(shape, idx, np.ones(len(idx)))


def check_cell_groups(t):
    cells, inverse = t.cell_groups()
    np.testing.assert_array_equal(cells[inverse], t.indices[:, :-1])
    # Strictly increasing: each step's first nonzero column is positive.
    step = np.diff(cells, axis=0)
    assert (step != 0).any(axis=1).all()
    lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
    assert (lead > 0).all()
    assert t.cell_groups() is t.cell_groups()


def check_cached_rows(t, rng):
    cells, inverse = t.cell_groups()
    total = 3
    factors = [rng.uniform(0.1, 1.0, size=(d, total)) for d in t.shape[:-1]]
    for skip in [None, *range(t.ndim - 1)]:
        assert np.array_equal(
            factor_rows(cells, factors, skip)[inverse],
            factor_rows(t.indices[:, :-1], factors, skip),
        )


class TestCellGroups:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(canonical_tensors())
    def test_groups_reproduce_cells_in_order(self, t):
        check_cell_groups(t)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(canonical_tensors())
    def test_cached_rows_are_bit_identical(self, t):
        check_cached_rows(t, np.random.default_rng(t.nnz))

    def test_every_entry_its_own_cell(self):
        # One replicate: no two stored entries share a cell.
        idx = np.array([[0, 0, 0], [0, 2, 0], [1, 1, 0], [2, 0, 0]])
        t = SparseCountTensor((3, 3, 1), idx, np.ones(4, dtype=int))
        check_cell_groups(t)
        np.testing.assert_array_equal(t.cell_groups()[1], np.arange(4))
        check_cached_rows(t, np.random.default_rng(1))

    def test_empty_tensor(self):
        t = SparseCountTensor(
            (3, 2), np.empty((0, 2), dtype=int), np.empty(0, dtype=int)
        )
        cells, inverse = t.cell_groups()
        assert cells.shape == (0, 1) and inverse.shape == (0,)
        check_cached_rows(t, np.random.default_rng(2))

    def test_one_mode_plus_replicate(self):
        idx = np.array([[0, 0], [0, 2], [2, 1], [2, 2], [3, 0]])
        t = SparseCountTensor((4, 3), idx, np.ones(5, dtype=int))
        check_cell_groups(t)
        cells, inverse = t.cell_groups()
        np.testing.assert_array_equal(cells, [[0], [2], [3]])
        np.testing.assert_array_equal(inverse, [0, 0, 1, 1, 2])
        check_cached_rows(t, np.random.default_rng(3))


class TestDenseReconstruct:
    def test_matches_scalar_intensity(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, sizes=(3, 2), ranks=(2, 2), n_rep=2)
        lam = dense_reconstruct(
            model.factors, omega_matrix(model), model.upsilon
        )
        assert lam.shape == (3, 2, 2)
        for i in range(3):
            for j in range(2):
                for n in range(2):
                    assert lam[i, j, n] == pytest.approx(
                        intensity_at(model, (i, j), n), rel=1e-12
                    )
