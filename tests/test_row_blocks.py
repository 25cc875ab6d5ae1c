"""Row-blocked designs and intensities: same bits, bounded memory.

``block_design`` and ``objective`` fill their per-entry results a row
block at a time (``objective`` only off the cells x replicates grid).
They must reproduce the one-shot expressions of ``oracles`` bit for bit
whatever the block size, and their traced allocations must stay near
one design (no nnz x H array for the objective).  The inner solver walks a given design in row blocks and
adds only per-entry vectors to it.  numpy reports its data buffers to
``tracemalloc``.
"""

import tracemalloc

import numpy as np
import pytest

from mrtensor import sptensor
from mrtensor.model import CpBtdModel, objective
from mrtensor.solver import (
    SolverConfig, block_design, fit_block_gs, mm_poisson_regression_group)
from mrtensor.sptensor import SparseCountTensor
from oracles import block_design_one_shot, intensities_one_shot


def random_model(rng, sizes, ranks, n_rep):
    total = sum(ranks)
    factors = []
    for size in sizes:
        u = rng.uniform(0.1, 1.0, size=(size, total))
        factors.append(u / u.sum(axis=0))
    omega = np.concatenate([rng.dirichlet(np.ones(r)) for r in ranks])
    upsilon = rng.uniform(0.5, 2.0, size=(len(ranks), n_rep))
    return CpBtdModel(tuple(ranks), factors, omega, upsilon)


def small_case(n_rep=5):
    """61 entries on a (3, 4, 2) x n_rep grid; total rank 6 over 3 terms.
    At 5 replicates the tensor takes its cells x replicates grid; at 40
    it does not, so ``objective`` fills its intensities row blocks."""
    rng = np.random.default_rng(61)
    shape = (3, 4, 2, n_rep)
    flat = rng.choice(np.prod(shape), size=61, replace=False)
    idx = np.column_stack(np.unravel_index(flat, shape))
    tensor = SparseCountTensor.from_entries(
        shape, idx, rng.integers(1, 5, size=61))
    return random_model(rng, shape[:-1], (2, 3, 1), shape[-1]), tensor


def dense_case():
    """Every cell of a (4, 4, 4) x 1000 grid stored: 64 distinct cells
    shared by 64,000 entries, and a total rank of 40 over 10 terms."""
    rng = np.random.default_rng(62)
    shape = (4, 4, 4, 1000)
    idx = np.indices(shape).reshape(len(shape), -1).T
    tensor = SparseCountTensor(shape, idx, rng.integers(1, 5, size=len(idx)))
    return random_model(rng, shape[:-1], (4,) * 10, shape[-1]), tensor


def objective_intensities(model, tensor, monkeypatch):
    """The intensities ``objective`` takes the log of."""
    seen = []
    log = np.log
    with monkeypatch.context() as patch:
        patch.setattr(np, "log", lambda lam: seen.append(lam.copy()) or log(lam))
        objective(model, tensor)
    (lam,) = seen
    return lam


def traced_peak(call):
    """(result, peak bytes traced while ``call`` ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSameBits:
    # 1 element: one row per block.  42 elements: blocks of 7 design
    # rows and 14 intensity rows, the last ragged.  The default: one
    # block holds every row.
    @pytest.mark.parametrize("budget", [1, 42, sptensor._BLOCK_ELEMENTS])
    def test_blocked_equals_one_shot(self, monkeypatch, budget):
        model, tensor = small_case()
        assert tensor.nnz % 7 and tensor.nnz % 14
        assert tensor.nnz * model.total_rank <= sptensor._BLOCK_ELEMENTS
        # The intensities are row-blocked only off the grid.
        sparse_model, sparse = small_case(n_rep=40)
        assert sparse.nnz == tensor.nnz and sparse.grid_index() is None
        monkeypatch.setattr(sptensor, "_BLOCK_ELEMENTS", budget)
        for mode in range(tensor.ndim):
            design = block_design(model, tensor, mode)[0]
            assert np.array_equal(
                design, block_design_one_shot(model, tensor, mode))
        assert np.array_equal(
            objective_intensities(sparse_model, sparse, monkeypatch),
            intensities_one_shot(sparse_model, sparse))

    def test_empty_tensor(self, monkeypatch):
        model, _ = small_case()
        tensor = SparseCountTensor(
            (3, 4, 2, 5), np.empty((0, 4), dtype=int), np.empty(0, dtype=int))
        for mode in range(tensor.ndim):
            design = block_design(model, tensor, mode)[0]
            width = model.n_terms if mode == 3 else model.total_rank
            assert design.shape == (0, width)
            assert np.array_equal(
                design, block_design_one_shot(model, tensor, mode))
        lam = objective_intensities(model, tensor, monkeypatch)
        assert lam.shape == (0,)
        assert objective(model, tensor) == pytest.approx(model.upsilon.sum())


class TestMemory:
    def test_mode_block_holds_one_design(self):
        model, tensor = dense_case()
        cells, _ = tensor.cell_groups()
        cell_rows = len(cells) * model.total_rank * 8
        for mode in range(tensor.ndim - 1):
            block_design(model, tensor, mode)  # caches the mode order
            (design, *_), peak = traced_peak(
                lambda: block_design(model, tensor, mode))
            assert peak <= 1.25 * design.nbytes + cell_rows, (mode, peak)

    def test_mode_block_design_has_live_width(self):
        # Seven of ten terms dead and one more component without weight:
        # 11 of 40 components live.  The design and the bound above
        # both shrink to that width.
        model, tensor = dense_case()
        model.upsilon[:7] = 0.0
        model.omega[28] = 0.0
        live = 11
        cells, _ = tensor.cell_groups()
        cell_rows = len(cells) * live * 8
        for mode in range(tensor.ndim - 1):
            block_design(model, tensor, mode)  # caches the mode order
            (design, *_), peak = traced_peak(
                lambda: block_design(model, tensor, mode))
            assert design.shape == (tensor.nnz, live)
            assert peak <= 1.25 * design.nbytes + cell_rows, (mode, peak)

    def test_solve_adds_vectors_not_a_design(self):
        # Every block's design is 10 (scores) or 40 (modes) nnz-long
        # float64 vectors wide; the solve's own scratch is a few of them.
        model, tensor = dense_case()
        for mode in range(tensor.ndim):
            *instance, _ = block_design(model, tensor, mode)
            _, peak = traced_peak(lambda: mm_poisson_regression_group(
                *instance, beta=1.0, max_iter=3))
            assert peak <= 8 * tensor.nnz * 8, (mode, peak)

    def test_fit_holds_no_second_design(self):
        # One outer iteration of a fit at full width: one design at a
        # time, the cell rows, and a few nnz-long vectors besides.
        model, tensor = dense_case()
        cells, _ = tensor.cell_groups()
        for mode in range(tensor.ndim):
            tensor.mode_order(mode)
        config = SolverConfig(n_terms=model.n_terms, rank=4, max_outer=1,
                              max_inner=3)
        _, peak = traced_peak(lambda: fit_block_gs(tensor, config))
        width = model.total_rank
        bound = (1.25 * tensor.nnz * width * 8 + len(cells) * width * 8
                 + 8 * tensor.nnz * 8)
        assert peak <= bound, peak

    def test_objective_builds_no_entry_by_term_array(self):
        model, tensor = dense_case()
        tensor.cell_groups()
        _, peak = traced_peak(lambda: objective(model, tensor))
        assert peak < tensor.nnz * model.n_terms * 8
