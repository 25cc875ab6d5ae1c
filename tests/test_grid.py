"""The score block and the objective on a tensor's cells x replicates grid.

A tensor whose grid of distinct non-replicate cells by replicates is
small (``SparseCountTensor.grid_index``) has its score block solved,
and its intensities computed, by products over that grid instead of
per stored entry.  The grid routes must agree with the per-entry ones
to rounding: ``intensities_one_shot`` for the objective, and the public
solver on the score block's stacked design for the scores.
"""

import numpy as np
import pytest

from mrtensor import sptensor
from mrtensor.analysis import simulate
from mrtensor.model import CpBtdModel, objective
from mrtensor.solver import (
    SolverConfig, SolverError, block_design, fit_block_gs,
    mm_poisson_regression_group, update_scores)
from mrtensor.sptensor import SparseCountTensor
from oracles import intensities_one_shot
from test_acceptance import recovery_benchmark


def random_model(rng, sizes, ranks, n_rep):
    total = sum(ranks)
    factors = []
    for size in sizes:
        u = rng.uniform(0.1, 1.0, size=(size, total))
        factors.append(u / u.sum(axis=0))
    omega = np.concatenate([rng.dirichlet(np.ones(r)) for r in ranks])
    upsilon = rng.uniform(0.5, 2.0, size=(len(ranks), n_rep))
    return CpBtdModel(tuple(ranks), factors, omega, upsilon)


def grid_case(seed):
    """A (3, 4, 2) x 6 tensor on its grid, and a model with one dead
    term; replicate 4 has no stored entry."""
    rng = np.random.default_rng(seed)
    shape = (3, 4, 2, 6)
    flat = rng.choice(np.prod(shape), size=70, replace=False)
    idx = np.column_stack(np.unravel_index(flat, shape))
    idx = idx[idx[:, -1] != 4]
    tensor = SparseCountTensor.from_entries(
        shape, idx, rng.integers(1, 6, size=len(idx)))
    model = random_model(rng, shape[:-1], (2, 3, 1, 2), shape[-1])
    model.upsilon[2] = 0.0
    assert tensor.grid_index() is not None
    assert 4 not in tensor.indices[:, -1]
    return model, tensor


def captured_intensities(model, tensor, monkeypatch):
    """The intensities ``objective`` takes the log of, and its value."""
    seen = []
    log = np.log
    with monkeypatch.context() as patch:
        patch.setattr(np, "log", lambda lam: seen.append(lam.copy()) or log(lam))
        value = objective(model, tensor)
    (lam,) = seen
    return lam, value


class TestGridIndex:
    def test_index_is_each_entry_cell_by_replicate(self):
        _, tensor = grid_case(1)
        cells, inverse = tensor.cell_groups()
        index = tensor.grid_index()
        n = tensor.n_replicates
        assert np.array_equal(index // n, inverse)
        assert np.array_equal(index % n, tensor.indices[:, -1])
        assert (np.diff(index) > 0).all()
        assert index.max() < len(cells) * n
        assert tensor.grid_index() is index

    def test_bound_is_grid_entries_per_stored_entry(self, monkeypatch):
        # Four entries on two cells x three replicates: a grid of 6.
        tensor = SparseCountTensor.from_entries(
            (2, 3), [[0, 0], [0, 1], [1, 1], [1, 2]], [1, 2, 3, 4])
        monkeypatch.setattr(sptensor, "_GRID_ENTRIES", 1.5)
        assert tensor.grid_index() is not None
        tensor = SparseCountTensor(tensor.shape, tensor.indices, tensor.counts)
        monkeypatch.setattr(sptensor, "_GRID_ENTRIES", 1.49)
        assert tensor.grid_index() is None

    @pytest.mark.parametrize("seed", range(5))
    def test_recovery_data_take_the_grid(self, seed):
        # Criterion 6's planted truth, which the benchmark's recovery
        # generator rebuilds: about 209 cells recur in 40 replicates.
        tensor = simulate(recovery_benchmark(seed), seed=1000 + seed)
        cells, _ = tensor.cell_groups()
        assert len(cells) * tensor.n_replicates <= 8 * tensor.nnz
        assert tensor.grid_index() is not None

    def test_season_shaped_tensor_does_not(self):
        # Three scales (six quadrant modes) and 380 replicates, about
        # 60,000 events: thousands of cells, each in few replicates.
        rng = np.random.default_rng(3)
        model = random_model(rng, (4,) * 6, (3,) * 20, 380)
        model.upsilon *= 60_000 / model.upsilon.sum()
        tensor = simulate(model, seed=3)
        assert tensor.grid_index() is None


class TestObjectiveOnTheGrid:
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_one_shot_intensities(self, monkeypatch, seed):
        model, tensor = grid_case(seed)
        lam, value = captured_intensities(model, tensor, monkeypatch)
        reference = intensities_one_shot(model, tensor)
        np.testing.assert_allclose(lam, reference, rtol=1e-12, atol=0)
        # The linear term is the total usage for a stochastic model.
        expected = model.upsilon.sum() - tensor.counts @ np.log(reference)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_zero_intensity_is_infinite(self):
        model, tensor = grid_case(0)
        model.factors[0][tensor.indices[0, 0]] = 0.0
        assert objective(model, tensor) == np.inf


class TestScoreBlockOnTheGrid:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_agrees_with_the_public_solver(self, seed, beta):
        model, tensor = grid_case(seed)
        config = SolverConfig(n_terms=model.n_terms, rank=model.ranks,
                              beta=beta, max_inner=12)
        design, counts, segment, start, terms = block_design(
            model, tensor, tensor.ndim - 1)
        assert 2 not in terms
        expected, expected_sweeps = mm_poisson_regression_group(
            design, counts, segment, start,
            beta=config.shrinkage_strength(tensor.nnz),
            tol=config.inner_tol, max_iter=config.max_inner)
        out, sweeps = update_scores(model, tensor, config)
        assert sweeps == expected_sweeps
        np.testing.assert_allclose(out.upsilon[terms], expected, rtol=1e-12,
                                   atol=0)
        assert not out.upsilon[2].any()
        assert not out.upsilon[:, 4].any()
        assert out.upsilon[terms][:, [0, 1, 2, 3, 5]].all()

    def test_zero_intensity_raises_solver_error(self):
        # Shrinkage this strong kills every usage score in the first
        # sweep, so the second finds no intensity at a stored count.
        _, tensor = grid_case(0)
        config = SolverConfig(n_terms=2, rank=1, beta=1e306 / tensor.nnz,
                              max_outer=1, max_inner=5)
        with pytest.raises(SolverError,
                           match="score block: zero intensity") as info:
            fit_block_gs(tensor, config)
        assert isinstance(info.value.__cause__, ValueError)
        assert info.value.report.stop_reason == "aborted"
