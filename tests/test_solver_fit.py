"""Block updates, the monitored objective, the block fit, and the EM
oracle that cross-checks it."""

import math

import numpy as np
import pytest

from mrtensor import solver
from mrtensor.model import effective_terms, objective
from mrtensor.solver import (
    FitReport,
    SolverConfig,
    SolverError,
    fit_block_gs,
    initialize,
    penalized_objective,
    read_report,
    update_mode,
    update_scores,
    write_report,
)
from mrtensor.sptensor import SparseCountTensor

from oracles import fit_em


def random_tensor(rng, shape=(4, 4, 3), n_entries=25, top=6):
    idx = np.unique(
        np.column_stack(
            [rng.integers(0, d, size=n_entries) for d in shape]
        ),
        axis=0,
    )
    return SparseCountTensor.from_entries(
        shape, idx, rng.integers(1, top, size=len(idx))
    )


def small_config(**kw):
    base = dict(n_terms=2, rank=2, beta=0.0, max_outer=20, seed=0)
    base.update(kw)
    return SolverConfig(**base)


class TestSolverConfig:
    @pytest.mark.parametrize("kw", [
        dict(n_terms=0),
        dict(rank=0),
        dict(n_terms=2, rank=(1, 2, 1)),
        dict(n_terms=2, rank=(1, 0)),
        dict(beta=-1e-3),
        dict(max_outer=-1),
        dict(max_inner=0),
        dict(outer_tol=0.0),
        dict(outer_tol=-1e-8),
        dict(beta=float("nan")),
        dict(beta=float("inf")),
        dict(outer_tol=float("nan")),
        dict(n_terms=2.5),
        dict(rank=1.5),
        dict(n_terms=2, rank=(1, 2.5)),
        dict(max_outer=2.5),
        dict(max_inner=3.5),
        dict(seed=1.5),
        dict(beta=None),
        dict(beta="1e-3"),
        dict(outer_tol="x"),
        dict(outer_tol=float("inf")),
        dict(seed=-1),
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

    def test_numpy_integers_pass(self):
        cfg = SolverConfig(n_terms=np.int64(2), rank=(np.int32(1), 2),
                           max_outer=np.int64(3), max_inner=np.int16(4),
                           seed=np.uint8(5))
        assert cfg.resolved_ranks() == (1, 2)
        assert SolverConfig(rank=np.int64(3)).resolved_ranks()[0] == 3

    def test_fixed_constants_are_not_fields(self):
        # The penalty offset and the inner tolerance are constants:
        # readable on every config, but not settable.
        assert SolverConfig().epsilon == 1e-8
        assert SolverConfig().inner_tol == 1e-6
        with pytest.raises(TypeError):
            SolverConfig(epsilon=1e-3)
        with pytest.raises(TypeError):
            SolverConfig(inner_tol=1e-3)


class TestInitialize:
    def test_shapes_and_stochasticity(self):
        cfg = SolverConfig(n_terms=3, rank=(1, 2, 1), seed=4)
        model = initialize(cfg, (4, 4, 5), total_count=100.0)
        assert model.ranks == (1, 2, 1)
        assert model.upsilon.shape == (3, 5)
        for phi in model.factors:
            np.testing.assert_allclose(phi.sum(axis=0), np.ones(4))
        for h in range(3):
            assert model.omega[model.block(h)].sum() == pytest.approx(1.0)

    def test_score_mass_near_count_total(self):
        cfg = SolverConfig(n_terms=2, rank=1, seed=9)
        model = initialize(cfg, (4, 4, 2), total_count=80.0)
        assert model.upsilon.sum() == pytest.approx(80.0, rel=0.1)
        assert model.upsilon.min() > 0

    def test_seed_determinism(self):
        cfg = small_config(seed=7)
        a = initialize(cfg, (4, 4, 2), 10.0)
        b = initialize(cfg, (4, 4, 2), 10.0)
        c = initialize(small_config(seed=8), (4, 4, 2), 10.0)
        np.testing.assert_array_equal(a.factors[0], b.factors[0])
        assert not np.array_equal(a.factors[0], c.factors[0])


class TestBlockUpdates:
    def test_score_update_descends_and_conserves(self):
        rng = np.random.default_rng(71)
        t = random_tensor(rng)
        cfg = small_config(max_inner=200)
        model = initialize(cfg, t.shape, float(t.total))
        before = objective(model, t)
        updated, sweeps = update_scores(model, t, cfg)
        assert sweeps >= 1
        assert objective(updated, t) <= before + 1e-10
        # Per-replicate mass matches the data after a full solve.
        for n in range(t.shape[-1]):
            rep_total = t.counts[t.indices[:, -1] == n].sum()
            assert updated.upsilon[:, n].sum() == pytest.approx(
                float(rep_total), rel=1e-10
            )

    def test_score_update_zeroes_empty_replicate(self):
        idx = np.array([[0, 0, 0], [1, 2, 0]])
        t = SparseCountTensor((4, 4, 2), idx, np.array([3, 2]))
        cfg = small_config()
        model = initialize(cfg, t.shape, float(t.total))
        updated, _ = update_scores(model, t, cfg)
        np.testing.assert_array_equal(updated.upsilon[:, 1], [0.0, 0.0])

    def test_mode_update_descends_and_stays_canonical(self):
        rng = np.random.default_rng(72)
        t = random_tensor(rng)
        cfg = small_config(max_inner=200)
        model = initialize(cfg, t.shape, float(t.total))
        for mode in range(2):
            before = objective(model, t)
            model, _ = update_mode(model, t, mode, cfg)
            assert objective(model, t) <= before + 1e-10
            np.testing.assert_allclose(
                model.factors[mode].sum(axis=0), 1.0, rtol=1e-12
            )
            for h in range(model.n_terms):
                blk = model.block(h)
                assert model.omega[blk].sum() == pytest.approx(1.0)

    def test_mode_update_conserves_total_mass(self):
        rng = np.random.default_rng(73)
        t = random_tensor(rng)
        cfg = small_config(max_inner=300)
        model = initialize(cfg, t.shape, float(t.total))
        updated, _ = update_mode(model, t, 0, cfg)
        assert updated.component_scale().sum() == pytest.approx(
            float(t.total), rel=1e-10
        )

    def test_mode_out_of_range(self):
        rng = np.random.default_rng(74)
        t = random_tensor(rng)
        cfg = small_config()
        model = initialize(cfg, t.shape, float(t.total))
        with pytest.raises(ValueError):
            update_mode(model, t, 2, cfg)


class TestPenalizedObjective:
    def test_formula_by_hand(self):
        rng = np.random.default_rng(75)
        t = random_tensor(rng)
        cfg = small_config()
        model = initialize(cfg, t.shape, float(t.total))
        beta, eps = 0.7, 1e-3
        usage = model.term_usage()
        tau = model.component_scale()
        want = objective(model, t) + beta * (
            np.log(usage + eps).sum() + 2 * np.log(tau + eps).sum()
        )
        got = penalized_objective(model, t, beta, eps)
        assert got == pytest.approx(want, rel=1e-13)

    def test_beta_zero_is_plain_objective(self):
        rng = np.random.default_rng(76)
        t = random_tensor(rng)
        model = initialize(small_config(), t.shape, float(t.total))
        assert penalized_objective(model, t, 0.0, 1e-8) == objective(model, t)


class TestFitBlockGs:
    def test_trace_monotone_without_shrinkage(self):
        rng = np.random.default_rng(77)
        t = random_tensor(rng)
        model, report = fit_block_gs(t, small_config())
        diffs = np.diff(report.objective)
        assert (diffs <= 1e-10).all()
        assert len(report.inner_iterations) == len(report.objective)
        assert report.inner_iterations[0] == 0

    def test_trace_monotone_with_shrinkage(self):
        rng = np.random.default_rng(78)
        t = random_tensor(rng)
        cfg = small_config(beta=1e-2, n_terms=3, rank=2)
        model, report = fit_block_gs(t, cfg)
        diffs = np.diff(report.objective)
        assert (diffs <= 1e-10).all()

    def test_max_outer_zero_returns_initialization(self):
        rng = np.random.default_rng(79)
        t = random_tensor(rng)
        cfg = small_config(max_outer=0)
        model, report = fit_block_gs(t, cfg)
        init = initialize(cfg, t.shape, float(t.total))
        for a, b in zip(model.factors, init.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.upsilon, init.upsilon)
        assert report.outer_iterations == 0
        assert not report.converged
        assert report.stop_reason == "max_outer"

    def test_converges_on_easy_instance(self):
        rng = np.random.default_rng(80)
        t = random_tensor(rng, shape=(4, 4, 2), n_entries=10)
        model, report = fit_block_gs(
            t, small_config(max_outer=200, outer_tol=1e-9)
        )
        assert report.converged
        assert report.stop_reason == "converged"
        assert report.effective_terms[-1] == effective_terms(model)

    def test_stops_at_first_small_relative_drop(self):
        rng = np.random.default_rng(77)
        t = random_tensor(rng)
        _, report = fit_block_gs(
            t, small_config(max_outer=500, outer_tol=1e-9)
        )
        obj = report.objective
        drops = [abs(a - b) / max(1.0, abs(a)) for a, b in zip(obj, obj[1:])]
        assert report.stop_reason == "converged"
        assert drops[-1] < 1e-9 <= min(drops[:-1])

    def test_all_rejected_sweep_stalls(self, monkeypatch):
        # Every block returns a worse trial, so the first sweep rejects
        # them all: the trace does not move, and the fit stops as
        # stalled, not as converged.
        rng = np.random.default_rng(79)
        t = random_tensor(rng)

        def worse(model, *args):
            trial = model.copy()
            trial.upsilon = trial.upsilon * 3.0
            return trial, 1

        monkeypatch.setattr(solver, "update_scores", worse)
        monkeypatch.setattr(solver, "update_mode", worse)
        cfg = small_config(n_terms=2, max_outer=20)
        model, report = fit_block_gs(t, cfg)
        assert report.stop_reason == "stalled"
        assert not report.converged
        assert report.outer_iterations == 1
        assert report.objective[1] == report.objective[0]
        # The score block and one block per non-replicate mode.
        assert report.rejected_blocks == t.ndim
        init = initialize(cfg, t.shape, float(t.total))
        np.testing.assert_array_equal(model.upsilon, init.upsilon)

    def test_rounding_level_rejections_converge(self, monkeypatch):
        # At a fixed point every block reproduces the model, and its
        # objective may round a few ulps higher: the guard rejects every
        # trial, and the fit ends converged, not stalled.
        rng = np.random.default_rng(79)
        t = random_tensor(rng)
        exact = solver.penalized_objective
        values = []

        def rounded_up(model, *args):
            value = exact(model, *args)
            if values:
                value += 4 * np.spacing(abs(value))
            values.append(value)
            return value

        def same(model, *args):
            return model.copy(), 1

        monkeypatch.setattr(solver, "penalized_objective", rounded_up)
        monkeypatch.setattr(solver, "update_scores", same)
        monkeypatch.setattr(solver, "update_mode", same)
        _, report = fit_block_gs(t, small_config(n_terms=2, max_outer=20))
        assert report.stop_reason == "converged"
        assert report.outer_iterations == 1
        assert report.rejected_blocks == t.ndim
        assert report.objective[1] == report.objective[0] < min(values[1:])

    def test_empty_tensor_rejected(self):
        t = SparseCountTensor.from_entries(
            (4, 4, 2), np.empty((0, 3), dtype=int), np.empty(0, dtype=int)
        )
        with pytest.raises(ValueError, match="empty"):
            fit_block_gs(t, small_config())

    def test_block_failure_raises_solver_error(self, monkeypatch):
        # A ValueError from the inner solver is a numerical failure of
        # the fit, not bad input: it surfaces as SolverError with the
        # last accepted model and the trace so far.
        rng = np.random.default_rng(79)
        t = random_tensor(rng)
        inner = solver.mm_poisson_regression_group
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("zero intensity at a positive count")
            return inner(*args, **kwargs)

        monkeypatch.setattr(solver, "mm_poisson_regression_group", fail_second)
        with pytest.raises(SolverError, match="mode 0 block") as info:
            fit_block_gs(t, small_config())
        err = info.value
        assert isinstance(err.__cause__, ValueError)
        assert err.model is not None
        assert len(err.report.objective) == 1
        assert err.report.converged is False
        assert err.report.stop_reason == "aborted"

    def test_shrinkage_prunes_terms(self):
        # Data drawn from a single concentrated pattern: extra terms
        # should die under a strong penalty.
        rng = np.random.default_rng(81)
        idx = np.column_stack(
            [
                rng.integers(0, 2, size=40),
                rng.integers(0, 2, size=40),
                rng.integers(0, 2, size=40),
            ]
        )
        t = SparseCountTensor.from_entries(
            (4, 4, 2), np.unique(idx, axis=0),
            np.full(len(np.unique(idx, axis=0)), 5),
        )
        strong = small_config(n_terms=4, rank=1, beta=0.1, max_outer=60)
        _, report = fit_block_gs(t, strong)
        assert report.effective_terms[-1] < 4


class TestFitEm:
    def test_rejects_shrinkage(self):
        rng = np.random.default_rng(82)
        t = random_tensor(rng)
        with pytest.raises(ValueError, match="beta"):
            fit_em(t, small_config(beta=1e-3))

    def test_trace_monotone(self):
        rng = np.random.default_rng(84)
        t = random_tensor(rng)
        _, report = fit_em(t, small_config(max_outer=60))
        diffs = np.diff(report.objective)
        assert (diffs <= 1e-10).all()
        assert report.stop_reason in ("converged", "max_outer")
        assert report.converged == (report.stop_reason == "converged")

    def test_agrees_with_gs_from_shared_start(self):
        # Capping the inner sweeps keeps the block path in the same
        # basin as the simultaneous EM path; over-solving the first
        # score block at a random start can strand a term at zero.
        from mrtensor.analysis import simulate
        from mrtensor.model import CpBtdModel

        f0 = np.zeros((4, 2))
        f0[0, 0], f0[1, 0], f0[3, 1], f0[2, 1] = 0.8, 0.2, 0.9, 0.1
        f1 = np.zeros((4, 2))
        f1[1, 0], f1[0, 0], f1[2, 1], f1[3, 1] = 0.7, 0.3, 0.85, 0.15
        truth = CpBtdModel(
            (1, 1), [f0, f1], np.ones(2), np.full((2, 2), 60.0)
        )
        t = simulate(truth, seed=100)
        cfg = small_config(
            rank=1, max_outer=3000, outer_tol=1e-13, max_inner=10, seed=5
        )
        _, gs = fit_block_gs(t, cfg)
        _, em = fit_em(t, cfg)
        assert gs.objective[0] == pytest.approx(em.objective[0], rel=1e-12)
        assert gs.objective[-1] == pytest.approx(em.objective[-1], rel=1e-3)

    def test_empty_tensor_rejected(self):
        t = SparseCountTensor.from_entries(
            (4, 4, 2), np.empty((0, 3), dtype=int), np.empty(0, dtype=int)
        )
        with pytest.raises(ValueError, match="empty"):
            fit_em(t, small_config())


class TestReports:
    def test_round_trip(self, tmp_path):
        report = FitReport(
            objective=[10.0, 4.0, 3.5],
            inner_iterations=[0, 12, 9],
            effective_terms=[5, 4, 3],
            duration=0.25,
            stop_reason="converged",
        )
        path = tmp_path / "r.csv"
        write_report(report, path)
        back = read_report(path)
        assert back.objective == report.objective
        assert back.inner_iterations == report.inner_iterations
        assert back.effective_terms == report.effective_terms

    def test_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError):
            read_report(path)

    def test_outer_iterations_counts_steps(self):
        report = FitReport([5.0, 4.0], [0, 1], [2, 2], 0.0)
        assert report.outer_iterations == 1
        assert not report.converged

    def test_solver_error_carries_state(self):
        err = SolverError("boom", model="m", report="r")
        assert err.model == "m"
        assert err.report == "r"
