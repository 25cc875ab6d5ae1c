"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
``criterion N (...): PASS|FAIL`` line with its runtime (run pytest with
``-s`` to see the lines for passing tests).  Fitted models produced by
criteria 4-6 are kept so criterion 8 can audit them afterwards; the
tests therefore run in file order.
"""

import time

import numpy as np
import pytest

from mrtensor.analysis import (
    bray_curtis,
    match_motifs,
    rank_motifs,
    simulate,
)
from mrtensor.encode import (
    _quadrant_columns,
    adjacency_at_scale,
    build_tensor,
    chain_index,
    marginalize_to_scale,
    node_tile,
)
from mrtensor.ingest import EventTable, Replicate
from mrtensor.model import (
    CpBtdModel,
    effective_terms,
    motif_at_scale,
)
from mrtensor.solver import (
    SolverConfig,
    fit_block_gs,
    mm_poisson_regression_group,
    penalized_objective,
)
from mrtensor.sptensor import SparseCountTensor

from oracles import (
    dense_reconstruct,
    densify,
    fit_em,
    grid_minimize_poisson,
    omega_matrix,
    poisson_objective,
    random_regression_instance,
    simulate_cells,
)

# Models fitted by criteria 4-6, audited for scale consistency by
# criterion 8.
_FITTED: list[CpBtdModel] = []


def _emit(num: int, desc: str, elapsed: float, bound: float, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({desc}): {status} [{elapsed:.2f}s, bound {bound:.0f}s]")


def _unit(*vals: float) -> np.ndarray:
    v = np.asarray(vals, dtype=float)
    return v / v.sum()


def _anchored(quadrant: int, hot: float = 0.82) -> np.ndarray:
    w = np.full(4, (1.0 - hot) / 3.0)
    w[quadrant] = hot
    return w


def recovery_benchmark(seed: int, n_rep: int = 40, mean_rate: float = 41.0):
    """Three planted motifs over a two-scale grid, about 4,900 events.

    Motif 0 is a single concentrated origin/destination pair.  Motifs 1
    and 2 each occupy one coarse origin/destination quadrant pair and
    need two components: a dominant and a secondary fine-scale
    placement inside that pair.  Coarse quadrants differ across motifs,
    and every motif sits out a third of the replicates, so the three
    usage profiles are clearly distinct.
    """
    rng = np.random.default_rng(seed)
    ranks = (1, 2, 2)
    factors = [np.zeros((4, 5)) for _ in range(4)]
    factors[0][:, 0] = _unit(0.91, 0.03, 0.03, 0.03)
    factors[1][:, 0] = _unit(0.03, 0.03, 0.03, 0.91)
    factors[2][:, 0] = _unit(0.05, 0.05, 0.05, 0.85)
    factors[3][:, 0] = _unit(0.10, 0.70, 0.10, 0.10)
    factors[0][:, 1] = _unit(0.03, 0.91, 0.03, 0.03)
    factors[1][:, 1] = _unit(0.03, 0.03, 0.91, 0.03)
    factors[2][:, 1] = _unit(0.75, 0.15, 0.05, 0.05)
    factors[3][:, 1] = _unit(0.70, 0.10, 0.10, 0.10)
    factors[0][:, 2] = factors[0][:, 1]
    factors[1][:, 2] = factors[1][:, 1]
    factors[2][:, 2] = _unit(0.05, 0.05, 0.75, 0.15)
    factors[3][:, 2] = _unit(0.10, 0.10, 0.70, 0.10)
    factors[0][:, 3] = _unit(0.03, 0.03, 0.91, 0.03)
    factors[1][:, 3] = _unit(0.91, 0.03, 0.03, 0.03)
    factors[2][:, 3] = _unit(0.15, 0.75, 0.05, 0.05)
    factors[3][:, 3] = _unit(0.10, 0.70, 0.10, 0.10)
    factors[0][:, 4] = factors[0][:, 3]
    factors[1][:, 4] = factors[1][:, 3]
    factors[2][:, 4] = _unit(0.05, 0.05, 0.15, 0.75)
    factors[3][:, 4] = _unit(0.10, 0.10, 0.10, 0.70)
    omega = np.array([1.0, 0.80, 0.20, 0.80, 0.20])
    ups = rng.uniform(0.3, 1.7, size=(3, n_rep)) * mean_rate
    for h in range(3):
        off = rng.choice(n_rep, size=n_rep // 3, replace=False)
        ups[h, off] = 0.0
    ups *= 3 * n_rep * mean_rate / ups.sum()
    return CpBtdModel(ranks, factors, omega, ups)


class TestCriterion1:
    def test_encoding_exactness(self):
        # The path build_tensor runs: _quadrant_columns labels each
        # scale, chain_index folds one end's labels into a node, and
        # node_tile must give back that end's (x, y) tiles.
        t0 = time.perf_counter()
        failures = []

        def tiles_back(tiles, depth):
            quads = _quadrant_columns((tiles + 0.5) / 2**depth, depth)
            tile_of = np.array([node_tile(n, depth) for n in range(4**depth)])
            return np.hstack([tile_of[chain_index(quads[:, e::2])]
                              for e in (0, 1)])

        # Every (x, y) tile at S <= 6, with x and y swapped at the
        # destination, then every tile 4-tuple at S <= 3.
        for depth in range(1, 7):
            x, y = np.indices((2**depth,) * 2).reshape(2, -1)
            tiles = np.column_stack([x, y, y, x])
            if not np.array_equal(tiles_back(tiles, depth), tiles):
                failures.append(f"round trip broke at S={depth}")
        for depth in range(1, 4):
            tiles = np.indices((2**depth,) * 4).reshape(4, -1).T
            bad = (tiles_back(tiles, depth) != tiles).any(axis=1)
            failures += [f"event path broke at S={depth}, {tuple(t)}"
                         for t in tiles[bad][:5]]
        # Reference event (1, 6, 4, 3) at S = 3: bit rows (x_o, y_o, x_d,
        # y_d) per scale (0,1,1,0), (0,1,0,1), (1,0,0,1); labels 1-based.
        quads = _quadrant_columns((np.array([[1, 6, 4, 3]]) + 0.5) / 8, 3)
        labels = (quads[0] + 1).tolist()
        pairs = list(zip(labels[0::2], labels[1::2]))
        if pairs != [(3, 2), (3, 3), (2, 3)]:
            failures.append(f"reference event pairs were {pairs}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f}s")
        _emit(1, "encoding exactness", elapsed, 1.0, not failures)
        assert not failures, failures


class TestCriterion2:
    def test_tensor_arithmetic_conservation(self):
        t0 = time.perf_counter()
        failures = []
        rng = np.random.default_rng(20250301)
        n_rep, depth = 128, 3
        replicates = tuple(
            Replicate(f"m{r:03d}", "home", 90.0) for r in range(n_rep)
        )
        counts = 100 + rng.integers(0, 60, size=n_rep)
        replicate_index = np.repeat(np.arange(n_rep), counts)
        coords = rng.uniform(0.0, 1.0, size=(int(counts.sum()), 4))
        table = EventTable(replicates, replicate_index, coords)
        tensor = build_tensor(table, depth)
        cells = int(np.prod(tensor.shape))
        if cells != 524_288:
            failures.append(f"cell count {cells}")
        if tensor.total != table.n_events:
            failures.append(f"total {tensor.total} != {table.n_events}")
        nnz_chain = [tensor.nnz]
        for scale in (2, 1):
            coarse = marginalize_to_scale(tensor, scale)
            nnz_chain.append(coarse.nnz)
            if coarse.total != tensor.total:
                failures.append(f"marginal total broke at scale {scale}")
        if not all(a >= b for a, b in zip(nnz_chain, nnz_chain[1:])):
            failures.append(f"nnz grew under coarsening: {nnz_chain}")
        for scale in (1, 2, 3):
            edge_total = sum(
                int(adjacency_at_scale(tensor, rep, scale).sum())
                for rep in range(n_rep)
            )
            if edge_total != tensor.total:
                failures.append(f"adjacency total broke at scale {scale}")
        # The adjacency of the marginalized tensor must match the one
        # chained directly from the full-depth tensor.
        coarse = marginalize_to_scale(tensor, 2)
        for rep in (0, 63, 127):
            direct = adjacency_at_scale(tensor, rep, 2)
            via_marginal = adjacency_at_scale(coarse, rep, 2)
            if not np.array_equal(direct, via_marginal):
                failures.append(f"adjacency mismatch for replicate {rep}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 5.0:
            failures.append(f"runtime {elapsed:.2f}s")
        _emit(2, "tensor arithmetic", elapsed, 5.0, not failures)
        assert not failures, failures


class TestCriterion3:
    def test_inner_solver_against_grid(self):
        t0 = time.perf_counter()
        failures = []
        rng = np.random.default_rng(777)
        for case in range(500):
            design, counts = random_regression_instance(rng)
            coef, _ = mm_poisson_regression_group(
                design, counts, np.zeros(len(counts), dtype=np.int64),
                np.ones((design.shape[1], 1)), tol=1e-12, max_iter=5000)
            coef = coef[:, 0]
            fitted_obj = poisson_objective(design, counts, coef)
            _, grid_obj = grid_minimize_poisson(design, counts)
            if abs(fitted_obj - grid_obj) > 1e-6:
                failures.append(
                    f"case {case}: objective gap {fitted_obj - grid_obj:.3e}")
            mass_gap = abs(float(coef.sum() - counts.sum()))
            if mass_gap > 1e-10:
                failures.append(f"case {case}: mass gap {mass_gap:.3e}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 30.0:
            failures.append(f"runtime {elapsed:.2f}s")
        _emit(3, "inner solver optimality", elapsed, 30.0, not failures)
        assert not failures, failures


def _random_count_tensor(rng: np.random.Generator, shape: tuple[int, ...]):
    n_cells = int(np.prod(shape))
    nnz = min(int(rng.integers(40, 120)), n_cells)
    flat = rng.choice(n_cells, size=nnz, replace=False)
    indices = np.stack(np.unravel_index(flat, shape), axis=1)
    counts = rng.integers(1, 9, size=nnz)
    return SparseCountTensor.from_entries(shape, indices, counts)


class TestCriterion4:
    def test_outer_loop_monotone(self):
        t0 = time.perf_counter()
        failures = []
        rng = np.random.default_rng(4040)
        for case in range(50):
            if case % 2:
                shape = (4, 4, int(rng.integers(3, 7)))
            else:
                shape = (4, 4, 4, 4, int(rng.integers(3, 7)))
            tensor = _random_count_tensor(rng, shape)
            for beta in (0.0, 1e-3):
                config = SolverConfig(
                    n_terms=4, rank=2, beta=beta, seed=case,
                    max_outer=8, max_inner=20)
                fitted, report = fit_block_gs(tensor, config)
                _FITTED.append(fitted)
                trace = np.asarray(report.objective)
                worst = float(np.max(np.diff(trace))) if len(trace) > 1 else 0.0
                if worst > 1e-10:
                    failures.append(
                        f"case {case} beta={beta}: trace rose by {worst:.3e}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 120.0:
            failures.append(f"runtime {elapsed:.2f}s")
        _emit(4, "outer-loop monotonicity", elapsed, 120.0, not failures)
        assert not failures, failures


class TestCriterion5:
    def test_backends_reach_equal_objectives(self):
        t0 = time.perf_counter()
        failures = []
        for case in range(12):
            rng = np.random.default_rng(5000 + case)
            n_motifs = 2 + case % 2
            # distinct (origin, destination) quadrant anchors per motif
            # keep the likelihood surface single-basin, which is what
            # lets two different update schemes meet at one optimum
            pairs = [((case + h) % 4, (case + h + n_motifs) % 4)
                     for h in range(n_motifs)]
            planted = CpBtdModel(
                tuple([1] * n_motifs),
                [np.column_stack([_anchored(o) for o, _ in pairs]),
                 np.column_stack([_anchored(d) for _, d in pairs])],
                np.ones(n_motifs),
                rng.uniform(30.0, 80.0, size=(n_motifs, 4)))
            tensor = simulate(planted, seed=900 + case)
            config = SolverConfig(
                n_terms=n_motifs, rank=1, beta=0.0, seed=case + 40,
                max_outer=3000, max_inner=10, outer_tol=1e-13)
            gs_model, gs_report = fit_block_gs(tensor, config)
            em_model, em_report = fit_em(tensor, config)
            _FITTED.extend([gs_model, em_model])
            start_gap = abs(gs_report.objective[0]
                            - em_report.objective[0])
            if start_gap > 1e-9 * abs(em_report.objective[0]):
                failures.append(f"case {case}: initializations differ")
            f_gs, f_em = gs_report.objective[-1], em_report.objective[-1]
            rel = abs(f_gs - f_em) / max(1.0, abs(f_em))
            if rel > 1e-3:
                failures.append(f"case {case}: final gap {rel:.3e} "
                                f"(gs {f_gs:.6f}, em {f_em:.6f})")
        elapsed = time.perf_counter() - t0
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.2f}s")
        _emit(5, "backend cross-validation", elapsed, 60.0, not failures)
        assert not failures, failures


def _fit_with_restarts(tensor, n_restarts: int, data_seed: int):
    """Shrinkage fit from several random starts, keeping the best.

    Restarts are compared by the penalized objective, the same
    quantity the fit itself monitors; nothing about the planted truth
    enters the selection.
    """
    best = None
    for r in range(n_restarts):
        config = SolverConfig(
            n_terms=10, rank=3, beta=2e-2, outer_tol=1e-12,
            max_outer=3000, max_inner=10, seed=data_seed + 100 * r)
        fitted, _ = fit_block_gs(tensor, config)
        score = penalized_objective(
            fitted, tensor, config.shrinkage_strength(tensor.nnz),
            config.epsilon)
        if best is None or score < best[0]:
            best = (score, fitted)
    return best[1]


class TestCriterion6:
    def test_planted_motif_recovery(self):
        t0 = time.perf_counter()
        failures = []
        exact_rank = 0
        cosines = []
        for seed in range(10):
            truth = recovery_benchmark(seed)
            tensor = simulate(truth, seed=1000 + seed)
            fitted = _fit_with_restarts(tensor, n_restarts=5, data_seed=seed)
            _FITTED.append(fitted)
            exact_rank += effective_terms(fitted) == 3
            top = [h for h, _ in rank_motifs(fitted)][:3]
            fitted_motifs = [motif_at_scale(fitted, h, 2) for h in top]
            true_motifs = [motif_at_scale(truth, h, 2) for h in range(3)]
            pairs = match_motifs(fitted_motifs, true_motifs)
            cosines.extend(s for _, _, s in pairs)
        mean_cos = float(np.mean(cosines))
        if mean_cos < 0.95:
            failures.append(f"mean matched cosine {mean_cos:.4f}")
        if exact_rank < 8:
            failures.append(f"exact term count in only {exact_rank}/10 seeds")
        elapsed = time.perf_counter() - t0
        if elapsed >= 180.0:
            failures.append(f"runtime {elapsed:.2f}s")
        _emit(6, "motif recovery", elapsed, 180.0, not failures)
        assert not failures, failures


class TestCriterion7:
    def test_shrinkage_is_monotone_in_beta(self):
        t0 = time.perf_counter()
        failures = []
        truth = recovery_benchmark(0)
        tensor = simulate(truth, seed=1000)
        active = []
        for beta in (0.0, 1e-3, 1e-2, 1e-1):
            config = SolverConfig(
                n_terms=10, rank=3, beta=beta, outer_tol=1e-12,
                max_outer=1500, max_inner=10, seed=0)
            fitted, _ = fit_block_gs(tensor, config)
            active.append(effective_terms(fitted))
        if not all(a >= b for a, b in zip(active, active[1:])):
            failures.append(f"active terms not monotone: {active}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 300.0:
            failures.append(f"runtime {elapsed:.2f}s")
        _emit(7, "shrinkage dimension adaptation", elapsed, 300.0, not failures)
        assert not failures, failures


class TestCriterion8:
    def test_fitted_motifs_consistent_across_scales(self):
        t0 = time.perf_counter()
        failures = []
        if not _FITTED:
            pytest.fail("criteria 4-6 produced no models to audit")
        for idx, model in enumerate(_FITTED):
            depth = model.n_modes // 2
            usage = model.term_usage()
            for h in range(model.n_terms):
                if usage[h] <= 1e-10:
                    continue
                for scale in range(2, depth + 1):
                    fine = motif_at_scale(model, h, scale)
                    side = fine.shape[0] // 4
                    folded = fine.reshape(side, 4, side, 4).sum(axis=(1, 3))
                    coarse = motif_at_scale(model, h, scale - 1)
                    if not np.allclose(folded, coarse, rtol=1e-10, atol=1e-14):
                        gap = float(np.max(np.abs(folded - coarse)))
                        failures.append(
                            f"model {idx} term {h} scale {scale}: gap {gap:.3e}")
        elapsed = time.perf_counter() - t0
        _emit(8, "scale consistency of fitted motifs", elapsed, 60.0,
              not failures)
        assert not failures, failures


class TestCriterion9:
    def test_sampling_methods_match_intensity(self):
        t0 = time.perf_counter()
        failures = []
        rng = np.random.default_rng(99)
        # Flat-ish profiles keep every cell's expected count high
        # enough (~300 events over the draws) for a 3-sigma bound.
        planted = CpBtdModel(
            (1, 2),
            [np.stack([_unit(*rng.uniform(0.5, 1, 4)) for _ in range(3)],
                      axis=1)
             for _ in range(2)],
            np.array([1.0, 0.6, 0.4]),
            rng.uniform(8.0, 20.0, size=(2, 3)))
        lam = dense_reconstruct(
            planted.factors, omega_matrix(planted), planted.upsilon)
        n_draws = 200
        samplers = {"superposition": simulate, "cells": simulate_cells}
        for method, sample in samplers.items():
            sums = np.zeros_like(lam)
            for s in range(n_draws):
                drawn = sample(planted, seed=31000 + s)
                sums += densify(drawn)
            z = (sums / n_draws - lam) / np.sqrt(lam / n_draws)
            worst = float(np.max(np.abs(z)))
            if worst >= 3.0:
                failures.append(f"{method}: worst z {worst:.2f}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.2f}s")
        _emit(9, "generative correctness", elapsed, 60.0, not failures)
        assert not failures, failures


class TestCriterion10:
    def test_dissimilarity_properties(self):
        t0 = time.perf_counter()
        failures = []
        rng = np.random.default_rng(1010)
        for case in range(200):
            size = int(rng.integers(1, 40))
            u = rng.uniform(0.0, 5.0, size=size)
            v = rng.uniform(0.0, 5.0, size=size)
            u[0] = max(u[0], 0.1)
            v[-1] = max(v[-1], 0.1)
            d = bray_curtis(u, v)
            if d != bray_curtis(v, u):
                failures.append(f"case {case}: asymmetric")
            if not 0.0 <= d <= 1.0:
                failures.append(f"case {case}: out of range ({d})")
            if bray_curtis(u, u) != 0.0:
                failures.append(f"case {case}: nonzero on identical input")
            mask = rng.uniform(size=size) < 0.5
            mask[0] = True
            left = np.where(mask, u + 0.1, 0.0)
            right = np.where(~mask, v + 0.1, 0.0)
            if bray_curtis(left, right) != 1.0:
                failures.append(f"case {case}: disjoint supports below one")
            # Powers of two rescale both vectors without any rounding,
            # so invariance there is bit-exact; other factors round.
            for factor in (0.5, 2.0, 8.0, 1024.0):
                if bray_curtis(factor * u, factor * v) != d:
                    failures.append(f"case {case}: scale {factor} changed it")
            arbitrary = float(rng.uniform(0.3, 9.0))
            if not np.isclose(bray_curtis(arbitrary * u, arbitrary * v), d,
                              rtol=1e-12, atol=0.0):
                failures.append(f"case {case}: scale {arbitrary} drifted")
        elapsed = time.perf_counter() - t0
        if elapsed >= 5.0:
            failures.append(f"runtime {elapsed:.2f}s")
        _emit(10, "dissimilarity properties", elapsed, 5.0, not failures)
        assert not failures, failures
