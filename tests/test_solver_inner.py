"""The multiplicative inner solver against closed forms and grids."""

import numpy as np
import pytest

from mrtensor import sptensor
from mrtensor.solver import (
    DEAD_FLOOR,
    SolverConfig,
    SolverError,
    fit_block_gs,
    mm_poisson_regression_group,
)
from mrtensor.sptensor import SparseCountTensor

from oracles import (
    grid_minimize_poisson,
    mm_sweeps_per_span,
    poisson_objective,
    random_regression_instance,
    random_segmented_instance,
)


def single_regression(design, counts, start, **kwargs):
    """One unpenalized regression: the group form with one segment."""
    segment = np.zeros(len(counts), dtype=np.int64)
    start = np.asarray(start, dtype=np.float64).reshape(-1, 1)
    B, sweeps = mm_poisson_regression_group(
        design, counts, segment, start, **kwargs)
    return B[:, 0], sweeps


class TestClosedForms:
    def test_single_coefficient_converges_in_one_sweep(self):
        # With one coefficient the optimum is the total count, whatever
        # the (positive) design column looks like.
        design = np.array([[0.3], [0.9], [0.1]])
        counts = np.array([4.0, 2.0, 5.0])
        b, sweeps = single_regression(design, counts, np.array([7.0]))
        assert b[0] == pytest.approx(11.0, abs=1e-12)
        assert sweeps <= 2

    def test_diagonal_design_recovers_counts(self):
        # Decoupled coordinates: minimizer is b_k = x_k independently
        # of the diagonal scaling.
        design = np.diag([0.2, 0.7, 1.3])
        counts = np.array([3.0, 8.0, 1.0])
        b, _ = single_regression(design, counts, np.ones(3))
        np.testing.assert_allclose(b, counts, rtol=1e-8)

    def test_conservation_holds_on_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            design, counts = random_regression_instance(rng)
            b, _ = single_regression(
                design, counts, np.ones(design.shape[1])
            )
            assert b.sum() == pytest.approx(counts.sum(), rel=1e-12)

    def test_matches_grid_minimum(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            design, counts = random_regression_instance(rng)
            b, _ = single_regression(
                design,
                counts,
                np.ones(design.shape[1]),
                tol=1e-12,
                max_iter=5000,
            )
            _, grid_val = grid_minimize_poisson(design, counts)
            assert poisson_objective(design, counts, b) == pytest.approx(
                grid_val, abs=1e-6
            )


class TestSweepMechanics:
    def test_objective_never_increases(self):
        rng = np.random.default_rng(63)
        design, counts = random_regression_instance(rng, max_rows=6)
        b = np.full(design.shape[1], 3.0)
        prev = poisson_objective(design, counts, b)
        for _ in range(40):
            b, _ = single_regression(
                design, counts, b, tol=1e-300, max_iter=1
            )
            cur = poisson_objective(design, counts, b)
            assert cur <= prev + 1e-12 * max(1.0, abs(prev))
            prev = cur

    def test_zero_start_entries_stay_zero(self):
        design = np.array([[0.5, 0.5], [0.5, 0.5]])
        counts = np.array([2.0, 2.0])
        start = np.array([[3.0], [0.0]])
        B, _ = mm_poisson_regression_group(design, counts, [0, 0], start)
        assert B[1, 0] == 0.0
        assert B[0, 0] == pytest.approx(4.0, rel=1e-10)

    def test_empty_column_decays_to_zero(self):
        design = np.empty((0, 2))
        B, sweeps = mm_poisson_regression_group(
            design, np.empty(0), np.empty(0, dtype=int),
            np.array([[2.0], [5.0]]),
        )
        np.testing.assert_array_equal(B, [[0.0], [0.0]])
        assert sweeps <= 2
        # Column 1 carries no rows next to a column that does.
        B, _ = mm_poisson_regression_group(
            np.ones((2, 1)), np.array([1.0, 3.0]), [0, 0],
            np.array([[1.0, 6.0]]),
        )
        assert B[0, 0] == pytest.approx(4.0, rel=1e-12)
        assert B[0, 1] == 0.0

    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_no_rows_decay_in_two_sweeps(self, beta):
        # The first sweep zeroes every coefficient, the second moves none.
        B, sweeps = mm_poisson_regression_group(
            np.empty((0, 3)), [], np.empty(0, dtype=int),
            np.arange(1.0, 7.0).reshape(3, 2), beta=beta,
        )
        np.testing.assert_array_equal(B, np.zeros((3, 2)))
        assert sweeps == 2

    def test_unpenalized_group_matches_per_column_solves(self):
        # With beta = 0 the columns are independent regressions, so the
        # grouped solve must reproduce one plain solve per column; a
        # column without rows keeps only its decay to zero.
        rng = np.random.default_rng(66)
        for _ in range(20):
            design, counts, segment, start = random_segmented_instance(rng)
            assert segment[0] > 0
            B, _ = mm_poisson_regression_group(
                design, counts, segment, start, tol=1e-300, max_iter=60
            )
            for c in range(start.shape[1]):
                rows = segment == c
                if not rows.any():
                    np.testing.assert_array_equal(B[:, c], 0.0)
                    continue
                b, _ = single_regression(
                    design[rows], counts[rows], start[:, c],
                    tol=1e-300, max_iter=60,
                )
                np.testing.assert_allclose(B[:, c], b, rtol=0, atol=1e-12)

    def test_single_sweep_formula(self):
        # One reweighted sweep by hand: numer_k = sum_j a_jk x_j / lam_j
        # evaluated at the start, then scaled by the start's weight.
        design = np.array([[1.0], [1.0]])
        counts = np.array([1.0, 2.0])
        beta, eps = 0.5, SolverConfig.epsilon
        B, _ = mm_poisson_regression_group(
            design,
            counts,
            [0, 0],
            np.array([[1.0]]),
            beta=beta,
            max_iter=1,
        )
        w = 1.0 / (1.0 + beta / (eps + 1.0))
        assert B[0, 0] == pytest.approx(3.0 * w, rel=1e-14)

    def test_group_penalty_descends(self):
        rng = np.random.default_rng(64)
        designs, counts = [], []
        for _ in range(3):
            designs.append(rng.uniform(0.05, 1.0, size=(4, 2)))
            counts.append(rng.integers(1, 9, size=4).astype(float))
        beta, eps = 2.0, SolverConfig.epsilon

        def penalized(B):
            f = sum(
                poisson_objective(designs[c], counts[c], B[:, c])
                for c in range(3)
            )
            return f + beta * np.log(eps + B.sum(axis=1)).sum()

        segment = np.repeat(np.arange(3), 4)
        B = np.full((2, 3), 2.0)
        prev = penalized(B)
        for _ in range(30):
            B, _ = mm_poisson_regression_group(
                np.vstack(designs), np.concatenate(counts), segment, B,
                beta=beta, tol=1e-300, max_iter=1,
            )
            cur = penalized(B)
            assert cur <= prev + 1e-10 * max(1.0, abs(prev))
            prev = cur

    def test_shrinkage_reduces_total_mass(self):
        rng = np.random.default_rng(65)
        design, c = random_regression_instance(rng, max_rows=6, max_cols=2)
        start = np.ones((design.shape[1], 1))
        segment = np.zeros(len(c), dtype=int)
        plain, _ = mm_poisson_regression_group(design, c, segment, start)
        shrunk, _ = mm_poisson_regression_group(
            design, c, segment, start, beta=5.0
        )
        assert shrunk.sum() < plain.sum()

    def test_respects_max_iter(self):
        rng = np.random.default_rng(66)
        design, c = random_regression_instance(rng)
        _, sweeps = single_regression(
            design, c, np.ones(design.shape[1]), tol=1e-300, max_iter=7
        )
        assert sweeps == 7


class TestAgainstSpanOracle:
    """The solver against its per-span reference sweep: the same
    arithmetic up to summation order, so equal to rounding."""

    @pytest.mark.parametrize("beta", [0.0, 2.0])
    @pytest.mark.parametrize("n_columns", [3, 6, 40])
    def test_segmented_instances(self, n_columns, beta):
        # Every instance has columns without rows, column 0 among them.
        rng = np.random.default_rng(70 + n_columns)
        for _ in range(10):
            instance = random_segmented_instance(rng, n_columns, k=4)
            got, sweeps = mm_poisson_regression_group(
                *instance, beta=beta, tol=1e-300, max_iter=30
            )
            want, want_sweeps = mm_sweeps_per_span(
                *instance, beta=beta, tol=1e-300, max_iter=30
            )
            assert sweeps == want_sweeps == 30
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_one_span_to_convergence(self, beta):
        rng = np.random.default_rng(71)
        for _ in range(10):
            design, counts = random_regression_instance(rng, 12, 4)
            instance = (design, counts, np.zeros(len(counts), dtype=int),
                        rng.uniform(0.5, 2.0, size=(design.shape[1], 1)))
            got, sweeps = mm_poisson_regression_group(*instance, beta=beta)
            want, want_sweeps = mm_sweeps_per_span(*instance, beta=beta)
            assert sweeps == want_sweeps
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    # 4 elements: one row per block, so every span of more than one row
    # is split.  13 elements: blocks of 3 rows, runs of short spans next
    # to split ones.
    @pytest.mark.parametrize("budget", [4, 13])
    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_split_spans(self, monkeypatch, budget, beta):
        monkeypatch.setattr(sptensor, "_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(72)
        for _ in range(10):
            instance = random_segmented_instance(rng, 6, max_rows=12, k=4)
            got, sweeps = mm_poisson_regression_group(
                *instance, beta=beta, tol=1e-300, max_iter=30
            )
            want, want_sweeps = mm_sweeps_per_span(
                *instance, beta=beta, tol=1e-300, max_iter=30
            )
            assert sweeps == want_sweeps == 30
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestDeadCoefficients:
    """Dead means exactly zero: every sweep sets the coefficients at or
    below DEAD_FLOOR to 0.0, which the multiplicative update keeps."""

    def test_no_coefficient_between_zero_and_the_floor(self):
        # Strong shrinkage drives whole groups to zero; without the rule
        # some coefficients stop between zero and the floor.
        rng = np.random.default_rng(80)
        passed_through = 0
        for _ in range(10):
            instance = random_segmented_instance(rng, 6, max_rows=30, k=4)
            for max_iter in (5, 10, 20, 40):
                got, _ = mm_poisson_regression_group(
                    *instance, beta=50.0, tol=1e-300, max_iter=max_iter
                )
                assert not ((got > 0) & (got <= DEAD_FLOOR)).any()
                want, _ = mm_sweeps_per_span(
                    *instance, beta=50.0, tol=1e-300, max_iter=max_iter
                )
                # A collapsing group squares its relative rounding error
                # every sweep, so only the large coefficients compare
                # at rtol; the dead ones must match exactly.
                assert np.array_equal(got == 0, want == 0)
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * want.max())
                kept, _ = mm_sweeps_per_span(
                    *instance, beta=50.0, tol=1e-300, max_iter=max_iter,
                    dead_floor=0.0,
                )
                passed_through += ((kept > 0) & (kept <= DEAD_FLOOR)).sum()
        assert passed_through > 0

    def test_coefficient_below_the_floor_dies_in_one_sweep(self):
        # The start is not zeroed up front; the first update is.
        design = np.array([[1.0, 1.0]])
        start = np.array([[2.0], [1e-305]])
        B, _ = mm_poisson_regression_group(design, [3.0], [0], start,
                                           max_iter=1)
        assert B[0, 0] == pytest.approx(3.0, rel=1e-15) and B[1, 0] == 0.0

    def test_count_whose_support_dies_has_zero_intensity(self):
        # The one coefficient carrying the count shrinks to about 1e-301
        # in the first sweep; the second sweep sees an intensity of 0.
        instance = (np.ones((1, 1)), [1.0], [0], np.array([[1e-10]]))
        B, _ = mm_poisson_regression_group(*instance, beta=1e293, max_iter=1)
        assert B[0, 0] == 0.0
        with pytest.raises(ValueError, match="zero intensity"):
            mm_poisson_regression_group(*instance, beta=1e293, max_iter=2)

    def test_fit_whose_scores_die_raises_solver_error(self):
        # Shrinkage this strong kills every usage score in the score
        # block's first sweep; numerical failure, not bad input.
        tensor = SparseCountTensor.from_entries(
            (2, 2, 3), [[0, 0, 0], [1, 1, 1], [0, 1, 2], [1, 0, 2]],
            [3, 1, 4, 2])
        config = SolverConfig(n_terms=2, rank=1, beta=1e306 / tensor.nnz,
                              max_outer=1, max_inner=5)
        with pytest.raises(SolverError, match="score block: zero intensity"):
            fit_block_gs(tensor, config)


class TestValidation:
    def test_infeasible_row_rejected(self):
        design = np.array([[0.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="infeasible"):
            single_regression(design, np.array([1.0, 1.0]), np.ones(2))

    def test_zero_column_design_is_infeasible(self):
        # Positive counts with no coefficients to carry them.
        with pytest.raises(ValueError, match="infeasible row"):
            mm_poisson_regression_group(
                np.ones((3, 0)), [1, 2, 3], [0, 0, 0], np.ones((0, 1))
            )

    @pytest.mark.parametrize("beta", [-1.0, np.nan])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            single_regression(
                np.ones((1, 1)), np.array([1.0]), np.ones(1), beta=beta
            )

    def test_nonpositive_counts_rejected(self):
        design = np.ones((2, 1))
        with pytest.raises(ValueError, match="counts"):
            single_regression(design, np.array([1.0, 0.0]), np.ones(1))

    def test_negative_design_rejected(self):
        design = np.array([[-0.1], [0.5]])
        with pytest.raises(ValueError, match="designs"):
            single_regression(design, np.array([1.0, 1.0]), np.ones(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_design_rejected(self, bad):
        design = np.array([[0.5, bad], [0.5, 0.5]])
        with pytest.raises(ValueError, match="designs must be finite"):
            single_regression(design, np.array([1.0, 1.0]), np.ones(2))

    def test_overflowing_row_sum_accepted(self):
        # Finite entries whose row sum overflows are a valid design.
        design = np.array([[1e308, 1e308], [0.5, 0.5]])
        with np.errstate(over="ignore"):
            B, sweeps = single_regression(
                design, np.array([1.0, 1.0]), np.ones(2), max_iter=1
            )
        assert sweeps == 1 and np.isfinite(B).all()

    def test_negative_zero_row_is_dead(self):
        design = np.array([[0.5, 0.5], [-0.0, -0.0]])
        with pytest.raises(ValueError) as exc:
            single_regression(design, np.array([1.0, 1.0]), np.ones(2))
        assert str(exc.value) == (
            "infeasible row: observation 1 has a positive count but an "
            "all-zero design row"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_count_rejected(self, bad):
        with pytest.raises(ValueError, match="counts must be positive"):
            single_regression(
                np.ones((2, 1)), np.array([1.0, bad]), np.ones(1)
            )

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            single_regression(
                np.ones((1, 1)), np.array([1.0]), np.array([-1.0])
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column"):
            mm_poisson_regression_group(
                np.ones((5, 2)), np.ones(5), [0, 0, 1, 1, 1], np.ones((1, 2))
            )

    def test_zero_intensity_at_count_rejected(self):
        design = np.array([[1.0, 0.0], [0.0, 1.0]])
        start = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="zero intensity"):
            mm_poisson_regression_group(
                design, np.array([1.0, 1.0]), [0, 0], start
            )

    def test_unsorted_segment_rejected(self):
        with pytest.raises(ValueError, match="segment"):
            mm_poisson_regression_group(
                np.ones((3, 1)), np.ones(3), [0, 1, 0], np.ones((1, 2))
            )

    def test_out_of_range_segment_rejected(self):
        # Ids past either end, and ids that are not integers at all.
        for segment in ([0, 1, 2], [-1, 0, 0], [0.0, 0.5, 1.0]):
            with pytest.raises(ValueError, match="segment"):
                mm_poisson_regression_group(
                    np.ones((3, 1)), np.ones(3), segment, np.ones((1, 2))
                )
