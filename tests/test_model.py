"""Model container, derived views, objective, and the model format.

The objective test compares the sparse evaluation against a dense
brute-force sum over every cell, which only shares the factor arrays
with the code under test.
"""

import math

import numpy as np
import pytest

from mrtensor.model import (
    CpBtdModel,
    effective_rank,
    effective_terms,
    motif_at_scale,
    normalize_scores,
    objective,
    read_model,
    write_model,
)
from mrtensor.sptensor import SparseCountTensor

from oracles import (
    dense_reconstruct, densify, intensity_at, motif_by_kron, omega_matrix,
)


def random_model(rng, sizes, ranks, n_rep):
    total = sum(ranks)
    factors = []
    for size in sizes:
        u = rng.uniform(0.1, 1.0, size=(size, total))
        factors.append(u / u.sum(axis=0))
    omega = np.concatenate([rng.dirichlet(np.ones(r)) for r in ranks])
    upsilon = rng.uniform(0.5, 2.0, size=(len(ranks), n_rep))
    return CpBtdModel(tuple(ranks), factors, omega, upsilon)


def tiny_model():
    """Two modes of size 2, ranks (2, 1), one replicate; hand numbers."""
    factors = [
        np.array([[0.25, 0.5, 1.0], [0.75, 0.5, 0.0]]),
        np.array([[0.4, 0.9, 0.2], [0.6, 0.1, 0.8]]),
    ]
    omega = np.array([0.3, 0.7, 1.0])
    upsilon = np.array([[10.0], [5.0]])
    return CpBtdModel((2, 1), factors, omega, upsilon)


class TestContainer:
    def test_block_layout(self):
        m = tiny_model()
        assert m.n_terms == 2
        assert m.total_rank == 3
        assert m.block(0) == slice(0, 2)
        assert m.block(1) == slice(2, 3)
        np.testing.assert_array_equal(m.block_of_component(), [0, 0, 1])

    def test_omega_matrix_block_diagonal(self):
        m = tiny_model()
        np.testing.assert_allclose(
            omega_matrix(m),
            [[0.3, 0.0], [0.7, 0.0], [0.0, 1.0]],
        )

    @pytest.mark.parametrize("ranks", [(3,) * 6, (1, 9, 2, 9, 17, 1, 4)])
    def test_term_sums_match_per_block_sums_bitwise(self, ranks):
        # Ranks past 8 reach NumPy's pairwise summation; the per-block
        # loop is the reference.
        rng = np.random.default_rng(len(ranks))
        m = random_model(rng, (2,), ranks, 1)
        values = rng.uniform(size=m.total_rank) * 10.0 ** rng.integers(
            -12, 12, size=m.total_rank
        )
        want = [values[m.block(h)].sum() for h in range(m.n_terms)]
        assert np.array_equal(m.term_sums(values), want)

    def test_usage_and_component_scale(self):
        m = tiny_model()
        np.testing.assert_allclose(m.term_usage(), [10.0, 5.0])
        np.testing.assert_allclose(m.component_scale(), [3.0, 7.0, 5.0])

    def test_copy_is_deep(self):
        m = tiny_model()
        c = m.copy()
        c.factors[0][0, 0] = 99.0
        c.omega[0] = 99.0
        c.upsilon[0, 0] = 99.0
        assert m.factors[0][0, 0] == 0.25
        assert m.omega[0] == 0.3
        assert m.upsilon[0, 0] == 10.0

    def test_validation(self):
        factors = [np.ones((2, 2)) / 2, np.ones((2, 2)) / 2]
        with pytest.raises(ValueError):
            CpBtdModel((2,), factors, np.ones(3) / 3, np.ones((1, 1)))
        with pytest.raises(ValueError):
            CpBtdModel(
                (2,), factors, np.array([0.5, -0.5]), np.ones((1, 1))
            )
        with pytest.raises(ValueError):
            CpBtdModel((2,), factors, np.ones(2) / 2, np.ones((2, 1)))

    def test_intensity_hand_value(self):
        m = tiny_model()
        # cell (0, 1): 10*(0.3*0.25*0.6 + 0.7*0.5*0.1) + 5*(1.0*1.0*0.8)
        want = 10 * (0.3 * 0.25 * 0.6 + 0.7 * 0.5 * 0.1) + 5 * 0.8
        assert intensity_at(m, (0, 1), 0) == pytest.approx(want, rel=1e-14)


class TestMotifs:
    def test_rank_one_motif_is_weighted_outer_product(self):
        rng = np.random.default_rng(31)
        m = random_model(rng, sizes=(4, 4), ranks=(1,), n_rep=2)
        motif = motif_at_scale(m, 0, 1)
        want = m.omega[0] * np.outer(m.factors[0][:, 0], m.factors[1][:, 0])
        np.testing.assert_allclose(motif, want, rtol=1e-13)

    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_matches_kronecker_loop(self, scale):
        rng = np.random.default_rng(37 + scale)
        for _ in range(5):
            ranks = tuple(rng.integers(1, 5, size=3))
            m = random_model(rng, (4,) * (2 * scale), ranks, n_rep=1)
            for h in range(m.n_terms):
                got = motif_at_scale(m, h, scale)
                want = motif_by_kron(m, h, scale)
                # Within 4 units in the last place of each entry.
                assert (np.abs(got - want) <= 4 * np.spacing(want)).all()

    def test_motif_mass_is_one_for_stochastic_terms(self):
        rng = np.random.default_rng(32)
        m = random_model(rng, sizes=(4, 4, 4, 4), ranks=(3, 2), n_rep=2)
        for h in range(2):
            for s in (1, 2):
                assert motif_at_scale(m, h, s).sum() == pytest.approx(1.0)

    def test_block_aggregation_recovers_coarser_scale(self):
        rng = np.random.default_rng(33)
        m = random_model(rng, sizes=(4,) * 6, ranks=(2, 2), n_rep=2)
        for h in range(2):
            for s in (2, 3):
                fine = motif_at_scale(m, h, s)
                coarse = motif_at_scale(m, h, s - 1)
                folded = fine.reshape(
                    4 ** (s - 1), 4, 4 ** (s - 1), 4
                ).sum(axis=(1, 3))
                np.testing.assert_allclose(folded, coarse, rtol=1e-12)

    def test_one_matrix_per_scale_up_to_depth(self):
        rng = np.random.default_rng(34)
        m = random_model(rng, sizes=(4, 4, 4, 4), ranks=(2, 1), n_rep=2)
        for s in (1, 2):
            assert motif_at_scale(m, 0, s).shape == (4**s, 4**s)
        for s in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                motif_at_scale(m, 0, s)
        with pytest.raises(ValueError, match="not an integer"):
            motif_at_scale(m, 0, 1.0)

    @pytest.mark.parametrize("sizes", [(3, 3), (8, 8)])
    def test_non_grid_modes_rejected(self, sizes):
        rng = np.random.default_rng(36)
        m = random_model(rng, sizes=sizes, ranks=(1,), n_rep=1)
        with pytest.raises(ValueError, match="quadrant pairs"):
            motif_at_scale(m, 0, 1)

    def test_odd_mode_count_rejected(self):
        rng = np.random.default_rng(35)
        m = random_model(rng, sizes=(4, 4, 4), ranks=(1,), n_rep=1)
        with pytest.raises(ValueError):
            motif_at_scale(m, 0, 1)


class TestScores:
    def test_normalize_scores_shares_and_totals(self):
        m = tiny_model()
        theta, eta = normalize_scores(m)
        np.testing.assert_allclose(eta, [15.0])
        np.testing.assert_allclose(theta, [[2 / 3], [1 / 3]])
        np.testing.assert_allclose(theta * eta, m.upsilon)

    def test_zero_replicate_rejected(self):
        m = tiny_model()
        m.upsilon[:, 0] = 0.0
        with pytest.raises(ValueError, match="zero total"):
            normalize_scores(m)

    def test_effective_counts(self):
        m = tiny_model()
        assert effective_terms(m) == 2
        assert effective_rank(m, 0) == 2
        m.upsilon[1, :] = 0.0
        assert effective_terms(m) == 1
        m.omega[1] = 0.0
        assert effective_rank(m, 0) == 1


class TestObjective:
    def test_matches_dense_brute_force(self):
        rng = np.random.default_rng(41)
        m = random_model(rng, sizes=(3, 4), ranks=(2, 1), n_rep=2)
        idx = np.unique(
            np.column_stack(
                [
                    rng.integers(0, 3, size=30),
                    rng.integers(0, 4, size=30),
                    rng.integers(0, 2, size=30),
                ]
            ),
            axis=0,
        )
        t = SparseCountTensor.from_entries(
            (3, 4, 2), idx, rng.integers(1, 6, size=len(idx))
        )
        lam = dense_reconstruct(m.factors, omega_matrix(m), m.upsilon)
        dense = densify(t)
        want = lam.sum() - (dense[dense > 0] * np.log(lam[dense > 0])).sum()
        assert objective(m, t) == pytest.approx(want, rel=1e-12)

    def test_zero_intensity_at_count_is_infinite(self):
        factors = [np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])]
        m = CpBtdModel((1,), factors, np.ones(1), np.ones((1, 1)))
        t = SparseCountTensor((2, 2, 1), np.array([[1, 1, 0]]), np.array([2]))
        assert objective(m, t) == math.inf

    def test_empty_tensor_is_the_linear_term(self):
        rng = np.random.default_rng(42)
        m = random_model(rng, sizes=(3, 4), ranks=(2, 1), n_rep=2)
        t = SparseCountTensor(
            (3, 4, 2), np.empty((0, 3), dtype=np.int64), np.empty(0))
        lam = dense_reconstruct(m.factors, omega_matrix(m), m.upsilon)
        assert objective(m, t) == pytest.approx(lam.sum(), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        m = tiny_model()
        t = SparseCountTensor((3, 2, 1), np.array([[0, 0, 0]]), np.array([1]))
        with pytest.raises(ValueError):
            objective(m, t)


class TestModelFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        m = random_model(rng, sizes=(4, 4, 4, 4), ranks=(2, 3, 1), n_rep=5)
        path = tmp_path / "m.txt"
        write_model(m, path)
        back = read_model(path)
        assert back.ranks == m.ranks
        for a, b in zip(back.factors, m.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.omega, m.omega)
        np.testing.assert_array_equal(back.upsilon, m.upsilon)

    def test_header_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("wrong v0\n")
        with pytest.raises(ValueError):
            read_model(path)

    def test_trailing_content_rejected(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "m.txt"
        write_model(m, path)
        with open(path, "a") as handle:
            handle.write("1.0\n")
        with pytest.raises(ValueError):
            read_model(path)
