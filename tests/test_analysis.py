"""Dissimilarity, motif ranking and matching, sampling, and exports."""

import csv
import io

import numpy as np
import pytest

from mrtensor.analysis import (
    DissimilarityMatrix,
    bray_curtis,
    dissimilarity_matrix,
    match_motifs,
    rank_motifs,
    simulate,
    write_dissimilarity_csv,
    write_motif_csv,
    write_motif_svg,
)
from mrtensor.encode import adjacency_at_scale, build_tensor
from mrtensor.model import CpBtdModel, effective_terms
from mrtensor.ingest import EventTable, Replicate, parse_events, team_minutes

from oracles import simulate_cells


def table_from(rows):
    header = "replicate_id,team,minutes,x_o,y_o,x_d,y_d"
    return parse_events(io.StringIO("\n".join([header] + rows) + "\n"))


def concentrated_model(n_rep=2, usage=50.0):
    """Rank-one term whose mass sits in cell (0, 0)."""
    factors = [np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])]
    return CpBtdModel(
        (1,), factors, np.ones(1), np.full((1, n_rep), usage)
    )


class TestBrayCurtis:
    def test_hand_values(self):
        assert bray_curtis([1, 1], [1, 2]) == pytest.approx(1 / 5)
        assert bray_curtis([1, 2, 3], [2, 3, 1]) == pytest.approx(1 / 3)

    def test_identical_is_zero(self):
        assert bray_curtis([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_disjoint_support_is_one(self):
        assert bray_curtis([1.0, 0.0], [0.0, 2.5]) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(91)
        u, v = rng.uniform(size=8), rng.uniform(size=8)
        assert bray_curtis(u, v) == bray_curtis(v, u)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            bray_curtis([0.0, 0.0], [0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bray_curtis([-1.0], [1.0])


def dissimilarity_through_tensor(table, scale):
    """Team networks as per-replicate tensor slices summed per team,
    divided by the team's minutes."""
    tensor = build_tensor(table, scale)
    minutes = team_minutes(table)
    nets = {team: np.zeros((4**scale, 4**scale)) for team in minutes}
    for n, rep in enumerate(table.replicates):
        nets[rep.team] += adjacency_at_scale(tensor, n, scale)
    vecs = [nets[t].ravel() / minutes[t] for t in minutes]
    out = np.zeros((len(vecs), len(vecs)))
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            out[i, j] = out[j, i] = bray_curtis(vecs[i], vecs[j])
    return tuple(minutes), out


def clustered_table(seed=5, n_teams=5, per_team=3, n_events=600):
    """Teams with several replicates of unequal minutes; the last
    replicate carries no events."""
    rng = np.random.default_rng(seed)
    reps = tuple(
        Replicate(f"r{t}_{k}", f"team{t}", float(rng.uniform(85, 100)))
        for t in range(n_teams)
        for k in range(per_team)
    )
    rep_index = rng.integers(0, len(reps) - 1, size=n_events)
    centers = rng.uniform(0.1, 0.9, size=(4, 4))
    coords = centers[rng.integers(0, 4, size=n_events)] + rng.normal(
        0, 0.08, size=(n_events, 4)
    )
    return EventTable(reps, rep_index, np.clip(coords, 0.0, 0.999))


class TestDissimilarityMatrix:
    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_matches_tensor_route(self, scale):
        table = clustered_table()
        assert table.replicate_index.max() == table.n_replicates - 2
        d = dissimilarity_matrix(table, scale)
        labels, expected = dissimilarity_through_tensor(table, scale)
        assert d.labels == labels
        assert np.array_equal(d.values, expected)

    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError, match="scales must be >= 1"):
            dissimilarity_matrix(clustered_table(), 0)

    def test_non_integer_scale_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            dissimilarity_matrix(clustered_table(), 2.0)

    @pytest.mark.parametrize("factor", [0.5, 3.0, 1e3])
    def test_common_minutes_factor_cancels(self, factor):
        # Bray-Curtis is blind to a factor shared by both networks, so
        # scaling every replicate's minutes moves only rounding.
        table = clustered_table()
        scaled = EventTable(
            tuple(Replicate(r.replicate_id, r.team, r.minutes * factor)
                  for r in table.replicates),
            table.replicate_index, table.coords,
        )
        for scale in (1, 2, 3):
            base = dissimilarity_matrix(table, scale).values
            moved = dissimilarity_matrix(scaled, scale).values
            assert np.abs(moved - base).max() <= 1e-15

    def test_exposure_scaling_hand_value(self):
        # Identical passing but half the minutes doubles the per-minute
        # rates: BC(x / 90, x / 45) = 1/3.
        rows = [
            "m1,slow,90,10,10,80,60",
            "m1,slow,90,20,20,90,60",
            "m2,fast,45,10,10,80,60",
            "m2,fast,45,20,20,90,60",
        ]
        d = dissimilarity_matrix(table_from(rows), scale=1)
        assert d.labels == ("slow", "fast")
        assert d.values[0, 1] == pytest.approx(1 / 3)
        assert d.values[1, 0] == pytest.approx(1 / 3)
        np.testing.assert_array_equal(np.diag(d.values), [0.0, 0.0])

    def test_identical_teams_are_zero(self):
        rows = [
            "m1,a,90,10,10,80,60",
            "m2,b,90,10,10,80,60",
        ]
        d = dissimilarity_matrix(table_from(rows), scale=1)
        assert d.values[0, 1] == 0.0

    def test_replicates_pool_within_team(self):
        # One team split over two replicates must equal the same
        # events in a single replicate.
        split = table_from(
            [
                "m1,a,45,10,10,80,60",
                "m2,a,45,80,60,10,10",
                "m3,b,90,10,70,80,10",
            ]
        )
        merged = table_from(
            [
                "m1,a,90,10,10,80,60",
                "m1,a,90,80,60,10,10",
                "m3,b,90,10,70,80,10",
            ]
        )
        a = dissimilarity_matrix(split, scale=1)
        b = dissimilarity_matrix(merged, scale=1)
        assert a.values[0, 1] == pytest.approx(b.values[0, 1])

    def test_team_without_passes_rejected(self):
        table = EventTable(
            (Replicate("m1", "a", 90.0), Replicate("m2", "b", 90.0)),
            np.array([0]),
            np.array([[0.1, 0.1, 0.6, 0.6]]),
        )
        with pytest.raises(ValueError, match="no passes"):
            dissimilarity_matrix(table, scale=1)

    def test_csv_export(self, tmp_path):
        rows = ["m1,a,90,10,10,80,60", "m2,b,90,10,70,80,10"]
        d = dissimilarity_matrix(table_from(rows), scale=1)
        path = tmp_path / "d.csv"
        write_dissimilarity_csv(d, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "team,a,b"
        assert lines[1].startswith("a,0,")

    def test_csv_labels_read_back_through_csv(self, tmp_path):
        labels = ("Korea, Republic", 'say "hi"', "two\nlines",
                  "Côte d’Ivoire")
        upper = np.triu(np.random.default_rng(0).random((4, 4)), 1)
        path = tmp_path / "d.csv"
        write_dissimilarity_csv(
            DissimilarityMatrix(labels, upper + upper.T), path)
        with open(path, encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["team", *labels]
        assert [row[0] for row in rows] == list(labels)
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        np.testing.assert_array_equal(values, upper + upper.T)


class TestMotifRanking:
    def make_model(self, usages):
        h = len(usages)
        factors = [np.ones((4, h)) / 4, np.ones((4, h)) / 4]
        return CpBtdModel(
            (1,) * h,
            factors,
            np.ones(h),
            np.array(usages)[:, None].astype(float),
        )

    def test_sorted_by_usage(self):
        ranked = rank_motifs(self.make_model([5.0, 0.0, 7.0]))
        assert ranked == [(2, 7.0), (0, 5.0)]

    def test_tie_keeps_lower_term(self):
        ranked = rank_motifs(self.make_model([3.0, 3.0]))
        assert ranked == [(0, 3.0), (1, 3.0)]

    def test_ranks_the_terms_effective_terms_counts(self):
        # Usages on both sides of RANK_THRESHOLD (1e-10), which is
        # itself not active.
        model = self.make_model([5e-11, 1e-10, 2e-10, 3.0, 0.0, 1e-9])
        ranked = rank_motifs(model)
        assert len(ranked) == effective_terms(model) == 3
        assert [h for h, _ in ranked] == [3, 5, 2]

    def test_cosine_basics(self):
        # Matched cosines: parallel motifs score 1, orthogonal ones 0,
        # whatever their scale; a zero motif on either side raises.
        pairs = match_motifs([[2, 0], [0, 3]], [[5, 0], [1, 0]])
        assert pairs == [(0, 0, 1.0), (1, 1, 0.0)]
        with pytest.raises(ValueError, match="zero vector"):
            match_motifs([[0, 0]], [[1, 0]])
        with pytest.raises(ValueError, match="zero vector"):
            match_motifs([[1, 0]], [[1, 0], [0, 0]])

    def test_non_finite_motif_rejected(self):
        for fitted, reference in (([[np.inf, 1.0]], [[1.0, 0.0]]),
                                  ([[1.0, 0.0]], [[np.nan, 1.0]])):
            with pytest.raises(ValueError, match="motifs must be finite"):
                match_motifs(fitted, reference)

    def test_scale_free_at_the_ends_of_the_float_range(self):
        # Squaring 1e200 overflows and squaring 1e-200 underflows; the
        # cosine of each pair is still exactly that of [1, 0] with itself.
        for big in (np.array([1e200, 1.0]), np.array([1e-200, 0.0]),
                    np.array([5e-324, 0.0])):
            assert match_motifs([big], [np.array([1.0, 0.0])]) == [(0, 0, 1.0)]
            assert match_motifs([np.array([2.0, 0.0])], [big]) == [(0, 0, 1.0)]

    def test_empty_motif_is_a_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            match_motifs([np.empty(0)], [np.empty(0)])

    def test_greedy_matching(self):
        fitted = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        reference = [np.array([0.05, 0.95]), np.array([0.9, 0.1])]
        pairs = match_motifs(fitted, reference)
        assert len(pairs) == 2
        by_fit = {i: j for i, j, _ in pairs}
        assert by_fit == {0: 1, 1: 0}
        sims = [s for _, _, s in pairs]
        assert sims == sorted(sims, reverse=True)

    def test_matching_empty(self):
        assert match_motifs([], [np.ones(2)]) == []
        assert match_motifs([np.ones(2)], []) == []

    def test_matching_ties_pick_lower_positions_first(self):
        # Every pair has cosine 1: picks run down the diagonal.
        same = [np.array([1.0, 2.0])] * 3
        pairs = match_motifs(same, same[:2])
        assert [(i, j) for i, j, _ in pairs] == [(0, 0), (1, 1)]
        # Fitted 1 ties fitted 0 for reference 1; the lower one wins,
        # and fitted 1 then takes what is left.
        fitted = [np.array([0.0, 1.0]), np.array([0.0, 1.0])]
        reference = [np.array([1.0, 1.0]), np.array([0.0, 1.0])]
        pairs = match_motifs(fitted, reference)
        assert [(i, j) for i, j, _ in pairs] == [(0, 1), (1, 0)]


class TestSimulate:
    def test_concentrated_model_fills_one_cell(self):
        model = concentrated_model()
        for sample in (simulate, simulate_cells):
            t = sample(model, seed=11)
            assert t.shape == (2, 2, 2)
            if t.nnz:
                np.testing.assert_array_equal(
                    t.indices[:, :2], np.zeros((t.nnz, 2), dtype=int)
                )

    def test_seed_reproducibility(self):
        model = concentrated_model()
        a = simulate(model, seed=3)
        b = simulate(model, seed=3)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_zero_rates_give_empty_tensor(self):
        model = concentrated_model()
        t = simulate(model, rates=np.zeros((1, 3)), seed=0)
        assert t.nnz == 0
        assert t.shape == (2, 2, 3)

    def test_rates_shape_validation(self):
        model = concentrated_model()
        with pytest.raises(ValueError):
            simulate(model, rates=np.ones((2, 2)))
        with pytest.raises(ValueError):
            simulate(model, rates=-np.ones((1, 2)))

    def test_no_replicate_columns_rejected(self):
        with pytest.raises(ValueError, match="replicate column"):
            simulate(concentrated_model(), rates=np.empty((1, 0)))

    def test_scalar_rates_rejected(self):
        with pytest.raises(ValueError, match="terms x replicates"):
            simulate(concentrated_model(), rates=np.float64(5.0))

    def test_zero_weight_term_with_usage_rejected(self):
        factors = [np.ones((2, 1)), np.ones((2, 1))]
        model = CpBtdModel(
            (1,), factors, np.zeros(1), np.full((1, 2), 5.0)
        )
        with pytest.raises(ValueError, match="zero mixing"):
            simulate(model, seed=0)

    def test_total_events_scale_with_rates(self):
        model = concentrated_model(n_rep=1, usage=400.0)
        t = simulate(model, seed=21)
        # Poisson(400): six sigma is 120.
        assert 280 < t.total < 520


class TestExports:
    def test_motif_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(93)
        m = rng.uniform(size=(4, 4))
        path = tmp_path / "m.csv"
        write_motif_csv(m, path)
        back = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(back, m)

    def test_svg_caps_edges(self, tmp_path):
        rng = np.random.default_rng(94)
        m = rng.uniform(0.1, 1.0, size=(16, 16))
        path = tmp_path / "m.svg"
        drawn = write_motif_svg(m, path, top_edges=5)
        assert drawn == 5
        text = path.read_text()
        assert text.count('class="edge"') == 5
        assert 'viewBox="0 0 1150 740"' in text

    def test_svg_self_loops_are_circles(self, tmp_path):
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "m.svg"
        drawn = write_motif_svg(m, path)
        assert drawn == 4
        text = path.read_text()
        assert text.count("<circle") == 4
        assert "marker-end" not in text

    def test_svg_skips_zero_entries(self, tmp_path):
        m = np.zeros((4, 4))
        m[1, 2] = 0.5
        path = tmp_path / "m.svg"
        assert write_motif_svg(m, path, top_edges=10) == 1

    def test_svg_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_motif_svg(np.ones((3, 3)), tmp_path / "m.svg")
        with pytest.raises(ValueError):
            write_motif_svg(np.ones((4, 5)), tmp_path / "m.svg")

    def test_svg_rejects_empty_matrix(self, tmp_path):
        with pytest.raises(ValueError, match="4\\*\\*s square"):
            write_motif_svg(np.zeros((0, 0)), tmp_path / "m.svg")

    def test_svg_rejects_negative_edge_count(self, tmp_path):
        with pytest.raises(ValueError, match="top_edges"):
            write_motif_svg(np.ones((4, 4)), tmp_path / "m.svg", top_edges=-3)
        assert not (tmp_path / "m.svg").exists()
