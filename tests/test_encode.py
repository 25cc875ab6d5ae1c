"""Dyadic codes, folding, tensor construction, and network views.

The bit and label tests read the array path ``build_tensor`` runs; the
oracle's one-bit-at-a-time labels check it event by event.  The
marginalization and adjacency tests lean on re-encoding oracles:
whatever the fast path produces must agree entry for entry with
encoding the same events directly at the coarser depth.
"""

import io
import itertools

import numpy as np
import pytest

from mrtensor.encode import (
    _quadrant_columns,
    adjacency_at_scale,
    build_tensor,
    chain_index,
    marginalize_to_scale,
    node_tile,
)
from mrtensor.ingest import EventTable, Replicate, parse_events
from mrtensor.sptensor import SparseCountTensor

from oracles import densify, quadrant_labels

NOT_GRIDS = [(3, 3, 2), (8, 8, 2), (4, 4, 4, 2), (2,)]


def one_entry(shape):
    return SparseCountTensor(shape, np.zeros((1, len(shape))), np.ones(1))


def table_from(rows):
    header = "replicate_id,team,minutes,x_o,y_o,x_d,y_d"
    return parse_events(io.StringIO("\n".join([header] + rows) + "\n"))


def random_table(rng, n_events=200, n_reps=3):
    rows = []
    for k in range(n_events):
        rid = f"m{rng.integers(n_reps) + 1}"
        x_o, x_d = rng.uniform(0, 115, size=2)
        y_o, y_d = rng.uniform(0, 74, size=2)
        rows.append(f"{rid},t_{rid},90,{x_o},{y_o},{x_d},{y_d}")
    return table_from(rows)


def quadrants_at(tiles, depth):
    """Labels of events at the centres of ``tiles``, rows of (x_o, y_o,
    x_d, y_d) tile indices at ``depth``."""
    return _quadrant_columns((np.atleast_2d(tiles) + 0.5) / 2**depth, depth)


def tile_bits(quadrants):
    """One event's labels as bits: rows (x_o, y_o, x_d, y_d), columns
    scales."""
    o, d = quadrants[0::2], quadrants[1::2]
    return np.stack([o & 1, o >> 1, d & 1, d >> 1])


class TestBinaryCode:
    def test_known_codes_depth_three(self):
        # Each tile alone on one mode carries its index in binary,
        # coarsest first, and leaves the other modes' bits zero.
        for tile, mode in itertools.product(range(8), range(4)):
            tiles = np.zeros(4, dtype=int)
            tiles[mode] = tile
            bits = tile_bits(quadrants_at(tiles, 3)[0])
            assert "".join(map(str, bits[mode])) == format(tile, "03b")
            assert bits.sum() == bits[mode].sum()

    def test_prefix_is_the_coarser_code(self):
        # The first 2s labels must locate the parent tiles at depth s;
        # every depth-5 tile appears on every mode.
        t = np.arange(32)
        tiles = np.column_stack([t, t[::-1], 5 * t % 32, 11 * t % 32])
        fine = quadrants_at(tiles, 5)
        for s in range(1, 5):
            coarse = _quadrant_columns((tiles + 0.5) / 32, s)
            np.testing.assert_array_equal(fine[:, : 2 * s], coarse)

    def test_out_of_range(self):
        for node, scales in ((16, 2), (-1, 2), (1, 0), (0, -1)):
            with pytest.raises(ValueError, match="out of range"):
                node_tile(node, scales)
        assert node_tile(0, 0) == (0, 0)
        for labels in ([[0, 5]], [[-1]], [[1.5]], [[np.nan]]):
            with pytest.raises(ValueError, match="quadrant labels"):
                chain_index(labels)
        with pytest.raises(ValueError, match=">= 1"):
            build_tensor(table_from(["m1,a,90,10,10,80,60"]), 0)


    def test_non_integer_scale_or_node(self):
        table = table_from(["m1,a,90,10,10,80,60"])
        t = build_tensor(table, 2)
        calls = [
            lambda: build_tensor(table, 2.0),
            lambda: marginalize_to_scale(t, 1.0),
            lambda: adjacency_at_scale(t, 0, 1.0),
            lambda: node_tile(1.0, 1),
            lambda: node_tile(1, 1.0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="integer"):
                call()
        assert build_tensor(table, np.int64(2)).shape == t.shape
        assert node_tile(np.int64(6), np.int64(2)) == (2, 1)


class TestEncodeEvent:
    def test_worked_example(self):
        # Tiles (1, 6, 4, 3) at depth 3.
        np.testing.assert_array_equal(
            tile_bits(quadrants_at([1, 6, 4, 3], 3)[0]),
            [
                [0, 0, 1],
                [1, 1, 0],
                [1, 0, 0],
                [0, 1, 1],
            ],
        )

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="n_events, 4"):
            EventTable((Replicate("m1", "a", 90.0),), [0], [[0.1, 0.2, 0.3]])


class TestFolding:
    def test_worked_example_pairs(self):
        # The same event as replicate 7's tensor entry, labels 1-based.
        replicates = tuple(Replicate(f"m{r}", "a", 90.0) for r in range(8))
        coords = (np.array([[1, 6, 4, 3]]) + 0.5) / 8
        (entry,) = build_tensor(EventTable(replicates, [7], coords), 3).indices
        pairs = tuple(zip(entry[0:6:2] + 1, entry[1:6:2] + 1))
        assert pairs == ((3, 2), (3, 3), (2, 3))
        assert entry[-1] == 7

    def test_all_sixteen_bit_pairs(self):
        # quadrant = x + 2 y over both origin and destination bits.
        bits = np.array(list(itertools.product((0, 1), repeat=4)))
        np.testing.assert_array_equal(
            quadrants_at(bits, 1),
            np.column_stack(
                [bits[:, 0] + 2 * bits[:, 1], bits[:, 2] + 2 * bits[:, 3]]
            ),
        )


class TestBuildTensor:
    def test_single_event_lands_in_one_cell(self):
        # Origin (10, 10) is the lower-left quadrant at scale 1; the
        # destination (80, 60) is upper-right.
        table = table_from(["m1,a,90,10,10,80,60"])
        t = build_tensor(table, 1)
        assert t.shape == (4, 4, 1)
        assert t.nnz == 1
        np.testing.assert_array_equal(t.indices[0], [0, 3, 0])
        assert t.counts[0] == 1

    def test_total_and_shape(self):
        rng = np.random.default_rng(11)
        table = random_table(rng, n_events=300)
        t = build_tensor(table, 3)
        assert t.shape == (4,) * 6 + (table.n_replicates,)
        assert t.total == 300

    def test_duplicate_events_accumulate(self):
        table = table_from(["m1,a,90,10,10,80,60"] * 5)
        t = build_tensor(table, 2)
        assert t.nnz == 1
        assert t.counts[0] == 5

    def test_empty_events_with_replicate(self):
        from mrtensor.ingest import EventTable, Replicate

        table = EventTable(
            (Replicate("m1", "a", 90.0),),
            np.empty(0, dtype=np.int64),
            np.empty((0, 4)),
        )
        t = build_tensor(table, 2)
        assert t.nnz == 0
        assert t.shape == (4, 4, 4, 4, 1)

    def test_deep_grid_counts_cells_exactly(self):
        # 4**32 cells per replicate overflow int64.
        table = table_from(["m1,a,90,10,10,80,60", "m2,b,90,5,5,9,9"])
        assert build_tensor(table, 16).n_cells == 4**32 * 2

    def test_depth_beyond_int64_tiles_rejected(self):
        table = table_from(["m1,a,90,10,10,80,60"])
        build_tensor(table, 63)
        with pytest.raises(ValueError, match="<= 63"):
            build_tensor(table, 64)

    def test_no_replicates_rejected(self):
        with pytest.raises(ValueError, match="no replicates"):
            build_tensor(table_from([]), 2)

    def test_agrees_with_scalar_path(self):
        # The vectorized bit extraction must match the oracle's labels,
        # taken one bit and one event at a time.
        rng = np.random.default_rng(5)
        table = random_table(rng, n_events=50)
        scales = 3
        t = build_tensor(table, scales)
        dense = np.zeros(t.shape, dtype=np.int64)
        for k in range(table.n_events):
            tiles = np.floor(table.coords[k] * 2**scales)
            cell = sum(quadrant_labels(tiles, scales), ())
            dense[cell + (table.replicate_index[k],)] += 1
        np.testing.assert_array_equal(densify(t), dense)


class TestMarginalization:
    def test_matches_direct_encoding(self):
        rng = np.random.default_rng(7)
        table = random_table(rng, n_events=400)
        fine = build_tensor(table, 3)
        for s in (1, 2, 3):
            coarse = marginalize_to_scale(fine, s)
            direct = build_tensor(table, s)
            np.testing.assert_array_equal(coarse.indices, direct.indices)
            np.testing.assert_array_equal(coarse.counts, direct.counts)

    def test_preserves_total(self):
        rng = np.random.default_rng(8)
        table = random_table(rng)
        fine = build_tensor(table, 4)
        assert marginalize_to_scale(fine, 2).total == fine.total

    def test_depth_out_of_range(self):
        table = table_from(["m1,a,90,10,10,80,60"])
        t = build_tensor(table, 2)
        with pytest.raises(ValueError):
            marginalize_to_scale(t, 3)
        with pytest.raises(ValueError):
            marginalize_to_scale(t, 0)

    @pytest.mark.parametrize("shape", NOT_GRIDS)
    def test_non_grid_rejected(self, shape):
        with pytest.raises(ValueError, match="quadrant pairs"):
            marginalize_to_scale(one_entry(shape), 1)


class TestChainedNodes:
    def test_chain_index_base_four(self):
        np.testing.assert_array_equal(
            chain_index(np.array([[0, 1], [3, 2]])), [1, 14]
        )
        np.testing.assert_array_equal(chain_index(np.array([[2]])), [2])

    def test_node_tile_small_cases(self):
        assert node_tile(0, 1) == (0, 0)
        assert node_tile(1, 1) == (1, 0)
        assert node_tile(2, 1) == (0, 1)
        assert node_tile(3, 1) == (1, 1)
        # digits (1, 2): x bits (1, 0), y bits (0, 1)
        assert node_tile(6, 2) == (2, 1)

    def test_node_tile_inverts_coordinate_chaining(self):
        for scales in (1, 2, 3):
            for node in range(4**scales):
                tx, ty = node_tile(node, scales)
                digits = [
                    ((tx >> (scales - 1 - s)) & 1)
                    + 2 * ((ty >> (scales - 1 - s)) & 1)
                    for s in range(scales)
                ]
                assert chain_index(np.array([digits]))[0] == node


class TestAdjacency:
    def test_hand_counts(self):
        table = table_from(
            [
                "m1,a,90,10,10,80,60",
                "m1,a,90,10,10,80,60",
                "m1,a,90,80,60,10,10",
                "m2,b,90,10,10,80,60",
            ]
        )
        t = build_tensor(table, 1)
        a1 = adjacency_at_scale(t, 0, 1)
        assert a1[0, 3] == 2
        assert a1[3, 0] == 1
        assert a1.sum() == 3
        a2 = adjacency_at_scale(t, 1, 1)
        assert a2.sum() == 1

    def test_parent_edge_sums_sixteen_children(self):
        rng = np.random.default_rng(13)
        table = random_table(rng, n_events=500, n_reps=2)
        t = build_tensor(table, 3)
        for rep in range(2):
            for s in (2, 3):
                fine = adjacency_at_scale(t, rep, s)
                coarse = adjacency_at_scale(t, rep, s - 1)
                folded = fine.reshape(
                    4 ** (s - 1), 4, 4 ** (s - 1), 4
                ).sum(axis=(1, 3))
                np.testing.assert_array_equal(folded, coarse)

    def test_row_sums_count_origin_activity(self):
        table = table_from(
            ["m1,a,90,10,10,80,60", "m1,a,90,12,11,80,60"]
        )
        t = build_tensor(table, 1)
        a = adjacency_at_scale(t, 0, 1)
        assert a.sum(axis=1)[0] == 2

    def test_bad_arguments(self):
        table = table_from(["m1,a,90,10,10,80,60"])
        t = build_tensor(table, 2)
        with pytest.raises(ValueError):
            adjacency_at_scale(t, 0, 3)
        with pytest.raises(ValueError):
            adjacency_at_scale(t, 5, 1)
        with pytest.raises(ValueError, match="integer"):
            adjacency_at_scale(t, 0.5, 1)

    @pytest.mark.parametrize("shape", NOT_GRIDS)
    def test_non_grid_rejected(self, shape):
        # Modes of size 3 or 8, or an odd count, are not quadrant pairs.
        with pytest.raises(ValueError, match="quadrant pairs"):
            adjacency_at_scale(one_entry(shape), 0, 1)
