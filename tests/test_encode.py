"""Dyadic codes, folding, tensor construction, and network views.

The marginalization and adjacency tests lean on re-encoding oracles:
whatever the fast path produces must agree entry for entry with
encoding the same events directly at the coarser depth.
"""

import io

import numpy as np
import pytest

from mrtensor.encode import (
    adjacency_at_scale,
    binary_code,
    build_tensor,
    chain_index,
    decode_binary_code,
    encode_event,
    fold_to_multiindex,
    marginalize_to_scale,
    node_tile,
)
from mrtensor.ingest import parse_events
from mrtensor.sptensor import SparseCountTensor

from oracles import densify

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


class TestBinaryCode:
    def test_known_codes_depth_three(self):
        assert binary_code(1, 3) == (0, 0, 1)
        assert binary_code(6, 3) == (1, 1, 0)
        assert binary_code(4, 3) == (1, 0, 0)
        assert binary_code(3, 3) == (0, 1, 1)

    def test_round_trip_is_exact_for_shallow_depths(self):
        for scales in range(1, 7):
            for i in range(2**scales):
                bits = binary_code(i, scales)
                assert len(bits) == scales
                assert decode_binary_code(bits) == i

    def test_prefix_is_the_coarser_code(self):
        # Truncating the bit string must locate the parent tile.
        for i in range(2**5):
            bits = binary_code(i, 5)
            for s in range(1, 5):
                assert bits[:s] == binary_code(i >> (5 - s), s)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_code(8, 3)
        with pytest.raises(ValueError):
            binary_code(-1, 3)
        with pytest.raises(ValueError):
            binary_code(0, 0)
        with pytest.raises(ValueError):
            decode_binary_code((0, 2))


class TestEncodeEvent:
    def test_worked_example(self):
        m = encode_event((1, 6, 4, 3), 3)
        np.testing.assert_array_equal(
            m,
            [
                [0, 0, 1],
                [1, 1, 0],
                [1, 0, 0],
                [0, 1, 1],
            ],
        )

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            encode_event((1, 2, 3), 3)


class TestFolding:
    def test_worked_example_pairs(self):
        m = encode_event((1, 6, 4, 3), 3)
        mi = fold_to_multiindex(m, replicate=7)
        assert mi.pairs == ((3, 2), (3, 3), (2, 3))
        assert mi.flat() == (3, 2, 3, 3, 2, 3, 7)

    def test_all_sixteen_bit_pairs(self):
        # quadrant = x + 2 y + 1 over both origin and destination bits.
        for xo in (0, 1):
            for yo in (0, 1):
                for xd in (0, 1):
                    for yd in (0, 1):
                        m = np.array([[xo], [yo], [xd], [yd]])
                        (pair,) = fold_to_multiindex(m, 0).pairs
                        assert pair == (xo + 2 * yo + 1, xd + 2 * yd + 1)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            fold_to_multiindex(np.full((4, 2), 3), 0)
        with pytest.raises(ValueError):
            fold_to_multiindex(np.zeros((3, 2), dtype=int), 0)


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
        # The vectorized bit extraction must match encoding events one
        # at a time through the scalar helpers.
        rng = np.random.default_rng(5)
        table = random_table(rng, n_events=50)
        scales = 3
        t = build_tensor(table, scales)
        dense = np.zeros(t.shape, dtype=np.int64)
        for k in range(table.n_events):
            tiles = np.floor(table.coords[k] * 2**scales).astype(int)
            mi = fold_to_multiindex(
                encode_event(tiles, scales), int(table.replicate_index[k])
            )
            flat = tuple(v - 1 for v in mi.flat()[:-1]) + (mi.replicate,)
            dense[flat] += 1
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

    @pytest.mark.parametrize("shape", NOT_GRIDS)
    def test_non_grid_rejected(self, shape):
        # Modes of size 3 or 8, or an odd count, are not quadrant pairs.
        with pytest.raises(ValueError, match="quadrant pairs"):
            adjacency_at_scale(one_entry(shape), 0, 1)
