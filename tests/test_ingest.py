"""Parsing, standardization, and exposure bookkeeping."""

import io
import math

import numpy as np
import pytest

from mrtensor.ingest import (
    EventTable,
    FieldGeometry,
    Replicate,
    exposure_factors,
    parse_events,
    team_minutes,
)

BELOW_ONE = np.nextafter(1.0, 0.0)


def make_csv(rows, header="replicate_id,team,minutes,x_o,y_o,x_d,y_d"):
    return io.StringIO("\n".join([header] + rows) + "\n")


class TestParsing:
    def test_basic_round_trip(self):
        table = parse_events(
            make_csv(
                [
                    "m1,alpha,96,10,10,50,40",
                    "m1,alpha,96,50,40,90,60",
                    "m2,beta,90,20,30,60,50",
                ]
            )
        )
        assert table.n_events == 3
        assert table.n_replicates == 2
        assert [r.replicate_id for r in table.replicates] == ["m1", "m2"]
        assert table.replicates[0].team == "alpha"
        assert table.replicates[1].minutes == 90.0
        np.testing.assert_allclose(
            table.coords[0], [10 / 115, 10 / 74, 50 / 115, 40 / 74]
        )
        np.testing.assert_array_equal(table.replicate_index, [0, 0, 1])

    def test_midfield_lands_on_one_half(self):
        table = parse_events(make_csv(["m1,a,90,57.5,37,57.5,37"]))
        np.testing.assert_array_equal(table.coords[0], [0.5, 0.5, 0.5, 0.5])

    def test_geometry_override(self):
        geom = FieldGeometry(length=100.0, width=50.0)
        table = parse_events(make_csv(["m1,a,90,25,25,75,25"]), geom)
        np.testing.assert_allclose(table.coords[0], [0.25, 0.5, 0.75, 0.5])

    def test_events_iterator_matches_rows(self):
        table = parse_events(
            make_csv(["m1,a,90,10,10,50,40", "m2,b,45,20,30,60,50"])
        )
        events = list(table.events())
        assert [e.replicate_id for e in events] == ["m1", "m2"]
        assert events[1].x_d == pytest.approx(60 / 115)

    def test_replicate_with_no_events_is_not_representable_by_csv(self):
        # The CSV format only declares replicates through their events,
        # but the table itself supports empty replicates.
        table = EventTable(
            (Replicate("m1", "a", 90.0),),
            np.empty(0, dtype=np.int64),
            np.empty((0, 4)),
        )
        assert table.n_events == 0
        assert table.n_replicates == 1

    def test_header_only_source(self):
        table = parse_events(make_csv([]))
        assert table.n_events == 0
        assert table.n_replicates == 0


class TestStandardization:
    def test_far_boundary_clamps_below_one(self):
        table = parse_events(make_csv(["m1,a,90,115,74,115,74"]))
        np.testing.assert_array_equal(table.coords[0], [BELOW_ONE] * 4)

    def test_near_boundary_within_tolerance_clamps(self):
        table = parse_events(
            make_csv(["m1,a,90,115.0000005,-0.0000005,0,0"])
        )
        assert table.coords[0, 0] == BELOW_ONE
        assert table.coords[0, 1] == 0.0

    def test_beyond_tolerance_rejected(self):
        with pytest.raises(ValueError, match="x_o"):
            parse_events(make_csv(["m1,a,90,115.1,0,0,0"]))
        with pytest.raises(ValueError, match="y_d"):
            parse_events(make_csv(["m1,a,90,0,0,0,-1"]))

    def test_right_to_left_mirrors_x_only(self):
        geom = FieldGeometry(attack_direction="right_to_left")
        table = parse_events(make_csv(["m1,a,90,10,10,80,60"]), geom)
        np.testing.assert_allclose(
            table.coords[0], [105 / 115, 10 / 74, 35 / 115, 60 / 74]
        )

    def test_mirrored_origin_boundary_stays_in_range(self):
        geom = FieldGeometry(attack_direction="right_to_left")
        table = parse_events(make_csv(["m1,a,90,0,0,115,74"]), geom)
        assert table.coords[0, 0] == BELOW_ONE
        assert table.coords[0, 2] == 0.0


class TestValidation:
    def test_missing_column_named(self):
        src = make_csv(["m1,a,90,1,2,3"], header="replicate_id,team,minutes,x_o,y_o,x_d")
        with pytest.raises(ValueError, match="y_d"):
            parse_events(src)

    def test_malformed_row_carries_line_number(self):
        src = make_csv(["m1,a,90,10,10,50,40", "m1,a,90,oops,10,50,40"])
        with pytest.raises(ValueError, match="line 3"):
            parse_events(src)

    def test_conflicting_replicate_metadata(self):
        src = make_csv(["m1,a,90,10,10,50,40", "m1,b,90,10,10,50,40"])
        with pytest.raises(ValueError, match="redeclared"):
            parse_events(src)

    def test_nonpositive_minutes(self):
        with pytest.raises(ValueError, match="minutes"):
            parse_events(make_csv(["m1,a,0,10,10,50,40"]))

    def test_table_rejects_out_of_range_coords(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            EventTable(
                (Replicate("m1", "a", 90.0),),
                np.array([0]),
                np.array([[0.1, 0.2, 1.0, 0.3]]),
            )

    def test_table_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            EventTable(
                (Replicate("m1", "a", 90.0), Replicate("m1", "a", 45.0)),
                np.empty(0, dtype=np.int64),
                np.empty((0, 4)),
            )

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            FieldGeometry(length=0.0)
        with pytest.raises(ValueError):
            FieldGeometry(attack_direction="sideways")


class TestExposure:
    def test_team_minutes_sums_replicates(self):
        table = parse_events(
            make_csv(
                [
                    "m1,alpha,96,10,10,50,40",
                    "m2,alpha,93,10,10,50,40",
                    "m3,beta,90,10,10,50,40",
                ]
            )
        )
        assert team_minutes(table) == {"alpha": 189.0, "beta": 90.0}

    def test_explicit_reference(self):
        table = parse_events(
            make_csv(
                [
                    "m1,alpha,384.875,10,10,50,40",
                    "m2,beta,769.75,10,10,50,40",
                ]
            )
        )
        factors = exposure_factors(table, reference_minutes=384.875)
        assert factors["m1"] == pytest.approx(1.0)
        assert factors["m2"] == pytest.approx(0.5)

    def test_default_reference_is_mean_team_total(self):
        table = parse_events(
            make_csv(
                [
                    "m1,alpha,100,10,10,50,40",
                    "m2,alpha,100,10,10,50,40",
                    "m3,beta,100,10,10,50,40",
                ]
            )
        )
        # Team totals are 200 and 100, so the reference is 150.
        factors = exposure_factors(table)
        assert factors["m1"] == pytest.approx(1.5)
        assert factors["m3"] == pytest.approx(1.5)

    def test_bad_reference(self):
        table = parse_events(make_csv(["m1,a,90,10,10,50,40"]))
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                exposure_factors(table, reference_minutes=bad)
