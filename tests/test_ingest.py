"""Parsing, standardization, and exposure bookkeeping.

The array parser is checked against ``oracles.parse_events_rows``, which
reads the same text one ``csv.DictReader`` row at a time.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrtensor.ingest import (
    EventTable,
    FieldGeometry,
    Replicate,
    parse_events,
    team_minutes,
)
from oracles import EVENT_COLUMNS, parse_events_rows

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = make_csv(["m1,Côte d’Ivoire,96,10,10,50,40",
                         "m2,b,90,20,30,60,50"]).getvalue()
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        want = _package(plain, FieldGeometry())
        got = _package(marked, FieldGeometry())
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_midfield_lands_on_one_half(self):
        table = parse_events(make_csv(["m1,a,90,57.5,37,57.5,37"]))
        np.testing.assert_array_equal(table.coords[0], [0.5, 0.5, 0.5, 0.5])

    def test_geometry_override(self):
        geom = FieldGeometry(length=100.0, width=50.0)
        table = parse_events(make_csv(["m1,a,90,25,25,75,25"]), geom)
        np.testing.assert_allclose(table.coords[0], [0.25, 0.5, 0.75, 0.5])

    def test_event_rows_match_csv_rows(self):
        table = parse_events(
            make_csv(["m1,a,90,10,10,50,40", "m2,b,45,20,30,60,50"])
        )
        ids = [table.replicates[k].replicate_id for k in table.replicate_index]
        assert ids == ["m1", "m2"]
        assert table.coords[1, 2] == pytest.approx(60 / 115)

    def test_underscore_numbers_read_as_float_reads_them(self):
        rows = ["m1,a,9_6,1_0,1_0,5_0,4_0", "m2,b,4_5.5,2_0,3_0,6_0,5_0"]
        plain = parse_events(make_csv([r.replace("_", "") for r in rows]))
        spelled = parse_events(make_csv(rows))
        assert spelled.replicates == plain.replicates
        np.testing.assert_array_equal(spelled.replicate_index,
                                      plain.replicate_index)
        np.testing.assert_array_equal(spelled.coords, plain.coords)

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

    def test_off_field_message_prints_a_plain_number(self):
        message = ("x_o coordinate 116.0 outside [0, 115.0] "
                   "beyond tolerance 1e-06")
        for parse in (parse_events, parse_events_rows):
            with pytest.raises(ValueError) as exc:
                parse(make_csv(["m1,a,90,116,0,0,0"]), FieldGeometry())
            assert str(exc.value) == message

    @pytest.mark.parametrize("row, message", [
        ("m1,a,90,200,0,0,0", "x_o coordinate 200.0 outside [0, 115.0]"),
        ("m1,a,90,0,0,-50,0", "x_d coordinate -50.0 outside [0, 115.0]"),
    ])
    @pytest.mark.parametrize("direction", ["left_to_right", "right_to_left"])
    def test_off_field_x_rejected_in_either_direction(
        self, row, message, direction
    ):
        # The raw value is checked before the mirror, so the message
        # names it as written.
        geom = FieldGeometry(attack_direction=direction)
        for parse in (parse_events, parse_events_rows):
            with pytest.raises(ValueError) as exc:
                parse(make_csv([row]), geom)
            assert str(exc.value) == message + " beyond tolerance 1e-06"

    @pytest.mark.parametrize("direction", ["left_to_right", "right_to_left"])
    def test_non_finite_coordinate_rejected(self, direction):
        geom = FieldGeometry(attack_direction=direction)
        for row in ("m1,a,90,nan,0,0,0", "m1,a,90,inf,0,0,0"):
            for parse in (parse_events, parse_events_rows):
                with pytest.raises(ValueError) as exc:
                    parse(make_csv([row]), geom)
                assert str(exc.value) == "non-finite x_o coordinate"

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

    @pytest.mark.parametrize("lead", ["\n", "\r\n\n"])
    def test_blank_lines_before_header_are_skipped(self, lead):
        # The header is the first non-blank row, and line 1, as in the
        # rates CSV; the bad row after it is line 3.
        header = "replicate_id,team,minutes,x_o,y_o,x_d,y_d"
        for parse in (_package, parse_events_rows):
            _, _, coords = parse(make_csv(["m1,a,90,10,10,50,40"],
                                          header=lead + header),
                                 FieldGeometry())
            assert coords.shape == (1, 4)
            with pytest.raises(ValueError) as exc:
                parse(make_csv(["m1,a,90,10,10,50,40", "m1,a,90,oops,1,2,3"],
                               header=lead + header), FieldGeometry())
            assert str(exc.value).startswith("line 3: malformed row")

    def test_only_blank_lines_is_an_empty_source(self):
        for parse in (parse_events, parse_events_rows):
            with pytest.raises(ValueError, match="empty source"):
                parse(io.StringIO("\n\r\n\n"), FieldGeometry())

    def test_malformed_row_carries_line_number(self):
        src = make_csv(["m1,a,90,10,10,50,40", "m1,a,90,oops,10,50,40"])
        with pytest.raises(ValueError, match="line 3"):
            parse_events(src)

    def test_overlong_field_is_a_malformed_row(self):
        # Read whole, a long field that is not a number is a malformed
        # row like any other, named by its own line.
        big = '"' + "a" * 200_000 + '"'
        src = make_csv(["m1,a,90,10,10,50,40", "m1,a,90,10,10,50," + big])
        with pytest.raises(ValueError) as exc:
            parse_events(src)
        assert str(exc.value).startswith(
            "line 3: malformed row (could not convert string to float"
        )

    def test_overlong_field_reads_both_ways(self):
        # numpy reads a field of any length, and so does csv when a
        # number needs float(): a bad row after a long field is named
        # by its own line.  csv's own limit is left as it was.
        limit = csv.field_size_limit()
        big = '"' + " " * 200_000 + '5"'
        header = "replicate_id,team,minutes,x_o,y_o,x_d,y_d," + big
        table = parse_events(make_csv(["m1,a,90,10,10,50," + big],
                                      header=header))
        assert table.coords[0, 3] == 5 / 74
        table = parse_events(make_csv(["m1,a,90,1_0,10,50," + big]))
        assert table.coords[0, 0] == 10 / 115
        assert table.coords[0, 3] == 5 / 74
        with pytest.raises(ValueError) as exc:
            parse_events(make_csv(["m1,a,90,10,10,50," + big,
                                   "m1,a,90,oops,10,50,40"]))
        assert str(exc.value) == (
            "line 3: malformed row (could not convert string to float: "
            "'oops')"
        )
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("rows, prefix", [
        (["m1,a,90,10,10,50,40", "m1,a,90,10,10,50," + "y" * 200_000],
         "line 3: malformed row (could not convert string to float: "),
        (["y" * 200_000 + ",a,90,10,10,50,40",
          "y" * 200_000 + ",b,90,10,10,50,40"],
         "line 3: replicate "),
    ], ids=["non-number", "redeclared id"])
    def test_long_cell_is_cut_in_the_message(self, rows, prefix):
        # A row error quotes at most 80 characters of a cell.
        with pytest.raises(ValueError) as exc:
            parse_events(make_csv(rows))
        message = str(exc.value)
        assert message.startswith(prefix + "'" + "y" * 80 + "'...")
        assert len(message) < 200
        # The row oracle agrees on a cell within csv's field limit.
        rows = [row.replace("y" * 200_000, "y" * 1_000) for row in rows]
        for parse in (parse_events, parse_events_rows):
            with pytest.raises(ValueError) as exc:
                parse(make_csv(rows), FieldGeometry())
            assert str(exc.value) == message

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

    def test_table_rejects_fractional_replicate_index(self):
        reps = (Replicate("m1", "a", 90.0), Replicate("m2", "b", 90.0))
        coords = [[0.1] * 4, [0.2] * 4]
        with pytest.raises(ValueError, match="replicate indices must be"):
            EventTable(reps, [0.9, 1.5], coords)
        # Integral values pass, and int64 input is kept without a copy.
        table = EventTable(reps, [1.0, 0.0], coords)
        assert table.replicate_index.tolist() == [1, 0]
        index = np.array([0, 1], dtype=np.int64)
        assert EventTable(reps, index, coords).replicate_index is index

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
        for bad in ({"length": np.inf}, {"width": np.inf},
                    {"length": np.nan}):
            with pytest.raises(ValueError, match="positive and finite"):
                FieldGeometry(**bad)
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


# Cell texts the generator mixes: ids with commas, quotes, embedded
# newlines, a leading '#', padding, a NUL or a character numpy's number
# parser strips; numbers float() rejects; junk for columns the parser
# ignores.
IDS = ["m1", "m2", "#m3", "a,b", 'q"q', "x\ny", "r\r\ns", " m4 ", "", "é\x00",
       "m\x1c5"]
TEAMS = ["alpha", "beta", "#g", "c,d", " e "]
MINUTES = [90.0, 96.5, 45.0, 1e-3]
BAD_MINUTES = [0.0, -1.0, float("nan"), float("inf")]
BAD_CELLS = ["oops", "", "1x", "1__0", "5\x00", "0x10", "--1", "\x1c5", "5\x1f"]
JUNK = ["", "x", "#c", '"', "1,2", "note\nmore"]
# Coordinates as fractions of the field: edges, and just past them
# within and beyond the boundary tolerance.
EDGES = [0.0, 1.0, 1.0 + 4e-9, -4e-9]
OUTSIDE = [1.001, -0.01]
FAULTS = [None] * 4 + [
    "missing column", "bad minutes", "conflict", "outside field",
    "bad cell", "short row", "unclosed quote", "whitespace line",
    "padded number",
]
# numpy's number parser strips these; float() rejects them.
NUMPY_PADDING = "\x1c\x1d\x1e\x1f"


def _number_text(draw, value):
    """One spelling of ``value`` that float() reads back exactly."""
    text = repr(value)
    style = draw(st.sampled_from(
        ["repr", "padded", "nbsp", "underscore", "fullwidth", "int"]
    ))
    if style == "padded":
        return f" {text} "
    if style == "nbsp":
        return f"\xa0{text}\xa0"
    if style == "underscore" and text[:2].isdigit():
        return text[0] + "_" + text[1:]
    if style == "fullwidth" and text[0].isdigit():
        return chr(ord("０") + int(text[0])) + text[1:]
    if style == "int" and math.isfinite(value) and value == int(value):
        return str(int(value))
    return text


def _field(draw, text):
    """CSV spelling of one cell: quoted when it must be, or at random."""
    if any(c in text for c in ',"\r\n') or draw(st.integers(0, 5)) == 0:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def events_files(draw):
    """Events CSV text: columns reordered and padded with extra or
    repeated names, LF or CRLF rows, blank lines, and up to two faults."""
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2))
    columns = list(EVENT_COLUMNS)
    if "missing column" in faults:
        columns.remove(draw(st.sampled_from(columns)))
    extra = draw(st.lists(st.sampled_from(["note", "team", "x_o"]), max_size=2))
    header = draw(st.permutations(columns + extra))
    replicates = draw(st.lists(
        st.tuples(st.sampled_from(IDS), st.sampled_from(TEAMS),
                  st.sampled_from(MINUTES)),
        min_size=1, max_size=3, unique_by=lambda rep: rep[0],
    ))
    if "bad minutes" in faults:
        rid, team, _ = replicates.pop()
        replicates.append((rid, team, draw(st.sampled_from(BAD_MINUTES))))
    if "conflict" in faults:
        replicates.append((replicates[0][0], draw(st.sampled_from(TEAMS)),
                           draw(st.sampled_from(MINUTES))))

    n_rows = draw(st.integers(0, 8) if faults == [None] else st.integers(1, 8))
    row_of = {f: draw(st.integers(0, max(n_rows - 1, 0))) for f in faults}
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(_field(draw, name) for name in header)]
    for k in range(n_rows):
        fault = next((f for f in faults if row_of[f] == k), None)
        rid, team, minutes = draw(st.sampled_from(replicates))
        cells = {"replicate_id": rid, "team": team,
                 "minutes": _number_text(draw, minutes)}
        for name, size in zip(EVENT_COLUMNS[3:], (115.0, 74.0) * 2):
            scaled = draw(st.one_of(st.floats(0.0, 1.0),
                                    st.sampled_from(EDGES)))
            cells[name] = _number_text(draw, scaled * size)
        if fault == "outside field":
            name = draw(st.sampled_from(EVENT_COLUMNS[3:]))
            size = 74.0 if name.startswith("y") else 115.0
            cells[name] = repr(draw(st.sampled_from(OUTSIDE)) * size)
        if fault == "padded number":
            name = draw(st.sampled_from(("minutes",) + EVENT_COLUMNS[3:]))
            pad = draw(st.sampled_from(NUMPY_PADDING))
            cells[name] = draw(st.sampled_from(
                [pad + cells[name], cells[name] + pad]))
        row = [
            _field(draw, cells[name] if name in cells
                   else draw(st.sampled_from(JUNK)))
            for name in header
        ]
        at = draw(st.integers(0, len(row) - 1))
        if fault == "bad cell":
            row[at] = _field(draw, draw(st.sampled_from(BAD_CELLS)))
        elif fault == "short row":
            row = row[:at]
        elif fault == "unclosed quote":
            row[at] = '"unclosed'
        elif fault == "whitespace line":
            lines.append("  ")
        lines.append(",".join(row))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(parse, text, geometry):
    try:
        return parse(io.StringIO(text, newline=""), geometry)
    except ValueError as exc:
        return str(exc)


def _package(source, geometry):
    table = parse_events(source, geometry)
    reps = [(r.replicate_id, r.team, r.minutes) for r in table.replicates]
    return reps, table.replicate_index, table.coords


class TestAgainstRowOracle:
    """Both parsers read the text as a file opened with newline=''."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(
        events_files(),
        st.sampled_from([FieldGeometry(),
                         FieldGeometry(attack_direction="right_to_left")]),
    )
    def test_same_table_or_same_message(self, text, geometry):
        got = _outcome(_package, text, geometry)
        want = _outcome(parse_events_rows, text, geometry)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        assert got[0] == want[0]
        assert all(type(r[2]) is float for r in got[0])
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("text, message", [
        ("m1,a,90,1,2,3,4\nm1,a,90,1,2,3\n",
         "line 3: malformed row (no y_d cell)"),
        ("m1,a,oops\n", "line 2: malformed row (no x_o cell)"),
        ("m1,a,0,1,2,3,4\nm1,a,90,1,2,3\n",
         "line 2: minutes must be positive"),
        ("m1,a,90,1,2,3,4\n\nm1,a,90,1_0,2,3,4x\n",
         "line 3: malformed row (could not convert string to float: '4x')"),
        ('m1,a,90,1,2,3,4\n"m\n1",a,90,1,2,3,4\nm1,b,90,1,2,3,4\n',
         "line 4: replicate 'm1' redeclared with different team or minutes"),
        ("m1,a,0,1,2,3,4\nm1,a,90,oops,2,3,4\n",
         "line 2: minutes must be positive"),
        ("m1,a,90,1,2,3,4\nm1,a,90,1,2,3\x1f,4\n",
         "line 3: malformed row (could not convert string to float: "
         "'3\\x1f')"),
    ], ids=["short row", "cell count before numbers",
            "earlier row before short row", "after blank line",
            "after quoted newline", "earlier row first",
            "padding numpy strips"])
    def test_first_bad_row_is_named(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_events(make_csv([text.rstrip("\n")]))
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            parse_events_rows(make_csv([text.rstrip("\n")]), FieldGeometry())
        assert str(exc.value) == message

    def test_row_without_team_cell_is_malformed(self):
        src = "replicate_id,minutes,x_o,y_o,x_d,y_d,team\nm1,90,1,2,3,4\n"
        for parse in (parse_events, parse_events_rows):
            with pytest.raises(ValueError) as exc:
                parse(io.StringIO(src), FieldGeometry())
            assert str(exc.value) == "line 2: malformed row (no team cell)"


# Ids a, b, a, c, b: every row is its own run of one id.
INTERLEAVED = ["a,t1,90,1,2,3,4", "b,t2,80,5,6,7,8", "a,t1,90,9,9,9,9",
               "c,t1,70,1,1,1,1", "b,t2,80,2,2,2,2"]


class TestReplicateRuns:
    """Replicate ids are factorized one run of equal ids at a time, but
    each row is still checked against its replicate's first row."""

    @pytest.mark.parametrize("rows", [INTERLEAVED, []],
                             ids=["interleaved", "header only"])
    def test_same_table_as_row_oracle(self, rows):
        got = _package(make_csv(rows), FieldGeometry())
        want = parse_events_rows(make_csv(rows), FieldGeometry())
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_interleaved_ids_in_first_appearance_order(self):
        reps, index, _ = _package(make_csv(INTERLEAVED), FieldGeometry())
        assert reps == [("a", "t1", 90.0), ("b", "t2", 80.0),
                        ("c", "t1", 70.0)]
        np.testing.assert_array_equal(index, [0, 1, 0, 2, 1])

    @pytest.mark.parametrize("rows, message", [
        (["a,t1,90,1,2,3,4", "a,t1,90,5,6,7,8", "a,t2,90,9,9,9,9"],
         "line 4: replicate 'a' redeclared with different team or minutes"),
        (["b,t1,80,1,2,3,4", "a,t1,90,1,2,3,4", "a,t1,90,5,6,7,8",
          "a,t1,91,9,9,9,9", "a,t2,90,1,1,1,1"],
         "line 5: replicate 'a' redeclared with different team or minutes"),
    ], ids=["team", "minutes"])
    def test_conflict_inside_a_run_is_named_at_its_row(self, rows, message):
        for parse in (parse_events, parse_events_rows):
            with pytest.raises(ValueError) as exc:
                parse(make_csv(rows), FieldGeometry())
            assert str(exc.value) == message
