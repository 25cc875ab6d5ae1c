"""Event ingestion and field standardization.

Raw pass records carry physical pitch coordinates for the origin and
destination of each completed pass, plus the replicate (team, match, or
team-tournament aggregate) the pass belongs to.  Everything downstream
works on the unit square, so parsing rescales coordinates by the field
geometry and normalizes the attack direction to left-to-right.

Standardized coordinates live in [0, 1): a coordinate that lands exactly
on the far boundary is clamped to the largest float strictly below 1 so
that tile indices at any dyadic scale stay in range.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sptensor import _int64

_COLUMNS = ("replicate_id", "team", "minutes", "x_o", "y_o", "x_d", "y_d")
# One parsed row: the two labels as str, the five numbers as float.
_ROW = np.dtype([(c, object if k < 2 else np.float64)
                 for k, c in enumerate(_COLUMNS)])
# numpy's number parser strips these as padding; float() rejects them.
_NUMPY_PADDING = "\x1c\x1d\x1e\x1f"

# Physical slack (field units) tolerated outside the boundary before a
# coordinate is considered invalid rather than clamped.
_BOUNDARY_TOL = 1e-6

_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class FieldGeometry:
    """Pitch dimensions and the direction of play in the raw data."""

    length: float = 115.0
    width: float = 74.0
    attack_direction: str = "left_to_right"

    def __post_init__(self):
        if not (0 < self.length < math.inf and 0 < self.width < math.inf):
            raise ValueError("field dimensions must be positive and finite")
        if self.attack_direction not in ("left_to_right", "right_to_left"):
            raise ValueError(
                f"unknown attack_direction {self.attack_direction!r}"
            )


@dataclass(frozen=True)
class Replicate:
    """One replicate's id, its team and the minutes it covers."""

    replicate_id: str
    team: str
    minutes: float


@dataclass
class EventTable:
    """Standardized events plus replicate metadata.

    ``coords`` is an (n_events, 4) float array with columns
    (x_o, y_o, x_d, y_d), all in [0, 1).  ``replicate_index`` maps each
    event to its row in ``replicates``.  Replicates are kept in first
    appearance order; a replicate may have zero events.
    """

    replicates: tuple[Replicate, ...]
    replicate_index: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        idx = _int64(self.replicate_index, "replicate indices")
        coords = np.asarray(self.coords, dtype=np.float64)
        self.replicate_index, self.coords = idx, coords
        if coords.ndim != 2 or coords.shape[1] != 4:
            raise ValueError("coords must be (n_events, 4)")
        if idx.shape != (coords.shape[0],):
            raise ValueError("replicate_index length must match coords")
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        if coords.min(initial=0.0) < 0.0 or coords.max(initial=0.0) >= 1.0:
            raise ValueError("standardized coordinates must lie in [0, 1)")
        if idx.min(initial=0) < 0 or idx.max(initial=-1) >= self.n_replicates:
            raise ValueError("event references an unknown replicate")
        for rep in self.replicates:
            if not (rep.minutes > 0 and math.isfinite(rep.minutes)):
                raise ValueError(
                    f"replicate {rep.replicate_id!r} needs positive minutes"
                )
        ids = [rep.replicate_id for rep in self.replicates]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate replicate_id")

    @property
    def n_events(self) -> int:
        return self.coords.shape[0]

    @property
    def n_replicates(self) -> int:
        return len(self.replicates)


def _standardize_axis(values, size, label, mirror=False):
    """Check raw values; map [0, size] to [0, 1), reversed if mirror."""
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite {label} coordinate")
    bad = (v < -_BOUNDARY_TOL) | (v > size + _BOUNDARY_TOL)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"{label} coordinate {float(v[j])} outside [0, {size}] "
            f"beyond tolerance {_BOUNDARY_TOL}"
        )
    if mirror:
        v = size - v
    u = np.clip(v, 0.0, size) / size
    # Exact-boundary passes are kept in the last tile, not dropped.
    return np.minimum(u, _BELOW_ONE)


@contextlib.contextmanager
def _any_field_size():
    # csv then reads a field of any length, as numpy does; parse_events
    # holds the whole file in memory anyway.
    old = csv.field_size_limit(2**31 - 1)
    try:
        yield
    finally:
        csv.field_size_limit(old)


@_any_field_size()
def parse_events(source, geometry: FieldGeometry | None = None) -> EventTable:
    """Parse a pass-event CSV into a standardized EventTable.

    ``source`` is a path (UTF-8) or a text file object.  Its header names the
    columns ``replicate_id,team,minutes,x_o,y_o,x_d,y_d`` (physical
    coordinates) in any order; other columns are ignored, and a name
    given twice means its last column.  Fields are comma-separated and
    may be double-quoted to hold commas, newlines or doubled quotes.
    Blank lines are skipped; there is no comment character, so a field
    may start with ``#``.  Numbers are read as Python's ``float``
    reads them (``" 5 "`` and ``1_0`` included).  If the geometry says
    the data attack right-to-left, x is mirrored after its range check
    so every parsed table attacks left-to-right.

    The body is tokenized once by numpy.  A file numpy cannot read, one
    with a malformed row or a number only ``float`` reads (``1_0``,
    non-ASCII digits), is read again row by row with ``csv`` and
    ``float``.

    Raises ValueError on missing columns, a malformed row (too short,
    a number ``float`` rejects, or a field ``csv`` cannot read),
    non-positive minutes, conflicting metadata for one replicate_id,
    or coordinates outside the field beyond tolerance.
    A row error names ``line N``: the header is line 1 and each
    non-blank row one more.  It quotes at most 80 characters of a cell.
    """
    geometry = geometry or FieldGeometry()
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, encoding="utf-8-sig", newline="") as handle:
            return parse_events(handle, geometry)

    try:
        header = next(csv.reader(source), None)
    except csv.Error as exc:
        raise ValueError(f"line 1: malformed row ({exc})") from None
    if header is None:
        raise ValueError("empty source: no header row")
    missing = [c for c in _COLUMNS if c not in header]
    if missing:
        raise ValueError(f"missing columns: {', '.join(missing)}")
    column = {name: k for k, name in enumerate(header)}
    usecols = [column[c] for c in _COLUMNS]
    body = source.read()
    rows = None
    if not any(c in body for c in _NUMPY_PADDING):
        try:
            with warnings.catch_warnings():
                # loadtxt warns about blank lines and an empty body.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(
                    io.StringIO(body, newline=""), _ROW, delimiter=",",
                    quotechar='"', comments=None, usecols=usecols, ndmin=1,
                    encoding=None,
                )
        except ValueError:
            pass  # a malformed row, or a number only float() reads
    if rows is None:
        rows, error = _rescan(body, usecols)
        if error:
            # Name an earlier row's problem first, if it has one.
            _replicates(rows)
            raise error
    replicates, rep_idx = _replicates(rows)

    mirror = geometry.attack_direction == "right_to_left"
    sizes = (geometry.length, geometry.width) * 2
    coords = np.column_stack([
        _standardize_axis(rows[c], size, c, mirror and c[0] == "x")
        for c, size in zip(_COLUMNS[3:], sizes)
    ])
    return EventTable(replicates, rep_idx, coords)


def _rescan(body: str, usecols: list[int]):
    """(rows, error): ``body`` read one csv row at a time, numbers by
    ``float``, up to its first malformed row, and the ValueError naming
    that row or None."""
    rows, error = [], None
    records = (r for r in csv.reader(io.StringIO(body, newline="")) if r)
    lineno = 1
    try:
        for lineno, record in enumerate(records, start=2):
            cells = [record[k] if k < len(record) else None for k in usecols]
            try:
                values = [_float(cell) for cell in cells[2:]]
                if None in cells[:2]:
                    raise ValueError(f"no {_COLUMNS[cells.index(None)]} cell")
            except (TypeError, ValueError) as exc:
                error = ValueError(f"line {lineno}: malformed row ({exc})")
                break
            rows.append((*cells[:2], *values))
    except csv.Error as exc:
        # The reader failed on the row after the last one it returned.
        error = ValueError(f"line {lineno + 1}: malformed row ({exc})")
    return np.array(rows, dtype=_ROW), error


def _shown(cell: str) -> str:
    """repr of a cell's first 80 characters, '...' marking a cut."""
    return repr(cell[:80]) + ("..." if len(cell) > 80 else "")


def _float(cell):
    """float(cell), whose error quotes the cell as ``_shown`` does."""
    try:
        return float(cell)
    except ValueError:
        raise ValueError(
            f"could not convert string to float: {_shown(cell)}"
        ) from None


def _replicates(rows: np.ndarray):
    """(replicates, replicate_index) in first-appearance order; raises
    at the first row with minutes not positive and finite, or with team
    or minutes unlike its replicate's first row."""
    ids, teams, minutes = rows["replicate_id"], rows["team"], rows["minutes"]
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    first, index = first[order], np.argsort(order)[inverse]
    head = first[index]
    bad_minutes = ~((minutes > 0) & np.isfinite(minutes))
    bad = bad_minutes | (teams != teams[head]) | (minutes != minutes[head])
    if bad.any():
        k = int(bad.argmax())
        if bad_minutes[k]:
            raise ValueError(f"line {k + 2}: minutes must be positive")
        raise ValueError(
            f"line {k + 2}: replicate {_shown(ids[k])} redeclared with "
            "different team or minutes"
        )
    reps = map(Replicate, ids[first], teams[first], minutes[first].tolist())
    return tuple(reps), index


def team_minutes(table: EventTable) -> dict[str, float]:
    """Total minutes per distinct team, first-appearance order."""
    totals: dict[str, float] = {}
    for rep in table.replicates:
        totals[rep.team] = totals.get(rep.team, 0.0) + rep.minutes
    return totals

