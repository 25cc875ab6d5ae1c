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

import csv
import math
from dataclasses import dataclass

import numpy as np

_COLUMNS = ("replicate_id", "team", "minutes", "x_o", "y_o", "x_d", "y_d")

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
        if not (self.length > 0 and self.width > 0):
            raise ValueError("field dimensions must be positive")
        if self.attack_direction not in ("left_to_right", "right_to_left"):
            raise ValueError(
                f"unknown attack_direction {self.attack_direction!r}"
            )


@dataclass(frozen=True)
class Replicate:
    replicate_id: str
    team: str
    minutes: float


@dataclass(frozen=True)
class PassEvent:
    """A single standardized pass: coordinates in [0, 1)."""

    replicate_id: str
    x_o: float
    y_o: float
    x_d: float
    y_d: float


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
        self.replicate_index = np.asarray(self.replicate_index, dtype=np.int64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 4:
            raise ValueError("coords must be (n_events, 4)")
        if self.replicate_index.shape != (self.coords.shape[0],):
            raise ValueError("replicate_index length must match coords")
        if self.coords.size and not np.isfinite(self.coords).all():
            raise ValueError("coordinates must be finite")
        if self.coords.size and (
            self.coords.min() < 0.0 or self.coords.max() >= 1.0
        ):
            raise ValueError("standardized coordinates must lie in [0, 1)")
        n = len(self.replicates)
        if self.replicate_index.size and (
            self.replicate_index.min() < 0 or self.replicate_index.max() >= n
        ):
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

    def events(self):
        """Iterate events as PassEvent views (presentation order)."""
        for k in range(self.n_events):
            rid = self.replicates[int(self.replicate_index[k])].replicate_id
            yield PassEvent(rid, *self.coords[k])


def _standardize_axis(values, size, label):
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite {label} coordinate")
    bad = (v < -_BOUNDARY_TOL) | (v > size + _BOUNDARY_TOL)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"{label} coordinate {v[j]!r} outside [0, {size}] "
            f"beyond tolerance {_BOUNDARY_TOL}"
        )
    u = np.clip(v, 0.0, size) / size
    # Exact-boundary passes are kept in the last tile, not dropped.
    return np.minimum(u, _BELOW_ONE)


def parse_events(source, geometry: FieldGeometry | None = None) -> EventTable:
    """Parse a pass-event CSV into a standardized EventTable.

    ``source`` is a path or a text file object with header
    ``replicate_id,team,minutes,x_o,y_o,x_d,y_d`` and physical
    coordinates.  If the geometry says the data attack right-to-left,
    the x axis is mirrored so every parsed table attacks left-to-right.

    Raises ValueError on missing columns, non-positive minutes,
    conflicting metadata for one replicate_id, or coordinates outside
    the field beyond tolerance.
    """
    geometry = geometry or FieldGeometry()
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", newline="") as handle:
            return parse_events(handle, geometry)

    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ValueError("empty source: no header row")
    missing = [c for c in _COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ValueError(f"missing columns: {', '.join(missing)}")

    replicates: list[Replicate] = []
    seen: dict[str, int] = {}
    rep_idx: list[int] = []
    raw = {c: [] for c in ("x_o", "y_o", "x_d", "y_d")}
    for lineno, row in enumerate(reader, start=2):
        try:
            rid = row["replicate_id"]
            team = row["team"]
            minutes = float(row["minutes"])
            coords = {c: float(row[c]) for c in raw}
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"line {lineno}: malformed row ({exc})") from None
        if not (minutes > 0 and math.isfinite(minutes)):
            raise ValueError(f"line {lineno}: minutes must be positive")
        if rid in seen:
            known = replicates[seen[rid]]
            if known.team != team or known.minutes != minutes:
                raise ValueError(
                    f"line {lineno}: replicate {rid!r} redeclared with "
                    "different team or minutes"
                )
        else:
            seen[rid] = len(replicates)
            replicates.append(Replicate(rid, team, minutes))
        rep_idx.append(seen[rid])
        for c in raw:
            raw[c].append(coords[c])

    xo = np.asarray(raw["x_o"], dtype=np.float64)
    xd = np.asarray(raw["x_d"], dtype=np.float64)
    if geometry.attack_direction == "right_to_left":
        xo = geometry.length - np.clip(xo, 0.0, geometry.length)
        xd = geometry.length - np.clip(xd, 0.0, geometry.length)
    coords = np.column_stack(
        [
            _standardize_axis(xo, geometry.length, "x_o"),
            _standardize_axis(raw["y_o"], geometry.width, "y_o"),
            _standardize_axis(xd, geometry.length, "x_d"),
            _standardize_axis(raw["y_d"], geometry.width, "y_d"),
        ]
    ) if rep_idx else np.empty((0, 4))
    return EventTable(tuple(replicates), np.asarray(rep_idx, dtype=np.int64), coords)


def team_minutes(table: EventTable) -> dict[str, float]:
    """Total minutes per distinct team, first-appearance order."""
    totals: dict[str, float] = {}
    for rep in table.replicates:
        totals[rep.team] = totals.get(rep.team, 0.0) + rep.minutes
    return totals


def exposure_factors(
    table: EventTable, reference_minutes: float | None = None
) -> dict[str, float]:
    """Per-replicate exposure rescaling factors.

    The factor for a replicate is ``reference_minutes / minutes``, so
    multiplying a replicate's pass counts by its factor expresses them
    per a common amount of playing time.  The reference defaults to the
    mean of total minutes across distinct teams.
    """
    if not table.replicates:
        raise ValueError("table has no replicates")
    reference_minutes = _reference_minutes(
        team_minutes(table), reference_minutes
    )
    return {
        rep.replicate_id: reference_minutes / rep.minutes
        for rep in table.replicates
    }


def _reference_minutes(
    per_team: dict[str, float], reference_minutes: float | None
) -> float:
    """The given reference, or the mean of team totals; positive, finite."""
    if reference_minutes is None:
        reference_minutes = sum(per_team.values()) / len(per_team)
    if not (reference_minutes > 0 and math.isfinite(reference_minutes)):
        raise ValueError("reference_minutes must be positive and finite")
    return reference_minutes
