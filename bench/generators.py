"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed: the same seed gives
byte-identical inputs.  The program under test only ever sees the
generated CSV files (and, for ``recovery``, the planted truth that the
fitted motifs are scored against).
"""

from __future__ import annotations

import numpy as np

from mrtensor import analysis
from mrtensor.model import CpBtdModel
from mrtensor.sptensor import SparseCountTensor

LENGTH, WIDTH = 115.0, 74.0
CSV_HEADER = "replicate_id,team,minutes,x_o,y_o,x_d,y_d\n"
# Planted truth: replicates and mean events per motif and replicate, as
# in the acceptance suite's criterion 6 (nnz about 1.5k).
N_REP = 40
MEAN_RATE = 41.0
# Habitual passing lanes per team in the season generator.
CLUSTERS = 8


def _unit(*vals: float) -> np.ndarray:
    v = np.asarray(vals, dtype=float)
    return v / v.sum()


def planted_truth(seed: int):
    """Three planted motifs over a two-scale (4^4 cell) grid.

    The same construction as the acceptance suite's recovery benchmark
    (criterion 6), rebuilt here so the benchmark does not import from
    the tests: motif 0 is one concentrated origin/destination pair,
    motifs 1 and 2 need two components each, and every motif sits out
    a third of the replicates.
    """
    rng = np.random.default_rng(seed)
    ranks = (1, 2, 2)
    f = [np.zeros((4, 5)) for _ in range(4)]
    f[0][:, 0] = _unit(0.91, 0.03, 0.03, 0.03)
    f[1][:, 0] = _unit(0.03, 0.03, 0.03, 0.91)
    f[2][:, 0] = _unit(0.05, 0.05, 0.05, 0.85)
    f[3][:, 0] = _unit(0.10, 0.70, 0.10, 0.10)
    f[0][:, 1] = _unit(0.03, 0.91, 0.03, 0.03)
    f[1][:, 1] = _unit(0.03, 0.03, 0.91, 0.03)
    f[2][:, 1] = _unit(0.75, 0.15, 0.05, 0.05)
    f[3][:, 1] = _unit(0.70, 0.10, 0.10, 0.10)
    f[0][:, 2] = f[0][:, 1]
    f[1][:, 2] = f[1][:, 1]
    f[2][:, 2] = _unit(0.05, 0.05, 0.75, 0.15)
    f[3][:, 2] = _unit(0.10, 0.10, 0.70, 0.10)
    f[0][:, 3] = _unit(0.03, 0.03, 0.91, 0.03)
    f[1][:, 3] = _unit(0.91, 0.03, 0.03, 0.03)
    f[2][:, 3] = _unit(0.15, 0.75, 0.05, 0.05)
    f[3][:, 3] = _unit(0.10, 0.70, 0.10, 0.10)
    f[0][:, 4] = f[0][:, 3]
    f[1][:, 4] = f[1][:, 3]
    f[2][:, 4] = _unit(0.05, 0.05, 0.15, 0.75)
    f[3][:, 4] = _unit(0.10, 0.10, 0.10, 0.70)
    omega = np.array([1.0, 0.80, 0.20, 0.80, 0.20])
    ups = rng.uniform(0.3, 1.7, size=(3, N_REP)) * MEAN_RATE
    for h in range(3):
        off = rng.choice(N_REP, size=N_REP // 3, replace=False)
        ups[h, off] = 0.0
    ups *= 3 * N_REP * MEAN_RATE / ups.sum()
    return CpBtdModel(ranks, f, omega, ups)


def _replicate_meta(rng, n_teams: int, per_team: int):
    """(replicate_id, team, minutes) per replicate, team-major order."""
    minutes = np.round(rng.uniform(90.0, 98.0, size=n_teams * per_team), 1)
    return [
        (f"t{t:02d}m{m:02d}", f"team{t:02d}", float(minutes[t * per_team + m]))
        for t in range(n_teams)
        for m in range(per_team)
    ]


def _tile_coords(rng, labels: np.ndarray, scale_bits: int, size: float):
    """Physical coordinates strictly inside the given dyadic tiles.

    The 5%-95% margin keeps every coordinate far (in field units) from
    a tile edge, so the 2-decimal CSV rounding cannot change its tile.
    """
    u = (labels + rng.uniform(0.05, 0.95, size=labels.shape)) / 2**scale_bits
    return u * size


def recovery_events(truth: CpBtdModel, seed: int):
    """Sample the planted model and lay its events out on the field.

    Returns (tensor, csv_text).  ``simulate`` draws a count tensor over
    the 4^4 quadrant grid; every counted event becomes one pass placed
    uniformly inside its finest (4 x 4) origin and destination tiles,
    so encoding the CSV at S=2 must give back exactly that tensor.
    Replicates are grouped four to a team for the team comparison.  A
    replicate that drew no events has no CSV row, so the returned
    tensor drops its (empty) slice just as encoding the CSV does.
    """
    tensor = analysis.simulate(truth, seed=1000 + seed)
    present = np.unique(tensor.indices[:, -1])
    if len(present) < tensor.shape[-1]:
        idx = tensor.indices.copy()
        idx[:, -1] = np.searchsorted(present, idx[:, -1])
        tensor = SparseCountTensor(
            tensor.shape[:-1] + (len(present),), idx, tensor.counts)
    rng = np.random.default_rng(2000 + seed)
    meta = _replicate_meta(rng, truth.n_replicates // 4, 4)
    meta = [meta[r] for r in present]
    cells = np.repeat(tensor.indices, tensor.counts, axis=0)
    # Replicate-major rows, so first appearance order is replicate order.
    cells = cells[np.argsort(cells[:, -1], kind="stable")]
    q = cells[:, :4]  # (o1, d1, o2, d2), each x_bit + 2 * y_bit
    x_o = 2 * (q[:, 0] & 1) + (q[:, 2] & 1)
    y_o = 2 * (q[:, 0] >> 1) + (q[:, 2] >> 1)
    x_d = 2 * (q[:, 1] & 1) + (q[:, 3] & 1)
    y_d = 2 * (q[:, 1] >> 1) + (q[:, 3] >> 1)
    coords = np.column_stack([
        _tile_coords(rng, x_o, 2, LENGTH),
        _tile_coords(rng, y_o, 2, WIDTH),
        _tile_coords(rng, x_d, 2, LENGTH),
        _tile_coords(rng, y_d, 2, WIDTH),
    ])
    return tensor, _csv_text(meta, cells[:, -1], coords)


def season_events(
    seed: int,
    n_events: int,
    n_teams: int = 20,
    per_team: int = 19,
):
    """Clustered season of passes in physical coordinates; CSV text.

    Each team has ``CLUSTERS`` habitual passing lanes (an origin spot
    and a pass vector) with its own lane preferences; each match
    perturbs those preferences, and 20% of passes are uniform
    background.  Matches last 90-98 minutes and their pass counts
    scale with minutes.
    """
    rng = np.random.default_rng(seed)
    meta = _replicate_meta(rng, n_teams, per_team)
    n_rep = len(meta)
    minutes = np.array([m for _, _, m in meta])
    counts = rng.multinomial(n_events, minutes / minutes.sum())
    rep_of = np.repeat(np.arange(n_rep), counts)
    team_of = rep_of // per_team

    origin = rng.uniform((5.0, 5.0), (LENGTH - 5.0, WIDTH - 5.0),
                         size=(n_teams, CLUSTERS, 2))
    vector = rng.normal(0.0, (18.0, 12.0), size=(n_teams, CLUSTERS, 2))
    spread = rng.uniform(6.0, 14.0, size=(n_teams, CLUSTERS))
    team_pref = rng.dirichlet(np.full(CLUSTERS, 1.5), size=n_teams)
    match_pref = np.vstack([
        rng.dirichlet(30.0 * team_pref[r // per_team]) for r in range(n_rep)
    ])
    # Inverse-CDF draw of each pass's lane from its match's preferences.
    cdf = np.cumsum(match_pref, axis=1)[rep_of]
    lane = (rng.random(len(rep_of))[:, None] > cdf).sum(axis=1)
    lane = np.minimum(lane, CLUSTERS - 1)
    sd = spread[team_of, lane][:, None]
    start = origin[team_of, lane] + rng.normal(0.0, 1.0, (len(lane), 2)) * sd
    end = start + vector[team_of, lane] + rng.normal(0.0, 0.6, (len(lane), 2)) * sd
    coords = np.column_stack([start, end])
    background = rng.random(len(lane)) < 0.20
    coords[background] = rng.uniform(
        0.0, 1.0, size=(int(background.sum()), 4)
    ) * (LENGTH, WIDTH, LENGTH, WIDTH)
    coords[:, [0, 2]] = np.clip(coords[:, [0, 2]], 0.0, LENGTH)
    coords[:, [1, 3]] = np.clip(coords[:, [1, 3]], 0.0, WIDTH)
    return _csv_text(meta, rep_of, coords)


def _csv_text(meta, rep_of: np.ndarray, coords: np.ndarray) -> str:
    prefix = [f"{rid},{team},{minutes:g}," for rid, team, minutes in meta]
    lines = [CSV_HEADER]
    for r, (a, b, c, d) in zip(rep_of.tolist(), np.round(coords, 2).tolist()):
        lines.append(f"{prefix[r]}{a:.2f},{b:.2f},{c:.2f},{d:.2f}\n")
    return "".join(lines)
