"""Comparisons, rankings, simulation, and motif rendering.

The ecology-style toolkit around the fitted model: Bray-Curtis
dissimilarity between teams' per-minute passing networks, usage
rankings of fitted motifs, greedy cosine matching of motif sets, and a
superposition sampler that draws synthetic event tensors from a model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .encode import _dense_side, _quadrant_columns, chain_index, node_tile
from .ingest import EventTable, team_minutes
from .model import CpBtdModel, effective_terms
from .sptensor import SparseCountTensor

SVG_SIZE = (1150.0, 740.0)  # motif diagram width and height, SVG units


def bray_curtis(u, v) -> float:
    """Bray-Curtis dissimilarity of two nonnegative abundance vectors.

    sum |u - v| / sum (u + v): 0 for identical vectors, 1 for vectors
    with disjoint support, symmetric, and bounded by 1.  Undefined
    (and an error) when both vectors are entirely zero.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError("vectors must have the same length")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("vectors must be finite")
    if u.min(initial=0) < 0 or v.min(initial=0) < 0:
        raise ValueError("vectors must be nonnegative")
    denom = float((u + v).sum())
    if denom == 0:
        raise ValueError("Bray-Curtis is undefined for two zero vectors")
    return float(np.abs(u - v).sum()) / denom


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric team x team matrix, rows and columns in ``labels`` order."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        if self.values.shape != (n, n):
            raise ValueError("matrix must be square over the labels")


def dissimilarity_matrix(table: EventTable, scale: int) -> DissimilarityMatrix:
    """Pairwise Bray-Curtis between teams' per-minute passing networks.

    Every event is keyed by its team and its origin and destination
    nodes at the requested scale (chained quadrant labels, the node
    order of the adjacency matrices), and one bincount over the keys
    gives each team's origin x destination count matrix, pooled over
    its replicates.  Dividing by the team's total minutes makes each a
    per-minute rate; Bray-Curtis is blind to a factor common to both
    vectors, so no reference duration is needed.  A team with no passes
    has no network to compare and raises.
    """
    minutes = team_minutes(table)
    teams = tuple(minutes)
    if not teams:
        raise ValueError("table has no teams")
    quadrants = _quadrant_columns(table.coords, scale)
    size = _dense_side(scale, len(teams))
    team_of_rep = np.array([teams.index(rep.team) for rep in table.replicates])
    key = (
        team_of_rep[table.replicate_index] * size
        + chain_index(quadrants[:, 0::2])
    ) * size + chain_index(quadrants[:, 1::2])
    counts = np.bincount(key, minlength=len(teams) * size * size)
    totals = np.array(list(minutes.values()))
    rates = counts.reshape(len(teams), size * size) / totals[:, None]
    idle = ~rates.any(axis=1)
    if idle.any():
        raise ValueError(f"team {teams[idle.argmax()]!r} has no passes")
    out = np.zeros((len(teams), len(teams)))
    for i in range(len(teams)):
        for j in range(i + 1, len(teams)):
            out[i, j] = out[j, i] = bray_curtis(rates[i], rates[j])
    return DissimilarityMatrix(teams, out)


def write_dissimilarity_csv(dissim: DissimilarityMatrix, path) -> None:
    """UTF-8 CSV with a ``team`` header row and one labelled row per
    team; ``csv`` quotes each label the way ``parse_events`` reads it."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        table = csv.writer(handle, lineterminator="\n")
        table.writerow(["team", *dissim.labels])
        for label, row in zip(dissim.labels, dissim.values):
            table.writerow([label, *(format(v, ".17g") for v in row)])


def rank_motifs(model: CpBtdModel) -> list[tuple[int, float]]:
    """The terms ``effective_terms`` counts as active, by total usage
    descending; ties keep the lower term."""
    usage = model.term_usage()
    top = np.argsort(-usage, kind="stable")[: effective_terms(model)]
    return [(int(h), float(usage[h])) for h in top]


def match_motifs(fitted, reference) -> list[tuple[int, int, float]]:
    """Greedy best-cosine assignment between two motif collections.

    Both arguments are sequences of arrays (vectorized as given, so
    pass finest-scale matrices for multiresolution motifs).  Pairs are
    picked in descending similarity until the shorter side runs out;
    the result lists (fitted position, reference position, cosine) in
    pick order.  Equal similarities pick the lower fitted position,
    then the lower reference position.  An all-zero motif has no
    direction and raises, as does a motif that is not finite.
    """
    if not (len(fitted) and len(reference)):
        return []
    f = np.array([np.ravel(m) for m in fitted], dtype=np.float64)
    r = np.array([np.ravel(m) for m in reference], dtype=np.float64)
    if not (np.isfinite(f).all() and np.isfinite(r).all()):
        raise ValueError("motifs must be finite")
    # Scaled to a largest entry of 1, no row's norm overflows or underflows.
    peak_f, peak_r = (np.abs(m).max(axis=1, initial=0) for m in (f, r))
    if not (peak_f.all() and peak_r.all()):
        raise ValueError("cosine similarity of a zero vector is undefined")
    f, r = f / peak_f[:, None], r / peak_r[:, None]
    norms_f, norms_r = np.linalg.norm(f, axis=1), np.linalg.norm(r, axis=1)
    sims = (f @ r.T) / np.outer(norms_f, norms_r)
    out: list[tuple[int, int, float]] = []
    for _ in range(min(sims.shape)):
        i, j = divmod(int(sims.argmax()), sims.shape[1])
        out.append((i, j, float(sims[i, j])))
        sims[i, :] = sims[:, j] = -np.inf
    return out


def simulate(
    model: CpBtdModel, rates: np.ndarray | None = None, seed: int = 0
) -> SparseCountTensor:
    """Draw one synthetic count tensor from the model.

    Samples each term's event count per replicate from a Poisson at its
    usage rate, then places every event by drawing a component from the
    term's mixing weights and one coordinate per mode from the
    component's profiles.  Memory stays proportional to the event count.
    """
    if rates is None:
        rates = model.upsilon
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 2:
        raise ValueError("rates must be terms x replicates")
    if rates.shape[0] != model.n_terms:
        raise ValueError("rates must have one row per term")
    if rates.shape[1] == 0:
        raise ValueError("rates must have at least one replicate column")
    if not np.isfinite(rates).all() or rates.min() < 0:
        raise ValueError("rates must be finite and nonnegative")
    unmixed = (rates.max(axis=1) > 0) & (model.term_sums(model.omega) <= 0)
    if unmixed.any():
        raise ValueError(
            f"term {unmixed.argmax()} has zero mixing weights but usage"
        )
    n_rep = rates.shape[1]
    shape = model.mode_sizes + (n_rep,)
    rng = np.random.default_rng(seed)
    events = rng.poisson(rates)
    chunks = [np.empty((0, model.n_modes + 1), dtype=np.int64)]
    for h in range(model.n_terms):
        total = int(events[h].sum())
        if total == 0:
            continue
        blk = model.block(h)
        weights = model.omega[blk] / model.omega[blk].sum()
        comp = blk.start + rng.choice(len(weights), size=total, p=weights)
        cells = np.empty((total, model.n_modes + 1), dtype=np.int64)
        cells[:, -1] = np.repeat(np.arange(n_rep), events[h])
        for p, phi in enumerate(model.factors):
            cdf = np.cumsum(phi[:, comp], axis=0)
            if (cdf[-1] <= 0).any():
                raise ValueError(
                    f"term {h} draws events through an all-zero profile"
                )
            cdf /= cdf[-1]
            draws = rng.random(total)
            cells[:, p] = (draws[None, :] > cdf).sum(axis=0)
        chunks.append(cells)
    idx = np.vstack(chunks)
    return SparseCountTensor.from_entries(
        shape, idx, np.ones(len(idx), dtype=np.int64)
    )


def write_motif_csv(matrix: np.ndarray, path) -> None:
    """Plain CSV of one origin x destination motif matrix."""
    with open(path, "w", encoding="utf-8") as handle:
        np.savetxt(handle, matrix, fmt="%.17g", delimiter=",")


def write_motif_svg(matrix: np.ndarray, path, top_edges: int = 20) -> int:
    """Arrow diagram of a motif matrix on the dyadic field grid.

    Draws the ``top_edges`` heaviest positive entries as arrows from
    origin tile center to destination tile center (circles for
    self-loops), opacity proportional to weight.  Returns the number
    of edges drawn.
    """
    if top_edges < 0:
        raise ValueError("top_edges must be >= 0")
    width, height = SVG_SIZE
    matrix = np.asarray(matrix, dtype=np.float64)
    size = matrix.shape[0]
    scale = (size.bit_length() - 1) // 2
    if matrix.shape != (size, size) or 4**scale != size:
        raise ValueError("motif matrix must be 4**s square")
    grid = 2**scale
    flat = matrix.ravel()
    order = np.argsort(-flat, kind="stable")
    order = order[flat[order] > 0][:top_edges]
    peak = flat[order[0]] if len(order) else 1.0

    def center(node):
        tx, ty = node_tile(int(node), scale)
        return (
            (tx + 0.5) * width / grid,
            height - (ty + 0.5) * height / grid,
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width:g} {height:g}">',
        '<defs><marker id="tip" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#1f4e79"/></marker></defs>',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" '
        'fill="#f4f7f4" stroke="#333" stroke-width="2"/>',
    ]
    for k in range(1, grid):
        x = k * width / grid
        y = k * height / grid
        lines.append(
            f'<line x1="{x:.2f}" y1="0" x2="{x:.2f}" y2="{height:g}" '
            'stroke="#c8d4c8" stroke-width="1"/>'
        )
        lines.append(
            f'<line x1="0" y1="{y:.2f}" x2="{width:g}" y2="{y:.2f}" '
            'stroke="#c8d4c8" stroke-width="1"/>'
        )
    for flat_index in order:
        vo, vd = divmod(int(flat_index), size)
        opacity = max(flat[flat_index] / peak, 0.05)
        if vo == vd:
            cx, cy = center(vo)
            r = 0.18 * min(width, height) / grid
            lines.append(
                f'<circle class="edge" cx="{cx:.2f}" cy="{cy:.2f}" '
                f'r="{r:.2f}" fill="none" stroke="#1f4e79" '
                f'stroke-width="4" stroke-opacity="{opacity:.4f}"/>'
            )
        else:
            (x1, y1), (x2, y2) = center(vo), center(vd)
            lines.append(
                f'<line class="edge" x1="{x1:.2f}" y1="{y1:.2f}" '
                f'x2="{x2:.2f}" y2="{y2:.2f}" stroke="#1f4e79" '
                f'stroke-width="4" stroke-opacity="{opacity:.4f}" '
                'marker-end="url(#tip)"/>'
            )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([*lines, "</svg>\n"]))
    return len(order)
