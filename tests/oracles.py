"""Independent reference computations used by several test modules.

Everything here is deliberately naive: dense grids, explicit loops,
and direct formula evaluation.  None of it shares code with the
package beyond numpy itself.
"""

import csv
import math

import numpy as np


def poisson_objective(design, counts, coef) -> float:
    """Objective of one regression instance."""
    lam = np.asarray(design) @ np.asarray(coef)
    if (lam <= 0).any():
        return math.inf
    return float(np.sum(coef) - np.asarray(counts) @ np.log(lam))


def poisson_objective_grid(design, counts, grid):
    """Objective at many candidate coefficient vectors at once.

    ``grid`` is (K, n_candidates); returns (n_candidates,) values of
    sum(b) - x . log(A b), with +inf where some intensity is zero.
    """
    lam = np.asarray(design) @ grid
    out = grid.sum(axis=0)
    good = (lam > 0).all(axis=0)
    out[~good] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(lam > 0, np.log(np.where(lam > 0, lam, 1.0)), 0.0)
    out[good] = out[good] + -(np.asarray(counts) @ logs[:, good])
    return out


def grid_minimize_poisson(design, counts, stages=8, points=21):
    """Brute-force minimum of the identity-link Poisson objective.

    The objective is convex and every stationary point satisfies
    sum(b) = sum(x), so the box [0, sum(x)]^K brackets the minimizer.
    Each stage evaluates a full mesh and shrinks the window around the
    best point; a best point on the window edge re-centers the window
    instead of shrinking it.
    """
    design = np.asarray(design, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    k = design.shape[1]
    top = counts.sum() * 1.0000001
    lo = np.zeros(k)
    hi = np.full(k, top)
    best_val = np.inf
    best = np.zeros(k)
    for _ in range(stages):
        axes = [np.linspace(lo[d], hi[d], points) for d in range(k)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh])
        vals = poisson_objective_grid(design, counts, grid)
        j = int(np.argmin(vals))
        best_val = float(vals[j])
        best = grid[:, j]
        spacing = (hi - lo) / (points - 1)
        at_edge = (np.abs(best - lo) < spacing / 2) | (
            np.abs(best - hi) < spacing / 2
        )
        widen = np.where(at_edge, 4.0, 2.0)
        lo = np.maximum(best - widen * spacing, 0.0)
        hi = np.minimum(best + widen * spacing, top)
    return best, best_val


def random_regression_instance(rng, max_rows=6, max_cols=3):
    """One random feasible Poisson-regression instance.

    Every row keeps at least one positive design entry so each
    positive count is explainable.
    """
    m = int(rng.integers(1, max_rows + 1))
    k = int(rng.integers(1, max_cols + 1))
    while True:
        design = rng.uniform(0.05, 1.0, size=(m, k))
        design[rng.random(size=(m, k)) < 0.25] = 0.0
        if (design > 0).any(axis=1).all():
            break
    counts = rng.integers(1, 11, size=m).astype(np.float64)
    return design, counts


def random_segmented_instance(rng, n_columns=5, max_rows=6, k=3):
    """Random grouped regression: (design, counts, segment, start).

    Columns 1 to n_columns - 1 each get between 1 and ``max_rows``
    rows, except one of columns 2 to n_columns - 1, which gets none;
    column 0 gets none either, so the first segment id is above 0.
    Every row keeps a positive design entry.
    """
    sizes = rng.integers(1, max_rows + 1, size=n_columns)
    sizes[0] = 0
    sizes[int(rng.integers(2, n_columns))] = 0
    segment = np.repeat(np.arange(n_columns), sizes)
    design = rng.uniform(0.05, 1.0, size=(len(segment), k))
    design[rng.random(size=design.shape) < 0.25] = 0.0
    dead = ~(design > 0).any(axis=1)
    design[dead, 0] = 0.5
    counts = rng.integers(1, 11, size=len(segment)).astype(np.float64)
    start = rng.uniform(0.5, 2.0, size=(k, n_columns))
    return design, counts, segment, start


def mm_sweeps_per_span(design, counts, segment, start, beta=0.0,
                       epsilon=1e-8, tol=1e-6, max_iter=250):
    """The grouped multiplicative solver, one span and one sweep at a time.

    Same arguments and result as ``mm_poisson_regression_group`` on
    valid input, without its checks: each sweep evaluates every span's
    intensities by a matrix-vector product, its numerator by a weighted
    row sum, and allocates a fresh iterate.
    """
    B = np.array(start, dtype=np.float64)
    design = np.asarray(design, dtype=np.float64)
    x = np.asarray(counts, dtype=np.float64)
    segment = np.asarray(segment)
    first = np.flatnonzero(np.diff(segment, prepend=-1))
    spans = list(zip(segment[first].tolist(), first.tolist(),
                     first[1:].tolist() + [len(segment)]))
    lam = np.empty(len(x))
    numer = np.zeros_like(B)
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        if design.size:
            for c, s, e in spans:
                lam[s:e] = design[s:e] @ B[:, c]
            ratio = x / lam
            for c, s, e in spans:
                numer[:, c] = np.einsum("j,jk->k", ratio[s:e], design[s:e])
        new = B * numer
        if beta > 0:
            new *= (1.0 / (1.0 + beta / (epsilon + B.sum(axis=1))))[:, None]
        delta = np.abs(new - B) / np.maximum(np.abs(B), 1e-30)
        B = new
        if not delta.size or delta.max() < tol:
            break
    return B, sweeps


EVENT_COLUMNS = ("replicate_id", "team", "minutes", "x_o", "y_o", "x_d", "y_d")


def _standardize_axis_rows(values, size, label, mirror=False):
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite {label} coordinate")
    bad = (v < -1e-6) | (v > size + 1e-6)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"{label} coordinate {float(v[j])} outside [0, {size}] "
            "beyond tolerance 1e-06"
        )
    if mirror:
        v = size - v
    u = np.clip(v, 0.0, size) / size
    return np.minimum(u, np.nextafter(1.0, 0.0))


def parse_events_rows(source, geometry):
    """The events CSV read one ``csv.DictReader`` row at a time.

    Returns (replicates, replicate_index, coords) with replicates as
    (replicate_id, team, minutes) tuples in first-appearance order, or
    raises ValueError with the package's messages.  ``geometry`` needs
    only ``length``, ``width`` and ``attack_direction``.  A row too
    short to hold its replicate_id or team is malformed.
    """
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ValueError("empty source: no header row")
    missing = [c for c in EVENT_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ValueError(f"missing columns: {', '.join(missing)}")

    replicates = []
    seen = {}
    rep_idx = []
    raw = {c: [] for c in ("x_o", "y_o", "x_d", "y_d")}
    for lineno, row in enumerate(reader, start=2):
        try:
            rid = row["replicate_id"]
            team = row["team"]
            minutes = float(row["minutes"])
            coords = {c: float(row[c]) for c in raw}
            for name, cell in (("replicate_id", rid), ("team", team)):
                if cell is None:
                    raise ValueError(f"no {name} cell")
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"line {lineno}: malformed row ({exc})") from None
        if not (minutes > 0 and math.isfinite(minutes)):
            raise ValueError(f"line {lineno}: minutes must be positive")
        if rid in seen:
            known = replicates[seen[rid]]
            if known[1] != team or known[2] != minutes:
                raise ValueError(
                    f"line {lineno}: replicate {rid!r} redeclared with "
                    "different team or minutes"
                )
        else:
            seen[rid] = len(replicates)
            replicates.append((rid, team, minutes))
        rep_idx.append(seen[rid])
        for c in raw:
            raw[c].append(coords[c])

    length, width = geometry.length, geometry.width
    # Off-field x is checked before mirroring, in either direction.
    mirror = geometry.attack_direction == "right_to_left"
    coords = np.column_stack(
        [
            _standardize_axis_rows(raw["x_o"], length, "x_o", mirror),
            _standardize_axis_rows(raw["y_o"], width, "y_o"),
            _standardize_axis_rows(raw["x_d"], length, "x_d", mirror),
            _standardize_axis_rows(raw["y_d"], width, "y_d"),
        ]
    ) if rep_idx else np.empty((0, 4))
    return replicates, np.asarray(rep_idx, dtype=np.int64), coords


def write_tensor_rows(tensor, handle):
    """The ``mrtensor v1`` text form written one entry line at a time."""
    shape = ",".join(str(d) for d in tensor.shape)
    handle.write(
        f"mrtensor v1 modes={len(tensor.shape)} shape={shape} "
        f"nnz={len(tensor.counts)}\n"
    )
    for row, c in zip(tensor.indices.tolist(), tensor.counts.tolist()):
        handle.write(" ".join(str(v + 1) for v in row) + f" {c}\n")
