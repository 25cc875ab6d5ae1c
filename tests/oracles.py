"""Independent reference computations used by several test modules.

Everything here is deliberately naive: dense grids, explicit loops,
and direct formula evaluation, with no input checks or size caps.
Most of it shares no code with the package beyond numpy itself.  The
exceptions work on the package's containers: ``simulate_cells``
returns a ``SparseCountTensor``, and ``fit_em`` updates the package's
model class, starts from ``initialize`` (so criterion 5 compares two
routes from one start) and scores with ``objective`` (so both routes
trace the same function).  Their updates and draws are their own.
"""

import csv
import math
import time

import numpy as np

from mrtensor.model import CpBtdModel, effective_terms, objective
from mrtensor.solver import FitReport, initialize
from mrtensor.sptensor import SparseCountTensor


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


def intensity_at(model, cell, replicate: int) -> float:
    """Model intensity at one cell (0-based) of one replicate."""
    cell = tuple(int(i) for i in cell)
    if len(cell) != model.n_modes:
        raise ValueError("cell must index every non-replicate mode")
    prod = model.omega.copy()
    for p, i in enumerate(cell):
        prod *= model.factors[p][i, :]
    scores = model.upsilon[model.block_of_component(), replicate]
    return float(prod @ scores)


def _hadamard_rows(cells, factors, skip=None):
    """Products of factor rows at the given cells, mode by mode."""
    out = np.ones((len(cells), factors[0].shape[1]))
    for p, phi in enumerate(factors):
        if p != skip:
            out *= phi[cells[:, p]]
    return out


def block_design_one_shot(model, tensor, mode: int):
    """A block's design built in one shot: every entry's cell row
    gathered at once and, for a mode block, multiplied by every entry's
    psi row gathered at once.  Same rows and arithmetic as the solver's
    ``block_design``, which fills them a row block at a time."""
    order = tensor.mode_order(mode)
    cells, inverse = tensor.cell_groups()
    if mode == tensor.ndim - 1:
        mixed = _hadamard_rows(cells, model.factors) @ model.omega_matrix()
        return mixed[inverse[order]]
    usage = model.term_usage()
    safe = np.where(usage > 0, usage, 1.0)
    psi = (model.upsilon / safe[:, None])[model.block_of_component()].T
    rows = _hadamard_rows(cells, model.factors, skip=mode)[inverse[order]]
    return rows * psi[tensor.indices[order, -1]]


def intensities_one_shot(model, tensor):
    """Model intensity at every stored entry from two nnz x H gathers:
    cell rows mixed into terms, and the replicates' scores."""
    cells, inverse = tensor.cell_groups()
    mixed = _hadamard_rows(cells, model.factors) @ model.omega_matrix()
    scores = model.upsilon.T[tensor.indices[:, -1]]
    return np.einsum("jh,jh->j", mixed[inverse], scores)


def quadrant_labels(tiles, depth):
    """0-based (origin, destination) quadrant labels of one event, one
    pair per scale, coarsest first; ``tiles`` are its (x_o, y_o, x_d,
    y_d) tile indices at ``depth``.  A label is x bit + 2 * y bit."""
    tiles = [int(t) for t in tiles]
    pairs = []
    for _ in range(depth):
        bits = [t % 2 for t in tiles]
        tiles = [t // 2 for t in tiles]
        pairs.append((bits[0] + 2 * bits[1], bits[2] + 2 * bits[3]))
    return pairs[::-1]


def densify(tensor):
    """Dense int64 counts of a sparse tensor."""
    out = np.zeros(tensor.shape, dtype=np.int64)
    out[tuple(tensor.indices.T)] = tensor.counts
    return out


def dense_reconstruct(factors, omega_matrix, upsilon):
    """Dense intensity grid of a factor model, shape (I_1, ..., I_P, N)."""
    sizes = [phi.shape[0] for phi in factors]
    n = upsilon.shape[1]
    width = factors[0].shape[1]
    full = np.ones((1, width))
    for phi in factors:
        full = (full[:, None, :] * phi[None, :, :]).reshape(-1, width)
    lam = full @ (omega_matrix @ upsilon)
    return lam.reshape(*sizes, n)


def simulate_cells(model, seed=0):
    """``simulate``'s distribution by another route: independent Poisson
    counts at every cell of the dense intensity grid."""
    shape = model.mode_sizes + (model.n_replicates,)
    rng = np.random.default_rng(seed)
    lam = dense_reconstruct(model.factors, model.omega_matrix(), model.upsilon)
    counts = rng.poisson(lam)
    idx = np.argwhere(counts > 0)
    return SparseCountTensor.from_entries(
        shape, idx, counts[counts > 0].ravel()
    )


def fit_em(tensor, config):
    """Expectation-maximization fit of the same model, no shrinkage.

    An independent route to the unpenalized optimum: counts at each
    stored cell are split across components proportionally to their
    current intensity share, and every parameter group has a
    closed-form update from the expected allocations.  The likelihood
    is nondecreasing, so the objective trace is nonincreasing.  Stops
    by ``fit_block_gs``'s rule; raises ValueError when shrinkage is
    requested (the EM recursions cover the plain likelihood only).
    """
    if config.beta != 0:
        raise ValueError("the EM backend is unpenalized; set beta = 0")
    ranks = config.resolved_ranks()
    total_rank = sum(ranks)
    t0 = time.perf_counter()
    model = initialize(config, tensor.shape, float(tensor.total))
    blocks = model.block_of_component()
    idx = tensor.indices
    cells, inverse = tensor.cell_groups()
    counts = tensor.counts.astype(np.float64)
    trace = [objective(model, tensor)]
    eff_trace = [effective_terms(model)]

    def report(stop_reason):
        return FitReport(list(trace), [0] + [1] * (len(trace) - 1),
                         list(eff_trace), time.perf_counter() - t0,
                         stop_reason=stop_reason)

    for _ in range(config.max_outer):
        base = _hadamard_rows(cells, model.factors)[inverse]
        comp = base * model.omega * model.upsilon[blocks][:, idx[:, -1]].T
        lam = comp.sum(axis=1)
        if (lam <= 0).any():
            raise ValueError("zero intensity at a stored count")
        alloc = comp * (counts / lam)[:, None]

        col_mass = alloc.sum(axis=0)
        # Explicit normalizer of the score update; identically one
        # while the factor columns and mixing blocks stay stochastic.
        colsum = np.ones(total_rank)
        for phi in model.factors:
            colsum *= phi.sum(axis=0)
        blks = [model.block(h) for h in range(model.n_terms)]
        denom = np.array([float(model.omega[b] @ colsum[b]) for b in blks])
        per_rep = np.zeros((tensor.shape[-1], total_rank))
        np.add.at(per_rep, idx[:, -1], alloc)
        ups = np.add.reduceat(per_rep.T, model._offsets[:-1]) / denom[:, None]
        factors = []
        for p in range(model.n_modes):
            numer = np.zeros_like(model.factors[p])
            np.add.at(numer, idx[:, p], alloc)
            new = model.factors[p].copy()
            live = col_mass > 0
            new[:, live] = numer[:, live] / col_mass[live]
            factors.append(new)
        mass = model.term_sums(col_mass)[blocks]
        omega = np.where(
            mass > 0, col_mass / np.where(mass > 0, mass, 1.0), model.omega
        )
        model = CpBtdModel(ranks, factors, omega, ups)
        trace.append(objective(model, tensor))
        eff_trace.append(effective_terms(model))
        if abs(trace[-2] - trace[-1]) < config.outer_tol * max(
            1.0, abs(trace[-2])
        ):
            return model, report("converged")
    return model, report("max_outer")


def write_model_per_value(model, path):
    """The ``cpbtd v1`` model text written one formatted value at a time."""
    def fmt(arr):
        return " ".join(format(v, ".17g") for v in arr)

    with open(path, "w") as handle:
        sizes = ",".join(str(s) for s in model.mode_sizes)
        ranks = ",".join(str(r) for r in model.ranks)
        handle.write(
            f"cpbtd v1\nP={model.n_modes} I={sizes} H={model.n_terms} "
            f"R={ranks} N={model.n_replicates}\n"
        )
        for p, phi in enumerate(model.factors, start=1):
            handle.write(f"phi {p}\n")
            for r in range(model.total_rank):
                handle.write(fmt(phi[:, r]) + "\n")
        handle.write("omega\n")
        for h in range(model.n_terms):
            handle.write(fmt(model.omega[model.block(h)]) + "\n")
        handle.write("upsilon\n")
        for n in range(model.n_replicates):
            handle.write(fmt(model.upsilon[:, n]) + "\n")


def write_motif_csv_per_value(matrix, path):
    """A motif CSV written one formatted value at a time."""
    with open(path, "w") as handle:
        for row in np.asarray(matrix):
            handle.write(",".join(format(v, ".17g") for v in row) + "\n")


def motif_by_kron(model, term: int, scale: int):
    """A term's origin x destination matrix at a scale, one component
    at a time: Kronecker products of its per-scale profiles, coarsest
    first, summed as omega-weighted outer products."""
    blk = model.block(term)
    out = np.zeros((4**scale, 4**scale))
    for r in range(blk.start, blk.stop):
        origin = np.ones(1)
        dest = np.ones(1)
        for s in range(scale):
            origin = np.kron(origin, model.factors[2 * s][:, r])
            dest = np.kron(dest, model.factors[2 * s + 1][:, r])
        out += model.omega[r] * np.outer(origin, dest)
    return out


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


def _quote_cell(text):
    """repr of a cell's first 80 characters, '...' marking a cut."""
    return repr(text[:80]) + ("..." if len(text) > 80 else "")


def _float_cell(text):
    """float(text); a ValueError quotes the cell as _quote_cell does."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            "could not convert string to float: " + _quote_cell(text)
        ) from None


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
            minutes = _float_cell(row["minutes"])
            coords = {c: _float_cell(row[c]) for c in raw}
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
                    f"line {lineno}: replicate {_quote_cell(rid)} "
                    "redeclared with different team or minutes"
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
