"""Block-coordinate fitting of the Poisson block-term count model.

Every block update is a bundle of identity-link Poisson regressions

    minimize  sum_k b_k - sum_j x_j log(sum_k a_jk b_k)   over b >= 0

solved by a majorize-minimize scheme: the log of a sum is bounded below
through Jensen's inequality at the current iterate, which splits each
observation across coefficients proportionally to their current
contribution and gives the closed-form sweep

    b_k <- b_k * sum_j a_jk x_j / (A b)_j .

The objective only involves observations with positive counts, every
sweep keeps the iterate nonnegative, and with a column-stochastic
design the coefficient total is conserved at sum(x) on every sweep.
Each column's rows form one contiguous span of the stacked design; a
sweep reads it once in cache-sized blocks of spans or span pieces, with
one BLAS gemv per span or piece for intensities and one for numerators.

Group shrinkage augments the objective with beta * sum_k log(group_k
sum + epsilon), a concave log-sum penalty.  Majorizing the logs by
tangent lines turns each sweep into the same closed form scaled by the
reweighting 1 / (1 + beta / (epsilon + old group sum)), which starves
small coefficient groups at a rate that grows as they shrink: an
adaptive pull to zero that leaves large groups nearly untouched.

The outer loop alternates the replicate-score block with one block per
tensor mode, each laid out by ``block_design``.  Mode blocks are solved
in the mass-carrying variables A = Phi * diag(component totals), which
keeps each row subproblem an instance of the regression above;
afterwards the columns are renormalized onto the probability simplex,
with the column masses folded back into the mixing weights and usage
scores so the intensity function is preserved exactly.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .model import CpBtdModel, effective_terms, objective
from .sptensor import SparseCountTensor, _block_rows, _row_blocks, factor_rows

# Dead: the inner solver zeroes coefficients at or below this.  The
# multiplicative update keeps a zero at zero, so outside the solver a
# dead component or term is one whose mass is exactly 0.
DEAD_FLOOR = 1e-300

REPORT_HEADER = "outer_iter,objective,inner_iters_total,effective_H"


@dataclass
class SolverConfig:
    """Knobs of the block fit, ``fit_block_gs``.

    ``rank`` may be one bound for every term or a per-term sequence.
    ``beta`` scales with the number of positive observations J of the
    block being solved; every block of a fit sees all stored entries.
    ``beta = 0`` disables shrinkage.  The penalty offset ``epsilon``
    and the inner solver's relative-change tolerance ``inner_tol`` are
    fixed constants, not fields.
    """

    n_terms: int = 500
    rank: int | tuple[int, ...] = 5
    beta: float = 1e-3
    max_outer: int = 100
    max_inner: int = 250
    outer_tol: float = 1e-8
    seed: int = 0

    epsilon = 1e-8
    inner_tol = 1e-6

    def __post_init__(self):
        one_rank = np.ndim(self.rank) == 0
        counts = (self.n_terms, self.max_outer, self.max_inner, self.seed,
                  *([self.rank] if one_rank else self.rank))
        if not all(isinstance(v, (int, np.integer)) for v in counts):
            raise ValueError("counts, ranks and the seed must be integers")
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if one_rank:
            if self.rank < 1:
                raise ValueError("rank must be >= 1")
        else:
            self.rank = tuple(int(r) for r in self.rank)
            if len(self.rank) != self.n_terms or any(r < 1 for r in self.rank):
                raise ValueError("need one positive rank per term")
        for name in ("beta", "outer_tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")
        if self.max_outer < 0 or self.max_inner < 1:
            raise ValueError("iteration caps out of range")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def resolved_ranks(self) -> tuple[int, ...]:
        if isinstance(self.rank, tuple):
            return self.rank
        return (int(self.rank),) * self.n_terms

    def shrinkage_strength(self, n_obs: int) -> float:
        """Effective penalty strength for a block with n_obs positive counts."""
        return self.beta * n_obs


@dataclass
class FitReport:
    """Per-outer-iteration trace of a fit.

    Row 0 describes the initialization.  ``objective`` records the
    monitored objective: the Poisson deviance core plus, when
    shrinkage is on, the log-sum penalties of every block; it is
    nonincreasing by construction.  ``stop_reason`` is "converged",
    "max_outer", "stalled" (a sweep accepted no block, and its worst
    trial missed by more than the outer stopping rule allows) or, in a
    SolverError, "aborted".  A sweep whose every trial misses by less
    than that is a fixed point and ends "converged".
    """

    objective: list[float]
    inner_iterations: list[int]
    effective_terms: list[int]
    duration: float
    rejected_blocks: int = 0
    stop_reason: str = "unknown"

    @property
    def outer_iterations(self) -> int:
        return len(self.objective) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def write_report(report: FitReport, path) -> None:
    """Trace CSV: one row per outer iteration, row 0 the initialization."""
    rows = np.column_stack([np.arange(len(report.objective)), report.objective,
                            report.inner_iterations, report.effective_terms])
    with open(path, "w", encoding="utf-8") as handle:
        np.savetxt(handle, rows, fmt="%d,%.17g,%d,%d", header=REPORT_HEADER,
                   comments="")


def read_report(path) -> FitReport:
    """Read a trace CSV; stop_reason "unknown", duration NaN, and
    rejected_blocks 0, since the file does not store it."""
    with open(path, encoding="utf-8") as handle:
        if handle.readline().strip() != REPORT_HEADER:
            raise ValueError("not a fit report CSV")
        obj, inner, eff = [], [], []
        for k, line in enumerate(handle):
            parts = line.strip().split(",")
            if len(parts) != 4 or int(parts[0]) != k:
                raise ValueError(f"malformed report row {k}")
            obj.append(float(parts[1]))
            inner.append(int(parts[2]))
            eff.append(int(parts[3]))
    if not obj:
        raise ValueError("fit report has no row 0, the initialization")
    return FitReport(obj, inner, eff, float("nan"))


class SolverError(RuntimeError):
    """Fit aborted; carries the last consistent state for inspection."""

    def __init__(self, message, model=None, report=None):
        super().__init__(message)
        self.model = model
        self.report = report


def mm_poisson_regression_group(
    design: np.ndarray,
    counts: np.ndarray,
    segment: np.ndarray,
    start: np.ndarray,
    beta: float = 0.0,
    tol: float = SolverConfig.inner_tol,
    max_iter: int = 250,
) -> tuple[np.ndarray, int]:
    """Jointly solve one Poisson regression per column under group shrinkage.

    Parameters
    ----------
    design : (J, K) nonnegative array
        One design row per observation, stacked over every column's
        regression.
    counts : (J,) positive counts
    segment : (J,) nondecreasing integers in [0, n_columns)
        The coefficient column each row belongs to, so the rows of one
        column are contiguous.  A column that no row carries has no
        data; its coefficients decay to zero.
    start : (K, n_columns) nonnegative array
        Initial coefficients; zero entries stay zero (the update is
        multiplicative), which is how dead components stay frozen
        across calls.
    beta
        Strength of the penalty beta * sum_k log(epsilon + sum_c b[k, c]),
        with the offset ``SolverConfig.epsilon``.

    Returns
    -------
    (B, sweeps): the coefficient matrix and the number of sweeps run.
    Each sweep applies the reweighted multiplicative update to every
    column with the reweighting held at the sweep's starting point; the
    penalized objective never increases from sweep to sweep.  Then
    coefficients at or below ``DEAD_FLOOR`` become exact zeros; a count
    whose only support dies fails the next sweep ("zero intensity").
    """
    B = np.asarray(start, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError("start must be (K, n_columns) matching the data")
    if not np.isfinite(B).all() or B.min(initial=0) < 0:
        raise ValueError("start must be finite and nonnegative")
    design = np.ascontiguousarray(design, dtype=np.float64)
    x = np.asarray(counts, dtype=np.float64)
    segment = np.asarray(segment)
    if design.shape != (len(x), B.shape[0]) or segment.shape != x.shape:
        raise ValueError(
            "design must be (J, K): one row per count and segment id, "
            "one column per coefficient"
        )
    if not beta >= 0:
        raise ValueError("beta must be >= 0")
    # NaN fails every comparison, so these reductions reject it too.
    # Past the sign check a row sums to 0 only if it is all zero, and
    # sums are finite unless an entry is infinite or a sum overflows.
    row_sums = design @ np.ones(design.shape[1])
    if not (design.min(initial=0) >= 0 and (
        row_sums.max(initial=0) < np.inf or design.max(initial=0) < np.inf
    )):
        raise ValueError("designs must be finite and nonnegative")
    if not (x.min(initial=1) > 0 and x.max(initial=0) < np.inf):
        raise ValueError("counts must be positive and finite")
    dead_rows = row_sums <= 0
    if dead_rows.any():
        j = int(np.flatnonzero(dead_rows)[0])
        raise ValueError(
            f"infeasible row: observation {j} has a positive count "
            "but an all-zero design row"
        )
    if len(segment) and (
        segment.dtype.kind not in "iu"
        or segment[0] < 0 or segment[-1] >= B.shape[1]
        or (np.diff(segment) < 0).any()
    ):
        raise ValueError(
            "segment ids must be sorted integers in [0, n_columns)"
        )
    # The iterate is held transposed, one contiguous row per column, and
    # updated in place, so the views below stay valid across sweeps and
    # a sweep allocates no array per entry.
    bt = np.array(B.T, order="C")
    lam = np.empty(len(x))
    ratio = np.empty(len(x))
    numer = np.zeros_like(bt)
    new, delta, floor = (np.empty_like(bt) for _ in range(3))
    # Row blocks of at most `step` rows: a run of whole spans, or one
    # piece of a longer span; a split span sums its pieces' numerators.
    step = _block_rows(bt.shape[1])
    first = np.flatnonzero(np.diff(segment, prepend=-1))
    ends = first[1:].tolist() + [len(segment)]
    blocks, splits = [], []
    for c, s, e in zip(segment[first].tolist(), first.tolist(), ends):
        own = numer[c:c + 1]
        if e - s > step:
            own = np.empty((-(-(e - s) // step), bt.shape[1]))
            splits.append((own, numer[c]))
        for q, out in zip(range(s, e, step), own):
            r = min(q + step, e)
            if not blocks or r - blocks[-1][0] > step:
                blocks.append([q, r, []])
            blocks[-1][1] = r
            blocks[-1][2].append(
                (design[q:r], bt[c], lam[q:r], ratio[q:r], out))
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        for s, e, views in blocks:
            for rows, b, lam_c, _, _ in views:
                np.matmul(rows, b, out=lam_c)
            if lam[s:e].min() <= 0:
                raise ValueError(
                    "zero intensity at a positive count; the iterate "
                    "cannot support the data"
                )
            np.divide(x[s:e], lam[s:e], out=ratio[s:e])
            for rows, _, _, ratio_c, out in views:
                np.matmul(ratio_c, rows, out=out)
        for own, out in splits:
            own.sum(axis=0, out=out)
        np.multiply(bt, numer, out=new)
        new *= 1.0 / (1.0 + beta / (SolverConfig.epsilon + bt.sum(0)))
        np.abs(np.subtract(new, bt, out=delta), out=delta)
        delta /= np.maximum(bt, 1e-30, out=floor)
        new[new <= DEAD_FLOOR] = 0.0
        bt[...] = new
        if delta.max(initial=0) < tol:
            break
    return np.ascontiguousarray(bt.T), sweeps


def initialize(
    config: SolverConfig, shape: tuple[int, ...], total_count: float
) -> CpBtdModel:
    """Deterministic random starting point of a fit.

    Factor columns are normalized positive uniforms; mixing weights
    are uniform within each term; scores start near the count mass
    split evenly across terms and replicates, each entry perturbed by
    +-10% so that no two terms start identical.
    """
    if not total_count > 0:
        raise ValueError("cannot fit an empty tensor")
    if len(shape) < 2:
        raise ValueError("need at least one mode plus the replicate mode")
    ranks = config.resolved_ranks()
    total_rank = sum(ranks)
    rng = np.random.default_rng(config.seed)
    factors = []
    for size in shape[:-1]:
        u = np.maximum(rng.uniform(size=(size, total_rank)), 1e-300)
        factors.append(u / u.sum(axis=0))
    omega = np.concatenate([np.full(r, 1.0 / r) for r in ranks])
    n = shape[-1]
    base = total_count / (config.n_terms * n)
    upsilon = base * (
        1.0 + rng.uniform(-0.1, 0.1, size=(config.n_terms, n))
    )
    return CpBtdModel(ranks, factors, omega, upsilon)


def block_design(
    model: CpBtdModel, tensor: SparseCountTensor, mode: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(design, counts, segment, start) of one block's regressions.

    One row per stored entry, in ``mode_order(mode)``, gathered from its
    cell's factor-row product; ``segment`` is the entry's index along
    ``mode``, so rows sharing it share a coefficient column.  The
    replicate mode is the score block: rows mixed into terms, usage
    scores as coefficients.  Any other mode leaves its own factor out,
    scales rows by the replicate's per-component scores psi, and solves
    for A = Phi diag(tau), tau the component masses.

    Memory: the design is the one nnz x total-rank float64 array a
    block holds.  A mode block fills it a row block at a time from the
    cell-level factor rows, so its scratch is one gathered block of at
    most ``_BLOCK_ELEMENTS`` entries.
    """
    order = tensor.mode_order(mode)
    segment = tensor.indices[order, mode]
    cells, inverse = tensor.cell_groups()
    gather = inverse[order]
    if mode == tensor.ndim - 1:
        mixed = factor_rows(cells, model.factors) @ model.omega_matrix()
        return mixed[gather], tensor.counts[order], segment, model.upsilon
    usage = model.term_usage()
    blocks = model.block_of_component()
    safe = np.where(usage > 0, usage, 1.0)
    psi = (model.upsilon / safe[:, None])[blocks].T
    rows = factor_rows(cells, model.factors, skip=mode)
    reps = tensor.indices[order, -1]
    design = np.empty((tensor.nnz, model.total_rank))
    for s in _row_blocks(tensor.nnz, model.total_rank):
        # take's default mode buffers a copy; "clip" writes in place and
        # clips nothing, since every index is a valid cell.
        np.take(rows, gather[s], axis=0, out=design[s], mode="clip")
        design[s] *= psi[reps[s]]
    start = (model.factors[mode] * model.component_scale()).T
    return design, tensor.counts[order], segment, start


def _solve_block(model, tensor, mode, config):
    return mm_poisson_regression_group(
        *block_design(model, tensor, mode),
        beta=config.shrinkage_strength(tensor.nnz),
        max_iter=config.max_inner,
    )


def update_scores(
    model: CpBtdModel, tensor: SparseCountTensor, config: SolverConfig
) -> tuple[CpBtdModel, int]:
    """Refit every replicate's usage scores at fixed motifs.

    The replicate subproblems are independent Poisson regressions on
    the sampled design rows; with shrinkage on they share the log-sum
    penalty over each term's row of scores.
    """
    out = model.copy()
    out.upsilon, sweeps = _solve_block(model, tensor, tensor.ndim - 1, config)
    return out, sweeps


def update_mode(
    model: CpBtdModel, tensor: SparseCountTensor, mode: int, config: SolverConfig
) -> tuple[CpBtdModel, int]:
    """Refit one mode's profiles (and the mixing weights) in mass form.

    Solves the row subproblems of A = Phi diag(tau), tau the component
    masses, then splits A back into a column-stochastic factor, block
    mixing weights, and rescaled usage scores.  The rescale is exact:
    the intensity function after the split equals the one the
    regression optimized.  A component left at zero mass keeps its last
    profile; a term left at zero mass (as every zero-usage term is)
    keeps its mixing weights and gets zero scores.
    """
    if not 0 <= mode < model.n_modes:
        raise ValueError("mode out of range")
    mass_form, sweeps = _solve_block(model, tensor, mode, config)
    a = mass_form.T
    rho = a.sum(axis=0)
    mass = model.term_sums(rho)
    live = rho > 0
    term = model.block_of_component()
    in_live = (mass > 0)[term]
    out = model.copy()
    out.factors[mode][:, live] = a[:, live] / rho[live]
    out.omega[in_live] = rho[in_live] / mass[term[in_live]]
    out.upsilon *= np.divide(mass, model.term_usage(), where=mass > 0,
                             out=np.zeros(model.n_terms))[:, None]
    return out, sweeps


def penalized_objective(
    model: CpBtdModel,
    tensor: SparseCountTensor,
    beta: float,
    epsilon: float,
) -> float:
    """Monitored objective: deviance core plus every block's penalty.

    The mode-block penalties all equal the log-sum of the component
    masses when the model is in canonical (column-stochastic) form, so
    they enter once per mode.
    """
    f = objective(model, tensor)
    usage = model.term_usage()
    tau = model.component_scale()
    pen = float(
        np.log(usage + epsilon).sum()
        + model.n_modes * np.log(tau + epsilon).sum()
    )
    return f + beta * pen


def _settled(trace: list[float], tol: float) -> bool:
    """Outer stopping rule: the last step's relative objective drop."""
    return abs(trace[-2] - trace[-1]) < tol * max(1.0, abs(trace[-2]))


def fit_block_gs(
    tensor: SparseCountTensor, config: SolverConfig
) -> tuple[CpBtdModel, FitReport]:
    """Block nonlinear Gauss-Seidel fit: scores first, then each mode.

    Each block update is accepted only if the monitored objective does
    not increase; rejected blocks keep the previous state, so the
    report trace is nonincreasing no matter how the per-block
    penalties interact.  Runs until the relative objective change
    drops below ``outer_tol``, a sweep accepts no block, or
    ``max_outer`` is reached.  A block update that fails numerically,
    or a non-finite objective, raises SolverError carrying the partial
    report.
    """
    t0 = time.perf_counter()
    model = initialize(config, tensor.shape, float(tensor.total))
    beta = config.shrinkage_strength(tensor.nnz)
    current = penalized_objective(model, tensor, beta, config.epsilon)
    if not math.isfinite(current):
        raise SolverError("non-finite objective at initialization",
                          model=model)
    report = FitReport([current], [0], [effective_terms(model)], math.nan)

    def ended(stop_reason="aborted"):
        report.duration = time.perf_counter() - t0
        report.stop_reason = stop_reason
        return report

    blocks = [(update_scores, ())]
    blocks += [(update_mode, (p,)) for p in range(model.n_modes)]
    for _ in range(config.max_outer):
        inner_total = accepted = 0
        worst = current
        for update, args in blocks:
            try:
                trial, sweeps = update(model, tensor, *args, config)
            except ValueError as exc:
                block = f"mode {args[0]}" if args else "score"
                raise SolverError(f"fit aborted in the {block} block: {exc}",
                                  model=model, report=ended()) from exc
            inner_total += sweeps
            value = penalized_objective(trial, tensor, beta, config.epsilon)
            if not math.isfinite(value):
                raise SolverError("fit aborted on a non-finite objective",
                                  model=trial, report=ended())
            if value <= current:
                model, current = trial, value
                accepted += 1
            else:
                report.rejected_blocks += 1
                worst = max(worst, value)
        report.objective.append(current)
        report.inner_iterations.append(inner_total)
        report.effective_terms.append(effective_terms(model))
        if not accepted:
            # Trials that miss only by rounding mean a fixed point.
            settled = _settled([current, worst], config.outer_tol)
            return model, ended("converged" if settled else "stalled")
        if _settled(report.objective, config.outer_tol):
            return model, ended("converged")
    return model, ended("max_outer")
