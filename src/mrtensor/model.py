"""Poisson count model with block-term factor structure.

Each of H terms is a motif: a probability tensor over the cell grid
built as a sum of R_h rank-one products of column-stochastic mode
profiles, mixed by a weight vector that sums to one.  Replicate n
superimposes the motifs with nonnegative usage scores, so the cell
intensity is

    lambda(cell, n) = sum_h upsilon[h, n] *
                      sum_r omega[r] * prod_p phi_p[cell_p, r]

with r running over term h's block.  Because every motif is a
probability tensor, a term's usage scores are its expected event
counts per replicate, and marginalizing a motif over its finer scale
pairs reproduces the coarser-scale motif exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encode import _dense_side, _grid_depth
from .sptensor import SparseCountTensor, _key_values, _row_blocks, factor_rows

MODEL_HEADER = "cpbtd v1"

# Mixing weights or usage row sums at or below this are reported inactive.
RANK_THRESHOLD = 1e-10


@dataclass
class CpBtdModel:
    """Factors, mixing weights, and usage scores of the count model.

    factors[p] is I_p x R_total with the R_h columns of each term
    contiguous; ``omega`` is the flat R_total mixing vector; ``upsilon``
    is H x N.  Nothing is removed, so indexing is stable: a dead
    component (zero ``component_scale``) keeps its last profiles, and a
    dead term keeps its weights; its zero scores are what mark it.
    """

    ranks: tuple[int, ...]
    factors: list[np.ndarray]
    omega: np.ndarray
    upsilon: np.ndarray
    _offsets: np.ndarray = field(init=False, repr=False)
    _block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.ranks = tuple(int(r) for r in self.ranks)
        if not self.ranks or any(r < 1 for r in self.ranks):
            raise ValueError("every term needs rank >= 1")
        self._offsets = np.concatenate(
            [[0], np.cumsum(np.asarray(self.ranks, dtype=np.int64))]
        )
        self._block = np.repeat(np.arange(len(self.ranks)), self.ranks)
        total = int(self._offsets[-1])
        self.factors = [np.ascontiguousarray(f, dtype=np.float64) for f in self.factors]
        self.omega = np.ascontiguousarray(self.omega, dtype=np.float64)
        self.upsilon = np.ascontiguousarray(self.upsilon, dtype=np.float64)
        if not self.factors:
            raise ValueError("need at least one mode factor")
        for f in self.factors:
            if f.ndim != 2 or f.shape[1] != total:
                raise ValueError("factor width must equal the total rank")
            if not np.isfinite(f).all() or f.min(initial=0) < 0:
                raise ValueError("factors must be finite and nonnegative")
        if self.omega.shape != (total,):
            raise ValueError("omega must be flat with one entry per component")
        if self.upsilon.ndim != 2 or self.upsilon.shape[0] != len(self.ranks):
            raise ValueError("upsilon must be H x N")
        for arr in (self.omega, self.upsilon):
            if not np.isfinite(arr).all() or arr.min(initial=0) < 0:
                raise ValueError("weights and scores must be finite, >= 0")

    # -- structure ---------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self.ranks)

    @property
    def total_rank(self) -> int:
        return int(self._offsets[-1])

    @property
    def n_modes(self) -> int:
        return len(self.factors)

    @property
    def mode_sizes(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def n_replicates(self) -> int:
        return self.upsilon.shape[1]

    def block(self, term: int) -> slice:
        """Column slice of term ``term`` inside factors and omega."""
        if not 0 <= term < self.n_terms:
            raise ValueError("term out of range")
        return slice(int(self._offsets[term]), int(self._offsets[term + 1]))

    def block_of_component(self) -> np.ndarray:
        """Term index of every flat component column."""
        return self._block.copy()

    def term_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-term sums of a flat per-component array."""
        ends = self._offsets.tolist()
        return np.array([values[s:e].sum() for s, e in zip(ends, ends[1:])])

    def term_usage(self) -> np.ndarray:
        """Total usage (expected events) per term: row sums of upsilon."""
        return self.upsilon.sum(axis=1)

    def component_scale(self) -> np.ndarray:
        """Expected events per flat component: omega * own term's usage."""
        return self.omega * self.term_usage()[self._block]

    def copy(self) -> "CpBtdModel":
        return CpBtdModel(
            self.ranks,
            [f.copy() for f in self.factors],
            self.omega.copy(),
            self.upsilon.copy(),
        )

    def _trusted_copy(self) -> "CpBtdModel":
        """``copy()`` of a model already validated, without validating it
        again: the arrays are copied, the structure is shared."""
        out = object.__new__(CpBtdModel)
        vars(out).update(vars(self), factors=[f.copy() for f in self.factors],
                         omega=self.omega.copy(), upsilon=self.upsilon.copy())
        return out


def motif_at_scale(model: CpBtdModel, term: int, scale: int) -> np.ndarray:
    """Render term ``term`` as its origin x destination matrix at a scale.

    Modes must come in (origin, destination) pairs of size 4 per scale.
    The matrix is 4**scale square, row index chaining the origin
    quadrants coarsest-first, and sums to one when the term's profiles
    and weights are stochastic.  Aggregating 4 x 4 blocks reproduces
    the scale - 1 matrix.
    """
    _grid_depth(model.mode_sizes, scale)
    _dense_side(scale)
    blk = model.block(term)
    nodes = np.indices((4,) * scale).reshape(scale, -1).T
    profiles = [phi[:, blk] for phi in model.factors[: 2 * scale]]
    origin = factor_rows(nodes, profiles[0::2])
    dest = factor_rows(nodes, profiles[1::2])
    return (origin * model.omega[blk]) @ dest.T


def normalize_scores(model: CpBtdModel) -> tuple[np.ndarray, np.ndarray]:
    """Split the scores into per-replicate shares and totals.

    Returns ``(theta, eta)``: theta[:, n] = upsilon[:, n] / eta[n] with
    eta the column sums, so theta columns sum to one and theta *
    diag(eta) reproduces upsilon.  A replicate with all-zero scores has
    no shares and is an error.
    """
    eta = model.upsilon.sum(axis=0)
    if (eta <= 0).any():
        bad = int(np.flatnonzero(eta <= 0)[0])
        raise ValueError(f"replicate {bad} has zero total score")
    return model.upsilon / eta, eta


def effective_rank(model: CpBtdModel, term: int) -> int:
    """Number of mixing weights of one term above RANK_THRESHOLD."""
    return int((model.omega[model.block(term)] > RANK_THRESHOLD).sum())


def effective_terms(model: CpBtdModel) -> int:
    """Number of terms whose total usage exceeds RANK_THRESHOLD."""
    return int((model.term_usage() > RANK_THRESHOLD).sum())


def _live(model: CpBtdModel):
    """(terms, components, factors, mixing, usage, scale) at live width:
    the live terms (usage > 0) and components (scale > 0), each factor's
    live columns, and the mixing matrix, each weight in its term's
    column; then the ``term_usage()`` and ``component_scale()`` they
    come from.  A dead one has mass 0: it adds to no intensity."""
    usage = model.term_usage()
    scale = model.omega * usage[model._block]
    terms = np.flatnonzero(usage > 0)
    components = np.flatnonzero(scale > 0)
    mixing = np.zeros((len(components), len(terms)))
    column = np.searchsorted(terms, model._block[components])
    mixing[np.arange(len(components)), column] = model.omega[components]
    factors = [phi[:, components] for phi in model.factors]
    return terms, components, factors, mixing, usage, scale


def objective(model: CpBtdModel, tensor: SparseCountTensor,
              live=None) -> float:
    """Poisson deviance core: sum of intensities minus count-weighted logs.

    The linear term is the exact sum of the intensity over every cell
    (computed from factor column sums, so it does not rely on the
    stochasticity constraints).  A zero intensity at a stored positive
    count makes the objective +inf.

    Every sum runs over the live terms and components only: ``live`` is
    ``_live(model)``, computed here unless the caller has it.
    Memory: the intensities are one nnz vector filled a row block at a
    time, so the scratch is two gathered blocks of at most
    ``_BLOCK_ELEMENTS`` entries each, never an nnz x H array.
    """
    if tensor.ndim != model.n_modes + 1:
        raise ValueError("tensor order does not match the model")
    if tensor.shape[-1] != model.n_replicates:
        raise ValueError("replicate counts disagree")
    if tensor.shape[:-1] != model.mode_sizes:
        raise ValueError("mode sizes disagree")
    terms, components, factors, mixing, _, scale = (
        _live(model) if live is None else live)
    colsum = np.prod([phi.sum(axis=0) for phi in factors], axis=0)
    linear = float(colsum @ scale[components])
    # Mix live components into live terms once per cell, then dot each
    # entry's cell row with its replicate's scores.
    cells, inverse = tensor.cell_groups()
    mixed = factor_rows(cells, factors) @ mixing
    scores = model.upsilon[terms].T
    reps = tensor.indices[:, -1]
    lam = np.empty(tensor.nnz)
    for s in _row_blocks(tensor.nnz, len(terms)):
        np.einsum("jh,jh->j", mixed[inverse[s]], scores[reps[s]], out=lam[s])
    if (lam <= 0).any():
        return math.inf
    return linear - float(tensor.counts @ np.log(lam))


def _sections(sizes, ranks, n_rep):
    """(title, line widths) of each model-file section, in file order.
    Widths are generated, so a claimed count costs nothing unread."""
    def lines(width, count):
        return (width for _ in range(count))

    return [(f"phi {p}", lines(size, sum(ranks)))
            for p, size in enumerate(sizes, start=1)] + [
        ("omega", ranks), ("upsilon", lines(len(ranks), n_rep))]


def write_model(model: CpBtdModel, path) -> None:
    """Write the ``cpbtd v1`` text form (column-major sections)."""
    sizes = ",".join(map(str, model.mode_sizes))
    ranks = ",".join(map(str, model.ranks))
    values = [*(phi.T for phi in model.factors), model.omega, model.upsilon.T]
    sections = _sections(model.mode_sizes, model.ranks, model.n_replicates)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{MODEL_HEADER}\nP={model.n_modes} I={sizes} "
                     f"H={model.n_terms} R={ranks} N={model.n_replicates}\n")
        for (title, widths), arr in zip(sections, values):
            fmt = "".join(" ".join(["%.17g"] * w) + "\n" for w in widths)
            handle.write(f"{title}\n" + fmt % tuple(arr.ravel().tolist()))


def read_model(path) -> CpBtdModel:
    """Read and validate the ``cpbtd v1`` text form."""
    with open(path, encoding="utf-8-sig") as handle:
        if handle.readline().strip() != MODEL_HEADER:
            raise ValueError("not a cpbtd v1 model file")
        n_modes, sizes, n_terms, ranks, n_rep = _key_values(
            handle.readline().split(),
            {"P": int, "I": tuple, "H": int, "R": tuple, "N": int},
            "malformed model metadata line")
        if (len(sizes) != n_modes or len(ranks) != n_terms
                or min(*sizes, *ranks, n_rep) < 0):
            raise ValueError("model metadata is inconsistent")
        sections = []
        for title, widths in _sections(sizes, ranks, n_rep):
            if handle.readline().split() != title.split():
                raise ValueError(f"expected section '{title}'")
            values = []
            for width in widths:
                line = handle.readline()
                if not line:
                    raise ValueError(f"truncated model file inside {title}")
                row = [float(v) for v in line.split()]
                if len(row) != width:
                    raise ValueError(f"{title}: expected {width} values, "
                                     f"found {len(row)}")
                values += row
            sections.append(np.array(values, dtype=np.float64))
        if handle.readline():
            raise ValueError("trailing content after upsilon section")
    *phis, omega, ups = sections
    factors = [v.reshape(sum(ranks), size).T for v, size in zip(phis, sizes)]
    return CpBtdModel(ranks, factors, omega, ups.reshape(n_rep, n_terms).T)
