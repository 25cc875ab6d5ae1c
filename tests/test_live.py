"""The live set: one checked evaluation of a model on a tensor.

``model._live(model, tensor, parent=None)`` checks that the tensor fits
the model, then evaluates the model at live width, mixed cell rows
included.  Every objective and block function computes it unless its
caller passes it, so each rejects a mismatched tensor with the same
``ValueError``.  A score block's trial may reuse its parent's factor
columns and mixed rows, and only when that gives exactly what
computing them anew would.
"""

import numpy as np
import pytest

from mrtensor import model as model_module
from mrtensor import solver
from mrtensor.analysis import simulate
from mrtensor.model import CpBtdModel, _live, objective
from mrtensor.solver import (
    SolverConfig, block_design, fit_block_gs, penalized_objective,
    update_mode, update_scores)
from mrtensor.sptensor import SparseCountTensor
from test_acceptance import recovery_benchmark


def random_model(rng, sizes, ranks, n_rep):
    total = sum(ranks)
    factors = []
    for size in sizes:
        u = rng.uniform(0.1, 1.0, size=(size, total))
        factors.append(u / u.sum(axis=0))
    omega = np.concatenate([rng.dirichlet(np.ones(r)) for r in ranks])
    upsilon = rng.uniform(0.5, 2.0, size=(len(ranks), n_rep))
    return CpBtdModel(tuple(ranks), factors, omega, upsilon)


def random_tensor(rng, shape, n_entries=30):
    idx = np.unique(np.column_stack(
        [rng.integers(0, d, size=n_entries) for d in shape]), axis=0)
    return SparseCountTensor.from_entries(
        shape, idx, rng.integers(1, 6, size=len(idx)))


# Tensors that do not fit a (4, 4) x 6 model, with the message each gets.
MISMATCHES = {
    "one replicate fewer": ((4, 4, 5), "replicate counts disagree"),
    "one replicate more": ((4, 4, 7), "replicate counts disagree"),
    "an extra mode": ((4, 4, 4, 6), "tensor order does not match the model"),
    "first mode of size 3": ((3, 4, 6), "mode sizes disagree"),
    "first mode of size 5": ((5, 4, 6), "mode sizes disagree"),
}

CONFIG = SolverConfig(n_terms=2, rank=2, max_inner=5)

CALLS = {
    "objective": lambda m, t: objective(m, t),
    "penalized_objective": lambda m, t: penalized_objective(m, t, 0.1, 1e-8),
    "update_scores": lambda m, t: update_scores(m, t, CONFIG),
    "update_mode": lambda m, t: update_mode(m, t, 0, CONFIG),
    "block_design score": lambda m, t: block_design(m, t, m.n_modes),
    "block_design mode 0": lambda m, t: block_design(m, t, 0),
}


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("mismatch", MISMATCHES)
def test_mismatched_tensor_rejected(call, mismatch):
    rng = np.random.default_rng(5)
    model = random_model(rng, (4, 4), (2, 2), 6)
    shape, message = MISMATCHES[mismatch]
    tensor = random_tensor(rng, shape)
    with pytest.raises(ValueError, match=message):
        CALLS[call](model, tensor)


def parent_and_trial(trial_usage):
    """A model and a copy with the same factors and weights whose first
    term's usage is ``trial_usage``; that term's first weight is 1e-300,
    so its component's mass underflows once the usage is small.  Its
    other component is 0 on the cells with first index 0, so there the
    term's mixed rows come from the first component alone."""
    rng = np.random.default_rng(9)
    parent = random_model(rng, (3, 4), (2, 3), 5)
    parent.omega[:2] = [1e-300, 1.0]
    parent.factors[0][:, 1] = [0.0, 0.5, 0.5]
    parent.upsilon[0] = [1e-10, 0, 0, 0, 0]
    trial = parent.copy()
    trial.upsilon[0, 0] = trial_usage
    return parent, trial, random_tensor(rng, (3, 4, 5))


def test_reuse_refused_when_a_component_underflows():
    parent, trial, tensor = parent_and_trial(1e-30)
    parent_live = _live(parent, tensor)
    reused, fresh = _live(trial, tensor, parent_live), _live(trial, tensor)
    assert np.array_equal(reused[0], parent_live[0])
    assert not np.array_equal(reused[1], parent_live[1])
    for field in (0, 1, 3, 4, 5):
        assert np.array_equal(reused[field], fresh[field])
    assert all(map(np.array_equal, reused[2], fresh[2]))


def test_reuse_computes_no_factor_rows(monkeypatch):
    parent, trial, tensor = parent_and_trial(2e-10)
    parent_live = _live(parent, tensor)
    calls = []
    rows = model_module.factor_rows
    monkeypatch.setattr(model_module, "factor_rows",
                        lambda *a, **k: calls.append(1) or rows(*a, **k))
    reused = _live(trial, tensor, parent_live)
    assert calls == []
    assert reused[3] is parent_live[3]
    assert np.array_equal(reused[4], trial.term_usage())


def fingerprint(fitted, report):
    return [*fitted.factors, fitted.omega, fitted.upsilon,
            np.array(report.objective), np.array(report.inner_iterations),
            np.array(report.effective_terms),
            np.array(report.rejected_blocks), np.array(report.stop_reason)]


def test_fit_with_reuse_matches_fit_without(monkeypatch):
    # The benchmark's recovery data set 44 at its fit settings.  Restart
    # 3 has a score trial whose live terms match the current model's
    # while one component's mass underflows, so the reuse is refused.
    tensor = simulate(recovery_benchmark(44), seed=1044)
    config = SolverConfig(n_terms=10, rank=3, beta=2e-2, outer_tol=1e-12,
                          max_outer=6, max_inner=10, seed=344)
    with_reuse = fingerprint(*fit_block_gs(tensor, config))
    refused = []

    def without_parent(model, tensor, parent=None):
        live = _live(model, tensor)
        if parent is not None and np.array_equal(live[0], parent[0]):
            refused.append(not np.array_equal(live[1], parent[1]))
        return live

    monkeypatch.setattr(solver, "_live", without_parent)
    without_reuse = fingerprint(*fit_block_gs(tensor, config))
    assert any(refused) and not all(refused)
    assert all(map(np.array_equal, with_reuse, without_reuse))
