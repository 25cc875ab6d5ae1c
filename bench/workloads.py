"""The three benchmark workloads: inputs, timed stages and output checks.

A workload's ``setup`` writes its inputs into a work directory and is
what ``setup_s`` times.  ``stages`` returns the ordered pipeline as
(stage name, run, check) triples: ``run`` is timed, ``check`` is not,
and a stage whose run raises or whose check fails counts once in
``failed``.  Stages of one repetition share a ``state`` dict, so a
failed stage makes the stages after it fail too.

Every repetition of a run sees the same inputs.  The first one is
checked in full against independent references; later ones must
reproduce its outputs exactly, which ``memo`` (one per run) holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

# Program functions are called through their modules, so the traced
# run's wrappers (installed on the module namespaces) see every call.
from mrtensor import analysis, cli, encode, ingest, model, solver, sptensor

import generators

# recovery: criterion 6's fit settings, but every restart gets the same
# small outer budget instead of running to its stopping rule.  Run to
# the stopping rule, one data set costs 3 s to 28 s depending on the
# seed (one restart alone took 1,599 outer iterations), which no run of
# bounded length can average into a steady time.  Larger budgets still
# vary with the seed, because a restart whose blocks are all rejected
# stops early (seen from outer iteration 5 on); six iterations keep the
# work per repetition nearly fixed.  The guard's rejections and stalls
# are counted, not timed.
RECOVERY_DATA_SETS = 4
RECOVERY_RESTARTS = 5
RECOVERY_MAX_OUTER = 6
SEASON_EVENTS = 60_000
SEASON_MAX_OUTER = 1
DEEP_EVENTS = 40_000
DEEP_MAX_OUTER = 1
# Far below any relative drop a fixed-budget fit can make, so the fit
# runs its max_outer iterations (unless every block is rejected).
NEVER_CONVERGED = 1e-300


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# -- references and shared checks ------------------------------------------

def dissimilarity_reference(table, scale):
    """Exposure-adjusted Bray-Curtis straight from parsed coordinates.

    Independent of the program's encoder: each event's origin and
    destination node come from binning its coordinates on the 2^scale
    grid and interleaving the tile bits coarsest first; counts per
    (team, origin node, destination node) come from one bincount, and
    pairs are compared over the union of their supports.
    """
    minutes = ingest.team_minutes(table)
    teams = list(minutes)
    reference_minutes = sum(minutes.values()) / len(minutes)
    team_of_rep = np.array([teams.index(r.team) for r in table.replicates])
    team = team_of_rep[table.replicate_index]
    tiles = np.floor(table.coords * 2**scale).astype(np.int64)
    nodes = np.zeros((len(tiles), 2), dtype=np.int64)
    for s in range(scale):
        bits = (tiles >> (scale - 1 - s)) & 1
        nodes = 4 * nodes + bits[:, [0, 2]] + 2 * bits[:, [1, 3]]
    size = 4**scale
    key = (team * size + nodes[:, 0]) * size + nodes[:, 1]
    cells, counts = np.unique(key, return_counts=True)
    owner = cells // (size * size)
    factor = np.array([reference_minutes / minutes[t] for t in teams])
    weight = counts * factor[owner]
    local = cells % (size * size)
    out = np.zeros((len(teams), len(teams)))
    for i in range(len(teams)):
        for j in range(i + 1, len(teams)):
            mine = owner == i
            theirs = owner == j
            keys = np.concatenate([local[mine], local[theirs]])
            vals = np.concatenate([weight[mine], -weight[theirs]])
            uniq, inv = np.unique(keys, return_inverse=True)
            diff = np.bincount(inv, weights=vals, minlength=len(uniq))
            total = weight[mine].sum() + weight[theirs].sum()
            out[i, j] = out[j, i] = np.abs(diff).sum() / total
    return tuple(teams), out


def check_dissimilarity(labels, values, table, scale) -> None:
    expect(np.array_equal(values, values.T), "matrix not symmetric")
    expect(np.all(np.diag(values) == 0), "nonzero diagonal")
    expect(values.min() >= 0 and values.max() <= 1, "value outside [0, 1]")
    ref_labels, ref = dissimilarity_reference(table, scale)
    expect(tuple(labels) == ref_labels, "team labels differ from reference")
    gap = float(np.abs(values - ref).max())
    expect(gap <= 1e-12, f"dissimilarity off the reference by {gap:.3e}")


def check_tensor_totals(tensor, table) -> None:
    expect(tensor.total == table.n_events, "tensor total != event count")
    per_rep = np.bincount(
        tensor.indices[:, -1], weights=tensor.counts,
        minlength=tensor.shape[-1],
    )
    events = np.bincount(table.replicate_index, minlength=table.n_replicates)
    expect(np.array_equal(per_rep, events), "per-replicate totals differ")


def check_fit(report, fitted) -> None:
    trace = np.asarray(report.objective)
    expect(np.isfinite(trace).all(), "non-finite objective trace")
    expect(np.all(np.diff(trace) <= 0), "objective trace increases")
    for arr in [*fitted.factors, fitted.omega, fitted.upsilon]:
        expect(np.isfinite(arr).all(), "non-finite model parameter")


def same_tensor(a, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.counts, b.counts)
    )


def same_model(a, b) -> bool:
    return (
        a.ranks == b.ranks
        and all(np.array_equal(x, y) for x, y in zip(a.factors, b.factors))
        and np.array_equal(a.omega, b.omega)
        and np.array_equal(a.upsilon, b.upsilon)
    )


def same_as_first(memo: dict, key: str, value, equal, full_check) -> None:
    """Full check on the first repetition, exact reproduction afterwards."""
    if key not in memo:
        full_check()
        memo[key] = value
    else:
        expect(equal(value, memo[key]), f"{key} differs between repetitions")


def same_arrays(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


# -- recovery ----------------------------------------------------------------
# Why: the tensor is tiny (nnz about 1.5k on a 4^4 x 40 grid per data
# set), so per-block Python overhead, the objective checks and the
# accept/reject guard dominate, and the data layers do almost nothing.
# Penalty-consistent block majorizers show here, in the rejection and
# stall counters and in the time of the fixed fit budget; motif_cosine
# and term_count_error say how close the fits get to the planted motifs.

class Recovery:
    name = "recovery"

    def setup(self, seed: int, workdir: str) -> dict:
        sets = []
        for k in range(RECOVERY_DATA_SETS):
            data_seed = RECOVERY_DATA_SETS * seed + k
            truth = generators.planted_truth(data_seed)
            tensor, text = generators.recovery_events(truth, data_seed)
            path = os.path.join(workdir, f"recovery_{k}.csv")
            with open(path, "w") as handle:
                handle.write(text)
            sets.append({"seed": data_seed, "truth": truth,
                         "tensor": tensor, "csv": path})
        return {"sets": sets}

    def stages(self, inputs: dict, workdir: str, state: dict, memo: dict):
        sets = inputs["sets"]

        def run_encode():
            state["tables"] = [ingest.parse_events(d["csv"]) for d in sets]
            state["tensors"] = [
                encode.build_tensor(t, 2) for t in state["tables"]]

        def check_encode():
            encoded = zip(sets, state["tables"], state["tensors"])
            for d, table, tensor in encoded:
                expect(same_tensor(tensor, d["tensor"]),
                       "encoded tensor differs from the sampled one")
                check_tensor_totals(tensor, table)
            memo.setdefault("tables", state["tables"])
            memo.setdefault("tensors", state["tensors"])

        def run_fit():
            state["best"], state["fits"] = [], []
            for d, tensor in zip(sets, state["tensors"]):
                best = None
                for r in range(RECOVERY_RESTARTS):
                    config = solver.SolverConfig(
                        n_terms=10, rank=3, beta=2e-2, outer_tol=1e-12,
                        max_outer=RECOVERY_MAX_OUTER, max_inner=10,
                        seed=d["seed"] + 100 * r)
                    fitted, report = solver.fit_block_gs(tensor, config)
                    state["fits"].append((report, fitted))
                    score = solver.penalized_objective(
                        fitted, tensor, config.shrinkage_strength(tensor.nnz),
                        config.epsilon)
                    if best is None or score < best[0]:
                        best = (score, fitted)
                state["best"].append(best[1])

        def check_fit_stage():
            def full():
                for report, fitted in state["fits"]:
                    check_fit(report, fitted)

            same_as_first(memo, "fitted models", state["best"],
                          lambda a, b: all(map(same_model, a, b)), full)

        def run_motifs():
            cosines, errors = [], []
            for d, fitted in zip(sets, state["best"]):
                top = [h for h, _ in analysis.rank_motifs(fitted)][:3]
                found = [model.motif_at_scale(fitted, h, 2) for h in top]
                truth = [
                    model.motif_at_scale(d["truth"], h, 2) for h in range(3)]
                pairs = analysis.match_motifs(found, truth)
                cosines.extend(c for _, _, c in pairs)
                errors.append(abs(model.effective_terms(fitted) - 3))
            state["quality"] = (float(np.mean(cosines)), float(np.mean(errors)))

        def check_motifs():
            cosine = state["quality"][0]
            expect(-1 <= cosine <= 1 + 1e-12, "cosine out of range")
            memo["quality"] = state["quality"]

        def run_dissim():
            state["dissim"] = [
                analysis.dissimilarity_matrix(t, 2) for t in state["tables"]]

        def check_dissim():
            def full():
                for table, d in zip(state["tables"], state["dissim"]):
                    check_dissimilarity(d.labels, d.values, table, 2)

            same_as_first(memo, "dissimilarity",
                          [d.values for d in state["dissim"]], same_arrays, full)

        return [
            ("encode", run_encode, check_encode),
            ("fit", run_fit, check_fit_stage),
            ("motifs", run_motifs, check_motifs),
            ("dissim", run_dissim, check_dissim),
        ]


# -- season ------------------------------------------------------------------
# Why: the real per-iteration cost of a season-sized fit through the
# command line: CSV parsing (twice: encode and dissim), the text
# formats, factor rows, design rows, inner sweeps and recomputing the
# objective.  At S=3 a season has few distinct non-replicate cells per
# stored entry (sptensor.cell_share well below 1), so a per-cell
# Khatri-Rao cache has much sharing to exploit here.

class Season:
    name = "season"

    def setup(self, seed: int, workdir: str) -> dict:
        path = os.path.join(workdir, "season.csv")
        with open(path, "w") as handle:
            handle.write(generators.season_events(seed, SEASON_EVENTS))
        return {"csv": path}

    def stages(self, inputs: dict, workdir: str, state: dict, memo: dict):
        csv = inputs["csv"]
        tensor_path = os.path.join(workdir, "season.tns")
        model_path = os.path.join(workdir, "season.model")
        report_path = os.path.join(workdir, "season_report.csv")
        motif_dir = os.path.join(workdir, "motifs")
        dissim_path = os.path.join(workdir, "dissim.csv")
        scores_path = os.path.join(workdir, "scores.csv")
        config = solver.SolverConfig(
            n_terms=20, rank=3, beta=1e-3, max_inner=10,
            max_outer=SEASON_MAX_OUTER, outer_tol=NEVER_CONVERGED, seed=0)
        fit_flags = [
            "-H", "20", "-R", "3", "--beta", "1e-3", "--max-inner", "10",
            "--max-outer", str(SEASON_MAX_OUTER),
            "--outer-tol", str(NEVER_CONVERGED), "--seed", "0",
        ]

        def command(*argv):
            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(list(argv))
                expect(code == 0, f"mrtensor {argv[0]} exited {code}")
            return run

        def checked_files(key, paths, full):
            same_as_first(memo, key, [file_digest(p) for p in paths],
                          list.__eq__, full)

        def check_encode():
            def full():
                table = ingest.parse_events(csv)
                tensor = sptensor.read_tensor(tensor_path)
                expect(same_tensor(tensor, encode.build_tensor(table, 3)),
                       "tensor file differs from the library encoding")
                check_tensor_totals(tensor, table)
                memo["tables"], memo["tensors"] = [table], [tensor]

            checked_files("tensor file", [tensor_path], full)

        def check_fit_stage():
            def full():
                fitted = model.read_model(model_path)
                report = solver.read_report(report_path)
                expect(report.outer_iterations == SEASON_MAX_OUTER,
                       "fit stopped before its fixed budget")
                check_fit(report, fitted)
                library = solver.fit_block_gs(memo["tensors"][0], config)[0]
                expect(same_model(fitted, library),
                       "model file differs from the library fit")
                memo["model"] = fitted

            checked_files("model files", [model_path, report_path], full)

        def check_motifs():
            fitted = memo["model"]
            shown = [(h, s, os.path.join(motif_dir, f"motif_{h + 1}_scale_{s}"))
                     for h, _ in analysis.rank_motifs(fitted)[:5]
                     for s in (1, 2, 3)]
            expect(len(shown) == 15, "expected five motifs at three scales")

            def full():
                for h, s, stem in shown:
                    matrix = np.loadtxt(stem + ".csv", delimiter=",", ndmin=2)
                    expect(np.array_equal(
                        matrix, model.motif_at_scale(fitted, h, s)),
                        "motif CSV differs from the model")
                    expect(os.path.getsize(stem + ".svg") > 0, "empty SVG")

            checked_files("motif files", [
                stem + ext for _, _, stem in shown for ext in (".csv", ".svg")
            ], full)

        def check_dissim():
            def full():
                with open(dissim_path) as handle:
                    labels = handle.readline().strip().split(",")[1:]
                    values = np.loadtxt(handle, delimiter=",", ndmin=2,
                                        usecols=range(1, len(labels) + 1))
                check_dissimilarity(labels, values, memo["tables"][0], 3)

            checked_files("dissimilarity file", [dissim_path], full)

        def check_scores():
            def full():
                with open(scores_path) as handle:
                    rows = [line.strip().split(",") for line in handle]
                theta = np.array(
                    [[float(v) for v in r[1:]] for r in rows[1:-1]])
                eta = np.array([float(v) for v in rows[-1][1:]])
                expect(np.allclose(theta.sum(axis=0), 1.0, rtol=0, atol=1e-12),
                       "score shares do not sum to one")
                expect(np.array_equal(eta, memo["model"].upsilon.sum(axis=0)),
                       "score totals differ from the model")

            checked_files("scores file", [scores_path], full)

        return [
            ("encode", command("encode", csv, "-S", "3", "--out", tensor_path),
             check_encode),
            ("fit", command("fit", tensor_path, *fit_flags, "--report",
                            report_path, "--out", model_path), check_fit_stage),
            ("motifs", command("motifs", model_path, "--top", "5",
                               "--out", motif_dir), check_motifs),
            ("dissim", command("dissim", csv, "--scale", "3",
                               "--out", dissim_path), check_dissim),
            ("scores", command("scores", model_path, "--out", scores_path),
             check_scores),
        ]


# -- deep --------------------------------------------------------------------
# Why: the same season generator encoded at S=5 (10 quadrant modes).
# Almost every stored entry has its own non-replicate cell
# (sptensor.cell_share near 1), so a per-cell cache has nothing to
# share and must cost nothing; the ten mode blocks make the repeated
# Hadamard products dominate the fit; and dissimilarity at scale 5
# compares 1024 x 1024 networks over 190 team pairs.
# Run it by hand (--workload deep): it is not in BENCHMARK.json's list,
# because three workloads only fit the benchmark's time budget with runs
# too short to average out the host's minute-long slow spells.

class Deep:
    name = "deep"

    def setup(self, seed: int, workdir: str) -> dict:
        path = os.path.join(workdir, "deep.csv")
        with open(path, "w") as handle:
            handle.write(generators.season_events(seed, DEEP_EVENTS))
        return {"csv": path}

    def stages(self, inputs: dict, workdir: str, state: dict, memo: dict):
        def run_encode():
            state["table"] = ingest.parse_events(inputs["csv"])
            state["tensor"] = encode.build_tensor(state["table"], 5)

        def check_encode():
            table, tensor = state["table"], state["tensor"]

            def full():
                check_tensor_totals(tensor, table)
                expect(same_tensor(encode.marginalize_to_scale(tensor, 3),
                                   encode.build_tensor(table, 3)),
                       "S=5 tensor marginalized to S=3 differs from S=3")
                memo["tables"], memo["tensors"] = [table], [tensor]

            same_as_first(memo, "tensor", tensor, same_tensor, full)

        def run_fit():
            config = solver.SolverConfig(
                n_terms=8, rank=3, beta=1e-3, max_inner=10,
                max_outer=DEEP_MAX_OUTER, outer_tol=NEVER_CONVERGED, seed=0)
            state["fit"] = solver.fit_block_gs(state["tensor"], config)

        def check_fit_stage():
            fitted, report = state["fit"]

            def full():
                expect(report.outer_iterations == DEEP_MAX_OUTER,
                       "fit stopped before its fixed budget")
                check_fit(report, fitted)

            same_as_first(memo, "model", fitted, same_model, full)

        def run_dissim():
            state["dissim"] = analysis.dissimilarity_matrix(state["table"], 5)

        def check_dissim():
            d = state["dissim"]

            def full():
                check_dissimilarity(d.labels, d.values, state["table"], 5)

            same_as_first(memo, "dissimilarity", d.values, np.array_equal, full)

        return [
            ("encode", run_encode, check_encode),
            ("fit", run_fit, check_fit_stage),
            ("dissim", run_dissim, check_dissim),
        ]


WORKLOADS = {w.name: w for w in (Recovery(), Season(), Deep())}
