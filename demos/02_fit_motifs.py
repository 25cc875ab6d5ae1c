# Fitting recurring passing patterns from synthetic match data.
#
# We plant two ground-truth motifs, sample Poisson pass counts for a
# season of matches, then fit an over-provisioned model with the
# shrinkage penalty switched on and watch it settle on two terms.

import numpy as np

from mrtensor import (
    CpBtdModel,
    SolverConfig,
    effective_terms,
    fit_block_gs,
    match_motifs,
    motif_at_scale,
    rank_motifs,
    simulate,
    write_motif_svg,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / v.sum()


# --- plant the truth ---------------------------------------------------

# depth 2: four quadrant modes (x_o, y_o at two scales after folding
# means origin/destination factor per scale).  Each motif is rank 1
# here, so one column per mode.

N_MATCHES = 24

build_up = [
    unit([0.80, 0.10, 0.05, 0.05]),   # origin, coarse
    unit([0.05, 0.80, 0.10, 0.05]),   # destination, coarse
    unit([0.25, 0.25, 0.25, 0.25]),   # origin, fine
    unit([0.25, 0.25, 0.25, 0.25]),   # destination, fine
]
wing_raid = [
    unit([0.05, 0.10, 0.75, 0.10]),
    unit([0.05, 0.05, 0.10, 0.80]),
    unit([0.10, 0.60, 0.10, 0.20]),
    unit([0.10, 0.10, 0.60, 0.20]),
]

factors = [np.column_stack([b, w]) for b, w in zip(build_up, wing_raid)]
rng = np.random.default_rng(7)
usage = rng.uniform(20.0, 60.0, size=(2, N_MATCHES))

truth = CpBtdModel(
    ranks=(1, 1),
    factors=factors,
    omega=np.ones(2),
    upsilon=usage,
)

data = simulate(truth, seed=42)
print(f"simulated {data.total} passes over {N_MATCHES} matches "
      f"({data.nnz} occupied cells)")

# --- fit with more terms than needed ------------------------------------

config = SolverConfig(
    n_terms=6, rank=1, beta=2e-2,
    max_outer=600, max_inner=10, outer_tol=1e-10, seed=3,
)
fitted, report = fit_block_gs(data, config)

print(f"\nsolver stopped after {report.outer_iterations} sweeps "
      f"(stop: {report.stop_reason})")
print(f"effective terms: {effective_terms(fitted)} "
      f"(started with {config.n_terms})")

# --- inspect what survived ----------------------------------------------

ranked = rank_motifs(fitted)
total_usage = sum(u for _, u in ranked)
print("\nsurviving terms by share of all passes:")
for term, usage in ranked:
    print(f"  term {term}: share {usage / total_usage:.3f}, "
          f"rank {fitted.ranks[term]}")

top = [h for h, _ in ranked[:2]]
fitted_coarse = [motif_at_scale(fitted, h, 1) for h in top]
true_coarse = [motif_at_scale(truth, h, 1) for h in range(2)]

pairs = match_motifs(fitted_coarse, true_coarse)
print("\nrecovered coarse motifs vs planted (cosine):")
for i, j, score in pairs:
    name = ("build-up", "wing raid")[j]
    print(f"  fitted term {top[i]} <-> planted {name}: {score:.4f}")

np.set_printoptions(precision=3, suppress=True)
build_up_term = next(top[i] for i, j, _ in pairs if j == 0)
print(f"\nplanted build-up, origin x destination at scale 1:\n"
      f"{true_coarse[0]}")
print(f"recovered counterpart (term {build_up_term}):\n"
      f"{motif_at_scale(fitted, build_up_term, 1)}")

# --- export one motif as a field diagram --------------------------------

n_edges = write_motif_svg(motif_at_scale(fitted, top[0], 2), "motif_top.svg")
print(f"\nwrote motif_top.svg ({n_edges} arrows at scale 2)")
