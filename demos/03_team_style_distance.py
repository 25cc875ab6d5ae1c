# ======================================================
# How far apart are two teams' passing networks?
# ======================================================
# Six synthetic teams, each with its own spatial habits.  Every team's
# passes are pooled into one origin x destination network per scale,
# divided by the team's total minutes to give per-minute rates, and
# compared pairwise with the Bray-Curtis dissimilarity (0 identical, 1
# disjoint).  Bray-Curtis is blind to a factor common to both networks,
# so no reference duration is needed.

import numpy as np

from mrtensor import (
    EventTable,
    Replicate,
    bray_curtis,
    dissimilarity_matrix,
)

rng = np.random.default_rng(11)

# Team tendencies as mixtures over field regions.  possession sides
# recycle short central passes, direct sides launch long balls, wing
# teams live near the touchlines.
STYLES = {
    "possA": dict(x_o=(0.35, 0.10), x_d=(0.45, 0.12), y_spread=0.15),
    "possB": dict(x_o=(0.38, 0.10), x_d=(0.47, 0.12), y_spread=0.17),
    "directA": dict(x_o=(0.25, 0.08), x_d=(0.80, 0.10), y_spread=0.25),
    "directB": dict(x_o=(0.22, 0.08), x_d=(0.83, 0.10), y_spread=0.25),
    "wingA": dict(x_o=(0.55, 0.15), x_d=(0.70, 0.15), y_spread=0.45),
    "mixed": dict(x_o=(0.45, 0.20), x_d=(0.55, 0.20), y_spread=0.30),
}
MATCHES_PER_TEAM = 8
PASSES_PER_MATCH = 240


def clip01(a):
    return np.clip(a, 0.0, np.nextafter(1.0, 0.0))


def sample_team(style, n):
    x_o = clip01(rng.normal(*style["x_o"], size=n))
    x_d = clip01(rng.normal(*style["x_d"], size=n))
    # y centered on midfield; wing teams get pushed to the flanks
    y_o = clip01(0.5 + style["y_spread"] * rng.standard_normal(n)
                 * np.where(rng.random(n) < 0.5, 1.0, -1.0))
    y_d = clip01(y_o + 0.10 * rng.standard_normal(n))
    return np.column_stack([x_o, y_o, x_d, y_d])


replicates = []
index_chunks = []
coord_chunks = []
for team, style in STYLES.items():
    for m in range(MATCHES_PER_TEAM):
        rep = Replicate(f"{team}_m{m}", team, minutes=rng.uniform(90, 98))
        coords = sample_team(style, PASSES_PER_MATCH)
        index_chunks.append(np.full(len(coords), len(replicates)))
        coord_chunks.append(coords)
        replicates.append(rep)

table = EventTable(
    tuple(replicates),
    np.concatenate(index_chunks),
    np.vstack(coord_chunks),
)
print(f"{table.n_events} passes, {len(STYLES)} teams, "
      f"{MATCHES_PER_TEAM} matches each")

# ------------------------------------------------------
# pairwise distances at two resolutions
# ------------------------------------------------------
np.set_printoptions(precision=3, suppress=True)
for scale in (1, 2):
    dissim = dissimilarity_matrix(table, scale)
    print(f"\nscale {scale} ({4 ** scale} field nodes), teams "
          f"{dissim.labels}:")
    print(dissim.values)

# nearest and farthest pair at the finer scale
d = dissim.values + np.eye(len(dissim.labels))  # mask the zero diagonal
lo = np.unravel_index(np.argmin(d), d.shape)
hi = np.unravel_index(np.argmax(dissim.values), d.shape)
print(f"\nmost alike:   {dissim.labels[lo[0]]} vs {dissim.labels[lo[1]]} "
      f"({dissim.values[lo]:.3f})")
print(f"least alike:  {dissim.labels[hi[0]]} vs {dissim.labels[hi[1]]} "
      f"({dissim.values[hi]:.3f})")

# ------------------------------------------------------
# the underlying distance on raw vectors
# ------------------------------------------------------
u = np.array([10.0, 0.0, 5.0])
v = np.array([2.0, 3.0, 5.0])
print(f"\nbray_curtis({u}, {v}) = {bray_curtis(u, v):.4f}")
print(f"scale invariance: bc(2u, 2v) = {bray_curtis(2 * u, 2 * v):.4f}")
