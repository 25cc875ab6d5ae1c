# =========================================================
# 1. From raw pass coordinates to a multiresolution tensor
# =========================================================
# A pass has an origin and a destination on the field.  Halving the
# field in x and y gives 4 quadrants; halving again gives 16 tiles,
# and so on.  Each extra scale appends one origin-quadrant label and
# one destination-quadrant label, so a pass encoded at depth S becomes
# a cell of a tensor with 2S quadrant modes plus one replicate mode.

import io

import numpy as np

from mrtensor import (
    EventTable,
    FieldGeometry,
    adjacency_at_scale,
    build_tensor,
    chain_index,
    marginalize_to_scale,
    node_tile,
    parse_events,
)

# ---------------------------------------------------------
# 2. A miniature match file
# ---------------------------------------------------------
# Physical coordinates in meters on the default 115 x 74 field.

CSV = """replicate_id,team,minutes,x_o,y_o,x_d,y_d
m001,home,95,20.0,30.0,45.0,55.0
m001,home,95,45.0,55.0,80.0,60.0
m001,home,95,80.0,60.0,100.0,35.0
m001,home,95,12.0,10.0,30.0,20.0
m002,away,93,60.0,40.0,85.0,50.0
m002,away,93,85.0,50.0,105.0,30.0
"""

table = parse_events(io.StringIO(CSV), FieldGeometry())
print(f"parsed {table.n_events} passes from {table.n_replicates} matches")

# ---------------------------------------------------------
# 3. One pass, worked by hand at depth 3
# ---------------------------------------------------------
DEPTH = 3
x_o, y_o, x_d, y_d = table.coords[0]
print(f"\nfirst pass, standardized coords: "
      f"({x_o:.3f}, {y_o:.3f}) -> ({x_d:.3f}, {y_d:.3f})")

# tile index along one axis = which of the 2^S bins the coordinate
# falls in; its binary digits are the left/right choices per scale
tiles = [int(c * 2 ** DEPTH) for c in (x_o, y_o, x_d, y_d)]
print(f"tile indices at depth {DEPTH}: {tiles}")
for name, t in zip(("x_o", "y_o", "x_d", "y_d"), tiles):
    print(f"  {name}: tile {t} = bits {format(t, f'0{DEPTH}b')}")

# at each scale an end's x bit and y bit fold into one quadrant label,
# x + 2y: encoding this pass alone gives one tensor entry holding the
# (origin, destination) labels per scale, then the replicate
first = EventTable(table.replicates, table.replicate_index[:1],
                   table.coords[:1])
(entry,) = build_tensor(first, DEPTH).indices
labels = (entry[:-1] + 1).tolist()
print(f"quadrant pairs per scale (1..4 labels): "
      f"{list(zip(labels[0::2], labels[1::2]))}")
print(f"tensor cell (0-based): {tuple(entry.tolist())}")

# the origin quadrant chain alone names a node of the depth-3 grid
origin_node = int(chain_index(entry[0:-1:2])[0])
print(f"origin node {origin_node} sits at tile {node_tile(origin_node, DEPTH)}")

# ---------------------------------------------------------
# 4. The whole table at once
# ---------------------------------------------------------
tensor = build_tensor(table, DEPTH)
print(f"\ntensor shape {tensor.shape}: "
      f"{tensor.nnz} occupied cells, {tensor.total} events")

for scales in (2, 1):
    coarse = marginalize_to_scale(tensor, scales)
    print(f"  folded to depth {scales}: shape {coarse.shape}, "
          f"nnz {coarse.nnz}")

# ---------------------------------------------------------
# 5. Adjacency views of one match
# ---------------------------------------------------------
# At scale s the passes of one match form a 4^s x 4^s origin by
# destination count matrix, and each parent edge is the sum of its
# 16 child edges one scale down.

home = adjacency_at_scale(tensor, replicate=0, scales=1)
print(f"\nmatch m001 at scale 1 (rows origin, cols destination):\n{home}")

fine = adjacency_at_scale(tensor, replicate=0, scales=2)
rolled = fine.reshape(4, 4, 4, 4).sum(axis=(1, 3))
print(f"scale-2 edges roll up to scale 1 exactly: "
      f"{np.array_equal(rolled, home)}")
