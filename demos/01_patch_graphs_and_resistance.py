#!/usr/bin/env python3
"""Unified (pedestrian, time) patch graphs and why their density helps.

Builds windows from a small synthetic scene, cuts the first into temporal
patches (``patch_graphs``: one structure holding every patch's edge list
and edge lengths, with ``patch(k)`` reading patch k alone), and
compares effective resistance between a conventional wiring (per-frame
spatial links plus per-pedestrian temporal chains) and the dense unified
patch graph, where every cross-time pair is one hop.
"""

import numpy as np

from stedge.data import build_windows, scene_from_records
from stedge.stgraph import (
    build_node_adjacency,
    effective_resistance,
    patch_count,
    patch_graphs,
    resistance_matrix,
)
from stedge.synth import linear_records

scene = scene_from_records(linear_records(
    [(1, (0.0, 0.0), (0.4, 0.0)), (2, (0.0, 1.5), (0.4, -0.05))], n_frames=21))
windows = build_windows(scene)
print(f"scene: {len(scene.records)} observations, stride {scene.frame_stride}")
print(f"windows: {len(windows)} (8 observed + 12 future samples each)\n")

window = windows[0]
length, stride = 3, 1
print(f"patching T_obs=8 with L={length}, S={stride} -> "
      f"K={patch_count(window.t_obs, length, stride)} patches")

patches = patch_graphs(window.obs, length, stride)
for k, start in enumerate(patches.starts, start=1):
    graph = patches.patch(k - 1)
    print(f"  patch {k}: slots [{start}, {start + length}), "
          f"{graph.nodes} nodes, {len(graph.edge_index)} edges "
          f"(complete graph), edge lengths {graph.distances.min():.2f}-"
          f"{graph.distances.max():.2f} m")

# conventional wiring of the same 2x3 node block: a temporal chain per
# pedestrian plus one spatial link per frame
n_peds = 2
n = n_peds * length
sparse = np.zeros((n, n))
for p in range(n_peds):
    for t in range(length - 1):
        a, b = p * length + t, p * length + t + 1
        sparse[a, b] = sparse[b, a] = 1.0
for t in range(length):
    sparse[t, length + t] = sparse[length + t, t] = 1.0
dense = build_node_adjacency(n_peds, length)

print("\neffective resistance between pedestrian 1 @ t=0 and pedestrian 2 @ t=2")
print(f"  two-stage wiring : {effective_resistance(sparse, 0, n - 1):.3f}")
print(f"  unified patch    : {effective_resistance(dense, 0, n - 1):.3f}")

r_sparse = resistance_matrix(sparse)
r_dense = resistance_matrix(dense)
print(f"\nworst-pair resistance: {r_sparse.max():.3f} (two-stage) vs "
      f"{r_dense.max():.3f} (unified)")
print("adding edges never hurts: dense <= sparse everywhere ->",
      bool(np.all(r_dense <= r_sparse + 1e-9)))

print("\ncanonical values: P2 = "
      f"{effective_resistance(np.array([[0., 1.], [1., 0.]]), 0, 1):.1f}, "
      "C6 antipodal = "
      f"{effective_resistance(np.roll(np.eye(6), 1, 1) + np.roll(np.eye(6), -1, 1), 0, 3):.1f}, "
      f"K6 = {effective_resistance(build_node_adjacency(6, 1), 0, 5):.4f}")
