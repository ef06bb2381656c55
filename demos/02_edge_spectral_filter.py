#!/usr/bin/env python3
"""From a node graph to its line graph, Hodge Laplacian and Laguerre filter.

Edges become nodes of the edge graph (adjacent when they share an endpoint);
the signed incidence matrix B1 yields L1 = B1^T B1, whose spectrum drives a
polynomial spectral filter evaluated by the Laguerre recurrence.  The model
builds neither L1 nor B1: an edge signal is an (m,) vector over the edge
list, B1 x is one bincount over the edges' endpoints and B1^T y is
y[v] - y[u], and L1 is scaled by the top eigenvalue of the node Laplacian
D - A = B1 B1^T, which shares L1's nonzero spectrum.
"""

import numpy as np

from stedge.edgegraph import (
    boundary_operator,
    hll_conv,
    hodge_laplacian,
    hodge_operator,
    laguerre_basis,
    laguerre_scalars,
    line_graph,
)
from stedge.stgraph import PatchGraph, edge_list

triangle = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
edges = edge_list(triangle)
b1 = boundary_operator(triangle)
print("triangle edges:", edges.tolist())
print("signed incidence B1 (rows nodes, columns edges):")
print(b1)

l1 = hodge_laplacian(b1)
print("\nHodge Laplacian L1 = B1^T B1:")
print(l1)
print("diagonal is 2 everywhere (each edge has two endpoints);",
      "eigenvalues:", np.round(np.linalg.eigvalsh(l1), 6))

print("\nline graph (edges sharing an endpoint):")
print(line_graph(edges))

print("\nLaguerre polynomial values by the recurrence:")
for lam in (0.0, 0.5, 1.0, 2.0):
    print(f"  G_j({lam}) for j=0..3:",
          [round(v, 4) for v in laguerre_scalars(lam, 4)])

rng = np.random.default_rng(0)
x = rng.uniform(0.5, 3.0, size=len(edges))   # edge lengths, the model's edge signal
# a one-patch graph: the adjacency stacked as (1, n, n), each edge tagged with patch 0
graph = PatchGraph(starts=(0,), adjacency=triangle[None], edge_index=edge_list(triangle[None]),
                   distances=x)
hodge = hodge_operator(graph)
scaled = l1 / hodge.lam[0]
print(f"\nspectral rescale: lambda_max of D - A = B1 B1^T = {hodge.lam[0]:.4f}; "
      f"scaled spectrum {np.round(np.linalg.eigvalsh(scaled), 4)}")

print("\nan edge signal, one value per oriented edge (u, v), u < v:", np.round(x, 3))
u, v = edges.T
b1x = np.bincount(np.concatenate([v, u]), weights=np.concatenate([x, -x]))
print("B1 x as one bincount (+x at each head, -x at each tail) vs the dense "
      f"product: max |difference| = {np.abs(b1x - b1 @ x).max():.2e}")
print("hodge @ x vs dense (L1 / lambda) x: max |difference| = "
      f"{np.abs(hodge @ x - scaled @ x).max():.2e}")
basis = laguerre_basis(hodge, x, 3)
print("\noperator recurrence on edge vectors vs eigenbasis evaluation (order 3):")
values, vectors = np.linalg.eigh(scaled)
for j, t in enumerate(basis):
    scalars = np.array([laguerre_scalars(float(s), 3)[j] for s in values])
    spectral = (vectors * scalars) @ vectors.T @ x
    print(f"  order {j}: max |difference| = {np.abs(t - spectral).max():.2e}")

stacked = hll_conv(graph, 3)      # the (m, 3) basis the model's edge branch reads
print(f"\nhll_conv's basis, shape {stacked.shape}, is the orders above side by "
      f"side: {np.array_equal(stacked, np.stack(basis, axis=1))}")
coeffs = rng.normal(size=(3, 4)) * 0.4   # row j maps order j to 4 channels
response = stacked @ coeffs              # the filter sum_j G_j(L1 / lambda) x theta_j
embedding = np.where(response > 0.0, response, np.expm1(response))   # ELU
print(f"filter response T C, shape {response.shape}: range "
      f"[{response.min():.3f}, {response.max():.3f}]; after ELU "
      f"[{embedding.min():.3f}, {embedding.max():.3f}]")
phi = rng.normal(size=(4, 4)) * 0.5          # the fusion's gate map
gates = 0.5 * np.tanh(0.5 * (embedding @ phi)) + 0.5
print(f"fusion gates sigmoid(ELU(T C) @ phi), one per edge and channel: "
      f"range [{gates.min():.3f}, {gates.max():.3f}]")
print("(the model forms these gates block by block inside fusion_gcn's one op)")
