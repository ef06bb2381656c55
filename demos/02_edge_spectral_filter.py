#!/usr/bin/env python3
"""From a node graph to its line graph, Hodge Laplacian and Laguerre filter.

Edges become nodes of the edge graph (adjacent when they share an endpoint);
the signed incidence matrix B1 yields L1 = B1^T B1, whose spectrum drives a
polynomial spectral filter evaluated by the Laguerre recurrence.  The model
builds neither L1 nor B1: it keeps an edge signal on the node-pair grid
(edge (u, v) at [u, v], negated at [v, u]), where B1 x is a column sum and
B1^T y is y[v] - y[u], and scales by the top eigenvalue of the node
Laplacian D - A = B1 B1^T, which shares L1's nonzero spectrum.
"""

import numpy as np

from stedge.autodiff import Tensor
from stedge.edgegraph import (
    EdgeGraph,
    boundary_operator,
    edge_list,
    hll_conv,
    hodge_laplacian,
    hodge_operator,
    laguerre_basis,
    laguerre_scalars,
    line_graph,
)

triangle = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
op = boundary_operator(triangle)
print("triangle edges:", op.edge_index)
print("signed incidence B1 (rows nodes, columns edges):")
print(op.matrix)

l1 = hodge_laplacian(op)
print("\nHodge Laplacian L1 = B1^T B1:")
print(l1)
print("diagonal is 2 everywhere (each edge has two endpoints);",
      "eigenvalues:", np.round(np.linalg.eigvalsh(l1), 6))

print("\nline graph (edges sharing an endpoint):")
print(line_graph(op.edge_index))

print("\nLaguerre polynomial values by the recurrence:")
for lam in (0.0, 0.5, 1.0, 2.0):
    print(f"  G_j({lam}) for j=0..3:",
          [round(v, 4) for v in laguerre_scalars(lam, 4)])

hodge = hodge_operator(triangle)
scaled = l1 / hodge.lam
print(f"\nspectral rescale: lambda_max of D - A = B1 B1^T = {hodge.lam:.4f}; "
      f"scaled spectrum {np.round(np.linalg.eigvalsh(scaled), 4)}")

edges = edge_list(triangle)
rng = np.random.default_rng(0)
x = rng.normal(size=len(edges))
grid = np.zeros((3, 3))
grid[edges[:, 0], edges[:, 1]] = x
grid[edges[:, 1], edges[:, 0]] = -x
print("\nan edge signal on the pair grid (antisymmetric):")
print(np.round(grid, 3))
applied = (hodge @ grid)[edges[:, 0], edges[:, 1]]
print("grid operator vs dense (L1 / lambda) x: max |difference| = "
      f"{np.abs(applied - scaled @ x).max():.2e}")
basis = laguerre_basis(hodge, grid, 3)
print("\noperator recurrence on the grid vs eigenbasis evaluation (order 3):")
w, v = np.linalg.eigh(scaled)
for j, t in enumerate(basis):
    scalars = np.array([laguerre_scalars(float(s), 3)[j] for s in w])
    spectral = (v * scalars) @ v.T @ x
    print(f"  order {j}: max |difference| = "
          f"{np.abs(t[edges[:, 0], edges[:, 1]] - spectral).max():.2e}")

graph = EdgeGraph(edge_index=edges, features=grid, hodge=hodge)
coeffs = Tensor(rng.normal(size=(3, 4)) * 0.4)   # row j maps order j to 4 channels
out = hll_conv(graph, coeffs)
print(f"\nfiltered edge embedding shape: {out.shape}; "
      f"value range [{out.data.min():.3f}, {out.data.max():.3f}]")
