#!/usr/bin/env python3
"""From a node graph to its line graph, Hodge Laplacian and Laguerre filter.

Edges become nodes of the edge graph (adjacent when they share an endpoint);
the signed incidence matrix B1 yields L1 = B1^T B1, whose spectrum drives a
polynomial spectral filter evaluated by the Laguerre recurrence.  The model
never stores L1: it applies it as B1^T (B1 X), scaled by the top eigenvalue
of B1 B1^T, which shares L1's nonzero spectrum.
"""

import numpy as np

from stedge.autodiff import Tensor
from stedge.edgegraph import (
    EdgeGraph,
    LaguerreFilter,
    boundary_operator,
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

hodge = hodge_operator(op)
scaled = l1 / hodge.lam
print(f"\nspectral rescale: lambda_max of B1 B1^T = {hodge.lam:.4f}; "
      f"scaled spectrum {np.round(np.linalg.eigvalsh(scaled), 4)}")

rng = np.random.default_rng(0)
feats = rng.normal(size=(3, 4))
applied = (hodge @ Tensor(feats)).data
print("B1^T (B1 X) / lambda vs (L1 / lambda) X: max |difference| = "
      f"{np.abs(applied - scaled @ feats).max():.2e}")
basis = laguerre_basis(hodge, Tensor(feats), 3)
print("\noperator recurrence vs eigenbasis evaluation (order 3):")
w, v = np.linalg.eigh(scaled)
for j, t in enumerate(basis):
    scalars = np.array([laguerre_scalars(float(x), 3)[j] for x in w])
    spectral = (v * scalars) @ v.T @ feats
    print(f"  order {j}: max |difference| = "
          f"{np.abs(t.data - spectral).max():.2e}")

graph = EdgeGraph(edge_index=op.edge_index, features=Tensor(feats), hodge=hodge)
filt = LaguerreFilter([Tensor(rng.normal(size=(4, 4)) * 0.4) for _ in range(3)])
out = hll_conv(graph, filt)
print(f"\nfiltered edge embedding shape: {out.shape}; "
      f"value range [{out.data.min():.3f}, {out.data.max():.3f}]")
