#!/usr/bin/env python3
"""The dense-tensor reverse-mode engine and its finite-difference oracle.

Everything learned in this library runs through the small Tensor class:
forward ops record their parents, backward() walks the graph in reverse
topological order, and gradcheck() compares every analytic gradient entry
against central differences.  Exits 1 if the full-model check misses the
gradcheck gate.  Runs in about four seconds.
"""

import sys

import numpy as np

from stedge.autodiff import Tensor, backward, gradcheck, softmax
from stedge.cli import GRADCHECK_TOLERANCE
from stedge.model import ModelConfig, TrajectoryForecaster, gradcheck_parameters
from stedge.synth import gradcheck_window

# a scalar chain: y = sum(softmax(W x)^2)
rng = np.random.default_rng(3)
w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
x = Tensor(rng.normal(size=(3, 2)))
prob = softmax((w @ x).transpose())
y = (prob * prob).sum()
backward(y)
print(f"y = {y.item():.6f}; dL/dW has shape {w.grad.shape}, "
      f"|grad| in [{np.abs(w.grad).min():.2e}, {np.abs(w.grad).max():.2e}]")

# softmax rows always sum to one, so a plain sum has zero gradient
w.grad = None
backward(softmax((w @ x).transpose()).sum())
print(f"sum(softmax) gradient is identically zero: "
      f"max |grad| = {np.abs(w.grad).max():.2e}")


# the oracle: central differences over every parameter entry
def quadratic():
    wx = w @ x
    return (wx * wx).mean()


w.grad = None
err = gradcheck(quadratic, [w], eps=1e-5)
print(f"gradcheck on a quadratic map: max relative error {err:.2e}")

# and over the entire forecasting pipeline, at the parameter point gradients
# are checked at: the freshly initialised head keeps some gradients near
# 1e-9, below what central differences resolve.  At these narrow widths the
# check takes seconds; acceptance criterion 5 runs it at widths 8/16/2/1
cfg = ModelConfig(model_dim=2, encoder_dim=4, encoder_heads=1,
                  encoder_layers=1, hll_order=3)
model = TrajectoryForecaster(cfg, params=gradcheck_parameters(cfg, seed=0))
window = gradcheck_window()
print(f"\nfull pipeline: {model.params.n_values()} parameters, "
      f"loss {model.loss(window).item():.4f}")
# two forward passes per parameter entry: about 2 s on a 2-core x86-64
# host with BLAS on one thread
print(f"running the full-model gradcheck ({2 * model.params.n_values()} "
      f"forward passes)...")
err = gradcheck(lambda: model.loss(window), model.params.tensors(), eps=1e-5)
ok = err <= GRADCHECK_TOLERANCE
print(f"max relative error across all parameters: {err:.2e}  "
      f"({'OK' if ok else 'FAILED'} at the {GRADCHECK_TOLERANCE:.0e} gate)")
sys.exit(0 if ok else 1)
