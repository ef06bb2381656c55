"""Parity digest of the model's numerics, for refactors that must keep
every output bit-identical, or within a stated tolerance.

For circle windows at N in {2, 5, 12, 20}, on complete and 2 m wiring and
with the vector and zero fusion gates, it hashes the default-config loss at
seed 0, every leaf gradient of one backward, and ``predict()``'s mu, sigma
and rho.  Each case's line also shows, outside the hash, how many ops its
loss records and the route of the node-pair index it builds (grid or
segments), so the digest shows that both routes are covered.  Run it on a refactor's parent and on the refactor
itself; the last line, the digest over every case, must match:

    PYTHONPATH=src python tests/parity_digest.py

A refactor that moves the sums of floating-point terms keeps its results
only to a tolerance.  ``--save FILE`` stores the raw arrays of every case
(an ``.npz``); ``--against FILE``, run on the other side, prints each
case's worst relative difference, max |got - want| / max |want| over each
array, and the worst of all:

    PYTHONPATH=<parent>/src python tests/parity_digest.py --save parent.npz
    PYTHONPATH=src python tests/parity_digest.py --against parent.npz

Python puts this file's directory on the import path, so ``test_model``
is found; pytest does not collect this file.
"""

import argparse
import hashlib
import itertools

import numpy as np

import stedge.autodiff
import stedge.model
from stedge.autodiff import backward
from stedge.model import ModelConfig, TrajectoryForecaster
from test_model import _circle_window

SIZES = (2, 5, 12, 20)
WIRINGS = (None, 2.0)
GATES = ("vector", "zero")


def _recorded_loss(model, window):
    """The window's loss, the number of ops it records and the route of
    each node-pair index it builds, joined by "+"."""
    record_op, build, count, routes = stedge.autodiff._result, stedge.model.NodePairs, [0], []

    def counted(*args):
        count[0] += 1
        return record_op(*args)

    def built(*args):
        pairs = build(*args)
        routes.append("segments" if pairs.segment else "grid")
        return pairs

    stedge.autodiff._result, stedge.model.NodePairs = counted, built
    try:
        loss = model.loss(window)
    finally:
        stedge.autodiff._result, stedge.model.NodePairs = record_op, build
    return loss, count[0], "+".join(routes)


def case_arrays(n: int, max_distance, gate: str) -> tuple[dict, int, str]:
    """The case's named arrays (the loss, each leaf gradient, None as an
    empty array, and the forecast), the number of ops its loss records and
    its node-pair index's route."""
    model = TrajectoryForecaster(
        ModelConfig(max_distance=max_distance, fusion_gate=gate), seed=0)
    window = _circle_window(n)
    loss, ops, route = _recorded_loss(model, window)
    backward(loss)
    arrays = {"loss": loss.data}
    for name, p in model.params.items():
        arrays[f"grad/{name}"] = np.empty(0) if p.grad is None else p.grad
    track = model.predict(window)
    arrays.update(mu=track.mu, sigma=track.sigma, rho=track.rho)
    return arrays, ops, route


def case_digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name, array in arrays.items():
        if name.startswith("grad/"):
            h.update(name[5:].encode())
            h.update(array.tobytes() if array.size else b"none")
        else:
            h.update(array.tobytes())
    return h.hexdigest()


def worst_relative_difference(got: dict, want: dict) -> float:
    """max |got - want| / max |want| over each array, the worst of them;
    inf if the arrays' names or shapes differ."""
    if got.keys() != want.keys():
        return np.inf
    worst = 0.0
    for name, w in want.items():
        g = got[name]
        if g.shape != w.shape:
            return np.inf
        if w.size:
            scale = np.abs(w).max()
            diff = np.abs(g - w).max()
            worst = max(worst, diff / scale if scale else diff)
    return worst


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="FILE", help="store every case's arrays")
    parser.add_argument("--against", metavar="FILE",
                        help="print each case's worst relative difference to FILE's")
    args = parser.parse_args()
    stored = dict(np.load(args.against)) if args.against else None
    total, saved, worst = hashlib.sha256(), {}, 0.0
    for n, max_distance, gate in itertools.product(SIZES, WIRINGS, GATES):
        case = f"N={n:<2} max_distance={max_distance} gate={gate:<6}"
        arrays, ops, route = case_arrays(n, max_distance, gate)
        digest = case_digest(arrays)
        total.update(digest.encode())
        line = f"{case} {digest} ops={ops} route={route}"
        key = f"{n}/{max_distance}/{gate}"
        saved.update({f"{key}/{name}": array for name, array in arrays.items()})
        if stored is not None:
            want = {name[len(key) + 1:]: array for name, array in stored.items()
                    if name.startswith(key + "/")}
            diff = worst_relative_difference(arrays, want)
            worst = max(worst, diff)
            line += f" worst_rel={diff:.2e}"
        print(line)
    print(f"all {total.hexdigest()}" + ("" if stored is None else f" worst_rel={worst:.2e}"))
    if args.save:
        np.savez(args.save, **saved)


if __name__ == "__main__":
    main()
