"""SHA-256 parity digest of the model's numerics, for refactors that must
keep every output bit-identical.

For circle windows at N in {2, 5, 12, 20}, on complete and 2 m wiring and
with the vector and zero fusion gates, it hashes the default-config loss at
seed 0, every leaf gradient of one backward, and ``predict()``'s mu, sigma
and rho.  Each case's line also shows how many ops its loss records,
outside the hash.  Run it on a refactor's parent and on the refactor
itself; the last line, the digest over every case, must match:

    PYTHONPATH=src python tests/parity_digest.py

Python puts this file's directory on the import path, so ``test_model``
is found; pytest does not collect this file.
"""

import hashlib
import itertools

import stedge.autodiff
from stedge.autodiff import backward
from stedge.model import ModelConfig, TrajectoryForecaster
from test_model import _circle_window

SIZES = (2, 5, 12, 20)
WIRINGS = (None, 2.0)
GATES = ("vector", "zero")


def _recorded_loss(model, window):
    """The window's loss and the number of ops it records."""
    record_op, count = stedge.autodiff._result, [0]

    def counted(*args):
        count[0] += 1
        return record_op(*args)

    stedge.autodiff._result = counted
    try:
        loss = model.loss(window)
    finally:
        stedge.autodiff._result = record_op
    return loss, count[0]


def case_digest(n: int, max_distance, gate: str) -> tuple[str, int]:
    """The case's digest and the number of ops its loss records."""
    model = TrajectoryForecaster(
        ModelConfig(max_distance=max_distance, fusion_gate=gate), seed=0)
    window = _circle_window(n)
    h = hashlib.sha256()
    loss, ops = _recorded_loss(model, window)
    backward(loss)
    h.update(loss.data.tobytes())
    for name, p in model.params.items():
        h.update(name.encode())
        h.update(b"none" if p.grad is None else p.grad.tobytes())
    track = model.predict(window)
    for array in (track.mu, track.sigma, track.rho):
        h.update(array.tobytes())
    return h.hexdigest(), ops


def main() -> None:
    total = hashlib.sha256()
    for n, max_distance, gate in itertools.product(SIZES, WIRINGS, GATES):
        digest, ops = case_digest(n, max_distance, gate)
        total.update(digest.encode())
        print(f"N={n:<2} max_distance={max_distance} gate={gate:<6} {digest} ops={ops}")
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
