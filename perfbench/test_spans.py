"""Tests of the benchmark's span recorder and layer tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools

import numpy as np
import pytest

from crowd import crowd_windows
from spans import SpanRecorder
from stedge import ModelConfig, TrajectoryForecaster, backward
from tracing import installed, layer_metrics
from workloads import Run, Workload, timed_phase


def test_spans_nest_and_inherit_the_window():
    rec = SpanRecorder(clock=itertools.count().__next__)
    inner = rec.wrap("inner", lambda x: x + 1, size_of=lambda args, out: out)
    outer = rec.wrap("outer", lambda: inner(inner(1)))
    root = rec.open("window", window=7)
    assert outer() == 3
    rec.close(root)

    names = [s.name for s in rec.spans]
    assert names == ["window", "outer", "inner", "inner"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 1]
    assert {s.window for s in rec.spans} == {7}
    assert [s.size for s in rec.spans] == [0, 0, 2, 3]
    for s in rec.spans[1:]:
        parent = rec.spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    # children of one parent do not overlap
    assert rec.spans[2].end <= rec.spans[3].start


def test_closing_out_of_order_is_refused():
    rec = SpanRecorder()
    first = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(first)


def _window_and_model():
    window = crowd_windows(3, (3,), 1)[0]
    return window, TrajectoryForecaster(ModelConfig(), seed=3)


def test_self_times_of_a_window_sum_to_its_wall_time():
    window, model = _window_and_model()
    rec = SpanRecorder()
    with installed(rec):
        root = rec.open("window", window=0)
        backward(model.loss(window))
        rec.close(root)
    assert "model.forward" in {s.name for s in rec.spans}
    own = rec.self_times()
    assert min(own) >= -1e-9
    assert rec.per_window_self()[0] == pytest.approx(rec.spans[root].duration,
                                                     rel=1e-9, abs=1e-12)


def test_tracing_changes_no_loss_or_gradient_bit_and_is_removed_after():
    window, model = _window_and_model()
    original = TrajectoryForecaster.forward

    def loss_and_grads():
        model.params.zero_grad()
        loss = model.loss(window)
        backward(loss)
        return loss.item(), [p.grad.copy() for p in model.params.tensors()]

    plain_loss, plain_grads = loss_and_grads()
    rec = SpanRecorder()
    with installed(rec):
        assert TrajectoryForecaster.forward is not original
        traced_loss, traced_grads = loss_and_grads()
    assert TrajectoryForecaster.forward is original
    assert traced_loss == plain_loss
    assert all(np.array_equal(a, b) for a, b in zip(plain_grads, traced_grads))


def test_traced_episodes_match_the_untraced_reference():
    tiny = Workload("tiny", "test", sizes=(2, 3), repeats=1, batch=2, tail_pct=50)
    rec, crowd_size = SpanRecorder(), {}
    with installed(rec):
        run = Run.set_up(tiny, seed=5, rec=rec, crowd_size=crowd_size)
    episodes = timed_phase(run, 1e-3, True, rec, crowd_size)
    assert episodes == 3
    assert [r.traced for r in run.results] == [False] * 2 + [True] * 2 + [False] * 2
    assert all(r.ok for r in run.results)
    metrics, table = layer_metrics(rec, crowd_size, 0.0)
    assert metrics["edgegraph.structure_builds"][0] == 0.0
    assert metrics["model.structure_cache_hit_ratio"][0] == 1.0
    assert metrics["autodiff.backward_ms"][0] > 0.0
    assert [row["N"] for row in table] == [2, 3]
