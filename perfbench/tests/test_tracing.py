"""Span recording and self time."""

from __future__ import annotations

import time

import pytest
import tracing


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"id": "a", "parent": None, "dur": 10.0},
        {"id": "b", "parent": "a", "dur": 6.0},
        {"id": "c", "parent": "b", "dur": 2.5},
        {"id": "d", "parent": "a", "dur": 1.0},
    ]
    own = tracing.self_times(spans)
    assert own == {"a": 3.0, "b": 3.5, "c": 2.5, "d": 1.0}
    assert sum(own.values()) == pytest.approx(10.0)


@pytest.fixture
def recorder(tmp_path, monkeypatch):
    recorder = tracing.Recorder("unit-x", str(tmp_path))
    monkeypatch.setattr(tracing, "RECORDER", recorder)
    return recorder


def test_wrapped_calls_nest_and_share_the_unit_id(recorder, tmp_path):
    def leaf():
        time.sleep(0.02)
        return None

    traced_leaf = tracing.wrap("store.get", leaf)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    tracing.wrap("experiments.run_cells", outer)()
    recorder.flush()
    spans = tracing.read_spans(tmp_path, "unit-x")
    assert [s["name"] for s in spans] == ["store.get", "store.get", "experiments.run_cells"]
    outer_span = spans[-1]
    assert all(s["parent"] == outer_span["id"] for s in spans[:2])
    assert {s["unit"] for s in spans} == {"unit-x"}
    assert all(s["attrs"] == {"hit": False} for s in spans[:2])
    own = tracing.self_times(spans)
    assert own[outer_span["id"]] == pytest.approx(
        outer_span["dur"] - spans[0]["dur"] - spans[1]["dur"]
    )
    assert 0.005 < own[outer_span["id"]] < outer_span["dur"] - 0.035


def test_override_calling_its_base_records_one_span(recorder):
    base = tracing.wrap("workloads.trace", lambda n: list(range(n)))
    override = tracing.wrap("workloads.trace", lambda n: base(n))
    assert override(3) == [0, 1, 2]
    assert [s["name"] for s in recorder.spans] == ["workloads.trace"]
    assert recorder.spans[0]["attrs"] == {"n": 3}


def test_generator_span_counts_only_time_inside_the_generator(recorder):
    def produce():
        for item in range(3):
            time.sleep(0.01)
            yield item

    items = []
    for item in tracing.wrap_generator("trace.load_trace", produce)():
        time.sleep(0.03)  # the consumer's time is not the generator's
        items.append(item)
    assert items == [0, 1, 2]
    (span,) = recorder.spans
    assert span["attrs"] == {"n": 3}
    assert 0.025 < span["dur"] < 0.08


def test_paused_recorder_records_nothing(recorder):
    recorder.paused = True
    assert tracing.wrap("store.put", lambda: 7)() == 7
    assert recorder.spans == []
