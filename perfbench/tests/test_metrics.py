"""Percentiles, omitted metrics and per-layer arithmetic."""

from __future__ import annotations

import json
from pathlib import Path

import metrics
import pytest


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 105)]  # 104 cells, 1..104
    assert metrics.percentile(samples, 50) == 52.0
    assert metrics.percentile(samples, 90) == 94.0


@pytest.mark.parametrize(
    ("count", "reported"), [(99, False), (100, True), (104, True), (112, True)]
)
def test_p90_needs_ten_samples_beyond_it(count, reported):
    samples = list(range(count))
    assert (metrics.percentile(samples, 90) is not None) is reported


def test_percentile_rule_counts_samples_strictly_beyond():
    # 20 samples: p50 is rank 10, leaving exactly 10 beyond it.
    assert metrics.percentile(range(20), 50) == 9
    assert metrics.percentile(range(19), 50) is None
    assert metrics.percentile([], 50) is None


def test_omitted_metric_stays_omitted_and_is_not_printed_as_zero():
    values = {"setup_s": 1.5, "wall_s": 2.0, "sim_kips": None, "cpu_s": 0.0}
    units = metrics.END_TO_END
    result = metrics.result_object(
        values, units, ("setup_s", "wall_s", "cpu_s"), attempted=10, failed=0
    )
    assert "sim_kips" not in result["metrics"]
    assert result["metrics"]["cpu_s"] == {"value": 0.0, "unit": "s"}
    lines = metrics.metric_lines(values, units, cells=104)
    assert not any(line.startswith("sim_kips") for line in lines)
    assert lines[-1] == "not applicable here: sim_kips"
    json.dumps(result)  # the result line is plain JSON


def test_a_reported_metric_that_was_not_measured_fails_the_run():
    values = {"setup_s": 1.5, "wall_s": 2.0, "cell_done_p90_s": None}
    with pytest.raises(metrics.MissingMetric, match="cell_done_p90_s"):
        metrics.result_object(
            values, metrics.END_TO_END, ("setup_s", "cell_done_p90_s"),
            attempted=10, failed=0,
        )


def test_reported_metrics_are_the_manifest_lists():
    manifest = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    for mode, catalog in (("end_to_end", metrics.END_TO_END),
                          ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[mode]}
        assert tuple(listed) == metrics.REPORTED[mode]
        assert listed == {name: catalog[name] for name in listed}


def test_unit_end_to_end_omits_cell_metrics_without_cells():
    unit = {"wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 40.0}
    values = metrics.unit_end_to_end(unit)
    assert values["sim_kips"] is None
    assert values["cell_done_p50_s"] is None
    assert metrics.present(values) == {"wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 40.0}


def test_unit_end_to_end_from_cells():
    unit = {
        "wall_s": 4.0, "cpu_s": 7.0, "peak_rss_mb": 40.0,
        "committed": 112_000, "done_s": [i / 100 for i in range(1, 113)],
    }
    values = metrics.unit_end_to_end(unit)
    assert values["sim_kips"] == pytest.approx(28.0)
    assert values["cell_done_p50_s"] == pytest.approx(0.56)
    assert values["cell_done_p90_s"] == pytest.approx(1.01)


def _span(span_id, name, start, dur, parent=None, pid=1, **attrs):
    span = {"id": span_id, "name": name, "start": start, "dur": dur,
            "parent": parent, "pid": pid, "unit": "u"}
    if attrs:
        span["attrs"] = attrs
    return span


def test_unit_layers_from_pool_spans():
    spans = [
        _span("1.1", "experiments.sweep_grid", 0.0, 10.0),
        _span("1.2", "resilience.run", 1.0, 8.0, parent="1.1", retries=1),
        _span("1.3", "store.put", 2.0, 0.5, parent="1.2"),
        _span("2.1", "sim.run_core", 1.5, 4.0, pid=2),
        _span("2.2", "workloads.trace", 1.5, 1.0, parent="2.1", pid=2, n=2000),
        _span("2.3", "sim.simulate", 2.5, 3.0, parent="2.1", pid=2,
              kind="dkip", committed=2000, cycles=6000),
        _span("2.4", "memory.warm_caches", 2.5, 1.0, parent="2.3", pid=2),
        _span("2.5", "memory.restore", 2.5, 0.5, parent="2.4", pid=2),
        _span("9.9", "store.get", 20.0, 1.0),  # after the unit: ignored
    ]
    unit = {"start": 0.0, "end": 10.0, "pid": 1}
    m = metrics.unit_layers(spans, unit, workers=2, cells=2)
    assert m["workloads.kinstr_per_s"] == pytest.approx(2.0)
    assert m["sim.simulate_s"] == pytest.approx(2.0)  # 3.0 minus warm-up
    assert m["sim.kips.dkip"] == pytest.approx(1.0)
    assert m["sim.kips.r10"] is None
    assert m["memory.warmup_s"] == pytest.approx(0.5)
    assert m["memory.warm_hit_ratio"] == 1.0
    assert m["store.get_calls"] is None
    assert m["store.put_calls"] == 1
    assert m["resilience.retries"] == 1
    # Worker-side work is every pid-2 span: 4.0 s of self time in all.
    assert m["resilience.overhead_per_cell_s"] == pytest.approx((2 * 10 - 4.0) / 2)
    assert "service.poll_s" not in m


def test_store_reads_count_validated_probes_but_the_hit_ratio_does_not():
    spans = [
        _span("1.1", "store.validated", 1.0, 0.5),
        _span("1.2", "store.get", 1.1, 0.3, parent="1.1", hit=False),
        _span("1.3", "store.get", 2.0, 0.2, hit=True),
    ]
    unit = {"start": 0.0, "end": 10.0, "pid": 1}
    m = metrics.unit_layers(spans, unit, workers=1, cells=1)
    assert m["store.get_calls"] == 2
    assert m["store.get_s"] == pytest.approx(0.5)
    assert m["store.hit_ratio"] == 1.0
    assert m["store.validated_s"] == pytest.approx(0.5)
