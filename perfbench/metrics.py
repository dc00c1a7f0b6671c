"""Metric arithmetic: percentiles, per-unit medians, per-layer numbers.

A metric that does not apply to a workload is ``None`` here and is left
out of the printed lines; it is never reported as 0.  The result line
carries only the metrics of ``BENCHMARK.json`` (:data:`REPORTED`), which
are measured on every workload; a run that cannot measure one of them
fails instead of printing a result.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable

from tracing import self_times

#: Fewest samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kips": "kinstr/s",
    "cell_done_p50_s": "s",
    "cell_done_p90_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Machine kinds with a ``sim.kips.<kind>`` metric.
KINDS = ("r10", "kilo", "dkip", "runahead", "ooo-bp", "dual", "limit")

#: Per-layer metrics and their units, in report order.
PER_LAYER = {
    "workloads.trace_s": "s",
    "workloads.trace_calls": "count",
    "workloads.kinstr_per_s": "kinstr/s",
    "trace.decode_s": "s",
    "trace.decode_kinstr_per_s": "kinstr/s",
    "simpoint.analyze_s": "s",
    "memory.warmup_s": "s",
    "memory.warmup_calls": "count",
    "memory.restore_s": "s",
    "memory.warm_hit_ratio": "ratio",
    "sim.simulate_s": "s",
    "sim.kcycles_per_s": "kcycles/s",
    **{f"sim.kips.{kind}": "kinstr/s" for kind in KINDS},
    "store.key_s": "s",
    "store.key_calls": "count",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.hit_ratio": "ratio",
    "store.put_s": "s",
    "store.put_calls": "count",
    "store.validated_s": "s",
    "experiments.plan_s": "s",
    "experiments.cells_simulated": "count",
    "experiments.cells_cached": "count",
    "report.render_s": "s",
    "resilience.overhead_per_cell_s": "s",
    "resilience.retries": "count",
    "service.submit_s": "s",
    "service.poll_s": "s",
    "service.poll_calls": "count",
    "service.claim_hit_ratio": "ratio",
    "service.first_claim_s": "s",
    "service.drain_tail_s": "s",
    "service.overhead_per_cell_s": "s",
    "service.requeues": "count",
    "tracing.overhead_frac": "ratio",
    "tracing.coverage": "ratio",
}

#: The metrics of the result line, as listed in ``BENCHMARK.json``: per
#: mode, the ones every workload measures.  ``sim_kips`` and
#: ``cell_done_*`` are left out because ``report-warm`` neither simulates
#: nor stores a cell; per layer, only the store keys and reads, grid
#: planning and the tracing figures run on every workload.  The other
#: metrics are printed where they apply.
REPORTED = {
    "end_to_end": ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"),
    "per_layer": (
        "store.key_s", "store.key_calls", "store.get_s", "store.get_calls",
        "experiments.plan_s", "tracing.overhead_frac", "tracing.coverage",
    ),
}

#: Layers whose spans are dispatch and scheduling, not the work the
#: overhead metrics subtract.  ``resilience.run`` mostly blocks on its
#: workers' pipes, so it is also left out of ``tracing.coverage``.
DISPATCH_LAYERS = ("resilience", "service")


def percentile(samples: Iterable[float], percent: int,
               min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank *percent* percentile, or ``None`` when fewer than
    *min_beyond* samples lie beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    if not count:
        return None
    rank = max(1, math.ceil(percent * count / 100))
    if count - rank < min_beyond:
        return None
    return ordered[rank - 1]


def median(values: Iterable[float | None]) -> float | None:
    """Median of the present values; ``None`` when there are none."""
    present = [value for value in values if value is not None]
    return statistics.median(present) if present else None


def ratio(numerator: float, denominator: float) -> float | None:
    """``numerator / denominator``, or ``None`` for an empty denominator."""
    return numerator / denominator if denominator else None


def present(metrics: dict[str, float | None]) -> dict[str, float]:
    """Drop the metrics that do not apply."""
    return {name: value for name, value in metrics.items() if value is not None}


def metric_lines(values: dict[str, float | None], units: dict[str, str],
                 cells: int) -> list[str]:
    """One line per present metric (name, value, unit), then one naming
    the metrics that do not apply; *cells* is the per-unit sample count
    of the cell-done percentiles."""
    shown = present(values)
    lines = []
    for name, value in shown.items():
        extra = f"  (n={cells} cells per unit)" if name.startswith("cell_done_") else ""
        lines.append(f"{name:<34s} {value:.6g} {units[name]}{extra}")
    omitted = [name for name in values if name not in shown]
    if omitted:
        lines.append(f"not applicable here: {', '.join(omitted)}")
    return lines


class MissingMetric(ValueError):
    """A metric of the result line was not measured."""


def result_object(values: dict[str, float | None], units: dict[str, str],
                  reported: Iterable[str], attempted: int, failed: int) -> dict:
    """The JSON result line: the *reported* metrics, each with its unit.

    Raises :class:`MissingMetric` when one of them was not measured.
    """
    missing = [name for name in reported if values.get(name) is None]
    if missing:
        raise MissingMetric(f"not measured: {', '.join(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in reported
        },
    }


def unit_end_to_end(unit: dict) -> dict[str, float | None]:
    """End-to-end metrics of one untraced unit (set-up is per run)."""
    done = unit.get("done_s")
    committed = unit.get("committed")
    return {
        "wall_s": unit["wall_s"],
        "sim_kips": ratio(committed / 1000, unit["wall_s"]) if committed else None,
        "cell_done_p50_s": percentile(done, 50) if done else None,
        "cell_done_p90_s": percentile(done, 90) if done else None,
        "cpu_s": unit["cpu_s"],
        "peak_rss_mb": unit["peak_rss_mb"],
    }


def unit_layers(spans: list[dict], unit: dict, workers: int, cells: int) -> dict:
    """Per-layer metrics of one traced unit from its spans.

    *unit* is the unit driver's result (window, pid, job counters);
    *workers* the processes doing the unit's work; *cells* its cells.
    Only spans that start inside the unit's window count.
    """
    start, end = unit["start"], unit["end"]
    wall = end - start
    spans = [s for s in spans if start <= s["start"] <= end]
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name: str) -> list[dict]:
        return by_name.get(name, [])

    def self_s(name: str, where=None) -> float | None:
        chosen = [s for s in named(name) if where is None or where(s)]
        return sum(own[s["id"]] for s in chosen) if chosen else None

    def calls(name: str) -> int | None:
        return len(named(name)) or None

    def attr_sum(name: str, key: str, where=None) -> float:
        return sum(
            s.get("attrs", {}).get(key, 0)
            for s in named(name)
            if where is None or where(s)
        )

    child_names: dict[str, set[str]] = {}
    for span in spans:
        if span.get("parent") is not None:
            child_names.setdefault(span["parent"], set()).add(span["name"])

    def children(span: dict) -> set[str]:
        return child_names.get(span["id"], set())

    def parent_name(span: dict) -> str | None:
        parent = by_id.get(span.get("parent"))
        return parent["name"] if parent else None

    def per_kilo(count: float, seconds: float | None) -> float | None:
        return ratio(count / 1000, seconds) if seconds else None

    m: dict[str, float | None] = {}
    m["workloads.trace_s"] = self_s("workloads.trace")
    m["workloads.trace_calls"] = calls("workloads.trace")
    m["workloads.kinstr_per_s"] = per_kilo(
        attr_sum("workloads.trace", "n"), m["workloads.trace_s"]
    )
    m["trace.decode_s"] = self_s("trace.load_trace")
    m["trace.decode_kinstr_per_s"] = per_kilo(
        attr_sum("trace.load_trace", "n"), m["trace.decode_s"]
    )
    m["simpoint.analyze_s"] = self_s("simpoint.analyze_trace")

    # A warm-up lookup is a WarmupCache.snapshot_for call or a
    # warm_caches call of its own; it hits when it restores a snapshot
    # instead of streaming the working set.
    lookups = [
        s for s in named("memory.warm_caches")
        if parent_name(s) != "memory.snapshot_for"
    ] + named("memory.snapshot_for")
    hits = sum(
        1 for s in lookups
        if (
            "memory.restore" in children(s)
            if s["name"] == "memory.warm_caches"
            else "memory.warm_caches" not in children(s)
        )
    )
    m["memory.warmup_s"] = self_s("memory.warm_caches")
    m["memory.warmup_calls"] = calls("memory.warm_caches")
    m["memory.restore_s"] = self_s("memory.restore")
    m["memory.warm_hit_ratio"] = ratio(hits, len(lookups))

    simulate_s = self_s("sim.simulate")
    m["sim.simulate_s"] = simulate_s
    m["sim.kcycles_per_s"] = per_kilo(attr_sum("sim.simulate", "cycles"), simulate_s)
    for kind in KINDS:
        def of_kind(s, kind=kind):
            return s.get("attrs", {}).get("kind") == kind

        m[f"sim.kips.{kind}"] = per_kilo(
            attr_sum("sim.simulate", "committed", of_kind),
            self_s("sim.simulate", of_kind),
        )

    # Every read counts in get_s and get_calls, the ones validated()
    # makes too; the hit ratio counts the direct reads only, since a
    # validated() probe of a cell not yet stored is expected to miss.
    direct_gets = [
        s for s in named("store.get") if parent_name(s) != "store.validated"
    ]
    get_hits = sum(1 for s in direct_gets if s.get("attrs", {}).get("hit"))
    m["store.key_s"] = self_s("store.cell_key")
    m["store.key_calls"] = calls("store.cell_key")
    m["store.get_s"] = self_s("store.get")
    m["store.get_calls"] = calls("store.get")
    m["store.hit_ratio"] = ratio(get_hits, len(direct_gets))
    m["store.put_s"] = self_s("store.put")
    m["store.put_calls"] = calls("store.put")
    validated = named("store.validated")
    m["store.validated_s"] = sum(s["dur"] for s in validated) if validated else None

    m["experiments.plan_s"] = self_s("experiments.plan_grid")
    ran_cells = bool(named("experiments.run_cells") or named("service.poll_once"))
    m["experiments.cells_simulated"] = len(named("sim.simulate")) if ran_cells else None
    m["experiments.cells_cached"] = get_hits if ran_cells else None
    m["report.render_s"] = self_s("report.build_report")

    driver = unit["pid"]
    work_s = sum(
        own[s["id"]] for s in spans
        if s["pid"] != driver and s["name"].split(".")[0] not in DISPATCH_LAYERS
    )
    overhead = ratio(workers * wall - work_s, cells)
    executor_runs = named("resilience.run")
    if executor_runs:
        m["resilience.overhead_per_cell_s"] = overhead
        m["resilience.retries"] = attr_sum("resilience.run", "retries")
    if named("service.poll_once"):
        claims = named("service.claim")
        claimed = [s for s in claims if s.get("attrs", {}).get("hit")]
        puts = named("store.put")
        m["resilience.retries"] = unit.get("retries")
        m["service.submit_s"] = self_s("service.submit_job")
        m["service.poll_s"] = self_s("service.poll_once")
        m["service.poll_calls"] = calls("service.poll_once")
        m["service.claim_hit_ratio"] = ratio(len(claimed), len(claims))
        m["service.first_claim_s"] = (
            min(s["start"] + s["dur"] for s in claimed) - start if claimed else None
        )
        m["service.drain_tail_s"] = (
            end - max(s["start"] + s["dur"] for s in puts) if puts else None
        )
        m["service.overhead_per_cell_s"] = overhead
        m["service.requeues"] = unit.get("requeues")
    covered = sum(
        own[s["id"]] for s in spans if not s["name"].startswith("resilience.")
    )
    m["tracing.coverage"] = ratio(covered, workers * wall)
    return m
