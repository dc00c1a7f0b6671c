"""Unit tests for the experiment plumbing."""

import os

import pytest

from repro.experiments.common import (
    ExperimentResult,
    INSTRUCTIONS,
    QUICK_SUBSET,
    Scale,
    Stopwatch,
    WorkloadPool,
    mean_ipc,
    scale_of,
    suite_names,
)
from repro.sim.stats import SimStats
from repro.workloads import SPECFP_NAMES, SPECINT_NAMES


def test_scale_coercion():
    assert scale_of("quick") == Scale.QUICK
    assert scale_of(Scale.FULL) == Scale.FULL
    with pytest.raises(ValueError):
        scale_of("huge")


def test_scales_order_instruction_budgets():
    assert INSTRUCTIONS[Scale.QUICK] < INSTRUCTIONS[Scale.DEFAULT] < INSTRUCTIONS[Scale.FULL]


def test_suite_names_respect_scale():
    assert suite_names("int", Scale.DEFAULT) == SPECINT_NAMES
    assert suite_names("fp", Scale.FULL) == SPECFP_NAMES
    assert suite_names("int", Scale.QUICK) == QUICK_SUBSET["int"]


def test_quick_subsets_are_valid_names():
    assert set(QUICK_SUBSET["int"]) <= set(SPECINT_NAMES)
    assert set(QUICK_SUBSET["fp"]) <= set(SPECFP_NAMES)


def test_workload_pool_caches_instances():
    pool = WorkloadPool()
    assert pool.get("swim") is pool.get("swim")
    assert pool.get("swim") is not pool.get("mcf")


def test_mean_ipc():
    runs = [SimStats(committed=10, cycles=5), SimStats(committed=10, cycles=10)]
    assert mean_ipc(runs) == pytest.approx(1.5)
    assert mean_ipc([]) == 0.0


def test_result_render_and_csv(tmp_path):
    result = ExperimentResult(
        name="unit", title="test", headers=["a", "b"], rows=[[1, 2.5]]
    )
    result.notes.append("note")
    text = result.render()
    assert "unit" in text and "note" in text
    path = result.write_csv(str(tmp_path))
    assert os.path.exists(path)
    with open(path) as f:
        assert f.read().startswith("a,b")


def test_stopwatch_records_elapsed():
    result = ExperimentResult(name="x", title="y", headers=[])
    with Stopwatch(result):
        pass
    assert result.elapsed_seconds >= 0.0


# ----------------------------------------------------------------------
# Process-pool suite runner and warm-up cache
# ----------------------------------------------------------------------


def test_resolve_jobs_env_override(monkeypatch):
    from repro.experiments.common import resolve_jobs

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3, 10) == 3          # explicit argument wins
    assert resolve_jobs(8, 2) == 2           # never more workers than tasks
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None, 10) == 5       # env override
    assert resolve_jobs(None, 3) == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert resolve_jobs(None, 10) == 1       # floor at one worker


def test_parallel_run_cells_matches_serial():
    from repro.experiments.common import run_cells
    from repro.memory import DEFAULT_MEMORY
    from repro.sim.config import R10_64

    pool = WorkloadPool()
    names = ("swim", "mcf")
    cells = [(R10_64, name, DEFAULT_MEMORY) for name in names]
    serial = run_cells(cells, 600, pool, jobs=1)
    fanned = run_cells(cells, 600, pool, jobs=2)
    assert [s.workload for s in fanned] == list(names)  # deterministic order
    for a, b in zip(serial, fanned):
        assert a == b


def _regions_only(regions):
    """A stand-in workload: the warm-up cache only reads ``regions``."""
    from types import SimpleNamespace

    return SimpleNamespace(regions=regions)


def test_warmup_cache_restores_identical_state():
    from repro.experiments.common import WarmupCache
    from repro.memory import DEFAULT_MEMORY
    from repro.memory.configs import memory_config_for_l2_size
    from repro.sim.config import R10_64
    from repro.sim.runner import run_core

    pool = WorkloadPool()
    workload = pool.get("swim")
    cache = WarmupCache()
    fresh = run_core(R10_64, workload, 600)
    warmed_once = run_core(R10_64, workload, 600, warm_cache=cache)
    warmed_twice = run_core(R10_64, workload, 600, warm_cache=cache)
    assert cache.misses == 1 and cache.hits == 1
    assert fresh == warmed_once == warmed_twice
    # Latency is not part of the warmed state: the same geometry reuses
    # the entry, and the run still matches a from-scratch warm-up.
    slower = DEFAULT_MEMORY.with_mem_latency(100)
    reused = run_core(R10_64, workload, 600, memory=slower, warm_cache=cache)
    assert cache.misses == 1 and cache.hits == 2
    assert reused == run_core(R10_64, workload, 600, memory=slower)
    # A different L2 size is a different geometry, so a second miss.
    run_core(R10_64, workload, 600, memory=memory_config_for_l2_size(64 * 1024),
             warm_cache=cache)
    assert cache.misses == 2


def test_memo_hit_restores_identical_state():
    """The second request for the same (geometry, regions) comes from the
    cache and must equal both the first warm-up and the reference."""
    from repro.experiments.common import WarmupCache
    from repro.memory import MemoryHierarchy
    from repro.memory.configs import TABLE1_CONFIGS
    from repro.memory.warmup import warm_caches_reference

    memory = TABLE1_CONFIGS["L2-11"]
    workload = _regions_only(((0, 8192), (1 << 20, 4096)))
    cache = WarmupCache()
    first = cache.hierarchy_for(memory, workload)
    restored = cache.hierarchy_for(memory, workload)
    assert cache.misses == 1 and cache.hits == 1
    reference = MemoryHierarchy(memory)
    warm_caches_reference(reference, workload.regions)
    assert restored.snapshot() == first.snapshot() == reference.snapshot()


def test_warmup_cache_evicts_the_oldest_entry():
    from repro.experiments.common import WarmupCache
    from repro.memory import DEFAULT_MEMORY, MemoryHierarchy
    from repro.memory.warmup import warm_caches_reference

    workloads = [
        _regions_only(((i << 20, 4096 * (i + 1)),))
        for i in range(WarmupCache.LIMIT + 1)
    ]
    cache = WarmupCache()
    for workload in workloads:
        cache.hierarchy_for(DEFAULT_MEMORY, workload)
    assert cache.misses == WarmupCache.LIMIT + 1
    # The 17th entry pushed out the first: asking for it warms again.
    again = cache.hierarchy_for(DEFAULT_MEMORY, workloads[0])
    assert cache.misses == WarmupCache.LIMIT + 2 and cache.hits == 0
    reference = MemoryHierarchy(DEFAULT_MEMORY)
    warm_caches_reference(reference, workloads[0].regions)
    assert again.snapshot() == reference.snapshot()
    # The newest entries are still there.
    cache.hierarchy_for(DEFAULT_MEMORY, workloads[-1])
    assert cache.hits == 1


# ----------------------------------------------------------------------
# compute_cell's per-process workload memo
# ----------------------------------------------------------------------


@pytest.fixture
def empty_workload_memo(monkeypatch):
    from repro.experiments import common

    monkeypatch.setattr(common, "_WORKER_WORKLOADS", {})


def _payload(machine, workload, n=400):
    from repro.memory import DEFAULT_MEMORY
    from repro.store import cell_key

    return cell_key(machine, workload, n, DEFAULT_MEMORY).payload


def test_compute_cell_generates_each_trace_once_per_process(
    empty_workload_memo, monkeypatch
):
    from repro.experiments.common import compute_cell
    from repro.sim.config import R10_64, R10_256
    from repro.sim.runner import run_core
    from repro.workloads import get_workload
    from repro.workloads.base import Workload

    workload = get_workload("mcf")
    machines = (R10_64, R10_256)
    payloads = [_payload(machine, workload) for machine in machines]
    expected = [run_core(machine, workload, 400) for machine in machines]
    generated = []
    make_kernel = Workload._make_kernel

    def counting(self):
        generated.append(self.name)
        return make_kernel(self)

    monkeypatch.setattr(Workload, "_make_kernel", counting)
    assert [compute_cell(payload) for payload in payloads] == expected
    assert generated == ["mcf"]


def test_compute_cell_rejects_a_wrong_fingerprint_with_a_warm_memo(
    empty_workload_memo,
):
    from repro.experiments.common import compute_cell
    from repro.sim.config import R10_64
    from repro.workloads import get_workload

    payload = _payload(R10_64, get_workload("mcf"))
    compute_cell(payload)  # warms the memo
    drifted = dict(payload, workload=dict(payload["workload"], fingerprint="0" * 64))
    with pytest.raises(ValueError, match="fingerprint changed"):
        compute_cell(drifted)


def test_compute_cell_rebuilds_a_trace_file_rewritten_after_memoizing(
    empty_workload_memo, tmp_path
):
    from repro.experiments.common import compute_cell
    from repro.sim.config import R10_64
    from repro.sim.runner import run_core
    from repro.trace.io import save_trace
    from repro.workloads import get_workload

    path = tmp_path / "capture.trc"
    save_trace(get_workload("mcf"), str(path), 600)
    name = f"trace(file={path})"
    before = _payload(R10_64, get_workload(name))
    compute_cell(before)  # memoizes the mcf capture
    save_trace(get_workload("swim"), str(path), 600)
    rewritten = get_workload(name)
    after = _payload(R10_64, rewritten)
    assert after["workload"]["fingerprint"] != before["workload"]["fingerprint"]
    assert compute_cell(after) == run_core(R10_64, rewritten, 400)
