"""Shared experiment machinery: scales, the cell runner, result records.

Every harness describes its figure as one list of (machine config,
benchmark, memory) cells and hands it to :func:`run_cells` in a single
call; three pieces keep those grids fast:

* :func:`run_cells` fans simulations out over a supervised process pool
  — one worker task per cell — sized by the ``REPRO_JOBS`` environment
  variable (default: the machine's CPU count), under the ambient
  resilience policy.  Results always come back in input order, so
  harness tables are bit-identical to the serial path.
* :data:`WARMUP`, this process's :class:`WarmupCache`, runs the
  functional cache warm-up once per (cache geometry, workload regions)
  and hands out snapshot-restored hierarchies, instead of re-streaming
  the working set for every swept parameter.  Every cell path — serial,
  pool worker, service worker — passes it to
  :func:`repro.sim.runner.run_core`; each process fills its own.
* A :class:`repro.store.ResultStore` (the ``store=`` argument) is
  consulted before any cell is dispatched and written back as each cell
  completes, so repeated sweeps cost only the delta and an interrupted
  sweep resumes from the cells already on disk.
"""

from __future__ import annotations

import csv
import enum
import json
import os
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.memory import MemoryConfig, MemoryHierarchy, warm_caches
from repro.resilience import (
    ExecutionPolicy,
    FailureReport,
    ResilientExecutor,
    active_policy,
    active_report,
    cell_label,
    run_attempts,
)
from repro.sim.runner import MachineConfig, run_core
from repro.sim.stats import SimStats
from repro.store import CellKey, ResultStore, cell_key, from_jsonable
from repro.viz.ascii import table
from repro.workloads import Workload, get_workload, SPECFP_NAMES, SPECINT_NAMES


class Scale(str, enum.Enum):
    """Experiment size presets."""

    QUICK = "quick"      # seconds; benchmark-harness and CI default
    DEFAULT = "default"  # the EXPERIMENTS.md record
    FULL = "full"        # longer traces, complete sweeps


#: Committed instructions simulated per benchmark at each scale.
INSTRUCTIONS = {
    Scale.QUICK: 4_000,
    Scale.DEFAULT: 10_000,
    Scale.FULL: 40_000,
}

#: Benchmark subsets used at quick scale (chosen to span the behaviour
#: space: cache-friendly, streaming, chasing, branchy).
QUICK_SUBSET = {
    "int": ("eon", "gcc", "mcf", "twolf", "vpr"),
    "fp": ("swim", "art", "apsi", "galgel", "wupwise"),
}


def scale_of(value: "Scale | str") -> Scale:
    """Coerce a CLI string or :class:`Scale` member to a :class:`Scale`."""
    return Scale(value)


def suite_names(which: str, scale: Scale) -> tuple[str, ...]:
    """Benchmark names of a suite at the given scale."""
    if scale == Scale.QUICK:
        return QUICK_SUBSET[which]
    return SPECINT_NAMES if which == "int" else SPECFP_NAMES


class WorkloadPool:
    """Caches workload instances so traces are generated once per run."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._cache: dict[str, object] = {}

    def get(self, name: str):
        """Return the cached workload named *name*, materializing it once."""
        workload = self._cache.get(name)
        if workload is None:
            workload = get_workload(name, seed=self.seed)
            self._cache[name] = workload
        return workload


# ----------------------------------------------------------------------
# The cell runner (serial or process-pool)
# ----------------------------------------------------------------------


def resolve_jobs(jobs: int | None, num_tasks: int) -> int:
    """Worker-count policy: explicit argument > ``REPRO_JOBS`` > CPU count,
    never more workers than tasks."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer worker count, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, min(jobs, num_tasks))


def _geometry_key(memory: MemoryConfig) -> tuple:
    """What of *memory* the warmed cache state depends on: the cache
    geometry and whether main memory is present, never the latencies."""
    return (
        memory.line_size,
        (memory.l1_size, memory.l1_assoc),
        None if memory.l2_latency is None else (memory.l2_size, memory.l2_assoc),
        memory.mem_latency is not None,
    )


class WarmupCache:
    """Warmed-hierarchy snapshots keyed by (cache geometry, workload regions).

    The functional warm-up streams a workload's data regions through the
    hierarchy; sweeps would re-run it for every swept parameter even
    though the resulting state only depends on the cache geometry and
    the regions.  This cache warms once per key and restores a snapshot
    for every later request, keeping the newest :attr:`LIMIT` keys.
    """

    #: Snapshots kept; the oldest is evicted first.
    LIMIT = 16

    def __init__(self) -> None:
        self._snapshots: dict[tuple, dict] = {}
        self.hits = 0
        self.misses = 0

    def hierarchy_for(self, memory: MemoryConfig, workload) -> MemoryHierarchy:
        """A hierarchy warmed for *workload*, restored from cache if seen."""
        hierarchy = MemoryHierarchy(memory)
        hierarchy.restore(self.snapshot_for(memory, workload))
        return hierarchy

    def snapshot_for(self, memory: MemoryConfig, workload) -> dict:
        """The warmed snapshot for (memory, workload), warming on first use."""
        regions = tuple(workload.regions)
        key = (_geometry_key(memory), regions)
        snapshot = self._snapshots.get(key)
        if snapshot is not None:
            self.hits += 1
            return snapshot
        self.misses += 1
        hierarchy = MemoryHierarchy(memory)
        warm_caches(hierarchy, regions)
        snapshot = hierarchy.snapshot()
        if len(self._snapshots) >= self.LIMIT:
            self._snapshots.pop(next(iter(self._snapshots)))
        self._snapshots[key] = snapshot
        return snapshot


#: This process's warm-up cache; every cell path hands it to ``run_core``.
WARMUP = WarmupCache()

#: Per-process workload memo behind :func:`_worker_workload`.
_WORKER_WORKLOADS: dict[tuple[str, int], Workload] = {}


def _worker_workload(name: str, seed: int) -> Workload:
    """Per-process workload memo: pool and service workers persist across
    cells, so each worker materializes a given (name, seed) workload — and
    hence its deterministic trace — once, no matter how many configs reuse
    it."""
    key = (name, seed)
    workload = _WORKER_WORKLOADS.get(key)
    if workload is None:
        workload = _WORKER_WORKLOADS[key] = get_workload(name, seed=seed)
    return workload


def _run_pair(task) -> SimStats:
    """Pool worker: simulate one (config, workload, memory) cell.

    Module-level (picklable) and self-contained: the workload comes from
    the worker's own memo and the warmed caches from the worker's own
    :data:`WARMUP`, so only small config objects cross the process
    boundary.
    """
    config, name, num_instructions, memory, seed, max_cycles = task
    return run_core(
        config,
        _worker_workload(name, seed),
        num_instructions,
        memory=memory,
        warm_cache=WARMUP,
        max_cycles=max_cycles,
    )


def run_cells(
    cells: Sequence[tuple[MachineConfig, str, MemoryConfig]],
    num_instructions: int,
    pool: WorkloadPool,
    jobs: int | None = None,
    store: ResultStore | None = None,
    force: bool = False,
    max_cycles: int | None = None,
    policy: ExecutionPolicy | None = None,
    report: FailureReport | None = None,
) -> list[SimStats | None]:
    """Run every (config, benchmark, memory) cell, store-first, in order.

    The grid runner every harness calls once per figure — machines of
    any registered kind (including the limit core) and a different
    memory system per cell.
    Cached cells never dispatch; missing cells run serially or on the
    supervised pool (:class:`repro.resilience.ResilientExecutor`) and
    persist to *store* as each one completes — that per-cell write-back
    is what makes a killed sweep resumable, and what makes retried
    cells idempotent (the fingerprint is the ledger).

    *policy* and *report* default to the ambient resilience context
    (:func:`repro.resilience.resilience_context`); without one, the
    strict policy applies — supervision on, but the first permanent
    failure raises :class:`repro.resilience.CellExecutionError` naming
    the offending cell.  Under a tolerant policy, failed cells come
    back as ``None`` and their typed failure records land in *report*.
    """
    results: list[SimStats | None] = [None] * len(cells)
    keys: list[CellKey | None] = [None] * len(cells)
    if store is not None:
        for i, (config, name, memory) in enumerate(cells):
            keys[i] = cell_key(config, pool.get(name), num_instructions, memory)
            if not force:
                results[i] = store.get(keys[i])
    pending = [i for i, cached in enumerate(results) if cached is None]
    if not pending:
        return results
    if policy is None:
        policy = active_policy()
    if report is None:
        report = active_report()
        if report is None:
            report = FailureReport()
    labels = {i: cell_label(*cells[i]) for i in pending}

    def on_result(i: int, stats: SimStats) -> None:
        if store is not None:
            store.put(keys[i], stats)
        results[i] = stats

    jobs = resolve_jobs(jobs, len(pending))
    if jobs <= 1 and policy.cell_timeout is None:
        for i in pending:
            config, name, memory = cells[i]

            def compute(config=config, name=name, memory=memory) -> SimStats:
                return run_core(
                    config,
                    pool.get(name),
                    num_instructions,
                    memory=memory,
                    warm_cache=WARMUP,
                    max_cycles=max_cycles,
                )

            stats = run_attempts(i, labels[i], compute, policy, report)
            if stats is not None:
                on_result(i, stats)
        return results
    # Parallel path: the supervised executor enforces deadlines, retries
    # retryable failures, and respawns dead workers, requeueing only
    # their cells.
    tasks = []
    for i in pending:
        config, name, memory = cells[i]
        task = (config, name, num_instructions, memory, pool.seed, max_cycles)
        tasks.append((i, labels[i], task))
    executor = ResilientExecutor(_run_pair, jobs, policy, report)
    executor.run(tasks, on_result)
    return results


def compute_cell(payload: dict, max_cycles: int | None = None) -> SimStats:
    """Re-run one cell from its stored key payload (``cache verify``).

    Rebuilds the machine and memory configurations from their serialized
    form, takes the workload from the per-process memo (a worker
    generates each trace once across all its cells) and the warmed
    caches from :data:`WARMUP`, and replays the exact execution path the
    sweeps use, so the result must match the stored stats bit for bit
    unless simulator behaviour drifted under the fingerprint.
    Machine construction goes through the kind registry, so limit cells
    and cycle-level cells replay through one path.  *max_cycles* is the
    deadlock-guard bound (not part of the key — it cannot change a
    completed run's stats); service workers forward their job's bound.
    """
    machine = from_jsonable(payload["machine"])
    memory = from_jsonable(payload["memory"])
    spec = payload["workload"]
    workload = _worker_workload(spec["name"], spec["seed"])
    if workload.fingerprint() != spec["fingerprint"]:
        # The memo can predate an edit to the workload's source (a trace
        # file rewritten after this process cached it): rebuild once, and
        # call it drift only when the fresh build disagrees too.
        _WORKER_WORKLOADS.pop((spec["name"], spec["seed"]), None)
        workload = _worker_workload(spec["name"], spec["seed"])
    if workload.fingerprint() != spec["fingerprint"]:
        raise ValueError(
            f"workload {spec['name']!r} fingerprint changed since this "
            "cell was stored (trace generator updated?)"
        )
    num_instructions = payload["instructions"]
    return run_core(
        machine,
        workload,
        num_instructions,
        memory=memory,
        predictor_name=payload.get("predictor"),
        warm_cache=WARMUP,
        max_cycles=max_cycles,
    )


def mean_ipc(stats: Sequence[SimStats | None]) -> float:
    """Arithmetic-mean IPC, the aggregation the paper's figures use.

    ``None`` entries — cells that failed under a tolerant execution
    policy — are skipped, so a partial grid still aggregates over its
    surviving cells instead of crashing.
    """
    present = [s for s in stats if s is not None]
    if not present:
        return 0.0
    return sum(s.ipc for s in present) / len(present)


def weighted_mean_ipc(
    stats: Sequence[SimStats | None], weights: Sequence[float]
) -> float:
    """Weighted-mean IPC — the SimPoint whole-program estimator.

    *weights* align positionally with *stats* (one per phase, summing to
    1 for a full selection).  ``None`` entries — cells that failed under
    a tolerant execution policy — are skipped and the surviving weights
    renormalized, mirroring :func:`mean_ipc`'s partial-grid behaviour.
    """
    present = [
        (weight, s) for weight, s in zip(weights, stats) if s is not None
    ]
    total = sum(weight for weight, _ in present)
    if not total:
        return 0.0
    return sum(weight * s.ipc for weight, s in present) / total


@dataclass
class ExperimentResult:
    """Everything one harness produces.

    The single currency between the experiment harnesses and every
    consumer: the CLI renders it as ASCII (:meth:`render`), the CSV/JSON
    exporters serialize it, and the reproduction report extracts chart
    series and verdict metrics from ``headers``/``rows`` through each
    experiment's :class:`repro.report.spec.FigureSpec`.
    """

    name: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    charts: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    scale: Scale = Scale.DEFAULT

    def render(self) -> str:
        """Return the terminal rendering: table, ASCII charts, notes."""
        parts = [
            table(self.headers, self.rows, title=f"{self.name}: {self.title} "
                  f"[scale={self.scale.value}, {self.elapsed_seconds:.1f}s]")
        ]
        parts.extend(self.charts)
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {note}" for note in self.notes)
        return "\n\n".join(parts)

    def write_csv(self, directory: str) -> str:
        """Write headers + rows as ``<directory>/<name>.csv``; return the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.name}.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.headers)
            writer.writerows(self.rows)
        return path

    def to_dict(self) -> dict:
        """JSON-serializable rendering; :meth:`from_dict` round-trips it."""
        return {
            "name": self.name,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "charts": list(self.charts),
            "elapsed_seconds": self.elapsed_seconds,
            "scale": self.scale.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (JSON round-trip)."""
        return cls(
            name=data["name"],
            title=data["title"],
            headers=list(data["headers"]),
            rows=[list(row) for row in data["rows"]],
            notes=list(data.get("notes", [])),
            charts=list(data.get("charts", [])),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            scale=Scale(data.get("scale", Scale.DEFAULT.value)),
        )

    def write_json(self, directory: str) -> str:
        """Machine-readable export alongside :meth:`write_csv`."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path


class Stopwatch:
    """Context manager stamping ``elapsed_seconds`` onto a result."""

    def __init__(self, result: ExperimentResult) -> None:
        self.result = result

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.result.elapsed_seconds = time.perf_counter() - self._start
