"""Run orchestration: build a machine, warm its caches, simulate a trace.

The experiment harnesses (and the examples) go through these helpers so
that every run follows the same methodology: deterministic workload trace,
functional cache warm-up over the workload's data regions, fresh predictor
state, one simulator instance per run.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.branch import make_predictor
from repro.isa import Instruction
from repro.machines.registry import MachineDescription, build_machine
from repro.memory import DEFAULT_MEMORY, MemoryConfig, MemoryHierarchy, warm_caches
from repro.sim.stats import SimStats

#: Any machine configuration whose kind is registered with
#: :mod:`repro.machines` — the open-ended replacement for the old closed
#: Union of the four paper models.
MachineConfig = MachineDescription


def build_core(
    config: MachineConfig,
    trace: Iterable[Instruction],
    hierarchy: MemoryHierarchy,
    predictor,
    stats: SimStats | None = None,
):
    """Instantiate the simulator for *config* via the machine-kind
    registry (raises ``TypeError`` for unregistered config types)."""
    return build_machine(config, trace, hierarchy, predictor, stats)


def simulate(
    config: MachineConfig,
    trace: Sequence[Instruction],
    memory: MemoryConfig = DEFAULT_MEMORY,
    regions: Sequence[tuple[int, int]] | None = None,
    predictor_name: str | None = None,
    max_cycles: int | None = None,
    hierarchy: MemoryHierarchy | None = None,
    fast_forward: bool | None = None,
) -> SimStats:
    """Simulate a materialized *trace* on the machine described by *config*.

    Args:
        regions: Workload data regions for functional cache warm-up
            (skipped when None or when the hierarchy has no finite cache).
        predictor_name: Override the config's branch predictor.
        hierarchy: Pre-built (typically pre-warmed) memory hierarchy; when
            given, *memory* and *regions* are ignored and the hierarchy
            is consumed by this run.
        fast_forward: Override the engine's cycle-skipping default
            (``False`` forces the tick-every-cycle reference mode).
    """
    if hierarchy is None:
        hierarchy = MemoryHierarchy(memory)
        if regions:
            warm_caches(hierarchy, regions)
    if predictor_name is None:
        predictor_name = getattr(config, "predictor", None) or "perceptron"
    predictor = make_predictor(predictor_name)
    stats = SimStats(config=getattr(config, "name", str(config)))
    core = build_core(config, iter(trace), hierarchy, predictor, stats)
    result = core.run(len(trace), max_cycles=max_cycles, fast_forward=fast_forward)
    result.branch_predictions = predictor.predictions
    result.branch_mispredictions = predictor.mispredictions
    return result


def run_core(
    config: MachineConfig,
    workload,
    num_instructions: int,
    memory: MemoryConfig = DEFAULT_MEMORY,
    warmup: bool = True,
    predictor_name: str | None = None,
    warm_cache=None,
    max_cycles: int | None = None,
) -> SimStats:
    """Convenience wrapper: materialize a workload trace and simulate it.

    Args:
        warm_cache: Optional :class:`repro.experiments.common.WarmupCache`;
            when given (and *warmup* is on), the hierarchy is restored
            from its warmed snapshot instead of re-streaming the working
            set.  Every experiment cell path passes the per-process
            ``WARMUP``; without it, each run warms from scratch.
        max_cycles: Upper bound on simulated time (deadlock guard);
            forwarded to the engine so long-latency sweeps can tighten
            the default bound.
    """
    trace = workload.trace(num_instructions)
    hierarchy = None
    regions = workload.regions if warmup else None
    if warmup and warm_cache is not None:
        hierarchy = warm_cache.hierarchy_for(memory, workload)
        regions = None
    stats = simulate(
        config,
        trace,
        memory=memory,
        regions=regions,
        predictor_name=predictor_name,
        hierarchy=hierarchy,
        max_cycles=max_cycles,
    )
    stats.workload = workload.name
    return stats
