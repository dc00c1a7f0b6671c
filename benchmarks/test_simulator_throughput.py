"""Micro-benchmarks of the simulation substrate itself.

Not a paper figure: these track the simulator's own performance so
regressions in the hot paths (cache access, wakeup, per-cycle overhead,
quiescence fast-forwarding) are visible in the benchmark history.
``benchmarks/compare.py`` (``make bench``) diffs the
``simulator-throughput`` group against the committed
``BENCH_baseline.json`` and fails on regressions.

The core benchmarks run on the paper's default MEM-400 memory system with
two complementary workloads: ``applu`` keeps the pipeline busy (little to
fast-forward), while ``mcf``'s pointer chasing serializes on 400-cycle
misses — the quiescent regime the cycle-skipping engine targets.
"""

import pytest

from repro.branch import make_predictor
from repro.machines import parse_machine
from repro.memory import DEFAULT_MEMORY, MemoryHierarchy
from repro.sim.config import DKIP_2048, R10_64
from repro.sim.runner import simulate
from repro.workloads import get_workload

#: (workload, instructions) pairs for the core-throughput benchmarks.
CORE_WORKLOADS = ("applu", "mcf")
CORE_INSTRUCTIONS = 4_000


def _run_core_benchmark(benchmark, config, workload_name):
    workload = get_workload(workload_name)
    trace = workload.trace(CORE_INSTRUCTIONS)

    def run():
        return simulate(config, trace, regions=workload.regions)

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    assert stats.committed == CORE_INSTRUCTIONS
    return stats


def test_cache_access_throughput(benchmark):
    hierarchy = MemoryHierarchy(DEFAULT_MEMORY)
    addresses = [(i * 191) % (1 << 22) for i in range(10_000)]

    def touch_all():
        for addr in addresses:
            hierarchy.access(addr, now=0)

    benchmark.pedantic(touch_all, rounds=3, iterations=1)


def test_perceptron_throughput(benchmark):
    predictor = make_predictor("perceptron")
    pcs = [(i * 64) & 0xFFFF for i in range(5_000)]

    def predict_all():
        for pc in pcs:
            predictor.update(pc, pc & 1 == 0)

    benchmark.pedantic(predict_all, rounds=3, iterations=1)


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", CORE_WORKLOADS)
def test_r10_core_cycles_per_second(benchmark, workload_name):
    _run_core_benchmark(benchmark, R10_64, workload_name)


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", CORE_WORKLOADS)
def test_dkip_core_cycles_per_second(benchmark, workload_name):
    _run_core_benchmark(benchmark, DKIP_2048, workload_name)


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", CORE_WORKLOADS)
def test_ooobp_core_cycles_per_second(benchmark, workload_name):
    """Predictor-axis OoO core: exercises the gshare update path and the
    misprediction-stall accounting on top of the baseline pipeline."""
    _run_core_benchmark(
        benchmark, parse_machine("ooo-bp(bp=gshare-12,rob=32)"), workload_name
    )


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", ("mcf",))
def test_dual_core_cycles_per_second(benchmark, workload_name):
    """Dual-core with shared-L2 arbitration: two pipelines per simulated
    cycle, the heaviest machine kind the sweep layer dispatches."""
    _run_core_benchmark(
        benchmark,
        parse_machine("dual(rob=32,co=synth(chase=8),bp=gshare-10)"),
        workload_name,
    )


@pytest.mark.benchmark(group="simulator-throughput")
@pytest.mark.parametrize("workload_name", ("mcf",))
def test_r10_core_reference_mode(benchmark, workload_name):
    """Tick-every-cycle reference mode: the denominator of the speedup the
    quiescence engine provides (kept in the history so PERFORMANCE.md's
    claims stay checkable)."""
    workload = get_workload(workload_name)
    trace = workload.trace(CORE_INSTRUCTIONS)

    def run():
        return simulate(trace=trace, config=R10_64, regions=workload.regions,
                        fast_forward=False)

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    assert stats.committed == CORE_INSTRUCTIONS
