"""The benchmark's inputs: seeds, the small synth grid, and cell labels.

Everything the program receives is generated here from the benchmark
seed, so the same seed always gives the same inputs.  The module imports
nothing from ``repro``: its output is plain data (sweep mappings and
spec strings) that the unit driver hands to the program's own parsers.
"""

from __future__ import annotations

import random

#: Seed of the recorded per-cell digests in ``expected.json``.
DEFAULT_SEED = 0
#: Seed kept out of every tuning run, for later before/after claims.
HELD_OUT_SEED = 1009

WORKLOADS = ("fig9-cold", "report-warm", "pool-small", "service-small")

#: The program's own parallelism: sweep ``jobs`` and service workers,
#: matching a 2-CPU host.
JOBS = 2

#: Machine kinds of the small grids, one cell column per kind.
SMALL_MACHINES = ("r10", "kilo", "runahead", "ooo-bp", "dual", "dkip", "limit")
SMALL_MEMORIES = ("MEM-100", "MEM-400")
SMALL_INSTRUCTIONS = 1_000

#: One stratum per synth spec, from cache-resident code to an 8 MB
#: pointer chase; the seed picks one variant per stratum.  The variants
#: of a stratum differ in their traits but simulate a similar number of
#: runahead cycles (within a few percent over MEM-100 and MEM-400), so
#: the grid's total work stays close from seed to seed.  The runahead
#: core simulates every stalled cycle, which makes its cells most of the
#: grid's cost: on the 8 MB chase at depth 16 one MEM-400 runahead cell
#: took 1.7 s where other kinds took 0.03 s, hence depth 4 here.
#: Footprints of 768K and up are fixed: the warm-up streams the whole
#: footprint and memoizes its line plan, so they set both the warm-up
#: time and the workers' peak RSS.
STRATA = (
    # cache resident, compute bound
    ("br=0.02,footprint=24K,ilp=3", "br=0.08,footprint=32K,ilp=4",
     "br=0.02,footprint=32K,ilp=3", "br=0.02,footprint=24K,ilp=6",
     "br=0.08,footprint=32K,ilp=6", "br=0.05,footprint=32K,ilp=3"),
    # L2 resident, branchy
    ("br=0.3,footprint=128K,mlp=1", "br=0.2,footprint=192K,mlp=2",
     "br=0.2,footprint=128K,mlp=2"),
    # L2 resident floating point
    ("footprint=384K,fp=on,ilp=3,mlp=3", "footprint=384K,fp=on,ilp=4",
     "footprint=384K,fp=on,ilp=4,mlp=3", "footprint=384K,fp=on,mlp=3",
     "footprint=448K,fp=on,mlp=3", "footprint=448K,fp=on,ilp=3"),
    # streaming, wide memory-level parallelism
    ("footprint=1M,hot=32K,ilp=4,mlp=6", "footprint=1M,hot=16K,mlp=5",
     "footprint=1M,hot=16K,mlp=4", "footprint=1M,hot=32K,ilp=3,mlp=4",
     "footprint=1M,hot=16K,ilp=3,mlp=4", "footprint=1M,hot=32K,ilp=4,mlp=6,stride=2",
     "footprint=1M,hot=32K,mlp=4"),
    # store heavy
    ("footprint=768K,hot=8K,stores=0.45", "footprint=768K,hot=16K,stores=0.6",
     "footprint=768K,hot=16K,stores=0.45"),
    # short pointer chains
    ("br=0.1,chase=2,footprint=2M,hot=16K,ilp=3", "br=0.05,chase=2,footprint=2M,hot=32K,ilp=3",
     "br=0.05,chase=2,footprint=2M,hot=16K", "br=0.05,chase=2,footprint=2M,hot=16K,ilp=3"),
    # streaming floating point over DRAM
    ("footprint=4M,fp=on,ilp=3,mlp=4,stores=0.1,stride=4",
     "footprint=4M,fp=on,ilp=3,mlp=4,stores=0.1,stride=2",
     "footprint=4M,fp=on,ilp=3,mlp=3,stores=0.1,stride=2",
     "footprint=4M,fp=on,mlp=4,stores=0.1,stride=2"),
    # 8 MB pointer chase
    ("br=0.1,chase=4,footprint=8M,hot=64K,ilp=3,stores=0.15",
     "br=0.1,chase=4,footprint=8M,hot=64K,ilp=3,stores=0.1",
     "br=0.1,chase=4,footprint=8M,hot=32K,stores=0.1",
     "br=0.1,chase=4,footprint=8M,hot=32K,ilp=3,stores=0.1",
     "br=0.1,chase=4,footprint=8M,hot=16K,ilp=3,stores=0.15"),
)


def synth_specs(seed: int) -> tuple[str, ...]:
    """The eight ``synth(...)`` workload specs drawn from *seed*."""
    rng = random.Random(f"perfbench-synth-{seed}")
    return tuple(f"synth({rng.choice(variants)})" for variants in STRATA)


def small_sweep(seed: int) -> dict:
    """The 112-cell sweep mapping shared by pool-small and service-small."""
    return {
        "name": "perfbench-small",
        "machines": list(SMALL_MACHINES),
        "memory": list(SMALL_MEMORIES),
        "workloads": list(synth_specs(seed)),
        "instructions": SMALL_INSTRUCTIONS,
    }


def cell_label(machine: str, bench: str, memory: str) -> str:
    """The key a cell's digest is recorded and compared under."""
    return f"{machine}|{bench}|{memory}"
