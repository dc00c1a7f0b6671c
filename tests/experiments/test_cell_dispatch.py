"""Every cell runs through one loop, in process or on the pool.

``run_cells`` dispatches each (machine, workload, memory) cell either
in-process or to a supervised worker process.  Both paths must return a
:class:`SimStats` record bit-identical to calling
:func:`repro.sim.runner.run_core` directly, for every registered machine
kind, and each completed cell must persist to the store exactly once —
also when a worker dies mid-grid and its cell is retried.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.common import WorkloadPool, run_cells
from repro.machines import parse_machine
from repro.memory.configs import TABLE1_CONFIGS
from repro.resilience import ExecutionPolicy, FailureReport
from repro.sim.config import DKIP_2048, KILO_1024, R10_64, RunaheadConfig
from repro.sim.runner import run_core
from repro.store import ResultStore

NUM_INSTRUCTIONS = 800

#: Every machine kind the sweep layer can dispatch, the limit core included.
CORES = {
    "r10": R10_64,
    "kilo": KILO_1024,
    "runahead": RunaheadConfig(),
    "dkip": DKIP_2048,
    "ooo-bp": parse_machine("ooo-bp(bp=gshare-12,rob=32)"),
    "dual": parse_machine("dual(rob=32,co=synth(chase=8),bp=gshare-10)"),
    "limit": parse_machine("limit"),
}

MEMORY = TABLE1_CONFIGS["MEM-400"]

GRID = [
    (R10_64, "mcf", MEMORY),
    (DKIP_2048, "swim", TABLE1_CONFIGS["MEM-100"]),
    (parse_machine("ooo-bp(bp=gshare-10,rob=24)"), "mcf",
     TABLE1_CONFIGS["L2-11"]),
    (R10_64, "swim", MEMORY),
]


@pytest.fixture(autouse=True)
def _no_ambient_dispatch_settings(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_FAULT", raising=False)


@pytest.fixture(scope="module")
def direct():
    """Each machine kind simulated directly, outside the sweep layer."""
    workload = WorkloadPool().get("mcf")
    return {
        tag: run_core(config, workload, NUM_INSTRUCTIONS, memory=MEMORY)
        for tag, config in CORES.items()
    }


@pytest.fixture(scope="module", params=[1, 2], ids=["jobs1", "jobs2"])
def dispatched(request):
    """Every machine kind in one ``run_cells`` grid, serial or pooled."""
    cells = [(config, "mcf", MEMORY) for config in CORES.values()]
    got = run_cells(cells, NUM_INSTRUCTIONS, WorkloadPool(),
                    jobs=request.param)
    return dict(zip(CORES, got))


@pytest.mark.parametrize("tag", list(CORES))
def test_dispatched_cell_is_bit_identical_to_run_core(direct, dispatched, tag):
    stats = dispatched[tag]
    assert stats is not None
    assert stats.committed == NUM_INSTRUCTIONS
    assert stats.to_dict() == direct[tag].to_dict()


@pytest.mark.parametrize(
    ("predictor", "spec"),
    [
        ("perceptron", "perceptron-256-24"),
        ("gshare", "gshare-12"),
        ("bimodal", "bimodal-12"),
        ("always-taken", "always-taken"),
    ],
)
def test_predictor_on_the_machine_matches_a_predictor_override(predictor, spec):
    """The predictor ablation keys its cells by a machine whose cache
    processor names the predictor; each cell must equal the historical
    ``predictor_name=`` override of the unchanged D-KIP-2048."""
    pool = WorkloadPool()
    machine = dataclasses.replace(
        DKIP_2048,
        cache_processor=dataclasses.replace(DKIP_2048.cache_processor, predictor=spec),
    )
    # twolf: the four predictors mispredict differently on it.
    (stats,) = run_cells([(machine, "twolf", MEMORY)], NUM_INSTRUCTIONS, pool)
    override = run_core(
        DKIP_2048, pool.get("twolf"), NUM_INSTRUCTIONS, memory=MEMORY,
        predictor_name=predictor,
    )
    assert stats.to_dict() == override.to_dict()


@pytest.fixture(scope="module")
def grid_baseline():
    return [stats.to_dict() for stats in run_cells(GRID, 600, WorkloadPool())]


def test_pool_persists_each_cell_and_warm_rerun_hits(grid_baseline, tmp_path):
    store = ResultStore(tmp_path)
    got = run_cells(GRID, 600, WorkloadPool(), jobs=2, store=store)
    assert [stats.to_dict() for stats in got] == grid_baseline
    assert store.writes == len(GRID)
    rerun = run_cells(GRID, 600, WorkloadPool(), jobs=2, store=store)
    assert [stats.to_dict() for stats in rerun] == grid_baseline
    assert store.hits == len(GRID)
    assert store.writes == len(GRID)  # nothing recomputed


def test_worker_kill_retries_the_cell_and_persists_each_once(
    monkeypatch, tmp_path, grid_baseline
):
    """A worker killed mid-cell costs one retry of that cell only: every
    cell is written to the store exactly once, with serial results."""
    monkeypatch.setenv("REPRO_FAULT", "cell:kill@swim × MEM-100#0")
    store = ResultStore(tmp_path)
    puts = []
    original_put = ResultStore.put
    monkeypatch.setattr(
        ResultStore, "put",
        lambda self, key, stats: (puts.append(key),
                                  original_put(self, key, stats))[1],
    )
    report = FailureReport()
    got = run_cells(GRID, 600, WorkloadPool(), jobs=2, store=store,
                    policy=ExecutionPolicy(retries=3, max_failures=0),
                    report=report)
    assert [stats.to_dict() for stats in got] == grid_baseline
    assert report.worker_deaths >= 1
    assert report.retries >= 1
    assert len(puts) == len(GRID)
    assert len(set(puts)) == len(GRID)
