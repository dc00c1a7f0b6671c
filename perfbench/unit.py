"""Run one unit of a benchmark workload in a fresh process.

Usage: ``python3 perfbench/unit.py '<json config>'``.  The config names
the workload, seed, mode and directories (see :func:`main`); the result
is written as JSON to ``<work>/result-<unit>.json``.

A fresh process per unit keeps units independent: nothing the program
memoizes in one unit (workload traces, SimPoint analyses, warm-up
snapshots) makes the next one cheaper.  Each unit sets up its own empty
store (or, for ``report-warm``, opens the store the set-up filled),
then times one unit of work through the program's public entry points.
Everything before the timer starts, interpreter start and imports
included, is the unit's set-up; the caller measures it from the spawn
to the ``start`` this module reports (both on the host's monotonic
clock).  Parallelism is the program's own: ``jobs=2`` for sweeps,
two ``worker_main`` processes for the service.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402  (benchmark-local modules)
import grids  # noqa: E402
import tracing  # noqa: E402

SERVICE_POLL = 0.2
SERVICE_LEASE = 30.0


def _import_program(root: Path) -> None:
    """Import ``repro`` from the checkout's ``src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def _rusage() -> tuple[float, float, float]:
    """(CPU seconds of this process, CPU seconds of reaped children,
    peak RSS in MB of this process or any reaped child)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_kb = max(own.ru_maxrss, children.ru_maxrss)
    return (
        own.ru_utime + own.ru_stime,
        children.ru_utime + children.ru_stime,
        peak_kb / 1024.0,
    )


class Timer:
    """Wall (monotonic) and CPU time of the timed unit."""

    def __enter__(self) -> "Timer":
        self.cpu_self, self.cpu_children, _ = _rusage()
        self.start = time.monotonic()
        self.start_epoch_ns = time.time_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.monotonic()

    def finish(self) -> dict:
        """The unit's timings, read once every child has been reaped."""
        cpu_self, cpu_children, peak_mb = _rusage()
        return {
            "wall_s": self.end - self.start,
            "cpu_s": (cpu_self - self.cpu_self) + (cpu_children - self.cpu_children),
            "peak_rss_mb": peak_mb,
            "start": self.start,
            "end": self.end,
        }


def _grid_cells(store, plan, pool, start_epoch_ns: int) -> tuple[dict, list, int]:
    """Per-cell digests, persist times and committed instructions, read
    back from the store after the unit."""
    from repro.store import cell_key

    cells, done, committed = {}, [], 0
    for config, bench, memory in plan.cells():
        label = grids.cell_label(config.name, bench, memory.name)
        key = cell_key(config, pool.get(bench), plan.instructions, memory)
        stats = store.get(key)
        if stats is None:
            cells[label] = None
            continue
        cells[label] = checks.stats_digest(stats.to_dict())
        committed += stats.committed
        persisted_ns = os.stat(store.path_for(key)).st_mtime_ns
        done.append((persisted_ns - start_epoch_ns) / 1e9)
    return cells, done, committed


def run_sweep_unit(cfg: dict, work: Path) -> dict:
    """fig9-cold and pool-small: one ``sweep_grid`` into an empty store."""
    from repro.experiments.common import WorkloadPool
    from repro.experiments.sweep import SweepSpec, get_sweep_preset, plan_grid, sweep_grid
    from repro.store import ResultStore

    if cfg["workload"] == "fig9-cold":
        spec, pool_seed = get_sweep_preset("fig9").spec, cfg["seed"]
    else:
        spec, pool_seed = SweepSpec.from_mapping(grids.small_sweep(cfg["seed"])), 0
    store = ResultStore(work / "store")
    store.root.mkdir(parents=True)
    pool = WorkloadPool(pool_seed)
    with Timer() as timer:
        sweep_grid(spec, "default", pool=pool, store=store, jobs=grids.JOBS)
    result = timer.finish()
    tracing.pause()
    cells, done, committed = _grid_cells(
        store, plan_grid(spec, "default"), pool, timer.start_epoch_ns
    )
    result.update(cells=cells, done_s=done, committed=committed)
    return result


def run_service_unit(cfg: dict, work: Path) -> dict:
    """service-small: submit to a fresh spool, drain with Scheduler plus
    two ``worker_main`` processes at the CLI defaults."""
    from repro.experiments.common import WorkloadPool
    from repro.experiments.sweep import SweepSpec, plan_grid
    from repro.service import DONE, Scheduler, ServiceQueue, submit_job, worker_main
    from repro.store import ResultStore

    mapping = grids.small_sweep(cfg["seed"])
    queue = ServiceQueue(work / "spool")
    queue.ensure()
    queue.clear_stop()
    store = ResultStore(queue.root / "store")
    scheduler = Scheduler(queue, store, lease=SERVICE_LEASE)
    workers = [
        multiprocessing.Process(
            target=worker_main,
            args=(str(queue.root),),
            kwargs={"store_root": str(store.root), "poll": SERVICE_POLL,
                    "name": f"worker-{slot}"},
            daemon=True,
        )
        for slot in range(grids.JOBS)
    ]
    for worker in workers:
        worker.start()
    try:
        with Timer() as timer:
            job, _outcome = submit_job(queue, mapping, "default")
            while True:
                scheduler.poll_once()
                if scheduler.drained():
                    break
                time.sleep(SERVICE_POLL)
    finally:
        queue.request_stop()
        for worker in workers:
            worker.join(timeout=30.0)
        for worker in workers:
            if worker.is_alive():
                worker.kill()
                worker.join()
    result = timer.finish()
    tracing.pause()
    job = queue.load_job(job.job_id)
    plan = plan_grid(SweepSpec.from_mapping(mapping), "default")
    cells, done, committed = _grid_cells(store, plan, WorkloadPool(), timer.start_epoch_ns)
    result.update(
        cells=cells, done_s=done, committed=committed,
        job_done=job is not None and job.state == DONE,
        retries=int(job.counters.get("retries", 0)) if job else 0,
        requeues=int(job.requeues) if job else 0,
    )
    return result


def run_report_setup(cfg: dict, work: Path) -> dict:
    """report-warm's set-up: one cold quick-scale report fills the store."""
    from repro.report.build import build_report
    from repro.store import ResultStore

    store = ResultStore(work / "store")
    build_report(scale="quick", store=store)
    digests = sorted(
        checks.stats_digest(entry["stats"], store_root=str(store.root))
        for _path, entry in store.iter_entries()
        if entry is not None
    )
    return {"store_cells": digests}


def run_report_unit(cfg: dict, work: Path) -> dict:
    """report-warm: ``build_report`` over every experiment, warm store."""
    from repro.report.build import build_report
    from repro.store import ResultStore

    store = ResultStore(work / "store")
    with Timer() as timer:
        document = build_report(scale="quick", store=store)
    result = timer.finish()
    tracing.pause()
    reference = (Path(cfg["root"]) / "REPRODUCTION.md").read_text(encoding="utf-8")
    result.update(
        cells_read=store.hits,
        cells_simulated=store.writes,
        document_ok=checks.same_document(document, reference),
    )
    return result


def main(argv: list[str]) -> int:
    """Config keys: ``root`` (checkout), ``workload``, ``seed``, ``mode``
    (``unit``, or ``setup`` for report-warm's store fill), ``work``
    (the store's parent directory), ``trace`` (span directory, or
    null) and ``unit`` (the unit id spans and results are named by)."""
    cfg = json.loads(argv[0])
    _import_program(Path(cfg["root"]))
    work = Path(cfg["work"])
    if cfg.get("trace"):
        tracing.install(cfg["unit"], cfg["trace"])
    if cfg["workload"] == "report-warm":
        runner = run_report_setup if cfg["mode"] == "setup" else run_report_unit
    elif cfg["workload"] == "service-small":
        runner = run_service_unit
    else:
        runner = run_sweep_unit
    result = runner(cfg, work)
    result["pid"] = os.getpid()
    tracing.flush()
    with open(work / f"result-{cfg['unit']}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
