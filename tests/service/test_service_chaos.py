"""Chaos battery: real worker processes dying under ``$REPRO_FAULT``.

The kill clause is scoped to attempt token ``#0`` and workers key fault
injection by ticket *generation*, so every generation-0 worker genuinely
dies (``os._exit(137)``) mid-shard while the requeued generation runs
clean — the scheduler must heal the grid through real process deaths.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.service import Scheduler, ServiceQueue, build_job, worker_main
from repro.service.jobs import DONE
from repro.store import ResultStore

MAPPING = {
    "name": "svc-chaos",
    "machines": ["r10(rob=32)", "dkip(llib=4096)"],
    "workloads": ["mcf", "swim"],
    "instructions": 400,
}


def _spawn_worker(queue, store, slot):
    process = multiprocessing.Process(
        target=worker_main,
        args=(str(queue.root),),
        kwargs={"store_root": str(store.root), "poll": 0.02, "name": f"w{slot}"},
        daemon=True,
    )
    process.start()
    return process


@pytest.mark.slow
def test_killed_workers_requeue_and_heal_to_a_complete_grid(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_FAULT", "cell:kill@#0")
    queue = ServiceQueue(tmp_path / "svc")  # real wall clock
    queue.ensure()
    store = ResultStore(tmp_path / "store")
    job, _ = queue.submit(build_job(MAPPING, "quick", shards=2, retries=1))
    scheduler = Scheduler(queue, store, lease=2.0)
    workers = [_spawn_worker(queue, store, slot) for slot in range(2)]
    deaths = 0
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            scheduler.poll_once()
            if scheduler.drained():
                break
            for slot, process in enumerate(workers):
                if not process.is_alive():
                    deaths += 1
                    workers[slot] = _spawn_worker(queue, store, slot)
            time.sleep(0.05)
    finally:
        queue.request_stop()
        for process in workers:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.terminate()
    healed = queue.load_job(job.job_id)
    assert healed is not None and healed.state == DONE
    assert deaths >= 1  # the kill clause really took processes down
    assert healed.requeues >= 1 and healed.generation >= 2
    assert not healed.lost and not healed.failed_digests()
    assert all(store.validated(cell.store_key()) for cell in healed.cells)
    assert "0 failed" in healed.summary_line()


@pytest.mark.slow
def test_serve_replaces_killed_workers_and_drains(tmp_path):
    """``serve --once`` refills every slot whose worker died, so the
    requeued tickets find a claimant and the job drains instead of
    hanging; run in a subprocess so a regression times out."""
    svc = str(tmp_path / "svc")
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("REPRO_FAULT", None)
    grid = [
        "--machines", ",".join(MAPPING["machines"]),
        "--workloads", ",".join(MAPPING["workloads"]),
        "--scale", "quick", "--instructions", str(MAPPING["instructions"]),
        "--shards", "2",
    ]
    command = [sys.executable, "-m", "repro.experiments"]
    subprocess.run(
        command + ["submit", "--service", svc, *grid],
        env=env, check=True, capture_output=True, timeout=60,
    )
    env["REPRO_FAULT"] = "cell:kill@#0"
    served = subprocess.run(
        command + ["serve", "--service", svc, "--workers", "2", "--once",
                   "--lease", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert served.returncode == 0, served.stderr
    queue = ServiceQueue(svc)
    (job,) = list(queue.iter_jobs())
    assert job.state == DONE
    assert job.requeues >= 1  # the kill clause really took workers down
    store = ResultStore(Path(svc) / "store")
    assert all(store.validated(cell.store_key()) for cell in job.cells)
