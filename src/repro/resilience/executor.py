"""Fault-tolerant cell execution: supervised workers, deadlines, retries.

:class:`ResilientExecutor` replaces the bare ``multiprocessing.Pool``
between the sweep drivers and the simulator.  Each worker is one
supervised process with a dedicated pipe; the driver dispatches one cell
at a time, so it always knows exactly which cell a worker holds.  That
makes the three supervision duties precise:

- **deadlines** — a cell running past ``policy.cell_timeout`` gets its
  worker killed and, while retry budget remains, is requeued;
- **worker death** — a worker that exits without reporting (OOM kill,
  injected ``cell:kill`` fault, segfault) is detected by pipe EOF /
  liveness checks, respawned, and its one in-flight cell requeued;
- **classification** — exceptions from the cell body come back as typed
  outcomes (:mod:`repro.resilience.report`): transient errors retry
  with exponential backoff and jitter, permanent ones fail the cell
  immediately, and the failure budget (``policy.max_failures``) bounds
  how many final failures a run absorbs before aborting with
  :class:`~repro.resilience.report.CellExecutionError`.

Completed results stream to the caller's ``on_result`` callback as they
arrive (the sweep layer persists each one to the content-addressed
store there), so even an aborted run resumes from everything that
finished — the store's fingerprints are the idempotency ledger, and a
retried cell dedupes to a bit-identical entry.

The module also provides the serial twin :func:`run_attempts` (used by
``run_cells`` when no pool or deadline is needed) and the policy
activation context (:func:`resilience_context`) the CLI uses to thread
one policy + report through every harness without touching their
signatures.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import random
import time
import traceback as traceback_module
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.resilience.faults import TransientCellError, plan_from_env
from repro.resilience.report import (
    PERMANENT,
    RETRYABLE,
    TIMEOUT,
    CellExecutionError,
    CellFailure,
    FailureReport,
)

#: Exception types classified as retryable; everything else (including
#: ``DeadlockError`` — a modelling bug, deterministic by construction)
#: is permanent.  Extend via subclassing :class:`TransientCellError`.
RETRYABLE_EXCEPTIONS: tuple[type[BaseException], ...] = (
    TransientCellError,
    ConnectionError,
)


def classify_exception(error: BaseException) -> str:
    """Map an exception from a cell body to ``retryable``/``permanent``."""
    return RETRYABLE if isinstance(error, RETRYABLE_EXCEPTIONS) else PERMANENT


@dataclass(frozen=True)
class ExecutionPolicy:
    """How much failure one run tolerates, and at what pace it retries.

    ``max_failures`` is the number of *final* cell failures tolerated
    before the run aborts: ``0`` (the default) reproduces the classic
    fail-fast sweep, ``None`` never aborts.  ``retries`` bounds the
    re-dispatches of any single cell after retryable outcomes
    (transient errors, worker deaths, timeouts).  ``cell_timeout`` is
    the per-attempt wall-clock deadline in seconds (``None`` = no
    deadline).
    """

    cell_timeout: float | None = None
    retries: int = 2
    max_failures: int | None = 0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    seed: int = 0

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before *attempt* (1-based): exponential, capped, jittered."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        return delay * (0.5 + 0.5 * rng.random())

    def jitter_rng(self, label: str, attempt: int) -> random.Random:
        """A jitter source keyed to one (cell, attempt) pair.

        Drawing jitter from a single shared RNG makes each retry's delay
        a function of how *other* cells happened to interleave, so chaos
        runs under ``$REPRO_FAULT`` never replay their timing.  Hashing
        (policy seed, cell label, attempt) instead gives every attempt
        its own deterministic stream: a given cell backs off identically
        no matter what else is in flight or in what order it retried.
        """
        data = f"{self.seed}|{label}|{attempt}".encode()
        seed = int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
        return random.Random(seed)

    def backoff_for(self, label: str, attempt: int) -> float:
        """The deterministic delay before *attempt* of the cell *label*."""
        return self.backoff(attempt, self.jitter_rng(label, attempt))


#: The default policy: no deadline, supervised retries for transient
#: failures and worker deaths, abort on the first permanent failure —
#: the historical fail-fast sweep, plus supervision.
STRICT = ExecutionPolicy()

# ----------------------------------------------------------------------
# Policy activation (the CLI threads one policy/report through every
# harness without touching their signatures)
# ----------------------------------------------------------------------

_ACTIVE: list[tuple[ExecutionPolicy, FailureReport]] = []


@contextmanager
def resilience_context(
    policy: ExecutionPolicy, report: FailureReport | None = None
) -> Iterator[FailureReport]:
    """Make (*policy*, *report*) the ambient execution context.

    ``run_cells`` calls without an explicit policy/report pick these up,
    so one CLI invocation aggregates every harness's failures into one
    report.  Contexts nest; the innermost wins.
    """
    entry = (policy, report if report is not None else FailureReport())
    _ACTIVE.append(entry)
    try:
        yield entry[1]
    finally:
        _ACTIVE.remove(entry)


def active_policy() -> ExecutionPolicy:
    """The ambient policy (:data:`STRICT` when none is active)."""
    return _ACTIVE[-1][0] if _ACTIVE else STRICT


def active_report() -> FailureReport | None:
    """The ambient failure report, or ``None`` outside any context."""
    return _ACTIVE[-1][1] if _ACTIVE else None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _failure_info(error: BaseException) -> dict:
    """Serialize an exception for the supervision pipe."""
    return {
        "kind": classify_exception(error),
        "error": type(error).__name__,
        "message": str(error),
        "traceback": traceback_module.format_exc(),
    }


def _worker_main(conn, fn: Callable[[Any], Any]) -> None:
    """Worker loop: receive one task, run it, report, repeat.

    The fault plan (``$REPRO_FAULT``) injects here — before the cell
    body — so ``kill`` clauses take down this process, never the driver.
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        index, label, attempt, payload = item
        try:
            plan = plan_from_env()
            if plan is not None:
                plan.inject_cell(label, attempt)
            result = fn(payload)
        except KeyboardInterrupt:
            return
        except BaseException as error:  # noqa: BLE001 - classified, not dropped
            message = (index, attempt, "error", None, _failure_info(error))
        else:
            message = (index, attempt, "ok", result, None)
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------


class _Task:
    """One cell's dispatch state (attempt counter, backoff deadline)."""

    __slots__ = ("index", "label", "payload", "attempt", "not_before", "first_start")

    def __init__(self, index: int, label: str, payload: Any) -> None:
        self.index = index
        self.label = label
        self.payload = payload
        self.attempt = 0
        self.not_before = 0.0
        self.first_start: float | None = None


class _Worker:
    """One supervised process plus its dedicated pipe and current task."""

    __slots__ = ("process", "conn", "task", "started")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: _Task | None = None
        self.started = 0.0


class ResilientExecutor:
    """Dispatch cells over supervised workers under an execution policy.

    *fn* is the module-level cell body (picklable); *jobs* the worker
    count.  Failures and counters accumulate into *report*;
    :meth:`run` raises :class:`~repro.resilience.report.CellExecutionError`
    when the policy's failure budget is exhausted (completed cells have
    already streamed to ``on_result`` by then).
    """

    #: Idle poll tick (seconds) when no deadline bounds the wait.
    TICK = 0.2

    def __init__(
        self,
        fn: Callable[[Any], Any],
        jobs: int,
        policy: ExecutionPolicy = STRICT,
        report: FailureReport | None = None,
    ) -> None:
        self.fn = fn
        self.jobs = max(1, jobs)
        self.policy = policy
        self.report = report if report is not None else FailureReport()
        self._workers: list[_Worker] = []

    # -- lifecycle ------------------------------------------------------

    def _spawn(self) -> _Worker:
        """Start one worker process and keep the driver end of its pipe."""
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main, args=(child_conn, self.fn), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _discard(self, worker: _Worker, kill: bool = False) -> None:
        """Drop *worker*: close its pipe, kill/join the process."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - last resort
            worker.process.terminate()
        self._workers.remove(worker)

    def _shutdown(self) -> None:
        """Stop every worker: sentinel to idle ones, kill busy ones."""
        for worker in list(self._workers):
            if worker.task is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
                self._discard(worker)
            else:
                self._discard(worker, kill=True)

    # -- supervision ----------------------------------------------------

    def _requeue(
        self, task: _Task, now: float, pending: deque, delayed: list
    ) -> None:
        """Schedule *task*'s next attempt after its backoff delay."""
        task.attempt += 1
        self.report.retries += 1
        delay = self.policy.backoff_for(task.label, task.attempt)
        if delay <= 0:
            pending.append(task)
        else:
            task.not_before = now + delay
            delayed.append(task)

    def _fail(self, task: _Task, kind: str, error: str, message: str,
              trace: str, now: float) -> None:
        """Record a final failure; abort when the budget is exhausted."""
        start = task.first_start if task.first_start is not None else now
        failure = CellFailure(
            index=task.index,
            cell=task.label,
            kind=kind,
            error=error,
            message=message,
            traceback=trace,
            attempts=task.attempt + 1,
            duration=now - start,
        )
        self.report.record(failure)
        budget = self.policy.max_failures
        if budget is not None and len(self.report.failures) > budget:
            raise CellExecutionError(failure, self.report)

    def _retryable(self, task: _Task) -> bool:
        return task.attempt < self.policy.retries

    # -- the run loop ---------------------------------------------------

    def run(
        self,
        tasks: Sequence[tuple[int, str, Any]],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> dict[int, Any]:
        """Execute every ``(index, label, payload)`` task; return results.

        The mapping holds one entry per *completed* cell; cells that
        failed past their budget are absent (their
        :class:`~repro.resilience.report.CellFailure` records live in
        ``self.report``).  ``on_result(index, result)`` fires in the
        driver as each cell completes, in completion order.
        """
        results: dict[int, Any] = {}
        self.report.cells += len(tasks)
        pending: deque[_Task] = deque(
            _Task(index, label, payload) for index, label, payload in tasks
        )
        delayed: list[_Task] = []
        remaining = len(pending)
        for _ in range(min(self.jobs, remaining)):
            self._workers.append(self._spawn())
        try:
            while remaining > 0:
                now = time.monotonic()
                for task in [t for t in delayed if t.not_before <= now]:
                    delayed.remove(task)
                    pending.append(task)
                self._dispatch(pending, now)
                busy = [w for w in self._workers if w.task is not None]
                if not busy:
                    if pending:
                        continue
                    if delayed:
                        time.sleep(
                            max(0.0, min(t.not_before for t in delayed) - now)
                            + 0.001
                        )
                        continue
                    break  # pragma: no cover - defensive; remaining>0 implies work
                ready = multiprocessing.connection.wait(
                    [w.conn for w in busy], self._wait_timeout(busy, delayed, now)
                )
                now = time.monotonic()
                by_conn = {id(w.conn): w for w in busy}
                for conn in ready:
                    worker = by_conn[id(conn)]
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        remaining -= self._on_death(worker, now, pending, delayed)
                        continue
                    remaining -= self._on_message(
                        worker, message, now, results, on_result, pending, delayed
                    )
                if self.policy.cell_timeout is not None:
                    for worker in [w for w in self._workers if w.task is not None]:
                        if now - worker.started >= self.policy.cell_timeout:
                            remaining -= self._on_timeout(
                                worker, now, pending, delayed
                            )
        finally:
            self._shutdown()
        return results

    def _dispatch(self, pending: deque, now: float) -> None:
        """Hand ready tasks to idle workers (respawning dead ones)."""
        for worker in list(self._workers):
            if worker.task is not None or not pending:
                continue
            if not worker.process.is_alive():
                self.report.worker_deaths += 1
                self._discard(worker)
                self._workers.append(self._spawn())
                worker = self._workers[-1]
            task = pending.popleft()
            if task.first_start is None:
                task.first_start = now
            try:
                worker.conn.send((task.index, task.label, task.attempt, task.payload))
            except (BrokenPipeError, OSError):
                pending.appendleft(task)
                self.report.worker_deaths += 1
                self._discard(worker, kill=True)
                self._workers.append(self._spawn())
                continue
            worker.task = task
            worker.started = now

    def _wait_timeout(self, busy: list, delayed: list, now: float) -> float:
        """How long the supervision wait may block before the next duty."""
        timeout = self.TICK
        if self.policy.cell_timeout is not None:
            deadlines = [
                w.started + self.policy.cell_timeout - now for w in busy
            ]
            timeout = min(timeout, *deadlines)
        if delayed:
            timeout = min(timeout, *[t.not_before - now for t in delayed])
        return max(0.01, timeout)

    def _on_message(
        self, worker: _Worker, message, now: float, results: dict, on_result,
        pending: deque, delayed: list,
    ) -> int:
        """Handle one worker report; return 1 when its cell is resolved."""
        task = worker.task
        index, _attempt, status, result, info = message
        worker.task = None
        if status == "ok":
            results[index] = result
            self.report.completed += 1
            if on_result is not None:
                on_result(index, result)
            return 1
        if info["kind"] == RETRYABLE and self._retryable(task):
            self._requeue(task, now, pending, delayed)
            return 0
        self._fail(
            task, info["kind"], info["error"], info["message"],
            info.get("traceback", ""), now,
        )
        return 1

    def _on_death(
        self, worker: _Worker, now: float, pending: deque, delayed: list
    ) -> int:
        """A worker died mid-cell: respawn, requeue or fail its cell."""
        task = worker.task
        self.report.worker_deaths += 1
        self._discard(worker, kill=True)
        self._workers.append(self._spawn())
        if task is None:  # pragma: no cover - deaths surface while busy
            return 0
        exitcode = worker.process.exitcode
        if self._retryable(task):
            self._requeue(task, now, pending, delayed)
            return 0
        self._fail(
            task, RETRYABLE, "WorkerDeath",
            f"worker exited with code {exitcode} while running this cell "
            f"(attempt {task.attempt + 1})", "", now,
        )
        return 1

    def _on_timeout(
        self, worker: _Worker, now: float, pending: deque, delayed: list
    ) -> int:
        """A cell ran past its deadline: kill the worker, requeue or fail."""
        task = worker.task
        self.report.timeouts += 1
        self._discard(worker, kill=True)
        self._workers.append(self._spawn())
        if self._retryable(task):
            self._requeue(task, now, pending, delayed)
            return 0
        self._fail(
            task, TIMEOUT, "CellTimeout",
            f"exceeded the {self.policy.cell_timeout:g}s per-cell deadline "
            f"(attempt {task.attempt + 1})", "", now,
        )
        return 1


# ----------------------------------------------------------------------
# The serial twin (in-process: classification + retries, no deadlines)
# ----------------------------------------------------------------------


def run_attempts(
    index: int,
    label: str,
    compute: Callable[[], Any],
    policy: ExecutionPolicy,
    report: FailureReport,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run one cell in-process under *policy*; ``None`` marks a failure.

    The serial counterpart of one executor slot: transient exceptions
    retry with backoff, permanent ones fail the cell immediately, final
    failures are recorded into *report*, and an exhausted failure budget
    raises :class:`~repro.resilience.report.CellExecutionError`.  No
    deadline enforcement — callers that need ``cell_timeout`` must use
    :class:`ResilientExecutor` (a process can only be killed from
    outside).  Fault injection stays off here for the same reason: a
    ``kill`` clause would take down the driver.
    """
    report.cells += 1
    start = time.monotonic()
    attempt = 0
    while True:
        try:
            result = compute()
        except Exception as error:  # noqa: BLE001 - classified, not dropped
            kind = classify_exception(error)
            if kind == RETRYABLE and attempt < policy.retries:
                attempt += 1
                report.retries += 1
                sleep(policy.backoff_for(label, attempt))
                continue
            failure = CellFailure(
                index=index,
                cell=label,
                kind=kind,
                error=type(error).__name__,
                message=str(error),
                traceback=traceback_module.format_exc(),
                attempts=attempt + 1,
                duration=time.monotonic() - start,
            )
            report.record(failure)
            budget = policy.max_failures
            if budget is not None and len(report.failures) > budget:
                raise CellExecutionError(failure, report) from error
            return None
        report.completed += 1
        return result
