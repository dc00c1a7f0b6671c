"""Spans around the program's public calls, for the traced benchmark run.

:func:`install` replaces each function or method in :data:`TARGETS` with
a wrapper that records one span per call: its name, start and duration
on the host's monotonic clock (shared by every process on the host),
the id of the span that was open when it started, and a few attributes
read from the call's result.  Module functions are replaced in every
loaded ``repro`` module that imported them, so ``from x import f``
call sites are covered too.

Pool and service workers are forked from the unit driver, so they
inherit the wrappers.  Each process keeps its spans in memory and
writes them to ``<dir>/spans-<unit>-<pid>.jsonl`` when it ends (worker
processes through a multiprocessing finalizer, the driver through
:func:`flush`); every span carries the unit id, so the spans of one
unit share an id across processes.

:func:`self_times` turns a span list into self time: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable

#: (module, class or None, attribute, span name).  The span name's first
#: component is the layer; per-layer metrics are computed from them.
TARGETS = (
    ("repro.workloads.base", "Workload", "trace", "workloads.trace"),
    ("repro.trace.io", None, "load_trace", "trace.load_trace"),
    ("repro.simpoint.phases", None, "analyze_trace", "simpoint.analyze_trace"),
    ("repro.memory.warmup", None, "warm_caches", "memory.warm_caches"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "restore", "memory.restore"),
    ("repro.experiments.common", "WarmupCache", "snapshot_for", "memory.snapshot_for"),
    ("repro.sim.runner", None, "simulate", "sim.simulate"),
    ("repro.sim.runner", None, "run_core", "sim.run_core"),
    ("repro.store.store", None, "cell_key", "store.cell_key"),
    ("repro.store.store", "ResultStore", "get", "store.get"),
    ("repro.store.store", "ResultStore", "put", "store.put"),
    ("repro.store.store", "ResultStore", "validated", "store.validated"),
    ("repro.experiments.sweep", None, "plan_grid", "experiments.plan_grid"),
    ("repro.experiments.sweep", None, "sweep_grid", "experiments.sweep_grid"),
    ("repro.experiments.common", None, "run_cells", "experiments.run_cells"),
    ("repro.report.build", None, "build_report", "report.build_report"),
    ("repro.resilience.executor", "ResilientExecutor", "run", "resilience.run"),
    ("repro.service.client", None, "submit_job", "service.submit_job"),
    ("repro.service.scheduler", "Scheduler", "poll_once", "service.poll_once"),
    ("repro.service.queue", "ServiceQueue", "claim", "service.claim"),
)

#: Modules imported before patching, so every ``from x import f`` site
#: already holds the original function object when the wrappers go in.
PRELOAD = (
    "repro.experiments.registry",
    "repro.experiments.sweep",
    "repro.report.build",
    "repro.service",
    "repro.service.worker",
    "repro.workloads.tracefile",
    "repro.workloads.phases",
    "repro.machines.registry",
)


class Recorder:
    """The current process's open-span stack and finished spans."""

    def __init__(self, unit: str, directory: str) -> None:
        self.unit = unit
        self.directory = directory
        self.pid = os.getpid()
        self.spans: list[dict] = []
        #: (span id, span name) of every open span, innermost last.
        self.stack: list[tuple[str, str]] = []
        self.counter = 0
        self.paused = False

    def reset_after_fork(self) -> None:
        """A forked child starts with no spans and no open parents, and
        writes its own file when it exits."""
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counter = 0
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def new_id(self) -> str:
        self.counter += 1
        return f"{self.pid}.{self.counter}"

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is a *name* span (an override
        calling its base method records one span, not two)."""
        return bool(self.stack) and self.stack[-1][1] == name

    def record(self, span_id: str, parent: str | None, name: str,
               start: float, duration: float, attrs: dict | None) -> None:
        span = {
            "unit": self.unit, "pid": self.pid, "id": span_id,
            "parent": parent, "name": name, "start": start, "dur": duration,
        }
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)

    def flush(self) -> None:
        """Append this process's spans to its span file."""
        if not self.spans:
            return
        path = Path(self.directory) / f"spans-{self.unit}-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


RECORDER: Recorder | None = None


def _attrs_for(name: str, args: tuple, result: Any) -> dict | None:
    """The attributes a span keeps from its call."""
    if name == "workloads.trace":
        return {"n": len(result)}
    if name == "sim.simulate":
        from repro.machines.registry import kind_of

        return {
            "kind": kind_of(args[0]).name,
            "committed": result.committed,
            "cycles": result.cycles,
        }
    if name in ("store.get", "service.claim"):
        return {"hit": result is not None}
    if name == "resilience.run":
        return {"retries": args[0].report.retries}
    return None


def wrap(name: str, fn: Callable) -> Callable:
    """*fn* with a span recorded around every call."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder = RECORDER
        if recorder is None or recorder.paused or recorder.inside(name):
            return fn(*args, **kwargs)
        span_id = recorder.new_id()
        parent = recorder.parent()
        recorder.stack.append((span_id, name))
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.monotonic() - start
            recorder.stack.pop()
        recorder.record(
            span_id, parent, name, start, duration, _attrs_for(name, args, result)
        )
        return result

    return traced


class _TimedIterator:
    """A generator's items, timed only while the generator runs.

    The consumer's work between items is not the generator's, so the
    span's duration is the sum of the time spent inside ``next``; its
    parent is the span open at the first ``next``.
    """

    def __init__(self, name: str, iterator: Iterable) -> None:
        self.name = name
        self.iterator = iter(iterator)
        self.items = 0
        self.duration = 0.0
        self.start: float | None = None
        self.parent: str | None = None
        self.span_id: str | None = None
        self.closed = False

    def __iter__(self):
        return self

    def __next__(self):
        recorder = RECORDER
        started = time.monotonic()
        if self.start is None:
            self.start = started
            if recorder is not None:
                self.parent = recorder.parent()
                self.span_id = recorder.new_id()
        if recorder is not None and self.span_id is not None:
            recorder.stack.append((self.span_id, self.name))
        try:
            item = next(self.iterator)
        except BaseException:
            self._finish(time.monotonic() - started)
            raise
        finally:
            if recorder is not None and self.span_id is not None:
                recorder.stack.pop()
        self.duration += time.monotonic() - started
        self.items += 1
        return item

    def _finish(self, last: float) -> None:
        if self.closed:
            return
        self.closed = True
        self.duration += last
        recorder = RECORDER
        if recorder is not None and not recorder.paused and self.span_id is not None:
            recorder.record(
                self.span_id, self.parent, self.name, self.start,
                self.duration, {"n": self.items},
            )

    def close(self) -> None:
        close = getattr(self.iterator, "close", None)
        if close is not None:
            close()
        self._finish(0.0)

    def __del__(self) -> None:
        self._finish(0.0)


def wrap_generator(name: str, fn: Callable) -> Callable:
    """*fn*, a generator function, with its iteration time recorded."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _TimedIterator(name, fn(*args, **kwargs))

    return traced


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference at *replacement*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _classes_defining(cls: type, attr: str) -> list[type]:
    """*cls* and its loaded subclasses that define *attr* themselves."""
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if attr in vars(current):
            found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(unit: str, directory: str) -> Recorder:
    """Start recording spans for *unit* into *directory*."""
    global RECORDER
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    RECORDER = Recorder(unit, directory)
    multiprocessing.util.register_after_fork(RECORDER, Recorder.reset_after_fork)
    for module_name, class_name, attr, name in TARGETS:
        module = importlib.import_module(module_name)
        if class_name is None:
            original = getattr(module, attr)
            make = wrap_generator if name == "trace.load_trace" else wrap
            _replace_everywhere(original, make(name, original))
            continue
        for cls in _classes_defining(getattr(module, class_name), attr):
            setattr(cls, attr, wrap(name, vars(cls)[attr]))
    return RECORDER


def pause() -> None:
    """Stop recording in this process (the unit's own checks follow)."""
    if RECORDER is not None:
        RECORDER.paused = True


def flush() -> None:
    """Write the calling process's spans out (the unit driver's end)."""
    if RECORDER is not None:
        RECORDER.flush()


def read_spans(directory: str | os.PathLike, unit: str) -> list[dict]:
    """Every span of *unit* written under *directory*, any process."""
    spans = []
    for path in sorted(Path(directory).glob(f"spans-{unit}-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[str, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + span["dur"]
    return {
        span["id"]: span["dur"] - child_time.get(span["id"], 0.0) for span in spans
    }
