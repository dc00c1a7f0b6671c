"""The repository's benchmark: one workload, measured for a time budget.

Usage::

    python3 perfbench/run.py --workload fig9-cold --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout.  Each unit of work runs in a fresh
driver process (``unit.py``) against the checkout's ``src``; this
process sets up, starts units until ``--seconds`` have passed (the
last unit may overrun; two always run), checks every unit's outputs,
and prints each metric that applies with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (cells) and ``metrics``, which holds the metrics
``BENCHMARK.json`` lists for the mode; a run that cannot measure one of
them exits with status 1 and prints no result.

``--trace 0`` reports the end-to-end metrics (medians over the units).
``--trace 1`` alternates plain and traced units and reports the
per-layer metrics of the traced ones, plus ``tracing.overhead_frac``
(traced over plain ``wall_s``, minus 1).  See ``README.md`` here for
the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402  (benchmark-local modules)
import grids  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402

#: Seconds one unit driver may take before the run is abandoned.
UNIT_TIMEOUT = 170
#: Fewest units per run, so every reported figure is a median of at
#: least two units even when one unit outlasts ``--seconds``.
MIN_UNITS = 2


def unit_env() -> dict:
    """The program's environment: no inherited ``REPRO_*`` knobs, and
    ``REPRO_JOBS=2`` for the experiments ``build_report`` runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_JOBS"] = str(grids.JOBS)
    env.pop("PYTHONPATH", None)
    return env


def run_unit(workload: str, seed: int, unit: str, work: Path,
             trace_dir: Path | None = None, mode: str = "unit") -> dict:
    """Run one unit driver; returns its result plus ``setup_s`` (spawn to
    the start of the timed unit, or to exit for a set-up run)."""
    work.mkdir(parents=True, exist_ok=True)
    config = {
        "root": str(ROOT), "workload": workload, "seed": seed, "mode": mode,
        "work": str(work), "unit": unit,
        "trace": str(trace_dir) if trace_dir is not None else None,
    }
    spawned = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "unit.py"), json.dumps(config)],
        cwd=work, env=unit_env(), capture_output=True, text=True,
        timeout=UNIT_TIMEOUT,
    )
    exited = time.monotonic()
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout[-2000:] + completed.stderr[-4000:])
        raise SystemExit(f"{workload} unit {unit} failed ({completed.returncode})")
    result_path = work / f"result-{unit}.json"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    result["setup_s"] = (exited if mode == "setup" else result["start"]) - spawned
    return result


class Run:
    """One benchmark invocation: its units, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.spans = work / "spans"
        self.spans.mkdir(parents=True)
        self.units: list[tuple[bool, dict]] = []  # (traced, result)
        self.report_setup: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    # -- running ------------------------------------------------------

    def unit_work(self, index: int) -> Path:
        if self.workload == "report-warm":
            return self.work / "report"
        return self.work / f"unit-{index}"

    def setup(self) -> None:
        if self.workload == "report-warm":
            self.report_setup = run_unit(
                self.workload, self.seed, "setup", self.work / "report", mode="setup"
            )

    def measure(self) -> None:
        """Start units until the budget has passed (the last may overrun),
        :data:`MIN_UNITS` at least; a traced run alternates plain and
        traced units."""
        modes = (False, True) if self.trace else (False,)
        started = time.monotonic()
        index = 0
        while index < MIN_UNITS or time.monotonic() - started < self.seconds:
            traced = modes[index % len(modes)]
            unit_id = f"{self.workload}-{self.seed}-{index}"
            result = run_unit(
                self.workload, self.seed, unit_id, self.unit_work(index),
                trace_dir=self.spans if traced else None,
            )
            result["id"] = unit_id
            self.units.append((traced, result))
            index += 1

    # -- checking -----------------------------------------------------

    def check(self) -> None:
        """Count attempted and failed cells over every measured unit."""
        if self.workload == "report-warm":
            self.check_report()
        else:
            self.check_grid()

    def check_grid(self) -> None:
        references = []
        if self.seed == grids.DEFAULT_SEED:
            key = "fig9-cold" if self.workload == "fig9-cold" else "small"
            references.append(("recorded digests", checks.load_expected()[key]))
        first = self.units[0][1]["cells"]
        references.append(("first unit", first))
        if self.workload in ("pool-small", "service-small"):
            other = "service-small" if self.workload == "pool-small" else "pool-small"
            cross = run_unit(other, self.seed, f"{other}-{self.seed}-check",
                             self.work / "check")
            references.append((other, cross["cells"]))
        for _traced, unit in self.units:
            bad = set()
            for name, reference in references:
                mismatched = checks.failed_cells(unit["cells"], reference)
                if mismatched:
                    self.notes.append(
                        f"unit {unit['id']}: {len(mismatched)} cell(s) differ "
                        f"from {name}"
                    )
                bad |= mismatched
            if unit.get("job_done") is False:
                self.notes.append(f"unit {unit['id']}: job did not finish")
                bad |= set(unit["cells"])
            self.attempted += len(unit["cells"])
            self.failed += len(bad)

    def check_report(self) -> None:
        stored = self.report_setup["store_cells"]
        expected = checks.load_expected()["report-warm"]
        bad = checks.failed_multiset(stored, expected)
        if bad:
            self.notes.append(f"set-up: {bad} stored cell(s) differ from recorded digests")
        self.attempted += max(len(stored), len(expected))
        self.failed += bad
        for _traced, unit in self.units:
            # A unit's cells are the store reads its report made; a wrong
            # document fails them all.
            cells = max(unit["cells_read"], 1)
            self.attempted += cells
            if not unit["document_ok"] or unit["cells_simulated"]:
                self.notes.append(
                    f"unit {unit['id']}: report differs from REPRODUCTION.md "
                    f"or simulated {unit['cells_simulated']} cell(s)"
                )
                self.failed += cells

    # -- metrics ------------------------------------------------------

    def cells_per_unit(self) -> int:
        if self.workload == "report-warm":
            return len(self.report_setup["store_cells"])
        return len(self.units[0][1]["cells"])

    def end_to_end(self) -> dict[str, float | None]:
        plain = [unit for traced, unit in self.units if not traced]
        per_unit = [metrics.unit_end_to_end(unit) for unit in plain]
        values = {
            name: metrics.median(m[name] for m in per_unit)
            for name in metrics.END_TO_END
            if name != "setup_s"
        }
        setup = metrics.median(unit["setup_s"] for unit in plain)
        if self.report_setup is not None:
            setup += self.report_setup["setup_s"]
        return {"setup_s": setup, **values}

    def per_layer(self) -> dict[str, float | None]:
        workers = 1 if self.workload == "report-warm" else grids.JOBS
        cells = self.cells_per_unit()
        per_unit = [
            metrics.unit_layers(
                tracing.read_spans(self.spans, unit["id"]), unit, workers, cells
            )
            for traced, unit in self.units
            if traced
        ]
        values = {
            name: metrics.median(m.get(name) for m in per_unit)
            for name in metrics.PER_LAYER
        }
        plain = metrics.median(u["wall_s"] for t, u in self.units if not t)
        traced = metrics.median(u["wall_s"] for t, u in self.units if t)
        values["tracing.overhead_frac"] = traced / plain - 1
        return values


def report(run: Run, values: dict[str, float | None], units: dict[str, str],
           reported: tuple[str, ...]) -> dict:
    """Print every metric that applies with its unit; return the JSON
    result, which holds the *reported* metrics."""
    plain = sum(1 for traced, _ in run.units if not traced)
    print(
        f"perfbench {run.workload} seed={run.seed} seconds={run.seconds:g} "
        f"trace={int(run.trace)}: {plain} plain unit(s), "
        f"{len(run.units) - plain} traced unit(s)"
    )
    for line in metrics.metric_lines(values, units, run.cells_per_unit()):
        print(f"  {line}")
    frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_frac':<34s} {frac:.6g} ({run.failed}/{run.attempted} cells)")
    for note in run.notes:
        print(f"  check: {note}")
    return metrics.result_object(values, units, reported, run.attempted, run.failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=grids.WORKLOADS)
    parser.add_argument("--seed", type=int, default=grids.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/repro", "REPRODUCTION.md") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a checkout of the program: no {', '.join(missing)} "
              f"under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.setup()
        run.measure()
        run.check()
        if args.trace:
            result = report(run, run.per_layer(), metrics.PER_LAYER,
                            metrics.REPORTED["per_layer"])
        else:
            result = report(run, run.end_to_end(), metrics.END_TO_END,
                            metrics.REPORTED["end_to_end"])
    except metrics.MissingMetric as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
