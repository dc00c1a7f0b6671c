"""Resilience at the run_cells/CLI layer: deadlocks, jobs policy, strictness."""

from __future__ import annotations

import re

import pytest

from repro.experiments import cli
from repro.experiments.common import WorkloadPool, resolve_jobs, run_cells
from repro.machines import parse_machine
from repro.memory import DEFAULT_MEMORY
from repro.memory.configs import TABLE1_CONFIGS
from repro.resilience import (
    STRICT,
    CellExecutionError,
    ExecutionPolicy,
    FailureReport,
)
from repro.store import ResultStore


@pytest.fixture
def pool():
    return WorkloadPool()


@pytest.fixture
def config():
    return parse_machine("r10(rob=32)")


# ----------------------------------------------------------------------
# Deadlocks are permanent and name the offending cell
# ----------------------------------------------------------------------


def test_deadlocked_cell_fails_fast_naming_the_cell_spec(pool, config):
    # max_cycles=1 cannot commit anything: the run loop's deadlock guard
    # trips deterministically, which must never be retried.
    cells = [(config, "mcf", DEFAULT_MEMORY)]
    with pytest.raises(CellExecutionError) as excinfo:
        run_cells(cells, 600, pool, jobs=1, max_cycles=1)
    failure = excinfo.value.failure
    assert failure.kind == "permanent"
    assert failure.error == "DeadlockError"
    assert failure.attempts == 1  # no retries spent on a modelling bug
    # The error names the full machine × workload × memory cell spec.
    message = str(excinfo.value)
    assert "R10-32 × mcf × default" in message
    assert "no forward progress" in message


def test_deadlocked_cell_is_tolerated_under_a_budget(pool, config):
    cells = [(config, "mcf", DEFAULT_MEMORY), (config, "swim", DEFAULT_MEMORY)]
    report = FailureReport()
    tolerant = ExecutionPolicy(max_failures=None)
    flat = run_cells(
        cells, 600, pool, jobs=1, max_cycles=1, policy=tolerant, report=report
    )
    assert flat == [None, None]
    assert [f.error for f in report.failures] == ["DeadlockError"] * 2
    assert report.retries == 0


# ----------------------------------------------------------------------
# A failing cell fails alone: its siblings complete (and persist)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_deadlocking_cell_fails_alone_and_its_sibling_persists(
    tmp_path, pool, jobs
):
    r10 = parse_machine("r10")
    cells = [
        (r10, "mcf", TABLE1_CONFIGS["MEM-400"]),   # ~11k cycles at 600 insns
        (r10, "swim", TABLE1_CONFIGS["MEM-100"]),  # ~800 cycles
    ]
    store = ResultStore(tmp_path)
    report = FailureReport()
    got = run_cells(
        cells, 600, pool, jobs=jobs, store=store, max_cycles=3000,
        policy=ExecutionPolicy(retries=0, max_failures=1), report=report,
    )
    assert got[0] is None
    assert got[1] is not None and got[1].committed == 600
    (failure,) = report.failures
    assert failure.error == "DeadlockError"
    assert "mcf" in failure.cell
    assert store.writes == 1  # only the surviving sibling persisted


@pytest.mark.parametrize("jobs", [1, 2])
def test_unknown_benchmark_fails_alone(pool, config, jobs):
    cells = [
        (config, "swim", TABLE1_CONFIGS["MEM-100"]),
        (config, "no-such-benchmark", DEFAULT_MEMORY),
    ]
    report = FailureReport()
    got = run_cells(
        cells, 400, pool, jobs=jobs, store=None,
        policy=ExecutionPolicy(retries=0, max_failures=1), report=report,
    )
    assert got[0] is not None and got[0].committed == 400
    assert got[1] is None
    (failure,) = report.failures
    assert "no-such-benchmark" in failure.cell


# ----------------------------------------------------------------------
# resolve_jobs / REPRO_JOBS edge cases
# ----------------------------------------------------------------------


def test_resolve_jobs_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(2, 100) == 2


@pytest.mark.parametrize("env", ["0", "-4"])
def test_resolve_jobs_clamps_non_positive_env_to_one(monkeypatch, env):
    monkeypatch.setenv("REPRO_JOBS", env)
    assert resolve_jobs(None, 100) == 1


def test_resolve_jobs_huge_env_is_capped_by_task_count(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1000000")
    assert resolve_jobs(None, 3) == 3


def test_resolve_jobs_non_integer_env_is_a_clean_error(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "two")
    with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
        resolve_jobs(None, 100)


def test_resolve_jobs_zero_tasks_still_returns_one_worker():
    assert resolve_jobs(None, 0) == 1
    assert resolve_jobs(8, 0) == 1


# ----------------------------------------------------------------------
# Strict mode is bit-for-bit today's fail-fast path
# ----------------------------------------------------------------------


def test_explicit_strict_policy_matches_the_default_path(pool, config):
    cells = [(config, "mcf", DEFAULT_MEMORY), (config, "swim", DEFAULT_MEMORY)]
    plain = run_cells(cells, 400, pool, jobs=1)
    explicit = run_cells(
        cells, 400, pool, jobs=1,
        policy=ExecutionPolicy(max_failures=0), report=FailureReport(),
    )
    pooled = run_cells(cells, 400, pool, jobs=2, policy=STRICT)
    assert [s.to_dict() for s in plain] == [s.to_dict() for s in explicit]
    assert [s.to_dict() for s in plain] == [s.to_dict() for s in pooled]


def _mask_elapsed(out: str) -> str:
    """Blank the wall-clock field of table titles (``[scale=quick, 0.1s]``)."""
    return re.sub(r"\d+\.\d+s\]", "Xs]", out)


def test_cli_max_failures_zero_matches_the_flagless_run(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    argv = [
        "sweep", "--machines", "r10(rob=32)", "--workloads", "mcf",
        "--scale", "quick", "--instructions", "400", "--no-store",
    ]
    assert cli.main(argv) == 0
    flagless = capsys.readouterr().out
    assert cli.main(argv + ["--max-failures", "0"]) == 0
    strict = capsys.readouterr().out
    assert _mask_elapsed(strict) == _mask_elapsed(flagless)


# ----------------------------------------------------------------------
# CLI flag validation and the failure exit path
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--cell-timeout", "0"], "--cell-timeout must be positive"),
        (["--cell-timeout", "-2"], "--cell-timeout must be positive"),
        (["--retries", "-1"], "--retries must be >= 0"),
    ],
)
def test_cli_rejects_malformed_resilience_flags(capsys, flags, message):
    assert cli.main(["sweep", "--machines", "r10"] + flags) == 2
    assert message in capsys.readouterr().err


def test_cli_tolerant_sweep_reports_failures_and_exits_nonzero(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_FAULT", "cell:fail@mcf")
    failures_json = tmp_path / "failures.json"
    argv = [
        "sweep", "--machines", "r10(rob=32)", "--workloads", "mcf,swim",
        "--scale", "quick", "--instructions", "400", "--no-store",
        "--max-failures", "-1", "--failures-json", str(failures_json),
    ]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "n/a (failed: permanent)" in captured.out
    assert "cell failures: 1 of 2 cell(s) failed" in captured.err
    assert "InjectedFailure" in captured.err
    import json

    report = json.loads(failures_json.read_text())
    assert report["failed"] == 1 and report["completed"] == 1
    assert report["policy"]["max_failures"] is None
    (failure,) = report["failures"]
    assert "mcf" in failure["cell"] and failure["kind"] == "permanent"


def test_cli_strict_budget_aborts_the_sweep(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_FAULT", "cell:fail@mcf")
    argv = [
        "sweep", "--machines", "r10(rob=32)", "--workloads", "mcf,swim",
        "--scale", "quick", "--instructions", "400", "--no-store",
        "--max-failures", "0",
    ]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "aborted: cell" in err and "mcf" in err


# ----------------------------------------------------------------------
# Every harness runs its grid under the ambient policy
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize(
    ("experiment", "bench"),
    [
        ("fig1", "mcf"),
        ("fig3", "swim"),
        ("fig11", "mcf"),
        ("fig13", "mcf"),
        ("ablation-llib", "mcf"),
        ("ablation-predictor", "mcf"),
    ],
)
def test_cli_harness_renders_a_partial_grid_under_a_tolerant_policy(
    experiment, bench, tmp_path, capsys, monkeypatch
):
    """A failed benchmark's cells reach the failure report; the harness
    still renders from the surviving cells instead of crashing."""
    import json

    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_FAULT", f"cell:fail@{bench}")
    failures_json = tmp_path / "failures.json"
    argv = [
        experiment, "--scale", "quick", "--no-store",
        "--max-failures", "-1", "--failures-json", str(failures_json),
    ]
    assert cli.main(argv) != 0
    captured = capsys.readouterr()
    assert not re.search(r"^experiment .* failed", captured.err, re.MULTILINE)
    assert f"{experiment}:" in captured.out
    report = json.loads(failures_json.read_text())
    assert report["failed"] >= 1
    assert all(bench in failure["cell"] for failure in report["failures"])
