"""Output checks: stats digests and the report document."""

from __future__ import annotations

import checks
from repro.sim.stats import SimStats


def _stats(**fields) -> dict:
    return SimStats(workload="synth", config="D-KIP-2048", committed=1000,
                    cycles=2345, **fields).to_dict()


def test_digest_check_rejects_one_perturbed_stat():
    reference = {"cell-a": checks.stats_digest(_stats()),
                 "cell-b": checks.stats_digest(_stats(l2_misses=7))}
    perturbed = _stats()
    perturbed["cycles"] += 1
    actual = dict(reference, **{"cell-a": checks.stats_digest(perturbed)})
    assert checks.failed_cells(reference, reference) == set()
    assert checks.failed_cells(actual, reference) == {"cell-a"}


def test_missing_and_failed_cells_fail():
    reference = {"a": "1", "b": "2"}
    assert checks.failed_cells({"a": "1"}, reference) == {"b"}
    assert checks.failed_cells({"a": "1", "b": None}, reference) == {"b"}
    assert checks.failed_cells({"a": "1", "b": "2", "c": "3"}, reference) == {"c"}


def test_digest_ignores_schema_and_store_location():
    stats = _stats()
    moved = dict(stats, schema=-1, workload="phases(file=/elsewhere/traces/x.trc.gz)")
    stats["workload"] = "phases(file=/store/traces/x.trc.gz)"
    assert checks.stats_digest(stats, "/store") == checks.stats_digest(moved, "/elsewhere")
    assert checks.stats_digest(stats) != checks.stats_digest(moved)


def test_failed_multiset_counts_unmatched_cells():
    assert checks.failed_multiset(["a", "a", "b"], ["a", "a", "b"]) == 0
    assert checks.failed_multiset(["a", "x", "b"], ["a", "a", "b"]) == 1
    assert checks.failed_multiset(["a"], ["a", "b", "c"]) == 2


def test_document_check_ignores_only_the_store_line():
    reference = "# R\n- store: `.repro-store`\n- cells: 462 cached\n"
    assert checks.same_document("# R\n- store: `/tmp/x`\n- cells: 462 cached\n", reference)
    assert not checks.same_document("# R\n- store: `/tmp/x`\n- cells: 461 cached\n", reference)


def test_recorded_digests_cover_every_workload():
    expected = checks.load_expected()
    assert expected["seed"] == 0
    assert len(expected["fig9-cold"]) == 104
    assert len(expected["small"]) == 112
    assert expected["report-warm"]
