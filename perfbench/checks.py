"""Output checks: per-cell SimStats digests and the report document.

A cell passes when its stats digest equals the reference's under the
same label.  References are the digests recorded in ``expected.json``
at the default seed, the other units of the same run (every unit at one
seed must agree), and, for the small grids, the other dispatch path
(pool-small and service-small run the same cells).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Mapping

EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Report lines that name the store directory, which differs per run.
STORE_LINE = "- store: "


def stats_digest(stats: Mapping, store_root: str | None = None) -> str:
    """Digest of one ``SimStats.to_dict()`` rendering.

    The schema version is left out: it names the serialization, not the
    simulated result.  Phase cells name their workload after a capture
    file under the store, so *store_root* is replaced by a placeholder
    in string fields: the digest must not depend on where the store is.
    """
    body = {
        key: value.replace(store_root, "<store>")
        if store_root and isinstance(value, str)
        else value
        for key, value in stats.items()
        if key != "schema"
    }
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def failed_cells(
    actual: Mapping[str, str | None], expected: Mapping[str, str | None]
) -> set[str]:
    """Labels that are missing, failed (``None``), extra or different."""
    labels = set(actual) | set(expected)
    return {
        label
        for label in labels
        if actual.get(label) is None or actual.get(label) != expected.get(label)
    }


def failed_multiset(actual: list[str], expected: list[str]) -> int:
    """Cells of an unlabelled digest list that do not match the reference
    (the larger side of the two multiset differences)."""
    have, want = Counter(actual), Counter(expected)
    return max(sum((have - want).values()), sum((want - have).values()))


def same_document(document: str, reference: str) -> bool:
    """Whether a rendered report equals the committed one, store line aside."""

    def body(text: str) -> list[str]:
        return [line for line in text.splitlines() if not line.startswith(STORE_LINE)]

    return body(document) == body(reference)


def load_expected() -> dict:
    """The digests ``record.py`` recorded at the default seed."""
    return json.loads(EXPECTED.read_text(encoding="utf-8"))
