"""Record the default-seed per-cell digests the benchmark checks against.

Usage: ``python3 perfbench/record.py`` from the root of a checkout.
Runs one unit of fig9-cold and of pool-small, and report-warm's cold
set-up, at :data:`grids.DEFAULT_SEED`, and writes their per-cell
``SimStats`` digests to ``expected.json``.  Re-record only when a change
is meant to alter simulated results.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, run_unit

import checks
import grids


def main() -> int:
    work = ROOT / ".perfbench-work" / "record"
    seed = grids.DEFAULT_SEED
    try:
        fig9 = run_unit("fig9-cold", seed, "record-fig9", work / "fig9")
        small = run_unit("pool-small", seed, "record-small", work / "small")
        report = run_unit("report-warm", seed, "record-report", work / "report",
                          mode="setup")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expected = {
        "seed": seed,
        "fig9-cold": fig9["cells"],
        "small": small["cells"],
        "report-warm": report["store_cells"],
    }
    checks.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, (fig9['cells'], small['cells'])))} grid cells "
          f"and {len(report['store_cells'])} report cells to {checks.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
