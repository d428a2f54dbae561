"""Record the per-suite check counts of `chmv selftest` for the benchmark's seeds.

The selftest-full workload compares every run's check counts with this
table, so a change that silently checks less is caught.  Regenerate it only
when a change deliberately alters a suite, and say so in CHANGES.md:

    python3 perfbench/record_selftest_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SELFTEST_SEEDS = 16
TABLE = HERE / "selftest_checks.json"


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from chmv import verify

    table: dict[str, dict[str, dict[str, int]]] = {"full": {}, "small": {}}
    for scale in ("small", "full"):
        for seed in range(SELFTEST_SEEDS):
            results = verify.run_all(scale, seed=seed)
            if not all(r.ok for r in results):
                raise SystemExit(f"selftest failed at scale {scale}, seed {seed}")
            table[scale][str(seed)] = {r.name: r.checks for r in results}
            print(scale, seed, sum(r.checks for r in results), flush=True)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
