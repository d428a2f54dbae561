"""End-to-end acceptance gate: the ten verification suites at full scale.

Each suite of `verify.SUITES` runs as `run_all("full", seed=0)` runs it, within
its time budget; every check must pass and the suite must make the checks
recorded for seed 0, so a speed-up cannot come from checking less.
"""

import json
import time
from pathlib import Path

import pytest

from chmv import verify
from chmv.cli import EXIT_OK, main

RECORDED_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "selftest_checks.json"
RECORDED = json.loads(RECORDED_CHECKS.read_text())["full"]["0"]
BUDGET_S = {"suite_duality": 4, "suite_hom_oracle": 1, "suite_eta_epsilon": 1}  # others: 2 s


@pytest.mark.parametrize("fn_name", verify.SUITES)
def test_suite_passes_at_full_scale(fn_name):
    budget = BUDGET_S.get(fn_name, 2)
    start = time.monotonic()
    result = verify.run_suite(fn_name, "full", seed=0)
    elapsed = time.monotonic() - start
    print(f"{result.line()} [{elapsed:.1f}s]")
    assert result.ok, result.failures[:5]
    expected = RECORDED[result.name]
    assert result.checks == expected, f"{result.name} ran {result.checks} checks, expected {expected}"
    assert elapsed < budget, f"{result.name} took {elapsed:.1f}s, budget {budget}s"


def test_11_cli_full_selftest_makes_the_recorded_checks(capsys):
    """`chmv selftest --scale full` passes and its per-suite counts are the ones
    recorded for seed 0: the one tier-1 run of the full selftest through the CLI."""
    code = main(["--format", "json", "selftest", "--scale", "full"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and doc["payload"]["ok"] is True
    counts = {s["name"]: s["checks"] for s in doc["payload"]["suites"]}
    assert counts == RECORDED
