"""End-to-end acceptance gate: the ten verification suites at full scale.

Each test runs one suite with its documented parameters and time budget,
asserts every check passed and the suite's check count at seed 0 (so a
speed-up cannot come from checking less), and prints a single PASS/FAIL line.
"""

import json
import time
from pathlib import Path

from chmv import verify
from chmv.cli import EXIT_OK, main

RECORDED_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "selftest_checks.json"


def _run(suite_fn, budget_seconds, checks, **kwargs):
    start = time.monotonic()
    result = suite_fn(**kwargs)
    elapsed = time.monotonic() - start
    print(f"{result.line()} [{elapsed:.1f}s]")
    assert result.ok, result.failures[:5]
    assert result.checks == checks, f"{result.name} ran {result.checks} checks, expected {checks}"
    assert elapsed < budget_seconds, (
        f"{result.name} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    return result


def test_01_mv_axioms_exhaustive_and_sampled():
    r = _run(verify.suite_mv_axioms, 2, 10311, max_n=7, rational_pairs=1000, seed=0)
    assert r.checks >= 1000


def test_02_ideal_oracle_and_principality_report():
    _run(verify.suite_ideals, 2, 98, max_factors=3)


def test_03_hom_oracle_agreement():
    _run(verify.suite_hom_oracle, 1, 134, bound=10 ** 6)


def test_04_duality_counts_functor_laws_naturality():
    _run(verify.suite_duality, 4, 67370)


def test_05_unit_and_counit_isomorphisms():
    _run(verify.suite_eta_epsilon, 1, 420, seed=0)


def test_06_surjectivity_criterion():
    _run(verify.suite_surjectivity, 2, 179, sizes=(2, 3, 4, 6))


def test_07_lifting_through_surjections():
    _run(verify.suite_lifting, 2, 191, instances=100, seed=0)


def test_08_separation_of_boolean_elements():
    _run(verify.suite_separation, 2, 346, max_points=4)


def test_09_predicate_implications_over_profiles():
    _run(verify.suite_predicates, 2, 603)


def test_10_dsl_round_trip_and_tautologies():
    r = _run(verify.suite_dsl, 2, 655, max_size=36)
    assert r.checks >= 50


def test_11_cli_full_selftest_makes_the_recorded_checks(capsys):
    """`chmv selftest --scale full` runs the suites with their own defaults, which the
    tests above pass as copies: its per-suite counts are the ones recorded for seed 0."""
    code = main(["--format", "json", "selftest", "--scale", "full"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and doc["payload"]["ok"] is True
    counts = {s["name"]: s["checks"] for s in doc["payload"]["suites"]}
    assert counts == json.loads(RECORDED_CHECKS.read_text())["full"]["0"]
