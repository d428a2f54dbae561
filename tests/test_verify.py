"""Failure records of the verification suites.

A check builds its message only when it fails, so these tests make one
check fail on purpose and read back the record it leaves.
"""

import pytest

from chmv import duality, dsl, structure, verify
from chmv.multiset import EMMorphism, INF


def test_a_passing_check_never_builds_its_message():
    def unbuildable() -> str:
        raise AssertionError("message built for a passing check")

    rec = verify.SuiteResult("recorder")
    rec.check(True, unbuildable)
    rec.check(False, lambda: "the failing one")
    assert rec.checks == 2
    assert rec.failures == ["the failing one"]


def test_counit_failure_names_its_morphism_and_both_multisets(monkeypatch):
    expected_checks = verify.suite_duality(mults=(1, 2, INF), max_points=2).checks
    X = dsl.parse_multiset("{a:2, b:2}")
    Y = dsl.parse_multiset("{a:1, b:2}")
    broken = duality.F_mor(EMMorphism(X, Y, (("a", "b"), ("b", "a"))))
    original = duality.check_naturality_eq2
    monkeypatch.setattr(
        duality, "check_naturality_eq2", lambda psi: psi != broken and original(psi)
    )
    result = verify.suite_duality(mults=(1, 2, INF), max_points=2)
    assert result.checks == expected_checks
    assert result.failures == [
        "counit naturality at {'a': 'b', 'b': 'a'} : {a:2, b:2} -> {a:1, b:2}"
    ]


@pytest.mark.parametrize("flip", [False, True])
def test_surjectivity_failure_names_its_hom_and_both_algebras(monkeypatch, flip):
    C = dsl.parse_algebra("[x1: L2, x2: L3]")
    B = dsl.parse_algebra("[x1: L3]")
    wrong = duality.make_hom(C, B, {"x1": "x2" if flip else "x1"})
    original = structure.is_surjective_hom
    monkeypatch.setattr(
        structure, "is_surjective_hom", lambda h: original(h) != (h == wrong)
    )
    result = verify.suite_surjectivity(sizes=(2, 3))
    target = "x2" if flip else "x1"
    assert result.failures == [f"surjectivity of {{'x1': '{target}'}} : L2 * L3 -> L3"]
