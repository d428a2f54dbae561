"""Failure records of the verification suites.

A check describes its inputs only when it fails, so these tests make checks
fail on purpose and read back the records they leave.
"""

import string

import pytest

from chmv import algebra, duality, dsl, structure, verify
from chmv.multiset import EMMorphism


def test_a_passing_check_never_builds_its_message():
    class Undescribable:
        def __format__(self, spec):
            raise AssertionError("input described for a passing check")

    rec = verify.SuiteResult("recorder")
    rec.check(True, "the passing one at {}", Undescribable())
    rec.check(False, "the failing one at {} in {}", 3, dsl.parse_algebra("[a: L2]"))
    assert rec.checks == 2
    assert rec.failures == ["the failing one at 3 in [a: L2]"]


@pytest.mark.parametrize("fn_name", verify.SUITES)
def test_every_check_describes_its_inputs_when_it_fails(monkeypatch, fn_name):
    expected_checks = verify.run_suite(fn_name, "small").checks
    check = verify.SuiteResult.check

    def failed(rec, ok, claim, *inputs):  # a template takes exactly its inputs
        fields = [name for _, name, _, _ in string.Formatter().parse(claim) if name is not None]
        assert len(fields) == len(inputs), claim
        check(rec, False, claim, *inputs)

    monkeypatch.setattr(verify.SuiteResult, "check", failed)
    result = verify.run_suite(fn_name, "small")
    assert result.checks == len(result.failures) == expected_checks


def test_counit_failure_names_its_morphism_and_both_multisets(monkeypatch):
    expected_checks = verify.run_suite("suite_duality", "small").checks
    X = dsl.parse_multiset("{a:2, b:2}")
    Y = dsl.parse_multiset("{a:1, b:2}")
    broken = duality.F_mor(EMMorphism(X, Y, (("a", "b"), ("b", "a"))))
    original = duality.check_naturality_eq2
    monkeypatch.setattr(
        duality, "check_naturality_eq2", lambda psi: psi != broken and original(psi)
    )
    result = verify.run_suite("suite_duality", "small")
    assert result.checks == expected_checks
    assert result.failures == [
        "counit naturality at {'a': 'b', 'b': 'a'} : {a:2, b:2} -> {a:1, b:2}"
    ]


@pytest.mark.parametrize("fault", ["dropped hom", "wrong image"])
def test_hom_oracle_failure_names_its_pair_and_both_counts(monkeypatch, fault):
    expected_checks = verify.run_suite("suite_hom_oracle", "small").checks
    A, B = dsl.parse_algebra("L2 * L3"), dsl.parse_algebra("L3")
    if fault == "dropped hom":  # the index maps miss one of the two homs
        enumerate_homs = duality.enumerate_continuous_homs

        def fewer_homs(S, T):
            homs = list(enumerate_homs(S, T))
            return homs[1:] if (S, T) == (A, B) else homs

        monkeypatch.setattr(duality, "enumerate_continuous_homs", fewer_homs)
        induced = 1
    else:  # one hom sends A's unit to B's zero, so its table is no hom's
        wrong, apply = next(duality.enumerate_continuous_homs(A, B)), duality.apply_hom
        monkeypatch.setattr(
            duality, "apply_hom",
            lambda h, f: algebra.zero(B) if h == wrong and f == algebra.unit(A) else apply(h, f),
        )
        induced = 2
    result = verify.run_suite("suite_hom_oracle", "small")
    assert result.checks == expected_checks
    assert result.failures == [f"homs L2 * L3 -> L3: oracle 2 vs index maps {induced}"]


@pytest.mark.parametrize("flip", [False, True])
def test_surjectivity_failure_names_its_hom_and_both_algebras(monkeypatch, flip):
    C = dsl.parse_algebra("[x1: L2, x2: L3]")
    B = dsl.parse_algebra("[x1: L3]")
    wrong = duality.make_hom(C, B, {"x1": "x2" if flip else "x1"})
    original = structure.is_surjective_hom
    monkeypatch.setattr(
        structure, "is_surjective_hom", lambda h: original(h) != (h == wrong)
    )
    result = verify.run_suite("suite_surjectivity", "small")
    target = "x2" if flip else "x1"
    assert result.failures == [f"surjectivity of {{'x1': '{target}'}} : L2 * L3 -> L3"]


def test_run_all_looks_up_each_suite_when_it_runs(monkeypatch):
    stub = verify.SuiteResult("stub", 1)
    calls = []

    def suite_stub(**kwargs):
        calls.append(kwargs)
        return stub

    monkeypatch.setattr(verify, "suite_lifting", suite_stub)
    results = verify.run_all("small", seed=3)
    assert calls == [{**verify.SUITES["suite_lifting"][1], "seed": 3}]
    assert results[list(verify.SUITES).index("suite_lifting")] is stub


def test_run_all_rejects_an_unknown_scale(monkeypatch):
    monkeypatch.setattr(verify, "suite_mv_axioms", lambda **kwargs: pytest.fail("suite ran"))
    with pytest.raises(ValueError, match="'small' or 'full'"):
        verify.run_all("smal")
