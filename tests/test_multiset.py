import pytest
from hypothesis import given, strategies as st

from chmv.multiset import (
    EMMorphism,
    EMultiset,
    INF,
    MorphismError,
    MultisetError,
    compose_morphisms,
    enumerate_morphisms,
    identity_morphism,
    is_isomorphic,
    make_multiset,
    make_profile,
    morphism_count,
    profile_of,
    validate_morphism,
)


def test_multiplicity_zero_rejected():
    with pytest.raises(MultisetError):
        make_multiset([("a", 0)])


def test_bool_multiplicity_rejected():
    for flag in (True, False):
        with pytest.raises(MultisetError):
            EMultiset((("a", flag),))


def test_bool_cardinality_rejected():
    with pytest.raises(MultisetError):
        make_profile({1: True})
    with pytest.raises(MultisetError):
        make_profile({True: 2})


def test_validate_morphism_divisor():
    X = make_multiset([("a", 4)])
    Y = make_multiset([("b", 2)])
    phi = validate_morphism(X, Y, {"a": "b"})
    assert phi("a") == "b"


def test_validate_morphism_infinite_source_unconstrained():
    X = make_multiset([("a", INF)])
    Y = make_multiset([("b", 3)])
    validate_morphism(X, Y, {"a": "b"})


def test_validate_morphism_divisibility_violation():
    X = make_multiset([("a", 4)])
    Y = make_multiset([("b", 3)])
    with pytest.raises(MorphismError):
        validate_morphism(X, Y, {"a": "b"})


def test_validate_morphism_infinite_target_of_finite_source():
    X = make_multiset([("a", 4)])
    Y = make_multiset([("b", INF)])
    with pytest.raises(MorphismError):
        validate_morphism(X, Y, {"a": "b"})


def test_validate_morphism_must_be_total():
    X = make_multiset([("a", 2), ("b", 2)])
    Y = make_multiset([("c", 1)])
    with pytest.raises(MorphismError):
        validate_morphism(X, Y, {"a": "c"})


def test_identity_validates():
    for X in (make_multiset([]), make_multiset([("a", 5), ("b", INF)])):
        assert identity_morphism(X).map == {x: x for x in X.labels}


def test_compose():
    X = make_multiset([("a", 4)])
    Y = make_multiset([("b", 2)])
    Z = make_multiset([("c", 1)])
    phi = validate_morphism(X, Y, {"a": "b"})
    psi = validate_morphism(Y, Z, {"b": "c"})
    assert compose_morphisms(psi, phi).map == {"a": "c"}
    assert compose_morphisms(identity_morphism(Y), phi) == phi


def test_compose_boundary_mismatch():
    X = make_multiset([("a", 4)])
    Y = make_multiset([("b", 2)])
    W = make_multiset([("b", 4)])
    phi = validate_morphism(X, Y, {"a": "b"})
    other = validate_morphism(W, Y, {"b": "b"})
    with pytest.raises(MorphismError):
        compose_morphisms(phi, other)


def test_enumerate_morphisms_counts():
    X = make_multiset([("a", 2)])
    Y = make_multiset([("b", 1), ("c", 2)])
    assert len(list(enumerate_morphisms(X, Y))) == 2 == morphism_count(X, Y)
    assert morphism_count(make_multiset([("a", 1)]), make_multiset([("b", 2)])) == 0
    assert morphism_count(make_multiset([("a", 1)]), make_multiset([("b", 1)])) == 1


def test_enumerate_matches_product_formula():
    X = make_multiset([("a", 6), ("b", INF)])
    Y = make_multiset([("u", 2), ("v", 3), ("w", INF)])
    assert len(list(enumerate_morphisms(X, Y))) == morphism_count(X, Y) == 2 * 3


def test_profile_of():
    X = make_multiset([("a", 1), ("b", 2), ("c", 2)])
    assert profile_of(X).table == {1: 1, 2: 2}
    assert profile_of(make_multiset([])).table == {}
    assert profile_of(make_multiset([("a", INF)])).table == {INF: 1}


def test_is_isomorphic():
    assert is_isomorphic(make_profile({1: 1, 2: 2}), make_profile({2: 2, 1: 1}))
    assert not is_isomorphic(make_profile({2: INF}), make_profile({2: 1}))
    assert not is_isomorphic(make_profile({INF: 1}), make_profile({1: 1}))


labels = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=2), unique=True, max_size=5
)
mults = st.one_of(st.integers(min_value=1, max_value=9), st.just(INF))


@given(labels, st.data())
def test_profile_invariant_under_relabeling(names, data):
    ms_mults = [data.draw(mults) for _ in names]
    X = make_multiset(list(zip(names, ms_mults)))
    renamed = make_multiset([(f"r_{n}", m) for n, m in zip(names, ms_mults)])
    assert is_isomorphic(profile_of(X), profile_of(renamed))

