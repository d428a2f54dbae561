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
    make_profile,
    morphism_count,
    profile_of,
)


def test_multiplicity_zero_rejected():
    with pytest.raises(MultisetError):
        EMultiset((("a", 0),))


@pytest.mark.parametrize(
    "points, message",
    [
        ((("a b", 2),), "point label must be a label, not 'a b'"),
        (((1, 2),), "point label must be a label, not 1"),
        ((("a", 1), ("", INF)), "point label must be a label, not ''"),
    ],
)
def test_labels_the_dsl_cannot_read_back_rejected(points, message):
    with pytest.raises(MultisetError) as info:
        EMultiset(points)
    assert str(info.value) == message


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
    X = EMultiset((("a", 4),))
    Y = EMultiset((("b", 2),))
    phi = EMMorphism(X, Y, (("a", "b"),))
    assert dict(phi.mapping) == {"a": "b"}


def test_validate_morphism_infinite_source_unconstrained():
    X = EMultiset((("a", INF),))
    Y = EMultiset((("b", 3),))
    EMMorphism(X, Y, (("a", "b"),))


def test_validate_morphism_divisibility_violation():
    X = EMultiset((("a", 4),))
    Y = EMultiset((("b", 3),))
    with pytest.raises(MorphismError):
        EMMorphism(X, Y, (("a", "b"),))


def test_validate_morphism_infinite_target_of_finite_source():
    X = EMultiset((("a", 4),))
    Y = EMultiset((("b", INF),))
    with pytest.raises(MorphismError):
        EMMorphism(X, Y, (("a", "b"),))


def test_validate_morphism_must_be_total():
    X = EMultiset((("a", 2), ("b", 2)))
    Y = EMultiset((("c", 1),))
    with pytest.raises(MorphismError):
        EMMorphism(X, Y, (("a", "c"),))


def test_identity_validates():
    for X in (EMultiset(()), EMultiset((("a", 5), ("b", INF)))):
        assert dict(identity_morphism(X).mapping) == {x: x for x in X.labels}


def test_compose():
    X = EMultiset((("a", 4),))
    Y = EMultiset((("b", 2),))
    Z = EMultiset((("c", 1),))
    phi = EMMorphism(X, Y, (("a", "b"),))
    psi = EMMorphism(Y, Z, (("b", "c"),))
    assert dict(compose_morphisms(psi, phi).mapping) == {"a": "c"}
    assert compose_morphisms(identity_morphism(Y), phi) == phi


def test_compose_boundary_mismatch():
    X = EMultiset((("a", 4),))
    Y = EMultiset((("b", 2),))
    W = EMultiset((("b", 4),))
    phi = EMMorphism(X, Y, (("a", "b"),))
    other = EMMorphism(W, Y, (("b", "b"),))
    with pytest.raises(
        MorphismError, match="^target of the first map differs from source of the second$"
    ):
        compose_morphisms(phi, other)


def test_enumerate_morphisms_counts():
    X = EMultiset((("a", 2),))
    Y = EMultiset((("b", 1), ("c", 2)))
    assert len(list(enumerate_morphisms(X, Y))) == 2 == morphism_count(X, Y)
    assert morphism_count(EMultiset((("a", 1),)), EMultiset((("b", 2),))) == 0
    assert morphism_count(EMultiset((("a", 1),)), EMultiset((("b", 1),))) == 1


def test_enumerate_matches_product_formula():
    X = EMultiset((("a", 6), ("b", INF)))
    Y = EMultiset((("u", 2), ("v", 3), ("w", INF)))
    assert len(list(enumerate_morphisms(X, Y))) == morphism_count(X, Y) == 2 * 3


def test_profile_of():
    X = EMultiset((("a", 1), ("b", 2), ("c", 2)))
    assert dict(profile_of(X).entries) == {1: 1, 2: 2}
    assert dict(profile_of(EMultiset(())).entries) == {}
    assert dict(profile_of(EMultiset((("a", INF),))).entries) == {INF: 1}


def test_is_isomorphic():
    """Equal profiles are exactly isomorphic multisets."""
    assert make_profile({1: 1, 2: 2}) == make_profile({2: 2, 1: 1})
    assert make_profile({2: INF}) != make_profile({2: 1})
    assert make_profile({INF: 1}) != make_profile({1: 1})


labels = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=2), unique=True, max_size=5
)
mults = st.one_of(st.integers(min_value=1, max_value=9), st.just(INF))


@given(labels, st.data())
def test_profile_invariant_under_relabeling(names, data):
    ms_mults = [data.draw(mults) for _ in names]
    X = EMultiset(tuple(zip(names, ms_mults)))
    renamed = EMultiset(tuple((f"r_{n}", m) for n, m in zip(names, ms_mults)))
    assert profile_of(X) == profile_of(renamed)

