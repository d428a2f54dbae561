import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chmv.algebra import enumerate_elements, leq_elem, make_algebra, make_element
from chmv.chain import ChainSize, LINF
from chmv.duality import apply_hom, compose_homs, enumerate_continuous_homs, make_hom
from chmv.multiset import EMultiset, INF, make_profile, profile_of
from chmv.structure import (
    StructureError,
    injective_in_EM,
    is_extremally_disconnected,
    is_hyperarchimedean,
    is_projective,
    is_stone,
    is_surjective_hom,
    lift,
    separate,
    urysohn_strauss_holds,
)
from chmv.duality import H_obj


def test_hyperarchimedean():
    assert is_hyperarchimedean(make_profile({2: INF}))
    assert not is_hyperarchimedean(make_profile({INF: INF}))
    assert is_hyperarchimedean(make_profile({INF: 2, 3: INF}))


def test_stone():
    assert is_stone(make_profile({1: 5, 4: INF}))
    assert not is_stone(make_profile({INF: 1}))
    assert is_stone(make_profile({}))


def test_projective():
    assert is_projective(make_profile({1: 1, 5: INF}))
    assert not is_projective(make_profile({2: INF}))
    assert is_projective(make_profile({1: INF}))


def test_projective_matches_hom_existence():
    # the finite witness behind the profile claim {2: omega} -> not projective
    l2 = make_algebra([("t", ChainSize(2))])
    l3 = make_algebra([("x", ChainSize(3))])
    assert len(list(enumerate_continuous_homs(l3, l2))) == 0
    l2xl3 = make_algebra([("x", ChainSize(2)), ("y", ChainSize(3))])
    assert len(list(enumerate_continuous_homs(l2xl3, l2))) > 0


def test_extremally_disconnected():
    assert is_extremally_disconnected(make_profile({2: 3}))
    assert not is_extremally_disconnected(make_profile({2: INF}))
    assert not is_extremally_disconnected(make_profile({INF: 1}))
    assert not is_extremally_disconnected(make_profile({1: INF}))  # the Cantor space


def test_urysohn_strauss():
    assert urysohn_strauss_holds(make_profile({1: 4}))
    assert not urysohn_strauss_holds(make_profile({2: 1}))
    assert urysohn_strauss_holds(make_profile({1: INF}))


def test_implication_chain():
    cases = itertools.product([None, 1, 3, INF], repeat=3)
    for c1, c2, cinf in cases:
        entries = {
            m: c for m, c in ((1, c1), (2, c2), (INF, cinf)) if c is not None
        }
        P = make_profile(entries)
        if is_extremally_disconnected(P):
            assert is_stone(P)
        if is_stone(P):
            assert is_hyperarchimedean(P)


def test_separate():
    A = make_algebra([("a", ChainSize(2)), ("b", ChainSize(2))])
    f = make_element(A, [1, 1])
    g = make_element(A, [1, 0])
    h = separate(f, g)
    assert apply_hom(h, f).coords == (Fraction(1),)
    assert apply_hom(h, g).coords == (Fraction(0),)
    assert h.target.labels == ("b",)


def test_separate_f_below_g():
    A = make_algebra([("a", ChainSize(2))])
    f = make_element(A, [1])
    with pytest.raises(StructureError):
        separate(f, f)


def test_separate_requires_boolean():
    A = make_algebra([("a", ChainSize(3))])
    f = make_element(A, [1])
    g = make_element(A, [0])
    with pytest.raises(StructureError):
        separate(f, g)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_separate_property(k, data):
    A = make_algebra((f"x{i}", ChainSize(2)) for i in range(k))
    bits = st.tuples(*[st.sampled_from([0, 1])] * k)
    f = make_element(A, data.draw(bits))
    g = make_element(A, data.draw(bits))
    if leq_elem(f, g):
        with pytest.raises(StructureError):
            separate(f, g)
    else:
        h = separate(f, g)
        assert apply_hom(h, f).coords == (Fraction(1),)
        assert apply_hom(h, g).coords == (Fraction(0),)


def test_is_surjective_hom():
    L2xL3 = make_algebra([("a", ChainSize(2)), ("b", ChainSize(3))])
    L3 = make_algebra([("y", ChainSize(3))])
    onto = make_hom(L2xL3, L3, {"y": "b"})
    assert is_surjective_hom(onto)
    image = {apply_hom(onto, f) for f in enumerate_elements(L2xL3)}
    assert image == set(enumerate_elements(L3))

    L3a = make_algebra([("x", ChainSize(3))])
    L5 = make_algebra([("y", ChainSize(5))])
    inc = make_hom(L3a, L5, {"y": "x"})
    assert not is_surjective_hom(inc)
    assert len({apply_hom(inc, f) for f in enumerate_elements(L3a)}) == 3

    L2 = make_algebra([("x", ChainSize(2))])
    L2xL2 = make_algebra([("a", ChainSize(2)), ("b", ChainSize(2))])
    diag = make_hom(L2, L2xL2, {"a": "x", "b": "x"})
    assert not is_surjective_hom(diag)
    assert len({apply_hom(diag, f) for f in enumerate_elements(L2)}) == 2


def test_lift_example():
    A = make_algebra([("a1", ChainSize(2)), ("a2", ChainSize(3))])
    B = make_algebra([("y", ChainSize(3))])
    C = make_algebra([("c1", ChainSize(3)), ("c2", ChainSize(4))])
    psi = make_hom(C, B, {"y": "c1"})
    phi = make_hom(A, B, {"y": "a2"})
    lifted = lift(phi, psi, "a1")
    assert dict(lifted.index_map) == {"c1": "a2", "c2": "a1"}
    composed = compose_homs(psi, lifted)
    assert composed == phi
    for f in enumerate_elements(A):
        assert apply_hom(psi, apply_hom(lifted, f)) == apply_hom(phi, f)


def test_lift_of_self():
    A = make_algebra([("a1", ChainSize(2)), ("a2", ChainSize(3))])
    psi = make_hom(A, A, {"a1": "a1", "a2": "a2"})
    lifted = lift(psi, psi, "a1")
    for f in enumerate_elements(A):
        assert apply_hom(psi, apply_hom(lifted, f)) == apply_hom(psi, f)


def test_lift_requires_l2_factor():
    A = make_algebra([("a1", ChainSize(3)), ("a2", ChainSize(4))])
    B = make_algebra([("y", ChainSize(3))])
    psi = make_hom(A, B, {"y": "a1"})
    phi = make_hom(A, B, {"y": "a1"})
    with pytest.raises(StructureError):
        lift(phi, psi, "a2")


def test_lift_requires_surjection():
    A = make_algebra([("a1", ChainSize(2))])
    B = make_algebra([("y", ChainSize(5))])
    C = make_algebra([("c1", ChainSize(3))])
    psi = make_hom(C, B, {"y": "c1"})  # L3 included in L5, not onto
    phi = make_hom(A, B, {"y": "a1"})
    with pytest.raises(StructureError):
        lift(phi, psi, "a1")


def test_injective_in_EM():
    assert injective_in_EM(EMultiset((("a", 1), ("b", 7))))
    assert not injective_in_EM(EMultiset((("a", 2),)))
    assert not injective_in_EM(EMultiset(()))


def test_projective_iff_dual_injective():
    for factors in itertools.product([2, 3, None], repeat=2):
        A = make_algebra(
            (f"x{i}", LINF if n is None else ChainSize(n))
            for i, n in enumerate(factors)
        )
        X = H_obj(A)
        assert is_projective(profile_of(X)) == injective_in_EM(X)
