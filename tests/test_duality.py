from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chmv import algebra, duality, verify
from chmv.algebra import (
    AlgebraMismatchError,
    enumerate_elements,
    make_algebra,
    make_element,
)
from chmv.chain import ChainSize, LINF
from chmv.duality import (
    F_mor,
    F_obj,
    H_mor,
    H_obj,
    HomError,
    apply_hom,
    check_naturality_eq1,
    check_naturality_eq2,
    compose_homs,
    continuous_hom_count,
    enumerate_continuous_homs,
    epsilon,
    eta,
    identity_hom,
    make_hom,
    projection,
    sample_elements,
)
from chmv.multiset import (
    EMMorphism,
    EMultiset,
    identity_morphism,
    INF,
)

L3xL2 = make_algebra([("a", ChainSize(3)), ("b", ChainSize(2))])


def test_hom_requires_chain_inclusion():
    L2 = make_algebra([("x", ChainSize(2))])
    L3 = make_algebra([("y", ChainSize(3))])
    with pytest.raises(HomError):
        make_hom(L3, L2, {"x": "y"})


def test_apply_projection():
    p = projection(L3xL2, "a")
    f = make_element(L3xL2, [Fraction(1, 2), 1])
    assert apply_hom(p, f).coords == (Fraction(1, 2),)


def test_apply_identity():
    h = identity_hom(L3xL2)
    for f in enumerate_elements(L3xL2):
        assert apply_hom(h, f) == f


def test_apply_inclusion():
    L3 = make_algebra([("x", ChainSize(3))])
    L5 = make_algebra([("y", ChainSize(5))])
    inc = make_hom(L3, L5, {"y": "x"})
    assert apply_hom(inc, make_element(L3, [Fraction(1, 2)])).coords == (Fraction(1, 2),)


def test_apply_onto_no_factor_and_one_factor_gives_tuples():
    empty = make_algebra([])
    f = make_element(L3xL2, [Fraction(1, 2), 1])
    to_empty = make_hom(L3xL2, empty, {})
    assert type(apply_hom(to_empty, f).coords) is tuple
    assert apply_hom(to_empty, f).coords == ()
    assert apply_hom(to_empty, f).algebra == empty
    for label, value in (("a", Fraction(1, 2)), ("b", Fraction(1))):
        image = apply_hom(projection(L3xL2, label), f)
        assert type(image.coords) is tuple
        assert image.coords == (value,)


FAMILY = verify.algebra_family((2, 3, 4, None))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FAMILY), st.sampled_from(FAMILY), st.data())
def test_apply_hom_reads_the_source_positions(A, B, data):
    homs = list(enumerate_continuous_homs(A, B))
    if not homs:
        return
    h = data.draw(st.sampled_from(homs))
    for f in sample_elements(A, count=5, seed=data.draw(st.integers(0, 2 ** 16))):
        image = apply_hom(h, f)
        assert type(image.coords) is tuple
        assert image.coords == tuple(f.coords[h.source.positions[x]] for _, x in h.index_map)
        assert image.algebra is B


def test_apply_wrong_algebra():
    p = projection(L3xL2, "a")
    other = make_algebra([("a", ChainSize(3))])
    with pytest.raises(AlgebraMismatchError):
        apply_hom(p, make_element(other, [0]))


def test_compose_homs_agrees_on_elements():
    L3 = make_algebra([("x", ChainSize(3))])
    g = make_hom(L3xL2, L3, {"x": "a"})
    h = identity_hom(L3xL2)
    composed = compose_homs(g, h)
    for f in enumerate_elements(L3xL2):
        assert apply_hom(composed, f) == apply_hom(g, apply_hom(h, f))


def test_compose_boundary_mismatch():
    L3 = make_algebra([("x", ChainSize(3))])
    g = make_hom(L3xL2, L3, {"x": "a"})
    with pytest.raises(
        HomError, match="^target of the first hom differs from source of the second$"
    ):
        compose_homs(g, g)


def test_enumerate_continuous_homs_counts():
    L2 = make_algebra([("x", ChainSize(2))])
    L2xL2 = make_algebra([("a", ChainSize(2)), ("b", ChainSize(2))])
    assert len(list(enumerate_continuous_homs(L2xL2, L2))) == 2
    L3 = make_algebra([("x", ChainSize(3))])
    assert len(list(enumerate_continuous_homs(L3, L2))) == 0
    L5xLinf = make_algebra([("u", ChainSize(5)), ("v", LINF)])
    assert len(list(enumerate_continuous_homs(L3, L5xLinf))) == 1
    assert continuous_hom_count(L3, L5xLinf) == 1


def test_F_obj():
    X = EMultiset((("a", 1), ("b", 3)))
    assert F_obj(X).factors == (("a", ChainSize(2)), ("b", ChainSize(4)))
    assert F_obj(EMultiset(())).factors == ()
    assert F_obj(EMultiset((("a", INF),))).factors == (("a", LINF),)


def test_H_obj():
    A = make_algebra([("x1", ChainSize(3)), ("x2", LINF)])
    assert H_obj(A).points == (("x1", 2), ("x2", INF))
    assert H_obj(make_algebra([("x", ChainSize(2))])).points == (("x", 1),)
    assert H_obj(make_algebra([])).points == ()


def test_F_mor_identity_and_collapse():
    X = EMultiset((("a", 2),))
    assert F_mor(identity_morphism(X)) == identity_hom(F_obj(X))
    Y = EMultiset((("b", 1),))
    phi = EMMorphism(X, Y, (("a", "b"),))
    h = F_mor(phi)  # the constant-reindex hom L2 -> L3
    assert h.source == F_obj(Y) and h.target == F_obj(X)
    for f in enumerate_elements(F_obj(Y)):
        assert apply_hom(h, f).coords == f.coords


def test_F_contravariant_on_composition():
    X = EMultiset((("a", 4),))
    Y = EMultiset((("b", 2),))
    Z = EMultiset((("c", 1),))
    phi = EMMorphism(X, Y, (("a", "b"),))
    psi = EMMorphism(Y, Z, (("b", "c"),))
    from chmv.multiset import compose_morphisms

    lhs = F_mor(compose_morphisms(psi, phi))
    rhs = compose_homs(F_mor(phi), F_mor(psi))
    assert lhs == rhs
    for f in enumerate_elements(F_obj(Z)):
        assert apply_hom(lhs, f) == apply_hom(rhs, f)


def test_H_mor():
    p = projection(L3xL2, "a")
    m = H_mor(p)
    assert dict(m.mapping) == {"a": "a"}
    assert m.source == H_obj(p.target) and m.target == H_obj(p.source)
    assert H_mor(identity_hom(L3xL2)) == identity_morphism(H_obj(L3xL2))


def test_eta_roundtrip():
    X = EMultiset((("a", 1), ("b", 2)))
    e = eta(X)
    e_map = dict(e.mapping)
    assert set(e_map.values()) == set(e.target.labels)
    assert all(e.target.mults[e_map[x]] == X.mults[x] for x in X.labels)
    inverse = EMMorphism(e.target, X, tuple((y, y) for y in e.target.labels))
    from chmv.multiset import compose_morphisms

    assert compose_morphisms(inverse, e) == identity_morphism(X)
    assert eta(EMultiset(())).mapping == ()


def test_epsilon_exhaustive():
    eps = epsilon(L3xL2)
    for f in enumerate_elements(L3xL2):
        g = apply_hom(eps, f)
        for x in L3xL2.labels:
            assert g.coord(x) == f.coord(x)
    L2 = make_algebra([("x", ChainSize(2))])
    assert epsilon(L2).index_map == (("x", "x"),)


def test_epsilon_sampled_on_interval_factor():
    A = make_algebra([("u", LINF), ("v", ChainSize(2))])
    eps = epsilon(A)
    for f in sample_elements(A, 100, seed=0):
        g = apply_hom(eps, f)
        for x in A.labels:
            assert g.coord(x) == f.coord(x)


def test_naturality_eq1():
    X = EMultiset((("a", 2),))
    Y = EMultiset((("b", 1),))
    phi = EMMorphism(X, Y, (("a", "b"),))
    assert check_naturality_eq1(identity_morphism(X))
    assert check_naturality_eq1(phi)


def test_naturality_eq2():
    assert check_naturality_eq2(identity_hom(L3xL2))
    L3 = make_algebra([("x", ChainSize(3))])
    h = make_hom(L3xL2, L3, {"x": "a"})
    assert check_naturality_eq2(h)
    A = make_algebra([("u", LINF)])
    inc = make_hom(A, A, {"u": "u"})
    assert check_naturality_eq2(inc)


def test_naturality_eq2_draws_no_elements(monkeypatch):
    def _raise(*args, **kwargs):
        raise AssertionError("elements drawn")

    monkeypatch.setattr(duality, "sample_elements", _raise)
    monkeypatch.setattr(algebra, "enumerate_elements", _raise)
    L3 = make_algebra([("x", ChainSize(3))])
    A = make_algebra([("u", LINF)])
    assert check_naturality_eq2(identity_hom(L3xL2))
    assert check_naturality_eq2(make_hom(L3xL2, L3, {"x": "a"}))
    assert check_naturality_eq2(make_hom(A, A, {"u": "u"}))


def _swap_first_two_targets(F_mor):
    """F_mor with the sources of its first two target coordinates exchanged."""

    def broken(phi):
        h = F_mor(phi)
        (y1, x1), (y2, x2), *rest = h.index_map
        return duality._trusted_hom(h.source, h.target, ((y1, x2), (y2, x1), *rest))

    return broken


@pytest.mark.parametrize(
    "source", [L3xL2, make_algebra([("u", LINF), ("v", ChainSize(2))])]
)
def test_naturality_eq2_catches_a_broken_F_mor(monkeypatch, source):
    monkeypatch.setattr(duality, "F_mor", _swap_first_two_targets(duality.F_mor))
    assert not check_naturality_eq2(identity_hom(source))


def test_hom_oracle_agreement_example():
    from chmv.algebra import brute_force_homs

    L3 = make_algebra([("x", ChainSize(3))])
    elems = list(enumerate_elements(L3xL2))
    tables = brute_force_homs(L3xL2, L3)
    assert all(list(t) == elems for t in tables)  # the keys come in enumeration order
    brute = {tuple(t.values()) for t in tables}
    induced = {tuple(apply_hom(h, f) for f in elems) for h in enumerate_continuous_homs(L3xL2, L3)}
    assert len(brute) == 2 and brute == induced


def test_sample_elements_deterministic():
    A = make_algebra([("u", LINF), ("v", ChainSize(4))])
    assert sample_elements(A, 10, seed=7) == sample_elements(A, 10, seed=7)
    assert sample_elements(A, 10, seed=7) != sample_elements(A, 10, seed=8)
