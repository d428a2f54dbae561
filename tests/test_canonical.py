"""The public constructors put their pairs in one canonical order.

A hom, a multiset map and a profile are functions, so the order in which
their pairs are given means nothing: every order builds the same value,
and == and hash are equality of the functions.
"""

import itertools

from hypothesis import assume, given, settings, strategies as st

from chmv.algebra import make_algebra
from chmv.chain import ChainSize, LINF
from chmv.duality import (
    ContinuousHom,
    F_mor,
    H_mor,
    enumerate_continuous_homs,
    make_hom,
)
from chmv.multiset import INF, EMMorphism, EMultiset, Profile, enumerate_morphisms, make_profile


def labelled(values, names):
    """Up to three values under a permutation of the names, so labels are not sorted."""
    return st.tuples(st.lists(values, max_size=3), st.permutations(names)).map(
        lambda t: tuple(zip(t[1], t[0]))
    )


chains = st.sampled_from([ChainSize(2), ChainSize(3), ChainSize(4), LINF])
algebras = labelled(chains, ["u", "v", "w"]).map(make_algebra)
multisets = labelled(st.sampled_from([1, 2, 3, 6, INF]), ["p", "q", "r"]).map(EMultiset)


@settings(max_examples=100, deadline=None)
@given(algebras, algebras, st.data())
def test_permuted_index_maps_build_the_canonical_hom(A, B, data):
    homs = list(itertools.islice(enumerate_continuous_homs(A, B), 50))
    assume(homs)
    h = data.draw(st.sampled_from(homs))
    pairs = tuple(data.draw(st.permutations(h.index_map)))
    built = ContinuousHom(A, B, pairs)
    canonical = make_hom(A, B, dict(pairs))
    assert built == canonical == h
    assert hash(built) == hash(canonical) == hash(h)
    assert [y for y, _ in built.index_map] == list(B.labels)
    assert H_mor(built) == H_mor(canonical)


@settings(max_examples=100, deadline=None)
@given(multisets, multisets, st.data())
def test_permuted_point_maps_build_the_canonical_morphism(X, Y, data):
    morphs = list(itertools.islice(enumerate_morphisms(X, Y), 50))
    assume(morphs)
    phi = data.draw(st.sampled_from(morphs))
    pairs = tuple(data.draw(st.permutations(phi.mapping)))
    built = EMMorphism(X, Y, pairs)
    images = dict(phi.mapping)
    canonical = EMMorphism(X, Y, tuple((x, images[x]) for x in X.labels))
    assert built == canonical == phi
    assert hash(built) == hash(canonical) == hash(phi)
    assert F_mor(built) == F_mor(canonical)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from([1, 2, 3, 4, 6, INF]), st.sampled_from([1, 2, 5, INF])),
    st.data(),
)
def test_permuted_profile_entries_build_the_canonical_profile(entries, data):
    pairs = tuple(data.draw(st.permutations(list(entries.items()))))
    built = Profile(pairs)
    canonical = make_profile(entries)
    assert built == canonical == make_profile(dict(pairs))
    assert hash(built) == hash(canonical)
    mults = [m for m, _ in built.entries]
    assert mults == sorted(mults)  # by multiplicity, INF last
