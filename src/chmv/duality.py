"""The duality between product algebras and extended multisets.

Continuous homomorphisms between products of chains are carried entirely
by index maps: a hom A -> B is a map from B's coordinates into A's with a
chain inclusion at every coordinate, acting by precomposition.  The two
functors exchange a multiset point of multiplicity s with a chain factor
of size s + 1; the unit and counit are the identity reindexings, and the
naturality squares are checked executably.  ContinuousHom builds on
multiset.LabelledMap, the map core it shares with EMMorphism.
"""

from __future__ import annotations

import operator
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import (
    AlgebraMismatchError,
    AlgebraError,
    Element,
    ProductAlgebra,
    _trusted_element,
)
from .chain import ChainSize, LINF, chain_subset
from .multiset import EMMorphism, EMultiset, INF, LabelledMap, _trusted_morphism, compose_morphisms

SAMPLE_MAX_DENOMINATOR = 6
# Bound of the F_obj, H_obj, eta and epsilon caches: a full selftest calls
# each of the four on 84 distinct objects.
FUNCTOR_CACHE_SIZE = 128


class HomError(AlgebraError):
    """Invalid continuous homomorphism or composition."""


@dataclass(frozen=True)
class ContinuousHom(LabelledMap):
    """A continuous homomorphism in index-map normal form.

    index_map sends each target coordinate y to a source coordinate x with
    the chain at x included in the chain at y; the hom acts on elements by
    f |-> f o index_map.  Its domain, in LabelledMap's sense, is the target.
    """

    source: ProductAlgebra
    target: ProductAlgebra
    index_map: tuple[tuple[str, str], ...]

    _sides = staticmethod(lambda source, target: (target, source))  # domain, codomain
    _pairs, _object, _error = "index_map", ProductAlgebra, HomError
    _total = "index map must be total on the target coordinates"
    _unknown = "index map hits unknown source coordinate {!r}"

    @staticmethod
    def _images(B: ProductAlgebra, A: ProductAlgebra, y: str) -> list[str]:
        cy = B.chain(y)
        return [x for x, cx in A.factors if chain_subset(cx, cy)]

    @staticmethod
    def _inadmissible(B: ProductAlgebra, A: ProductAlgebra, y: str, x: str) -> str:
        return f"{A.chain(x)} is not a subchain of {B.chain(y)}"

    @cached_property
    def image_getter(self):
        """apply_hom's reader of the image tuple: itemgetter (which makes tuples
        from 2 items on) at the source position of each target coordinate."""
        pos = [self.source.positions[x] for _, x in self.index_map]
        return operator.itemgetter(*pos) if len(pos) > 1 else lambda c: tuple([c[p] for p in pos])


_trusted_hom = ContinuousHom._trusted
identity_hom = ContinuousHom.identity
admissible_sources = ContinuousHom.choices
enumerate_continuous_homs = ContinuousHom.enumerate
continuous_hom_count = ContinuousHom.count


def make_hom(
    source: ProductAlgebra, target: ProductAlgebra, index_map: Mapping[str, str]
) -> ContinuousHom:
    return ContinuousHom(source, target, index_map.items())


def projection(A: ProductAlgebra, label: str) -> ContinuousHom:
    """The hom onto the one-factor algebra at a coordinate."""
    target = ProductAlgebra(((label, A.chain(label)),))
    return ContinuousHom(A, target, ((label, label),))


def apply_hom(h: ContinuousHom, f: Element) -> Element:
    try:
        if f.algebra is not h.source and f.algebra != h.source:
            raise AlgebraMismatchError("element does not belong to the hom's source")
        return _trusted_element(h.target, h.image_getter(f.coords))
    except AttributeError:
        if not isinstance(h, ContinuousHom):
            raise _not_a_hom(h) from None
        raise HomError(f"element must be an Element, not {f!r}") from None


def compose_homs(g: ContinuousHom, h: ContinuousHom) -> ContinuousHom:
    """h then g on elements; index maps compose the other way around."""
    if not (isinstance(g, ContinuousHom) and isinstance(h, ContinuousHom)):
        raise _not_a_hom(h if isinstance(g, ContinuousHom) else g)
    if h.target != g.source:
        raise HomError("target of the first hom differs from source of the second")
    h_map = dict(h.index_map)
    return _trusted_hom(h.source, g.target, tuple([(z, h_map[x]) for z, x in g.index_map]))


def _not_a_hom(value) -> HomError:
    return HomError(f"hom must be a ContinuousHom, not {value!r}")


# --- the two functors ------------------------------------------------------

@lru_cache(maxsize=FUNCTOR_CACHE_SIZE)
def F_obj(X: EMultiset) -> ProductAlgebra:
    """Multiset point of multiplicity s becomes a chain factor of size s + 1."""
    if not isinstance(X, EMultiset):
        raise HomError(f"multiset must be an EMultiset, not {X!r}")
    return ProductAlgebra._trusted(
        [(lbl, LINF if m == INF else ChainSize(m + 1)) for lbl, m in X.points])


def F_mor(phi: EMMorphism) -> ContinuousHom:
    """A multiset map X -> Y induces precomposition F(Y) -> F(X)."""
    return _trusted_hom(F_obj(phi.target), F_obj(phi.source), phi.mapping)


@lru_cache(maxsize=FUNCTOR_CACHE_SIZE)
def H_obj(A: ProductAlgebra) -> EMultiset:
    """A chain factor of size n becomes a point of multiplicity n - 1."""
    if not isinstance(A, ProductAlgebra):
        raise HomError(f"algebra must be a ProductAlgebra, not {A!r}")
    return EMultiset._trusted(
        [(lbl, INF if not c.is_finite else c.n - 1) for lbl, c in A.factors])


def H_mor(psi: ContinuousHom) -> EMMorphism:
    """A hom B -> A induces the point map H(A) -> H(B) carried by its index map."""
    return _trusted_morphism(H_obj(psi.target), H_obj(psi.source), psi.index_map)


@lru_cache(maxsize=FUNCTOR_CACHE_SIZE)
def eta(X: EMultiset) -> EMMorphism:
    """The unit X -> H(F(X)): each point goes to its own projection point."""
    return _trusted_morphism(X, H_obj(F_obj(X)), tuple((x, x) for x in X.labels))


@lru_cache(maxsize=FUNCTOR_CACHE_SIZE)
def epsilon(A: ProductAlgebra) -> ContinuousHom:
    """The counit A -> F(H(A)): the canonical coordinate bijection."""
    return _trusted_hom(A, F_obj(H_obj(A)), tuple((x, x) for x in A.labels))


# --- naturality checks -----------------------------------------------------

def check_naturality_eq1(phi: EMMorphism) -> bool:
    """Naturality of the unit of the duality between EM and CHMV: does
    H(F(phi)) after the unit equal the unit after phi, as point maps?"""
    lhs = compose_morphisms(H_mor(F_mor(phi)), eta(phi.source))
    rhs = compose_morphisms(eta(phi.target), phi)
    return lhs == rhs


def sample_elements(A: ProductAlgebra, count: int, seed: int) -> list[Element]:
    """Deterministic rational samples; infinite factors draw small denominators."""
    rng = random.Random(seed)
    grids = [c.values() if c.is_finite else None for _, c in A.factors]
    out = []
    for _ in range(count):
        coords = []
        for grid in grids:
            if grid is not None:
                coords.append(grid[rng.randrange(len(grid))])
            else:
                q = rng.randint(1, SAMPLE_MAX_DENOMINATOR)
                coords.append(Fraction(rng.randint(0, q), q))
        out.append(_trusted_element(A, tuple(coords)))
    return out


def check_naturality_eq2(psi: ContinuousHom) -> bool:
    """Naturality of the counit of the duality between EM and CHMV: does
    F(H(psi)) after the counit equal the counit after psi, on elements?

    Both sides act by precomposition with their index maps, so they agree on
    every element exactly when the index maps agree: where two maps send a
    target coordinate to different source coordinates i and j, the element
    that is 0 at i and 1 at j tells them apart (every chain holds 0 and 1,
    and the coordinates of a product vary independently)."""
    lhs = compose_homs(F_mor(H_mor(psi)), epsilon(psi.source))
    rhs = compose_homs(epsilon(psi.target), psi)
    return lhs == rhs

