"""Classification predicates, separation, surjectivity, and lifting.

The predicates act on profiles so that algebras over infinite index sets
can be classified symbolically; concrete finite algebras route through
the profile of their dual multiset.  The lifting construction for
projective algebras is the deterministic one that sends every coordinate
missed by the surjection to a fixed two-element factor.
"""

from __future__ import annotations

from .algebra import Element, leq_elem
from .chain import _ONE, _ZERO, ChainSize
from .duality import ContinuousHom, HomError, projection
from .multiset import EMultiset, INF, Profile


class StructureError(ValueError):
    """Precondition failure in a structural construction."""


def is_hyperarchimedean(P: Profile) -> bool:
    """Finitely many interval factors; the finite-multiplicity fibers of a
    representable profile are always finitely many."""
    return P.cardinality(INF) != INF


def is_stone(P: Profile) -> bool:
    """No interval factor at all."""
    return P.cardinality(INF) == 0


def is_extremally_disconnected(P: Profile) -> bool:
    """The whole algebra is finite: finite multiplicities, finite fibers.

    The property of Gleason's theorem, read in the algebra's own topology:
    the product topology, with each Ln discrete and Linf the real interval
    [0, 1] (the code computes with its rational points).  Every closure of
    an open set must be open.
    - A finite algebra is a finite Hausdorff space, so discrete: True.
    - An interval factor is a connected subspace with more than one point,
      and an extremally disconnected Hausdorff space is totally
      disconnected: False.
    - Infinitely many finite factors: fixing all coordinates but the n-th
      gives a non-trivial convergent sequence, which an extremally
      disconnected compact Hausdorff space cannot have: False.
    Under the Stone-space reading (the Stone space of the Boolean center,
    beta X for the powerset algebra of an infinite X) the answer differs:
    {1: inf} would be extremally disconnected there.
    """
    return all(m != INF and c != INF for m, c in P.entries)


def urysohn_strauss_holds(P: Profile) -> bool:
    """Separation by homs into the interval works only for powerset algebras."""
    return all(m == 1 for m, _ in P.entries)


def is_projective(P: Profile) -> bool:
    """A two-element factor is present: projective relative to surjective homs.

    Not relative to all epis: the inclusion L2 -> L3 is one (a hom out of L3
    must send 1/2 to the x with x = ~x), and the projection L2 x L3 -> L3,
    which hits 1/2, does not lift through it."""
    return P.cardinality(1) != 0


def injective_in_EM(X: EMultiset) -> bool:
    """Some point has multiplicity 1: injective relative to embeddings.

    An embedding is an injective morphism that keeps multiplicities; maps
    extend along it by sending each new point to one of multiplicity 1.  Not
    relative to all injective morphisms: in I = {a:1, b:2}, f: p -> b from
    {p:2} has no extension along m: {p:2} -> {q:1}, as 2 does not divide 1."""
    return any(m == 1 for _, m in X.points)


def separate(f: Element, g: Element) -> ContinuousHom:
    """A projection sending f to 1 and g to 0, in a powerset algebra.

    Returns the least-index witness coordinate.
    """
    A = f.algebra
    if any(c != ChainSize(2) for _, c in A.factors):
        raise StructureError("separation requires a Boolean (all two-element) algebra")
    if leq_elem(f, g):
        raise StructureError("nothing to separate: f lies below g")
    for lbl, a, b in zip(A.labels, f.coords, g.coords):
        if a == _ONE and b == _ZERO:
            return projection(A, lbl)
    raise AssertionError("unreachable: f above g at some Boolean coordinate")


def is_surjective_hom(h: ContinuousHom) -> bool:
    """Surjective exactly when the index map is injective and chain-exact."""
    sources = [x for _, x in h.index_map]
    if len(set(sources)) != len(sources):
        return False
    return all(h.source.chain(x) == h.target.chain(y) for y, x in h.index_map)


def lift(phi: ContinuousHom, psi: ContinuousHom, s0: str) -> ContinuousHom:
    """Lift phi: A -> B along a surjective hom psi: C -> B using a two-element factor.

    The lifts are those of is_projective: along surjective homs, not along
    every epi.  The inclusion L2 -> L3 is an epi that is not surjective, and
    the projection L2 x L3 -> L3 does not lift through it; lift refuses it.
    Coordinates of C hit by psi's index map copy phi's assignment; every
    other coordinate reads the fixed factor s0 of A.
    """
    A, B, C = phi.source, phi.target, psi.source
    if psi.target != B:
        raise HomError("phi and psi must share their target algebra")
    if A.chain(s0) != ChainSize(2):
        raise StructureError(f"coordinate {s0!r} is not a two-element factor")
    if not is_surjective_hom(psi):
        raise StructureError("psi is not surjective")
    phi_map = dict(phi.index_map)
    hit = {x: phi_map[y] for y, x in psi.index_map}
    index_map = tuple((x, hit.get(x, s0)) for x in C.labels)
    return ContinuousHom(A, C, index_map)
