"""Extended multisets and their divisibility-constrained morphisms.

A multiset is a finite labelled point set with multiplicities in the
positive integers extended by infinity.  A map of multisets must send a
point of finite multiplicity s to a point whose multiplicity is a finite
divisor of s; infinite multiplicities are unconstrained.  Profiles
summarize a multiset as a multiplicity -> cardinality table, which is the
invariant classifying product algebras up to isomorphism.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

INF = float("inf")  # str(INF) == "inf", the DSL spelling, so multiplicities render with str

Mult = int | float  # positive int, or INF


class MultisetError(ValueError):
    """Base class for multiset errors."""


class MorphismError(MultisetError):
    """Invalid candidate morphism: non-total, or divisibility violated."""


def _check_mult(m: Mult, what: str = "multiplicity") -> None:
    if m == INF:
        return
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise MultisetError(f"{what} must be a positive integer or inf, got {m!r}")


def mult_divides(m: Mult, s: Mult) -> bool:
    """The morphism condition at one point: target multiplicity m against source s."""
    if s == INF:
        return True
    return m != INF and s % m == 0


@dataclass(frozen=True)
class EMultiset:
    """A finite labelled multiset with multiplicities in {1, 2, ...} or inf."""

    points: tuple[tuple[str, Mult], ...]

    def __post_init__(self) -> None:
        labels = [lbl for lbl, _ in self.points]
        if len(set(labels)) != len(labels):
            raise MultisetError(f"duplicate point labels in {labels}")
        for _, m in self.points:
            _check_mult(m)
        object.__setattr__(self, "_hash", hash(self.points))

    def __hash__(self) -> int:
        """The hash stored at construction: functor-cache lookups skip the nested tuple."""
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: string hashes differ between processes
        return EMultiset, (self.points,)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.points)

    @cached_property
    def mults(self) -> dict[str, Mult]:
        return dict(self.points)


@dataclass(frozen=True)
class EMMorphism:
    """A point map whose target multiplicities divide the finite source ones.

    The constructor lists the pairs in the order of source.labels, so == and
    hash are equality of maps.
    """

    source: EMultiset
    target: EMultiset
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        as_dict = dict(self.mapping)
        if set(as_dict) != set(self.source.labels) or len(as_dict) != len(self.mapping):
            raise MorphismError("map must be total on the source points")
        for x, y in self.mapping:
            if y not in self.target.mults:
                raise MorphismError(f"image point {y!r} not in the target")
            if not mult_divides(self.target.mults[y], self.source.mults[x]):
                raise MorphismError(
                    f"multiplicity {self.target.mults[y]} of {y!r} does not divide "
                    f"{self.source.mults[x]} of {x!r}"
                )
        object.__setattr__(self, "mapping", tuple((x, as_dict[x]) for x in self.source.labels))


def _trusted_morphism(
    source: EMultiset, target: EMultiset, mapping: tuple[tuple[str, str], ...]
) -> EMMorphism:
    """Build an EMMorphism without re-running the checks of __post_init__.

    Only for maps that list the source labels in order, as __post_init__
    does, and are total and divisibility-respecting by construction:
    identities and the unit reindexing, which pair each point with one of
    equal multiplicity; enumerate_morphisms, which keeps only admissible
    images; compose_morphisms, since divisibility is transitive; and H_mor,
    where a hom's chain inclusion L(n) <= L(m) is exactly the divisibility
    (n - 1) | (m - 1).  Input from outside the package goes through
    EMMorphism, which validates.
    """
    phi = object.__new__(EMMorphism)
    phi.__dict__.update(source=source, target=target, mapping=mapping)
    return phi


def identity_morphism(X: EMultiset) -> EMMorphism:
    return _trusted_morphism(X, X, tuple((x, x) for x in X.labels))


def compose_morphisms(psi: EMMorphism, phi: EMMorphism) -> EMMorphism:
    """phi then psi; divisibility transits through the middle multiset."""
    if phi.target != psi.source:
        raise MorphismError("target of the first map differs from source of the second")
    psi_map = dict(psi.mapping)
    return _trusted_morphism(phi.source, psi.target, tuple((x, psi_map[y]) for x, y in phi.mapping))


def admissible_images(X: EMultiset, Y: EMultiset) -> list[list[str]]:
    """For each point of X, in order, the points of Y it may map to.

    The maps X -> Y are exactly the picks of one entry per list, so the
    lists have three readers: morphism_count multiplies their lengths,
    enumerate_morphisms builds a morphism per pick, and the CLI's homs
    command counts and lists the picks without building morphisms.
    """
    return [[y for y in Y.labels if mult_divides(Y.mults[y], X.mults[x])] for x in X.labels]


def enumerate_morphisms(X: EMultiset, Y: EMultiset) -> Iterator[EMMorphism]:
    """All morphisms X -> Y, one choice of admissible image per point."""
    for images in itertools.product(*admissible_images(X, Y)):
        yield _trusted_morphism(X, Y, tuple(zip(X.labels, images)))


def morphism_count(X: EMultiset, Y: EMultiset) -> int:
    """Product of per-point admissible-image counts."""
    return math.prod(map(len, admissible_images(X, Y)))


@dataclass(frozen=True)
class Profile:
    """Fiber summary of a multiset: multiplicity -> cardinality (INF for an infinite fiber).

    The constructor lists the entries by increasing multiplicity, INF last,
    so equality of profiles is isomorphism of the underlying multisets, i.e.
    existence of a multiplicity-preserving bijection.
    """

    entries: tuple[tuple[Mult, Mult], ...]

    def __post_init__(self) -> None:
        mults = [m for m, _ in self.entries]
        if len(set(mults)) != len(mults):
            raise MultisetError("profile lists a multiplicity twice")
        for m, c in self.entries:
            _check_mult(m)
            _check_mult(c, "cardinality")
        ordered = tuple(sorted(self.entries, key=lambda mc: (mc[0] == INF, mc[0])))
        object.__setattr__(self, "entries", ordered)

    def cardinality(self, mult: Mult) -> Mult:
        """Fiber size at a multiplicity; 0 when absent."""
        return next((c for m, c in self.entries if m == mult), 0)


def make_profile(entries: Mapping[Mult, Mult]) -> Profile:
    return Profile(tuple(entries.items()))


def profile_of(X: EMultiset) -> Profile:
    return make_profile(Counter(m for _, m in X.points))

