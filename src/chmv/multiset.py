"""Extended multisets and their divisibility-constrained morphisms.

A multiset is a finite labelled point set with multiplicities in the
positive integers extended by infinity.  A map of multisets must send a
point of finite multiplicity s to a point whose multiplicity is a finite
divisor of s; infinite multiplicities are unconstrained.  Profiles
summarize a multiset as a multiplicity -> cardinality table, which is the
invariant classifying product algebras up to isomorphism.  LabelledMap is
the map core that EMMorphism and duality.ContinuousHom share.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

from .chain import LabelledPairs

INF = float("inf")  # str(INF) == "inf", the DSL spelling, so multiplicities render with str

Mult = int | float  # positive int, or INF


class MultisetError(ValueError):
    """Base class for multiset errors."""


class MorphismError(MultisetError):
    """Invalid candidate morphism: non-total, or divisibility violated."""


def _check_mult(m: Mult, what: str = "multiplicity") -> None:
    if type(m) is float and m == INF:  # a Decimal infinity equals INF, but renders as "Infinity"
        return
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise MultisetError(f"{what} must be a positive integer or inf, got {m!r}")


def mult_divides(m: Mult, s: Mult) -> bool:
    """The morphism condition at one point: target multiplicity m against source s."""
    if s == INF:
        return True
    return m != INF and s % m == 0


@dataclass(frozen=True)
class EMultiset(LabelledPairs):
    """A finite labelled multiset with multiplicities in {1, 2, ...} or inf."""

    points: tuple[tuple[str, Mult], ...]

    __hash__ = LabelledPairs.__hash__
    _pairs, _word, _error, _repeated = "points", "point", MultisetError, MultisetError
    _check = staticmethod(lambda lbl, m: _check_mult(m))

    @cached_property
    def mults(self) -> dict[str, Mult]:
        return dict(self.points)


@dataclass(frozen=True)
class LabelledMap:
    """The core of EMMorphism and ContinuousHom: a total map between labels.

    A subclass declares the fields source, target and its pairs, which send
    each label of the domain (the source of a morphism, the target of a hom)
    to an admissible label of the codomain.  It names its pairs field, the
    class of its source and target (_object), its domain side (_sides), its
    error class and messages, and _images, the admissible images of one
    domain label, which both validation and the choice lists read.  The
    constructor lists the pairs in the order of the domain's labels, so ==
    and hash are equality of maps; copies and pickles rebuild through the
    constructor.
    """

    def __post_init__(self) -> None:
        for side in ("source", "target"):
            if not isinstance(obj := getattr(self, side), self._object):
                raise self._error(f"{side} must be of type {self._object.__name__}, not {obj!r}")
        dom, cod = self._sides(self.source, self.target)
        pairs = tuple(getattr(self, self._pairs))
        as_dict = dict(pairs)
        if set(as_dict) != set(dom.labels) or len(as_dict) != len(pairs):
            raise self._error(self._total)
        for d, c in pairs:
            if c not in self._images(dom, cod, d):
                if c not in cod.labels:
                    raise self._error(self._unknown.format(c))
                raise self._error(self._inadmissible(dom, cod, d, c))
        object.__setattr__(self, self._pairs, tuple((d, as_dict[d]) for d in dom.labels))

    def __reduce__(self):
        # cached properties (a hom's image_getter) stay out of the pickle
        return type(self), (self.source, self.target, getattr(self, self._pairs))

    @classmethod
    def _trusted(cls, source, target, pairs: tuple[tuple[str, str], ...]):
        """Build a map without re-running the checks of __post_init__.

        Only for pairs that list the domain labels in order, as __post_init__
        does, and are total and admissible by construction:
        - identity, eta and epsilon pair each label with one of equal
          multiplicity or chain;
        - enumerate keeps only admissible images;
        - compose_morphisms and compose_homs, since divisibility and chain
          inclusion are transitive;
        - F_mor and H_mor, where a morphism's divisibility m_y | m_x is
          exactly the hom's chain inclusion L(m_y + 1) <= L(m_x + 1).
        Input from outside the package goes through the class or make_hom,
        which validate.
        """
        m = object.__new__(cls)  # filled by one update: item stores leave a split, slower dict
        m.__dict__.update({"source": source, "target": target, cls._pairs: pairs})
        return m

    @classmethod
    def identity(cls, obj):
        return cls._trusted(obj, obj, tuple((x, x) for x in obj.labels))

    @classmethod
    def choices(cls, source, target) -> list[list[str]]:
        """For each domain label, in order, the codomain labels it may map to.

        The maps source -> target are exactly the picks of one entry per
        list, so the lists have three readers: count multiplies their
        lengths, enumerate builds a map per pick, and the CLI's homs command
        counts and lists the picks without building maps.
        """
        (dom, cod), images = cls._sides(source, target), cls._images
        return [images(dom, cod, d) for d in dom.labels]

    @classmethod
    def enumerate(cls, source, target) -> Iterator:
        """All maps source -> target: a map per pick from the lists of choices."""
        (dom, cod), images, build = cls._sides(source, target), cls._images, cls._trusted
        # the lists of choices(), built inline: a selftest enumerates tens of thousands of sets
        for picks in itertools.product(*[images(dom, cod, d) for d in dom.labels]):
            yield build(source, target, tuple(zip(dom.labels, picks)))

    @classmethod
    def count(cls, source, target) -> int:
        """Product of the per-label choice counts."""
        return math.prod(map(len, cls.choices(source, target)))


@dataclass(frozen=True)
class EMMorphism(LabelledMap):
    """A point map whose target multiplicities divide the finite source ones."""

    source: EMultiset
    target: EMultiset
    mapping: tuple[tuple[str, str], ...]

    _sides = staticmethod(lambda source, target: (source, target))  # domain, codomain
    _pairs, _object, _error = "mapping", EMultiset, MorphismError
    _total = "map must be total on the source points"
    _unknown = "image point {!r} not in the target"

    @staticmethod
    def _images(X: EMultiset, Y: EMultiset, x: str) -> list[str]:
        return [y for y, m in Y.points if mult_divides(m, X.mults[x])]

    @staticmethod
    def _inadmissible(X: EMultiset, Y: EMultiset, x: str, y: str) -> str:
        return f"multiplicity {Y.mults[y]} of {y!r} does not divide {X.mults[x]} of {x!r}"


_trusted_morphism = EMMorphism._trusted
identity_morphism = EMMorphism.identity
admissible_images = EMMorphism.choices
enumerate_morphisms = EMMorphism.enumerate
morphism_count = EMMorphism.count


def compose_morphisms(psi: EMMorphism, phi: EMMorphism) -> EMMorphism:
    """phi then psi; divisibility transits through the middle multiset."""
    if phi.target != psi.source:
        raise MorphismError("target of the first map differs from source of the second")
    psi_map = dict(psi.mapping)
    pairs = tuple([(x, psi_map[y]) for x, y in phi.mapping])  # a list: faster than a generator
    return _trusted_morphism(phi.source, psi.target, pairs)


@dataclass(frozen=True)
class Profile:
    """Fiber summary of a multiset: multiplicity -> cardinality (INF for an infinite fiber).

    The constructor lists the entries by increasing multiplicity, INF last,
    so equality of profiles is isomorphism of the underlying multisets, i.e.
    existence of a multiplicity-preserving bijection.
    """

    entries: tuple[tuple[Mult, Mult], ...]

    def __post_init__(self) -> None:
        entries = [(m, c) for m, c in self.entries]  # read once, as (mult, card) tuples
        mults = [m for m, _ in entries]
        if len(set(mults)) != len(mults):
            raise MultisetError("profile lists a multiplicity twice")
        for m, c in entries:
            _check_mult(m)
            _check_mult(c, "cardinality")
        ordered = tuple(sorted(entries, key=lambda mc: (mc[0] == INF, mc[0])))
        object.__setattr__(self, "entries", ordered)

    def cardinality(self, mult: Mult) -> Mult:
        """Fiber size at a multiplicity; 0 when absent."""
        return next((c for m, c in self.entries if m == mult), 0)


def make_profile(entries: Mapping[Mult, Mult]) -> Profile:
    return Profile(tuple(entries.items()))


def profile_of(X: EMultiset) -> Profile:
    return make_profile(Counter(m for _, m in X.points))

