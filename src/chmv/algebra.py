"""Finite-index products of Lukasiewicz chains.

An algebra is an ordered list of labelled factors (on chain.LabelledPairs);
its elements are coordinate tuples.  Ideals of such products are support
ideals I_D.  The two brute-force oracles are two calls of one search over
Cayley tables (_table_maps: ideals as maps onto {0, 1}, homomorphisms as maps
into B); they read nothing else, and the verification suites compare what
they find with the shortcuts.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .chain import _ONE, _ZERO, MV_KERNELS, ChainSize, LabelledPairs, check_member, mv_op

DEFAULT_ENUM_BOUND = 10 ** 6
IDEAL_SCAN_LIMIT = 16


class AlgebraError(ValueError):
    """Base class for product-algebra errors."""


class DuplicateLabelError(AlgebraError):
    pass


class UnknownLabelError(AlgebraError):
    pass


class AlgebraMismatchError(AlgebraError):
    pass


class NotMaximalError(AlgebraError):
    pass


class EnumerationError(AlgebraError):
    """Enumeration impossible: infinite factor present or bound exceeded."""


@dataclass(frozen=True)
class ProductAlgebra(LabelledPairs):
    """A product of chains, one labelled factor per coordinate."""

    factors: tuple[tuple[str, ChainSize], ...]

    __hash__ = LabelledPairs.__hash__
    _pairs, _word, _error, _repeated = "factors", "factor", AlgebraError, DuplicateLabelError

    @staticmethod
    def _check(lbl: str, c: ChainSize) -> None:
        if not isinstance(c, ChainSize):
            raise AlgebraError(f"factor {lbl} must be a ChainSize, not {c!r}")

    @cached_property
    def positions(self) -> dict[str, int]:
        return {lbl: i for i, lbl in enumerate(self.labels)}

    @cached_property
    def size(self) -> int | None:
        """Number of elements, or None when an infinite factor is present."""
        total = 1
        for _, c in self.factors:
            if not c.is_finite:
                return None
            total *= c.n
        return total

    @property
    def all_finite(self) -> bool:
        return self.size is not None

    def chain(self, label: str) -> ChainSize:
        try:
            return self.factors[self.positions[label]][1]
        except KeyError:
            raise UnknownLabelError(f"no factor labelled {label!r}") from None


def make_algebra(spec: Iterable[tuple[str, ChainSize]]) -> ProductAlgebra:
    """Validate a (label, chain) list into an algebra; [] gives the one-element algebra."""
    return ProductAlgebra(spec)


@dataclass(frozen=True, slots=True)
class Element:
    """A coordinate tuple, aligned with the factor order of its algebra."""

    algebra: ProductAlgebra
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.algebra, ProductAlgebra):
            raise AlgebraError(f"algebra must be a ProductAlgebra, not {self.algebra!r}")
        _set_coords(self, tuple(self.coords))
        if len(self.coords) != len(self.algebra.factors):
            raise AlgebraError(
                f"expected {len(self.algebra.factors)} coordinates, got {len(self.coords)}"
            )
        for i, ((_, c), v) in enumerate(zip(self.algebra.factors, self.coords)):
            if type(v) is not Fraction:  # make_element converts other values
                raise AlgebraError(f"coordinate {i} must be a Fraction, not {v!r}")
            check_member(v, c)

    def coord(self, label: str) -> Fraction:
        pos = self.algebra.positions.get(label)
        if pos is None:
            raise UnknownLabelError(f"no factor labelled {label!r}")
        return self.coords[pos]

    def support(self) -> frozenset[str]:
        return frozenset(
            lbl for lbl, v in zip(self.algebra.labels, self.coords) if v != _ZERO
        )

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.coords) + ")"


# the slot setters, which skip the frozen class's __setattr__
_set_algebra, _set_coords = Element.algebra.__set__, Element.coords.__set__


def _trusted_element(A: ProductAlgebra, coords: tuple[Fraction, ...]) -> Element:
    """Build an Element without re-running the membership checks of __post_init__.

    Only for coordinates that lie in their chains by construction:
    0 and 1 belong to every chain (zero, unit, characteristic); chains are
    closed under the MV operations, so pointwise_op, and eval_term at the
    root of a term over validated bindings, need no check; enumerate_elements
    and sample_elements draw from each chain's own grid; apply_hom reads a
    coordinate of a chain included in the target chain.  Input from outside
    the package goes through Element or make_element, which validate.
    """
    e = object.__new__(Element)
    _set_algebra(e, A)
    _set_coords(e, coords)
    return e


def make_element(A: ProductAlgebra, coords: Iterable) -> Element:
    """An element of A; a Fraction coordinate is kept, any other must be a finite number."""
    out = []
    for i, v in enumerate(coords):
        try:
            out.append(v if type(v) is Fraction else Fraction(v))
        except (ValueError, OverflowError, ZeroDivisionError, TypeError):
            raise AlgebraError(f"coordinate {i} must be a finite number, not {v!r}") from None
    return Element(A, out)


def zero(A: ProductAlgebra) -> Element:
    return _trusted_element(A, (_ZERO,) * len(A.factors))


def unit(A: ProductAlgebra) -> Element:
    return _trusted_element(A, (_ONE,) * len(A.factors))


def characteristic(A: ProductAlgebra, S: Iterable[str]) -> Element:
    """The {0,1}-valued element equal to 1 exactly on S."""
    S = set(S)
    for lbl in S:
        if lbl not in A.positions:
            raise UnknownLabelError(f"no factor labelled {lbl!r}")
    return _trusted_element(A, tuple(_ONE if lbl in S else _ZERO for lbl in A.labels))


def _same_algebra(f: Element, g: Element) -> None:
    if f.algebra != g.algebra:
        raise AlgebraMismatchError("elements belong to different algebras")


def pointwise_op(kind: str, f: Element, g: Element | None = None) -> Element:
    """mv_op at each coordinate; results stay in the algebra by chain closure."""
    try:
        if kind == "neg":
            if g is not None:
                raise AlgebraError("neg takes a single operand")
            return _trusted_element(f.algebra, tuple(map(mv_op, itertools.repeat(kind), f.coords)))
        if kind not in MV_KERNELS:
            raise AlgebraError(f"unknown operation {kind!r}")
        if g is None:
            raise AlgebraError(f"{kind} needs two operands")
        _same_algebra(f, g)
        coords = map(mv_op, itertools.repeat(kind), f.coords, g.coords)
        return _trusted_element(f.algebra, tuple(coords))
    except AttributeError:
        bad = f if not isinstance(f, Element) else g
        raise AlgebraError(f"{kind} operand must be an Element, not {bad!r}") from None


def leq_elem(f: Element, g: Element) -> bool:
    """Pointwise order."""
    _same_algebra(f, g)
    return all(a <= b for a, b in zip(f.coords, g.coords))


def boolean_center_contains(f: Element) -> bool:
    """Idempotents of the truncated sum: every coordinate is 0 or 1."""
    return all(v == _ZERO or v == _ONE for v in f.coords)


def _enumerable_size(A: ProductAlgebra) -> int:
    """The size of A, or EnumerationError when it is infinite or above DEFAULT_ENUM_BOUND."""
    if not A.all_finite:
        raise EnumerationError("cannot enumerate an algebra with an infinite factor")
    if A.size > DEFAULT_ENUM_BOUND:
        raise EnumerationError(f"algebra has {A.size} elements, bound is {DEFAULT_ENUM_BOUND}")
    return A.size


def enumerate_elements(A: ProductAlgebra) -> Iterator[Element]:
    """Yield every element of an all-finite algebra exactly once."""
    _enumerable_size(A)
    ranges = [c.values() for _, c in A.factors]
    for coords in itertools.product(*ranges):
        yield _trusted_element(A, coords)


@dataclass(frozen=True)
class SupportIdeal:
    """The ideal I_D of elements vanishing outside the free coordinate set D."""

    algebra: ProductAlgebra
    free: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "free", frozenset(self.free))
        unknown = self.free - set(self.algebra.labels)
        if unknown:
            raise UnknownLabelError(f"labels {sorted(unknown)} not in the algebra")


def principal_ideal(a: Element) -> SupportIdeal:
    """The ideal generated by a.

    Each nonzero coordinate of a generates its whole simple factor under
    n-fold sums, so the ideal is supported exactly on supp(a).
    """
    return SupportIdeal(a.algebra, a.support())


def ideal_membership(f: Element, I: SupportIdeal) -> bool:
    if f.algebra != I.algebra:
        raise AlgebraMismatchError("element and ideal belong to different algebras")
    return all(v == _ZERO for lbl, v in zip(f.algebra.labels, f.coords) if lbl not in I.free)


def ideal_sup(I: SupportIdeal) -> Element:
    """Supremum of I_D: the characteristic element of D."""
    return characteristic(I.algebra, I.free)


def maximal_ideals(A: ProductAlgebra) -> list[SupportIdeal]:
    """The projection kernels, one per coordinate."""
    labels = set(A.labels)
    return [SupportIdeal(A, frozenset(labels - {x})) for x in A.labels]


@dataclass(frozen=True)
class Prop21Report:
    """The witnesses of the paper's principal-maximal-ideal statement (Proposition 2.1).

    For a maximal ideal M of a product of chains the proposition makes four
    conditions equivalent: M is principal; M is the kernel of a projection;
    M omits the direct-sum ideal; sup M lies in M and in the Boolean center.
    A maximal support ideal frees all coordinates but one, so all four hold by
    construction.  The report names M's generator and the point whose projection
    has kernel M; the ideal-oracle suite checks them against brute-force ideals.
    """

    generator: Element
    point: str


def prop21_report(M: SupportIdeal) -> Prop21Report:
    """The witnesses of Proposition 2.1 at a maximal ideal."""
    A = M.algebra
    missing = [x for x in A.labels if x not in M.free]
    if len(missing) != 1:
        raise NotMaximalError(
            f"ideal frees {len(M.free)} of {len(A.labels)} coordinates; not maximal"
        )
    return Prop21Report(generator=characteristic(A, M.free), point=missing[0])


# --- brute-force oracles -------------------------------------------------

@lru_cache(maxsize=256)
def _op_tables(
    A: ProductAlgebra,
) -> tuple[tuple[Element, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """A's elements with Cayley tables for truncated sum and negation, as indices.

    Element i of enumerate_elements(A) has the mixed-radix digits d_k of i,
    coordinate k being d_k / (n_k - 1).  So the sum of elements with digits
    a and b has index sum_k min(a_k + b_k, n_k - 1) * stride_k, the negation
    of element i is element n - 1 - i, and 0 is element 0.  Built once per
    algebra and read by _table_maps and both oracles, as tuples so that no
    caller can change the cached tables.
    """
    elems = tuple(enumerate_elements(A))
    radices = [c.n for _, c in A.factors]
    strides = [math.prod(radices[k + 1:]) for k in range(len(radices))]

    def sums_with(digits: tuple[int, ...]) -> tuple[int, ...]:
        """The indices of this element (+) each element, in enumeration order."""
        columns = [
            [min(a + b, r - 1) * s for b in range(r)]
            for a, r, s in zip(digits, radices, strides)
        ]
        return tuple(map(sum, itertools.product(*columns)))

    opl = tuple(map(sums_with, itertools.product(*map(range, radices))))
    return elems, opl, tuple(reversed(range(len(elems))))


def _table_maps(
    A: ProductAlgebra, table: tuple[tuple[int, ...], ...], zero: int, neg: tuple | None = None
) -> list[tuple[int, ...]]:
    """Every map h from A's element indices to the indices of table that solves
    h(0) = zero, h(x (+) y) = table[h(x)][h(y)] and, when neg is given,
    h(~x) = neg[h(x)].

    The search assigns the indices in enumeration order and tries the values
    in increasing order, so the maps come in itertools.product order.  Each
    equation is checked once, when the last of its indices is assigned.
    """
    elems, opl, neg_a = _op_tables(A)
    n, m = len(elems), len(table)
    # each equation as (op, x, y, z) for h(z) = op[h(x)][h(y)], filed under its last
    # index: x <= y, as (+) is commutative, and h(~y) = neg[h(y)] with op[a][b] = neg[b]
    eqs: list[list[tuple]] = [[] for _ in range(n)]
    for x, y in itertools.combinations_with_replacement(range(n), 2):
        eqs[max(y, opl[x][y])].append((table, x, y, opl[x][y]))
    for y in range(n) if neg is not None else ():
        eqs[max(y, neg_a[y])].append(((neg,) * m, y, y, neg_a[y]))
    h, maps = [zero] * n, []

    def search(i: int) -> None:
        if i == n:
            maps.append(tuple(h))
            return
        for h[i] in range(m) if i else (zero,):  # 0 is element 0
            for op, x, y, z in eqs[i]:
                if op[h[x]][h[y]] != h[z]:
                    break
            else:
                search(i + 1)

    search(0)
    del search  # it refers to itself: break the cycle, so the tables go when the call ends
    return maps


def brute_force_ideals(A: ProductAlgebra) -> list[frozenset[Element]]:
    """All ideals of a small all-finite algebra, one per map of _table_maps
    onto the meet table of {0, 1} with 0 sent to 1: the map is 1 on the ideal.

    A set I holding 0 is an ideal (closed downward and under (+)) exactly when
    x (+) y is in I iff x and y are: x and y lie below x (+) y, and y <= x in
    I gives x = y (+) (x (.) ~y).  The ideal-oracle suite checks what this
    finds against the support ideals I_D.
    """
    n = _enumerable_size(A)
    if n > IDEAL_SCAN_LIMIT:
        raise EnumerationError(f"{n} elements exceed the subset-scan limit {IDEAL_SCAN_LIMIT}")
    elems = _op_tables(A)[0]
    return [frozenset(itertools.compress(elems, h)) for h in _table_maps(A, ((0, 0), (0, 1)), 1)]


def ideal_elements(I: SupportIdeal) -> frozenset[Element]:
    """Materialize a support ideal of an all-finite algebra as an element set."""
    return frozenset(e for e in enumerate_elements(I.algebra) if ideal_membership(e, I))


def brute_force_homs(A: ProductAlgebra, B: ProductAlgebra) -> list[dict[Element, Element]]:
    """All MV-homomorphisms A -> B as full element tables.

    A map is a homomorphism when it preserves 0, negation, and the
    truncated sum: _table_maps with B's tables, in itertools.product order.
    Each table's keys come in enumerate_elements(A) order, so the hom-oracle
    suite reads a table's values as the images of A's elements in that order.
    """
    n, m = _enumerable_size(A), _enumerable_size(B)
    if m ** n > DEFAULT_ENUM_BOUND:
        raise EnumerationError(f"{m}^{n} candidate maps exceed the bound {DEFAULT_ENUM_BOUND}")
    ea = _op_tables(A)[0]
    eb, opl_b, neg_b = _op_tables(B)
    return [dict(zip(ea, map(eb.__getitem__, h))) for h in _table_maps(A, opl_b, 0, neg_b)]
