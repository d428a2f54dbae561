"""Finite-index products of Lukasiewicz chains.

An algebra is an ordered list of labelled factors (on chain.LabelledPairs);
its elements are coordinate tuples.  Ideals of such products are support
ideals I_D.  Two brute-force oracles (subset scan for ideals, filtered map
enumeration for homomorphisms) only search, and read nothing but their Cayley
tables; the verification suites compare what they find with the shortcuts.
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
    """An element of A; a coordinate that is already a Fraction is kept as it is."""
    return Element(A, (v if type(v) is Fraction else Fraction(v) for v in coords))


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
    return all(
        v == _ZERO for lbl, v in zip(f.algebra.labels, f.coords) if lbl not in I.free
    )


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
    algebra and shared by both oracles, as tuples so that no caller can
    change the cached tables.
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


def _union_table(sets: list[int]) -> list[int]:
    """For each bitmask over the given sets, the union of the sets it selects."""
    table = [0] * (1 << len(sets))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | sets[low.bit_length() - 1]
    return table


def brute_force_ideals(A: ProductAlgebra) -> list[frozenset[Element]]:
    """All ideals of a small all-finite algebra, found by scanning subsets.

    An ideal is a subset containing 0, downward closed, and closed under
    the truncated sum.  The oracle visits every one of the 2^n subsets;
    its down-closure test is two table lookups per subset.  It only
    scans: the ideal-oracle suite checks that what it finds equals the
    set of support ideals I_D.
    """
    n = _enumerable_size(A)
    if n > IDEAL_SCAN_LIMIT:
        raise EnumerationError(f"{n} elements exceed the subset-scan limit {IDEAL_SCAN_LIMIT}")
    elems, opl, neg = _op_tables(A)
    # bitmask of the elements below each element: j <= i exactly when
    # ~j (+) i is 1, which is element n - 1 (each element is below itself)
    down = [sum(1 << j for j in range(n) if opl[neg[j]][i] == n - 1) for i in range(n)]
    # a subset is down-closed exactly when the union of its members' down
    # sets is the subset itself; tabulate that union for every subset of the
    # low and of the high half of the indices
    half = n // 2
    lo_mask = (1 << half) - 1
    lo, hi = _union_table(down[:half]), _union_table(down[half:])
    found = []
    for mask in range(1 << n):
        if not mask & 1:  # 0 is element 0
            continue
        if lo[mask & lo_mask] | hi[mask >> half] != mask:
            continue
        members = [i for i in range(n) if mask >> i & 1]
        if any(not mask >> opl[i][j] & 1 for i in members for j in members):
            continue
        found.append(frozenset(elems[i] for i in members))
    return found


def ideal_elements(I: SupportIdeal) -> frozenset[Element]:
    """Materialize a support ideal of an all-finite algebra as an element set."""
    return frozenset(
        e for e in enumerate_elements(I.algebra) if ideal_membership(e, I)
    )


def brute_force_homs(A: ProductAlgebra, B: ProductAlgebra) -> list[dict[Element, Element]]:
    """All MV-homomorphisms A -> B as full element tables.

    A map is a homomorphism when it preserves 0, negation, and the
    truncated sum; the search backtracks over images with the constraints
    checked as soon as all participating elements are assigned.
    """
    n, m = _enumerable_size(A), _enumerable_size(B)
    if m ** n > DEFAULT_ENUM_BOUND:
        raise EnumerationError(f"{m}^{n} candidate maps exceed the bound {DEFAULT_ENUM_BOUND}")
    ea, opl_a, neg_a = _op_tables(A)
    eb, opl_b, neg_b = _op_tables(B)
    # constraints that become checkable when index i is the last one assigned
    sum_with = [
        [(j, opl_a[i][j]) for j in range(i + 1) if opl_a[i][j] <= i] for i in range(n)
    ]
    sum_into = [
        [(p, q) for p in range(i) for q in range(p, i) if opl_a[p][q] == i]
        for i in range(n)
    ]
    h = [-1] * n
    homs: list[dict[Element, Element]] = []

    def admissible(i: int, v: int) -> bool:
        if i == 0 and v != 0:  # 0 is element 0 of both algebras
            return False
        k = neg_a[i]
        if k <= i and neg_b[v] != (v if k == i else h[k]):
            return False
        for j, k2 in sum_with[i]:
            if opl_b[v][v if j == i else h[j]] != (v if k2 == i else h[k2]):
                return False
        for p, q in sum_into[i]:
            if opl_b[h[p]][h[q]] != v:
                return False
        return True

    def search(i: int) -> None:
        if i == n:
            homs.append({ea[j]: eb[h[j]] for j in range(n)})
            return
        for v in range(m):
            if admissible(i, v):
                h[i] = v
                search(i + 1)
        h[i] = -1

    search(0)
    return homs
