"""Exact arithmetic in Lukasiewicz chains.

A chain is either the finite subalgebra L_n = {0, 1/(n-1), ..., 1} of the
unit interval (n >= 2) or the full rational unit interval, written Linf.
Chain elements are plain Fractions (always in lowest terms, so equality is
structural); check_member says whether a Fraction lies in a given chain.
The MV operations run on integers: MV_KERNELS holds one kernel for each binary
operation, taking numerators over a common denominator to a numerator over it.
LabelledPairs is the constructor core that algebra.ProductAlgebra (labelled
chains) and multiset.EMultiset (labelled multiplicities) share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A label names a factor of an algebra, a point of a multiset or a variable of
# a term: the DSL reads each as one token, so every label prints and parses back.
_LABEL = r"[A-Za-z_][A-Za-z_0-9]*"
_is_label = re.compile(_LABEL).fullmatch


@dataclass(frozen=True)
class LabelledPairs:
    """The core of ProductAlgebra and EMultiset: (label, value) pairs, each label once.

    A subclass names its pairs field (_pairs), its word for a label (_word),
    the errors for a bad pair and a repeated label (_error, _repeated) and
    _check, which raises unless a value fits.  The pairs are stored as a
    tuple of (label, value) tuples, whatever iterables they came as, with
    their labels and their hash, which a subclass must take as its __hash__
    explicitly: a frozen dataclass writes its own.
    """

    def __post_init__(self) -> None:
        pairs, check = [], self._check
        for lbl, value in getattr(self, self._pairs):
            if type(lbl) is not str or not _is_label(lbl):
                raise self._error(f"{self._word} label must be a label, not {lbl!r}")
            check(lbl, value)
            pairs.append((lbl, value))
        self._store(pairs)

    def _store(self, pairs: list[tuple[str, object]]) -> None:
        labels = [lbl for lbl, _ in pairs]
        if len(set(labels)) != len(labels):
            raise self._repeated(f"duplicate {self._word} labels in {labels}")
        pairs = tuple(pairs)
        self.__dict__.update({self._pairs: pairs, "labels": tuple(labels), "_hash": hash(pairs)})

    @classmethod
    def _trusted(cls, pairs: list[tuple[str, object]]):
        """Build from a list of (label, value) tuples without checking each label and value.

        The repeated-label check stays: dsl._read catches its error to report
        the label at its position.  Only for labels and values that are valid
        by construction:
        - dsl._read reads each label as one token that starts with a letter
          or "_", which is a whole chain._LABEL, and each value through
          _chain or _mult, which build only a ChainSize or a multiplicity;
        - F_obj and H_obj read the labels of a valid object, and map its
          valid multiplicities m to L(m + 1) and its chains Ln to n - 1.
        Input from outside the package goes through the class, which validates.
        """
        obj = object.__new__(cls)
        obj._store(pairs)
        return obj

    def __hash__(self) -> int:  # stored: functor-cache lookups skip the nested tuple
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: string hashes differ between processes
        return type(self), (getattr(self, self._pairs),)


class ChainError(ValueError):
    """Base class for chain arithmetic errors."""


class OutOfRangeError(ChainError):
    """Value outside the unit interval."""


class NotInChainError(ChainError):
    """Value in [0,1] but not on the grid of a finite chain."""


@dataclass(frozen=True)
class ChainSize:
    """Size tag of a chain: L_n when n is an int >= 2, Linf when n is None."""

    n: int | None = None

    def __post_init__(self) -> None:
        if self.n is not None and (not isinstance(self.n, int) or self.n < 2):
            raise ChainError(f"chain size must be an integer >= 2, got {self.n!r}")

    @property
    def is_finite(self) -> bool:
        return self.n is not None

    def values(self) -> list[Fraction]:
        """All elements of a finite chain, in increasing order."""
        if self.n is None:
            raise ChainError("cannot enumerate the infinite chain")
        return [Fraction(k, self.n - 1) for k in range(self.n)]

    def __str__(self) -> str:
        return "Linf" if self.n is None else f"L{self.n}"


LINF = ChainSize(None)


def check_member(v: Fraction, c: ChainSize) -> None:
    """Raise unless v is an element of the chain c.

    A Fraction is in lowest terms with a positive denominator, so v lies in
    [0, 1] when 0 <= numerator <= denominator, and on the grid of L_n when
    its denominator divides n - 1.
    """
    try:
        if v.numerator < 0 or v.numerator > v.denominator:
            raise OutOfRangeError(f"{v} is outside [0, 1]")
        if c.is_finite and (c.n - 1) % v.denominator:
            raise NotInChainError(f"{v} is not a multiple of 1/{c.n - 1}")
    except AttributeError:
        if not isinstance(c, ChainSize):
            raise ChainError(f"chain must be a ChainSize, not {c!r}") from None
        raise ChainError(f"chain value must be a Fraction, not {v!r}") from None


# The one kernel table, behind mv_op, pointwise_op and eval_term.  A kernel maps the
# numerators a and b of two values over a common denominator d > 0 to the result's
# numerator over d, and negation is d - a; so on all rationals, even outside [0, 1],
# they are min(x+y, 1), max(x+y-1, 0), min, max (a on a tie) and min(1-x+y, 1).
MV_KERNELS = {
    "oplus": lambda a, b, d: a + b if a + b < d else d,
    "odot": lambda a, b, d: a + b - d if a + b > d else 0,
    "meet": lambda a, b, d: a if a <= b else b,
    "join": lambda a, b, d: b if a < b else a,
    "implies": lambda a, b, d: d - a + b if b < a else d,
}


def mv_op(kind: str, a: Fraction, b: Fraction | None = None) -> Fraction:
    """Negation, or a kernel of MV_KERNELS over the product of the denominators.

    A result equal to an operand is that operand (a first), so meet and join
    return what min and max return.  Every chain is closed under all the
    operations, so the result lies in each chain that holds the operands.
    """
    if kind == "neg":
        if b is not None:
            raise ChainError("neg takes a single operand")
        try:
            return Fraction(a.denominator - a.numerator, a.denominator)
        except AttributeError:
            raise _not_a_fraction(kind, a) from None
    kernel = MV_KERNELS.get(kind)
    if kernel is None:
        raise ChainError(f"unknown operation {kind!r}")
    if b is None:
        raise ChainError(f"{kind} needs two operands")
    try:
        ad, bd = a.denominator, b.denominator
        an, bn = a.numerator * bd, b.numerator * ad
    except AttributeError:
        raise _not_a_fraction(kind, a, b) from None
    r = kernel(an, bn, ad * bd)
    return a if r == an else b if r == bn else Fraction(r, ad * bd)


def _not_a_fraction(kind: str, *operands) -> ChainError:
    """mv_op's error for operands one of which has no numerator or denominator: it names it."""
    bad = next((v for v in operands
                if not (hasattr(v, "numerator") and hasattr(v, "denominator"))), operands[0])
    return ChainError(f"{kind} operand must be a Fraction, not {bad!r}")


def chain_subset(c1: ChainSize, c2: ChainSize) -> bool:
    """Whether every element of the chain c1 belongs to c2.

    L_n sits inside L_m exactly when (n-1) divides (m-1); every chain sits
    inside Linf; Linf sits in no finite chain.
    """
    if not c2.is_finite:
        return True
    if not c1.is_finite:
        return False
    return (c2.n - 1) % (c1.n - 1) == 0
