"""Exact arithmetic in Lukasiewicz chains.

A chain is either the finite subalgebra L_n = {0, 1/(n-1), ..., 1} of the
unit interval (n >= 2) or the full rational unit interval, written Linf.
Chain elements are plain Fractions (always in lowest terms, so equality is
structural); check_member says whether a Fraction lies in a given chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    if v.numerator < 0 or v.numerator > v.denominator:
        raise OutOfRangeError(f"{v} is outside [0, 1]")
    if c.is_finite and (c.n - 1) % v.denominator:
        raise NotInChainError(f"{v} is not a multiple of 1/{c.n - 1}")


# The MV operations on Fractions: the one set of kernels behind mv_op, pointwise_op
# and eval_term.  They cross-multiply numerators and denominators, compare integers
# and build at most one Fraction, skipping the generic Fraction arithmetic; meet and
# join return an operand (the first on a tie), like min and max.  The values equal
# min(a+b, 1), max(a+b-1, 0), 1-a, min and max on every Fraction, even outside [0, 1].

def frac_oplus(a: Fraction, b: Fraction) -> Fraction:
    ad, bd = a.denominator, b.denominator
    n, d = a.numerator * bd + b.numerator * ad, ad * bd
    return _ONE if n >= d else Fraction(n, d)


def frac_neg(a: Fraction) -> Fraction:
    d = a.denominator
    return Fraction(d - a.numerator, d)


def frac_odot(a: Fraction, b: Fraction) -> Fraction:
    ad, bd = a.denominator, b.denominator
    d = ad * bd
    n = a.numerator * bd + b.numerator * ad - d
    return Fraction(n, d) if n > 0 else _ZERO


def frac_meet(a: Fraction, b: Fraction) -> Fraction:
    return a if a.numerator * b.denominator <= b.numerator * a.denominator else b


def frac_join(a: Fraction, b: Fraction) -> Fraction:
    return b if a.numerator * b.denominator < b.numerator * a.denominator else a


FRAC_OPS = {
    "oplus": frac_oplus,
    "odot": frac_odot,
    "meet": frac_meet,
    "join": frac_join,
}


def mv_op(kind: str, a: Fraction, b: Fraction | None = None) -> Fraction:
    """Apply one of the five MV operations.

    Every chain is closed under all five, so the result lies in each chain
    that holds the operands.
    """
    if kind == "neg":
        if b is not None:
            raise ChainError("neg takes a single operand")
        return frac_neg(a)
    if kind not in FRAC_OPS:
        raise ChainError(f"unknown operation {kind!r}")
    if b is None:
        raise ChainError(f"{kind} needs two operands")
    return FRAC_OPS[kind](a, b)


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
