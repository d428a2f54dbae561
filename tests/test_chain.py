import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chmv.chain import (
    ChainSize,
    ChainError,
    LINF,
    MV_KERNELS,
    NotInChainError,
    OutOfRangeError,
    chain_subset,
    check_member,
    mv_op,
)


def test_check_member_accepts_chain_elements():
    check_member(Fraction(1, 2), ChainSize(3))
    check_member(Fraction(2, 4), ChainSize(3))
    check_member(Fraction(5, 7), LINF)
    for n in range(2, 8):
        for v in ChainSize(n).values():
            check_member(v, ChainSize(n))


def test_check_member_off_grid():
    with pytest.raises(NotInChainError):
        check_member(Fraction(1, 3), ChainSize(3))


def test_check_member_out_of_range():
    with pytest.raises(OutOfRangeError):
        check_member(Fraction(3, 2), LINF)
    with pytest.raises(OutOfRangeError):
        check_member(Fraction(-1, 2), ChainSize(2))


def test_chain_size_requires_two_elements():
    with pytest.raises(ChainError):
        ChainSize(1)


def test_the_infinite_chain_lists_no_values():
    with pytest.raises(ChainError, match="^cannot enumerate the infinite chain$"):
        LINF.values()


def test_oplus_truncates():
    half = Fraction(1, 2)
    assert mv_op("oplus", half, half) == 1


def test_neg():
    assert mv_op("neg", Fraction(1, 4)) == Fraction(3, 4)


def test_odot():
    v = Fraction(2, 3)
    assert mv_op("odot", v, v) == Fraction(1, 3)


# any Fraction, also negative or above 1: mv_op hands its operands on unchecked
any_fractions = st.one_of(
    st.fractions(),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
)


@settings(max_examples=500)
@given(any_fractions, any_fractions)
def test_kernels_equal_their_definitions(a, b):
    one, zero = Fraction(1), Fraction(0)
    definitions = {
        "oplus": min(a + b, one),
        "odot": max(a + b - one, zero),
        "meet": min(a, b),
        "join": max(a, b),
        "implies": min(one - a + b, one),
    }
    assert set(MV_KERNELS) == set(definitions)
    # the integer kernels, on numerators over the lcm of the denominators
    d = math.lcm(a.denominator, b.denominator)
    an, bn = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    for kind, want in definitions.items():
        assert Fraction(MV_KERNELS[kind](an, bn, d), d) == want
    # mv_op on Fractions, through the same kernels
    for got, want in [*((mv_op(k, a, b), w) for k, w in definitions.items()),
                      (mv_op("neg", a), one - a)]:
        assert type(got) is Fraction
        assert got == want
    # meet and join return the very operand min and max return, also on ties
    assert mv_op("meet", a, b) is min(a, b)
    assert mv_op("join", a, b) is max(a, b)
    tie = Fraction(a.numerator, a.denominator)
    assert mv_op("meet", a, tie) is min(a, tie) is a
    assert mv_op("join", tie, a) is max(tie, a) is tie


def test_mv_op_rejects_unknown_kind_and_wrong_arity():
    half = Fraction(1, 2)
    with pytest.raises(ChainError, match="unknown operation"):
        mv_op("times", half, half)
    with pytest.raises(ChainError, match="single operand"):
        mv_op("neg", half, half)
    for kind in ("oplus", "odot", "meet", "join"):
        with pytest.raises(ChainError, match="two operands"):
            mv_op(kind, half)


@pytest.mark.parametrize(
    "c1, c2, expected",
    [
        (ChainSize(3), ChainSize(5), True),
        (ChainSize(3), ChainSize(4), False),
        (ChainSize(7), LINF, True),
        (LINF, ChainSize(9), False),
        (LINF, LINF, True),
        (ChainSize(2), ChainSize(2), True),
    ],
)
def test_chain_subset(c1, c2, expected):
    assert chain_subset(c1, c2) is expected


def test_finite_chains_exhaustive_mv_axiom():
    for n in range(2, 8):
        c = ChainSize(n)
        for a, b in itertools.product(c.values(), repeat=2):
            lhs = mv_op("oplus", mv_op("neg", mv_op("oplus", mv_op("neg", a), b)), b)
            rhs = mv_op("oplus", mv_op("neg", mv_op("oplus", mv_op("neg", b), a)), a)
            assert lhs == rhs


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=50)


@given(unit_rationals, unit_rationals)
def test_interval_mv_axiom(a, b):
    lhs = mv_op("oplus", mv_op("neg", mv_op("oplus", mv_op("neg", a), b)), b)
    rhs = mv_op("oplus", mv_op("neg", mv_op("oplus", mv_op("neg", b), a)), a)
    assert lhs == rhs


@given(unit_rationals, unit_rationals)
def test_interval_basic_laws(a, b):
    assert mv_op("oplus", a, b) == mv_op("oplus", b, a)
    assert mv_op("neg", mv_op("neg", a)) == a
    assert mv_op("oplus", a, Fraction(0)) == a
    assert mv_op("oplus", a, Fraction(1)) == 1
    for kind in ("oplus", "neg", "odot", "meet", "join"):
        r = mv_op(kind, a) if kind == "neg" else mv_op(kind, a, b)
        check_member(r, LINF)


def test_closure_under_operations():
    c = ChainSize(5)
    for a, b in itertools.product(c.values(), repeat=2):
        for kind in ("oplus", "odot", "meet", "join"):
            check_member(mv_op(kind, a, b), c)
        check_member(mv_op("neg", a), c)


def test_textual_forms():
    assert str(ChainSize(4)) == "L4"
    assert str(LINF) == "Linf"
