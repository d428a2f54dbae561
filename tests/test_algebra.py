import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chmv import algebra, verify
from chmv.algebra import (
    AlgebraError,
    AlgebraMismatchError,
    DuplicateLabelError,
    EnumerationError,
    NotMaximalError,
    SupportIdeal,
    UnknownLabelError,
    boolean_center_contains,
    brute_force_homs,
    brute_force_ideals,
    characteristic,
    enumerate_elements,
    ideal_elements,
    ideal_membership,
    ideal_sup,
    leq_elem,
    make_algebra,
    make_element,
    maximal_ideals,
    pointwise_op,
    principal_ideal,
    prop21_report,
    unit,
    zero,
)
from chmv.chain import MV_KERNELS, ChainError, ChainSize, LINF, mv_op


L2xL3 = make_algebra([("a", ChainSize(2)), ("b", ChainSize(3))])
L3xL2 = make_algebra([("a", ChainSize(3)), ("b", ChainSize(2))])


def test_make_algebra():
    assert L2xL3.labels == ("a", "b")
    assert make_algebra([]).size == 1
    assert L2xL3.chain("b") == ChainSize(3)
    assert make_algebra([("x", LINF)]).chain("x") == LINF
    with pytest.raises(UnknownLabelError):
        L2xL3.chain("z")


def test_coord_is_the_fraction_at_a_label():
    f = make_element(L3xL2, [Fraction(1, 2), 1])
    assert f.coord("a") == Fraction(1, 2) and f.coord("b") == 1
    with pytest.raises(UnknownLabelError):
        f.coord("z")


def test_make_algebra_duplicate_label():
    with pytest.raises(DuplicateLabelError):
        make_algebra([("a", ChainSize(2)), ("a", ChainSize(3))])


def test_make_algebra_bad_chain():
    with pytest.raises(ChainError):
        make_algebra([("a", ChainSize(1))])


@pytest.mark.parametrize(
    "spec, message",
    [
        ([(1, ChainSize(2))], "factor label must be a label, not 1"),
        ([("a b", ChainSize(2))], "factor label must be a label, not 'a b'"),
        ([("", LINF)], "factor label must be a label, not ''"),
        ([("1x", LINF)], "factor label must be a label, not '1x'"),
        ([("a", 3)], "factor a must be a ChainSize, not 3"),
        ([("a", LINF), ("b", "L2")], "factor b must be a ChainSize, not 'L2'"),
    ],
)
def test_make_algebra_refuses_what_the_dsl_cannot_read_back(spec, message):
    with pytest.raises(AlgebraError) as info:
        make_algebra(spec)
    assert str(info.value) == message


def test_pointwise_ops():
    f = make_element(L3xL2, [Fraction(1, 2), 0])
    g = make_element(L3xL2, [Fraction(1, 2), 1])
    assert pointwise_op("oplus", f, g).coords == (Fraction(1), Fraction(1))
    h = make_element(L3xL2, [0, 1])
    assert pointwise_op("neg", h).coords == (Fraction(1), Fraction(0))
    a = make_element(L3xL2, [Fraction(1, 2), 1])
    b = make_element(L3xL2, [1, 0])
    assert pointwise_op("meet", a, b).coords == (Fraction(1, 2), Fraction(0))


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)


@settings(max_examples=200)
@given(unit_fractions, unit_fractions)
def test_pointwise_op_runs_mv_op_on_each_coordinate(a, b):
    A = make_algebra([("x", LINF), ("y", ChainSize(2))])
    f, g = make_element(A, [a, 1]), make_element(A, [b, 0])
    one, nil = Fraction(1), Fraction(0)
    for kind in MV_KERNELS:
        assert pointwise_op(kind, f, g).coords == (mv_op(kind, a, b), mv_op(kind, one, nil))
    assert pointwise_op("neg", f).coords == (1 - a, 0)
    # meet and join return the very coordinate min and max return, also on ties
    assert pointwise_op("meet", f, g).coords[0] is min(f.coords[0], g.coords[0])
    assert pointwise_op("join", f, g).coords[0] is max(f.coords[0], g.coords[0])
    tie = make_element(A, [a, 1])
    assert pointwise_op("meet", f, tie).coords[0] is f.coords[0]
    assert pointwise_op("join", tie, f).coords[0] is tie.coords[0]


def test_pointwise_algebra_mismatch():
    with pytest.raises(AlgebraMismatchError):
        pointwise_op("oplus", zero(L2xL3), zero(L3xL2))


def test_leq_elem():
    assert leq_elem(zero(L2xL3), unit(L2xL3))
    f = make_element(L3xL2, [Fraction(1, 2), 0])
    assert leq_elem(f, unit(L3xL2))
    a = make_element(L2xL3, [1, 0])
    b = make_element(L2xL3, [0, 1])
    assert not leq_elem(a, b)


def test_characteristic():
    assert characteristic(L2xL3, {"b"}).coords == (Fraction(0), Fraction(1))
    assert characteristic(L2xL3, set()) == zero(L2xL3)
    assert characteristic(L2xL3, {"a", "b"}) == unit(L2xL3)
    with pytest.raises(UnknownLabelError):
        characteristic(L2xL3, {"z"})


def test_enumerate_elements_counts():
    assert len(list(enumerate_elements(make_algebra([("x", ChainSize(2))])))) == 2
    assert len(list(enumerate_elements(L2xL3))) == 6
    with pytest.raises(EnumerationError):
        list(enumerate_elements(make_algebra([("x", LINF)])))


def test_enumerate_elements_bound(monkeypatch):
    """Above DEFAULT_ENUM_BOUND elements the algebra is refused before any element is built."""
    A = make_algebra((f"x{i}", ChainSize(2)) for i in range(20))
    monkeypatch.setattr(algebra, "_trusted_element", None)  # building one would raise TypeError
    with pytest.raises(EnumerationError, match=r"algebra has 1048576 elements, bound is 1000000"):
        next(enumerate_elements(A))


def test_boolean_center():
    assert boolean_center_contains(make_element(L3xL2, [0, 1]))
    assert not boolean_center_contains(make_element(L3xL2, [Fraction(1, 2), 1]))
    assert boolean_center_contains(zero(L3xL2))


def test_principal_ideal_matches_enumeration():
    a = make_element(L3xL2, [Fraction(1, 2), 0])
    ideal = principal_ideal(a)
    assert ideal.free == frozenset({"a"})
    # oracle: the set {f : f <= n*a for some n <= |A|} coordinatewise
    generated = {
        f
        for f in enumerate_elements(L3xL2)
        if any(
            all(v <= min(n * av, 1) for v, av in zip(f.coords, a.coords))
            for n in range(1, 7)
        )
    }
    assert generated == ideal_elements(ideal)


def test_principal_ideal_extremes():
    assert principal_ideal(zero(L2xL3)).free == frozenset()
    assert principal_ideal(unit(L2xL3)).free == frozenset({"a", "b"})


def test_ideal_membership():
    M_a = SupportIdeal(L2xL3, frozenset({"b"}))
    assert ideal_membership(make_element(L2xL3, [0, Fraction(1, 2)]), M_a)
    assert not ideal_membership(make_element(L2xL3, [1, 0]), M_a)
    assert ideal_membership(zero(L2xL3), SupportIdeal(L2xL3, frozenset()))


def test_ideal_sup():
    M_a = SupportIdeal(L2xL3, frozenset({"b"}))
    assert ideal_sup(M_a).coords == (Fraction(0), Fraction(1))
    assert ideal_sup(SupportIdeal(L2xL3, frozenset())) == zero(L2xL3)
    assert ideal_sup(SupportIdeal(L2xL3, frozenset({"a", "b"}))) == unit(L2xL3)


def test_maximal_ideals():
    assert len(maximal_ideals(L2xL3)) == 2
    assert maximal_ideals(make_algebra([("x", ChainSize(5))])) == [
        SupportIdeal(make_algebra([("x", ChainSize(5))]), frozenset())
    ]
    assert maximal_ideals(make_algebra([])) == []


def test_prop21_report():
    M_b = SupportIdeal(L2xL3, frozenset({"a"}))
    report = prop21_report(M_b)
    assert report.generator.coords == (Fraction(1), Fraction(0))
    assert report.point == "b"


def test_prop21_on_simple_chain():
    L2 = make_algebra([("x", ChainSize(2))])
    report = prop21_report(SupportIdeal(L2, frozenset()))
    assert report.generator == zero(L2)
    assert report.point == "x"


def test_prop21_requires_maximal():
    with pytest.raises(NotMaximalError):
        prop21_report(SupportIdeal(L2xL3, frozenset()))


def test_brute_force_ideals_counts():
    L3 = make_algebra([("x", ChainSize(3))])
    assert len(brute_force_ideals(L3)) == 2
    assert len(brute_force_ideals(L2xL3)) == 4
    with pytest.raises(EnumerationError):
        brute_force_ideals(make_algebra([("x", LINF)]))


def _plain_ideal_scan(A):
    """Every subset that holds 0 and is closed downward and under the truncated
    sum, tested member by member."""
    elems = list(enumerate_elements(A))
    n = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    below = [[j for j in range(n) if leq_elem(elems[j], elems[i])] for i in range(n)]
    total = [[index[pointwise_op("oplus", e, f)] for f in elems] for e in elems]
    zero_idx = index[zero(A)]
    found = []
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if zero_idx not in members:
            continue
        if not all(mask >> j & 1 for i in members for j in below[i]):
            continue
        if not all(mask >> total[i][j] & 1 for i in members for j in members):
            continue
        found.append(frozenset(elems[i] for i in members))
    return found


def test_table_scan_finds_the_plain_scans_ideals():
    family = verify.algebra_family((2, 3, 4, 5), max_factors=4, max_size=16)
    sizes = sorted(A.size for A in family)
    assert sizes == [1, 2, 3, 4, 4, 5, 6, 8, 8, 9, 10, 12, 12, 15, 16, 16, 16]
    for A in family:
        found = brute_force_ideals(A)
        assert len(found) == len(set(found)) == 2 ** len(A.labels)
        assert set(found) == set(_plain_ideal_scan(A)), A


def test_brute_force_ideals_too_large():
    algebra._op_tables.cache_clear()
    A = make_algebra([("a", ChainSize(5)), ("b", ChainSize(5))])
    with pytest.raises(EnumerationError, match="25 elements exceed the subset-scan limit 16"):
        brute_force_ideals(A)
    assert algebra._op_tables.cache_info().currsize == 0  # refused before any table


def test_brute_force_homs_counts():
    L2 = make_algebra([("x", ChainSize(2))])
    L2xL2 = make_algebra([("a", ChainSize(2)), ("b", ChainSize(2))])
    assert len(brute_force_homs(L2xL2, L2)) == 2
    L3 = make_algebra([("x", ChainSize(3))])
    assert len(brute_force_homs(L3xL2, L3)) == 2
    assert len(brute_force_homs(L3, L2)) == 0


def _plain_hom_scan(A, B):
    """Every map from A's elements to B's, in itertools.product order, that keeps
    0, negation and the truncated sum, judged with pointwise_op on each algebra's
    elements once and then read by element index."""
    tables = []
    for C in (A, B):
        elems = list(enumerate_elements(C))
        index = {e: i for i, e in enumerate(elems)}
        neg = [index[pointwise_op("neg", e)] for e in elems]
        plus = [[index[pointwise_op("oplus", e, f)] for f in elems] for e in elems]
        tables.append((elems, index[zero(C)], neg, plus))
    (ea, za, neg_a, plus_a), (eb, zb, neg_b, plus_b) = tables
    n = len(ea)
    found = []
    for h in itertools.product(range(len(eb)), repeat=n):
        if h[za] == zb and all(h[neg_a[i]] == neg_b[h[i]] for i in range(n)) and all(
            h[plus_a[i][j]] == plus_b[h[i]][h[j]] for i in range(n) for j in range(n)
        ):
            found.append({ea[i]: eb[v] for i, v in enumerate(h)})
    return found


def test_table_search_finds_the_plain_scans_homs_in_order():
    family = verify.algebra_family()
    pairs = [(A, B) for A in family for B in family if B.size ** A.size <= 10 ** 4]
    assert len(pairs) == 98
    for A, B in pairs:
        assert brute_force_homs(A, B) == _plain_hom_scan(A, B), (A, B)


def test_brute_force_homs_bound():
    algebra._op_tables.cache_clear()
    L2_4 = make_algebra([(f"x{i}", ChainSize(2)) for i in range(4)])
    L3 = make_algebra([("x", ChainSize(3))])
    with pytest.raises(EnumerationError, match=r"^3\^16 candidate maps exceed the bound 1000000$"):
        brute_force_homs(L2_4, L3)
    with pytest.raises(EnumerationError, match="infinite factor"):
        brute_force_homs(L3, make_algebra([("x", LINF)]))
    assert algebra._op_tables.cache_info().currsize == 0  # refused before any table


ORACLE_CODE = ("_op_tables", "_table_maps", "brute_force_ideals", "brute_force_homs")
SHORTCUTS = {
    "leq_elem", "pointwise_op", "mv_op", "check_member", "SupportIdeal", "maximal_ideals",
    "principal_ideal", "ideal_membership", "ideal_elements", "ideal_sup", "characteristic",
    "chain_subset",
}


def test_oracles_read_only_enumeration_and_cayley_tables():
    """The oracles judge the shortcuts, so they name none and read no coordinates."""
    tree = ast.parse(Path(algebra.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ORACLE_CODE:
        for node in ast.walk(functions[name]):
            attr = node.attr if isinstance(node, ast.Attribute) else None
            named = node.id if isinstance(node, ast.Name) else attr
            assert attr != "coords", f"{name} reads .coords at line {node.lineno}"
            assert named not in SHORTCUTS, f"{name} names {named} at line {node.lineno}"


def test_oracles_share_one_set_of_cayley_tables_per_algebra():
    L3 = make_algebra([("x", ChainSize(3))])
    calls = [
        lambda: brute_force_ideals(L2xL3),
        lambda: brute_force_homs(L3xL2, L3),
        lambda: brute_force_homs(L3, L3xL2),
        lambda: brute_force_ideals(L3),
    ]
    fresh = []
    for call in calls:
        algebra._op_tables.cache_clear()
        fresh.append(call())
    algebra._op_tables.cache_clear()
    for _ in range(3):
        for call, expected in zip(calls, fresh):
            assert call() == expected
    info = algebra._op_tables.cache_info()
    assert info.misses == 3  # L2xL3, L3xL2 and L3
    elems, opl, neg = algebra._op_tables(L3xL2)
    assert type(elems) is tuple and type(opl) is tuple and type(neg) is tuple
    assert all(type(row) is tuple for row in opl)
    assert elems[0] == zero(L3xL2)


@pytest.mark.parametrize("max_size", [None, 16])
def test_integer_cayley_tables_match_fraction_arithmetic(max_size):
    """The digit arithmetic of _op_tables against pointwise_op on elements."""
    family = verify.algebra_family(max_size=max_size)
    assert any(not A.factors for A in family)  # the empty product is covered
    for A in family:
        elems, opl, neg = algebra._op_tables(A)
        assert elems == tuple(enumerate_elements(A))
        index = {e.coords: i for i, e in enumerate(elems)}
        assert index[zero(A).coords] == 0
        for i, e in enumerate(elems):
            assert neg[i] == index[pointwise_op("neg", e).coords], (A, e)
            for j, f in enumerate(elems):
                assert opl[i][j] == index[pointwise_op("oplus", e, f).coords], (A, e, f)


def test_brute_force_homs_are_homomorphisms():
    L3 = make_algebra([("x", ChainSize(3))])
    for table in brute_force_homs(L3xL2, L3):
        assert table[zero(L3xL2)] == zero(L3)
        for f, g in itertools.product(table, repeat=2):
            assert table[pointwise_op("oplus", f, g)] == pointwise_op(
                "oplus", table[f], table[g]
            )
        for f in table:
            assert table[pointwise_op("neg", f)] == pointwise_op("neg", table[f])
