"""The unchecked constructors inside the package build only valid objects.

Public constructors and parsers still reject invalid input, an argument of the
wrong kind included; every element, hom and morphism the library derives from
valid ones passes full validation when rebuilt through the public class, and
equals and hashes like its rebuild, so it lists its pairs in the canonical
order the public class gives them.  So do the term nodes and objects that the
DSL readers and the functors build without the constructors' checks.
Algebras and multisets store their hash, and a used hom caches a local
function, so copies and pickles rebuild them through the constructor.  The
constructors store a tuple (a frozenset for a support ideal) of any iterable,
and algebras, multisets and profiles store each pair as a tuple.
"""

import copy
import dataclasses
import itertools
import os
import pickle
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chmv.algebra import (
    AlgebraError,
    Element,
    ProductAlgebra,
    SupportIdeal,
    characteristic,
    enumerate_elements,
    make_algebra,
    make_element,
    pointwise_op,
    unit,
    zero,
)
from chmv.chain import MV_KERNELS, ChainError, ChainSize, LabelledPairs, LINF, check_member, mv_op
from chmv.dsl import (
    BinOp,
    Const,
    Neg,
    ParseError,
    Var,
    eval_term,
    parse_algebra,
    parse_env,
    parse_multiset,
    parse_object,
    parse_term,
    render,
)
from chmv.duality import (
    ContinuousHom,
    F_mor,
    F_obj,
    H_mor,
    H_obj,
    HomError,
    apply_hom,
    compose_homs,
    enumerate_continuous_homs,
    epsilon,
    eta,
    identity_hom,
    make_hom,
    sample_elements,
)
from chmv.multiset import (
    EMMorphism,
    EMultiset,
    MorphismError,
    MultisetError,
    compose_morphisms,
    enumerate_morphisms,
    identity_morphism,
    INF,
    Profile,
)
from chmv.verify import algebra_family, multiset_family

L3xLinf = make_algebra([("a", ChainSize(3)), ("b", LINF)])


# --- the public boundary still validates ----------------------------------------

# Element takes only Fractions, and names the first other coordinate;
# make_element converts every value that Fraction() reads
NOT_FRACTIONS = [
    ((0.5, Fraction(0)), "coordinate 0 must be a Fraction, not 0.5"),
    (("1/2", Fraction(0)), "coordinate 0 must be a Fraction, not '1/2'"),
    ((Fraction(0), True), "coordinate 1 must be a Fraction, not True"),
    ((Fraction(1), 1), "coordinate 1 must be a Fraction, not 1"),
]
# a value that is no finite number, at coordinate i: (Element's message, make_element's);
# Fraction() raises OverflowError, ValueError, ZeroDivisionError or TypeError on them
NOT_FINITE = [
    (coords, (f"coordinate {i} must be a Fraction, not {coords[i]!r}",
              f"coordinate {i} must be a finite number, not {coords[i]!r}"))
    for coords, i in [
        ((float("inf"), Fraction(0)), 0),
        ((Fraction(0), float("-inf")), 1),
        ((Fraction(0), float("nan")), 1),
        ((float("nan"), float("inf")), 0),
        ((Decimal("Infinity"), Fraction(0)), 0),
        ((Fraction(0), Decimal("NaN")), 1),
        (("1/0", Fraction(0)), 0),
        ((Fraction(0), None), 1),
    ]
]


@pytest.mark.parametrize(
    "coords, error",
    [
        ((Fraction(1, 3), Fraction(0)), ChainError),  # off the L3 grid
        ((Fraction(0), Fraction(3, 2)), ChainError),  # outside [0, 1]
        ((Fraction(0),), AlgebraError),  # too few coordinates
    ] + NOT_FRACTIONS + NOT_FINITE,
)
def test_element_and_make_element_reject(coords, error):
    if isinstance(error, tuple):  # a value that is no finite number
        for build, message in zip((Element, make_element), error):
            with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
                build(L3xLinf, coords)
        return
    if isinstance(error, str):  # a coordinate that is no Fraction
        with pytest.raises(AlgebraError) as info:
            Element(L3xLinf, coords)
        assert str(info.value) == error
        made = make_element(L3xLinf, coords)
        assert made.coords == tuple(map(Fraction, coords))
        assert all(type(v) is Fraction for v in made.coords)
        return
    with pytest.raises(error):
        Element(L3xLinf, coords)
    with pytest.raises(error):
        make_element(L3xLinf, coords)


# a multiplicity or cardinality is a positive int or the float inf, which renders
# as "inf": a Decimal infinity equals and hashes like it but renders as "Infinity"
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EMultiset([("a", Decimal("Infinity"))]),
         "multiplicity must be a positive integer or inf, got Decimal('Infinity')"),
        (lambda: EMultiset([("a", float("-inf"))]),
         "multiplicity must be a positive integer or inf, got -inf"),
        (lambda: Profile([(Decimal("Infinity"), 1)]),
         "multiplicity must be a positive integer or inf, got Decimal('Infinity')"),
        (lambda: Profile([(1, Decimal("Infinity"))]),
         "cardinality must be a positive integer or inf, got Decimal('Infinity')"),
    ],
)
def test_multisets_and_profiles_take_only_the_float_infinity(build, message):
    with pytest.raises(MultisetError, match=f"^{re.escape(message)}$"):
        build()


def test_continuous_hom_and_make_hom_reject():
    L2 = make_algebra([("x", ChainSize(2))])
    L3 = make_algebra([("y", ChainSize(3))])
    total = "index map must be total on the target coordinates"
    for index_map, message in [
        ((("x", "y"),), "L3 is not a subchain of L2"),
        ((("x", "nowhere"),), "index map hits unknown source coordinate 'nowhere'"),
        ((), total),
        ((("x", "y"), ("z", "y")), total),
    ]:
        with pytest.raises(HomError, match=f"^{re.escape(message)}$"):
            ContinuousHom(L3, L2, index_map)
        with pytest.raises(HomError, match=f"^{re.escape(message)}$"):
            make_hom(L3, L2, dict(index_map))


def test_make_hom_rejects_a_label_outside_the_target():
    L2 = make_algebra([("x", ChainSize(2))])
    L3 = make_algebra([("y", ChainSize(3))])
    with pytest.raises(HomError):
        make_hom(L2, L3, {"y": "x", "z": "x"})


def test_constructors_list_pairs_in_domain_order():
    """Pairs given in any order equal, and hash like, the map the library derives."""
    A = make_algebra([("x1", ChainSize(3)), ("x2", LINF)])
    h = ContinuousHom(A, A, (("x2", "x2"), ("x1", "x1")))
    assert h.index_map == (("x1", "x1"), ("x2", "x2"))
    assert h == identity_hom(A) and hash(h) == hash(identity_hom(A))
    X = EMultiset((("a", 2), ("b", INF)))
    phi = EMMorphism(X, X, (("b", "b"), ("a", "a")))
    assert phi.mapping == (("a", "a"), ("b", "b"))
    assert phi == identity_morphism(X) and hash(phi) == hash(identity_morphism(X))


def test_em_morphism_and_validate_morphism_reject():
    X = EMultiset((("a", 3),))
    Y = EMultiset((("b", 2),))
    total = "map must be total on the source points"
    for mapping, message in [
        ((("a", "b"),), "multiplicity 2 of 'b' does not divide 3 of 'a'"),
        ((("a", "nowhere"),), "image point 'nowhere' not in the target"),
        ((), total),
        ((("a", "b"), ("z", "b")), total),
    ]:
        with pytest.raises(MorphismError, match=f"^{re.escape(message)}$"):
            EMMorphism(X, Y, mapping)


L3 = make_algebra([("x", ChainSize(3))])
Y1 = EMultiset((("b", 1),))
# An argument of the wrong kind raises its module's error, which names it, and
# never AttributeError; a binding that is no Element raises TypeError, as a root
# that is no term does.
WRONG_KINDS = [
    (lambda: EMMorphism("X", Y1, ()), MorphismError, "source must be of type EMultiset, not 'X'"),
    (lambda: EMMorphism(Y1, None, ()), MorphismError, "target must be of type EMultiset, not None"),
    (lambda: ContinuousHom(L3, "B", ()), HomError,
     "target must be of type ProductAlgebra, not 'B'"),
    (lambda: ContinuousHom(Y1, L3, ()), HomError,
     f"source must be of type ProductAlgebra, not {Y1!r}"),
    (lambda: Element(None, (Fraction(0),)), AlgebraError,
     "algebra must be a ProductAlgebra, not None"),
    (lambda: mv_op("oplus", 0.5, 0.25), ChainError, "oplus operand must be a Fraction, not 0.5"),
    (lambda: mv_op("meet", Fraction(1, 2), "1"), ChainError,
     "meet operand must be a Fraction, not '1'"),
    (lambda: mv_op("neg", 0.5), ChainError, "neg operand must be a Fraction, not 0.5"),
    (lambda: eval_term(parse_term("x"), {"x": 3}, L3), TypeError,
     "binding for 'x' is not an Element: 3"),
    (lambda: eval_term(parse_term("x"), {"x": unit(L3), "y": None}, L3), TypeError,
     "binding for 'y' is not an Element: None"),
    (lambda: eval_term(parse_term("x"), {}, "L3"), TypeError,
     "algebra must be a ProductAlgebra, not 'L3'"),
    (lambda: parse_env("x=(0)", None), AlgebraError, "algebra must be a ProductAlgebra, not None"),
    (lambda: apply_hom(identity_hom(L3), "x"), HomError, "element must be an Element, not 'x'"),
    (lambda: apply_hom(None, unit(L3)), HomError, "hom must be a ContinuousHom, not None"),
    (lambda: compose_homs(None, identity_hom(L3)), HomError,
     "hom must be a ContinuousHom, not None"),
    (lambda: compose_homs(identity_hom(L3), "h"), HomError, "hom must be a ContinuousHom, not 'h'"),
    (lambda: pointwise_op("neg", None), AlgebraError, "neg operand must be an Element, not None"),
    (lambda: pointwise_op("join", unit(L3), 1), AlgebraError,
     "join operand must be an Element, not 1"),
    (lambda: check_member(0.5, ChainSize(3)), ChainError,
     "chain value must be a Fraction, not 0.5"),
    (lambda: check_member(Fraction(1, 2), "L3"), ChainError, "chain must be a ChainSize, not 'L3'"),
    (lambda: F_obj("x"), HomError, "multiset must be an EMultiset, not 'x'"),
    (lambda: H_obj("x"), HomError, "algebra must be a ProductAlgebra, not 'x'"),
]


@pytest.mark.parametrize("call, error, message", WRONG_KINDS)
def test_an_argument_of_the_wrong_kind_raises_the_module_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_algebra, "L1"),
        (parse_algebra, "[a: L2, a: L3]"),
        (parse_multiset, "{a:0}"),
        (parse_multiset, "{a:2, a:3}"),
        (parse_term, "x (+)"),
    ],
)
def test_parsers_reject(parse, text):
    with pytest.raises(ParseError):
        parse(text)


# --- every derived object re-validates -------------------------------------------

chains = st.sampled_from([ChainSize(2), ChainSize(3), ChainSize(4), ChainSize(5), LINF])
algebras = st.lists(chains, min_size=0, max_size=3).map(
    lambda cs: make_algebra((f"x{i + 1}", c) for i, c in enumerate(cs))
)
finite_algebras = st.lists(
    st.sampled_from([ChainSize(2), ChainSize(3), ChainSize(4)]), min_size=0, max_size=3
).map(lambda cs: make_algebra((f"x{i + 1}", c) for i, c in enumerate(cs)))
mults = st.sampled_from([1, 2, 3, 4, 6, INF])
multisets = st.lists(mults, min_size=0, max_size=3).map(
    lambda ms: EMultiset(tuple((f"p{i + 1}", m) for i, m in enumerate(ms)))
)


def revalidated_element(e):
    return Element(e.algebra, e.coords) == e


def revalidated_hom(h):
    rebuilt = ContinuousHom(h.source, h.target, h.index_map)
    return rebuilt == h and hash(rebuilt) == hash(h)


def revalidated_morphism(phi):
    rebuilt = EMMorphism(phi.source, phi.target, phi.mapping)
    return rebuilt == phi and hash(rebuilt) == hash(phi)


@settings(max_examples=60, deadline=None)
@given(algebras, algebras, st.integers(0, 2 ** 16))
def test_elements_revalidate(A, B, seed):
    samples = sample_elements(A, count=6, seed=seed)
    built = [zero(A), unit(A), characteristic(A, A.labels[:1]), *samples]
    for f, g in itertools.product(samples, repeat=2):
        built.append(pointwise_op("neg", f))
        built.extend(pointwise_op(kind, f, g) for kind in MV_KERNELS)
    for h in itertools.islice(enumerate_continuous_homs(A, B), 20):
        built.extend(apply_hom(h, f) for f in samples)
    assert all(revalidated_element(e) for e in built)


@settings(max_examples=40, deadline=None)
@given(finite_algebras)
def test_enumerated_elements_revalidate(A):
    assert all(revalidated_element(e) for e in enumerate_elements(A))


@settings(max_examples=60, deadline=None)
@given(algebras, algebras, algebras)
def test_homs_revalidate(A, B, C):
    first = list(itertools.islice(enumerate_continuous_homs(A, B), 20))
    second = list(itertools.islice(enumerate_continuous_homs(B, C), 20))
    built = [identity_hom(A), epsilon(A), *first, *second]
    built += [compose_homs(g, h) for h in first for g in second]
    assert all(revalidated_hom(h) for h in built)
    assert all(revalidated_morphism(H_mor(h)) for h in built)


@settings(max_examples=60, deadline=None)
@given(multisets, multisets, multisets)
def test_morphisms_revalidate(X, Y, Z):
    first = list(itertools.islice(enumerate_morphisms(X, Y), 20))
    second = list(itertools.islice(enumerate_morphisms(Y, Z), 20))
    built = [identity_morphism(X), eta(X), *first, *second]
    built += [compose_morphisms(psi, phi) for phi in first for psi in second]
    assert all(revalidated_morphism(phi) for phi in built)
    assert all(revalidated_hom(F_mor(phi)) for phi in built)


# --- the readers' and functors' trusted builds ----------------------------------

def rebuilt(t):
    """t built again, node by node, through the checking constructors."""
    kind = type(t)
    if kind is Const:
        return Const(t.value)
    if kind is Var:
        return Var(t.name)
    if kind is Neg:
        return Neg(rebuilt(t.arg))
    return BinOp(t.op, rebuilt(t.left), rebuilt(t.right))


def nodes(t):
    """The nodes of t, root first."""
    yield t
    for child in ("arg", "left", "right"):
        if hasattr(t, child):
            yield from nodes(getattr(t, child))


term_texts = st.recursive(
    st.sampled_from(["0", "1", "x", "y", "if", "_z1"]),
    lambda sub: st.one_of(
        sub.map(lambda a: f"~{a}"),
        st.tuples(sub, st.sampled_from(["(+)", "(.)", "/\\", "\\/", "->"]), sub).map(
            lambda parts: "({} {} {})".format(*parts)),
    ),
    max_leaves=24,
)
# 100 high, the limit: a run of negations, a left chain, a right chain
HIGH_TERMS = ["~" * 99 + "x", "x" + " -> x" * 99, "x -> (" * 99 + "x" + ")" * 99]


@settings(max_examples=150, deadline=None)
@given(st.one_of(term_texts, st.sampled_from(HIGH_TERMS)))
def test_parsed_terms_are_their_rebuild(text):
    """Each node parse_term builds equals, hashes and is as high as its rebuild;
    it survives copies and pickles, and refuses assignment to every field."""
    t = parse_term(text)
    for node, like in zip(nodes(t), nodes(rebuilt(t)), strict=True):
        assert type(node) is type(like) and node == like and hash(node) == hash(like)
        assert node.height == like.height
    for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert clone == t and hash(clone) == hash(t) and clone.height == t.height
    for node in nodes(t):
        for f in dataclasses.fields(node):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, f.name, getattr(node, f.name))


READ_TEXTS = ["[]", "{}", "[a: L2, b: Linf, _c: L0003]", "{a:2, b:inf, c:007}", "L2 * Linf * L10"]
FAMILIES = algebra_family((2, 3, 4, None)) + multiset_family()


def test_read_and_dual_objects_are_their_rebuild():
    """Objects that the readers, F_obj and H_obj build equal, hash and label like
    their rebuild through the checking constructor, and survive pickles."""
    objs = [parse_object(text) for text in READ_TEXTS]
    objs += [parse_object(render(obj)) for obj in FAMILIES]
    objs += [(H_obj if isinstance(obj, ProductAlgebra) else F_obj)(obj) for obj in FAMILIES]
    for obj in objs:
        pairs = obj.factors if isinstance(obj, ProductAlgebra) else obj.points
        like = type(obj)(pairs)
        assert obj == like and hash(obj) == hash(like) and obj.labels == like.labels
        assert type(pairs) is tuple and all(type(pair) is tuple for pair in pairs)
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj and hash(clone) == hash(obj)


def test_readers_and_functors_build_nothing_through_post_init(monkeypatch):
    """What keeps their speed: parse_term builds its nodes, and parse_algebra,
    parse_multiset, F_obj and H_obj their objects, without the constructors' checks."""
    A = make_algebra([("a", ChainSize(3)), ("b", LINF)])
    X = EMultiset((("a", 2), ("b", INF)))
    term = BinOp("join", BinOp("oplus", Neg(Var("x")), BinOp("implies", Var("y"), Const(1))),
                 Neg(Neg(Const(0))))

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built through __post_init__")

    for cls in (Const, Var, Neg, BinOp, LabelledPairs):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        Var("x")
    assert parse_term("~x (+) (y -> 1) \\/ ~~0") == term
    assert parse_algebra("[a: L3, b: Linf]") == A and parse_multiset("{a:2, b:inf}") == X
    assert F_obj.__wrapped__(X) == A and H_obj.__wrapped__(A) == X


# --- stored hashes survive copies and pickles ------------------------------------

HASHED = [
    make_algebra([("x1", ChainSize(3)), ("x2", LINF)]),
    make_algebra([]),
    EMultiset((("a", 2), ("b", INF))),
    EMultiset(()),
]


def used_hom():
    """A hom that apply_hom has used: its one-coordinate image getter is a local lambda."""
    h = next(enumerate_continuous_homs(make_algebra([("a", ChainSize(2)), ("b", ChainSize(3))]),
                                       make_algebra([("c", ChainSize(3))])))
    apply_hom(h, unit(h.source))
    assert "image_getter" in vars(h)
    return h


MAPS = [used_hom(), next(enumerate_morphisms(EMultiset((("a", 2),)), EMultiset((("b", 1),))))]


A = HASHED[0]
# the constructors store a tuple of any iterable (a frozenset for a support ideal),
# so a list, a set or an iterator builds the object that a tuple or a frozenset builds
OTHER_ITERABLES = [
    ("ProductAlgebra from a list", ProductAlgebra([("x1", ChainSize(3)), ("x2", LINF)]), A),
    ("EMultiset from a list", EMultiset([("a", 2), ("b", INF)]), HASHED[2]),
    ("Element from a list", Element(A, [Fraction(1, 2), Fraction(0)]),
     Element(A, (Fraction(1, 2), Fraction(0)))),
    ("SupportIdeal from a set", SupportIdeal(A, {"x1"}), SupportIdeal(A, frozenset({"x1"}))),
    ("ContinuousHom from an iterator",
     ContinuousHom(MAPS[0].source, MAPS[0].target, iter(MAPS[0].index_map)), MAPS[0]),
    ("EMMorphism from an iterator",
     EMMorphism(MAPS[1].source, MAPS[1].target, iter(MAPS[1].mapping)), MAPS[1]),
    # each pair or entry is stored as a tuple too, whatever iterable it came as
    ("ProductAlgebra from list pairs", ProductAlgebra([["x1", ChainSize(3)], ["x2", LINF]]), A),
    ("make_algebra from list pairs", make_algebra([["x1", ChainSize(3)], ["x2", LINF]]), A),
    ("EMultiset from list pairs", EMultiset([["a", 2], ["b", INF]]), HASHED[2]),
    ("Profile from list entries", Profile([[INF, 1], [2, 1]]), Profile(((2, 1), (INF, 1)))),
    ("Profile from an iterator", Profile(iter([(INF, 1), (2, 1)])), Profile(((2, 1), (INF, 1)))),
]


@pytest.mark.parametrize(
    "obj, like",
    [pytest.param(obj, obj, id=repr(obj)) for obj in HASHED + MAPS]
    + [pytest.param(obj, like, id=name) for name, obj, like in OTHER_ITERABLES],
)
def test_copies_keep_equality_and_hash(obj, like):
    assert obj == like and hash(obj) == hash(like)
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == like and hash(clone) == hash(like)
        assert {like: True}[clone]


def test_pickles_from_another_hash_seed_are_found_as_keys():
    """A hash stored in one process would be stale in another: string hashes are salted."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import pickle, sys\n"
        "from chmv.algebra import make_algebra\n"
        "from chmv.chain import ChainSize, LINF\n"
        "from chmv.multiset import EMultiset, INF\n"
        "objs = [make_algebra([('x1', ChainSize(3)), ('x2', LINF)]), make_algebra([]),\n"
        "        EMultiset((('a', 2), ('b', INF))), EMultiset(())]\n"
        "sys.stdout.buffer.write(pickle.dumps((hash('x1'), objs)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    their_label_hash, objs = pickle.loads(out.stdout)
    assert their_label_hash != hash("x1")  # the two processes salt strings differently
    lookup = {obj: i for i, obj in enumerate(HASHED)}
    assert [lookup[obj] for obj in objs] == [0, 1, 2, 3]
