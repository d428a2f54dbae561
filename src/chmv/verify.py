"""Self-verification suites: each structural claim against its brute-force oracle.

Every suite returns a result with a check count and the list of failures,
so the command-line runner and the test suite share one implementation.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from . import algebra as alg
from . import duality as dual
from . import dsl
from . import multiset as ms
from . import structure as st
from .chain import _ONE, _ZERO, ChainError, ChainSize, LINF, chain_subset, check_member, mv_op


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, cond: bool, msg: Callable[[], str]) -> None:
        """Count one check; only a failed check calls msg to describe its inputs."""
        self.checks += 1
        if not cond:
            self.failures.append(msg())

    def line(self) -> str:
        if self.ok:
            return f"PASS {self.name} ({self.checks} checks)"
        return f"FAIL {self.name} ({len(self.failures)}/{self.checks} checks failed): {self.failures[0]}"


# --- shared families ---------------------------------------------------------

def algebra_family(
    sizes=(2, 3, 4), max_factors=3, max_size=None, include_empty=True
) -> list[alg.ProductAlgebra]:
    """Algebras built from the given factor sizes (None means the interval)."""
    out = []
    lo = 0 if include_empty else 1
    for k in range(lo, max_factors + 1):
        for combo in itertools.combinations_with_replacement(sizes, k):
            A = alg.make_algebra(
                (f"x{i + 1}", LINF if n is None else ChainSize(n))
                for i, n in enumerate(combo)
            )
            if max_size is not None and (A.size is None or A.size > max_size):
                continue
            out.append(A)
    return out


def multiset_family(max_points=3, mults=(1, 2, 3, 4, 6, ms.INF)) -> list[ms.EMultiset]:
    """Multisets on points a, b, c, ... (up to max_points), multiplicities non-decreasing."""
    out = []
    for k in range(max_points + 1):
        for combo in itertools.combinations_with_replacement(mults, k):
            out.append(ms.EMultiset(zip("abcd", combo)))
    return out


# --- suite 1: MV axioms ------------------------------------------------------

def _in_chain(v: Fraction, c: ChainSize) -> bool:
    try:
        check_member(v, c)
    except ChainError:
        return False
    return True


def suite_mv_axioms(max_n=7, rational_pairs=1000, seed=0) -> SuiteResult:
    rec = SuiteResult("mv-axioms")

    def axioms(a: Fraction, b: Fraction, c: ChainSize, where: str) -> None:
        rec.check(mv_op("oplus", a, b) == mv_op("oplus", b, a), lambda: f"commutativity {where}")
        rec.check(mv_op("neg", mv_op("neg", a)) == a, lambda: f"involution {where}")
        rec.check(mv_op("oplus", a, _ZERO) == a, lambda: f"zero identity {where}")
        rec.check(mv_op("oplus", a, _ONE) == _ONE, lambda: f"one absorbs {where}")
        # both sides are a \/ b by definition, and a /\ b is its De Morgan dual
        lhs = mv_op("oplus", mv_op("neg", mv_op("oplus", mv_op("neg", a), b)), b)
        rhs = mv_op("oplus", mv_op("neg", mv_op("oplus", mv_op("neg", b), a)), a)
        meet = mv_op("neg", mv_op("join", mv_op("neg", a), mv_op("neg", b)))
        ok = lhs == rhs == mv_op("join", a, b) and mv_op("meet", a, b) == meet
        rec.check(ok, lambda: f"MV axiom, join and meet {where}")
        for kind in ("oplus", "odot", "meet", "join"):
            rec.check(_in_chain(mv_op(kind, a, b), c), lambda: f"closure {kind} {where}")

    for n in range(2, max_n + 1):
        c = ChainSize(n)
        for va, vb in itertools.product(c.values(), repeat=2):
            axioms(va, vb, c, f"in L{n} at ({va},{vb})")

    rng = random.Random(seed)
    for i in range(rational_pairs):
        q1, q2 = rng.randint(1, 20), rng.randint(1, 20)
        a = Fraction(rng.randint(0, q1), q1)
        b = Fraction(rng.randint(0, q2), q2)
        axioms(a, b, LINF, f"in Linf sample {i}")

    sizes = [ChainSize(n) for n in range(2, max_n + 1)] + [LINF]
    for c1 in sizes:
        rec.check(chain_subset(c1, c1), lambda: f"subset reflexive {c1}")
        rec.check(chain_subset(ChainSize(2), c1), lambda: f"L2 inside {c1}")
        for c2, c3 in itertools.product(sizes, repeat=2):
            if chain_subset(c1, c2) and chain_subset(c2, c3):
                rec.check(chain_subset(c1, c3), lambda: f"subset transitive {c1},{c2},{c3}")
    return rec


# --- suite 2: ideals and principality -----------------------------------------

def suite_ideals(max_factors=3) -> SuiteResult:
    """The table-search oracle's ideals equal the support ideals (the oracle only searches)."""
    rec = SuiteResult("ideal-oracle")
    for A in algebra_family(max_factors=max_factors, max_size=alg.IDEAL_SCAN_LIMIT):
        found = set(alg.brute_force_ideals(A))
        supports = {
            alg.ideal_elements(alg.SupportIdeal(A, frozenset(D)))
            for r in range(len(A.labels) + 1)
            for D in itertools.combinations(A.labels, r)
        }
        rec.check(
            found == supports,
            lambda: f"ideals of {dsl.render(A)} are the support ideals",
        )
        all_elems = frozenset(alg.enumerate_elements(A))
        proper = [I for I in found if I != all_elems]
        maximal = {
            I for I in proper if not any(I < J for J in proper)
        }
        expected = {alg.ideal_elements(M) for M in alg.maximal_ideals(A)}
        rec.check(maximal == expected, lambda: f"maximal ideals of {dsl.render(A)}")
        for M in alg.maximal_ideals(A):  # Proposition 2.1, against the brute-force ideals
            report, elems = alg.prop21_report(M), alg.ideal_elements(M)
            gen, at = report.generator, A.positions[report.point]
            least = frozenset.intersection(*[I for I in found if gen in I])
            rec.check(
                least == elems and alg.principal_ideal(gen) == M,
                lambda: f"generator witness at {sorted(M.free)} in {dsl.render(A)}",
            )
            rec.check(
                frozenset(f for f in all_elems if f.coords[at] == 0) == elems,
                lambda: f"kernel of the projection at {report.point} in {dsl.render(A)}",
            )
            top = alg.make_element(A, map(max, zip(*[f.coords for f in elems])))
            rec.check(
                top == alg.ideal_sup(M) and top in elems
                and alg.pointwise_op("oplus", top, top) == top
                and alg.boolean_center_contains(top),
                lambda: f"sup of {sorted(M.free)} in center",
            )
    return rec


# --- suite 3: homomorphism oracle ----------------------------------------------

def suite_hom_oracle(bound=10 ** 6) -> SuiteResult:
    rec = SuiteResult("hom-oracle")
    family = algebra_family()
    for A, B in itertools.product(family, repeat=2):
        if B.size ** A.size > bound:
            continue
        elems = list(alg.enumerate_elements(A))  # the order of each brute-force table's keys
        brute = {tuple(t.values()) for t in alg.brute_force_homs(A, B)}
        induced = {
            tuple([dual.apply_hom(h, f) for f in elems])
            for h in dual.enumerate_continuous_homs(A, B)
        }
        rec.check(
            brute == induced,
            lambda: f"homs {dsl.render(A)} -> {dsl.render(B)}: "
            f"oracle {len(brute)} vs index maps {len(induced)}",
        )
    return rec


# --- suite 4: duality -----------------------------------------------------------

def suite_duality(mults=(1, 2, 3, 4, 6, ms.INF), max_points=3) -> SuiteResult:
    rec = SuiteResult("duality")
    family = multiset_family(max_points, mults)

    for X in family:
        A = dual.F_obj(X)
        rec.check(
            dual.F_mor(ms.identity_morphism(X)) == dual.identity_hom(A),
            lambda: f"F preserves identity of {dsl.render(X)}",
        )
        rec.check(
            dual.H_mor(dual.identity_hom(A)) == ms.identity_morphism(dual.H_obj(A)),
            lambda: f"H preserves identity of {dsl.render(X)}",
        )

    for X, Y in itertools.product(family, repeat=2):
        morphs = list(ms.enumerate_morphisms(X, Y))
        rec.check(
            len(morphs) == ms.morphism_count(X, Y),
            lambda: f"hom count product formula {dsl.render(X)} -> {dsl.render(Y)}",
        )
        hom_maps = {
            h.index_map
            for h in dual.enumerate_continuous_homs(dual.F_obj(Y), dual.F_obj(X))
        }
        f_homs = [dual.F_mor(phi) for phi in morphs]
        f_images = {h.index_map for h in f_homs}
        rec.check(
            len(f_images) == len(morphs) and f_images == hom_maps,
            lambda: f"hom-set bijection {dsl.render(X)} vs {dsl.render(Y)}",
        )
        for phi, f_phi in zip(morphs, f_homs):
            rec.check(
                dual.check_naturality_eq1(phi),
                lambda: f"unit naturality at {dict(phi.mapping)} : "
                f"{dsl.render(X)} -> {dsl.render(Y)}",
            )
            rec.check(
                dual.check_naturality_eq2(f_phi),
                lambda: f"counit naturality at {dict(phi.mapping)} : "
                f"{dsl.render(X)} -> {dsl.render(Y)}",
            )

    comp_family = multiset_family(2, (1, 2, 3, ms.INF))
    for X, Y, Z in itertools.product(comp_family, repeat=3):
        for phi in ms.enumerate_morphisms(X, Y):
            for psi in ms.enumerate_morphisms(Y, Z):
                f_phi, f_psi = dual.F_mor(phi), dual.F_mor(psi)
                lhs = dual.F_mor(ms.compose_morphisms(psi, phi))
                rhs = dual.compose_homs(f_phi, f_psi)
                rec.check(lhs == rhs, lambda: "F contravariant on a composable pair")
                back = ms.compose_morphisms(dual.H_mor(f_psi), dual.H_mor(f_phi))
                rec.check(
                    dual.H_mor(rhs) == back, lambda: "H contravariant on a composable pair"
                )
    return rec


# --- suite 5: unit and counit isomorphisms ---------------------------------------

EPSILON_SAMPLES = 100  # elements drawn where the counit cannot be checked on all of A


def suite_eta_epsilon(mults=(1, 2, 3, 4, 6, ms.INF), max_points=3, seed=0) -> SuiteResult:
    rec = SuiteResult("eta-epsilon")
    for X in multiset_family(max_points, mults):
        e = dual.eta(X)
        e_map = dict(e.mapping)
        round_trip = dual.H_obj(dual.F_obj(X))
        images = set(e_map.values())
        rec.check(
            len(images) == len(X.labels) and images == set(round_trip.labels),
            lambda: f"eta bijective on {dsl.render(X)}",
        )
        rec.check(
            all(round_trip.mults[e_map[x]] == X.mults[x] for x in X.labels),
            lambda: f"eta multiplicity-preserving on {dsl.render(X)}",
        )
        rec.check(
            ms.profile_of(round_trip) == ms.profile_of(X),
            lambda: f"profile equality for {dsl.render(X)}",
        )
        inverse = ms.EMMorphism(round_trip, X, tuple((y, y) for y in round_trip.labels))
        rec.check(
            ms.compose_morphisms(inverse, e) == ms.identity_morphism(X),
            lambda: f"eta inverse on {dsl.render(X)}",
        )

        A = dual.F_obj(X)
        eps = dual.epsilon(A)
        if A.all_finite and A.size <= 2500:
            elems = list(alg.enumerate_elements(A))
        else:
            elems = dual.sample_elements(A, EPSILON_SAMPLES, seed)
        ok = all(
            tuple(map(dual.apply_hom(eps, f).coord, A.labels)) == f.coords for f in elems
        )
        rec.check(ok, lambda: f"epsilon coordinatewise on {dsl.render(A)}")
    return rec


# --- suite 6: surjectivity analysis -----------------------------------------------

def suite_surjectivity(sizes=(2, 3, 4, 6)) -> SuiteResult:
    rec = SuiteResult("surjectivity")
    family = algebra_family(sizes, max_factors=2, max_size=36)
    elements = {A: list(alg.enumerate_elements(A)) for A in family}
    for C, B in itertools.product(family, repeat=2):
        targets = {e.coords for e in elements[B]}
        for h in dual.enumerate_continuous_homs(C, B):
            image = {dual.apply_hom(h, f).coords for f in elements[C]}
            rec.check(
                st.is_surjective_hom(h) == (image == targets),
                lambda: f"surjectivity of {dict(h.index_map)} : "
                f"{dsl.render(C)} -> {dsl.render(B)}",
            )
    return rec


# --- suite 7: projectivity and lifting ----------------------------------------------

def suite_lifting(instances=100, seed=0) -> SuiteResult:
    rec = SuiteResult("lifting")
    rng = random.Random(seed)
    pool = [ChainSize(2), ChainSize(3), ChainSize(4), LINF]

    for i in range(instances):
        k_b = rng.randint(0, 2)
        b_chains = [rng.choice(pool) for _ in range(k_b)]
        B = alg.make_algebra((f"b{j + 1}", c) for j, c in enumerate(b_chains))
        extras = [rng.choice(pool) for _ in range(rng.randint(0, 3 - k_b))]
        c_factors = [(f"c{j + 1}", c) for j, c in enumerate(b_chains + extras)]
        rng.shuffle(c_factors)
        C = alg.make_algebra(c_factors)
        psi_map = {}
        for j, bc in enumerate(b_chains):
            x = next(lbl for lbl, c in c_factors if c == bc and lbl not in psi_map.values())
            psi_map[f"b{j + 1}"] = x
        psi = dual.make_hom(C, B, psi_map)

        a_chains = [ChainSize(2)] + [rng.choice(pool) for _ in range(rng.randint(0, 2))]
        A = alg.make_algebra((f"a{j + 1}", c) for j, c in enumerate(a_chains))
        phi_map = {y: rng.choice(xs) for y, xs in zip(B.labels, dual.admissible_sources(A, B))}
        phi = dual.make_hom(A, B, phi_map)

        lifted = st.lift(phi, psi, "a1")
        composed = dual.compose_homs(psi, lifted)
        rec.check(composed == phi, lambda: f"lift index maps at instance {i}")
        if A.all_finite and C.all_finite and A.size <= 512:
            ok = all(
                dual.apply_hom(psi, dual.apply_hom(lifted, f)) == dual.apply_hom(phi, f)
                for f in alg.enumerate_elements(A)
            )
            rec.check(ok, lambda: f"lift element check at instance {i}")

    l2 = alg.make_algebra([("x1", ChainSize(2))])
    for A in algebra_family((3, 4, 6, None), max_factors=3, include_empty=True):
        rec.check(
            dual.continuous_hom_count(A, l2) == 0,
            lambda: f"no hom to L2 from {dsl.render(A)}",
        )
    for A in algebra_family((2, 3, None), max_factors=2, include_empty=False):
        has_l2 = any(c == ChainSize(2) for _, c in A.factors)
        rec.check(
            (dual.continuous_hom_count(A, l2) > 0) == has_l2,
            lambda: f"hom to L2 exists iff L2 factor in {dsl.render(A)}",
        )
    return rec


# --- suite 8: separation ----------------------------------------------------------

def suite_separation(max_points=4) -> SuiteResult:
    rec = SuiteResult("separation")
    for k in range(max_points + 1):
        A = alg.make_algebra((f"x{i + 1}", ChainSize(2)) for i in range(k))
        elems = list(alg.enumerate_elements(A))
        for f, g in itertools.product(elems, repeat=2):
            if alg.leq_elem(f, g):
                try:
                    st.separate(f, g)
                    accepted = True
                except st.StructureError:
                    accepted = False
                rec.check(not accepted, lambda: f"separate accepted {f} <= {g}")
            else:
                h = st.separate(f, g)
                rec.check(
                    dual.apply_hom(h, f).coords == (_ONE,)
                    and dual.apply_hom(h, g).coords == (_ZERO,),
                    lambda: f"separation of {f}, {g} in 2^{k}",
                )

    # in L3 the element 1/2 exceeds 0, yet no continuous hom moves it to 1
    l3 = alg.make_algebra([("x1", ChainSize(3))])
    half = alg.make_element(l3, [Fraction(1, 2)])
    rec.check(not alg.leq_elem(half, alg.zero(l3)), lambda: "1/2 is not below 0 in L3")
    targets = [
        alg.make_algebra([("y1", ChainSize(n))]) for n in (3, 5, 7)
    ] + [alg.make_algebra([("y1", LINF)])]
    for T in targets:
        for h in dual.enumerate_continuous_homs(l3, T):
            rec.check(
                all(v != _ONE for v in dual.apply_hom(h, half).coords),
                lambda: f"no hom L3 -> {dsl.render(T)} sends 1/2 to 1",
            )
    return rec


# --- suite 9: predicate implications ------------------------------------------------

def suite_predicates() -> SuiteResult:
    rec = SuiteResult("predicates")
    mults = (1, 2, 3, ms.INF)
    options = [None, 1, 3, ms.INF]  # absent, or the fiber's cardinality
    labels = [f"p{i}" for i in range(12)]
    for assignment in itertools.product(options, repeat=len(mults)):
        entries = {m: c for m, c in zip(mults, assignment) if c is not None}
        P = ms.make_profile(entries)
        if st.is_extremally_disconnected(P):
            rec.check(st.is_stone(P), lambda: f"extremally disconnected implies Stone: {entries}")
        if st.is_stone(P):
            rec.check(
                st.is_hyperarchimedean(P), lambda: f"Stone implies hyperarchimedean: {entries}"
            )
        # concrete stand-in: an omega fiber contributes three sample points
        points = []
        it = iter(labels)
        for m, c in entries.items():
            for _ in range(3 if c == ms.INF else int(c)):
                points.append((next(it), m))
        X = ms.EMultiset(points)
        rec.check(
            st.is_projective(P) == st.injective_in_EM(X),
            lambda: f"projective iff dual injective: {entries}",
        )
        rec.check(
            st.is_projective(ms.profile_of(X)) == st.injective_in_EM(X),
            lambda: f"profile route agrees: {entries}",
        )
    return rec


# --- suite 10: DSL round trips --------------------------------------------------------

DSL_CORPUS: list[tuple[str, str]] = [
    # algebras
    ("algebra", "L2"),
    ("algebra", "L3"),
    ("algebra", "Linf"),
    ("algebra", "L2 * L3"),
    ("algebra", "L4 * L2"),
    ("algebra", "Linf * L4"),
    ("algebra", "L2 * L2 * L2"),
    ("algebra", "L3 * L5 * Linf"),
    ("algebra", "L7"),
    ("algebra", "L6 * L6"),
    ("algebra", "[]"),
    ("algebra", "[a: L2]"),
    ("algebra", "[a: L2, b: L3]"),
    ("algebra", "[p: Linf, q: L4]"),
    ("algebra", "[left: L3, right: L3]"),
    ("algebra", "[only: Linf]"),
    ("algebra", "L2 * Linf * L2"),
    # multisets
    ("multiset", "{}"),
    ("multiset", "{a:1}"),
    ("multiset", "{a:2}"),
    ("multiset", "{a:inf}"),
    ("multiset", "{a:1, b:2}"),
    ("multiset", "{a:2, b:2}"),
    ("multiset", "{a:1, b:2, c:inf}"),
    ("multiset", "{a:6, b:4, c:3}"),
    ("multiset", "{x:12}"),
    ("multiset", "{p:1, q:1, r:1}"),
    ("multiset", "{a:inf, b:inf}"),
    ("multiset", "{m:3, n:9}"),
    ("multiset", "{a:5, b:10, c:2}"),
    ("multiset", "{u:7}"),
    ("multiset", "{a:2, b:inf, c:2}"),
    ("multiset", "{one:1, two:2}"),
    ("multiset", "{big:100}"),
    # terms
    ("term", "x"),
    ("term", "0"),
    ("term", "1"),
    ("term", "~x"),
    ("term", "~~x"),
    ("term", "x (+) y"),
    ("term", "x (.) y"),
    ("term", "x (+) y (.) z"),
    ("term", "(x (+) y) (.) z"),
    ("term", "x /\\ y \\/ z"),
    ("term", "x \\/ (y -> z)"),
    ("term", "x -> y -> z"),
    ("term", "~x (+) x"),
    ("term", "x (.) ~x"),
    ("term", "~(x (+) y)"),
    ("term", "x (+) (y (+) z)"),
]

_PARSERS = {
    "algebra": dsl.parse_algebra,
    "multiset": dsl.parse_multiset,
    "term": dsl.parse_term,
}


def suite_dsl(max_size=36) -> SuiteResult:
    rec = SuiteResult("dsl")
    for kind, text in DSL_CORPUS:
        parse = _PARSERS[kind]
        value = parse(text)
        rendered = dsl.render(value)
        rec.check(parse(rendered) == value, lambda: f"round trip for {text!r}")
        rec.check(
            dsl.render(parse(rendered)) == rendered, lambda: f"render fixpoint for {text!r}"
        )

    taut = dsl.parse_term("~x (+) x")
    contra = dsl.parse_term("x (.) ~x")
    refl = dsl.parse_term("x -> x")
    for A in algebra_family((2, 3, 4, 6), max_factors=2, max_size=max_size):
        one, nil = alg.unit(A), alg.zero(A)
        for e in alg.enumerate_elements(A):
            env = {"x": e}
            rec.check(
                dsl.eval_term(taut, env, A) == one, lambda: f"~x(+)x at {e} in {dsl.render(A)}"
            )
            rec.check(dsl.eval_term(contra, env, A) == nil, lambda: f"x(.)~x at {e}")
            rec.check(dsl.eval_term(refl, env, A) == one, lambda: f"x->x at {e}")

    # evaluation commutes with projections
    A = dsl.parse_algebra("L2 * L3")
    expr = dsl.parse_term("x (+) y (.) ~x")
    for f, g in itertools.product(alg.enumerate_elements(A), repeat=2):
        value = dsl.eval_term(expr, {"x": f, "y": g}, A)
        for lbl in A.labels:
            p = dual.projection(A, lbl)
            chain_alg = p.target
            projected = dsl.eval_term(
                expr,
                {"x": dual.apply_hom(p, f), "y": dual.apply_hom(p, g)},
                chain_alg,
            )
            rec.check(
                dual.apply_hom(p, value) == projected,
                lambda: f"projection commutes at {lbl} for {f}, {g}",
            )
    return rec


# --- runner ---------------------------------------------------------------------------

# The suites in run order: function name -> (takes the run's seed, small-scale
# arguments).  Full scale is each suite's own defaults.
SUITES: dict[str, tuple[bool, dict]] = {
    "suite_mv_axioms": (True, {"max_n": 5, "rational_pairs": 200}),
    "suite_ideals": (False, {"max_factors": 2}),
    "suite_hom_oracle": (False, {"bound": 10 ** 4}),
    "suite_duality": (False, {"mults": (1, 2, ms.INF), "max_points": 2}),
    "suite_eta_epsilon": (True, {"mults": (1, 2, ms.INF), "max_points": 2}),
    "suite_surjectivity": (False, {"sizes": (2, 3)}),
    "suite_lifting": (True, {"instances": 20}),
    "suite_separation": (False, {"max_points": 3}),
    "suite_predicates": (False, {}),
    "suite_dsl": (False, {"max_size": 16}),
}


def run_suite(fn_name: str, scale: str, seed: int = 0) -> SuiteResult:
    """Run one suite of SUITES at scale "small" or "full"; the suite is looked up on
    this module at each call, so one rebound here (say, to time it) is the one run."""
    if scale not in ("small", "full"):
        raise ValueError(f"unknown scale {scale!r}: expected 'small' or 'full'")
    seeded, small = SUITES[fn_name]
    kwargs = dict(small) if scale == "small" else {}
    if seeded:
        kwargs["seed"] = seed
    return globals()[fn_name](**kwargs)


def run_all(scale: str = "full", seed: int = 0) -> list[SuiteResult]:
    return [run_suite(fn_name, scale, seed) for fn_name in SUITES]
