"""Seeded inputs, timed operations and independent output checks.

Every workload is a closed loop with one caller: it issues one operation,
waits for the result, checks it against a reference kept in this file and
only then issues the next.  The references use plain Fractions, counting
formulas and the paper's multiplicity rule, never chmv itself, so a defect
in the library cannot hide behind its own answer.

Inputs depend only on the seed.  Each pass of a workload is stratified (a
fixed number of terms per depth, of queries per command and per hom-count
stratum), so the work per pass barely moves between seeds and run-to-run
spread reflects the program, not the draw.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Callable

ONE = Fraction(1)
ZERO = Fraction(0)

CHECKS_TABLE = Path(__file__).resolve().parent / "selftest_checks.json"


class SetupError(RuntimeError):
    """The program produced wrong inputs while a workload was being built."""


@dataclass
class Op:
    """One request of a closed loop: a program call and the check of its output.

    `check` returns None when the output is right, otherwise a message.
    `calls` is how many library calls of the measured kind the op makes
    (one eval_term, one apply_hom per element, one CLI query); `maps` is
    the hom count a homs query answers.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    calls: int = 1
    maps: int = 0


# --- reference MV arithmetic on nested-tuple terms --------------------------

REF_OPS = {
    "oplus": lambda a, b: min(a + b, ONE),
    "odot": lambda a, b: max(a + b - ONE, ZERO),
    "meet": min,
    "join": max,
    "implies": lambda a, b: min(ONE - a + b, ONE),
}
SYMBOLS = {"oplus": "(+)", "odot": "(.)", "meet": "/\\", "join": "\\/", "implies": "->"}
BINARY = tuple(REF_OPS)


def ref_eval(t: tuple, env: dict[str, tuple[Fraction, ...]], i: int) -> Fraction:
    """Value of term t at coordinate i, with env giving each variable's coordinates."""
    kind = t[0]
    if kind == "var":
        return env[t[1]][i]
    if kind == "const":
        return Fraction(t[1])
    if kind == "neg":
        return ONE - ref_eval(t[1], env, i)
    return REF_OPS[kind](ref_eval(t[1], env, i), ref_eval(t[2], env, i))


def random_term(rng: random.Random, depth: int, names: tuple[str, ...]) -> tuple:
    """A term whose longest root-to-leaf path has exactly `depth` operators."""
    if depth == 0:
        if rng.random() < 0.1:
            return ("const", rng.randint(0, 1))
        return ("var", rng.choice(names))
    if rng.random() < 0.2:
        return ("neg", random_term(rng, depth - 1, names))
    deep = random_term(rng, depth - 1, names)
    other = random_term(rng, rng.randint(0, depth - 1), names)
    op = rng.choice(BINARY)
    return (op, deep, other) if rng.random() < 0.5 else (op, other, deep)


def term_text(t: tuple) -> str:
    """Fully parenthesised DSL text, so the parser's precedence is not relied on."""
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "const":
        return str(t[1])
    if kind == "neg":
        return "~" + term_text(t[1])
    return f"({term_text(t[1])} {SYMBOLS[kind]} {term_text(t[2])})"


def chain_name(n: int | None) -> str:
    return "Linf" if n is None else f"L{n}"


def chain_values(n: int) -> list[Fraction]:
    return [Fraction(k, n - 1) for k in range(n)]


def chain_inside(n: int | None, m: int | None) -> bool:
    """L_n is a subalgebra of L_m iff (n-1) divides (m-1); everything sits in Linf."""
    if m is None:
        return True
    return n is not None and (m - 1) % (n - 1) == 0


def mult_admissible(target: int | None, source: int | None) -> bool:
    """A point of multiplicity `source` may map to one of multiplicity `target`."""
    if source is None:
        return True
    return target is not None and source % target == 0


def mult_text(m: int | None) -> str:
    return "inf" if m is None else str(m)


# --- selftest-full ---------------------------------------------------------

SUITE_NAMES = {
    "suite_mv_axioms": "mv-axioms",
    "suite_ideals": "ideal-oracle",
    "suite_hom_oracle": "hom-oracle",
    "suite_duality": "duality",
    "suite_eta_epsilon": "eta-epsilon",
    "suite_surjectivity": "surjectivity",
    "suite_lifting": "lifting",
    "suite_separation": "separation",
    "suite_predicates": "predicates",
    "suite_dsl": "dsl",
}


def selftest_plan(seed: int, smoke: bool) -> tuple[str, int, dict[str, int]]:
    """Scale, selftest seed and the recorded per-suite check counts for that seed."""
    table = json.loads(CHECKS_TABLE.read_text())
    scale = "small" if smoke else "full"
    recorded = table[scale]
    st_seed = seed % len(recorded)
    return scale, st_seed, recorded[str(st_seed)]


def selftest_pass(verify, scale: str, st_seed: int, expected: dict[str, int]):
    """Run every suite once; returns (results, list of failure messages)."""
    results = verify.run_all(scale, seed=st_seed)
    failures = []
    for r in results:
        if not r.ok:
            failures.append(f"suite {r.name} failed: {r.failures[:1]}")
        elif r.checks != expected.get(r.name):
            failures.append(
                f"suite {r.name} ran {r.checks} checks, recorded {expected.get(r.name)}"
            )
    if {r.name for r in results} != set(expected):
        failures.append(f"suites {sorted(r.name for r in results)} != {sorted(expected)}")
    return results, failures


# --- algebra-eval ----------------------------------------------------------

SUPERCHAINS = {n: [m for m in range(2, 8) if chain_inside(n, m)] for n in range(2, 8)}
SIZE_BANDS = ((60, 94), (95, 129), (130, 164), (165, 200))
APPLY_BATCH = 16  # elements per timed apply op


def _finite_sizes(rng: random.Random, factors: int, lo: int, hi: int) -> list[int]:
    while True:
        sizes = [rng.randint(2, 7) for _ in range(factors)]
        if lo <= prod(sizes) <= hi:
            return sizes


def algebra_eval_ops(chmv, seed: int, smoke: bool) -> list[list[Op]]:
    """Passes of term evaluations and hom applications over all-finite products.

    Twelve algebras of 60-200 elements: 3, 4 and 5 factors from L2..L7, one
    of each in every size band.  Each algebra gets two seeded continuous homs
    from enumerate_continuous_homs, onto 2, 3 or 4 factors.  Every pass
    applies all of them to every element (timed in batches of APPLY_BATCH)
    and evaluates 24 terms of each depth 3-6 over two or three variables at
    seeded element tuples.  Passes differ only in their terms.
    """
    dsl, duality, algebra = chmv.dsl, chmv.duality, chmv.algebra
    rng = random.Random(f"algebra-eval:{seed}")
    factor_counts, per_depth, n_pass = ((3,), 2, 1) if smoke else ((3, 4, 5), 24, 8)

    pool = []  # (A, program elements)
    apply_ops = []
    for band in SIZE_BANDS[: 1 if smoke else None]:
        for factors in factor_counts:
            sizes = _finite_sizes(rng, factors, *band)
            A = dsl.parse_algebra(" * ".join(chain_name(n) for n in sizes))
            elems = list(algebra.enumerate_elements(A))
            grid = itertools.product(*(chain_values(n) for n in sizes))
            if sorted(e.coords for e in elems) != sorted(grid):
                raise SetupError(f"enumerate_elements of {sizes} is not the coordinate grid")
            pool.append((A, elems))
            for width in (2 + len(pool) % 3, 2 + (len(pool) + 1) % 3):
                target = [rng.choice(SUPERCHAINS[rng.choice(sizes)]) for _ in range(width)]
                B = dsl.parse_algebra(" * ".join(chain_name(m) for m in target))
                h = rng.choice(list(duality.enumerate_continuous_homs(A, B)))
                for i in range(0, len(elems), APPLY_BATCH):
                    apply_ops.append(_apply_op(duality, h, elems[i:i + APPLY_BATCH]))

    def eval_op(t: tuple, A, env) -> Op:
        term = dsl.parse_term(term_text(t))
        ref_env = {v: f.coords for v, f in env.items()}
        expected = tuple(ref_eval(t, ref_env, i) for i in range(len(A.factors)))

        def check(result) -> str | None:
            if tuple(result.coords) != expected:
                return f"{term_text(t)} gave {result.coords}, expected {expected}"
            return None

        return Op("eval", lambda: dsl.eval_term(term, env, A), check)

    passes = []
    for _ in range(n_pass):
        ops = list(apply_ops)
        for depth in range(3, 7):
            for k in range(per_depth):
                A, elems = pool[k % len(pool)]
                names = ("x", "y", "z")[: 2 + k // len(pool) % 2]
                t = random_term(rng, depth, names)
                env = {v: rng.choice(elems) for v in names}
                ops.append(eval_op(t, A, env))
        rng.shuffle(ops)
        passes.append(ops)
    return passes


def _apply_op(duality, h, elems) -> Op:
    # index_map labels are the auto labels x1, x2, ... of the parsed algebras
    sources = [int(x[1:]) - 1 for _, x in h.index_map]
    target_labels = tuple(y for y, _ in h.index_map)
    expected = [tuple(f.coords[p] for p in sources) for f in elems]

    def call():
        return [duality.apply_hom(h, f) for f in elems]

    def check(images) -> str | None:
        for image, want in zip(images, expected):
            if image.coords != want or image.algebra.labels != target_labels:
                return f"apply {dict(h.index_map)} gave {image.coords}, expected {want}"
        return None

    return Op("apply", call, check, calls=len(elems))


# --- cli-queries -----------------------------------------------------------

EVAL_CHAINS = (2, 3, 4, 5, 6, 7, 9, None)
HOM_MULTS = (1, 2, 3, 4, 6, None)
HOM_CHAINS = (2, 3, 4, 5, 7, None)
HOM_MAX = 10 ** 4
HOM_LIST_MAX = 10 ** 3
HOM_POINTS = 4  # source points (multisets) or target factors (algebras) of a homs query


def _random_object(rng: random.Random) -> tuple[str, list[tuple[str, int | None]]]:
    """An algebra ('alg', [(label, n)]) or multiset ('ms', [(label, mult)])."""
    k = rng.randint(1, 6)
    if rng.random() < 0.5:
        return "ms", [(f"p{i}", rng.choice((1, 2, 3, 4, 5, 6, 8, None))) for i in range(k)]
    labels = [f"f{i}" for i in range(k)] if rng.random() < 0.3 else [f"x{i + 1}" for i in range(k)]
    return "alg", [(lbl, rng.choice((2, 3, 4, 5, 7, 9, None))) for lbl in labels]


def _object_text(kind: str, parts: list[tuple[str, int | None]]) -> str:
    if kind == "ms":
        return "{" + ", ".join(f"{lbl}:{mult_text(m)}" for lbl, m in parts) + "}"
    if all(lbl == f"x{i + 1}" for i, (lbl, _) in enumerate(parts)):
        return " * ".join(chain_name(n) for _, n in parts)
    return "[" + ", ".join(f"{lbl}: {chain_name(n)}" for lbl, n in parts) + "]"


def _mults(kind: str, parts) -> list[tuple[str, int | None]]:
    """The dual multiset's points: a factor L(s+1) is a point of multiplicity s."""
    if kind == "ms":
        return parts
    return [(lbl, None if n is None else n - 1) for lbl, n in parts]


def _hom_instance(rng: random.Random, kind: str, goal: float):
    """Source and target parts whose hom count is within a factor 1.4 of goal.

    The count is a product of per-point option counts; each new point is
    drawn among those whose option count keeps the product on course.
    """
    width = min(10, math.ceil(goal ** (1 / HOM_POINTS)))
    while True:
        if kind == "ms":
            # a source point has as many images as target points admissible for it
            fixed = [(f"q{i}", rng.choice(HOM_MULTS)) for i in range(rng.randint(width, 10))]
            labels, choices = "p", HOM_MULTS
            options_of = lambda m: sum(mult_admissible(t, m) for _, t in fixed)  # noqa: E731
        else:
            # a target coordinate reads any source coordinate holding a subchain of it
            fixed = [(f"a{i}", rng.choice(HOM_CHAINS)) for i in range(rng.randint(width, 10))]
            labels, choices = "b", HOM_CHAINS
            options_of = lambda n: sum(chain_inside(s, n) for _, s in fixed)  # noqa: E731
        grown, count = [], 1
        while (count < goal / 1.4 or not grown) and len(grown) < HOM_POINTS:
            need = (goal / count) ** (1 / (HOM_POINTS - len(grown)))
            scored = [(abs(math.log(options_of(c) / need)), c) for c in choices if options_of(c)]
            if not scored:
                break
            best = min(score for score, _ in scored)
            c = rng.choice([c for score, c in scored if score <= best + math.log(1.4)])
            grown.append((f"{labels}{len(grown)}", c))
            count *= options_of(c)
        if goal / 1.4 <= count <= min(goal * 1.4, HOM_MAX) or abs(count - goal) <= 1:
            return (grown, fixed, count) if kind == "ms" else (fixed, grown, count)


def _hom_admissible(kind: str, src, tgt, listed: dict[str, str]) -> bool:
    """Whether a listed map is total and sends every point to an admissible one."""
    if kind == "ms":
        t = dict(tgt)
        return set(listed) == {x for x, _ in src} and all(
            listed[x] in t and mult_admissible(t[listed[x]], m) for x, m in src)
    s = dict(src)
    return set(listed) == {y for y, _ in tgt} and all(
        listed[y] in s and chain_inside(s[listed[y]], n) for y, n in tgt)


def cli_queries_ops(chmv, seed: int, smoke: bool) -> list[list[Op]]:
    """Passes of CLI queries with a fixed command mix per pass.

    Per pass: 24 classify, 20 dual, 24 eval (an eighth of the factors are
    Linf, with rational coordinates), 28 homs in count mode and 4 in list
    mode, alternating multisets and algebras.  Hom counts are log-uniform,
    from 1 to 10^4 in count mode and to 10^3 in list mode, stratified: the
    count-mode goals of one pass cover their range evenly, and so do the
    list-mode goals of all passes together.  Every map has at most
    HOM_POINTS points, so the largest queries, which set the peak memory,
    are alike from seed to seed.
    """
    cli = chmv.cli
    rng = random.Random(f"cli-queries:{seed}")
    scale = 4 if smoke else 1
    n_pass = 1 if smoke else 16

    def query(argv: list[str], check_payload, maps: int = 0) -> Op:
        def call():
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["--format", "json", *argv])
            return code, out.getvalue()

        def check(result) -> str | None:
            code, text = result
            if code != 0:
                return f"{argv} exited {code}"
            doc = json.loads(text)
            if doc.get("status") != "ok":
                return f"{argv} status {doc.get('status')}"
            problem = check_payload(doc["payload"])
            return None if problem is None else f"{argv}: {problem}"

        return Op(argv[0], call, check, maps=maps)

    def classify_op() -> Op:
        kind, parts = _random_object(rng)
        counts: dict = {}
        for _, m in _mults(kind, parts):
            counts[m] = counts.get(m, 0) + 1
        entries = sorted(counts.items(), key=lambda mc: (mc[0] is None, mc[0] or 0))
        want = [{"mult": mult_text(m), "card": str(c)} for m, c in entries]

        def check(payload):
            got = payload["profile"]["entries"]
            return None if got == want else f"profile {got}, expected {want}"

        return query(["classify", _object_text(kind, parts)], check)

    def dual_op() -> Op:
        kind, parts = _random_object(rng)
        if kind == "ms":
            want_text = " * ".join(chain_name(None if m is None else m + 1) for _, m in parts)
            want_obj = {"factors": [
                {"label": lbl, "chain": chain_name(None if m is None else m + 1)} for lbl, m in parts
            ]}
        else:
            points = _mults(kind, parts)
            want_text = "{" + ", ".join(f"{lbl}:{mult_text(m)}" for lbl, m in points) + "}"
            want_obj = {"points": [{"label": lbl, "mult": mult_text(m)} for lbl, m in points]}

        def check(payload):
            if payload["dual"] != want_text or payload["object"] != want_obj:
                return f"dual {payload}, expected {want_text}"
            return None

        return query(["dual", _object_text(kind, parts)], check)

    def eval_op() -> Op:
        k = rng.randint(1, 4)
        chains = [rng.choice(EVAL_CHAINS) for _ in range(k)]
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        t = random_term(rng, rng.randint(2, 5), names)
        env = {}
        for v in names:
            coords = []
            for n in chains:
                if n is None:
                    q = rng.randint(1, 12)
                    coords.append(Fraction(rng.randint(0, q), q))
                else:
                    coords.append(Fraction(rng.randrange(n), n - 1))
            env[v] = tuple(coords)
        env_text = "; ".join(
            f"{v}=(" + ", ".join(str(c) for c in coords) + ")" for v, coords in env.items()
        )
        want = {f"x{i + 1}": ref_eval(t, env, i) for i in range(k)}
        algebra_text = " * ".join(chain_name(n) for n in chains)

        def check(payload):
            got = {lbl: Fraction(v) for lbl, v in payload["coords"].items()}
            return None if got == want else f"coords {got}, expected {want}"

        return query(["eval", term_text(t), "--algebra", algebra_text, "--env", env_text], check)

    def homs_op(kind: str, goal: float, mode: str) -> Op:
        src, tgt, count = _hom_instance(rng, kind, goal)
        if kind == "ms":
            src_text, tgt_text = _object_text("ms", src), _object_text("ms", tgt)
            key = "map"
        else:
            src_text = "[" + ", ".join(f"{l}: {chain_name(n)}" for l, n in src) + "]"
            tgt_text = "[" + ", ".join(f"{l}: {chain_name(n)}" for l, n in tgt) + "]"
            key = "index_map"

        def check(payload):
            if payload["count"] != count:
                return f"count {payload['count']}, expected {count}"
            if mode == "list":
                listed = [tuple(sorted(h[key].items())) for h in payload["homs"]]
                if len(listed) != count or len(set(listed)) != count:
                    return f"listed {len(listed)} maps ({len(set(listed))} distinct), expected {count}"
                if not all(_hom_admissible(kind, src, tgt, dict(m)) for m in listed):
                    return "a listed map breaks the admissibility rule"
            return None

        return query(["homs", src_text, tgt_text, "--mode", mode], check, maps=count)

    def log_goal(k: int, n: int, top: int) -> float:
        """The k-th of n strata of log10(count) in [0, log10(top)]."""
        return top ** ((k + rng.random()) / n)

    n_count, n_list = 28 // scale, 4 // scale
    passes = []
    for p in range(n_pass):
        ops = [classify_op() for _ in range(24 // scale)]
        ops += [dual_op() for _ in range(20 // scale)]
        ops += [eval_op() for _ in range(24 // scale)]
        for j in range(n_count):
            ops.append(homs_op(("ms", "alg")[j % 2], log_goal(j, n_count, HOM_MAX), "count"))
        for j in range(n_list):
            ops.append(homs_op(("ms", "alg")[j % 2],
                               log_goal(j * n_pass + p, n_list * n_pass, HOM_LIST_MAX), "list"))
        rng.shuffle(ops)
        passes.append(ops)
    return passes
