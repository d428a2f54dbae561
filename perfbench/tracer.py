"""Spans around the public names of each chmv module, kept in memory.

The tracer lives in the benchmark, not in the library: `install` replaces
each traced name in every chmv module namespace (and module-level dict)
that holds it, wraps dataclass `__post_init__` to count constructions, and
wraps generators so each `next()` is its own span.  A span records its
name, start, end and parent; self time is the span's duration minus the
time its child spans cover, so recursion (`eval_term`) is counted once.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

from workloads import SUITE_NAMES

# (module, public name, how it is wrapped, span name)
TRACED = [
    ("chain", "check_member", "call", "chain.check_member"),
    ("chain", "mv_op", "call", "chain.mv_op"),
    ("algebra", "Element", "class", "algebra.Element"),
    ("algebra", "pointwise_op", "call", "algebra.pointwise_op"),
    ("algebra", "enumerate_elements", "gen", "algebra.enumerate_elements"),
    ("algebra", "brute_force_homs", "call", "algebra.brute_force_homs"),
    ("algebra", "brute_force_ideals", "call", "algebra.brute_force_ideals"),
    ("multiset", "EMMorphism", "class", "multiset.EMMorphism"),
    ("multiset", "enumerate_morphisms", "gen", "multiset.enumerate_morphisms"),
    ("multiset", "compose_morphisms", "call", "multiset.compose_morphisms"),
    ("duality", "ContinuousHom", "class", "duality.ContinuousHom"),
    ("duality", "check_naturality_eq2", "call", "duality.check_naturality_eq2"),
    ("duality", "sample_elements", "list", "duality.sample_elements"),
    ("duality", "compose_homs", "call", "duality.compose_homs"),
    ("duality", "apply_hom", "call", "duality.apply_hom"),
    ("duality", "enumerate_continuous_homs", "gen", "duality.enumerate_continuous_homs"),
    ("dsl", "parse_algebra", "call", "dsl.parse"),
    ("dsl", "parse_multiset", "call", "dsl.parse"),
    ("dsl", "parse_term", "call", "dsl.parse"),
    ("dsl", "render", "call", "dsl.render"),
    ("dsl", "eval_term", "call", "dsl.eval_term"),
    ("cli", "main", "call", "cli.main"),
] + [("verify", fn, "suite", f"verify.{suite}") for fn, suite in SUITE_NAMES.items()]

MODULES = ("chain", "algebra", "multiset", "duality", "structure", "dsl", "verify", "cli")

# The per-layer table: which metrics each layer reports, and which
# end-to-end metric on which workload a change in that layer should move.
SUITES = list(SUITE_NAMES.values())
LAYERS = [
    ("chain", ["chain.check_member.calls", "chain.check_member.self_s",
               "chain.mv_op.calls", "chain.mv_op.self_s"],
     "algebra-eval pass_s, op_p50_ms; selftest-full pass_s (mv-axioms)"),
    ("algebra", ["algebra.Element.built", "algebra.Element.validate_s",
                 "algebra.pointwise_op.calls", "algebra.pointwise_op.self_s",
                 "algebra.enumerate_elements.items", "algebra.enumerate_elements.self_s",
                 "algebra.brute_force_homs.self_s", "algebra.brute_force_ideals.self_s"],
     "algebra-eval pass_s; oracles -> selftest-full pass_s"),
    ("multiset", ["multiset.EMMorphism.built", "multiset.enumerate_morphisms.items",
                  "multiset.enumerate_morphisms.self_s", "multiset.compose_morphisms.calls",
                  "multiset.compose_morphisms.self_s"],
     "selftest-full pass_s; cli-queries op_p99_ms"),
    ("duality", ["duality.ContinuousHom.built", "duality.check_naturality_eq2.calls",
                 "duality.check_naturality_eq2.self_s", "duality.sample_elements.items",
                 "duality.sample_elements.self_s", "duality.compose_homs.self_s",
                 "duality.apply_hom.calls", "duality.apply_hom.self_s",
                 "duality.enumerate_continuous_homs.items",
                 "duality.enumerate_continuous_homs.self_s"],
     "eq2/sampling -> selftest-full pass_s only; apply_hom -> algebra-eval; "
     "enumeration -> cli-queries op_p99_ms"),
    ("structure", ["structure.self_s", "structure.is_surjective_hom.calls"],
     "cli-queries op_p50_ms (classify); selftest-full pass_s"),
    ("dsl", ["dsl.parse.calls", "dsl.parse.self_s", "dsl.render.calls", "dsl.render.self_s",
             "dsl.eval_term.calls", "dsl.eval_term.self_s"],
     "parse/render -> cli-queries op_p50_ms; eval_term -> algebra-eval pass_s"),
    ("verify", [f"verify.{s}.{k}" for s in SUITES for k in ("s", "checks")],
     "selftest-full pass_s"),
    ("cli", ["cli.main.calls", "cli.main.self_s"],
     "cli-queries op_p50_ms, pass_s"),
    ("trace", ["trace.untraced_s", "trace.traced_s", "trace.overhead_s", "trace.spans"],
     "nothing: the cost of tracing itself"),
]
METRICS = [m for _, names, _ in LAYERS for m in names]


def unit_of(metric: str) -> str:
    return "s" if metric.endswith(("_s", ".s")) else "count"


class Tracer:
    """Span log in parallel arrays (name id, parent index, start, end)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap_call(self, fn, name: str, on_result=None):
        nid = self._id(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_gen(self, fn, name: str):
        step = self.wrap_call(next, name)
        counts = self.counts
        items = f"{name}.items"

        def iterate(gen):
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                counts[items] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return iterate(fn(*args, **kwargs))

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        n = len(self.start)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        covered = array("d", bytes(8 * n))
        for p, d in zip(self.parent, dur):
            if p >= 0:
                covered[p] += d
        calls, total, own = Counter(), Counter(), Counter()
        for nid, d, c in zip(self.name_of, dur, covered):
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - c
        return {
            self.names[i]: {"calls": calls[i], "total": total[i], "self": own[i]}
            for i in calls
        }

    def dump(self, path: Path) -> None:
        """Write the span log: a JSON header line, then the four arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name_of:H", "parent:i", "start:d", "end:d"]}
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(tracer: Tracer, chmv) -> None:
    """Wrap every traced name wherever a chmv module (or its dicts) holds it."""
    modules = [chmv] + [getattr(chmv, m) for m in MODULES]

    def replace(orig, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if item is orig:
                            value[key] = wrapped

    def count_items(name):
        return lambda result: tracer.counts.update({f"{name}.items": len(result)})

    def count_checks(name):
        return lambda result: tracer.counts.update({f"{name}.checks": result.checks})

    traced = list(TRACED)
    structure = chmv.structure
    for attr, value in vars(structure).items():
        if inspect.isfunction(value) and value.__module__ == structure.__name__ \
                and not attr.startswith("_"):
            traced.append(("structure", attr, "call", f"structure.{attr}"))

    for module, attr, kind, name in traced:
        orig = getattr(getattr(chmv, module), attr)
        if kind == "class":
            orig.__post_init__ = tracer.wrap_call(orig.__post_init__, name)
            continue
        if kind == "gen":
            wrapped = tracer.wrap_gen(orig, name)
        elif kind == "list":
            wrapped = tracer.wrap_call(orig, name, count_items(name))
        elif kind == "suite":
            wrapped = tracer.wrap_call(orig, name, count_checks(name))
        else:
            wrapped = tracer.wrap_call(orig, name)
        replace(orig, wrapped)


def layer_metrics(spans: dict[str, dict[str, float]], counts: Counter) -> dict[str, float]:
    """The per-layer metrics named in LAYERS, from aggregated spans and counters."""
    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for metric in METRICS:
        if metric.startswith("trace."):
            continue
        base, _, suffix = metric.rpartition(".")
        if suffix == "calls":
            out[metric] = get(base, "calls")
        elif suffix == "self_s":
            if base == "structure":
                out[metric] = sum(v["self"] for k, v in spans.items() if k.startswith("structure."))
            else:
                out[metric] = get(base, "self")
        elif suffix == "built":
            out[metric] = get(base, "calls")
        elif suffix == "validate_s":
            out[metric] = get(base, "total")
        elif suffix == "s":
            out[metric] = get(base, "total")
        else:  # items, checks
            out[metric] = counts.get(metric, 0)
    return out
