"""Command-line interface.

Commands: classify (structural predicates of an algebra or multiset),
dual (apply the appropriate functor), homs (hom-set enumeration or
counting), eval (evaluate an MV term), selftest (run the verification
suites).  Exit codes: 0 ok, 1 domain or usage error, 2 internal invariant
breach.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import algebra as alg
from . import duality as dual
from . import dsl
from . import multiset as ms
from . import structure as st
from . import verify

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INTERNAL = 2

HOMS_LIST_LIMIT = 10 ** 4  # default --limit: largest hom set that list mode enumerates


@dataclass
class CommandResult:
    status: str  # "ok" or "error"
    payload: object = None
    diagnostics: list[str] = field(default_factory=list)
    text: str | None = None  # what the text format prints; None prints the payload as JSON

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.status == "ok" else EXIT_DOMAIN


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        return Path(text[1:]).read_text().strip()
    return text


def _parse_object(text: str):
    """An algebra or a multiset, told apart by the leading brace."""
    if text.lstrip().startswith("{"):
        return dsl.parse_multiset(text)
    return dsl.parse_algebra(text)


def cmd_classify(args: argparse.Namespace) -> CommandResult:
    obj = _parse_object(_read_arg(args.spec))
    profile = ms.profile_of(obj if isinstance(obj, ms.EMultiset) else dual.H_obj(obj))
    report = {
        "hyperarchimedean": st.is_hyperarchimedean(profile),
        "stone": st.is_stone(profile),
        "projective": st.is_projective(profile),
        "extremally_disconnected": st.is_extremally_disconnected(profile),
        "urysohn_strauss": st.urysohn_strauss_holds(profile),
    }
    report["profile"] = {
        "entries": [{"mult": str(m), "card": str(c)} for m, c in profile.entries]
    }
    return CommandResult("ok", report)


def cmd_dual(args: argparse.Namespace) -> CommandResult:
    obj = _parse_object(_read_arg(args.spec))
    if isinstance(obj, ms.EMultiset):
        out = dual.F_obj(obj)
        shape = " * ".join(str(c) for _, c in out.factors) if out.factors else "[]"
        encoded: object = {"factors": [{"label": lbl, "chain": str(c)} for lbl, c in out.factors]}
    else:
        out = dual.H_obj(obj)
        shape = dsl.render(out)
        encoded = {"points": [{"label": lbl, "mult": str(m)} for lbl, m in out.points]}
    return CommandResult("ok", {"dual": shape, "object": encoded})


def cmd_homs(args: argparse.Namespace) -> CommandResult:
    """Count the maps by the product formula, or list them when there are at most --limit.

    Both modes read one list of admissible choices per coordinate: the count
    is the product of their lengths, and list mode writes each pick as a
    dict in product order (first coordinate slowest), the order of
    enumerate_morphisms and enumerate_continuous_homs.
    """
    a, b = _parse_object(_read_arg(args.src)), _parse_object(_read_arg(args.dst))
    if isinstance(a, ms.EMultiset) != isinstance(b, ms.EMultiset):
        raise ValueError("source and target must both be algebras or both multisets")
    if isinstance(a, ms.EMultiset):
        key, labels, choices = "map", a.labels, ms.admissible_images(a, b)
    else:
        key, labels, choices = "index_map", b.labels, dual.admissible_sources(a, b)
    total = math.prod(map(len, choices))
    if total >= dsl.DIGITS_BOUND:  # too long for Python to print
        raise ValueError(f"the number of maps has more than {dsl.MAX_DIGITS} digits")
    if args.mode != "list":
        return CommandResult("ok", {"count": total})
    if total > args.limit:
        raise ValueError(f"{total} maps exceed --limit {args.limit}; count them with --mode count")
    listing = [{key: dict(zip(labels, pick))} for pick in itertools.product(*choices)]
    return CommandResult("ok", {"count": total, "homs": listing})


# Fraction() also reads exponent notation and builds the power of ten in full,
# so a coordinate such as 1e-999999999 would never return; it is refused first.
_EXPONENT_RE = re.compile(
    r"[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?[eE][-+]?\d+(?:_\d+)*"
)


def _too_long(where: str) -> ValueError:
    return ValueError(f"{where}: numerator or denominator longer than {dsl.MAX_DIGITS} digits")


def _parse_coordinate(text: str, where: str) -> Fraction:
    if _EXPONENT_RE.fullmatch(text):
        raise ValueError(
            f"coordinate {text!r} uses exponent notation; write an integer, p/q or a decimal"
        )
    if any(len(run) > dsl.MAX_DIGITS for run in re.findall(r"\d+", text.replace("_", ""))):
        raise _too_long(where)
    value = Fraction(text)
    if max(abs(value.numerator), value.denominator) >= dsl.DIGITS_BOUND:
        raise _too_long(where)
    return value


def _parse_element(text: str, A: alg.ProductAlgebra, where: str) -> alg.Element:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")] if body else []
    return alg.make_element(A, [_parse_coordinate(p, where) for p in parts])


def cmd_eval(args: argparse.Namespace) -> CommandResult:
    term_text, algebra_text, env_text = _read_arg(args.term), _read_arg(args.algebra), args.env
    A = dsl.parse_algebra(algebra_text)
    term = dsl.parse_term(term_text)
    env = {}
    if env_text:
        for binding in env_text.split(";"):
            name, _, value = binding.partition("=")
            name = name.strip()
            if not value or not name:
                raise ValueError(f"bad binding {binding!r}")
            if name in env:
                raise ValueError(f"bad binding {binding!r}: {name!r} is already bound")
            env[name] = _parse_element(value, A, f"binding {name!r}")
    result = dsl.eval_term(term, env, A)
    for lbl, v in zip(A.labels, result.coords):
        if v.denominator >= dsl.DIGITS_BOUND:  # 0 <= v <= 1: the numerator is no longer
            raise _too_long(f"result at {lbl!r}")
    return CommandResult(
        "ok", {"coords": {lbl: str(v) for lbl, v in zip(A.labels, result.coords)}}
    )


def cmd_selftest(args: argparse.Namespace) -> CommandResult:
    results = verify.run_all(args.scale, seed=args.seed)
    ok = all(r.ok for r in results)
    suites = [
        {"name": r.name, "ok": r.ok, "checks": r.checks, "failures": r.failures[:5]}
        for r in results
    ]
    return CommandResult(
        "ok" if ok else "error",
        {"suites": suites, "ok": ok},
        [r.line() for r in results if not r.ok],
        "\n".join([r.line() for r in results] + ["ok" if ok else "FAILED"]),
    )


_quote = json.encoder.encode_basestring_ascii


def _dumps(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, indent=2, default=str)`, byte for byte, each newline replaced by `pad`.

    Written out for the shapes the commands return (dicts with str keys,
    lists, str, int, bool, None), because before Python 3.13 `indent` sends
    json.dumps to its pure-Python encoder.  Anything else goes to json.dumps.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is list or kind is dict:
        if not obj:
            return "[]" if kind is list else "{}"
        inner = pad + "  "
        if kind is list:
            return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in obj]) + pad + "]"
        items = []
        for k, v in obj.items():
            if type(k) is not str:  # json.dumps spells other keys its own way
                break
            items.append(f"{_quote(k)}: {_quote(v) if type(v) is str else _dumps(v, inner)}")
        else:
            return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(obj, indent=2, default=str).replace("\n", pad)


# From 3.13 the C encoder handles indent and beats _dumps.
_encode = _dumps if sys.version_info < (3, 13) else functools.partial(
    json.dumps, indent=2, default=str
)


def _emit(result: CommandResult, fmt: str) -> None:
    if fmt == "json":
        print(_encode(
            {"status": result.status, "payload": result.payload, "diagnostics": result.diagnostics}
        ))
        return
    if result.text is not None:
        print(result.text)
    elif result.payload is not None:
        print(_encode(result.payload))
    for message in result.diagnostics:
        print(message, file=sys.stderr)


def _nonnegative_int(text: str) -> int:
    """argparse type for --limit."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


class UsageError(ValueError):
    """A command line the parser rejects; the text is the usage line and the message."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print and exit 2; subparsers inherit it."""

    def error(self, message: str):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use, not at import, then shared: parsing never changes it."""
    parser = _Parser(
        prog="chmv",
        description="Products of Lukasiewicz chains, their multiset duals, and structural checks.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural predicates of an algebra or multiset")
    p.add_argument("spec")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("dual", help="dual object under the appropriate functor")
    p.add_argument("spec")
    p.set_defaults(run=cmd_dual)

    p = sub.add_parser("homs", help="enumerate or count morphisms")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--mode", choices=("count", "list"), default="count")
    p.add_argument(
        "--limit",
        type=_nonnegative_int,
        default=HOMS_LIST_LIMIT,
        help="list mode fails (exit 1) above this many maps (default: %(default)s)",
    )
    p.set_defaults(run=cmd_homs)

    p = sub.add_parser("eval", help="evaluate an MV term over a product algebra")
    p.add_argument("term")
    p.add_argument("--algebra", required=True)
    p.add_argument("--env", default="", help='bindings like "x=(1/2, 0); y=(1, 1)"')
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("selftest", help="run the verification suites")
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_selftest)
    return parser


_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, OSError)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if [] in vars(args).values():  # argparse reads the operands "--" "--" as []
            build_parser().error("expected one argument after '--'")
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DOMAIN
    except SystemExit as exc:  # --help printed the help text
        return exc.code
    try:
        result = args.run(args)
    except _DOMAIN_ERRORS as exc:
        result = CommandResult("error", None, [str(exc)])
    except Exception as exc:  # invariant breach
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        _emit(result, args.format)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except OSError:  # e.g. `chmv ... | head` closed the pipe: write nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
