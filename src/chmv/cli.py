"""Command-line interface.

Commands: classify (structural predicates of an algebra or multiset),
dual (apply the appropriate functor), homs (hom-set enumeration or
counting), eval (evaluate an MV term), selftest (run the verification
suites).  Exit codes: 0 ok, 1 domain or usage error, 2 internal invariant
breach.

The grammar is declared once, in the COMMANDS table.  Two readers share it:
_recognize turns a command line of the plain shape (`--opt value` pairs,
operands that do not start with '-') straight into the Namespace, and
build_parser makes the argparse parser that handles everything else: help,
usage errors and other spellings such as `--opt=value` or abbreviations.
argparse is built only when a command line needs it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

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
        with open(text[1:]) as f:
            return f.read().strip()
    return text


def cmd_classify(args: argparse.Namespace) -> CommandResult:
    obj = dsl.parse_object(_read_arg(args.spec))
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
    obj = dsl.parse_object(_read_arg(args.spec))
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
    enumerate_morphisms and enumerate_continuous_homs, through a _Listing.
    """
    a, b = dsl.parse_object(_read_arg(args.src)), dsl.parse_object(_read_arg(args.dst))
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
    return CommandResult("ok", {"count": total, "homs": _Listing(key, labels, choices)})


def cmd_eval(args: argparse.Namespace) -> CommandResult:
    term_text, algebra_text = _read_arg(args.term), _read_arg(args.algebra)
    A = dsl.parse_algebra(algebra_text)
    result = dsl.eval_term(dsl.parse_term(term_text), dsl.parse_env(args.env, A), A)
    for lbl, v in zip(A.labels, result.coords):
        if v.denominator >= dsl.DIGITS_BOUND:  # 0 <= v <= 1: the numerator is no longer
            raise ValueError(f"result at {lbl!r}: {dsl.TOO_LONG}")
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


class _Listing:
    """The maps of list mode, `[{key: dict(zip(labels, pick))} for pick in product(*choices)]`.

    _dumps writes it without building those dicts: every entry has the same
    labels in the same order, so each `"label": "choice"` piece is quoted once,
    the pieces after the first label's are joined once per pick of them, and
    the maps that share a first piece are written by one join of those suffixes.
    """

    __slots__ = ("key", "labels", "choices")

    def __init__(self, key: str, labels: tuple[str, ...], choices: list[list[str]]) -> None:
        self.key, self.labels, self.choices = key, labels, choices

    def write(self, pad: str, out: list[str]) -> None:
        """Append to out what _dumps writes for the materialised list at `pad`."""
        entry, inner, innermost = pad + "  ", pad + "    ", pad + "      "
        head = "{" + inner + _quote(self.key) + ": "
        if not self.labels:  # one map, the empty one
            out.append("[" + entry + head + "{}" + entry + "}" + pad + "]")
            return
        first, *rest = [
            [f"{',' + innermost if i else ''}{_quote(label)}: {_quote(c)}" for c in cs]
            for i, (label, cs) in enumerate(zip(self.labels, self.choices))
        ]
        suffixes = ["".join(pick) for pick in itertools.product(*rest)]
        if not (first and suffixes):
            out.append("[]")
            return
        start, end = head + "{" + innermost, inner + "}" + entry + "}"  # around each map's pieces
        between = end + "," + entry + start
        maps = between.join([p + (between + p).join(suffixes) for p in first])
        out += ("[" + entry + start, maps, end + pad + "]")


def _dumps(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, each newline replaced by `pad`.

    Written out for the shapes the commands return: dicts with str keys,
    lists, str, int, bool, None, and list mode's _Listing, written as its
    list of dicts.  `indent` sends json.dumps to its pure-Python encoder
    before Python 3.13, and the C encoder would need a `default` hook to
    expand a _Listing, so this is the one emitter for every version.  Any
    other type, or a key that is no str, raises TypeError.  _write puts the
    pieces in one list, joined once here, so a listing's text is copied
    once, not once per level of nesting.
    """
    out: list[str] = []
    _write(obj, pad, out)
    return "".join(out)


def _write(obj, pad: str, out: list[str]) -> None:
    """Append the pieces of _dumps(obj, pad) to out."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif kind is _Listing:
        obj.write(pad, out)
    elif (kind is list or kind is dict) and not obj:
        out.append("[]" if kind is list else "{}")
    elif kind is list:
        inner = pad + "  "
        sep = "[" + inner
        for v in obj:
            if type(v) is str:
                out.append(sep + _quote(v))
            else:
                out.append(sep)
                _write(v, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif kind is dict:
        inner = pad + "  "
        sep = "{" + inner
        for k, v in obj.items():  # _quote raises TypeError for a key that is no str
            if type(v) is str:
                out.append(f"{sep}{_quote(k)}: {_quote(v)}")
            else:
                out.append(f"{sep}{_quote(k)}: ")
                _write(v, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _emit(result: CommandResult, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(
            {"status": result.status, "payload": result.payload, "diagnostics": result.diagnostics}
        ))
        return
    if result.text is not None:
        print(result.text)
    elif result.payload is not None:
        print(_dumps(result.payload))
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


@dataclass(frozen=True)
class _Option:
    """A `--flag value` option, in argparse's add_argument terms; its dest is the flag's name."""

    flag: str
    default: object = None
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None
    dest: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dest", self.flag[2:].replace("-", "_"))

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            self.flag, dest=self.dest, default=self.default, type=self.type,
            choices=self.choices, required=self.required, help=self.help,
        )

    def convert(self, text: str):
        """What argparse stores for `flag text`, or None where argparse would not take it."""
        if text.startswith("-"):
            return None
        try:
            value = text if self.type is None else self.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        return value if self.choices is None or value in self.choices else None


@dataclass(frozen=True)
class _Command:
    """One subcommand: what runs it, its help line, its positional arguments and its options."""

    run: Callable[[argparse.Namespace], CommandResult]
    help: str
    operands: tuple[str, ...]  # the dests of the positional arguments, in order
    options: tuple[_Option, ...] = ()


FORMAT = _Option("--format", "text", choices=("text", "json"))

COMMANDS = {
    "classify": _Command(
        cmd_classify, "structural predicates of an algebra or multiset", ("spec",)
    ),
    "dual": _Command(cmd_dual, "dual object under the appropriate functor", ("spec",)),
    "homs": _Command(cmd_homs, "enumerate or count morphisms", ("src", "dst"), (
        _Option("--mode", "count", choices=("count", "list")),
        _Option("--limit", HOMS_LIST_LIMIT, _nonnegative_int,
                help="list mode fails (exit 1) above this many maps (default: %(default)s)"),
    )),
    "eval": _Command(cmd_eval, "evaluate an MV term over a product algebra", ("term",), (
        _Option("--algebra", required=True),
        _Option("--env", "", help='bindings like "x=(1/2, 0); y=(1, 1)"'),
    )),
    "selftest": _Command(cmd_selftest, "run the verification suites", (), (
        _Option("--scale", "small", choices=("small", "full")),
        _Option("--seed", 0, int),
    )),
}


def _recognize(argv: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) for a command line of the plain shape, else None.

    The plain shape: an optional leading `--format F`, a command name, then the
    command's operands, exactly as many as it has, and each of its options at
    most once as the two tokens `--opt value`, in any order, with every
    required option present.  Only the option names start with '-', and each
    value passes its option's converter and choices.  Every other command line
    (help, `--opt=value`, abbreviations, `--`, usage errors) is argparse's.
    """
    fmt, start = FORMAT.default, 0
    if len(argv) > 1 and argv[0] == FORMAT.flag:
        fmt, start = FORMAT.convert(argv[1]), 2
    command = COMMANDS.get(argv[start]) if len(argv) > start else None
    if fmt is None or command is None:
        return None
    values = {FORMAT.dest: fmt, "command": argv[start]}
    operands, unseen = [], {option.flag: option for option in command.options}
    tokens = iter(argv[start + 1:])
    for token in tokens:
        if not token.startswith("-"):
            operands.append(token)
            continue
        option = unseen.pop(token, None)  # None also for an option given twice
        if option is None:
            return None
        value = values[option.dest] = option.convert(next(tokens, "-"))  # "-": no value left
        if value is None:
            return None
    if len(operands) != len(command.operands):
        return None
    for option in unseen.values():
        if option.required:
            return None
        values[option.dest] = option.default
    values.update(zip(command.operands, operands))
    return argparse.Namespace(**values, run=command.run)


class UsageError(ValueError):
    """A command line the parser rejects; the text is the usage line and the message."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print and exit 2; subparsers inherit it."""

    def error(self, message: str):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse reading of COMMANDS.

    Built on first use, not at import, then shared: parsing never changes it.
    """
    parser = _Parser(
        prog="chmv",
        description="Products of Lukasiewicz chains, their multiset duals, and structural checks.",
    )
    FORMAT.add_to(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for operand in command.operands:
            p.add_argument(operand)
        for option in command.options:
            option.add_to(p)
        p.set_defaults(run=command.run)
    return parser


_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, OSError)


def main(argv: list[str] | None = None) -> int:
    args = _recognize(sys.argv[1:] if argv is None else argv)
    if args is None:
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
