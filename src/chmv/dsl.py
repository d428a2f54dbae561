"""Line-oriented ASCII grammars for algebras, multisets, and MV terms.

Algebras: "L2 * L3" (labels auto-assigned x1, x2, ...) or the labelled
form "[a: L2, b: Linf]"; "[]" is the one-element algebra.
Multisets: "{a:2, b:inf}".
Bindings of elements of an algebra (chmv eval --env): "x=(1/2, 0.25); y=(1, 0)";
each coordinate is an optional sign, then an integer, p/q or a decimal.
Terms: constants 0 and 1, identifiers, "~" for negation, "(+)" truncated
sum, "(.)" the dual product, "/\\" meet, "\\/" join, "->" implication;
precedence from tightest to loosest is ~, (.), (+), /\\, \\/, ->, all
binaries left-associative.

Objects and terms have one reader each: one pass over the text's tokens,
which reads a text of any length and places every ParseError.  _read reads
algebras and multisets; parse_term, an operator-precedence pass, reads terms.
Term nodes are checked when built, so eval_term and render trust every node.
The readers check each token once, as they read it, and build what they read
through trusted builders, which skip the constructors' second look at the
same labels and values (a term node's height is still computed by its rule).

A ParseError carries the character offset of the offending token in the
input text.  The readers hold the tokens as plain strings, so the offset is
found only when an error is raised, by scanning the text again.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import types
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .algebra import AlgebraError, Element, ProductAlgebra, _trusted_element
from .chain import _LABEL, MV_KERNELS, ChainSize, LINF, _is_label
from .multiset import EMultiset, INF, Mult


class ParseError(ValueError):
    """Syntax or well-formedness error, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariableError(ValueError):
    pass


# The lexical fragments, each written once (chain._LABEL, which algebras and
# multisets check their labels by, too): the tokenizer and the coordinate
# pattern are compiled from them, the binary operators listed from loosest to
# tightest.  A token that starts with one of _LABEL_START is a whole _LABEL.
_DIGIT = "[0-9]"  # ASCII only: \d also reads other scripts' digits
_LABEL_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCTUATION = "~()[]{}:,*"
_BINARY_LEVELS = [("implies", "->"), ("join", "\\/"), ("meet", "/\\"),
                  ("oplus", "(+)"), ("odot", "(.)")]
_TOKEN_RE = re.compile("|".join([re.escape(symbol) for _, symbol in _BINARY_LEVELS]
                                + [f"[{re.escape(_PUNCTUATION)}]", _LABEL, r"\d+", r"\S"]))
_END = "unexpected end of input"


def _token_start(text: str, index: int) -> int:
    """The character offset of token number index of text, or len(text) past the last."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), index, None), None)
    return len(text) if m is None else m.start()


def _check_characters(text: str, tokens: list[str]) -> None:
    """Raise ParseError at the first token of text that is no character of the DSL."""
    for t in dict.fromkeys(tokens):  # each token once, in the order it first occurs
        if len(t) == 1 and not (t.isalnum() or t in _PUNCTUATION or t == "_"):
            index = tokens.index(t)  # the first bad token: equal tokens are equally bad
            raise ParseError(f"unexpected character {t!r}", _token_start(text, index))


# Python reads and prints integers below 10^4300 (the default of
# sys.set_int_max_str_digits); cli's eval and homs refuse larger results too.
# A chain size n prints as Ln and, in its dual, as the multiplicity n - 1; a
# multiplicity m as m and as the chain L(m+1).  So chain sizes are refused from
# DIGITS_BOUND on and multiplicities from DIGITS_BOUND - 1 on: the dual of every
# accepted object prints and parses back.
MAX_DIGITS = 4300
DIGITS_BOUND = 10 ** MAX_DIGITS
_MULT_BOUND = DIGITS_BOUND - 1  # once: a 4,300-digit subtraction outweighs a cold read
_CHAIN_LIMIT = f"chain size must be below 10^{MAX_DIGITS}"
_MULT_LIMIT = f"multiplicity must be below 10^{MAX_DIGITS} - 1"
TOO_LONG = f"numerator or denominator longer than {MAX_DIGITS} digits"


def _below(digits: str, bound: int, message: str) -> int:
    """The value of a run of ASCII digits below bound; else raises ValueError(message).

    Chain sizes, multiplicities and coordinates read their numbers here.
    Leading zeros are dropped first, as int() counts them against its limit.
    """
    digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) <= MAX_DIGITS else bound
    if value >= bound:
        raise ValueError(message)
    return value


# The value readers of _read: each takes one token, and raises ValueError if
# it is none.  Their values are immutable, so they are cached per token.
@lru_cache(maxsize=1024)
def _chain(tok: str) -> ChainSize:
    if tok == "Linf":
        return LINF
    digits = tok[1:]
    if tok[:1] != "L" or not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"expected a chain like L3 or Linf, found {tok!r}")
    return ChainSize(_below(digits, DIGITS_BOUND, _CHAIN_LIMIT))


@lru_cache(maxsize=1024)
def _mult(tok: str) -> Mult:
    if tok == "inf":
        return INF
    if not (tok.isascii() and tok.isdecimal()):  # \d+ also reads other scripts' digits
        raise ValueError(f"expected a multiplicity or 'inf', found {tok!r}")
    m = _below(tok, _MULT_BOUND, _MULT_LIMIT)
    if m < 1:
        raise ValueError("multiplicity must be at least 1")
    return m


def _read(text: str, value: Callable[[str], object], brackets: str, build: Callable,
          product: bool = False) -> ProductAlgebra | EMultiset:
    """build(the entries of text), read in one pass over its tokens.

    The text is `open label: v, ... close`, with open and close the two
    brackets, or, if product and it does not start with open, `v * v * ...`,
    labelled x1, x2, ...; value, a reader under lru_cache, reads the token of
    each v, past its cache in a text over 100 characters.  build is the
    trusted builder of the class, which checks only that no label repeats.
    An error is raised at the token being read, as "unexpected end of input"
    at the end, after any bad character of text.  A text read to its end
    holds none: each of its tokens was read as a label, a value or a
    bracket, ":", "," or "*".  A label that repeats an earlier one is
    reported at its position.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end of the text
    open, close = brackets
    if len(text) > 100:  # a full cache keeps no token longer than 100 characters
        value = value.__wrapped__
    entries = []
    i = 0  # the token being read
    try:
        if product and tokens[0] != open:
            while True:
                entries.append((f"x{len(entries) + 1}", value(tokens[i])))
                i += 1
                if tokens[i] != "*":
                    break
                i += 1
        else:
            if tokens[0] != open:
                raise ValueError(f"expected {open!r}, found {tokens[0]!r}")
            i = 1
            if tokens[1] != close:
                while True:
                    label = tokens[i]
                    if label[:1] not in _LABEL_START:
                        raise ValueError(f"expected a label, found {label!r}")
                    i += 1
                    if tokens[i] != ":":
                        raise ValueError(f"expected ':', found {tokens[i]!r}")
                    i += 1
                    entries.append((label, value(tokens[i])))
                    i += 1
                    if tokens[i] != ",":
                        break
                    i += 1
            if tokens[i] != close:
                raise ValueError(f"expected {close!r}, found {tokens[i]!r}")
            i += 1
        if tokens[i]:
            raise ValueError(f"trailing input {tokens[i]!r}")
    except ValueError as exc:
        _check_characters(text, tokens)
        raise ParseError(str(exc) if tokens[i] else _END, _token_start(text, i)) from None
    try:
        return build(entries)
    except ValueError as exc:  # a repeated label
        raise ParseError(str(exc), _repeated_label(text, entries)) from None


def _repeated_label(text: str, entries) -> int:
    """The position in text of the first label that repeats an earlier one, 0 if none does."""
    seen = set()
    for i, (label, _) in enumerate(entries):
        if label in seen:
            return _token_start(text, 1 + 4 * i)
        seen.add(label)
    return 0


def parse_algebra(text: str) -> ProductAlgebra:
    """The algebra `L2 * L3` or `[a: L2, b: Linf]`; ParseError if text is neither."""
    return _read(text, _chain, "[]", ProductAlgebra._trusted, product=True)


def parse_multiset(text: str) -> EMultiset:
    """The multiset `{a:2, b:inf}`; ParseError if text is not one."""
    return _read(text, _mult, "{}", EMultiset._trusted)


def parse_object(text: str) -> ProductAlgebra | EMultiset:
    """An algebra or a multiset, told apart by the leading brace."""
    if text.lstrip().startswith("{"):
        return parse_multiset(text)
    return parse_algebra(text)


# --- bindings ---------------------------------------------------------------

# A coordinate is an optional sign, then an integer, p/q or a decimal, in ASCII
# digits: the same on every Python version, whose Fraction() grammars differ
# (underscores from 3.11, blanks around '/' from 3.12).
_COORDINATE_RE = re.compile(rf"([-+]?)(?=\.?{_DIGIT})({_DIGIT}*)(?:/({_DIGIT}+)|\.({_DIGIT}*))?")

# Exponent notation, which Fraction() reads, gets its own message.
_EXPONENT_RE = re.compile(
    r"[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?[eE][-+]?\d+(?:_\d+)*"
)


def _parse_coordinate(text: str) -> Fraction:
    """The coordinate's value: w.d reads as wd/10^len(d), without d's trailing zeros.

    A numerator below 10^MAX_DIGITS leaves over 10^(len(d) - MAX_DIGITS) of
    10^len(d) in the lowest-terms denominator, so from len(d) = 2 * MAX_DIGITS
    on the decimal is too long before the power is taken.
    """
    m = _COORDINATE_RE.fullmatch(text)
    if m is None:
        if not text.isascii() and any(ch.isdecimal() for ch in text):
            raise ValueError(f"coordinate {text!r} has a non-ASCII digit")
        if _EXPONENT_RE.fullmatch(text):
            raise ValueError(
                f"coordinate {text!r} uses exponent notation; write an integer, p/q or a decimal"
            )
        raise ValueError(f"coordinate {text!r} is not an integer, p/q or a decimal")
    sign, whole, den, decimals = m.groups("")
    decimals = decimals.rstrip("0")
    num = _below(whole + decimals, DIGITS_BOUND, TOO_LONG)
    if len(decimals) >= 2 * MAX_DIGITS:
        raise ValueError(TOO_LONG)
    q = _below(den, DIGITS_BOUND, TOO_LONG) if den else 10 ** len(decimals)
    if not q:
        raise ValueError(f"zero denominator in {text!r}")
    value = Fraction(-num if sign == "-" else num, q)
    if value.denominator >= DIGITS_BOUND:  # only 10^len(d) can reach it; no numerator tops num
        raise ValueError(TOO_LONG)
    return value


def parse_env(text: str, A: ProductAlgebra) -> dict[str, Element]:
    """The bindings `x=(c1, ..., cn); y=(...)` of elements of A, each name once; none for "".

    Every error about the element bound to x starts with `binding 'x': `."""
    env = {}
    for binding in text.split(";") if text else ():
        name, _, value = binding.partition("=")
        name = name.strip()
        if not value or not name:
            raise ValueError(f"bad binding {binding!r}")
        if not _is_label(name):
            raise ValueError(f"bad binding {binding!r}: {name!r} is not a label")
        if name in env:
            raise ValueError(f"bad binding {binding!r}: {name!r} is already bound")
        body = value.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        parts = [p.strip() for p in body.split(",")] if body else []
        try:
            env[name] = Element(A, [_parse_coordinate(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"binding {name!r}: {exc}") from None
    return env


# --- terms ------------------------------------------------------------------

# The one rule on the size of a term: every Term is at most MAX_TERM_DEPTH high
# (nodes on its longest path), checked as each node is built.  It keeps render,
# the evaluation walk and the parentheses of a compiled program far below the
# interpreter's recursion and nesting limits.  Parentheses in a text are free.
MAX_TERM_DEPTH = 100
_TOO_DEEP = f"term nests deeper than {MAX_TERM_DEPTH} levels"


def _height(kind: str, below: int) -> int:
    """The height of a node of class kind, one more than below, its highest child's.

    The one height rule, which the constructors of Neg and BinOp and the
    trusted builds of parse_term share: ValueError naming the class if the
    height tops MAX_TERM_DEPTH.
    """
    if below >= MAX_TERM_DEPTH:
        raise ValueError(f"{kind} must be at most {MAX_TERM_DEPTH} high, not {below + 1}")
    return below + 1


class Term:
    """Abstract syntax of an MV term.

    The nodes are frozen dataclasses, checked when built: a bare Term, a node
    parse_term never builds and a node higher than MAX_TERM_DEPTH raise
    ValueError, naming the class.  Neither height nor the _program slot takes
    part in equality, hashing or repr.  eval_term sets _program on the root it
    evaluates (False after the first evaluation, then the compiled program);
    no copy or pickle carries it.
    """

    __slots__ = ("_program",)
    height = 1  # a leaf's: Neg and BinOp compute theirs when built

    def __init__(self) -> None:
        raise ValueError("Term is abstract: build a Const, Var, Neg or BinOp")


@dataclass(frozen=True, slots=True)
class Const(Term):
    value: int  # 0 or 1

    def __post_init__(self) -> None:
        if type(self.value) is not int or self.value not in (0, 1):  # refuses a bool
            raise ValueError(f"Const.value must be the int 0 or 1, not {self.value!r}")


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str

    def __post_init__(self) -> None:
        if type(self.name) is not str or not _is_label(self.name):
            raise ValueError(f"Var.name must be a label, not {self.name!r}")


@dataclass(frozen=True, slots=True)
class Neg(Term):
    arg: Term
    height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.arg, Term):
            raise ValueError(f"Neg.arg must be a Term, not {self.arg!r}")
        object.__setattr__(self, "height", _height("Neg", self.arg.height))


@dataclass(frozen=True, slots=True)
class BinOp(Term):
    op: str  # oplus, odot, meet, join, implies
    left: Term
    right: Term
    height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.op) is not str or self.op not in MV_KERNELS:
            raise ValueError(f"BinOp.op must be a key of MV_KERNELS, not {self.op!r}")
        if not isinstance(self.left, Term):
            raise ValueError(f"BinOp.left must be a Term, not {self.left!r}")
        if not isinstance(self.right, Term):
            raise ValueError(f"BinOp.right must be a Term, not {self.right!r}")
        below = max(self.left.height, self.right.height)
        object.__setattr__(self, "height", _height("BinOp", below))


# parse_term's builds, which skip every check of __post_init__ but the height
# rule: a token that starts with one of _LABEL_START is a whole _LABEL, a
# constant token is "0" or "1", each op is read from _BINARY_LEVELS, and every
# operand is a node that parse_term built.
_new = object.__new__
_set_value, _set_name, _set_arg = Const.value.__set__, Var.name.__set__, Neg.arg.__set__
_set_op, _set_left, _set_right = BinOp.op.__set__, BinOp.left.__set__, BinOp.right.__set__
_set_neg_height, _set_binop_height = Neg.height.__set__, BinOp.height.__set__


def _trusted_const(value: int) -> Const:
    node = _new(Const)
    _set_value(node, value)
    return node


def _trusted_var(name: str) -> Var:
    node = _new(Var)
    _set_name(node, name)
    return node


def _trusted_neg(arg: Term) -> Neg:
    node = _new(Neg)
    _set_arg(node, arg)
    _set_neg_height(node, _height("Neg", arg.height))
    return node


def _trusted_binop(op: str, left: Term, right: Term) -> BinOp:
    node = _new(BinOp)
    _set_op(node, op)
    _set_left(node, left)
    _set_right(node, right)
    lh, rh = left.height, right.height
    _set_binop_height(node, _height("BinOp", lh if lh > rh else rh))
    return node


_LEVEL_OF = {symbol: (level, op) for level, (op, symbol) in enumerate(_BINARY_LEVELS)}
_SYMBOL_OF = {op: (level, symbol) for level, (op, symbol) in enumerate(_BINARY_LEVELS)}

# What waits on parse_term's operator stack besides the binaries: a "(", with
# the index of its token, and a "~", both below every binary level
_NOT = (-1, "~", 0)


def parse_term(text: str) -> Term:
    """Parse a term at most MAX_TERM_DEPTH high, else raise ParseError.

    One operator-precedence (shunting-yard) pass: operands wait on `out`,
    one Var per name, and `ops` holds the waiting "(", "~" and binaries,
    each "(" and binary with its token's index.  A binary first joins the
    waiting binaries of its level or tighter, so chains associate to the
    left; a "~" waits until its operand is complete.

    A bad character anywhere is reported first.  Parentheses nest freely:
    the only size rule is the height of the nodes, so a node too high is
    reported at once, at its token: the operand of a run of negations, or
    the operator that lengthens a chain.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end of the text
    out: list[Term] = []
    ops = [(-1, "(", 0)]  # never popped: it stands for the whole text
    names: dict[str, Var] = {}
    operand = True  # whether an operand comes next
    for i, tok in enumerate(tokens):
        if operand:
            if tok == "~":
                ops.append(_NOT)
                continue
            if tok == "(":
                ops.append((-1, "(", i))
                continue
            if tok[:1] in _LABEL_START:  # such a token is a whole _LABEL
                out.append(names.get(tok) or names.setdefault(tok, _trusted_var(tok)))
            elif tok == "0" or tok == "1":
                out.append(_trusted_const(int(tok)))
            else:
                raise _term_error(text, tokens, f"expected a term, found {tok!r}" if tok else _END, i)
            start = i  # of the complete operand
        else:
            entry = _LEVEL_OF.get(tok)
            level = 0 if entry is None else entry[0]  # ")" and the end join every binary
            while ops[-1][0] >= level:
                _, op, at = ops.pop()
                try:  # out[-2] is read before the pop: the left operand, then the right
                    out[-1] = _trusted_binop(op, out[-2], out.pop())
                except ValueError:  # too high: the one check such a node can fail
                    raise _term_error(text, tokens, _TOO_DEEP, at) from None
            if entry is not None:
                ops.append((level, entry[1], i))
                operand = True
                continue
            if len(ops) == 1:  # no "(" waits
                if tok:
                    raise _term_error(text, tokens, f"trailing input {tok!r}", i)
                break
            if tok != ")":
                raise _term_error(text, tokens, f"expected ')', found {tok!r}" if tok else _END, i)
            start = ops.pop()[2]
        while ops[-1] is _NOT:  # their operand, from token start on, is complete
            ops.pop()
            try:
                out[-1] = _trusted_neg(out[-1])
            except ValueError:  # too high
                raise _term_error(text, tokens, _TOO_DEEP, start) from None
        operand = False
    return out[0]


def _term_error(text: str, tokens: list[str], message: str, index: int) -> ParseError:
    """The ParseError of a term at token index; a bad character in text raises first."""
    _check_characters(text, tokens)
    return ParseError(message, _token_start(text, index))


_fraction = lru_cache(maxsize=1024)(Fraction)  # eval_term's root values recur; immutable


def eval_term(t: Term, env: dict[str, Element], A: ProductAlgebra) -> Element:
    """Evaluate on integer numerators: interpret t the first time, then compile it.

    Coordinate k gets one denominator D_k: n - 1 when factor k is L_n, and
    the lcm of the denominators at k of the bindings in env that live in A
    when it is Linf.  Each binding that lives in A is written once as
    numerators over the D_k.  This is exact: a binding is a validated
    Element, so its coordinate in L_n lies on the grid of multiples of
    1/(n - 1), and D_k is a multiple of its denominator; the operations act
    on each coordinate alone, 0 and 1 are 0/D_k and D_k/D_k, and each kernel
    of chain.MV_KERNELS, like negation D_k - a, only adds, subtracts and
    compares integers, so it takes numerators over D_k to one over D_k.
    Fractions are built at the root.  The leftmost variable that is unbound,
    or bound outside A, raises.

    The first evaluation of a Term object walks it by structural recursion.
    The second compiles it (_compile) into one loop over the coordinates that
    runs the same kernels, and that and every later evaluation run the
    compiled program over the same numerators; its variables are checked
    first, leftmost first, so it raises what the walk raises.  The nodes
    were checked when built: only the root's class is checked here, and
    the class of each binding only once reading one has failed.
    """
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    try:
        bound = {x: e.coords for x, e in env.items() if e.algebra is A or e.algebra == A}
    except AttributeError:
        for x, e in env.items():
            if not isinstance(e, Element):
                raise TypeError(f"binding for {x!r} is not an Element: {e!r}") from None
        raise
    dens = tuple([
        c.n - 1 if c.n is not None else math.lcm(*[v[k].denominator for v in bound.values()])
        for k, (_, c) in enumerate(A.factors)
    ])
    nums = {x: tuple([v.numerator * (d // v.denominator) for v, d in zip(c, dens)])
            for x, c in bound.items()}

    program = getattr(t, "_program", None)
    if not program:  # unset: the first evaluation walks t; False: the second compiles it
        program = program is not None and _compile(t)
        object.__setattr__(t, "_program", program)
    try:
        if program:
            names, run = program
            values = run(dens, *[nums[x] for x in names])
        else:
            values = _numerators(t, nums, dens)
    except KeyError as exc:  # the leftmost variable of t that nums does not bind
        name = exc.args[0]
        if name not in env:
            raise UnboundVariableError(f"variable {name!r} is not bound") from None
        raise AlgebraError(f"binding for {name!r} lives in a different algebra") from None
    return _trusted_element(A, tuple(map(_fraction, values, dens)))


def _numerators(t: Term, nums: dict[str, tuple[int, ...]], dens: tuple[int, ...]) -> Iterable[int]:
    """t's numerators over dens, one per coordinate, as a tuple or a lazy map."""
    kind = type(t)
    if kind is BinOp:
        left, right = _numerators(t.left, nums, dens), _numerators(t.right, nums, dens)
        return map(MV_KERNELS[t.op], left, right, dens)
    if kind is Var:
        return nums[t.name]
    if kind is Neg:
        return map(operator.sub, dens, _numerators(t.arg, nums, dens))
    return dens if t.value else (0,) * len(dens)


# The only names a compiled program reads besides its own; never written to.
_PROGRAM_GLOBALS = {"__builtins__": {"zip": zip},
                    **{f"k_{op}": kernel for op, kernel in MV_KERNELS.items()}}


def _compile(t: Term) -> tuple[tuple[str, ...], Callable[..., list[int]]]:
    """t's variables, in order of first occurrence, and a program for its numerators.

    For `~x (+) y` the program is

        def program(dens, c0, c1):
            out = []
            for d, v0, v1 in zip(dens, c0, c1):
                out.append(k_oplus((d - v0), v1, d))
            return out

    where c0 and c1 hold the numerators of x and y: one expression, appended
    once per coordinate, with one parenthesis per node, which nest far below
    the compiler's limit as t is at most MAX_TERM_DEPTH high.  The source holds
    only these fixed names, never a variable of the term: each op was checked
    to be a key of MV_KERNELS when its node was built.
    """
    names: dict[str, int] = {}

    def expression(t: Term) -> str:
        kind = type(t)
        if kind is BinOp:
            return f"k_{t.op}({expression(t.left)}, {expression(t.right)}, d)"
        if kind is Var:
            return f"v{names.setdefault(t.name, len(names))}"
        if kind is Neg:
            return f"(d - {expression(t.arg)})"
        return "d" if t.value else "0"

    value = expression(t)
    columns = [f"c{i}" for i in range(len(names))]
    loop = f"zip(dens, {', '.join(columns)})" if columns else "dens"
    source = "\n".join([
        f"def program({', '.join(['dens'] + columns)}):",
        "    out = []",
        f"    for {', '.join(['d'] + [f'v{i}' for i in range(len(names))])} in {loop}:",
        f"        out.append({value})",
        "    return out",
    ])
    code = next(c for c in compile(source, "<term>", "exec").co_consts
                if isinstance(c, types.CodeType))
    return tuple(names), types.FunctionType(code, _PROGRAM_GLOBALS)


# --- rendering ----------------------------------------------------------------

def render(value) -> str:
    """Canonical text for a parsed object; parse(render(v)) == v."""
    if isinstance(value, ProductAlgebra):
        return _render_algebra(value)
    if isinstance(value, EMultiset):
        return _render_multiset(value)
    if isinstance(value, Term):
        return _render_term(value)
    raise TypeError(f"cannot render {type(value).__name__}")


def _render_algebra(A: ProductAlgebra) -> str:
    auto = tuple(f"x{i + 1}" for i in range(len(A.factors)))
    if A.labels == auto and A.factors:
        return " * ".join(str(c) for _, c in A.factors)
    return "[" + ", ".join(f"{lbl}: {c}" for lbl, c in A.factors) + "]"


def _render_multiset(X: EMultiset) -> str:
    return "{" + ", ".join(f"{lbl}:{m}" for lbl, m in X.points) + "}"


def _render_term(t: Term, parent: int = -1, right_side: bool = False) -> str:
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Neg):
        return f"~{_render_term(t.arg, parent=len(_BINARY_LEVELS))}"
    prec, symbol = _SYMBOL_OF[t.op]
    text = (
        f"{_render_term(t.left, prec, False)} {symbol} "
        f"{_render_term(t.right, prec, True)}"
    )
    if parent > prec or (parent == prec and right_side):
        return f"({text})"
    return text
