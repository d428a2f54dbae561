"""Line-oriented ASCII grammars for algebras, multisets, and MV terms.

Algebras: "L2 * L3" (labels auto-assigned x1, x2, ...) or the labelled
form "[a: L2, b: Linf]"; "[]" is the one-element algebra.
Multisets: "{a:2, b:inf}".
Terms: constants 0 and 1, identifiers, "~" for negation, "(+)" truncated
sum, "(.)" the dual product, "/\\" meet, "\\/" join, "->" implication;
precedence from tightest to loosest is ~, (.), (+), /\\, \\/, ->, all
binaries left-associative.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .algebra import AlgebraError, Element, ProductAlgebra, _trusted_element, make_algebra
from .chain import MV_KERNELS, ChainError, ChainSize, LINF
from .multiset import EMultiset, INF, MultisetError, Mult


class ParseError(ValueError):
    """Syntax or well-formedness error, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariableError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""\(\+\)|\(\.\)|/\\|\\/|->|[~()\[\]{}:,*]|[A-Za-z_][A-Za-z_0-9]*|\d+|\S"""
)


class _Token(NamedTuple):
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        t = m.group()
        if len(t) == 1 and not (t.isalnum() or t in "~()[]{}:,*_"):
            raise ParseError(f"unexpected character {t!r}", m.start())
        tokens.append(_Token(t, m.start()))
    return tokens


class _Cursor:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.length = len(text)

    def peek(self) -> str | None:
        return self.tokens[self.pos].text if self.pos < len(self.tokens) else None

    def here(self) -> int:
        return (
            self.tokens[self.pos].position if self.pos < len(self.tokens) else self.length
        )

    def next(self) -> _Token:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input", self.length)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.position)
        return tok

    def done(self) -> None:
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            raise ParseError(f"trailing input {tok.text!r}", tok.position)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_CHAIN_RE = re.compile(r"L(\d+)\Z")


def _parse_chain_size(tok: _Token) -> ChainSize:
    if tok.text == "Linf":
        return LINF
    m = _CHAIN_RE.match(tok.text)
    if not m:
        raise ParseError(f"expected a chain like L3 or Linf, found {tok.text!r}", tok.position)
    try:
        return ChainSize(int(m.group(1)))
    except ChainError as exc:
        raise ParseError(str(exc), tok.position) from None


def _parse_mult(tok: _Token) -> Mult:
    if tok.text == "inf":
        return INF
    if not tok.text.isdigit():
        raise ParseError(f"expected a multiplicity or 'inf', found {tok.text!r}", tok.position)
    if int(tok.text) < 1:
        raise ParseError("multiplicity must be at least 1", tok.position)
    return int(tok.text)


def _labelled(cur: _Cursor, open: str, close: str, value) -> tuple[tuple[str, object], ...]:
    """The whole input as `open label: value, ... close`; value reads one token."""
    cur.expect(open)
    entries = []
    if cur.peek() != close:
        while True:
            label = cur.next()
            if not _IDENT_RE.match(label.text):
                raise ParseError(f"expected a label, found {label.text!r}", label.position)
            cur.expect(":")
            entries.append((label.text, value(cur.next())))
            if cur.peek() != ",":
                break
            cur.next()
    cur.expect(close)
    cur.done()
    return tuple(entries)


def parse_algebra(text: str) -> ProductAlgebra:
    cur = _Cursor(text)
    if cur.peek() == "[":
        factors = _labelled(cur, "[", "]", _parse_chain_size)
        try:
            return make_algebra(factors)
        except AlgebraError as exc:
            raise ParseError(str(exc), 0) from None
    chains = [_parse_chain_size(cur.next())]
    while cur.peek() == "*":
        cur.next()
        chains.append(_parse_chain_size(cur.next()))
    cur.done()
    return make_algebra((f"x{i + 1}", c) for i, c in enumerate(chains))


def parse_multiset(text: str) -> EMultiset:
    points = _labelled(_Cursor(text), "{", "}", _parse_mult)
    try:
        return EMultiset(points)
    except MultisetError as exc:
        raise ParseError(str(exc), 0) from None


# --- terms ------------------------------------------------------------------

class Term:
    """Abstract syntax of an MV term."""


@dataclass(frozen=True)
class Const(Term):
    value: int  # 0 or 1


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class BinOp(Term):
    op: str  # oplus, odot, meet, join, implies
    left: Term
    right: Term


_BINARY_LEVELS = [("implies", "->"), ("join", "\\/"), ("meet", "/\\"),
                  ("oplus", "(+)"), ("odot", "(.)")]
_SYMBOL_OF = dict(_BINARY_LEVELS)
_LEVEL_OF = {symbol: (level, op) for level, (op, symbol) in enumerate(_BINARY_LEVELS)}
_PREC = {op: level for level, (op, _) in enumerate(_BINARY_LEVELS)}

# Parsing, render and eval_term recurse over a term; this bound keeps them
# far below the interpreter's recursion limit (the parser uses at most three
# frames per level).
MAX_TERM_DEPTH = 100


def parse_term(text: str) -> Term:
    """Parse a term no deeper than MAX_TERM_DEPTH, else raise ParseError.

    Depth counts negations, binary operators and parentheses along a path.
    """
    cur = _Cursor(text)
    term = _parse_binary(cur, 0, 0)
    cur.done()
    if _height(term) > MAX_TERM_DEPTH:
        raise ParseError(f"term nests deeper than {MAX_TERM_DEPTH} levels", 0)
    return term


def _height(t: Term) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    height, stack = 0, [(t, 1)]
    while stack:
        t, h = stack.pop()
        height = max(height, h)
        if isinstance(t, Neg):
            stack.append((t.arg, h + 1))
        elif isinstance(t, BinOp):
            stack += [(t.left, h + 1), (t.right, h + 1)]
    return height


def _parse_binary(cur: _Cursor, min_level: int, depth: int) -> Term:
    """Precedence climbing over the binaries at min_level or tighter, left-associative."""
    if depth > MAX_TERM_DEPTH:
        raise ParseError(f"term nests deeper than {MAX_TERM_DEPTH} levels", cur.here())
    left = _parse_unary(cur, depth)
    while (entry := _LEVEL_OF.get(cur.peek())) is not None and entry[0] >= min_level:
        level, op = entry
        cur.next()
        left = BinOp(op, left, _parse_binary(cur, level + 1, depth + 1))
    return left


def _parse_unary(cur: _Cursor, depth: int) -> Term:
    negations = 0
    while cur.peek() == "~":
        cur.next()
        negations += 1
    term = _parse_atom(cur, depth + negations)
    for _ in range(negations):
        term = Neg(term)
    return term


def _parse_atom(cur: _Cursor, depth: int) -> Term:
    tok = cur.next()
    if tok.text == "(":
        inner = _parse_binary(cur, 0, depth + 1)
        cur.expect(")")
        return inner
    if tok.text in ("0", "1"):
        return Const(int(tok.text))
    if _IDENT_RE.match(tok.text):
        return Var(tok.text)
    raise ParseError(f"expected a term, found {tok.text!r}", tok.position)


_fraction = lru_cache(maxsize=1024)(Fraction)  # eval_term's root values recur; immutable


def eval_term(t: Term, env: dict[str, Element], A: ProductAlgebra) -> Element:
    """Evaluate by structural recursion on integer numerators.

    Coordinate k gets one denominator D_k, the lcm of the denominators at k
    of the bindings in env that live in A, each written once as numerators
    over D_k.  This is exact: the operations act on each coordinate alone,
    0 and 1 are 0/D_k and D_k/D_k, and each kernel of chain.MV_KERNELS, like
    negation D_k - a, only adds, subtracts and compares integers, so it takes
    numerators over D_k to one over D_k.  Fractions are built at the root.
    The leftmost variable that is unbound, or bound outside A, raises.
    """
    bound = {x: e.coords for x, e in env.items() if e.algebra is A or e.algebra == A}
    dens = (1,) * len(A.factors)
    for coords in bound.values():
        dens = tuple(map(math.lcm, dens, [v.denominator for v in coords]))
    nums = {x: tuple([v.numerator * (d // v.denominator) for v, d in zip(c, dens)])
            for x, c in bound.items()}

    def numerators(t: Term) -> Iterable[int]:
        """t's numerators over dens, one per coordinate, as a tuple or a lazy map."""
        kind = type(t)
        if kind is BinOp:
            left, right = numerators(t.left), numerators(t.right)
            kernel = MV_KERNELS.get(t.op)
            if kernel is None:
                raise AlgebraError(f"unknown operation {t.op!r}")
            return map(kernel, left, right, dens)
        if kind is Var:
            if t.name in nums:
                return nums[t.name]
            if t.name not in env:
                raise UnboundVariableError(f"variable {t.name!r} is not bound")
            raise AlgebraError(f"binding for {t.name!r} lives in a different algebra")
        if kind is Neg:
            return map(operator.sub, dens, numerators(t.arg))
        if kind is Const:
            return dens if t.value else (0,) * len(dens)
        raise TypeError(f"not a term: {t!r}")

    return _trusted_element(A, tuple(map(_fraction, numerators(t), dens)))


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
    if isinstance(t, BinOp):
        prec = _PREC[t.op]
        text = (
            f"{_render_term(t.left, prec, False)} {_SYMBOL_OF[t.op]} "
            f"{_render_term(t.right, prec, True)}"
        )
        if parent > prec or (parent == prec and right_side):
            return f"({text})"
        return text
    raise TypeError(f"not a term: {t!r}")
