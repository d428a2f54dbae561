import ast
import copy
import dataclasses
import gc
import itertools
import os
import pickle
import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chmv.algebra import (
    AlgebraError, ProductAlgebra, enumerate_elements, make_algebra, make_element, unit,
)
from chmv.chain import ChainSize, LINF, MV_KERNELS
from chmv.dsl import (
    BinOp,
    Const,
    DIGITS_BOUND,
    MAX_TERM_DEPTH,
    Neg,
    ParseError,
    Term,
    UnboundVariableError,
    Var,
    _CHAIN_LIMIT,
    _DIGIT,
    _END,
    _LABEL,
    _LEVEL_OF,
    _MULT_LIMIT,
    _TOKEN_RE,
    _TOO_DEEP,
    _below,
    _check_characters,
    _compile,
    _repeated_label,
    _token_start,
    eval_term,
    parse_algebra,
    parse_env,
    parse_multiset,
    parse_object,
    parse_term,
    render,
)
from chmv.multiset import EMultiset, INF, Mult, MultisetError


def test_parse_algebra_unlabeled():
    A = parse_algebra("L2 * L3")
    assert A.factors == (("x1", ChainSize(2)), ("x2", ChainSize(3)))
    B = parse_algebra("Linf * L4")
    assert B.factors == (("x1", LINF), ("x2", ChainSize(4)))


def test_parse_algebra_labeled():
    A = parse_algebra("[a: L2, b: Linf]")
    assert A.factors == (("a", ChainSize(2)), ("b", LINF))
    assert parse_algebra("[]").factors == ()


def test_parse_algebra_chain_size_error():
    with pytest.raises(ParseError):
        parse_algebra("L1")


def test_parse_algebra_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_algebra("L2 * ")
    assert err.value.position == 5


def test_parse_multiset():
    X = parse_multiset("{a:2, b:inf}")
    assert X.points == (("a", 2), ("b", INF))
    assert parse_multiset("{}").points == ()


def test_parse_leading_zeros_do_not_count_against_the_digit_limit():
    zeros = "0" * 5000
    assert parse_multiset(f"{{a:{zeros}7}}").points == (("a", 7),)
    assert parse_algebra(f"L{zeros}3").factors == (("x1", ChainSize(3)),)
    with pytest.raises(ParseError, match="at least 1"):
        parse_multiset(f"{{a:{zeros}}}")


def test_parse_multiset_zero_multiplicity():
    with pytest.raises(ParseError):
        parse_multiset("{a:0}")


def test_parse_multiset_syntax_errors():
    for bad in ("{a}", "{a:2", "{a:b}", "{a:2,}"):
        with pytest.raises(ParseError):
            parse_multiset(bad)


LINF_ALGEBRA = make_algebra([("x1", LINF)])
PADDING = st.sampled_from([0, 1, 4300, 4301])
DIGITS = st.one_of(st.integers(0, 10 ** 6).map(str),
                   st.sampled_from(["9" * 4300, "1" + "0" * 4300]))


@st.composite
def padded_coordinates(draw):
    """A coordinate, and the same coordinate with its numbers padded by zeros.

    Leading zeros pad each number; trailing zeros pad the digits after a decimal point.
    """
    sign, whole = draw(st.sampled_from(["", "+", "-"])), draw(DIGITS)
    kind = draw(st.sampled_from(["integer", "p/q", "decimal"]))
    if kind == "integer":
        return sign + whole, sign + "0" * draw(PADDING) + whole
    if kind == "p/q":
        den = draw(DIGITS)
        padded = f"{sign}{'0' * draw(PADDING)}{whole}/{'0' * draw(PADDING)}{den}"
        return f"{sign}{whole}/{den}", padded
    whole = draw(st.sampled_from(["", "0", "1"]))
    decimals = "0" * draw(st.sampled_from([0, 4298])) + draw(DIGITS)
    padded = f"{sign}{'0' * draw(PADDING)}{whole}.{decimals}{'0' * draw(PADDING)}"
    return f"{sign}{whole}.{decimals}", padded


def _reading(text: str) -> Fraction | None:
    """The coordinate text as parse_env reads it in Linf, or None when it is refused."""
    try:
        return parse_env(f"x=({text})", LINF_ALGEBRA)["x"].coords[0]
    except ValueError:
        return None


@given(padded_coordinates())
@settings(max_examples=200)
def test_zero_padding_changes_no_coordinate(texts):
    """Zero padding counts against no digit limit, even in a text over 4,300 characters."""
    text, padded = texts
    assert _reading(padded) == _reading(text)


def test_a_decimal_under_the_digit_limit_keeps_its_value():
    assert _reading("0." + "0" * 4298 + "25") == Fraction(1, 4 * 10 ** 4298)


def test_a_decimal_too_long_for_any_denominator_fails_fast():
    """From 8,600 digits after the point the lowest-terms denominator is 10^4300 or more."""
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        parse_env("x=(0." + "0" * 2 * 10 ** 6 + "1)", LINF_ALGEBRA)
    assert time.perf_counter() - start < 0.25
    assert str(err.value) == "binding 'x': numerator or denominator longer than 4300 digits"
    # 5^6151 has 4,300 digits; over 10^8599 its lowest-terms denominator is 2^8599 * 5^2448
    digits = str(5 ** 6151)
    assert _reading("0." + digits.zfill(8599)) == Fraction(5 ** 6151, 10 ** 8599)
    assert _reading("0." + digits.zfill(8600)) is None


def test_a_coordinate_outside_the_grammar_is_named_so_however_long():
    text = "1_" + "0" * 4300
    with pytest.raises(ValueError) as err:
        parse_env(f"x=({text})", LINF_ALGEBRA)
    assert str(err.value) == f"binding 'x': coordinate {text!r} is not an integer, p/q or a decimal"


TOO_LONG_MULT = "multiplicity must be below 10^4300 - 1"
TOO_LONG_CHAIN = "chain size must be below 10^4300"
TOO_DEEP = "term nests deeper than 100 levels"


@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (parse_algebra, "[a L2]", "expected ':', found 'L2'", 3),
        (parse_algebra, "[a: L2,]", "expected a label, found ']'", 7),
        (parse_algebra, "[1: L2]", "expected a label, found '1'", 1),
        (parse_algebra, "[a: Lx]", "expected a chain like L3 or Linf, found 'Lx'", 4),
        (parse_algebra, "[a: L2] x", "trailing input 'x'", 8),
        (parse_multiset, "{a}", "expected ':', found '}'", 2),
        (parse_multiset, "{a:2,}", "expected a label, found '}'", 5),
        (parse_multiset, "{1:2}", "expected a label, found '1'", 1),
        (parse_multiset, "{a:b}", "expected a multiplicity or 'inf', found 'b'", 3),
        (parse_multiset, "{a:0}", "multiplicity must be at least 1", 3),
        (parse_multiset, "{a:2", "unexpected end of input", 4),
        (parse_multiset, "{a:²}", "expected a multiplicity or 'inf', found '²'", 3),
        pytest.param(parse_multiset, "{a:" + "9" * 4300 + "}", TOO_LONG_MULT, 3, id="mult-4300"),
        pytest.param(parse_multiset, "{a:1, b:" + "9" * 5000 + "}", TOO_LONG_MULT, 8,
                     id="mult-5000"),
        pytest.param(parse_algebra, "L" + "9" * 5000, TOO_LONG_CHAIN, 0, id="chain-5000"),
        pytest.param(parse_algebra, "[a: L2, b: L1" + "0" * 4300 + "]", TOO_LONG_CHAIN, 11,
                     id="labelled-chain-4301"),
        (parse_algebra, "L2 # L3", "unexpected character '#'", 3),
        (parse_algebra, "L2 L3", "trailing input 'L3'", 3),
        (parse_algebra, "L2 *", "unexpected end of input", 4),
        (parse_algebra, "L2 * L1", "chain size must be an integer >= 2, got 1", 5),
        (parse_multiset, "{a:2 b:3}", "expected '}', found 'b'", 5),
        (parse_term, "x + y", "unexpected character '+'", 2),
        (parse_term, "x -> y - z", "unexpected character '-'", 7),
        (parse_term, "x # y # z", "unexpected character '#'", 2),
        (parse_term, "x y", "trailing input 'y'", 2),
        (parse_term, "x (+) )", "expected a term, found ')'", 6),
        (parse_term, "(x y", "expected ')', found 'y'", 3),
        (parse_term, "x (+)", "unexpected end of input", 5),
        (parse_term, "x (+) ~", "unexpected end of input", 7),
        (parse_multiset, "{a:\u0663}", "expected a multiplicity or 'inf', found '\u0663'", 3),
        (parse_multiset, "{a:1, b:2, a:3}", "duplicate point labels in ['a', 'b', 'a']", 11),
        (parse_algebra, "[a: L2, b: L3, a: L3]", "duplicate factor labels in ['a', 'b', 'a']",
         15),
        (parse_algebra, "[ a : L2 , a : L2 , a : L2 ]",
         "duplicate factor labels in ['a', 'a', 'a']", 11),
        pytest.param(parse_term, "(" * 101 + "x", _END, 102, id="term-too-deep"),
        pytest.param(parse_term, "~" * 100 + "x", TOO_DEEP, 100, id="negations-too-deep"),
        pytest.param(parse_term, "~" * 101 + "x", TOO_DEEP, 101, id="negations-past-the-limit"),
        pytest.param(parse_term, "x" + " (+) x" * 100, TOO_DEEP, 596, id="chain-too-deep"),
        pytest.param(parse_term, "x" + " -> x" * 150, TOO_DEEP, 497, id="chain-past-the-limit"),
        pytest.param(parse_term, "x (+) " + "~" * 99 + "x", TOO_DEEP, 2, id="operator-too-deep"),
        pytest.param(parse_term, "~" * 100 + "x )", TOO_DEEP, 100,
                     id="run-height-before-syntax-error"),
        pytest.param(parse_term, "x" + " -> x" * 150 + " )", TOO_DEEP, 497,
                     id="chain-height-before-syntax-error"),
        pytest.param(parse_term, "(" * 101 + "x #", "unexpected character '#'", 103,
                     id="bad-character-past-101-parentheses"),
    ],
)
def test_labelled_parse_errors_keep_message_and_position(parse, text, message, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


# The DSL's tokens, a few stray characters, and blanks
DSL_PIECES = [
    "L2", "L1", "L3", "Linf", "inf", "0", "1", "2", "07", "a", "x", "y", "_b",
    "[", "]", "{", "}", "(", ")", ":", ",", "*", "~", "(+)", "(.)", "/\\", "\\/", "->",
    "+", "-", ".", "/", "\\", ">", "#", "'", '"', "²", "é", " ", "  ", "\t",
]
QUOTED_TOKEN = re.compile(r"(?:found|character|input) ('.*'|\".*\")$")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(DSL_PIECES), max_size=12).map("".join))
def test_parse_error_positions_point_into_the_text(text):
    """Each ParseError sits in the text, at the token its message quotes, or at the end."""
    for parse in (parse_algebra, parse_multiset, parse_term):
        try:
            parse(text)
        except ParseError as err:
            message = str(err).rsplit(" (at position ", 1)[0]
            assert 0 <= err.position <= len(text)
            quoted = QUOTED_TOKEN.search(message)
            if quoted:
                assert text.startswith(ast.literal_eval(quoted.group(1)), err.position)
            if message == "unexpected end of input":
                assert err.position == len(text)


# The token walk over objects and terms: the reference readers that
# parse_algebra, parse_multiset and parse_term are held to


class _Cursor:
    """An object text's tokens as plain strings; a position is computed only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.pos = 0
        _check_characters(text, self.tokens)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def here(self) -> int:
        """The position of the next token."""
        return _token_start(self.text, self.pos)

    def error(self, message: str) -> ParseError:
        """A ParseError at the token just read."""
        return ParseError(message, _token_start(self.text, self.pos - 1))

    def next(self) -> str:
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            raise ParseError(_END, len(self.text)) from None
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok!r}")

    def done(self) -> None:
        if self.pos < len(self.tokens):
            raise ParseError(f"trailing input {self.tokens[self.pos]!r}", self.here())


_IDENT_RE = re.compile(_LABEL + r"\Z")
_CHAIN_RE = re.compile(rf"L({_DIGIT}+)\Z")


def _parse_chain_size(cur: _Cursor) -> ChainSize:
    tok = cur.next()
    if tok == "Linf":
        return LINF
    m = _CHAIN_RE.match(tok)
    if not m:
        raise cur.error(f"expected a chain like L3 or Linf, found {tok!r}")
    try:
        return ChainSize(_below(m.group(1), DIGITS_BOUND, _CHAIN_LIMIT))
    except ValueError as exc:  # _below's or a ChainError
        raise cur.error(str(exc)) from None


def _parse_mult(cur: _Cursor) -> Mult:
    tok = cur.next()
    if tok == "inf":
        return INF
    if not (tok.isascii() and tok.isdecimal()):  # \d+ also reads other scripts' digits
        raise cur.error(f"expected a multiplicity or 'inf', found {tok!r}")
    try:
        m = _below(tok, DIGITS_BOUND - 1, _MULT_LIMIT)
    except ValueError as exc:
        raise cur.error(str(exc)) from None
    if m < 1:
        raise cur.error("multiplicity must be at least 1")
    return m


def _labelled(cur: _Cursor, open: str, close: str, value) -> tuple[tuple[str, object], ...]:
    """The whole input as `open label: value, ... close`; value reads one token.

    So label i is token 1 + 4i, which _repeated_label reads back.
    """
    cur.expect(open)
    entries = []
    if cur.peek() != close:
        while True:
            label = cur.next()
            if not _IDENT_RE.match(label):
                raise cur.error(f"expected a label, found {label!r}")
            cur.expect(":")
            entries.append((label, value(cur)))
            if cur.peek() != ",":
                break
            cur.next()
    cur.expect(close)
    cur.done()
    return tuple(entries)


def _walk_algebra(text: str) -> ProductAlgebra:
    """parse_algebra by the token walk, which reads every text and places every error."""
    cur = _Cursor(text)
    if cur.peek() == "[":
        factors = _labelled(cur, "[", "]", _parse_chain_size)
        try:
            return make_algebra(factors)
        except AlgebraError as exc:
            raise ParseError(str(exc), _repeated_label(text, factors)) from None
    chains = [_parse_chain_size(cur)]
    while cur.peek() == "*":
        cur.next()
        chains.append(_parse_chain_size(cur))
    cur.done()
    return make_algebra((f"x{i + 1}", c) for i, c in enumerate(chains))


def _walk_multiset(text: str) -> EMultiset:
    """parse_multiset by the token walk, which reads every text and places every error."""
    points = _labelled(_Cursor(text), "{", "}", _parse_mult)
    try:
        return EMultiset(points)
    except MultisetError as exc:
        raise ParseError(str(exc), _repeated_label(text, points)) from None


# Pieces of well-formed objects: numbers up to 101 digits, in texts on both
# sides of the 100 characters up to which the reader caches values, labels that
# repeat, and every blank the tokenizer skips
BLANKS = ["", " ", "\t", "\u00a0"]
LABELS = ["a", "b", "x1", "_c", "inf", "Linf"]
CHAINS = ["L2", "L3", "L10", "Linf", "L" + "9" * 100, "L1" + "0" * 100]
MULTS = ["1", "2", "12", "inf", "9" * 100, "1" + "0" * 100]
# Pieces at the edges of the grammar: L0, L1 and multiplicity 0, leading zeros,
# non-ASCII digits, a non-breaking space (which both readers skip), 4,301 digits
# and trailing input
ODD_PIECES = ["L0", "L1", "0", "L07", "007", "L1\u0663", "1\u0663", "\u0663", "\u00a0",
              "1" + "0" * 4300, "L1" + "0" * 4300, "] x", "} }"]
REPLACEMENTS = DSL_PIECES + ODD_PIECES + LABELS


@st.composite
def object_pieces(draw):
    """The pieces of a well-formed algebra or multiset, and the index of one piece.

    One time in eight the object has 100 or 300 entries.  Only the first four
    are drawn piece by piece; entry i from the fifth on is labelled x{i + 1},
    with single blanks and one short value drawn once.  Half of the time the
    drawn piece is a label or a value.
    """
    kind = draw(st.sampled_from(["product", "factors", "points"]))
    blank = st.sampled_from(BLANKS)
    values = MULTS if kind == "points" else CHAINS
    value, filler = st.sampled_from(values), draw(st.sampled_from(values[:4]))
    size = draw(st.integers(0, 4)) if draw(st.integers(0, 7)) else draw(st.sampled_from([100, 300]))

    def pick(strategy, i, later):
        """A piece of entry i: drawn for the first four entries, later for the others."""
        return draw(strategy) if i < 4 else later

    pieces, entries = [draw(blank)], []  # entries: the index of each label and value
    if kind == "product":
        for i in range(max(size, 1)):
            pieces += ["*", pick(blank, i, " ")] if i else []
            entries.append(len(pieces))
            pieces += [pick(value, i, filler), pick(blank, i, " ")]
    else:
        pieces += ["[" if kind == "factors" else "{", draw(blank)]
        for i in range(size):
            pieces += [",", pick(blank, i, " ")] if i else []
            entries += [len(pieces), len(pieces) + 4]
            pieces += [pick(st.sampled_from(LABELS), i, f"x{i + 1}"), pick(blank, i, ""), ":",
                       pick(blank, i, " "), pick(value, i, filler), pick(blank, i, "")]
        pieces += ["]" if kind == "factors" else "}", draw(blank)]
    if entries and draw(st.booleans()):
        return pieces, draw(st.sampled_from(entries))
    return pieces, draw(st.integers(0, len(pieces) - 1))


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except ParseError as err:
        return str(err), err.position


@settings(max_examples=200, deadline=None)
@given(object_pieces())
def test_parsers_return_what_the_token_walk_returns(drawn):
    """On a well-formed object, and on it with the drawn piece replaced by each of
    REPLACEMENTS, parse_algebra and parse_multiset give what the walk gives: the
    same object, or the same error at the same place."""
    pieces, at = drawn
    texts = ["".join(pieces)]
    texts += ["".join(pieces[:at] + [piece] + pieces[at + 1:]) for piece in REPLACEMENTS]
    for text in texts:
        assert _outcome(parse_algebra, text) == _outcome(_walk_algebra, text)
        assert _outcome(parse_multiset, text) == _outcome(_walk_multiset, text)


def _walk_term(text: str) -> Term:
    """parse_term by the token walk, which reads every text and places every error."""
    cur = _Cursor(text)
    term, _ = _parse_binary(cur, 0)
    cur.done()
    return term


def _check_height(cur: _Cursor, height: int, at: int) -> None:
    """Raise the height ParseError at token at if a node this high is too high."""
    if height > MAX_TERM_DEPTH:
        raise ParseError(_TOO_DEEP, _token_start(cur.text, at))


def _parse_binary(cur: _Cursor, min_level: int) -> tuple[Term, int]:
    """Precedence climbing over the binaries at min_level or tighter, left-associative.

    Each _parse_* returns the term and its height, the nodes on its longest path.
    """
    left, height = _parse_unary(cur)
    while (entry := _LEVEL_OF.get(cur.peek())) is not None and entry[0] >= min_level:
        level, op = entry
        at = cur.pos
        cur.next()
        right, right_height = _parse_binary(cur, level + 1)
        height = max(height, right_height) + 1
        _check_height(cur, height, at)
        left = BinOp(op, left, right)
    return left, height


def _parse_unary(cur: _Cursor) -> tuple[Term, int]:
    negations = 0
    while cur.peek() == "~":
        cur.next()
        negations += 1
    if not negations:
        return _parse_atom(cur)
    at = cur.pos
    term, height = _parse_atom(cur)
    height += negations
    _check_height(cur, height, at)
    for _ in range(negations):
        term = Neg(term)
    return term, height


def _parse_atom(cur: _Cursor) -> tuple[Term, int]:
    tok = cur.next()
    if tok == "(":
        inner = _parse_binary(cur, 0)
        cur.expect(")")
        return inner
    if tok in ("0", "1"):
        return Const(int(tok)), 1
    if _IDENT_RE.match(tok):
        return Var(tok), 1
    raise cur.error(f"expected a term, found {tok!r}")


# Pieces that replace one token of a well-formed term: the DSL's pieces, digit
# runs and stray characters
TERM_REPLACEMENTS = DSL_PIECES + ["00", "10", "123", "\u0663", "$", "\u00a0", "] x"]


# What may follow a term too high: each is a syntax error after it
STRAY_PIECES = [")", "x", "(", "~", "(+)", "]"]


@st.composite
def term_tokens(draw):
    """The tokens of a term, and the index of one of them.

    One time in five it is a run of "~" or a chain of one binary, 101-150
    high, then one of STRAY_PIECES: too high, with a later syntax error.
    Else it is well-formed, and three times in four a shorter term grows to
    100, 101 or 300 tokens: wrapped in parentheses and a "~", it nests as
    deep as it is long, up to 150 parentheses, which are free, but grows at
    most one node higher than the shorter term; joined with more terms in
    parentheses, it stays far less deep than long.
    """
    if draw(st.integers(0, 4)) == 0:
        height = draw(st.integers(MAX_TERM_DEPTH + 1, 150))
        if draw(st.booleans()):
            tokens = ["~"] * (height - 1) + ["x"]
        else:
            tokens = ["x"] + [draw(st.sampled_from(list(_LEVEL_OF))), "y"] * (height - 1)
        tokens.append(draw(st.sampled_from(STRAY_PIECES)))
        return tokens, draw(st.integers(0, len(tokens) - 1))
    tokens = _TOKEN_RE.findall(render(draw(terms)))
    size = draw(st.sampled_from([0, MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1, 3 * MAX_TERM_DEPTH]))
    if draw(st.booleans()):
        while len(tokens) < size:
            tokens += [draw(st.sampled_from(list(_LEVEL_OF))), "(",
                       *_TOKEN_RE.findall(render(draw(terms))), ")"]
    elif len(tokens) < size:
        pairs, odd = divmod(size - len(tokens), 2)
        tokens = ["~"] * odd + ["("] * pairs + tokens + [")"] * pairs
    return tokens, draw(st.integers(0, len(tokens) - 1))


@settings(max_examples=200, deadline=None)
@given(term_tokens())
def test_term_reader_returns_what_the_token_walk_returns(drawn):
    """On a well-formed term, and on it with the drawn token replaced by each of
    TERM_REPLACEMENTS, parse_term and the walk give the same term, or the same
    error at the same place."""
    tokens, at = drawn
    texts = [" ".join(tokens)] + [" ".join(tokens[:at] + [piece] + tokens[at + 1:])
                                  for piece in TERM_REPLACEMENTS]
    for text in texts:
        assert _outcome(parse_term, text) == _outcome(_walk_term, text)


def test_terms_survive_copies_and_refuse_assignment():
    """Also once evaluated twice, when the root holds its compiled program,
    which no copy or pickle carries; replace builds through the checks."""
    A = parse_algebra("L3")
    env = {"x": make_element(A, [Fraction(1, 2)])}
    compiled = parse_term("~x (+) 1")
    for _ in range(2):
        value = eval_term(compiled, env, A)
    assert type(compiled._program) is tuple  # (its variables, its program)
    for t in (parse_term("~x (+) 1"), compiled):
        assert t == compiled and hash(t) == hash(compiled) and repr(t) == repr(compiled)
        for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert clone == t and hash(clone) == hash(t)
            assert not hasattr(clone, "_program")
            assert eval_term(clone, env, A) == value
        for node, field in [(t, "op"), (t.left, "arg"), (t.left.arg, "name"), (t.right, "value")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field, getattr(node, field))
            assert not hasattr(node, "__dict__")
        for node, field, bad in [(t, "op", "xor"), (t.left, "arg", "x"), (t.left.arg, "name", "1x"),
                                 (t.right, "value", 2)]:
            with pytest.raises(ValueError):
                dataclasses.replace(node, **{field: bad})


def test_parse_term_tautology_shape():
    assert parse_term("~x (+) x") == BinOp("oplus", Neg(Var("x")), Var("x"))


def test_parse_term_precedence():
    assert parse_term("x (+) y (.) z") == BinOp(
        "oplus", Var("x"), BinOp("odot", Var("y"), Var("z"))
    )
    assert parse_term("x /\\ y (+) z") == BinOp(
        "meet", Var("x"), BinOp("oplus", Var("y"), Var("z"))
    )
    assert parse_term("x -> y \\/ z") == BinOp(
        "implies", Var("x"), BinOp("join", Var("y"), Var("z"))
    )


def test_parse_term_left_associative():
    assert parse_term("x (+) y (+) z") == BinOp(
        "oplus", BinOp("oplus", Var("x"), Var("y")), Var("z")
    )


def test_parse_term_parens_override():
    assert parse_term("(x (+) y) (.) z") == BinOp(
        "odot", BinOp("oplus", Var("x"), Var("y")), Var("z")
    )


def test_parse_term_syntax_error():
    with pytest.raises(ParseError):
        parse_term("x (+")
    with pytest.raises(ParseError) as err:
        parse_term("x (+) ")
    assert err.value.position == len("x (+) ")


@pytest.mark.parametrize(
    "text",
    [
        "~" * 5000 + "x",
        " (+) ".join(["x"] * 5000),
        "x -> (" * 3000 + "x" + ")" * 3000,
    ],
)
def test_parse_term_too_deep(text):
    with pytest.raises(ParseError, match="deeper than"):
        parse_term(text)


def test_parentheses_nest_freely():
    """Parentheses build no node, so only the height bound limits them."""
    t = parse_term("(" * 3000 + "x" + ")" * 3000)
    assert t == Var("x")
    A = parse_algebra("L3")
    half = make_element(A, [Fraction(1, 2)])
    assert eval_term(t, {"x": half}, A) == half


def test_parse_term_at_depth_limit():
    t = parse_term("~" * (MAX_TERM_DEPTH - 1) + "x")
    assert render(t).count("~") == MAX_TERM_DEPTH - 1
    A = make_algebra([("x1", ChainSize(3))])
    half = make_element(A, [Fraction(1, 2)])
    assert eval_term(t, {"x": half}, A) == half
    with pytest.raises(ParseError):
        parse_term("~" * MAX_TERM_DEPTH + "x")
    assert parse_term("(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH) == Var("x")
    chain = parse_term("x" + " (+) x" * (MAX_TERM_DEPTH - 1))
    assert render(chain).count("(+)") == MAX_TERM_DEPTH - 1
    with pytest.raises(ParseError):
        parse_term("x" + " (+) x" * MAX_TERM_DEPTH)


# Keywords, chain and multiplicity spellings are labels too, and so variables.
TERM_LABELS = ["x", "y", "z", "if", "None", "lambda", "Linf", "inf", "L2", "_c", "x1"]
leaves = st.one_of(
    st.sampled_from([Const(0), Const(1)]),
    st.one_of(st.sampled_from(TERM_LABELS), st.from_regex(_LABEL, fullmatch=True)).map(Var),
)
terms = st.recursive(
    leaves,
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(
            BinOp, st.sampled_from(["oplus", "odot", "meet", "join", "implies"]), sub, sub
        ),
    ),
    max_leaves=24,
)


@st.composite
def high_terms(draw):
    """A term 1 to MAX_TERM_DEPTH high: a leaf, then one step per level.

    A step grows the spine one node higher: a "~" over it, or a binary with
    it on the left or on the right of a term no higher.  The steps, the
    binaries' operators and their other sides each cycle through a short
    drawn list, so a pattern of steps such as ["right"], ["neg", "left"] or
    ["neg", "right", "right"] makes a right chain, "~" alternating with a
    left chain, and so on.  An other side higher than the spine is
    replaced by a leaf.
    """
    height = draw(st.integers(1, MAX_TERM_DEPTH))
    steps = draw(st.lists(st.sampled_from(["neg", "left", "right"]), min_size=1, max_size=4))
    ops = draw(st.lists(st.sampled_from(list(MV_KERNELS)), min_size=1, max_size=3))
    others = draw(st.lists(st.one_of(leaves, terms), min_size=1, max_size=3))
    t = draw(leaves)
    for level in range(height - 1):
        step = steps[level % len(steps)]
        if step == "neg":
            t = Neg(t)
            continue
        other = others[level % len(others)]
        if other.height > t.height:
            other = Const(1)
        op = ops[level % len(ops)]
        t = BinOp(op, t, other) if step == "left" else BinOp(op, other, t)
    assert t.height == height
    return t


@settings(max_examples=400, deadline=None)
@given(st.one_of(terms, high_terms()))
def test_parse_render_round_trip_property(t):
    """Bushy terms, and terms of every shape up to the height limit."""
    assert parse_term(render(t)) == t


def test_eval_tautology():
    L3 = parse_algebra("L3")
    half = make_element(L3, [Fraction(1, 2)])
    t = parse_term("~x (+) x")
    assert eval_term(t, {"x": half}, L3) == unit(L3)


def test_eval_odot():
    L4 = parse_algebra("L4")
    x = make_element(L4, [Fraction(2, 3)])
    assert eval_term(parse_term("x (.) x"), {"x": x}, L4).coords == (Fraction(1, 3),)


def test_eval_implies_reflexive():
    L5 = parse_algebra("L5")
    for f in enumerate_elements(L5):
        assert eval_term(parse_term("x -> x"), {"x": f}, L5) == unit(L5)


def test_eval_constants():
    A = parse_algebra("L2 * L3")
    assert eval_term(Const(1), {}, A) == unit(A)
    assert eval_term(parse_term("~1"), {}, A).coords == (0, 0)


def test_eval_unbound_variable():
    A = parse_algebra("L2")
    with pytest.raises(UnboundVariableError):
        eval_term(parse_term("x"), {}, A)


def test_eval_algebra_mismatch():
    A = parse_algebra("L2")
    B = parse_algebra("L3")
    with pytest.raises(ValueError):
        eval_term(parse_term("x"), {"x": unit(B)}, A)


REF_OPS = {
    "oplus": lambda a, b: min(a + b, Fraction(1)),
    "odot": lambda a, b: max(a + b - 1, Fraction(0)),
    "meet": min,
    "join": max,
    "implies": lambda a, b: min(1 - a + b, Fraction(1)),
}


def eval_thrice(t, env, A):
    """eval_term(t, env, A) three times: the first call walks t, the second
    compiles it and the third runs the compiled program.  All three give equal
    Elements, or raise the same type with the same message; the last outcome
    is returned or raised."""
    outcomes = []
    for _ in range(3):
        try:
            outcomes.append(eval_term(t, env, A))
        except Exception as exc:
            outcomes.append(exc)
    seen = [(type(o), str(o)) if isinstance(o, Exception) else o for o in outcomes]
    assert seen[0] == seen[1] == seen[2]
    if isinstance(outcomes[-1], Exception):
        raise outcomes[-1]
    return outcomes[-1]


def ref_eval(t, env, i):
    """The value of t at coordinate i, straight from the definitions."""
    if isinstance(t, Const):
        return Fraction(t.value)
    if isinstance(t, Var):
        return env[t.name].coords[i]
    if isinstance(t, Neg):
        return 1 - ref_eval(t.arg, env, i)
    return REF_OPS[t.op](ref_eval(t.left, env, i), ref_eval(t.right, env, i))


def variables(t):
    """The names of t's variables."""
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Neg):
        return variables(t.arg)
    if isinstance(t, BinOp):
        return variables(t.left) | variables(t.right)
    return set()


@st.composite
def bound_terms(draw):
    """A term, and a product of L2..L7 and Linf with elements bound to x, y,
    z and each variable of the term."""
    t = draw(terms)
    sizes = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 7, None]), min_size=1, max_size=4))
    A = make_algebra(
        (f"x{i + 1}", LINF if n is None else ChainSize(n)) for i, n in enumerate(sizes)
    )

    def coord(n):
        if n is None:
            return st.fractions(min_value=0, max_value=1, max_denominator=60)
        return st.integers(0, n - 1).map(lambda k: Fraction(k, n - 1))

    env = {
        name: make_element(A, [draw(coord(n)) for n in sizes])
        for name in sorted(variables(t) | {"x", "y", "z"})
    }
    return t, A, env


@settings(max_examples=200, deadline=None)
@given(bound_terms())
def test_eval_term_matches_a_per_coordinate_reference(bound):
    t, A, env = bound
    value = eval_thrice(t, env, A)
    assert value.algebra == A
    assert value.coords == tuple(ref_eval(t, env, i) for i in range(len(A.factors)))


def test_eval_term_reads_bindings_whose_denominators_divide_the_grid_step():
    """In L7 the coordinates 1/2 and 1/3 have denominators that properly divide n - 1 = 6."""
    A = parse_algebra("L7 * Linf")
    env = {"x": make_element(A, [Fraction(1, 2), Fraction(1, 5)]),
           "y": make_element(A, [Fraction(1, 3), Fraction(2, 7)])}
    for text in ["x (+) y", "x (.) ~y", "~x -> y", "x /\\ ~y", "x \\/ y (.) ~x", "~(x (+) y) (+) 1"]:
        t = parse_term(text)
        assert eval_thrice(t, env, A).coords == tuple(ref_eval(t, env, i) for i in range(2)), text


LEFTMOST_OFFENDERS = [
    ("u (+) ~v", UnboundVariableError, "variable 'u' is not bound"),
    ("1 (.) ~~v -> u", UnboundVariableError, "variable 'v' is not bound"),
    ("x (+) b -> u", AlgebraError, "binding for 'b' lives in a different algebra"),
    ("x /\\ (u \\/ b)", UnboundVariableError, "variable 'u' is not bound"),
    ("~(~b (.) x) \\/ u", AlgebraError, "binding for 'b' lives in a different algebra"),
    ("(x -> (x (+) v)) /\\ (b (.) u)", UnboundVariableError, "variable 'v' is not bound"),
]


@pytest.mark.parametrize("text, error, message", LEFTMOST_OFFENDERS)
def test_eval_error_comes_from_the_leftmost_offending_variable(text, error, message):
    A, B = parse_algebra("L3 * L2"), parse_algebra("L3")
    env = {"x": unit(A), "b": unit(B)}  # u and v are unbound, b lives in B
    with pytest.raises(ValueError) as info:
        eval_thrice(parse_term(text), env, A)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("text, error, message", LEFTMOST_OFFENDERS)
def test_eval_error_ignores_unreferenced_bindings(text, error, message):
    A, B = parse_algebra("L3 * L2"), parse_algebra("L3")
    wide = parse_algebra("Linf * L4 * Linf")
    env = {
        "w": make_element(wide, [Fraction(1, 7), Fraction(2, 3), Fraction(5, 11)]),
        "x": unit(A),
        "b": unit(B),
        "a": make_element(A, [Fraction(1, 2), 0]),
    }
    with pytest.raises(ValueError) as info:
        eval_thrice(parse_term(text), env, A)
    assert type(info.value) is error
    assert str(info.value) == message


@settings(max_examples=100, deadline=None)
@given(
    bound_terms(), st.sampled_from([-1, 1, 2]),
    st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6),
)
def test_eval_term_ignores_an_unreferenced_binding_from_another_algebra(bound, extra, v):
    """The denominators come from A's bindings; w has another number of coordinates."""
    t, A, env = bound
    other = make_algebra((f"x{i + 1}", LINF) for i in range(len(A.factors) + extra))
    wider = {"w": make_element(other, [v] * len(other.factors)), **env}
    assert eval_thrice(t, wider, A) == eval_thrice(t, env, A)


def test_eval_term_on_huge_denominators_matches_the_fraction_reference():
    """A 10^12-step chain and three coprime 1,000-digit denominators stay cheap."""
    A = parse_algebra("L1000000000001 * Linf")
    step = 10 ** 12
    p, q, r = 10 ** 999, 10 ** 999 + 1, 10 ** 999 - 1  # pairwise coprime
    env = {
        "x": make_element(A, [Fraction(1, step), Fraction(p // 3, p)]),
        "y": make_element(A, [Fraction(step // 2 - 1, step), Fraction(q // 7, q)]),
        "z": make_element(A, [Fraction(step - 3, step), Fraction(2 * r // 3, r)]),
    }
    texts = [
        "x (+) y (+) z",
        "~x (.) ~y -> z",
        "(x -> y) /\\ (y -> z) \\/ ~(z (.) x)",
        "((x (+) ~y) (.) (z -> x)) \\/ (y /\\ ~z (+) x (.) y)",
        "~(x (.) y (.) z) -> (x /\\ y /\\ z)",
    ]
    for text in texts:
        t = parse_term(text)
        want = tuple(ref_eval(t, env, i) for i in range(2))
        for _ in range(3):  # walked, compiled, run again
            start = time.perf_counter()
            value = eval_term(t, env, A)
            assert time.perf_counter() - start < 1
            assert value.coords == want, text


@pytest.mark.parametrize("text", [
    "1",
    "~0 (+) 0",  # no variable: the program loops over the denominators alone
    "if (+) None",  # Python keywords are DSL labels, and never reach the program's source
    "lambda -> class",
    "~(if (.) lambda) \\/ (None /\\ ~class) -> if",
])
def test_eval_term_gives_the_reference_on_every_evaluation(text):
    A = parse_algebra("L5 * Linf")
    env = {name: make_element(A, [Fraction(k, 4), Fraction(k, 7)])
           for k, name in enumerate(["if", "None", "lambda", "class"])}
    t = parse_term(text)
    assert eval_thrice(t, env, A).coords == tuple(ref_eval(t, env, i) for i in range(2))


# A term exactly MAX_TERM_DEPTH high in each shape
RUN = parse_term("~" * (MAX_TERM_DEPTH - 1) + "x")
LEFT_CHAIN = parse_term("x" + " (+) y" * (MAX_TERM_DEPTH - 1))
RIGHT_CHAIN = parse_term("x -> (" * (MAX_TERM_DEPTH - 1) + "x" + ")" * (MAX_TERM_DEPTH - 1))
HIGHEST = {"run": RUN, "left-chain": LEFT_CHAIN, "right-chain": RIGHT_CHAIN}

# The source of each call, which is also its test id
UNBUILDABLE_NODES = [
    ("Const(2)", "Const.value must be the int 0 or 1, not 2"),
    ("Const(True)", "Const.value must be the int 0 or 1, not True"),
    ("Const(-1)", "Const.value must be the int 0 or 1, not -1"),
    ("Var(3)", "Var.name must be a label, not 3"),
    ("Var('')", "Var.name must be a label, not ''"),
    ("Var('1x')", "Var.name must be a label, not '1x'"),
    ("Var('x y')", "Var.name must be a label, not 'x y'"),
    ("Neg('x')", "Neg.arg must be a Term, not 'x'"),
    ("BinOp('xor', Var(name='x'), Var(name='y'))",
     "BinOp.op must be a key of MV_KERNELS, not 'xor'"),
    ("BinOp(['oplus'], Var(name='x'), Var(name='y'))",
     "BinOp.op must be a key of MV_KERNELS, not ['oplus']"),
    ("BinOp('oplus', 'x', Var(name='y'))", "BinOp.left must be a Term, not 'x'"),
    ("BinOp('oplus', Var(name='x'), 'y')", "BinOp.right must be a Term, not 'y'"),
    ("Term()", "Term is abstract: build a Const, Var, Neg or BinOp"),
    ("Neg(Term())", "Term is abstract: build a Const, Var, Neg or BinOp"),
    ("Neg(RUN)", "Neg must be at most 100 high, not 101"),
    ("Neg(LEFT_CHAIN)", "Neg must be at most 100 high, not 101"),
    ("BinOp('oplus', LEFT_CHAIN, Var(name='x'))", "BinOp must be at most 100 high, not 101"),
    ("BinOp('oplus', Var(name='x'), RIGHT_CHAIN)", "BinOp must be at most 100 high, not 101"),
    ("BinOp('meet', RUN, RIGHT_CHAIN)", "BinOp must be at most 100 high, not 101"),
]


@pytest.mark.parametrize("call, message", UNBUILDABLE_NODES, ids=[c for c, _ in UNBUILDABLE_NODES])
def test_a_node_that_parse_term_could_never_build_is_refused(call, message):
    """The message names the node class and the bad value, not the subtree."""
    with pytest.raises(ValueError) as info:
        eval(call)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("shape", HIGHEST)
def test_a_term_at_the_height_limit_is_a_whole_term(shape):
    """It builds, renders, parses back, evaluates alike when walked, compiled and
    run compiled, and keeps its height through copies, pickles and replace."""
    t = HIGHEST[shape]
    assert t.height == MAX_TERM_DEPTH
    assert parse_term(render(t)) == t
    A = parse_algebra("L5 * Linf * L3")
    env = {name: make_element(A, [Fraction(k, 4), Fraction(k, 7), Fraction(k % 3, 2)])
           for k, name in enumerate("xyz", 1)}
    assert eval_thrice(t, env, A).coords == tuple(ref_eval(t, env, i) for i in range(3))
    _, program = _compile(t)  # no temporaries: its locals are dens, the c and v columns, d, out
    assert [v for v in program.__code__.co_varnames if v[0] not in "cdv"] == ["out"]
    change = {"op": "join"} if type(t) is BinOp else {"arg": Neg(t.arg.arg)}  # a new node
    for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)),
                  dataclasses.replace(t), dataclasses.replace(t, **change)):
        assert clone.height == MAX_TERM_DEPTH


def test_eval_term_and_render_refuse_a_root_that_is_no_term():
    A = parse_algebra("L3")
    with pytest.raises(TypeError, match="^not a term: 'x'$"):
        eval_term("x", {"x": unit(A)}, A)
    with pytest.raises(TypeError, match="^cannot render str$"):
        render("x")


def test_walked_and_compiled_evaluations_leave_no_reference_cycle():
    """Reference counting alone frees what an evaluation leaves, so a stream of
    evaluations never wakes the cyclic collector: a walk written as a closure
    that calls itself would leave one cycle per evaluation."""
    A = parse_algebra("L5 * Linf")
    env = {"x": make_element(A, [Fraction(1, 4), Fraction(2, 7)]),
           "y": make_element(A, [Fraction(3, 4), Fraction(1, 3)])}
    text = "~(x (+) y) -> (x /\\ ~y) \\/ x (.) y"
    compiled = parse_term(text)
    for _ in range(2):
        eval_term(compiled, env, A)
    fresh = [parse_term(text) for _ in range(20)]
    gc.collect()
    gc.disable()
    try:
        for t in fresh:
            eval_term(t, env, A)  # each walked once
        for _ in range(20):
            eval_term(compiled, env, A)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_threads_evaluating_one_fresh_term_get_the_walks_value():
    """More threads than cores race through the first, second and later
    evaluations of each of a series of fresh terms, with the interpreter
    switching threads as often as it can."""
    A = parse_algebra("L7 * Linf * L4")
    env = {"x": make_element(A, [Fraction(1, 3), Fraction(2, 7), Fraction(1, 3)]),
           "y": make_element(A, [Fraction(5, 6), Fraction(1, 2), Fraction(2, 3)])}
    text = "(x -> ~y) (+) (y (.) x) \\/ ~(x /\\ y) (.) ~~x"
    want = eval_term(parse_term(text), env, A)  # a fresh term's first evaluation walks it
    workers = min(2 * (os.cpu_count() or 1) + 1, 16)
    outcomes = []

    def evaluate(t, barrier):
        barrier.wait(timeout=10)
        for _ in range(4):
            try:
                outcomes.append(eval_term(t, env, A))
            except Exception as exc:
                outcomes.append(exc)

    rounds, deadline = 0, time.perf_counter() + 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        while rounds < 50 and time.perf_counter() < deadline:
            t, barrier = parse_term(text), threading.Barrier(workers)
            threads = [threading.Thread(target=evaluate, args=(t, barrier)) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert len(outcomes) == 4 * workers * rounds
    assert all(outcome == want for outcome in outcomes)


def test_render_algebra():
    assert render(make_algebra([("x1", ChainSize(2)), ("x2", ChainSize(3))])) == "L2 * L3"
    assert render(make_algebra([("a", ChainSize(2))])) == "[a: L2]"
    assert render(make_algebra([])) == "[]"


def test_render_multiset():
    assert render(EMultiset((("a", INF),))) == "{a:inf}"
    assert render(EMultiset(())) == "{}"


def test_render_term_minimal_parens():
    assert render(parse_term("x (+) y (.) z")) == "x (+) y (.) z"
    assert render(parse_term("(x (+) y) (.) z")) == "(x (+) y) (.) z"
    assert render(parse_term("~(x (+) y)")) == "~(x (+) y)"
    assert render(parse_term("x (+) (y (+) z)")) == "x (+) (y (+) z)"


ROUND_TRIP_CORPUS = [
    "L2", "Linf", "L2 * L3", "L2 * L2 * Linf",
    "[a: L2]", "[a: L3, b: Linf]", "[]",
    "{}", "{a:1}", "{a:2, b:inf}", "{a:1, b:2, c:3}",
    "~x", "x (+) y", "x (.) y", "x /\\ y", "x \\/ y", "x -> y",
    "~x (+) x", "x (+) y (.) z", "(x (+) y) (.) z",
    "~(x /\\ y) \\/ ~z", "x -> y -> z", "0 (+) 1",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_round_trip(text):
    if text.startswith("{"):
        parse = parse_multiset
    elif text.startswith(("L", "[")):
        parse = parse_algebra
    else:
        parse = parse_term
    v = parse(text)
    assert parse(render(v)) == v
    # canonical text is a fixpoint of render
    assert render(parse(render(v))) == render(v)


# Labels that look like keywords or chains, and auto labels x1, x2, ..., so that
# the product form renders; the largest chain size and multiplicity accepted
OBJECT_LABELS = ["inf", "Linf", "L2", "_c", "x1", "x2", "x3"]
chain_sizes = st.one_of(st.just(LINF), st.sampled_from([2, 3, 10, DIGITS_BOUND - 1]).map(ChainSize))
multiplicities = st.sampled_from([1, 2, 12, INF, DIGITS_BOUND - 2])


@st.composite
def objects(draw):
    """An algebra or a multiset, possibly empty; half of the time labelled x1, x2, ..."""
    if draw(st.booleans()):
        labels = [f"x{i + 1}" for i in range(draw(st.integers(0, 6)))]
    else:
        labels = draw(st.lists(st.sampled_from(OBJECT_LABELS), max_size=6, unique=True))
    if draw(st.booleans()):
        return EMultiset(tuple((label, draw(multiplicities)) for label in labels))
    return make_algebra([(label, draw(chain_sizes)) for label in labels])


@settings(max_examples=200, deadline=None)
@given(objects())
def test_objects_round_trip_through_render(v):
    """parse(render(v)) == v, and render is a fixpoint: it gives back the text it read."""
    text = render(v)
    assert parse_object(text) == v
    assert render(parse_object(text)) == text


def test_tautologies_on_small_algebras():
    taut = parse_term("~x (+) x")
    contradiction = parse_term("x (.) ~x")
    for sizes in itertools.combinations_with_replacement((2, 3, 4), 2):
        A = make_algebra((f"x{i}", ChainSize(n)) for i, n in enumerate(sizes))
        for f in enumerate_elements(A):
            assert eval_term(taut, {"x": f}, A) == unit(A)
            assert eval_term(contradiction, {"x": f}, A).coords == (0,) * len(sizes)


def test_eval_commutes_with_projection():
    from chmv.duality import apply_hom, projection

    A = make_algebra([("a", ChainSize(3)), ("b", ChainSize(4))])
    t = parse_term("~(x /\\ y) (+) y")
    p = projection(A, "b")
    chain = p.target
    for f, g in itertools.product(enumerate_elements(A), repeat=2):
        whole = apply_hom(p, eval_term(t, {"x": f, "y": g}, A))
        part = eval_term(
            t, {"x": apply_hom(p, f), "y": apply_hom(p, g)}, chain
        )
        assert whole == part
