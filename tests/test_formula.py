"""Grammar, printing, and formula evaluation."""

import copy
import pickle
import re
import signal
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from neutrocalc import (
    And,
    ArityError,
    BoundsViolation,
    ClampWarning,
    EvalRequest,
    FormulaSyntaxError,
    Hesitant,
    Implies,
    IntervalValued,
    InvalidInterval,
    Literal,
    MonadKind,
    NeutroCalcError,
    NeutroTriple,
    Nonstandard,
    Not,
    NsInterval,
    NsNumber,
    OffsetBounds,
    OperatorConfig,
    OperatorFamily,
    Or,
    Role,
    ShapeMismatch,
    SingleValued,
    TNormFamily,
    UnboundIdentifier,
    Var,
    add_ns,
    anomaly_check,
    bimonad,
    classify_logic,
    compare_ns,
    conj,
    contains,
    equal_ns,
    evaluate,
    format_triple,
    free_identifiers,
    inf_ns,
    inf_ns_set,
    infinitely_close,
    left,
    max_ns,
    min_ns,
    neg,
    parse,
    parse_nsnumber,
    right,
    rough_contains,
    roughly_leq,
    scale_triple,
    std,
    sup_ns,
    sup_ns_set,
    triple_sums,
    truth_grade,
    unparse,
    validate,
)
from neutrocalc import formula, monads
from neutrocalc.formula import _MONAD_LETTER, _SPELLINGS, _component, _lex, _postorder

IF_MINMAX = OperatorConfig(OperatorFamily.F_ALIGNED, TNormFamily.MIN_MAX)


class TestParse:
    def test_single_triple(self):
        assert parse("<0.7, 0.2, 0.1>") == Literal(NeutroTriple.single(0.7, 0.2, 0.1))

    def test_interval_triple(self):
        node = parse("<[0.1,0.2],[0,0.3],[0.5,0.9]>")
        assert node == Literal(
            NeutroTriple(
                IntervalValued(0.1, 0.2), IntervalValued(0, 0.3), IntervalValued(0.5, 0.9)
            )
        )

    def test_hesitant_triple(self):
        node = parse("<{0.2,0.5},{0},{0.1}>")
        assert node == Literal(
            NeutroTriple(Hesitant([0.2, 0.5]), Hesitant([0]), Hesitant([0.1]))
        )

    def test_decorated_triple_promotes_bare_numbers(self):
        node = parse("<R(1), 0, 0>")
        assert node == Literal(NeutroTriple.nonstandard(right(1), std(0), std(0)))

    def test_negative_numbers(self):
        assert parse("<-0.1, 0, 0>") == Literal(NeutroTriple.single(-0.1, 0, 0))

    def test_precedence(self):
        node = parse("a & b -> !c | d")
        assert node == Implies(And(Var("a"), Var("b")), Or(Not(Var("c")), Var("d")))

    def test_implication_is_right_associative(self):
        assert parse("a -> b -> c") == Implies(Var("a"), Implies(Var("b"), Var("c")))

    def test_left_associative_chains(self):
        assert parse("a & b & c") == And(And(Var("a"), Var("b")), Var("c"))
        assert parse("a | b | c") == Or(Or(Var("a"), Var("b")), Var("c"))

    def test_parentheses(self):
        assert parse("a & (b | c)") == And(Var("a"), Or(Var("b"), Var("c")))

    def test_unicode_aliases(self):
        assert parse("¬a ∧ b → c ∨ d") == parse("!a & b -> c | d")

    def test_whitespace_insignificant(self):
        assert parse(" < 0.7 ,0.2,  0.1 > ") == parse("<0.7,0.2,0.1>")

    def test_free_identifiers(self):
        assert free_identifiers(parse("a & !b -> (c | a)")) == frozenset({"a", "b", "c"})


class TestParseErrors:
    def test_two_component_triple(self):
        with pytest.raises(ArityError) as exc:
            parse("<0.5,0.5>")
        assert exc.value.offset == 1

    def test_four_component_triple(self):
        with pytest.raises(ArityError):
            parse("<1,0,0,0>")

    def test_missing_operand(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("a &")
        assert exc.value.offset == 4
        assert "identifier" in exc.value.expected

    def test_unclosed_paren(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("(a | b")
        assert "')'" in exc.value.expected

    def test_trailing_input(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("a b")
        assert exc.value.offset == 3
        assert "end of input" in exc.value.expected

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("a @ b")
        assert exc.value.offset == 3

    def test_component_expected_set(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("<a, 0, 0>")
        assert {"number", "'['", "'{'", "'L('", "'R('", "'B('"} == set(exc.value.expected)

    def test_decorated_number_expected_set(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_nsnumber("x")
        assert (exc.value.offset, exc.value.expected) == (
            1,
            frozenset({"number", "'L('", "'R('", "'B('"}),
        )

    def test_mixed_component_shapes(self):
        with pytest.raises(ShapeMismatch):
            parse("<[0,1], 0.5, 0.5>")
        with pytest.raises(ShapeMismatch):
            parse("<L(0.5), {0.1}, 0.5>")

    def test_offsets_are_one_based(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("@")
        assert exc.value.offset == 1


_ATOM = {"'<'", "identifier", "'('", "'!'"}
_AFTER = {"'&'", "'|'", "'->'", "end of input"}
_COMP = {"number", "'['", "'{'", "'L('", "'R('", "'B('"}
_NSNUM = {"number", "'L('", "'R('", "'B('"}

# (function, text) -> (error type, str(error), offset, expected): one row or
# more for every place the lexer, the parser and parse_nsnumber raise.  An
# error raised while building a parsed literal has no offset (None) and no
# expected set.
_ERROR_CASES = [
    (parse, "a - b", (FormulaSyntaxError, "stray '-' (at position 3)", 3, {"'->'", "number"})),
    (parse, "a @ b", (FormulaSyntaxError, "unexpected character '@' (at position 3)", 3, set())),
    (parse, "", (
        FormulaSyntaxError, "expected a formula atom, found end of input (at position 1)", 1, _ATOM,
    )),
    (parse, "a &", (
        FormulaSyntaxError, "expected a formula atom, found end of input (at position 4)", 4, _ATOM,
    )),
    (parse, "!)", (
        FormulaSyntaxError, "expected a formula atom, found ')' (at position 2)", 2, _ATOM,
    )),
    (parse, "0.5", (
        FormulaSyntaxError, "expected a formula atom, found number (at position 1)", 1, _ATOM,
    )),
    (parse, "a b", (
        FormulaSyntaxError, "unexpected identifier after formula (at position 3)", 3, _AFTER,
    )),
    (parse, "a)", (FormulaSyntaxError, "unexpected ')' after formula (at position 2)", 2, _AFTER)),
    (parse, "L(0.3)", (
        FormulaSyntaxError, "unexpected '(' after formula (at position 2)", 2, _AFTER,
    )),
    (parse, "(a | b", (
        FormulaSyntaxError, "expected ')', found end of input (at position 7)", 7, {"')'"},
    )),
    (parse, "((a) b", (
        FormulaSyntaxError, "expected ')', found identifier (at position 6)", 6, {"')'"},
    )),
    (parse, "<a, 0, 0>", (
        FormulaSyntaxError, "expected a triple component, found identifier (at position 2)", 2,
        _COMP,
    )),
    (parse, "<0, L 0.5, 0>", (
        FormulaSyntaxError, "expected a triple component, found identifier (at position 5)", 5,
        _COMP,
    )),
    (parse, "<0,0 0>", (
        FormulaSyntaxError, "expected ',', '>', found number (at position 6)", 6, {"','", "'>'"},
    )),
    (parse, "<0,0,0", (
        FormulaSyntaxError, "expected ',', '>', found end of input (at position 7)", 7,
        {"','", "'>'"},
    )),
    (parse, "<{0 1},0,0>", (
        FormulaSyntaxError, "expected ',', '}', found number (at position 5)", 5, {"','", "'}'"},
    )),
    (parse, "<[0 1],0,0>", (
        FormulaSyntaxError, "expected ',', found number (at position 5)", 5, {"','"},
    )),
    (parse, "<[0,1 0>", (
        FormulaSyntaxError, "expected ']', found number (at position 7)", 7, {"']'"},
    )),
    (parse, "<[a,1],0,0>", (
        FormulaSyntaxError, "expected number, found identifier (at position 3)", 3, {"number"},
    )),
    (parse, "<{0,},0,0>", (
        FormulaSyntaxError, "expected number, found '}' (at position 5)", 5, {"number"},
    )),
    (parse, "<L(x),0,0>", (
        FormulaSyntaxError, "expected number, found identifier (at position 4)", 4, {"number"},
    )),
    (parse, "<L(1,0,0>", (
        FormulaSyntaxError, "expected ')', found ',' (at position 5)", 5, {"')'"},
    )),
    (parse, "<0.5,0.5>", (
        ArityError, "triple literal has 2 components, expected 3 (at position 1)", 1, set(),
    )),
    (parse, "a & <1,0,0,0>", (
        ArityError, "triple literal has 4 components, expected 3 (at position 5)", 5, set(),
    )),
    (parse_nsnumber, "x", (
        FormulaSyntaxError, "expected a decorated number, found identifier (at position 1)", 1,
        _NSNUM,
    )),
    (parse_nsnumber, "[0,1]", (
        FormulaSyntaxError, "expected a decorated number, found '[' (at position 1)", 1, _NSNUM,
    )),
    (parse_nsnumber, "", (
        FormulaSyntaxError, "expected a decorated number, found end of input (at position 1)", 1,
        _NSNUM,
    )),
    (parse_nsnumber, "{0.5}", (  # a component spelling, but not a decorated number
        FormulaSyntaxError, "expected a decorated number, found '{' (at position 1)", 1, _NSNUM,
    )),
    (parse_nsnumber, "L 0.5", (  # a monad letter that "(" does not follow
        FormulaSyntaxError, "expected a decorated number, found identifier (at position 1)", 1,
        _NSNUM,
    )),
    (parse_nsnumber, "R(", (
        FormulaSyntaxError, "expected number, found end of input (at position 3)", 3, {"number"},
    )),
    (parse_nsnumber, "L(0.3", (
        FormulaSyntaxError, "expected ')', found end of input (at position 6)", 6, {"')'"},
    )),
    (parse_nsnumber, "0.8 x", (
        FormulaSyntaxError, "expected end of input, found identifier (at position 5)", 5,
        {"end of input"},
    )),
    (parse_nsnumber, " L(1) )", (
        FormulaSyntaxError, "expected end of input, found ')' (at position 7)", 7,
        {"end of input"},
    )),
    (parse_nsnumber, "- 1", (FormulaSyntaxError, "stray '-' (at position 1)", 1, {"'->'", "number"})),
    (parse_nsnumber, "L(1)?", (
        FormulaSyntaxError, "unexpected character '?' (at position 5)", 5, set(),
    )),
    # Near misses of the scanner's literal shapes: each falls through to
    # the token-level reader, or builds and fails in the parser.
    (parse, "<1, 2>", (
        ArityError, "triple literal has 2 components, expected 3 (at position 1)", 1, set(),
    )),
    (parse, "<1, 2, 3, 4>", (
        ArityError, "triple literal has 4 components, expected 3 (at position 1)", 1, set(),
    )),
    (parse, "<1.5e3, 0, 0>", (
        FormulaSyntaxError, "expected ',', '>', found identifier (at position 5)", 5,
        {"','", "'>'"},
    )),
    (parse, "<{0.1,}, {0}, {0}>", (
        FormulaSyntaxError, "expected number, found '}' (at position 7)", 7, {"number"},
    )),
    (parse, "<B(0.5, 0, 0>", (
        FormulaSyntaxError, "expected ')', found ',' (at position 7)", 7, {"')'"},
    )),
    (parse, "<[0, 1], 0, 0>", (
        ShapeMismatch, "triple components must share one shape", None, set(),
    )),
    (parse, "<L(0.5), [0, 1], 0>", (
        ShapeMismatch, "decorated numbers cannot mix with interval or hesitant components", None,
        set(),
    )),
    (parse, "<[0.3, 0.2], [0, 1], [0, 1]>", (
        InvalidInterval, "[0.3, 0.2] is reversed", None, set(),
    )),
    (parse, "<[0.3, 0.2], [0, 1], [0, 1]> & @", (  # the lexer runs first
        FormulaSyntaxError, "unexpected character '@' (at position 32)", 32, set(),
    )),
    # A literal is built where the parser reaches it: its InvalidInterval
    # comes after every lexing error and before a later syntax error.
    (parse, "<[0.5,0.1],[0,1],[0,1]> & )", (
        InvalidInterval, "[0.5, 0.1] is reversed", None, set(),
    )),
    (parse, "<[0.5,0.1],[0,1],[0,1]> & @", (
        FormulaSyntaxError, "unexpected character '@' (at position 27)", 27, set(),
    )),
    (parse, ") & <[0.5,0.1],[0,1],[0,1]>", (
        FormulaSyntaxError, "expected a formula atom, found ')' (at position 1)", 1, _ATOM,
    )),
    (parse, "<1,2,3> <1,2,3>", (
        FormulaSyntaxError, "unexpected '<' after formula (at position 9)", 9, _AFTER,
    )),
]


@pytest.mark.parametrize(
    "fn, text, expected", _ERROR_CASES, ids=[f"{fn.__name__}:{text}" for fn, text, _ in _ERROR_CASES]
)
def test_error_table(fn, text, expected):
    with pytest.raises(NeutroCalcError) as exc:
        fn(text)
    error = exc.value
    offset, expected_set = getattr(error, "offset", None), getattr(error, "expected", ())
    assert (type(error), str(error), offset, set(expected_set)) == expected


_HALF = Fraction(1, 2)

# Input -> [(kind, text, 1-based offset, value)] tokens without "end", or
# the FormulaSyntaxError as (message, offset, expected).
_LEX_CASES = [
    ("-", ("stray '-' (at position 1)", 1, {"'->'", "number"})),
    ("a - b", ("stray '-' (at position 3)", 3, {"'->'", "number"})),
    ("-.5", [("number", "-.5", 1, -_HALF)]),
    ("5.", [("number", "5.", 1, Fraction(5))]),
    (".", ("unexpected character '.' (at position 1)", 1, set())),
    ("<.>", ("unexpected character '.' (at position 2)", 2, set())),
    ("²", ("unexpected character '²' (at position 1)", 1, set())),
    ("a²", ("unexpected character '²' (at position 2)", 2, set())),
    ("٣", [("number", "٣", 1, Fraction(3))]),
    ("<٣.٥,0,0>", [  # a well-formed literal is one token: its shape and component texts
        ("<", "<", 1, ("single", ("٣.٥", "0", "0"))),
    ]),
    ("a\u00a0&\tb\n|c", [  # NBSP, tab and newline are whitespace
        ("ident", "a", 1, None), ("&", "&", 3, None), ("ident", "b", 5, None),
        ("|", "|", 7, None), ("ident", "c", 8, None),
    ]),
    ("¬a ∧ b → c ∨ d", [
        ("!", "¬", 1, None), ("ident", "a", 2, None), ("&", "∧", 4, None),
        ("ident", "b", 6, None), ("->", "→", 8, None), ("ident", "c", 10, None),
        ("|", "∨", 12, None), ("ident", "d", 14, None),
    ]),
    ("->-0.5", [("->", "->", 1, None), ("number", "-0.5", 3, -_HALF)]),
    ("x1->-.5 ", [("ident", "x1", 1, None), ("->", "->", 3, None), ("number", "-.5", 5, -_HALF)]),
    ("1.5e3", [("number", "1.5", 1, Fraction(3, 2)), ("ident", "e3", 4, None)]),
    ("-->", ("stray '-' (at position 1)", 1, {"'->'", "number"})),
    ("a @", ("unexpected character '@' (at position 3)", 3, set())),
]


@pytest.mark.parametrize("text, expected", _LEX_CASES)
def test_lexer_table(text, expected):
    if isinstance(expected, tuple):
        with pytest.raises(FormulaSyntaxError) as exc:
            _lex(text)
        assert (str(exc.value), exc.value.offset, set(exc.value.expected)) == expected
        return
    tokens = _lex(text)
    assert tokens[:-1] == expected
    assert tokens[-1][::2] == ("end", len(text) + 1)


def test_lexer_reads_digits_exactly():
    digits = "0." + "0" * 5000 + "1"
    ((*_, value), _) = _lex(digits)
    assert value == Fraction(1, 10**5001)
    assert _lex("-0012.50")[0][3] == Fraction(-25, 2)


_SPACE = st.text(alphabet=" \t\n\u00a0", max_size=3)

# Zero of each digit family drawn: ASCII, Arabic-Indic, Devanagari, fullwidth.
_DIGIT_ZEROS = [0x30, 0x660, 0x966, 0xFF10]
_MONADS = {"L": MonadKind.LEFT, "R": MonadKind.RIGHT, "B": MonadKind.BIMONAD}


@st.composite
def _spelled_number(draw):
    """Some spelling of a decimal number the grammar accepts, and its value."""
    whole = draw(st.text(alphabet="0123456789", max_size=4))
    frac = draw(st.text(alphabet="0123456789", max_size=4))
    if whole and draw(st.booleans()):
        point = "." if frac or draw(st.booleans()) else ""  # "5." is a number
    else:  # ".5" when whole is empty
        point, frac = ".", frac or "5"
    sign = draw(st.sampled_from(["", "-"]))
    value = Fraction(int(whole or "0")) + Fraction(int(frac or "0"), 10 ** len(frac))
    zero = draw(st.sampled_from(_DIGIT_ZEROS))
    spelled = "".join(chr(zero + int(c)) if c.isdigit() else c for c in whole + point + frac)
    return sign + spelled, -value if sign else value


@st.composite
def _spelled_literal(draw):
    """A well-formed triple literal of any shape, spaced at random, and the
    triple the public constructors build from the drawn values."""
    gap = lambda: draw(_SPACE)  # noqa: E731
    shape = draw(st.sampled_from(["single", "interval", "hesitant", "decorated"]))
    texts, parts = [], []
    for _ in range(3):
        if shape == "single":
            text, value = draw(_spelled_number())
            parts.append(value)
        elif shape == "interval":
            ends = draw(st.lists(_spelled_number(), min_size=2, max_size=2))
            (a, x), (b, y) = sorted(ends, key=lambda n: n[1])
            text = f"[{gap()}{a}{gap()},{gap()}{b}{gap()}]"
            parts.append(IntervalValued(x, y))
        elif shape == "hesitant":
            drawn = draw(st.lists(_spelled_number(), min_size=1, max_size=4))
            text = "{" + ",".join(gap() + t + gap() for t, _ in drawn) + "}"
            parts.append(Hesitant([v for _, v in drawn]))
        else:
            text, value = draw(_spelled_number())
            letter = draw(st.sampled_from(["", "L", "R", "B"]))
            if letter:
                text = f"{letter}{gap()}({gap()}{text}{gap()})"
            parts.append(NsNumber(value, _MONADS[letter]) if letter else std(value))
        texts.append(text)
    text = "<" + ",".join(gap() + t + gap() for t in texts) + ">"
    if shape == "single":
        expected = NeutroTriple.single(*parts)
    elif shape == "decorated" and all(p.kind is MonadKind.STD for p in parts):
        expected = NeutroTriple.single(*(p.value for p in parts))
    elif shape == "decorated":
        expected = NeutroTriple.nonstandard(*parts)
    else:
        expected = NeutroTriple(*parts)
    return text, expected


@given(_spelled_literal(), _SPACE)
def test_well_formed_literals_lex_to_one_token(literal, lead):
    text, expected = literal
    tokens = _lex(lead + text)
    assert len(tokens) == 2 and tokens[1][0] == "end"
    kind, _, offset, comps = tokens[0]
    assert (kind, offset) == ("<", len(lead) + 1) and comps is not None
    assert parse(lead + text) == Literal(expected)


@st.composite
def _hesitant_numerals(draw):
    """The numerals of one hesitant set, as _spelled_number spells them
    (signs, "-0", ".5", "5.", digits of four families, zero to four
    places), and at times one of them again with trailing zeros, which
    spells the same value: 0.5 and 0.50."""
    texts = [draw(_spelled_number())[0] for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        text = draw(st.sampled_from(texts))
        texts.append(text + ("" if "." in text else ".") + "0" * draw(st.integers(0, 3)))
    return draw(st.permutations(texts))


_LIMIT = sys.get_int_max_str_digits()


@given(_hesitant_numerals(), _SPACE, _SPACE)
@example(["-0", "0", ".5", "5.", "0.5", "0.50", "-.25", "٠.٥"], " ", "\u00a0")
@example(["1" * (_LIMIT + 1), "0." + "3" * (_LIMIT + 1), "-" + "٩" * (2 * _LIMIT), "0.5"], "", "")
def test_hesitant_literals_read_to_integers(texts, before, after):
    """A hesitant literal's numerals, spaced at random, read straight to
    integers over a power of 10, give the set that Fraction reads them to
    one by one, in the same integer form; runs past the int() digit limit
    included."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # Fraction reads each run through int()
    try:
        expected = Hesitant([Fraction(t) for t in texts])
    finally:
        sys.set_int_max_str_digits(limit)
    spaced = f"{before},{after}".join(before + t + after for t in texts)
    read = parse("<{" + spaced + "}, {0}, {0}>").value.t
    assert read == expected
    assert (read._nums, read._den) == (expected._nums, expected._den)


@st.composite
def _spelling_tokens(draw, kinds):
    """Token texts of a component spelled by `kinds`, as _SPELLINGS writes
    them: a number in any accepted spelling, a monad letter for "ident",
    and for a pair (item, close) one to three items apart by "," and then
    close."""
    texts = []
    for kind in kinds:
        if isinstance(kind, tuple):
            item, close = kind
            for n in range(draw(st.integers(1, 3))):
                texts += [","] * (n > 0) + draw(_spelling_tokens(item))
            texts.append(close)
        elif kind == "number":
            texts.append(draw(_spelled_number())[0])
        elif kind == "ident":
            texts.append(draw(st.sampled_from(sorted(_MONAD_LETTER))))
        else:
            texts.append(kind)
    return texts


def _spaced(draw, texts, gaps):
    """texts with a gap drawn from gaps between each two."""
    return "".join(draw(gaps) + t if n else t for n, t in enumerate(texts))


@pytest.mark.parametrize("key", _SPELLINGS)
@given(data=st.data())
def test_spelling_kinds_and_pattern_agree(key, data):
    """Each row's two columns, the kinds `_component` reads and the pattern
    the scanner takes its shapes from, accept the same texts: a spelling
    built from the kinds, and not once one of its tokens is dropped or
    doubled."""
    kinds, pattern = _SPELLINGS[key]
    texts = data.draw(_spelling_tokens(kinds))
    text = _spaced(data.draw, texts, _SPACE)
    assert re.fullmatch(pattern, text)
    tokens = _lex(text)
    assert _component(tokens, 0) == len(tokens) - 1

    k = data.draw(st.integers(0, len(texts) - 1))
    texts[k:k + 1] = data.draw(st.sampled_from([[], [texts[k]] * 2]))
    # Never an empty gap, so that no two tokens merge into one.
    text = _spaced(data.draw, texts, st.text(alphabet=" \t\n\u00a0", min_size=1, max_size=3))
    assert not re.fullmatch(pattern, text)
    tokens = _lex(text)
    try:
        assert _component(tokens, 0) < len(tokens) - 1
    except FormulaSyntaxError:
        pass


_HOSTILE = {
    # Near misses of the literal shapes.  With an ambiguous number pattern
    # in the scanner's literal alternatives, the unclosed ten-value set
    # takes about 20 s, and the digit run backtracks quadratically.
    "hesitant-10000": ("<{" + ", ".join(["123456"] * 10_000) + " @", 80_002),
    "hesitant-10": ("<{" + ", ".join(["123456"] * 10) + " @", 82),
    "digits-100000": ("<" + "1" * 100_000 + " @", 100_003),
    # Past int()'s digit limit the lexer reads a number's digits in halves;
    # read through Decimal, in quadratic time, this run took over 6 s.
    "digits-400000": ("<" + "1" * 400_000 + " @", 400_003),
}
# Seconds a scan may take, where not 1.
_SECONDS = {"digits-400000": 2}


def _over_time(signum, frame):
    raise TimeoutError("parse ran past its time bound")


@pytest.mark.parametrize("name", _HOSTILE)
def test_hostile_literals_scan_in_linear_time(name):
    """A timer signal interrupts the regex engine, so a scan that would
    run for hours fails in 1 s instead."""
    text, offset = _HOSTILE[name]
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, _SECONDS.get(name, 1))
    try:
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (str(exc.value), exc.value.offset) == (
        f"unexpected character '@' (at position {offset})", offset,
    )


def test_hesitant_literal_past_the_digit_limit_is_refused_at_once():
    """A set holds every value to its most decimal places.  10,000 values
    of 0 and one to 40,000 places, 50 kB of text, would pad to 400
    million digits and read each back as a 40,000-digit integer; it is
    refused within 1 s.  16 values to 4,096 places, 65,536 digits, are
    read."""
    text = "<{" + "0," * 10_000 + "0." + "1" * 40_000 + "}, {0}, {0}>"
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(NeutroCalcError) as exc:
            parse(text)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == (
        "hesitant set of 10001 values to 40000 decimal places exceeds the limit of 65536 digits"
    )
    values = [f"0.{k:04096d}" for k in range(16)]
    assert len(parse("<{" + ",".join(values) + "}, {0}, {0}>").value.t.values) == 16
    with pytest.raises(NeutroCalcError, match="17 values to 4096 decimal places"):
        parse("<{" + ",".join([*values, "1"]) + "}, {0}, {0}>")


class TestParseNsNumber:
    def test_forms(self):
        assert parse_nsnumber("0.8") == std(0.8)
        assert parse_nsnumber("L(0.3)") == left(0.3)
        assert parse_nsnumber("R(1)") == right(1)
        assert parse_nsnumber("B(0)") == NsNumber(0, MonadKind.BIMONAD)
        assert parse_nsnumber("-0.5") == std(-0.5)

    def test_rejects_trailing_text(self):
        with pytest.raises(FormulaSyntaxError):
            parse_nsnumber("0.8 x")

    def test_rejects_other_syntax(self):
        with pytest.raises(FormulaSyntaxError):
            parse_nsnumber("<1,0,0>")


@pytest.fixture
def empty_component_memo(monkeypatch):
    """An empty decorated-component memo for the test, the process's own
    restored after."""
    memo = {}
    monkeypatch.setattr(formula, "_COMPONENTS", memo)
    return memo


class TestComponentMemo:
    """formula._nsnum reads each decorated spelling once and keeps its
    component, bounded as monads._read_decimal's numeral memo is."""

    def test_a_spelling_is_read_once_and_equals_a_fresh_component(self, empty_component_memo):
        first = parse("<L(0.5), 0.25, R(1)>").value
        again = parse("<R(1), L(0.5), 0.25>").value
        assert (again.t, again.i, again.f) == (first.f, first.t, first.i)
        assert again.t is first.f and again.i is first.t and again.f is first.i
        assert first == NeutroTriple(
            Nonstandard(left("0.5")), Nonstandard(std("0.25")), Nonstandard(right(1))
        )
        assert len(empty_component_memo) == 3

    def test_memo_is_capped(self, empty_component_memo):
        for k in range(5_000):  # 5,000 distinct spellings, and "0"
            out = parse(f"<L(0.{k}), 0, 0>").value
            assert out.t == Nonstandard(left(f"0.{k}"))
            assert len(empty_component_memo) <= monads._MEMO_CAP
        assert len(empty_component_memo) == monads._MEMO_CAP  # full, and no longer stored into

    def test_wide_numerals_are_read_exactly_and_not_stored(self, empty_component_memo):
        wide = "0." + "7" * (monads._MEMO_WIDTH - 1)
        out = parse(f"<B({wide}), {wide}, 0>").value
        assert out.t == Nonstandard(bimonad(Fraction(wide))) and out.i == Nonstandard(std(wide))
        assert list(empty_component_memo) == ["0"]

    def test_whitespace_inside_a_monad_spelling_reads_the_same_component(
        self, empty_component_memo
    ):
        padded = parse("<L( 0.5 ), 0, 0>").value
        assert padded == parse("<L(0.5), 0, 0>").value == parse("<L\t(\n0.5\u2003), 0, 0>").value
        assert padded.t == Nonstandard(left("0.5"))
        assert list(empty_component_memo) == ["L( 0.5 )", "0", "L(0.5)", "L\t(\n0.5\u2003)"]

    def test_the_width_rule_reads_the_whole_text(self, empty_component_memo):
        """Whitespace counts against the width, so a short numeral in long
        padding is read and not stored."""
        spaced = "L(" + " " * monads._MEMO_WIDTH + "0.5)"
        assert parse(f"<{spaced}, 0, 0>").value.t == Nonstandard(left("0.5"))
        assert list(empty_component_memo) == ["0"]

    def test_threads_share_the_memo(self, empty_component_memo):
        """8 threads, more than the cores, start together and parse the same
        spellings, more than the cap, under a short switch interval."""
        threads_n = 8
        texts = [f"{'LR'[k % 2]}({k % 7}.{k:04d})" for k in range(monads._MEMO_CAP + 1000)]
        expected = [Nonstandard(parse_nsnumber(t)) for t in texts]
        start = threading.Barrier(threads_n, timeout=60)
        wrong, sizes = [], []

        def read():
            start.wait()
            largest = 0
            for t, c in zip(texts, expected):
                if parse(f"<{t}, 0, 0>").value.t != c:
                    wrong.append(t)
                largest = max(largest, len(empty_component_memo))
            sizes.append(largest)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert wrong == [] and len(sizes) == threads_n
        assert max(sizes) <= monads._MEMO_CAP + threads_n


def _captured_whole_scanner():
    """The scanner whose decorated alternative captures a monad letter, its
    numeral and a plain numeral as three groups per component, nine in all,
    with its group indices and a reader of those nine texts: the form
    before each component's text was captured whole, kept here as the
    reference of the differential below."""
    number = formula._NUMBER
    part = rf"(?:([LRB])\s*\(\s*({number})\s*\)|({number}))"
    shapes = {shape: pattern for shape, (pattern, _) in formula._SHAPES.items()}
    shapes["decorated"] = part
    scan = re.compile(
        rf"\s*(?:(?P<number>{number})|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
        + "".join(
            rf"|(?P<{shape}><\s*{p}\s*,\s*{p}\s*,\s*{p}\s*>)" for shape, p in shapes.items()
        )
        + r"|(?P<punct>->|[<>\[\]{}(),&|!∧∨¬→])|(?P<end>\Z)|(?P<bad>.))"
    )
    groups = sorted(scan.groupindex.items(), key=lambda item: item[1])
    literals = {
        shape: tuple(range(start + 1, end))
        for (shape, start), (_, end) in zip(groups, groups[1:])
        if shape in shapes
    }

    def component(letter, inner, plain):
        kind = _MONAD_LETTER[letter] if letter else MonadKind.STD
        return Nonstandard(NsNumber(monads.as_fraction(inner or plain), kind))

    def read(t):
        return NeutroTriple(*(component(*t[k : k + 3]) for k in (0, 3, 6)))

    return scan, literals, read


def _corpus_decorated_literals() -> list[str]:
    """Every distinct decorated triple literal in the formulas and CLI argvs
    of the decorated_order and cli_oneshot corpora at seeds 1-3."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(bench)
    texts = []
    for name in ("decorated_order", "cli_oneshot"):
        for seed in (1, 2, 3):
            for desc, _ in WORKLOADS[name](seed):
                texts += [desc.get("formula", ""), *desc.get("argv", ())]
    found = {m for t in texts for m in re.findall(r"<[^<>]*>", t) if re.search(r"[LRB]\(", m)}
    return sorted(found)


def _malformed(literal: str) -> list[str]:
    """Near misses of a well-formed decorated literal, each failing or
    reading differently at a known place."""
    body = literal[1:-1]
    return [
        literal[:-1],
        f"{literal[:-1]}, 0>",
        f"<{body.replace('(', ' ( ', 1).replace(')', ' ) ', 1)}>",
        f"<{body.replace(')', '', 1)}>",
        f"<{body.replace('(', '', 1)}>",
        f"<{body.replace('0', '-', 1)}>",
        f"<{body.replace('L(', 'X(', 1).replace('R(', 'X(', 1)}>",
        f"<[0, 1], {body.split(',', 1)[1]}>",
        f"<{{0.5}}, {body.split(',', 1)[1]}>",
        f"{literal} & !({literal} | x)",
        f"<{body.replace(',', ',,', 1)}>",
        f"<{body}) & {literal}",
    ]


def _outcome(text: str):
    """_lex's tokens, each decorated literal's value read to its triple, and
    parse's tree, or the type, message, offset and expected set of the
    error that either raises."""
    try:
        tokens = [
            (kind, tok, pos, formula._SHAPES[v[0]][1](v[1]) if kind == "<" and v else v)
            for kind, tok, pos, v in _lex(text)
        ]
        return tokens, parse(text)
    except NeutroCalcError as e:
        return type(e), str(e), getattr(e, "offset", None), getattr(e, "expected", None)


class TestDecoratedScanner:
    """The scanner captures each decorated component's text whole.  A
    differential against the scanner that captured its letter and numeral
    apart, over the decorated literals of the benchmark corpora and near
    misses of every 16th: the same tokens, values, trees and errors."""

    def test_same_tokens_and_errors_as_three_groups_per_component(self, monkeypatch):
        literals = _corpus_decorated_literals()
        assert len(literals) > 1000
        extra = ["<L( 0.5 ), B (1), R(\t-0.25\n)>", "<L(٠.٥), 0, 0>", "<L(1e3), 0, 0>", "<L(),0,0>"]
        cases = literals + [m for lit in literals[::16] for m in _malformed(lit)] + extra
        new = [_outcome(t) for t in cases]
        scan, literals_groups, read = _captured_whole_scanner()
        monkeypatch.setattr(formula, "_SCAN", scan)
        monkeypatch.setattr(formula, "_LITERALS", literals_groups)
        monkeypatch.setitem(formula._SHAPES, "decorated", (None, read))
        old = [_outcome(t) for t in cases]
        assert [t for t, a, b in zip(cases, new, old) if a != b] == []
        assert {type(o) for o in new} == {tuple}
        assert sum(isinstance(o[0], list) for o in new) > len(literals)  # every literal parses
        assert sum(isinstance(o[0], type) for o in new) > len(literals) // 4  # near misses fail


class TestUnparse:
    @pytest.mark.parametrize(
        "text",
        [
            "<0.7, 0.2, 0.1>",
            "<[0.1, 0.2], [0, 0.3], [0.5, 0.9]>",
            "<{0.2, 0.5}, {0}, {0.1}>",
            "<R(1), 0, 0>",
            "<L(0.2), B(0.5), 1>",
            "!a",
            "!!a",
            "a & b & c",
            "a & (b & c)",
            "(a | b) & c",
            "a -> b -> c",
            "(a -> b) -> c",
            "!(a | b)",
            "a & b | c -> d",
        ],
    )
    def test_round_trip_examples(self, text):
        tree = parse(text)
        assert parse(unparse(tree)) == tree

    def test_canonical_ascii_output(self):
        assert unparse(parse("¬a ∧ b → c ∨ d")) == "!a & b -> c | d"

    def test_triple_rendering(self):
        assert format_triple(NeutroTriple.single(0, 0, 1)) == "<0, 0, 1>"
        assert (
            format_triple(NeutroTriple.nonstandard(right(1), std(0), std(0)))
            == "<R(1), 0, 0>"
        )


#: Degrees from -2 to 3, offset ones included, to 0 to 6 decimal places:
#: a set form's products of such literals reach 12.
_DEGREES = st.integers(0, 6).flatmap(
    lambda p: st.integers(-2 * 10**p, 3 * 10**p).map(lambda k: Fraction(k, 10**p))
)


def _literal_strategy():
    nums = _DEGREES
    singles = st.builds(NeutroTriple.single, nums, nums, nums)

    def iv(pair):
        lo, hi = sorted(pair)
        return IntervalValued(lo, hi)

    intervals = st.builds(
        NeutroTriple,
        *(st.builds(iv, st.tuples(nums, nums)) for _ in range(3)),
    )
    hesitants = st.builds(
        NeutroTriple,
        *(st.builds(Hesitant, st.lists(nums, min_size=1, max_size=3)) for _ in range(3)),
    )
    decorated = st.builds(
        NsNumber, nums, st.sampled_from([MonadKind.LEFT, MonadKind.RIGHT, MonadKind.BIMONAD])
    )
    any_ns = st.one_of(decorated, st.builds(NsNumber, nums))
    # The first member is always decorated: a nonstandard triple of three
    # std members prints exactly as a single-valued literal, which parses
    # back as one (ROADMAP items 0 and 9).
    nonstandard = st.builds(
        lambda a, b, c: NeutroTriple(Nonstandard(a), Nonstandard(b), Nonstandard(c)),
        decorated,
        any_ns,
        any_ns,
    )
    return st.builds(Literal, st.one_of(singles, intervals, hesitants, nonstandard))


def _formula_strategy():
    names = st.sampled_from(["a", "b", "p", "q", "x1", "truth_deg"])
    leaves = st.one_of(_literal_strategy(), st.builds(Var, names))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
        ),
        max_leaves=12,
    )


_HESITANT_TRIPLES = st.builds(
    NeutroTriple, *[st.builds(Hesitant, st.lists(_DEGREES, min_size=1, max_size=3))] * 3
)
_CONFIGS = [OperatorConfig(f, k) for f in OperatorFamily for k in TNormFamily]


@given(
    _formula_strategy(),
    _HESITANT_TRIPLES,
    _HESITANT_TRIPLES,
    st.sampled_from(["&", "|", "->"]),
    st.sampled_from(_CONFIGS),
)
def test_round_trip_property(tree, x, y, op, cfg):
    assert parse(unparse(tree)) == tree
    # A hesitant result, its values to as many places as the set forms
    # reach, prints as text that parses back to it.
    req = EvalRequest(f"x {op} y", cfg, bounds=OffsetBounds(-2, 3), bindings={"x": x, "y": y})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampWarning)
        r = evaluate(req)
    assert parse(format_triple(r)).value == r


#: Triples whose printed text does not parse back to them (ROADMAP item 0):
#: a rational prints as n/d, a decorated interval as ]a, b[, a union with
#: ∪, and three std members as a single-valued literal.
_UNPARSED = {
    "rational": NeutroTriple.single(Fraction(1, 3), 0, 0),
    "interval_member": NeutroTriple(
        Nonstandard(NsInterval(left(0.2), right(0.4))), Nonstandard(std(0)), Nonstandard(std(0))
    ),
    "union": NeutroTriple(
        Nonstandard([left(0.2), std(0.5)]), Nonstandard(std(0)), Nonstandard(std(0))
    ),
    "std_members": NeutroTriple.nonstandard(std(0.3), std(0.4), std(0.2)),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
@pytest.mark.parametrize("x", list(_UNPARSED.values()), ids=list(_UNPARSED))
def test_printed_triple_parses_back(x):
    assert parse(format_triple(x)).value == x


# The tokens of unparse() output; a sign stays on its number.
_PRINTED_TOKEN = re.compile(r"->|-?(?:\d+\.?\d*|\.\d+)|\w+|\S")
_UNICODE = {"&": "∧", "|": "∨", "!": "¬", "->": "→"}


@given(_formula_strategy(), st.data())
def test_whitespace_and_unicode_spellings_parse_to_the_same_tree(tree, data):
    pieces = []
    for tok in _PRINTED_TOKEN.findall(unparse(tree)):
        if tok in _UNICODE and data.draw(st.booleans()):
            tok = _UNICODE[tok]
        pieces += (data.draw(_SPACE), tok)
    pieces.append(data.draw(_SPACE))
    assert parse("".join(pieces)) == tree


class TestEvaluate:
    def test_boundary_conjunction(self):
        result = evaluate(EvalRequest("<1,0,0> & <0,0,1>", IF_MINMAX))
        assert result == NeutroTriple.single(0, 0, 1)

    def test_negation_and_implication(self):
        assert evaluate(EvalRequest("!<1,0,0>")) == NeutroTriple.single(0, 0, 1)
        assert evaluate(EvalRequest("<1,0,0> -> <0,0,1>")) == NeutroTriple.single(0, 0, 1)

    def test_bindings(self):
        req = EvalRequest(
            "x & y",
            bindings={
                "x": NeutroTriple.single(0.8, 0.4, 0.3),
                "y": NeutroTriple.single(0.6, 0.2, 0.5),
            },
        )
        assert evaluate(req) == NeutroTriple.single(0.6, 0.4, 0.5)

    def test_unbound_identifier(self):
        with pytest.raises(UnboundIdentifier):
            evaluate(EvalRequest("x & <1,0,0>"))

    def test_request_keeps_a_copy_of_the_bindings(self):
        # A binding added to the caller's dict later skips the type check.
        caller = {}
        req = EvalRequest("x", bindings=caller)
        caller["x"] = 5
        assert req.bindings == {} and req == EvalRequest("x")
        with pytest.raises(UnboundIdentifier) as info:
            evaluate(req)
        assert info.value.name == "x"

    def test_first_unbound_identifier_in_source_order(self):
        names = ["d", "a", "c", "b"]
        for k in range(len(names)):
            order = names[k:] + names[:k]
            with pytest.raises(UnboundIdentifier) as info:
                evaluate(EvalRequest(" & ".join(order)))
            assert info.value.name == order[0]

    def test_first_bad_binding_in_source_order(self):
        bad = {name: NeutroTriple.single(2, 0, 0) for name in "dacb"}
        for text in ("d & a | c -> b", "b -> c | a & d", "c & !(a | d) & b"):
            with pytest.raises(BoundsViolation) as info:
                evaluate(EvalRequest(text, bindings=bad))
            assert str(info.value).startswith(f"binding {text[0]!r} ")

    def test_percent_scale(self):
        result = evaluate(EvalRequest("<100,0,0> & <0,0,100>", scale="percent"))
        assert result == NeutroTriple.single(0, 0, 1)

    def test_percent_scale_applies_to_bindings(self):
        req = EvalRequest(
            "x", scale="percent", bindings={"x": NeutroTriple.single(50, 0, 50)}
        )
        assert evaluate(req) == NeutroTriple.single(0.5, 0, 0.5)

    def test_percent_scales_each_literal_and_binding_once(self, monkeypatch):
        import neutrocalc.formula as formula_module

        calls = []

        def counting(tr, factor):
            calls.append(tr)
            return scale_triple(tr, factor)

        monkeypatch.setattr(formula_module, "scale_triple", counting)
        req = EvalRequest(
            "<100,0,0> & x | !(x -> <0,0,100>)",
            scale="percent",
            bindings={"x": NeutroTriple.single(50, 0, 50)},
        )
        result = evaluate(req)
        assert len(calls) == 3  # two literals, one binding used twice
        monkeypatch.undo()
        assert result == evaluate(req)

    def test_offset_literal_rejected_under_unit_bounds(self):
        with pytest.raises(BoundsViolation):
            evaluate(EvalRequest("<1.2,0,0> & <0,0,1>"))

    def test_offset_literal_admitted_under_widened_bounds(self):
        req = EvalRequest("<1.2,0,0> | <0,0,1>", bounds=OffsetBounds(-0.5, 1.5))
        with pytest.warns(ClampWarning):
            result = evaluate(req)
        assert result == NeutroTriple.single(1, 0, 0)

    def test_offset_binding_rejected(self):
        req = EvalRequest("x", bindings={"x": NeutroTriple.single(1.2, 0, 0)})
        with pytest.raises(BoundsViolation):
            evaluate(req)

    def test_union_binding_renders_in_errors_and_results(self):
        def union_triple():
            union = Nonstandard([left(0.2), NsInterval(std(0.3), right(2))])
            return NeutroTriple(union, Nonstandard(std(0)), Nonstandard(std(0)))

        with pytest.raises(BoundsViolation) as info:
            evaluate(EvalRequest("x", bindings={"x": union_triple()}))
        assert str(info.value) == (
            "binding 'x' <L(0.2) ∪ ]0.3, R(2)[, 0, 0> outside active bounds: "
            "t: value 2 above upper bound 1"
        )
        req = EvalRequest("x", bounds=OffsetBounds(0, 2), bindings={"x": union_triple()})
        assert format_triple(evaluate(req)) == "<L(0.2) ∪ ]0.3, R(2)[, 0, 0>"

    def test_nonstandard_evaluation(self):
        result = evaluate(EvalRequest("<R(1),0,0> & <0,0,R(1)>", IF_MINMAX))
        assert result == NeutroTriple.nonstandard(std(0), std(0), right(1))

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            EvalRequest("<1,0,0>", scale="permille")

    @pytest.mark.parametrize("scale", ["permille", [], {}, None])
    def test_bad_scale_message(self, scale):
        with pytest.raises(ValueError) as info:
            EvalRequest("<1,0,0>", scale=scale)
        assert str(info.value) == "scale must be 'unit' or 'percent'"

    @pytest.mark.parametrize("value", [5, "<1,0,0>", None, Literal(NeutroTriple.single(1, 0, 0))])
    def test_bindings_must_be_triples(self, value):
        good = NeutroTriple.single(1, 0, 0)
        with pytest.raises(TypeError) as info:
            EvalRequest("x & y", bindings={"x": good, "y": value})
        assert str(info.value) == f"binding 'y' must be a NeutroTriple, got {value!r}"

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: EvalRequest("x", bindings=[("x", NeutroTriple.single(1, 0, 0))]),
                "bindings must be a Mapping, got [('x', ",
            ),
            (lambda: EvalRequest("x", config="if"), "config must be a OperatorConfig, got 'if'"),
            (lambda: EvalRequest("x", bounds=(0, 1)), "bounds must be a OffsetBounds, got (0, 1)"),
            (lambda: Hesitant("05"), "values must be an iterable of numbers, not str"),
            (lambda: Hesitant(b"05"), "values must be an iterable of numbers, not bytes"),
            (lambda: EvalRequest(123), "formula must be a str, got 123"),
            (lambda: EvalRequest(b"<0,0,0>"), "formula must be a str, got b'<0,0,0>'"),
            (
                lambda: validate(NeutroTriple.single(0, 0, 0), (0, 1)),
                "bounds must be a OffsetBounds, got (0, 1)",
            ),
            (lambda: validate("<0,0,0>"), "x must be a NeutroTriple, got '<0,0,0>'"),
            (lambda: scale_triple("x", 2), "x must be a NeutroTriple, got 'x'"),
            (lambda: conj(1, 2), "x must be a NeutroTriple, got 1"),
            (lambda: conj(NeutroTriple.single(0, 0, 0), 2), "y must be a NeutroTriple, got 2"),
            (lambda: neg("x"), "x must be a NeutroTriple, got 'x'"),
            (lambda: truth_grade(0, Role.T), "x must be a NsNumber, got 0"),
            (lambda: parse(123), "text must be a str, got 123"),
            (lambda: parse_nsnumber(1), "text must be a str, got 1"),
            (lambda: unparse("x"), "f must be a Formula, got 'x'"),
            (lambda: format_triple("x"), "tr must be a NeutroTriple, got 'x'"),
            (lambda: triple_sums(1), "x must be a NeutroTriple, got 1"),
            (lambda: compare_ns(1, 2), "x must be a NsNumber, got 1"),
            (lambda: compare_ns(std(1), 2), "y must be a NsNumber, got 2"),
            (lambda: min_ns(1, 2), "x must be a NsNumber, got 1"),
            (lambda: max_ns(std(0), "a"), "y must be a NsNumber, got 'a'"),
            (lambda: inf_ns_set([1]), "values[0] must be a NsNumber, got 1"),
            (lambda: sup_ns_set([std(1), 0.5]), "values[1] must be a NsNumber, got 0.5"),
            (lambda: inf_ns_set(object()), "values must be an iterable of NsNumber, not object"),
            (lambda: sup_ns_set(1), "values must be an iterable of NsNumber, not int"),
            (lambda: Hesitant(1), "values must be an iterable of numbers, not int"),
            (
                lambda: Nonstandard(None),
                "members must be an iterable of NsNumber or NsInterval, not NoneType",
            ),
            (lambda: NsInterval(std(0), 1), "hi must be a NsNumber, got 1"),
            (lambda: contains(NsInterval(std(0), std(1)), 1), "x must be a NsNumber, got 1"),
            (lambda: contains((0, 1), std(0)), "interval must be a NsInterval, got (0, 1)"),
            (lambda: equal_ns(1, 2), "x must be a NsNumber, got 1"),
            (lambda: infinitely_close(std(1), 2), "y must be a NsNumber, got 2"),
            (lambda: roughly_leq(1, 2), "x must be a NsNumber, got 1"),
            (lambda: add_ns(1, 2), "x must be a NsNumber, got 1"),
            (lambda: add_ns(std(1), 2), "y must be a NsNumber, got 2"),
            (lambda: rough_contains(0, 1, 1), "x must be a NsNumber, got 1"),
            (lambda: anomaly_check(0, 1, [std(0), 1]), "probes[1] must be a NsNumber, got 1"),
            (lambda: anomaly_check(0, 1, 5), "probes must be an iterable of NsNumber, not int"),
            (
                lambda: anomaly_check(0, 1, [SingleValued(0.5)]),
                "probes[0] must be a NsNumber, got SingleValued(",
            ),
            (lambda: classify_logic(None, 0, 0), "t must be a number, got None"),
            (lambda: classify_logic(0, True, 0), "i must be a number, got True"),
            (lambda: classify_logic(0, 0, object()), "f must be a number, got <object object"),
            (lambda: inf_ns(1), "interval must be a NsInterval, got 1"),
            (lambda: sup_ns(std(1)), "interval must be a NsInterval, got NsNumber("),
            (lambda: evaluate(1), "req must be a EvalRequest, got 1"),
            (lambda: evaluate("<0,0,0>"), "req must be a EvalRequest, got '<0,0,0>'"),
            (lambda: free_identifiers(1), "f must be a Formula, got 1"),
            # A malformed tree cannot be built: its constructor refuses it.
            (lambda: unparse(Not(5)), "operand must be a Formula, got 5"),
            (lambda: unparse(Var(5)), "name must be a str, got 5"),
            (lambda: free_identifiers(Not(5)), "operand must be a Formula, got 5"),
            (lambda: free_identifiers(And(Var(5), Var("y"))), "name must be a str, got 5"),
            (lambda: unparse(Literal(5)), "value must be a NeutroTriple, got 5"),
            (lambda: free_identifiers(Literal(5)), "value must be a NeutroTriple, got 5"),
            (lambda: And(1, Var("x")), "left must be a Formula, got 1"),
            (lambda: And(Var("x"), 1), "right must be a Formula, got 1"),
            (lambda: NsNumber(0, "left"), "kind must be a MonadKind"),
            (lambda: Nonstandard([0.5]), "members[0] must be a NsNumber or NsInterval, got 0.5"),
            (lambda: NeutroTriple(1, 1, 1), "t must be a Component, got 1"),
            (lambda: Hesitant([0.5, None]), "values[1] must be a number, got None"),
            (
                lambda: Nonstandard([left(0), 0.5]),
                "members[1] must be a NsNumber or NsInterval, got 0.5",
            ),
        ],
        ids=[
            "bindings-list",
            "config-str",
            "bounds-tuple",
            "hesitant-str",
            "hesitant-bytes",
            "formula-int",
            "formula-bytes",
            "validate-bounds-tuple",
            "validate-str",
            "scale_triple-str",
            "conj-int",
            "conj-y-int",
            "neg-str",
            "truth_grade-int",
            "parse-int",
            "parse_nsnumber-int",
            "unparse-str",
            "format_triple-str",
            "triple_sums-int",
            "compare_ns-int",
            "compare_ns-y-int",
            "min_ns-int",
            "max_ns-y-str",
            "inf_ns_set-int",
            "sup_ns_set-float",
            "inf_ns_set-object",
            "sup_ns_set-int",
            "Hesitant-int",
            "Nonstandard-none",
            "NsInterval-hi-int",
            "contains-x-int",
            "contains-tuple",
            "equal_ns-int",
            "infinitely_close-y-int",
            "roughly_leq-int",
            "add_ns-int",
            "add_ns-y-int",
            "rough_contains-x-int",
            "anomaly_check-probe-int",
            "anomaly_check-int",
            "anomaly_check-probe-component",
            "classify_logic-t-none",
            "classify_logic-i-bool",
            "classify_logic-f-object",
            "inf_ns-int",
            "sup_ns-nsnumber",
            "evaluate-int",
            "evaluate-str",
            "free_identifiers-int",
            "unparse-not-int",
            "unparse-var-int",
            "free_identifiers-not-int",
            "free_identifiers-var-int",
            "unparse-literal-int",
            "free_identifiers-literal-int",
            "And-left-int",
            "And-right-int",
            "NsNumber-kind-str",
            "Nonstandard-member-float",
            "NeutroTriple-ints",
            "Hesitant-member-none",
            "Nonstandard-second-member-float",
        ],
    )
    def test_malformed_fields_raise_type_error(self, build, message):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value).startswith(message)


# Deep inputs, at the default recursion limit.
DEEP = {
    "parentheses": ("(" * 100_000 + "x" + ")" * 100_000, "x"),
    "negations": ("!" * 100_000 + "x", "!" * 100_000 + "x"),
    "conjunctions": (" & ".join(["x"] * 10_000), " & ".join(["x"] * 10_000)),
    "implications": (" -> ".join(["x"] * 10_000), " -> ".join(["x"] * 10_000)),
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_formulas(name):
    text, printed = DEEP[name]
    tree = parse(text)
    assert unparse(tree) == printed
    assert free_identifiers(tree) == frozenset({"x"})
    # <1,0,0> is a fixed point of x & x and x -> x, and of !!x.
    x = NeutroTriple.single(1, 0, 0)
    assert evaluate(EvalRequest(text, bindings={"x": x})) == x


_X = Var("x")


@pytest.mark.parametrize(
    "grow",
    [Not, lambda tree: And(tree, _X), lambda tree: Implies(_X, tree)],
    ids=["negations", "conjunctions", "implications"],
)
def test_deep_trees_compare_hash_and_print(grow):
    def build(leaf):
        tree = leaf
        for _ in range(100_000):
            tree = grow(tree)
        return tree

    tree, again, other = build(_X), build(Var("x")), build(Var("y"))
    assert tree == again and hash(tree) == hash(again)
    assert tree != other and tree != Not(tree)
    assert len({tree, again}) == 1
    printed = repr(tree)
    assert printed.startswith(type(tree).__name__ + "(")
    # Every node, Var leaves included, prints one pair of parentheses.
    assert printed.count("(") == printed.count(")") == len(_postorder(tree))
    for duplicate in (lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy):
        rebuilt = duplicate(tree)
        assert rebuilt is not tree and rebuilt == tree and hash(rebuilt) == hash(tree)


def test_tree_equality_and_repr_follow_the_dataclass_forms():
    x, y = Var("x"), Var("y")
    assert repr(And(Not(x), Or(y, x))) == (
        "And(left=Not(operand=Var(name='x')), right=Or(left=Var(name='y'), right=Var(name='x')))"
    )
    assert repr(parse("<1,0,0> -> x")) == (
        "Implies(left=Literal(value=NeutroTriple(t=SingleValued(value=Fraction(1, 1)), "
        "i=SingleValued(value=Fraction(0, 1)), f=SingleValued(value=Fraction(0, 1)))), "
        "right=Var(name='x'))"
    )
    assert And(x, y) == And(x, y) and hash(And(x, y)) == hash(And(x, y))
    assert And(x, y) != Or(x, y)
    assert And(x, y) != And(y, x)
    assert And(Not(x), y) != And(x, Not(y))
    assert Not(x) != x and Not(x) != "Not(operand=Var(name='x'))"
    with pytest.raises(TypeError):
        Not("x")
