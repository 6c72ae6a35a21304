"""Formula text: grammar, AST, printing, and evaluation.

    formula := "!" formula | formula ("&" | "|" | "->") formula | atom
    atom    := triple | ident | "(" formula ")"
    triple  := "<" comp "," comp "," comp ">"
    comp    := nsnum | "[" number "," number "]" | "{" number ("," number)* "}"
    nsnum   := number | "L(" number ")" | "R(" number ")" | "B(" number ")"
    number  := ["-"] (digits ["." [digits]] | "." digits)

A digit is any Unicode decimal digit, so "<٠.٥,0,0>" reads as <0.5, 0, 0>.

From tightest to loosest the operators bind as ! & | ->; -> groups to the
right, & and | to the left.  Whitespace is insignificant.  The unicode
spellings ∧ ∨ ¬ → are accepted on input and never emitted.  Printing a
parsed formula and re-parsing it reproduces the same tree.

Lexer and parser make one pass each.  One scanner regex matches a token
with the whitespace before it; the lexer emits a plain (kind, text,
1-based offset, value) tuple per token, value being a number's Fraction,
and an "end" token last.  A well-formed triple literal is one match and
one "<" token: its value is the name of its shape in `_SHAPES` (three
numbers, three intervals, three hesitant sets, or three numbers some of
which are decorated) and the texts its components capture.  The parser
reaches the literal in source order and hands those texts to the shape's
reader, which builds the triple, so a lexing error anywhere in the text
still comes before a literal's InvalidInterval, and a syntax error
before the literal after it.  Any other "<" is a plain punctuation
token, and `_triple` reads what follows it token by token to name the
error.  Every scanner alternative spells a number in the one unambiguous
way, so a literal that almost matches fails in linear time.  The parser
walks the token list by index, climbing precedence on explicit stacks,
and shares the lexer and decorated-number reader with `parse_nsnumber`.
Numbers are read by `monads._read_decimal`, whose bounded memo reads
each distinct short numeral once per process.  Parsed single-valued,
hesitant, decorated and well-ordered interval triples skip the public
constructors' coercion.

Parser, printer, evaluator and the trees' ==, hash and repr walk on
explicit stacks, so formulas nest to any depth.  `evaluate` names the
first input that fails, in source order: the first unbound identifier,
else the first literal outside the bounds, else the first binding
outside them.

`evaluate`'s fold takes each connective's operator row from
`connectives._row`, which alone chooses it, once per operand shape and
connective in a request, and applies it through `connectives._step`, as
the public connectives do.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction

from .connectives import OperatorConfig, _check_shapes, _row, _step, neg
from .errors import (
    ArityError,
    BoundsViolation,
    FormulaSyntaxError,
    ShapeMismatch,
    UnboundIdentifier,
    _check_type,
    _Frozen,
)
from .monads import _NOTATION, _NUMERAL, MonadKind, NsNumber, _read_decimal
from .triples import (
    Hesitant,
    IntervalValued,
    NeutroTriple,
    Nonstandard,
    OffsetBounds,
    SingleValued,
    UNIT_BOUNDS,
    scale_triple,
    validate,
)

__all__ = [
    "Literal",
    "Var",
    "Not",
    "And",
    "Or",
    "Implies",
    "Formula",
    "parse",
    "parse_nsnumber",
    "unparse",
    "format_triple",
    "free_identifiers",
    "EvalRequest",
    "evaluate",
]


class Literal(_Frozen):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: NeutroTriple):
        object.__setattr__(self, "value", value)


class Var(_Frozen):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class _Compound(_Frozen):
    """Not and the binary operators.  Equality, hashing and repr walk the
    tree on explicit stacks, where the base's would recurse."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _signature(self) == _signature(other)

    def __hash__(self):
        return hash(_signature(self))

    def __repr__(self) -> str:
        pieces, todo = [], [self]
        while todo:
            node = todo.pop()
            if isinstance(node, str):
                pieces.append(node)
            elif isinstance(node, Not):
                todo += (")", node.operand, "Not(operand=")
            elif isinstance(node, _Binary):
                todo += (")", node.right, ", right=", node.left, f"{type(node).__name__}(left=")
            else:
                pieces.append(repr(node))
        return "".join(pieces)


# The operator table, which parser and printer both read: `prec` is the
# binding strength (higher binds tighter), and `right_assoc` the grouping.
class Not(_Compound):
    __slots__ = __match_args__ = ("operand",)
    prec = 4

    def __init__(self, operand: "Formula"):
        object.__setattr__(self, "operand", operand)


class _Binary(_Compound):
    __slots__ = __match_args__ = ("left", "right")
    right_assoc = False

    def __init__(self, left: "Formula", right: "Formula"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(_Binary):
    __slots__ = ()
    symbol, prec = "&", 3


class Or(_Binary):
    __slots__ = ()
    symbol, prec = "|", 2


class Implies(_Binary):
    __slots__ = ()
    symbol, prec, right_assoc = "->", 1, True


_BINARY = {cls.symbol: cls for cls in (And, Or, Implies)}

Formula = Literal | Var | Not | And | Or | Implies


_ALIASES = {"∧": "&", "∨": "|", "¬": "!", "→": "->"}
_MONAD_LETTER = {letter: kind for kind, letter in _NOTATION.items()}

# One spelling of a number for every scanner alternative.  monads._NUMERAL
# matches a digit run in one way only, so an alternative that repeats it
# fails in linear time; \d+\.?\d* splits a run in many ways, and a hesitant
# literal that fails would try each split of each value in turn.
_NUMBER = rf"-?{_NUMERAL}"
_NUMBERS = re.compile(_NUMBER)


def _nsnum(letter: str | None, inner: str | None, plain: str | None) -> Nonstandard:
    """The one-number nonstandard component L(x), R(x), B(x) or plain x."""
    if letter is None:
        return Nonstandard._of((NsNumber._of(_read_decimal(plain), MonadKind.STD),))
    return Nonstandard._of((NsNumber._of(_read_decimal(inner), _MONAD_LETTER[letter]),))


def _hesitant(text: str) -> Hesitant:
    return Hesitant._of([_read_decimal(v) for v in _NUMBERS.findall(text)])


def _interval(lo_text: str, hi_text: str) -> IntervalValued:
    """A parsed interval; a reversed one raises from the public constructor."""
    lo, hi = _read_decimal(lo_text), _read_decimal(hi_text)
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return IntervalValued._of(lo, hi) if ln * hd <= hn * ld else IntervalValued(lo, hi)


# Literal shape -> the pattern of one component, and the reader that builds
# the triple, through the trusted constructors, from the texts its three
# components capture.  A new spelling goes here and into _triple.
_SHAPES = {
    "single": (
        f"({_NUMBER})",
        lambda t: NeutroTriple._of(
            SingleValued._of(_read_decimal(t[0])),
            SingleValued._of(_read_decimal(t[1])),
            SingleValued._of(_read_decimal(t[2])),
        ),
    ),
    "interval": (
        rf"\[\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\]",
        lambda t: NeutroTriple._of(
            _interval(t[0], t[1]), _interval(t[2], t[3]), _interval(t[4], t[5])
        ),
    ),
    "hesitant": (
        rf"\{{\s*({_NUMBER}(?:\s*,\s*{_NUMBER})*)\s*\}}",
        lambda t: NeutroTriple._of(_hesitant(t[0]), _hesitant(t[1]), _hesitant(t[2])),
    ),
    "decorated": (
        rf"(?:([{''.join(_MONAD_LETTER)}])\s*\(\s*({_NUMBER})\s*\)|({_NUMBER}))",
        lambda t: NeutroTriple._of(_nsnum(*t[0:3]), _nsnum(*t[3:6]), _nsnum(*t[6:9])),
    ),
}
# One match per token, whitespace before it included; a well-formed triple
# literal is one token.  "end" matches only once the input is used up and
# "bad" takes any other character, so no character is skipped and the
# leading \s* never backtracks.
_SCAN = re.compile(
    rf"\s*(?:(?P<number>{_NUMBER})|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    + "".join(
        rf"|(?P<{shape}><\s*{part}\s*,\s*{part}\s*,\s*{part}\s*>)"
        for shape, (part, _) in _SHAPES.items()
    )
    + r"|(?P<punct>->|[<>\[\]{}(),&|!∧∨¬→])|(?P<end>\Z)|(?P<bad>.))"
)
# Scanner group of a literal shape -> the indices of the texts its
# components capture, which follow the group's own.
_LITERALS = {
    shape: tuple(_SCAN.groupindex[shape] + k for k in range(1, 3 * re.compile(part).groups + 1))
    for shape, (part, _) in _SHAPES.items()
}


def _lex(text: str) -> list[tuple]:
    """The (kind, text, 1-based offset, value) tuples of text's tokens, the
    last of kind "end".  value is a number's Fraction, the shape name and
    the captured component texts on the "<" of a well-formed literal, else
    None."""
    tokens = []
    for m in _SCAN.finditer(text):
        kind = m.lastgroup
        tok, pos = m[kind], m.start(kind) + 1
        if kind == "punct":
            tokens.append((_ALIASES.get(tok, tok), tok, pos, None))
        elif kind == "number":
            tokens.append((kind, tok, pos, _read_decimal(tok)))
        elif kind in _LITERALS:
            tokens.append(("<", "<", pos, (kind, m.group(*_LITERALS[kind]))))
        elif kind != "bad":  # an identifier, or the end
            tokens.append((kind, tok, pos, None))
            if kind == "end":
                return tokens
        elif tok == "-":
            raise FormulaSyntaxError("stray '-'", pos, frozenset({"'->'", "number"}))
        else:
            raise FormulaSyntaxError(f"unexpected character {tok!r}", pos)


_DESC = {"number": "number", "ident": "identifier", "end": "end of input"}


def _describe(kind: str) -> str:
    return _DESC.get(kind, f"'{kind}'")


def _unexpected(tok: tuple, expected: frozenset[str], what: str | None = None):
    """The error for tok where `what`, by default the list of expected, should be."""
    what = what or ", ".join(sorted(expected))
    return FormulaSyntaxError(f"expected {what}, found {_describe(tok[0])}", tok[2], expected)


def _check(tokens: list, i: int, kinds: tuple[str, ...]) -> None:
    """Raise at the first token from tokens[i] on that is not of the next
    kind; kinds other than the last are never "end", the last token."""
    for kind in kinds:
        if tokens[i][0] != kind:
            raise _unexpected(tokens[i], frozenset({_describe(kind)}))
        i += 1


_PERCENT = Fraction(1, 100)
_NSNUM_EXPECTED = frozenset({"number", *(f"'{letter}('" for letter in _MONAD_LETTER)})
_COMP_EXPECTED = _NSNUM_EXPECTED | {"'['", "'{'"}
_ATOM_EXPECTED = frozenset({"'<'", "identifier", "'('", "'!'"})
_AFTER_FORMULA = frozenset({"'&'", "'|'", "'->'", "end of input"})


def parse(text: str) -> Formula:
    """Parse formula text; offsets in errors are 1-based character positions.

    Precedence climbing over the token list: an operator waits on `ops`
    until one binding less tightly, or as tightly and grouping left,
    follows it.  After each operand, closing parentheses reduce to their
    opening one.
    """
    _check_type("text", text, str)
    tokens = _lex(text)
    operands: list[Formula] = []
    ops: list = []  # Not, binary classes, and None for an open "("
    i = 0
    while True:
        kind = tokens[i][0]
        if kind == "!" or kind == "(":
            ops.append(Not if kind == "!" else None)
            i += 1
            continue
        if kind == "<":
            literal = tokens[i][3]
            if literal is None:  # not a well-formed literal
                _triple(tokens, i)
            shape, texts = literal
            operands.append(Literal(_SHAPES[shape][1](texts)))
            i += 1
        elif kind == "ident":
            operands.append(Var(tokens[i][1]))
            i += 1
        else:
            raise _unexpected(tokens[i], _ATOM_EXPECTED, "a formula atom")
        while True:
            kind = tokens[i][0]
            cls = _BINARY.get(kind)
            least = 0 if cls is None else cls.prec + cls.right_assoc
            while ops and ops[-1] is not None and ops[-1].prec >= least:
                op = ops.pop()
                if op is Not:
                    operands[-1] = Not(operands[-1])
                else:
                    right = operands.pop()
                    operands[-1] = op(operands[-1], right)
            if cls is not None:
                ops.append(cls)
                i += 1
                break
            if not ops:
                if kind != "end":
                    raise FormulaSyntaxError(
                        f"unexpected {_describe(kind)} after formula", tokens[i][2], _AFTER_FORMULA
                    )
                return operands[0]
            if kind != ")":
                raise _unexpected(tokens[i], frozenset({"')'"}))
            ops.pop()
            i += 1


def _triple(tokens: list, i: int):
    """Raise the error of the malformed triple literal whose "<" is tokens[i].

    The scanner takes every well-formed literal whole, so this reader sees
    only malformed ones.  It reads the literal token by token and raises
    at the token where it goes wrong, a missing or stray token, else for
    the wrong number of components, else for components of mixed shapes:
    the scanner builds every literal of one shape, and reads plain numbers
    among decorated ones as standard.  It accepts every spelling that the
    scanner's shapes accept; a new spelling goes into both.
    """
    start = tokens[i][2]
    tags = []
    while True:
        i += 1  # past the "<" or ","
        kind = tokens[i][0]
        if kind == "number":
            tags.append("num")
            i += 1
        elif kind == "[":
            _check(tokens, i + 1, ("number", ",", "number", "]"))
            tags.append("interval")
            i += 5
        elif kind == "{":
            while True:
                _check(tokens, i + 1, ("number",))
                i += 2
                if tokens[i][0] != ",":
                    break
            if tokens[i][0] != "}":
                raise _unexpected(tokens[i], frozenset({"','", "'}'"}))
            tags.append("hesitant")
            i += 1
        elif _decorated(tokens, i) is not None:
            tags.append("ns")
            i += 4
        else:
            raise _unexpected(tokens[i], _COMP_EXPECTED, "a triple component")
        if tokens[i][0] != ",":
            break
    if tokens[i][0] != ">":
        raise _unexpected(tokens[i], frozenset({"','", "'>'"}))
    if len(tags) != 3:
        raise ArityError(f"triple literal has {len(tags)} components, expected 3", start)
    if "ns" in tags:
        raise ShapeMismatch("decorated numbers cannot mix with interval or hesitant components")
    raise ShapeMismatch("triple components must share one shape")


def _decorated(tokens: list, i: int) -> NsNumber | None:
    """The decorated number L(x), R(x) or B(x) that spans tokens[i:i + 4];
    None when no decorated number starts at tokens[i]."""
    kind, text = tokens[i][:2]
    if kind != "ident" or text not in _MONAD_LETTER or tokens[i + 1][0] != "(":
        return None
    _check(tokens, i + 2, ("number", ")"))
    return NsNumber._of(tokens[i + 2][3], _MONAD_LETTER[text])


def parse_nsnumber(text: str) -> NsNumber:
    """Parse a bare decorated-number literal such as 0.8 or L(0.3)."""
    _check_type("text", text, str)
    tokens = _lex(text)
    if tokens[0][0] == "number":
        n, i = NsNumber._of(tokens[0][3], MonadKind.STD), 1
    elif (n := _decorated(tokens, 0)) is not None:
        i = 4
    else:
        raise _unexpected(tokens[0], _NSNUM_EXPECTED, "a decorated number")
    _check(tokens, i, ("end",))
    return n


def format_triple(tr: NeutroTriple) -> str:
    """The triple in formula syntax; a nonstandard union, which no literal
    spells, renders as its members joined by ∪."""
    _check_type("tr", tr, NeutroTriple)
    return f"<{tr.t}, {tr.i}, {tr.f}>"


def unparse(f: Formula) -> str:
    """Canonical ASCII rendering; parse(unparse(f)) == f for parser output."""
    _check_type("f", f, Formula, "Formula")
    pieces: list[str] = []
    # Pairs of a node or text to emit and the least binding strength it
    # prints bare at; the next one is last.
    todo: list = [(f, 0)]
    while todo:
        node, least = todo.pop()
        if isinstance(node, str):
            pieces.append(node)
        elif isinstance(node, _Binary) and node.prec < least:
            todo += ((")", 0), (node, 0), ("(", 0))
        elif isinstance(node, Literal):
            pieces.append(format_triple(node.value))
        elif isinstance(node, Var):
            pieces.append(node.name)
        elif isinstance(node, Not):
            pieces.append("!")
            todo.append((node.operand, node.prec))
        else:
            todo += (
                (node.right, node.prec + (not node.right_assoc)),
                (f" {node.symbol} ", 0),
                (node.left, node.prec + node.right_assoc),
            )
    return "".join(pieces)


def _postorder(f: Formula) -> list[Formula]:
    """Every node of f, children before parents and leaves in source order:
    the root-first, right-first preorder, reversed."""
    order, todo = [], [f]
    while todo:
        node = todo.pop()
        order.append(node)
        if isinstance(node, Not):
            todo.append(node.operand)
        elif isinstance(node, _Binary):
            todo += (node.left, node.right)
    return order[::-1]


def _signature(f: Formula) -> tuple:
    """f's nodes in post-order, each Not or binary node as its class: equal
    exactly when the trees are, and flat."""
    return tuple(type(n) if isinstance(n, _Compound) else n for n in _postorder(f))


def free_identifiers(f: Formula) -> frozenset[str]:
    _check_type("f", f, Formula, "Formula")
    return frozenset(node.name for node in _postorder(f) if isinstance(node, Var))


class EvalRequest(_Frozen):
    """One evaluation: formula text plus the full operator context.

    Bindings are expressed in the same scale as the formula literals;
    bounds are always on the unit scale.
    """

    __slots__ = __match_args__ = ("formula", "config", "scale", "bounds", "bindings")

    def __init__(
        self,
        formula: str,
        config: OperatorConfig = OperatorConfig(),
        scale: str = "unit",
        bounds: OffsetBounds = UNIT_BOUNDS,
        bindings: Mapping[str, NeutroTriple] = {},  # copied below, never mutated
    ):
        _check_type("formula", formula, str)
        if scale not in ("unit", "percent"):
            raise ValueError("scale must be 'unit' or 'percent'")
        _check_type("config", config, OperatorConfig)
        _check_type("bounds", bounds, OffsetBounds)
        _check_type("bindings", bindings, Mapping)
        # A copy, so that a binding the caller changes later cannot skip the checks.
        bindings = dict(bindings)
        for name, value in bindings.items():
            _check_type(f"binding {name!r}", value, NeutroTriple)
        self.__setstate__((formula, config, scale, bounds, bindings))


def evaluate(req: EvalRequest) -> NeutroTriple:
    """Parse, admit, and fold a formula to a single triple.

    Every literal and every referenced binding must pass `validate`
    under the request's bounds (after percent canonicalization); a
    failing input raises BoundsViolation rather than silently clamping
    at this stage.
    """
    _check_type("req", req, EvalRequest)
    nodes = _postorder(parse(req.formula))
    names = dict.fromkeys(node.name for node in nodes if isinstance(node, Var))
    if unbound := [name for name in names if name not in req.bindings]:
        raise UnboundIdentifier(unbound[0])

    def admit(source: str, tr: NeutroTriple) -> NeutroTriple:
        """tr on the unit scale, once it passes validate."""
        if req.scale == "percent":
            tr = scale_triple(tr, _PERCENT)
        report = validate(tr, req.bounds)
        if not report.ok:
            detail = "; ".join(f"{v.where}: {v.message}" for v in report.violations)
            raise BoundsViolation(
                f"{source} {format_triple(tr)} outside active bounds: {detail}", report
            )
        return tr

    literals = iter([admit("literal", n.value) for n in nodes if isinstance(n, Literal)])
    leaves = {name: admit(f"binding {name!r}", req.bindings[name]) for name in names}

    values: list[NeutroTriple] = []
    rows = {}
    for node in nodes:
        if isinstance(node, Literal):
            values.append(next(literals))
        elif isinstance(node, Var):
            values.append(leaves[node.name])
        elif isinstance(node, Not):
            values[-1] = neg(values[-1])
        else:
            y, x = values.pop(), values[-1]
            if isinstance(node, Implies):
                x = neg(x)
            _check_shapes(x, y)
            key = (type(x.t), isinstance(node, And))
            row = rows.get(key)
            if row is None:
                row = rows[key] = _row(req.config, x, key[1], req.bounds)
            values[-1] = _step(x, y, row)
    return values[0]
