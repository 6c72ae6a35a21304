"""Formula text: grammar, AST, printing, and evaluation.

    formula := "!" formula | formula ("&" | "|" | "->") formula | atom
    atom    := triple | ident | "(" formula ")"
    triple  := "<" list(comp) ">"
    comp    := nsnum | "[" number "," number "]" | "{" list(number) "}"
    nsnum   := number | ("L" | "R" | "B") "(" number ")"
    list(x) := x ("," x)*
    number  := ["-"] (digits ["." [digits]] | "." digits)

A triple has three components of one shape, where plain numbers count as
decorated ones.  A digit is any Unicode decimal digit, so "<٠.٥,0,0>"
reads as <0.5, 0, 0>.

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
before the literal after it.  Every scanner alternative spells a number
in the one unambiguous way, so a literal that almost matches fails in
linear time.

Each component spelling is one row of `_SPELLINGS`, the kinds of its
tokens and its pattern; the scanner's shapes are built from the
patterns.  Any other "<" is a plain punctuation token, and `_triple`
reads what follows it by the kinds to name the error where the literal
goes wrong, as `parse_nsnumber` reads a decorated number.

The parser walks the token list by index, climbing precedence on
explicit stacks, and shares the lexer with `parse_nsnumber`.  Numbers
are read by `monads._read_decimal`, whose bounded memo reads
each distinct short numeral once per process.  Decorated degrees sit at
a few boundary points, so the same spellings, L(0) or R(1), recur from
formula to formula: `_COMPONENTS` keeps the one-number component of each
(monad letter, numeral) spelling, bounded as that memo is, and literals
share it, which is safe because components are immutable.

The public node constructors check their fields: a Literal holds a
NeutroTriple, a Var a str, and Not and the binary nodes Formula
children.  The parser builds every node, and the single-valued,
hesitant, decorated and well-ordered interval triples, through the
trusted ``_of``, which skips the checks and the coercion.  So no public
path builds a malformed tree, and the walkers check only the root.

Every walk is on an explicit stack, so formulas nest to any depth.  The
parser builds trees on its own stacks, and two walkers read them.
`_postorder` gives a tree's flat form: its nodes children first, leaves
in source order, and each Not and binary node as its class.  `evaluate`
folds it, `free_identifiers` reads its leaves, the trees' == and hash
compare it, and pickling and copying store it, which `_rebuild` reads
back through the checked public constructors.  `_text` prints a tree as
a spelling function spells each node, in text pieces and the children
to print in between: `repr`'s spelling, or `unparse`'s, which adds the
parentheses that precedence needs.  `evaluate` names the first input
that fails, in source order: the first unbound identifier, else the
first literal outside the bounds, else the first binding outside them.

`evaluate`'s fold takes each connective's operator row from
`connectives._row`, which alone chooses it, once per operand shape and
connective in a request, and applies it through `connectives._step`, as
the public connectives do.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

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
from .monads import _NOTATION, _NUMERAL, MonadKind, NsNumber, _read_decimal, _remember
from .triples import (
    Hesitant,
    IntervalValued,
    NeutroTriple,
    Nonstandard,
    OffsetBounds,
    SingleValued,
    UNIT_BOUNDS,
    _SCALES,
    _canonical,
    _check_scale,
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

    def __new__(cls, value: NeutroTriple):
        _check_type("value", value, NeutroTriple)
        return cls._of(value)


class Var(_Frozen):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        _check_type("name", name, str)
        return cls._of(name)


class _Compound(_Frozen):
    """Not and the binary operators.  Equality and hashing compare the
    trees' flat forms (`_postorder`), repr is the text walker's (`_text`),
    and a tree pickles and copies as its flat form, which `_rebuild` reads:
    where the base's would recurse."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _postorder(self) == _postorder(other)

    def __hash__(self):
        return hash(tuple(_postorder(self)))

    def __repr__(self) -> str:
        return _text(self, _repr_spelling)

    def __reduce__(self):
        return _rebuild, (tuple(_postorder(self)),)


# The operator table, which parser and printer both read: `prec` is the
# binding strength (higher binds tighter), and `right_assoc` the grouping.
class Not(_Compound):
    __slots__ = __match_args__ = ("operand",)
    prec = 4

    def __new__(cls, operand: "Formula"):
        _check_type("operand", operand, Formula, "Formula")
        return cls._of(operand)


class _Binary(_Compound):
    __slots__ = __match_args__ = ("left", "right")
    right_assoc = False

    def __new__(cls, left: "Formula", right: "Formula"):
        _check_type("left", left, Formula, "Formula")
        _check_type("right", right, Formula, "Formula")
        return cls._of(left, right)


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

# Component spelling, keyed by the kind of the token that opens it ("monad"
# for a monad letter that "(" follows) -> the kinds of its tokens, where a
# pair (item, close) is a `_list`, and its pattern, whose groups capture its
# numbers.  A new spelling is a row here and its shape's reader in _SHAPES.
_SPELLINGS = {
    "number": (("number",), f"({_NUMBER})"),
    "[": (("[", "number", ",", "number", "]"), rf"\[\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\]"),
    "{": (("{", (("number",), "}")), rf"\{{\s*({_NUMBER}(?:\s*,\s*{_NUMBER})*)\s*\}}"),
    "monad": (
        ("ident", "(", "number", ")"),
        rf"([{''.join(_MONAD_LETTER)}])\s*\(\s*({_NUMBER})\s*\)",
    ),
}


# (monad letter, numeral, plain numeral) texts -> their one-number component,
# bounded by monads._remember, as monads._MEMO is.
_COMPONENTS: dict[tuple, Nonstandard] = {}


def _nsnum(texts: tuple) -> Nonstandard:
    """The one-number nonstandard component L(x), R(x), B(x) or plain x of
    the scanner's texts: a monad letter and its numeral, or None, None and
    a plain numeral.  Each spelling is read once and kept in `_COMPONENTS`
    as `_read_decimal` keeps numerals, through `_remember`."""
    c = _COMPONENTS.get(texts)
    if c is None:
        letter, inner, plain = texts
        numeral = inner or plain
        kind = _MONAD_LETTER.get(letter, MonadKind.STD)
        c = Nonstandard._of((NsNumber._of(_read_decimal(numeral), kind),))
        _remember(_COMPONENTS, numeral, texts, c)
    return c


def _hesitant(text: str) -> Hesitant:
    return Hesitant._of(_canonical([_read_decimal(v) for v in _NUMBERS.findall(text)]))


def _interval(lo_text: str, hi_text: str) -> IntervalValued:
    """A parsed interval; a reversed one raises from the public constructor."""
    lo, hi = _read_decimal(lo_text), _read_decimal(hi_text)
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return IntervalValued._of(lo, hi) if ln * hd <= hn * ld else IntervalValued(lo, hi)


# Literal shape -> the pattern of one component, from _SPELLINGS, and the
# reader that builds the triple, through the trusted constructors, from the
# texts its three components capture.  A decorated component is a monad
# letter's spelling or a plain number.
_SHAPES = {
    "single": (
        _SPELLINGS["number"][1],
        lambda t: NeutroTriple._of(
            SingleValued._of(_read_decimal(t[0])),
            SingleValued._of(_read_decimal(t[1])),
            SingleValued._of(_read_decimal(t[2])),
        ),
    ),
    "interval": (
        _SPELLINGS["["][1],
        lambda t: NeutroTriple._of(
            _interval(t[0], t[1]), _interval(t[2], t[3]), _interval(t[4], t[5])
        ),
    ),
    "hesitant": (
        _SPELLINGS["{"][1],
        lambda t: NeutroTriple._of(_hesitant(t[0]), _hesitant(t[1]), _hesitant(t[2])),
    ),
    "decorated": (
        f"(?:{_SPELLINGS['monad'][1]}|{_SPELLINGS['number'][1]})",
        lambda t: NeutroTriple._of(_nsnum(t[0:3]), _nsnum(t[3:6]), _nsnum(t[6:9])),
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
# components capture: the groups between its own and the next named one.
_GROUPS = sorted(_SCAN.groupindex.items(), key=lambda item: item[1])
_LITERALS = {
    shape: tuple(range(start + 1, end))
    for (shape, start), (_, end) in zip(_GROUPS, _GROUPS[1:])
    if shape in _SHAPES
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


def _opener(tokens: list, i: int) -> str:
    """The _SPELLINGS key of the component that tokens[i] would open: its
    kind, or "monad" for a monad letter that "(" follows."""
    kind, text = tokens[i][:2]
    return "monad" if text in _MONAD_LETTER and tokens[i + 1][0] == "(" else kind


def _component(tokens: list, i: int, kinds: tuple | None = None) -> int:
    """Read tokens of `kinds`, by default those of the component spelling
    that tokens[i] opens, from tokens[i] on, and return the index past
    them.  Raise at the first token that is not of the next kind; a pair
    (item, close) among the kinds is a `_list`.  Kinds other than the
    last are never "end", the last token."""
    if kinds is None:
        if (row := _SPELLINGS.get(_opener(tokens, i))) is None:
            raise _unexpected(tokens[i], _COMP_EXPECTED, "a triple component")
        kinds = row[0]
    for kind in kinds:
        if type(kind) is tuple:
            i = _list(tokens, i, *kind)[0]
        elif tokens[i][0] != kind:
            raise _unexpected(tokens[i], frozenset({_describe(kind)}))
        else:
            i += 1
    return i


def _list(tokens: list, i: int, item: tuple | None, close: str) -> tuple[int, list[str]]:
    """Read an item, then "," and an item as often as "," follows, then
    `close`, from tokens[i] on.  An item is tokens of the kinds `item`, or
    any component for None.  Returns the index past `close` and the
    `_opener` of each item."""
    openers = []
    while True:
        openers.append(_opener(tokens, i))
        i = _component(tokens, i, item)
        if tokens[i][0] != ",":
            break
        i += 1
    if tokens[i][0] != close:
        raise _unexpected(tokens[i], frozenset({"','", _describe(close)}))
    return i + 1, openers


_NSNUM_EXPECTED = frozenset({"number", *(f"'{letter}('" for letter in _MONAD_LETTER)})
_COMP_EXPECTED = _NSNUM_EXPECTED | {_describe(key) for key in _SPELLINGS if key != "monad"}
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
            operands.append(Literal._of(_SHAPES[shape][1](texts)))
            i += 1
        elif kind == "ident":
            operands.append(Var._of(tokens[i][1]))
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
                    operands[-1] = Not._of(operands[-1])
                else:
                    right = operands.pop()
                    operands[-1] = op._of(operands[-1], right)
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
    only malformed ones.  It reads the components as one `_list` and
    raises at the token where the literal goes wrong, a missing or stray
    token, else for the wrong number of components, else for components
    of mixed shapes: the scanner builds every literal of one shape, and
    reads plain numbers among decorated ones as standard.
    """
    _, openers = _list(tokens, i + 1, None, ">")
    if len(openers) != 3:
        raise ArityError(f"triple literal has {len(openers)} components, expected 3", tokens[i][2])
    if "monad" in openers:
        raise ShapeMismatch("decorated numbers cannot mix with interval or hesitant components")
    raise ShapeMismatch("triple components must share one shape")


def parse_nsnumber(text: str) -> NsNumber:
    """Parse a bare decorated-number literal such as 0.8 or L(0.3)."""
    _check_type("text", text, str)
    tokens = _lex(text)
    if tokens[0][0] == "number":  # the common case, kept off _component for speed
        n, i = NsNumber._of(tokens[0][3], MonadKind.STD), 1
    elif _opener(tokens, 0) == "monad":
        i, n = _component(tokens, 0), NsNumber._of(tokens[2][3], _MONAD_LETTER[tokens[0][1]])
    else:
        raise _unexpected(tokens[0], _NSNUM_EXPECTED, "a decorated number")
    _component(tokens, i, ("end",))
    return n


def format_triple(tr: NeutroTriple) -> str:
    """The triple in formula syntax; a nonstandard union, which no literal
    spells, renders as its members joined by ∪."""
    _check_type("tr", tr, NeutroTriple)
    return f"<{tr.t}, {tr.i}, {tr.f}>"


def _text(f: Formula, spelling) -> str:
    """f's text as `spelling` spells it.  spelling(node, least) gives the
    node's text in order: text pieces, and (child, least) pairs that the
    walk spells in turn, least being the binding strength that the child
    prints bare at."""
    pieces, todo = [], [(f, 0)]  # todo: texts and pairs, the next one last
    while todo:
        item = todo.pop()
        if type(item) is str:
            pieces.append(item)
        else:
            todo += reversed(spelling(*item))
    return "".join(pieces)


def _repr_spelling(node, least: int) -> tuple:
    if isinstance(node, Not):
        return "Not(operand=", (node.operand, 0), ")"
    if isinstance(node, _Binary):
        return f"{type(node).__name__}(left=", (node.left, 0), ", right=", (node.right, 0), ")"
    return (repr(node),)


def _formula_spelling(node: Formula, least: int) -> tuple:
    if isinstance(node, Literal):
        return (format_triple(node.value),)
    if isinstance(node, Var):
        return (node.name,)
    if isinstance(node, Not):
        return "!", (node.operand, node.prec)
    if node.prec < least:
        return "(", (node, 0), ")"
    return (
        (node.left, node.prec + node.right_assoc),
        f" {node.symbol} ",
        (node.right, node.prec + (not node.right_assoc)),
    )


def unparse(f: Formula) -> str:
    """Canonical ASCII rendering; parse(unparse(f)) == f for parser output."""
    _check_type("f", f, Formula, "Formula")
    return _text(f, _formula_spelling)


def _postorder(f: Formula) -> list:
    """f's flat form: its nodes children first, leaves in source order, and
    each Not and binary node as its class, which is equal exactly when the
    trees are.  The root-first, right-first preorder, reversed."""
    order, todo = [], [f]
    while todo:
        node = todo.pop()
        if isinstance(node, _Compound):
            order.append(type(node))
            todo += node._values(node)
        else:
            order.append(node)
    return order[::-1]


# The node class -> its number of children, for `_rebuild`.
_ARITY = {Not: 1, And: 2, Or: 2, Implies: 2}


def _rebuild(flat: tuple) -> Formula:
    """The tree whose flat form is flat, each node built through its checked
    public constructor; unpickling and copying a tree call it.  A flat form
    that describes anything but one Formula raises TypeError."""
    values = []
    for item in flat:
        arity = _ARITY.get(item, 0) if type(item) is type else 0
        if arity:  # a node class, whose constructor refuses too few operands
            values[-arity:] = [item(*values[-arity:])]
        else:
            values.append(item)
    if len(values) != 1:
        raise TypeError(f"flat form describes {len(values)} formulas, expected 1")
    _check_type("flat form", values[0], Formula, "Formula")
    return values[0]


def free_identifiers(f: Formula) -> frozenset[str]:
    _check_type("f", f, Formula, "Formula")
    return frozenset(node.name for node in _postorder(f) if isinstance(node, Var))


class EvalRequest(_Frozen):
    """One evaluation: formula text plus the full operator context.

    Bindings are expressed in the same scale as the formula literals;
    bounds are always on the unit scale.
    """

    __slots__ = __match_args__ = ("formula", "config", "scale", "bounds", "bindings")

    def __new__(
        cls,
        formula: str,
        config: OperatorConfig = OperatorConfig(),
        scale: str = "unit",
        bounds: OffsetBounds = UNIT_BOUNDS,
        bindings: Mapping[str, NeutroTriple] = {},  # copied below, never mutated
    ):
        _check_type("formula", formula, str)
        _check_scale(scale)
        _check_type("config", config, OperatorConfig)
        _check_type("bounds", bounds, OffsetBounds)
        _check_type("bindings", bindings, Mapping)
        # A copy, so that a binding the caller changes later cannot skip the checks.
        bindings = dict(bindings)
        for name, value in bindings.items():
            _check_type(f"binding {name!r}", value, NeutroTriple)
        return cls._of(formula, config, scale, bounds, bindings)


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
        if (factor := _SCALES[req.scale]) != 1:
            tr = scale_triple(tr, factor)
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
        elif node is Not:
            values[-1] = neg(values[-1])
        else:
            y, x = values.pop(), values[-1]
            if node is Implies:
                x = neg(x)
            _check_shapes(x, y)
            key = (type(x.t), node is And)
            row = rows.get(key)
            if row is None:
                row = rows[key] = _row(req.config, x, key[1], req.bounds)
            values[-1] = _step(x, y, row)
    return values[0]
