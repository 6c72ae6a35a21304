"""Formula text: grammar, AST, printing, and evaluation.

    formula := "!" formula | formula ("&" | "|" | "->") formula | atom
    atom    := triple | ident | "(" formula ")"
    triple  := "<" comp "," comp "," comp ">"
    comp    := nsnum | "[" number "," number "]" | "{" number ("," number)* "}"
    nsnum   := number | "L(" number ")" | "R(" number ")" | "B(" number ")"

From tightest to loosest the operators bind as ! & | ->; -> groups to the
right, & and | to the left.  Whitespace is insignificant.  The unicode
spellings ∧ ∨ ¬ → are accepted on input and never emitted.  Printing a
parsed formula and re-parsing it reproduces the same tree.

Parser, printer, evaluator and the trees' ==, hash and repr walk on
explicit stacks, so formulas nest to any depth.  `evaluate` names the
first input that fails, in source order: the first unbound identifier,
else the first literal outside the bounds, else the first binding
outside them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, Union

from .connectives import DEFAULT_CONFIG, OperatorConfig, conj, disj, impl, neg
from .errors import (
    ArityError,
    BoundsViolation,
    FormulaSyntaxError,
    ShapeMismatch,
    UnboundIdentifier,
)
from .monads import _NOTATION, NsNumber, std
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


@dataclass(frozen=True)
class Literal:
    value: NeutroTriple


@dataclass(frozen=True)
class Var:
    name: str


class _Compound:
    """Not and the binary operators.  Equality, hashing and repr walk the
    tree on explicit stacks; the ones dataclass writes recurse."""

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
@dataclass(frozen=True, eq=False, repr=False)
class Not(_Compound):
    operand: "Formula"
    prec = 4


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(_Compound):
    left: "Formula"
    right: "Formula"
    right_assoc = False


class And(_Binary):
    symbol, prec = "&", 3


class Or(_Binary):
    symbol, prec = "|", 2


class Implies(_Binary):
    symbol, prec, right_assoc = "->", 1, True


_BINARY = {cls.symbol: cls for cls in (And, Or, Implies)}

Formula = Union[Literal, Var, Not, And, Or, Implies]


class _Token:
    __slots__ = ("kind", "text", "pos", "value")  # pos: 1-based character offset

    def __init__(self, kind: str, text: str, pos: int, value: Fraction | None = None):
        self.kind, self.text, self.pos, self.value = kind, text, pos, value


_ALIASES = {"∧": "&", "∨": "|", "¬": "!", "→": "->"}
# Every character starts exactly one alternative; "bad" catches the rest.
_SCAN = re.compile(
    r"(?P<space>\s+)|(?P<number>-?(?:\d+\.?\d*|\.\d+))|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>->|[<>\[\]{}(),&|!∧∨¬→])|(?P<bad>.)"
)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _SCAN.finditer(text):
        kind, tok, pos = m.lastgroup, m.group(), m.start() + 1
        if kind == "punct":
            tokens.append(_Token(_ALIASES.get(tok, tok), tok, pos))
        elif kind == "number":
            tokens.append(_Token(kind, tok, pos, _to_fraction(tok)))
        elif kind == "ident":
            tokens.append(_Token(kind, tok, pos))
        elif kind == "bad":
            if tok == "-":
                raise FormulaSyntaxError("stray '-'", pos, frozenset({"'->'", "number"}))
            raise FormulaSyntaxError(f"unexpected character {tok!r}", pos)
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


def _to_fraction(digits: str) -> Fraction:
    whole, _, frac = digits.partition(".")
    try:
        return Fraction(int(whole + frac), 10 ** len(frac))
    except ValueError:  # more digits than int() converts; Decimal has no limit
        return Fraction(Decimal(digits))


_DESC = {
    "number": "number",
    "ident": "identifier",
    "end": "end of input",
}


def _describe(kind: str) -> str:
    return _DESC.get(kind, f"'{kind}'")


_PERCENT = Fraction(1, 100)
_MONAD_LETTER = {letter: kind for kind, letter in _NOTATION.items()}
_NSNUM_EXPECTED = frozenset({"number", *(f"'{letter}('" for letter in _MONAD_LETTER)})
_COMP_EXPECTED = _NSNUM_EXPECTED | {"'['", "'{'"}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.idx = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.idx + ahead]  # "end" is last and never passed

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        if tok.kind != "end":
            self.idx += 1
        return tok

    def expect(self, kind: str, expected: frozenset[str] | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            exp = expected if expected is not None else frozenset({_describe(kind)})
            raise FormulaSyntaxError(
                f"expected {', '.join(sorted(exp))}, found {_describe(tok.kind)}",
                tok.pos,
                exp,
            )
        return self.advance()

    def formula(self) -> Formula:
        """Precedence climbing: an operator waits on `ops` until one binding
        less tightly, or as tightly and grouping left, follows it.  After
        each operand, closing parentheses reduce to their opening one."""
        operands: list[Formula] = []
        ops: list = []  # Not, binary classes, and None for an open "("

        def reduce() -> None:
            op = ops.pop()
            arity = 1 if op is Not else 2
            operands[-arity:] = [op(*operands[-arity:])]

        while True:
            tok = self.peek()
            if tok.kind in ("!", "("):
                ops.append(Not if tok.kind == "!" else None)
                self.advance()
                continue
            if tok.kind == "<":
                operands.append(self.triple())
            elif tok.kind == "ident":
                self.advance()
                operands.append(Var(tok.text))
            else:
                exp = frozenset({"'<'", "identifier", "'('", "'!'"})
                raise FormulaSyntaxError(
                    f"expected a formula atom, found {_describe(tok.kind)}", tok.pos, exp
                )
            while (cls := _BINARY.get(self.peek().kind)) is None:
                while ops and ops[-1] is not None:
                    reduce()
                if ops:
                    self.expect(")")
                    ops.pop()
                    continue
                tok = self.peek()
                if tok.kind != "end":
                    exp = frozenset({"'&'", "'|'", "'->'", "end of input"})
                    raise FormulaSyntaxError(
                        f"unexpected {_describe(tok.kind)} after formula", tok.pos, exp
                    )
                return operands[0]
            while ops and ops[-1] is not None and ops[-1].prec >= cls.prec + cls.right_assoc:
                reduce()
            ops.append(cls)
            self.advance()

    def triple(self) -> Literal:
        start = self.expect("<").pos
        comps = [self.comp()]
        while self.peek().kind == ",":
            self.advance()
            comps.append(self.comp())
        self.expect(">", frozenset({"','", "'>'"}))
        if len(comps) != 3:
            raise ArityError(
                f"triple literal has {len(comps)} components, expected 3", start
            )
        return Literal(_build_triple(comps))

    def comp(self):
        tok = self.peek()
        if tok.kind == "[":
            self.advance()
            lo = self.number()
            self.expect(",")
            hi = self.number()
            self.expect("]")
            return ("interval", lo, hi)
        if tok.kind == "{":
            self.advance()
            vals = [self.number()]
            while self.peek().kind == ",":
                self.advance()
                vals.append(self.number())
            self.expect("}", frozenset({"','", "'}'"}))
            return ("hesitant", vals)
        if tok.kind == "number":
            self.advance()
            return ("num", tok.value)
        decorated = self.decorated()
        if decorated is not None:
            return ("ns", decorated)
        raise FormulaSyntaxError(
            f"expected a triple component, found {_describe(tok.kind)}",
            tok.pos,
            _COMP_EXPECTED,
        )

    def decorated(self) -> NsNumber | None:
        """L(x), R(x) or B(x) at the cursor, consumed; None, consuming
        nothing, when no decorated number starts there."""
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _MONAD_LETTER and self.peek(1).kind == "(":
            self.advance()
            self.advance()
            v = self.number()
            self.expect(")")
            return NsNumber(v, _MONAD_LETTER[tok.text])
        return None

    def number(self) -> Fraction:
        return self.expect("number").value


def _build_triple(comps) -> NeutroTriple:
    tags = {tag for tag, *_ in comps}
    if "ns" in tags:
        if tags - {"ns", "num"}:
            raise ShapeMismatch(
                "decorated numbers cannot mix with interval or hesitant components"
            )
        parts = [
            Nonstandard(value if tag == "ns" else std(value)) for tag, value in comps
        ]
    elif tags == {"num"}:
        parts = [SingleValued(c[1]) for c in comps]
    elif tags == {"interval"}:
        parts = [IntervalValued(c[1], c[2]) for c in comps]
    elif tags == {"hesitant"}:
        parts = [Hesitant(c[1]) for c in comps]
    else:
        raise ShapeMismatch("triple components must share one shape")
    return NeutroTriple(*parts)


def parse(text: str) -> Formula:
    """Parse formula text; offsets in errors are 1-based character positions."""
    return _Parser(_lex(text)).formula()


def parse_nsnumber(text: str) -> NsNumber:
    """Parse a bare decorated-number literal such as 0.8 or L(0.3)."""
    p = _Parser(_lex(text))
    tok = p.peek()
    if tok.kind == "number":
        p.advance()
        n = std(tok.value)
    elif (n := p.decorated()) is None:
        raise FormulaSyntaxError(
            f"expected a decorated number, found {_describe(tok.kind)}",
            tok.pos,
            _NSNUM_EXPECTED,
        )
    p.expect("end")
    return n


def format_triple(tr: NeutroTriple) -> str:
    """The triple in formula syntax; a nonstandard union, which no literal
    spells, renders as its members joined by ∪."""
    return f"<{tr.t}, {tr.i}, {tr.f}>"


def unparse(f: Formula) -> str:
    """Canonical ASCII rendering; parse(unparse(f)) == f for parser output."""
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
    return frozenset(node.name for node in _postorder(f) if isinstance(node, Var))


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation: formula text plus the full operator context.

    Bindings are expressed in the same scale as the formula literals;
    bounds are always on the unit scale.
    """

    formula: str
    config: OperatorConfig = DEFAULT_CONFIG
    scale: str = "unit"
    bounds: OffsetBounds = UNIT_BOUNDS
    bindings: Mapping[str, NeutroTriple] = field(default_factory=dict)

    def __post_init__(self):
        if self.scale not in ("unit", "percent"):
            raise ValueError("scale must be 'unit' or 'percent'")


def evaluate(req: EvalRequest) -> NeutroTriple:
    """Parse, admit, and fold a formula to a single triple.

    Every literal and every referenced binding must pass `validate`
    under the request's bounds (after percent canonicalization); a
    failing input raises BoundsViolation rather than silently clamping
    at this stage.
    """
    nodes = _postorder(parse(req.formula))

    def canon(tr: NeutroTriple) -> NeutroTriple:
        return scale_triple(tr, _PERCENT) if req.scale == "percent" else tr

    names = dict.fromkeys(node.name for node in nodes if isinstance(node, Var))
    if unbound := [name for name in names if name not in req.bindings]:
        raise UnboundIdentifier(unbound[0])
    bindings = {name: canon(req.bindings[name]) for name in names}

    literals = [canon(node.value) for node in nodes if isinstance(node, Literal)]
    for source, tr in [("literal", tr) for tr in literals] + [
        (f"binding {name!r}", tr) for name, tr in bindings.items()
    ]:
        report = validate(tr, req.bounds)
        if not report.ok:
            detail = "; ".join(f"{v.where}: {v.message}" for v in report.violations)
            raise BoundsViolation(
                f"{source} {format_triple(tr)} outside active bounds: {detail}", report
            )

    admitted = iter(literals)
    values: list[NeutroTriple] = []
    for node in nodes:
        if isinstance(node, Literal):
            values.append(next(admitted))
        elif isinstance(node, Var):
            values.append(bindings[node.name])
        elif isinstance(node, Not):
            values[-1] = neg(values[-1])
        else:
            op = conj if isinstance(node, And) else disj if isinstance(node, Or) else impl
            y = values.pop()
            values[-1] = op(values[-1], y, req.config)
    return values[0]
