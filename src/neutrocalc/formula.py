"""Formula text: grammar, AST, printing, and evaluation.

    formula := impl
    impl    := disj ("->" impl)?          right-associative
    disj    := conj ("|" conj)*
    conj    := unary ("&" unary)*
    unary   := "!" unary | atom
    atom    := triple | ident | "(" formula ")"
    triple  := "<" comp "," comp "," comp ">"
    comp    := nsnum | "[" number "," number "]" | "{" number ("," number)* "}"
    nsnum   := number | "L(" number ")" | "R(" number ")" | "B(" number ")"

Whitespace is insignificant.  The unicode spellings ∧ ∨ ¬ → are accepted
on input and never emitted.  Printing a parsed formula and re-parsing it
reproduces the same tree.
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
from .monads import MonadKind, NsNumber, std
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


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


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


_MONAD_LETTER = {"L": MonadKind.LEFT, "R": MonadKind.RIGHT, "B": MonadKind.BIMONAD}

_COMP_EXPECTED = frozenset({"number", "'['", "'{'", "'L('", "'R('", "'B('"})


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
        node = self.impl()
        tok = self.peek()
        if tok.kind != "end":
            exp = frozenset({"'&'", "'|'", "'->'", "end of input"})
            raise FormulaSyntaxError(
                f"unexpected {_describe(tok.kind)} after formula", tok.pos, exp
            )
        return node

    def impl(self) -> Formula:
        node = self.disj()
        if self.peek().kind == "->":
            self.advance()
            return Implies(node, self.impl())
        return node

    def disj(self) -> Formula:
        node = self.conj()
        while self.peek().kind == "|":
            self.advance()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.peek().kind == "&":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        if self.peek().kind == "!":
            self.advance()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "<":
            return self.triple()
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.impl()
            self.expect(")")
            return node
        exp = frozenset({"'<'", "identifier", "'('", "'!'"})
        raise FormulaSyntaxError(
            f"expected a formula atom, found {_describe(tok.kind)}", tok.pos, exp
        )

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
            frozenset({"number", "'L('", "'R('", "'B('"}),
        )
    p.expect("end")
    return n


def format_triple(tr: NeutroTriple) -> str:
    """The triple in formula syntax; a nonstandard union, which no literal
    spells, renders as its members joined by ∪."""
    return f"<{tr.t}, {tr.i}, {tr.f}>"


_PREC = {Implies: 1, Or: 2, And: 3, Not: 4, Literal: 5, Var: 5}


def unparse(f: Formula) -> str:
    """Canonical ASCII rendering; parse(unparse(f)) == f for parser output."""
    return _unparse(f)


def _wrap(child: Formula, parent_prec: int, tight: bool) -> str:
    text = _unparse(child)
    child_prec = _PREC[type(child)]
    if child_prec < parent_prec or (tight and child_prec == parent_prec):
        return f"({text})"
    return text


def _unparse(f: Formula) -> str:
    if isinstance(f, Literal):
        return format_triple(f.value)
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        return "!" + _wrap(f.operand, _PREC[Not], tight=False)
    if isinstance(f, And):
        return f"{_wrap(f.left, 3, False)} & {_wrap(f.right, 3, True)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left, 2, False)} | {_wrap(f.right, 2, True)}"
    return f"{_wrap(f.left, 1, True)} -> {_wrap(f.right, 1, False)}"


def free_identifiers(f: Formula) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset({f.name})
    if isinstance(f, Not):
        return free_identifiers(f.operand)
    if isinstance(f, (And, Or, Implies)):
        return free_identifiers(f.left) | free_identifiers(f.right)
    return frozenset()


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


def _literals(f: Formula):
    if isinstance(f, Literal):
        yield f.value
    elif isinstance(f, Not):
        yield from _literals(f.operand)
    elif isinstance(f, (And, Or, Implies)):
        yield from _literals(f.left)
        yield from _literals(f.right)


def evaluate(req: EvalRequest) -> NeutroTriple:
    """Parse, admit, and fold a formula to a single triple.

    Every literal and every referenced binding must pass `validate`
    under the request's bounds (after percent canonicalization); a
    failing input raises BoundsViolation rather than silently clamping
    at this stage.
    """
    tree = parse(req.formula)
    factor = Fraction(1, 100) if req.scale == "percent" else None

    def canon(tr: NeutroTriple) -> NeutroTriple:
        return scale_triple(tr, factor) if factor else tr

    bindings = {}
    for name in free_identifiers(tree):
        if name not in req.bindings:
            raise UnboundIdentifier(name)
        bindings[name] = canon(req.bindings[name])

    literals = [canon(lit) for lit in _literals(tree)]
    for source, tr in [("literal", tr) for tr in literals] + [
        (f"binding {name!r}", tr) for name, tr in bindings.items()
    ]:
        report = validate(tr, req.bounds)
        if not report.ok:
            detail = "; ".join(f"{v.where}: {v.message}" for v in report.violations)
            raise BoundsViolation(
                f"{source} {format_triple(tr)} outside active bounds: {detail}", report
            )

    admitted = iter(literals)  # fold visits literals in _literals' order

    def fold(node: Formula) -> NeutroTriple:
        if isinstance(node, Literal):
            return next(admitted)
        if isinstance(node, Var):
            return bindings[node.name]
        if isinstance(node, Not):
            return neg(fold(node.operand))
        if isinstance(node, And):
            return conj(fold(node.left), fold(node.right), req.config)
        if isinstance(node, Or):
            return disj(fold(node.left), fold(node.right), req.config)
        return impl(fold(node.left), fold(node.right), req.config)

    return fold(tree)
