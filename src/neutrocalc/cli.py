"""Command line surface: one-shot subcommands over the library.

`_COMMANDS` is the one declaration of the CLI: each subcommand's help,
handler and arguments.  `_add_arguments` reads one entry into a parser,
for both builders: `build_parser`, the full parser with every subcommand,
and `_command_parser`, one subcommand's parser alone.  `main` routes an
argv whose first word names a subcommand straight to that subcommand's
parser; the full parser reads every other argv, and prints the top-level
help and usage errors.

Exit codes: 0 on success, 1 on evaluation or validation failure,
2 on syntax or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings
from fractions import Fraction
from random import Random

from .connectives import OperatorConfig, OperatorFamily, TNormFamily
from .errors import FormulaSyntaxError, NeutroCalcError
from .formula import EvalRequest, Literal, evaluate, format_triple, parse, parse_nsnumber
from .intervals import NsInterval, anomaly_check, inf_ns, sup_ns
from .monads import (
    _NUMERAL,
    MonadKind,
    NsNumber,
    _ratio,
    as_fraction,
    compare_ns,
    infinitely_close,
    roughly_leq,
)
from .triples import _SCALES, NeutroTriple, OffsetBounds, classify_logic, validate

# Kinds by name and by initial, in declaration order.
_KIND_ORDER = tuple(MonadKind)
_KIND = {spelling: k for k in _KIND_ORDER for spelling in (k.value, k.value[0])}


#: Most probes `anomaly` accepts; it builds every probe in memory.
_MAX_PROBES = 100_000


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        refused = str(e).startswith("exponent of")  # as_fraction's own refusal
        raise argparse.ArgumentTypeError(str(e) if refused else f"not a number: {text!r}")


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        # The message argparse gives for type=int.
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    if n > _MAX_PROBES:
        raise argparse.ArgumentTypeError(f"at most {_MAX_PROBES} probes, got {text!r}")
    return n


def _kind_value(text: str) -> NsNumber:
    kind_name, sep, value = text.partition(":")
    if not sep or kind_name.lower() not in _KIND:
        raise argparse.ArgumentTypeError(f"expected KIND:VALUE, got {text!r}")
    return NsNumber(_fraction(value), _KIND[kind_name.lower()])


def _binding(text: str) -> tuple[str, NeutroTriple]:
    name, sep, body = text.partition("=")
    if not sep or not name.isidentifier():
        raise argparse.ArgumentTypeError(f"expected NAME=<triple>, got {text!r}")
    try:
        node = parse(body)
    except NeutroCalcError as e:
        raise argparse.ArgumentTypeError(f"binding {name}: {e}")
    if not isinstance(node, Literal):
        raise argparse.ArgumentTypeError(f"binding {name} must be a triple literal")
    return name, node.value


class _Output:
    """What a subcommand prints.  main prints payload() as JSON under
    --json, else the warnings on stderr and then lines() on stdout.  Both
    are built only when printed, so the form not asked for cannot fail."""

    __slots__ = ("code", "payload", "lines", "warnings")

    def __init__(self, code: int, payload, lines, warnings: tuple[str, ...] = ()):
        self.code, self.payload, self.lines, self.warnings = code, payload, lines, warnings


def _cmd_eval(args) -> _Output:
    req = EvalRequest(
        formula=args.expr,
        config=OperatorConfig(OperatorFamily(args.family), TNormFamily(args.tnorm)),
        scale=args.scale,
        bounds=OffsetBounds(args.psi, args.omega),
        bindings=dict(args.bind or ()),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = evaluate(req)
    notes = [str(w.message) for w in caught]
    payload = lambda: {
        "result": {"t": result.t.to_json(), "i": result.i.to_json(), "f": result.f.to_json()},
        "config": {
            "family": args.family,
            "tnorm": args.tnorm,
            "scale": args.scale,
            "psi": float(args.psi),
            "omega": float(args.omega),
        },
        "warnings": notes,
    }
    warned = tuple(f"warning: {note}" for note in notes)
    return _Output(0, payload, lambda: [format_triple(result)], warned)


def _relation(args, relate) -> _Output:
    x, y = parse_nsnumber(args.x), parse_nsnumber(args.y)
    symbol = relate(x, y)
    payload = lambda: {"x": x.to_json(), "y": y.to_json(), "relation": symbol}
    return _Output(0, payload, lambda: [symbol])


def _rough_symbol(x: NsNumber, y: NsNumber) -> str:
    if infinitely_close(x, y):
        return "≈"
    return "≲" if roughly_leq(x, y) else "≳"


def _cmd_interval(args) -> _Output:
    interval = NsInterval(args.lo, args.hi)
    result = inf_ns(interval) if args.which == "inf" else sup_ns(interval)
    payload = lambda: {"which": args.which, "result": result.to_json()}
    return _Output(0, payload, lambda: [str(result)])


def _cmd_classify(args) -> _Output:
    labels = sorted(classify_logic(args.t, args.i, args.f, scale=args.scale))
    return _Output(0, lambda: {"labels": labels}, lambda: labels)


def _cmd_validate(args) -> _Output:
    triple = NeutroTriple.single(args.t, args.i, args.f)
    report = validate(triple, OffsetBounds(args.psi, args.omega))
    return _Output(
        0 if report.ok else 1,
        lambda: {
            "ok": report.ok,
            "violations": [{"where": v.where, "message": v.message} for v in report.violations],
        },
        lambda: [f"{v.where}: {v.message}" for v in report.violations] or ["pass"],
    )


def _cmd_table(args) -> _Output:
    rows = ["kind_a\tkind_b\trelation"]
    for ka in _KIND_ORDER:
        for kb in _KIND_ORDER:
            rel = compare_ns(NsNumber(args.a, ka), NsNumber(args.b, kb))
            rows.append(f"{ka.value}\t{kb.value}\t{rel.value}")
    return _Output(0, None, lambda: rows)


def _cmd_anomaly(args) -> _Output:
    a, b = args.a, args.b
    if not a < b:
        raise NeutroCalcError("anomaly check requires a < b")
    rng = Random(args.seed)
    pad = (b - a) / 2
    lo_k = int((a - pad) * 1000)
    hi_k = int((b + pad) * 1000)
    probes = [
        NsNumber._of(_ratio(rng.randint(lo_k, hi_k), 1000), rng.choice(_KIND_ORDER))
        for _ in range(args.probes)
    ]
    report = anomaly_check(a, b, probes)
    members = sum(report.outer_membership)
    discrepancies = len(report.discrepancies)
    payload = lambda: {
        "outer": report.outer_notation,
        "inner": report.inner_notation,
        "probes": len(report.probes),
        "members": members,
        "discrepancies": discrepancies,
        "memberships_coincide": not discrepancies,
    }
    lines = [
        f"outer interval: {report.outer_notation}",
        f"inner interval: {report.inner_notation}",
        f"probes: {len(report.probes)}",
        f"members of each: {members}",
        f"discrepancies: {discrepancies}",
    ]
    if not discrepancies:
        lines.append(
            "membership predicates coincide: the nominally wider and narrower "
            "intervals contain exactly the same probes"
        )
    return _Output(0, payload, lambda: lines)


def _arg(*names: str, **options) -> tuple:
    """One argument, as the parser is given it: its names and its options."""
    return names, options


# Arguments that several subcommands share, each written once.
_JSON = _arg("--json", action="store_true")
_TRIPLE = tuple(_arg(name, type=_fraction) for name in "tif")
_BOUNDS = (
    _arg("--psi", type=_fraction, default=Fraction(0)),
    _arg("--omega", type=_fraction, default=Fraction(1)),
)
_SCALE = _arg("--scale", choices=tuple(_SCALES), default="unit")
_PAIR = _arg("x"), _arg("y")
_ENDS = tuple(_arg(f"--{name}", type=_fraction, required=True) for name in "ab")
_KIND_VALUE = {"type": _kind_value, "required": True, "metavar": "KIND:VALUE"}

#: Subcommand -> (help, handler, arguments), the arguments in the order
#: that the subcommand's --help lists them.
_COMMANDS = {
    "eval": ("evaluate a formula", _cmd_eval, (
        _arg("expr"),
        _arg("--family", choices=sorted(f.value for f in OperatorFamily), default="if"),
        _arg("--tnorm", choices=sorted(t.value for t in TNormFamily), default="minmax"),
        _JSON,
        *_BOUNDS,
        _SCALE,
        _arg("--bind", type=_binding, action="append", metavar="NAME=<triple>"),
    )),
    "compare": (
        "six-valued comparison of two decorated numbers",
        functools.partial(_relation, relate=lambda x, y: compare_ns(x, y).value),
        (*_PAIR, _JSON),
    ),
    "rough-compare": (
        "rough-order comparison",
        functools.partial(_relation, relate=_rough_symbol),
        (*_PAIR, _JSON),
    ),
    "interval": ("decorated infimum/supremum of an interval", _cmd_interval, (
        _arg("which", choices=("inf", "sup")),
        _arg("--lo", **_KIND_VALUE),
        _arg("--hi", **_KIND_VALUE),
        _JSON,
    )),
    "classify": ("name the logics a (t, i, f) triple satisfies", _cmd_classify, (
        *_TRIPLE, _SCALE, _JSON
    )),
    "validate": ("check a triple against offset bounds", _cmd_validate, (
        *_TRIPLE, *_BOUNDS, _JSON
    )),
    "table": ("print golden decision tables", _cmd_table, (
        _arg("what", choices=("inequalities",)), *_ENDS
    )),
    "anomaly": ("rough-interval membership demonstration", _cmd_anomaly, (
        *_ENDS,
        _arg("--probes", type=_count, default=1000,
             help=f"number of random probes, 0 to {_MAX_PROBES} (default: %(default)s)"),
        _arg("--seed", type=int, default=0),
        _JSON,
    )),
}


#: A word argparse reads as a negative number, not an option: a minus sign
#: and a plain decimal as `as_fraction` reads it, exponent included.
#: argparse's own pattern, ^-\d+$|^-\d*\.\d+$ on Python 3.10-3.13, reads
#: -1e-3 as an option.
_NEGATIVE_NUMBER = re.compile(rf"^-{_NUMERAL}(?:[eE][-+]?\d+)?$")


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """parser, given the arguments and the handler of subcommand `name`,
    and `_NEGATIVE_NUMBER` for argparse's private negative-number matcher."""
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    _, handler, arguments = _COMMANDS[name]
    for names, options in arguments:
        parser.add_argument(*names, **options)
    parser.set_defaults(func=handler)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand, built from _COMMANDS.

    Built on first use and shared by every later call in the process,
    so callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="neutrocalc",
        description="Nonstandard neutrosophic calculus evaluator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand `name`'s parser, built alone as `build_parser`'s
    `add_parser` builds it: with the same prog and no other setting."""
    return _add_arguments(argparse.ArgumentParser(prog=f"neutrocalc {name}"), name)


def _arguments(argv) -> argparse.Namespace:
    """What `build_parser().parse_args(argv)` reads, but `command`.

    The full parser's one step for a first word that names a subcommand
    is to give the rest of argv to that subcommand's parser, and then to
    refuse what it left over; this does that step without building the
    full parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if extras:
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
        return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    try:
        out = args.func(args)
    except NeutroCalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, FormulaSyntaxError) else 1
    if getattr(args, "json", False):  # table has no --json
        try:
            sys.stdout.write(json.dumps(out.payload(), ensure_ascii=False) + "\n")
        except OverflowError:  # float() of a value past the float range
            print("error: --json cannot show a value beyond the float range", file=sys.stderr)
            return 1
    else:
        for note in out.warnings:
            print(note, file=sys.stderr)
        sys.stdout.write("".join(line + "\n" for line in out.lines()))
    return out.code
