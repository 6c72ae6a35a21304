"""Command line surface: one-shot subcommands over the library.

Exit codes: 0 on success, 1 on evaluation or validation failure,
2 on syntax or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from fractions import Fraction
from random import Random

from .connectives import OperatorConfig, OperatorFamily, TNormFamily
from .errors import FormulaSyntaxError, NeutroCalcError
from .formula import EvalRequest, Literal, evaluate, format_triple, parse, parse_nsnumber
from .intervals import NsInterval, anomaly_check, inf_ns, sup_ns
from .monads import (
    MonadKind,
    NsNumber,
    _ratio,
    as_fraction,
    compare_ns,
    infinitely_close,
    roughly_leq,
)
from .triples import NeutroTriple, OffsetBounds, classify_logic, validate

_FAMILY = {f.value: f for f in OperatorFamily}
_TNORM = {t.value: t for t in TNormFamily}
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
        config=OperatorConfig(_FAMILY[args.family], _TNORM[args.tnorm]),
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


def _cmd_compare(args) -> _Output:
    return _relation(args, lambda x, y: compare_ns(x, y).value)


def _rough_symbol(x: NsNumber, y: NsNumber) -> str:
    if infinitely_close(x, y):
        return "≈"
    return "≲" if roughly_leq(x, y) else "≳"


def _cmd_rough_compare(args) -> _Output:
    return _relation(args, _rough_symbol)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand.

    Built on first use and shared by every later call in the process,
    so callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="neutrocalc",
        description="Nonstandard neutrosophic calculus evaluator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula")
    p.add_argument("expr")
    p.add_argument("--family", choices=sorted(_FAMILY), default="if")
    p.add_argument("--tnorm", choices=sorted(_TNORM), default="minmax")
    p.add_argument("--json", action="store_true")
    p.add_argument("--psi", type=_fraction, default=Fraction(0))
    p.add_argument("--omega", type=_fraction, default=Fraction(1))
    p.add_argument("--scale", choices=("unit", "percent"), default="unit")
    p.add_argument("--bind", type=_binding, action="append", metavar="NAME=<triple>")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="six-valued comparison of two decorated numbers")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("rough-compare", help="rough-order comparison")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rough_compare)

    p = sub.add_parser("interval", help="decorated infimum/supremum of an interval")
    p.add_argument("which", choices=("inf", "sup"))
    p.add_argument("--lo", type=_kind_value, required=True, metavar="KIND:VALUE")
    p.add_argument("--hi", type=_kind_value, required=True, metavar="KIND:VALUE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("classify", help="name the logics a (t, i, f) triple satisfies")
    p.add_argument("t", type=_fraction)
    p.add_argument("i", type=_fraction)
    p.add_argument("f", type=_fraction)
    p.add_argument("--scale", choices=("unit", "percent"), default="unit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("validate", help="check a triple against offset bounds")
    p.add_argument("t", type=_fraction)
    p.add_argument("i", type=_fraction)
    p.add_argument("f", type=_fraction)
    p.add_argument("--psi", type=_fraction, default=Fraction(0))
    p.add_argument("--omega", type=_fraction, default=Fraction(1))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("table", help="print golden decision tables")
    p.add_argument("what", choices=("inequalities",))
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("anomaly", help="rough-interval membership demonstration")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.add_argument(
        "--probes",
        type=_count,
        default=1000,
        help=f"number of random probes, 0 to {_MAX_PROBES} (default: %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_anomaly)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except FormulaSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NeutroCalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
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


if __name__ == "__main__":
    raise SystemExit(main())
