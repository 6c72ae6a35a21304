"""Command line surface: one-shot subcommands over the library.

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
from .formula import (
    EvalRequest,
    Literal,
    evaluate,
    format_triple,
    parse,
    parse_nsnumber,
)
from .intervals import NsInterval, anomaly_check, inf_ns, sup_ns
from .monads import MonadKind, NsNumber, compare_ns, infinitely_close, roughly_leq, std
from .triples import NeutroTriple, OffsetBounds, classify_logic, validate

_FAMILY = {f.value: f for f in OperatorFamily}
_TNORM = {t.value: t for t in TNormFamily}
_KIND = {
    "std": MonadKind.STD,
    "s": MonadKind.STD,
    "left": MonadKind.LEFT,
    "l": MonadKind.LEFT,
    "right": MonadKind.RIGHT,
    "r": MonadKind.RIGHT,
    "bimonad": MonadKind.BIMONAD,
    "b": MonadKind.BIMONAD,
}

_KIND_ORDER = (MonadKind.STD, MonadKind.LEFT, MonadKind.RIGHT, MonadKind.BIMONAD)


# The exponent of e-notation as Fraction's string grammar spells it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

#: Most probes `anomaly` accepts; it builds every probe in memory.
_MAX_PROBES = 100_000


def _fraction(text: str) -> Fraction:
    # Fraction("1e9999999") first builds 10**9999999, which takes seconds
    # to minutes, so exponents past the interpreter's int/str digit limit
    # (0: no limit) are refused before it is called.  The length test
    # keeps int() itself within that limit.
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exponent and limit and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
        raise argparse.ArgumentTypeError(f"exponent of {text!r} exceeds {limit} in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


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


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, ensure_ascii=False) + "\n")


def _cmd_eval(args) -> int:
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
    if args.json:
        _emit(
            {
                "result": {
                    "t": result.t.to_json(),
                    "i": result.i.to_json(),
                    "f": result.f.to_json(),
                },
                "config": {
                    "family": args.family,
                    "tnorm": args.tnorm,
                    "scale": args.scale,
                    "psi": float(args.psi),
                    "omega": float(args.omega),
                },
                "warnings": notes,
            }
        )
    else:
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        print(format_triple(result))
    return 0


def _cmd_compare(args) -> int:
    x, y = parse_nsnumber(args.x), parse_nsnumber(args.y)
    rel = compare_ns(x, y)
    if args.json:
        _emit({"x": x.to_json(), "y": y.to_json(), "relation": rel.value})
    else:
        print(rel.value)
    return 0


def _cmd_rough_compare(args) -> int:
    x, y = parse_nsnumber(args.x), parse_nsnumber(args.y)
    if infinitely_close(x, y):
        symbol = "≈"
    elif roughly_leq(x, y):
        symbol = "≲"
    else:
        symbol = "≳"
    if args.json:
        _emit({"x": x.to_json(), "y": y.to_json(), "relation": symbol})
    else:
        print(symbol)
    return 0


def _cmd_interval(args) -> int:
    interval = NsInterval(args.lo, args.hi)
    result = inf_ns(interval) if args.which == "inf" else sup_ns(interval)
    if args.json:
        _emit({"which": args.which, "result": result.to_json()})
    else:
        print(str(result))
    return 0


def _cmd_classify(args) -> int:
    labels = sorted(classify_logic(args.t, args.i, args.f, scale=args.scale))
    if args.json:
        _emit({"labels": labels})
    else:
        for label in labels:
            print(label)
    return 0


def _cmd_validate(args) -> int:
    triple = NeutroTriple.single(args.t, args.i, args.f)
    report = validate(triple, OffsetBounds(args.psi, args.omega))
    if args.json:
        _emit(
            {
                "ok": report.ok,
                "violations": [
                    {"where": v.where, "message": v.message} for v in report.violations
                ],
            }
        )
    else:
        if report.ok:
            print("pass")
        for v in report.violations:
            print(f"{v.where}: {v.message}")
    return 0 if report.ok else 1


def _cmd_table(args) -> int:
    a, b = std(args.a), std(args.b)
    print("kind_a\tkind_b\trelation")
    for ka in _KIND_ORDER:
        for kb in _KIND_ORDER:
            rel = compare_ns(NsNumber(a.value, ka), NsNumber(b.value, kb))
            print(f"{ka.value}\t{kb.value}\t{rel.value}")
    return 0


def _cmd_anomaly(args) -> int:
    a, b = args.a, args.b
    if not a < b:
        raise NeutroCalcError("anomaly check requires a < b")
    rng = Random(args.seed)
    pad = (b - a) / 2
    lo_k = int((a - pad) * 1000)
    hi_k = int((b + pad) * 1000)
    probes = [
        NsNumber(Fraction(rng.randint(lo_k, hi_k), 1000), rng.choice(_KIND_ORDER))
        for _ in range(args.probes)
    ]
    report = anomaly_check(a, b, probes)
    members = sum(report.outer_membership)
    discrepancies = len(report.discrepancies)
    if args.json:
        _emit(
            {
                "outer": report.outer_notation,
                "inner": report.inner_notation,
                "probes": len(report.probes),
                "members": members,
                "discrepancies": discrepancies,
                "memberships_coincide": not discrepancies,
            }
        )
        return 0
    print(f"outer interval: {report.outer_notation}")
    print(f"inner interval: {report.inner_notation}")
    print(f"probes: {len(report.probes)}")
    print(f"members of each: {members}")
    print(f"discrepancies: {discrepancies}")
    if not discrepancies:
        print(
            "membership predicates coincide: the nominally wider and narrower "
            "intervals contain exactly the same probes"
        )
    return 0


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
        return args.func(args)
    except FormulaSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NeutroCalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
