"""Triple-valued logic connectives over three t-norm kernels.

Conjunction always meets T and joins F; disjunction mirrors that.  The
families differ only in how indeterminacy travels (``_FAMILY_RULES``): I
follows T (t-aligned), follows F (f-aligned), or blends both (plithogenic).

Each connective reads its operators from one table keyed by (kernel,
number domain): "unit" (the bare kernels), "offset" (every operand
clamped into [0, 1] first, with a ClampWarning per clamp), and
"decorated" for nonstandard operands (min_ns/max_ns, under the min/max
kernel only).  Degrees leave [0, 1] only under widened bounds [psi,
omega], and clamping a degree in [0, 1] changes and warns nothing, so
the domain follows from the bounds, never from the values.  The public
`conj`, `disj` and `impl`, which see no bounds, take the offset row for
standard operands.  `formula.evaluate` takes the unit row under psi = 0,
omega = 1, where admission keeps every degree in [0, 1], and the offset
row otherwise.  Both apply the chosen row through the one step `_step`.

Negation swaps T and F and implication is definitionally
disj(neg(x), y), in the same family.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ShapeMismatch, UnsupportedNonstandardConfig, _check_type
from .monads import NsNumber, _plain, _ratio, add_ns, as_fraction, max_ns, min_ns
from .triples import NeutroTriple, Nonstandard

__all__ = [
    "TNormFamily",
    "OperatorFamily",
    "OperatorConfig",
    "ClampWarning",
    "tnorm",
    "tconorm",
    "neg",
    "conj",
    "disj",
    "impl",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TNormFamily(Enum):
    MIN_MAX = "minmax"
    PRODUCT = "product"
    LUKASIEWICZ = "luk"

    __hash__ = object.__hash__  # as monads.MonadKind's: keys of the operator table


class OperatorFamily(Enum):
    T_ALIGNED = "ti"
    F_ALIGNED = "if"
    PLITHOGENIC = "plith"

    __hash__ = object.__hash__  # as monads.MonadKind's


@dataclass(frozen=True)
class OperatorConfig:
    family: OperatorFamily = OperatorFamily.F_ALIGNED
    tnorm: TNormFamily = TNormFamily.MIN_MAX

    def __post_init__(self):
        _check_type("family", self.family, OperatorFamily)
        _check_type("tnorm", self.tnorm, TNormFamily)


class ClampWarning(UserWarning):
    """An offset degree was clamped into [0, 1] for kernel application."""


# Kernels on integer cross-products (denominators are positive), which
# skip the ABC checks of Fraction comparison and arithmetic.  Each reads
# an operand's pair once: numerator and denominator are properties.  A
# new result is built by monads._ratio, which skips Fraction.__new__.
def _min(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return a if an * bd <= bn * ad else b


def _max(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return b if bn * ad > an * bd else a


def _product_tnorm(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return _ratio(an * bn, ad * bd)


def _product_tconorm(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return _ratio(an * bd + bn * ad - an * bn, ad * bd)


def _luk_tnorm(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    d = ad * bd
    n = an * bd + bn * ad - d
    return _ratio(n, d) if n > 0 else _ZERO


def _luk_tconorm(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    d = ad * bd
    n = an * bd + bn * ad
    return _ratio(n, d) if n < d else _ONE


_KERNELS = {
    TNormFamily.MIN_MAX: (_min, _max),
    TNormFamily.PRODUCT: (_product_tnorm, _product_tconorm),
    TNormFamily.LUKASIEWICZ: (_luk_tnorm, _luk_tconorm),
}


def tnorm(a, b, family: TNormFamily = TNormFamily.MIN_MAX) -> Fraction:
    """min(a, b) / ab / max(0, a + b - 1) on degrees in [0, 1]."""
    _check_type("family", family, TNormFamily)
    return _KERNELS[family][0](as_fraction(a), as_fraction(b))


def tconorm(a, b, family: TNormFamily = TNormFamily.MIN_MAX) -> Fraction:
    """max(a, b) / a + b - ab / min(1, a + b) on degrees in [0, 1]."""
    _check_type("family", family, TNormFamily)
    return _KERNELS[family][1](as_fraction(a), as_fraction(b))


def _clamped(v: Fraction) -> Fraction:
    """0 or 1 for a degree v outside [0, 1], with a ClampWarning; the
    offset kernels call it only for such a degree."""
    try:
        shown = float(v)
    except OverflowError:  # beyond the float range: the exact decimal
        shown = _plain(v)
    warnings.warn(
        f"degree {shown} clamped into [0, 1] for kernel application",
        ClampWarning,
        stacklevel=4,
    )
    return _ZERO if v.numerator < 0 else _ONE


def neg(x: NeutroTriple) -> NeutroTriple:
    """Swap truth and falsity; indeterminacy stays put.  Any shape."""
    _check_type("x", x, NeutroTriple)
    return NeutroTriple._of(x.f, x.i, x.t)


def conj(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig = OperatorConfig()) -> NeutroTriple:
    return _combine(x, y, cfg, is_conj=True)


def disj(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig = OperatorConfig()) -> NeutroTriple:
    return _combine(x, y, cfg, is_conj=False)


def impl(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig = OperatorConfig()) -> NeutroTriple:
    """x -> y as disj(neg(x), y) in the same family."""
    return disj(neg(x), y, cfg)


def _midpoint(a: Fraction, b: Fraction) -> Fraction:
    """(a + b) / 2 on integer cross-products."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return _ratio(an * bd + bn * ad, 2 * ad * bd)


def _ns_midpoint(a: NsNumber, b: NsNumber) -> NsNumber:
    """(a + b) / 2; halving moves no decoration."""
    total = add_ns(a, b)
    n, d = total.value.as_integer_ratio()
    return NsNumber._of(_ratio(n, 2 * d), total.kind)


def _offset(kernel):
    """kernel on operands clamped into [0, 1] first.  The clamp tests each
    operand on its integer pair, and calls `_clamped`, looked up at call
    time, only for a degree outside [0, 1].  kernel keeps the one copy of
    its formula and reads the pairs again: passing them in would cost the
    unit row, which needs no clamp, a call per kernel."""

    def clamping(a: Fraction, b: Fraction) -> Fraction:
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        if not 0 <= an <= ad:
            a = _clamped(a)
        if not 0 <= bn <= bd:
            b = _clamped(b)
        return kernel(a, b)

    return clamping


#: Each family's (T, I, F) rules for conjunction; disjunction swaps meet and join.
_FAMILY_RULES = {
    OperatorFamily.T_ALIGNED: ("meet", "meet", "join"),
    OperatorFamily.F_ALIGNED: ("meet", "join", "join"),
    OperatorFamily.PLITHOGENIC: ("meet", "blend", "join"),
}


def _rows(meet, join, midpoint) -> dict:
    """(t_op, i_op, f_op) per (family, is_conj); blend is the midpoint of meet and join."""

    def blend(a, b):
        return midpoint(meet(a, b), join(a, b))

    return {
        (family, is_conj): tuple({"meet": m, "join": j, "blend": blend}[r] for r in rules)
        for family, rules in _FAMILY_RULES.items()
        for is_conj, (m, j) in ((True, (meet, join)), (False, (join, meet)))
    }


#: The one operator table: (kernel, domain) -> rows.  Only min/max ranks decorated numbers.
_OPERATORS = {
    (kernel, domain): _rows(*ops, _midpoint)
    for kernel, (tn, tc) in _KERNELS.items()
    for domain, ops in (("unit", (tn, tc)), ("offset", (_offset(tn), _offset(tc))))
}
# Looked up at call time, as _offset's kernels look up _clamped, so that wrappers
# set on this module after import (a tracer's spans) see every call.
_OPERATORS[TNormFamily.MIN_MAX, "decorated"] = _rows(
    lambda a, b: min_ns(a, b), lambda a, b: max_ns(a, b), _ns_midpoint
)


def _check_shapes(x: NeutroTriple, y: NeutroTriple) -> None:
    if type(x.t) is not type(y.t):
        raise ShapeMismatch(f"operand shapes differ: {x.shape} vs {y.shape}")


def _row(cfg: OperatorConfig, domain: str, is_conj: bool) -> tuple:
    """The (t_op, i_op, f_op) of one connective in one number domain: "unit"
    only where the bounds keep every degree in [0, 1], else "offset", and
    "decorated" for nonstandard operands."""
    rows = _OPERATORS.get((cfg.tnorm, domain))
    if rows is None:
        raise UnsupportedNonstandardConfig("nonstandard operands support only the min/max kernel")
    return rows[cfg.family, is_conj]


def _step(x: NeutroTriple, y: NeutroTriple, row: tuple) -> NeutroTriple:
    """row applied to two same-shape triples, component by component."""
    t_op, i_op, f_op = row
    # One line per component, so that clamp warnings keep distinct locations;
    # each _apply returns its operands' class, so the shapes still agree.
    return NeutroTriple._of(
        x.t._apply(y.t, t_op),
        x.i._apply(y.i, i_op),
        x.f._apply(y.f, f_op),
    )


def _combine(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig, is_conj: bool) -> NeutroTriple:
    _check_type("x", x, NeutroTriple)
    _check_type("y", y, NeutroTriple)
    _check_type("cfg", cfg, OperatorConfig)
    _check_shapes(x, y)
    domain = "decorated" if isinstance(x.t, Nonstandard) else "offset"
    return _step(x, y, _row(cfg, domain, is_conj))
