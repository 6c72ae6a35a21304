"""Triple-valued logic connectives over three t-norm kernels.

Conjunction always meets T and joins F; disjunction mirrors that.  The
families differ only in how indeterminacy travels (``_FAMILY_RULES``): I
follows T (t-aligned), follows F (f-aligned), or blends both (plithogenic).

The blend is the midpoint of meet and join; `_rows` states the identity
that lets the unit and decorated rows take it in one call per value
pair, and why the offset row does not.

Each connective reads its operators from one table keyed by (kernel,
number domain): "unit" (the bare kernels), "offset" (every operand
clamped into [0, 1] first, with a ClampWarning per clamp), and
"decorated" for nonstandard operands (min_ns/max_ns, under the min/max
kernel only).  Degrees leave [0, 1] only under widened bounds [psi,
omega], and clamping a degree in [0, 1] changes and warns nothing, so
the domain follows from the bounds, never from the values.  `_row` is
the one place that chooses the row: decorated for nonstandard operands,
else unit under psi = 0, omega = 1, where admission keeps every degree
in [0, 1], and offset under widened bounds or none.  `formula.evaluate`
passes the request's bounds, and the public `conj`, `disj` and `impl`
none.  Both apply the row through `_step`.

Negation swaps T and F and implication is definitionally
disj(neg(x), y), in the same family.
"""

from __future__ import annotations

import os
import sys
import warnings
from enum import Enum
from fractions import Fraction

from .errors import ShapeMismatch, UnsupportedNonstandardConfig, _check_type, _Frozen
from .monads import NsNumber, _plain, _ratio, add_ns, as_fraction, max_ns, min_ns
from .triples import UNIT_BOUNDS, Hesitant, NeutroTriple, Nonstandard, _check_pairs

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
_PACKAGE = os.path.dirname(__file__) + os.sep  # the prefix of this package's frames


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


class OperatorConfig(_Frozen):
    __slots__ = __match_args__ = ("family", "tnorm")

    def __init__(self, family=OperatorFamily.F_ALIGNED, tnorm=TNormFamily.MIN_MAX):
        _check_type("family", family, OperatorFamily)
        _check_type("tnorm", tnorm, TNormFamily)
        self.__setstate__((family, tnorm))


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
    """0 or 1 for a degree v outside [0, 1], with a ClampWarning at the line
    of the first caller outside this package, whatever path led here; the
    offset kernels call it only for such a degree."""
    try:
        shown = float(v)
    except OverflowError:  # beyond the float range: the exact decimal
        shown = _plain(v)
    frame, level = sys._getframe(1), 2
    while frame.f_code.co_filename.startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"degree {shown} clamped into [0, 1] for kernel application",
        ClampWarning,
        stacklevel=level,
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
    return NsNumber._of(total.value / 2, total.kind)


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


def _rows(meet, join, blend) -> dict:
    """(t_op, i_op, f_op) per (family, is_conj); blend is the plithogenic I op.

    The blend is the midpoint of meet and join.  T(a, b) + S(a, b) = a + b
    under every kernel (min + max; ab + (a + b - ab); max(0, a + b - 1) +
    min(1, a + b)), so the unit rows blend with `_midpoint`.  The decorated
    row blends with `_ns_midpoint`: `Nonstandard._apply` admits only single
    L, S or R numbers, which min_ns and max_ns always rank, so {min, max} =
    {a, b}, and the decorated sum is symmetric.  The offset row's blend is
    the midpoint of its clamped operands too, but it applies both clamping
    kernels: each clamps, and warns about, an out-of-range degree, and the
    benchmark's reference expects those two ClampWarnings per degree
    (ROADMAP item 15 moves it to one).
    """
    return {
        (family, is_conj): tuple({"meet": m, "join": j, "blend": blend}[r] for r in rules)
        for family, rules in _FAMILY_RULES.items()
        for is_conj, (m, j) in ((True, (meet, join)), (False, (join, meet)))
    }


def _offset_rows(tn, tc) -> dict:
    """The rows of kernel (tn, tc) on operands clamped into [0, 1] first."""
    meet, join = _offset(tn), _offset(tc)

    def blend(a: Fraction, b: Fraction) -> Fraction:
        return _midpoint(meet(a, b), join(a, b))

    return _rows(meet, join, blend)


#: The one operator table: (kernel, domain) -> rows.  Only min/max ranks decorated numbers.
_OPERATORS = {
    (kernel, domain): rows
    for kernel, (tn, tc) in _KERNELS.items()
    for domain, rows in (("unit", _rows(tn, tc, _midpoint)), ("offset", _offset_rows(tn, tc)))
}
# Looked up at call time, as _offset's kernels look up _clamped, so that wrappers
# set on this module after import (a tracer's spans) see every call.
_OPERATORS[TNormFamily.MIN_MAX, "decorated"] = _rows(
    lambda a, b: min_ns(a, b), lambda a, b: max_ns(a, b), _ns_midpoint
)


def _check_shapes(x: NeutroTriple, y: NeutroTriple) -> None:
    if type(x.t) is not type(y.t):
        raise ShapeMismatch(f"operand shapes differ: {x.shape} vs {y.shape}")


def _row(cfg: OperatorConfig, x: NeutroTriple, is_conj: bool, bounds=None) -> tuple:
    """The (t_op, i_op, f_op) of one connective on operands of x's shape:
    "decorated" for nonstandard operands, else "unit" under the bounds
    psi = 0, omega = 1, and "offset" under widened bounds or none."""
    if isinstance(x.t, Nonstandard):
        domain = "decorated"
    elif bounds is not None and bounds == UNIT_BOUNDS:
        domain = "unit"
    else:
        domain = "offset"
    rows = _OPERATORS.get((cfg.tnorm, domain))
    if rows is None:
        raise UnsupportedNonstandardConfig("nonstandard operands support only the min/max kernel")
    return rows[cfg.family, is_conj]


def _step(x: NeutroTriple, y: NeutroTriple, row: tuple) -> NeutroTriple:
    """row applied to two same-shape triples, component by component.
    Hesitant operands are refused past the pair limit here alone, before
    any pair of any component is computed."""
    t_op, i_op, f_op = row
    if type(x.t) is Hesitant:
        for c, d in ((x.t, y.t), (x.i, y.i), (x.f, y.f)):
            _check_pairs(c, d)
    # Spelled out rather than looped, for speed; each _apply returns its
    # operands' class, so the shapes still agree.
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
    return _step(x, y, _row(cfg, x, is_conj))
