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

For hesitant operands `_row` returns the row under the same key in
`_SET_FORMS` instead, built once at import from the scalar row: each
set form maps the two sorted value tuples of a component to the sorted,
distinct values of its op over every pair (`_set_form`).

Negation swaps T and F and implication is definitionally
disj(neg(x), y), in the same family.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction

from .errors import (
    NeutroCalcError,
    ShapeMismatch,
    UnsupportedNonstandardConfig,
    _check_type,
    _Frozen,
)
from .monads import NsNumber, _number, _plain, _ratio, _ratios, add_ns, max_ns, min_ns
from .triples import UNIT_BOUNDS, Hesitant, NeutroTriple, Nonstandard, _canonical

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
        self._store(family, tnorm)


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
    return _KERNELS[family][0](_number("a", a), _number("b", b))


def tconorm(a, b, family: TNormFamily = TNormFamily.MIN_MAX) -> Fraction:
    """max(a, b) / a + b - ab / min(1, a + b) on degrees in [0, 1]."""
    _check_type("family", family, TNormFamily)
    return _KERNELS[family][1](_number("a", a), _number("b", b))


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


#: Bit length of the values' common denominator past which a Cartesian set
#: form maps the pairs with its scalar kernel.  The bench corpora peak at
#: 20 bits; values with many distinct large denominators would lift to
#: numerators far longer than the pairwise kernels' cross-products.
_MAX_LIFT_BITS = 64


def _pairwise(op):
    """The set form that maps every pair with op, in pair order."""

    def form(xs: tuple, ys: tuple) -> tuple:
        return _canonical([op(u, v) for u in xs for v in ys])

    return form


def _cartesian(kernel, numerators):
    """kernel's set form on integers.  Each value's numerator is lifted to
    the values' least common denominator D, and numerators(a, b, D) gives
    the set of result numerators over their one denominator: equal values
    share a numerator, and the integer order is the value order.  Past
    _MAX_LIFT_BITS the pairs go through kernel instead."""
    pairwise = _pairwise(kernel)

    def form(xs: tuple, ys: tuple) -> tuple:
        xp = [v.as_integer_ratio() for v in xs]
        yp = [v.as_integer_ratio() for v in ys]
        d = math.lcm(*[e for _, e in xp], *[e for _, e in yp])
        if d.bit_length() > _MAX_LIFT_BITS:
            return pairwise(xs, ys)
        out, den = numerators([n * (d // e) for n, e in xp], [n * (d // e) for n, e in yp], d)
        return _ratios(sorted(out), den)

    return form


# For each unit kernel, the result numerators of every pair of lifted
# numerators p and q over D, and their denominator.
_NUMERATORS = {
    _product_tnorm: lambda a, b, d: ({p * q for p in a for q in b}, d * d),
    _product_tconorm: lambda a, b, d: ({(p + q) * d - p * q for p in a for q in b}, d * d),
    _luk_tnorm: lambda a, b, d: ({p + q - d if p + q > d else 0 for p in a for q in b}, d),
    _luk_tconorm: lambda a, b, d: ({p + q if p + q < d else d for p in a for q in b}, d),
    _midpoint: lambda a, b, d: ({p + q for p in a for q in b}, 2 * d),
}


def _meet_set(xs: tuple, ys: tuple) -> tuple:
    """{min(a, b)} = {a in A : a <= max B} | {b in B : b <= max A}: if
    a <= max B, then min(a, max B) = a, and each min(a, b) is such an a
    or such a b.  Two bisections, and no pair: the two prefixes are sorted
    runs, which the sort in _canonical merges in one pass."""
    return _canonical(xs[: bisect_right(xs, ys[-1])] + ys[: bisect_right(ys, xs[-1])])


def _join_set(xs: tuple, ys: tuple) -> tuple:
    """{max(a, b)}, dually: the values of each set from the other's least on."""
    return _canonical(xs[bisect_left(xs, ys[0]) :] + ys[bisect_left(ys, xs[0]) :])


def _set_form(op):
    """op's set form on two hesitant components' sorted values: the sorted,
    distinct values of op over every pair.  The min/max kernels take the
    linear forms and the other unit kernels the Cartesian ones.  The offset
    row's clamping ops keep the pairwise map: each clamp warns once per
    pair, in pair order, which the benchmark's reference counts (ROADMAP
    items 15 and 21)."""
    if op is _min:
        return _meet_set
    if op is _max:
        return _join_set
    if op in _NUMERATORS:
        return _cartesian(op, _NUMERATORS[op])
    return _pairwise(op)


#: The rows of set forms that hesitant operands take, keyed as _OPERATORS.
_SET_FORMS = {
    key: {k: tuple(map(_set_form, row)) for k, row in rows.items()}
    for key, rows in _OPERATORS.items()
    if key[1] != "decorated"
}


def _check_shapes(x: NeutroTriple, y: NeutroTriple) -> None:
    if type(x.t) is not type(y.t):
        raise ShapeMismatch(f"operand shapes differ: {x.shape} vs {y.shape}")


def _row(cfg: OperatorConfig, x: NeutroTriple, is_conj: bool, bounds=None) -> tuple:
    """The (t_op, i_op, f_op) of one connective on operands of x's shape:
    "decorated" for nonstandard operands, else "unit" under the bounds
    psi = 0, omega = 1, and "offset" under widened bounds or none; set
    forms for hesitant operands, scalar ops for the other shapes."""
    if isinstance(x.t, Nonstandard):
        domain = "decorated"
    elif bounds is not None and bounds == UNIT_BOUNDS:
        domain = "unit"
    else:
        domain = "offset"
    rows = (_SET_FORMS if type(x.t) is Hesitant else _OPERATORS).get((cfg.tnorm, domain))
    if rows is None:
        raise UnsupportedNonstandardConfig("nonstandard operands support only the min/max kernel")
    return rows[cfg.family, is_conj]


#: Most value pairs that one hesitant operation computes.  Each conjunct of
#: a hesitant product multiplies the values of a component by about its own
#: count, so an unchecked chain grows without bound.
_MAX_PAIRS = 2**16


def _check_pairs(x: Hesitant, y: Hesitant, form) -> None:
    """Refuse form on the values of x and y past _MAX_PAIRS: m + n values
    for `_meet_set` and `_join_set`, m * n pairs for every other form."""
    m, n = len(x.values), len(y.values)
    if form is _meet_set or form is _join_set:
        if m + n > _MAX_PAIRS:
            raise NeutroCalcError(
                f"hesitant min/max of {m} and {n} values exceeds the limit of {_MAX_PAIRS} values"
            )
    elif m * n > _MAX_PAIRS:
        raise NeutroCalcError(
            f"hesitant product of {m} by {n} values exceeds the limit of {_MAX_PAIRS} pairs"
        )


def _step(x: NeutroTriple, y: NeutroTriple, row: tuple) -> NeutroTriple:
    """row applied to two same-shape triples, component by component.
    Hesitant operands are refused past the pair limit here alone, before
    any pair of any component is computed."""
    t_op, i_op, f_op = row
    if type(x.t) is Hesitant:
        for c, d, op in ((x.t, y.t, t_op), (x.i, y.i, i_op), (x.f, y.f, f_op)):
            _check_pairs(c, d, op)
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
