"""Triple-valued logic connectives over three t-norm kernels.

Conjunction always meets T and joins F; disjunction mirrors that.  The
families differ only in how indeterminacy travels (``_FAMILY_RULES``): I
follows T (t-aligned), follows F (f-aligned), or blends both (plithogenic).

The blend is the midpoint of meet and join; `_rows` states the identity
that lets the unit and decorated rows take it in one call per value
pair, and `_offset_ops` why the offset rows do not.

Each connective reads its operators from one table, `_TABLE`, built at
import and keyed by (component class, kernel, number domain).  The
domain is "unit" (the bare kernels) or "offset" (every operand clamped
into [0, 1] first, with a ClampWarning per clamp).  Degrees leave
[0, 1] only under widened bounds [psi, omega], and clamping a degree in
[0, 1] changes and warns nothing, so the domain follows from the bounds,
never from the values: unit under psi = 0, omega = 1, where admission
keeps every degree in [0, 1], and offset under widened bounds or none.
Every op of every row takes two components of one class and gives one of
that class.  `_KERNELS` declares each kernel's t-norm and t-conorm once,
each with its set form, which takes two hesitant components and gives
the set of its op's values over every pair.  The unit kernels' forms
compute on the components' integer forms, sorted numerators over one
denominator each: the Cartesian ones (product, Łukasiewicz, midpoint)
take every pair's numerator over the product of the two denominators,
with no common denominator, and the min/max meet and join bisect the
numerators over their lcm, reading no pair.  `_offset_ops` makes every
offset op: the clamping kernels, and the set forms that map the pairs'
Fractions with them.  The hesitant rows take the set forms as they are,
and three adapters lift the other ops: `_single` to single values,
`_interval` to interval endpoints, and `_decorated`, under the min/max
kernel only, to the one decorated number of a Nonstandard component.
`_decorated` admits its common case, one NsNumber and no bimonad in
each operand, by one test, and reads the operands for the refusal of
unions, interval members and bimonads only where that test fails.
`_row` is the one place that chooses the row, by one lookup.
`formula.evaluate` passes the request's bounds, and the public `conj`,
`disj` and `impl` none.  Both apply the row through `_step`.

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
from .monads import MonadKind, NsNumber, _number, _plain, _ratio, add_ns, max_ns, min_ns
from .triples import Hesitant, IntervalValued, NeutroTriple, Nonstandard, SingleValued, _reduced

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

    def __new__(cls, family=OperatorFamily.F_ALIGNED, tnorm=TNormFamily.MIN_MAX):
        _check_type("family", family, OperatorFamily)
        _check_type("tnorm", tnorm, TNormFamily)
        return cls._of(family, tnorm)


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


def tnorm(a, b, family: TNormFamily = TNormFamily.MIN_MAX) -> Fraction:
    """min(a, b) / ab / max(0, a + b - 1) on degrees in [0, 1]."""
    _check_type("family", family, TNormFamily)
    return _KERNELS[family][0][0](_number("a", a), _number("b", b))


def tconorm(a, b, family: TNormFamily = TNormFamily.MIN_MAX) -> Fraction:
    """max(a, b) / a + b - ab / min(1, a + b) on degrees in [0, 1]."""
    _check_type("family", family, TNormFamily)
    return _KERNELS[family][1][0](_number("a", a), _number("b", b))


def _clamped(v: Fraction) -> Fraction:
    """0 or 1 for a degree v outside [0, 1], with a ClampWarning at the line
    of the first caller outside this package, whatever path led here; the
    offset kernels call it only for such a degree."""
    try:
        shown = float(v)
    except OverflowError:
        shown = None
    if shown is None or 0 <= shown <= 1:
        # Beyond the float range, or rounded into [0, 1], where the float
        # would name a degree that needs no clamp: the exact decimal.
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


#: Each family's (T, I, F) rules for conjunction; disjunction swaps meet and join.
_FAMILY_RULES = {
    OperatorFamily.T_ALIGNED: ("meet", "meet", "join"),
    OperatorFamily.F_ALIGNED: ("meet", "join", "join"),
    OperatorFamily.PLITHOGENIC: ("meet", "blend", "join"),
}


# The adapters lift an op on degrees, or on decorated numbers, to two
# components of one class.  op is monotone in both arguments, as the
# kernels are, so an interval's image is the op of its endpoints.  Where
# op returns an operand's own degree (both endpoints for an interval), as
# min/max, min_ns/max_ns and a passing clamp do, the lifted op returns
# that operand itself, not a copy.
def _single(op):
    def apply(x: SingleValued, y: SingleValued) -> SingleValued:
        v = op(x.value, y.value)
        return x if v is x.value else y if v is y.value else SingleValued._of(v)

    return apply


def _interval(op):
    def apply(x: IntervalValued, y: IntervalValued) -> IntervalValued:
        lo, hi = op(x.lo, y.lo), op(x.hi, y.hi)
        if lo is x.lo and hi is x.hi:
            return x
        return y if lo is y.lo and hi is y.hi else IntervalValued._of(lo, hi)

    return apply


# Read on every decorated step: MonadKind.BIMONAD is a lookup on the Enum
# class, about 90 ns under Python 3.11, and a module name a dict read.
_BIMONAD = MonadKind.BIMONAD


def _decorated(op):
    """op on the one rankable number each operand holds.  The common case,
    one NsNumber and no bimonad in each, is one test; only where it fails
    are the operands read for a refusal: the left one first, and a union
    or an interval member before a bimonad.  op is called outside any
    try, so that its IncomparableOperands propagates."""

    def apply(x: Nonstandard, y: Nonstandard) -> Nonstandard:
        a, b = x.members[0], y.members[0]
        if not (
            type(a) is type(b) is NsNumber
            and len(x.members) == len(y.members) == 1
            and a.kind is not _BIMONAD
            and b.kind is not _BIMONAD
        ):  # an NsNumber subclass passes the refusals below
            for c in (x, y):
                if len(c.members) != 1 or not isinstance(c.members[0], NsNumber):
                    raise UnsupportedNonstandardConfig(
                        "connectives accept nonstandard components holding exactly one number"
                    )
                if c.members[0].kind is _BIMONAD:
                    raise UnsupportedNonstandardConfig("bimonad operands cannot be ranked by min/max")
        v = op(a, b)
        return x if v is a else y if v is b else Nonstandard._of((v,))

    return apply


def _rows(meet, join, blend) -> dict:
    """(t_op, i_op, f_op) per (family, is_conj); blend is the plithogenic I op.

    The blend is the midpoint of meet and join.  T(a, b) + S(a, b) = a + b
    under every kernel (min + max; ab + (a + b - ab); max(0, a + b - 1) +
    min(1, a + b)), so the unit rows blend with `_midpoint`.  The decorated
    rows blend with `_ns_midpoint`: `_decorated` admits only single L, S
    or R numbers, which min_ns and max_ns always rank, so {min, max} =
    {a, b}, and the decorated sum is symmetric.  The offset rows blend with
    both clamping kernels (`_offset_ops`).
    """
    return {
        (family, is_conj): tuple({"meet": m, "join": j, "blend": blend}[r] for r in rules)
        for family, rules in _FAMILY_RULES.items()
        for is_conj, (m, j) in ((True, (meet, join)), (False, (join, meet)))
    }


def _sums(x: Hesitant, y: Hesitant) -> set:
    """{p·e + q·d}: the numerators of p/d + q/e over d·e, for each value
    p/d of x and q/e of y."""
    d, e = x._den, y._den
    qd = [q * d for q in y._nums]
    return {s + t for s in [p * e for p in x._nums] for t in qd}


#: Bit length past which a denominator is long: `_products` then reads the
#: values over their own denominators, if those are short.
_LONG = 64


def _products(a, d: int, b, e: int) -> set:
    """{p·q}: the numerators over d·e of the products p/d · q/e, for each
    numerator p of a and q of b.

    A set over many distinct denominators keeps their lcm, so its
    numerators are as long as that lcm, and p·q multiplies two long
    integers.  Where d and e are both long but each q/e reduces to a
    short k/c, p·q = (p·e // c)·k: one long product per p, then one short
    division and one short product per pair, about 5 times faster on 256
    values over distinct 17-bit primes."""
    if d.bit_length() > _LONG and e.bit_length() > _LONG:
        ratios = [(q // g, e // g) for q in b for g in (math.gcd(q, e),)]
        if max([c for _, c in ratios]).bit_length() <= _LONG:
            return {(s // c) * k for s in [p * e for p in a] for k, c in ratios}
    return {p * q for p in a for q in b}


# The Cartesian set forms: the numerators of a unit kernel's result over
# d·e (2·d·e for the midpoint), from each value p/d of x and q/e of y.  No
# common denominator is needed, and equal values share a numerator.
def _product_set(x: Hesitant, y: Hesitant) -> Hesitant:
    d, e = x._den, y._den
    return _reduced(_products(x._nums, d, y._nums, e), d * e)


def _coproduct_set(x: Hesitant, y: Hesitant) -> Hesitant:
    """p/d + q/e - pq/de = 1 - (d - p)(e - q)/de: one product per pair."""
    d, e = x._den, y._den
    de, ce = d * e, [e - q for q in y._nums]
    return _reduced({de - n for n in _products([d - p for p in x._nums], d, ce, e)}, de)


def _luk_set(x: Hesitant, y: Hesitant) -> Hesitant:
    de = x._den * y._den
    return _reduced({n - de if n > de else 0 for n in _sums(x, y)}, de)


def _luk_coset(x: Hesitant, y: Hesitant) -> Hesitant:
    de = x._den * y._den
    return _reduced({n if n < de else de for n in _sums(x, y)}, de)


def _midpoint_set(x: Hesitant, y: Hesitant) -> Hesitant:
    return _reduced(_sums(x, y), 2 * x._den * y._den)


def _common(x: Hesitant, y: Hesitant) -> tuple:
    """The numerators of x and of y over the lcm of their denominators,
    and that lcm."""
    a, d, b, e = x._nums, x._den, y._nums, y._den
    if d == e:
        return a, b, d
    m = math.lcm(d, e)
    return [p * (m // d) for p in a], [q * (m // e) for q in b], m


def _meet_set(x: Hesitant, y: Hesitant) -> Hesitant:
    """{min(a, b)} = {a in A : a <= max B} | {b in B : b <= max A}: if
    a <= max B, then min(a, max B) = a, and each min(a, b) is such an a
    or such a b.  Two bisections on the numerators over a common
    denominator, and no pair."""
    a, b, m = _common(x, y)
    return _reduced({*a[: bisect_right(a, b[-1])], *b[: bisect_right(b, a[-1])]}, m)


def _join_set(x: Hesitant, y: Hesitant) -> Hesitant:
    """{max(a, b)}, dually: the values of each set from the other's least on."""
    a, b, m = _common(x, y)
    return _reduced({*a[bisect_left(a, b[0]) :], *b[bisect_left(b, a[0]) :]}, m)


#: Each kernel's t-norm and t-conorm, each declared once as a pair: the op
#: on two degrees, and its set form on two hesitant components, which gives
#: the sorted, distinct values of the op over every pair.  The min/max
#: kernel takes the linear forms and the others the Cartesian ones.
_KERNELS = {
    TNormFamily.MIN_MAX: ((_min, _meet_set), (_max, _join_set)),
    TNormFamily.PRODUCT: ((_product_tnorm, _product_set), (_product_tconorm, _coproduct_set)),
    TNormFamily.LUKASIEWICZ: ((_luk_tnorm, _luk_set), (_luk_tconorm, _luk_coset)),
}


def _offset_ops(tn, tc) -> tuple:
    """The offset (meet, join, blend) of one kernel, on degrees and on
    hesitant components, where each maps every pair in pair order.

    Each op clamps its operands into [0, 1] first.  The clamp tests each
    operand on its integer pair, and calls `_clamped`, looked up at call
    time, only for a degree outside [0, 1].  The kernel keeps the one copy
    of its formula and reads the pairs again: passing them in would cost
    the unit row, which needs no clamp, a call per kernel.  The blend
    applies both clamping kernels, so each clamps, and warns about, an
    out-of-range degree, and a set form warns once per pair, in pair
    order: the benchmark's reference expects those warnings (ROADMAP
    items 15 and 21)."""

    def clamping(kernel):
        def op(a: Fraction, b: Fraction) -> Fraction:
            (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
            if not 0 <= an <= ad:
                a = _clamped(a)
            if not 0 <= bn <= bd:
                b = _clamped(b)
            return kernel(a, b)

        return op

    def pairwise(op):
        def form(x: Hesitant, y: Hesitant) -> Hesitant:
            return Hesitant._of([op(u, v) for u in x.values for v in y.values])

        return form

    meet, join = clamping(tn), clamping(tc)

    def blend(a: Fraction, b: Fraction) -> Fraction:
        return _midpoint(meet(a, b), join(a, b))

    return (meet, join, blend), (pairwise(meet), pairwise(join), pairwise(blend))


#: The one operator table: (component class, kernel, domain) -> rows.  Each
#: domain gives a kernel's (meet, join, blend) on degrees, which the
#: single and interval rows lift, and on hesitant components; the unit
#: ones are the declared ops and blend with `_midpoint` or `_midpoint_set`.
_TABLE = {
    (shape, kernel, domain): _rows(*shaped)
    for kernel, ((tn, tn_set), (tc, tc_set)) in _KERNELS.items()
    for domain, (ops, set_ops) in (
        ("unit", ((tn, tc, _midpoint), (tn_set, tc_set, _midpoint_set))),
        ("offset", _offset_ops(tn, tc)),
    )
    for shape, shaped in (
        (SingleValued, map(_single, ops)),
        (IntervalValued, map(_interval, ops)),
        (Hesitant, set_ops),
    )
}
# Only min/max ranks decorated numbers, and it never clamps them.  min_ns
# and max_ns are looked up at call time, as the clamping ops of
# `_offset_ops` look up _clamped, so that wrappers set on this module
# after import (a tracer's spans) see every call.
_DECORATED = _rows(
    *map(_decorated, (lambda a, b: min_ns(a, b), lambda a, b: max_ns(a, b), _ns_midpoint))
)
_TABLE.update({(Nonstandard, TNormFamily.MIN_MAX, d): _DECORATED for d in ("unit", "offset")})


def _check_shapes(x: NeutroTriple, y: NeutroTriple) -> None:
    if type(x.t) is not type(y.t):
        raise ShapeMismatch(f"operand shapes differ: {x.shape} vs {y.shape}")


def _row(cfg: OperatorConfig, x: NeutroTriple, is_conj: bool, bounds=None) -> tuple:
    """The (t_op, i_op, f_op) of one connective on operands of x's shape:
    "unit" under the bounds psi = 0, omega = 1, and "offset" under widened
    bounds or none.  `OffsetBounds` keeps psi <= 0 < 1 <= omega, so the
    numerators decide unit bounds: psi's is 0 and omega's is 1.  They are
    read through the public `numerator`, which costs about half of
    Fraction's `==`; only `monads._ratio` touches Fraction's own slots."""
    unit = bounds is not None and not bounds.psi.numerator and bounds.omega.numerator == 1
    rows = _TABLE.get((type(x.t), cfg.tnorm, "unit" if unit else "offset"))
    if rows is None:
        if type(x.t) is Nonstandard:
            raise UnsupportedNonstandardConfig("nonstandard operands support only the min/max kernel")
        # No fallback to a base class: `_step` tests `type(x.t) is Hesitant`
        # before it admits a hesitant step.
        raise TypeError(f"connectives take no components of class {type(x.t).__name__}")
    return rows[cfg.family, is_conj]


#: Most value pairs that one hesitant operation computes.  Each conjunct of
#: a hesitant product multiplies the values of a component by about its own
#: count, so an unchecked chain grows without bound.
_MAX_PAIRS = 2**16


def _check_pairs(x: Hesitant, y: Hesitant, form) -> None:
    """Refuse form on the values of x and y past _MAX_PAIRS: m + n values
    for `_meet_set` and `_join_set`, m * n pairs for every other form."""
    m, n = len(x._nums), len(y._nums)
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
    # Spelled out rather than looped, for speed; each op returns its
    # operands' class, so the shapes still agree.
    return NeutroTriple._of(t_op(x.t, y.t), i_op(x.i, y.i), f_op(x.f, y.f))


def _combine(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig, is_conj: bool) -> NeutroTriple:
    _check_type("x", x, NeutroTriple)
    _check_type("y", y, NeutroTriple)
    _check_type("cfg", cfg, OperatorConfig)
    _check_shapes(x, y)
    return _step(x, y, _row(cfg, x, is_conj))
