"""Triple-valued logic connectives over three t-norm kernels.

Conjunction always meets T and joins F; disjunction mirrors that.  The
families differ only in how indeterminacy travels:

* t-aligned:  I follows the T column
* f-aligned:  I follows the F column
* plithogenic: I is the even blend of both directions

Negation swaps T and F and implication is definitionally
disj(neg(x), y), in the same family.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ShapeMismatch, UnsupportedNonstandardConfig
from .monads import MonadKind, NsNumber, add_ns, as_fraction, max_ns, min_ns
from .triples import (
    Hesitant,
    IntervalValued,
    NeutroTriple,
    Nonstandard,
    SingleValued,
)

__all__ = [
    "TNormFamily",
    "OperatorFamily",
    "OperatorConfig",
    "DEFAULT_CONFIG",
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


class OperatorFamily(Enum):
    T_ALIGNED = "ti"
    F_ALIGNED = "if"
    PLITHOGENIC = "plith"


@dataclass(frozen=True)
class OperatorConfig:
    family: OperatorFamily = OperatorFamily.F_ALIGNED
    tnorm: TNormFamily = TNormFamily.MIN_MAX

    def __post_init__(self):
        _check_enum("family", self.family, OperatorFamily)
        _check_enum("tnorm", self.tnorm, TNormFamily)


def _check_enum(field: str, value, enum: type) -> None:
    if not isinstance(value, enum):
        raise TypeError(f"{field} must be a {enum.__name__}, got {value!r}")


DEFAULT_CONFIG = OperatorConfig()


class ClampWarning(UserWarning):
    """An offset degree was clamped into [0, 1] for kernel application."""


# Kernels on integer cross-products (denominators are positive), which
# skip the ABC checks of Fraction comparison and arithmetic.
def _min(a: Fraction, b: Fraction) -> Fraction:
    return a if a.numerator * b.denominator <= b.numerator * a.denominator else b


def _max(a: Fraction, b: Fraction) -> Fraction:
    return b if b.numerator * a.denominator > a.numerator * b.denominator else a


def _product_tnorm(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(a.numerator * b.numerator, a.denominator * b.denominator)


def _product_tconorm(a: Fraction, b: Fraction) -> Fraction:
    n = a.numerator * b.denominator + b.numerator * a.denominator - a.numerator * b.numerator
    return Fraction(n, a.denominator * b.denominator)


def _luk_tnorm(a: Fraction, b: Fraction) -> Fraction:
    d = a.denominator * b.denominator
    n = a.numerator * b.denominator + b.numerator * a.denominator - d
    return Fraction(n, d) if n > 0 else _ZERO


def _luk_tconorm(a: Fraction, b: Fraction) -> Fraction:
    d = a.denominator * b.denominator
    n = a.numerator * b.denominator + b.numerator * a.denominator
    return Fraction(n, d) if n < d else _ONE


_KERNELS = {
    TNormFamily.MIN_MAX: (_min, _max),
    TNormFamily.PRODUCT: (_product_tnorm, _product_tconorm),
    TNormFamily.LUKASIEWICZ: (_luk_tnorm, _luk_tconorm),
}


def tnorm(a, b, family: TNormFamily = TNormFamily.MIN_MAX) -> Fraction:
    """min(a, b) / ab / max(0, a + b - 1) on degrees in [0, 1]."""
    _check_enum("family", family, TNormFamily)
    return _KERNELS[family][0](as_fraction(a), as_fraction(b))


def tconorm(a, b, family: TNormFamily = TNormFamily.MIN_MAX) -> Fraction:
    """max(a, b) / a + b - ab / min(1, a + b) on degrees in [0, 1]."""
    _check_enum("family", family, TNormFamily)
    return _KERNELS[family][1](as_fraction(a), as_fraction(b))


def _in_unit(v: Fraction) -> bool:
    return 0 <= v.numerator <= v.denominator


def _clamped(v: Fraction) -> Fraction:
    # The _in_unit test written out: this runs for every kernel operand.
    if not 0 <= v.numerator <= v.denominator:
        warnings.warn(
            f"degree {float(v)} clamped into [0, 1] for kernel application",
            ClampWarning,
            stacklevel=4,
        )
        return _ZERO if v.numerator < 0 else _ONE
    return v


def neg(x: NeutroTriple) -> NeutroTriple:
    """Swap truth and falsity; indeterminacy stays put.  Any shape."""
    return NeutroTriple(t=x.f, i=x.i, f=x.t)


def conj(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig = DEFAULT_CONFIG) -> NeutroTriple:
    return _combine(x, y, cfg, is_conj=True)


def disj(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig = DEFAULT_CONFIG) -> NeutroTriple:
    return _combine(x, y, cfg, is_conj=False)


def impl(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig = DEFAULT_CONFIG) -> NeutroTriple:
    """x -> y as disj(neg(x), y) in the same family."""
    return disj(neg(x), y, cfg)


def _family_ops(family: OperatorFamily, meet, join, blend, is_conj: bool):
    """(t_op, i_op, f_op): I follows T, follows F, or blends both."""
    t_op, f_op = (meet, join) if is_conj else (join, meet)
    i_op = {OperatorFamily.T_ALIGNED: t_op, OperatorFamily.F_ALIGNED: f_op}.get(family, blend)
    return t_op, i_op, f_op


def _midpoint(a: Fraction, b: Fraction) -> Fraction:
    """(a + b) / 2 on integer cross-products."""
    return Fraction(
        a.numerator * b.denominator + b.numerator * a.denominator, 2 * a.denominator * b.denominator
    )


def _kernel_ops(kernel: TNormFamily):
    """(meet, join, blend) clamping each operand, then the bare kernels
    for operands already known to lie in [0, 1]."""
    tn, tc = _KERNELS[kernel]

    def meet(a, b):
        return tn(_clamped(a), _clamped(b))

    def join(a, b):
        return tc(_clamped(a), _clamped(b))

    def blend(a, b):
        return _midpoint(meet(a, b), join(a, b))

    def bare_blend(a, b):
        return _midpoint(tn(a, b), tc(a, b))

    return (meet, join, blend), (tn, tc, bare_blend)


#: For every (family, kernel, is_conj), built once: the clamping
#: (t_op, i_op, f_op) triple and the bare one.
_OPERATORS = {
    (family, kernel, is_conj): tuple(
        _family_ops(family, *ops, is_conj) for ops in _kernel_ops(kernel)
    )
    for family in OperatorFamily
    for kernel in TNormFamily
    for is_conj in (True, False)
}


def _combine(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig, is_conj: bool) -> NeutroTriple:
    if type(x.t) is not type(y.t):
        raise ShapeMismatch(f"operand shapes differ: {x.shape} vs {y.shape}")
    if isinstance(x.t, Nonstandard):
        return _combine_nonstandard(x, y, cfg, is_conj)
    (t_op, i_op, f_op), (t_bare, i_bare, f_bare) = _OPERATORS[cfg.family, cfg.tnorm, is_conj]
    return NeutroTriple(
        t=_map2(t_op, t_bare, x.t, y.t),
        i=_map2(i_op, i_bare, x.i, y.i),
        f=_map2(f_op, f_bare, x.f, y.f),
    )


def _map2(op, bare, cx, cy):
    """Apply op to the component values; bare (op without the clamp) to a
    hesitant product whose operand values all lie in [0, 1]."""
    if isinstance(cx, SingleValued):
        return SingleValued(op(cx.value, cy.value))
    if isinstance(cx, IntervalValued):
        # Kernels are monotone in both arguments, so endpointwise
        # application yields the exact image interval.
        return IntervalValued(op(cx.lo, cy.lo), op(cx.hi, cy.hi))
    xs, ys = cx.values, cy.values
    # Hesitant values are sorted, so the extremes decide for all of them.
    if _in_unit(xs[0]) and _in_unit(xs[-1]) and _in_unit(ys[0]) and _in_unit(ys[-1]):
        return Hesitant(bare(u, v) for u in xs for v in ys)
    return Hesitant(op(u, v) for u in xs for v in ys)


def _ns_operand(c: Nonstandard) -> NsNumber:
    if len(c.members) != 1 or not isinstance(c.members[0], NsNumber):
        raise UnsupportedNonstandardConfig(
            "connectives accept nonstandard components holding exactly one number"
        )
    n = c.members[0]
    if n.kind is MonadKind.BIMONAD:
        raise UnsupportedNonstandardConfig("bimonad operands cannot be ranked by min/max")
    return n


def _ns_half(n: NsNumber) -> NsNumber:
    return NsNumber(n.value / 2, n.kind)


def _combine_nonstandard(
    x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig, is_conj: bool
) -> NeutroTriple:
    if cfg.tnorm is not TNormFamily.MIN_MAX:
        raise UnsupportedNonstandardConfig(
            "nonstandard operands support only the min/max kernel"
        )

    def blend(a, b):
        return add_ns(_ns_half(min_ns(a, b)), _ns_half(max_ns(a, b)))

    t_op, i_op, f_op = _family_ops(cfg.family, min_ns, max_ns, blend, is_conj)
    pairs = [(x.t, y.t, t_op), (x.i, y.i, i_op), (x.f, y.f, f_op)]
    t, i, f = (Nonstandard(op(_ns_operand(cx), _ns_operand(cy))) for cx, cy, op in pairs)
    return NeutroTriple(t=t, i=i, f=f)
