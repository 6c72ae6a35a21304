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
from .monads import NsNumber, add_ns, as_fraction, max_ns, min_ns
from .triples import NeutroTriple, Nonstandard

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
# skip the ABC checks of Fraction comparison and arithmetic.  Each reads
# an operand's pair once: numerator and denominator are properties.
def _min(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return a if an * bd <= bn * ad else b


def _max(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return b if bn * ad > an * bd else a


def _product_tnorm(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return Fraction(an * bn, ad * bd)


def _product_tconorm(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return Fraction(an * bd + bn * ad - an * bn, ad * bd)


def _luk_tnorm(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    d = ad * bd
    n = an * bd + bn * ad - d
    return Fraction(n, d) if n > 0 else _ZERO


def _luk_tconorm(a: Fraction, b: Fraction) -> Fraction:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    d = ad * bd
    n = an * bd + bn * ad
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


def _clamped(v: Fraction) -> Fraction:
    n, d = v.as_integer_ratio()
    if not 0 <= n <= d:
        warnings.warn(
            f"degree {float(v)} clamped into [0, 1] for kernel application",
            ClampWarning,
            stacklevel=4,
        )
        return _ZERO if n < 0 else _ONE
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


def _family_ops(family: OperatorFamily, meet, join, midpoint, is_conj: bool):
    """(t_op, i_op, f_op): I follows T, follows F, or blends both as the
    midpoint of meet and join."""
    t_op, f_op = (meet, join) if is_conj else (join, meet)

    def blend(a, b):
        return midpoint(meet(a, b), join(a, b))

    i_op = {OperatorFamily.T_ALIGNED: t_op, OperatorFamily.F_ALIGNED: f_op}.get(family, blend)
    return t_op, i_op, f_op


def _midpoint(a: Fraction, b: Fraction) -> Fraction:
    """(a + b) / 2 on integer cross-products."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return Fraction(an * bd + bn * ad, 2 * ad * bd)


def _ns_midpoint(a: NsNumber, b: NsNumber) -> NsNumber:
    """(a + b) / 2; halving moves no decoration."""
    total = add_ns(a, b)
    return NsNumber(total.value / 2, total.kind)


def _kernel_ops(kernel: TNormFamily):
    """(meet, join) clamping each operand, then the bare kernels for
    operands already known to lie in [0, 1]."""
    tn, tc = _KERNELS[kernel]

    def meet(a, b):
        return tn(_clamped(a), _clamped(b))

    def join(a, b):
        return tc(_clamped(a), _clamped(b))

    return (meet, join), (tn, tc)


#: For every (family, kernel, is_conj), built once: the clamping
#: (t_op, i_op, f_op) triple and the bare one.
_OPERATORS = {
    (family, kernel, is_conj): tuple(
        _family_ops(family, *ops, _midpoint, is_conj) for ops in _kernel_ops(kernel)
    )
    for family in OperatorFamily
    for kernel in TNormFamily
    for is_conj in (True, False)
}


#: For every (family, is_conj), built once: the (t_op, i_op, f_op) triple
#: over decorated numbers, which only the min/max kernel ranks.
_NS_OPERATORS = {
    (family, is_conj): _family_ops(family, min_ns, max_ns, _ns_midpoint, is_conj)
    for family in OperatorFamily
    for is_conj in (True, False)
}


def _combine(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig, is_conj: bool) -> NeutroTriple:
    if type(x.t) is not type(y.t):
        raise ShapeMismatch(f"operand shapes differ: {x.shape} vs {y.shape}")
    if isinstance(x.t, Nonstandard):
        if cfg.tnorm is not TNormFamily.MIN_MAX:
            raise UnsupportedNonstandardConfig(
                "nonstandard operands support only the min/max kernel"
            )
        ops = bare = _NS_OPERATORS[cfg.family, is_conj]
    else:
        ops, bare = _OPERATORS[cfg.family, cfg.tnorm, is_conj]
    return NeutroTriple(
        t=x.t.apply(y.t, ops[0], bare[0]),
        i=x.i.apply(y.i, ops[1], bare[1]),
        f=x.f.apply(y.f, ops[2], bare[2]),
    )
