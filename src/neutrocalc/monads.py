"""Monad-decorated numbers and the six-valued neutrosophic order.

A nonstandard neutrosophic value is a real number `a` decorated with the
part of the monad of `a` it stands for:

* ``Std``      -- the real number a itself
* ``Left``     -- the left monad, all hyperreals a - eps for infinitesimal eps > 0
* ``Right``    -- the right monad, all hyperreals a + eps
* ``Bimonad``  -- the pierced two-sided monad, left and right together
                  (the point a itself excluded)

No infinite quantity is representable; values are exact rationals.

Comparison is six-valued.  Distinct underlying values order the operands
strictly no matter the decorations, because every infinitesimal is smaller
than any real gap.  At equal values the decorations decide:

====== ====== =========================
x      y      compare_ns(x, y)
====== ====== =========================
same   same   EqN
Left   Std    LtN
Left   Right  LtN
Std    Right  LtN
Left   Bimonad  LeN   (x is the lower half of y; only non-strict)
Bimonad Right   LeN   (y continues above x; only non-strict)
Std    Bimonad  Incomparable  (y straddles x on both sides)
====== ====== =========================

with the mirror relation for the transposed pairs.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .errors import IncomparableOperands

__all__ = [
    "MonadKind",
    "OrderRelation",
    "NsNumber",
    "as_fraction",
    "std",
    "left",
    "right",
    "bimonad",
    "compare_ns",
    "equal_ns",
    "infinitely_close",
    "roughly_leq",
    "min_ns",
    "max_ns",
    "add_ns",
]

# The exponent of e-notation, as Fraction's grammar and str(Decimal) spell it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def as_fraction(value) -> Fraction:
    """Coerce a numeric input to an exact Fraction.

    Floats go through their shortest decimal repr, so as_fraction(0.2)
    is exactly 1/5 rather than the binary approximation.  A str or Decimal
    exponent past sys.get_int_max_str_digits() raises ValueError, not a hang.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a numeric value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("value must be finite")
        return Fraction(Decimal(repr(value)))
    if isinstance(value, (str, Decimal)):
        exponent, limit = _EXPONENT.search(str(value)), sys.get_int_max_str_digits()
        # The length test keeps int() itself within the limit.
        if exponent and limit and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
            raise ValueError(f"exponent of {value!r} exceeds {limit} in magnitude")
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact number")


class MonadKind(Enum):
    STD = "std"
    LEFT = "left"
    RIGHT = "right"
    BIMONAD = "bimonad"


class OrderRelation(Enum):
    """Outcome of a neutrosophic comparison; value doubles as display symbol."""

    LT_N = "<N"
    LE_N = "≤N"
    EQ_N = "=N"
    GE_N = "≥N"
    GT_N = ">N"
    INCOMPARABLE = "incomparable"

    def mirror(self) -> "OrderRelation":
        """The relation seen from the swapped operand order."""
        return _MIRROR[self]


_MIRROR = {
    OrderRelation.LT_N: OrderRelation.GT_N,
    OrderRelation.GT_N: OrderRelation.LT_N,
    OrderRelation.LE_N: OrderRelation.GE_N,
    OrderRelation.GE_N: OrderRelation.LE_N,
    OrderRelation.EQ_N: OrderRelation.EQ_N,
    OrderRelation.INCOMPARABLE: OrderRelation.INCOMPARABLE,
}


@dataclass(frozen=True)
class NsNumber:
    """An exact value decorated with the monad part it denotes."""

    value: Fraction
    kind: MonadKind = MonadKind.STD

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))
        if not isinstance(self.kind, MonadKind):
            raise TypeError("kind must be a MonadKind")

    def __str__(self) -> str:
        text = _plain(self.value)
        if self.kind is MonadKind.STD:
            return text
        return f"{_NOTATION[self.kind]}({text})"

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "value": float(self.value)}


_NOTATION = {MonadKind.LEFT: "L", MonadKind.RIGHT: "R", MonadKind.BIMONAD: "B"}


def _plain(q: Fraction, digits=str) -> str:
    """Render a Fraction as its exact decimal when one exists."""
    num, den = q.numerator, q.denominator
    try:
        if den == 1:
            return digits(num)
        d, e2, e5 = den, 0, 0
        while d % 2 == 0:
            d //= 2
            e2 += 1
        while d % 5 == 0:
            d //= 5
            e5 += 1
        if d != 1:
            return f"{digits(num)}/{digits(den)}"
        k = max(e2, e5)
        text = digits(abs(num) * (10**k // den)).rjust(k + 1, "0")
    except ValueError:
        # str() refuses integers past sys.get_int_max_str_digits();
        # Decimal converts them exactly.
        return _plain(q, lambda n: str(Decimal(n)))
    sign = "-" if num < 0 else ""
    return f"{sign}{text[:-k]}.{text[-k:]}"


def std(value) -> NsNumber:
    return NsNumber(as_fraction(value), MonadKind.STD)


def left(value) -> NsNumber:
    return NsNumber(as_fraction(value), MonadKind.LEFT)


def right(value) -> NsNumber:
    return NsNumber(as_fraction(value), MonadKind.RIGHT)


def bimonad(value) -> NsNumber:
    return NsNumber(as_fraction(value), MonadKind.BIMONAD)


# Relations for equal underlying values, keyed by (x.kind, y.kind).
# Only one orientation is stored; the other is answered via mirror().
_EQUAL_VALUE = {
    (MonadKind.LEFT, MonadKind.STD): OrderRelation.LT_N,
    (MonadKind.LEFT, MonadKind.RIGHT): OrderRelation.LT_N,
    (MonadKind.STD, MonadKind.RIGHT): OrderRelation.LT_N,
    (MonadKind.LEFT, MonadKind.BIMONAD): OrderRelation.LE_N,
    (MonadKind.BIMONAD, MonadKind.RIGHT): OrderRelation.LE_N,
    (MonadKind.STD, MonadKind.BIMONAD): OrderRelation.INCOMPARABLE,
}


def compare_ns(x: NsNumber, y: NsNumber) -> OrderRelation:
    """Six-valued comparison of two monad-decorated numbers.

    Values decide first: x.value < y.value gives LtN regardless of kinds.
    At equal values the kind table above applies; same kind is EqN.
    """
    if x.value < y.value:
        return OrderRelation.LT_N
    if x.value > y.value:
        return OrderRelation.GT_N
    if x.kind is y.kind:
        return OrderRelation.EQ_N
    rel = _EQUAL_VALUE.get((x.kind, y.kind))
    if rel is not None:
        return rel
    return _EQUAL_VALUE[(y.kind, x.kind)].mirror()


def equal_ns(x: NsNumber, y: NsNumber) -> bool:
    """Identity of both value and decoration."""
    return x.value == y.value and x.kind is y.kind


def infinitely_close(x: NsNumber, y: NsNumber) -> bool:
    """True when x and y differ by at most an infinitesimal.

    Every decoration of the same value collapses into one equivalence
    class; distinct real values never do.
    """
    return x.value == y.value


def roughly_leq(x: NsNumber, y: NsNumber) -> bool:
    """Rough order: x below y, or indistinguishable from it.

    A total preorder; it cannot see decorations at all.
    """
    return x.value < y.value or infinitely_close(x, y)


_AT_MOST = frozenset({OrderRelation.LT_N, OrderRelation.LE_N, OrderRelation.EQ_N})
_AT_LEAST = frozenset({OrderRelation.GT_N, OrderRelation.GE_N, OrderRelation.EQ_N})


def min_ns(x: NsNumber, y: NsNumber) -> NsNumber:
    """The ≤N-smaller operand; raises IncomparableOperands when neither ranks."""
    rel = compare_ns(x, y)
    if rel is OrderRelation.INCOMPARABLE:
        raise IncomparableOperands(f"{x} and {y} admit no neutrosophic order")
    return x if rel in _AT_MOST else y


def max_ns(x: NsNumber, y: NsNumber) -> NsNumber:
    """The ≤N-larger operand; raises IncomparableOperands when neither ranks."""
    rel = compare_ns(x, y)
    if rel is OrderRelation.INCOMPARABLE:
        raise IncomparableOperands(f"{x} and {y} admit no neutrosophic order")
    return x if rel in _AT_LEAST else y


def _add_kinds(a: MonadKind, b: MonadKind) -> MonadKind:
    # Std is neutral; equal one-sided kinds keep their side; any mix of
    # opposite sides (or a bimonad operand) spreads to both sides.
    if a is MonadKind.STD:
        return b
    if b is MonadKind.STD:
        return a
    if a is b:
        return a
    return MonadKind.BIMONAD


def add_ns(x: NsNumber, y: NsNumber) -> NsNumber:
    """Sum of decorated numbers: values add, decorations combine."""
    return NsNumber(x.value + y.value, _add_kinds(x.kind, y.kind))
