"""Monad-decorated numbers and the six-valued neutrosophic order.

A nonstandard neutrosophic value is a real number `a` decorated with the
part of the monad of `a` it stands for:

* ``Std``      -- the real number a itself
* ``Left``     -- the left monad, all hyperreals a - eps for infinitesimal eps > 0
* ``Right``    -- the right monad, all hyperreals a + eps
* ``Bimonad``  -- the pierced two-sided monad, left and right together
                  (the point a itself excluded)

No infinite quantity is representable; values are exact rationals.

Each decoration is the set of sides of `a` it occupies (``_SIDES``):
Std {at}, Left {below}, Right {above}, Bimonad {below, above}.  Everything
else about decorations is derived from those sets.

Comparison is six-valued.  Distinct underlying values order the operands
strictly no matter the decorations, because every infinitesimal is smaller
than any real gap; `compare_ns` decides them on the integer cross-products
of the values' (numerator, denominator) pairs, as the numeric kernels of
`connectives` do.  At equal values the side sets decide: equal sets are
EqN, a set wholly below the other is LtN, a set whose least and greatest
sides are both at or below the other's is LeN (Left against Bimonad,
Bimonad against Right), the mirror cases are GtN and GeN, and anything
else is incomparable (Std against Bimonad, which straddles it).
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .errors import IncomparableOperands, _check_type, _Frozen

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
# The one spelling of an unsigned numeral, which matches a digit run in one
# way only.  \d is any Unicode decimal digit, as int() reads it, so "٠.٥"
# is 0.5: a deliberate reading, which the tests pin.
_NUMERAL = r"(?:\d+(?:\.\d*)?|\.\d+)"
# A plain decimal: sign, numeral, optional exponent.
_DECIMAL = re.compile(
    rf"\s*(?P<numeral>[-+]?{_NUMERAL})(?:[eE](?P<exponent>[-+]?\d+))?\s*\Z"
)

_new = object.__new__


def _ratio(n: int, d: int) -> Fraction:
    """The Fraction n/d, normalised, built without Fraction.__new__.

    Trusted: n and d are ints and d > 0.  Dividing both by their gcd is
    the normalisation Fraction(n, d) does; the type dispatch around it,
    most of that constructor's cost, is skipped.  This is the one place
    that relies on Fraction's layout, the two slots _numerator and
    _denominator, as CPython's own Fraction._from_coprime_ints does;
    tests/test_monads.py::TestRatio::test_fraction_layout_is_pinned
    fails on a Python that changes it.
    """
    g = math.gcd(n, d)
    q = _new(Fraction)
    q._numerator = n // g
    q._denominator = d // g
    return q


# Numeral text -> its Fraction, for reads without an exponent.  Degrees are
# short decimals that recur, so most reads are a dict lookup.
_MEMO: dict[str, Fraction] = {}
_MEMO_CAP = 4096  # entries; the memo stores nothing more once it is full
_MEMO_WIDTH = 20  # characters; a longer numeral is read, never stored


def _read_decimal(numeral: str, exponent: int = 0) -> Fraction:
    """numeral * 10**exponent, exactly; numeral is an optional sign, digits
    and an optional point, as _DECIMAL's numeral group spells it.  The one
    reader of decimal text: the formula lexer's numbers and as_fraction's
    strings, Decimals and float reprs.

    A read without an exponent goes through `_MEMO`, which stores
    numerals of at most `_MEMO_WIDTH` characters until it holds
    `_MEMO_CAP` entries and then stops, so hostile input cannot pin
    memory.  Callers share the stored values, which is safe because a
    Fraction is immutable and no code relies on its identity.  Threads
    share the memo without a lock: each dict operation is atomic, and a
    lost or doubled insert stores the same value, so racing inserts can
    overshoot the cap by at most one entry per thread.
    """
    q = None if exponent else _MEMO.get(numeral)
    if q is None:
        whole, _, frac = numeral.partition(".")
        shift = len(frac) - exponent
        try:
            n = int(whole + frac)
        except ValueError:  # more digits than int() reads at once
            n = _long_int(whole + frac)
        q = _ratio(n * 10**-shift, 1) if shift < 0 else _ratio(n, 10**shift)
        if not exponent and len(numeral) <= _MEMO_WIDTH and len(_MEMO) < _MEMO_CAP:
            _MEMO[numeral] = q
    return q


def _long_int(run: str) -> int:
    """int(run) for an optionally signed digit run of any length.

    int() refuses runs past sys.get_int_max_str_digits(), so a longer run
    is read in halves, joined as hi * 10**k + lo: sub-quadratic, where
    converting through Decimal is quadratic in the length.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or len(run) <= limit:
        return int(run)
    digits = run.lstrip("+-")
    k = len(digits) // 2
    n = _long_int(digits[:-k]) * 10**k + _long_int(digits[-k:])
    return -n if run.startswith("-") else n


def as_fraction(value) -> Fraction:
    """Coerce a numeric input to an exact Fraction.

    Floats go through their shortest decimal repr, so as_fraction(0.2)
    is exactly 1/5 rather than the binary approximation.  A str or Decimal
    exponent past sys.get_int_max_str_digits() raises ValueError, not a hang;
    a plain decimal with more digits than that converts exactly.
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
        value = repr(value)
    if isinstance(value, Decimal) and not value.is_finite():
        raise ValueError("value must be finite")
    if isinstance(value, (str, Decimal)):
        text = str(value)
        exponent, limit = _EXPONENT.search(text), sys.get_int_max_str_digits()
        # The length test keeps int() itself within the limit.
        if exponent and limit and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
            raise ValueError(f"exponent of {value!r} exceeds {limit} in magnitude")
        decimal = _DECIMAL.match(text)
        if decimal:
            return _read_decimal(decimal["numeral"], int(decimal["exponent"] or 0))
        return Fraction(value)  # a ratio "n/d", digits with underscores, or not a number
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact number")


class MonadKind(Enum):
    STD = "std"
    LEFT = "left"
    RIGHT = "right"
    BIMONAD = "bimonad"

    # Members are singletons that compare by identity, so they may hash by
    # it: Enum.__hash__ hashes the name in Python on every table lookup.
    __hash__ = object.__hash__


class OrderRelation(Enum):
    """Outcome of a neutrosophic comparison; value doubles as display symbol."""

    LT_N = "<N"
    LE_N = "≤N"
    EQ_N = "=N"
    GE_N = "≥N"
    GT_N = ">N"
    INCOMPARABLE = "incomparable"

    __hash__ = object.__hash__  # as MonadKind's

    def mirror(self) -> "OrderRelation":
        """The relation seen from the swapped operand order."""
        return _MIRROR[self]


class NsNumber(_Frozen):
    """An exact value decorated with the monad part it denotes."""

    __slots__ = __match_args__ = ("value", "kind")

    def __init__(self, value: Fraction, kind: MonadKind = MonadKind.STD):
        object.__setattr__(self, "value", as_fraction(value))
        if not isinstance(kind, MonadKind):
            raise TypeError("kind must be a MonadKind")
        object.__setattr__(self, "kind", kind)

    @classmethod
    def _of(cls, value: Fraction, kind: MonadKind) -> "NsNumber":
        """Trusted: value is an exact Fraction and kind a MonadKind, the
        checks __init__ makes; for values the library built itself."""
        self = _new(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "kind", kind)
        return self

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


#: The one hand-written fact about decorations: the sides of its value
#: each occupies, sorted (-1 below, 0 at, 1 above).
_SIDES = {
    MonadKind.STD: (0,),
    MonadKind.LEFT: (-1,),
    MonadKind.RIGHT: (1,),
    MonadKind.BIMONAD: (-1, 1),
}


def _side_order(a: tuple, b: tuple) -> OrderRelation:
    """Side set a against side set b at one value; see the module docstring."""
    if a == b:
        return OrderRelation.EQ_N
    if a[-1] < b[0]:
        return OrderRelation.LT_N
    if b[-1] < a[0]:
        return OrderRelation.GT_N
    if a[0] <= b[0] and a[-1] <= b[-1]:
        return OrderRelation.LE_N
    if b[0] <= a[0] and b[-1] <= a[-1]:
        return OrderRelation.GE_N
    return OrderRelation.INCOMPARABLE


_PAIRS = [(kx, a, ky, b) for kx, a in _SIDES.items() for ky, b in _SIDES.items()]
#: (x.kind, y.kind) -> compare_ns(x, y) at equal values.
_AT_VALUE = {(kx, ky): _side_order(a, b) for kx, a, ky, b in _PAIRS}
_MIRROR = {rel: _AT_VALUE[k, j] for (j, k), rel in _AT_VALUE.items()}
#: (x.kind, y.kind) -> add_ns(x, y).kind: the sides off the point that either
#: operand occupies, else the point.  So L + R gives the pierced B, though the
#: sum itself is reachable (ROADMAP item 3).
_KIND_OF = {sides: kind for kind, sides in _SIDES.items()}
_SUM = {(kx, ky): _KIND_OF[tuple(sorted(set(a + b) - {0})) or (0,)] for kx, a, ky, b in _PAIRS}


def compare_ns(x: NsNumber, y: NsNumber) -> OrderRelation:
    """Six-valued comparison of two monad-decorated numbers.

    Values decide first: x.value < y.value gives LtN regardless of kinds.
    At equal values the side sets of the kinds decide (``_AT_VALUE``).
    """
    try:
        (xn, xd), (yn, yd) = x.value.as_integer_ratio(), y.value.as_integer_ratio()
        a, b = xn * yd, yn * xd
        if a < b:
            return OrderRelation.LT_N
        if a > b:
            return OrderRelation.GT_N
        return _AT_VALUE[x.kind, y.kind]
    except AttributeError:  # checked only here, off the path that succeeds
        _check_operands(x, y)
        raise


def _check_operands(x, y) -> None:
    _check_type("x", x, NsNumber)
    _check_type("y", y, NsNumber)


def equal_ns(x: NsNumber, y: NsNumber) -> bool:
    """Identity of both value and decoration."""
    _check_operands(x, y)
    return x.value == y.value and x.kind is y.kind


def infinitely_close(x: NsNumber, y: NsNumber) -> bool:
    """True when x and y differ by at most an infinitesimal.

    Every decoration of the same value collapses into one equivalence
    class; distinct real values never do.
    """
    _check_operands(x, y)
    return x.value == y.value


def roughly_leq(x: NsNumber, y: NsNumber) -> bool:
    """Rough order: x below y, or indistinguishable from it.

    A total preorder; it cannot see decorations at all.
    """
    _check_operands(x, y)
    return x.value <= y.value


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


def add_ns(x: NsNumber, y: NsNumber) -> NsNumber:
    """Sum of decorated numbers: values add, decorations combine (``_SUM``)."""
    _check_operands(x, y)
    return NsNumber._of(x.value + y.value, _SUM[x.kind, y.kind])
