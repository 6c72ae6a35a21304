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
than any real gap.  At equal values the side sets decide: equal sets are
EqN, a set wholly below the other is LtN, a set whose least and greatest
sides are both at or below the other's is LeN (Left against Bimonad,
Bimonad against Right), the mirror cases are GtN and GeN, and anything
else is incomparable (Std against Bimonad, which straddles it).

`compare_ns`, `min_ns` and `max_ns` each rank in their own frame, as
`intervals.contains` does: they read each operand's (numerator,
denominator) pair once, decide distinct values on the integer
cross-products, as the numeric kernels of `connectives` do, and look a
tie up in ``_AT_VALUE``, against ``_AT_MOST`` or ``_AT_LEAST`` for a
pick.  Those three tables are all that they read of the decoration order.
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
    most of that constructor's cost, is skipped.  It relies on Fraction's
    layout, the two slots _numerator and _denominator, as CPython's own
    Fraction._from_coprime_ints does.  It is the one place in the package
    that reads or writes those slots; all other code reads the public
    numerator and denominator.
    tests/test_monads.py::TestRatio::test_fraction_layout_is_pinned
    fails on a Python that changes the layout.
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


def _remember(memo: dict, numeral: str, key, value) -> None:
    """Store value, read from the text numeral, under key in memo while
    numeral has at most `_MEMO_WIDTH` characters and memo holds fewer than
    `_MEMO_CAP` entries: a full memo stores nothing more, so hostile input
    cannot pin memory.  Callers share the stored values, which is
    safe because each is immutable and no code relies on its identity.
    Threads share a memo without a lock: each dict operation is atomic,
    and a lost or doubled insert stores the same value, so racing inserts
    can overshoot the cap by at most one entry per thread."""
    if len(numeral) <= _MEMO_WIDTH and len(memo) < _MEMO_CAP:
        memo[key] = value


def _read_decimal(numeral: str, exponent: int = 0) -> Fraction:
    """numeral * 10**exponent, exactly; numeral is an optional sign, digits
    and an optional point, as _DECIMAL's numeral group spells it.  The
    reader of decimal text to a Fraction: the formula lexer's numbers and
    as_fraction's strings, Decimals and float reprs.  A hesitant set's
    numerals have a second reader, `formula._hesitant`, which reads them
    straight to integers over one power of 10: a Fraction per value here,
    lifted back to integers by `Hesitant._of`, took about 8% longer on
    sets of 2-4 values (4.38 against 4.05 µs per set, best of 5).

    A read without an exponent goes through `_MEMO`, which `_remember`
    bounds.
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
        if not exponent:
            _remember(_MEMO, numeral, numeral, q)
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
    a plain decimal with more digits than that converts exactly.  A bool,
    or a value of any other class, raises TypeError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
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
    raise TypeError(f"value must be a number, got {value!r}")


def _number(field: str, value) -> Fraction:
    """as_fraction(value), its TypeError naming `field`: the reader of every
    public numeric parameter."""
    try:
        return as_fraction(value)
    except TypeError:
        raise TypeError(f"{field} must be a number, got {value!r}") from None


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
    """An exact value decorated with the monad part it denotes.

    ``_of`` trusts that value is an exact Fraction and kind a MonadKind."""

    __slots__ = __match_args__ = ("value", "kind")

    def __new__(cls, value: Fraction, kind: MonadKind = MonadKind.STD):
        value = _number("value", value)
        _check_type("kind", kind, MonadKind)
        return cls._of(value, kind)

    def __str__(self) -> str:
        text = _plain(self.value)
        if self.kind is MonadKind.STD:
            return text
        return f"{_NOTATION[self.kind]}({text})"

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "value": float(self.value)}


_NOTATION = {MonadKind.LEFT: "L", MonadKind.RIGHT: "R", MonadKind.BIMONAD: "B"}


def _places(den: int) -> int | None:
    """The decimal places of 1/den for an integer den > 0: the greater of
    its exponents of 2 and 5, or None where another prime divides den."""
    d, e2, e5 = den, 0, 0
    while d % 2 == 0:
        d //= 2
        e2 += 1
    while d % 5 == 0:
        d //= 5
        e5 += 1
    return max(e2, e5) if d == 1 else None


def _plain(q: Fraction) -> str:
    """Render a Fraction as its exact decimal when one exists, else as n/d."""
    num, den = q.numerator, q.denominator
    if den != 1 and _places(den) is None:
        return "/".join(_plain_over((num, den), 1))
    return _plain_over((num,), den)[0]


def _plain_over(nums, den: int, digits=str) -> list[str]:
    """[_plain(n / den) for n in nums], den > 0 factored once.  Each n / den
    is written to den's decimal places, and its trailing zeros, with the
    point where no digit is left, are stripped: a reduced value's exact
    decimal ends in a nonzero digit, so this is its `_plain` text.  Where
    another prime divides den, each value goes through `_plain`."""
    k = _places(den)
    if k is None:
        return [_plain(_ratio(n, den)) for n in nums]
    try:
        if k == 0:
            return list(map(digits, nums))
        scale, texts = 10**k // den, []
        for n in nums:
            text = digits(abs(n) * scale).rjust(k + 1, "0")
            frac = text[-k:].rstrip("0")
            text = f"{text[:-k]}.{frac}" if frac else text[:-k]
            texts.append(f"-{text}" if n < 0 else text)
        return texts
    except ValueError:
        # str() refuses integers past sys.get_int_max_str_digits();
        # Decimal converts them exactly.
        return _plain_over(nums, den, lambda n: str(Decimal(n)))


def std(value) -> NsNumber:
    return NsNumber(value, MonadKind.STD)


def left(value) -> NsNumber:
    return NsNumber(value, MonadKind.LEFT)


def right(value) -> NsNumber:
    return NsNumber(value, MonadKind.RIGHT)


def bimonad(value) -> NsNumber:
    return NsNumber(value, MonadKind.BIMONAD)


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
_AT_MOST = frozenset({OrderRelation.LT_N, OrderRelation.LE_N, OrderRelation.EQ_N})
_AT_LEAST = frozenset({OrderRelation.GT_N, OrderRelation.GE_N, OrderRelation.EQ_N})
#: (x.kind, y.kind) -> add_ns(x, y).kind: the sides off the point that either
#: operand occupies, else the point.  So L + R gives the pierced B, though the
#: sum itself is reachable (ROADMAP item 3).
_KIND_OF = {sides: kind for kind, sides in _SIDES.items()}
_SUM = {(kx, ky): _KIND_OF[tuple(sorted(set(a + b) - {0})) or (0,)] for kx, a, ky, b in _PAIRS}


def _bound_kind(a: MonadKind, b: MonadKind, order: frozenset) -> MonadKind:
    """The greatest lower bound (order _AT_MOST) or the least upper bound
    (_AT_LEAST) of kinds a and b at one value, read off the at-value order."""
    bounds = [k for k in MonadKind if {_AT_VALUE[k, a], _AT_VALUE[k, b]} <= order]
    return next(k for k in bounds if all(_AT_VALUE[j, k] in order for j in bounds))


#: (x.kind, y.kind) -> inf_ns_set([x, y]).kind and sup_ns_set([x, y]).kind at
#: equal values.  At one value the four kinds form a diamond: LEFT below
#: everything, RIGHT above everything, STD and BIMONAD incomparable between.
_KIND_MEET, _KIND_JOIN = (
    {(a, b): _bound_kind(a, b, order) for a, b in _AT_VALUE} for order in (_AT_MOST, _AT_LEAST)
)


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


def min_ns(x: NsNumber, y: NsNumber) -> NsNumber:
    """The ≤N-smaller operand; raises IncomparableOperands when neither ranks."""
    try:
        (xn, xd), (yn, yd) = x.value.as_integer_ratio(), y.value.as_integer_ratio()
        a, b = xn * yd, yn * xd
        if a != b:
            return x if a < b else y
        rel = _AT_VALUE[x.kind, y.kind]
    except AttributeError:  # checked only here, as in compare_ns
        _check_operands(x, y)
        raise
    if rel is OrderRelation.INCOMPARABLE:
        raise IncomparableOperands(f"{x} and {y} admit no neutrosophic order")
    return x if rel in _AT_MOST else y


def max_ns(x: NsNumber, y: NsNumber) -> NsNumber:
    """The ≤N-larger operand; raises IncomparableOperands when neither ranks."""
    try:
        (xn, xd), (yn, yd) = x.value.as_integer_ratio(), y.value.as_integer_ratio()
        a, b = xn * yd, yn * xd
        if a != b:
            return x if a > b else y
        rel = _AT_VALUE[x.kind, y.kind]
    except AttributeError:  # checked only here, as in compare_ns
        _check_operands(x, y)
        raise
    if rel is OrderRelation.INCOMPARABLE:
        raise IncomparableOperands(f"{x} and {y} admit no neutrosophic order")
    return x if rel in _AT_LEAST else y


def add_ns(x: NsNumber, y: NsNumber) -> NsNumber:
    """Sum of decorated numbers: values add, decorations combine (``_SUM``)."""
    _check_operands(x, y)
    return NsNumber._of(x.value + y.value, _SUM[x.kind, y.kind])
