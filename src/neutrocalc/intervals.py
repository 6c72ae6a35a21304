"""Nonstandard intervals with decorated endpoints.

An NsInterval is a pair of NsNumbers lo ≤N hi; membership, infimum and
supremum are all resolved by the six-valued comparison, so a decorated
endpoint can admit or exclude same-value probes by kind alone.  The unit
interval used for truth degrees runs from the left monad of 0 to the
right monad of 1, so offsets infinitesimally below 0 or above 1 are
still members.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import product

from .errors import EmptySet, InvalidInterval, _check_type, _Frozen
from .monads import _AT_LEAST, _AT_MOST, _AT_VALUE, MonadKind, NsNumber, as_fraction
from .monads import compare_ns, left, right, std

__all__ = [
    "NsInterval",
    "UNIT_INTERVAL",
    "contains",
    "inf_ns",
    "sup_ns",
    "inf_ns_set",
    "sup_ns_set",
    "rough_contains",
    "anomaly_check",
    "AnomalyReport",
]

class NsInterval(_Frozen):
    __slots__ = __match_args__ = ("lo", "hi")

    def __init__(self, lo: NsNumber, hi: NsNumber):
        _check_type("lo", lo, NsNumber)
        _check_type("hi", hi, NsNumber)
        if compare_ns(lo, hi) not in _AT_MOST:
            raise InvalidInterval(f"]{lo}, {hi}[ has endpoints out of order")
        self.__setstate__((lo, hi))

    def __str__(self) -> str:
        return f"]{self.lo}, {self.hi}["

    def to_json(self) -> dict:
        return {
            "kind_lo": self.lo.kind.value,
            "lo": float(self.lo.value),
            "kind_hi": self.hi.kind.value,
            "hi": float(self.hi.value),
        }


#: Truth-degree carrier: everything from infinitesimally below 0 up to
#: infinitesimally above 1.
UNIT_INTERVAL = NsInterval(left(0), right(1))


def contains(interval: NsInterval, x: NsNumber) -> bool:
    """Membership decided entirely by compare_ns on both endpoints.

    Non-strict outcomes count as inclusion, so a bimonad probe sitting on
    a left-monad endpoint is a member while a std probe on that same
    endpoint is not.
    """
    try:
        return (
            compare_ns(interval.lo, x) in _AT_MOST
            and compare_ns(x, interval.hi) in _AT_MOST
        )
    except (AttributeError, TypeError):  # named here, as compare_ns names its own
        _check_type("interval", interval, NsInterval)
        _check_type("x", x, NsNumber)
        raise


def inf_ns(interval: NsInterval) -> NsNumber:
    """Greatest lower bound of the interval; the decorated endpoint itself."""
    _check_type("interval", interval, NsInterval)
    return interval.lo


def sup_ns(interval: NsInterval) -> NsNumber:
    """Least upper bound of the interval; the decorated endpoint itself."""
    _check_type("interval", interval, NsInterval)
    return interval.hi


def _bound_kinds(order: frozenset) -> dict:
    """For every pair of kinds at one value, read off the at-value order: the
    greatest lower bound (order _AT_MOST) or the least upper bound (_AT_LEAST)."""
    table = {}
    for a, b in product(MonadKind, repeat=2):
        bounds = [k for k in MonadKind if {_AT_VALUE[k, a], _AT_VALUE[k, b]} <= order]
        table[a, b] = next(k for k in bounds if all(_AT_VALUE[j, k] in order for j in bounds))
    return table


# At a fixed value the four kinds form a diamond: LEFT below everything,
# RIGHT above everything, STD and BIMONAD incomparable in the middle.
_KIND_MEET, _KIND_JOIN = _bound_kinds(_AT_MOST), _bound_kinds(_AT_LEAST)


def _bound_set(values: Iterable[NsNumber], name: str, sign: int, table: dict) -> NsNumber:
    """The bound at the least (sign -1) or greatest (sign 1) value, the kinds
    there folded by `table`; values are compared on integer cross-products."""
    try:
        items = list(values)
    except TypeError:  # checked only here, off the path that succeeds
        if isinstance(values, Iterable):
            raise
        raise TypeError(f"values must be an iterable of NsNumber, not {type(values).__name__}")
    if not items:
        raise EmptySet(f"{name} over an empty set")
    try:
        best = items[0].value
        kind = items[0].kind
        bn, bd = best.as_integer_ratio()
        for x in items[1:]:
            n, d = x.value.as_integer_ratio()
            side = (n * bd - bn * d) * sign
            if side > 0:
                best, kind, bn, bd = x.value, x.kind, n, d
            elif side == 0:
                kind = table[kind, x.kind]
    except AttributeError:  # checked only here, off the path that succeeds
        for k, x in enumerate(items):
            _check_type(f"values[{k}]", x, NsNumber)
        raise
    return NsNumber._of(best, kind)


def inf_ns_set(values: Iterable[NsNumber]) -> NsNumber:
    """Greatest NsNumber that is ≤N every element of the set.

    Elements above the minimal value never constrain the answer.  Among
    the kinds present at the minimal value the diamond's meet applies; in
    particular a std/bimonad mix has no comparable member below it other
    than the left monad of that value.
    """
    return _bound_set(values, "inf", -1, _KIND_MEET)


def sup_ns_set(values: Iterable[NsNumber]) -> NsNumber:
    """Least NsNumber that is ≥N every element of the set."""
    return _bound_set(values, "sup", 1, _KIND_JOIN)


def rough_contains(a, b, x: NsNumber) -> bool:
    """Membership of x in the rough interval from a to b.

    Under the rough order only underlying values matter, so the interval
    is the same whatever decorations its endpoints carry.
    """
    a, b = as_fraction(a), as_fraction(b)
    if a > b:
        raise ValueError("rough interval requires a <= b")
    _check_type("x", x, NsNumber)
    return a <= x.value <= b


class AnomalyReport(_Frozen):
    """Membership of the same probes in two differently-decorated rough intervals.

    outer nominally reaches past b, inner nominally starts past a and
    stops short of b; rough semantics cannot tell them apart, so the
    membership vectors coincide and each interval contains the other.
    """

    __slots__ = __match_args__ = (
        "lower", "upper", "outer_notation", "inner_notation",
        "probes", "outer_membership", "inner_membership",
    )

    def __init__(self, lower, upper, outer_notation, inner_notation, probes,
                 outer_membership, inner_membership):
        self.__setstate__((lower, upper, outer_notation, inner_notation, probes,
                           outer_membership, inner_membership))

    @property
    def discrepancies(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, (u, v) in enumerate(zip(self.outer_membership, self.inner_membership))
            if u != v
        )

    @property
    def memberships_coincide(self) -> bool:
        return not self.discrepancies


def anomaly_check(a, b, probes: Iterable[NsNumber]) -> AnomalyReport:
    """Probe the two rough intervals ]a, R(b)[ and ]R(a), L(b)[.

    Decorations drop out of the rough membership predicate, so one
    column, the rough test on (a, b), serves as both the outer and the
    inner membership; the point of the report is that the nominally
    wider and nominally narrower intervals admit exactly the same probes.
    """
    a, b = as_fraction(a), as_fraction(b)
    if not a < b:
        raise ValueError("anomaly check requires a < b")
    try:
        probes = tuple(probes)
    except TypeError:  # checked only here, off the path that succeeds
        if isinstance(probes, Iterable):
            raise
        raise TypeError(f"probes must be an iterable of NsNumber, not {type(probes).__name__}")
    # a <= x.value <= b for each probe x, on integer cross-products.
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    try:
        pairs = [x.value.as_integer_ratio() for x in probes]
    except AttributeError:  # checked only here, off the path that succeeds
        for k, x in enumerate(probes):
            _check_type(f"probes[{k}]", x, NsNumber)
        raise
    membership = tuple([an * d <= n * ad and n * bd <= bn * d for n, d in pairs])
    return AnomalyReport(
        lower=a,
        upper=b,
        outer_notation=f"]{std(a)}, {right(b)}[",
        inner_notation=f"]{right(a)}, {left(b)}[",
        probes=probes,
        outer_membership=membership,
        inner_membership=membership,
    )
