"""Nonstandard intervals with decorated endpoints.

An NsInterval is a pair of NsNumbers lo ≤N hi; membership, infimum and
supremum all follow the six-valued order, so a decorated endpoint can
admit or exclude same-value probes by kind alone.  `contains`,
`_bound_set` and `_report` rank in their own frame, on the integer
cross-products of the values' (numerator, denominator) pairs.  Of the
decoration order they read only the tables of `monads`: `contains` looks
a tie up in ``_AT_VALUE`` against ``_AT_MOST``, and `_bound_set` folds
kinds by the kind meet or join.  The unit interval used for truth degrees
runs from the left monad of 0 to the right monad of 1, so offsets
infinitesimally below 0 or above 1 are still members.

`_probes` draws the seeded probes of the CLI's anomaly demonstration on
the 1/1000 grid, each index straight from one `Random`'s `getrandbits`.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from random import Random

from .errors import EmptySet, InvalidInterval, _check_type, _Frozen, _items
from .monads import _AT_MOST, _AT_VALUE, _KIND_JOIN, _KIND_MEET, MonadKind, NsNumber, _number
from .monads import _ratio, compare_ns, left, right, std

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

    def __new__(cls, lo: NsNumber, hi: NsNumber):
        _check_type("lo", lo, NsNumber)
        _check_type("hi", hi, NsNumber)
        if compare_ns(lo, hi) not in _AT_MOST:
            raise InvalidInterval(f"]{lo}, {hi}[ has endpoints out of order")
        return cls._of(lo, hi)

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
    """Membership: lo ≤N x and x ≤N hi, ranked in this frame as compare_ns
    ranks, with the probe's pair read once.

    Non-strict outcomes count as inclusion, so a bimonad probe sitting on
    a left-monad endpoint is a member while a std probe on that same
    endpoint is not.
    """
    try:
        lo = interval.lo
        (ln, ld), (n, d) = lo.value.as_integer_ratio(), x.value.as_integer_ratio()
        a, b = ln * d, n * ld
        if a > b or (a == b and _AT_VALUE[lo.kind, x.kind] not in _AT_MOST):
            return False
        hi = interval.hi
        hn, hd = hi.value.as_integer_ratio()
        a, b = n * hd, hn * d
        return a < b or (a == b and _AT_VALUE[x.kind, hi.kind] in _AT_MOST)
    except (AttributeError, TypeError):  # checked only here, as in compare_ns
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


_NS_NUMBER = frozenset({NsNumber})


def _bound_set(items: tuple, name: str, sign: int, table: dict) -> NsNumber:
    """The bound at the least (sign -1) or greatest (sign 1) value, the kinds
    there folded by `table`; values are compared on integer cross-products."""
    if not items:
        raise EmptySet(f"{name} over an empty set")
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
    return NsNumber._of(best, kind)


def inf_ns_set(values: Iterable[NsNumber]) -> NsNumber:
    """Greatest NsNumber that is ≤N every element of the set.

    Elements above the minimal value never constrain the answer.  Among
    the kinds present at the minimal value the diamond's meet applies; in
    particular a std/bimonad mix has no comparable member below it other
    than the left monad of that value.
    """
    return _bound_set(_items("values", values, _NS_NUMBER, "NsNumber"), "inf", -1, _KIND_MEET)


def sup_ns_set(values: Iterable[NsNumber]) -> NsNumber:
    """Least NsNumber that is ≥N every element of the set."""
    return _bound_set(_items("values", values, _NS_NUMBER, "NsNumber"), "sup", 1, _KIND_JOIN)


def rough_contains(a, b, x: NsNumber) -> bool:
    """Membership of x in the rough interval from a to b.

    Under the rough order only underlying values matter, so the interval
    is the same whatever decorations its endpoints carry.
    """
    a, b = _number("a", a), _number("b", b)
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

    def __new__(cls, lower, upper, outer_notation, inner_notation, probes,
                outer_membership, inner_membership):
        return cls._of(lower, upper, outer_notation, inner_notation, probes,
                       outer_membership, inner_membership)

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


def _report(probes: tuple, a: Fraction, b: Fraction) -> AnomalyReport:
    """The report on probes, NsNumbers: a <= x.value <= b for each probe x,
    on integer cross-products."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    pairs = [x.value.as_integer_ratio() for x in probes]
    membership = tuple([an * d <= n * ad and n * bd <= bn * d for n, d in pairs])
    return AnomalyReport(
        lower=a,
        upper=b,
        outer_notation=str(NsInterval._of(std(a), right(b))),
        inner_notation=str(NsInterval._of(right(a), left(b))),
        probes=probes,
        outer_membership=membership,
        inner_membership=membership,
    )


_KINDS = tuple(MonadKind)


def _probes(a: Fraction, b: Fraction, count: int, seed: int) -> list:
    """count probes for the anomaly demonstration on a < b.

    A probe's value is k/1000, k uniform from lo_k = int(1000 (a - pad))
    to hi_k = int(1000 (b + pad)), pad = (b - a) / 2, so each end is
    truncated toward zero; its kind is uniform over MonadKind.  Each
    index below n comes from `Random(seed).getrandbits` by the rejection
    rule of `randint` and `choice` on Python 3.10-3.13: draw
    n.bit_length() bits, and draw again while the result is n or more.
    The value index comes first, then the kind index, so the probes are
    those of `randint(lo_k, hi_k)` and `choice(_KINDS)` in turn, drawn
    without their frames.
    """
    bits = Random(seed).getrandbits
    pad = (b - a) / 2
    lo_k = int((a - pad) * 1000)
    n = int((b + pad) * 1000) - lo_k + 1
    k, kinds = n.bit_length(), len(_KINDS)
    m = kinds.bit_length()
    probes = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        s = bits(m)
        while s >= kinds:
            s = bits(m)
        probes.append(NsNumber._of(_ratio(lo_k + r, 1000), _KINDS[s]))
    return probes


def anomaly_check(a, b, probes: Iterable[NsNumber]) -> AnomalyReport:
    """Probe the two rough intervals ]a, R(b)[ and ]R(a), L(b)[.

    Decorations drop out of the rough membership predicate, so one
    column, the rough test on (a, b), serves as both the outer and the
    inner membership; the point of the report is that the nominally
    wider and nominally narrower intervals admit exactly the same probes.
    """
    a, b = _number("a", a), _number("b", b)
    if not a < b:
        raise ValueError("anomaly check requires a < b")
    return _report(_items("probes", probes, _NS_NUMBER, "NsNumber"), a, b)
