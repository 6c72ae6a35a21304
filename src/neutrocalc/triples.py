"""Truth/indeterminacy/falsity triples and their value-domain operations.

A triple is homogeneous: all three components share one shape.  Supported
shapes are single values, closed intervals, hesitant (finite) sets, and
nonstandard components built from monad-decorated numbers or intervals.
Triples themselves never enforce a range; offset components (below 0 or
above 1) are legal data and `validate` reports where they fall relative
to the active bounds.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum
from fractions import Fraction

from .errors import (
    EmptyComponent,
    InvalidBounds,
    InvalidInterval,
    ShapeMismatch,
    UnsupportedNonstandardConfig,
    _check_type,
    _Frozen,
    _items,
)
from .intervals import NsInterval, inf_ns_set, sup_ns_set
from .monads import MonadKind, NsNumber, _number, _plain, _ratio, _ratios, add_ns, std

__all__ = [
    "Component",
    "SingleValued",
    "IntervalValued",
    "Hesitant",
    "Nonstandard",
    "NeutroTriple",
    "OffsetBounds",
    "UNIT_BOUNDS",
    "ComponentBounds",
    "triple_sums",
    "Violation",
    "ValidationReport",
    "validate",
    "classify_logic",
    "Role",
    "TruthGrade",
    "truth_grade",
    "scale_triple",
]


class Component(_Frozen):
    """Base of the four component shapes; each keeps its behaviour on its class.

    ``shape`` names the shape.  ``bounds()`` gives the decorated infimum
    and supremum (the std extremes, except for ``Nonstandard``),
    ``value_range()`` the underlying values in report order with their
    least and greatest, and ``to_json()`` the ``--json`` form.  ``str()``
    is the formula syntax.

    A public constructor is a ``__new__`` that coerces and checks, then
    calls ``_of``, generated for every shape but ``Hesitant``; the
    library builds the values it computed itself through ``_of``
    directly, which skips the checks.
    ``_of`` and the two per-shape steps trust their caller.
    ``_apply(other, op)``, the connectives' step, applies op to the
    degrees of two same-shape components: the degrees are exact
    Fractions, and op maps them to Fractions, monotone in both arguments
    as the kernels are, so an interval's image is the op of its
    endpoints.  When op returns an operand's own degree, both endpoints
    for an interval, as min/max, min_ns/max_ns and a clamp that passes a
    degree through do, ``_apply`` returns that operand itself, not a
    copy.  For ``Hesitant`` op is one of `connectives`' set forms
    instead, which takes the two components and builds the result: a
    unit kernel's form, declared beside its op in `connectives._KERNELS`,
    from their integer forms, and an offset form, built by
    `connectives._offset_rows`, from their values pair by pair.
    ``Nonstandard._apply`` refuses unions,
    intervals and bimonads itself.  ``_scaled(q)``, `scale_triple`'s
    step, multiplies every degree by an exact q > 0, which keeps every
    interval ordered and every set's values distinct; the single and
    interval ones, which percent-scale formulas run, build degrees from
    integer cross-products by ``monads._ratio``, and the hesitant one
    scales its numerators and denominator.  ``_extremes()`` gives the
    integer pairs of the least and greatest value, which `validate`'s
    pass test reads.
    """

    __slots__ = ()
    shape: str

    def bounds(self) -> "ComponentBounds":
        _, lo, hi = self.value_range()
        return ComponentBounds(std(lo), std(hi))

    def _extremes(self) -> tuple:
        """The (numerator, denominator) pairs of the least and the greatest
        value: the integers of `validate`'s pass test.  The single and
        interval shapes, which every literal of `formula_mixed` admits,
        read their Fractions' pairs themselves: through value_range() here
        the extra call cost that workload about 3% of its operations per
        second."""
        _, lo, hi = self.value_range()
        return lo.as_integer_ratio(), hi.as_integer_ratio()


class SingleValued(Component):
    __slots__ = __match_args__ = ("value",)
    shape = "single"

    def __new__(cls, value: Fraction):
        return cls._of(_number("value", value))

    def __str__(self) -> str:
        return _plain(self.value)

    def value_range(self):
        return (self.value,), self.value, self.value

    def _extremes(self) -> tuple:
        pair = self.value.as_integer_ratio()
        return pair, pair

    def _scaled(self, q: Fraction) -> "SingleValued":
        (n, d), (qn, qd) = self.value.as_integer_ratio(), q.as_integer_ratio()
        return SingleValued._of(_ratio(n * qn, d * qd))

    def _apply(self, other: "SingleValued", op) -> "SingleValued":
        v = op(self.value, other.value)
        if v is self.value:
            return self
        return other if v is other.value else SingleValued._of(v)

    def to_json(self) -> dict:
        return {"shape": self.shape, "kind": "std", "value": float(self.value)}


class IntervalValued(Component):
    __slots__ = __match_args__ = ("lo", "hi")
    shape = "interval"

    def __new__(cls, lo: Fraction, hi: Fraction):
        lo, hi = _number("lo", lo), _number("hi", hi)
        if lo > hi:
            raise InvalidInterval(f"[{_plain(lo)}, {_plain(hi)}] is reversed")
        return cls._of(lo, hi)

    def __str__(self) -> str:
        return f"[{_plain(self.lo)}, {_plain(self.hi)}]"

    def value_range(self):
        return (self.lo, self.hi), self.lo, self.hi

    def _extremes(self) -> tuple:
        return self.lo.as_integer_ratio(), self.hi.as_integer_ratio()

    def _scaled(self, q: Fraction) -> "IntervalValued":
        qn, qd = q.as_integer_ratio()
        (ln, ld), (hn, hd) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        return IntervalValued._of(_ratio(ln * qn, ld * qd), _ratio(hn * qn, hd * qd))

    def _apply(self, other: "IntervalValued", op) -> "IntervalValued":
        lo, hi = op(self.lo, other.lo), op(self.hi, other.hi)
        if lo is self.lo and hi is self.hi:
            return self
        if lo is other.lo and hi is other.hi:
            return other
        return IntervalValued._of(lo, hi)

    def to_json(self) -> dict:
        return {"shape": self.shape, "lo": float(self.lo), "hi": float(self.hi)}


class Hesitant(Component):
    """A finite, deduplicated set of candidate degrees, kept sorted.

    Stored as integers only: ``_nums``, the strictly increasing
    numerators, over one denominator ``_den`` > 0, with
    gcd(_den, *_nums) == 1, so a set has one integer form.  The set forms
    of `connectives`, the parser and ``_scaled`` compute on the integers
    and build the result through `_reduced`.  ``values``, the Fractions,
    is built on each read and never stored, so a built set is never
    written again; ``==``, ``hash()``, ``repr()``, pickling and copying
    read it, as they read the other shapes' fields, and ``str()`` and
    ``value_range()`` read it once each.  ``to_json()`` and `validate`'s
    pass test read the integers, and no traffic path reads a set's
    ``values`` twice.

    ``_of(values)`` trusts only that values are exact Fractions: it lifts
    them to the lcm of their denominators, then dedups and sorts the
    numerators."""

    __slots__ = ("_nums", "_den")
    __match_args__ = ("values",)
    shape = "hesitant"

    def __new__(cls, values: Iterable):
        values = _items("values", values, None, "numbers")
        if not values:
            raise EmptyComponent("hesitant component needs at least one value")
        return cls._of([_number(f"values[{k}]", v) for k, v in enumerate(values)])

    @classmethod
    def _of(cls, values) -> "Hesitant":
        pairs = [v.as_integer_ratio() for v in values]
        den = math.lcm(*[d for _, d in pairs])
        return _reduced({n * (den // d) for n, d in pairs}, den, cls)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return _ratios(self._nums, self._den)

    def __str__(self) -> str:
        return "{" + ", ".join(_plain(v) for v in self.values) + "}"

    def value_range(self):
        values = self.values
        return values, values[0], values[-1]

    def _extremes(self) -> tuple:
        d = self._den
        return (self._nums[0], d), (self._nums[-1], d)

    def _scaled(self, q: Fraction) -> "Hesitant":
        qn, qd = q.as_integer_ratio()  # q > 0 keeps the numerators distinct
        return _reduced([n * qn for n in self._nums], self._den * qd)

    def _apply(self, other: "Hesitant", form) -> "Hesitant":
        """form, a set form declared in `connectives._KERNELS` or built by
        `connectives._offset_rows`, on the two components."""
        return form(self, other)

    def to_json(self) -> dict:
        # n / d is correctly rounded, as float(Fraction) is, reduced or not.
        d = self._den
        return {"shape": self.shape, "values": [n / d for n in self._nums]}


_new = object.__new__
_put_nums, _put_den = (Hesitant.__dict__[n].__set__ for n in Hesitant.__slots__)


def _reduced(nums, den: int, cls=Hesitant) -> Hesitant:
    """The cls, a Hesitant, of the distinct integers nums over den > 0,
    sorted and divided by their gcd with den.  That gcd divides
    gcd(den, sum(nums)), which is most often 1 already; only when it is
    not is each numerator read.  Reading them one by one from den on
    would run many gcds of long integers where each value has its own
    prime denominator: the running gcd loses one prime per value."""
    nums = sorted(nums)
    g = math.gcd(den, sum(nums))
    if g != 1:
        g = math.gcd(g, *nums)
        nums, den = [n // g for n in nums], den // g
    self = _new(cls)
    _put_nums(self, tuple(nums))
    _put_den(self, den)
    return self


_MEMBERS = frozenset({NsNumber, NsInterval})


class Nonstandard(Component):
    """A finite union of decorated numbers and decorated intervals.

    ``_of`` trusts that members is a non-empty tuple of NsNumber and
    NsInterval members."""

    __slots__ = __match_args__ = ("members",)
    shape = "nonstandard"

    def __new__(cls, members: Iterable):
        if isinstance(members, (NsNumber, NsInterval)):
            members = (members,)
        members = _items("members", members, _MEMBERS, "NsNumber or NsInterval")
        if not members:
            raise EmptyComponent("nonstandard component needs at least one member")
        return cls._of(members)

    def __str__(self) -> str:
        return " ∪ ".join(str(m) for m in self.members)

    def bounds(self) -> "ComponentBounds":
        los = [m if isinstance(m, NsNumber) else m.lo for m in self.members]
        his = [m if isinstance(m, NsNumber) else m.hi for m in self.members]
        return ComponentBounds(inf_ns_set(los), sup_ns_set(his))

    def value_range(self):
        # Range checks look only at underlying values; decorations at the
        # boundary (left monad of psi, right monad of omega) still pass.
        values = []
        for m in self.members:
            if isinstance(m, NsNumber):
                values.append(m.value)
            else:
                values.extend([m.lo.value, m.hi.value])
        return values, min(values), max(values)

    def _scaled(self, q: Fraction) -> "Nonstandard":
        def scale(x: NsNumber) -> NsNumber:
            return NsNumber._of(x.value * q, x.kind)

        return Nonstandard._of(
            tuple(
                scale(m) if isinstance(m, NsNumber) else NsInterval._of(scale(m.lo), scale(m.hi))
                for m in self.members
            )
        )

    def _apply(self, other: "Nonstandard", op) -> "Nonstandard":
        """op on the one rankable decorated number each operand holds."""
        for c in (self, other):
            if len(c.members) != 1 or not isinstance(c.members[0], NsNumber):
                raise UnsupportedNonstandardConfig(
                    "connectives accept nonstandard components holding exactly one number"
                )
            if c.members[0].kind is MonadKind.BIMONAD:
                raise UnsupportedNonstandardConfig("bimonad operands cannot be ranked by min/max")
        x = op(self.members[0], other.members[0])
        if x is self.members[0]:
            return self
        return other if x is other.members[0] else Nonstandard._of((x,))

    def to_json(self) -> dict:
        return {"shape": self.shape, "members": [m.to_json() for m in self.members]}


class NeutroTriple(_Frozen):
    """Homogeneous (T, I, F) triple.

    ``_of`` trusts that t, i and f are components of one class."""

    __slots__ = __match_args__ = ("t", "i", "f")

    def __new__(cls, t: Component, i: Component, f: Component):
        _check_type("t", t, Component)
        _check_type("i", i, Component)
        _check_type("f", f, Component)
        if not (type(t) is type(i) is type(f)):
            raise ShapeMismatch(
                "triple components must share one shape, got "
                f"{type(t).__name__}/{type(i).__name__}/{type(f).__name__}"
            )
        return cls._of(t, i, f)

    @property
    def shape(self) -> str:
        return self.t.shape

    # The three components share one class by construction.
    @classmethod
    def single(cls, t, i, f) -> "NeutroTriple":
        return cls._of(SingleValued(t), SingleValued(i), SingleValued(f))

    @classmethod
    def nonstandard(cls, t: NsNumber, i: NsNumber, f: NsNumber) -> "NeutroTriple":
        return cls._of(Nonstandard(t), Nonstandard(i), Nonstandard(f))


class OffsetBounds(_Frozen):
    """Component range [psi, omega] with psi <= 0 < 1 <= omega."""

    __slots__ = __match_args__ = ("psi", "omega")

    def __new__(cls, psi: Fraction, omega: Fraction):
        psi, omega = _number("psi", psi), _number("omega", omega)
        if not (psi <= 0 < 1 <= omega):
            raise InvalidBounds("bounds must satisfy psi <= 0 < 1 <= omega")
        return cls._of(psi, omega)


UNIT_BOUNDS = OffsetBounds(Fraction(0), Fraction(1))


class ComponentBounds(_Frozen):
    __slots__ = __match_args__ = ("inf", "sup")

    def __new__(cls, inf: NsNumber, sup: NsNumber):
        return cls._of(inf, sup)


def component_bounds(c: Component) -> ComponentBounds:
    """Decorated infimum and supremum of one component: ``c.bounds()``, as a
    module function so that bench/spans.py can time it by name."""
    return c.bounds()


def triple_sums(x: NeutroTriple) -> tuple[NsNumber, NsNumber]:
    """Decorated lower and upper bounds of T + I + F."""
    _check_type("x", x, NeutroTriple)
    bt, bi, bf = (component_bounds(c) for c in (x.t, x.i, x.f))
    n_inf = add_ns(add_ns(bt.inf, bi.inf), bf.inf)
    n_sup = add_ns(add_ns(bt.sup, bi.sup), bf.sup)
    return n_inf, n_sup


class Violation(_Frozen):
    __slots__ = __match_args__ = ("where", "message")

    def __new__(cls, where: str, message: str):  # where: "t" | "i" | "f" | "sum"
        return cls._of(where, message)


class ValidationReport(_Frozen):
    __slots__ = __match_args__ = ("ok", "violations")

    def __new__(cls, ok: bool, violations: tuple[Violation, ...] = ()):
        return cls._of(ok, violations)


_PASSED = ValidationReport(ok=True)


def validate(x: NeutroTriple, bounds: OffsetBounds = UNIT_BOUNDS) -> ValidationReport:
    """Check component ranges and the triple sum against the bounds.

    Violations are reported, never raised; offset data is legitimate
    input and the caller decides what to do with a failing report.

    A triple whose components' extremes all lie in [psi, omega] passes:
    its least sum is then at least 3 psi, and its greatest at most 3
    omega.  That test runs on integer cross-products of each component's
    `_extremes` (denominators are positive), and stops at the first
    extreme outside.  Only a failing triple is reported, value by value,
    then its sums from `triple_sums`.
    """
    _check_type("x", x, NeutroTriple)
    _check_type("bounds", bounds, OffsetBounds)
    psi, omega = bounds.psi, bounds.omega
    pn, pd = psi.as_integer_ratio()
    on, od = omega.as_integer_ratio()
    for c in (x.t, x.i, x.f):
        (ln, ld), (hn, hd) = c._extremes()
        if ln * pd < pn * ld or hn * od > on * hd:
            break
    else:
        return _PASSED
    violations: list[Violation] = []
    for where, c in (("t", x.t), ("i", x.i), ("f", x.f)):
        for v in c.value_range()[0]:
            if v < psi:
                violations.append(
                    Violation(where, f"value {_plain(v)} below lower bound {_plain(psi)}")
                )
            elif v > omega:
                violations.append(
                    Violation(where, f"value {_plain(v)} above upper bound {_plain(omega)}")
                )
    n_inf, n_sup = triple_sums(x)
    if n_inf.value < 3 * psi:
        violations.append(
            Violation("sum", f"lower sum {_plain(n_inf.value)} below {_plain(3 * psi)}")
        )
    if n_sup.value > 3 * omega:
        violations.append(
            Violation("sum", f"upper sum {_plain(n_sup.value)} above {_plain(3 * omega)}")
        )
    return ValidationReport(ok=False, violations=tuple(violations))


_TOL = Fraction(1, 10**9)


def _eq(a: Fraction, b) -> bool:
    return abs(a - b) <= _TOL


def _lt(a: Fraction, b) -> bool:
    return a < b and not _eq(a, b)


def _gt(a: Fraction, b) -> bool:
    return a > b and not _eq(a, b)


def classify_logic(t, i, f, scale: str = "unit") -> frozenset[str]:
    """Name every logic whose defining condition the triple satisfies.

    Classification happens on the unit scale; pass scale="percent" for
    degrees quoted out of 100.  Equality is tested at tolerance 1e-9.
    """
    _check_scale(scale)
    q = _SCALES[scale]
    t, i, f = _number("t", t) * q, _number("i", i) * q, _number("f", f) * q
    n = t + i + f
    labels = set()
    if _gt(n, 0) and _lt(n, 1):
        labels.add("intuitionistic")
    if _eq(n, 1) and _eq(i, 0):
        labels.add("fuzzy")
        if (_eq(t, 0) or _eq(t, 1)) and (_eq(f, 0) or _eq(f, 1)):
            labels.add("boolean")
    if all(not _lt(v, 0) and not _gt(v, 1) for v in (t, i, f)):
        labels.add("multi-valued")
    if _gt(n, 1) and _lt(t, 1) and _lt(f, 1):
        labels.add("paraconsistent")
    if _eq(t, 1) and _eq(f, 1) and _eq(i, 0):
        labels.add("dialetheism")
    if _gt(t, 1):
        labels.add("overtrue")
    return frozenset(labels)


class Role(Enum):
    T = "T"
    I = "I"
    F = "F"


class TruthGrade(Enum):
    ABSOLUTE_TRUTH = "absolute-truth"
    RELATIVE_TRUTH = "relative-truth"
    ABSOLUTE_NEGATIVE = "absolute-negative"
    RELATIVE_NEGATIVE = "relative-negative"
    ORDINARY = "ordinary"


#: (grades truth, kind, value) -> each grade but the ordinary one.
_GRADES = {
    (True, MonadKind.RIGHT, 1): TruthGrade.ABSOLUTE_TRUTH,
    (True, MonadKind.STD, 1): TruthGrade.RELATIVE_TRUTH,
    (False, MonadKind.LEFT, 0): TruthGrade.ABSOLUTE_NEGATIVE,
    (False, MonadKind.STD, 0): TruthGrade.RELATIVE_NEGATIVE,
}


def truth_grade(x: NsNumber, role: Role) -> TruthGrade:
    """Grade a degree as absolute (all worlds) or relative (some world).

    Truth peaks at 1: the right monad of 1 exceeds every world's truth,
    the standard 1 is truth in at least one world.  Falsity and
    indeterminacy grade at their floor 0, where the left monad dips
    below every world's degree.
    """
    _check_type("x", x, NsNumber)
    _check_type("role", role, Role)
    return _GRADES.get((role is Role.T, x.kind, x.value), TruthGrade.ORDINARY)


# Scale name -> the factor that takes its degrees onto the unit scale.
_SCALES = {"unit": 1, "percent": Fraction(1, 100)}


def _check_scale(scale) -> None:
    """Refuse a scale that _SCALES does not name.  The name is checked
    against tuple(_SCALES), by ==, so that an unhashable one is refused
    like any other."""
    if scale not in tuple(_SCALES):
        raise ValueError("scale must be 'unit' or 'percent'")


def scale_triple(x: NeutroTriple, factor) -> NeutroTriple:
    """Multiply every degree by a positive factor; decorations stay put.

    Used to canonicalize percent-scale input onto the unit scale.
    """
    _check_type("x", x, NeutroTriple)
    q = _number("factor", factor)
    if q <= 0:
        raise ValueError("scale factor must be positive")
    # Each component keeps its class, so the shapes still agree.
    return NeutroTriple._of(x.t._scaled(q), x.i._scaled(q), x.f._scaled(q))
