"""Truth/indeterminacy/falsity triples and their value-domain operations.

A triple is homogeneous: all three components share one shape.  Supported
shapes are single values, closed intervals, hesitant (finite) sets, and
nonstandard components built from monad-decorated numbers or intervals.
Triples themselves never enforce a range; offset components (below 0 or
above 1) are legal data and `validate` reports where they fall relative
to the active bounds.
"""

from __future__ import annotations

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
)
from .intervals import NsInterval, inf_ns_set, sup_ns_set
from .monads import MonadKind, NsNumber, _plain, _ratio, add_ns, as_fraction, std

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
    least and greatest, ``scaled(q)`` every degree times the exact q, and
    ``to_json()`` the ``--json`` form.  ``str()`` is the formula syntax.
    Only the single and interval ``scaled``, which percent-scale formulas
    run, build degrees from integer cross-products by ``monads._ratio``.

    Public constructors coerce and check; the library builds the values
    it computed itself through ``_of``, which skips that.  ``_of`` and
    ``_apply(other, op)``, the connectives' step that applies op to the
    degrees of two same-shape components, trust their caller: the degrees
    are exact Fractions, and op maps them to Fractions, monotone in both
    arguments as the kernels are, so an interval's image is the op of
    its endpoints.
    """

    __slots__ = ()
    shape: str

    def bounds(self) -> "ComponentBounds":
        _, lo, hi = self.value_range()
        return ComponentBounds(std(lo), std(hi))


class SingleValued(Component):
    __slots__ = __match_args__ = ("value",)
    shape = "single"

    def __init__(self, value: Fraction):
        object.__setattr__(self, "value", as_fraction(value))

    @classmethod
    def _of(cls, value: Fraction) -> "SingleValued":
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        return self

    def __str__(self) -> str:
        return _plain(self.value)

    def value_range(self):
        return (self.value,), self.value, self.value

    def scaled(self, q: Fraction) -> "SingleValued":
        (n, d), (qn, qd) = self.value.as_integer_ratio(), q.as_integer_ratio()
        return SingleValued._of(_ratio(n * qn, d * qd))

    def _apply(self, other: "SingleValued", op) -> "SingleValued":
        return SingleValued._of(op(self.value, other.value))

    def to_json(self) -> dict:
        return {"shape": self.shape, "kind": "std", "value": float(self.value)}


class IntervalValued(Component):
    __slots__ = __match_args__ = ("lo", "hi")
    shape = "interval"

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise InvalidInterval(f"[{_plain(lo)}, {_plain(hi)}] is reversed")
        self.__setstate__((lo, hi))

    @classmethod
    def _of(cls, lo: Fraction, hi: Fraction) -> "IntervalValued":
        self = object.__new__(cls)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        return self

    def __str__(self) -> str:
        return f"[{_plain(self.lo)}, {_plain(self.hi)}]"

    def value_range(self):
        return (self.lo, self.hi), self.lo, self.hi

    def scaled(self, q: Fraction) -> "IntervalValued":
        qn, qd = q.as_integer_ratio()
        (ln, ld), (hn, hd) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        lo, hi = _ratio(ln * qn, ld * qd), _ratio(hn * qn, hd * qd)
        # A negative q reverses the endpoints, which the public constructor refuses.
        return IntervalValued._of(lo, hi) if qn >= 0 else IntervalValued(lo, hi)

    def _apply(self, other: "IntervalValued", op) -> "IntervalValued":
        return IntervalValued._of(op(self.lo, other.lo), op(self.hi, other.hi))

    def to_json(self) -> dict:
        return {"shape": self.shape, "lo": float(self.lo), "hi": float(self.hi)}


def _canonical(values) -> tuple[Fraction, ...]:
    """Exact Fractions, deduplicated and sorted as Hesitant keeps them.

    Deduplicate on the normalised (numerator, denominator) pair, which
    skips Fraction.__hash__, and sort on (float, Fraction) pairs: int / int
    is correctly rounded, hence monotone, so the floats order every two
    values they tell apart, and the exact Fraction comparison runs only on
    their ties.
    """
    unique = {}
    for v in values:
        unique[v.as_integer_ratio()] = v
    try:
        keyed = sorted([(n / d, f) for (n, d), f in unique.items()])
    except OverflowError:  # a magnitude beyond the float range
        return tuple(sorted(unique.values()))
    return tuple([f for _, f in keyed])


class Hesitant(Component):
    """A finite, deduplicated set of candidate degrees, kept sorted."""

    __slots__ = __match_args__ = ("values",)
    shape = "hesitant"

    def __init__(self, values: Iterable):
        if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
            raise TypeError(
                f"hesitant values must be an iterable of numbers, not {type(values).__name__}"
            )
        canonical = _canonical(as_fraction(v) for v in values)
        if not canonical:
            raise EmptyComponent("hesitant component needs at least one value")
        object.__setattr__(self, "values", canonical)

    @classmethod
    def _of(cls, values) -> "Hesitant":
        """Trusted: at least one value, each an exact Fraction."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", _canonical(values))
        return self

    def __str__(self) -> str:
        return "{" + ", ".join(_plain(v) for v in self.values) + "}"

    def value_range(self):
        return self.values, self.values[0], self.values[-1]

    def scaled(self, q: Fraction) -> "Hesitant":
        return Hesitant._of(v * q for v in self.values)

    def _apply(self, other: "Hesitant", op) -> "Hesitant":
        """op on every pair of values, in pair order."""
        return Hesitant._of(op(u, v) for u in self.values for v in other.values)

    def to_json(self) -> dict:
        return {"shape": self.shape, "values": [float(v) for v in self.values]}


class Nonstandard(Component):
    """A finite union of decorated numbers and decorated intervals."""

    __slots__ = __match_args__ = ("members",)
    shape = "nonstandard"

    def __init__(self, members: Iterable):
        if isinstance(members, (NsNumber, NsInterval)):
            members = (members,)
        elif not isinstance(members, Iterable):
            raise TypeError(f"nonstandard members must be iterable, not {type(members).__name__}")
        members = tuple(members)
        if not members:
            raise EmptyComponent("nonstandard component needs at least one member")
        for m in members:
            if not isinstance(m, (NsNumber, NsInterval)):
                raise TypeError("nonstandard members must be NsNumber or NsInterval")
        object.__setattr__(self, "members", members)

    @classmethod
    def _of(cls, members: tuple) -> "Nonstandard":
        """Trusted: a non-empty tuple of NsNumber and NsInterval members,
        as the constructor's checks ask."""
        self = object.__new__(cls)
        object.__setattr__(self, "members", members)
        return self

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

    def scaled(self, q: Fraction) -> "Nonstandard":
        def scale(x: NsNumber) -> NsNumber:
            return NsNumber._of(x.value * q, x.kind)

        # A negative q reverses an interval's endpoints, which NsInterval refuses.
        return Nonstandard._of(
            tuple(
                scale(m) if isinstance(m, NsNumber) else NsInterval(scale(m.lo), scale(m.hi))
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
        return Nonstandard._of((op(self.members[0], other.members[0]),))

    def to_json(self) -> dict:
        return {"shape": self.shape, "members": [m.to_json() for m in self.members]}


class NeutroTriple(_Frozen):
    """Homogeneous (T, I, F) triple."""

    __slots__ = __match_args__ = ("t", "i", "f")

    def __init__(self, t: Component, i: Component, f: Component):
        if not (type(t) is type(i) is type(f)):
            raise ShapeMismatch(
                "triple components must share one shape, got "
                f"{type(t).__name__}/{type(i).__name__}/{type(f).__name__}"
            )
        for c in (t, i, f):
            if not isinstance(c, Component):
                raise TypeError("triple fields must be components")
        self.__setstate__((t, i, f))

    @classmethod
    def _of(cls, t: Component, i: Component, f: Component) -> "NeutroTriple":
        """Trusted: three components of one class, as the checks above ask."""
        self = object.__new__(cls)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "f", f)
        return self

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

    def __init__(self, psi: Fraction, omega: Fraction):
        psi, omega = as_fraction(psi), as_fraction(omega)
        if not (psi <= 0 < 1 <= omega):
            raise InvalidBounds("bounds must satisfy psi <= 0 < 1 <= omega")
        self.__setstate__((psi, omega))


UNIT_BOUNDS = OffsetBounds(Fraction(0), Fraction(1))


class ComponentBounds(_Frozen):
    __slots__ = __match_args__ = ("inf", "sup")

    def __init__(self, inf: NsNumber, sup: NsNumber):
        self.__setstate__((inf, sup))


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

    def __init__(self, where: str, message: str):  # where: "t" | "i" | "f" | "sum"
        self.__setstate__((where, message))


class ValidationReport(_Frozen):
    __slots__ = __match_args__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[Violation, ...] = ()):
        self.__setstate__((ok, violations))


_PASSED = ValidationReport(ok=True)


def validate(x: NeutroTriple, bounds: OffsetBounds = UNIT_BOUNDS) -> ValidationReport:
    """Check component ranges and the triple sum against the bounds.

    Violations are reported, never raised; offset data is legitimate
    input and the caller decides what to do with a failing report.

    A triple whose components' extremes all lie in [psi, omega] passes:
    its least sum is then at least 3 psi, and its greatest at most 3
    omega.  That test runs on integer cross-products (denominators are
    positive) and stops at the first extreme outside.  Only a failing
    triple is reported, value by value, then its sums from `triple_sums`.
    """
    _check_type("x", x, NeutroTriple)
    _check_type("bounds", bounds, OffsetBounds)
    psi, omega = bounds.psi, bounds.omega
    pn, pd = psi.as_integer_ratio()
    on, od = omega.as_integer_ratio()
    for c in (x.t, x.i, x.f):
        _, lo, hi = c.value_range()
        (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
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
    if scale not in ("unit", "percent"):
        raise ValueError("scale must be 'unit' or 'percent'")
    degrees = []
    for name, v in (("t", t), ("i", i), ("f", f)):
        try:
            degrees.append(as_fraction(v))
        except TypeError:
            raise TypeError(f"{name} must be a number, got {v!r}") from None
    t, i, f = degrees
    if scale == "percent":
        t, i, f = t / 100, i / 100, f / 100
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


def truth_grade(x: NsNumber, role: Role) -> TruthGrade:
    """Grade a degree as absolute (all worlds) or relative (some world).

    Truth peaks at 1: the right monad of 1 exceeds every world's truth,
    the standard 1 is truth in at least one world.  Falsity and
    indeterminacy grade at their floor 0, where the left monad dips
    below every world's degree.
    """
    _check_type("x", x, NsNumber)
    _check_type("role", role, Role)
    if role is Role.T:
        if x.kind is MonadKind.RIGHT and x.value == 1:
            return TruthGrade.ABSOLUTE_TRUTH
        if x.kind is MonadKind.STD and x.value == 1:
            return TruthGrade.RELATIVE_TRUTH
        return TruthGrade.ORDINARY
    if x.kind is MonadKind.LEFT and x.value == 0:
        return TruthGrade.ABSOLUTE_NEGATIVE
    if x.kind is MonadKind.STD and x.value == 0:
        return TruthGrade.RELATIVE_NEGATIVE
    return TruthGrade.ORDINARY


def scale_triple(x: NeutroTriple, factor) -> NeutroTriple:
    """Multiply every degree by a positive factor; decorations stay put.

    Used to canonicalize percent-scale input onto the unit scale.
    """
    _check_type("x", x, NeutroTriple)
    q = as_fraction(factor)
    if q <= 0:
        raise ValueError("scale factor must be positive")
    # Each component keeps its class, so the shapes still agree.
    return NeutroTriple._of(x.t.scaled(q), x.i.scaled(q), x.f.scaled(q))
