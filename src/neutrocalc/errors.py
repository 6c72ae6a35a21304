"""Exception types, the three argument refusals, and `_Frozen`, the one
base of the immutable value classes, shared across the package.

A wrong-typed public argument is refused with a TypeError that starts
with the parameter's name, by one of three readers: `_check_type` for a
value of one class, `_items` for an iterable read as a tuple, which
names the iterable or its first wrong element (``values[1]``), and
`monads._number` for a number, which is `monads.as_fraction` naming the
parameter: ``value must be a number, got None``.

A value class names its fields once, ``__slots__ = __match_args__ =
(...)``.  From those names `_Frozen` builds, once per class, the reader of
the field tuple and ``cls._of(*fields)``, made by `_trusted`, which
stores the fields of a new instance through the slots' own descriptors
and checks nothing; it has one body for one field, one for two and one
for three, the counts of the hot classes, and a loop past three.  A
class whose fields are not its slots writes its own ``_of``:
`triples.Hesitant`, which keeps its ``values`` as integer numerators over
one denominator; its ``_of`` and every set form end in
`triples._reduced`, which stores those two slots through
``_trusted(Hesitant, Hesitant.__slots__)``.  So `_trusted` is the one
code that makes a frozen value past its checks, and a field is set only
there.  A public constructor is a ``__new__`` that checks and coerces
its arguments, then returns ``cls._of(...)``; the library builds the
values it computed itself through ``_of`` directly.
No value class defines ``__init__``, so ``x.__init__(...)`` is
``object.__init__`` and changes nothing, as for ``tuple`` and
``Fraction``.  `_Frozen` reads the fields in order for ``==`` (same
class only), ``hash`` (of the field tuple) and ``repr``, and refuses to
assign or delete a field.  Its ``__reduce__`` pickles and copies a value
as its class and fields, so unpickling and ``copy`` rebuild it through
the checked public constructor.  A formula tree instead pickles as its
flat form, which `formula._rebuild` reads back through the same
constructors.  The two older pickle formats, the dataclass forms' dict
state and the field tuple state that came before ``__reduce__``, are
refused and build nothing: they call
``cls.__new__(cls)`` without arguments, which raises TypeError, and
for `OperatorConfig`, whose arguments all have defaults, pickle finds no
``__setstate__`` or ``__dict__`` to load the state into.  Instances have
no ``__dict__`` and take no weak references.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter

__all__ = [
    "NeutroCalcError",
    "IncomparableOperands",
    "InvalidInterval",
    "InvalidBounds",
    "EmptySet",
    "EmptyComponent",
    "ShapeMismatch",
    "UnsupportedNonstandardConfig",
    "UnboundIdentifier",
    "BoundsViolation",
    "FormulaSyntaxError",
    "ArityError",
]


def _check_type(field: str, value, kind, name: str | None = None) -> None:
    """Raise TypeError, naming the field, unless value is a kind: a class,
    or a Union of classes that `name` names."""
    if not isinstance(value, kind):
        raise TypeError(f"{field} must be a {name or kind.__name__}, got {value!r}")


def _items(field: str, values, kinds: frozenset | None, name: str) -> tuple:
    """values as a tuple, once every element is an instance of one of kinds,
    classes that `name` names; kinds None admits every element.  A
    TypeError names `field` for a str, bytes or non-iterable, and
    `field[k]` for the first element of another class.  values is read
    first; the common case, every element of the classes themselves, is
    then one set test over their types."""
    if not isinstance(values, (str, bytes)):
        try:
            items = tuple(values)
        except TypeError:
            if isinstance(values, Iterable):  # raised while iterating
                raise
        else:
            if kinds is not None and not kinds.issuperset(map(type, items)):
                for k, x in enumerate(items):
                    _check_type(f"{field}[{k}]", x, tuple(kinds), name)
            return items
    raise TypeError(f"{field} must be an iterable of {name}, not {type(values).__name__}")


def _trusted(owner: type, names):
    """``_of(cls, *fields)``: a new cls instance, cls being owner or a
    subclass of it, with the fields stored unchecked through the
    descriptors of owner's slots `names`, in order; a slot's own
    descriptor stores past the refusing __setattr__.  One body each for
    one, two and three fields, the most common counts, and a loop past
    three."""
    new = object.__new__
    puts = [owner.__dict__[name].__set__ for name in names]
    if len(puts) == 1:
        (put,) = puts

        def _of(cls, value):
            self = new(cls)
            put(self, value)
            return self

    elif len(puts) == 2:
        put_1, put_2 = puts

        def _of(cls, value_1, value_2):
            self = new(cls)
            put_1(self, value_1)
            put_2(self, value_2)
            return self

    elif len(puts) == 3:
        put_1, put_2, put_3 = puts

        def _of(cls, value_1, value_2, value_3):
            self = new(cls)
            put_1(self, value_1)
            put_2(self, value_2)
            put_3(self, value_3)
            return self

    else:

        def _of(cls, *values):
            self = new(cls)
            for put, value in zip(puts, values):
                put(self, value)
            return self

    return _of


class _Frozen:
    """Base of the immutable value classes; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__dict__.get("__match_args__")
        if not names:
            return
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda x: (get(x),))
        if "_of" not in cls.__dict__:  # a class whose fields are not its slots writes its own
            cls._of = classmethod(_trusted(cls, names))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __reduce__(self):
        return type(self), self._values(self)


class NeutroCalcError(Exception):
    """Base class for every error raised by this package."""


class IncomparableOperands(NeutroCalcError):
    """min/max requested for a pair the neutrosophic order cannot rank."""


class InvalidInterval(NeutroCalcError):
    """Interval endpoints are not in non-decreasing neutrosophic order."""


class InvalidBounds(NeutroCalcError, ValueError):
    """Offset bounds that do not satisfy psi <= 0 < 1 <= omega."""


class EmptySet(NeutroCalcError):
    """inf/sup requested over an empty collection."""


class EmptyComponent(NeutroCalcError):
    """A component shape that requires members was given none."""


class ShapeMismatch(NeutroCalcError):
    """Triple components (or two operand triples) do not share one shape."""


class UnsupportedNonstandardConfig(NeutroCalcError):
    """Connective configuration not defined for nonstandard operands."""


class UnboundIdentifier(NeutroCalcError):
    """A formula references an identifier with no binding."""

    def __init__(self, name: str):
        super().__init__(f"identifier {name!r} has no binding")
        self.name = name


class BoundsViolation(NeutroCalcError):
    """An input triple falls outside the active offset bounds."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class FormulaSyntaxError(NeutroCalcError):
    """Formula text rejected by the grammar.

    offset is the 1-based character position of the offending token;
    expected lists the token descriptions that would have been accepted.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        super().__init__(f"{message} (at position {offset})")
        self.offset = offset
        self.expected = expected


class ArityError(FormulaSyntaxError):
    """A triple literal does not have exactly three components."""
