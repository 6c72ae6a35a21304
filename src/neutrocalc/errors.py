"""Exception types, the one argument type check, and `_Frozen`, the one
base of the immutable value classes, shared across the package.

A value class names its fields once, ``__slots__ = __match_args__ =
(...)``.  From those names `_Frozen` builds, once per class, the reader of
the field tuple and the writers of the fields, the slots' own descriptors,
and from the writers the two ways to store them.  A public ``__init__``
checks and coerces its arguments, then stores them with
``self.__setstate__``.  The generated ``cls._of(*fields)`` builds a value
from fields that the library built itself, and checks nothing.
`_Frozen` reads the fields in that order for ``==`` (same class only),
``hash`` (of the field tuple), ``repr``, ``pickle`` and ``copy``, and
refuses to assign or delete a field.  Instances have no ``__dict__`` and
take no weak references.
"""

from __future__ import annotations

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


def _trusted(puts: list):
    """cls._of(*fields), which stores the fields of a new cls instance
    through puts, the writers in field order, unchecked.  One body for
    one field and one for two, the most common counts, and a loop past
    two."""
    new = object.__new__
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

    else:

        def _of(cls, *values):
            self = new(cls)
            for put, value in zip(puts, values):
                put(self, value)
            return self

    return classmethod(_of)


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
        # A slot's own descriptor stores past the refusing __setattr__.
        puts = [cls.__dict__[name].__set__ for name in names]
        cls._of = _trusted(puts)

        def __setstate__(self, state):
            if isinstance(state, dict):  # pickled by the dataclass forms of these classes
                state = [state[name] for name in names]
            for put, value in zip(puts, state):
                put(self, value)

        cls.__setstate__ = __setstate__

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

    def __getstate__(self):
        return self._values(self)


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
