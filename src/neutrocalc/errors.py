"""Exception types, the one argument type check, and `_Frozen`, the one
base of the immutable value classes, shared across the package.

A value class names its fields once, ``__slots__ = __match_args__ =
(...)``.  Its own ``__init__`` checks the arguments and stores them with
``self.__setstate__``, or with the cheaper ``object.__setattr__`` per field
for one field or on the parser's path.  `_Frozen` reads the fields in that
order for ``==`` (same class only), ``hash`` (of the field tuple),
``repr``, ``pickle`` and ``copy``, and refuses to assign or delete a
field.  Instances have no ``__dict__`` and take no weak references.
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


class _Frozen:
    """Base of the immutable value classes; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__dict__.get("__match_args__")
        if names:  # the reader of the field tuple, built once per class
            get = attrgetter(*names)
            cls._values = staticmethod(get if len(names) > 1 else lambda x: (get(x),))

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

    def __setstate__(self, state):
        if isinstance(state, dict):  # pickled by the dataclass forms of these classes
            state = [state[name] for name in self.__match_args__]
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)


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
