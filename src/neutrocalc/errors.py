"""Exception types, and the one argument type check, shared across the package."""

from __future__ import annotations

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
