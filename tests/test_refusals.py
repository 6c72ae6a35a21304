"""Every public name refuses a wrong-typed argument in every parameter.

Each name in `neutrocalc.__all__` has either a row of valid sample
arguments, one per parameter of its signature, or an exemption with its
reason.  Each parameter in turn takes `object()` and `None`; the call
must raise a `NeutroCalcError`, or a `TypeError` or `ValueError` whose
message starts with that parameter's name, within 2 s.  A `TypeError`
takes one of the package's two refusal forms: `<name> must be a <class>,
got <value>`, or `<name> must be an iterable of <classes>, not <type>`.
"""

import inspect
import re
import signal
from fractions import Fraction
from types import SimpleNamespace

import pytest

import neutrocalc
from neutrocalc import (
    UNIT_BOUNDS,
    UNIT_INTERVAL,
    EvalRequest,
    MonadKind,
    NeutroCalcError,
    NeutroTriple,
    OperatorConfig,
    OperatorFamily,
    Role,
    SingleValued,
    TNormFamily,
    Var,
    compare_ns,
    contains,
    left,
    max_ns,
    min_ns,
    right,
    std,
)

T = NeutroTriple.single(Fraction(1, 2), 0, Fraction(1, 4))
X, Y = Var("x"), Var("y")

# name -> valid arguments, one per parameter of its signature, in order.
ROWS = {
    "OperatorConfig": (OperatorFamily.T_ALIGNED, TNormFamily.PRODUCT),
    "tnorm": (0.5, 0.25, TNormFamily.PRODUCT),
    "tconorm": (0.5, 0.25, TNormFamily.LUKASIEWICZ),
    "neg": (T,),
    "conj": (T, T, OperatorConfig()),
    "disj": (T, T, OperatorConfig()),
    "impl": (T, T, OperatorConfig()),
    "Literal": (T,),
    "Var": ("x",),
    "Not": (X,),
    "And": (X, Y),
    "Or": (X, Y),
    "Implies": (X, Y),
    "parse": ("<1, 0, 0> & x",),
    "parse_nsnumber": ("L(0.5)",),
    "unparse": (X,),
    "format_triple": (T,),
    "free_identifiers": (X,),
    "EvalRequest": ("x", OperatorConfig(), "unit", UNIT_BOUNDS, {"x": T}),
    "evaluate": (EvalRequest("<1, 0, 0>"),),
    "NsInterval": (std(0), right(1)),
    "contains": (UNIT_INTERVAL, std(Fraction(1, 2))),
    "inf_ns": (UNIT_INTERVAL,),
    "sup_ns": (UNIT_INTERVAL,),
    "inf_ns_set": ([std(0), left(1)],),
    "sup_ns_set": ([std(0), left(1)],),
    "rough_contains": (0, 1, std(Fraction(1, 2))),
    "anomaly_check": (0, 1, [std(Fraction(1, 2))]),
    "NsNumber": (Fraction(1, 2), MonadKind.LEFT),
    "as_fraction": ("0.5",),
    "std": (0.5,),
    "left": (0.5,),
    "right": (0.5,),
    "bimonad": (0.5,),
    "compare_ns": (std(0), left(1)),
    "equal_ns": (std(0), left(1)),
    "infinitely_close": (std(0), left(1)),
    "roughly_leq": (std(0), left(1)),
    "min_ns": (std(0), left(1)),
    "max_ns": (std(0), left(1)),
    "add_ns": (std(0), left(1)),
    "SingleValued": (0.5,),
    "IntervalValued": (0.25, 0.5),
    "Hesitant": ([0.5, 0.25],),
    "Nonstandard": ([left(0.5)],),
    "NeutroTriple": (SingleValued(1), SingleValued(0), SingleValued(0)),
    "OffsetBounds": (-1, 2),
    "triple_sums": (T,),
    "validate": (T, UNIT_BOUNDS),
    "classify_logic": (1, 0, 0, "unit"),
    "truth_grade": (right(1), Role.T),
    "scale_triple": (T, Fraction(1, 100)),
}

_ENUM = "an Enum: its members are looked up, never built from arguments"
_ERROR = "an exception or warning class, raised by the package"
_RECORD = "a result record, built by the package from values it computed"
EXEMPT = {
    **dict.fromkeys(
        ["TNormFamily", "OperatorFamily", "MonadKind", "OrderRelation", "Role", "TruthGrade"],
        _ENUM,
    ),
    **dict.fromkeys(
        [
            "ClampWarning",
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
        ],
        _ERROR,
    ),
    "UNIT_BOUNDS": "a constant, not callable",
    "UNIT_INTERVAL": "a constant, not callable",
    "Formula": "a Union of the node classes, which have rows, not callable",
    "Component": "the abstract base of the four shapes, which have rows",
    **dict.fromkeys(["ComponentBounds", "Violation", "ValidationReport", "AnomalyReport"], _RECORD),
}


def test_every_public_name_has_a_row_or_an_exemption():
    public = set(neutrocalc.__all__)
    assert not set(ROWS) & set(EXEMPT)
    assert public - set(ROWS) - set(EXEMPT) == set(), "public names with no row and no exemption"
    assert set(ROWS) | set(EXEMPT) == public, "rows or exemptions for names that are not public"


def _parameters(name: str) -> list[str]:
    return list(inspect.signature(getattr(neutrocalc, name)).parameters)


@pytest.mark.parametrize("name", ROWS)
def test_row_is_valid_and_fills_every_parameter(name):
    assert len(ROWS[name]) == len(_parameters(name))
    getattr(neutrocalc, name)(*ROWS[name])


class _OverTime(Exception):
    pass


def _over_time(signum, frame):
    raise _OverTime


CASES = [
    (name, k, bad)
    for name in ROWS
    for k in range(len(ROWS[name]))
    for bad in (object(), None)
]


@pytest.mark.parametrize(
    "name, k, bad",
    CASES,
    ids=[f"{name}-{_parameters(name)[k]}-{type(bad).__name__}" for name, k, bad in CASES],
)
def test_wrong_type_is_refused_naming_the_parameter(name, k, bad):
    field = _parameters(name)[k]
    args = list(ROWS[name])
    args[k] = bad
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.alarm(2)
    try:
        getattr(neutrocalc, name)(*args)
    except NeutroCalcError:
        return
    except (TypeError, ValueError) as e:
        error, message = e, str(e)
    else:
        pytest.fail(f"{name} returned a result with {bad!r} for {field}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert message.startswith(f"{field} must be "), message
    if isinstance(error, TypeError):
        value, kind = re.escape(repr(bad)), type(bad).__name__
        refusal = rf"{field} must be (a .+, got {value}|an iterable of .+, not {kind})"
        assert re.fullmatch(refusal, message), message


@pytest.mark.xfail(strict=True, reason="ROADMAP item 0")
def test_a_duck_typed_operand_is_refused_naming_the_parameter():
    """An object with `value` and `kind` but no NsNumber is refused as
    `compare_ns(1, 2)` is; today the type checks run only after a failed
    read, so these four rank it."""
    d = SimpleNamespace(value=0.1, kind=MonadKind.STD)
    calls = [
        lambda: compare_ns(d, std("0.1")),
        lambda: min_ns(d, std(1)),
        lambda: max_ns(d, std(-1)),
        lambda: contains(UNIT_INTERVAL, d),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=r"^x must be a NsNumber, got namespace\("):
            call()
