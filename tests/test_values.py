"""The value classes: immutable and slotted, and compared, hashed, printed,
pickled and copied field by field, in the field order and with the reprs
of the frozen dataclasses they replaced."""

import copy
import pickle
from fractions import Fraction

import pytest

from neutrocalc import (
    And,
    EvalRequest,
    Hesitant,
    Implies,
    IntervalValued,
    Literal,
    NeutroTriple,
    Nonstandard,
    Not,
    NsInterval,
    OffsetBounds,
    OperatorConfig,
    OperatorFamily,
    Or,
    SingleValued,
    TNormFamily,
    Var,
    anomaly_check,
    left,
    parse,
    right,
    std,
    validate,
)

H = Fraction(1, 2)
_T = "NeutroTriple(t=SingleValued(value=Fraction(1, 1)), i=SingleValued(value=Fraction(1, 2)), "
_T += "f=SingleValued(value=Fraction(0, 1)))"
_V = "Violation(where='t', message='value 2 above upper bound 1')"

# name -> (build, fields in the dataclass order, repr, hash or None), the
# reprs and hashes as the dataclass forms gave them.  A hash is pinned only
# where it involves no str and no enum, whose hashes vary between runs.
VALUES = {
    "NsNumber": (
        lambda: left(H),
        ("value", "kind"),
        "NsNumber(value=Fraction(1, 2), kind=<MonadKind.LEFT: 'left'>)",
        None,
    ),
    "NsInterval": (
        lambda: NsInterval(std(0), right(H)),
        ("lo", "hi"),
        "NsInterval(lo=NsNumber(value=Fraction(0, 1), kind=<MonadKind.STD: 'std'>), "
        "hi=NsNumber(value=Fraction(1, 2), kind=<MonadKind.RIGHT: 'right'>))",
        None,
    ),
    "AnomalyReport": (
        lambda: anomaly_check(0, 1, [std(H), right(2)]),
        (
            "lower",
            "upper",
            "outer_notation",
            "inner_notation",
            "probes",
            "outer_membership",
            "inner_membership",
        ),
        "AnomalyReport(lower=Fraction(0, 1), upper=Fraction(1, 1), outer_notation=']0, R(1)[', "
        "inner_notation=']R(0), L(1)[', probes=(NsNumber(value=Fraction(1, 2), "
        "kind=<MonadKind.STD: 'std'>), NsNumber(value=Fraction(2, 1), "
        "kind=<MonadKind.RIGHT: 'right'>)), outer_membership=(True, False), "
        "inner_membership=(True, False))",
        None,
    ),
    "SingleValued": (
        lambda: SingleValued(H),
        ("value",),
        "SingleValued(value=Fraction(1, 2))",
        -408149959306781352,
    ),
    "IntervalValued": (
        lambda: IntervalValued(Fraction(1, 4), H),
        ("lo", "hi"),
        "IntervalValued(lo=Fraction(1, 4), hi=Fraction(1, 2))",
        6465709369359159947,
    ),
    "Hesitant": (
        lambda: Hesitant([H, Fraction(1, 5), H]),
        ("values",),
        "Hesitant(values=(Fraction(1, 5), Fraction(1, 2)))",
        4943421590177327339,
    ),
    "Nonstandard": (
        lambda: Nonstandard([left(H), NsInterval(std(0), right(1))]),
        ("members",),
        "Nonstandard(members=(NsNumber(value=Fraction(1, 2), kind=<MonadKind.LEFT: 'left'>), "
        "NsInterval(lo=NsNumber(value=Fraction(0, 1), kind=<MonadKind.STD: 'std'>), "
        "hi=NsNumber(value=Fraction(1, 1), kind=<MonadKind.RIGHT: 'right'>))))",
        None,
    ),
    "NeutroTriple": (
        lambda: NeutroTriple.single(1, H, 0),
        ("t", "i", "f"),
        _T,
        -8137788049987251222,
    ),
    "OffsetBounds": (
        lambda: OffsetBounds(Fraction(-1, 2), 2),
        ("psi", "omega"),
        "OffsetBounds(psi=Fraction(-1, 2), omega=Fraction(2, 1))",
        -4619969379719039048,
    ),
    "ComponentBounds": (
        lambda: SingleValued(H).bounds(),
        ("inf", "sup"),
        "ComponentBounds(inf=NsNumber(value=Fraction(1, 2), kind=<MonadKind.STD: 'std'>), "
        "sup=NsNumber(value=Fraction(1, 2), kind=<MonadKind.STD: 'std'>))",
        None,
    ),
    "Violation": (
        lambda: validate(NeutroTriple.single(2, 0, 0)).violations[0],
        ("where", "message"),
        _V,
        None,
    ),
    "ValidationReport": (
        lambda: validate(NeutroTriple.single(2, 0, 0)),
        ("ok", "violations"),
        f"ValidationReport(ok=False, violations=({_V},))",
        None,
    ),
    "Literal": (
        lambda: parse("<1, 0.5, 0>"),
        ("value",),
        f"Literal(value={_T})",
        8777777644820017818,
    ),
    "Var": (lambda: Var("x"), ("name",), "Var(name='x')", None),
    "Not": (lambda: Not(Var("x")), ("operand",), "Not(operand=Var(name='x'))", None),
    "And": (
        lambda: And(Var("x"), Not(Var("y"))),
        ("left", "right"),
        "And(left=Var(name='x'), right=Not(operand=Var(name='y')))",
        None,
    ),
    "Or": (
        lambda: Or(Var("x"), Var("y")),
        ("left", "right"),
        "Or(left=Var(name='x'), right=Var(name='y'))",
        None,
    ),
    "Implies": (
        lambda: Implies(Var("x"), Var("y")),
        ("left", "right"),
        "Implies(left=Var(name='x'), right=Var(name='y'))",
        None,
    ),
    "EvalRequest": (
        lambda: EvalRequest("x", bindings={"x": NeutroTriple.single(1, 0, 0)}),
        ("formula", "config", "scale", "bounds", "bindings"),
        "EvalRequest(formula='x', config=OperatorConfig(family=<OperatorFamily.F_ALIGNED: 'if'>, "
        "tnorm=<TNormFamily.MIN_MAX: 'minmax'>), scale='unit', "
        "bounds=OffsetBounds(psi=Fraction(0, 1), omega=Fraction(1, 1)), "
        "bindings={'x': NeutroTriple(t=SingleValued(value=Fraction(1, 1)), "
        "i=SingleValued(value=Fraction(0, 1)), f=SingleValued(value=Fraction(0, 1)))})",
        None,
    ),
    "OperatorConfig": (
        lambda: OperatorConfig(OperatorFamily.T_ALIGNED, TNormFamily.PRODUCT),
        ("family", "tnorm"),
        "OperatorConfig(family=<OperatorFamily.T_ALIGNED: 'ti'>, "
        "tnorm=<TNormFamily.PRODUCT: 'product'>)",
        None,
    ),
}


@pytest.fixture(params=VALUES)
def case(request):
    build, fields, printed, hashed = VALUES[request.param]
    x = build()
    assert type(x).__name__ == request.param
    return x, build, fields, printed, hashed


def _fields(x, fields):
    return tuple(getattr(x, name) for name in fields)


def test_repr_equality_and_hash_follow_the_fields(case):
    x, build, fields, printed, hashed = case
    assert repr(x) == printed
    assert x == build() and not x != build()
    assert x.__eq__(_fields(x, fields)) is NotImplemented
    if isinstance(x, EvalRequest):  # its bindings are a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
        return
    assert hash(x) == hash(build())
    if not isinstance(x, (Not, And, Or, Implies)):  # trees hash their flat signature
        assert hash(x) == hash(_fields(x, fields))
    if hashed is not None:
        assert hash(x) == hashed


def test_fields_in_the_dataclass_order(case):
    x, _, fields, _, _ = case
    assert type(x).__match_args__ == fields
    assert type(x)(**dict(zip(fields, _fields(x, fields)))) == x


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(case, protocol):
    x = case[0]
    again = pickle.loads(pickle.dumps(x, protocol))
    assert type(again) is type(x) and again == x and repr(again) == repr(x)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
def test_copy_round_trip(case, duplicate):
    x = case[0]
    again = duplicate(x)
    assert type(again) is type(x) and again == x and repr(again) == repr(x)


def test_fields_cannot_be_assigned_or_deleted(case):
    x, _, fields, printed, _ = case
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert repr(x) == printed
    assert not hasattr(x, "__dict__")


def test_same_fields_in_another_class_are_unequal():
    x, y = Var("x"), Var("y")
    assert And(x, y) != Or(x, y)
    assert IntervalValued(0, 1) != OffsetBounds(0, 1)
    assert Literal(NeutroTriple.single(1, 0, 0)) != NeutroTriple.single(1, 0, 0)


def test_eval_request_bindings_default_to_a_fresh_dict():
    a, b = EvalRequest("x"), EvalRequest("x")
    assert a.bindings == {} and a.bindings is not b.bindings
    with pytest.raises(TypeError, match="bindings must be a Mapping, got None"):
        EvalRequest("x", bindings=None)


def test_pickles_of_the_dataclass_forms_still_load():
    # pickle.dumps(..., 4) of the frozen dataclasses, whose state was a dict.
    bounds = (
        b"\x80\x04\x95k\x00\x00\x00\x00\x00\x00\x00\x8c\x12neutrocalc.triples\x94\x8c\x0c"
        b"OffsetBounds\x94\x93\x94)\x81\x94}\x94(\x8c\x03psi\x94\x8c\tfractions\x94\x8c\x08"
        b"Fraction\x94\x93\x94J\xff\xff\xff\xffK\x02\x86\x94R\x94\x8c\x05omega\x94h\x08K\x02"
        b"K\x01\x86\x94R\x94ub."
    )
    tree = (
        b"\x80\x04\x95{\x00\x00\x00\x00\x00\x00\x00\x8c\x12neutrocalc.formula\x94\x8c\x03And"
        b"\x94\x93\x94)\x81\x94}\x94(\x8c\x04left\x94h\x00\x8c\x03Var\x94\x93\x94)\x81\x94}"
        b"\x94\x8c\x04name\x94\x8c\x01x\x94sb\x8c\x05right\x94h\x00\x8c\x03Not\x94\x93\x94)"
        b"\x81\x94}\x94\x8c\x07operand\x94h\x07)\x81\x94}\x94h\n\x8c\x01y\x94sbsbub."
    )
    assert pickle.loads(bounds) == OffsetBounds(Fraction(-1, 2), 2)
    assert pickle.loads(tree) == And(Var("x"), Not(Var("y")))
