"""The value classes: immutable and slotted, and compared, hashed, printed,
pickled and copied field by field, in the field order and with the reprs
of the frozen dataclasses they replaced."""

import copy
import pickle
import re
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
    UNIT_BOUNDS,
    Var,
    anomaly_check,
    format_triple,
    left,
    parse,
    right,
    std,
    validate,
)
from neutrocalc.errors import _Frozen
from neutrocalc.formula import _rebuild

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
    if not isinstance(x, (Not, And, Or, Implies)):  # trees hash their flat form
        assert hash(x) == hash(_fields(x, fields))
    if hashed is not None:
        assert hash(x) == hashed


def test_fields_in_the_dataclass_order(case):
    x, _, fields, _, _ = case
    assert type(x).__match_args__ == fields
    assert type(x)(**dict(zip(fields, _fields(x, fields)))) == x
    assert type(x)._of(*_fields(x, fields)) == x


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


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_unpickled_values_pass_the_checked_constructor(duplicate):
    with pytest.raises(TypeError, match=r"^operand must be a Formula, got 5$"):
        duplicate(Not._of(5))


def test_tree_pickles_of_class_and_fields_still_load():
    # pickle.dumps(tree, 4) and pickle.dumps(tree, 0) as each node pickled
    # its class and fields, before trees pickled their flat form.
    x, y, z = Var("x"), Var("y"), Var("z")
    tree = And(x, Not(Implies(y, Or(x, z))))
    binary = (
        b"\x80\x04\x95}\x00\x00\x00\x00\x00\x00\x00\x8c\x12neutrocalc.formula\x94\x8c\x03And"
        b"\x94\x93\x94h\x00\x8c\x03Var\x94\x93\x94\x8c\x01x\x94\x85\x94R\x94h\x00\x8c\x03Not"
        b"\x94\x93\x94h\x00\x8c\x07Implies\x94\x93\x94h\x04\x8c\x01y\x94\x85\x94R\x94h\x00"
        b"\x8c\x02Or\x94\x93\x94h\x04h\x05\x85\x94R\x94h\x04\x8c\x01z\x94\x85\x94R\x94\x86"
        b"\x94R\x94\x86\x94R\x94\x85\x94R\x94\x86\x94R\x94."
    )
    text = (
        b"cneutrocalc.formula\nAnd\np0\n(cneutrocalc.formula\nVar\np1\n(Vx\np2\ntp3\nRp4\n"
        b"cneutrocalc.formula\nNot\np5\n(cneutrocalc.formula\nImplies\np6\n(g1\n(Vy\np7\n"
        b"tp8\nRp9\ncneutrocalc.formula\nOr\np10\n(g1\n(g2\ntp11\nRp12\ng1\n(Vz\np13\n"
        b"tp14\nRp15\ntp16\nRp17\ntp18\nRp19\ntp20\nRp21\ntp22\nRp23\n."
    )
    assert pickle.loads(binary) == pickle.loads(text) == tree


@pytest.mark.parametrize(
    "flat, message",
    [
        ((), "flat form describes 0 formulas, expected 1"),
        ((Var("x"), Var("y")), "flat form describes 2 formulas, expected 1"),
        ((Var("x"), Var("y"), And, Var("z")), "flat form describes 2 formulas, expected 1"),
        ((5,), "flat form must be a Formula, got 5"),
        ((Not,), "Not.__new__() missing 1 required positional argument: 'operand'"),
        ((Var("x"), Or), "__new__() missing 1 required positional argument: 'right'"),
        ((Var("x"), 5, Implies), "right must be a Formula, got 5"),
        ((Var("x"), "x", Or), "right must be a Formula, got 'x'"),
    ],
)
def test_malformed_flat_forms_are_refused(flat, message):
    # A tree pickles and copies as its flat form, which _rebuild reads; a
    # flat form that describes anything but one Formula builds nothing.
    x = Var("x")
    assert And(x, Not(x)).__reduce__() == (_rebuild, ((x, x, Not, And),))
    with pytest.raises(TypeError, match=re.escape(message)):
        _rebuild(flat)


def _refused(*pickles: bytes) -> None:
    """Each pickle calls cls.__new__(cls) without arguments, which builds nothing."""
    for data in pickles:
        with pytest.raises(TypeError, match=r"__new__\(\) missing \d required positional argument"):
            pickle.loads(data)


def test_pickles_of_the_field_tuple_state_are_refused():
    # pickle.dumps(..., 4) of the classes as built on _Frozen with a field
    # tuple state, before __reduce__.
    bounds = (
        b"\x80\x04\x95[\x00\x00\x00\x00\x00\x00\x00\x8c\x12neutrocalc.triples\x94\x8c\x0c"
        b"OffsetBounds\x94\x93\x94)\x81\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94J\xff"
        b"\xff\xff\xffK\x02\x86\x94R\x94h\x06K\x02K\x01\x86\x94R\x94\x86\x94b."
    )
    tree = (
        b"\x80\x04\x95T\x00\x00\x00\x00\x00\x00\x00\x8c\x12neutrocalc.formula\x94\x8c\x03And"
        b"\x94\x93\x94)\x81\x94h\x00\x8c\x03Var\x94\x93\x94)\x81\x94\x8c\x01x\x94\x85\x94bh\x00"
        b"\x8c\x03Not\x94\x93\x94)\x81\x94h\x05)\x81\x94\x8c\x01y\x94\x85\x94b\x85\x94b\x86\x94b."
    )
    _refused(bounds, tree)


def test_field_tuple_pickles_are_refused_before_the_checked_constructor():
    # pickle.dumps(Not._of(5), 4) with the tuple state (5,) that _Frozen
    # pickled before __reduce__: refused before any field is read.
    malformed = (
        b"\x80\x04\x95&\x00\x00\x00\x00\x00\x00\x00\x8c\x12neutrocalc.formula\x94\x8c\x03Not"
        b"\x94\x93\x94)\x81\x94K\x05\x85\x94b."
    )
    _refused(malformed)
    assert not hasattr(Not, "__setstate__")


def test_pickles_of_the_dataclass_forms_are_refused():
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
    _refused(bounds, tree)


def test_trusted_constructors_of_one_two_three_and_more_fields():
    t, i, f = SingleValued(H), SingleValued(0), SingleValued(1)
    assert NeutroTriple._of(t, i, f) == NeutroTriple(t, i, f)
    assert OffsetBounds._of(Fraction(-1), Fraction(2)) == OffsetBounds(-1, 2)
    assert Var._of("x") == Var("x")
    request = EvalRequest._of("x", OperatorConfig(), "unit", OffsetBounds(0, 1), {})
    assert request == EvalRequest("x")


# name -> constructor arguments of another value of the class than VALUES builds.
OTHER_ARGS = {
    "NsNumber": (Fraction(1, 3),),
    "NsInterval": (std(0), std(1)),
    "AnomalyReport": (0, 2, "a", "b", (), (), ()),
    "SingleValued": (0,),
    "IntervalValued": (0, 1),
    "Hesitant": ([0, 1],),
    "Nonstandard": ([right(0)],),
    "NeutroTriple": (SingleValued(0), SingleValued(0), SingleValued(0)),
    "OffsetBounds": (-1, 2),
    "ComponentBounds": (std(0), std(1)),
    "Violation": ("sum", "another message"),
    "ValidationReport": (True,),
    "Literal": (NeutroTriple.single(0, 0, 0),),
    "Var": ("y",),
    "Not": (Var("y"),),
    "And": (Var("y"), Var("x")),
    "Or": (Var("y"), Var("x")),
    "Implies": (Var("y"), Var("x")),
    "EvalRequest": ("y",),
    "OperatorConfig": (),
}


def _value_classes() -> list[type]:
    """Every subclass of _Frozen in neutrocalc that has fields."""
    found, todo = [], [_Frozen]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("neutrocalc.") and getattr(cls, "__match_args__", ()):
            found.append(cls)
    return found


def test_value_classes_define_no_init_or_setstate():
    classes = _value_classes()
    assert {c.__name__ for c in classes if not c.__name__.startswith("_")} == set(VALUES)
    for cls in classes:
        assert cls.__init__ is object.__init__, cls
        assert not hasattr(cls, "__setstate__"), cls


def test_init_on_a_value_changes_nothing(case):
    x, _, _, printed, _ = case
    args = OTHER_ARGS[type(x).__name__]
    assert type(x)(*args) != x
    hashed = None if isinstance(x, EvalRequest) else hash(x)
    x.__init__(*args)
    assert x == case[1]() and repr(x) == printed
    if hashed is not None:
        assert hash(x) == hashed


# Values the package keeps and hands out again, each rewritten through
# __init__ and then handed out: a memoised decorated component, the unit
# bounds, validate's passing report and EvalRequest's default configuration.
def test_init_on_a_memoised_component_changes_nothing():
    parse("<L(0.5),0,0>").value.t.__init__([right(0.9)])
    assert format_triple(parse("<L(0.5),0,0>").value) == "<L(0.5), 0, 0>"


def test_init_on_the_unit_bounds_changes_nothing():
    UNIT_BOUNDS.__init__(-1, 2)
    assert UNIT_BOUNDS == OffsetBounds(0, 1)
    assert not validate(NeutroTriple.single(-1, 0, 0)).ok


def test_init_on_the_passing_report_changes_nothing():
    passing = NeutroTriple.single(H, 0, 0)
    validate(passing).__init__(False, ())
    assert validate(passing).ok and validate(passing).violations == ()


def test_init_on_the_default_config_changes_nothing():
    EvalRequest("x").config.__init__(OperatorFamily.PLITHOGENIC, TNormFamily.PRODUCT)
    assert EvalRequest("x").config == OperatorConfig()
