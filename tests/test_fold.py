"""`evaluate`'s plan fold against a per-node fold of the public connectives.

`evaluate` admits the literals and bindings once, takes each connective's
operator row from `connectives._row` once per operand shape in a request
(the bare kernels under psi = 0, omega = 1, where every admitted degree
lies in [0, 1], and the clamping kernels under widened bounds), and then
applies those rows.  The reference below is the fold it replaced: `validate`
on every literal, then every binding, and then `conj`/`disj`/`impl`/`neg`
per node, each public connective clamping its standard operands, which
leaves a degree in [0, 1] as it is and warns nothing.  Both must agree
on the result, on the sequence of clamp warnings, and on the type and
message of any error.
"""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutrocalc import (
    And,
    BoundsViolation,
    ClampWarning,
    EvalRequest,
    Hesitant,
    IntervalValued,
    Literal,
    MonadKind,
    NeutroTriple,
    Nonstandard,
    Not,
    NsNumber,
    OffsetBounds,
    OperatorConfig,
    OperatorFamily,
    Or,
    ShapeMismatch,
    SingleValued,
    TNormFamily,
    UNIT_BOUNDS,
    UnboundIdentifier,
    Var,
    conj,
    disj,
    evaluate,
    format_triple,
    impl,
    neg,
    parse,
    scale_triple,
    validate,
)
from neutrocalc.formula import _postorder

ALL_CONFIGS = [OperatorConfig(f, k) for f in OperatorFamily for k in TNormFamily]
PERCENT = Fraction(1, 100)


def reference_evaluate(req: EvalRequest) -> NeutroTriple:
    """The per-node fold over the public connectives."""
    nodes = _postorder(parse(req.formula))

    def canon(tr):
        return scale_triple(tr, PERCENT) if req.scale == "percent" else tr

    names = dict.fromkeys(node.name for node in nodes if isinstance(node, Var))
    if unbound := [name for name in names if name not in req.bindings]:
        raise UnboundIdentifier(unbound[0])
    bindings = {name: canon(req.bindings[name]) for name in names}

    literals = [canon(node.value) for node in nodes if isinstance(node, Literal)]
    for source, tr in [("literal", tr) for tr in literals] + [
        (f"binding {name!r}", tr) for name, tr in bindings.items()
    ]:
        report = validate(tr, req.bounds)
        if not report.ok:
            detail = "; ".join(f"{v.where}: {v.message}" for v in report.violations)
            raise BoundsViolation(
                f"{source} {format_triple(tr)} outside active bounds: {detail}", report
            )

    admitted = iter(literals)
    values = []
    for node in nodes:
        if isinstance(node, Literal):
            values.append(next(admitted))
        elif isinstance(node, Var):
            values.append(bindings[node.name])
        elif isinstance(node, Not):
            values[-1] = neg(values[-1])
        else:
            op = conj if isinstance(node, And) else disj if isinstance(node, Or) else impl
            y = values.pop()
            values[-1] = op(values[-1], y, req.config)
    return values[0]


def outcome(fn, req):
    """The result or the error, and the clamp warnings, of fn(req)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(req)
            got = ("value", result, format_triple(result))
        except Exception as exc:  # compared by type and message
            got = ("error", type(exc), str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


# Degrees on a 1/1000 grid, so that every literal prints as a finite
# decimal; about one in six falls outside [0, 1], and some of those
# outside the wide bounds below.
_unit = st.integers(0, 1000).map(lambda k: Fraction(k, 1000))
_wide = st.integers(-800, 1800).map(lambda k: Fraction(k, 1000))
degrees = st.one_of(_unit, _unit, _unit, _wide)


def _component(shape):
    if shape == "single":
        return st.builds(SingleValued, degrees)
    if shape == "interval":
        return st.lists(degrees, min_size=2, max_size=2).map(lambda p: IntervalValued(*sorted(p)))
    if shape == "hesitant":
        return st.builds(Hesitant, st.lists(degrees, min_size=1, max_size=3))
    # one decorated number: bimonads reach the connective and are refused there
    return st.builds(Nonstandard, st.builds(NsNumber, degrees, st.sampled_from(list(MonadKind))))


TRIPLES = {
    shape: st.builds(NeutroTriple, *[_component(shape)] * 3)
    for shape in ("single", "interval", "hesitant", "nonstandard")
}

BOUNDS = st.sampled_from(
    [UNIT_BOUNDS, OffsetBounds(Fraction(-1, 2), Fraction(3, 2)), OffsetBounds(-1, 2)]
)


@st.composite
def requests(draw, config):
    """A formula of 2-5 leaves of one shape, or now and then of another,
    with literals and bound identifiers, on the unit or the percent scale."""
    shape = draw(st.sampled_from(list(TRIPLES)))
    scale = draw(st.sampled_from(["unit", "percent"]))
    factor = 100 if scale == "percent" else 1

    def leaf_triple():
        other = draw(st.sampled_from(list(TRIPLES))) if draw(st.integers(0, 9)) == 0 else shape
        return scale_triple(draw(TRIPLES[other]), factor)

    bindings = {name: leaf_triple() for name in draw(st.sets(st.sampled_from("xyz")))}
    items = []
    for _ in range(draw(st.integers(2, 5))):
        if bindings and draw(st.booleans()):
            text = draw(st.sampled_from(sorted(bindings)))
        else:
            text = format_triple(leaf_triple())
        items.append(draw(st.sampled_from(["", "", "!", "!!"])) + text)
    while len(items) > 1:
        k = draw(st.integers(0, len(items) - 2))
        op = draw(st.sampled_from(["&", "|", "->"]))
        neg_prefix = draw(st.sampled_from(["", "", "!"]))
        items[k : k + 2] = [f"{neg_prefix}({items[k]} {op} {items[k + 1]})"]
    return EvalRequest(items[0], config, scale, draw(BOUNDS), bindings)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: f"{c.family.value}-{c.tnorm.value}")
@settings(max_examples=60)
@given(data=st.data())
def test_evaluate_matches_the_per_node_fold(config, data):
    req = data.draw(requests(config))
    assert outcome(evaluate, req) == outcome(reference_evaluate, req)


# The domain rule at its edges, under --psi -0.5 --omega 2.
WIDE = OffsetBounds(Fraction(-1, 2), 2)


def _warnings_of(req):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = evaluate(req)
    return result, [str(w.message) for w in caught if w.category is ClampWarning]


def test_a_negated_offset_leaf_stays_offset():
    result, notes = _warnings_of(EvalRequest("!<1.2,0,0> & <0.5,0.2,0.1>", bounds=WIDE))
    assert format_triple(result) == "<0, 0.2, 1>"
    assert notes == ["degree 1.2 clamped into [0, 1] for kernel application"]


def test_a_binary_result_is_never_offset():
    # Only the inner node sees the offset leaf; its result is in [0, 1].
    result, notes = _warnings_of(EvalRequest("(<1.2,0,0> | <0.5,0,0>) & <0.3,0,0>", bounds=WIDE))
    assert format_triple(result) == "<0.3, 0, 0>"
    assert notes == ["degree 1.2 clamped into [0, 1] for kernel application"]


def test_an_offset_binding_clamps():
    req = EvalRequest("x & <0.5,0,0>", bounds=WIDE, bindings={"x": NeutroTriple.single(0, 0, -0.25)})
    result, notes = _warnings_of(req)
    assert format_triple(result) == "<0, 0, 0>"
    assert notes == ["degree -0.25 clamped into [0, 1] for kernel application"]


def test_a_bounds_violation_precedes_a_later_shape_mismatch():
    text = "<[0,1],[0,0],[0,0]> & <2.5,0,0>"
    with pytest.raises(BoundsViolation) as info:
        evaluate(EvalRequest(text, bounds=WIDE))
    assert str(info.value).startswith("literal <2.5, 0, 0> outside active bounds: t: value 2.5")
    with pytest.raises(ShapeMismatch):
        evaluate(EvalRequest(text.replace("2.5", "1.5"), bounds=WIDE))
