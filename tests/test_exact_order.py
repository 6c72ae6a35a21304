"""The decorated order and rough membership stay exact off the grid.

The strategies of `strategies` draw values on a coarse grid of small
fractions.  These properties draw what that grid never holds: negative
values, values that round to the same float, and magnitudes past the
float range.  The order model of `oracles` is faithful only for values
further apart than its DELTA, so each property first maps every drawn
value to its rank among them, sorted by plain Fraction comparison: the
order of the values is kept and their gaps become 1, so `classify` rules
on the same question.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from neutrocalc import (
    Hesitant,
    IncomparableOperands,
    MonadKind,
    NeutroTriple,
    Nonstandard,
    NsInterval,
    NsNumber,
    OffsetBounds,
    OperatorConfig,
    OperatorFamily,
    OrderRelation,
    TNormFamily,
    add_ns,
    anomaly_check,
    compare_ns,
    conj,
    contains,
    disj,
    inf_ns_set,
    max_ns,
    min_ns,
    rough_contains,
    scale_triple,
    sup_ns_set,
    validate,
)
from neutrocalc.monads import _plain
from strategies import kinds, one_sided_kinds

AT_MOST = (OrderRelation.LT_N, OrderRelation.LE_N, OrderRelation.EQ_N)
BIG = 10**400

#: Values float cannot tell apart, or cannot hold at all.
EDGES = [
    Fraction(1),
    Fraction(10**20 + 1, 10**20),
    Fraction(10**20 - 1, 10**20),
    Fraction(BIG),
    Fraction(BIG + 1),
    Fraction(-BIG),
    Fraction(-BIG - 1),
    Fraction(1, BIG),
    Fraction(-1, BIG),
    Fraction(0),
]
values = st.one_of(
    st.sampled_from(EDGES),
    st.fractions(),
    st.integers(-5, 5).map(lambda k: Fraction(10**20 + k, 10**20)),
    st.integers(-5, 5).map(lambda k: Fraction(BIG + k)),
    st.integers(-5, 5).map(lambda k: Fraction(k, BIG)),
)
numbers = st.builds(NsNumber, values, kinds)
one_sided = st.builds(NsNumber, values, one_sided_kinds)
number_lists = st.lists(numbers, min_size=1, max_size=8)


def ranked(*groups):
    """Each group with every value replaced by its rank among all values drawn."""
    ranks = {v: k for k, v in enumerate(sorted({x.value for g in groups for x in g}))}
    return [[NsNumber(Fraction(ranks[x.value]), x.kind) for x in g] for g in groups]


def leq(x, y) -> bool:
    return oracles.classify(x, y) in AT_MOST


@given(numbers, numbers)
@example(NsNumber(EDGES[1]), NsNumber(EDGES[0]))
@example(NsNumber(Fraction(BIG)), NsNumber(Fraction(BIG + 1)))
def test_compare_matches_the_model_and_fraction_order(x, y):
    [[gx, gy]] = ranked([x, y])
    rel = compare_ns(x, y)
    assert rel is oracles.classify(gx, gy)
    if x.value < y.value:
        assert rel is OrderRelation.LT_N
    elif x.value > y.value:
        assert rel is OrderRelation.GT_N


@given(numbers, numbers)
def test_min_and_max_match_the_model(x, y):
    [[gx, gy]] = ranked([x, y])
    rel = oracles.classify(gx, gy)
    if rel is OrderRelation.INCOMPARABLE:
        for pick in (min_ns, max_ns):
            with pytest.raises(IncomparableOperands):
                pick(x, y)
    else:
        assert min_ns(x, y) is (x if leq(gx, gy) else y)
        assert max_ns(x, y) is (x if leq(gy, gx) else y)


@pytest.mark.parametrize("bound", [inf_ns_set, sup_ns_set])
@given(items=number_lists)
def test_inf_and_sup_match_the_model(bound, items):
    below = bound is inf_ns_set
    extreme = min(x.value for x in items) if below else max(x.value for x in items)
    result = bound(items)
    assert result.value == extreme
    # The greatest kind at the extreme below every item, or the least above.
    candidates = [NsNumber(extreme, k) for k in oracles.KINDS]
    grid, [g_result], g_candidates = ranked(items, [result], candidates)

    def fits(c):
        return all(leq(c, x) if below else leq(x, c) for x in grid)

    fitting = [c for c in g_candidates if fits(c)]
    best = [c for c in fitting if all(leq(d, c) if below else leq(c, d) for d in fitting)]
    assert [g_result] == best


@given(numbers, numbers, number_lists)
def test_contains_matches_the_model(a, b, probes):
    lo, hi = sorted([a, b], key=lambda x: x.value)
    [[g_lo, g_hi], g_probes] = ranked([lo, hi], probes)
    if not leq(g_lo, g_hi):
        return
    interval = NsInterval(lo, hi)
    for p, g in zip(probes, g_probes):
        member = contains(interval, p)
        assert member == (leq(g_lo, g) and leq(g, g_hi))
        if lo.value < p.value < hi.value:
            assert member


# Tie cells: the draws above meet equal values only by chance, so these
# cells run every tie branch of contains, min_ns and max_ns on every run.
HALF = Fraction(1, 2)
KIND_PAIRS = list(product(oracles.KINDS, oracles.KINDS))


def _name(*parts):
    return "-".join(p.value if isinstance(p, MonadKind) else str(p) for p in parts)


INTERVAL_CELLS = [
    (a, b, k_lo, k_hi)
    for a, b in ((Fraction(0), Fraction(0)), (Fraction(0), HALF))
    for k_lo, k_hi in KIND_PAIRS
    if leq(NsNumber(a, k_lo), NsNumber(b, k_hi))
]


@pytest.mark.parametrize(
    "a, b, k_lo, k_hi", INTERVAL_CELLS, ids=[_name(*cell) for cell in INTERVAL_CELLS]
)
def test_contains_matches_the_model_on_every_tie_cell(a, b, k_lo, k_hi):
    lo, hi = NsNumber(a, k_lo), NsNumber(b, k_hi)
    interval = NsInterval(lo, hi)
    # Below lo, at lo, between, at hi and above hi.
    for v in (a - HALF, a, (a + b) / 2, b, b + HALF):
        for kind in oracles.KINDS:
            p = NsNumber(v, kind)
            assert contains(interval, p) == (leq(lo, p) and leq(p, hi)), (interval, p)


#: Where the second operand's value lies against the first's.
OFFSETS = {"below": -HALF, "equal": Fraction(0), "above": HALF}
PICK_CELLS = [(kx, ky, where) for kx, ky in KIND_PAIRS for where in OFFSETS]


@pytest.mark.parametrize("kx, ky, where", PICK_CELLS, ids=[_name(*cell) for cell in PICK_CELLS])
def test_min_and_max_match_the_model_on_every_tie_cell(kx, ky, where):
    x, y = NsNumber(HALF, kx), NsNumber(HALF + OFFSETS[where], ky)
    if oracles.classify(x, y) is OrderRelation.INCOMPARABLE:
        for pick in (min_ns, max_ns):
            with pytest.raises(IncomparableOperands):
                pick(x, y)
    else:
        assert min_ns(x, y) is (x if leq(x, y) else y)
        assert max_ns(x, y) is (x if leq(y, x) else y)


@given(values, values, number_lists)
@example(EDGES[0], EDGES[1], [NsNumber(EDGES[1]), NsNumber(EDGES[2])])
@example(Fraction(BIG), Fraction(BIG + 1), [NsNumber(Fraction(BIG + 2)), NsNumber(-Fraction(BIG))])
def test_rough_membership_matches_fraction_order(a, b, probes):
    a, b = sorted([a, b])
    expected = tuple(a <= p.value <= b for p in probes)
    assert tuple(rough_contains(a, b, p) for p in probes) == expected
    if a < b:
        report = anomaly_check(a, b, probes)
        assert report.outer_membership == report.inner_membership == expected


def _members(draw_numbers, data):
    """A union of the drawn numbers, some of them widened to an interval."""
    members = []
    for x in draw_numbers:
        y = data.draw(numbers)
        lo, hi = sorted([x, y], key=lambda n: n.value)
        ordered = compare_ns(lo, hi) in AT_MOST
        members.append(NsInterval(lo, hi) if ordered and data.draw(st.booleans()) else x)
    return Nonstandard(members)


def _expected_report(components, psi, omega):
    """validate's violations, computed with plain Fraction comparisons."""
    out, low, high = [], Fraction(0), Fraction(0)
    for where, c in zip("tif", components):
        vals = []
        for m in c.members:
            vals += [m.value] if isinstance(m, NsNumber) else [m.lo.value, m.hi.value]
        for v in vals:
            if v < psi:
                out.append((where, f"value {_plain(v)} below lower bound {_plain(psi)}"))
            elif v > omega:
                out.append((where, f"value {_plain(v)} above upper bound {_plain(omega)}"))
        low, high = low + min(vals), high + max(vals)
    if low < 3 * psi:
        out.append(("sum", f"lower sum {_plain(low)} below {_plain(3 * psi)}"))
    if high > 3 * omega:
        out.append(("sum", f"upper sum {_plain(high)} above {_plain(3 * omega)}"))
    return out


@given(st.data(), st.lists(number_lists, min_size=3, max_size=3))
def test_validate_reads_nonstandard_values_exactly(data, drawn):
    psi = data.draw(st.sampled_from([0, -1, -BIG]))
    bounds = OffsetBounds(psi, data.draw(st.sampled_from([1, 2, BIG])))
    components = [_members(d, data) for d in drawn]
    report = validate(NeutroTriple(*components), bounds)
    got = [(v.where, v.message) for v in report.violations]
    assert got == _expected_report(components, bounds.psi, bounds.omega)
    assert report.ok == (not got)
    # A one-number component reports what the single value reports.
    t, i, f = (d[0] for d in drawn)
    single = validate(NeutroTriple.single(t.value, i.value, f.value), bounds)
    assert validate(NeutroTriple.nonstandard(t, i, f), bounds).violations == single.violations


@given(numbers, numbers)
def test_add_is_exact(x, y):
    assert add_ns(x, y).value == x.value + y.value


def _scaled_member(m, q):
    if isinstance(m, NsNumber):
        return NsNumber(m.value * q, m.kind)
    return NsInterval(_scaled_member(m.lo, q), _scaled_member(m.hi, q))


def _member_values(c):
    return [v for m in c.members for v in ([m] if isinstance(m, NsNumber) else [m.lo, m.hi])]


@given(
    st.data(),
    st.lists(number_lists, min_size=3, max_size=3),
    st.lists(st.lists(values, min_size=1, max_size=8), min_size=3, max_size=3),
    st.sampled_from([Fraction(1, 100), Fraction(7, 3), Fraction(BIG)]),
)
def test_nonstandard_scaling_is_exact(data, drawn, hesitant, q):
    # Unions of numbers and decorated intervals.
    x = NeutroTriple(*(_members(d, data) for d in drawn))
    scaled = scale_triple(x, q)
    for before, after in zip((x.t, x.i, x.f), (scaled.t, scaled.i, scaled.f)):
        assert after == Nonstandard([_scaled_member(m, q) for m in before.members])
        ends = _member_values(after)
        assert [type(n.value) for n in ends] == [Fraction] * len(ends)
    # Hesitant sets, whose values reach past the float range.
    scaled = scale_triple(NeutroTriple(*(Hesitant(d) for d in hesitant)), q)
    for d, after in zip(hesitant, (scaled.t, scaled.i, scaled.f)):
        assert after.values == tuple(sorted({v * q for v in d}))
        assert [type(v) for v in after.values] == [Fraction] * len(after.values)


def _every_one_sided_pair(test):
    """test with one example per L/S/R kind pair, at equal values and at
    distinct ones in both orders, under conjunction and disjunction."""
    sides = (MonadKind.STD, MonadKind.LEFT, MonadKind.RIGHT)
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    for kx, ky in product(sides, sides):
        for a, b in ((third, third), (third, two_thirds), (two_thirds, third)):
            for connective in (conj, disj):
                test = example(NsNumber(a, kx), NsNumber(b, ky), connective)(test)
    return test


@_every_one_sided_pair
@given(one_sided, one_sided, st.sampled_from([conj, disj]))
def test_plithogenic_blend_is_exact(x, y, connective):
    t = NeutroTriple.nonstandard(x, x, x)
    u = NeutroTriple.nonstandard(y, y, y)
    out = connective(t, u, OperatorConfig(OperatorFamily.PLITHOGENIC, TNormFamily.MIN_MAX))
    [blend] = out.i.members
    assert blend.value == (x.value + y.value) / 2
    assert blend.kind is add_ns(min_ns(x, y), max_ns(x, y)).kind
