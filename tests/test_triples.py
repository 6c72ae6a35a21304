"""Triple shapes, bounds, validation, classification, and grading."""

import copy
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from neutrocalc import (
    ComponentBounds,
    EmptyComponent,
    Hesitant,
    IntervalValued,
    InvalidBounds,
    InvalidInterval,
    MonadKind,
    NeutroCalcError,
    NeutroTriple,
    Nonstandard,
    NsInterval,
    NsNumber,
    OffsetBounds,
    Role,
    ShapeMismatch,
    SingleValued,
    TruthGrade,
    UNIT_BOUNDS,
    as_fraction,
    bimonad,
    classify_logic,
    connectives,
    left,
    parse,
    right,
    scale_triple,
    std,
    triple_sums,
    truth_grade,
    validate,
)
from neutrocalc.monads import _plain
from neutrocalc.triples import _PASSED
from strategies import grid_fractions, ns_numbers, single_triples, triples, unit_fractions


# Pairwise coprime (Mersenne prime) denominators.
_COPRIME = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1]

#: Hesitant inputs that are hard to sort exactly: offset values, ints,
#: any finite float, large coprime denominators, values 1/10**30 apart
#: (which share one float), one half spelled three ways, and
#: magnitudes beyond the float range.
adversarial_values = st.one_of(
    grid_fractions,
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.sampled_from(_COPRIME)),
    st.integers(-3, 3).map(lambda k: Fraction(1, 2) + Fraction(k, 10**30)),
    st.sampled_from([0.5, Fraction(1, 2), "1/2"]),
    st.sampled_from([10**400, -(10**400), Fraction(10**400 + 1, 3)]),
)


class TestShapes:
    def test_hesitant_dedupes_and_sorts(self):
        assert Hesitant([0.5, 0.2, 0.5]).values == (Fraction(1, 5), Fraction(1, 2))

    @given(st.lists(adversarial_values, min_size=1, max_size=12))
    @example(["1/2", 0.5, Fraction(1, 2), 1, -(10**400)])
    @example([Fraction(1, 2) + Fraction(k, 10**30) for k in (2, -1, 0, 1, -2)])
    def test_hesitant_canonical_order(self, vs):
        expected = tuple(sorted(set(map(as_fraction, vs))))
        assert Hesitant(vs).values == expected
        # The trusted path, on exact Fractions, shares the dedup and the sort.
        assert Hesitant._of([as_fraction(v) for v in vs]).values == expected

    def test_hesitant_must_be_nonempty(self):
        with pytest.raises(EmptyComponent):
            Hesitant([])

    def test_hesitant_integer_form(self):
        h = Hesitant([0.5, 0.25, Fraction(2, 4)])
        assert (h._nums, h._den) == ((1, 2), 4)
        assert h.to_json()["values"] == [0.25, 0.5]

    def test_interval_component_ordering(self):
        with pytest.raises(InvalidInterval):
            IntervalValued(0.4, 0.1)

    def test_nonstandard_wraps_and_rejects_empty(self):
        assert Nonstandard(right(1)).members == (right(1),)
        with pytest.raises(EmptyComponent):
            Nonstandard([])

    def test_triples_are_homogeneous(self):
        with pytest.raises(ShapeMismatch):
            NeutroTriple(SingleValued(0.5), IntervalValued(0, 1), SingleValued(0.5))

    def test_shape_name(self):
        assert NeutroTriple.single(1, 0, 0).shape == "single"
        assert NeutroTriple.nonstandard(right(1), std(0), std(0)).shape == "nonstandard"


# Degrees in [0, 1] over decimal, non-decimal, float-range-breaking and
# 61-bit prime denominators.
_unit_degrees = st.sampled_from((10, 1000, 3, 7, 2**20, 10**400, 2**61 - 1)).flatmap(
    lambda den: st.integers(0, den).map(lambda k: Fraction(k, den))
)


def _assert_integer_form(c: Hesitant) -> None:
    """Strictly increasing int numerators over a denominator above 0, with
    no common factor, and Fraction values."""
    nums, den = c._nums, c._den
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert all(a < b for a, b in zip(nums, nums[1:]))
    assert type(den) is int and den > 0 and math.gcd(den, *nums) == 1
    assert all(type(v) is Fraction for v in c.values)


class TestHesitantIntegerForm:
    """Every producer of a hesitant set builds the one integer form of it."""

    @given(st.lists(_unit_degrees, min_size=1, max_size=6))
    def test_every_producer_builds_the_same_form(self, values):
        h, one, zero = Hesitant(values), Hesitant([1]), Hesitant([0])
        doubled = Hesitant([2 * v for v in values])
        built = {
            "constructor": h,
            "trusted": Hesitant._of(values),
            # 1 and 0 are the identities of the kernels; the midpoint of 2v and 0 is v.
            "product": connectives._product_set(h, one),
            "product-swapped": connectives._product_set(one, h),
            "coproduct": connectives._coproduct_set(h, zero),
            "coproduct-swapped": connectives._coproduct_set(zero, h),
            "luk": connectives._luk_set(h, one),
            "luk-swapped": connectives._luk_set(one, h),
            "luk-co": connectives._luk_coset(h, zero),
            "luk-co-swapped": connectives._luk_coset(zero, h),
            "midpoint": connectives._midpoint_set(doubled, zero),
            "midpoint-swapped": connectives._midpoint_set(zero, doubled),
            "meet": connectives._meet_set(h, one),
            "join": connectives._join_set(zero, h),
            "percent": Hesitant([100 * v for v in values])._scaled(Fraction(1, 100)),
            "unpickled": pickle.loads(pickle.dumps(h)),
            "deepcopy": copy.deepcopy(h),
            "copy": copy.copy(h),
        }
        if "/" not in str(h):  # decimals the parser reads
            built["parser"] = parse(f"<{h}, {{0}}, {{0}}>").value.t
        for name, c in built.items():
            assert type(c) is Hesitant, name
            _assert_integer_form(c)
            assert (c._nums, c._den) == (h._nums, h._den), name
            assert c == h and hash(c) == hash(h), name
        assert h.values == tuple(sorted(set(values)))


#: Set values for the text: decimal denominators (2s and 5s), other
#: primes, zero, negatives and integers.
_text_values = st.one_of(
    adversarial_values,
    st.builds(
        Fraction,
        st.integers(-(10**8), 10**8),
        st.sampled_from([1, 2, 4, 5, 8, 20, 25, 128, 625, 10**6, 2**40, 5**30]),
    ),
)


class TestHesitantText:
    """str() factors a set's denominator once; each value's text is still
    its own `monads._plain`."""

    @given(st.lists(_text_values, min_size=1, max_size=6), st.integers(-2, 2))
    @example([Fraction(-3, 4), 0, 5, Fraction(-1, 20)], 0)
    @example([Fraction(1, 3), Fraction(1, 2)], 0)
    @example([Fraction(1, 2)], 1)
    @example([Fraction(1, 4), 1], -1)
    def test_text_is_each_values_plain(self, values, past):
        """past, unless 0, adds a multiple of 10 to the power
        sys.get_int_max_str_digits(), whose digits str() refuses, and that
        plus 1 over 4, built here because Hypothesis cannot show them."""
        if past:
            huge = past * 10 ** sys.get_int_max_str_digits()
            values = [*values, huge, Fraction(huge + 1, 4)]
        h = Hesitant(values)
        assert str(h) == "{" + ", ".join(_plain(v) for v in h.values) + "}"


class TestBoundsAndSums:
    def test_single(self):
        assert SingleValued(0.6).bounds() == ComponentBounds(std(0.6), std(0.6))

    def test_interval(self):
        assert IntervalValued(0.1, 0.4).bounds() == ComponentBounds(std(0.1), std(0.4))

    def test_hesitant(self):
        assert Hesitant([0.9, 0.2, 0.5]).bounds() == ComponentBounds(std(0.2), std(0.9))

    def test_nonstandard_union(self):
        c = Nonstandard([NsInterval(left(0.1), right(0.4))])
        assert c.bounds() == ComponentBounds(left(0.1), right(0.4))
        mixed = Nonstandard([std(0.5), bimonad(0.5)])
        assert mixed.bounds() == ComponentBounds(left(0.5), right(0.5))

    def test_sums_single(self):
        n_inf, n_sup = triple_sums(NeutroTriple.single(0.6, 0.2, 0.5))
        assert n_inf == std(1.3) and n_sup == std(1.3)

    def test_sums_interval(self):
        x = NeutroTriple(
            IntervalValued(0.1, 0.2), IntervalValued(0, 0.3), IntervalValued(0.5, 0.9)
        )
        n_inf, n_sup = triple_sums(x)
        assert n_inf == std(0.6) and n_sup == std(1.4)

    def test_sums_nonstandard(self):
        x = NeutroTriple.nonstandard(right(1), std(0), std(0))
        n_inf, n_sup = triple_sums(x)
        assert n_inf == right(1) and n_sup == right(1)


class TestOffsetBounds:
    def test_unit_and_widened(self):
        OffsetBounds(0, 1)
        OffsetBounds(-0.5, 1.5)

    @pytest.mark.parametrize("psi, omega", [(0.2, 1), (0, 0.9), (1, 1), (-1, 0.5)])
    def test_rejects_bad_bounds(self, psi, omega):
        with pytest.raises(ValueError):
            OffsetBounds(psi, omega)

    def test_bad_bounds_raise_a_typed_error(self):
        with pytest.raises(InvalidBounds) as exc:
            OffsetBounds(0.5, 1)
        assert isinstance(exc.value, NeutroCalcError)
        assert isinstance(exc.value, ValueError)


class TestValidate:
    def test_in_range_triple_passes(self):
        assert validate(NeutroTriple.single(0.9, 0.4, 0.8)).ok

    def test_offset_component_fails_unit_but_passes_widened(self):
        x = NeutroTriple.single(1.2, 0, 0)
        report = validate(x)
        assert not report.ok
        assert [v.where for v in report.violations] == ["t"]
        assert validate(x, OffsetBounds(-0.5, 1.5)).ok

    def test_below_zero_component(self):
        report = validate(NeutroTriple.single(0.5, -0.1, 0))
        assert [v.where for v in report.violations] == ["i"]

    def test_sum_violation_reported(self):
        report = validate(NeutroTriple.single(1.2, 1.2, 1.2))
        assert {"t", "i", "f", "sum"} == {v.where for v in report.violations}

    def test_nonstandard_edges_pass_on_values(self):
        x = NeutroTriple.nonstandard(right(1), std(0), left(0))
        assert validate(x).ok

    @given(single_triples)
    def test_widening_never_adds_violations(self, x):
        unit = validate(x, UNIT_BOUNDS)
        widened = validate(x, OffsetBounds(-1, 2))
        assert len(widened.violations) <= len(unit.violations)

    @given(unit_fractions, unit_fractions, unit_fractions)
    def test_unit_triples_always_pass(self, t, i, f):
        assert validate(NeutroTriple.single(t, i, f)).ok


def _grid_interval(pair):
    return IntervalValued(*sorted(pair))


def _ns_member_interval(pair):
    return NsInterval(*sorted(pair, key=lambda n: n.value))


_ns_members = st.one_of(
    ns_numbers,
    st.builds(
        _ns_member_interval,
        st.tuples(ns_numbers, ns_numbers).filter(lambda p: p[0].value != p[1].value),
    ),
)

#: Triples of each of the four shapes, values in [-2, 2].
GRID_TRIPLES = {
    "single": triples(st.builds(SingleValued, grid_fractions)),
    "interval": triples(st.builds(_grid_interval, st.tuples(grid_fractions, grid_fractions))),
    "hesitant": triples(st.builds(Hesitant, st.lists(grid_fractions, min_size=1, max_size=4))),
    "nonstandard": triples(st.builds(Nonstandard, st.lists(_ns_members, min_size=1, max_size=3))),
}

# Bounds near the unit interval half the time, so sums cross them often.
offset_bounds = st.builds(
    OffsetBounds,
    st.integers(-2000, 0).map(lambda k: Fraction(k, 1000)) | st.just(Fraction(0)),
    st.integers(1000, 3000).map(lambda k: Fraction(k, 1000)) | st.just(Fraction(1)),
)


def _values(c):
    if isinstance(c, SingleValued):
        return [c.value]
    if isinstance(c, IntervalValued):
        return [c.lo, c.hi]
    if isinstance(c, Hesitant):
        return list(c.values)
    out = []
    for m in c.members:
        out += [m.value] if isinstance(m, NsNumber) else [m.lo.value, m.hi.value]
    return out


class TestValidateAgainstFractions:
    """validate's integer comparisons against plain Fraction definitions."""

    @pytest.mark.parametrize("shape", list(GRID_TRIPLES))
    @given(data=st.data())
    def test_violations_agree_with_triple_sums(self, shape, data):
        x, bounds = data.draw(GRID_TRIPLES[shape]), data.draw(offset_bounds)
        expected = []
        for where in "tif":
            for v in _values(getattr(x, where)):
                if v < bounds.psi:
                    expected.append((where, f"value {std(v)} below lower bound {std(bounds.psi)}"))
                elif v > bounds.omega:
                    expected.append((where, f"value {std(v)} above upper bound {std(bounds.omega)}"))
        # From the values, not from triple_sums, which validate itself calls.
        lo_sum = sum(min(_values(c)) for c in (x.t, x.i, x.f))
        hi_sum = sum(max(_values(c)) for c in (x.t, x.i, x.f))
        if lo_sum < 3 * bounds.psi:
            expected.append(("sum", f"lower sum {std(lo_sum)} below {std(3 * bounds.psi)}"))
        if hi_sum > 3 * bounds.omega:
            expected.append(("sum", f"upper sum {std(hi_sum)} above {std(3 * bounds.omega)}"))
        report = validate(x, bounds)
        assert [(v.where, v.message) for v in report.violations] == expected
        assert report.ok is not expected

    @pytest.mark.parametrize("shape", list(GRID_TRIPLES))
    @given(data=st.data())
    def test_sum_fails_only_with_a_component(self, shape, data):
        # Each least value at least psi puts the least sum at least 3 psi,
        # and likewise at omega: a triple whose components pass passes.
        x, bounds = data.draw(GRID_TRIPLES[shape]), data.draw(offset_bounds)
        report = validate(x, bounds)
        wheres = {v.where for v in report.violations}
        if "sum" in wheres:
            assert wheres & {"t", "i", "f"}
        if report.ok:
            assert report is _PASSED

    @given(offset_bounds, st.sampled_from("tif"))
    def test_exact_bounds_pass_and_one_billionth_outside_fails(self, bounds, where):
        eps = Fraction(1, 10**9)

        def with_value(v, rest=Fraction(0)):
            values = {"t": rest, "i": rest, "f": rest, where: v}
            return NeutroTriple.single(values["t"], values["i"], values["f"])

        for edge in (bounds.psi, bounds.omega):
            assert validate(with_value(edge), bounds).ok
            assert validate(with_value(edge, rest=edge), bounds).ok
        below = validate(with_value(bounds.psi - eps), bounds).violations
        above = validate(with_value(bounds.omega + eps), bounds).violations
        assert [v.where for v in below if v.where != "sum"] == [where]
        assert "below lower bound" in below[0].message
        assert [v.where for v in above] == [where]
        assert "above upper bound" in above[0].message
        low_sum = validate(with_value(bounds.psi - eps, rest=bounds.psi), bounds).violations
        assert [v.where for v in low_sum] == [where, "sum"]


class TestClassify:
    @pytest.mark.parametrize(
        "t, i, f, expected",
        [
            (0.3, 0.1, 0.2, {"intuitionistic", "multi-valued"}),
            (0.7, 0, 0.3, {"fuzzy", "multi-valued"}),
            (1, 0, 0, {"boolean", "fuzzy", "multi-valued"}),
            (0.9, 0.4, 0.8, {"paraconsistent", "multi-valued"}),
            (1, 0, 1, {"dialetheism", "multi-valued"}),
            (1.2, 0, 0.1, {"overtrue"}),
            (1.2, 0, 1, {"overtrue"}),
        ],
    )
    def test_canonical_rows(self, t, i, f, expected):
        assert classify_logic(t, i, f) == frozenset(expected)

    def test_percent_scale(self):
        assert classify_logic(30, 10, 20, scale="percent") == classify_logic(0.3, 0.1, 0.2)
        assert "dialetheism" in classify_logic(100, 0, 100, scale="percent")

    def test_equality_tolerance(self):
        labels = classify_logic(0.5, 0, Fraction(1, 2) - Fraction(1, 10**10))
        assert "fuzzy" in labels
        assert "intuitionistic" not in labels

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            classify_logic(1, 0, 0, scale="permille")

    @pytest.mark.parametrize("scale", ["permille", [], {}, None])
    def test_bad_scale_message(self, scale):
        with pytest.raises(ValueError) as info:
            classify_logic(1, 0, 0, scale=scale)
        assert str(info.value) == "scale must be 'unit' or 'percent'"

    @given(unit_fractions, unit_fractions, unit_fractions)
    def test_unit_triples_are_multi_valued(self, t, i, f):
        labels = classify_logic(t, i, f)
        assert "multi-valued" in labels
        if "boolean" in labels:
            assert "fuzzy" in labels


_O, _AT, _RT = TruthGrade.ORDINARY, TruthGrade.ABSOLUTE_TRUTH, TruthGrade.RELATIVE_TRUTH
_AN, _RN = TruthGrade.ABSOLUTE_NEGATIVE, TruthGrade.RELATIVE_NEGATIVE

#: The grade of each (role, kind) pair at 0, at 1 and at the ordinary 0.5,
#: from the definition: truth peaks at 1, where the right monad is absolute
#: truth and the standard 1 relative truth; indeterminacy and falsity bottom
#: out at 0, where the left monad is absolutely and the standard 0 relatively
#: negative.  Everything else is ordinary.
GRADES_AT_0_1_HALF = {
    (Role.T, MonadKind.STD): (_O, _RT, _O),
    (Role.T, MonadKind.LEFT): (_O, _O, _O),
    (Role.T, MonadKind.RIGHT): (_O, _AT, _O),
    (Role.T, MonadKind.BIMONAD): (_O, _O, _O),
    (Role.I, MonadKind.STD): (_RN, _O, _O),
    (Role.I, MonadKind.LEFT): (_AN, _O, _O),
    (Role.I, MonadKind.RIGHT): (_O, _O, _O),
    (Role.I, MonadKind.BIMONAD): (_O, _O, _O),
    (Role.F, MonadKind.STD): (_RN, _O, _O),
    (Role.F, MonadKind.LEFT): (_AN, _O, _O),
    (Role.F, MonadKind.RIGHT): (_O, _O, _O),
    (Role.F, MonadKind.BIMONAD): (_O, _O, _O),
}


class TestTruthGrade:
    @pytest.mark.parametrize(
        "x, role, expected",
        [
            (right(1), Role.T, TruthGrade.ABSOLUTE_TRUTH),
            (std(1), Role.T, TruthGrade.RELATIVE_TRUTH),
            (std(0.9), Role.T, TruthGrade.ORDINARY),
            (left(1), Role.T, TruthGrade.ORDINARY),
            (left(0), Role.F, TruthGrade.ABSOLUTE_NEGATIVE),
            (std(0), Role.F, TruthGrade.RELATIVE_NEGATIVE),
            (left(0), Role.I, TruthGrade.ABSOLUTE_NEGATIVE),
            (std(0), Role.I, TruthGrade.RELATIVE_NEGATIVE),
            (right(1), Role.F, TruthGrade.ORDINARY),
            (right(0), Role.I, TruthGrade.ORDINARY),
            *(
                (NsNumber(value, kind), role, grade)
                for (role, kind), grades in GRADES_AT_0_1_HALF.items()
                for value, grade in zip((0, 1, Fraction(1, 2)), grades)
            ),
        ],
    )
    def test_grading(self, x, role, expected):
        assert truth_grade(x, role) is expected

    @pytest.mark.parametrize("role", ["T", None], ids=["str", "none"])
    def test_role_must_be_a_role(self, role):
        with pytest.raises(TypeError, match=f"^role must be a Role, got {role!r}$"):
            truth_grade(std(0), role)


class TestScale:
    def test_percent_to_unit(self):
        x = NeutroTriple.single(100, 0, 50)
        assert scale_triple(x, Fraction(1, 100)) == NeutroTriple.single(1, 0, 0.5)

    def test_decorations_survive(self):
        x = NeutroTriple.nonstandard(right(100), std(0), left(50))
        scaled = scale_triple(x, Fraction(1, 100))
        assert scaled == NeutroTriple.nonstandard(right(1), std(0), left(0.5))

    def test_interval_and_hesitant(self):
        x = NeutroTriple(IntervalValued(10, 50), IntervalValued(0, 0), IntervalValued(20, 30))
        assert scale_triple(x, Fraction(1, 100)) == NeutroTriple(
            IntervalValued(0.1, 0.5), IntervalValued(0, 0), IntervalValued(0.2, 0.3)
        )
        h = NeutroTriple(Hesitant([50, 20, 50]), Hesitant([0]), Hesitant([100, 30]))
        assert scale_triple(h, Fraction(1, 100)) == NeutroTriple(
            Hesitant([0.2, 0.5]), Hesitant([0]), Hesitant([0.3, 1])
        )

    def test_nonstandard_union_with_interval_member(self):
        x = NeutroTriple(
            Nonstandard([left(20), NsInterval(std(30), right(200))]),
            Nonstandard(std(0)),
            Nonstandard(bimonad(50)),
        )
        assert scale_triple(x, Fraction(1, 100)) == NeutroTriple(
            Nonstandard([left(0.2), NsInterval(std(0.3), right(2))]),
            Nonstandard(std(0)),
            Nonstandard(bimonad(0.5)),
        )

    def test_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            scale_triple(NeutroTriple.single(1, 0, 0), 0)
