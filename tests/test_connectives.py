"""Kernels, the three operator families, and shape handling."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from neutrocalc import (
    ClampWarning,
    EvalRequest,
    Hesitant,
    IntervalValued,
    NeutroTriple,
    Nonstandard,
    NsInterval,
    OffsetBounds,
    OperatorConfig,
    OperatorFamily,
    ShapeMismatch,
    SingleValued,
    TNormFamily,
    UNIT_BOUNDS,
    UnsupportedNonstandardConfig,
    bimonad,
    conj,
    connectives,
    disj,
    evaluate,
    impl,
    left,
    neg,
    right,
    std,
    tconorm,
    tnorm,
)
from strategies import (
    grid_fractions,
    hesitant_triples,
    interval_triples,
    single_triples,
    unit_fractions,
)

ALL_KERNELS = list(TNormFamily)
ALL_FAMILIES = list(OperatorFamily)
ALL_CONFIGS = [OperatorConfig(f, k) for f in ALL_FAMILIES for k in ALL_KERNELS]

# Same examples, no shrinking: a parametrized test that fails then reports in
# seconds instead of shrinking each of its cases for minutes.
NO_SHRINK = tuple(p for p in settings.default.phases if p is not Phase.shrink)
TI = OperatorFamily.T_ALIGNED
IF = OperatorFamily.F_ALIGNED
PLITH = OperatorFamily.PLITHOGENIC
MINMAX = TNormFamily.MIN_MAX
PRODUCT = TNormFamily.PRODUCT
LUK = TNormFamily.LUKASIEWICZ


class TestKernels:
    def test_frozen_values(self):
        assert tnorm(0.7, 0.5, MINMAX) == Fraction(1, 2)
        assert tnorm(0.7, 0.5, PRODUCT) == Fraction(35, 100)
        assert tnorm(0.7, 0.5, LUK) == Fraction(1, 5)
        assert tconorm(0.5, 0.5, MINMAX) == Fraction(1, 2)
        assert tconorm(0.5, 0.5, PRODUCT) == Fraction(3, 4)
        assert tconorm(0.5, 0.5, LUK) == Fraction(1)

    @given(unit_fractions, unit_fractions, st.sampled_from(ALL_KERNELS))
    def test_commutative(self, a, b, k):
        assert tnorm(a, b, k) == tnorm(b, a, k)
        assert tconorm(a, b, k) == tconorm(b, a, k)

    @given(unit_fractions, unit_fractions, unit_fractions, st.sampled_from(ALL_KERNELS))
    def test_associative(self, a, b, c, k):
        assert tnorm(tnorm(a, b, k), c, k) == tnorm(a, tnorm(b, c, k), k)
        assert tconorm(tconorm(a, b, k), c, k) == tconorm(a, tconorm(b, c, k), k)

    @given(
        st.fractions(0, 1, max_denominator=10**6),
        st.fractions(0, 1, max_denominator=10**6),
        st.sampled_from(ALL_KERNELS),
    )
    def test_kernels_match_textbook_formulas(self, a, b, k):
        # The formulas in plain Fraction arithmetic; repr tells apart a
        # result left unnormalised, such as 2/10 for 1/5.
        textbook = {
            MINMAX: (min(a, b), max(a, b)),
            PRODUCT: (a * b, a + b - a * b),
            LUK: (max(Fraction(0), a + b - 1), min(Fraction(1), a + b)),
        }[k]
        for got, want in zip((tnorm(a, b, k), tconorm(a, b, k)), textbook):
            assert type(got) is Fraction and repr(got) == repr(want)

    @given(unit_fractions, st.sampled_from(ALL_KERNELS))
    def test_identities(self, a, k):
        assert tnorm(a, 1, k) == a
        assert tconorm(a, 0, k) == a

    @given(unit_fractions, unit_fractions, unit_fractions, st.sampled_from(ALL_KERNELS))
    def test_monotone(self, a, b, c, k):
        lo, hi = sorted((b, c))
        assert tnorm(a, lo, k) <= tnorm(a, hi, k)
        assert tconorm(a, lo, k) <= tconorm(a, hi, k)

    @given(unit_fractions, unit_fractions, st.sampled_from(ALL_KERNELS))
    def test_range(self, a, b, k):
        assert 0 <= tnorm(a, b, k) <= 1
        assert 0 <= tconorm(a, b, k) <= 1


class TestSingleValued:
    X = NeutroTriple.single(0.8, 0.4, 0.3)
    Y = NeutroTriple.single(0.6, 0.2, 0.5)

    def test_conj_families_minmax(self):
        assert conj(self.X, self.Y, OperatorConfig(TI, MINMAX)) == NeutroTriple.single(0.6, 0.2, 0.5)
        assert conj(self.X, self.Y, OperatorConfig(IF, MINMAX)) == NeutroTriple.single(0.6, 0.4, 0.5)
        assert conj(self.X, self.Y, OperatorConfig(PLITH, MINMAX)) == NeutroTriple.single(0.6, 0.3, 0.5)

    def test_disj_families_minmax(self):
        assert disj(self.X, self.Y, OperatorConfig(TI, MINMAX)) == NeutroTriple.single(0.8, 0.4, 0.3)
        assert disj(self.X, self.Y, OperatorConfig(IF, MINMAX)) == NeutroTriple.single(0.8, 0.2, 0.3)
        assert disj(self.X, self.Y, OperatorConfig(PLITH, MINMAX)) == NeutroTriple.single(0.8, 0.3, 0.3)

    def test_product_kernel(self):
        half = NeutroTriple.single(0.5, 0.5, 0.5)
        assert conj(half, half, OperatorConfig(IF, PRODUCT)) == NeutroTriple.single(0.25, 0.75, 0.75)

    def test_boundary_conjunction_all_configs(self):
        x = NeutroTriple.single(1, 0, 0)
        y = NeutroTriple.single(0, 0, 1)
        for cfg in ALL_CONFIGS:
            assert conj(x, y, cfg) == NeutroTriple.single(0, 0, 1)

    def test_neg_swaps_t_and_f(self):
        assert neg(NeutroTriple.single(0.7, 0.2, 0.1)) == NeutroTriple.single(0.1, 0.2, 0.7)

    @given(single_triples)
    def test_neg_is_involutive(self, x):
        assert neg(neg(x)) == x

    @given(single_triples, single_triples, st.sampled_from(ALL_CONFIGS))
    def test_impl_is_disj_of_negation(self, x, y, cfg):
        assert impl(x, y, cfg) == disj(neg(x), y, cfg)

    @given(single_triples, single_triples, st.sampled_from(ALL_CONFIGS))
    def test_commutative(self, x, y, cfg):
        assert conj(x, y, cfg) == conj(y, x, cfg)
        assert disj(x, y, cfg) == disj(y, x, cfg)

    @given(
        single_triples,
        single_triples,
        single_triples,
        st.sampled_from([OperatorConfig(f, k) for f in (TI, IF) for k in ALL_KERNELS]),
    )
    def test_associative_aligned_families(self, x, y, z, cfg):
        assert conj(conj(x, y, cfg), z, cfg) == conj(x, conj(y, z, cfg), cfg)
        assert disj(disj(x, y, cfg), z, cfg) == disj(x, disj(y, z, cfg), cfg)

    @given(single_triples, st.sampled_from([OperatorConfig(f, MINMAX) for f in (TI, IF)]))
    def test_minmax_idempotent(self, x, cfg):
        assert conj(x, x, cfg) == x
        assert disj(x, x, cfg) == x

    @given(single_triples, single_triples, st.sampled_from(ALL_CONFIGS))
    def test_de_morgan_on_t_and_f(self, x, y, cfg):
        a = neg(conj(x, y, cfg))
        b = disj(neg(x), neg(y), cfg)
        assert a.t == b.t and a.f == b.f

    @given(single_triples, single_triples)
    def test_plithogenic_i_is_the_mean_under_minmax(self, x, y):
        out = conj(x, y, OperatorConfig(PLITH, MINMAX))
        assert out.i == SingleValued((x.i.value + y.i.value) / 2)


class TestIntervalValued:
    def test_endpointwise(self):
        x = NeutroTriple(IntervalValued(0.1, 0.2), IntervalValued(0, 0.3), IntervalValued(0.5, 0.9))
        y = NeutroTriple(IntervalValued(0.2, 0.4), IntervalValued(0.1, 0.2), IntervalValued(0.3, 0.6))
        out = conj(x, y, OperatorConfig(IF, MINMAX))
        assert out == NeutroTriple(
            IntervalValued(0.1, 0.2), IntervalValued(0.1, 0.3), IntervalValued(0.5, 0.9)
        )

    @given(
        interval_triples,
        interval_triples,
        st.sampled_from(ALL_CONFIGS),
        st.integers(0, 1000),
        st.integers(0, 1000),
    )
    def test_pointwise_selections_stay_inside(self, x, y, cfg, p, q):
        out = conj(x, y, cfg)

        def pick(c, w):
            return c.lo + (c.hi - c.lo) * Fraction(w, 1000)

        xs = NeutroTriple.single(pick(x.t, p), pick(x.i, p), pick(x.f, p))
        ys = NeutroTriple.single(pick(y.t, q), pick(y.i, q), pick(y.f, q))
        point = conj(xs, ys, cfg)
        for c_out, c_point in zip((out.t, out.i, out.f), (point.t, point.i, point.f)):
            assert c_out.lo <= c_point.value <= c_out.hi


class TestHesitant:
    def test_cartesian_product(self):
        x = NeutroTriple(Hesitant([0.2, 0.5]), Hesitant([0]), Hesitant([0.1]))
        y = NeutroTriple(Hesitant([0.4]), Hesitant([0.3]), Hesitant([0.2, 0.6]))
        out = conj(x, y, OperatorConfig(IF, MINMAX))
        assert out.t == Hesitant([0.2, 0.4])
        assert out.i == Hesitant([0.3])
        assert out.f == Hesitant([0.2, 0.6])

    def test_collisions_collapse(self):
        x = NeutroTriple(Hesitant([0.3, 0.7]), Hesitant([0]), Hesitant([0]))
        y = NeutroTriple(Hesitant([0.3]), Hesitant([0]), Hesitant([0]))
        out = conj(x, y, OperatorConfig(IF, MINMAX))
        assert out.t == Hesitant([0.3])

    def test_products_that_meet_collapse(self):
        # 2/5 * 1/2 and 1/5 * 1 both give 1/5, as 2/10 and 1/5 before
        # normalising; deduplication sees the normalised pair only.
        x = NeutroTriple(Hesitant([0.4, 0.2]), Hesitant([0]), Hesitant([0]))
        y = NeutroTriple(Hesitant([0.5, 1]), Hesitant([0]), Hesitant([0]))
        out = conj(x, y, OperatorConfig(IF, PRODUCT))
        assert out.t.values == (Fraction(1, 10), Fraction(1, 5), Fraction(2, 5))
        assert repr(out.t.values) == "(Fraction(1, 10), Fraction(1, 5), Fraction(2, 5))"

    @given(hesitant_triples, hesitant_triples, st.sampled_from(ALL_CONFIGS))
    def test_every_output_comes_from_a_pair(self, x, y, cfg):
        out = conj(x, y, cfg)
        meet = {tnorm(u, v, cfg.tnorm) for u in x.t.values for v in y.t.values}
        assert set(out.t.values) == meet


class TestNonstandard:
    X = NeutroTriple.nonstandard(right(1), std(0), std(0))
    Y = NeutroTriple.nonstandard(std(0), std(0), right(1))

    def test_min_max_replace_kernels(self):
        out = conj(self.X, self.Y, OperatorConfig(IF, MINMAX))
        assert out == NeutroTriple.nonstandard(std(0), std(0), right(1))

    def test_disj_mirrors(self):
        out = disj(self.X, self.Y, OperatorConfig(IF, MINMAX))
        assert out == NeutroTriple.nonstandard(right(1), std(0), std(0))

    def test_plithogenic_blend(self):
        x = NeutroTriple.nonstandard(std(1), left(0.4), std(0))
        y = NeutroTriple.nonstandard(std(1), std(0.2), std(0))
        out = conj(x, y, OperatorConfig(PLITH, MINMAX))
        assert out.i == Nonstandard(left(0.3))

    def test_min_max_are_looked_up_at_call_time(self, monkeypatch):
        # Wrappers installed on the module after import (a tracer's spans)
        # see every decorated meet and join.
        calls = []
        for name in ("min_ns", "max_ns"):
            original = getattr(connectives, name)

            def counted(a, b, name=name, original=original):
                calls.append(name)
                return original(a, b)

            monkeypatch.setattr(connectives, name, counted)
        out = conj(self.X, self.Y, OperatorConfig(TI, MINMAX))
        assert out == NeutroTriple.nonstandard(std(0), std(0), right(1))
        assert sorted(calls) == ["max_ns", "min_ns", "min_ns"]

    def test_non_minmax_kernel_rejected(self):
        with pytest.raises(UnsupportedNonstandardConfig):
            conj(self.X, self.Y, OperatorConfig(IF, PRODUCT))

    def test_bimonad_operand_rejected(self):
        z = NeutroTriple.nonstandard(bimonad(0.5), std(0), std(0))
        with pytest.raises(UnsupportedNonstandardConfig):
            conj(z, self.Y, OperatorConfig(IF, MINMAX))

    def test_union_and_interval_members_rejected(self):
        u = NeutroTriple(
            Nonstandard([std(0.1), std(0.9)]), Nonstandard(std(0)), Nonstandard(std(0))
        )
        with pytest.raises(UnsupportedNonstandardConfig):
            conj(u, u, OperatorConfig(IF, MINMAX))
        iv = NeutroTriple(
            Nonstandard(NsInterval(left(0), right(1))),
            Nonstandard(std(0)),
            Nonstandard(std(0)),
        )
        with pytest.raises(UnsupportedNonstandardConfig):
            conj(iv, iv, OperatorConfig(IF, MINMAX))

    def test_neg_keeps_decorations(self):
        assert neg(self.X) == NeutroTriple.nonstandard(std(0), std(0), right(1))


class TestShapeAndClamp:
    @pytest.mark.parametrize("op", [conj, disj, impl])
    def test_config_must_be_an_operator_config(self, op):
        x = NeutroTriple.single(1, 0, 0)
        with pytest.raises(TypeError) as info:
            op(x, x, "if")
        assert str(info.value) == "cfg must be a OperatorConfig, got 'if'"

    def test_mixed_operand_shapes_rejected(self):
        x = NeutroTriple.single(1, 0, 0)
        y = NeutroTriple(IntervalValued(0, 1), IntervalValued(0, 1), IntervalValued(0, 1))
        with pytest.raises(ShapeMismatch):
            conj(x, y)

    def test_offset_degrees_clamp_with_warning(self):
        x = NeutroTriple.single(1.2, 0, -0.1)
        y = NeutroTriple.single(1, 0, 0)
        with pytest.warns(ClampWarning):
            out = conj(x, y, OperatorConfig(IF, MINMAX))
        assert out == NeutroTriple.single(1, 0, 0)

    def test_in_range_degrees_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            conj(NeutroTriple.single(1, 0, 0), NeutroTriple.single(0, 0, 1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: conj(NeutroTriple.single(1.2, 0, 0), NeutroTriple.single(0.5, 0.2, 0.1)),
            lambda: conj(
                NeutroTriple.single(0.5, 1.2, 0.5),
                NeutroTriple.single(0.5, 0.2, 0.1),
                OperatorConfig(PLITH, MINMAX),
            ),
            lambda: conj(
                NeutroTriple(Hesitant([1.2, 0.3]), Hesitant([0]), Hesitant([0])),
                NeutroTriple(Hesitant([0.5, 0.7]), Hesitant([0]), Hesitant([0])),
            ),
            lambda: evaluate(
                EvalRequest("!<1.2,0,0> & <0.5,0.2,0.1>", bounds=OffsetBounds(-0.5, 2))
            ),
        ],
        ids=["single", "plithogenic", "hesitant", "evaluate"],
    )
    def test_clamp_warning_names_the_callers_line(self, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert caught
        assert all(issubclass(w.category, ClampWarning) for w in caught)
        assert [w.filename for w in caught] == [__file__] * len(caught)


# Clamp-then-Fraction definitions of the kernels, independent of the
# package's integer arithmetic.
def _ref_tnorm(a, b, k):
    if k is MINMAX:
        return min(a, b)
    if k is PRODUCT:
        return a * b
    return max(Fraction(0), a + b - 1)


def _ref_tconorm(a, b, k):
    if k is MINMAX:
        return max(a, b)
    if k is PRODUCT:
        return a + b - a * b
    return min(Fraction(1), a + b)


def _ref_clamp(v):
    return min(max(v, Fraction(0)), Fraction(1))


def _ref_ops(cfg, is_conj):
    def meet(a, b):
        return _ref_tnorm(_ref_clamp(a), _ref_clamp(b), cfg.tnorm)

    def join(a, b):
        return _ref_tconorm(_ref_clamp(a), _ref_clamp(b), cfg.tnorm)

    t_op, f_op = (meet, join) if is_conj else (join, meet)
    if cfg.family is TI:
        i_op = t_op
    elif cfg.family is IF:
        i_op = f_op
    else:
        def i_op(a, b):
            return (meet(a, b) + join(a, b)) / 2

    return t_op, i_op, f_op


def _ref_combine(x, y, cfg, is_conj):
    t_op, i_op, f_op = _ref_ops(cfg, is_conj)
    return NeutroTriple.single(
        t_op(x.t.value, y.t.value), i_op(x.i.value, y.i.value), f_op(x.f.value, y.f.value)
    )


def _offset(v):
    return not 0 <= v <= 1


offset_triples = st.builds(NeutroTriple.single, grid_fractions, grid_fractions, grid_fractions)
offset_interval_triples = st.builds(
    NeutroTriple,
    *[st.builds(lambda a, b: IntervalValued(*sorted((a, b))), grid_fractions, grid_fractions)] * 3,
)
offset_hesitant_triples = st.builds(
    NeutroTriple,
    *[st.builds(Hesitant, st.lists(grid_fractions, min_size=1, max_size=3))] * 3,
)


class TestOffsetOperands:
    """Operands in [-2, 2]: the kernels unclamped, the connectives clamped."""

    @given(grid_fractions, grid_fractions, st.sampled_from(ALL_KERNELS))
    def test_kernels_match_fraction_definitions(self, a, b, k):
        assert tnorm(a, b, k) == _ref_tnorm(a, b, k)
        assert tconorm(a, b, k) == _ref_tconorm(a, b, k)
        assert tnorm(a, b, k) == tnorm(b, a, k)
        assert tconorm(a, b, k) == tconorm(b, a, k)

    @given(offset_triples, offset_triples, st.sampled_from(ALL_CONFIGS), st.booleans())
    def test_connectives_clamp_then_combine(self, x, y, cfg, is_conj):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = (conj if is_conj else disj)(x, y, cfg)
        assert out == _ref_combine(x, y, cfg, is_conj)
        # One warning per clamped operand of each kernel application; the
        # plithogenic blend applies both kernels to I.
        i_uses = 2 if cfg.family is PLITH else 1
        expected = sum(_offset(c.value) for c in (x.t, y.t, x.f, y.f))
        expected += i_uses * sum(_offset(c.value) for c in (x.i, y.i))
        assert len(caught) == expected
        assert all(issubclass(w.category, ClampWarning) for w in caught)

    @pytest.mark.parametrize("name", ["conj", "disj", "impl"])
    @pytest.mark.parametrize("cfg", ALL_CONFIGS)
    @settings(max_examples=25, phases=NO_SHRINK)  # 27 parameter cases share the budget
    @given(x=offset_hesitant_triples, y=offset_hesitant_triples)
    def test_hesitant_connectives_clamp_every_pair(self, cfg, name, x, y):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = {"conj": conj, "disj": disj, "impl": impl}[name](x, y, cfg)
        if name == "impl":
            x = neg(x)
        # Each pair warns once per clamped operand, in pair order; the
        # plithogenic blend clamps the I pair for both kernels.
        clamped = []
        for part, ref_op in zip("tif", _ref_ops(cfg, is_conj=name == "conj")):
            uses = 2 if part == "i" and cfg.family is PLITH else 1
            image = set()
            for u in getattr(x, part).values:
                for v in getattr(y, part).values:
                    image.add(ref_op(u, v))
                    clamped += [w for w in (u, v) if _offset(w)] * uses
            assert getattr(out, part).values == tuple(sorted(image))
        assert [(w.category, str(w.message)) for w in caught] == [
            (ClampWarning, f"degree {float(w)} clamped into [0, 1] for kernel application")
            for w in clamped
        ]

    @pytest.mark.parametrize("name", ["conj", "disj", "impl"])
    @pytest.mark.parametrize("cfg", ALL_CONFIGS)
    @settings(max_examples=25, phases=NO_SHRINK)  # 27 parameter cases share the budget
    @given(x=offset_interval_triples, y=offset_interval_triples)
    def test_interval_connectives_clamp_endpointwise(self, cfg, name, x, y):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = {"conj": conj, "disj": disj, "impl": impl}[name](x, y, cfg)
        if name == "impl":
            x = neg(x)
        # Each component warns for its lo pair, then its hi pair, once per
        # clamped operand; the plithogenic blend clamps the I pairs for
        # both kernels.
        clamped = []
        for part, ref_op in zip("tif", _ref_ops(cfg, is_conj=name == "conj")):
            a, b = getattr(x, part), getattr(y, part)
            assert getattr(out, part) == IntervalValued(ref_op(a.lo, b.lo), ref_op(a.hi, b.hi))
            uses = 2 if part == "i" and cfg.family is PLITH else 1
            for u, v in ((a.lo, b.lo), (a.hi, b.hi)):
                clamped += [w for w in (u, v) if _offset(w)] * uses
        assert [(w.category, str(w.message)) for w in caught] == [
            (ClampWarning, f"degree {float(w)} clamped into [0, 1] for kernel application")
            for w in clamped
        ]

    @pytest.mark.parametrize("cfg", ALL_CONFIGS)
    def test_no_warning_at_exactly_zero_and_one(self, cfg):
        # The public connectives clamp every standard operand; at the unit
        # edges that must warn nothing and give the bare kernels' result.
        pairs = [
            (NeutroTriple.single(0, 1, 0), NeutroTriple.single(1, 0, 1)),
            (
                NeutroTriple(IntervalValued(0, 1), IntervalValued(0, 0), IntervalValued(1, 1)),
                NeutroTriple(IntervalValued(1, 1), IntervalValued(0, 1), IntervalValued(0, 0)),
            ),
            (
                NeutroTriple(Hesitant([0, 1]), Hesitant([1]), Hesitant([0])),
                NeutroTriple(Hesitant([1]), Hesitant([0, 1]), Hesitant([0, 1])),
            ),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in pairs:
                for a, b in ((x, y), (y, x)):
                    for op, is_conj, first in (
                        (conj, True, a),
                        (disj, False, a),
                        (impl, False, neg(a)),
                    ):
                        row = connectives._row(cfg, first, is_conj, UNIT_BOUNDS)
                        assert op(a, b, cfg) == connectives._step(first, b, row)


def _rebuilt(x: NeutroTriple) -> NeutroTriple:
    """x built again by the public constructors, from each value's text."""

    def again(c):
        if isinstance(c, SingleValued):
            return SingleValued(str(c.value))
        return IntervalValued(str(c.lo), str(c.hi))

    return NeutroTriple(again(x.t), again(x.i), again(x.f))


class TestTrustedConstruction:
    """Connective results skip the public constructors' coercion and checks;
    they must be exactly the triples those constructors build."""

    @pytest.mark.parametrize("cfg", ALL_CONFIGS)
    @settings(max_examples=25, phases=NO_SHRINK)  # 9 parameter cases share the budget
    @given(
        pair=st.one_of(
            st.tuples(single_triples, single_triples),
            st.tuples(interval_triples, interval_triples),
            st.tuples(offset_triples, offset_triples),
            st.tuples(offset_interval_triples, offset_interval_triples),
        )
    )
    def test_results_equal_and_hash_like_public_ones(self, cfg, pair):
        x, y = pair
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampWarning)
            both = conj(x, y, cfg)
            either = disj(x, y, cfg)
        for out in (both, either, neg(both), neg(either)):
            again = _rebuilt(out)
            assert out == again and hash(out) == hash(again)
            assert type(out.t) is type(out.i) is type(out.f) is type(x.t)
            for c in (out.t, out.i, out.f):
                values, lo, hi = c.value_range()
                assert all(type(v) is Fraction for v in values)
                assert lo <= hi


class TestConfigTypes:
    X = NeutroTriple.single(0.5, 0.2, 0.6)
    Y = NeutroTriple.single(0.8, 0.4, 0.3)

    def test_kernel_family_must_be_an_enum(self):
        assert tnorm(0.5, 0.5, PRODUCT) == Fraction(1, 4)
        for fn in (tnorm, tconorm):
            with pytest.raises(TypeError, match="family"):
                fn(Fraction(1, 2), Fraction(1, 2), "product")

    def test_operator_config_fields_must_be_enums(self):
        assert conj(self.X, self.Y, OperatorConfig(TI, PRODUCT)) == NeutroTriple.single(
            0.4, 0.08, 0.72
        )
        with pytest.raises(TypeError, match="family"):
            OperatorConfig("ti", "product")
        with pytest.raises(TypeError, match="tnorm"):
            OperatorConfig(TI, "product")
