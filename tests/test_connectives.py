"""Kernels, the three operator families, and shape handling."""

import signal
import warnings
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from neutrocalc import (
    ClampWarning,
    EvalRequest,
    MonadKind,
    Hesitant,
    IntervalValued,
    NeutroCalcError,
    NeutroTriple,
    Nonstandard,
    NsInterval,
    NsNumber,
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
    format_triple,
    impl,
    left,
    neg,
    parse,
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


def _hesitant_t(count: int, first: int) -> NeutroTriple:
    """count distinct degrees from first/1024 on in T, one degree in I and F."""
    values = [Fraction(first + k, 1024) for k in range(count)]
    return NeutroTriple(Hesitant(values), Hesitant([0]), Hesitant([0]))


class TestHesitantPairLimit:
    """One hesitant operation computes at most 2**16 value pairs; past that,
    a typed error, before any pair is computed."""

    def test_refused_past_the_limit(self):
        with pytest.raises(NeutroCalcError) as info:
            conj(_hesitant_t(257, 1), _hesitant_t(256, 300), OperatorConfig(IF, PRODUCT))
        assert str(info.value) == (
            "hesitant product of 257 by 256 values exceeds the limit of 65536 pairs"
        )

    def test_no_pair_computed_when_refused(self):
        x, y = _hesitant_t(2**16 + 1, 0), _hesitant_t(1, 0)
        pairs = []

        def record(u, v):
            pairs.append((u, v))
            return u

        with pytest.raises(NeutroCalcError, match="hesitant product of 65537 by 1 values"):
            connectives._step(x, y, (record, record, record))
        assert pairs == []

    @pytest.mark.parametrize("via", ["conj", "evaluate"])
    @pytest.mark.parametrize("refused", "TIF")
    def test_no_pair_of_any_component_computed_when_one_is_refused(
        self, monkeypatch, refused, via
    ):
        # The refused component is past the limit, by a count of values that
        # names it, and the other two are at it: no component, those before
        # the refused one included, has been applied.
        count = 257 + "TIF".index(refused)
        past, at = _hesitant_t(count, 1).t, _hesitant_t(256, 1).t
        x = NeutroTriple(*[past if role == refused else at for role in "TIF"])
        y = NeutroTriple(*[_hesitant_t(256, 300).t] * 3)
        cfg = OperatorConfig(IF, PRODUCT)
        combine = {
            "conj": lambda: conj(x, y, cfg),
            "evaluate": lambda: evaluate(EvalRequest("x & y", cfg, bindings={"x": x, "y": y})),
        }[via]
        # The unit product and product t-conorm forms (evaluate's) make their
        # pairs through _products, and the offset ones (conj's, under no
        # bounds) from each operand's values: neither may be reached.
        applied = []
        products, values = connectives._products, Hesitant.values

        def recording(a, d, b, e):
            applied.append((len(a), len(b)))
            return products(a, d, b, e)

        def reading(self):
            applied.append(len(self._nums))
            return values.fget(self)

        monkeypatch.setattr(connectives, "_products", recording)
        monkeypatch.setattr(Hesitant, "values", property(reading))
        with pytest.raises(NeutroCalcError) as info:
            combine()
        assert str(info.value) == (
            f"hesitant product of {count} by 256 values exceeds the limit of 65536 pairs"
        )
        assert applied == []

    def test_computed_at_the_limit(self):
        x, y = _hesitant_t(256, 1), _hesitant_t(256, 300)
        out = conj(x, y, OperatorConfig(IF, PRODUCT))
        assert set(out.t.values) == {u * v for u in x.t.values for v in y.t.values}

    def test_linear_min_max_counts_m_plus_n_values(self):
        # 300 by 300 is 90,000 pairs, past the limit, but the linear meet and
        # join read 600 values; the unit row takes them under evaluate.
        x, y = _hesitant_t(300, 1), _hesitant_t(300, 150)
        out = evaluate(EvalRequest("x & y", bindings={"x": x, "y": y}))
        assert out == NeutroTriple(
            Hesitant(_pairwise_map(min, x.t.values, y.t.values)),
            Hesitant(_pairwise_map(max, x.i.values, y.i.values)),
            Hesitant(_pairwise_map(max, x.f.values, y.f.values)),
        )

    @pytest.mark.parametrize(
        "combine",
        [
            lambda x, y: evaluate(
                EvalRequest("x & y", OperatorConfig(IF, PRODUCT), bindings={"x": x, "y": y})
            ),
            lambda x, y: conj(x, y),  # the offset row's clamping min/max, pair by pair
            lambda x, y: evaluate(  # the Cartesian blend in I
                EvalRequest("x & y", OperatorConfig(PLITH), bindings={"x": x, "y": y})
            ),
        ],
        ids=["product", "public-conj", "plith-blend"],
    )
    def test_other_forms_of_the_same_pair_count_m_by_n(self, combine):
        x, y = (NeutroTriple(c.t, c.t, c.f) for c in (_hesitant_t(300, 1), _hesitant_t(300, 150)))
        with pytest.raises(NeutroCalcError) as info:
            combine(x, y)
        assert str(info.value) == (
            "hesitant product of 300 by 300 values exceeds the limit of 65536 pairs"
        )

    def test_linear_min_max_refused_past_the_limit_in_values(self):
        values = Hesitant([Fraction(k, 2**16) for k in range(2**16)])
        x, y = NeutroTriple(values, values, values), _hesitant_t(1, 0)
        with pytest.raises(NeutroCalcError) as info:
            evaluate(EvalRequest("x | y", bindings={"x": x, "y": y}))
        assert str(info.value) == (
            "hesitant min/max of 65536 and 1 values exceeds the limit of 65536 values"
        )

    def test_linear_min_max_computed_at_the_limit_in_values(self):
        # 65,535 + 1 values, exactly the limit; the join with 0 keeps them all.
        values = Hesitant([Fraction(k, 2**16) for k in range(2**16 - 1)])
        x, y = NeutroTriple(values, values, values), _hesitant_t(1, 0)
        assert evaluate(EvalRequest("x | y", bindings={"x": x, "y": y})).t == values


# Denominators of the set-form differential: decimal, non-decimal, one past
# the float range, and a 61-bit prime, whose products with each other and
# with 3, 7 or 1000 the Cartesian forms take as their denominators.
_SET_DENOMINATORS = (10, 1000, 3, 7, 2**20, 10**400, 2**61 - 1)
set_degrees = st.sampled_from(_SET_DENOMINATORS).flatmap(
    lambda den: st.integers(0, den).map(lambda k: Fraction(k, den))
)


@st.composite
def set_operands(draw):
    """One component's two value lists, the second sharing some values of
    the first; either may hold one value."""
    xs = draw(st.lists(set_degrees, min_size=1, max_size=5))
    ys = draw(st.lists(st.one_of(st.sampled_from(xs), set_degrees), min_size=1, max_size=5))
    return xs, ys


_THIRD, _SEVENTH, _BIG = Fraction(1, 3), Fraction(2, 7), Fraction(1, 2**61 - 1)


def _pairwise_map(scalar, xs, ys) -> tuple:
    """The scalar op's image of every pair, sorted and distinct, as
    Hesitant.values gives values: plain Fraction set arithmetic."""
    return tuple(sorted({scalar(u, v) for u in xs for v in ys}))


class TestSetForms:
    """Hesitant operands under the bounds [0, 1] take the set forms of the
    unit row; each must give the pairwise map of its scalar op."""

    @pytest.mark.parametrize("op", ["&", "|"])
    @pytest.mark.parametrize("cfg", ALL_CONFIGS)
    @settings(max_examples=15, phases=NO_SHRINK)  # 18 parameter cases share the budget
    @given(parts=st.tuples(set_operands(), set_operands(), set_operands()))
    @example(  # 2**61 - 1 with 3 and 7, and 10**400
        parts=(
            ([_BIG, _THIRD], [_SEVENTH, Fraction(1, 2)]),
            ([Fraction(1, 10**400), Fraction(1)], [Fraction(3, 10**400)]),
            ([_BIG, Fraction(1, 1000)], [_BIG]),
        )
    )
    @example(  # one value each, and sets that coincide
        parts=(([_THIRD], [_THIRD]), ([_SEVENTH, _BIG], [_SEVENTH, _BIG]), ([0], [1])),
    )
    def test_evaluate_matches_the_pairwise_map(self, cfg, op, parts):
        x = NeutroTriple(*[Hesitant(xs) for xs, _ in parts])
        y = NeutroTriple(*[Hesitant(ys) for _, ys in parts])
        req = EvalRequest(f"x {op} y", cfg, bounds=UNIT_BOUNDS, bindings={"x": x, "y": y})
        out = evaluate(req)
        (tn, _), (tc, _) = connectives._KERNELS[cfg.tnorm]
        row = connectives._rows(tn, tc, connectives._midpoint)[cfg.family, op == "&"]
        for part, scalar in zip("tif", row):
            xc, yc = getattr(x, part), getattr(y, part)
            xs, ys = xc.values, yc.values
            values = getattr(out, part).values
            assert values == _pairwise_map(scalar, xs, ys)
            assert all(type(v) is Fraction for v in values)
            # The linear min/max forms against the Cartesian map.
            assert connectives._meet_set(xc, yc).values == _pairwise_map(connectives._min, xs, ys)
            assert connectives._join_set(xc, yc).values == _pairwise_map(connectives._max, xs, ys)

    def test_hesitant_operands_take_set_forms(self):
        x = NeutroTriple(Hesitant([0.5]), Hesitant([0.5]), Hesitant([0.5]))
        for k in ALL_KERNELS:
            for domain, bounds in (
                ("unit", UNIT_BOUNDS),
                ("unit", OffsetBounds(0, 1)),
                ("offset", OffsetBounds(0, 2)),
                ("offset", OffsetBounds(-1, 1)),
                ("offset", None),
            ):
                row = connectives._row(OperatorConfig(PLITH, k), x, True, bounds)
                assert row is connectives._TABLE[Hesitant, k, domain][PLITH, True]
        # Each unit row holds the set forms on integers themselves.
        forms = {
            MINMAX: (connectives._meet_set, connectives._join_set),
            PRODUCT: (connectives._product_set, connectives._coproduct_set),
            LUK: (connectives._luk_set, connectives._luk_coset),
        }
        for k, (meet, join) in forms.items():
            rows = connectives._TABLE[Hesitant, k, "unit"]
            assert rows[IF, True] == (meet, join, join)
            assert rows[TI, False] == (join, join, meet)
            assert rows[PLITH, True] == (meet, connectives._midpoint_set, join)


def _primes(count: int, start: int) -> list:
    """The first count primes from start on, by trial division."""
    out, n = [], start
    while len(out) < count:
        if all(n % p for p in range(2, int(n**0.5) + 1)):
            out.append(n)
        n += 1
    return out


_PRIMES = _primes(512, 2**16)
# Two 256-value T components, each value over its own 17-bit prime or over
# a power of ten.  Each prime component's one denominator, the product of
# its 256 primes, has about 4,100 bits, and so has each numerator.
_LARGE_SETS = {
    "prime-denominators": (
        [Fraction(p // 3, p) for p in _PRIMES[:256]],
        [Fraction(p // 2, p) for p in _PRIMES[256:]],
    ),
    "decimal": (
        [Fraction(k, 10**4) for k in range(1, 257)],
        [Fraction(3 * k + 1, 10**4) for k in range(256)],
    ),
}


def _over_time(signum, frame):
    raise TimeoutError("the hesitant step ran past its time bound")


@pytest.mark.parametrize(
    "sets, op, k",
    [
        ("prime-denominators", "&", PRODUCT),
        ("prime-denominators", "|", PRODUCT),
        ("prime-denominators", "|", LUK),
        ("decimal", "&", PRODUCT),
    ],
)
def test_large_hesitant_steps_finish_in_time(sets, op, k):
    """65,536 pairs, within 2 s.  On the prime denominators every
    numerator has about 4,100 bits; `connectives._products` reads the
    second operand's values over their own 17-bit primes instead of
    multiplying two such numerators per pair.  On a 2-core machine the
    product t-norm step takes about 0.3 s, the product t-conorm 0.45 s
    and the Łukasiewicz t-conorm, whose pairs only add, 0.25 s."""
    xs, ys = _LARGE_SETS[sets]
    zero = Hesitant([0])
    x, y = NeutroTriple(Hesitant(xs), zero, zero), NeutroTriple(Hesitant(ys), zero, zero)
    req = EvalRequest(
        f"x {op} y", OperatorConfig(IF, k), bounds=UNIT_BOUNDS, bindings={"x": x, "y": y}
    )
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        out = evaluate(req)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    scalar = connectives._KERNELS[k][op == "|"][0]  # the op on degrees, not its set form
    assert out.t.values == _pairwise_map(scalar, x.t.values, y.t.values)


_TENTHS = st.integers(0, 10).map(lambda k: Fraction(k, 10))
_ONE_SIDED = st.sampled_from([left, std, right])
_ANY_KIND = st.sampled_from([left, std, right, bimonad])


@st.composite
def _ns_components(draw):
    """A single L, S or R number, a bimonad, a two-number union (of any
    kinds) or one interval member, at values in [0, 1]."""
    form = draw(st.sampled_from(["number"] * 6 + ["bimonad", "union", "interval"]))
    v = draw(_TENTHS)
    if form == "number":
        return Nonstandard(draw(_ONE_SIDED)(v))
    if form == "bimonad":
        return Nonstandard(bimonad(v))
    if form == "union":
        return Nonstandard([draw(_ANY_KIND)(v), draw(_ANY_KIND)(draw(_TENTHS))])
    lo, hi = sorted((v, draw(_TENTHS)))
    return Nonstandard(NsInterval(left(lo), right(hi)))


_NS_TRIPLES = st.builds(NeutroTriple, _ns_components(), _ns_components(), _ns_components())
#: Mostly nonstandard triples, now and then a single-valued one.
_NS_OPERANDS = st.integers(0, 5).flatmap(lambda k: single_triples if k == 0 else _NS_TRIPLES)
_VIAS = {
    "conj": lambda x, y, cfg: conj(x, y, cfg),
    "disj": lambda x, y, cfg: disj(x, y, cfg),
    "impl": lambda x, y, cfg: impl(x, y, cfg),
    "&": lambda x, y, cfg: evaluate(EvalRequest("x & y", cfg, bindings={"x": x, "y": y})),
    "|": lambda x, y, cfg: evaluate(EvalRequest("x | y", cfg, bindings={"x": x, "y": y})),
    "->": lambda x, y, cfg: evaluate(EvalRequest("x -> y", cfg, bindings={"x": x, "y": y})),
}


def _expected_refusal(x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig, via: str):
    """The (class, message) that combining x and y must raise, or None for
    a value, from the rules: shapes first, then the kernel, then each
    component in T, I, F order, the left operand (negated for an
    implication) before the right, and within one operand a union or an
    interval member before a bimonad."""
    if x.shape != y.shape:
        return ShapeMismatch, f"operand shapes differ: {x.shape} vs {y.shape}"
    if x.shape != "nonstandard":
        return None
    if cfg.tnorm is not MINMAX:
        return UnsupportedNonstandardConfig, "nonstandard operands support only the min/max kernel"
    left_parts = (x.f, x.i, x.t) if via in ("impl", "->") else (x.t, x.i, x.f)
    for c, d in zip(left_parts, (y.t, y.i, y.f)):
        for members in (c.members, d.members):
            if len(members) != 1 or isinstance(members[0], NsInterval):
                return (
                    UnsupportedNonstandardConfig,
                    "connectives accept nonstandard components holding exactly one number",
                )
            if members[0].kind is MonadKind.BIMONAD:
                return UnsupportedNonstandardConfig, "bimonad operands cannot be ranked by min/max"
    return None


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
        with pytest.raises(UnsupportedNonstandardConfig) as info:
            conj(self.X, self.Y, OperatorConfig(IF, PRODUCT))
        assert str(info.value) == "nonstandard operands support only the min/max kernel"

    def test_bimonad_operand_rejected(self):
        z = NeutroTriple.nonstandard(bimonad(0.5), std(0), std(0))
        with pytest.raises(UnsupportedNonstandardConfig):
            conj(z, self.Y, OperatorConfig(IF, MINMAX))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
    def test_bimonad_ranked_where_the_order_ranks_it(self):
        # B(0.5) <N L(0.7), and min_ns and inf_ns_set both give B(0.5); the
        # decorated row still refuses the bimonad.
        for op, expected in (("&", "<B(0.5), 0, 0>"), ("|", "<L(0.7), 0, 0>")):
            out = evaluate(EvalRequest(f"<B(0.5),0,0> {op} <L(0.7),0,0>"))
            assert format_triple(out) == expected

    def test_a_member_of_an_nsnumber_subclass_is_ranked(self):
        """Such a member fails the common case's exact type test, and the
        refusals then admit it as they admit an NsNumber, bimonad aside."""
        sub = type("Sub", (NsNumber,), {"__slots__": ()})
        x = NeutroTriple(
            Nonstandard(sub(0.5, MonadKind.LEFT)), Nonstandard(std(0.2)), Nonstandard(right(1))
        )
        plain = NeutroTriple.nonstandard(left(0.5), std(0.2), right(1))
        y = NeutroTriple.nonstandard(std(0.5), left(0.3), std(0.4))
        for cfg in (OperatorConfig(IF, MINMAX), OperatorConfig(TI, MINMAX)):
            for op in (conj, disj):
                assert format_triple(op(x, y, cfg)) == format_triple(op(plain, y, cfg))
                assert format_triple(op(y, x, cfg)) == format_triple(op(y, plain, cfg))
        assert conj(x, y).t is x.t
        b = NeutroTriple(Nonstandard(sub(0.5, MonadKind.BIMONAD)), x.i, x.f)
        with pytest.raises(UnsupportedNonstandardConfig) as info:
            conj(y, b)
        assert str(info.value) == "bimonad operands cannot be ranked by min/max"

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

    @settings(max_examples=1000)
    @given(
        x=_NS_OPERANDS,
        y=_NS_OPERANDS,
        cfg=st.sampled_from(ALL_CONFIGS),
        via=st.sampled_from(sorted(_VIAS)),
    )
    def test_refusal_order(self, x, y, cfg, via):
        expected = _expected_refusal(x, y, cfg, via)
        if expected is None:
            out = _VIAS[via](x, y, cfg)
            assert type(out) is NeutroTriple and out.shape == x.shape
        else:
            with pytest.raises(expected[0]) as info:
                _VIAS[via](x, y, cfg)
            assert type(info.value) is expected[0]
            assert str(info.value) == expected[1]

    def test_neg_keeps_decorations(self):
        assert neg(self.X) == NeutroTriple.nonstandard(std(0), std(0), right(1))


class TestShapeAndClamp:
    @pytest.mark.parametrize(
        "shape, args",
        [(SingleValued, (0.5,)), (IntervalValued, (0.2, 0.5)), (Hesitant, ([0.2, 0.5],))],
    )
    def test_a_subclass_of_a_shape_is_refused_by_name(self, shape, args):
        sub = type("Sub", (shape,), {"__slots__": ()})
        x = NeutroTriple(sub(*args), sub(*args), sub(*args))
        with pytest.raises(TypeError) as info:
            conj(x, x)
        assert str(info.value) == "connectives take no components of class Sub"

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

    def test_clamp_message_past_the_float_range(self):
        # float() of the degree overflows, so the message shows its exact decimal.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = conj(NeutroTriple.single(10**400, 0, 0), NeutroTriple.single(0.5, 0, 0))
        assert out == NeutroTriple.single(0.5, 0, 0)
        assert [str(w.message) for w in caught] == [
            f"degree 1{'0' * 400} clamped into [0, 1] for kernel application"
        ]

    @pytest.mark.parametrize(
        "degree, shown",
        [
            (1 + Fraction(1, 10**20), "1.00000000000000000001"),
            (-Fraction(1, 10**400), "-0." + "0" * 399 + "1"),
            (Fraction(6, 5), "1.2"),
        ],
        ids=["float-rounds-to-1", "float-rounds-to-minus-0", "float-outside"],
    )
    def test_clamp_message_names_a_degree_outside_the_unit_range(self, degree, shown):
        # A degree whose float lies in [0, 1] is shown as its exact decimal,
        # any other as its float.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conj(NeutroTriple.single(degree, 0, 0), NeutroTriple.single(0.5, 0.2, 0.1))
        assert [(w.category, str(w.message)) for w in caught] == [
            (ClampWarning, f"degree {shown} clamped into [0, 1] for kernel application")
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


def _pairs(c, d) -> list:
    """The value pairs one connective applies its I op to: every hesitant
    pair, else the pairs of single values or of interval endpoints."""
    cv, dv = c.value_range()[0], d.value_range()[0]
    return [(u, v) for u in cv for v in dv] if isinstance(c, Hesitant) else list(zip(cv, dv))


class TestUnitBlend:
    """Under the bounds [0, 1] the plithogenic I is the midpoint of each
    value pair's t-norm and t-conorm, exactly."""

    @pytest.mark.parametrize("k", ALL_KERNELS)
    @settings(max_examples=40, phases=NO_SHRINK)  # 3 parameter cases share the budget
    @given(
        pair=st.one_of(
            st.tuples(single_triples, single_triples),
            st.tuples(interval_triples, interval_triples),
            st.tuples(hesitant_triples, hesitant_triples),
        ),
        op=st.sampled_from(["&", "|", "->"]),
    )
    def test_blend_matches_the_kernel_definitions(self, k, pair, op):
        x, y = pair
        req = EvalRequest(
            f"x {op} y", OperatorConfig(PLITH, k), bounds=UNIT_BOUNDS, bindings={"x": x, "y": y}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evaluate(req)
        # Negation keeps I, so x -> y blends the same I pairs as x | y.
        blends = [(_ref_tnorm(u, v, k) + _ref_tconorm(u, v, k)) / 2 for u, v in _pairs(x.i, y.i)]
        if isinstance(x.i, Hesitant):
            blends = sorted(set(blends))
        degrees = list(out.i.value_range()[0])
        assert degrees == blends
        assert all(type(v) is Fraction for v in degrees)

    def test_unit_and_decorated_rows_blend_the_operands(self):
        ops, mid, ns_mid = connectives._TABLE, connectives._midpoint, connectives._ns_midpoint
        degrees = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        numbers = [left(0), left(0.2), std(0.5), right(0.5), right(1)]
        for is_conj in (True, False):
            for k in ALL_KERNELS:
                single = ops[SingleValued, k, "unit"][PLITH, is_conj][1]
                interval = ops[IntervalValued, k, "unit"][PLITH, is_conj][1]
                for a in degrees:
                    for b in degrees:
                        assert single(SingleValued(a), SingleValued(b)) == SingleValued(mid(a, b))
                        x, y = IntervalValued(a, 1), IntervalValued(b, 1)
                        assert interval(x, y) == IntervalValued(mid(a, b), 1)
            for domain in ("unit", "offset"):
                decorated = ops[Nonstandard, MINMAX, domain][PLITH, is_conj][1]
                for a in numbers:
                    for b in numbers:
                        out = decorated(Nonstandard(a), Nonstandard(b))
                        assert out == Nonstandard(ns_mid(a, b))


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


class TestOperandReuse:
    """A step whose op returns an operand's degree (min/max, the decorated
    min_ns/max_ns, an offset clamp that passes a degree through) returns
    that operand's component itself; any other op builds a fresh one."""

    SINGLE = (NeutroTriple.single("0.8", "0.4", "0.3"), NeutroTriple.single("0.6", "0.2", "0.5"))
    INTERVAL = tuple(
        parse(text).value
        for text in ("<[0.3,0.5],[0.1,0.2],[0.2,0.3]>", "<[0.1,0.4],[0,0.1],[0.1,0.6]>")
    )

    @pytest.mark.parametrize("via", ["evaluate", "conj"])  # the unit and the offset row
    def test_min_max_returns_the_selected_single_component(self, via):
        x, y = self.SINGLE
        out = _conj_via(via, x, y, OperatorConfig(IF, MINMAX))
        assert out.t is y.t and out.i is x.i and out.f is y.f

    @pytest.mark.parametrize("via", ["evaluate", "conj"])
    def test_min_max_returns_an_interval_whose_endpoints_it_selects(self, via):
        x, y = self.INTERVAL
        out = _conj_via(via, x, y, OperatorConfig(IF, MINMAX))
        assert out.t is y.t and out.i is x.i
        assert out.f == IntervalValued("0.2", "0.6") and out.f is not x.f and out.f is not y.f

    def test_decorated_row_returns_the_selected_component(self):
        x = parse("<L(0.5), 0.2, R(0.3)>").value
        y = parse("<0.5, L(0.2), 0.6>").value
        out = conj(x, y, OperatorConfig(IF, MINMAX))
        assert out.t is x.t and out.i is x.i and out.f is y.f
        blended = conj(x, y, OperatorConfig(PLITH, MINMAX))
        assert blended.i == y.i and blended.i is not y.i  # (0.2 + L(0.2)) / 2

    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (OperatorConfig(IF, PRODUCT), ("0.48", "0.52", "0.65")),
            (OperatorConfig(IF, LUK), ("0.4", "0.6", "0.8")),
            (OperatorConfig(PLITH, MINMAX), ("0.6", "0.3", "0.5")),
        ],
        ids=["product", "luk", "plith"],
    )
    @pytest.mark.parametrize("via", ["evaluate", "conj"])
    def test_other_ops_build_fresh_components(self, cfg, expected, via):
        x, y = self.SINGLE
        out = _conj_via(via, x, y, cfg)
        assert out == NeutroTriple.single(*expected)
        fresh = (out.t, out.i, out.f) if cfg.tnorm is not MINMAX else (out.i,)
        operands = (x.t, x.i, x.f, y.t, y.i, y.f)
        assert all(c is not d for c in fresh for d in operands)


def _conj_via(via: str, x: NeutroTriple, y: NeutroTriple, cfg: OperatorConfig) -> NeutroTriple:
    if via == "conj":
        return conj(x, y, cfg)
    return evaluate(EvalRequest("x & y", cfg, bindings={"x": x, "y": y}))


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
