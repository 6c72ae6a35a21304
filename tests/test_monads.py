"""Order, closeness, and arithmetic on monad-decorated numbers."""

import itertools
import os
import pickle
import subprocess
import sys
import threading
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import neutrocalc
import oracles
from neutrocalc import (
    FormulaSyntaxError,
    IncomparableOperands,
    MonadKind,
    NsNumber,
    OrderRelation,
    add_ns,
    as_fraction,
    bimonad,
    compare_ns,
    equal_ns,
    infinitely_close,
    left,
    max_ns,
    min_ns,
    monads,
    parse,
    right,
    roughly_leq,
    std,
)
from neutrocalc.monads import _AT_LEAST, _AT_MOST, _AT_VALUE, _KIND_JOIN, _KIND_MEET, _SUM
from neutrocalc.monads import _ratio, _read_decimal
from strategies import grid_fractions, ns_numbers

LT = OrderRelation.LT_N
LE = OrderRelation.LE_N
EQ = OrderRelation.EQ_N
GE = OrderRelation.GE_N
GT = OrderRelation.GT_N
INC = OrderRelation.INCOMPARABLE

ALL_KINDS = list(MonadKind)


class TestCompare:
    # Decorations order same-value operands: left monad below the point,
    # point below the right monad, bimonad only non-strictly comparable
    # against its one-sided halves.
    @pytest.mark.parametrize(
        "x, y, expected",
        [
            (left(0.3), std(0.3), LT),
            (std(0.3), right(0.3), LT),
            (left(0.3), right(0.3), LT),
            (left(0.3), bimonad(0.3), LE),
            (bimonad(0.3), right(0.3), LE),
            (std(0.3), bimonad(0.3), INC),
            (bimonad(0.3), std(0.3), INC),
            (std(0.3), left(0.3), GT),
            (right(0.3), std(0.3), GT),
            (right(0.3), left(0.3), GT),
            (bimonad(0.3), left(0.3), GE),
            (right(0.3), bimonad(0.3), GE),
        ],
    )
    def test_equal_value_pairs(self, x, y, expected):
        assert compare_ns(x, y) is expected

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_kind_same_value_is_equal(self, kind):
        assert compare_ns(NsNumber(Fraction(2, 5), kind), NsNumber(Fraction(2, 5), kind)) is EQ

    def test_value_dominates_any_decoration(self):
        for ka, kb in itertools.product(ALL_KINDS, repeat=2):
            assert compare_ns(NsNumber(Fraction(1, 5), ka), NsNumber(Fraction(3, 10), kb)) is LT
            assert compare_ns(NsNumber(Fraction(3, 10), ka), NsNumber(Fraction(1, 5), kb)) is GT

    def test_right_below_left_when_values_order(self):
        assert compare_ns(right(0.2), left(0.3)) is LT

    @pytest.mark.parametrize(
        "rel, mirrored",
        [(LT, GT), (LE, GE), (EQ, EQ), (GE, LE), (GT, LT), (INC, INC)],
    )
    def test_mirror(self, rel, mirrored):
        assert rel.mirror() is mirrored

    @given(ns_numbers, ns_numbers)
    def test_mirror_symmetry(self, x, y):
        assert compare_ns(x, y) is compare_ns(y, x).mirror()

    @given(ns_numbers, ns_numbers)
    def test_total_over_six_outcomes(self, x, y):
        assert compare_ns(x, y) in OrderRelation

    @given(ns_numbers, ns_numbers, ns_numbers)
    def test_strict_chain_transitivity(self, x, y, z):
        if compare_ns(x, y) is LT and compare_ns(y, z) is LT:
            assert compare_ns(x, z) is LT

    @given(ns_numbers, ns_numbers)
    def test_oracle_agreement_sample(self, x, y):
        assert compare_ns(x, y) is oracles.classify(x, y)


class TestKindTables:
    """MonadKind and OrderRelation hash by identity.  Every table keyed on
    them answers as a scan by equality does, for members however
    obtained: by attribute, by value, by name, or unpickled."""

    @staticmethod
    def _copies(member):
        cls = type(member)
        return (member, cls(member.value), cls[member.name], pickle.loads(pickle.dumps(member)))

    @pytest.mark.parametrize("kx, ky", list(itertools.product(ALL_KINDS, repeat=2)))
    def test_lookups_agree_with_a_scan(self, kx, ky):
        for table in (_AT_VALUE, _SUM, _KIND_MEET, _KIND_JOIN):
            (scanned,) = [v for k, v in table.items() if k == (kx, ky)]
            for a, b in zip(self._copies(kx), self._copies(ky)):
                assert table[a, b] is scanned
        for rel in self._copies(_AT_VALUE[kx, ky]):
            for order in (_AT_MOST, _AT_LEAST):
                assert (rel in order) is any(rel == r for r in order)

    def test_hash_is_identity(self):
        # Sound because every way of obtaining a member yields the one object.
        for member in (*MonadKind, *OrderRelation):
            assert type(member).__hash__ is object.__hash__
            assert all(copy is member for copy in self._copies(member))


class TestEqualAndClose:
    def test_equal_needs_value_and_kind(self):
        assert equal_ns(left(0.3), left(0.3))
        assert not equal_ns(left(0.3), right(0.3))
        assert not equal_ns(std(0.3), std(0.4))

    def test_equal_matches_dataclass_equality(self):
        assert left(0.3) == left(Fraction(3, 10))
        assert left(0.3) != bimonad(0.3)

    def test_all_decorations_of_one_value_collapse(self):
        assert infinitely_close(left(0.3), right(0.3))
        assert infinitely_close(bimonad(0.2), std(0.2))
        assert not infinitely_close(std(0.2), std(0.3))

    @given(ns_numbers, ns_numbers, ns_numbers)
    def test_closeness_is_an_equivalence(self, x, y, z):
        assert infinitely_close(x, x)
        assert infinitely_close(x, y) == infinitely_close(y, x)
        if infinitely_close(x, y) and infinitely_close(y, z):
            assert infinitely_close(x, z)

    def test_rough_order_ignores_decorations(self):
        assert roughly_leq(right(0.3), left(0.3))
        assert roughly_leq(std(0.2), left(0.3))
        assert not roughly_leq(std(0.4), std(0.3))

    @given(ns_numbers, ns_numbers)
    def test_rough_order_is_total(self, x, y):
        assert roughly_leq(x, y) or roughly_leq(y, x)

    @given(ns_numbers, ns_numbers)
    def test_mutual_rough_order_is_closeness(self, x, y):
        assert (roughly_leq(x, y) and roughly_leq(y, x)) == infinitely_close(x, y)

    @given(ns_numbers, ns_numbers, ns_numbers)
    def test_rough_order_transitive(self, x, y, z):
        if roughly_leq(x, y) and roughly_leq(y, z):
            assert roughly_leq(x, z)


class TestMinMax:
    def test_strictly_ranked_pairs(self):
        assert min_ns(left(0.3), std(0.3)) == left(0.3)
        assert max_ns(std(0.2), right(0.2)) == right(0.2)
        assert min_ns(std(0.9), std(0.1)) == std(0.1)

    def test_nonstrict_pair_returns_lower_half(self):
        assert min_ns(left(0.3), bimonad(0.3)) == left(0.3)
        assert min_ns(bimonad(0.3), left(0.3)) == left(0.3)
        assert max_ns(bimonad(0.3), right(0.3)) == right(0.3)

    def test_unrankable_pair_raises(self):
        with pytest.raises(IncomparableOperands):
            min_ns(std(0.5), bimonad(0.5))
        with pytest.raises(IncomparableOperands):
            max_ns(bimonad(0.5), std(0.5))

    @given(ns_numbers, ns_numbers)
    def test_results_are_operands_and_ordered(self, x, y):
        if compare_ns(x, y) is INC:
            return
        lo, hi = min_ns(x, y), max_ns(x, y)
        assert {lo, hi} <= {x, y}
        assert compare_ns(lo, hi) in (LT, LE, EQ)


class TestAdd:
    @pytest.mark.parametrize(
        "x, y, expected",
        [
            (std(0.2), std(0.3), std(0.5)),
            (left(0.2), left(0.3), left(0.5)),
            (right(0.2), right(0.3), right(0.5)),
            (left(0.2), right(0.3), bimonad(0.5)),
            (bimonad(0.1), std(0.2), bimonad(0.3)),
            (bimonad(0.1), left(0.2), bimonad(0.3)),
            (left(0.2), std(0.3), left(0.5)),
            (right(0.2), std(0.3), right(0.5)),
            (right(0.2), bimonad(0.3), bimonad(0.5)),
            (bimonad(0.2), bimonad(0.3), bimonad(0.5)),
        ],
    )
    def test_kind_table(self, x, y, expected):
        assert add_ns(x, y) == expected

    def test_kind_table_matches_representative_sums(self):
        rng = Random(7)
        for _ in range(300):
            x, y = oracles.random_nsnumber(rng), oracles.random_nsnumber(rng)
            assert add_ns(x, y).kind is oracles.sum_kind(x, y, rng)

    @given(ns_numbers, ns_numbers)
    def test_commutative(self, x, y):
        assert add_ns(x, y) == add_ns(y, x)

    @given(ns_numbers, ns_numbers, ns_numbers)
    def test_associative(self, x, y, z):
        assert add_ns(add_ns(x, y), z) == add_ns(x, add_ns(y, z))

    @given(ns_numbers, grid_fractions)
    def test_std_is_neutral_on_kind(self, x, v):
        out = add_ns(x, std(v))
        assert out.kind is x.kind
        assert out.value == x.value + v


class TestConstruction:
    def test_floats_become_exact_decimals(self):
        assert std(0.2).value == Fraction(1, 5)
        assert as_fraction(0.1) + as_fraction(0.2) == Fraction(3, 10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            std(float("inf"))
        with pytest.raises(ValueError):
            std(float("nan"))

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "sNaN"])
    def test_non_finite_decimals_rejected(self, text):
        with pytest.raises(ValueError, match="^value must be finite$"):
            as_fraction(Decimal(text))

    def test_huge_exponents_are_refused_before_the_power_is_built(self):
        # Building 10**99999999 takes minutes, so the child runs under a
        # timeout and a hang fails the test instead of stalling the suite.
        script = """if True:
            from decimal import Decimal
            from neutrocalc import SingleValued, as_fraction
            assert as_fraction("1e4300") == 10**4300 == as_fraction(Decimal("1e4300"))
            for make, v in [(SingleValued, "1e99999999"), (as_fraction, "-2.5E-9_999_999"),
                            (as_fraction, Decimal("1e99999999"))]:
                try:
                    make(v)
                except ValueError as e:
                    print(e)
        """
        src = str(Path(neutrocalc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "4300"}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30
        )
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [
            "exponent of '1e99999999' exceeds 4300 in magnitude",
            "exponent of '-2.5E-9_999_999' exceeds 4300 in magnitude",
            "exponent of Decimal('1E+99999999') exceeds 4300 in magnitude",
        ]

    def test_digit_strings_past_the_str_digit_limit_convert_exactly(self):
        # Fraction(str) refuses more digits than int() converts.
        n = (sys.get_int_max_str_digits() or 4300) + 700
        repunit = (10**n - 1) // 9
        assert as_fraction("1" * n) == repunit
        assert as_fraction(f" -{'1' * n}.5e-3 ") == -Fraction(2 * repunit + 1, 2000)
        for text in ("inf", "-inf", "nan", "Infinity", "1" * n + "x", "1/" + "1" * n):
            with pytest.raises(ValueError):
                as_fraction(text)

    @given(
        digits=st.tuples(
            st.text("0123456789", min_size=1, max_size=40),
            st.integers(4301, 9000),
            st.text("0123456789", max_size=40),
        ).map(lambda t: (t[0] * (t[1] // len(t[0]) + 1))[: t[1]] + t[2]),
        sign=st.sampled_from(["", "-", "+"]),
        point=st.one_of(st.none(), st.integers(0, 9040)),
        exponent=st.one_of(st.none(), st.integers(-60, 60)),
        limit=st.sampled_from([640, 4300]),
    )
    def test_long_decimals_read_as_decimal_does(self, digits, sign, point, exponent, limit):
        if point is not None:
            point = min(point, len(digits))
            digits = f"{digits[:point]}.{digits[point:]}"
        numeral = sign + digits
        text = numeral if exponent is None else f"{numeral}e{exponent}"
        expected = Fraction(Decimal(text))
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)  # pieces keep within whatever limit is set
        try:
            assert _read_decimal(numeral, exponent or 0) == expected
            assert as_fraction(text) == expected
        finally:
            sys.set_int_max_str_digits(previous)

    def test_notation(self):
        assert str(std(0.8)) == "0.8"
        assert str(left(0.25)) == "L(0.25)"
        assert str(right(2)) == "R(2)"
        assert str(bimonad(-0.5)) == "B(-0.5)"

    def test_notation_past_the_str_digit_limit(self):
        # str() refuses an integer of more digits; Decimal renders it exactly.
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert str(std(10**4400)) == "1" + "0" * 4400
        finally:
            sys.set_int_max_str_digits(previous)


def _shown(q) -> str:
    """repr(q), or the error repr raises past the int/str digit limit."""
    try:
        return repr(q)
    except ValueError as e:
        return str(e)


_NUMERATORS = st.one_of(st.integers(-(10**6), 10**6), st.integers(-(10**4400), 10**4400))
_DENOMINATORS = st.one_of(st.integers(1, 10**6), st.integers(1, 10**4400))


class TestRatio:
    """_ratio builds Fractions without Fraction.__new__, so it must build
    exactly the normalised Fraction that constructor does."""

    def test_fraction_layout_is_pinned(self):
        # _ratio writes these two slots; a Python that renames them fails here.
        assert Fraction.__slots__ == ("_numerator", "_denominator")

    @given(_NUMERATORS, _DENOMINATORS, st.integers(1, 10**6))
    def test_matches_the_public_constructor(self, n, d, common):
        n, d = n * common, d * common
        public = Fraction(n, d)
        zero, built = _ratio(0, d), _ratio(n, d)
        assert zero == 0 and zero.denominator == 1
        assert type(built) is type(public) is Fraction
        assert (built.numerator, built.denominator) == (public.numerator, public.denominator)
        assert built == public and hash(built) == hash(public)
        assert _shown(built) == _shown(public)
        total = built + Fraction(1, 3)
        assert total == public + Fraction(1, 3)
        assert _shown(total) == _shown(public + Fraction(1, 3))


@contextmanager
def _empty_memo():
    """An empty numeral memo for the block, the process's own restored after."""
    saved, monads._MEMO = monads._MEMO, {}
    try:
        yield monads._MEMO
    finally:
        monads._MEMO = saved


class TestDecimalMemo:
    """_read_decimal memoises short numerals read without an exponent.
    Every test starts from an empty memo of its own."""

    @given(st.from_regex(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)", fullmatch=True))
    def test_cold_and_warm_reads_are_exact(self, text):
        with _empty_memo() as memo:
            cold = _read_decimal(text)
            assert (text in memo) is (len(text) <= monads._MEMO_WIDTH)
            warm = _read_decimal(text)
        assert type(cold) is type(warm) is Fraction
        assert cold == warm == Fraction(text)

    def test_memo_is_capped(self):
        with _empty_memo() as memo:
            for i in range(10_000):
                assert _read_decimal(f"0.{i}") == Fraction(i, 10 ** len(str(i)))
                assert len(memo) <= monads._MEMO_CAP
            assert len(memo) == monads._MEMO_CAP  # full, and no longer stored into

    def test_long_numerals_and_exponents_are_not_stored(self):
        width = monads._MEMO_WIDTH
        with _empty_memo() as memo:
            assert _read_decimal("1" * (width + 1)) == int("1" * (width + 1))
            assert _read_decimal("-0." + "5" * (width - 2)) == -Fraction("0." + "5" * (width - 2))
            assert as_fraction("5e-1") == Fraction(1, 2)
            assert list(memo) == []
            with pytest.raises(FormulaSyntaxError, match="'@'"):
                parse("<" + "1" * 400_000 + " @")  # the digits-400000 hostile literal
            assert list(memo) == []
            assert _read_decimal("1" * width) == int("1" * width)
            assert list(memo) == ["1" * width]

    def test_threads_share_the_memo(self):
        """8 threads, more than the cores, start together and read the same
        numerals, more than the cap, under a short switch interval."""
        threads_n = 8
        texts = [f"{i % 7}.{i:04d}" for i in range(monads._MEMO_CAP + 1000)]
        expected = [Fraction(t) for t in texts]
        start = threading.Barrier(threads_n, timeout=60)
        wrong, sizes = [], []

        def read():
            start.wait()
            largest = 0
            for t, q in zip(texts, expected):
                if _read_decimal(t) != q:
                    wrong.append(t)
                largest = max(largest, len(monads._MEMO))
            sizes.append(largest)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _empty_memo():
                threads = [threading.Thread(target=read) for _ in range(threads_n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert wrong == [] and len(sizes) == threads_n
        assert max(sizes) <= monads._MEMO_CAP + threads_n


def test_delta_oracle_agreement_bulk():
    # Randomized conformance sweep; values from the coarse grid so the
    # finite-width model is faithful.
    rng = Random(2024)
    for _ in range(2000):
        v = oracles.grid_value(rng)
        if rng.random() < 0.5:
            x, y = oracles.random_nsnumber(rng, v), oracles.random_nsnumber(rng, v)
        else:
            x, y = oracles.random_nsnumber(rng), oracles.random_nsnumber(rng)
        assert compare_ns(x, y) is oracles.classify(x, y)
