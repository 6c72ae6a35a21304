"""Decorated intervals: membership, bounds, and the rough-interval report."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from neutrocalc import (
    EmptySet,
    InvalidInterval,
    MonadKind,
    NsInterval,
    NsNumber,
    OrderRelation,
    UNIT_INTERVAL,
    anomaly_check,
    bimonad,
    compare_ns,
    contains,
    inf_ns,
    inf_ns_set,
    left,
    right,
    rough_contains,
    std,
    sup_ns,
    sup_ns_set,
)
from strategies import grid_fractions, kinds, ns_numbers

AT_MOST = (OrderRelation.LT_N, OrderRelation.LE_N, OrderRelation.EQ_N)


class TestConstruction:
    def test_endpoints_must_rank(self):
        with pytest.raises(InvalidInterval):
            NsInterval(std(0.9), std(0.1))
        with pytest.raises(InvalidInterval):
            NsInterval(std(0.5), bimonad(0.5))  # incomparable endpoints
        with pytest.raises(InvalidInterval):
            NsInterval(right(0.3), left(0.3))

    def test_degenerate_and_nonstrict_allowed(self):
        NsInterval(std(0.5), std(0.5))
        NsInterval(left(0.5), bimonad(0.5))

    def test_unit_interval_endpoints(self):
        assert UNIT_INTERVAL.lo == left(0)
        assert UNIT_INTERVAL.hi == right(1)


class TestContains:
    def test_strict_interior_always_member(self):
        iv = NsInterval(std(0.2), std(0.8))
        for kind in MonadKind:
            assert contains(iv, NsNumber(Fraction(1, 2), kind))

    def test_endpoint_decorations_decide(self):
        iv = NsInterval(std(0.2), right(0.9))
        assert not contains(iv, left(0.2))  # below the standard endpoint
        assert not contains(iv, bimonad(0.2))  # straddles it
        assert contains(iv, std(0.2))
        assert contains(iv, right(0.9))
        assert not contains(iv, std(1))

        wide = NsInterval(left(0.2), right(0.9))
        assert contains(wide, bimonad(0.2))
        assert contains(wide, left(0.2))

    def test_unit_interval_admits_every_kind_at_the_edges(self):
        for kind in MonadKind:
            assert contains(UNIT_INTERVAL, NsNumber(Fraction(0), kind))
            assert contains(UNIT_INTERVAL, NsNumber(Fraction(1), kind))

    @given(grid_fractions, kinds)
    def test_unit_interval_is_value_band(self, v, kind):
        assert contains(UNIT_INTERVAL, NsNumber(v, kind)) == (0 <= v <= 1)


class TestInfSup:
    def test_interval_bounds_are_decorated_endpoints(self):
        iv = NsInterval(left(0.2), right(0.8))
        assert inf_ns(iv) == left(0.2)
        assert sup_ns(iv) == right(0.8)

    def test_singleton_set(self):
        assert inf_ns_set([std(0.3)]) == std(0.3)
        assert sup_ns_set([std(0.3)]) == std(0.3)

    def test_mixed_kinds_at_minimum(self):
        s = [std(0.3), left(0.3), right(0.7)]
        assert inf_ns_set(s) == left(0.3)
        assert sup_ns_set(s) == right(0.7)

    def test_unrankable_minimal_pair_falls_to_left_monad(self):
        assert inf_ns_set([std(0.5), bimonad(0.5)]) == left(0.5)
        assert sup_ns_set([std(0.5), bimonad(0.5)]) == right(0.5)

    @pytest.mark.parametrize("a", oracles.KINDS)
    @pytest.mark.parametrize("b", oracles.KINDS)
    def test_kind_pairs_at_one_value_match_the_oracle(self, a, b):
        # The greatest kind below both and the least above both, judged
        # by the oracle's set geometry alone.
        v = Fraction(3, 10)
        pair = [NsNumber(v, a), NsNumber(v, b)]
        cands = [NsNumber(v, k) for k in oracles.KINDS]

        def leq(x, y):
            return oracles.classify(x, y) in AT_MOST

        lower = [c for c in cands if all(leq(c, x) for x in pair)]
        upper = [c for c in cands if all(leq(x, c) for x in pair)]
        assert [inf_ns_set(pair)] == [c for c in lower if all(leq(d, c) for d in lower)]
        assert [sup_ns_set(pair)] == [c for c in upper if all(leq(c, d) for d in upper)]

    def test_empty_set_raises(self):
        with pytest.raises(EmptySet):
            inf_ns_set([])
        with pytest.raises(EmptySet):
            sup_ns_set([])

    @given(st.lists(ns_numbers, min_size=1, max_size=6))
    def test_inf_is_greatest_lower_bound(self, items):
        lo = inf_ns_set(items)
        assert all(compare_ns(lo, x) in AT_MOST for x in items)
        # No decorated number above lo keeps the lower-bound property:
        # check the remaining kinds at lo's value and one grid step up.
        for kind in MonadKind:
            for candidate in (NsNumber(lo.value, kind), NsNumber(lo.value + Fraction(1, 1000), kind)):
                if candidate == lo:
                    continue
                if compare_ns(lo, candidate) in (OrderRelation.LT_N, OrderRelation.LE_N):
                    assert not all(compare_ns(candidate, x) in AT_MOST for x in items)

    @given(st.lists(ns_numbers, min_size=1, max_size=6))
    def test_sup_mirrors_inf(self, items):
        hi = sup_ns_set(items)
        assert all(compare_ns(x, hi) in AT_MOST for x in items)


class TestRough:
    def test_decorated_probes_at_the_edges(self):
        assert rough_contains(0.2, 0.8, left(0.2))
        assert rough_contains(0.2, 0.8, right(0.8))
        assert rough_contains(0.2, 0.8, std(0.5))
        assert not rough_contains(0.2, 0.8, std(0.9))
        assert not rough_contains(0.2, 0.8, left(0.1))

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            rough_contains(0.8, 0.2, std(0.5))

    @given(grid_fractions, kinds)
    def test_membership_is_a_value_band(self, v, kind):
        assert rough_contains(0, 1, NsNumber(v, kind)) == (0 <= v <= 1)


class TestAnomaly:
    def test_known_probes(self):
        report = anomaly_check(0.2, 0.8, [left(0.2), std(0.5), right(0.8)])
        assert report.outer_membership == (True, True, True)
        assert report.inner_membership == (True, True, True)
        assert report.memberships_coincide
        assert report.discrepancies == ()

    def test_notations_differ_but_membership_does_not(self):
        report = anomaly_check(0, 1, [std(0.5), std(2)])
        assert report.outer_notation != report.inner_notation
        assert report.outer_membership == report.inner_membership == (True, False)

    def test_requires_strictly_ordered_bounds(self):
        with pytest.raises(ValueError):
            anomaly_check(0.5, 0.5, [std(0.5)])

    def test_random_probe_sweep_has_no_discrepancies(self):
        rng = Random(11)
        for _ in range(20):
            a = oracles.grid_value(rng, -1000, 500)
            b = a + Fraction(rng.randint(1, 1000), 1000)
            probes = [oracles.random_nsnumber(rng) for _ in range(100)]
            report = anomaly_check(a, b, probes)
            assert report.memberships_coincide
            for probe, member in zip(report.probes, report.outer_membership):
                assert member == (a <= probe.value <= b)
