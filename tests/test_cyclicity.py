"""Cyclic monoids, generalized exponents and exponentiation laws."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hyperqudit import (
    CycExponent,
    embed,
    exp_add,
    index_period,
    monoid_add,
    named_ring,
    power,
    reduce_exponent,
    special_exponents,
)
from hyperqudit.errors import OutOfRange, RingMismatch

LAW_RINGS = ["F2", "F3", "F4", "F5", "Z4", "Z8", "Z9", "F8", "F9", "GR(4,2)", "F16"]


# -- independent oracle: direct power enumeration ------------------------------

def power_oracle(x, n):
    acc = x.ring.one
    for _ in range(n):
        acc = acc * x
    return acc


class TestIndexPeriod:
    def test_z4_two(self, z4):
        assert index_period(z4.from_int(2)) == (2, 1)

    def test_gr42_one_plus_theta(self, gr42):
        assert index_period(gr42.element([1, 1])) == (0, 6)

    def test_universal_zero_and_one(self):
        for name in LAW_RINGS:
            ring = named_ring(name)
            assert index_period(ring.zero) == (1, 1)
            assert index_period(ring.one) == (0, 1)

    def test_printed_z4_table(self, z4):
        assert index_period(z4.from_int(3)) == (0, 2)

    def test_printed_f4_table(self, f4):
        theta = f4.element([0, 1])
        assert index_period(theta) == (0, 3)
        assert index_period(f4.element([1, 1])) == (0, 3)

    def test_printed_gr42_table(self, gr42):
        h21 = [(2, 0), (0, 2), (2, 2)]
        h02 = [(3, 0), (1, 2), (3, 2)]
        h03 = [(0, 1), (3, 3)]
        h06 = [(1, 1), (2, 1), (3, 1), (0, 3), (1, 3), (2, 3)]
        for coeffs, expected in (
            [(c, (2, 1)) for c in h21] + [(c, (0, 2)) for c in h02]
            + [(c, (0, 3)) for c in h03] + [(c, (0, 6)) for c in h06]
        ):
            assert index_period(gr42.element(coeffs)) == expected, coeffs

    def test_defining_properties(self):
        for name in LAW_RINGS:
            ring = named_ring(name)
            for x in ring.elements:
                iota, pi = index_period(x)
                powers = [power_oracle(x, t) for t in range(iota + pi + 1)]
                assert len({p.coeffs for p in powers[:-1]}) == iota + pi
                assert powers[iota + pi] == powers[iota]

    def test_units_have_zero_index(self):
        for name in LAW_RINGS:
            ring = named_ring(name)
            for x in ring.elements:
                iota, _ = index_period(x)
                assert (iota == 0) == ring.is_unit(x)


class TestReduceExponent:
    def test_below_threshold_unchanged(self, f4):
        theta = f4.element([0, 1])
        for u in range(3):
            assert reduce_exponent(theta, u) == u

    def test_z4_nilpotent(self, z4):
        assert reduce_exponent(z4.from_int(2), 5) == 2
        assert power_oracle(z4.from_int(2), 5) == power_oracle(z4.from_int(2), 2)

    def test_f4_order_three(self, f4):
        theta = f4.element([0, 1])
        assert reduce_exponent(theta, 7) == 1
        assert power_oracle(theta, 7) == theta

    def test_always_represents_the_power(self):
        for name in LAW_RINGS:
            ring = named_ring(name)
            for x in ring.elements:
                iota, pi = index_period(x)
                for u in range(2 * (iota + pi) + 2):
                    h = reduce_exponent(x, u)
                    assert h < iota + pi
                    assert power_oracle(x, u) == power_oracle(x, h)


class TestMonoidAdd:
    def test_z4_nilpotent_add(self, z4):
        assert monoid_add(z4.from_int(2), 1, 1) == 2

    def test_zero_is_neutral(self, f5):
        for x in f5.elements:
            iota, pi = index_period(x)
            for u in range(iota + pi):
                assert monoid_add(x, u, 0) == u

    def test_f4_wraparound(self, f4):
        theta = f4.element([0, 1])
        assert monoid_add(theta, 2, 2) == 1

    def test_out_of_range(self, f4):
        theta = f4.element([0, 1])
        with pytest.raises(OutOfRange):
            monoid_add(theta, 3, 0)

    def test_exhaustive_power_law(self):
        # x^(u +_x v) = x^u x^v for all x and in-range u, v; q <= 16
        for name in LAW_RINGS:
            ring = named_ring(name)
            if ring.q > 16:
                continue
            for x in ring.elements:
                iota, pi = index_period(x)
                for u in range(iota + pi):
                    for v in range(iota + pi):
                        s = monoid_add(x, u, v)
                        assert power_oracle(x, s) == power_oracle(x, u) * power_oracle(x, v)


class TestEmbed:
    def test_identity_embedding(self, f4):
        theta = f4.element([0, 1])
        iota, pi = index_period(theta)
        for u in range(iota + pi):
            assert embed(theta, 1, u) == u

    def test_f4_square_embedding(self, f4):
        theta = f4.element([0, 1])
        assert embed(theta, 2, 1) == 2
        assert power_oracle(theta * theta, 1) == power_oracle(theta, 2)

    def test_z4_nilpotent_embedding(self, z4):
        two = z4.from_int(2)
        assert embed(two, 2, 1) == 2
        assert power_oracle(two * two, 1) == power_oracle(two, 2)

    def test_out_of_monoid_and_negative_power_rejected(self, f4):
        theta = f4.element([0, 1])
        with pytest.raises(OutOfRange):
            embed(theta, 2, sum(index_period(theta * theta)))
        with pytest.raises(OutOfRange):
            embed(theta, -1, 0)

    def test_embedding_is_compatible_with_powers(self):
        for name in ["F3", "F4", "Z4", "F5"]:
            ring = named_ring(name)
            for x in ring.elements:
                for q_exp in (0, 1, 2, 3, 7):
                    y = x ** q_exp
                    iota, pi = index_period(y)
                    for u in range(iota + pi):
                        assert power_oracle(y, u) == power_oracle(x, embed(x, q_exp, u))


def sparse_exponents(ring):
    """Hypothesis strategy for valid sparse exponents over a ring."""
    bounds = [sum(index_period(x)) for x in ring.elements]

    def build(picks):
        return CycExponent.make(
            ring, {i: u % bounds[i] for i, u in picks.items()})

    return st.dictionaries(
        st.integers(min_value=0, max_value=ring.q - 1),
        st.integers(min_value=0, max_value=16),
        max_size=ring.q,
    ).map(build)


class TestExpAdd:
    def test_zero_neutral(self, f3):
        u = CycExponent.from_dense(f3, (0, 0, 1))
        assert exp_add(u, CycExponent.zero(f3)) == u

    def test_f4_theta_component_accumulates(self, f4):
        theta_idx = f4.index(f4.element([0, 1]))
        s = CycExponent.make(f4, {theta_idx: 1})
        assert exp_add(s, s) == CycExponent.make(f4, {theta_idx: 2})

    def test_trivial_component_collapses(self, f2):
        one_idx = f2.index(f2.one)
        with pytest.raises(OutOfRange):
            CycExponent.make(f2, {one_idx: 1})

    def test_negative_component_rejected(self, f3):
        with pytest.raises(OutOfRange):
            CycExponent.from_dense(f3, (0, 0, -1))

    def test_ring_mismatch(self, f2, f3):
        with pytest.raises(RingMismatch):
            exp_add(CycExponent.zero(f2), CycExponent.zero(f3))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_associative_commutative(self, data):
        ring = named_ring(data.draw(st.sampled_from(["F3", "F4", "Z4"])))
        u = data.draw(sparse_exponents(ring))
        v = data.draw(sparse_exponents(ring))
        w = data.draw(sparse_exponents(ring))
        assert exp_add(u, v) == exp_add(v, u)
        assert exp_add(exp_add(u, v), w) == exp_add(u, exp_add(v, w))
        assert exp_add(u, CycExponent.zero(ring)) == u


class TestPower:
    def test_qutrit_exponent_semantics(self, f3):
        u = CycExponent.from_dense(f3, (0, 0, 1))
        assert power(f3.from_int(2), u) == f3.from_int(2)
        assert power(f3.zero, u) == f3.one
        assert power(f3.one, u) == f3.one

    def test_zero_exponent(self):
        for name in LAW_RINGS:
            ring = named_ring(name)
            zero = CycExponent.zero(ring)
            for x in ring.elements:
                assert power(x, zero) == ring.one

    def test_f2_first_power(self, f2):
        u = CycExponent.from_dense(f2, (1, 0))
        for x in f2.elements:
            assert power(x, u) == x

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_exponent_law(self, data):
        ring = named_ring(data.draw(st.sampled_from(["F3", "F4", "Z4"])))
        u = data.draw(sparse_exponents(ring))
        v = data.draw(sparse_exponents(ring))
        for x in ring.elements:
            assert power(x, exp_add(u, v)) == power(x, u) * power(x, v)


class TestSpecialExponents:
    def test_f3_delta(self, f3):
        assert special_exponents(f3).delta == 2

    def test_identity_exponents(self):
        for name in LAW_RINGS:
            ring = named_ring(name)
            special = special_exponents(ring)
            for x in ring.elements:
                assert power(x, special.s_star) == x
                assert power(x, special.q_elem) == x

    def test_s_star_is_the_sum_of_the_generators(self):
        for name in LAW_RINGS:
            special = special_exponents(named_ring(name))
            total = special.s[0]
            for g in special.s[1:]:
                total = exp_add(total, g)
            assert special.s_star == total

    def test_generator_at_one_is_zero(self, f2):
        special = special_exponents(f2)
        assert special.s[f2.index(f2.one)].is_zero()

    def test_generators_generate_componentwise(self, f3):
        special = special_exponents(f3)
        for idx, x in enumerate(f3.elements):
            g = special.s[idx]
            if x == f3.one:
                assert g.is_zero()
            else:
                assert g.component(idx) == 1
                assert sum(g.to_dense()) == 1

    def test_exponent_tuple_count_and_lower_bound(self):
        # distinct exponent tuples number prod (iota+pi); the componentwise
        # size sum is at least 3 in every ring
        for name in ["F2", "F3", "F4", "Z4"]:
            ring = named_ring(name)
            bounds = [sum(index_period(x)) for x in ring.elements]
            tuples = set(itertools.product(*[range(b) for b in bounds]))
            product = 1
            for b in bounds:
                product *= b
            assert len(tuples) == product
            assert sum(bounds) >= 3
