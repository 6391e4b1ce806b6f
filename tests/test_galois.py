"""Ring construction, arithmetic, trace and the p-adic representation."""

import copy
import itertools
import pickle

import pytest

from hyperqudit import (
    RING_CATALOG,
    make_ring,
    named_ring,
    ring_from_descriptor,
    ring_to_descriptor,
)
from hyperqudit.errors import (
    BadCoefficient,
    NonMonic,
    ReducibleModulus,
    RingMismatch,
    TooLarge,
)
from hyperqudit.galois import EXACT_CAP, GaloisRing
from tests import oracle

SMALL_RINGS = ["F2", "F3", "F4", "F5", "Z4", "Z8", "Z9", "F8", "F9", "GR(4,2)", "GR(4,3)"]

# The catalog plus rings outside it: F25, F27, Z16, Z25 and GR(9,2); all have q <= 81.
ORDER_RINGS = {**RING_CATALOG,
               "F25": (5, 1, 2, (2, 1, 1)), "F27": (3, 1, 3, (1, 2, 0, 1)),
               "Z16": (2, 4, 1, (0, 1)), "Z25": (5, 2, 1, (0, 1)), "GR(9,2)": (3, 2, 2, (2, 1, 1))}


# -- independent oracle: schoolbook polynomial reduction -----------------------

def poly_reduce_oracle(coeffs_a, coeffs_b, modulus, char):
    """Multiply two coefficient vectors and long-divide by the monic modulus."""
    d = len(modulus) - 1
    prod = [0] * (len(coeffs_a) + len(coeffs_b) - 1)
    for i, a in enumerate(coeffs_a):
        for j, b in enumerate(coeffs_b):
            prod[i + j] += a * b
    prod = [c % char for c in prod]
    while len(prod) > d:
        lead = prod.pop()
        if lead:
            for j in range(d):
                prod[len(prod) - d + j] = (prod[len(prod) - d + j] - lead * modulus[j]) % char
    prod += [0] * (d - len(prod))
    return tuple(prod)


class TestConstruction:
    def test_prime_field_trivial_modulus(self):
        ring = make_ring(2, 1, 1, [0, 1])
        assert [e.coeffs for e in ring.elements] == [(0,), (1,)]

    def test_gr42_has_16_elements_and_theta_relation(self, gr42):
        assert gr42.q == 16
        theta = gr42.element([0, 1])
        # 1 + theta + theta^2 = 0
        assert (gr42.one + theta + theta * theta).is_zero()

    def test_non_prime_p_rejected(self):
        with pytest.raises(BadCoefficient):
            make_ring(4, 1, 1, [0, 1])

    def test_non_monic_rejected(self):
        with pytest.raises(NonMonic):
            make_ring(2, 1, 2, [1, 1, 0])
        with pytest.raises(NonMonic):
            make_ring(2, 1, 2, [1, 1])

    def test_reducible_modulus_rejected(self):
        # x^2 + 1 = (x+1)^2 over F_2
        with pytest.raises(ReducibleModulus):
            make_ring(2, 1, 2, [1, 0, 1])

    def test_out_of_range_coefficient_rejected(self):
        with pytest.raises(BadCoefficient):
            make_ring(2, 1, 2, [3, 1, 1])

    @pytest.mark.parametrize("p, r, d", [
        (2, 1, 12), (2, 7, 2), (2053, 1, 1), (2, 10 ** 30, 2), (10 ** 30 + 57, 1, 1)])
    def test_rings_above_the_cap_refused_before_enumeration(self, p, r, d):
        # checked before the modulus, the primality of p and q = p^(rd)
        with pytest.raises(TooLarge):
            make_ring(p, r, d, [0] * d + [1])

    @pytest.mark.parametrize("name", sorted(RING_CATALOG))
    def test_descriptor_round_trip_is_the_catalog_ring(self, name):
        ring = named_ring(name)
        assert ring_from_descriptor(ring_to_descriptor(ring)) is ring
        assert make_ring(*RING_CATALOG[name]) is ring

    def test_refused_descriptor_raises_on_every_call(self):
        desc = {"p": 2, "r": 1, "d": 2, "modulus": [1, 0, 1]}  # x^2 + 1 = (x + 1)^2 over F_2
        for _ in range(2):
            with pytest.raises(ReducibleModulus):
                ring_from_descriptor(desc)
            with pytest.raises(ReducibleModulus):
                GaloisRing(2, 1, 2, desc["modulus"])

    @pytest.mark.parametrize("name", sorted(RING_CATALOG))
    def test_direct_construction_is_the_catalog_ring(self, name):
        ring = named_ring(name)
        p, r, d, modulus = RING_CATALOG[name]
        assert GaloisRing(p, r, d, modulus) is ring
        direct = GaloisRing(p, r, d, list(modulus))
        assert direct is ring
        assert direct.one + ring.one == ring.from_int(2)
        assert direct.elements[-1] * ring.one == ring.elements[-1]

    def test_ring_attributes_are_read_only(self):
        ring = named_ring("F3")
        with pytest.raises(AttributeError):
            ring.q = 5
        with pytest.raises(AttributeError):
            ring.kernel = None
        assert ring.q == 3

    def test_copies_are_the_interned_ring(self):
        ring = named_ring("GR(4,2)")
        assert copy.copy(ring) is ring
        assert copy.deepcopy(ring.one) == ring.one
        assert pickle.loads(pickle.dumps(ring.elements)) == ring.elements

    def test_largest_ring_under_the_cap_constructs(self):
        ring = make_ring(2, 11, 1, [0, 1])
        assert ring.q == 2048 and ring.q ** 2 == EXACT_CAP

    def test_element_order_starts_zero_one_and_is_complete(self):
        for name in SMALL_RINGS:
            ring = named_ring(name)
            assert ring.elements[0] == ring.zero
            assert ring.elements[1] == ring.one
            assert len(set(ring.elements)) == ring.q

    def test_primitive_theta_powers_distinct(self):
        for name in SMALL_RINGS:
            ring = named_ring(name)
            theta = ring.primitive_theta
            assert theta is not None
            n = ring.p ** ring.d - 1
            powers = {(theta ** i).coeffs for i in range(n)}
            assert len(powers) == n
            assert theta ** n == ring.one


class TestDescriptors:
    def test_round_trip(self, gr43):
        from hyperqudit import ring_from_descriptor, ring_to_descriptor

        desc = ring_to_descriptor(gr43)
        assert desc == {"p": 2, "r": 2, "d": 3, "modulus": [3, 1, 2, 1]}
        again = ring_from_descriptor(desc)
        assert again is gr43

    def test_named_descriptor(self):
        from hyperqudit import ring_from_descriptor

        ring = ring_from_descriptor({"name": "F4"})
        assert ring.q == 4 and ring.d == 2


class TestArithmetic:
    def test_f4_unit_product(self, f4):
        theta = f4.element([0, 1])
        assert theta * f4.element([1, 1]) == f4.one

    def test_additive_identity(self):
        for name in SMALL_RINGS:
            ring = named_ring(name)
            for x in ring.elements:
                assert x + ring.zero == x

    def test_gr43_theta_cube_against_reduction_oracle(self, gr43):
        theta = gr43.element([0, 1, 0])
        expected = poly_reduce_oracle((0, 1, 0), (0, 0, 1), gr43.modulus, 4)
        assert expected == (1, 3, 2)  # frozen from the oracle
        assert (theta * (theta * theta)).coeffs == expected

    def test_all_products_match_oracle_gr42(self, gr42):
        for a, b in itertools.product(gr42.elements, repeat=2):
            assert (a * b).coeffs == poly_reduce_oracle(a.coeffs, b.coeffs, gr42.modulus, 4)

    def test_ring_mismatch_raises(self, f2, f3):
        with pytest.raises(RingMismatch):
            f2.one + f3.one


class TestTrace:
    def test_gr22_trace_formula(self, f4):
        # tr(x0 + x1 theta) = x1
        for e in f4.elements:
            assert f4.trace(e) == e.coeffs[1]

    def test_gr42_trace_formula(self, gr42):
        for e in gr42.elements:
            assert gr42.trace(e) == (2 * e.coeffs[0] + 3 * e.coeffs[1]) % 4

    def test_gr43_trace_formula(self, gr43):
        for e in gr43.elements:
            assert gr43.trace(e) == (3 * e.coeffs[0] + 2 * e.coeffs[1] + 2 * e.coeffs[2]) % 4

    def test_degree_one_trace_is_identity(self, z4):
        for e in z4.elements:
            assert z4.trace(e) == e.coeffs[0]

    def test_trace_additive_and_surjective(self):
        for name in SMALL_RINGS:
            ring = named_ring(name)
            values = set()
            for x in ring.elements:
                values.add(ring.trace(x))
                for y in ring.elements:
                    assert ring.trace(x + y) == (ring.trace(x) + ring.trace(y)) % ring.char
            assert values == set(range(ring.char))

    def test_trace_nonsingular(self):
        for name in SMALL_RINGS:
            ring = named_ring(name)
            if ring.q > 64:
                continue
            for x in ring.elements[1:]:
                assert any(ring.trace(x * y) for y in ring.elements)

    def test_unit_trace_value_distribution_gr42(self, gr42):
        # for a unit a, x -> tr(ax) attains each value exactly p^(r(d-1)) times
        expected = 2 ** (2 * (2 - 1))
        for a in gr42.elements:
            if not gr42.is_unit(a):
                continue
            counts = {}
            for x in gr42.elements:
                v = gr42.trace(a * x)
                counts[v] = counts.get(v, 0) + 1
            assert counts == {v: expected for v in range(4)}


class TestFrobeniusAndDigits:
    def test_frobenius_fixes_prime_subring(self, gr42):
        for v in range(4):
            x = gr42.from_int(v)
            assert gr42.frobenius(x) == x

    def test_frobenius_on_f4_is_squaring(self, f4):
        theta = f4.element([0, 1])
        assert f4.frobenius(theta) == theta * theta == f4.element([1, 1])

    def test_frobenius_has_order_d(self):
        for name in SMALL_RINGS:
            ring = named_ring(name)
            for x in ring.elements:
                y = x
                for _ in range(ring.d):
                    y = ring.frobenius(y)
                assert y == x

    def test_digit_oracle_exhaustive(self, gr42):
        # independent exhaustive search over Teichmueller digit tuples
        theta = gr42.primitive_theta
        tset = [gr42.zero, gr42.one, theta, theta * theta]
        for x in gr42.elements:
            found = [
                digits for digits in itertools.product(tset, repeat=2)
                if digits[0] + digits[1].scale(2) == x
            ]
            assert len(found) == 1
            assert gr42.p_adic_digits(x) == found[0]

    def test_z4_digits_of_three(self, z4):
        assert z4.p_adic_digits(z4.from_int(3)) == (z4.one, z4.one)

    def test_gr42_digits_of_two_theta(self, gr42):
        digits = gr42.p_adic_digits(gr42.element([0, 2]))
        assert digits[0] == gr42.zero
        assert digits[1] == gr42.element([0, 1])

    def test_zero_digits(self, gr43):
        assert all(a == gr43.zero for a in gr43.p_adic_digits(gr43.zero))

    def test_trace_frobenius_value_gr43(self, gr43):
        assert gr43.trace_frobenius(gr43.element([0, 1, 0])) == 2

    def test_trace_frobenius_on_prime_subring(self, gr43):
        for v in range(4):
            assert gr43.trace_frobenius(gr43.from_int(v)) == (gr43.d * v) % 4

    def test_trace_equals_trace_frobenius_everywhere(self):
        for name in SMALL_RINGS:
            ring = named_ring(name)
            if ring.q > 64:
                continue
            for x in ring.elements:
                assert ring.trace(x) == ring.trace_frobenius(x)

    def test_descriptor_with_stray_find_primitive_key(self):
        # the key once switched the primitive-element search off; it is now ignored
        ring = ring_from_descriptor(
            {"p": 2, "r": 2, "d": 2, "modulus": [1, 1, 1], "find_primitive": False})
        assert ring is named_ring("GR(4,2)")
        assert ring.primitive_theta == oracle.primitive_theta(ring)
        for x in ring.elements:
            assert ring.trace_frobenius(x) == ring.trace(x)


class TestUnits:
    def test_z4_classification(self, z4):
        assert not z4.is_unit(z4.from_int(2))
        assert z4.is_unit(z4.from_int(3))
        assert not z4.is_unit(z4.zero)

    def test_unit_xor_nilpotent(self):
        for name in SMALL_RINGS:
            ring = named_ring(name)
            if ring.q > 64:
                continue
            for x in ring.elements:
                if x.is_zero():
                    continue
                nilpotent = any((x ** k).is_zero() for k in range(1, ring.r + 1))
                assert ring.is_unit(x) != nilpotent

    @pytest.mark.parametrize("name", sorted(ORDER_RINGS))
    def test_orders_and_primitive_element_match_scalar_oracle(self, name):
        ring = make_ring(*ORDER_RINGS[name])
        assert ring.q <= 81
        for x in ring.elements:
            assert ring.multiplicative_order(x) == oracle.multiplicative_order(x)
        assert ring.primitive_theta == oracle.primitive_theta(ring)

    def test_unit_iff_first_digit_nonzero(self, gr42):
        for x in gr42.elements:
            assert gr42.is_unit(x) == (not gr42.p_adic_digits(x)[0].is_zero())
