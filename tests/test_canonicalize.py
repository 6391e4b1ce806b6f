"""Effectivization, primitive cores, congruence and family conversions."""

import itertools
import random

import pytest

from hyperqudit import (
    CalibratedHypergraph,
    CycExponent,
    ExpFunc,
    OrdinalMorphism,
    WeightedHypergraph,
    apply_morphism,
    bell_hypergraph,
    build_state,
    congruent,
    effectivize,
    equal_up_to_phase,
    is_effective,
    isotropy_group,
    named_ring,
    phase_table,
    poly_to_calibrated,
    primitive_core,
    qubit_to_weighted,
    qutrit_hypergraph,
    special_exponents,
    support_index,
    weighted_to_calibrated,
)
from hyperqudit.errors import ExponentOutOfRange, NotBinaryField, NotEffective
from tests.test_hypergraph import random_calibrated

# effective structures of the qutrit family, frozen from the regrouping
# construction: edge -> sorted (key support pattern, value) signature
QUTRIT_EFFECTIVE_EDGES = {
    "a": ((0, 1, 2), (0, 2), (1, 2), (2,)),
    "b": ((0, 1), (1,), (1, 2), (2,)),
    "c": ((0,), (0, 1), (0, 2), (1,), (1, 2), (2,)),
    "d": ((0, 1), (0, 1, 2), (0, 2), (1,)),
    "e": ((0,), (0, 1), (0, 1, 2), (0, 2), (1,)),
}


def weighted_phase_table(whg):
    """Independent oracle: sum over edges of weight * tr(prod of entries)."""
    from hyperqudit import all_configurations

    ring = whg.ring
    out = []
    for x in all_configurations(ring, whg.l):
        total = 0
        for edge, alpha in whg.weights:
            prod = ring.one
            for r in edge:
                prod = prod * x[r]
            total += alpha * ring.trace(prod)
        out.append(total % ring.char)
    return out


class TestEffective:
    def test_empty_is_effective(self, f3):
        assert is_effective(CalibratedHypergraph.empty(f3, 2))

    def test_bell_as_given_is_not(self):
        assert not is_effective(bell_hypergraph(1, 1))

    def test_qutrit_effectivized_families(self):
        for lab, edges in QUTRIT_EFFECTIVE_EDGES.items():
            eff, const = effectivize(qutrit_hypergraph(lab))
            assert is_effective(eff)
            assert eff.edges == edges
            assert const == 0
            assert phase_table(eff).tolist() == phase_table(qutrit_hypergraph(lab)).tolist()

    def test_effectivize_already_effective(self):
        eff, _ = effectivize(qutrit_hypergraph("c"))
        again, const = effectivize(eff)
        assert again == eff and const == 0

    def test_constant_extraction(self, f3):
        hg = CalibratedHypergraph(f3, 2, {(0, 1): {ExpFunc.zero(): 2}})
        eff, const = effectivize(hg)
        assert eff.edges == ()
        assert const == (2 * f3.trace(f3.one)) % 3

    def test_state_preserved_up_to_phase_random(self):
        rng = random.Random(3)
        for name in ["F2", "F3", "F4"]:
            ring = named_ring(name)
            for _ in range(6):
                hg = random_calibrated(ring, rng.randint(1, 3), rng)
                eff, const = effectivize(hg)
                assert is_effective(eff) or not eff.edges
                assert equal_up_to_phase(build_state(eff), build_state(hg)) == const

    def test_permutation_preserves_effectiveness(self):
        rng = random.Random(5)
        ring = named_ring("F3")
        for _ in range(6):
            hg, _ = effectivize(random_calibrated(ring, 3, rng))
            if not hg.edges:
                continue
            primitive = support_index(hg)[1] == hg.l
            for values in itertools.permutations(range(3)):
                image = apply_morphism(OrdinalMorphism(3, 3, values), hg)
                assert is_effective(image)
                assert (support_index(image)[1] == image.l) == primitive


class TestSupportAndCore:
    def test_empty(self, f3):
        assert support_index(CalibratedHypergraph.empty(f3, 3)) == ((), 0)

    def test_single_edge(self, f3):
        hg = CalibratedHypergraph(f3, 3, {}, edges=[(0, 2)])
        assert support_index(hg) == ((0, 2), 2)

    def test_primitive_iff_full_support(self):
        for lab in "abcde":
            eff, _ = effectivize(qutrit_hypergraph(lab))
            _, iota = support_index(eff)
            assert iota == eff.l  # the family is primitive

    def test_core_round_trip_single_edge(self, f3):
        sq = CycExponent.from_dense(f3, (0, 0, 1))
        hg = CalibratedHypergraph(
            f3, 3, {(0, 2): {ExpFunc.make({0: sq, 2: sq}): 1}})
        chart, core = primitive_core(hg)
        assert chart.values == (0, 2)
        assert core.l == 2
        assert core.edges == ((0, 1),)
        assert apply_morphism(chart, core) == hg

    def test_core_of_primitive_is_identity(self):
        eff, _ = effectivize(qutrit_hypergraph("e"))
        chart, core = primitive_core(eff)
        assert chart.values == (0, 1, 2)
        assert core == eff

    def test_empty_hypergraph_core_is_grade_zero(self, f3):
        hg = CalibratedHypergraph.empty(f3, 3)
        chart, core = primitive_core(hg)
        assert chart.values == ()
        assert core.l == 0 and core.edges == ()
        assert apply_morphism(chart, core) == hg

    def test_requires_effective(self):
        with pytest.raises(NotEffective):
            primitive_core(bell_hypergraph(1, 1))

    def test_round_trip_random(self):
        rng = random.Random(7)
        for name in ["F2", "F3"]:
            ring = named_ring(name)
            for _ in range(10):
                hg, _ = effectivize(random_calibrated(ring, rng.randint(1, 4), rng))
                chart, core = primitive_core(hg)
                assert apply_morphism(chart, core) == hg
                assert is_effective(core) or not core.edges
                _, iota = support_index(core)
                assert iota == core.l


class TestCongruence:
    def test_reflexive(self):
        eff, _ = effectivize(qutrit_hypergraph("b"))
        witness = congruent(eff, eff)
        assert witness is not None and witness.values == (0, 1, 2)

    def test_singleton_swap(self, f3):
        sq = CycExponent.from_dense(f3, (0, 0, 1))
        a = CalibratedHypergraph(f3, 2, {(0,): {ExpFunc.make({0: sq}): 1}})
        b = CalibratedHypergraph(f3, 2, {(1,): {ExpFunc.make({1: sq}): 1}})
        witness = congruent(a, b)
        assert witness is not None and witness.values == (1, 0)

    def test_different_profiles_not_congruent(self):
        kb, _ = effectivize(qutrit_hypergraph("b"))
        kd, _ = effectivize(qutrit_hypergraph("d"))
        assert congruent(kb, kd) is None

    def test_symmetric_and_transitive_witnesses(self):
        rng = random.Random(11)
        ring = named_ring("F2")
        for _ in range(6):
            hg, _ = effectivize(random_calibrated(ring, 3, rng))
            perm = OrdinalMorphism(3, 3, tuple(rng.sample(range(3), 3)))
            image = apply_morphism(perm, hg)
            w1 = congruent(hg, image)
            assert w1 is not None
            w2 = congruent(image, hg)
            assert w2 is not None
            assert apply_morphism(w2, apply_morphism(w1, hg)) == hg

    def test_too_large_guard(self, f2):
        from hyperqudit.errors import TooLarge

        big = CalibratedHypergraph.empty(f2, 7)
        with pytest.raises(TooLarge):
            congruent(big, big)
        with pytest.raises(TooLarge):
            isotropy_group(big)

    def test_congruent_isotropy_conjugate(self):
        rng = random.Random(13)
        ring = named_ring("F3")
        hg, _ = effectivize(qutrit_hypergraph("b"))
        perm = OrdinalMorphism(3, 3, (2, 0, 1))
        image = apply_morphism(perm, hg)
        w = congruent(hg, image)
        assert w is not None
        iso_a = {f.values for f in isotropy_group(hg)}
        iso_b = {f.values for f in isotropy_group(image)}
        inverse = OrdinalMorphism(3, 3, tuple(
            w.values.index(i) for i in range(3)))
        conjugated = {
            w.after(OrdinalMorphism(3, 3, f)).after(inverse).values for f in iso_a}
        assert conjugated == iso_b


class TestIsotropy:
    def test_symmetric_bell(self):
        group = isotropy_group(bell_hypergraph(1, 1))
        assert {f.values for f in group} == {(0, 1), (1, 0)}

    def test_asymmetric_bell(self):
        group = isotropy_group(bell_hypergraph(1, 0))
        assert {f.values for f in group} == {(0, 1)}

    def test_single_vertex(self, f2):
        hg = CalibratedHypergraph(f2, 1, {}, edges=[(0,)])
        assert {f.values for f in isotropy_group(hg)} == {(0,)}

    def test_closure(self):
        group = isotropy_group(bell_hypergraph(1, 1))
        values = {f.values for f in group}
        for f in group:
            for g in group:
                assert g.after(f).values in values


class TestWeightedConversion:
    def test_zero_weights_give_empty_calibration(self, f3):
        whg = WeightedHypergraph.make(f3, 2, {(0, 1): 0})
        hg = weighted_to_calibrated(whg)
        assert hg.edges == ((0, 1),)
        assert hg.calib[(0, 1)] == {}

    def test_f2_single_edge_matches_bell_top_term(self, f2):
        whg = WeightedHypergraph.make(f2, 2, {(0, 1): 1})
        hg = weighted_to_calibrated(whg)
        assert build_state(hg) == build_state(bell_hypergraph(0, 0))

    def test_f3_phase_formula(self, f3):
        whg = WeightedHypergraph.make(f3, 2, {(0, 1): 2})
        hg = weighted_to_calibrated(whg)
        assert phase_table(hg).tolist() == weighted_phase_table(whg)

    def test_states_preserved_at_random(self):
        rng = random.Random(17)
        for name in ["F2", "F3", "F4", "F5", "Z4", "F8", "Z8", "F9", "Z9"]:
            ring = named_ring(name)
            l = rng.randint(1, 2)
            edges = list(itertools.chain.from_iterable(
                itertools.combinations(range(l), k) for k in range(1, l + 1)))
            weights = {e: rng.randrange(ring.char) for e in edges}
            whg = WeightedHypergraph.make(ring, l, weights)
            assert phase_table(weighted_to_calibrated(whg)).tolist() == weighted_phase_table(whg)


class TestPolyConversion:
    def test_all_ones_reduces_to_weighted(self, f2):
        tau = {(0, 1): {((0, 1), (1, 1)): 1}}
        hg = poly_to_calibrated(f2, 2, tau)
        whg = WeightedHypergraph.make(f2, 2, {(0, 1): 1})
        assert phase_table(hg).tolist() == weighted_phase_table(whg)

    def test_square_phase_f3(self, f3):
        hg = poly_to_calibrated(f3, 1, {(0,): {((0, 2),): 1}})
        expected = [f3.trace(x * x) for x in f3.elements]
        assert phase_table(hg).tolist() == expected
        # the key folds per element: exponents (1, 0, 0) at index order 0,1,2
        key = next(iter(hg.calib[(0,)]))
        assert key.value(0, f3).to_dense() == (1, 0, 0)

    def test_zero_tau(self, f3):
        hg = poly_to_calibrated(f3, 1, {(0,): {}})
        assert hg.calib[(0,)] == {}

    def test_negative_exponent_rejected(self, f3):
        with pytest.raises(ExponentOutOfRange):
            poly_to_calibrated(f3, 1, {(0,): {((0, -1),): 1}})

    def test_exponents_beyond_delta_fold(self, f3):
        # k = delta + 2 folds to the same generalized exponent as its
        # per-element reductions, so the phase matches the monomial
        k = special_exponents(f3).delta + 2  # = 4
        hg = poly_to_calibrated(f3, 1, {(0,): {((0, k),): 1}})
        expected = [f3.trace(x ** k) for x in f3.elements]
        assert phase_table(hg).tolist() == expected

    def test_general_polynomial_phase(self, f5):
        # tau(x) = 3 x0^3 x1^2 + x0 on edge {0,1} plus x1^4 on {1}
        tau = {
            (0, 1): {((0, 3), (1, 2)): 3, ((0, 1),): 1},
            (1,): {((1, 4),): 1},
        }
        hg = poly_to_calibrated(f5, 2, tau)
        from hyperqudit import all_configurations

        expected = []
        for x in all_configurations(f5, 2):
            x0, x1 = (e.coeffs[0] for e in x)
            expected.append((3 * pow(x0, 3) * pow(x1, 2) + x0 + pow(x1, 4)) % 5)
        assert phase_table(hg).tolist() == expected


class TestQubitCollapse:
    def test_bell_collapse(self):
        for a0, a1 in itertools.product((0, 1), repeat=2):
            whg, const = qubit_to_weighted(bell_hypergraph(a0, a1))
            expected_edges = tuple(
                e for e, w in [((0,), a0), ((1,), a1), ((0, 1), 1)] if w)
            assert whg.edges == tuple(sorted(expected_edges))
            assert const == 0
            assert weighted_phase_table(whg) == phase_table(bell_hypergraph(a0, a1)).tolist()

    def test_round_trip_through_weighted(self, f2):
        rng = random.Random(19)
        for _ in range(10):
            hg = random_calibrated(f2, 3, rng)
            whg, const = qubit_to_weighted(hg)
            back = weighted_to_calibrated(whg)
            lhs = build_state(hg)
            rhs = build_state(back).add_constant(const)
            assert lhs == rhs

    def test_support_free_key_gives_sign(self, f2):
        hg = CalibratedHypergraph(f2, 1, {(0,): {ExpFunc.zero(): 1}})
        whg, const = qubit_to_weighted(hg)
        assert whg.edges == ()
        assert const == 1

    def test_requires_binary_field(self, f3):
        with pytest.raises(NotBinaryField):
            qubit_to_weighted(qutrit_hypergraph("a"))
