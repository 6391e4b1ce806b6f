"""Controlled-phase gates, marked states and their calibrated form."""

import itertools

import pytest

from hyperqudit import (
    MarkedHypergraph,
    all_configurations,
    build_state,
    cz_phase,
    marked_state,
    marked_to_calibrated,
    named_ring,
    p_polynomial,
    phase_table,
    qutrit_hypergraph,
    qutrit_marked,
)
from hyperqudit.errors import BadMark, NotPrimeField
from hyperqudit.marked import default_reference

# printed polynomial phase functions of the marked qutrit family,
# with the indicator factor x + 2x^2 of the reference element 2
def _factor(x):
    return (x + 2 * x * x) % 3


MARKED_POLYNOMIALS = {
    "a": lambda x0, x1, x2: _factor(x0) * _factor(x1) * x2,
    "b": lambda x0, x1, x2: _factor(x0) * x1 + _factor(x1) * x2,
    "c": lambda x0, x1, x2: _factor(x0) * x1 + _factor(x1) * x2 + _factor(x2) * x0,
    "d": lambda x0, x1, x2: (_factor(x0) * x1 + _factor(x1) * x2
                             + _factor(x0) * _factor(x1) * x2),
    "e": lambda x0, x1, x2: (_factor(x0) * x1 + _factor(x1) * x2 + _factor(x2) * x0
                             + _factor(x0) * _factor(x1) * x2),
}


class TestCzPhase:
    def test_control_off(self, f3):
        ref = f3.from_int(2)
        x = (f3.from_int(1), f3.from_int(1))
        assert cz_phase((0, 1), 1, ref, x) == 0

    def test_control_on(self, f3):
        ref = f3.from_int(2)
        x = (f3.from_int(2), f3.from_int(1))
        assert cz_phase((0, 1), 1, ref, x) == 1

    def test_delta_form_equals_polynomial_form(self, f3):
        ref = f3.from_int(2)
        poly = p_polynomial(f3, ref)
        for x in all_configurations(f3, 3):
            via_delta = cz_phase((0, 1, 2), 2, ref, x)
            via_poly = (poly(x[0]) * poly(x[1]) * x[2]).coeffs[0]
            assert via_delta == via_poly % 3

    def test_bad_mark(self, f3):
        ref = f3.from_int(2)
        with pytest.raises(BadMark):
            cz_phase((0,), 0, ref, (f3.one,))
        with pytest.raises(BadMark):
            cz_phase((0, 1), 2, ref, (f3.one, f3.one))

    def test_prime_field_only(self, f4):
        with pytest.raises(NotPrimeField):
            cz_phase((0, 1), 1, f4.one, (f4.one, f4.one))


class TestPPolynomial:
    def test_f3_printed(self, f3):
        poly = p_polynomial(f3, f3.from_int(2))
        assert [c.coeffs[0] for c in poly.coeffs] == [0, 1, 2]

    def test_f2(self, f2):
        poly = p_polynomial(f2, f2.one)
        assert [c.coeffs[0] for c in poly.coeffs] == [0, 1]

    def test_indicator_property_f5(self, f5):
        for star in f5.elements:
            poly = p_polynomial(f5, star)
            for x in f5.elements:
                assert poly(x) == (f5.one if x == star else f5.zero)


class TestMarkedState:
    def test_empty_marked_hypergraph_uniform(self, f3):
        mhg = MarkedHypergraph.make(f3, 2, {})
        psi = marked_state(mhg)
        assert psi.phases.tolist() == [0] * 9

    def test_default_reference(self, f3):
        assert default_reference(f3) == f3.from_int(2)

    def test_printed_polynomials(self):
        f3 = named_ring("F3")
        for lab, poly in MARKED_POLYNOMIALS.items():
            psi = marked_state(qutrit_marked(lab))
            expected = [
                poly(*(e.coeffs[0] for e in x)) % 3
                for x in all_configurations(f3, 3)]
            assert psi.phases.tolist() == expected

    def test_gate_order_irrelevant(self, f3):
        # the same edges added in a different order give the same state
        marks = {(0, 1): 1, (1, 2): 2, (0, 1, 2): 2}
        a = MarkedHypergraph.make(f3, 3, marks)
        b = MarkedHypergraph.make(f3, 3, dict(reversed(list(marks.items()))))
        assert marked_state(a) == marked_state(b)


class TestMarkedToCalibrated:
    def test_qutrit_family_states_equal(self):
        for lab in "abcde":
            mhg = qutrit_marked(lab)
            assert build_state(marked_to_calibrated(mhg)) == marked_state(mhg)

    def test_qutrit_family_matches_catalog(self):
        # the conversion reproduces the shipped calibrated hypergraphs
        for lab in "abcde":
            assert marked_to_calibrated(qutrit_marked(lab)) == qutrit_hypergraph(lab)

    def test_standard_cz_graph_state(self, f2):
        mhg = MarkedHypergraph.make(f2, 2, {(0, 1): 1})
        hg = marked_to_calibrated(mhg, f2.one)
        assert phase_table(hg).tolist() == [
            (a.coeffs[0] * b.coeffs[0]) % 2 for a, b in all_configurations(f2, 2)]

    def test_empty(self, f3):
        mhg = MarkedHypergraph.make(f3, 2, {})
        hg = marked_to_calibrated(mhg)
        assert hg.edges == ()

    def test_nondefault_reference(self, f5):
        mhg = MarkedHypergraph.make(f5, 2, {(0, 1): 0})
        star = f5.from_int(3)
        assert build_state(marked_to_calibrated(mhg, star)) == marked_state(mhg, star)


class TestNonWeightedness:
    def test_qutrit_a_not_weighted(self, f3):
        # exhaustive search over all weightings of all sub-hypergraphs of
        # [3] (weight 0 = absent edge) and all constant offsets
        target = phase_table(qutrit_hypergraph("a")).tolist()
        edges = [e for k in (1, 2, 3) for e in itertools.combinations(range(3), k)]
        configs = list(all_configurations(f3, 3))
        for weights in itertools.product(range(3), repeat=len(edges)):
            table = []
            for x in configs:
                total = 0
                for e, alpha in zip(edges, weights):
                    if alpha:
                        prod = f3.one
                        for r in e:
                            prod = prod * x[r]
                        total += alpha * prod.coeffs[0]
                table.append(total % 3)
            for const in range(3):
                assert [(v + const) % 3 for v in table] != target
