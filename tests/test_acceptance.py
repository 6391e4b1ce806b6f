"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass line with its runtime (visible with pytest -s);
a failure shows up as an ordinary pytest failure.  All equalities are
exact integer identities unless a tolerance of 1e-9 is stated.
"""

import itertools
import random
import time

import numpy as np
import pytest

import hyperqudit as hq
from hyperqudit import named_ring
from tests.test_hypergraph import random_calibrated

TOL = 1e-9


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label}: {elapsed:.3f}s exceeds budget {self.seconds}s")
            print(f"PASS {self.label} ({elapsed * 1000:.1f} ms)")
        return False


@pytest.fixture(scope="module", autouse=True)
def warm_rings():
    # ring construction and cyclic caches are warmed outside the budgets
    for name in ["F2", "F3", "F4", "F5", "Z4", "Z8", "Z9", "F8", "F9", "F16",
                 "GR(4,2)", "GR(4,3)"]:
        ring = named_ring(name)
        for x in ring.elements:
            hq.index_period(x)


def test_criterion_01_bell_reproduction():
    with Budget("criterion 1: Bell reproduction", 0.010):
        expected = {
            (0, 0): [0, 0, 0, 1],
            (0, 1): [0, 1, 0, 0],
            (1, 0): [0, 0, 1, 0],
            (1, 1): [0, 1, 1, 1],
        }
        for (a0, a1), phases in expected.items():
            psi = hq.build_state(hq.bell_hypergraph(a0, a1))
            assert psi.phases.tolist() == phases
            assert psi.norm_exp == -2
            assert psi.phases.dtype == np.int64 and not psi.phases.flags.writeable


def test_criterion_02_qutrit_reproduction():
    f3 = named_ring("F3")
    sq = {0: 1, 1: 1, 2: 2}  # the squarish power 1 + x + 2x^2

    def formulas(lab, x0, x1, x2):
        if lab == "a":
            return sq[x0] * sq[x1] * x2 + 2 * sq[x0] * x2 + 2 * sq[x1] * x2 + x2
        if lab == "b":
            return sq[x0] * x1 + sq[x1] * x2 + 2 * x1 + 2 * x2
        if lab == "c":
            return sq[x0] * x1 + sq[x1] * x2 + sq[x2] * x0 + 2 * x1 + 2 * x2 + 2 * x0
        if lab == "d":
            return sq[x0] * sq[x1] * x2 + sq[x0] * x1 + 2 * sq[x0] * x2 + 2 * x1
        return (sq[x0] * sq[x1] * x2 + sq[x0] * x1 + x0 * sq[x2]
                + 2 * sq[x0] * x2 + 2 * x0 + 2 * x1)

    printed_c = [0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 1, 0, 0, 1, 0, 1, 0,
                 0, 0, 2, 1, 1, 0, 2, 0, 0]
    printed_e = [0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 1, 0, 0, 1, 0, 1, 0,
                 0, 0, 2, 1, 1, 0, 2, 1, 2]
    with Budget("criterion 2: qutrit reproduction", 0.100):
        for lab in hq.QUTRIT_LABELS:
            psi = hq.build_state(hq.qutrit_hypergraph(lab))
            for i, x in enumerate(hq.all_configurations(f3, 3)):
                x0, x1, x2 = (e.coeffs[0] for e in x)
                assert psi.phases[i] == formulas(lab, x0, x1, x2) % 3
        assert hq.build_state(hq.qutrit_hypergraph("c")).phases.tolist() == printed_c
        assert hq.build_state(hq.qutrit_hypergraph("e")).phases.tolist() == printed_e


def test_criterion_03_stabilizer_suite():
    cases = [hq.bell_hypergraph(a0, a1) for a0 in (0, 1) for a1 in (0, 1)]
    cases += [hq.qutrit_hypergraph(lab) for lab in hq.QUTRIT_LABELS]
    with Budget("criterion 3: stabilizer suite", 5.0):
        for hg in cases:
            ring = hg.ring
            psi = hq.build_state(hg)
            labels = list(hq.all_configurations(ring, hg.l))
            zero = tuple([ring.zero] * hg.l)
            assert hq.stabilizer_apply(hg, zero, psi) == psi
            for a in labels:
                assert hq.stabilizer_apply(hg, a, psi) == psi
            # group law on a few random flat states
            rng = random.Random(99)
            for _ in range(4):
                chi = hq.FlatState.from_table(
                    ring, hg.l, [rng.randrange(ring.char) for _ in range(ring.q ** hg.l)])
                a = rng.choice(labels)
                b = rng.choice(labels)
                ab = tuple(u + v for u, v in zip(a, b))
                assert hq.stabilizer_apply(hg, a, hq.stabilizer_apply(hg, b, chi)) == \
                    hq.stabilizer_apply(hg, ab, chi)
            # pairwise distinctness via action signatures on a spanning set
            span = [
                hq.FlatState.from_table(
                    ring, hg.l,
                    [hq.trace_pairing(y, x) for y in labels])
                for x in labels
            ]
            signatures = {
                tuple(tuple(hq.stabilizer_apply(hg, a, s).phases.tolist()) for s in span)
                for a in labels
            }
            assert len(signatures) == ring.q ** hg.l
            # eigenrelation on every basis state
            for b in labels:
                ket = hq.basis_state(hg, b)
                for a in labels:
                    expected = ket.add_constant(hq.trace_pairing(a, b))
                    assert hq.stabilizer_apply(hg, a, ket) == expected


def test_criterion_04_covariance_monadicity():
    rng = random.Random(2024)
    rings = [named_ring(n) for n in ["F2", "F3", "F4", "Z4"]]
    with Budget("criterion 4: covariance and monadicity", 30.0):
        done = 0
        while done < 200:
            ring = rng.choice(rings)
            l = rng.randint(0, 3)
            m = rng.randint(1, 3)
            hg = random_calibrated(ring, l, rng) if l else hq.CalibratedHypergraph.empty(ring, 0)
            f = hq.OrdinalMorphism(l, m, tuple(rng.randrange(m) for _ in range(l)))
            lhs = hq.apply_he_morphism(f, hq.build_state(hg))
            rhs = hq.build_state(hq.apply_morphism(f, hg))
            assert lhs == rhs
            other = random_calibrated(ring, rng.randint(1, 2), rng)
            assert hq.build_state(hq.monadic_product(hg, other)) == \
                hq.tensor(hq.build_state(hg), hq.build_state(other))
            done += 1


def test_criterion_05_trace_tables():
    with Budget("criterion 5: trace tables", 1.0):
        f4 = named_ring("F4")
        for e in f4.elements:
            assert f4.trace(e) == e.coeffs[1]
        gr42 = named_ring("GR(4,2)")
        for e in gr42.elements:
            assert gr42.trace(e) == (2 * e.coeffs[0] + 3 * e.coeffs[1]) % 4
        gr43 = named_ring("GR(4,3)")
        for e in gr43.elements:
            assert gr43.trace(e) == (3 * e.coeffs[0] + 2 * e.coeffs[1] + 2 * e.coeffs[2]) % 4
        for ring in (f4, gr42, gr43):
            for x in ring.elements:
                assert ring.trace(x) == ring.trace_frobenius(x)
            for x in ring.elements[1:]:
                assert any(ring.trace(x * y) for y in ring.elements)


def test_criterion_06_cyclicity_tables():
    with Budget("criterion 6: cyclicity tables", 1.0):
        z4 = named_ring("Z4")
        assert hq.index_period(z4.from_int(2)) == (2, 1)
        assert hq.index_period(z4.from_int(3)) == (0, 2)
        f4 = named_ring("F4")
        assert hq.index_period(f4.element([0, 1])) == (0, 3)
        assert hq.index_period(f4.element([1, 1])) == (0, 3)
        gr42 = named_ring("GR(4,2)")
        printed = {
            (2, 1): [(2, 0), (0, 2), (2, 2)],
            (0, 2): [(3, 0), (1, 2), (3, 2)],
            (0, 3): [(0, 1), (3, 3)],
            (0, 6): [(1, 1), (2, 1), (3, 1), (0, 3), (1, 3), (2, 3)],
        }
        for expected, coeff_list in printed.items():
            for coeffs in coeff_list:
                assert hq.index_period(gr42.element(coeffs)) == expected
        # exponent laws, exhaustive for q <= 16
        for name in ["F2", "F3", "F4", "F5", "Z4", "Z8", "Z9", "F8", "F9",
                     "F16", "GR(4,2)"]:
            ring = named_ring(name)
            for x in ring.elements:
                iota, pi = hq.index_period(x)
                powers = [ring.one]
                for _ in range(iota + pi):
                    powers.append(powers[-1] * x)
                assert len({p.coeffs for p in powers[:-1]}) == iota + pi
                assert powers[iota + pi] == powers[iota]
                for u in range(iota + pi):
                    for v in range(iota + pi):
                        assert powers[hq.monoid_add(x, u, v)] == powers[u] * powers[v]


def test_criterion_07_matrix_fixtures():
    from tests.test_fieldpoly import identity_matrix, ints, mat_mul

    with Budget("criterion 7: matrix fixtures", 1.0):
        f3 = named_ring("F3")
        assert ints(hq.power_matrix(f3)) == [[1, 0, 0], [1, 1, 1], [1, 2, 1]]
        assert ints(hq.power_matrix_inverse(f3)) == [[1, 0, 0], [0, 2, 1], [2, 2, 2]]
        c3, c3inv = hq.basic_power_matrix(f3)
        assert ints(c3) == [[0, 1, 1], [1, 1, 1], [1, 1, 2]]
        assert ints(c3inv) == [[2, 1, 0], [1, 1, 2], [0, 2, 1]]
        f4 = named_ring("F4")
        assert ints(hq.power_matrix(f4)) == [
            [(1, 0), (0, 0), (0, 0), (0, 0)],
            [(1, 0), (1, 0), (1, 0), (1, 0)],
            [(1, 0), (0, 1), (1, 1), (1, 0)],
            [(1, 0), (1, 1), (0, 1), (1, 0)]]
        assert ints(hq.power_matrix_inverse(f4)) == [
            [(1, 0), (0, 0), (0, 0), (0, 0)],
            [(0, 0), (1, 0), (1, 1), (0, 1)],
            [(0, 0), (1, 0), (0, 1), (1, 1)],
            [(1, 0), (1, 0), (1, 0), (1, 0)]]
        c4, c4inv = hq.basic_power_matrix(f4)
        assert ints(c4) == [
            [(0, 0), (1, 0), (1, 0), (1, 0)],
            [(1, 0), (1, 0), (1, 0), (1, 0)],
            [(1, 0), (1, 0), (0, 1), (1, 0)],
            [(1, 0), (1, 0), (1, 0), (1, 1)]]
        assert ints(c4inv) == [
            [(1, 0), (1, 0), (0, 0), (0, 0)],
            [(1, 0), (1, 0), (0, 1), (1, 1)],
            [(0, 0), (0, 1), (0, 1), (0, 0)],
            [(0, 0), (1, 1), (0, 0), (1, 1)]]
        for name in ["F2", "F3", "F4", "F5"]:
            ring = named_ring(name)
            ident = identity_matrix(ring)
            assert mat_mul(ring, hq.power_matrix(ring), hq.power_matrix_inverse(ring)) == ident
            c, cinv = hq.basic_power_matrix(ring)
            assert mat_mul(ring, c, cinv) == ident


def test_criterion_08_polynomial_fixtures():
    with Budget("criterion 8: polynomial fixtures", 1.0):
        f3 = named_ring("F3")
        f4 = named_ring("F4")
        printed_f3 = {
            (1, 0, 0): [0, 0, 1],
            (0, 0, 1): [1, 1, 2],
            (1, 0, 1): [0, 1],
        }
        for dense, coeffs in printed_f3.items():
            poly = hq.m_polynomial(f3, hq.CycExponent.from_dense(f3, dense))
            assert [c.coeffs[0] for c in poly.coeffs] == coeffs
        printed_f4 = {
            (0, 0, 1, 0): [(1, 0), (0, 1), (1, 0), (1, 1)],
            (0, 0, 0, 1): [(1, 0), (1, 1), (1, 0), (0, 1)],
            (0, 0, 1, 1): [(1, 0), (1, 0), (0, 0), (1, 0)],
        }
        for dense, coeffs in printed_f4.items():
            poly = hq.m_polynomial(f4, hq.CycExponent.from_dense(f4, dense))
            assert [c.coeffs for c in poly.coeffs] == coeffs
        m100 = hq.m_polynomial(f3, hq.CycExponent.from_dense(f3, (1, 0, 0)))
        assert hq.reduce_mod_universal(m100 * m100) == m100
        m10 = hq.m_polynomial(f4, hq.CycExponent.from_dense(f4, (0, 0, 1, 0)))
        m01 = hq.m_polynomial(f4, hq.CycExponent.from_dense(f4, (0, 0, 0, 1)))
        m11 = hq.m_polynomial(f4, hq.CycExponent.from_dense(f4, (0, 0, 1, 1)))
        assert hq.reduce_mod_universal(m10 * m01) == m11
        for name in ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F16"]:
            ring = named_ring(name)
            special = hq.special_exponents(ring)
            for u in special.s:
                poly = hq.m_polynomial(ring, u)
                for x in ring.elements:
                    assert poly(x) == hq.power(x, u)


def test_criterion_09_marked_cz_equivalence():
    f3 = named_ring("F3")

    def factor(x):
        return (x + 2 * x * x) % 3

    polys = {
        "a": lambda x0, x1, x2: factor(x0) * factor(x1) * x2,
        "b": lambda x0, x1, x2: factor(x0) * x1 + factor(x1) * x2,
        "c": lambda x0, x1, x2: factor(x0) * x1 + factor(x1) * x2 + factor(x2) * x0,
        "d": lambda x0, x1, x2: (factor(x0) * x1 + factor(x1) * x2
                                 + factor(x0) * factor(x1) * x2),
        "e": lambda x0, x1, x2: (factor(x0) * x1 + factor(x1) * x2 + factor(x2) * x0
                                 + factor(x0) * factor(x1) * x2),
    }
    with Budget("criterion 9: marked CZ equivalence", 60.0):
        for lab in hq.QUTRIT_LABELS:
            mhg = hq.qutrit_marked(lab)
            psi = hq.marked_state(mhg)
            assert psi == hq.build_state(hq.marked_to_calibrated(mhg))
            assert psi == hq.build_state(hq.qutrit_hypergraph(lab))
            expected = [
                polys[lab](*(e.coeffs[0] for e in x)) % 3
                for x in hq.all_configurations(f3, 3)]
            assert psi.phases.tolist() == expected
        # exhaustive non-weightedness of the triple-edge state
        target = hq.phase_table(hq.qutrit_hypergraph("a")).tolist()
        edges = [e for k in (1, 2, 3) for e in itertools.combinations(range(3), k)]
        monomials = []
        for e in edges:
            col = []
            for x in hq.all_configurations(f3, 3):
                prod = 1
                for r in e:
                    prod = prod * x[r].coeffs[0]
                col.append(prod % 3)
            monomials.append(col)
        for weights in itertools.product(range(3), repeat=len(edges)):
            table = [0] * 27
            for alpha, col in zip(weights, monomials):
                if alpha:
                    for i, v in enumerate(col):
                        table[i] += alpha * v
            for const in range(3):
                assert [(v + const) % 3 for v in table] != target


def test_criterion_10_reduction():
    expected_edges = {
        "a": ((0, 1, 2), (0, 2), (1, 2), (2,)),
        "b": ((0, 1), (1,), (1, 2), (2,)),
        "c": ((0,), (0, 1), (0, 2), (1,), (1, 2), (2,)),
        "d": ((0, 1), (0, 1, 2), (0, 2), (1,)),
        "e": ((0,), (0, 1), (0, 1, 2), (0, 2), (1,)),
    }
    with Budget("criterion 10: reduction", 10.0):
        for lab in hq.QUTRIT_LABELS:
            hg = hq.qutrit_hypergraph(lab)
            eff, const = hq.effectivize(hg)
            assert hq.is_effective(eff)
            assert eff.edges == expected_edges[lab]
            assert hq.build_state(hg) == hq.build_state(eff).add_constant(const)
        rng = random.Random(77)
        for _ in range(100):
            ring = named_ring(rng.choice(["F2", "F3", "F4"]))
            hg, _ = hq.effectivize(random_calibrated(ring, rng.randint(1, 4), rng))
            chart, core = hq.primitive_core(hg)
            assert hq.apply_morphism(chart, core) == hg


def test_criterion_11_lme():
    cases = [hq.bell_hypergraph(a0, a1) for a0 in (0, 1) for a1 in (0, 1)]
    cases += [hq.qutrit_hypergraph(lab) for lab in hq.QUTRIT_LABELS]
    with Budget("criterion 11: local maximal entangleability", 30.0):
        for hg in cases:
            assert hq.lme_orthonormal(hg)
            assert hq.lme_check(hg, tol=TOL)


def test_criterion_12_conversions():
    from tests.test_canonicalize import weighted_phase_table

    rng = random.Random(4242)
    with Budget("criterion 12: conversions", 10.0):
        for name in ["F2", "F3", "F4", "F5", "Z4", "F8", "Z8", "F9", "Z9"]:
            ring = named_ring(name)
            for _ in range(4):
                l = rng.randint(1, 2)
                edges = [e for k in range(1, l + 1)
                         for e in itertools.combinations(range(l), k)]
                whg = hq.WeightedHypergraph.make(
                    ring, l, {e: rng.randrange(ring.char) for e in edges})
                hg = hq.weighted_to_calibrated(whg)
                assert hq.phase_table(hg).tolist() == weighted_phase_table(whg)
        f2 = named_ring("F2")
        for _ in range(25):
            hg = random_calibrated(f2, rng.randint(1, 3), rng)
            whg, const = hq.qubit_to_weighted(hg)
            back = hq.weighted_to_calibrated(whg)
            assert hq.build_state(hg) == hq.build_state(back).add_constant(const)
        f5 = named_ring("F5")
        for _ in range(10):
            tau = {(0, 1): {((0, rng.randrange(5)), (1, rng.randrange(5))): rng.randrange(5)},
                   (0,): {((0, rng.randrange(5)),): rng.randrange(5)}}
            hg = hq.poly_to_calibrated(f5, 2, tau)
            expected = []
            for x in hq.all_configurations(f5, 2):
                x0, x1 = (e.coeffs[0] for e in x)
                total = 0
                for edge, entries in tau.items():
                    for assignment, val in entries.items():
                        pairs = dict(assignment)
                        term = val
                        for v, k in pairs.items():
                            term *= pow((x0, x1)[v], k)
                        total += term
                expected.append(total % 5)
            assert hq.phase_table(hg).tolist() == expected
