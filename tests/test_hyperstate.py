"""The hypergraph state map, stabilizers, covariance and entangleability."""

import itertools
import random

import numpy as np
import pytest

from hyperqudit import (
    CalibratedHypergraph,
    FlatState,
    OrdinalMorphism,
    all_configurations,
    apply_d,
    apply_he_morphism,
    apply_morphism,
    basis_state,
    bell_hypergraph,
    build_state,
    check_covariance,
    check_stabilizer_pushforward,
    equal_up_to_phase,
    is_orthogonal,
    lme_check,
    lme_orthonormal,
    monadic_product,
    named_ring,
    phase_function,
    phase_table,
    qutrit_hypergraph,
    stabilizer_apply,
    tensor,
    trace_pairing,
)
from hyperqudit.errors import GradeMismatch, WrongBasis
from hyperqudit.hyperstate import dense_stabilizer_matrix, stabilizer_fixes_state
from hyperqudit.states import to_dense
from tests.test_hypergraph import random_calibrated

TOL = 1e-9

# printed 27-entry phase tables of the qutrit family, kets ordered
# 000, 001, 002, 010, ..., 222 (last digit fastest)
QUTRIT_C_TABLE = [0, 0, 0, 0, 0, 0, 0, 1, 2,
                  0, 0, 1, 0, 0, 1, 0, 1, 0,
                  0, 0, 2, 1, 1, 0, 2, 0, 0]
QUTRIT_E_TABLE = [0, 0, 0, 0, 0, 0, 0, 1, 2,
                  0, 0, 1, 0, 0, 1, 0, 1, 0,
                  0, 0, 2, 1, 1, 0, 2, 1, 2]


class TestPhaseFunction:
    def test_bell_formula(self, f2):
        for a0, a1 in itertools.product((0, 1), repeat=2):
            hg = bell_hypergraph(a0, a1)
            for x in all_configurations(f2, 2):
                x0, x1 = (e.coeffs[0] for e in x)
                assert phase_function(hg, x) == (a0 * x0 + a1 * x1 + x0 * x1) % 2

    def test_empty_hypergraph_vanishes(self, f3):
        hg = CalibratedHypergraph.empty(f3, 2)
        assert phase_table(hg).tolist() == [0] * 9

    def test_qutrit_b_formula(self, f3):
        hg = qutrit_hypergraph("b")
        # squarish power: x^(0,0,1) takes values 1, 1, 2 at 0, 1, 2
        sq = {0: 1, 1: 1, 2: 2}
        for x in all_configurations(f3, 3):
            x0, x1, x2 = (e.coeffs[0] for e in x)
            expected = (sq[x0] * x1 + sq[x1] * x2 + 2 * x1 + 2 * x2) % 3
            assert phase_function(hg, x) == expected

    def test_grade_mismatch(self, f3):
        with pytest.raises(GradeMismatch):
            phase_function(qutrit_hypergraph("a"), (f3.one,))


class TestBuildState:
    def test_empty_is_scalar_unit(self, f3):
        psi = build_state(CalibratedHypergraph.empty(f3, 0))
        assert psi.l == 0 and psi.norm_exp == 0 and psi.phases.tolist() == [0]

    def test_bell_sign_patterns(self):
        expected = {
            (0, 0): [0, 0, 0, 1],
            (0, 1): [0, 1, 0, 0],
            (1, 0): [0, 0, 1, 0],
            (1, 1): [0, 1, 1, 1],
        }
        for (a0, a1), phases in expected.items():
            assert build_state(bell_hypergraph(a0, a1)).phases.tolist() == phases

    def test_qutrit_printed_expansions(self):
        assert build_state(qutrit_hypergraph("c")).phases.tolist() == QUTRIT_C_TABLE
        assert build_state(qutrit_hypergraph("e")).phases.tolist() == QUTRIT_E_TABLE

    def test_normalized(self):
        for lab in "abcde":
            psi = build_state(qutrit_hypergraph(lab))
            assert psi.norm_exp == -psi.l


class TestApplyD:
    def test_on_zero_ket_is_build(self, f3):
        hg = qutrit_hypergraph("d")
        assert apply_d(hg, FlatState.zero_ket(f3, 3)) == build_state(hg)

    def test_monadic_factorization(self):
        rng = random.Random(3)
        ring = named_ring("F3")
        for _ in range(6):
            a = random_calibrated(ring, rng.randint(1, 2), rng)
            b = random_calibrated(ring, rng.randint(1, 2), rng)
            psi = FlatState.from_table(
                ring, a.l, [rng.randrange(3) for _ in range(3 ** a.l)])
            phi = FlatState.from_table(
                ring, b.l, [rng.randrange(3) for _ in range(3 ** b.l)])
            lhs = apply_d(monadic_product(a, b), tensor(psi, phi))
            rhs = tensor(apply_d(a, psi), apply_d(b, phi))
            assert lhs == rhs

    def test_empty_is_identity(self, f3):
        unit = FlatState.from_table(f3, 0, [2], norm_exp=0)
        assert apply_d(CalibratedHypergraph.empty(f3, 0), unit) == unit

    def test_wrong_basis(self, f3):
        from hyperqudit import HADAMARD

        psi = FlatState.from_table(f3, 3, [0] * 27, basis=HADAMARD)
        with pytest.raises(WrongBasis):
            apply_d(qutrit_hypergraph("a"), psi)


class TestStabilizers:
    def test_zero_is_identity(self, f3):
        hg = qutrit_hypergraph("c")
        psi = build_state(hg)
        zero = tuple([f3.zero] * 3)
        assert stabilizer_apply(hg, zero, psi) == psi

    def test_bell_state_fixed_by_all(self, f2):
        for a0, a1 in itertools.product((0, 1), repeat=2):
            hg = bell_hypergraph(a0, a1)
            psi = build_state(hg)
            for a in all_configurations(f2, 2):
                assert stabilizer_apply(hg, a, psi) == psi

    def test_group_law_on_random_states(self, f3):
        rng = random.Random(5)
        hg = qutrit_hypergraph("b")
        for _ in range(5):
            psi = FlatState.from_table(f3, 3, [rng.randrange(3) for _ in range(27)])
            a = tuple(rng.choice(f3.elements) for _ in range(3))
            b = tuple(rng.choice(f3.elements) for _ in range(3))
            ab = tuple(u + v for u, v in zip(a, b))
            assert stabilizer_apply(hg, a, stabilizer_apply(hg, b, psi)) == stabilizer_apply(hg, ab, psi)

    def test_suite_fails_on_a_corrupted_phase_table(self):
        # the suite checks the state built from phase_function, so a wrong
        # cached table makes every nonzero label fail
        hg = qutrit_hypergraph("e")
        assert stabilizer_fixes_state(hg) == (27, 27)
        table = phase_table(hg).copy()
        table[5] = (table[5] + 1) % 3
        table.flags.writeable = False
        hg._phase_table_cache = table
        assert stabilizer_fixes_state(hg) == (1, 27)

    def test_suite_builds_the_state_a_block_at_a_time(self, monkeypatch):
        # blocks of 5 split the 27 configurations of l = 3 with a short last block
        import hyperqudit.hyperstate as hyperstate

        monkeypatch.setattr(hyperstate, "_CONFIG_BLOCK", 5)
        self.test_suite_fails_on_a_corrupted_phase_table()

    def test_pairwise_distinct_on_spanning_set(self, f2):
        # the Hadamard kets expanded as computational flat tables span;
        # distinct labels act differently on at least one of them
        hg = bell_hypergraph(1, 0)
        span = []
        for x in all_configurations(f2, 2):
            span.append(FlatState.from_table(
                f2, 2, [trace_pairing(y, x) for y in all_configurations(f2, 2)]))
        labels = list(all_configurations(f2, 2))
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                assert any(
                    stabilizer_apply(hg, a, s) != stabilizer_apply(hg, b, s)
                    for s in span)


class TestBasisStates:
    def test_zero_gives_build_state(self):
        hg = qutrit_hypergraph("a")
        zero = tuple([named_ring("F3").zero] * 3)
        assert basis_state(hg, zero) == build_state(hg)

    def test_bell_basis_shifts_labels(self, f2):
        for a0, a1 in itertools.product((0, 1), repeat=2):
            for b0, b1 in itertools.product((0, 1), repeat=2):
                lhs = basis_state(bell_hypergraph(a0, a1), (f2.from_int(b0), f2.from_int(b1)))
                rhs = build_state(bell_hypergraph((a0 + b0) % 2, (a1 + b1) % 2))
                assert lhs == rhs

    def test_orthonormal_family(self, f2):
        hg = bell_hypergraph(0, 1)
        states = [basis_state(hg, a) for a in all_configurations(f2, 2)]
        for i, s in enumerate(states):
            for t in states[i + 1:]:
                assert is_orthogonal(s, t)

    def test_eigenrelation_qutrit_a(self, f3):
        hg = qutrit_hypergraph("a")
        for a in all_configurations(f3, 3):
            for b in all_configurations(f3, 3):
                ket = basis_state(hg, b)
                moved = stabilizer_apply(hg, a, ket)
                assert equal_up_to_phase(ket, moved) == trace_pairing(a, b)

    def test_spectral_decomposition_dense(self, f2):
        hg = bell_hypergraph(1, 1)
        labels = list(all_configurations(f2, 2))
        kets = {b: to_dense(basis_state(hg, b)).amplitudes for b in labels}
        for a in labels:
            mat = np.zeros((4, 4), complex)
            for b in labels:
                mat += ((-1.0) ** trace_pairing(a, b)) * np.outer(kets[b], kets[b].conj())
            assert np.allclose(mat, dense_stabilizer_matrix(hg, a), atol=TOL)


class TestCovariance:
    def test_identity(self):
        assert check_covariance(qutrit_hypergraph("c"), OrdinalMorphism.identity(3))

    def test_bell_swap(self):
        assert check_covariance(bell_hypergraph(1, 1), OrdinalMorphism(2, 2, (1, 0)))
        assert check_covariance(bell_hypergraph(1, 0), OrdinalMorphism(2, 2, (1, 0)))

    def test_bell_collapse(self):
        for a0, a1 in itertools.product((0, 1), repeat=2):
            for values in itertools.product((0,), repeat=2):
                f = OrdinalMorphism(2, 1, values)
                assert check_covariance(bell_hypergraph(a0, a1), f)

    def test_symmetry_invariance(self, f2):
        # a bijection fixing the hypergraph fixes the state
        hg = bell_hypergraph(1, 1)
        swap = OrdinalMorphism(2, 2, (1, 0))
        assert apply_morphism(swap, hg) == hg
        psi = build_state(hg)
        assert apply_he_morphism(swap, psi) == psi

    def test_monadic_states(self):
        rng = random.Random(7)
        for name in ["F2", "F3"]:
            ring = named_ring(name)
            for _ in range(4):
                a = random_calibrated(ring, rng.randint(1, 2), rng)
                b = random_calibrated(ring, rng.randint(1, 2), rng)
                assert build_state(monadic_product(a, b)) == tensor(build_state(a), build_state(b))


class TestStabilizerPushforward:
    def test_identity(self):
        assert check_stabilizer_pushforward(bell_hypergraph(0, 1), OrdinalMorphism.identity(2))

    def test_bell_swap_conjugation(self):
        assert check_stabilizer_pushforward(bell_hypergraph(1, 0), OrdinalMorphism(2, 2, (1, 0)))

    def test_collapse_summed_form(self):
        assert check_stabilizer_pushforward(bell_hypergraph(1, 1), OrdinalMorphism(2, 1, (0, 0)))

    def test_qutrit_collapse(self):
        assert check_stabilizer_pushforward(qutrit_hypergraph("b"), OrdinalMorphism(3, 2, (0, 0, 1)))


class TestLme:
    def test_bell_both_paths(self):
        for a0, a1 in itertools.product((0, 1), repeat=2):
            assert lme_check(bell_hypergraph(a0, a1))

    def test_qutrit_e(self):
        assert lme_orthonormal(qutrit_hypergraph("e"))
        assert lme_check(qutrit_hypergraph("e"))

    def test_empty_vacuous(self, f3):
        assert lme_check(CalibratedHypergraph.empty(f3, 0))

    def test_passes_any_phase_table(self):
        # sigma cancels from every pair of Z-translates: the suite checks
        # flatness and the trace pairing of the ring, not the construction
        rng = np.random.default_rng(3)
        for hg in (qutrit_hypergraph("e"), bell_hypergraph(1, 0)):
            table = rng.integers(0, hg.ring.char, hg.ring.q ** hg.l)
            table.flags.writeable = False
            hg._phase_table_cache = table
            assert lme_orthonormal(hg)
            assert lme_check(hg)
