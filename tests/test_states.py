"""Configurations, trace pairing, Pauli operators, Fourier and flat states."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperqudit import (
    COMPUTATIONAL,
    HADAMARD,
    FlatState,
    OrdinalMorphism,
    all_configurations,
    apply_he_morphism,
    apply_pauli_x,
    apply_pauli_z,
    build_state,
    config_index,
    ef,
    ef_transpose,
    equal_up_to_phase,
    fourier,
    fourier_matrix,
    is_orthogonal,
    named_ring,
    phase_table,
    qutrit_hypergraph,
    tensor,
    to_dense,
    trace_pairing,
)
from hyperqudit.states import (
    config_at,
    emit_state,
    phase_difference_counts,
    sum_of_phases_is_zero,
)
from hyperqudit.errors import BasisMismatch, GradeMismatch, WrongBasis

TOL = 1e-9


def random_flat(ring, l, rng, basis=COMPUTATIONAL):
    return FlatState.from_table(
        ring, l, [rng.randrange(ring.char) for _ in range(ring.q ** l)], basis=basis)


class TestTracePairing:
    def test_empty_grade(self):
        assert trace_pairing((), ()) == 0

    def test_f4_theta_with_itself(self, f4):
        theta = f4.element([0, 1])
        assert trace_pairing((theta,), (theta,)) == 1

    def test_bilinear(self, f4):
        rng = random.Random(3)
        for _ in range(20):
            x, xp, y = (tuple(rng.choice(f4.elements) for _ in range(2)) for _ in range(3))
            lhs = trace_pairing(tuple(a + b for a, b in zip(x, xp)), y)
            rhs = (trace_pairing(x, y) + trace_pairing(xp, y)) % f4.char
            assert lhs == rhs

    def test_concat_splits(self, f3):
        from hyperqudit.states import concat

        for x in all_configurations(f3, 1):
            for y in all_configurations(f3, 1):
                for u in all_configurations(f3, 1):
                    for v in all_configurations(f3, 1):
                        assert trace_pairing(concat(x, y), concat(u, v)) == (
                            trace_pairing(x, u) + trace_pairing(y, v)) % 3

    def test_grade_mismatch(self, f3):
        with pytest.raises(GradeMismatch):
            trace_pairing((f3.one,), (f3.one, f3.zero))

    def test_printed_diagonal_form_f4(self, f4):
        for x in f4.elements:
            for y in f4.elements:
                x0, x1 = x.coeffs
                y0, y1 = y.coeffs
                expected = (x0 * y0 + (x0 + x1) * (y0 + y1)) % 2
                assert trace_pairing((x,), (y,)) == expected

    def test_printed_diagonal_form_gr42(self, gr42):
        for x in gr42.elements:
            for y in gr42.elements:
                x0, x1 = x.coeffs
                y0, y1 = y.coeffs
                expected = (3 * x0 * y0 + 3 * (x0 + x1) * (y0 + y1)) % 4
                assert trace_pairing((x,), (y,)) == expected

    def test_printed_diagonal_form_gr43(self, gr43):
        for x in gr43.elements:
            for y in gr43.elements:
                x0, x1, x2 = x.coeffs
                y0, y1, y2 = y.coeffs
                expected = ((x0 + x1) * (y0 + y1) + (x0 + x2) * (y0 + y2)
                            + (x0 + x1 + x2) * (y0 + y1 + y2)) % 4
                assert trace_pairing((x,), (y,)) == expected


class TestEf:
    def test_identity(self, f3):
        f = OrdinalMorphism.identity(2)
        for x in all_configurations(f3, 2):
            assert ef(f, x) == x
            assert ef_transpose(f, x) == x

    def test_constant_collapse_adds(self, f2):
        f = OrdinalMorphism(2, 1, (0, 0))
        assert ef(f, (f2.one, f2.one)) == (f2.zero,)

    def test_zero_maps_to_zero(self, f3):
        f = OrdinalMorphism(2, 1, (0, 0))
        assert ef(f, (f3.zero, f3.zero)) == (f3.zero,)

    def test_empty_source_maps_to_zero(self, f3):
        f = OrdinalMorphism(0, 2, ())
        assert ef(f, (), ring=f3) == (f3.zero, f3.zero)
        with pytest.raises(GradeMismatch):
            ef(f, ())

    def test_ring_mismatch_in_pairing(self, f2, f3):
        from hyperqudit.errors import RingMismatch

        with pytest.raises(RingMismatch):
            trace_pairing((f2.one,), (f3.one,))

    def test_transpose_of_empty_source(self, f3):
        f = OrdinalMorphism(0, 2, ())
        assert ef_transpose(f, (f3.one, f3.zero)) == ()

    def test_adjointness_exhaustive(self, f3):
        rng = random.Random(5)
        for _ in range(4):
            f = OrdinalMorphism(2, 2, tuple(rng.randrange(2) for _ in range(2)))
            for x in all_configurations(f3, 2):
                for y in all_configurations(f3, 2):
                    assert trace_pairing(y, ef(f, x)) == trace_pairing(ef_transpose(f, y), x)


class TestPauli:
    def test_z_zero_identity(self, f3):
        rng = random.Random(7)
        psi = random_flat(f3, 2, rng)
        zero = (f3.zero, f3.zero)
        assert apply_pauli_z(zero, psi) == psi
        assert apply_pauli_x(zero, psi) == psi

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_group_laws_on_flat_states(self, data):
        ring = named_ring(data.draw(st.sampled_from(["F2", "F3", "F4", "Z4"])))
        l = data.draw(st.integers(min_value=1, max_value=2))
        table = data.draw(st.lists(
            st.integers(min_value=0, max_value=ring.char - 1),
            min_size=ring.q ** l, max_size=ring.q ** l))
        psi = FlatState.from_table(ring, l, table)
        configs = list(all_configurations(ring, l))
        a = data.draw(st.sampled_from(configs))
        b = data.draw(st.sampled_from(configs))
        ab = tuple(u + v for u, v in zip(a, b))
        assert apply_pauli_z(a, apply_pauli_z(b, psi)) == apply_pauli_z(ab, psi)
        assert apply_pauli_x(a, apply_pauli_x(b, psi)) == apply_pauli_x(ab, psi)

    def test_inverse_relation(self, f3):
        rng = random.Random(97)
        psi = random_flat(f3, 2, rng)
        a = tuple(rng.choice(f3.elements) for _ in range(2))
        neg = tuple(-e for e in a)
        assert apply_pauli_z(neg, apply_pauli_z(a, psi)) == psi
        assert apply_pauli_x(neg, apply_pauli_x(a, psi)) == psi

    def test_order_divides_characteristic(self, z4):
        rng = random.Random(11)
        psi = random_flat(z4, 1, rng)
        for a in all_configurations(z4, 1):
            phi = psi
            for _ in range(z4.char):
                phi = apply_pauli_z(a, phi)
            assert phi == psi
            phi = psi
            for _ in range(z4.char):
                phi = apply_pauli_x(a, phi)
            assert phi == psi

    def test_commutation_phase(self, f3):
        rng = random.Random(13)
        for _ in range(10):
            psi = random_flat(f3, 2, rng)
            a = tuple(rng.choice(f3.elements) for _ in range(2))
            b = tuple(rng.choice(f3.elements) for _ in range(2))
            lhs = apply_pauli_x(a, apply_pauli_z(b, psi))
            rhs = apply_pauli_z(b, apply_pauli_x(a, psi))
            assert equal_up_to_phase(rhs, lhs) == trace_pairing(a, b)

    def test_hadamard_ops_against_dense(self, f3):
        # apply Z and X on a Hadamard-basis table, then compare the dense
        # expansions against explicit operator matrices
        rng = random.Random(71)
        configs = list(all_configurations(f3, 1))
        w = np.exp(2j * np.pi / 3)
        for _ in range(6):
            psi = random_flat(f3, 1, rng, basis=HADAMARD)
            a = (rng.choice(f3.elements),)
            zmat = np.zeros((3, 3), complex)
            xmat = np.zeros((3, 3), complex)
            for j, x in enumerate(configs):
                zmat[config_index(f3, (x[0] + a[0],)), j] = 1.0
                xmat[j, j] = w ** trace_pairing(a, x)
            fmat = fourier_matrix(f3, 1)
            # Hadamard-matrix M acts on computational coordinates as F M F+
            z_comp = fmat @ zmat @ fmat.conj().T
            x_comp = fmat @ xmat @ fmat.conj().T
            dense = to_dense(psi).amplitudes
            assert np.allclose(
                to_dense(apply_pauli_z(a, psi)).amplitudes, z_comp @ dense, atol=TOL)
            assert np.allclose(
                to_dense(apply_pauli_x(a, psi)).amplitudes, x_comp @ dense, atol=TOL)

    def test_hadamard_basis_paths(self, f3):
        rng = random.Random(17)
        psi = random_flat(f3, 1, rng, basis=HADAMARD)
        a = (f3.from_int(1),)
        # X diagonal in the Hadamard basis, Z a translation
        moved = apply_pauli_z(a, psi)
        assert sorted(moved.phases) == sorted(psi.phases)
        diag = apply_pauli_x(a, psi)
        assert [(v - w) % 3 for v, w in zip(diag.phases, psi.phases)] == [
            trace_pairing(a, x) for x in all_configurations(f3, 1)]

    @pytest.mark.parametrize("name,l", [
        ("F2", 1), ("F2", 2), ("F3", 1), ("F3", 2), ("F4", 1), ("F4", 2),
        ("Z4", 1), ("Z4", 2), ("GR(4,2)", 1), ("F16", 1),
    ])
    def test_dense_conjugation_relations(self, name, l):
        # F+ X F = Z and F+ Z F = X(-a) on dense matrices, q <= 16, l <= 2
        ring = named_ring(name)
        fmat = fourier_matrix(ring, l)
        dim = ring.q ** l
        configs = list(all_configurations(ring, l))
        w = np.exp(2j * np.pi / ring.char)
        labels = configs if dim <= 16 else configs[:: max(1, dim // 8)]
        for a in labels:
            xmat = np.zeros((dim, dim), complex)
            zmat = np.zeros((dim, dim), complex)
            for j, x in enumerate(configs):
                xmat[j, j] = w ** trace_pairing(a, x)   # X diagonal (Hadamard basis)
                shifted = tuple(xe + ae for xe, ae in zip(x, a))
                zmat[config_index(ring, shifted), j] = 1.0  # Z translation
            assert np.allclose(fmat.conj().T @ xmat @ fmat, zmat, atol=TOL)
            xneg = np.zeros((dim, dim), complex)
            for j, x in enumerate(configs):
                neg = tuple(-e for e in a)
                xneg[j, j] = w ** trace_pairing(neg, x)
            assert np.allclose(fmat.conj().T @ zmat @ fmat, xneg, atol=TOL)


class TestHeMorphism:
    def test_identity(self, f3):
        rng = random.Random(19)
        psi = random_flat(f3, 2, rng)
        assert apply_he_morphism(OrdinalMorphism.identity(2), psi) == psi

    def test_wrong_basis(self, f3):
        rng = random.Random(23)
        psi = random_flat(f3, 1, rng, basis=HADAMARD)
        with pytest.raises(WrongBasis):
            apply_he_morphism(OrdinalMorphism.identity(1), psi)

    def test_injective_isometry_dense(self, f3):
        rng = random.Random(29)
        f = OrdinalMorphism(1, 2, (1,))
        for _ in range(5):
            psi = random_flat(f3, 1, rng)
            out = apply_he_morphism(f, psi)
            dense_in = to_dense(psi).amplitudes
            dense_out = to_dense(out).amplitudes
            assert np.isclose(np.vdot(dense_in, dense_in), np.vdot(dense_out, dense_out), atol=TOL)

    def test_grade_zero_source(self, f2):
        psi = FlatState.from_table(f2, 0, [1], norm_exp=0)
        out = apply_he_morphism(OrdinalMorphism(0, 2, ()), psi)
        assert out.l == 2
        assert out.norm_exp == -2
        assert out.phases.tolist() == [1, 1, 1, 1]

    def test_matches_hadamard_matrix_oracle(self, f2):
        # dense oracle: sum over x of |Ef(x)><x| in the Hadamard basis,
        # conjugated into the computational basis by Fourier matrices
        rng = random.Random(31)
        for _ in range(6):
            l, m = rng.randint(1, 2), rng.randint(1, 2)
            f = OrdinalMorphism(l, m, tuple(rng.randrange(m) for _ in range(l)))
            psi = random_flat(f2, l, rng)
            lhs = to_dense(apply_he_morphism(f, psi)).amplitudes
            configs_l = list(all_configurations(f2, l))
            had = np.zeros((2 ** m, 2 ** l), complex)
            for j, x in enumerate(configs_l):
                had[config_index(f2, ef(f, x)), j] += 1.0
            fl = fourier_matrix(f2, l)
            fm = fourier_matrix(f2, m)
            comp = fm @ had @ fl.conj().T  # matrix in computational coordinates
            rhs = comp @ to_dense(psi).amplitudes
            assert np.allclose(lhs, rhs, atol=TOL)


class TestFourier:
    def test_grade_zero_is_scalar_identity(self, f3):
        assert fourier_matrix(f3, 0).shape == (1, 1)
        assert np.isclose(fourier_matrix(f3, 0)[0, 0], 1.0)

    def test_unitary_roundtrip(self, f4):
        rng = random.Random(37)
        psi = random_flat(f4, 1, rng)
        dense = to_dense(psi)
        back = fourier(fourier(dense, "forward"), "inverse")
        assert np.allclose(back.amplitudes, dense.amplitudes, atol=TOL)

    def test_tensor_power(self, f2):
        f1 = fourier_matrix(f2, 1)
        assert np.allclose(np.kron(f1, f1), fourier_matrix(f2, 2), atol=TOL)

    def test_character_sum_exact(self):
        # sum over z of omega^<x,z> is q^l delta_{x,0}, by integer counting
        for name in ["F2", "F3", "F4", "Z4", "GR(4,2)"]:
            ring = named_ring(name)
            if ring.q > 16:
                continue
            for l in (1, 2):
                if ring.q ** l > 256:
                    continue
                for x in all_configurations(ring, l):
                    counts = [0] * ring.char
                    for z in all_configurations(ring, l):
                        counts[trace_pairing(x, z)] += 1
                    if all(e.is_zero() for e in x):
                        assert counts[0] == ring.q ** l and not any(counts[1:])
                    else:
                        assert sum_of_phases_is_zero(counts, ring.p, ring.r)


class TestTensor:
    def test_unit(self, f3):
        rng = random.Random(41)
        psi = random_flat(f3, 2, rng)
        unit = FlatState.from_table(f3, 0, [0], norm_exp=0)
        assert tensor(psi, unit) == psi
        assert tensor(unit, psi) == psi

    def test_pauli_factorization(self, f3):
        rng = random.Random(43)
        psi = random_flat(f3, 1, rng)
        phi = random_flat(f3, 1, rng)
        a = (rng.choice(f3.elements),)
        b = (rng.choice(f3.elements),)
        lhs = apply_pauli_z(a + b, tensor(psi, phi))
        rhs = tensor(apply_pauli_z(a, psi), apply_pauli_z(b, phi))
        assert lhs == rhs

    def test_basis_mismatch(self, f3):
        rng = random.Random(47)
        psi = random_flat(f3, 1, rng)
        phi = random_flat(f3, 1, rng, basis=HADAMARD)
        with pytest.raises(BasisMismatch):
            tensor(psi, phi)


class TestExactInnerProducts:
    def test_orthogonality_of_translates(self, f3):
        rng = random.Random(53)
        psi = random_flat(f3, 1, rng)
        translated = apply_pauli_z((f3.from_int(1),), psi)
        assert is_orthogonal(psi, translated)
        assert not is_orthogonal(psi, psi)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_cyclotomic_zero_test_matches_numpy(self, data):
        # the exact zero test for sums of roots of unity agrees with a
        # floating-point evaluation across characteristic shapes
        p, r = data.draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]))
        char = p ** r
        counts = data.draw(st.lists(
            st.integers(min_value=0, max_value=20), min_size=char, max_size=char))
        w = np.exp(2j * np.pi / char)
        value = sum(n * w ** j for j, n in enumerate(counts))
        assert sum_of_phases_is_zero(counts, p, r) == bool(np.isclose(value, 0, atol=1e-9))

    def test_counts_against_numpy(self, z4):
        rng = random.Random(59)
        for _ in range(10):
            psi = random_flat(z4, 1, rng)
            phi = random_flat(z4, 1, rng)
            counts = phase_difference_counts(psi, phi)
            w = np.exp(2j * np.pi / 4)
            value = sum(n * w ** j for j, n in enumerate(counts))
            assert sum_of_phases_is_zero(counts, 2, 2) == bool(np.isclose(value, 0, atol=1e-9))

    def test_equal_up_to_phase(self, f3):
        rng = random.Random(61)
        psi = random_flat(f3, 2, rng)
        assert equal_up_to_phase(psi, psi.add_constant(2)) == 2
        other = psi.with_phases(
            [v if i else (v + 1) % 3 for i, v in enumerate(psi.phases)])
        assert equal_up_to_phase(psi, other) is None


class TestPhaseTableContract:
    def test_tables_are_read_only_int64(self):
        hg = qutrit_hypergraph("a")
        zero = FlatState.zero_ket(hg.ring, 2)
        for table in (build_state(hg).phases, phase_table(hg), zero.phases):
            assert table.dtype == np.int64 and table.ndim == 1
            with pytest.raises(ValueError):
                table[0] = 1
        assert phase_table(hg) is phase_table(hg)  # the cache itself cannot be corrupted

    def test_inputs_normalize_to_one_state(self, f3):
        source = np.array([1, 2, 0], dtype=np.int64)
        states = [
            FlatState.from_table(f3, 1, [1, 2, 0]),
            FlatState.from_table(f3, 1, source),
            FlatState.from_table(f3, 1, (4, -1, 9)),
            FlatState.from_table(f3, 1, np.array([[7], [5], [-3]], dtype=np.int32)),
        ]
        source[0] = 2  # the state holds its own copy
        for psi in states:
            assert psi == states[0] and hash(psi) == hash(states[0])
            assert psi.phases.tolist() == [1, 2, 0] and psi.phase_at((f3.zero,)) == 1
            assert type(psi.phase_at((f3.zero,))) is int
        four, one = (FlatState.from_table(f3, 0, [v], norm_exp=0) for v in (4, 1))
        assert four == one and hash(four) == hash(one)
        assert FlatState.from_table(f3, 1, [1, 2, 1]) != states[0]
        assert FlatState.from_table(f3, 1, [1, 2, 0], norm_exp=0) != states[0]

    def test_cached_table_is_shared_not_copied(self):
        hg = qutrit_hypergraph("a")
        psi = build_state(hg)
        assert psi.phases is phase_table(hg)
        assert psi.with_phases(psi.phases).phases is psi.phases

    def test_other_arrays_are_copied_and_reduced(self, f3):
        def frozen(values, dtype=np.int64):
            out = np.array(values, dtype=dtype)
            out.flags.writeable = False
            return out

        inputs = {
            "writeable": np.array([1, 2, 0], dtype=np.int64),
            "unreduced": frozen([4, -1, 3]),
            "int32": frozen([1, 2, 0], np.int32),
            "view": frozen([0, 2, 1])[::-1],
            "column": frozen([[1], [2], [0]]),
        }
        for name, source in inputs.items():
            table = FlatState.from_table(f3, 1, source).phases
            assert table is not source and table.base is not source, name
            assert table.dtype == np.int64 and not table.flags.writeable, name
            assert table.tolist() == [1, 2, 0], name


class TestSerialization:
    def test_config_index_round_trip(self, f4):
        for l in (0, 1, 2):
            for i, x in enumerate(all_configurations(f4, l)):
                assert config_index(f4, x) == i
                assert config_at(f4, l, i) == x

    def test_emit_format(self, f2):
        psi = FlatState.from_table(f2, 1, [0, 1])
        text = emit_state(psi)
        lines = text.strip().split("\n")
        assert lines[0] == "# basis computational"
        assert lines[-1] == "1  1"

    def test_emit_dense_columns(self, f2):
        psi = FlatState.from_table(f2, 1, [0, 1])
        text = emit_state(psi, dense=True)
        last = text.strip().split("\n")[-1]
        assert last.split()[-1] == "-0.707106781187,0"
