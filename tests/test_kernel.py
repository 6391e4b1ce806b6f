"""The integer ring kernel and the table paths, against the scalar reference.

Every catalog ring is covered.  Kernel tables are compared entry by entry
with `RingElement` arithmetic and the scalar index/period, power and trace
of `tests/oracle.py`; phase tables with the oracle's phase function at
every configuration; operators, exact inner products and dense builders
with the per-configuration loops kept in the same module, and the exact
stabilizer pushforward with the dense matrix loop it replaces.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperqudit.hyperstate as hyperstate
from hyperqudit import (
    COMPUTATIONAL,
    HADAMARD,
    RING_CATALOG,
    CalibratedHypergraph,
    CycExponent,
    ExpFunc,
    FlatState,
    OrdinalMorphism,
    all_configurations,
    apply_d,
    apply_he_morphism,
    apply_pauli_x,
    apply_pauli_z,
    build_state,
    check_stabilizer_pushforward,
    equal_up_to_phase,
    exp_pushforward,
    fourier_matrix,
    index_period,
    lme_orthonormal,
    make_ring,
    named_ring,
    phase_function,
    phase_table,
    stabilizer_apply,
    tensor,
    to_dense,
)
from hyperqudit.errors import TooLarge
from hyperqudit.galois import EXACT_CAP
from hyperqudit.hyperstate import dense_he_matrix, dense_stabilizer_matrix
from hyperqudit.states import cyclotomic_residue, phase_difference_counts
from tests import oracle
from tests.test_hypergraph import random_calibrated

CATALOG = sorted(RING_CATALOG)
TOL = 1e-9


def max_grade(ring, configs):
    """The largest l <= 3 with q^l <= configs."""
    return max(l for l in range(4) if ring.q ** l <= configs)


@st.composite
def exponents(draw, ring, dense):
    """A generalized exponent: every component random, or one nonzero component."""
    bounds = [sum(index_period(x)) for x in ring.elements]
    if dense:
        comps = [draw(st.integers(0, b - 1)) for b in bounds]
    else:
        comps = [0] * ring.q
        movable = [i for i, b in enumerate(bounds) if b > 1]
        i = draw(st.sampled_from(movable))
        comps[i] = draw(st.integers(1, bounds[i] - 1))
    return CycExponent.from_dense(ring, comps)


@st.composite
def hypergraphs(draw, ring, l):
    edges = [e for size in range(1, l + 1) for e in itertools.combinations(range(l), size)]
    dense = draw(st.booleans())
    calib = {}
    chosen = draw(st.lists(st.sampled_from(edges), max_size=3, unique=True)) if edges else []
    for edge in chosen:
        slot = {}
        for _ in range(draw(st.integers(1, 2))):
            support = draw(st.lists(st.sampled_from(edge), min_size=1, unique=True))
            key = ExpFunc.make({v: draw(exponents(ring, dense)) for v in support})
            slot[key] = draw(st.integers(0, ring.char - 1))
        calib[edge] = slot
    return CalibratedHypergraph(ring, l, calib, edges=calib.keys())


def flat_states(ring, l, basis=COMPUTATIONAL):
    return st.lists(st.integers(0, ring.char - 1), min_size=ring.q ** l,
                    max_size=ring.q ** l).map(
        lambda table: FlatState.from_table(ring, l, table, basis=basis))


def labels(ring, l):
    return st.tuples(*[st.sampled_from(ring.elements)] * l)


# -- kernel tables --------------------------------------------------------------------

@pytest.mark.parametrize("name", CATALOG)
def test_kernel_tables_match_scalar_arithmetic(name):
    ring = named_ring(name)
    k = ring.kernel
    els = ring.elements
    for i, x in enumerate(els):
        assert k.neg[i] == ring.index(-x)
        assert k.trace[i] == oracle.trace(x)
        iota, pi = oracle.index_period(x)
        assert (k.iota[i], k.period[i]) == (iota, pi)
        assert [k.powers[i, u] for u in range(iota + pi)] == [
            ring.index(x ** u) for u in range(iota + pi)]
        for j, y in enumerate(els):
            assert k.mul[i, j] == ring.index(ring._mul(x, y))
            assert k.add[i, j] == ring.index(x + y)
    assert k.powers.shape[1] == max(k.iota + k.period)
    assert not k.mul.flags.writeable


def test_kernel_is_lazy_and_shared_per_key():
    desc = (5, 1, 2, (2, 0, 1))  # F25 over x^2 + 2, a key no other test makes
    first = make_ring(*desc)
    assert "kernel" not in vars(first)
    second = make_ring(*desc)
    assert second is first
    assert second.kernel is first.kernel


# -- phase tables ---------------------------------------------------------------------

@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_phase_table_matches_phase_function(name, data):
    ring = named_ring(name)
    l = data.draw(st.integers(0, max_grade(ring, 512)))
    hg = data.draw(hypergraphs(ring, l))
    table = phase_table(hg)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert ((0 <= table) & (table < ring.char)).all()
    assert table.tolist() == oracle.phase_table(hg)
    for i, x in enumerate(all_configurations(ring, l)):
        assert table[i] == phase_function(hg, x)


@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_sigma_columns_match_oracle_phase_function(name, data):
    """The stabilizer suite's batched definition of sigma, at every configuration
    and at columns drawn in any order with repeats, against the scalar loop."""
    ring = named_ring(name)
    l = data.draw(st.integers(0, max_grade(ring, 512)))
    hg = data.draw(hypergraphs(ring, l))
    configs = list(all_configurations(ring, l))
    expected = [oracle.phase_function(hg, x) for x in configs]
    grid = np.array([[ring.index(e) for e in x] for x in configs],
                    dtype=np.intp).reshape(len(configs), l).T
    assert hyperstate.sigma_columns(hg, grid).tolist() == expected
    picks = data.draw(st.lists(st.integers(0, len(configs) - 1), max_size=6))
    assert hyperstate.sigma_columns(hg, grid[:, picks]).tolist() == [expected[i] for i in picks]


def test_phase_table_refuses_oversized_grade(f3):
    hg = CalibratedHypergraph(f3, 40, edges=[(0, 1)])
    assert f3.q ** 40 > EXACT_CAP
    with pytest.raises(TooLarge):
        phase_table(hg)
    with pytest.raises(TooLarge):
        FlatState.zero_ket(f3, 40)


def test_f2_grade_twenty_builds(f2):
    one = CycExponent.from_dense(f2, (1, 0))
    hg = CalibratedHypergraph(f2, 20, {(0, 19): {ExpFunc.make({0: one, 19: one}): 1}})
    phases = build_state(hg).phases
    assert len(phases) == 2 ** 20
    assert phases[-1] == 1 and phases[2 ** 19] == 0 and sum(phases) == 2 ** 18


# -- operators ------------------------------------------------------------------------

@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_paulis_and_stabilizers_match_oracle(name, data):
    ring = named_ring(name)
    l = data.draw(st.integers(0, max_grade(ring, 256)))
    hg = data.draw(hypergraphs(ring, l))
    a = data.draw(labels(ring, l))
    for basis in (COMPUTATIONAL, HADAMARD):
        psi = data.draw(flat_states(ring, l, basis))
        assert apply_pauli_z(a, psi) == oracle.apply_pauli_z(a, psi)
        assert apply_pauli_x(a, psi) == oracle.apply_pauli_x(a, psi)
    psi = data.draw(flat_states(ring, l))
    assert stabilizer_apply(hg, a, psi) == oracle.stabilizer_apply(hg, a, psi)
    assert apply_d(hg, psi) == oracle.apply_d(hg, psi)


@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_stabilizer_suite_matches_per_label_loop(name, data):
    """The suite's count equals stabilizer_apply(hg, a, psi) == psi over every label a.

    The state the suite builds from sigma_columns is replaced by sigma
    plus an offset table, so that labels fail as well: the offset is
    random, or depends on a subset of the vertices only, in which case
    labels zero on that subset still pass.
    """
    ring = named_ring(name)
    l = data.draw(st.integers(0, max_grade(ring, 64)))
    hg = data.draw(hypergraphs(ring, l))
    sigma = np.array(phase_table(hg)).reshape((ring.q,) * l)
    offset = np.array(data.draw(flat_states(ring, l)).phases).reshape((ring.q,) * l)
    for v in data.draw(st.lists(st.integers(0, max(l - 1, 0)), max_size=l) if l else st.just([])):
        offset = np.take(offset, [0] * ring.q, axis=v)  # constant along vertex v
    psi = build_state(hg).with_phases((sigma + offset).reshape(-1))
    monkeypatch = pytest.MonkeyPatch()
    monkeypatch.setattr(hyperstate, "sigma_columns", lambda graph, configs: psi.phases)
    try:
        counts = hyperstate.stabilizer_fixes_state(hg)
    finally:
        monkeypatch.undo()
    expected = [stabilizer_apply(hg, a, psi) == psi for a in all_configurations(ring, l)]
    assert counts == (sum(expected), len(expected))


@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_morphism_tensor_and_inner_products_match_oracle(name, data):
    ring = named_ring(name)
    top = max_grade(ring, 256)
    l = data.draw(st.integers(0, top))
    m = data.draw(st.integers(1 if l else 0, top))
    f = OrdinalMorphism(l, m, tuple(data.draw(st.lists(
        st.integers(0, max(m - 1, 0)), min_size=l, max_size=l))))
    psi = data.draw(flat_states(ring, l))
    assert apply_he_morphism(f, psi) == oracle.apply_he_morphism(f, psi)

    l2 = data.draw(st.integers(0, top - l))
    phi = data.draw(flat_states(ring, l2))
    assert tensor(psi, phi) == oracle.tensor(psi, phi)

    chi = data.draw(flat_states(ring, l))
    assert phase_difference_counts(psi, chi) == oracle.phase_difference_counts(psi, chi)
    assert equal_up_to_phase(psi, chi) == oracle.equal_up_to_phase(psi, chi)
    c = data.draw(st.integers(0, ring.char - 1))
    assert equal_up_to_phase(psi, psi.add_constant(c)) == c


@pytest.mark.parametrize("name", ["F3", "F5", "Z9"])
def test_tables_below_sigma_match_oracle(name):
    """psi < sigma entrywise: differences go negative before the reduction,
    which an unsigned table would wrap mod 2^bits instead of mod p^r."""
    ring = named_ring(name)
    rng = random.Random(f"below-sigma/{name}")
    hg = random_calibrated(ring, 2, rng)
    while not phase_table(hg).any():
        hg = random_calibrated(ring, 2, rng)
    sigma = build_state(hg)
    psi = sigma.with_phases([rng.randrange(s) if s else 0 for s in sigma.phases.tolist()])
    assert (psi.phases < sigma.phases).any()
    for a in [tuple(rng.choice(ring.elements) for _ in range(2)) for _ in range(6)]:
        assert stabilizer_apply(hg, a, psi) == oracle.stabilizer_apply(hg, a, psi)
    assert phase_difference_counts(sigma, psi) == oracle.phase_difference_counts(sigma, psi)
    assert equal_up_to_phase(sigma, psi) == oracle.equal_up_to_phase(sigma, psi)
    for c in range(1, ring.char):
        shifted = sigma.with_phases(sigma.phases - c)
        assert equal_up_to_phase(sigma, shifted) == oracle.equal_up_to_phase(sigma, shifted)
        assert equal_up_to_phase(sigma, shifted) == ring.char - c


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cyclotomic_residue_matches_long_division(data):
    p, r = data.draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]))
    counts = data.draw(st.lists(st.integers(-20, 20), max_size=3 * p ** r))
    assert cyclotomic_residue(counts, p, r) == oracle.cyclotomic_residue(counts, p, r)


@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_lme_orthonormal_matches_oracle(name, data):
    ring = named_ring(name)
    hg = data.draw(hypergraphs(ring, data.draw(st.integers(0, max_grade(ring, 64)))))
    assert lme_orthonormal(hg) is oracle.lme_orthonormal(hg) is True
    block = hyperstate._PAIR_BLOCK
    hyperstate._PAIR_BLOCK = 1  # one row per block
    try:
        assert lme_orthonormal(hg)
    finally:
        hyperstate._PAIR_BLOCK = block


def test_lme_orthonormal_detects_coinciding_translates(monkeypatch):
    # with a zero trace table every Z-translate equals the state itself
    ring = named_ring("F3")
    zero = np.zeros_like(ring.kernel.trace)
    monkeypatch.setitem(vars(ring), "kernel", dataclasses.replace(ring.kernel, trace=zero))
    for l in (1, 2, 7):  # l = 7 has 3^14 translate pairs, more than EXACT_CAP
        assert not lme_orthonormal(CalibratedHypergraph.empty(ring, l))
    assert lme_orthonormal(CalibratedHypergraph.empty(ring, 0))


# Grades whose q^(2l) translate pairs lie past EXACT_CAP; no pairing of that size is built.
BEYOND_PAIR_CAP = {"F2": (12, 22, 40), "F3": (7, 13)}


@pytest.mark.parametrize("name", CATALOG)
def test_lme_orthonormal_is_the_ring_criterion(name):
    # for l >= 1 the suite decides sum_x omega^tr(cx) = 0 for every nonzero c
    ring = named_ring(name)
    criterion = True
    for c in ring.elements[1:]:
        counts = [0] * ring.char
        for x in ring.elements:
            counts[oracle.trace(c * x)] += 1
        criterion &= not any(oracle.cyclotomic_residue(counts, ring.p, ring.r))
    for l in [*range(max_grade(ring, 64) + 1), *BEYOND_PAIR_CAP.get(name, ())]:
        assert lme_orthonormal(CalibratedHypergraph.empty(ring, l)) is (l == 0 or criterion)


# -- stabilizer pushforward -------------------------------------------------------------

@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_stabilizer_pushforward_matches_dense_oracle(name, data):
    ring = named_ring(name)
    top = max(l for l in range(7) if ring.q ** l <= 64)
    l = data.draw(st.integers(0, top))
    m = data.draw(st.integers(1 if l else 0, top))
    f = OrdinalMorphism(l, m, tuple(data.draw(st.lists(
        st.integers(0, max(m - 1, 0)), min_size=l, max_size=l))))
    hg = data.draw(hypergraphs(ring, l))
    if data.draw(st.booleans()):
        table = np.array(data.draw(flat_states(ring, l)).phases)
        table.flags.writeable = False
        hg._phase_table_cache = table
    assert check_stabilizer_pushforward(hg, f) is oracle.stabilizer_pushforward(hg, f)


@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_exp_pushforward_matches_edge_walk(name, data):
    """Adding only the stored values equals the walk over every vertex of the edge."""
    ring = named_ring(name)
    l = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from(["permutation", "collapse", "any"]))
    if kind == "permutation":
        m, values = l, data.draw(st.permutations(range(l)))
    else:
        m = data.draw(st.integers(1, l - 1 if kind == "collapse" and l > 1 else l + 2))
        values = data.draw(st.lists(st.integers(0, m - 1), min_size=l, max_size=l))
    f = OrdinalMorphism(l, m, tuple(values))
    edge = tuple(sorted(data.draw(st.sets(st.integers(0, l - 1), min_size=1))))
    dense = data.draw(st.booleans())
    support = data.draw(st.lists(st.sampled_from(edge), unique=True))
    w = ExpFunc.make({v: data.draw(exponents(ring, dense)) for v in support})
    assert exp_pushforward(f, edge, w) == oracle.exp_pushforward(f, edge, w, ring)


# -- dense builders -------------------------------------------------------------------

@pytest.mark.parametrize("name", CATALOG)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_dense_builders_match_oracle(name, data):
    ring = named_ring(name)
    l = data.draw(st.integers(0, max_grade(ring, 64)))
    psi = data.draw(flat_states(ring, l, HADAMARD))
    assert np.allclose(to_dense(psi).amplitudes, oracle.hadamard_to_dense(psi), atol=TOL)
    assert np.allclose(fourier_matrix(ring, l), oracle.fourier_matrix(ring, l), atol=TOL)
    hg = data.draw(hypergraphs(ring, l))
    a = data.draw(labels(ring, l))
    assert np.allclose(dense_stabilizer_matrix(hg, a),
                       oracle.dense_stabilizer_matrix(hg, a), atol=TOL)
    m = data.draw(st.integers(1 if l else 0, l + 1))
    if ring.q ** m <= 64:
        f = OrdinalMorphism(l, m, tuple(data.draw(st.lists(
            st.integers(0, max(m - 1, 0)), min_size=l, max_size=l))))
        assert np.allclose(dense_he_matrix(f, ring), oracle.dense_he_matrix(f, ring), atol=TOL)
