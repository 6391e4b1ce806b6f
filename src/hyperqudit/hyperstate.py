"""The calibrated hypergraph state map and its verification suites.

A calibrated hypergraph over [l] determines a phase function on the
configuration set (a trace of products of generalized powers, one term
per stored calibration entry) and hence a diagonal unitary in the
computational basis.  Applying it to the zero ket gives the hypergraph
state: the flat state whose phase table is the phase function itself.

The stabilizer operators, the hypergraph basis, the covariance of the
construction under ordinal functions and local maximal entangleability
are all checked here, exactly on phase tables where flatness is
preserved and through dense matrices (tolerance 1e-9) where it is not.

Whole tables are computed with gathers through the ring kernel (see
:class:`hyperqudit.galois.RingKernel`); ``phase_function`` is the
scalar definition of sigma at one configuration.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cyclicity import power
from .errors import GradeMismatch, TooLarge, WrongBasis
from .galois import grid_size
from .hypergraph import CalibratedHypergraph, OrdinalMorphism, apply_morphism
from .states import (
    COMPUTATIONAL,
    Configuration,
    FlatState,
    all_configurations,
    apply_he_morphism,
    apply_pauli_z,
    cyclotomic_residues,
    dense_cap,
    label_indices,
    omega_powers,
    pairing_matrix,
    pullback_table,
    reduced_table,
    translate_table,
)

__all__ = [
    "phase_function",
    "phase_table",
    "build_state",
    "apply_d",
    "stabilizer_apply",
    "basis_state",
    "check_covariance",
    "check_stabilizer_pushforward",
    "lme_orthonormal",
    "lme_check",
    "dense_stabilizer_matrix",
    "dense_he_matrix",
]


def phase_function(hg: CalibratedHypergraph, x: Configuration) -> int:
    """sigma(x): sum over stored entries of value * tr(prod of generalized powers)."""
    if len(x) != hg.l:
        raise GradeMismatch("configuration grade does not match the hypergraph")
    ring = hg.ring
    total = 0
    for edge, w, val in hg.stored_entries():
        prod = ring.one
        for r in edge:
            prod = prod * power(x[r], w.value(r, ring))
        total += val * ring.trace(prod)
    return total % ring.char


def phase_table(hg: CalibratedHypergraph) -> np.ndarray:
    """sigma at every configuration, in configuration order; cached on the hypergraph.

    The table is the read-only flat int64 array a FlatState stores, so
    operators compute on it as it is and no caller can write into the cache.

    Each stored entry is evaluated on the grid of the vertices its key
    raises to a nonzero exponent (x^0 = 1 for every x, so the other
    vertices drop out) and broadcast-added into the q^l table.
    """
    cached = getattr(hg, "_phase_table_cache", None)
    if cached is None:
        ring, l = hg.ring, hg.l
        grid_size(ring.q, l, "the phase table")
        k = ring.kernel
        total = np.zeros((ring.q,) * l, dtype=np.int64)
        for _, w, val in hg.stored_entries():
            prod = np.ones((1,) * l, dtype=np.intp)  # index 1 is the unit
            for v, u in w.items:
                shape = [1] * l
                shape[v] = ring.q
                prod = k.mul[prod, k.power_values(u.items).reshape(shape)]
            total += val * k.trace[prod] % ring.char
        cached = reduced_table(total, ring.char)
        hg._phase_table_cache = cached  # idempotent; hypergraphs are immutable
    return cached


def build_state(hg: CalibratedHypergraph) -> FlatState:
    """The hypergraph state: normalized, computational basis, phases = sigma."""
    return FlatState(hg.ring, hg.l, COMPUTATIONAL, -hg.l, phase_table(hg))


def apply_d(hg: CalibratedHypergraph, psi: FlatState) -> FlatState:
    """The diagonal hypergraph operator: adds sigma to every phase."""
    if psi.basis != COMPUTATIONAL:
        raise WrongBasis("the hypergraph operator acts on computational tables")
    if psi.l != hg.l:
        raise GradeMismatch("state grade does not match the hypergraph")
    return psi.with_phases(psi.phases + phase_table(hg))


def stabilizer_apply(hg: CalibratedHypergraph, a: Configuration, psi: FlatState) -> FlatState:
    """The stabilizer operator of a: conjugate of Pauli X(a) by the hypergraph operator.

    On a computational phase table the new value at x is the old value at
    x + a plus sigma(x) - sigma(x + a); the hypergraph state itself is
    left invariant.
    """
    if psi.basis != COMPUTATIONAL:
        raise WrongBasis("stabilizers act on computational tables")
    if psi.l != hg.l or len(a) != hg.l:
        raise GradeMismatch("grades do not match")
    a_idx = label_indices(hg.ring, a, hg.l)
    return psi.with_phases(_stabilized(psi.phases, phase_table(hg), hg.ring, a_idx))


def _stabilized(table: np.ndarray, sigma: np.ndarray, ring, a_idx) -> np.ndarray:
    """The stabilizer of a on a computational table, unreduced:
    table(x + a) + sigma(x) - sigma(x + a) at every x."""
    return translate_table(table - sigma, ring, a_idx) + sigma


def basis_state(hg: CalibratedHypergraph, a: Configuration) -> FlatState:
    """The hypergraph-basis ket of a: phases sigma(x) + <a,x>."""
    return apply_pauli_z(a, build_state(hg))


def check_covariance(hg: CalibratedHypergraph, f: OrdinalMorphism) -> bool:
    """Exact equality of the transported state and the state of the transported hypergraph."""
    lhs = apply_he_morphism(f, build_state(hg))
    rhs = build_state(apply_morphism(f, hg))
    return lhs == rhs


# -- dense operator matrices (computational-basis index order) --------------------

def _stabilizer_matrix(hg: CalibratedHypergraph, a_idx) -> np.ndarray:
    ring = hg.ring
    dim = ring.q ** hg.l
    if dim > dense_cap():
        raise TooLarge(f"dense stabilizer of dimension {dim} exceeds the cap")
    sigma = phase_table(hg)
    source = np.arange(dim)
    target = translate_table(source, ring, ring.kernel.neg[list(a_idx)])  # index of y - a
    mat = np.zeros((dim, dim), dtype=complex)
    mat[target, source] = omega_powers(ring)[(sigma[target] - sigma) % ring.char]
    return mat


def dense_stabilizer_matrix(hg: CalibratedHypergraph, a: Configuration) -> np.ndarray:
    """Stabilizer operator as a dense computational-basis matrix."""
    return _stabilizer_matrix(hg, label_indices(hg.ring, a, hg.l))


def dense_he_matrix(f: OrdinalMorphism, ring) -> np.ndarray:
    """Ordinal-function action as a dense computational-basis matrix."""
    dim_in = ring.q ** f.source_size
    dim_out = ring.q ** f.target_size
    if max(dim_in, dim_out) > dense_cap():
        raise TooLarge("dense morphism action exceeds the cap")
    scale = float(ring.q) ** ((f.source_size - f.target_size) / 2.0)
    mat = np.zeros((dim_out, dim_in), dtype=complex)
    mat[np.arange(dim_out), pullback_table(np.arange(dim_in), ring, f)] = scale
    return mat


def check_stabilizer_pushforward(hg: CalibratedHypergraph, f: OrdinalMorphism,
                                 tol: float = 1e-9) -> bool:
    """Dense check that transported stabilizers match the image hypergraph's.

    For every a the conjugated stabilizer equals q^(l-m) times the sum of
    the image stabilizers over the transpose preimage of a; for bijective
    f this reduces to plain conjugation.
    """
    ring = hg.ring
    l, m = f.source_size, f.target_size
    if grid_size(ring.q, max(l, m), "the stabilizer pushforward check") > dense_cap():
        raise TooLarge("stabilizer pushforward check exceeds the dense cap")
    image = apply_morphism(f, hg)
    hf = dense_he_matrix(f, ring)
    scale = float(ring.q) ** (l - m)
    # label index of ef_transpose(f, b) for every image label b
    transposed = pullback_table(np.arange(ring.q ** l), ring, f)
    for a in range(ring.q ** l):
        lhs = hf @ _stabilizer_matrix(hg, np.unravel_index(a, (ring.q,) * l)) @ hf.conj().T
        rhs = np.zeros((ring.q ** m, ring.q ** m), dtype=complex)
        for b in np.flatnonzero(transposed == a):
            rhs += _stabilizer_matrix(image, np.unravel_index(b, (ring.q,) * m))
        if not np.allclose(lhs, scale * rhs, atol=tol):
            return False
    return True


# -- local maximal entangleability ---------------------------------------------

# Entries of the (row, label, configuration) block one pairwise step compares.
_PAIR_BLOCK = 1 << 15


def lme_orthonormal(hg: CalibratedHypergraph) -> bool:
    """Path one: the Z-translates of the state form an orthonormal set, exactly.

    Row a of the translate table holds the phases of Z(a) applied to the
    state.  Blocks of rows are compared against all later rows at once:
    the counts of each phase difference must be all-zero phases on the
    diagonal (norm exactly 1) and a vanishing root-of-unity sum elsewhere.
    """
    ring = hg.ring
    grid_size(ring.q, 2 * hg.l, "the pairwise orthonormality check")
    n, m = ring.q ** hg.l, ring.char
    translates = (pairing_matrix(ring, hg.l) + phase_table(hg)[None, :]) % m
    rows = max(1, _PAIR_BLOCK // (n * n))
    for start in range(0, n, rows):
        block = translates[start:start + rows]
        diff = translates[None, start:, :] - block[:, None, :]
        diff %= m
        pairs = diff.shape[0] * diff.shape[1]
        diff += (np.arange(pairs) * m).reshape(diff.shape[:2] + (1,))  # one bin range per pair
        counts = np.bincount(diff.reshape(-1), minlength=pairs * m)
        counts = counts.reshape(diff.shape[:2] + (m,))
        vanishing = ~cyclotomic_residues(counts, ring.p, ring.r).any(axis=-1)
        own = np.arange(len(block))
        if not (counts[own, own, 0] == n).all():
            return False  # norm not exactly 1
        vanishing[own, own] = True
        if not vanishing.all():
            return False
    return True


def lme_check(hg: CalibratedHypergraph, tol: float = 1e-9) -> bool:
    """Both entangleability paths: exact orthonormality and the maximally mixed marginal.

    The second path extends the state with Z-translates against Fourier
    kets and checks the first-factor reduced density against I / q^l; it
    needs q^(2l) dense amplitudes and raises TooLarge above the cap.
    """
    if not lme_orthonormal(hg):
        return False
    ring = hg.ring
    dim = ring.q ** hg.l
    # each column is a dense expansion of dimension dim, which the cap bounds too
    if dim * dim > max(4096, 4 * dense_cap()) or dim > dense_cap():
        raise TooLarge("reduced-density path exceeds the dense cap")
    # rows: first factor, columns: extension label a, entries the dense
    # amplitudes of Z(a) applied to the state, scaled by dim^(-1/2)
    exponents = (pairing_matrix(ring, hg.l) + phase_table(hg)[:, None]) % ring.char
    m = omega_powers(ring)[exponents] * (float(ring.q) ** (-hg.l / 2.0) * dim ** -0.5)
    rho = m @ m.conj().T
    return bool(np.allclose(rho, np.eye(dim) / dim, atol=tol))


def stabilizer_fixes_state(hg: CalibratedHypergraph) -> tuple[int, int]:
    """Count how many stabilizer operators leave the hypergraph state invariant.

    The state checked is built from the definition, `phase_function` at
    every configuration, while the operators use the phase table; so a
    table that differs from sigma by more than a constant fails labels.
    """
    ring, l = hg.ring, hg.l
    grid_size(ring.q, 2 * l, "the stabilizer suite")
    sigma = phase_table(hg)
    psi = reduced_table([phase_function(hg, x) for x in all_configurations(ring, l)], ring.char)
    good = 0
    for a_idx in itertools.product(range(ring.q), repeat=l):
        moved = _stabilized(psi, sigma, ring, a_idx) % ring.char
        good += bool(np.array_equal(moved, psi))
    return good, ring.q ** l
