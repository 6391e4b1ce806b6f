"""The calibrated hypergraph state map and its verification suites.

A calibrated hypergraph over [l] determines a phase function on the
configuration set (a trace of products of generalized powers, one term
per stored calibration entry) and hence a diagonal unitary in the
computational basis.  Applying it to the zero ket gives the hypergraph
state: the flat state whose phase table is the phase function itself.

The stabilizer operators, the hypergraph basis, the covariance of the
construction under ordinal functions, the pushforward of stabilizers
and local maximal entangleability are all checked here, exactly on
integer phase tables.  Every operator involved has one nonzero entry
per row: stabilizers and Pauli operators are monomial, and row y of the
ordinal-function action has its entry at ef_transpose(f, y); so
operator identities reduce to gathers and comparisons of tables.  The
dense matrices (tolerance 1e-9) remain as the paper's cross-check: the
builders below and the reduced-density path of `lme_check`.

The entangleability suite checks flatness and the ring's trace pairing,
not sigma: the phase differences of the Z-translates of a flat state
are trace pairings, in which sigma cancels, so any phase table passes
exactly when sum_x omega^tr(cx) = 0 for every nonzero c in the ring.
The pairing factorizes per qudit, so that exact check has no cap on l.

Whole tables are computed with gathers through the ring kernel (see
:class:`hyperqudit.galois.RingKernel`).  ``sigma_columns`` evaluates
the definition of sigma at any set of configurations at once, every
vertex of every stored entry included; ``phase_function`` is its
one-configuration case, and the stabilizer suite evaluates it at all
q^l configurations to check the phase table against.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import GradeMismatch, TooLarge, WrongBasis
from .galois import grid_size
from .hypergraph import CalibratedHypergraph, OrdinalMorphism, apply_morphism
from .states import (
    COMPUTATIONAL,
    Configuration,
    FlatState,
    apply_he_morphism,
    apply_pauli_z,
    cyclotomic_residues,
    dense_cap,
    equal_up_to_phase,
    label_indices,
    omega_powers,
    pairing_matrix,
    pullback_table,
    reduced_table,
    translate_table,
)

__all__ = [
    "phase_function",
    "sigma_columns",
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
    column = np.array(label_indices(hg.ring, x, hg.l), dtype=np.intp).reshape(hg.l, 1)
    return int(sigma_columns(hg, column)[0])


def sigma_columns(hg: CalibratedHypergraph, configs: np.ndarray) -> np.ndarray:
    """sigma at every column of an (l, n) array of element indices, by the definition.

    For each stored entry the powers x_r^w(r) over every vertex r of its
    edge, zero exponents included, are multiplied through the kernel and
    traced; the values are summed mod p^r.  Nothing is shared with
    `phase_table`, so each can check the other.
    """
    ring = hg.ring
    k = ring.kernel
    total = np.zeros(configs.shape[1], dtype=np.int64)
    for edge, w, val in hg.stored_entries():
        prod = np.ones(configs.shape[1], dtype=np.intp)  # index 1 is the unit
        for r in edge:
            prod = k.mul[prod, k.power_values(w.value(r, ring).items)[configs[r]]]
        total += val * k.trace[prod]
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


def _transport_pair(hg: CalibratedHypergraph, f: OrdinalMorphism) -> tuple[FlatState, FlatState]:
    """The transported state of hg and the state of the transported hypergraph f(hg)."""
    return apply_he_morphism(f, build_state(hg)), build_state(apply_morphism(f, hg))


def check_covariance(hg: CalibratedHypergraph, f: OrdinalMorphism) -> bool:
    """Exact equality of the transported state and the state of the transported hypergraph."""
    transported, image = _transport_pair(hg, f)
    return transported == image


# -- dense operator matrices (computational-basis index order) --------------------

def dense_stabilizer_matrix(hg: CalibratedHypergraph, a: Configuration) -> np.ndarray:
    """Stabilizer operator as a dense computational-basis matrix."""
    ring = hg.ring
    dim = ring.q ** hg.l
    if dim > dense_cap():
        raise TooLarge(f"dense stabilizer of dimension {dim} exceeds the cap")
    a_idx = label_indices(ring, a, hg.l)
    sigma = phase_table(hg)
    source = np.arange(dim)
    target = translate_table(source, ring, ring.kernel.neg[a_idx])  # index of y - a
    mat = np.zeros((dim, dim), dtype=complex)
    mat[target, source] = omega_powers(ring)[(sigma[target] - sigma) % ring.char]
    return mat


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


def check_stabilizer_pushforward(hg: CalibratedHypergraph, f: OrdinalMorphism) -> bool:
    """Exact check that transported stabilizers match the image hypergraph's.

    The identity: for every label a, H_f S(a) H_f^dagger equals q^(l-m)
    times the sum of the image stabilizers S'(b) over the b with
    ef_transpose(f, b) = a; for bijective f this is plain conjugation.
    Each operator has one nonzero entry per row.  Writing f^T for
    ef_transpose, entry (i, j) of the left side is nonzero exactly when
    f^T(j - i) = a, with value q^(l-m) omega^(sigma(f^T i) - sigma(f^T j));
    the right side has the same support, with value
    q^(l-m) omega^(sigma'(i) - sigma'(j)) for the image table sigma'.
    Over all labels a these supports cover every pair (i, j), so the
    identity holds for every a exactly when sigma o f^T - sigma' is
    constant mod p^r, that is, when the transported state equals the
    image state up to a global phase: an O(q^l + q^m) comparison of
    integer tables.
    """
    return equal_up_to_phase(*_transport_pair(hg, f)) is not None


# -- local maximal entangleability ---------------------------------------------

# Entries of the (row, element) block one step of the one-qudit row check counts.
_PAIR_BLOCK = 1 << 15

# Configurations the stabilizer suite builds the state at in one step.
_CONFIG_BLOCK = 1 << 16


def lme_orthonormal(hg: CalibratedHypergraph) -> bool:
    """Path one: the Z-translates of the state form an orthonormal set, exactly.

    Z(a) applied to the state has phases sigma + <a, .>, so the phase
    difference of the translates of a and b is <b - a, .> and sigma
    cancels: the q^(2l) inner products are the q^l rows c of the pairing
    matrix.  Row 0 is the norm (all phases 0, so exactly 1) and every row
    c != 0 must be a vanishing root-of-unity sum, so a state with any
    phase table passes.  Row c factorizes per qudit, sum_x omega^<c,x> =
    prod_r sum_x omega^tr(c_r x), with the factor q at a zero component,
    so for l >= 1 the q rows of grade 1 decide every grade: the O(q^2)
    criterion sum_x omega^tr(cx) = 0 for every nonzero c in R, the
    nondegeneracy of the trace pairing.
    """
    ring = hg.ring
    pairing = pairing_matrix(ring, min(hg.l, 1))
    n, m = len(pairing), ring.char
    if pairing[0].any():
        return False  # norm not exactly 1
    rows = max(1, _PAIR_BLOCK // n)
    for start in range(1, n, rows):
        block = pairing[start:start + rows]
        k = len(block)
        binned = block + (np.arange(k) * m)[:, None]  # one bin range per row
        counts = np.bincount(binned.reshape(-1), minlength=k * m).reshape(k, m)
        if cyclotomic_residues(counts, ring.p, ring.r).any():
            return False
    return True


def lme_check(hg: CalibratedHypergraph, tol: float = 1e-9) -> bool:
    """Both entangleability paths: exact orthonormality and the maximally mixed marginal.

    The second path, the paper's dense cross-check, extends the state
    with Z-translates against Fourier kets and checks the first-factor
    reduced density against I / q^l; it needs q^(2l) dense amplitudes and
    raises TooLarge above the cap, before the first path runs, so a caller
    that falls back to `lme_orthonormal` runs it once.  Like the first
    path it depends on the ring and l only: the reduced density is
    diagonal for every sigma.
    """
    ring = hg.ring
    dim = grid_size(ring.q, hg.l, "the reduced-density path")
    # each column is a dense expansion of dimension dim, which the cap bounds too
    if dim * dim > max(4096, 4 * dense_cap()) or dim > dense_cap():
        raise TooLarge("reduced-density path exceeds the dense cap")
    if not lme_orthonormal(hg):
        return False
    # rows: first factor, columns: extension label a, entries the dense
    # amplitudes of Z(a) applied to the state, scaled by dim^(-1/2)
    exponents = (pairing_matrix(ring, hg.l) + phase_table(hg)[:, None]) % ring.char
    m = omega_powers(ring)[exponents] * (float(ring.q) ** (-hg.l / 2.0) * dim ** -0.5)
    rho = m @ m.conj().T
    return bool(np.allclose(rho, np.eye(dim) / dim, atol=tol))


def stabilizer_fixes_state(hg: CalibratedHypergraph) -> tuple[int, int]:
    """Count how many stabilizer operators leave the hypergraph state invariant.

    The state checked is built from the definition, `sigma_columns` at
    all q^l configurations at once, while the operators use the phase
    table; so a table that differs from sigma by more than a constant
    fails labels.  When the two differ by a constant mod p^r every label
    passes, which one O(q^l) comparison decides; otherwise each label is
    applied in turn, which needs q^(2l) entries and is capped like them.
    The state is built a block of configurations at a time, so the passing
    path holds O(q^l) entries, not the l q^l of every configuration.
    """
    ring, l = hg.ring, hg.l
    sigma = phase_table(hg)
    n = sigma.size
    place = ring.q ** np.arange(l - 1, -1, -1, dtype=np.intp)[:, None]  # digit r: x // q^(l-1-r)
    psi = reduced_table(np.concatenate([
        sigma_columns(hg, np.arange(start, min(start + _CONFIG_BLOCK, n)) // place % ring.q)
        for start in range(0, n, _CONFIG_BLOCK)]), ring.char)
    offset = (psi - sigma) % ring.char
    if (offset == offset[0]).all():
        return n, n
    grid_size(ring.q, 2 * l, "the stabilizer suite")
    good = 0
    for a_idx in itertools.product(range(ring.q), repeat=l):
        moved = _stabilized(psi, sigma, ring, a_idx) % ring.char
        good += bool(np.array_equal(moved, psi))
    return good, n
