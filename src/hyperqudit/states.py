"""Multi-qudit configurations and exact flat states.

A grade-l configuration is a tuple of l ring elements; the configuration
set carries the trace pairing <x,y> = sum_r tr(x_r y_r) and the additive
actions of ordinal functions.  States are kept exact: a flat state is a
table of phase exponents mod p^r together with a power-of-q magnitude,
with a basis tag saying whether the table indexes the computational
basis (the Fourier transforms of the Hadamard kets, in which all states
built here live) or the Hadamard basis.  Complex amplitudes appear only
in the dense cross-check representation, tolerance 1e-9.

Configurations are enumerated in mixed radix over the canonical element
order with the last qudit varying fastest; that order fixes phase-table
indexing, serialization and tensor products.

Exact inner products of flat states are handled as integer vectors of
phase counts: sum_x omega^(d(x)) is stored as the count of each residue
d(x) and tested against zero by reduction mod the p^r-th cyclotomic
polynomial.

``FlatState.phases`` is a read-only flat ``np.int64`` array with every
entry in [0, p^r); the constructor is the one place a table is reduced
and frozen (a table that already is one is adopted without a copy), so
the operators gather through the ring kernel's tables on
it directly and hand unreduced int64 results back to the constructor.
Python ints appear only in the text and JSON output.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadSetting, BasisMismatch, GradeMismatch, RingMismatch, TooLarge, WrongBasis
from .galois import GaloisRing, RingElement, grid_size, require_exact
from .hypergraph import OrdinalMorphism

__all__ = [
    "COMPUTATIONAL",
    "HADAMARD",
    "Configuration",
    "FlatState",
    "DenseState",
    "all_configurations",
    "config_index",
    "config_at",
    "config_add",
    "config_sub",
    "trace_pairing",
    "ef",
    "ef_transpose",
    "concat",
    "apply_pauli_z",
    "apply_pauli_x",
    "apply_he_morphism",
    "tensor",
    "phase_difference_counts",
    "cyclotomic_residue",
    "sum_of_phases_is_zero",
    "is_orthogonal",
    "equal_up_to_phase",
    "to_dense",
    "fourier",
    "fourier_matrix",
    "dense_cap",
]

COMPUTATIONAL = "computational"
HADAMARD = "hadamard"

Configuration = tuple[RingElement, ...]

_DEFAULT_DENSE_CAP = 1024


def dense_cap() -> int:
    """Dimension guard for dense cross-checks; HGS_DENSE_CAP, a positive integer, overrides."""
    raw = os.environ.get("HGS_DENSE_CAP")
    if not raw:
        return _DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadSetting(f"HGS_DENSE_CAP must be a positive integer, got {raw!r}")
    return cap


# -- configurations -------------------------------------------------------------

def all_configurations(ring: GaloisRing, l: int):
    """All q^l configurations, mixed radix, last qudit fastest."""
    return itertools.product(ring.elements, repeat=l)


def config_index(ring: GaloisRing, x: Configuration) -> int:
    idx = 0
    for e in x:
        idx = idx * ring.q + ring.index(e)
    return idx


def config_at(ring: GaloisRing, l: int, idx: int) -> Configuration:
    out = []
    for _ in range(l):
        out.append(ring.elements[idx % ring.q])
        idx //= ring.q
    return tuple(reversed(out))


def config_add(x: Configuration, y: Configuration) -> Configuration:
    if len(x) != len(y):
        raise GradeMismatch("configurations of different grade")
    return tuple(a + b for a, b in zip(x, y))


def config_sub(x: Configuration, y: Configuration) -> Configuration:
    if len(x) != len(y):
        raise GradeMismatch("configurations of different grade")
    return tuple(a - b for a, b in zip(x, y))


def concat(x: Configuration, y: Configuration) -> Configuration:
    return x + y


def trace_pairing(x: Configuration, y: Configuration) -> int:
    """<x,y> = sum_r tr(x_r y_r); zero for empty configurations."""
    if len(x) != len(y):
        raise GradeMismatch("trace pairing of different grades")
    if not x:
        return 0
    ring = x[0].ring
    for a, b in zip(x, y):
        if a.ring is not ring or b.ring is not ring:
            raise RingMismatch("trace pairing across rings")
    return sum(ring.trace(a * b) for a, b in zip(x, y)) % ring.char


def ef(f: OrdinalMorphism, x: Configuration, ring: GaloisRing | None = None) -> Configuration:
    """Additive pushforward: entry s of the result sums x over the preimage of s.

    The ring argument is only needed for an empty source configuration,
    where the result is the zero configuration of the target grade.
    """
    if len(x) != f.source_size:
        raise GradeMismatch("configuration grade does not match the morphism source")
    if f.target_size == 0:
        return ()
    if not x:
        if ring is None:
            raise GradeMismatch("empty source configuration needs an explicit ring")
        return (ring.zero,) * f.target_size
    ring = x[0].ring
    out = [ring.zero] * f.target_size
    for r, e in enumerate(x):
        s = f(r)
        out[s] = out[s] + e
    return tuple(out)


def ef_transpose(f: OrdinalMorphism, y: Configuration) -> Configuration:
    """Transpose of ef under the trace pairing: entry r is y at f(r)."""
    if len(y) != f.target_size:
        raise GradeMismatch("configuration grade does not match the morphism target")
    return tuple(y[f(r)] for r in range(f.source_size))


# -- flat states ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FlatState:
    """Exact state with amplitude q^(norm_exp/2) * omega^(phase) per basis ket.

    The phase table has one entry in [0, p^r) per configuration, indexed
    in the canonical mixed-radix order; the constructor stores it as a
    read-only flat int64 array (see `reduced_table`).  Normalized states have
    norm_exp = -l.
    """

    ring: GaloisRing
    l: int
    basis: str
    norm_exp: int
    phases: np.ndarray

    def __post_init__(self):
        if self.basis not in (COMPUTATIONAL, HADAMARD):
            raise BasisMismatch(f"unknown basis tag {self.basis!r}")
        table = reduced_table(self.phases, self.ring.char)
        if table.size != self.ring.q ** self.l:
            raise GradeMismatch("phase table size does not match the grade")
        object.__setattr__(self, "phases", table)

    @staticmethod
    def from_table(ring: GaloisRing, l: int, phases, basis: str = COMPUTATIONAL,
                   norm_exp: int | None = None) -> "FlatState":
        return FlatState(ring, l, basis, -l if norm_exp is None else norm_exp, phases)

    @staticmethod
    def zero_ket(ring: GaloisRing, l: int) -> "FlatState":
        """The zero-configuration Hadamard ket: uniform phases over the
        computational table, the seed the hypergraph operator acts on."""
        return FlatState(ring, l, COMPUTATIONAL, -l,
                         np.zeros(grid_size(ring.q, l, "the zero ket"), dtype=np.int64))

    def phase_at(self, x: Configuration) -> int:
        return int(self.phases[config_index(self.ring, x)])

    def with_phases(self, phases, norm_exp: int | None = None) -> "FlatState":
        """The same state data with a new phase table (any iterable of ints, or an int array)."""
        return FlatState(self.ring, self.l, self.basis,
                         self.norm_exp if norm_exp is None else norm_exp, phases)

    def add_constant(self, c: int) -> "FlatState":
        return self.with_phases(self.phases + c % self.ring.char)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FlatState)
            and (self.ring, self.l, self.basis, self.norm_exp)
            == (other.ring, other.l, other.basis, other.norm_exp)
            and np.array_equal(self.phases, other.phases)
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.l, self.basis, self.norm_exp, self.phases.tobytes()))


def reduced_table(phases, m: int) -> np.ndarray:
    """A phase table (any iterable of ints, or an int array of any shape) as the
    flat, read-only int64 array of its residues mod m that FlatState stores.

    An array that already is such a table and owns its data (so no
    writeable base can change it) is returned as it is, which lets every
    state built from a cached phase table share the cache; any other input
    is copied and reduced.
    """
    if (isinstance(phases, np.ndarray) and phases.dtype == np.int64 and phases.ndim == 1
            and phases.flags.owndata and not phases.flags.writeable
            and phases.size and phases.min() >= 0 and phases.max() < m):
        return phases
    if isinstance(phases, np.ndarray):
        table = np.asarray(phases, dtype=np.int64).reshape(-1) % m
    else:
        table = np.fromiter((int(v) % m for v in phases), dtype=np.int64)
    table.flags.writeable = False
    return table


def label_indices(ring: GaloisRing, a: Configuration, l: int) -> list[int]:
    """Element indices of a grade-l operator label over `ring`."""
    if len(a) != l:
        raise GradeMismatch("operator grade does not match the state grade")
    if any(e.ring is not ring for e in a):
        raise RingMismatch("operator configuration over a different ring")
    return [ring.index(e) for e in a]


def pairing_table(ring: GaloisRing, a_idx) -> np.ndarray:
    """<a, x> mod p^r for every configuration x of grade len(a_idx), flat."""
    k = ring.kernel
    l = len(a_idx)
    total = np.zeros((1,) * l, dtype=np.int64)
    for r, ar in enumerate(a_idx):
        shape = [1] * l
        shape[r] = ring.q
        total = total + k.trace[k.mul[ar]].reshape(shape)
    return np.broadcast_to(total % ring.char, (ring.q,) * l).reshape(-1)


def pairing_matrix(ring: GaloisRing, l: int) -> np.ndarray:
    """The symmetric q^l x q^l matrix of <x, y> mod p^r, configuration order on both axes."""
    k = ring.kernel
    single = k.trace[k.mul]
    out = np.zeros((1, 1), dtype=np.int64)
    for _ in range(l):
        n = out.shape[0] * ring.q
        out = ((out[:, None, :, None] + single[None, :, None, :]) % ring.char).reshape(n, n)
    return out


def translate_table(values: np.ndarray, ring: GaloisRing, a_idx) -> np.ndarray:
    """t[x] = values[x + a] for every configuration x of grade len(a_idx)."""
    add = ring.kernel.add
    grid = values.reshape((ring.q,) * len(a_idx))
    return grid[np.ix_(*(add[:, ar] for ar in a_idx))].reshape(-1)


def pullback_table(values: np.ndarray, ring: GaloisRing, f: OrdinalMorphism) -> np.ndarray:
    """t[y] = values[ef_transpose(f, y)] for every configuration y of grade f.target_size."""
    q, m = ring.q, f.target_size
    grid = values.reshape((q,) * f.source_size)
    axes = tuple(np.arange(q).reshape([q if s == f(r) else 1 for s in range(m)])
                 for r in range(f.source_size))
    return np.broadcast_to(grid[axes], (q,) * m).reshape(-1)


def apply_pauli_z(a: Configuration, psi: FlatState) -> FlatState:
    """Pauli Z(a): ket-translation in the Hadamard basis, diagonal in the computational one."""
    ring = psi.ring
    a_idx = label_indices(ring, a, psi.l)
    if psi.basis == COMPUTATIONAL:
        return psi.with_phases(psi.phases + pairing_table(ring, a_idx))
    # Hadamard: amplitude at x + a is the old amplitude at x
    minus_a = ring.kernel.neg[a_idx]
    return psi.with_phases(translate_table(psi.phases, ring, minus_a))


def apply_pauli_x(a: Configuration, psi: FlatState) -> FlatState:
    """Pauli X(a): diagonal in the Hadamard basis, ket-translation in the computational one."""
    ring = psi.ring
    a_idx = label_indices(ring, a, psi.l)
    if psi.basis == HADAMARD:
        return psi.with_phases(psi.phases + pairing_table(ring, a_idx))
    # computational: X(a) maps the ket of x to the ket of x - a,
    # so the new table value at x is the old value at x + a
    return psi.with_phases(translate_table(psi.phases, ring, a_idx))


def apply_he_morphism(f: OrdinalMorphism, psi: FlatState) -> FlatState:
    """Hilbert-space action of an ordinal function on a computational flat state.

    New phase at y is the old phase at the transposed configuration of y;
    the magnitude exponent grows by (l - m).
    """
    if psi.basis != COMPUTATIONAL:
        raise WrongBasis("morphism action implemented on computational-basis tables")
    if f.source_size != psi.l:
        raise GradeMismatch("morphism source does not match the state grade")
    ring = psi.ring
    grid_size(ring.q, f.target_size, "the transported state")
    return FlatState(ring, f.target_size, COMPUTATIONAL,
                     psi.norm_exp + (psi.l - f.target_size),
                     pullback_table(psi.phases, ring, f))


def tensor(psi: FlatState, phi: FlatState) -> FlatState:
    """Monadic product of states: phases add blockwise, magnitudes multiply."""
    if psi.ring is not phi.ring:
        raise RingMismatch("tensor of states over different rings")
    if psi.basis != phi.basis:
        raise BasisMismatch("tensor of states in different bases")
    require_exact(psi.phases.size * phi.phases.size, "the tensor product")
    table = psi.phases[:, None] + phi.phases[None, :]
    return FlatState(psi.ring, psi.l + phi.l, psi.basis, psi.norm_exp + phi.norm_exp, table)


# -- exact inner products ----------------------------------------------------------

def phase_difference_counts(psi: FlatState, phi: FlatState) -> list[int]:
    """Counts of each residue of (phi - psi) phases; encodes <psi|phi> / q^((n1+n2)/2)."""
    if psi.ring is not phi.ring:
        raise RingMismatch("inner product across rings")
    if psi.l != phi.l:
        raise GradeMismatch("inner product across grades")
    if psi.basis != phi.basis:
        raise BasisMismatch("inner product across bases")
    m = psi.ring.char
    return np.bincount((phi.phases - psi.phases) % m, minlength=m).tolist()


def cyclotomic_residues(counts: np.ndarray, p: int, r: int) -> np.ndarray:
    """Remainders modulo the p^r-th cyclotomic polynomial of every count row (last axis)."""
    # Phi_{p^r}(X) = sum_{i<p} X^(i p^(r-1)), monic of degree (p-1) p^(r-1); it
    # divides X^(p^r) - 1, so exponents first fold mod p^r, and then
    # X^(deg + j) = -sum_{i<p-1} X^(j + i p^(r-1)) for j < p^(r-1)
    char = p ** r
    step = p ** (r - 1)
    deg = (p - 1) * step
    folded = np.zeros(counts.shape[:-1] + (char,), dtype=np.int64)
    for start in range(0, counts.shape[-1], char):
        chunk = counts[..., start:start + char]
        folded[..., :chunk.shape[-1]] += chunk
    return folded[..., :deg] - np.tile(folded[..., deg:], p - 1)


def cyclotomic_residue(counts: list[int], p: int, r: int) -> tuple[int, ...]:
    """Remainder of sum_j counts[j] X^j modulo the p^r-th cyclotomic polynomial.

    The sum of roots of unity sum_j counts[j] omega^j vanishes exactly
    when this remainder is the zero vector.
    """
    return tuple(cyclotomic_residues(np.array(counts, dtype=np.int64), p, r).tolist())


def sum_of_phases_is_zero(counts: list[int], p: int, r: int) -> bool:
    return not any(cyclotomic_residue(counts, p, r))


def is_orthogonal(psi: FlatState, phi: FlatState) -> bool:
    """Exact vanishing of the inner product of two flat states."""
    counts = phase_difference_counts(psi, phi)
    return sum_of_phases_is_zero(counts, psi.ring.p, psi.ring.r)


def equal_up_to_phase(psi: FlatState, phi: FlatState) -> int | None:
    """The constant c with phi = omega^c psi, or None."""
    if (psi.ring, psi.l, psi.basis, psi.norm_exp) != (phi.ring, phi.l, phi.basis, phi.norm_exp):
        return None
    diff = (phi.phases - psi.phases) % psi.ring.char
    c = int(diff[0])
    return c if bool((diff == c).all()) else None


# -- dense cross-check representation -----------------------------------------------

@dataclass
class DenseState:
    """Complex amplitudes in computational-basis order; float cross-checks only."""

    ring: GaloisRing
    l: int
    amplitudes: np.ndarray


def omega_powers(ring: GaloisRing) -> np.ndarray:
    """omega^k for k < p^r, omega = exp(2 pi i / p^r): the table every dense path gathers from."""
    return np.exp(2j * np.pi * np.arange(ring.char) / ring.char)


def to_dense(psi: FlatState) -> DenseState:
    """Expand to complex amplitudes in the computational basis."""
    ring = psi.ring
    dim = ring.q ** psi.l
    if dim > dense_cap():
        raise TooLarge(f"dense expansion of dimension {dim} exceeds the cap")
    mag = float(ring.q) ** (psi.norm_exp / 2.0)
    omega = omega_powers(ring)
    if psi.basis == COMPUTATIONAL:
        return DenseState(ring, psi.l, mag * omega[psi.phases])
    # Hadamard kets expanded over computational ones: amplitude at y sums
    # omega^(phase(x) + <y,x>) over x
    scale = mag * float(ring.q) ** (-psi.l / 2.0)
    exponents = (pairing_matrix(ring, psi.l) + psi.phases[None, :]) % ring.char
    return DenseState(ring, psi.l, scale * omega[exponents].sum(axis=1))


def fourier_matrix(ring: GaloisRing, l: int) -> np.ndarray:
    """The grade-l Fourier matrix with entries q^(-l/2) omega^(<x,y>)."""
    dim = ring.q ** l
    if dim > dense_cap():
        raise TooLarge(f"Fourier matrix of dimension {dim} exceeds the cap")
    return omega_powers(ring)[pairing_matrix(ring, l)] * float(ring.q) ** (-l / 2.0)


def fourier(psi: DenseState, direction: str = "forward") -> DenseState:
    """Apply the Fourier operator (or its adjoint) to a dense state."""
    mat = fourier_matrix(psi.ring, psi.l)
    if direction == "forward":
        out = mat @ psi.amplitudes
    elif direction == "inverse":
        out = mat.conj().T @ psi.amplitudes
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return DenseState(psi.ring, psi.l, out)


# -- emission format ------------------------------------------------------------

def render_element(e: RingElement) -> str:
    if e.ring.d == 1:
        return str(e.coeffs[0])
    return ":".join(str(c) for c in e.coeffs)


def render_configuration(x: Configuration) -> str:
    if not x:
        return "()"
    return ",".join(render_element(e) for e in x)


def emit_state(psi: FlatState, dense: bool = False) -> str:
    """The line-oriented exact state format (optionally with complex columns)."""
    lines = [
        f"# basis {psi.basis}",
        f"# l {psi.l}",
        f"# norm_exp {psi.norm_exp}",
        f"# char {psi.ring.char}",
    ]
    amps = to_dense(psi).amplitudes if dense else None
    phases = psi.phases.tolist()
    for i, x in enumerate(all_configurations(psi.ring, psi.l)):
        row = f"{render_configuration(x)}  {phases[i]}"
        if amps is not None:
            re = 0.0 if abs(amps[i].real) < 1e-12 else amps[i].real
            im = 0.0 if abs(amps[i].imag) < 1e-12 else amps[i].imag
            row += f"  {re:.12g},{im:.12g}"
        lines.append(row)
    return "\n".join(lines) + "\n"
