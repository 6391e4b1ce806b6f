"""Finite-field polynomial machinery behind generalized powers.

Over a field with q elements the power function of any generalized
exponent coincides with a unique polynomial of degree below q.  Its
coefficients come from the inverse of the power matrix (the q x q
Vandermonde-type matrix of all powers of all elements), for which a
closed block formula in terms of a primitive element exists.  Products
of such polynomials are reduced modulo the universal polynomial
x^q - x, under which the exponent-to-polynomial map is a monoid
morphism.  The basic power matrix collects the values of the generating
exponents; expanding an arbitrary reduced polynomial in that generator
basis uses its inverse, computed by Gaussian elimination since no
closed form is available.

None of this extends to proper Galois rings; every entry point rejects
r > 1.

The matrices are built and multiplied as integer index arrays through
the ring kernel (see :class:`hyperqudit.galois.RingKernel`); entries
become :class:`RingElement` values only when a public function returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclicity import CycExponent, reduce_exponents
from .errors import DegreeTooHigh, NotField, RingMismatch, Singular
from .galois import GaloisRing, RingElement, RingKernel

__all__ = [
    "FieldPolynomial",
    "power_matrix",
    "power_matrix_inverse",
    "gaussian_inverse",
    "m_polynomial",
    "reduce_mod_universal",
    "basic_power_matrix",
    "expand_in_basic",
]

Matrix = tuple[tuple[RingElement, ...], ...]


def _require_field(ring: GaloisRing) -> None:
    if ring.r != 1:
        raise NotField(f"{ring} is not a field (r = {ring.r})")


@dataclass(frozen=True)
class FieldPolynomial:
    """A polynomial over a Galois field, least-significant coefficient first."""

    ring: GaloisRing
    coeffs: tuple[RingElement, ...]  # trailing zeros trimmed

    @staticmethod
    def make(ring: GaloisRing, coeffs) -> "FieldPolynomial":
        _require_field(ring)
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, RingElement) or c.ring is not ring:
                raise RingMismatch("coefficient from a different ring")
        while cs and cs[-1].is_zero():
            cs.pop()
        return FieldPolynomial(ring, tuple(cs))

    @staticmethod
    def from_ints(ring: GaloisRing, ints) -> "FieldPolynomial":
        return FieldPolynomial.make(ring, [ring.from_int(v) for v in ints])

    @staticmethod
    def zero(ring: GaloisRing) -> "FieldPolynomial":
        _require_field(ring)
        return FieldPolynomial(ring, ())

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x: RingElement) -> RingElement:
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "FieldPolynomial") -> "FieldPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.ring.zero
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else zero
            b = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(a + b)
        return FieldPolynomial.make(self.ring, out)

    def __mul__(self, other: "FieldPolynomial") -> "FieldPolynomial":
        if not self.coeffs or not other.coeffs:
            return FieldPolynomial.zero(self.ring)
        zero = self.ring.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return FieldPolynomial.make(self.ring, out)

    def __repr__(self) -> str:
        return f"FieldPolynomial({[c.coeffs for c in self.coeffs]})"


# -- integer helpers over the ring kernel -------------------------------------------

def _kernel(ring: GaloisRing) -> RingKernel:
    _require_field(ring)
    return ring.kernel


def _matrix(ring: GaloisRing, idx: np.ndarray) -> Matrix:
    """The public form of an index matrix: a tuple of rows of ring elements."""
    elements = ring.elements
    return tuple(tuple(elements[i] for i in row) for row in idx.tolist())


def _indices(ring: GaloisRing, values) -> np.ndarray:
    """Element indices of a sequence of ring elements; foreign elements are rejected."""
    out = []
    for v in values:
        if not isinstance(v, RingElement) or v.ring is not ring:
            raise RingMismatch("element from a different ring")
        out.append(ring.index(v))
    return np.array(out, dtype=np.intp)


def _mat_vec(k: RingKernel, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The field product a . v of index arrays, one column of a at a time."""
    out = np.zeros(len(a), dtype=np.intp)  # index 0 is zero
    for j, vj in enumerate(v):
        out = k.add[out, k.mul[a[:, j], vj]]
    return out


def _power_indices(ring: GaloisRing) -> np.ndarray:
    k = _kernel(ring)
    x = np.arange(ring.q)[:, None]
    return k.powers[x, reduce_exponents(k.iota[x], k.period[x], np.arange(ring.q)[None, :])]


def _power_inverse_indices(ring: GaloisRing) -> np.ndarray:
    k = _kernel(ring)
    q = ring.q
    xi_powers = k.powers[ring.index(ring.primitive_theta), :q - 1]  # xi has period q - 1

    # the blocks in xi-power order (0, 1, xi, ..., xi^(q-2)): row 0 is e_0;
    # row k + 1 is -xi^((q-2-k) m) in column m + 1, and -1 in column 0 for k = q - 2
    block = np.zeros((q, q), dtype=np.intp)
    block[0, 0] = 1
    block[q - 1, 0] = k.neg[1]
    steps = (q - 2 - np.arange(q - 1))[:, None] * np.arange(q - 1)[None, :]
    block[1:, 1:] = k.neg[xi_powers[steps % (q - 1)]]

    # position of each canonical element in xi-power order
    pos = np.empty(q, dtype=np.intp)
    pos[0] = 0
    pos[xi_powers] = np.arange(1, q)
    return block[:, pos]


def _gauss_jordan(k: RingKernel, mat: np.ndarray) -> np.ndarray:
    """Inverse of a square index matrix by elimination on [mat | I]."""
    n = len(mat)
    work = np.concatenate([mat, np.eye(n, dtype=np.intp)], axis=1)  # index 1 is one
    for col in range(n):
        nonzero = np.flatnonzero(work[col:, col])
        if not nonzero.size:
            raise Singular("matrix is singular over the field")
        pivot = col + nonzero[0]
        work[[col, pivot]] = work[[pivot, col]]
        work[col] = k.mul[_field_inverse(k, work[col, col]), work[col]]
        factors = work[:, col].copy()
        factors[col] = 0
        work = k.add[work, k.neg[k.mul[factors[:, None], work[col]]]]
    return work[:, n:]


def _field_inverse(k: RingKernel, x: int) -> int:
    """x^-1 = x^(order - 1), read from the power table."""
    if x == 0:
        raise Singular("zero pivot")
    return k.powers[x, k.period[x] - 1]


def _basic_indices(ring: GaloisRing) -> np.ndarray:
    """C[x][y] = x^s(y): s(y) is 1 at y alone (zero for y = 1), so x on the diagonal, else 1."""
    _require_field(ring)
    c = np.full((ring.q, ring.q), ring.index(ring.one), dtype=np.intp)
    np.fill_diagonal(c, np.arange(ring.q))
    return c


# -- public matrices and polynomials -----------------------------------------------

def power_matrix(ring: GaloisRing) -> Matrix:
    """Entry (x, k) is x^k; rows in canonical element order, columns k in [q]."""
    return _matrix(ring, _power_indices(ring))


def power_matrix_inverse(ring: GaloisRing) -> Matrix:
    """Inverse of the power matrix from the closed block formula.

    The blocks are stated for the element order (0, 1, xi, xi^2, ...)
    with xi primitive; the columns are permuted back to the canonical
    order afterwards.
    """
    return _matrix(ring, _power_inverse_indices(ring))


def gaussian_inverse(ring: GaloisRing, mat: Matrix) -> Matrix:
    """Matrix inverse over the field by Gauss-Jordan elimination."""
    k = _kernel(ring)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise Singular("a non-square matrix has no inverse")
    idx = _indices(ring, (e for row in mat for e in row)).reshape(n, n)
    return _matrix(ring, _gauss_jordan(k, idx))


def m_polynomial(ring: GaloisRing, u: CycExponent) -> FieldPolynomial:
    """The unique degree < q polynomial agreeing with the power function of u."""
    k = _kernel(ring)
    if u.ring is not ring:
        raise RingMismatch("exponent over a different ring")
    coeffs = _mat_vec(k, _power_inverse_indices(ring), k.power_values(u.items))
    return FieldPolynomial.make(ring, [ring.elements[i] for i in coeffs.tolist()])


def reduce_mod_universal(f: FieldPolynomial) -> FieldPolynomial:
    """Remainder modulo x^q - x: the degree < q representative with the same values."""
    ring = f.ring
    q = ring.q
    cs = list(f.coeffs)
    # x^q = x, so fold each high coefficient onto degree k - q + 1
    for k in range(len(cs) - 1, q - 1, -1):
        c = cs[k]
        if not c.is_zero():
            cs[k - q + 1] = cs[k - q + 1] + c
        cs.pop()
    return FieldPolynomial.make(ring, cs)


def basic_power_matrix(ring: GaloisRing) -> tuple[Matrix, Matrix]:
    """Entry (x, y) is x to the generating exponent of y, with its inverse."""
    c = _basic_indices(ring)
    return _matrix(ring, c), _matrix(ring, _gauss_jordan(ring.kernel, c))


def expand_in_basic(f: FieldPolynomial) -> tuple[RingElement, ...]:
    """Coefficients of a reduced polynomial in the generator-power basis.

    c_y = sum_k sum_z Cinv[y][z] A[z][k] f_k, so that f agrees pointwise
    with sum_y c_y m_{s(y)}.
    """
    ring = f.ring
    if f.degree() >= ring.q:
        raise DegreeTooHigh(f"degree {f.degree()} polynomial needs reducing first")
    k = _kernel(ring)
    coeffs = _indices(ring, f.coeffs)
    # values of f at every element, as A . coeffs
    values = _mat_vec(k, _power_indices(ring)[:, :len(coeffs)], coeffs)
    cinv = _gauss_jordan(k, _basic_indices(ring))
    return tuple(ring.elements[i] for i in _mat_vec(k, cinv, values).tolist())
