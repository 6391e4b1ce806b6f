"""Scalar reference implementations of the table paths, for differential tests.

These are the per-configuration loops over ring elements that the
package's numpy paths replace: each walks configurations one at a time
with `RingElement` arithmetic and `config_index`.  The per-element data
the package reads from its ring kernel (index and period, the
multiplicative order, the primitive element with its Teichmueller check,
generalized powers, the trace) is recomputed here from scalar
multiplication alone, so that nothing below is checked against the
kernel itself.  The dense stabilizer pushforward is the matrix identity
the package reduces to a table comparison, checked label by label on
the package's dense matrices, which are themselves compared with the
loops here.  The
exponent pushforward walks every vertex of the edge, where the package
adds only the stored nonzero values.  The
field-polynomial matrices at the end are the same kind of loop over
matrix entries, and congruence and isotropy at the very end try every
vertex permutation through the functorial action.  They are slow and
kept only as the oracle the fast paths are compared with.
"""

import itertools

import numpy as np

import hyperqudit.hyperstate as hyperstate
from hyperqudit import (
    COMPUTATIONAL,
    HADAMARD,
    ExpFunc,
    FieldPolynomial,
    FlatState,
    OrdinalMorphism,
    all_configurations,
    apply_morphism,
    config_index,
    ef_transpose,
    exp_add,
    special_exponents,
)
from hyperqudit.errors import Singular
from hyperqudit.states import config_add, config_sub


# -- per-element data by scalar arithmetic ------------------------------------------------

def index_period(x):
    """(iota, pi) by enumerating x^0, x^1, ... until a power repeats."""
    seen = {}
    y = x.ring.one
    while y.coeffs not in seen:
        seen[y.coeffs] = len(seen)
        y = y * x
    iota = seen[y.coeffs]
    return iota, len(seen) - iota


def multiplicative_order(x):
    """Order of x in the unit group by repeated multiplication, or None for a non-unit."""
    if not x.ring.is_unit(x):
        return None
    n, y = 1, x
    while y != x.ring.one:
        y = y * x
        n += 1
    return n


def _teichmuller_set(ring, theta):
    """0, 1, theta, ..., theta^(p^d - 2)."""
    out = [ring.zero, ring.one]
    y = theta
    for _ in range(ring.p ** ring.d - 2):
        out.append(y)
        y = y * theta
    return out


def _teichmuller_ok(ring, theta):
    """{0} U {theta^i} must reduce bijectively onto the residue field."""
    seen = {tuple(c % ring.p for c in t.coeffs) for t in _teichmuller_set(ring, theta)}
    return len(seen) == ring.p ** ring.d


def primitive_theta(ring):
    """The first nonzero element of order p^d - 1 whose powers reduce onto the residue field."""
    target = ring.p ** ring.d - 1
    for e in ring.elements[1:]:
        if multiplicative_order(e) == target and _teichmuller_ok(ring, e):
            return e
    return None


def power(x, u):
    """x^u: x raised to u's component at x, by repeated multiplication."""
    return x ** u.component(x.ring.index(x))


def trace(x):
    """Matrix trace of multiplication by x in the basis 1, theta, ..., theta^(d-1)."""
    ring = x.ring
    total = 0
    for j in range(ring.d):
        basis = ring.element([int(i == j) for i in range(ring.d)])
        total += (x * basis).coeffs[j]
    return total % ring.char


def trace_pairing(x, y):
    """<x, y> = sum_r tr(x_r y_r); zero for empty configurations."""
    if not x:
        return 0
    return sum(trace(a * b) for a, b in zip(x, y)) % x[0].ring.char


def phase_function(hg, x):
    """sigma(x): sum over stored entries of value * tr(prod of generalized powers)."""
    ring = hg.ring
    total = 0
    for edge, w, val in hg.stored_entries():
        prod = ring.one
        for r in edge:
            prod = prod * power(x[r], w.value(r, ring))
        total += val * trace(prod)
    return total % ring.char


# -- configuration loops ------------------------------------------------------------------

def phase_table(hg):
    return [phase_function(hg, x) for x in all_configurations(hg.ring, hg.l)]


def _pairing_table(psi, a):
    return [trace_pairing(a, x) for x in all_configurations(psi.ring, psi.l)]


def _translate_table(psi, a):
    """Table t with t[x] = old phase at x + a."""
    ring = psi.ring
    return [psi.phases[config_index(ring, config_add(x, a))]
            for x in all_configurations(ring, psi.l)]


def _with(psi, phases):
    return FlatState(psi.ring, psi.l, psi.basis, psi.norm_exp,
                     tuple(int(v) % psi.ring.char for v in phases))


def apply_pauli_z(a, psi):
    if psi.basis == COMPUTATIONAL:
        return _with(psi, [v + t for v, t in zip(psi.phases, _pairing_table(psi, a))])
    return _with(psi, _translate_table(psi, tuple(-e for e in a)))


def apply_pauli_x(a, psi):
    if psi.basis == HADAMARD:
        return _with(psi, [v + t for v, t in zip(psi.phases, _pairing_table(psi, a))])
    return _with(psi, _translate_table(psi, a))


def apply_d(hg, psi):
    return _with(psi, [v + s for v, s in zip(psi.phases, phase_table(hg))])


def stabilizer_apply(hg, a, psi):
    ring = hg.ring
    sigma = phase_table(hg)
    out = []
    for x in all_configurations(ring, hg.l):
        ix = config_index(ring, x)
        ixa = config_index(ring, config_add(x, a))
        out.append(psi.phases[ixa] + sigma[ix] - sigma[ixa])
    return _with(psi, out)


def apply_he_morphism(f, psi):
    ring = psi.ring
    phases = [psi.phase_at(ef_transpose(f, y)) for y in all_configurations(ring, f.target_size)]
    return FlatState(ring, f.target_size, COMPUTATIONAL,
                     psi.norm_exp + (psi.l - f.target_size), tuple(phases))


def tensor(psi, phi):
    m = psi.ring.char
    phases = tuple((v + w) % m for v in psi.phases for w in phi.phases)
    return FlatState(psi.ring, psi.l + phi.l, psi.basis, psi.norm_exp + phi.norm_exp, phases)


def phase_difference_counts(psi, phi):
    counts = [0] * psi.ring.char
    for a, b in zip(psi.phases, phi.phases):
        counts[(b - a) % psi.ring.char] += 1
    return counts


def cyclotomic_residue(counts, p, r):
    """Remainder of sum_j counts[j] X^j modulo Phi_{p^r}, by long division."""
    step = p ** (r - 1)
    deg = (p - 1) * step
    work = list(counts) + [0] * max(0, deg + 1 - len(counts))
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for i in range(p):
                work[k - deg + i * step] -= c
    return tuple(work[:deg])


def equal_up_to_phase(psi, phi):
    if (psi.ring, psi.l, psi.basis, psi.norm_exp) != (phi.ring, phi.l, phi.basis, phi.norm_exp):
        return None
    m = psi.ring.char
    c = (phi.phases[0] - psi.phases[0]) % m
    for a, b in zip(psi.phases, phi.phases):
        if (b - a) % m != c:
            return None
    return c


def lme_orthonormal(hg):
    from hyperqudit import build_state

    ring = hg.ring
    psi = build_state(hg)
    translates = [apply_pauli_z(a, psi) for a in all_configurations(ring, hg.l)]
    for i, s in enumerate(translates):
        counts = phase_difference_counts(s, s)
        if s.norm_exp != -hg.l or counts[0] != ring.q ** hg.l or any(counts[1:]):
            return False
        for t in translates[i + 1:]:
            if any(cyclotomic_residue(phase_difference_counts(s, t), ring.p, ring.r)):
                return False
    return True


def _omega(ring):
    return np.exp(2j * np.pi / ring.char)


def hadamard_to_dense(psi):
    """Dense computational amplitudes of a Hadamard-basis flat state."""
    ring = psi.ring
    w = _omega(ring)
    configs = list(all_configurations(ring, psi.l))
    amps = np.zeros(len(configs), dtype=complex)
    scale = float(ring.q) ** (psi.norm_exp / 2.0) * float(ring.q) ** (-psi.l / 2.0)
    for j, x in enumerate(configs):
        coef = scale * w ** psi.phases[j]
        for i, y in enumerate(configs):
            amps[i] += coef * w ** trace_pairing(y, x)
    return amps


def fourier_matrix(ring, l):
    w = _omega(ring)
    configs = list(all_configurations(ring, l))
    mat = np.empty((len(configs), len(configs)), dtype=complex)
    for i, x in enumerate(configs):
        for j, y in enumerate(configs):
            mat[i, j] = w ** trace_pairing(x, y)
    return mat * float(ring.q) ** (-l / 2.0)


def dense_stabilizer_matrix(hg, a):
    ring = hg.ring
    dim = ring.q ** hg.l
    w = _omega(ring)
    sigma = phase_table(hg)
    mat = np.zeros((dim, dim), dtype=complex)
    for y in all_configurations(ring, hg.l):
        iy = config_index(ring, y)
        target = config_index(ring, config_sub(y, a))
        mat[target, iy] = w ** ((sigma[target] - sigma[iy]) % ring.char)
    return mat


def dense_he_matrix(f, ring):
    scale = float(ring.q) ** ((f.source_size - f.target_size) / 2.0)
    mat = np.zeros((ring.q ** f.target_size, ring.q ** f.source_size), dtype=complex)
    for y in all_configurations(ring, f.target_size):
        mat[config_index(ring, y), config_index(ring, ef_transpose(f, y))] = scale
    return mat


def stabilizer_pushforward(hg, f, tol=1e-9):
    """The stabilizer pushforward identity on dense matrices, one source label a at a time:
    H_f S(a) H_f^dagger = q^(l-m) * (sum of the image's S(b) over b with ef_transpose(f, b) = a).

    The matrices come from the package's dense builders, which the loops
    above check; they read the hypergraph's phase table as cached, so a
    corrupted cache is seen here as it is by the exact check.
    """
    ring = hg.ring
    l, m = f.source_size, f.target_size
    image = apply_morphism(f, hg)
    hf = hyperstate.dense_he_matrix(f, ring)
    scale = float(ring.q) ** (l - m)
    preimages = {a: [] for a in all_configurations(ring, l)}
    for b in all_configurations(ring, m):
        preimages[ef_transpose(f, b)].append(b)
    for a, image_labels in preimages.items():
        lhs = hf @ hyperstate.dense_stabilizer_matrix(hg, a) @ hf.conj().T
        rhs = np.zeros((ring.q ** m, ring.q ** m), dtype=complex)
        for b in image_labels:
            rhs += hyperstate.dense_stabilizer_matrix(image, b)
        if not np.allclose(lhs, scale * rhs, atol=tol):
            return False
    return True


# -- exponent pushforward ----------------------------------------------------------------

def exp_pushforward(f, edge, w, ring):
    """Push w forward along f by walking every vertex of the edge, zero values included."""
    acc = {}
    for r in edge:
        s = f(r)
        u = w.value(r, ring)
        acc[s] = exp_add(acc[s], u) if s in acc else u
    return ExpFunc.make(acc)


# -- field-polynomial matrices ----------------------------------------------------------

def power_matrix(ring):
    rows = []
    for x in ring.elements:
        row = []
        acc = ring.one
        for _ in range(ring.q):
            row.append(acc)
            acc = acc * x
        rows.append(tuple(row))
    return tuple(rows)


def power_matrix_inverse(ring):
    """The closed block formula in the order (0, 1, xi, ...), columns permuted back."""
    xi = primitive_theta(ring)
    q = ring.q
    minus_one = -ring.one
    order = [ring.zero, ring.one]
    acc = xi
    for _ in range(q - 2):
        order.append(acc)
        acc = acc * xi
    pos = {e.coeffs: i for i, e in enumerate(order)}
    block = [[ring.zero] * q for _ in range(q)]
    block[0][0] = ring.one
    for k in range(q - 1):
        block[k + 1][0] = minus_one if k == q - 2 else ring.zero
        for m in range(q - 1):
            block[k + 1][m + 1] = minus_one * xi ** ((q - 2 - k) * m)
    return tuple(tuple(block[k][pos[x.coeffs]] for x in ring.elements) for k in range(q))


def _field_inverse(x):
    return x ** (multiplicative_order(x) - 1)


def gaussian_inverse(ring, mat):
    n = len(mat)
    work = [list(row) + [ring.one if i == j else ring.zero for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if not work[i][col].is_zero()), None)
        if pivot is None:
            raise Singular("matrix is singular over the field")
        work[col], work[pivot] = work[pivot], work[col]
        inv = _field_inverse(work[col][col])
        work[col] = [inv * v for v in work[col]]
        for i in range(n):
            if i != col and not work[i][col].is_zero():
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def m_polynomial(ring, u, ainv=None):
    """Coefficients A^-1 . (x^u)_x; pass `ainv` to skip rebuilding the inverse."""
    ainv = power_matrix_inverse(ring) if ainv is None else ainv
    coeffs = []
    for k in range(ring.q):
        acc = ring.zero
        for j, x in enumerate(ring.elements):
            acc = acc + ainv[k][j] * power(x, u)
        coeffs.append(acc)
    return FieldPolynomial.make(ring, coeffs)


def basic_power_matrix(ring):
    special = special_exponents(ring)
    c = tuple(tuple(power(x, special.s[j]) for j in range(ring.q)) for x in ring.elements)
    return c, gaussian_inverse(ring, c)


def expand_in_basic(f, a=None, cinv=None):
    """Cinv . A . coeffs; pass `a` and `cinv` to skip rebuilding them."""
    ring = f.ring
    a = power_matrix(ring) if a is None else a
    cinv = basic_power_matrix(ring)[1] if cinv is None else cinv
    values = []
    for z in range(ring.q):
        acc = ring.zero
        for k, coeff in enumerate(f.coeffs):
            acc = acc + a[z][k] * coeff
        values.append(acc)
    out = []
    for y in range(ring.q):
        acc = ring.zero
        for z in range(ring.q):
            acc = acc + cinv[y][z] * values[z]
        out.append(acc)
    return tuple(out)


# -- congruence by brute force over the symmetric group ------------------------------------

def _permutations(l):
    for values in itertools.permutations(range(l)):
        yield OrdinalMorphism(l, l, values)


def congruent(a, b):
    """The lexicographically least permutation f with f(a) == b, or None."""
    if a.l != b.l or a.ring is not b.ring:
        return None
    for f in _permutations(a.l):
        if apply_morphism(f, a) == b:
            return f
    return None


def isotropy_group(hg):
    """Every permutation f with f(hg) == hg, in lexicographic order."""
    return [f for f in _permutations(hg.l) if apply_morphism(f, hg) == hg]
