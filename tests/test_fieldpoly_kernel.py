"""The field-polynomial matrices on the ring kernel, against the scalar reference.

Every catalog field is covered, plus F25 and F27 built from descriptors.
Each ported function is compared entry by entry with the `RingElement`
loops kept in `tests/oracle.py`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hyperqudit import (
    FieldPolynomial,
    basic_power_matrix,
    expand_in_basic,
    m_polynomial,
    make_ring,
    named_ring,
    power_matrix,
    power_matrix_inverse,
    special_exponents,
)
from hyperqudit.errors import RingMismatch, Singular
from hyperqudit.fieldpoly import gaussian_inverse
from tests import oracle
from tests.test_kernel import exponents

CATALOG_FIELDS = ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F16"]
DESCRIPTOR_FIELDS = {"F25": (5, 2, (2, 1, 1)), "F27": (3, 3, (1, 2, 0, 1))}
FIELDS = CATALOG_FIELDS + sorted(DESCRIPTOR_FIELDS)

_rings = {}
_oracle_matrices = {}


def field(name):
    if name not in _rings:
        if name in DESCRIPTOR_FIELDS:
            p, d, modulus = DESCRIPTOR_FIELDS[name]
            _rings[name] = make_ring(p, 1, d, modulus)
        else:
            _rings[name] = named_ring(name)
    return _rings[name]


def oracle_matrices(name):
    """A, A^-1, C and C^-1 from the scalar loops, built once per field."""
    if name not in _oracle_matrices:
        ring = field(name)
        c, cinv = oracle.basic_power_matrix(ring)
        _oracle_matrices[name] = (oracle.power_matrix(ring), oracle.power_matrix_inverse(ring),
                                  c, cinv)
    return _oracle_matrices[name]


@pytest.mark.parametrize("name", FIELDS)
def test_matrices_match_oracle(name):
    ring = field(name)
    a, ainv, c, cinv = oracle_matrices(name)
    assert power_matrix(ring) == a
    assert power_matrix_inverse(ring) == ainv
    assert basic_power_matrix(ring) == (c, cinv)
    assert gaussian_inverse(ring, a) == ainv


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_m_polynomial_matches_oracle(data):
    name = data.draw(st.sampled_from(FIELDS))
    ring = field(name)
    u = data.draw(exponents(ring, data.draw(st.booleans())))
    assert m_polynomial(ring, u) == oracle.m_polynomial(ring, u, oracle_matrices(name)[1])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expand_in_basic_matches_oracle(data):
    name = data.draw(st.sampled_from(FIELDS))
    ring = field(name)
    picks = data.draw(st.lists(st.integers(0, ring.q - 1), max_size=ring.q))
    f = FieldPolynomial.make(ring, [ring.elements[i] for i in picks])
    a, _, _, cinv = oracle_matrices(name)
    assert expand_in_basic(f) == oracle.expand_in_basic(f, a, cinv)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gaussian_inverse_matches_oracle(data):
    ring = field(data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.integers(1, 6))
    picks = data.draw(st.lists(st.integers(0, ring.q - 1), min_size=n * n, max_size=n * n))
    mat = tuple(tuple(ring.elements[i] for i in picks[r * n:(r + 1) * n]) for r in range(n))
    try:
        expected = oracle.gaussian_inverse(ring, mat)
    except Singular:
        with pytest.raises(Singular):
            gaussian_inverse(ring, mat)
        return
    assert gaussian_inverse(ring, mat) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gaussian_inverse_of_invertible_products(data):
    """L U with L unit lower and U upper triangular, diagonal nonzero: always invertible."""
    ring = field(data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.integers(1, 6))
    el = ring.elements

    def entry(i, j, lower):
        if i == j:
            return ring.one if lower else el[data.draw(st.integers(1, ring.q - 1))]
        if (i > j) == lower:
            return el[data.draw(st.integers(0, ring.q - 1))]
        return ring.zero

    low = [[entry(i, j, True) for j in range(n)] for i in range(n)]
    up = [[entry(i, j, False) for j in range(n)] for i in range(n)]
    mat = tuple(tuple(_dot(ring, low[i], [up[k][j] for k in range(n)]) for j in range(n))
                for i in range(n))
    inv = gaussian_inverse(ring, mat)
    assert inv == oracle.gaussian_inverse(ring, mat)
    for i in range(n):
        for j in range(n):
            assert _dot(ring, mat[i], [inv[k][j] for k in range(n)]) == (
                ring.one if i == j else ring.zero)


def _dot(ring, xs, ys):
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


class TestErrors:
    def test_singular_matrices(self, f5):
        e = f5.elements
        with pytest.raises(Singular):
            gaussian_inverse(f5, ((e[2], e[3]), (e[2], e[3])))  # equal rows
        with pytest.raises(Singular):
            gaussian_inverse(f5, ((e[0], e[0]), (e[1], e[4])))  # zero row
        with pytest.raises(Singular):
            gaussian_inverse(f5, ((e[1], e[2]),))  # not square

    def test_foreign_element(self, f3, f5):
        with pytest.raises(RingMismatch):
            gaussian_inverse(f5, ((f5.one, f5.zero), (f5.zero, f3.one)))

    def test_foreign_exponent(self, f3, f5):
        with pytest.raises(RingMismatch):
            m_polynomial(f5, special_exponents(f3).s[2])

    def test_foreign_coefficient(self, f3, f5):
        f = FieldPolynomial(f5, (f5.one, f3.one))
        with pytest.raises(RingMismatch):
            expand_in_basic(f)

