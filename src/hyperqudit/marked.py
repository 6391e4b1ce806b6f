"""Controlled-phase gates and marked hypergraph states over prime fields.

A marked hyperedge applies the phase of its target qudit whenever every
control qudit sits in a fixed reference state; the product of these
gates over a marked hypergraph builds the marked hypergraph state.  The
Kronecker-delta control factor equals an explicit interpolation
polynomial, and expanding that polynomial in the generator-power basis
turns every marked hypergraph state into a calibrated one, exactly.

Everything here requires r = d = 1: the reference-element machinery is
specific to prime fields.
"""

from __future__ import annotations

import itertools

from .cyclicity import special_exponents
from .errors import BadMark, NotPrimeField
from .fieldpoly import FieldPolynomial, basic_power_matrix, power_matrix_inverse
from .galois import GaloisRing, RingElement
from .hypergraph import CalibratedHypergraph, Edge, ExpFunc, MarkedHypergraph
from .states import COMPUTATIONAL, Configuration, FlatState, all_configurations

__all__ = [
    "default_reference",
    "cz_phase",
    "p_polynomial",
    "marked_state",
    "marked_to_calibrated",
]


def _require_prime_field(ring: GaloisRing) -> None:
    if ring.r != 1 or ring.d != 1:
        raise NotPrimeField(f"{ring} is not a prime field")


def default_reference(ring: GaloisRing) -> RingElement:
    """The standard control reference p - 1."""
    _require_prime_field(ring)
    return ring.from_int(ring.p - 1)


def cz_phase(edge: Edge, target: int, x_star: RingElement, x: Configuration) -> int:
    """Phase of one controlled-phase gate: the target entry if every control
    equals the reference, else zero."""
    ring = x_star.ring
    _require_prime_field(ring)
    if len(edge) < 2:
        raise BadMark(f"marked edge {edge} needs at least two vertices")
    if target not in edge:
        raise BadMark(f"target {target} is not a vertex of {edge}")
    for r in edge:
        if r != target and x[r] != x_star:
            return 0
    return x[target].coeffs[0]


def p_polynomial(ring: GaloisRing, x_star: RingElement) -> FieldPolynomial:
    """The indicator polynomial of the reference element: one column of the
    inverse power matrix read as coefficients."""
    _require_prime_field(ring)
    ainv = power_matrix_inverse(ring)
    col = ring.index(x_star)
    return FieldPolynomial.make(ring, [ainv[k][col] for k in range(ring.q)])


def _resolve_reference(ring: GaloisRing, x_star: RingElement | None) -> RingElement:
    if x_star is None:
        return default_reference(ring)
    _require_prime_field(ring)
    return x_star


def marked_state(mhg: MarkedHypergraph, x_star: RingElement | None = None) -> FlatState:
    """The state built by the controlled-phase gates of all marked edges."""
    ring = mhg.ring
    x_star = _resolve_reference(ring, x_star)
    phases = []
    for x in all_configurations(ring, mhg.l):
        total = 0
        for edge, target in mhg.marks:
            total += cz_phase(edge, target, x_star, x)
        phases.append(total % ring.char)
    return FlatState(ring, mhg.l, COMPUTATIONAL, -mhg.l, phases)


def marked_to_calibrated(mhg: MarkedHypergraph,
                         x_star: RingElement | None = None) -> CalibratedHypergraph:
    """The calibration whose state equals the marked state exactly.

    Each control vertex contributes a generator exponent s(y) weighted by
    the inverse basic-power-matrix entry of (y, reference); the target
    carries the exponent acting as the identity power.
    """
    ring = mhg.ring
    x_star = _resolve_reference(ring, x_star)
    special = special_exponents(ring)
    _, cinv = basic_power_matrix(ring)
    star_col = ring.index(x_star)

    entries = []
    for edge, target in mhg.marks:
        controls = [r for r in edge if r != target]
        for pick in itertools.product(range(ring.q), repeat=len(controls)):
            value = ring.one
            for y_idx in pick:
                value = value * cinv[y_idx][star_col]
            if value.is_zero():
                continue
            assignment = {target: special.s_star}
            for r, y_idx in zip(controls, pick):
                assignment[r] = special.s[y_idx]
            entries.append((edge, ExpFunc.make(assignment), value.coeffs[0]))
    return CalibratedHypergraph(ring, mhg.l, edges=mhg.edges, entries=entries)
