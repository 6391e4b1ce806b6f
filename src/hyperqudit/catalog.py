"""Named rings and the worked hypergraph constructions shipped with the library.

The ring catalog fixes one modulus per named ring so that matrices,
exponent tuples and traces printed anywhere in this package are
reproducible coefficient for coefficient.  Degree-2 extensions use
1 + x + x^2; GR(4,3) uses 3 + x + 2x^2 + x^3; the remaining extension
moduli (F_8, F_9, F_16) are the standard primitive choices, a
convention of this package since nothing forces them.

The worked constructions are the four two-qubit Bell hypergraphs and
the five three-qutrit hypergraphs (in calibrated and marked form) used
throughout the test and demo suites.
"""

from __future__ import annotations

from .cyclicity import CycExponent
from .errors import UnknownRing
from .galois import GaloisRing, make_ring
from .hypergraph import CalibratedHypergraph, ExpFunc, MarkedHypergraph

__all__ = [
    "RING_CATALOG",
    "named_ring",
    "bell_hypergraph",
    "qutrit_hypergraph",
    "qutrit_marked",
    "QUTRIT_LABELS",
]

RING_CATALOG: dict[str, tuple[int, int, int, tuple[int, ...]]] = {
    # name: (p, r, d, modulus), the arguments of make_ring
    "F2": (2, 1, 1, (0, 1)),
    "F3": (3, 1, 1, (0, 1)),
    "F4": (2, 1, 2, (1, 1, 1)),
    "F5": (5, 1, 1, (0, 1)),
    "F7": (7, 1, 1, (0, 1)),
    "F8": (2, 1, 3, (1, 1, 0, 1)),
    "F9": (3, 1, 2, (2, 1, 1)),
    "F16": (2, 1, 4, (1, 1, 0, 0, 1)),
    "Z4": (2, 2, 1, (0, 1)),
    "Z8": (2, 3, 1, (0, 1)),
    "Z9": (3, 2, 1, (0, 1)),
    "GR(4,2)": (2, 2, 2, (1, 1, 1)),
    "GR(4,3)": (2, 2, 3, (3, 1, 2, 1)),
}

_cache: dict[str, GaloisRing] = {}


def named_ring(name: str) -> GaloisRing:
    key = name.strip()
    if key not in RING_CATALOG:
        raise UnknownRing(f"unknown ring {name!r}; catalog: {sorted(RING_CATALOG)}")
    if key not in _cache:
        _cache[key] = make_ring(*RING_CATALOG[key])
    return _cache[key]


# -- Bell family -------------------------------------------------------------------

def bell_hypergraph(a0: int, a1: int) -> CalibratedHypergraph:
    """The two-qubit hypergraph with one edge {0,1} whose state is a Bell state.

    The calibration puts a0 and a1 on the single-vertex exponent keys
    and 1 on the key raising both vertices to the first power.
    """
    ring = named_ring("F2")
    first = CycExponent.from_dense(ring, (1, 0))  # acts as the first power
    key_both = ExpFunc.make({0: first, 1: first})
    key_v0 = ExpFunc.make({0: first})
    key_v1 = ExpFunc.make({1: first})
    calib = {(0, 1): {key_v0: a0, key_v1: a1, key_both: 1}}
    return CalibratedHypergraph(ring, 2, calib, edges=[(0, 1)])


# -- three-qutrit family -------------------------------------------------------------

QUTRIT_LABELS = ("a", "b", "c", "d", "e")

_QUTRIT_EDGES = {
    "a": ((0, 1, 2),),
    "b": ((0, 1), (1, 2)),
    "c": ((0, 1), (1, 2), (0, 2)),
    "d": ((0, 1), (1, 2), (0, 1, 2)),
    "e": ((0, 1), (1, 2), (0, 2), (0, 1, 2)),
}


def _qutrit_calibration(ring, edge):
    """The basic calibration of one edge of the three-qutrit family.

    Pairs use the squarish exponent (0,0,1) on the first vertex and the
    identity-power exponent (1,0,1) on the second (values 1 and 2 with
    the first-vertex exponent dropped), except that the edge {0,2}
    carries them the other way around; the triple uses both squarish
    exponents against the identity power on vertex 2.
    """
    sq = CycExponent.from_dense(ring, (0, 0, 1))
    ident = CycExponent.from_dense(ring, (1, 0, 1))
    if len(edge) == 3:
        v0, v1, v2 = edge
        return {
            ExpFunc.make({v0: sq, v1: sq, v2: ident}): 1,
            ExpFunc.make({v1: sq, v2: ident}): 2,
            ExpFunc.make({v0: sq, v2: ident}): 2,
            ExpFunc.make({v2: ident}): 1,
        }
    if edge == (0, 2):
        # this edge points the other way: identity power on 0, squarish on 2
        return {
            ExpFunc.make({0: ident, 2: sq}): 1,
            ExpFunc.make({0: ident}): 2,
        }
    lead, tail = edge
    return {
        ExpFunc.make({lead: sq, tail: ident}): 1,
        ExpFunc.make({tail: ident}): 2,
    }


def qutrit_hypergraph(label: str) -> CalibratedHypergraph:
    """One of the five three-qutrit calibrated hypergraphs, by label a..e."""
    ring = named_ring("F3")
    edges = _QUTRIT_EDGES[label]
    calib = {e: _qutrit_calibration(ring, e) for e in edges}
    return CalibratedHypergraph(ring, 3, calib, edges=edges)


_QUTRIT_MARKS = {(0, 1): 1, (1, 2): 2, (0, 2): 0, (0, 1, 2): 2}


def qutrit_marked(label: str) -> MarkedHypergraph:
    """The marked form of the same family: targets 1, 2, 0 and 2 per edge kind."""
    ring = named_ring("F3")
    edges = _QUTRIT_EDGES[label]
    return MarkedHypergraph.make(ring, 3, {e: _QUTRIT_MARKS[e] for e in edges})
