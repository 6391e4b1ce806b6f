"""Canonical forms of calibrated hypergraphs and conversions between families.

Effectivization regroups every stored calibration entry onto the edge
given by its support, extracting the support-free part as a constant
phase; the result carries no zero calibrations and no off-support keys
and encodes the same state up to a global phase.  The primitive core
strips unused vertices along the unique increasing injection onto the
support.  Congruence (equality up to a vertex permutation) and isotropy
groups come from one backtracking search over vertex permutations in
lexicographic order: each vertex may only go to a vertex of the same
permutation-invariant colour, and every edge is checked as soon as all of
its vertices are placed, so the search never builds an image hypergraph.
Both are capped at l <= 6, since an isotropy group can hold l! elements.

The conversions realize scalar weightings, polynomial phase data and,
over F_2, the converse reduction of calibrations to weightings.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .cyclicity import CycExponent, reduce_exponents, special_exponents
from .errors import (
    ExponentOutOfRange,
    NotBinaryField,
    NotEffective,
    TooLarge,
)
from .galois import GaloisRing
from .hypergraph import (
    CalibratedHypergraph,
    Edge,
    ExpFunc,
    OrdinalMorphism,
    WeightedHypergraph,
)

__all__ = [
    "is_effective",
    "effectivize",
    "support_index",
    "primitive_core",
    "congruent",
    "isotropy_group",
    "weighted_to_calibrated",
    "poly_to_calibrated",
    "qubit_to_weighted",
]

_CONGRUENCE_MAX_L = 6


def is_effective(hg: CalibratedHypergraph) -> bool:
    """No vanishing edge calibrations and every stored key supported on its whole edge."""
    for edge in hg.edges:
        entries = hg.calib[edge]
        if not entries:
            return False
        for w in entries:
            if w.support() != edge:
                return False
    return True


def effectivize(hg: CalibratedHypergraph) -> tuple[CalibratedHypergraph, int]:
    """Regroup calibration entries by key support; return the effective hypergraph and
    the constant phase split off by the empty-support keys.

    The phase function of the input equals the constant plus that of the
    output, so the states agree up to the global phase of the constant.
    """
    ring = hg.ring
    constant = 0
    grouped = []
    for _, w, val in hg.stored_entries():
        supp = w.support()
        if supp:
            grouped.append((supp, w, val))
        else:
            constant = (constant + val * ring.trace(ring.one)) % ring.char
    return CalibratedHypergraph(ring, hg.l, entries=grouped), constant


def support_index(hg: CalibratedHypergraph) -> tuple[tuple[int, ...], int]:
    """The union of the hyperedges and its cardinality."""
    verts: set[int] = set()
    for e in hg.edges:
        verts.update(e)
    support = tuple(sorted(verts))
    return support, len(support)


def primitive_core(hg: CalibratedHypergraph) -> tuple[OrdinalMorphism, CalibratedHypergraph]:
    """The unique increasing injective chart onto the support and the core over it.

    Applying the chart to the core reproduces the input exactly.
    """
    if not is_effective(hg):
        raise NotEffective("primitive core requires an effective hypergraph")
    support, iota = support_index(hg)
    chart = OrdinalMorphism(iota, hg.l, support)
    back = {v: i for i, v in enumerate(support)}
    calib: dict[Edge, dict[ExpFunc, int]] = {}
    for edge, entries in hg.calib.items():
        core_edge = tuple(sorted(back[v] for v in edge))
        calib[core_edge] = {w.relabel(back): val for w, val in entries.items()}
    core = CalibratedHypergraph(hg.ring, iota, calib, edges=calib.keys())
    return chart, core


def _encode(hg: CalibratedHypergraph) -> dict[Edge, frozenset]:
    """Edge -> frozenset of (key items, value), a key's items being (vertex, exponent items)."""
    return {e: frozenset((tuple((v, u.items) for v, u in w.items), val)
                         for w, val in entries.items())
            for e, entries in hg.calib.items()}


def _colours(l: int, code: dict[Edge, frozenset]) -> list[tuple]:
    """Per vertex, the sorted (edge size, entries seen from the vertex) over its edges.

    An entry seen from v is (value, exponent at v, sorted exponents at the
    other vertices); no vertex label enters, so a permutation carrying one
    hypergraph to another carries each vertex to one of equal colour.
    """
    seen: list[list] = [[] for _ in range(l)]
    for e, entries in code.items():
        for v in e:
            view = sorted(
                (val, dict(key).get(v, ()), tuple(sorted(u for r, u in key if r != v)))
                for key, val in entries)
            seen[v].append((len(e), tuple(view)))
    return [tuple(sorted(s)) for s in seen]


def _carriers(a: CalibratedHypergraph, b: CalibratedHypergraph):
    """Yield the value tuples of the vertex permutations carrying a to b, in lexicographic order.

    f(0), f(1), ... are assigned in turn, each to an unused vertex of b of
    the same colour in increasing order; after f(i) is set, every edge of a
    whose largest vertex is i must map onto an edge of b with the relabelled
    calibration.  Only branches holding no solution are cut, so the order is
    that of the full enumeration.
    """
    code_a, code_b = _encode(a), _encode(b)
    if len(code_a) != len(code_b):
        return
    l = a.l
    colour_a, colour_b = _colours(l, code_a), _colours(l, code_b)
    if sorted(colour_a) != sorted(colour_b):
        return
    candidates = [[t for t in range(l) if colour_b[t] == c] for c in colour_a]
    closing: list[list] = [[] for _ in range(l)]  # edges of a by their largest vertex
    for e, entries in code_a.items():
        closing[e[-1]].append((e, entries))
    f = [0] * l
    used = [False] * l

    def carried(e: Edge, entries: frozenset) -> bool:
        image = code_b.get(tuple(sorted(f[v] for v in e)))
        return image is not None and image == frozenset(
            (tuple(sorted((f[v], u) for v, u in key)), val) for key, val in entries)

    def extend(i: int):
        if i == l:
            yield tuple(f)
            return
        for t in candidates[i]:
            if used[t]:
                continue
            f[i] = t
            if all(carried(e, entries) for e, entries in closing[i]):
                used[t] = True
                yield from extend(i + 1)
                used[t] = False

    yield from extend(0)


def congruent(a: CalibratedHypergraph, b: CalibratedHypergraph) -> OrdinalMorphism | None:
    """The lexicographically least vertex permutation carrying a to b, if any."""
    if a.l != b.l or a.ring is not b.ring:
        return None
    if a.l > _CONGRUENCE_MAX_L:
        raise TooLarge(f"congruence search capped at l <= {_CONGRUENCE_MAX_L}")
    values = next(_carriers(a, b), None)
    return None if values is None else OrdinalMorphism(a.l, a.l, values)


def isotropy_group(hg: CalibratedHypergraph) -> list[OrdinalMorphism]:
    """All vertex permutations fixing the calibrated hypergraph, in lexicographic order."""
    if hg.l > _CONGRUENCE_MAX_L:
        raise TooLarge(f"isotropy search capped at l <= {_CONGRUENCE_MAX_L}")
    return [OrdinalMorphism(hg.l, hg.l, values) for values in _carriers(hg, hg)]


# -- conversions -----------------------------------------------------------------

def weighted_to_calibrated(whg: WeightedHypergraph) -> CalibratedHypergraph:
    """The calibration with one key per edge sending every vertex to the
    exponent acting as the identity power, valued at the edge weight."""
    ring = whg.ring
    special = special_exponents(ring)
    calib: dict[Edge, dict[ExpFunc, int]] = {}
    plain: list[Edge] = []
    for edge, alpha in whg.weights:
        plain.append(edge)
        if alpha:
            key = ExpFunc.make({r: special.q_elem for r in edge})
            calib[edge] = {key: alpha}
    return CalibratedHypergraph(ring, whg.l, calib, edges=plain)


def _exponent_of_power(ring: GaloisRing, k: int) -> CycExponent:
    """The generalized exponent acting as the k-th power on every element."""
    kernel = ring.kernel
    comps = reduce_exponents(kernel.iota, kernel.period, np.asarray(k))
    return CycExponent.make(ring, dict(enumerate(comps.tolist())))


def poly_to_calibrated(ring: GaloisRing, l: int,
                       tau: Mapping[Edge, Mapping[tuple, int]]) -> CalibratedHypergraph:
    """Realize polynomial phase data as a calibration.

    tau maps each edge to a sparse map from integer-exponent assignments
    (vertex -> natural exponent, given as sorted (vertex, exponent)
    pairs or a dict) to prime-subring values.  Assignments are folded
    onto generalized exponents through per-element power reduction, so
    the phase functions agree pointwise; exponents at or above delta
    fold the same way as their reduced representatives.
    """
    calibration = []
    for edge, entries in tau.items():
        edge = tuple(sorted(edge))
        for assignment, val in entries.items():
            pairs = dict(assignment) if not isinstance(assignment, dict) else assignment
            if any(k < 0 for k in pairs.values()):
                raise ExponentOutOfRange("polynomial exponents must be natural numbers")
            if any(v not in edge for v in pairs):
                raise ExponentOutOfRange(f"assignment {pairs} leaves edge {edge}")
            key = ExpFunc.make({
                v: _exponent_of_power(ring, k) for v, k in pairs.items()})
            calibration.append((edge, key, val))
    return CalibratedHypergraph(ring, l, edges=tau, entries=calibration)


def qubit_to_weighted(hg: CalibratedHypergraph) -> tuple[WeightedHypergraph, int]:
    """Over F_2, collapse a calibration to a weighting plus a sign exponent.

    Every exponent supported on a set acts there as the first power, so
    regrouping by support leaves one key per edge whose value is the
    weight; the input and output phase functions differ by the returned
    constant.
    """
    ring = hg.ring
    if ring.q != 2 or ring.r != 1:
        raise NotBinaryField("qubit collapse requires the binary field")
    effective, constant = effectivize(hg)
    weights: dict[Edge, int] = {}
    for edge, entries in effective.calib.items():
        total = 0
        for w, val in entries.items():
            total = (total + val) % ring.char
        if total:
            weights[edge] = total
    return WeightedHypergraph.make(ring, hg.l, weights), constant
