"""Hypergraphs over ordinals with calibrations, weightings and markings.

A hypergraph over [l] is a duplicate-free set of nonempty hyperedges
X subset of [l].  A calibration attaches to each hyperedge X a sparse
map from exponent functions (vertex -> generalized exponent, default 0)
to the prime subring; a weighting attaches a single scalar; a marking
attaches a target vertex.  Ordinal functions f: [l] -> [m] act on all
of these through pushforwards, and hypergraphs over [l] and [m] combine
into one over [l+m] by shifting the second block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .cyclicity import CycExponent, exp_add
from .errors import (
    BadDocument,
    BadMark,
    DomainMismatch,
    HyperquditError,
    RingMismatch,
    SizeMismatch,
)
from .galois import GaloisRing, exact_int, ring_from_descriptor, ring_to_descriptor

__all__ = [
    "Edge",
    "OrdinalMorphism",
    "ExpFunc",
    "CalibratedHypergraph",
    "WeightedHypergraph",
    "MarkedHypergraph",
    "exp_pushforward",
    "calib_pushforward",
    "apply_morphism",
    "monadic_product",
    "hypergraph_to_json",
    "hypergraph_from_json",
]

Edge = tuple[int, ...]  # sorted, nonempty, distinct vertices


def _normalize_edge(vertices: Iterable[int], l: int) -> Edge:
    vs = tuple(sorted(set(int(v) for v in vertices)))
    if not vs:
        raise HyperquditError("hyperedges must be nonempty")
    if vs[0] < 0 or vs[-1] >= l:
        raise HyperquditError(f"edge {vs} out of range for {l} vertices")
    return vs


@dataclass(frozen=True)
class OrdinalMorphism:
    """A function [l] -> [m], stored as the tuple of its values."""

    source_size: int
    target_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.source_size:
            raise SizeMismatch("morphism value list does not match its source size")
        if any(not 0 <= v < self.target_size for v in self.values):
            raise SizeMismatch("morphism value out of range")

    def __call__(self, r: int) -> int:
        return self.values[r]

    @staticmethod
    def identity(l: int) -> "OrdinalMorphism":
        return OrdinalMorphism(l, l, tuple(range(l)))

    @staticmethod
    def from_values(values: Iterable[int], target_size: int) -> "OrdinalMorphism":
        vals = tuple(int(v) for v in values)
        return OrdinalMorphism(len(vals), target_size, vals)

    def after(self, other: "OrdinalMorphism") -> "OrdinalMorphism":
        """self o other (apply `other` first)."""
        if other.target_size != self.source_size:
            raise SizeMismatch("morphisms do not compose")
        return OrdinalMorphism(
            other.source_size, self.target_size,
            tuple(self.values[v] for v in other.values))

    def block_sum(self, other: "OrdinalMorphism") -> "OrdinalMorphism":
        """The morphism acting as self on the first block and shifted other on the second."""
        return OrdinalMorphism(
            self.source_size + other.source_size,
            self.target_size + other.target_size,
            self.values + tuple(v + self.target_size for v in other.values))

    def is_injective(self) -> bool:
        return len(set(self.values)) == self.source_size

    def is_bijective(self) -> bool:
        return self.source_size == self.target_size and self.is_injective()

    def image_edge(self, edge: Edge) -> Edge:
        return tuple(sorted({self.values[r] for r in edge}))


@dataclass(frozen=True)
class ExpFunc:
    """An exponent function on a hyperedge: vertex -> generalized exponent.

    Canonical form: sorted (vertex, exponent) pairs with zero exponents
    dropped, so structural equality and hashing agree with equality of
    the underlying set functions.
    """

    items: tuple[tuple[int, CycExponent], ...]

    @staticmethod
    def make(assignments: Mapping[int, CycExponent] | Iterable[tuple[int, CycExponent]]) -> "ExpFunc":
        pairs = dict(assignments)
        cleaned = tuple(sorted((int(v), u) for v, u in pairs.items() if not u.is_zero()))
        return ExpFunc(cleaned)

    @staticmethod
    def zero() -> "ExpFunc":
        return ExpFunc(())

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.items)

    def value(self, vertex: int, ring: GaloisRing) -> CycExponent:
        for v, u in self.items:
            if v == vertex:
                return u
        return CycExponent.zero(ring)

    def shift(self, offset: int) -> "ExpFunc":
        return ExpFunc(tuple((v + offset, u) for v, u in self.items))

    def relabel(self, mapping: Mapping[int, int]) -> "ExpFunc":
        """Transport along an injective vertex relabelling."""
        return ExpFunc.make({mapping[v]: u for v, u in self.items})

    def sort_key(self) -> tuple:
        return tuple((v, u.to_dense()) for v, u in self.items)

    def __repr__(self) -> str:
        return "ExpFunc(" + ", ".join(f"{v}:{u.to_dense()}" for v, u in self.items) + ")"


def exp_pushforward(f: OrdinalMorphism, edge: Edge, w: ExpFunc) -> ExpFunc:
    """Push an exponent function on `edge` forward along f.

    The value at an image vertex is the cyclicity-monoid sum of the
    values over its preimages in the edge.  Only the stored nonzero
    values are added, in vertex order: zero is the monoid identity.
    """
    if any(v not in edge for v in w.support()):
        raise DomainMismatch(f"exponent function {w} not supported on edge {edge}")
    acc: dict[int, CycExponent] = {}
    for r, u in w.items:
        s = f(r)
        acc[s] = exp_add(acc[s], u) if s in acc else u
    return ExpFunc.make(acc)


class CalibratedHypergraph:
    """A hypergraph over [l] together with a sparse calibration per edge.

    The calibration is given as a mapping edge -> {key: value}, as
    (edge, key, value) entries, or both; values of equal (edge, key)
    pairs add mod p^r.  The edges are those of `edges`, the keys of
    `calib`, and the edges of entries whose values do not cancel.

    Canonical form: edges sorted, calibration keys canonicalized, zero
    values dropped and all values reduced mod p^r.  Equality is structural.
    The calibration and each per-edge map are read-only views, since the
    hash and the cached phase table are derived from them.
    """

    def __init__(self, ring: GaloisRing, l: int,
                 calib: Mapping[Edge, Mapping[ExpFunc, int]] | None = None,
                 edges: Iterable[Edge] | None = None,
                 entries: Iterable[tuple[Edge, ExpFunc, int]] = ()):
        if l < 0:
            raise HyperquditError("vertex count must be nonnegative")
        self.ring = ring
        self.l = l
        calib = calib or {}
        table = {_normalize_edge(e, l): {} for e in itertools.chain(edges or (), calib)}
        sums: dict[Edge, dict[ExpFunc, int]] = {}
        for e, w, value in itertools.chain(
                ((e, w, v) for e, vs in calib.items() for w, v in vs.items()), entries):
            edge = _normalize_edge(e, l)
            if any(v not in edge for v in w.support()):
                raise DomainMismatch(f"key {w} not supported on edge {edge}")
            if any(u.ring is not ring for _, u in w.items):
                raise RingMismatch("exponent over a different ring")
            slot = sums.setdefault(edge, {})
            slot[w] = (slot.get(w, 0) + int(value)) % ring.char
        for edge, slot in sums.items():
            nonzero = {w: v for w, v in slot.items() if v}
            if nonzero:
                table.setdefault(edge, {}).update(nonzero)
        self.calib: Mapping[Edge, Mapping[ExpFunc, int]] = MappingProxyType({
            e: MappingProxyType(dict(sorted(vs.items(), key=lambda kv: kv[0].sort_key())))
            for e, vs in sorted(table.items())
        })
        self.edges: tuple[Edge, ...] = tuple(self.calib)

    def canonical(self) -> tuple:
        return (
            self.ring, self.l,
            tuple((e, tuple((w.sort_key(), val) for w, val in entries.items()))
                  for e, entries in self.calib.items()),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CalibratedHypergraph) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def stored_entries(self):
        """Iterate (edge, key, value) over all stored nonzero calibration values."""
        for e, entries in self.calib.items():
            for w, val in entries.items():
                yield e, w, val

    def __repr__(self) -> str:
        return f"CalibratedHypergraph(l={self.l}, edges={list(self.edges)})"

    @staticmethod
    def empty(ring: GaloisRing, l: int = 0) -> "CalibratedHypergraph":
        return CalibratedHypergraph(ring, l)


@dataclass(frozen=True)
class WeightedHypergraph:
    """A hypergraph with one prime-subring weight per edge."""

    ring: GaloisRing
    l: int
    weights: tuple[tuple[Edge, int], ...]

    @staticmethod
    def make(ring: GaloisRing, l: int, weights: Mapping[Edge, int]) -> "WeightedHypergraph":
        table = {}
        for e, a in weights.items():
            table[_normalize_edge(e, l)] = int(a) % ring.char
        return WeightedHypergraph(ring, l, tuple(sorted(table.items())))

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(e for e, _ in self.weights)


@dataclass(frozen=True)
class MarkedHypergraph:
    """A hypergraph whose edges (of size >= 2) each carry a target vertex."""

    ring: GaloisRing
    l: int
    marks: tuple[tuple[Edge, int], ...]

    @staticmethod
    def make(ring: GaloisRing, l: int, marks: Mapping[Edge, int]) -> "MarkedHypergraph":
        table = {}
        for e, t in marks.items():
            edge = _normalize_edge(e, l)
            t = int(t)
            if len(edge) < 2:
                raise BadMark(f"marked edge {edge} must have at least two vertices")
            if t not in edge:
                raise BadMark(f"target {t} not a vertex of {edge}")
            table[edge] = t
        return MarkedHypergraph(ring, l, tuple(sorted(table.items())))

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(e for e, _ in self.marks)


# -- morphism action and monadic product ---------------------------------------

def calib_pushforward(f: OrdinalMorphism, hg: CalibratedHypergraph) -> dict[Edge, Mapping[ExpFunc, int]]:
    """Push the whole calibration forward along f.

    Values of colliding (image edge, pushed key) pairs add mod p^r; only
    keys arising as pushforwards of stored keys appear.
    """
    return dict(apply_morphism(f, hg).calib)


def apply_morphism(f: OrdinalMorphism, hg: CalibratedHypergraph) -> CalibratedHypergraph:
    """The functorial action: image hypergraph with pushed-forward calibration."""
    if f.source_size != hg.l:
        raise SizeMismatch(f"morphism source {f.source_size} != hypergraph grade {hg.l}")
    images = {e: f.image_edge(e) for e in hg.edges}
    return CalibratedHypergraph(
        hg.ring, f.target_size, edges=images.values(),
        entries=((images[e], exp_pushforward(f, e, w), val) for e, w, val in hg.stored_entries()))


def monadic_product(a: CalibratedHypergraph, b: CalibratedHypergraph) -> CalibratedHypergraph:
    """Disjoint union over [l+m]: b's edges and keys shifted by a's grade."""
    if a.ring is not b.ring:
        raise RingMismatch("hypergraphs over different rings")
    calib: dict[Edge, dict[ExpFunc, int]] = {e: dict(vs) for e, vs in a.calib.items()}
    for e, entries in b.calib.items():
        shifted_edge = tuple(v + a.l for v in e)
        calib[shifted_edge] = {w.shift(a.l): val for w, val in entries.items()}
    return CalibratedHypergraph(a.ring, a.l + b.l, calib, edges=calib.keys())


# -- JSON interchange -----------------------------------------------------------

def hypergraph_to_json(hg: CalibratedHypergraph | WeightedHypergraph | MarkedHypergraph) -> dict:
    doc = {"ring": ring_to_descriptor(hg.ring), "l": hg.l, "edges": []}
    if isinstance(hg, CalibratedHypergraph):
        for e, entries in hg.calib.items():
            doc["edges"].append({
                "vertices": list(e),
                "calibration": [
                    {"w": {str(v): list(u.to_dense()) for v, u in w.items}, "value": val}
                    for w, val in entries.items()
                ],
            })
    elif isinstance(hg, WeightedHypergraph):
        for e, a in hg.weights:
            doc["edges"].append({"vertices": list(e), "weight": a})
    else:
        for e, t in hg.marks:
            doc["edges"].append({"vertices": list(e), "target": t})
    return doc


_REQUIRED = object()


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise BadDocument(f"{what} must be an object, got {type(value).__name__}")
    return value


def _field(doc, key: str, what: str, default=_REQUIRED):
    """doc[key] of a JSON object; BadDocument when doc is no object or lacks a required key."""
    if key in _object(doc, what):
        return doc[key]
    if default is _REQUIRED:
        raise BadDocument(f"{what} has no {key!r} field")
    return default


def _int(value, what: str, key: bool = False) -> int:
    """An integer field; an object key, a string in JSON, must be ASCII decimal digits.

    int() alone would also read "1_0" as 10, and " 1", "+1" or non-ASCII
    digits as 1.
    """
    digits = key and isinstance(value, str) and value.isascii() and value.isdigit()
    try:
        return int(value) if digits else exact_int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadDocument(f"{what} must be an integer, got {value!r}") from exc


def _list(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise BadDocument(f"{what} must be a list, got {type(value).__name__}")
    return value


def _vertices(entry) -> tuple[int, ...]:
    vertices = _list(_field(entry, "vertices", "an edge"), "vertices")
    return tuple(_int(v, "a vertex") for v in vertices)


def hypergraph_from_json(doc: dict, kind: str = "calibrated"):
    """Parse a hypergraph document; kind is calibrated, weighted, marked or poly.

    The poly variant returns (ring, l, tau), tau a dict from each edge
    (a sorted vertex tuple) to {assignment: value}, an assignment being
    the sorted (vertex, exponent) pairs of one ``a`` object.  It feeds the
    polynomial-phase conversion, since a polynomial phase datum is not
    itself a hypergraph type of this module.  A missing field or one of the wrong type
    raises BadDocument.
    """
    ring = ring_from_descriptor(_field(doc, "ring", "a hypergraph document"))
    l = _int(_field(doc, "l", "a hypergraph document"), "l")
    edges = _list(doc.get("edges", []), "edges")
    if kind == "calibrated":
        plain: list[Edge] = []
        entries = []
        for entry in edges:
            edge = _vertices(entry)
            plain.append(edge)
            for item in _list(entry.get("calibration", []), "calibration"):
                w = ExpFunc.make({
                    _int(v, "a key vertex", key=True): CycExponent.from_dense(
                        ring, _list(dense, "an exponent"))
                    for v, dense in _object(_field(item, "w", "a calibration entry"), "w").items()
                })
                value = _int(_field(item, "value", "a calibration entry"), "a calibration value")
                entries.append((edge, w, value))
        return CalibratedHypergraph(ring, l, edges=plain, entries=entries)
    if kind == "weighted":
        return WeightedHypergraph.make(ring, l, {
            _vertices(e): _int(_field(e, "weight", "a weighted edge", 0), "a weight")
            for e in edges})
    if kind == "marked":
        return MarkedHypergraph.make(ring, l, {
            _vertices(e): _int(_field(e, "target", "a marked edge"), "a target")
            for e in edges})
    if kind == "poly":
        tau: dict[Edge, dict[tuple[tuple[int, int], ...], int]] = {}
        for entry in edges:
            edge = _normalize_edge(_vertices(entry), l)
            slot = tau.setdefault(edge, {})
            for item in _list(entry.get("poly", []), "poly"):
                a = _object(_field(item, "a", "a poly entry"), "a")
                key = tuple(sorted((_int(v, "a vertex", key=True), _int(k, "a poly exponent"))
                                   for v, k in a.items()))
                value = _int(_field(item, "value", "a poly entry"), "a poly value")
                slot[key] = (slot.get(key, 0) + value) % ring.char
        return ring, l, tau
    raise HyperquditError(f"unknown hypergraph kind {kind!r}")
