"""Seeded input documents for the benchmark workloads.

Generalized exponents are sampled directly: every element of the ring,
with a stated density, gets one nonzero component below its own
iota + pi (read from the reference power tables), and at least one
element always does.  Nothing enumerates the cyclicity monoid, so
sampling costs O(q) per exponent at any ring size.

Document structure (ring, grade, edge and key counts, density) is fixed
per slot; the seed only chooses vertices, exponents and values.  Runs
with different seeds therefore do the same amount of work.
"""

from __future__ import annotations

import itertools
import math
import random

from reference import RING_SPECS, descriptor, named_table_ring

SPARSE, DENSE = 0.1, 0.9


def sample_exponent(rng: random.Random, ring_name: str, density: float) -> list[int]:
    """A dense generalized exponent with about `density` of its components set."""
    cyc_len = named_table_ring(ring_name).cyc_len
    dense = [0] * len(cyc_len)
    for x, n in enumerate(cyc_len):
        if n > 1 and rng.random() < density:
            dense[x] = rng.randrange(1, int(n))
    if not any(dense):
        x = rng.choice([x for x, n in enumerate(cyc_len) if n > 1])
        dense[x] = rng.randrange(1, int(cyc_len[x]))
    return dense


def _distinct_edges(rng: random.Random, l: int, sizes: list[int]) -> list[tuple[int, ...]]:
    """Distinct sorted edges over [l]; a size whose edges are used up falls back to smaller ones."""
    edges: list[tuple[int, ...]] = []
    for size in sizes:
        for s in range(size, 0, -1):
            free = [e for e in itertools.combinations(range(l), s) if e not in edges]
            if free:
                edges.append(rng.choice(free))
                break
    return edges


def calibrated_document(rng: random.Random, ring_name: str, l: int, n_edges: int,
                        keys_per_edge: int, density: float, explicit_ring: bool = False,
                        max_edge: int = 4) -> dict:
    """A calibrated hypergraph over [l] with n_edges distinct edges of size up to max_edge.

    Key k of an edge is supported on len(edge) - k of its vertices (at
    least one); values are nonzero in the prime subring.
    """
    char = RING_SPECS[ring_name][0] ** RING_SPECS[ring_name][1]
    edges = _distinct_edges(rng, l, [min(l, 2 + j % (max_edge - 1)) for j in range(n_edges)])
    doc_edges = []
    for edge in edges:
        calibration = []
        for k in range(keys_per_edge):
            support = sorted(rng.sample(edge, max(1, len(edge) - k)))
            w = {str(v): sample_exponent(rng, ring_name, density) for v in support}
            calibration.append({"w": w, "value": rng.randrange(1, char)})
        doc_edges.append({"vertices": list(edge), "calibration": calibration})
    ring = descriptor(ring_name) if explicit_ring else {"name": ring_name}
    return {"ring": ring, "l": l, "edges": doc_edges}


def permuted_document(doc: dict, perm: list[int]) -> dict:
    """The same calibrated hypergraph with vertex v renamed perm[v]."""
    edges = []
    for entry in doc["edges"]:
        calibration = [
            {"w": {str(perm[int(v)]): dense for v, dense in item["w"].items()},
             "value": item["value"]}
            for item in entry["calibration"]
        ]
        edges.append({"vertices": sorted(perm[v] for v in entry["vertices"]),
                      "calibration": calibration})
    return {"ring": doc["ring"], "l": doc["l"], "edges": edges}


def marked_document(rng: random.Random, ring_name: str, l: int, n_edges: int) -> dict:
    """A marked hypergraph with distinct edges of size 2..3, each with a target."""
    edges = _distinct_edges(rng, l, [2 + j % 2 for j in range(n_edges)])
    return {
        "ring": descriptor(ring_name), "l": l,
        "edges": [{"vertices": list(e), "target": rng.choice(e)} for e in edges],
    }


# -- workload inputs ---------------------------------------------------------------

# (ring, l, edges, keys per edge, density): q^l between 3125 and 6561
BUILD_SLOTS = [
    ("F2", 12, 4, 2, DENSE),
    ("F3", 8, 3, 2, SPARSE),
    ("F4", 6, 3, 2, DENSE),
    ("Z4", 6, 4, 1, SPARSE),
    ("F5", 5, 3, 2, DENSE),
    ("Z8", 4, 3, 1, SPARSE),
    ("Z9", 4, 4, 1, DENSE),
    ("F16", 3, 3, 1, SPARSE),
    ("GR(4,2)", 3, 3, 1, DENSE),
    ("GR(4,3)", 2, 3, 1, SPARSE),
]


def build_inputs(seed: int) -> list[tuple[str, dict]]:
    """One (job id, document) per build slot."""
    rng = random.Random(f"build/{seed}")
    return [
        (f"{name}-l{l}", calibrated_document(rng, name, l, n_edges, keys, density))
        for name, l, n_edges, keys, density in BUILD_SLOTS
    ]


# (ring, l, edges): q^l between 27 and 729; the verify jobs pick among these by size
VERIFY_SLOTS = [
    ("F3", 3, 3), ("F2", 6, 3), ("F4", 3, 2), ("Z4", 3, 3), ("Z8", 2, 1),
    ("GR(4,3)", 1, 1), ("Z9", 2, 1), ("F5", 3, 3), ("GR(4,2)", 2, 1), ("F3", 6, 3),
]


def verify_inputs(seed: int) -> list[tuple[str, dict]]:
    rng = random.Random(f"verify/{seed}")
    return [
        (f"{name}-l{l}", calibrated_document(rng, name, l, n_edges, keys_per_edge=2,
                                             density=DENSE if i % 2 else SPARSE, max_edge=3))
        for i, (name, l, n_edges) in enumerate(VERIFY_SLOTS)
    ]


# Each classify directory holds two bases of different edge counts over
# the same ring and grade, plus two permuted copies of each.  The copies
# use permutations at fixed lexicographic ranks, 1/3 and 2/3 of the way
# through: classify's congruence search stops at the least witness, so
# random permutations would make its work vary from seed to seed.
CLASSIFY_DIRS = [("F3", 5, (2, 3)), ("F2", 6, (2, 3)), ("F4", 5, (2, 3)), ("Z4", 6, (2, 3))]
MARKED_SLOTS = [("F5", 4, 3), ("F7", 5, 3)]
STATE_BUILD_SLOTS = [("F3", 6), ("Z9", 3)]
MATRIX_RINGS = ["F25", "F27"]


def covering_document(rng: random.Random, ring_name: str, l: int, n_edges: int) -> dict:
    """n_edges distinct edges of size 2..3 covering all of [l], one key per edge
    supported on the whole edge, so the primitive core keeps all l vertices."""
    order = list(range(l))
    rng.shuffle(order)
    edges: list[tuple[int, ...]] = []
    start = 0
    for j in range(n_edges):
        size = min(3, l) if j < n_edges - 1 else max(2, l - start)
        chunk = order[start:start + size]
        if len(chunk) < size:  # wrap around to reuse early vertices
            chunk += order[:size - len(chunk)]
        edges.append(tuple(sorted(set(chunk))))
        start += size
    char = RING_SPECS[ring_name][0] ** RING_SPECS[ring_name][1]
    return {
        "ring": descriptor(ring_name), "l": l,
        "edges": [{"vertices": list(e), "calibration": [{
            "w": {str(v): sample_exponent(rng, ring_name, SPARSE) for v in e},
            "value": rng.randrange(1, char)}]} for e in edges],
    }


def nth_permutation(l: int, rank: int) -> list[int]:
    """The permutation of [l] at the given lexicographic rank."""
    return list(next(itertools.islice(itertools.permutations(range(l)), rank, None)))


def cli_inputs(seed: int) -> dict:
    """Generated documents for the cli workload, with the classes classify must find.

    Bases in one directory differ in edge count, which congruence
    preserves, so they never share a class; each base comes with two
    permuted copies that must land in its class.
    """
    rng = random.Random(f"cli/{seed}")
    classify: list[tuple[str, dict[str, dict], list[list[str]]]] = []
    for name, l, edge_counts in CLASSIFY_DIRS:
        docs: dict[str, dict] = {}
        classes = []
        for k, n_edges in enumerate(edge_counts):
            base = covering_document(rng, name, l, n_edges)
            members = [f"c{k}_0.json"]
            docs[members[0]] = base
            for copy in (1, 2):
                perm = nth_permutation(l, copy * math.factorial(l) // 3)
                members.append(f"c{k}_{copy}.json")
                docs[members[-1]] = permuted_document(base, perm)
            classes.append(members)
        classify.append((f"{name}-l{l}", docs, classes))
    marked = [
        (f"{name}-l{l}", marked_document(rng, name, l, n_edges))
        for name, l, n_edges in MARKED_SLOTS
    ]
    states = [
        (f"{name}-l{l}", calibrated_document(rng, name, l, 3, 2, DENSE, explicit_ring=True,
                                             max_edge=3))
        for name, l in STATE_BUILD_SLOTS
    ]
    rings = [(name, descriptor(name)) for name in MATRIX_RINGS]
    return {"classify": classify, "marked": marked, "states": states, "rings": rings}
