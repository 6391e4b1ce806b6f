"""Independent integer-table model of Galois rings, used to check outputs.

Nothing here imports the package under test.  A ring GR(p^r, d) is held
as numpy tables over the canonical element order (0, 1, then the
remaining coefficient vectors in lexicographic order, constant term
first), so a phase table of q^l entries is a handful of gathers and
broadcast additions.  The benchmark's input generator samples exponents
from these tables and its correctness gate compares the package's
outputs against phase tables computed here.
"""

from __future__ import annotations

import itertools

import numpy as np

# The package's ring catalog, restated as plain data (p, r, d, modulus
# least-significant first), plus the extension fields the cli workload
# passes as explicit descriptors.
RING_SPECS: dict[str, tuple[int, int, int, tuple[int, ...]]] = {
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
    "F25": (5, 1, 2, (2, 1, 1)),
    "F27": (3, 1, 3, (1, 2, 0, 1)),
}


def descriptor(name: str) -> dict:
    """The explicit JSON ring descriptor of a named ring."""
    p, r, d, modulus = RING_SPECS[name]
    return {"p": p, "r": r, "d": d, "modulus": list(modulus)}


class TableRing:
    """GR(p^r, d) as a mul index table, a trace vector and power tables."""

    def __init__(self, p: int, r: int, d: int, modulus):
        self.p, self.r, self.d = p, r, d
        self.char = char = p ** r
        self.q = q = char ** d
        zero, one = (0,) * d, (1,) + (0,) * (d - 1)
        rest = sorted(c for c in itertools.product(range(char), repeat=d) if c not in (zero, one))
        coeffs = np.array([zero, one, *rest], dtype=np.int64).reshape(q, d)
        self.coeffs = coeffs
        radix = char ** np.arange(d - 1, -1, -1, dtype=np.int64)
        lut = np.empty(q, dtype=np.int64)
        lut[coeffs @ radix] = np.arange(q)

        def index_of(cs: np.ndarray) -> np.ndarray:
            return lut[(cs % char) @ radix]

        prod = np.zeros((q, q, 2 * d - 1), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                prod[:, :, i + j] += coeffs[:, None, i] * coeffs[None, :, j]
        mod = np.array(modulus, dtype=np.int64)
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[:, :, k].copy()
            prod[:, :, k] = 0
            prod[:, :, k - d:k] -= c[:, :, None] * mod[None, None, :d]
        mul_coeffs = prod[:, :, :d] % char
        self.mul = index_of(mul_coeffs)
        # tr(x): trace of multiplication by x on the basis 1, theta, ..., theta^(d-1)
        basis = [int(index_of(np.eye(d, dtype=np.int64)[j])) for j in range(d)]
        self.trace = sum(mul_coeffs[:, basis[j], j] for j in range(d)) % char

        # x^0, x^1, ... up to the first repeat; iota + pi powers per element
        lengths, tables = [], []
        for x in range(q):
            seen: dict[int, int] = {}
            y, powers = 1, []
            while y not in seen:
                seen[y] = len(powers)
                powers.append(y)
                y = int(self.mul[y, x])
            tables.append(powers)
            lengths.append(len(powers))
        self.cyc_len = np.array(lengths, dtype=np.int64)  # iota + pi per element
        self.powers = np.zeros((q, max(lengths)), dtype=np.int64)
        for x, powers in enumerate(tables):
            self.powers[x, :len(powers)] = powers

    def power_values(self, dense_exponent) -> np.ndarray:
        """x -> x^(u_x) for every element x, as element indices."""
        u = np.asarray(dense_exponent, dtype=np.int64)
        return self.powers[np.arange(self.q), u]

    def phase_table(self, l: int, entries) -> np.ndarray:
        """sigma over all q^l configurations, C order (last qudit fastest).

        `entries` yields (edge, {vertex: dense exponent}, value) with the
        edge sorted; vertices of the edge absent from the key contribute
        the zeroth power, which is 1 for every element.
        """
        q, char = self.q, self.char
        out = np.zeros((q,) * l, dtype=np.int64)
        for edge, key, value in entries:
            acc = np.ones((1,) * len(edge), dtype=np.int64)  # index 1 is the unit
            for axis, v in enumerate(edge):
                shape = [1] * len(edge)
                shape[axis] = q
                factor = self.power_values(key[v]) if v in key else np.ones(q, dtype=np.int64)
                acc = self.mul[acc, factor.reshape(shape)]
            term = (value * self.trace[acc]) % char
            shape = [q if i in edge else 1 for i in range(l)]
            out = out + term.reshape(shape)
        return (out % char).reshape(-1)


_rings: dict[tuple, TableRing] = {}


def table_ring(p: int, r: int, d: int, modulus) -> TableRing:
    key = (p, r, d, tuple(modulus))
    if key not in _rings:
        _rings[key] = TableRing(p, r, d, modulus)
    return _rings[key]


def named_table_ring(name: str) -> TableRing:
    return table_ring(*RING_SPECS[name])


def ring_of_document(doc: dict) -> TableRing:
    desc = doc["ring"]
    if "name" in desc:
        return named_table_ring(desc["name"])
    return table_ring(desc["p"], desc["r"], desc["d"], desc["modulus"])


def document_entries(doc: dict):
    """(edge, key, value) triples of a calibrated-hypergraph document."""
    for entry in doc.get("edges", []):
        edge = tuple(sorted(entry["vertices"]))
        for item in entry.get("calibration", []):
            key = {int(v): dense for v, dense in item["w"].items()}
            yield edge, key, int(item["value"])


def document_phase_table(doc: dict) -> np.ndarray:
    return ring_of_document(doc).phase_table(int(doc["l"]), document_entries(doc))


def marked_phase_table(doc: dict, x_star: int) -> np.ndarray:
    """Controlled-phase state of a marked document over a prime field.

    Over a prime field the canonical element order is 0, 1, ..., p - 1,
    so an element index is its value.
    """
    ring = ring_of_document(doc)
    q, l = ring.q, int(doc["l"])
    grid = np.indices((q,) * l, dtype=np.int64)
    out = np.zeros((q,) * l, dtype=np.int64)
    for entry in doc["edges"]:
        target = int(entry["target"])
        controls = [v for v in entry["vertices"] if v != target]
        fire = np.all([grid[v] == x_star for v in controls], axis=0)
        out = out + np.where(fire, grid[target], 0)
    return (out % ring.char).reshape(-1)
