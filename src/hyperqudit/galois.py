"""Exact arithmetic in Galois rings GR(p^r, d).

A Galois ring of characteristic p^r and degree d is the quotient
Z_{p^r}[x] / (h(x)) for a monic degree-d polynomial h whose mod-p
reduction is irreducible over F_p.  Elements are reduced coefficient
vectors in the basis 1, theta, ..., theta^(d-1), theta being the class
of x.  Values of the prime subring (traces, phase exponents) are plain
integers reduced mod p^r.  Everything here is exact integer arithmetic;
nothing is floated.

The canonical element order is 0, 1, then the remaining elements in
lexicographic order of their coefficient vectors (constant term first).
All serialized exponent tuples and matrices in this package refer to
that order.

Rings are interned: :class:`GaloisRing`, called directly or through
:func:`make_ring`, returns one instance per key (p, r, d, modulus) for
the life of the process, so two objects are over the same ring exactly
when their rings are the same object, and a ring refuses attribute
assignment once constructed.

Scalar :class:`RingElement` arithmetic is the API and JSON boundary.
Every derived per-element table (the trace, each element's powers,
index and period, hence the multiplicative order and the primitive
element) comes only from the :class:`RingKernel`: integer index tables
over the canonical order, built with numpy on the ring's first
``kernel`` access.  The one scalar path left is the Frobenius-sum
trace, kept as the independent cross-check the paper states.  Rings
are capped at q^2 <= EXACT_CAP, so every ring that can be constructed
has a kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadCoefficient,
    BadDocument,
    NoPrimitiveElement,
    NonMonic,
    OutOfRange,
    ReducibleModulus,
    RingMismatch,
    TooLarge,
)

__all__ = [
    "EXACT_CAP",
    "GaloisRing",
    "RingElement",
    "RingKernel",
    "make_ring",
    "ring_from_descriptor",
    "ring_to_descriptor",
    "grid_size",
    "require_exact",
]

# Largest integer table an exact path may allocate: q^l phase entries for
# a state, q^2 for the ring kernel's index tables (checked when the ring is
# constructed, so q <= 2048), and the (label, configuration) pairs the
# stabilizer suite's failing path walks.  2^22 keeps F2 at l = 20 (about
# 10^6 configurations) buildable in well under a second.
EXACT_CAP = 1 << 22


def require_exact(size: int, what: str) -> None:
    """Raise TooLarge, before anything is allocated, when size exceeds EXACT_CAP."""
    if size > EXACT_CAP:
        raise TooLarge(f"{what} needs {size} entries, above the exact cap of {EXACT_CAP}")


def grid_size(q: int, l: int, what: str) -> int:
    """q^l, the entries of a table over l digits in base q >= 2, checked against EXACT_CAP.

    A grade or ring size read from a document can be arbitrarily large, so
    an exponent of bit_length(EXACT_CAP) or more is refused before the
    power is taken.
    """
    if l >= EXACT_CAP.bit_length():
        raise TooLarge(f"{what} needs {q}^{l} entries, above the exact cap of {EXACT_CAP}")
    require_exact(q ** l, what)
    return q ** l


def exact_int(value) -> int:
    """int(value) for an int, a numpy integer or an integral float.

    A float with a fractional part raises ValueError instead of being
    truncated; a string, a bool or any other type raises TypeError.
    """
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{value!r} is not an integer")
    elif not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


# -- mod-p polynomial helpers (for the irreducibility check) -----------------

def _poly_mod_trim(coeffs: list[int], p: int) -> list[int]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mod_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Polynomial division over F_p; den must be nonzero."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - dd, 0)
    for k in range(len(num) - dd - 1, -1, -1):
        c = (num[k + dd] * inv_lead) % p
        quot[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] = (num[k + j] - c * dj) % p
    return _poly_mod_trim(quot, p), _poly_mod_trim(num, p)


def _irreducible_mod_p(coeffs: list[int], p: int) -> bool:
    """Exhaustive trial division by all monic factors of degree <= d/2."""
    red = [c % p for c in coeffs]
    d = len(red) - 1
    if d == 1:
        return True
    for deg in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            trial = list(tail) + [1]
            _, rem = _poly_mod_divmod(red, trial, p)
            if not rem:
                return False
    return True


@dataclass(frozen=True)
class RingElement:
    """An element of a :class:`GaloisRing`, stored as a reduced coefficient vector."""

    ring: "GaloisRing"
    coeffs: tuple[int, ...]

    def _check(self, other: "RingElement") -> None:
        if self.ring is not other.ring:
            raise RingMismatch(f"elements of {self.ring} and {other.ring} combined")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        m = self.ring.char
        return RingElement(self.ring, tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RingElement":
        m = self.ring.char
        return RingElement(self.ring, tuple((-a) % m for a in self.coeffs))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return self.ring._mul(self, other)

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise OutOfRange(f"negative ring power {n}")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, k: int) -> "RingElement":
        """Multiply by an integer scalar (an element of the prime subring)."""
        m = self.ring.char
        return RingElement(self.ring, tuple((k * a) % m for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __repr__(self) -> str:
        return f"RingElement{self.coeffs}"


class _Interned(type):
    """Class call returns the one ring of its key, constructing it on the first call."""

    def __call__(cls, p: int, r: int, d: int, modulus) -> "GaloisRing":
        key = (p, r, d, tuple(int(c) for c in modulus))
        ring = _RINGS.get(key)
        if ring is None:
            # __init__ validates before anything is stored, so a refused key raises every time
            ring = _RINGS[key] = super().__call__(*key)
        return ring


class GaloisRing(metaclass=_Interned):
    """The ring GR(p^r, d) = Z_{p^r}[x]/(h(x)) with cached element tables.

    ``GaloisRing(p, r, d, modulus)``, like :func:`make_ring`, returns the
    one instance per key, so ring equality is identity; ``__init__`` runs
    once per key.  An instance is shared, so it refuses attribute
    assignment; only the lazily built kernel and Teichmueller digit table
    are added later, and both are idempotent.  Rings with q^2 above
    EXACT_CAP are refused before anything is enumerated.  Construction
    builds no kernel.
    """

    def __init__(self, p: int, r: int, d: int, modulus: tuple[int, ...]):
        if p < 2 or r < 1 or d < 1:
            raise BadCoefficient(f"p = {p}, r = {r}, d = {d}: need a prime p and positive r, d")
        # the kernel's q x q tables, bounded before p is tested or any element listed
        grid_size(p, 2 * r * d, f"the kernel of GR({p}^{r}, {d})")
        if not _is_prime(p):
            raise BadCoefficient(f"p = {p} is not prime")
        char = p ** r
        if len(modulus) != d + 1:
            raise NonMonic(
                f"modulus must have {d + 1} coefficients for degree {d}, got {len(modulus)}")
        if any(not (0 <= c < char) for c in modulus):
            raise BadCoefficient(f"modulus coefficients must lie in [0, {char})")
        if modulus[-1] != 1:
            raise NonMonic("modulus is not monic")
        if not _irreducible_mod_p(list(modulus), p):
            raise ReducibleModulus("mod-p reduction of the modulus factors over F_p")

        zero, one = (0,) * d, (1,) + (0,) * (d - 1)
        rest = sorted(c for c in itertools.product(range(char), repeat=d) if c not in (zero, one))
        elements = tuple(RingElement(self, c) for c in (zero, one, *rest))
        # written through vars(), since __setattr__ refuses every assignment
        vars(self).update(
            p=p, r=r, d=d, char=char, q=p ** (r * d), modulus=tuple(modulus),
            key=(p, r, d, tuple(modulus)), zero=elements[0], one=elements[1],
            elements=elements, _index={e.coeffs: i for i, e in enumerate(elements)},
            _digit_cache={})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{self} is shared by every user of its key; {name!r} is read-only")

    # -- basics ---------------------------------------------------------------

    def element(self, coeffs) -> RingElement:
        cs = tuple(int(c) % self.char for c in coeffs)
        if len(cs) != self.d:
            raise BadCoefficient(f"expected {self.d} coefficients, got {len(cs)}")
        return RingElement(self, cs)

    def from_int(self, value: int) -> RingElement:
        """Embed an integer via the prime subring."""
        return RingElement(self, (value % self.char,) + (0,) * (self.d - 1))

    def index(self, x: RingElement) -> int:
        return self._index[x.coeffs]

    def _mul(self, a: RingElement, b: RingElement) -> RingElement:
        m = self.char
        d = self.d
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    prod[i + j] = (prod[i + j] + ai * bj) % m
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(d):
                    prod[k - d + j] = (prod[k - d + j] - c * self.modulus[j]) % m
        return RingElement(self, tuple(prod[:d]))

    def trace(self, x: RingElement) -> int:
        """tr(x): matrix trace of multiplication-by-x on the free P-module R, from the kernel."""
        if x.ring is not self:
            raise RingMismatch("trace of a foreign element")
        return int(self.kernel.trace[self.index(x)])

    # -- unit / nilpotent classification ---------------------------------------

    def is_unit(self, x: RingElement) -> bool:
        """True iff x is invertible, i.e. x mod p is nonzero in the residue field."""
        return any(c % self.p for c in x.coeffs)

    def is_nilpotent(self, x: RingElement) -> bool:
        return not self.is_unit(x)

    def multiplicative_order(self, x: RingElement) -> int | None:
        """Order of x in the unit group, or None for a non-unit; read from the kernel."""
        if not self.is_unit(x):
            return None
        return self.kernel.period.item(self.index(x))

    @property
    def primitive_theta(self) -> RingElement:
        """The first element in canonical order with kernel index 0 and period p^d - 1.

        That is a unit of order p^d - 1.  The order is prime to p, and the
        unit group is the cyclic Teichmueller group times the p-group
        1 + pR, so theta generates the Teichmueller group: {0} U {theta^i}
        maps onto the residue field.
        """
        k = self.kernel
        hits = np.flatnonzero((k.iota == 0) & (k.period == self.p ** self.d - 1))
        if not hits.size:
            raise NoPrimitiveElement(f"{self} has no unit of order {self.p ** self.d - 1}")
        return self.elements[hits[0]]

    # -- p-adic / Teichmueller representation ----------------------------------

    def p_adic_digits(self, x: RingElement) -> tuple[RingElement, ...]:
        """Digits (a_0, ..., a_{r-1}), each in {0} U {theta^i}, with sum a_k p^k = x."""
        if not self._digit_cache:
            powers = self.kernel.powers[self.index(self.primitive_theta), :self.p ** self.d - 1]
            tset = [self.zero, *(self.elements[i] for i in powers.tolist())]
            table: dict[tuple[int, ...], tuple[RingElement, ...]] = {}
            for digits in itertools.product(tset, repeat=self.r):
                acc = self.zero
                for alpha, a in enumerate(digits):
                    acc = acc + a.scale(self.p ** alpha)
                table.setdefault(acc.coeffs, digits)
            self._digit_cache.update(table)
        return self._digit_cache[x.coeffs]

    def frobenius(self, x: RingElement) -> RingElement:
        """phi(x) = sum_k a_k^p p^k over the p-adic digits; order d, fixes P."""
        digits = self.p_adic_digits(x)
        acc = self.zero
        for alpha, a in enumerate(digits):
            acc = acc + (a ** self.p).scale(self.p ** alpha)
        return acc

    def trace_frobenius(self, x: RingElement) -> int:
        """Frobenius-sum trace sum_{i<d} phi^i(x); equals trace(x) for all x."""
        acc = self.zero
        y = x
        for _ in range(self.d):
            acc = acc + y
            y = self.frobenius(y)
        if any(acc.coeffs[1:]):
            raise AssertionError("Frobenius-sum trace left the prime subring")
        return acc.coeffs[0]

    @cached_property
    def kernel(self) -> "RingKernel":
        """The ring's integer tables, built on first use."""
        return _build_kernel(self)

    def __reduce__(self):
        # a copy or an unpickled ring is the interned instance, not a second one
        return make_ring, self.key

    def __repr__(self) -> str:
        return f"GR({self.char},{self.d})"


# -- integer ring kernel ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RingKernel:
    """Read-only numpy tables of one ring, indexed by canonical element index.

    ``mul`` and ``add`` are q x q index tables, ``neg[x]`` is the index
    of -x and ``trace[x]`` is tr(x) in [0, p^r).  ``powers[x, u]`` is the
    index of x^u for u below delta = max(iota + pi); x^0 = 1 for every x,
    0 included.  ``iota`` and ``period`` are the index and period of each
    element's cyclic monoid.
    """

    mul: np.ndarray
    add: np.ndarray
    neg: np.ndarray
    trace: np.ndarray
    powers: np.ndarray
    iota: np.ndarray
    period: np.ndarray

    def power_values(self, items) -> np.ndarray:
        """Index of x^(u_x) for every element x, given u's sparse (index, component) pairs."""
        u = np.zeros(len(self.neg), dtype=np.intp)
        for idx, comp in items:
            u[idx] = comp
        return self.powers[np.arange(len(u)), u]


# Elements in one block of the chunked multiplication-table build.
_MUL_BLOCK = 1 << 18


def _build_kernel(ring: GaloisRing) -> RingKernel:
    q, d, m = ring.q, ring.d, ring.char
    coeffs = np.array([e.coeffs for e in ring.elements], dtype=np.int64)
    radix = m ** np.arange(d, dtype=np.int64)
    lookup = np.empty(q, dtype=np.intp)
    lookup[coeffs @ radix] = np.arange(q)

    def index_of(cs: np.ndarray) -> np.ndarray:
        return lookup[cs @ radix]

    # mult[x, :, j] = coefficients of x * theta^j: multiplication by x as a matrix
    modulus = np.array(ring.modulus[:d], dtype=np.int64)
    column, columns = coeffs, [coeffs]
    for _ in range(1, d):
        top = column[:, -1:]
        column = (np.concatenate([np.zeros_like(top), column[:, :-1]], axis=1)
                  - top * modulus) % m
        columns.append(column)
    mult = np.stack(columns, axis=2)
    trace = np.trace(mult, axis1=1, axis2=2) % m

    mul = np.empty((q, q), dtype=np.intp)
    rows = max(1, _MUL_BLOCK // (q * d))
    for start in range(0, q, rows):
        prod = np.einsum("xij,yj->xyi", mult[start:start + rows], coeffs) % m
        mul[start:start + rows] = index_of(prod)
    add = index_of((coeffs[:, None, :] + coeffs[None, :, :]) % m)
    neg = index_of(-coeffs % m)

    # x^0, x^1, ... for all x at once until every row has repeated; x^(iota + pi)
    # is the first power already seen, and it equals x^iota
    elements = np.arange(q)
    columns = [np.ones(q, dtype=np.intp)]
    seen = np.zeros((q, q), dtype=bool)
    seen[:, 1] = True
    length = np.zeros(q, dtype=np.intp)
    repeated = np.zeros(q, dtype=np.intp)
    while not length.all():
        power = mul[columns[-1], elements]
        first = seen[elements, power] & (length == 0)
        length[first] = len(columns)
        repeated[first] = power[first]
        seen[elements, power] = True
        columns.append(power)
    powers = np.stack(columns[:length.max()], axis=1)
    iota = np.argmax(powers == repeated[:, None], axis=1)

    kernel = RingKernel(mul=mul, add=add, neg=neg, trace=trace, powers=powers,
                        iota=iota, period=length - iota)
    for array in vars(kernel).values():
        array.flags.writeable = False
    return kernel


# Every ring made so far, by key; strong, so each ring and its kernel are built once.
# GaloisRing's metaclass fills it, so a direct constructor call is interned too.
_RINGS: dict[tuple, GaloisRing] = {}


def make_ring(p: int, r: int, d: int, modulus) -> GaloisRing:
    """GR(p^r, d) with the given monic modulus: one validated instance per key.

    The modulus is given least-significant coefficient first and must have
    d + 1 coefficients in [0, p^r).  The first call for a key constructs
    the ring, so a refused key raises on every call.  Nothing is
    enumerated beyond the element list: the primitive element and the
    unit orders are read from the ring's kernel when first asked for.
    """
    return GaloisRing(p, r, d, modulus)


# -- descriptor (de)serialization ---------------------------------------------

def ring_to_descriptor(ring: GaloisRing) -> dict:
    return {"p": ring.p, "r": ring.r, "d": ring.d, "modulus": list(ring.modulus)}


def ring_from_descriptor(desc: dict) -> GaloisRing:
    if not isinstance(desc, dict):
        raise BadDocument(f"a ring descriptor must be an object, got {type(desc).__name__}")
    if "name" in desc:
        from .catalog import named_ring

        if not isinstance(desc["name"], str):
            raise BadDocument(f"ring name must be a string, got {desc['name']!r}")
        return named_ring(desc["name"])
    try:
        p, r, d = exact_int(desc["p"]), exact_int(desc["r"]), exact_int(desc["d"])
        modulus = [exact_int(c) for c in desc["modulus"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadCoefficient(f"malformed ring descriptor: {desc!r}") from exc
    return make_ring(p, r, d, modulus)
