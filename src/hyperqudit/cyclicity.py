"""Cyclic monoids of ring elements and the cyclicity monoid of a ring.

For x in a finite ring the powers x^0, x^1, ... are eventually periodic:
there are a smallest index iota >= 0 and period pi >= 1 such that the
first iota + pi powers are pairwise distinct and x^(iota+pi) = x^iota.
The set [iota + pi] with the induced addition is the cyclic monoid of x.

The cyclicity monoid of the whole ring is the direct sum of these over
all elements.  Its members ("generalized exponents") are sparse tuples
u = (u_x); the power x^u means x raised to u's own x-component, so the
integer exponent applied depends on the base.  Conventionally 0^0 = 1,
which is forced by the cyclic monoid of 0 having the two distinct
powers 0^0 = 1 and 0^1 = 0.

Elements and exponents are the API boundary; the per-element data
(iota, pi and the table of powers) is read only from the ring's kernel
(see :class:`hyperqudit.galois.RingKernel`), and ``reduce_exponents``
is the one exponent reducer, for single exponents and whole arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import OutOfRange, RingMismatch
from .galois import GaloisRing, RingElement, exact_int

__all__ = [
    "CycExponent",
    "SpecialExponents",
    "index_period",
    "reduce_exponent",
    "monoid_add",
    "exp_add",
    "power",
    "embed",
    "special_exponents",
]


def index_period(x: RingElement) -> tuple[int, int]:
    """Smallest (iota, pi) with x^0..x^(iota+pi-1) distinct and x^(iota+pi) = x^iota."""
    k = x.ring.kernel
    i = x.ring.index(x)
    return k.iota.item(i), k.period.item(i)


def reduce_exponents(iota, period, u):
    """The representative below iota + period with the same power as exponent u.

    Exact on Python ints of any size and elementwise on numpy arrays, so
    one base and one exponent, or a whole table of them, reduce the same way.
    """
    return u - (u >= iota) * ((u - iota) // period * period)


def reduce_exponent(x: RingElement, u: int) -> int:
    """The unique representative below iota + pi with x^u = x^(result)."""
    return reduce_exponents(*index_period(x), u)


def monoid_add(x: RingElement, u: int, v: int) -> int:
    """Addition in the cyclic monoid of x: the representative of u + v."""
    iota, pi = index_period(x)
    if not (0 <= u < iota + pi and 0 <= v < iota + pi):
        raise OutOfRange(f"{u}, {v} not both in the cyclic monoid of {x}")
    return reduce_exponents(iota, pi, u + v)


def embed(x: RingElement, q_exp: int, u: int) -> int:
    """Monomorphism from the cyclic monoid of x^q_exp into that of x: u -> h_x(q_exp*u)."""
    if q_exp < 0:
        raise OutOfRange(f"negative ring power {q_exp}")
    k = x.ring.kernel
    iota, pi = index_period(x)
    y = k.powers.item(x.ring.index(x), reduce_exponents(iota, pi, q_exp))  # index of x^q_exp
    if not 0 <= u < k.iota.item(y) + k.period.item(y):
        raise OutOfRange(f"{u} not in the cyclic monoid of x^{q_exp}")
    return reduce_exponents(iota, pi, q_exp * u)


@dataclass(frozen=True)
class CycExponent:
    """A generalized exponent: sparse tuple over the ring, keyed by element index.

    Stored components are positive and below iota + pi of their element;
    absent components are zero.
    """

    ring: GaloisRing
    items: tuple[tuple[int, int], ...]  # (element index, component), sorted

    @staticmethod
    def make(ring: GaloisRing, components: dict[int, int] | Iterable[tuple[int, int]]) -> "CycExponent":
        pairs = dict(components) if not isinstance(components, dict) else components
        iota, period = ring.kernel.iota, ring.kernel.period
        cleaned = []
        for idx, u in sorted(pairs.items()):
            try:
                u = exact_int(u)
            except (TypeError, ValueError, OverflowError) as exc:
                raise OutOfRange(f"component {u!r} at index {idx} is not an integer") from exc
            if u == 0:
                continue
            if not 0 <= idx < ring.q:
                raise OutOfRange(f"element index {idx} out of range")
            bound = iota.item(idx) + period.item(idx)
            if not 0 < u < bound:
                raise OutOfRange(
                    f"component {u} at index {idx} outside [0, iota+pi = {bound})")
            cleaned.append((idx, u))
        return CycExponent(ring, tuple(cleaned))

    @staticmethod
    def zero(ring: GaloisRing) -> "CycExponent":
        return CycExponent(ring, ())

    @staticmethod
    def from_dense(ring: GaloisRing, dense: Iterable[int]) -> "CycExponent":
        dense = list(dense)
        if len(dense) != ring.q:
            raise OutOfRange(f"dense exponent tuple must have {ring.q} entries")
        return CycExponent.make(ring, {i: u for i, u in enumerate(dense) if u})

    def to_dense(self) -> tuple[int, ...]:
        dense = [0] * self.ring.q
        for idx, u in self.items:
            dense[idx] = u
        return tuple(dense)

    def component(self, idx: int) -> int:
        for i, u in self.items:
            if i == idx:
                return u
        return 0

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other: "CycExponent") -> "CycExponent":
        return exp_add(self, other)

    def __repr__(self) -> str:
        return f"CycExponent{self.to_dense()}"


def exp_add(u: CycExponent, v: CycExponent) -> CycExponent:
    """Componentwise cyclic-monoid addition in the cyclicity monoid."""
    if u.ring is not v.ring:
        raise RingMismatch("exponents over different rings")
    k = u.ring.kernel
    out = dict(u.items)
    for idx, c in v.items:
        out[idx] = reduce_exponents(k.iota.item(idx), k.period.item(idx), out.get(idx, 0) + c)
    return CycExponent.make(u.ring, out)


def power(x: RingElement, u: CycExponent) -> RingElement:
    """x^u = x^(u_x): the exponent applied is u's component at x itself."""
    if x.ring is not u.ring:
        raise RingMismatch("power of a foreign exponent")
    ring = x.ring
    i = ring.index(x)
    return ring.elements[ring.kernel.powers[i, u.component(i)]]


class SpecialExponents(NamedTuple):
    """Distinguished exponents: the generators s(y), their sum, and delta."""

    s: tuple[CycExponent, ...]  # indexed by canonical element index
    s_star: CycExponent         # sum of all s(y); x^s_star = x
    q_elem: CycExponent         # component 1 - delta_{x,1}; x^q_elem = x
    delta: int                  # max over x of iota_x + pi_x


def special_exponents(ring: GaloisRing) -> SpecialExponents:
    """The generating exponents s(y), the identity-acting exponents, and delta."""
    one_idx = ring.index(ring.one)
    k = ring.kernel
    s = tuple(CycExponent.make(ring, {} if idx == one_idx else {idx: 1})
              for idx in range(ring.q))
    total = np.ones(ring.q, dtype=np.int64)  # the components of all s(y) added up
    total[one_idx] = 0
    s_star = CycExponent.make(
        ring, dict(enumerate(reduce_exponents(k.iota, k.period, total).tolist())))
    q_elem = CycExponent.make(
        ring, {idx: 1 for idx in range(ring.q) if idx != one_idx})
    return SpecialExponents(s, s_star, q_elem, k.powers.shape[1])
