"""The heapification / groupification functor pair on finite structures.

heapify sends a group to the ternary product x * y^-1 * z pointed at the
identity; groupify recovers a group from a pointed heap via [x, e, y] and
[e, x, e].  On finite structures the two are mutually inverse on the nose,
and basepoint-preserving heap homomorphisms coincide with group
homomorphisms.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteSemiheap,
    LawError,
    PointedSemiheap,
    TernaryTable,
    _first_disagreement,
    _first_non_biunitary,
    _product_slabs,
    is_heap,
    is_homomorphism,
)
from .groups import FiniteGroup, associativity_witness, is_group_hom


class BudgetExceeded(RuntimeError):
    """Raised instead of returning a partial enumeration result."""


def heapify(g):
    """The pointed heap of a group: [x,y,z] = x * y^-1 * z, basepoint e."""
    m1 = g.mul[:, g.inv]                      # m1[x,y] = x * y^-1
    cube = g.mul[m1]                          # cube[x,y,z] = (x * y^-1) * z
    s = FiniteSemiheap(TernaryTable(cube), _certified=True)
    if not is_heap(s):
        raise AssertionError("heapification of a validated group must be a heap")
    return PointedSemiheap(s, g.e)


@dataclass(frozen=True)
class GroupAxiomWitness:
    """Diagnostic for groupify on inputs that are not heaps."""

    axiom: str
    witness: tuple


def _groupify_tables(h):
    t = h.table.entries
    e = h.basepoint
    mul = t[:, e, :]
    inv = t[e, :, e]
    return mul, inv


def groupify(h, require_heap=True):
    """The group [x,e,y] with inverse [e,x,e] on a pointed heap.

    With require_heap (the default) the input must be a heap; the output
    always passes full group validation.
    """
    if require_heap and (bad := _first_non_biunitary(h.semiheap)) is not None:
        raise LawError(f"groupify requires a heap; element {bad} is not biunitary", bad)
    mul, inv = _groupify_tables(h)
    return FiniteGroup(mul, h.basepoint, inv)


def groupify_diagnose(h):
    """Attempt groupification without the heap precondition.

    Returns a FiniteGroup when the construction happens to satisfy the
    group axioms, else a GroupAxiomWitness naming the first failure.
    """
    mul, inv = _groupify_tables(h)
    n = h.n
    e = h.basepoint
    hit = _first_disagreement(n, 1, lambda r: np.arange(n)[r], lambda r: mul[e, r], lambda r: mul[r, e])
    if hit is not None:
        (x,), (_, left, right) = hit
        return GroupAxiomWitness("identity", (e, x, left, right))
    bad = associativity_witness(mul)
    if bad is not None:
        return GroupAxiomWitness("associativity", bad)
    for x in range(n):
        if mul[x, inv[x]] != e or mul[inv[x], x] != e:
            return GroupAxiomWitness("inverse", (x, int(inv[x])))
    return FiniteGroup(mul, e, inv)


def transport_group_hom(mapping, g, g2):
    """A group homomorphism reused verbatim as a pointed-heap hom.

    Returns True iff the map is simultaneously a group hom G -> G' and a
    basepoint-preserving semiheap hom between the heapifications.
    """
    f = np.asarray(mapping, dtype=np.int64)
    if not is_group_hom(f, g, g2):
        return False
    h, h2 = heapify(g), heapify(g2)
    return int(f[h.basepoint]) == h2.basepoint and is_homomorphism(f, h.semiheap, h2.semiheap)


@dataclass(frozen=True)
class FullyFaithfulReport:
    """Exhaustive comparison of hom sets between G, G' and their heapifications."""

    maps_checked: int
    group_homs: tuple
    pointed_heap_homs: tuple
    unpointed_heap_homs: tuple

    @property
    def bijective(self):
        return set(self.group_homs) == set(self.pointed_heap_homs)


def check_fully_faithful(g, g2, budget=1_000_000):
    """Enumerate every map G -> G' and classify it.

    The set of group homomorphisms must equal the set of basepoint-
    preserving semiheap homomorphisms between the heapifications; a
    mismatch is an implementation bug, so it raises.  Unpointed semiheap
    homs are reported as well: there are generally more of them.  Maps
    are classified in slabs, each as a row of an array, in
    itertools.product order.
    """
    total = g2.n ** g.n
    if total > budget:
        raise BudgetExceeded(f"{total} maps exceed the budget of {budget}")
    h, h2 = heapify(g), heapify(g2)
    t, mul2, t2 = h.semiheap.table.entries, g2.mul.reshape(-1), h2.semiheap.table.entries.reshape(-1)
    g_homs, p_homs, u_homs = [], [], []
    for f in _product_slabs(g2.n, g.n, g.n ** 3):
        pair = f[:, :, None] * g2.n + f[:, None, :]      # flat index of (f x, f y)
        group = (f[:, g.mul] == mul2[pair]).all(axis=(1, 2))
        heap = (f[:, t] == t2[pair[..., None] * g2.n + f[:, None, None, :]]).all(axis=(1, 2, 3))
        pointed = heap & (f[:, h.basepoint] == h2.basepoint)
        for homs, keep in ((g_homs, group), (p_homs, pointed), (u_homs, heap)):
            homs.extend(map(tuple, f[keep].tolist()))
    report = FullyFaithfulReport(total, tuple(g_homs), tuple(p_homs), tuple(u_homs))
    if not report.bijective:
        raise AssertionError("heapification must be fully faithful on pointed homs")
    return report
