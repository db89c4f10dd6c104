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
    _SLAB,
    _first_non_biunitary,
    _slab_rows,
    is_heap,
    is_homomorphism,
)
from .groups import FiniteGroup, GroupAxiomWitness, group_axiom_witness, is_group_hom  # noqa: F401 (re-export)


class BudgetExceeded(RuntimeError):
    """Raised when a hom-set build of check_fully_faithful would extend more prefix rows than its budget allows.

    A row is one prefix extended by one value of its next element, so the
    count is the work of the build, not the size of the map space.
    """


def heapify(g):
    """The pointed heap of a group: [x,y,z] = x * y^-1 * z, basepoint e."""
    m1 = g.mul[:, g.inv]                      # m1[x,y] = x * y^-1
    cube = g.mul[m1]                          # cube[x,y,z] = (x * y^-1) * z
    s = FiniteSemiheap(TernaryTable(cube), _certified=True)
    if not is_heap(s):
        raise AssertionError("heapification of a validated group must be a heap")
    return PointedSemiheap(s, g.e)


def _groupify_tables(h):
    t = h.table.entries
    e = h.basepoint
    mul = t[:, e, :]
    inv = t[e, :, e]
    return mul, inv


def groupify(h):
    """The group [x,e,y] with inverse [e,x,e] on a pointed heap.

    The input must be a heap; the output always passes full group validation.
    """
    if (bad := _first_non_biunitary(h.semiheap)) is not None:
        raise LawError(f"groupify requires a heap; element {bad} is not biunitary", bad)
    mul, inv = _groupify_tables(h)
    return FiniteGroup(mul, h.basepoint, inv)


def groupify_diagnose(h):
    """Attempt groupification without the heap precondition.

    Returns a FiniteGroup when the construction happens to satisfy the
    group axioms, else a GroupAxiomWitness naming the first failure.
    """
    mul, inv = _groupify_tables(h)
    bad = group_axiom_witness(mul, h.basepoint, inv)
    return FiniteGroup(mul, h.basepoint, inv, _certified=True) if bad is None else bad


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
    """Classify every map G -> G' as a group hom and a pointed or unpointed heap hom.

    The set of group homomorphisms must equal the set of basepoint-
    preserving semiheap homomorphisms between the heapifications; a
    mismatch is an implementation bug, so it raises.  Unpointed semiheap
    homs are reported as well: there are generally more of them.  Each
    hom set is built by prefix extension (_homs) in itertools.product order,
    and each build may extend at most budget prefix rows (nan raises ValueError).
    """
    if np.isnan(budget):                      # no row count is above nan, so the build would be unbounded
        raise ValueError("budget must be a number of prefix rows, got nan")
    h, h2 = heapify(g), heapify(g2)
    heap = _homs(h.semiheap.table.entries, h2.semiheap.table.entries, budget)
    homs = (_homs(g.mul, g2.mul, budget), heap[heap[:, h.basepoint] == h2.basepoint], heap)
    report = FullyFaithfulReport(g2.n ** g.n, *(tuple(map(tuple, f.tolist())) for f in homs))
    if not report.bijective:
        raise AssertionError("heapification must be fully faithful on pointed homs")
    return report


def _completing_levels(table):
    """An operation table's instances (arguments, output), grouped by level: their largest element."""
    args, out = np.indices(table.shape).reshape(table.ndim, -1).T, table.reshape(-1)
    level = np.maximum(args.max(axis=1), out)
    return [(args[level == k], out[level == k]) for k in range(len(table))]


def _homs(table, table2, budget):
    """Every map f with f[table[x, ...]] = table2[f[x], ...], as rows in itertools.product order.

    Level k extends each surviving prefix f[0..k-1] by every value of f[k]
    and keeps the rows that pass the instances level k completes, so each
    instance is tested exactly once.  Prefixes are extended in chunks of
    at most 4 * _SLAB gathered elements, at least one prefix.  Raises
    BudgetExceeded before the rows extended, summed over the levels, would
    pass budget.
    """
    n2, flat, strides = len(table2), table2.reshape(-1), len(table2) ** np.arange(table2.ndim)[::-1]
    prefixes, extended = np.zeros((1, 0), dtype=np.int64), 0
    for a, o in _completing_levels(table):
        extended += len(prefixes) * n2
        if extended > budget:
            raise BudgetExceeded(f"{extended} prefix rows exceed the budget of {budget}")
        step = _slab_rows(n2 * (a.size + o.size), 4 * _SLAB)
        kept = [np.zeros((0, prefixes.shape[1] + 1), dtype=np.int64)]
        for start in range(0, len(prefixes), step):
            p = prefixes[start:start + step]
            rows = np.column_stack([np.repeat(p, n2, axis=0), np.tile(np.arange(n2), len(p))])
            kept.append(rows[(rows[:, o] == flat.take(rows[:, a] @ strides)).all(axis=1)])
        prefixes = np.concatenate(kept)
    return prefixes
