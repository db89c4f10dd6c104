"""Exhaustive and backtracking enumeration of ternary structures.

Two independent pipelines produce semiheaps on a small carrier: a plain
filter over every table, and a cell-by-cell backtracking search that
prunes on the first violated para-associativity instance.  Their outputs
must agree as sets; the test suite holds them to that.

Heap enumeration is dual-routed as well: direct search against the set of
heapifications of every group table on the carrier.  No count is
hardcoded anywhere — every number in the tests was produced by one of
these oracle routes and pinned as a regression value.
"""

import time
from itertools import islice, permutations, product as iproduct

import numpy as np

from .core import _SLAB, FiniteSemiheap, TernaryTable, _product_slabs, verify_para_associative
from .functors import BudgetExceeded, heapify
from .groups import FiniteGroup, LawError


class EnumerationResult(list):
    """A list of results plus a completeness flag.

    A partial result (budget ran out) is explicit: it still carries
    everything found, but `complete` is False and no count claim is made.
    """

    def __init__(self, items, complete):
        super().__init__(items)
        self.complete = complete


def enumerate_semiheaps(n, up_to_iso=False, method="backtrack", budget=None, jobs=1):
    """All semiheap tables on {0..n-1}, in lexicographic table order.

    method "filter" scans every n^(n^3) table through the verifier;
    "backtrack" fills the cube cell by cell, pruning inconsistent prefixes.
    With up_to_iso only canonical representatives are kept.  budget is a
    wall-clock limit in seconds; when it runs out the result is returned
    as found so far, flagged incomplete.
    """
    if method not in ("filter", "backtrack"):
        raise ValueError(f"unknown method {method!r}")
    deadline = _deadline(budget)
    if n == 0:                                  # complete even at budget 0
        tables, complete = [TernaryTable(np.zeros((0, 0, 0), dtype=np.int64))], True
    elif method == "filter":
        tables, complete = _filter_pipeline(n, deadline)
    else:
        tables, complete = _backtrack_pipeline(n, deadline, symmetry_break=up_to_iso, jobs=jobs)
    if up_to_iso:
        classes = iso_classes(tables, deadline)
        return EnumerationResult(classes, complete and classes.complete)
    return EnumerationResult([FiniteSemiheap(t, _certified=True) for t in tables], complete)


def iso_classes(tables, deadline=None):
    """The canonical form of each isomorphism class among tables, in order of first appearance.

    For tables in lexicographic order the first member seen of a complete
    class is its canonical form.  deadline is a time.time() reading; once
    it has passed, the classes found so far are returned, flagged incomplete.
    """
    keep, seen = [], set()
    for t in tables:
        c = canonical_form(t, deadline)
        if c is None:
            return EnumerationResult(keep, False)
        if c.flat() not in seen:
            seen.add(c.flat())
            keep.append(FiniteSemiheap(c, _certified=True))
    return EnumerationResult(keep, True)


def _deadline(budget):
    # time.time(), unlike perf_counter, compares across worker processes;
    # it is not monotonic, so a clock step moves the deadline with it.
    return None if budget is None else time.time() + budget


def _expired(deadline):
    return deadline is not None and time.time() > deadline


def _filter_pipeline(n, deadline):
    out = []
    for flat in iproduct(range(n), repeat=n ** 3):
        if _expired(deadline):
            return out, False
        t = TernaryTable.from_flat(n, flat)
        if verify_para_associative(t) is None:
            out.append(t)
    return out, True


def _backtrack_pipeline(n, deadline, symmetry_break=False, jobs=1):
    if jobs > 1:
        return _backtrack_parallel(n, deadline, symmetry_break, jobs)
    return _search(np.full((n, n, n), -1, dtype=np.int64), deadline, symmetry_break)


def _backtrack_parallel(n, deadline, symmetry_break, jobs):
    # Partition by the value of the first cell; workers stay deterministic
    # because each prefix block is emitted in order.  All blocks share one
    # deadline, so blocks queued behind busy workers do not extend it.
    from multiprocessing import Pool

    with Pool(min(jobs, n)) as pool:
        blocks = pool.map(_backtrack_block, [(n, v, deadline, symmetry_break) for v in range(n)])
    out = [t for block, _ in blocks for t in block]
    return out, all(c for _, c in blocks)


def _backtrack_block(arg):
    n, first, deadline, symmetry_break = arg
    cube = np.full((n, n, n), -1, dtype=np.int64)
    cube[0, 0, 0] = first
    return _search(cube, deadline, symmetry_break)


def _search(cube, deadline, symmetry_break=False):
    """Every para-associative completion of cube, in lexicographic order.

    The unassigned (-1) cells are filled depth first in flat order; the
    assigned ones are forced and must be consistent among themselves.  A
    value stays while the cube is consistent and, with symmetry_break, no
    relabeling of the prefix up to it is smaller; neither test can start
    passing as cells fill, so the root needs neither.  Returns (tables,
    complete), complete False once the _deadline has passed.
    """
    n = cube.shape[0]
    flat = cube.reshape(-1)
    free = np.flatnonzero(flat < 0)
    out = []

    def fill(depth):
        if _expired(deadline):
            return False
        if depth == len(free):
            out.append(TernaryTable(cube.copy()))
            return True
        cell = free[depth]
        complete = True
        for v in range(n):
            flat[cell] = v
            if _partial_consistent(cube, n) and not (symmetry_break and _prefix_dominated(cube, cell + 1, n)):
                complete = fill(depth + 1)
                if not complete:
                    break
        flat[cell] = -1
        return complete

    return out, fill(0)


# Per carrier size: the flat cube reads of every para-associativity instance.
_QUINTUPLE_READS = {}


def _quintuple_reads(n):
    """Where the three forms of each quintuple read the cube, one slab at a time.

    For the forms [[x1,x2,x3],x4,x5], [x1,[x4,x3,x2],x5] and
    [x1,x2,[x3,x4,x5]], row k of inner holds the flat index of the inner
    product, and the outer product of value v sits at v * scale[k] +
    outer[k].  A slab holds every x1 when all n^5 quintuples fit in _SLAB,
    else one x1; the next slab reads n^2 further on wherever x1 enters,
    which is advance.
    """
    if n not in _QUINTUPLE_READS:
        rows = n if n ** 5 <= _SLAB else 1
        x1, x2, x3, x4, x5 = np.indices((rows, n, n, n, n)).reshape(5, -1)
        inner = np.stack([(x1 * n + x2) * n + x3, (x4 * n + x3) * n + x2, (x3 * n + x4) * n + x5])
        outer = np.stack([x4 * n + x5, x1 * n * n + x5, (x1 * n + x2) * n])
        scale = np.array([[n * n], [n], [1]])
        advance = n * n * np.array([[[1], [0], [0]], [[0], [1], [1]]])
        _QUINTUPLE_READS[n] = rows, inner, scale, outer, advance
    return _QUINTUPLE_READS[n]


def _partial_consistent(cube, n):
    """False iff two evaluable forms of some para-associativity instance disagree.

    -1 marks an unassigned cell; a form whose inner or outer cell is
    unassigned is not evaluable.  Such a disagreement dooms every
    completion of the prefix.
    """
    rows, inner, scale, outer, advance = _quintuple_reads(n)
    flat = np.append(cube.reshape(-1), -1)      # index n^3 reads as unassigned
    for start in range(0, n, rows):
        if start:
            inner, outer = inner + advance[0], outer + advance[1]
        a = flat[inner]
        v = flat[np.where(a >= 0, a * scale + outer, n ** 3)]
        if (v.max(axis=0) > v.min(axis=0, where=v >= 0, initial=n)).any():
            return False
    return True


def _prefix_dominated(cube, assigned, n):
    """True iff some relabeling precedes the first assigned cells, hence every completion."""
    flat = cube.reshape(-1)
    return any(_precedes(rows, flat[:assigned]).any() for rows in _relabelings(flat, n, assigned))


def _relabelings(flat, n, width):
    """The first width cells of every relabeling of a flat cube, in slabs.

    Row r covers the r-th permutation perm in lexicographic order, with
    inverse inv: cell (i, j, k) holds perm[flat[(inv[i]*n + inv[j])*n + inv[k]]],
    or -1 where that source cell is -1 (unassigned).  A slab holds at most
    _SLAB elements and at least one permutation; permutations are streamed,
    so nothing n!-sized is built or kept.
    """
    perms = permutations(range(n))
    while len(perm := np.array(list(islice(perms, max(1, _SLAB // n ** 3))), dtype=np.int64)):
        inv = np.argsort(perm, axis=1)
        cells = (inv[:, :, None, None] * n + inv[:, None, :, None]) * n + inv[:, None, None, :]
        src = flat[cells.reshape(len(perm), -1)[:, :width]]
        yield np.where(src < 0, -1, perm[np.arange(len(perm))[:, None], src])


def _precedes(rows, ref):
    """Which rows, at the first cell where they differ from ref, are assigned and smaller."""
    first = (rows != ref).argmax(axis=1)
    at = rows[np.arange(len(rows)), first]
    return (at >= 0) & (at < ref[first])


def all_group_tables(n):
    """Every Cayley table on n labeled points that satisfies the group axioms.

    Candidates are scanned in slabs in lexicographic order; only Latin
    squares, whose rows and columns are permutations, go on to the group
    constructor, which alone decides what is a group.
    """
    out = []
    if n == 0:
        return out
    ar = np.arange(n)
    for flat in _product_slabs(n, n * n, n * n):
        mul = flat.reshape(-1, n, n)
        latin = (np.sort(mul, axis=1) == ar[:, None]).all(axis=(1, 2)) & \
                (np.sort(mul, axis=2) == ar).all(axis=(1, 2))
        for m in mul[latin]:
            try:
                out.append(FiniteGroup.from_mul(m))
            except LawError:
                continue
    return out


def enumerate_heaps(n, up_to_iso=False, budget=None):
    """All heap tables on {0..n-1}, checked against the group oracle.

    Route one searches tables directly, backtracking with the biunitary
    cells pre-forced.  Route two heapifies every group table on the
    carrier and deduplicates.  For n >= 1 the two routes must agree
    exactly; n = 0 is the lone exception, since the empty semiheap is
    vacuously a heap but arises from no group.  A partial (budget-limited)
    result skips the cross-route assertion.
    """
    if n == 0:
        return EnumerationResult(
            [FiniteSemiheap(TernaryTable(np.zeros((0, 0, 0), dtype=np.int64)), _certified=True)], True)
    if n >= 4:
        raise BudgetExceeded(f"direct heap search not implemented for n={n}")
    deadline = _deadline(budget)
    direct, complete = _heap_search(n, deadline)
    if not complete:
        return EnumerationResult(
            [FiniteSemiheap(t, _certified=True) for t in direct], False)
    via_groups = {}
    for g in all_group_tables(n):
        t = heapify(g).semiheap.table
        via_groups[t.flat()] = t
    direct_keys = {t.flat() for t in direct}
    if direct_keys != set(via_groups):
        raise AssertionError("direct heap search and the group oracle must produce the same tables")
    tables = [TernaryTable.from_flat(n, flat) for flat in sorted(direct_keys)]
    if up_to_iso:
        return iso_classes(tables, deadline)
    return EnumerationResult([FiniteSemiheap(t, _certified=True) for t in tables], True)


def _heap_search(n, deadline):
    # Biunitarity forces the cells (y,x,x) = y and (x,x,y) = y; at n = 3
    # only the 12 cells with pairwise-distinct middle patterns remain.
    cube = np.full((n, n, n), -1, dtype=np.int64)
    x, y = np.indices((n, n))
    cube[y, x, x] = y
    cube[x, x, y] = y
    return _search(cube, deadline)


def relabel(table, perm):
    """Transport a table along the carrier relabeling x -> perm[x]."""
    p = np.asarray(perm, dtype=np.int64)
    n = table.n
    out = np.empty_like(table.entries)
    out[np.ix_(p, p, p)] = p[table.entries]
    return TernaryTable(out) if n else table


def canonical_form(table, deadline=None):
    """The lexicographically least relabeling of the table.

    Idempotent and relabeling-invariant; two tables are isomorphic iff
    their canonical forms are equal.  All n! relabelings are compared a
    slab at a time, so time grows as n! * n^3 and memory stays O(_SLAB).
    Once deadline, a time.time() reading, has passed it returns None.
    """
    n = table.n
    if n <= 1:
        return table
    best = table.entries.reshape(-1)
    for rows in _relabelings(best, n, n ** 3):
        if _expired(deadline):
            return None
        # Keep only the rows below the best so far; each pass lowers best.
        while (below := _precedes(rows, best)).any():
            rows = rows[below]
            best = rows[0]
    return TernaryTable(best.reshape(n, n, n))


def are_isomorphic(s, s2):
    if s.n != s2.n:
        return False
    return canonical_form(s.table).flat() == canonical_form(s2.table).flat()
