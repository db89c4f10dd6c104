"""Exhaustive and backtracking enumeration of ternary structures.

Two independent pipelines produce semiheaps on a small carrier: a plain
filter over every table, and a cell-by-cell backtracking search that
propagates the values its assigned cells force and prunes on the first
contradiction and on every prefix a relabeling precedes, finding one table
per class, whose orbits are the labeled tables.  Their outputs must agree
as sets; the tests hold them to that, and the labeled tables to the search
without symmetry break and to a plain non-propagating backtracker for n <= 3.

Heaps run through the same class search, with the biunitary cells forced
at the root, and their classes are checked against the canonical forms of
the heapified groups of the order in the bundled corpus.  No count is
hardcoded anywhere — every number in the tests was produced by one of
these oracle routes and pinned as a regression value.
"""

import time
from dataclasses import dataclass
from functools import cache
from itertools import islice, permutations, product as iproduct

import numpy as np

from .core import _SLAB, FiniteSemiheap, TernaryTable
from .functors import heapify
from .groups import corpus

# groups.corpus() holds every group up to this order; order 8 lacks Z4xZ2 and Z2^3.
_CORPUS_COMPLETE_UP_TO = 7


class Unsupported(ValueError):
    """Raised for a census this program declines by design, whatever the budget."""


@dataclass
class SearchStats:
    """What a backtracking search did.

    nodes counts the values tried at branch cells, rounds the propagation
    passes over every para-associativity instance, forced the cells those
    passes set, conflicts the propagations that met a contradiction, and
    symmetry_prunes the nodes cut because a relabeling precedes them.  A
    labeled census reports the search for its classes.
    """

    nodes: int = 0
    rounds: int = 0
    forced: int = 0
    conflicts: int = 0
    symmetry_prunes: int = 0


class EnumerationResult(list):
    """A list of results plus a completeness flag.

    A partial result (budget ran out) is explicit: it still carries
    everything found, but `complete` is False and no count claim is made.
    stats is the SearchStats of the class search behind the result, and
    classes the canonical table of each class it found, in order; both
    are None where no search ran (the filter pipeline).
    """

    def __init__(self, items, complete, stats=None, classes=None):
        super().__init__(items)
        self.complete = complete
        self.stats = stats
        self.classes = classes


def enumerate_semiheaps(n, up_to_iso=False, method="backtrack", budget=None):
    """All semiheap tables on {0..n-1}, in lexicographic table order.

    method "filter" checks every n^(n^3) table (_filter_pipeline; its
    tables go through iso_classes for up_to_iso); "backtrack" is the class
    census (_census) on the empty cube.  budget is a wall-clock limit in
    seconds; when it runs out the result is returned as found so far,
    flagged incomplete.
    """
    if method not in ("filter", "backtrack"):
        raise ValueError(f"unknown method {method!r}")
    deadline = _deadline(budget)
    if method == "backtrack" or n == 0:
        return _census(np.full((n, n, n), -1, dtype=np.int64), up_to_iso, deadline)
    tables, complete = _filter_pipeline(n, deadline)
    if up_to_iso:                               # the found tables' orbits are swept whole, as _census does
        return EnumerationResult(iso_classes(tables), complete)
    return EnumerationResult([FiniteSemiheap(t, _certified=True) for t in tables], complete)


def _census(root, up_to_iso, deadline):
    """The para-associative completions of root: one canonical table per class, or their orbits.

    root's constraints must be invariant under relabeling, as the lex-leader
    break needs.  Each class's orbit is gathered as the search emits the
    class, within its deadline, so a partial result holds whole orbits.
    The empty carrier is complete even at budget 0.
    """
    classes, orbits = [], {}

    def emit(table):
        classes.append(FiniteSemiheap(table, _certified=True))
        if not up_to_iso:
            _add_orbit(orbits, table)

    _, complete, stats = _search(root, deadline if root.size else None, True, emit)
    items = classes if up_to_iso else [FiniteSemiheap(orbits[key], _certified=True) for key in sorted(orbits)]
    return EnumerationResult(items, complete, stats, classes)


def iso_classes(tables, deadline=None):
    """The canonical form of each isomorphism class among tables, in order of first appearance.

    A table in no orbit seen so far starts a class: canonical_form gathers
    its orbit once, and the later tables among the orbit's rows are
    skipped.  For tables in lexicographic order the first member seen of
    a complete class is its canonical form.  deadline is a time.time()
    reading; once it has passed, the classes found so far are returned,
    flagged incomplete.
    """
    tables = list(tables)
    # int8 keys of the input tables only (values < 128 wherever n! is in reach)
    unseen, keep = {bytes(t.entries.astype(np.int8)) for t in tables}, []
    for t in tables:
        if (key := bytes(t.entries.astype(np.int8))) in unseen:
            unseen.discard(key)                 # for n <= 1 the table is its orbit
            c = canonical_form(t, deadline, lambda rows: unseen.difference_update(map(bytes, rows.astype(np.int8))))
            if c is None:
                return EnumerationResult(keep, False)
            keep.append(FiniteSemiheap(c, _certified=True))
    return EnumerationResult(keep, True)


def _deadline(budget):
    # time.time(), the clock of the deadlines callers pass in; a clock step moves it.
    return None if budget is None else time.time() + budget


def _expired(deadline):
    return deadline is not None and time.time() > deadline


def _filter_pipeline(n, deadline):
    """Para-associative tables on n >= 1 points in itertools.product order, checked in stacks of at most
    max(1, _SLAB // n^5) whole tables with the deadline read before each; the three-form gather is the
    filter's own, not _quintuple_reads, so it stays independent of the search it cross-checks."""
    x1, x2, x3, x4, x5 = np.indices((n,) * 5).reshape(5, -1)
    candidates, out = iproduct(range(n), repeat=n ** 3), []
    while len(t := np.array(list(islice(candidates, max(1, _SLAB // n ** 5))), dtype=np.int64)):
        if _expired(deadline):
            return out, False
        t, k = t.reshape(-1, n, n, n), np.arange(len(t))[:, None]
        middle = t[k, x1, t[:, x4, x3, x2], x5]
        law = (t[k, t[:, x1, x2, x3], x4, x5] == middle) & (middle == t[k, x1, x2, t[:, x3, x4, x5]])
        out += map(TernaryTable, t[law.all(axis=1)])
    return out, True


def _add_orbit(orbits, table):
    """Key every relabeling of table by its cells as bytes, which sort as the tables do."""
    n = table.n
    for rows in _relabelings(table.entries.reshape(-1), n, n ** 3):
        for row in rows.astype(np.uint8):       # values below 256
            if (key := row.tobytes()) not in orbits:
                orbits[key] = TernaryTable(row.reshape(n, n, n))


def _search(cube, deadline, symmetry_break=False, emit=None):
    """Every para-associative completion of cube, in lexicographic order.

    The assigned cells of cube are forced at the root.  Each node
    propagates the values its assigned cells force (_propagate), then
    branches on the first unassigned cell in flat order, values
    ascending, so tables come out in lexicographic order.  With
    symmetry_break a node is cut when a relabeling precedes its assigned
    prefix; forced cells can lie past the last branch, so a complete table
    is tested whole.  Returns (tables, complete, stats), complete False
    once the _deadline has passed; emit, if given, takes each table instead.
    Unassigned cells of cube read -1; the search pads it to (n+1)^3 cells,
    where an unassigned cell reads n and a pad cell (a coordinate n) n + 1.
    """
    n = cube.shape[0]
    flat = np.pad(np.where(cube < 0, n, cube), (0, 1), constant_values=n + 1).reshape(-1)
    index = np.flatnonzero(flat <= n)           # the n^3 cells in flat order
    stats, out = SearchStats(), []
    emit = emit or out.append

    def visit():
        if _expired(deadline):
            return False
        consistent, forced = _propagate(flat, n, stats)
        cells = flat[index]
        free = np.flatnonzero(cells == n)
        cell = free[0] if free.size else n ** 3   # the assigned prefix ends here
        complete = True
        if not consistent:
            stats.conflicts += 1
        elif symmetry_break and cell and (dominated := _prefix_dominated(cells, cell, n, deadline)) is not False:
            complete = dominated is True        # None: the deadline passed mid-check
            stats.symmetry_prunes += complete
        elif not free.size:
            emit(TernaryTable(cells.reshape(n, n, n)))
        else:
            for v in range(n):
                stats.nodes += 1
                flat[index[cell]] = v
                if not (complete := visit()):
                    break
            flat[index[cell]] = n
        flat[forced] = n
        return complete

    return out, visit(), stats


@cache
def _quintuple_reads(n):
    """Where the three forms of each quintuple read the padded (n+1)^3 cube, one slab at a time; kept per n.

    For the forms [[x1,x2,x3],x4,x5], [x1,[x4,x3,x2],x5] and [x1,x2,[x3,x4,x5]],
    row k of inner holds the flat index of the inner product, and the outer
    product of value v sits at v * scale[k] + outer[k], with strides n + 1,
    so an unassigned inner value n lands on a pad.  A slab holds every x1
    when all n^5 quintuples fit in _SLAB, else one x1; the next slab reads
    (n+1)^2 further on wherever x1 enters, which is advance.
    """
    rows, m = (n if 0 < n ** 5 <= _SLAB else 1), n + 1
    x1, x2, x3, x4, x5 = np.indices((rows, n, n, n, n)).reshape(5, -1)
    inner = np.stack([(x1 * m + x2) * m + x3, (x4 * m + x3) * m + x2, (x3 * m + x4) * m + x5])
    outer = np.stack([x4 * m + x5, x1 * m * m + x5, (x1 * m + x2) * m])
    scale = np.array([[m * m], [m], [1]])
    advance = m * m * np.array([[[1], [0], [0]], [[0], [1], [1]]])
    return rows, inner, scale, outer, advance


def _propagate(flat, n, stats):
    """Force every cell the assigned cells of the flat padded cube of _search determine.

    In each para-associativity instance a form reads below n when its
    inner and outer cells are assigned (it evaluates), n when only its
    inner cell is, and a pad's n + 1 otherwise.  A form reading n must take
    the value of an evaluated form, the least read, so its outer cell is
    set.  Passes repeat until one sets nothing.  Returns (consistent,
    forced): consistent is False when two evaluated forms disagree or one
    pass forces a cell to two values, which dooms every completion; forced
    holds every cell set, also after a contradiction, for the caller to
    reset to n.
    """
    rows, inner, scale, outer, advance = _quintuple_reads(n)
    forced, free = [np.zeros(0, dtype=np.int64)], np.count_nonzero(flat == n)
    consistent = progress = True
    while consistent and progress:
        progress = False
        stats.rounds += 1
        reads, outs = inner, outer
        for start in range(0, n, rows):
            if start:
                reads, outs = reads + advance[0], outs + advance[1]
            at = flat[reads] * scale + outs
            v = flat[at]
            value = v.min(axis=0)
            if ((v != value) & (v < n)).any():
                consistent = False
                break
            form, q = np.nonzero((v == n) & (value < n))
            if q.size:
                cells, values = at[form, q], value[q]
                flat[cells] = values
                forced.append(cells)
                progress = True
                if (flat[cells] != values).any():   # a cell forced to two values
                    consistent = False
                    break
    stats.forced += int(free - np.count_nonzero(flat == n))
    return consistent, np.concatenate(forced)


def _prefix_dominated(cube, assigned, n, deadline=None):
    """True iff some relabeling precedes the first assigned cells of cube (n where unassigned),
    hence every completion; None, neither verdict, once deadline has passed between slabs."""
    flat = cube.reshape(-1)
    for rows in _relabelings(flat, n, assigned):
        if _expired(deadline):
            return None
        if _precedes(rows, flat[:assigned]).any():
            return True
    return False


def _relabelings(flat, n, width):
    """The first width cells of every relabeling of a flat cube, in slabs.

    Row r covers the r-th permutation perm in lexicographic order, with
    inverse inv: cell (i, j, k) holds perm[flat[(inv[i]*n + inv[j])*n + inv[k]]],
    where perm is padded with perm[n] = n, so an unassigned cell (n) stays
    unassigned.  A slab holds at most _SLAB elements and at least one
    permutation.  The slabs' permutations and cell indices are cached up
    to n = 6 (1.2 MiB there) and streamed beyond, where nothing n!-sized
    is built or kept.
    """
    for perm, cells in _cached_slabs(n) if n <= 6 else _relabeling_slabs(n):
        yield perm[np.arange(len(perm))[:, None], flat[cells[:, :width]]]


@cache
def _cached_slabs(n):
    return list(_relabeling_slabs(n))


def _relabeling_slabs(n):
    """Each slab's permutations, and the flat source cell of every relabeled cell."""
    perms = permutations(range(n))
    while len(perm := np.array(list(islice(perms, max(1, _SLAB // max(1, n ** 3)))), dtype=np.int64)):
        inv = np.argsort(perm, axis=1)
        cells = (inv[:, :, None, None] * n + inv[:, None, :, None]) * n + inv[:, None, None, :]
        yield np.column_stack((perm, np.full(len(perm), n))), cells.reshape(len(perm), -1)


def _precedes(rows, ref):
    """Which rows, at the first cell where they differ from ref, are smaller (an unassigned n never is)."""
    first = (rows != ref).argmax(axis=1)
    return rows[np.arange(len(rows)), first] < ref[first]


def enumerate_heaps(n, up_to_iso=False, budget=None):
    """All heap tables on {0..n-1}, or one per class, checked against the group route.

    The class census (_census) runs with the biunitary cells forced.  On a
    complete run its classes must be, in order, the canonical forms of the
    heapified groups of order n in groups.corpus(); n = 0 is the lone
    exception, since the empty semiheap arises from no group.  The corpus
    holds every group only up to order 7, so larger n raises Unsupported.
    """
    if n > _CORPUS_COMPLETE_UP_TO:
        raise Unsupported(f"heap census not supported for n={n}: the group corpus is complete "
                          f"only up to order {_CORPUS_COMPLETE_UP_TO}")
    cube = np.full((n, n, n), -1, dtype=np.int64)
    x, y = np.indices((n, n))
    cube[y, x, x] = y                           # biunitarity: [y,x,x] = y = [x,x,y]
    cube[x, x, y] = y
    found = _census(cube, up_to_iso, _deadline(budget))
    if found.complete and n and [s.table.flat() for s in found.classes] != sorted(
            canonical_form(heapify(g).semiheap.table).flat() for g in corpus() if g.n == n):
        raise AssertionError("the heap classes must be the canonical forms of the heapified corpus groups")
    return found


def canonical_form(table, deadline=None, gathered=lambda rows: None):
    """The lexicographically least relabeling of the table.

    Idempotent and relabeling-invariant; two tables are isomorphic iff
    their canonical forms are equal.  All n! relabelings are compared a
    slab at a time, so time grows as n! * n^3 and memory stays O(_SLAB);
    gathered is handed each slab first.  Once deadline, a time.time()
    reading, has passed it returns None.
    """
    n = table.n
    if n <= 1:
        return table
    best = table.entries.reshape(-1)
    for rows in _relabelings(best, n, n ** 3):
        if _expired(deadline):
            return None
        gathered(rows)
        # Keep only the rows below the best so far; each pass lowers best.
        while (below := _precedes(rows, best)).any():
            rows = rows[below]
            best = rows[0]
    return TernaryTable(best.reshape(n, n, n))


def are_isomorphic(s, s2):
    if s.n != s2.n:
        return False
    return canonical_form(s.table).flat() == canonical_form(s2.table).flat()
