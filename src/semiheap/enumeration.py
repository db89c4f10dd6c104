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

from .core import _SLAB, FiniteSemiheap, TernaryTable, Unsupported, _cell_bytes, _cell_dtype, _slab_rows
from .functors import heapify
from .groups import corpus

# groups.corpus() holds every group up to this order; order 8 lacks Z4xZ2 and Z2^3.
_CORPUS_COMPLETE_UP_TO = 7
_SEMIHEAPS_BELOW = 12      # from here one x1 of _quintuple_reads, n^4 quintuples, overflows a slab: 12^4 > 2^14


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
    seconds (nan raises ValueError); when it runs out the result is
    returned as found so far, flagged incomplete.  n >= 12 raises
    Unsupported for either method and any budget, before anything is built.
    """
    if method not in ("filter", "backtrack") or n < 0:
        raise ValueError(f"unknown method {method!r}" if n >= 0 else f"n must be at least 0, got n={n}")
    if n >= _SEMIHEAPS_BELOW:
        raise Unsupported(f"semiheap census not supported for n={n}: bounded memory needs n < {_SEMIHEAPS_BELOW}")
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
    break needs.  A partial result holds whole orbits, since each search step
    gathers those of the classes it completes; n = 0 is complete at budget 0.
    """
    orbits = None if up_to_iso else {}
    classes, complete, stats = _search(root, deadline if root.size else None, True, orbits)
    items = classes if up_to_iso else [orbits[key] for key in sorted(orbits)]
    return EnumerationResult(items, complete, stats, classes)


def _semiheaps(keys, n):
    """The certified semiheaps of a list of _cell_bytes keys of n-point tables, checked as one TernaryTable.stack."""
    cells = np.frombuffer(b"".join(keys), _cell_dtype(n)).reshape(len(keys), n, n, n)
    return [FiniteSemiheap(t, _certified=True) for t in TernaryTable.stack(cells)]


def iso_classes(tables, deadline=None):
    """The canonical form of each isomorphism class among tables, in order of first appearance.

    A table whose key is in no orbit seen so far starts a class: _sweep
    reads its orbit's keys once, all marked seen, the least the class's
    canonical form.  deadline is a time.time() reading; once it has
    passed, the classes found so far are returned, flagged incomplete.
    """
    seen, keep = set(), []
    for t in tables:
        if t.key() not in seen:
            for keys, least in _sweep(t):
                if _expired(deadline):
                    return EnumerationResult(keep, False)
                seen.update((t.n, key) for key in keys)
            keep.append(FiniteSemiheap(TernaryTable(least), _certified=True))
    return EnumerationResult(keep, True)


def _deadline(budget):
    # time.time(), the clock of the deadlines callers pass in; a clock step moves it.
    if budget is not None and np.isnan(budget):
        raise ValueError("budget must be a number of seconds, got nan")   # a nan deadline never passes
    return None if budget is None else time.time() + budget


def _expired(deadline):
    return deadline is not None and time.time() > deadline


def _filter_pipeline(n, deadline):
    """Para-associative tables on n >= 1 points in itertools.product order, checked in stacks of at most
    _slab_rows(n^5, _SLAB) whole tables with the deadline read before each; the three-form gather is the
    filter's own, not _quintuple_reads, so it stays independent of the search it cross-checks."""
    x1, x2, x3, x4, x5 = np.indices((n,) * 5).reshape(5, -1)
    candidates, out = iproduct(range(n), repeat=n ** 3), []
    while len(t := np.array(list(islice(candidates, _slab_rows(n ** 5, _SLAB))), dtype=np.int64)):
        if _expired(deadline):
            return out, False
        t, k = t.reshape(-1, n, n, n), np.arange(len(t))[:, None]
        middle = t[k, x1, t[:, x4, x3, x2], x5]
        law = (t[k, t[:, x1, x2, x3], x4, x5] == middle) & (middle == t[k, x1, x2, t[:, x3, x4, x5]])
        out += TernaryTable.stack(t[law.all(axis=1)])
    return out, True


def _search(cube, deadline, symmetry_break=False, orbits=None):
    """Every para-associative completion of cube, in lexicographic order.

    The search tree is fixed: the assigned cells of cube are forced at the
    root, each node propagates the values its assigned cells force
    (_propagate), then branches on the first unassigned cell in flat
    order, one child per value.  With symmetry_break a node is cut when a
    relabeling precedes its assigned prefix; forced cells can lie past the
    last branch, so a complete table is tested whole.  Each node is its
    own copy of the padded cube.  The nodes wait on a stack, the lex-least
    on top, and each step takes up to _slab_rows(n^5, _SLAB) of them off it,
    propagates and tests them as one stack and pushes their children;
    stats count each node as a step of one node would.  Returns (semiheaps,
    complete, stats), the semiheaps sorted, complete False once the _deadline
    has passed: a stopped search returns those it found, which need not be
    the lex-first ones.  Complete tables are kept as keys and made semiheaps
    at the end; orbits, if given, is a dict each step adds every new relabeling
    of its complete tables to, by key, as a semiheap, within the budget.
    Unassigned cells of cube read -1; the search pads it to (n+1)^3 cells,
    where an unassigned cell reads n and a pad cell (a coordinate n) n + 1.
    """
    n = cube.shape[0]
    root = np.pad(np.where(cube < 0, n, cube), (0, 1), constant_values=n + 1).reshape(-1)
    root = root.astype(np.min_scalar_type(n + 1))   # narrow: propagation gathers each cell many times
    index = np.flatnonzero(root <= n)           # the n^3 cells in flat order
    step = _slab_rows(n ** 5, _SLAB)
    stats, found, stack, complete = SearchStats(), set(), root[None], True
    while len(stack) and (complete := not _expired(deadline)):
        nodes, stack = stack[:-step - 1:-1].copy(), stack[:-step]   # the top of the stack first
        consistent = _propagate(nodes, n, stats)
        stats.conflicts += int(len(nodes) - np.count_nonzero(consistent))
        nodes = nodes[consistent]
        cells = nodes[:, index]
        width = (cells < n).cumprod(axis=1).sum(axis=1)    # the assigned prefixes
        if symmetry_break and width.any():
            if (dominated := _prefix_dominated(cells, width, n, deadline)) is None:
                complete = False                # the deadline passed mid-check
                break
            stats.symmetry_prunes += int(dominated.sum())
            nodes, cells, width = nodes[~dominated], cells[~dominated], width[~dominated]
        if len(done := cells[width == n ** 3]):
            found.update(_cell_bytes(done, n))
            for rows in _relabelings(done, n, n ** 3) if orbits is not None else ():
                new = list(set(_cell_bytes(rows.reshape(len(done) * rows.shape[1], -1), n)).difference(orbits))
                orbits.update(zip(new, _semiheaps(new, n)))
        parents = width < n ** 3
        children = nodes[parents].repeat(n, axis=0)     # each parent's n children take 0..n-1 at its branch cell
        children[np.arange(len(children)), index[width[parents]].repeat(n)] = np.arange(len(children)) % n
        stats.nodes += len(children)
        stack = np.concatenate([stack, children[::-1]])     # the lex-least child on top
    return _semiheaps(sorted(found), n), complete, stats


@cache
def _quintuple_reads(n):
    """Where the three forms of each quintuple read the padded (n+1)^3 cube, one slab at a time; kept per n.

    For the forms [[x1,x2,x3],x4,x5], [x1,[x4,x3,x2],x5] and [x1,x2,[x3,x4,x5]],
    the outer product of inner value v sits at v * scale[k] + outer[k], with
    strides n + 1, so an unassigned inner value n lands on a pad; row k of
    inner reads v * scale[k] from the three scaled cubes, stacked on axis 0.
    A slab holds every x1 when all n^5 quintuples fit in _SLAB, else one
    x1; the next slab reads (n+1)^2 further on where x1 enters: advance.
    """
    rows, m = (n if 0 < n ** 5 <= _SLAB else 1), n + 1
    x1, x2, x3, x4, x5 = np.indices((rows, n, n, n, n)).reshape(5, -1)
    inner = np.stack([(x1 * m + x2) * m + x3, ((x4 + m) * m + x3) * m + x2, ((x3 + 2 * m) * m + x4) * m + x5])
    outer = np.stack([x4 * m + x5, x1 * m * m + x5, (x1 * m + x2) * m])
    scale, advance = np.array([[m * m], [m], [1]]), m * m * np.array([[[1], [0], [0]], [[0], [1], [1]]])
    return rows, inner, scale, outer, advance


def _propagate(nodes, n, stats):
    """Force every cell the assigned cells determine, in each row of a stack of flat padded cubes of _search.

    In each para-associativity instance a form reads below n when its
    inner and outer cells are assigned (it evaluates), n when only its
    inner cell is, and a pad's n + 1 otherwise.  A form reading n must take
    the value of an evaluated form, the least read, so its outer cell is
    set.  A row meets a contradiction, which dooms every completion, when
    two evaluated forms disagree, and then sets nothing in that slab, or
    when one slab forces a cell to two values.  Each pass reads the live
    rows slab by slab; a row leaves at its contradiction, reading no later
    slab, or after a pass that set nothing in it.  stats count each row as
    a stack of that row alone would.  Returns which rows stayed consistent.
    """
    rows, inner, scale, outer, advance = _quintuple_reads(n)
    flat, size = nodes.reshape(-1), nodes.shape[1]
    free = np.count_nonzero(nodes == n)
    consistent, live = np.ones(len(nodes), dtype=bool), np.arange(len(nodes))
    while live.size:
        stats.rounds += live.size
        progress = np.zeros(len(nodes), dtype=bool)
        reads, outs, offset = inner, outer, live[:, None, None] * size     # where each row starts in flat
        for start in range(0, n, rows):
            if start:
                reads, outs = reads + advance[0], outs + advance[1]
            at = (nodes[live, None] * scale + offset).reshape(len(live), -1).take(reads, axis=1)
            at += outs                                          # (live row, form, quintuple)
            v = flat.take(at)
            value = v.min(axis=1, keepdims=True)
            consistent[live[((v != value) & (v < n)).any(axis=(1, 2))]] = False   # evaluated forms disagree
            if not (keep := consistent[live]).all():    # such rows, and those of a clash before, set nothing
                live, offset, at, v, value = live[keep], offset[keep], at[keep], v[keep], value[keep]
                if not live.size:
                    break
            force = (v == n) & (value < n)
            cells, values = at[force], value.repeat(3, axis=1)[force]
            flat[cells] = values
            progress[row := cells // size] = True
            consistent[row[flat[cells] != values]] = False     # a cell forced to two values
        live = (progress & consistent).nonzero()[0]
    stats.forced += int(free - np.count_nonzero(nodes == n))
    return consistent


def _prefix_dominated(cubes, widths, n, deadline=None):
    """Which rows of a stack of flat cubes (n where unassigned) some relabeling precedes in their
    first widths cells, hence in every completion; a row of width 0 never is, and some width must
    be above 0.  None, no verdict, once deadline has passed between slabs, which stop once every
    row is dominated."""
    width = widths.max()
    # Past its width a row's reference reads 0, which no relabeled cell is below.
    refs = np.where(np.arange(width) < widths[:, None], cubes[:, :width], 0)
    k = np.arange(len(cubes))[:, None]
    dominated = np.zeros(len(cubes), dtype=bool)
    for rows in _relabelings(cubes, n, width):
        if _expired(deadline):
            return None
        first = (rows != refs[:, None]).argmax(axis=2)
        dominated |= (rows[k, np.arange(rows.shape[1]), first] < refs[k, first]).any(axis=1)
        if dominated.all():
            break
    return dominated


def _relabelings(flat, n, width):
    """The first width cells of every relabeling of a flat cube, or of each cube of a stack, in slabs.

    Row r covers the r-th permutation perm in lexicographic order, with
    inverse inv: cell (i, j, k) holds perm[flat[(inv[i]*n + inv[j])*n + inv[k]]],
    where perm is padded with perm[n] = n, so an unassigned cell (n) stays
    unassigned.  A slab holds at most _SLAB elements and at least one
    permutation.  The slabs' permutations and cell indices are cached up
    to n = 6 (1.2 MiB there) and streamed beyond, where nothing n!-sized
    is built or kept.
    """
    for perm, cells in _cached_slabs(n) if n <= 6 else _relabeling_slabs(n):
        labels = np.arange(0, perm.size, n + 1)[:, None]     # where each padded permutation starts in perm.flat
        yield perm.reshape(-1).take(flat.take(cells[:, :width], axis=-1) + labels)


@cache
def _cached_slabs(n):
    return list(_relabeling_slabs(n))


def _relabeling_slabs(n):
    """Each slab's permutations, and the flat source cell of every relabeled cell."""
    perms = permutations(range(n))
    labels = np.min_scalar_type(n)      # narrow, as the search's cubes are: rows compare with them
    while len(perm := np.array(list(islice(perms, _slab_rows(n ** 3, _SLAB))), dtype=labels)):
        inv = np.argsort(perm, axis=1)
        cells = (inv[:, :, None, None] * n + inv[:, None, :, None]) * n + inv[:, None, None, :]
        yield np.column_stack((perm, np.full(len(perm), n, dtype=labels))), cells.reshape(len(perm), -1)


def enumerate_heaps(n, up_to_iso=False, budget=None):
    """All heap tables on {0..n-1}, or one per class, checked against the group route.

    The class census (_census) runs with the biunitary cells forced.  On a
    complete run its classes must be, in order, the canonical forms of the
    heapified groups of order n in groups.corpus(); n = 0 is the lone
    exception, since the empty semiheap arises from no group.  The corpus
    holds every group only up to order 7, so larger n raises Unsupported.
    """
    if not 0 <= n <= _CORPUS_COMPLETE_UP_TO:
        raise ValueError(f"n must be at least 0, got n={n}") if n < 0 else Unsupported(
            f"heap census not supported for n={n}: the group corpus is complete "
            f"only up to order {_CORPUS_COMPLETE_UP_TO}")
    cube = np.full((n, n, n), -1, dtype=np.int64)
    x, y = np.indices((n, n))
    cube[y, x, x] = y                           # biunitarity: [y,x,x] = y = [x,x,y]
    cube[x, x, y] = y
    found = _census(cube, up_to_iso, _deadline(budget))
    if found.complete and n and [s.key() for s in found.classes] != sorted(
            canonical_form(heapify(g).semiheap.table).key() for g in corpus() if g.n == n):
        raise AssertionError("the heap classes must be the canonical forms of the heapified corpus groups")
    return found


def canonical_form(table):
    """The relabeling of the table with the least key (TernaryTable.key), the lexicographically least.

    Idempotent and relabeling-invariant; two tables are isomorphic iff
    their canonical forms are equal (are_isomorphic needs one sweep, not
    two).  All n! relabelings are swept a slab at a time (_sweep), with no
    deadline, so time grows as n! * n^3 and memory stays O(_SLAB).
    """
    for _, least in _sweep(table):
        pass
    return TernaryTable(least)


def _sweep(table):
    """table's relabelings a slab at a time (_relabelings): each slab's keys (_cell_bytes), and the least cube yet."""
    n, least = table.n, None
    for rows in _relabelings(table.entries.reshape(-1), n, n ** 3):
        key = min(keys := _cell_bytes(rows, n))
        if least is None or key < least[0]:
            least = key, rows[keys.index(key)].reshape(n, n, n)
        yield keys, least[1]


def are_isomorphic(s, s2):
    """Whether s2.table is a relabeling of s.table: one _sweep of s's, stopped at the first slab holding s2's key."""
    n, cells = s2.table.key()
    return n == s.table.n and any(cells in keys for keys, _ in _sweep(s.table))
