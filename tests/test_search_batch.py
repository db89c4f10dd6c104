"""The slabbed search layer against loop oracles.

Hom-set classification, partial-cube propagation, group-table scans and
the centric-closure search each classify many candidates per array
operation; these tests hold them to plain loops, in order and type.
"""

import os
import subprocess
import sys
import time
import tracemalloc
from itertools import permutations, product as iproduct
from pathlib import Path

import numpy as np
import pytest

import semiheap
from oracles import (
    all_group_tables,
    backtrack_loops,
    canonical_loops,
    centric_nonclosure_loops,
    fully_faithful_loops,
    fully_faithful_scan,
    partial_consistent_loops,
    prefix_dominated_loops,
    propagate_loops,
    relabel_loops,
)
from semiheap import enumeration
from semiheap.core import _SLAB, TernaryTable, relabel
from semiheap.enumeration import (
    SearchStats,
    _propagate,
    _relabelings,
    _prefix_dominated,
    canonical_form,
    enumerate_heaps,
    enumerate_semiheaps,
    iso_classes,
)
from semiheap.functors import _completing_levels, check_fully_faithful, heapify
from semiheap.groups import FiniteGroup, LawError
from semiheap.translations import centric_nonclosure_witness


def _relabeled_group(g, perm):
    """The group transported along x -> perm[x]."""
    perm = np.asarray(perm)
    inv = np.argsort(perm)
    return FiniteGroup.from_mul(perm[g.mul[np.ix_(inv, inv)]], name=g.name)


def _identity_moved(g, rng):
    """A seeded relabeling of g whose identity is not 0, so instances naming it complete late."""
    perm = rng.permutation(g.n)
    while g.n > 1 and perm[g.e] == 0:
        perm = rng.permutation(g.n)
    return _relabeled_group(g, perm)


def test_every_law_instance_completes_at_exactly_one_level(corpus):
    # The group instances (x, y) -> mul[x, y] and heap instances
    # (x, y, z) -> t[x, y, z] split into levels without loss or repeat, and
    # level k holds those whose largest named element is k.
    rng = np.random.default_rng(20262)
    for g in corpus + [_identity_moved(g, rng) for g in corpus]:
        t = heapify(g).semiheap.table.entries
        for table in (g.mul, t):
            instances = np.column_stack([np.indices(table.shape).reshape(table.ndim, -1).T, table.reshape(-1)])
            levels = _completing_levels(table)
            assert len(levels) == g.n
            split = np.vstack([np.column_stack([a, o]) for a, o in levels])
            assert sorted(map(tuple, split.tolist())) == sorted(map(tuple, instances.tolist()))
            for k, (a, o) in enumerate(levels):
                named = np.column_stack([a, o])
                assert (named.max(axis=1) == k).all()


def _padded(cube, n):
    """cube (-1 where unassigned) as a flat padded cube of _search."""
    padded = np.full((n + 1,) * 3, n + 1)
    padded[:n, :n, :n] = np.where(cube < 0, n, cube).reshape(n, n, n)
    return padded.reshape(-1)


def _cells(flat, n):
    """The n^3 cells of a flat padded cube, -1 where unassigned."""
    cells = flat.reshape((n + 1,) * 3)[:n, :n, :n].reshape(-1)
    return np.where(cells == n, -1, cells)


def _propagated(cube, n):
    """Propagate cube (-1 where unassigned) as a stack of one padded cube of _search:
    (consistent, the cube reached with -1 where unassigned, the cells forced)."""
    nodes, stats = _padded(cube, n)[None], SearchStats()
    consistent = _propagate(nodes, n, stats)
    return bool(consistent[0]), _cells(nodes[0], n), stats.forced


def test_partial_consistent_matches_loops_on_random_partial_cubes():
    # Propagation meets a contradiction exactly when the loop oracle's
    # fixpoint does, and otherwise reaches the same cube; a cube whose
    # evaluable forms already disagree is always a contradiction.
    rng = np.random.default_rng(20221)
    verdicts, forcing = set(), set()
    for trial in range(1200):
        n = 1 + trial % 4
        cube = rng.integers(0, n, size=(n, n, n))
        flat = cube.reshape(-1)
        flat[int(rng.integers(0, n ** 3 + 1)):] = -1           # a backtracking prefix
        if trial % 3:
            flat[rng.random(n ** 3) < rng.random()] = -1       # and scattered holes
        want = propagate_loops(flat.tolist(), n)
        consistent, reached, forced = _propagated(cube, n)
        assert consistent == (want is not None), (n, flat.tolist())
        if consistent:
            assert tuple(reached.tolist()) == want
        if not partial_consistent_loops(flat.tolist(), n):
            assert not consistent
        verdicts.add((n, consistent))
        forcing.add((n, consistent, forced > 0))
    assert verdicts == {(n, v) for n in (2, 3, 4) for v in (True, False)} | {(1, True)}
    assert {(n, v, True) for n in (2, 3, 4) for v in (True, False)} <= forcing


def test_partial_consistent_reads_every_slab():
    # At n = 7 the quintuples no longer fit one slab; a disagreement that
    # only the last x1 row can see must still be found.
    n = 7
    x = np.arange(n)
    heap = (x[:, None, None] - x[None, :, None] + x[None, None, :]) % n
    last_row = np.full((n, n, n), -1)
    last_row[n - 1] = heap[n - 1]
    bad_row = last_row.copy()
    bad_row[n - 1, n - 1, 1:3] = (2, 3)     # [6,6,[6,6,1]] = 3 but [[6,6,6],6,1] = 2
    holes = heap.copy()
    holes.reshape(-1)[np.random.default_rng(7).random(n ** 3) < 0.5] = -1
    for cube in (heap, last_row, bad_row, holes):
        consistent, reached, _ = _propagated(cube, n)
        want = propagate_loops(cube.reshape(-1).tolist(), n)
        assert consistent == (want is not None)
        assert not consistent or tuple(reached.tolist()) == want
    assert _propagated(heap, n)[0] and not _propagated(bad_row, n)[0]
    assert (_propagated(holes, n)[1] == heap.reshape(-1)).all()


@pytest.fixture
def slab(monkeypatch):
    """Set enumeration._SLAB for one test; the caches built from it are emptied as it is set and after."""
    def set_slab(size):
        monkeypatch.setattr(enumeration, "_SLAB", size)
        enumeration._quintuple_reads.cache_clear()
        enumeration._cached_slabs.cache_clear()
    yield set_slab
    enumeration._quintuple_reads.cache_clear()
    enumeration._cached_slabs.cache_clear()


def _assert_stack_matches_rows_alone(cubes, n):
    # Each row of one stacked propagation reaches what it reaches alone,
    # with the same verdict, the same forced cells and, summed, the same
    # rounds; a consistent row reaches the loop oracle's fixpoint.
    nodes, stats = np.array([_padded(c, n) for c in cubes]), SearchStats()
    consistent = _propagate(nodes, n, stats)
    alone = SearchStats()
    for cube, row, ok in zip(cubes, nodes, consistent):
        single, one = _padded(cube, n)[None], SearchStats()
        assert _propagate(single, n, one)[0] == ok
        assert (single[0] == row).all()
        alone.rounds, alone.forced = alone.rounds + one.rounds, alone.forced + one.forced
        want = propagate_loops(np.asarray(cube).reshape(-1).tolist(), n)
        assert ok == (want is not None)
        if ok:
            assert tuple(_cells(row, n).tolist()) == want
            assert one.forced == np.count_nonzero(np.asarray(cube).reshape(-1) < 0) - want.count(-1)
    assert (stats.rounds, stats.forced) == (alone.rounds, alone.forced)
    return consistent


@pytest.mark.parametrize("size", [None, 100])
def test_stacked_propagation_matches_each_row_alone(slab, size):
    # Random stacks of partial cubes, with all x1 in one slab and (size
    # 100) with one x1 per slab, so a row that conflicts stops reading
    # slabs while the others go on.
    if size:
        slab(size)
    rng = np.random.default_rng(20267)
    verdicts = set()
    for trial in range(300):
        n = 1 + trial % 4
        cubes = []
        for _ in range(int(rng.integers(1, 9))):
            cube = rng.integers(0, n, size=n ** 3)
            cube[int(rng.integers(0, n ** 3 + 1)):] = -1
            cube[rng.random(n ** 3) < rng.random()] = -1
            cubes.append(cube)
        consistent = _assert_stack_matches_rows_alone(cubes, n)
        verdicts.add((n, len(cubes) > 1, consistent.all(), consistent.any()))
    assert {(n, True, False, True) for n in (2, 3, 4)} <= verdicts


def test_stacked_propagation_stops_a_row_that_conflicts_in_its_first_slab():
    # At n = 7 every x1 is a slab.  Row 0 of bad disagrees in quintuple
    # (0,0,0,0,1), in the first slab: [0,0,[0,0,1]] = 3 but
    # [[0,0,0],0,1] = 2.  It sets nothing, while the heaps with holes
    # around it are forced whole, slab after slab.
    n = 7
    x = np.arange(n)
    heap = (x[:, None, None] - x[None, :, None] + x[None, None, :]) % n
    bad = np.full((n, n, n), -1)
    bad[0] = heap[0]
    bad[0, 0, 1:3] = (2, 3)
    rng = np.random.default_rng(20268)
    holes = [np.where(rng.random((n, n, n)) < 0.5, -1, heap) for _ in range(2)]
    for cubes in ([holes[0], bad, holes[1]], [bad, holes[0]], [holes[1], bad]):
        consistent = _assert_stack_matches_rows_alone(cubes, n)
        assert consistent.tolist() == [cube is not bad for cube in cubes]
    nodes = np.array([_padded(c, n) for c in (bad, holes[0])])
    _propagate(nodes, n, SearchStats())
    assert (_cells(nodes[0], n) == bad.reshape(-1)).all() and (_cells(nodes[1], n) == heap.reshape(-1)).all()


def test_stacked_propagation_stops_only_the_row_whose_cell_is_forced_twice():
    # In clash, [0,1,1] = 0, [1,0,1] = 1 and [1,1,0] = 0, and no two
    # evaluated forms disagree.  In its first pass quintuple (1,0,1,1,1)
    # forces [[1,0,1],1,1] = [1,1,1] to [1,[1,1,0],1] = [1,0,1] = 1, and
    # quintuple (1,1,0,1,1) forces [1,[1,0,1],1] = [1,1,1] to
    # [[1,1,0],1,1] = [0,1,1] = 0.  Only the row of that cell, found from
    # the cell's place in the stack, turns inconsistent; the rows around it
    # reach the loop oracle's fixpoint.
    n = 2
    clash = np.full(n ** 3, -1)
    clash[[3, 5, 6]] = (0, 1, 0)
    assert partial_consistent_loops(clash.tolist(), n) and propagate_loops(clash.tolist(), n) is None
    x = np.arange(n)
    heap = ((x[:, None, None] - x[None, :, None] + x[None, None, :]) % n).reshape(-1)
    holes = [np.where(np.arange(n ** 3) % k, -1, heap) for k in (2, 3)]
    for cubes in ([holes[0], clash, holes[1]], [holes[1], holes[0], clash], [heap, clash, clash, holes[0]]):
        consistent = _assert_stack_matches_rows_alone(cubes, n)
        assert consistent.tolist() == [cube is not clash for cube in cubes]


def test_propagation_never_contradicts_the_table():
    # Every value forced below a prefix of a semiheap is that semiheap's own.
    rng = np.random.default_rng(20231)
    forced_cells = 0
    for s in enumerate_semiheaps(3):
        table = s.table.entries.reshape(-1)
        for assigned in rng.integers(0, 28, size=4):
            cube = table.copy()
            cube[assigned:] = -1
            consistent, reached, forced = _propagated(cube, 3)
            assert consistent and (reached[reached >= 0] == table[reached >= 0]).all()
            forced_cells += forced
    assert forced_cells > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_matches_plain_backtracker(n):
    # The same tables in the same order as the search without propagation.
    for up_to_iso in (False, True):
        want = backtrack_loops([-1] * n ** 3, n, symmetry_break=up_to_iso)
        assert [s.table.flat() for s in enumerate_semiheaps(n, up_to_iso=up_to_iso)] == want
    x, y = np.indices((n, n))
    biunitary = np.full((n, n, n), -1)
    biunitary[y, x, x] = y
    biunitary[x, x, y] = y
    assert [s.table.flat() for s in enumerate_heaps(n)] == backtrack_loops(biunitary.reshape(-1).tolist(), n)


def test_n4_census_up_to_iso():
    # 416 classes, each its own canonical form; orbit-stabilizer gives the
    # labeled count 7,692 from their automorphism groups.
    classes = enumerate_semiheaps(4, up_to_iso=True)
    flats = [s.table.flat() for s in classes]
    assert classes.complete and len(flats) == 416 and flats == sorted(set(flats))
    assert all(canonical_form(s.table).flat() == f for s, f in zip(classes, flats))
    autos = [sum(relabel(s.table, p).flat() == f for p in permutations(range(4))) for s, f in zip(classes, flats)]
    assert sum(24 // a for a in autos) == 7692


def test_canonical_form_matches_loops():
    for n in (0, 1, 2, 3):
        for s in enumerate_semiheaps(n):
            assert canonical_form(s.table).flat() == canonical_loops(s.table.flat(), n)
    rng = np.random.default_rng(20141)
    for trial in range(1000):
        n = 1 + trial % 5
        values = 1 + trial // 5 % n             # few values leave many automorphisms
        t = TernaryTable(rng.integers(0, values, size=(n, n, n)))
        assert canonical_form(t).flat() == canonical_loops(t.flat(), n), (n, t.flat())


def test_relabelings_follow_permutations_in_lexicographic_order():
    rng = np.random.default_rng(20143)
    for n in range(1, 7):                       # n = 6 spans several slabs
        flat = rng.integers(0, n, size=n ** 3)
        slabs = list(_relabelings(flat, n, n ** 3))
        assert all(len(rows) * n ** 3 <= max(_SLAB, n ** 3) for rows in slabs)
        full = np.vstack(slabs)
        assert full.tolist() == [list(relabel_loops(flat.tolist(), n, p)) for p in permutations(range(n))]
        assert (np.vstack(list(_relabelings(flat, n, n))) == full[:, :n]).all()
    assert len(slabs) > 1


def test_relabeling_cache_matches_the_streamed_slabs(monkeypatch):
    # Up to n = 6 the permutations and cell indices are cached; the rows
    # and their split into slabs are those of the streamed path.
    rng = np.random.default_rng(20144)
    for n in range(1, 7):
        flat = rng.integers(0, n + 1, size=n ** 3)     # n: unassigned
        for width in (1, n, n ** 3):
            cached = list(_relabelings(flat, n, width))
            with monkeypatch.context() as m:
                m.setattr(enumeration, "_cached_slabs", enumeration._relabeling_slabs)
                streamed = list(_relabelings(flat, n, width))
            assert [rows.shape for rows in cached] == [rows.shape for rows in streamed]
            assert all((a == b).all() for a, b in zip(cached, streamed))
    assert len(streamed) > 1


def test_relabeling_cache_stays_bounded():
    # The cache holds n <= 6 only: 720 * 216 int64 cell indices at n = 6.
    enumeration._cached_slabs.cache_clear()
    tracemalloc.start()
    try:
        for n in range(1, 9):
            for _ in _relabelings(np.zeros(n ** 3, dtype=np.int64), n, n):
                pass
            if n == 6:
                small = tracemalloc.get_traced_memory()[0]
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert enumeration._cached_slabs.cache_info().currsize == 6
    assert small < 2 * 2 ** 20 and kept - small < 2 ** 16


def test_iso_classes_stop_at_the_budget():
    tables = [s.table for s in enumerate_semiheaps(3)]
    classes = iso_classes(tables)
    assert classes.complete is True and len(classes) == 31
    late = iso_classes(tables, deadline=time.time())
    assert late.complete is False and list(late) == []


def test_prefix_dominated_matches_loops_on_random_partial_cubes():
    _assert_prefix_dominated_matches_loops()


def test_prefix_dominated_matches_loops_across_slabs(slab):
    # With slabs of 64 the relabelings of n = 3 and 4 come in several slabs.
    slab(64)
    _assert_prefix_dominated_matches_loops()


def _assert_prefix_dominated_matches_loops():
    # One row at a time, then the same rows as stacks of up to nine with a
    # row of width 0 (never dominated) among them.
    rng = np.random.default_rng(20142)
    verdicts, rows = set(), {2: [], 3: [], 4: []}
    for trial in range(3000):
        n = 2 + trial % 3
        t = TernaryTable(rng.integers(0, n, size=(n, n, n)))
        if trial % 2:
            t = canonical_form(t)               # canonical prefixes are never dominated
        cube = t.entries.copy()
        assigned = int(rng.integers(1, n ** 3 + 1))
        cube.reshape(-1)[assigned:] = -1
        want = prefix_dominated_loops(cube.reshape(-1).tolist(), assigned, n)
        cubes = np.where(cube < 0, n, cube).reshape(1, -1)
        assert _prefix_dominated(cubes, np.array([assigned]), n).tolist() == [want], \
            (n, assigned, cube.reshape(-1).tolist())
        rows[n].append((cubes[0], assigned, want))
        verdicts.add((n, want))
    assert verdicts == {(n, v) for n in (2, 3, 4) for v in (True, False)}
    for n, found in rows.items():
        while found:
            k = int(rng.integers(1, 10))
            stack, found = found[:k], found[k:]
            stack.insert(int(rng.integers(0, len(stack) + 1)), (stack[0][0], 0, False))
            cubes, widths, want = (np.array(column) for column in zip(*stack))
            assert _prefix_dominated(cubes, widths, n).tolist() == want.tolist()


def test_canonical_form_relabeling_invariant_at_eight_points(corpus):
    named = {g.name: g for g in corpus}
    rng = np.random.default_rng(8)
    forms = set()
    for name in ("Z8", "D4", "Q8"):
        table = heapify(named[name]).semiheap.table
        shuffled = relabel(table, rng.permutation(8))
        tracemalloc.start()
        try:
            c = canonical_form(shuffled)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20 and kept < 2 ** 20     # nothing n!-sized stays cached
        assert c.flat() == canonical_form(table).flat() <= table.flat()
        forms.add(c.flat())
    assert len(forms) == 3


@pytest.mark.parametrize("pair", [("Z1", "Z3"), ("Z2", "Z4"), ("Z4", "Q8"), ("S3", "Z6"), ("Z3", "S3")])
def test_fully_faithful_matches_per_map_loops(corpus, pair):
    named = {g.name: g for g in corpus}
    g, g2 = named[pair[0]], named[pair[1]]
    report = check_fully_faithful(g, g2)
    group, pointed, unpointed = fully_faithful_loops(g.mul.tolist(), g.e, g2.mul.tolist(), g2.e)
    assert report.maps_checked == g2.n ** g.n
    assert report.group_homs == tuple(group)
    assert report.pointed_heap_homs == tuple(pointed)
    assert report.unpointed_heap_homs == tuple(unpointed)
    for homs in (report.group_homs, report.pointed_heap_homs, report.unpointed_heap_homs):
        assert all(type(f) is tuple and all(type(v) is int for v in f) for f in homs)


def test_fully_faithful_matches_full_scan_on_corpus_pairs(corpus):
    pairs = [(g, g2) for g in corpus for g2 in corpus if g2.n ** g.n <= 50_000]
    assert len(pairs) > 100
    for g, g2 in pairs:
        assert check_fully_faithful(g, g2) == fully_faithful_scan(g, g2), (g.name, g2.name)


def test_fully_faithful_matches_full_scan_on_relabeled_pairs(corpus):
    # With the identities moved off 0, the instances naming them complete
    # at late levels rather than the first.
    rng = np.random.default_rng(20263)
    homs = 0
    for g in corpus:
        for g2 in corpus:
            if g2.n ** g.n <= 50_000:
                a, b = _identity_moved(g, rng), _identity_moved(g2, rng)
                report = check_fully_faithful(a, b)
                assert report == fully_faithful_scan(a, b), (g.name, g2.name)
                homs += len(report.group_homs) > 1
    assert homs > 20


def test_fully_faithful_extends_prefixes_in_chunks(corpus, monkeypatch):
    # A slab smaller than one prefix's gather: every level is extended one
    # prefix at a time, and the reports stay those of the full scan.
    from semiheap import functors

    monkeypatch.setattr(functors, "_SLAB", 16)
    named = {g.name: g for g in corpus}
    rng = np.random.default_rng(20266)
    for a, b in (("K4", "D4"), ("Z4", "Q8"), ("S3", "Z6"), ("D4", "K4")):
        g, g2 = _identity_moved(named[a], rng), named[b]
        assert check_fully_faithful(g, g2) == fully_faithful_scan(g, g2), (a, b)


def test_fully_faithful_memory_stays_bounded_at_scale(corpus):
    # Z7 -> Z7 is 823,543 maps and Z8 -> Z5 390,625: both inside the
    # default budget, each hom set built from a frontier of few prefixes.
    named = {g.name: g for g in corpus}
    z8 = _identity_moved(named["Z8"], np.random.default_rng(20264))
    for g, g2, homs in ((named["Z7"], named["Z7"], 7), (z8, named["Z5"], 1)):
        tracemalloc.start()
        try:
            report = check_fully_faithful(g, g2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert report.maps_checked == g2.n ** g.n <= 1_000_000
        assert len(report.group_homs) == homs and len(report.unpointed_heap_homs) == homs * g2.n
        assert all(f[g.mul[x, y]] == g2.mul[f[x], f[y]] for f in report.group_homs
                   for x in range(g.n) for y in range(g.n))


def test_iso_classes_match_first_seen_canonical_forms_in_any_order():
    # The orbit sweep keeps the classes and their order of first appearance
    # also when the input is not in lexicographic order, duplicates and
    # mixed carrier sizes included.
    rng = np.random.default_rng(20265)
    for n, tables in ((3, [s.table for s in enumerate_semiheaps(3)]),
                      (5, [s.table for s in enumerate_heaps(5)]),
                      ("0 to 2", [s.table for m in (0, 1, 2) for s in enumerate_semiheaps(m)])):
        for order in (np.arange(len(tables)), rng.permutation(len(tables)), rng.integers(0, len(tables), 40)):
            given = [tables[i] for i in order]
            want, seen = [], set()
            for t in given:
                c = canonical_form(t).flat()
                if c not in seen:
                    seen.add(c)
                    want.append(c)
            classes = iso_classes(given)
            assert classes.complete and [s.table.flat() for s in classes] == want, n


def test_all_group_tables_matches_constructor_on_every_table():
    for n in (1, 2, 3):
        brute = []
        for flat in iproduct(range(n), repeat=n * n):
            try:
                brute.append(FiniteGroup.from_mul(np.array(flat).reshape(n, n)))
            except LawError:
                continue
        assert [g.key() for g in all_group_tables(n)] == [g.key() for g in brute]


def test_consistency_calls_pinned_for_n3():
    # The propagating search tree, counted by the search itself.  The
    # labeled census expands the classes of the symmetry-broken search, so
    # it reports that search; the direct search is the tests' labeled oracle.
    direct, complete, stats = enumeration._search(np.full((3, 3, 3), -1, dtype=np.int64), None)
    assert complete and len(direct) == 135
    assert stats == SearchStats(nodes=780, rounds=1155, forced=1318, conflicts=386, symmetry_prunes=0)
    iso = enumerate_semiheaps(3, up_to_iso=True)
    assert len(iso) == 31
    assert iso.stats == SearchStats(nodes=309, rounds=464, forced=592, conflicts=142, symmetry_prunes=34)
    labeled = enumerate_semiheaps(3)
    assert len(labeled) == 135 and labeled.stats == iso.stats


def test_search_counters_are_plain_ints():
    # A numpy scalar compares and prints like an int, but its repr reads np.int64(...).
    for result in (enumerate_semiheaps(3), enumerate_semiheaps(3, up_to_iso=True), enumerate_heaps(4)):
        assert all(type(v) is int for v in vars(result.stats).values()), result.stats


def test_search_tree_pinned_past_n3():
    # Taken from the one-node-at-a-time recursive search: the stacked steps
    # visit the same tree.
    iso = enumerate_semiheaps(4, up_to_iso=True)
    assert iso.complete and len(iso) == 416
    assert iso.stats == SearchStats(nodes=10408, rounds=13004, forced=11869, conflicts=6777, symmetry_prunes=614)
    pinned = {4: (4, 2, SearchStats(nodes=28, rounds=42, forced=98, conflicts=18, symmetry_prunes=2)),
              5: (6, 1, SearchStats(nodes=40, rounds=57, forced=149, conflicts=27, symmetry_prunes=5)),
              6: (80, 2, SearchStats(nodes=108, rounds=171, forced=997, conflicts=71, symmetry_prunes=18)),
              7: (120, 1, SearchStats(nodes=98, rounds=132, forced=703, conflicts=65, symmetry_prunes=19))}
    for n, (count, classes, stats) in pinned.items():
        heaps = enumerate_heaps(n)
        assert heaps.complete and (len(heaps), len(heaps.classes), heaps.stats) == (count, classes, stats), n


def _n3_searches():
    direct, complete, stats = enumeration._search(np.full((3, 3, 3), -1, dtype=np.int64), None)
    iso, labeled = enumerate_semiheaps(3, up_to_iso=True), enumerate_semiheaps(3)
    assert complete and iso.complete and labeled.complete
    tables = [[s.table.flat() for s in direct]] + [[s.table.flat() for s in r] for r in (iso, labeled, labeled.classes)]
    return tables, (stats, iso.stats, labeled.stats)


def test_search_steps_of_any_size_give_the_same_tables_order_and_stats(slab, monkeypatch):
    # With one x1 per propagation slab the n = 3 searches step one node at
    # a time (_SLAB 1, one permutation per relabeling slab), and 67 nodes at
    # a time on reads and relabelings cut for _SLAB 100 (three permutations
    # per slab).  Both find the tables of the default slabs in the same
    # order, and both count the tree as the one-node-at-a-time recursive
    # search did with one x1 per slab, where a pass sees the cells forced
    # earlier in it.
    want = _n3_searches()
    slab(1)
    one = _n3_searches()
    slab(100)
    assert enumeration._quintuple_reads(3)[0] == 1 and len(enumeration._cached_slabs(3)) == 2
    monkeypatch.setattr(enumeration, "_SLAB", _SLAB)
    assert _SLAB // 3 ** 5 == 67 and _n3_searches() == one
    broken = SearchStats(nodes=309, rounds=437, forced=600, conflicts=142, symmetry_prunes=34)
    assert one[0] == want[0]
    assert one[1] == (SearchStats(nodes=780, rounds=1100, forced=1326, conflicts=386, symmetry_prunes=0), broken, broken)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("enumerate_fn", [enumerate_semiheaps, enumerate_heaps])
def test_iso_classes_are_first_seen_canonical_forms(n, enumerate_fn):
    # Labeled output is in lexicographic order, so the first member seen of
    # each class is its canonical form: keeping the canonical form or the
    # first member gives the same up-to-iso list.
    labeled = [s.table.flat() for s in enumerate_fn(n)]
    first_seen, classes = [], set()
    for flat in labeled:
        c = canonical_form(TernaryTable.from_flat(n, flat)).flat()
        if c not in classes:
            classes.add(c)
            first_seen.append(flat)
    iso = [s.table.flat() for s in enumerate_fn(n, up_to_iso=True)]
    assert iso == first_seen
    assert all(canonical_form(s.table).flat() == s.table.flat() for s in enumerate_fn(n, up_to_iso=True))


def test_budgeted_up_to_iso_search_keeps_its_classes():
    # The lex-leader test on every complete table makes every table the
    # search emits canonical, so a run cut by its budget still returns
    # classes.  n = 5, since the n = 4 census completes in about a second.
    found = enumerate_semiheaps(5, up_to_iso=True, budget=0.5)
    flats = [s.table.flat() for s in found]
    assert not found.complete and len(flats) > 0
    assert flats == sorted(set(flats))
    assert all(canonical_form(s.table).flat() == s.table.flat() for s in found)


def test_centric_witnesses_match_loops(corpus, order2_semiheaps):
    pool = [heapify(g).semiheap for g in corpus if g.n <= 6] + list(order2_semiheaps)
    pool += list(enumerate_semiheaps(3))[::9]
    for max_results in (1, 5, 10 ** 6):
        want = []
        for s in pool:
            left = max_results - len(want)
            if left <= 0:
                break
            want += [(s.key(), ab, cd) for ab, cd in centric_nonclosure_loops(s.table.flat(), s.n, left)]
        got = centric_nonclosure_witness(pool, max_results=max_results)
        assert [(s.key(), ab, cd) for s, ab, cd in got] == want
        assert all(type(v) is int for _, ab, cd in got for v in (*ab, *cd))
    assert len(want) > 5


# Each case breaks one invariant by patching (owner, name) and runs the code
# that must notice; the patch is undone before the next case.
INVARIANTS = """
import dataclasses
import numpy as np
import semiheap.bundles as bundles, semiheap.charts as charts, semiheap.numeric as numeric
import semiheap.enumeration as enumeration, semiheap.functors as functors, semiheap.groups as groups
print("debug", __debug__)
z2 = groups.cyclic(2)
trivial = bundles.trivial_bundle(1, functors.heapify(z2).semiheap)
two_charts = dataclasses.replace(trivial, cover=trivial.cover * 2, charts=trivial.charts * 2)
principal = bundles.trivial_principal_bundle(1, z2)
identity = bundles.PrincipalBundleHom(np.arange(2), np.arange(1), np.arange(2))
so2 = charts.so2()
cases = [
    (functors, "is_heap", lambda s: False, lambda: functors.heapify(groups.cyclic(2))),
    (functors.FullyFaithfulReport, "bijective", property(lambda r: False),
     lambda: functors.check_fully_faithful(groups.cyclic(2), groups.cyclic(2))),
    (enumeration, "corpus", lambda: [], lambda: enumeration.enumerate_heaps(2)),
    (bundles, "verify_bundle", lambda b: "broken", lambda: bundles.trivial_bundle(1, trivial.structure)),
    (bundles, "is_homomorphism", lambda *a: False, lambda: bundles.fiber_semiheap(two_charts, 0, 0)),
    (bundles, "verify_bundle", lambda b: "broken", lambda: bundles.heapify_principal(principal)),
    (bundles, "verify_bundle_hom", lambda *a: "broken",
     lambda: bundles.heapify_principal_hom(identity, principal, principal)),
    (numeric, "left_invariant_field", lambda chart, v: lambda x: x @ v + 1.0,
     lambda: numeric.left_invariant_field_check(so2, so2.basis[0], samples=1, seed=0)),
]
for owner, name, fake, run in cases:
    real = getattr(owner, name)
    setattr(owner, name, fake)
    try:
        run()
        print(name, "passed")
    except AssertionError:
        print(name, "raised")
    finally:
        setattr(owner, name, real)
"""


def test_search_invariants_hold_under_optimize():
    src = str(Path(semiheap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", INVARIANTS], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["debug False", "is_heap raised", "bijective raised",
                                        "corpus raised", "verify_bundle raised",
                                        "is_homomorphism raised", "verify_bundle raised",
                                        "verify_bundle_hom raised", "left_invariant_field raised"]
