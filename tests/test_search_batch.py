"""The slabbed search layer against loop oracles.

Hom-set classification, partial-cube consistency, group-table scans and
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
    canonical_loops,
    centric_nonclosure_loops,
    fully_faithful_loops,
    partial_consistent_loops,
    prefix_dominated_loops,
    relabel_loops,
)
from semiheap import enumeration
from semiheap.core import _SLAB, TernaryTable, _product_slabs
from semiheap.enumeration import (
    _partial_consistent,
    _relabelings,
    _prefix_dominated,
    all_group_tables,
    canonical_form,
    enumerate_heaps,
    enumerate_semiheaps,
    iso_classes,
    relabel,
)
from semiheap.functors import check_fully_faithful, heapify
from semiheap.groups import FiniteGroup, LawError
from semiheap.translations import centric_nonclosure_witness


def test_product_slabs_follow_itertools_product():
    for base, length, width in ((1, 3, 1), (2, 5, 1), (3, 4, 20000), (4, 3, 7000)):
        got = [tuple(row) for slab in _product_slabs(base, length, width) for row in slab.tolist()]
        assert got == list(iproduct(range(base), repeat=length))


def test_partial_consistent_matches_loops_on_random_partial_cubes():
    rng = np.random.default_rng(20221)
    verdicts = set()
    for trial in range(1200):
        n = 1 + trial % 4
        cube = rng.integers(0, n, size=(n, n, n))
        flat = cube.reshape(-1)
        flat[int(rng.integers(0, n ** 3 + 1)):] = -1           # a backtracking prefix
        if trial % 3:
            flat[rng.random(n ** 3) < rng.random()] = -1       # and scattered holes
        want = partial_consistent_loops(flat.tolist(), n)
        assert _partial_consistent(cube, n) == want, (n, flat.tolist())
        verdicts.add((n, want))
    assert verdicts == {(n, v) for n in (2, 3, 4) for v in (True, False)} | {(1, True)}


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
        assert _partial_consistent(cube, n) == partial_consistent_loops(cube.reshape(-1).tolist(), n)
    assert _partial_consistent(heap, n) and not _partial_consistent(bad_row, n)


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


def test_iso_classes_stop_at_the_budget():
    tables = [s.table for s in enumerate_semiheaps(3)]
    classes = iso_classes(tables)
    assert classes.complete is True and len(classes) == 31
    late = iso_classes(tables, deadline=time.time())
    assert late.complete is False and list(late) == []


def test_prefix_dominated_matches_loops_on_random_partial_cubes():
    rng = np.random.default_rng(20142)
    verdicts = set()
    for trial in range(3000):
        n = 2 + trial % 3
        t = TernaryTable(rng.integers(0, n, size=(n, n, n)))
        if trial % 2:
            t = canonical_form(t)               # canonical prefixes are never dominated
        cube = t.entries.copy()
        assigned = int(rng.integers(1, n ** 3 + 1))
        cube.reshape(-1)[assigned:] = -1
        want = prefix_dominated_loops(cube.reshape(-1).tolist(), assigned, n)
        assert _prefix_dominated(cube, assigned, n) == want, (n, assigned, cube.reshape(-1).tolist())
        verdicts.add((n, want))
    assert verdicts == {(n, v) for n in (2, 3, 4) for v in (True, False)}


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


def test_all_group_tables_matches_constructor_on_every_table():
    for n in (1, 2, 3):
        brute = []
        for flat in iproduct(range(n), repeat=n * n):
            try:
                brute.append(FiniteGroup.from_mul(np.array(flat).reshape(n, n)))
            except LawError:
                continue
        assert [g.key() for g in all_group_tables(n)] == [g.key() for g in brute]


def test_consistency_calls_pinned_for_n3(monkeypatch):
    # The search tree is unchanged: only the cost of each node is.
    calls = []
    real = enumeration._partial_consistent
    monkeypatch.setattr(enumeration, "_partial_consistent", lambda cube, n: calls.append(1) or real(cube, n))
    assert len(enumerate_semiheaps(3)) == 135
    assert len(calls) == 8532
    calls.clear()
    assert len(enumerate_semiheaps(3, up_to_iso=True)) == 31
    assert len(calls) == 3453


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_budgeted_up_to_iso_search_keeps_its_classes(jobs):
    # The lex-leader test at the last cell makes every table the search
    # emits canonical, so a run cut by its budget still returns classes.
    found = enumerate_semiheaps(4, up_to_iso=True, budget=0.5, jobs=jobs)
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
    (enumeration, "all_group_tables", lambda n: [], lambda: enumeration.enumerate_heaps(2)),
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
                                        "all_group_tables raised", "verify_bundle raised",
                                        "is_homomorphism raised", "verify_bundle raised",
                                        "verify_bundle_hom raised", "left_invariant_field raised"]
