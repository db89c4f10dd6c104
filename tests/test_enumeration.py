import time
import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from semiheap import enumeration, functors, groups
from semiheap.core import FiniteSemiheap, TernaryTable, is_heap, relabel, verify_para_associative
from semiheap.enumeration import (
    SearchStats,
    Unsupported,
    are_isomorphic,
    canonical_form,
    enumerate_heaps,
    enumerate_semiheaps,
)

from oracles import all_group_tables, canonical_loops, para_associative_loops, semiheap_tables_brute


def test_counts_n0_n1():
    assert len(enumerate_semiheaps(0)) == 1
    assert len(enumerate_semiheaps(1)) == 1
    assert len(enumerate_heaps(0)) == 1
    assert len(enumerate_heaps(1)) == 1


def test_negative_n_is_refused_by_name():
    for run in (enumerate_semiheaps, enumerate_heaps, lambda n: enumerate_semiheaps(n, method="filter")):
        for n in (-1, -4):
            with pytest.raises(ValueError, match=f"n={n}"):
                run(n)


@pytest.mark.parametrize("method", ["filter", "backtrack"])
def test_oversized_semiheap_census_is_refused_before_anything_is_built(method):
    # At n = 12 one x1 of the para-associativity scan (12^4 quintuples) overflows a slab.
    for n in (12, 10 ** 6):
        for budget in (None, 0.0, 1.0):
            tracemalloc.start()
            try:
                with pytest.raises(Unsupported, match=f"n={n}"):
                    enumerate_semiheaps(n, method=method, budget=budget)
                assert tracemalloc.get_traced_memory()[1] < 1 << 20, (n, budget)
            finally:
                tracemalloc.stop()


def test_both_pipelines_match_loop_oracle_at_n2():
    oracle = semiheap_tables_brute(2)
    for method in ("filter", "backtrack"):
        got = {s.table.flat() for s in enumerate_semiheaps(2, method=method)}
        assert got == oracle
    # regression value produced by the loop oracle above
    assert len(oracle) == 8


@pytest.mark.parametrize("n", [0, 1, 2])
def test_filter_is_the_loop_oracle_in_order(n):
    # The stacked filter keeps the loop oracle's tables in lexicographic
    # order, and up to iso the least of each class in the same order.
    oracle = sorted(semiheap_tables_brute(n))
    assert [s.table.flat() for s in enumerate_semiheaps(n, method="filter")] == oracle
    classes = sorted({canonical_loops(t, n) for t in oracle})
    assert [s.table.flat() for s in enumerate_semiheaps(n, method="filter", up_to_iso=True)] == classes


def test_filter_stops_at_the_budget_with_sorted_semiheaps():
    # 3^27 candidates: the budget ends the scan between stacks, and what was
    # found so far is kept in order.
    found = enumerate_semiheaps(3, method="filter", budget=0.3)
    flats = [s.table.flat() for s in found]
    assert found.complete is False and found.stats is None
    assert flats and flats == sorted(set(flats)) and all(para_associative_loops(f, 3) for f in flats)


def test_filter_up_to_iso_keeps_the_classes_it_found_at_the_budget():
    # The first stack is always checked and holds the all-zero table, which
    # is para-associative; the classes of what was found are swept whole.
    found = enumerate_semiheaps(3, method="filter", budget=0.3, up_to_iso=True)
    assert found.complete is False and len(found) >= 1
    assert all(canonical_form(s.table).flat() == s.table.flat() for s in found)


def test_corpus_is_built_once_and_handed_out_in_new_lists():
    first = groups.corpus()
    first.append(groups.cyclic(9))
    again = groups.corpus()
    assert again is not first and len(again) == 12 and [g.name for g in again][-1] == "Q8"
    assert all(g is h for g, h in zip(again, groups.corpus()))
    with pytest.raises(ValueError):
        again[0].mul[0, 0] = 0                 # shared groups are read-only


@pytest.mark.parametrize("n", range(7))
def test_labeled_census_is_the_direct_search(n):
    # The orbits of the classes, sorted, are the tables of the search that
    # breaks no symmetry, table for table and in order: for semiheaps from
    # the empty cube up to n = 3 (n = 4 takes ~10 s, a CI step), for heaps
    # from the biunitary root up to n = 6 (n = 7, a CI step).
    heap_root = np.full((n, n, n), -1, dtype=np.int64)
    for x, y in np.ndindex(n, n):
        heap_root[y, x, x] = heap_root[x, x, y] = y     # biunitarity: [y,x,x] = y = [x,x,y]
    roots = [(np.full((n, n, n), -1, dtype=np.int64), enumerate_semiheaps)] if n <= 3 else []
    for root, census in roots + [(heap_root, enumerate_heaps)]:
        direct, complete, _ = enumeration._search(root, None)
        labeled, iso = census(n), census(n, up_to_iso=True)
        assert complete and labeled.complete and iso.complete
        assert [s.table.flat() for s in labeled] == [s.table.flat() for s in direct]
        assert labeled.stats == iso.stats
        assert [s.table.flat() for s in labeled.classes] == [s.table.flat() for s in iso] == \
               [s.table.flat() for s in iso.classes]


def test_labeled_census_counts_orbits_by_automorphisms():
    # Orbit-stabilizer: each class contributes 3!/|Aut S| labeled tables.
    classes = enumerate_semiheaps(3, up_to_iso=True)
    autos = [sum(relabel(s.table, p).flat() == s.table.flat() for p in permutations(range(3))) for s in classes]
    assert len(enumerate_semiheaps(3)) == sum(factorial(3) // a for a in autos) == 135
    assert sorted(set(autos)) == [1, 2, 6]


def test_enumeration_order_is_deterministic():
    flats = [s.table.flat() for s in enumerate_semiheaps(2)]
    assert flats == sorted(flats)


def test_heap_dual_route_counts():
    # regression values produced by the group-table oracle route
    assert len(enumerate_heaps(2)) == 1
    assert len(enumerate_heaps(3)) == 1
    assert len(all_group_tables(2)) == 2
    assert len(all_group_tables(3)) == 3


def test_heaps_filtered_from_semiheaps_at_n2(order2_semiheaps):
    direct = {s.table.flat() for s in order2_semiheaps if is_heap(s)}
    assert direct == {s.table.flat() for s in enumerate_heaps(2)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heap_search_matches_filtered_semiheaps(n):
    # The search with the biunitary cells forced finds exactly the heaps
    # among all semiheaps, in the same order.
    filtered = [s.table.flat() for s in enumerate_semiheaps(n) if is_heap(s)]
    assert [s.table.flat() for s in enumerate_heaps(n)] == filtered


# Propagation rounds of the heap search, and the whole search tree.
HEAP_SEARCH_STATS = {
    1: SearchStats(nodes=0, rounds=1, forced=0, conflicts=0, symmetry_prunes=0),
    2: SearchStats(nodes=2, rounds=4, forced=1, conflicts=1, symmetry_prunes=0),
    3: SearchStats(nodes=9, rounds=13, forced=11, conflicts=6, symmetry_prunes=0),
}


@pytest.mark.parametrize("n, rounds", [(n, stats.rounds) for n, stats in HEAP_SEARCH_STATS.items()])
def test_heap_consistency_calls_pinned(n, rounds):
    heaps = enumerate_heaps(n)
    assert len(heaps) == 1
    assert heaps.stats.rounds == rounds and heaps.stats == HEAP_SEARCH_STATS[n]


def _group_automorphisms(g):
    mul = np.asarray(g.mul)
    return sum((np.array(p)[mul] == mul[np.ix_(p, p)]).all() for p in permutations(range(g.n)))


@pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 6), (6, 80)])
def test_heap_census_counts_heaps_by_group_automorphisms(corpus, n, count):
    # The labeled heaps of a group G number (n-1)!/|Aut G|: its n!
    # relabelings over the holomorph of G, of order n |Aut G|.
    predicted = sum(factorial(n - 1) // _group_automorphisms(g) for g in corpus if g.n == n)
    heaps = enumerate_heaps(n)
    flats = [s.table.flat() for s in heaps]
    assert heaps.complete and len(flats) == predicted == count
    assert flats == sorted(set(flats)) and all(is_heap(s) for s in heaps)


def test_up_to_iso_counts():
    # 8 order-2 semiheaps fall into 6 isomorphism classes (oracle-derived)
    assert len(enumerate_semiheaps(2, up_to_iso=True)) == 6
    assert len(enumerate_semiheaps(2, method="filter", up_to_iso=True)) == 6


def test_canonical_form_idempotent_on_random_tables():
    rng = np.random.default_rng(1234)
    for n in (1, 2, 3):
        for _ in range(1000):
            t = TernaryTable(rng.integers(0, n, size=(n, n, n)))
            c = canonical_form(t)
            assert canonical_form(c).flat() == c.flat()


def test_canonical_form_relabeling_invariant():
    rng = np.random.default_rng(99)
    for _ in range(50):
        t = TernaryTable(rng.integers(0, 3, size=(3, 3, 3)))
        perm = rng.permutation(3)
        assert canonical_form(relabel(t, perm)).flat() == canonical_form(t).flat()


def test_isomorphism_checks():
    z4h = functors.heapify(groups.cyclic(4)).semiheap
    k4h = functors.heapify(groups.klein_four()).semiheap
    s3h = functors.heapify(groups.symmetric3()).semiheap
    assert are_isomorphic(z4h, z4h)
    assert not are_isomorphic(z4h, k4h)
    rng = np.random.default_rng(7)
    from semiheap.core import FiniteSemiheap
    shuffled = FiniteSemiheap(relabel(s3h.table, rng.permutation(6)), _certified=True)
    assert are_isomorphic(s3h, shuffled)
    assert not are_isomorphic(s3h, functors.heapify(groups.cyclic(6)).semiheap)
    from itertools import permutations
    assert any(relabel(s3h.table, p).flat() == shuffled.table.flat()
               for p in permutations(range(6)))


def test_isomorphism_agrees_with_canonical_forms_on_the_small_census():
    """One sweep of s's relabelings decides as the comparison of two canonical forms, on every
    ordered pair of the n <= 3 census classes, each relabeled by a seeded permutation."""
    rng = np.random.default_rng(29)
    tables = [s.table for n in range(4) for s in enumerate_semiheaps(n, up_to_iso=True)]
    tables = [t for c in tables for t in (c, relabel(c, rng.permutation(c.n)))]
    forms = [canonical_form(t).key() for t in tables]
    holders = [FiniteSemiheap(t, _certified=True) for t in tables]
    for a, fa in zip(holders, forms):
        for b, fb in zip(holders, forms):
            assert are_isomorphic(a, b) == (fa == fb)


def test_isomorphism_of_the_eight_point_heaps():
    rng = np.random.default_rng(31)
    heaps = [functors.heapify(g).semiheap for g in (groups.cyclic(8), groups.dihedral4(), groups.quaternion8())]
    for i, a in enumerate(heaps):
        for j, b in enumerate(heaps):
            shuffled = FiniteSemiheap(relabel(b.table, rng.permutation(8)), _certified=True)
            assert are_isomorphic(a, shuffled) == (i == j)


def test_relabeled_z4_heap_isomorphic():
    z4h = functors.heapify(groups.cyclic(4)).semiheap
    rng = np.random.default_rng(3)
    from semiheap.core import FiniteSemiheap
    shuffled = FiniteSemiheap(relabel(z4h.table, rng.permutation(4)), _certified=True)
    assert are_isomorphic(z4h, shuffled)


def test_budget_exhaustion_reports_partial():
    found = enumerate_semiheaps(3, budget=1e-4)
    assert found.complete is False
    heaps = enumerate_heaps(3, budget=1e-6)
    assert heaps.complete is False
    for found in (enumerate_semiheaps(3, budget=0.0), enumerate_heaps(3, budget=0.0)):
        assert list(found) == [] and found.complete is False
    # The group corpus lacks Z4xZ2 and Z2^3: n=8 is refused
    with pytest.raises(Unsupported, match="not supported"):
        enumerate_heaps(8)


def test_nan_budget_is_refused():
    # time.time() > time.time() + nan is never true, so a nan deadline would never pass.
    for run in (enumerate_semiheaps, enumerate_heaps):
        with pytest.raises(ValueError, match="nan"):
            run(3, budget=float("nan"))
    with pytest.raises(ValueError, match="nan"):
        enumerate_semiheaps(3, method="filter", budget=float("nan"))


def test_budgeted_labeled_run_keeps_whole_orbits():
    # Each class's orbit is gathered as the search emits the class, so the
    # run keeps to its budget and what it returns is closed under relabeling.
    start = time.perf_counter()
    found = enumerate_semiheaps(5, budget=0.5)
    elapsed = time.perf_counter() - start
    flats = [s.table.flat() for s in found]
    assert found.complete is False and len(flats) > 0 and elapsed < 1.0
    assert flats == sorted(set(flats))
    keys = set(flats)
    for s in found[::401]:
        for p in permutations(range(5)):
            assert relabel(s.table, np.array(p)).flat() in keys


def test_budgeted_heap_census_up_to_iso_returns_classes():
    # All 120 heaps on 7 points form one class; a run cut short returns at
    # most that class, never labeled tables.
    for budget in (0.05, 0.5):
        found = enumerate_heaps(7, up_to_iso=True, budget=budget)
        assert len(found) <= 1 and len(found.classes) == len(found)
        assert all(canonical_form(s.table).flat() == s.table.flat() for s in found)


def test_labeled_run_that_finds_no_class_is_empty():
    # At n = 7 the search meets its first class only after several seconds.
    # At n = 10 one lex-leader check streams 10! relabelings; the deadline
    # is read between their slabs, and a check cut short ends the run.
    for n in (7, 10):
        start = time.perf_counter()
        found = enumerate_semiheaps(n, budget=0.5)
        assert list(found) == [] and found.complete is False
        assert time.perf_counter() - start < 2.0, n


def test_complete_flag_true_on_full_runs():
    assert enumerate_semiheaps(2).complete is True
    assert enumerate_heaps(3).complete is True


def test_n3_backtracking_completes_the_stretch_goal():
    # Regression values produced by the backtracking pipeline itself (no
    # independent full-scan exists at 3^27): 135 semiheaps, 31 classes.
    # Cross-probes: every table passes the loop oracle, the set is closed
    # under relabeling, and its heap subset matches the group-oracle route.
    from itertools import permutations
    from oracles import para_associative_loops

    found = enumerate_semiheaps(3, budget=120.0)
    assert found.complete is True
    assert len(found) == 135
    keys = {s.table.flat() for s in found}
    for s in found:
        assert para_associative_loops(s.table.flat(), 3)
        for p in permutations(range(3)):
            assert relabel(s.table, np.array(p)).flat() in keys
    assert {s.table.flat() for s in found if is_heap(s)} == \
           {s.table.flat() for s in enumerate_heaps(3)}
    assert len(enumerate_semiheaps(3, up_to_iso=True, budget=120.0)) == 31


def test_n3_heap_tables_are_z3_heapifications():
    tables = {s.table.flat() for s in enumerate_heaps(3)}
    via_groups = {functors.heapify(g).semiheap.table.flat() for g in all_group_tables(3)}
    assert tables == via_groups
    for flat in tables:
        assert verify_para_associative(TernaryTable.from_flat(3, flat)) is None
