import numpy as np

from semiheap import enumeration, functors, groups
from semiheap.core import FiniteSemiheap, PointedSemiheap, product
from oracles import left_invariant_components_loops
from semiheap.translations import (
    LawCounterexample,
    centric_endomap,
    centric_nonclosure_witness,
    is_biunital,
    left_compose_law,
    left_endomap,
    left_invariant_functions,
    left_monoid_check,
    lr_commute,
    reachability_check,
    right_compose_law,
    right_endomap,
)


def z_heap(n):
    return functors.heapify(groups.cyclic(n)).semiheap


def constant_semiheap(n, c=0):
    return FiniteSemiheap.from_rule(n, lambda x, y, z: c)


def test_right_law_spot_check_on_z4():
    s = z_heap(4)
    r02 = right_endomap(s, 0, 2)
    r13 = right_endomap(s, 1, 3)
    comp = r13[r02]
    # x - 0 + 2 - 1 + 3 = x + 4 = x mod 4, and [2,1,3] = 0 gives R_{0,0} = id
    assert np.array_equal(comp, np.arange(4))
    assert s.apply(2, 1, 3) == 0
    assert np.array_equal(right_endomap(s, 0, s.apply(2, 1, 3)), np.arange(4))


def test_laws_on_all_order2_semiheaps(order2_semiheaps):
    for s in order2_semiheaps:
        assert right_compose_law(s) is None
        assert left_compose_law(s) is None
        assert lr_commute(s) is None


def test_laws_on_heapified_corpus(heap_corpus):
    for _, h in heap_corpus:
        s = h.semiheap
        assert right_compose_law(s) is None
        assert left_compose_law(s) is None
        assert lr_commute(s) is None


def test_laws_on_constant_semiheap():
    s = constant_semiheap(3, 1)
    assert right_compose_law(s) is None
    assert left_compose_law(s) is None
    assert lr_commute(s) is None
    # both sides of the right law are the constant endomap
    assert np.array_equal(right_endomap(s, 0, 2), np.ones(3, dtype=np.int64))


def test_centric_witness_on_z3_heap():
    s = z_heap(3)
    found = centric_nonclosure_witness([s])
    assert found, "C . C on the Z/3 heap escapes the centric set"
    _, (a, b), (c, d) = found[0]
    comp = centric_endomap(s, c, d)[centric_endomap(s, a, b)]
    centrics = {tuple(int(v) for v in centric_endomap(s, p, q)) for p in range(3) for q in range(3)}
    assert tuple(int(v) for v in comp) not in centrics


def test_centric_witnesses_stop_at_max_results():
    # Z/3 has more than one witness; max_results bounds the list, and a limit of zero or below asks for none.
    s = z_heap(3)
    every = centric_nonclosure_witness([s, s], max_results=10 ** 6)
    assert len(every) > 2 and every[:2] == centric_nonclosure_witness([s], max_results=2)
    assert centric_nonclosure_witness([s], max_results=1) == every[:1]
    assert centric_nonclosure_witness([s], max_results=0) == []
    assert centric_nonclosure_witness([s], max_results=-1) == []


def test_centrics_closed_on_z2_heap_and_constants():
    assert centric_nonclosure_witness([z_heap(2)]) == []
    assert centric_nonclosure_witness([constant_semiheap(3)]) == []


def test_smallest_centric_witness_recorded(order2_semiheaps):
    # no witness among order-2 semiheaps; the first recorded witness overall
    # comes from the Z/3 heap
    pool = list(order2_semiheaps) + [z_heap(3)]
    found = centric_nonclosure_witness(pool)
    assert found and found[0][0].n == 3


def test_biunital_heapified_groups(heap_corpus):
    for _, h in heap_corpus:
        assert is_biunital(h)
        assert left_monoid_check(h) is None
        assert reachability_check(h) is None


def test_identity_translation_at_basepoint(heap_corpus):
    for _, h in heap_corpus:
        assert np.array_equal(left_endomap(h.semiheap, h.basepoint, h.basepoint), np.arange(h.n))
        assert np.array_equal(right_endomap(h.semiheap, h.basepoint, h.basepoint), np.arange(h.n))


def test_constant_semiheap_not_biunital():
    s = constant_semiheap(2)
    assert not is_biunital(PointedSemiheap(s, 0))
    assert not is_biunital(PointedSemiheap(s, 1))


def test_all_order2_biunital_pointed_semiheaps(order2_semiheaps):
    found = 0
    for s in order2_semiheaps:
        for pt in range(s.n):
            ps = PointedSemiheap(s, pt)
            if not is_biunital(ps):
                continue
            found += 1
            assert left_monoid_check(ps) is None
            assert reachability_check(ps) is None
            dim, _ = left_invariant_functions(ps)
            assert dim == 1
    assert found >= 1


def test_left_invariant_functions_constants_on_z4():
    dim, comps = left_invariant_functions(PointedSemiheap(z_heap(4), 0))
    assert dim == 1
    assert set(comps.tolist()) == {0}


def test_left_invariant_functions_match_union_find():
    # Label propagation against a union-find over the same edges: every
    # semiheap on 1 to 3 points, products of pairs of them (up to 9 points)
    # and the heapified corpus.
    small = [s for n in (1, 2, 3) for s in enumeration.enumerate_semiheaps(n)]
    pool = small + [product(a, b) for a in small[::10] for b in small[5::10]]
    pool += [functors.heapify(g).semiheap for g in groups.corpus()]
    dims = set()
    for s in pool:
        dim, comps = left_invariant_functions(PointedSemiheap(s, 0))
        assert (dim, comps.tolist()) == left_invariant_components_loops(s.table.flat(), s.n)
        assert comps.dtype == np.int64
        dims.add(dim)
    assert {1, 2, 3, 4} <= dims


def test_left_invariant_functions_trivial_semiheap():
    dim, _ = left_invariant_functions(PointedSemiheap(constant_semiheap(1), 0))
    assert dim == 1


def test_non_biunital_with_larger_invariant_space():
    # [x,y,z] = z: every left translation is the identity, so the invariant
    # space is all functions (dimension n); recorded from the order <= 2 scan
    s = FiniteSemiheap.from_rule(2, lambda x, y, z: z)
    ps = PointedSemiheap(s, 0)
    assert not is_biunital(ps)
    dim, _ = left_invariant_functions(ps)
    assert dim == 2


def test_reachability_witness_is_the_first_x_a_loop_finds():
    # On every semiheap of orders 2 and 3 at every basepoint: the first x with [x, x0, x0] != x,
    # with lhs [x, x0, x0] and rhs x, or None where every x is reached.
    for n in (2, 3):
        for s in enumeration.enumerate_semiheaps(n):
            t = s.table.entries
            for x0 in range(n):
                want = next((LawCounterexample("reachability", (x, x0), x0, int(t[x, x0, x0]), x)
                             for x in range(n) if t[x, x0, x0] != x), None)
                got = reachability_check(PointedSemiheap(s, x0))
                assert got == want
                assert got is None or type(got.lhs) is int and type(got.params[0]) is int
