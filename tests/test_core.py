import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiheap import functors, groups, translations
from semiheap.core import (
    FiniteHeap,
    FiniteSemiheap,
    InvalidTable,
    LawError,
    PointedSemiheap,
    SemiheapHom,
    TernaryTable,
    closure_witness,
    homomorphic_image,
    homomorphism_witness,
    induce_pointed_via_bijection,
    induce_via_bijection,
    induced_pair_iso,
    is_abelian,
    is_biunitary,
    is_heap,
    is_homomorphism,
    is_subsemiheap,
    opposite,
    product,
    product_projections,
    verify_para_associative,
)

from oracles import product_loops, semiheap_tables_brute


def constant_semiheap(n, c=0):
    return FiniteSemiheap.from_rule(n, lambda x, y, z: c)


def z_heap(n):
    return functors.heapify(groups.cyclic(n)).semiheap


def test_constant_table_is_para_associative():
    for n in (1, 2, 3):
        assert verify_para_associative(TernaryTable.from_rule(n, lambda x, y, z: 0)) is None


def test_middle_projection_counterexample():
    # [x,y,z] = y: the outer form evaluates to x4, the middle form to x3
    table = TernaryTable.from_rule(2, lambda x, y, z: y)
    w = verify_para_associative(table)
    assert w is not None
    x1, x2, x3, x4, x5 = w.quintuple
    assert w.outer == x4 and w.middle == x3 and x3 != x4


def test_verifier_matches_loop_oracle_on_all_256_tables():
    accepted = semiheap_tables_brute(2)
    for flat in [tuple(v) for v in np.ndindex(*(2,) * 8)]:
        table = TernaryTable.from_flat(2, flat)
        assert (verify_para_associative(table) is None) == (flat in accepted)


def test_first_counterexample_is_lexicographic_minimum():
    table = TernaryTable.from_rule(2, lambda x, y, z: y)
    w = verify_para_associative(table)
    t = table.entries
    failing = []
    for q in np.ndindex(2, 2, 2, 2, 2):
        x1, x2, x3, x4, x5 = q
        outer = t[t[x1, x2, x3], x4, x5]
        middle = t[x1, t[x4, x3, x2], x5]
        inner = t[x1, x2, t[x3, x4, x5]]
        if not (outer == middle == inner):
            failing.append(q)
    assert w.quintuple == min(failing)


def test_malformed_tables_rejected():
    with pytest.raises(InvalidTable):
        TernaryTable.from_flat(2, [0, 1, 1, 0, 1, 0, 0, 2])
    with pytest.raises(InvalidTable):
        TernaryTable.from_flat(2, [0, 1])
    with pytest.raises(LawError):
        FiniteSemiheap.from_rule(2, lambda x, y, z: y)


def test_empty_semiheap_is_legal():
    s = FiniteSemiheap.from_flat(0, [])
    assert s.n == 0 and is_heap(s) and is_abelian(s)
    with pytest.raises(InvalidTable):
        PointedSemiheap(s, 0)


def test_biunitary_on_heapified_z2():
    s = z_heap(2)
    assert all(is_biunitary(s, x) for x in range(2))


def test_biunitary_fails_on_constant_table():
    s = constant_semiheap(2)
    # [1,0,0] = 0 != 1
    assert not is_biunitary(s, 0)
    with pytest.raises(IndexError):
        is_biunitary(s, 5)


def test_heap_checks_name_the_first_non_biunitary_element(order2_semiheaps, pointed_heaps_upto3):
    # [x,0,0] = x = [0,0,x] for x in {0, 1}, while [1,1,0] = 1 != 0.
    s = FiniteSemiheap.from_flat(2, [0, 1, 1, 1, 1, 1, 1, 1])
    assert is_biunitary(s, 0) and not is_biunitary(s, 1) and not is_heap(s)
    with pytest.raises(LawError, match="^element 1 is not biunitary$"):
        FiniteHeap(s)
    with pytest.raises(LawError, match="^groupify requires a heap; element 1 is not biunitary$"):
        functors.groupify(PointedSemiheap(s, 0))
    for t in list(order2_semiheaps) + [ps.semiheap for ps in pointed_heaps_upto3]:
        assert is_heap(t) == all(is_biunitary(t, x) for x in range(t.n))
        for x in range(t.n):
            assert translations.is_biunital(PointedSemiheap(t, x)) == is_biunitary(t, x)


def test_all_heapified_group_elements_biunitary(corpus):
    for g in corpus:
        if g.n > 6:
            continue
        s = functors.heapify(g).semiheap
        assert all(is_biunitary(s, x) for x in range(s.n))


def test_is_heap_is_abelian():
    assert is_heap(z_heap(3)) and is_abelian(z_heap(3))
    s3 = functors.heapify(groups.symmetric3()).semiheap
    assert is_heap(s3) and not is_abelian(s3)
    c = constant_semiheap(2)
    assert not is_heap(c) and is_abelian(c)


def test_finite_heap_wrapper():
    FiniteHeap(z_heap(4))
    with pytest.raises(LawError):
        FiniteHeap(constant_semiheap(2))


def test_opposite_fixes_abelian_and_moves_s3():
    z3 = z_heap(3)
    assert opposite(z3).key() == z3.key()
    s3 = functors.heapify(groups.symmetric3()).semiheap
    assert opposite(s3).key() != s3.key()


def test_opposite_is_involutive_on_order2(order2_semiheaps):
    for s in order2_semiheaps:
        assert opposite(opposite(s)).key() == s.key()
        assert (opposite(s).key() == s.key()) == is_abelian(s)


def test_product_with_trivial_is_identity():
    z4 = z_heap(4)
    trivial = constant_semiheap(1)
    p = product(z4, trivial)
    # index x*1 + 0 = x, so the tables agree on the nose
    assert p.key() == z4.key()


def test_product_of_z2_heaps_is_klein_heap():
    z2 = z_heap(2)
    p = product(z2, z2)
    k4 = functors.heapify(groups.klein_four()).semiheap
    assert p.key() == k4.key()


def test_product_matches_componentwise_loops(corpus, order2_semiheaps):
    pool = [functors.heapify(g).semiheap for g in corpus if g.n <= 4] + list(order2_semiheaps)[::3]
    for s in pool:
        for s2 in pool:
            if s.n * s2.n <= 12:
                want = product_loops(s.table.flat(), s.n, s2.table.flat(), s2.n)
                assert product(s, s2).table.flat() == want


def test_product_projections_are_homomorphisms(order2_semiheaps):
    for s in order2_semiheaps[:4]:
        for s2 in order2_semiheaps[:4]:
            p = product(s, s2)
            pr1, pr2 = product_projections(s, s2)
            assert is_homomorphism(pr1, p, s)
            assert is_homomorphism(pr2, p, s2)


def _all_homs(src, dst):
    from itertools import product as iproduct
    if src.n == 0:
        return [np.zeros(0, dtype=np.int64)]
    return [np.array(f, dtype=np.int64)
            for f in iproduct(range(dst.n), repeat=src.n)
            if is_homomorphism(np.array(f, dtype=np.int64), src, dst)]


def test_product_universal_property(order2_semiheaps):
    # pairing of homs through the projections exists, is a hom, and is the
    # unique map commuting with both projections; all order-2 triples
    from itertools import product as iproduct
    pool = list(order2_semiheaps)
    hom_cache = {(i, j): _all_homs(s, s2)
                 for i, s in enumerate(pool) for j, s2 in enumerate(pool)}
    for i, s in enumerate(pool):
        for j, s2 in enumerate(pool):
            p = product(s, s2)
            pr1, pr2 = product_projections(s, s2)
            # bucket every map {0,1} -> p by its projection pair
            buckets = {}
            for m in iproduct(range(p.n), repeat=2):
                arr = np.array(m, dtype=np.int64)
                key = (tuple(pr1[arr]), tuple(pr2[arr]))
                buckets.setdefault(key, []).append(arr)
            for k, t in enumerate(pool):
                for f1 in hom_cache[(k, i)]:
                    for f2 in hom_cache[(k, j)]:
                        pairing = f1 * s2.n + f2
                        assert is_homomorphism(pairing, t, p)
                        commuting = buckets[(tuple(f1), tuple(f2))]
                        assert len(commuting) == 1
                        assert np.array_equal(commuting[0], pairing)


def test_homomorphism_basics():
    z2 = z_heap(2)
    assert is_homomorphism(np.arange(2), z2, z2)
    assert is_homomorphism(np.zeros(2, dtype=np.int64), z2, z2)  # 0 - 0 + 0 = 0


def test_mod2_reduction_is_homomorphism():
    z4, z2 = z_heap(4), z_heap(2)
    red = np.array([0, 1, 0, 1])
    assert is_homomorphism(red, z4, z2)
    w = homomorphism_witness(np.array([0, 1, 1, 0]), z4, z2)
    assert w is not None


def test_homomorphic_image():
    z4, z2 = z_heap(4), z_heap(2)
    ident = SemiheapHom(z2, z2, np.arange(2))
    assert homomorphic_image(ident).key() == z2.key()
    red = SemiheapHom(z4, z2, np.array([0, 1, 0, 1]))
    assert homomorphic_image(red).key() == z2.key()
    const = SemiheapHom(z4, z4, np.zeros(4, dtype=np.int64))
    img = homomorphic_image(const)
    assert img.n == 1
    assert verify_para_associative(img.table) is None


def test_homomorphic_image_always_para_associative(order2_semiheaps):
    for s in order2_semiheaps:
        for s2 in order2_semiheaps:
            for f in _all_homs(s, s2):
                img = homomorphic_image(SemiheapHom(s, s2, f))
                assert verify_para_associative(img.table) is None


def test_subsemiheap():
    z4 = z_heap(4)
    assert is_subsemiheap(range(4), z4)
    assert is_subsemiheap([], z4)
    assert is_subsemiheap({0, 2}, z4)
    # lexicographically first escape is [0,1,0] = 3; [1,0,1] = 2 escapes too
    w = closure_witness({0, 1}, z4)
    assert w == (0, 1, 0, 3)
    assert z4.apply(1, 0, 1) == 2
    assert not is_subsemiheap({0, 1}, z4)


def test_induce_via_identity_bijection():
    z3 = z_heap(3)
    assert induce_via_bijection(np.arange(3), z3).key() == z3.key()


def test_induce_via_all_z3_permutations():
    from itertools import permutations
    z3 = z_heap(3)
    for phi in permutations(range(3)):
        induced = induce_via_bijection(np.array(phi), z3)
        assert verify_para_associative(induced.table) is None
        for psi in permutations(range(3)):
            induced_pair_iso(np.array(phi), np.array(psi), z3)  # raises if not a hom


def test_induce_via_random_bijections_on_z4():
    rng = np.random.default_rng(42)
    z4 = z_heap(4)
    for _ in range(5):
        phi = rng.permutation(4)
        psi = rng.permutation(4)
        for b in (phi, psi):
            assert verify_para_associative(induce_via_bijection(b, z4).table) is None
        iso = induced_pair_iso(phi, psi, z4)
        assert sorted(int(v) for v in iso.mapping) == list(range(4))


def test_induce_pointed_moves_basepoint():
    ps = functors.heapify(groups.cyclic(3))
    phi = np.array([2, 0, 1])   # phi: M -> S
    out = induce_pointed_via_bijection(phi, ps)
    assert int(phi[out.basepoint]) == ps.basepoint


def test_induce_rejects_non_bijection():
    with pytest.raises(InvalidTable):
        induce_via_bijection(np.array([0, 0, 1]), z_heap(3))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=27, max_size=27))
def test_hypothesis_order3_tables_oracle_agreement(flat):
    from oracles import para_associative_loops
    table = TernaryTable.from_flat(3, flat)
    assert (verify_para_associative(table) is None) == para_associative_loops(tuple(flat), 3)
