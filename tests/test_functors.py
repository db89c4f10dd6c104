from collections import Counter
from itertools import product as iproduct

import numpy as np
import pytest

from semiheap import enumeration, groups
from semiheap.core import LawError, PointedSemiheap, is_abelian, is_heap, is_homomorphism
from semiheap.functors import (
    BudgetExceeded,
    GroupAxiomWitness,
    check_fully_faithful,
    groupify,
    groupify_diagnose,
    heapify,
    transport_group_hom,
)
from semiheap.groups import FiniteGroup, is_group_hom

from oracles import first_group_axiom_failure


def test_heapify_z2_is_xor():
    h = heapify(groups.cyclic(2))
    expected = [(x + y + z) % 2 for x in range(2) for y in range(2) for z in range(2)]
    assert list(h.semiheap.table.flat()) == expected
    assert h.basepoint == 0


def test_heapify_z4_spot_value():
    h = heapify(groups.cyclic(4))
    assert h.semiheap.apply(1, 2, 3) == (1 - 2 + 3) % 4


def test_heapify_s3_heap_nonabelian():
    h = heapify(groups.symmetric3())
    assert is_heap(h.semiheap) and not is_abelian(h.semiheap)


def test_round_trip_group_to_heap_to_group(corpus):
    for g in corpus:
        g2 = groupify(heapify(g))
        assert np.array_equal(g2.mul, g.mul)
        assert g2.e == g.e
        assert np.array_equal(g2.inv, g.inv)


def test_round_trip_heap_to_group_to_heap(pointed_heaps_upto3):
    for ps in pointed_heaps_upto3:
        g = groupify(ps)
        back = heapify(g)
        assert back.semiheap.key() == ps.semiheap.key()
        assert back.basepoint == ps.basepoint


def test_groupify_off_identity_basepoint():
    # basepoint 1 of the Z/3 heap: a group with identity 1, still cyclic of order 3
    h = heapify(groups.cyclic(3))
    g = groupify(PointedSemiheap(h.semiheap, 1))
    assert g.e == 1
    x = 0
    order = 1
    y = x
    while y != g.e:
        y = int(g.mul[y, x])
        order += 1
        assert order <= 3
    assert order == 3


def test_groupify_requires_heap():
    from semiheap.core import FiniteSemiheap
    const = FiniteSemiheap.from_rule(2, lambda x, y, z: 0)
    with pytest.raises(LawError):
        groupify(PointedSemiheap(const, 0))
    diag = groupify_diagnose(PointedSemiheap(const, 0))
    assert isinstance(diag, GroupAxiomWitness)
    assert diag.axiom == "identity"


def test_groupify_diagnose_succeeds_on_actual_heaps():
    h = heapify(groups.dihedral4())
    g = groupify_diagnose(h)
    assert not isinstance(g, GroupAxiomWitness)
    assert np.array_equal(g.mul, groups.dihedral4().mul)


def test_groupify_diagnose_matches_the_loop_oracle():
    # Para-associativity implies associativity of [x,e,y], so at n <= 3 only
    # the identity and inverse axioms fail; the groups are the pointed heaps.
    found = Counter()
    for n in (1, 2, 3):
        for s in enumeration.enumerate_semiheaps(n):
            for e in range(n):
                ps = PointedSemiheap(s, e)
                diag = groupify_diagnose(ps)
                want = first_group_axiom_failure(s.table.flat(), n, e)
                if want is None:
                    assert isinstance(diag, FiniteGroup) and is_heap(s)
                    assert np.array_equal(diag.mul, groupify(ps).mul)
                else:
                    assert isinstance(diag, GroupAxiomWitness)
                    assert (diag.axiom, diag.witness) == want
                found[want and want[0]] += 1
    assert found == {"identity": 387, "inverse": 29, None: 6}


# An order-5 loop: identity 0 and unique two-sided inverses, but not associative.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_group_rejects_a_nonassociative_loop():
    first = next((x, y, z) for x, y, z in iproduct(range(5), repeat=3)
                 if LOOP5[LOOP5[x][y]][z] != LOOP5[x][LOOP5[y][z]])
    assert first == (1, 1, 2)
    for build in (lambda: FiniteGroup.from_mul(LOOP5), lambda: FiniteGroup(LOOP5, 0, [0, 1, 2, 3, 4])):
        with pytest.raises(LawError, match="associativity") as exc:
            build()
        assert exc.value.witness == first


def test_group_axiom_failures_carry_their_witness():
    with pytest.raises(LawError, match="identity") as exc:
        FiniteGroup(groups.cyclic(3).mul, 1, [0, 2, 1])
    assert exc.value.witness == (1, 0, 1, 1)
    with pytest.raises(LawError, match="inverse") as exc:
        FiniteGroup(groups.cyclic(3).mul, 0, [0, 1, 2])
    assert exc.value.witness == (1, 1)


def test_group_axiom_witness_is_importable_from_functors():
    assert GroupAxiomWitness is groups.GroupAxiomWitness


def test_fully_faithful_z2_z2():
    report = check_fully_faithful(groups.cyclic(2), groups.cyclic(2))
    assert report.maps_checked == 4
    assert len(report.group_homs) == 2
    assert set(report.pointed_heap_homs) == set(report.group_homs)
    # without the basepoint condition strictly more homs exist: the constant
    # map onto the non-identity element is one of them
    assert len(report.unpointed_heap_homs) > len(report.pointed_heap_homs)
    assert (1, 1) in report.unpointed_heap_homs
    assert not is_group_hom(np.array([1, 1]), groups.cyclic(2), groups.cyclic(2))


def test_fully_faithful_z2_z4():
    report = check_fully_faithful(groups.cyclic(2), groups.cyclic(4))
    assert report.maps_checked == 16
    assert set(report.group_homs) == {(0, 0), (0, 2)}
    assert set(report.pointed_heap_homs) == set(report.group_homs)


def test_fully_faithful_budget_refusal():
    with pytest.raises(BudgetExceeded):
        check_fully_faithful(groups.dihedral4(), groups.quaternion8(), budget=100)


def test_fully_faithful_refuses_a_nan_budget_and_stops_at_a_negative_one():
    # No row count is above nan, so a nan budget would bound nothing; a
    # negative budget is exceeded by the first level's rows.
    for g in (groups.cyclic(1), groups.cyclic(2)):
        with pytest.raises(ValueError, match="nan"):
            check_fully_faithful(g, g, budget=float("nan"))
        with pytest.raises(BudgetExceeded):
            check_fully_faithful(g, g, budget=-1)


def test_fully_faithful_budget_counts_prefix_rows_not_maps():
    # 8^8 = 16,777,216 maps Z8 -> Q8, far past the default budget of
    # 1,000,000, but the prefix extension extends only a few thousand rows.
    # A hom of Z8 is any image of its generator, since every element of Q8
    # has order dividing 8.
    report = check_fully_faithful(groups.cyclic(8), groups.quaternion8())
    assert report.maps_checked == 8 ** 8
    assert len(report.group_homs) == 8 and len(report.unpointed_heap_homs) == 64


def test_group_homs_transport_to_pointed_heap_homs():
    pairs = [(groups.cyclic(2), groups.cyclic(4)),
             (groups.cyclic(3), groups.cyclic(3)),
             (groups.klein_four(), groups.cyclic(2))]
    for g, g2 in pairs:
        report = check_fully_faithful(g, g2)
        for f in report.group_homs:
            assert transport_group_hom(np.array(f), g, g2)


def test_enumerated_heap_homs_equal_group_homs_small():
    # cross-check the fully-faithful report against direct filtering
    g, g2 = groups.cyclic(3), groups.cyclic(3)
    report = check_fully_faithful(g, g2)
    h, h2 = heapify(g), heapify(g2)
    from itertools import product as iproduct
    direct = {f for f in iproduct(range(3), repeat=3)
              if f[h.basepoint] == h2.basepoint
              and is_homomorphism(np.array(f), h.semiheap, h2.semiheap)}
    assert direct == set(report.pointed_heap_homs)
