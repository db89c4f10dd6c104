import numpy as np
import pytest

from semiheap import functors, groups
from semiheap.actions import (
    FiniteAction,
    action_compat_witness,
    action_from_group_action,
    action_from_hom,
    discretized_flow_action,
    equivariance_witness,
    group_action_witness,
    is_equivariant,
    orbit,
    reachability_symmetric,
    right_multiplication_action,
    translation_action,
    trivial_action,
    verify_action,
)
from semiheap.core import FiniteSemiheap, InvalidTable, LawError, SemiheapHom
from semiheap.translations import right_compose_law, right_endomap

from oracles import action_compat_loops


def z_heap(n):
    return functors.heapify(groups.cyclic(n)).semiheap


def constant_semiheap(n, c=0):
    return FiniteSemiheap.from_rule(n, lambda x, y, z: c)


def test_trivial_action_certifies():
    for s in (z_heap(3), constant_semiheap(2)):
        a = trivial_action(4, s)
        assert verify_action(a) is None


def test_translation_action_matches_right_law(order2_semiheaps):
    for s in list(order2_semiheaps) + [z_heap(3), constant_semiheap(2), z_heap(1)]:
        a = translation_action(s)
        assert (verify_action(a) is None) == (right_compose_law(s) is None)
        assert verify_action(a) is None


def test_translation_action_agrees_with_loop_oracle():
    s = z_heap(3)
    a = translation_action(s)
    act = [[[int(a.table[p, x, y]) for y in range(3)] for x in range(3)] for p in range(3)]
    assert action_compat_loops(act, 3, s.table.flat(), 3)


def test_corrupted_action_reports_lexicographic_first_failure():
    s = z_heap(3)
    table = translation_action(s).table.copy()
    table[1, 2, 0] = (table[1, 2, 0] + 1) % 3
    w = action_compat_witness(table, s)
    assert w is not None
    failing = []
    t = s.table.entries
    for q in np.ndindex(3, 3, 3, 3, 3):
        p, x1, x2, x3, x4 = q
        if table[table[p, x1, x2], x3, x4] != table[p, x1, t[x2, x3, x4]]:
            failing.append(q)
    assert (w.point, *w.quadruple) == min(failing)
    with pytest.raises(LawError):
        FiniteAction(s, table)


def test_action_from_identity_hom_is_translation_action():
    s = z_heap(3)
    a = action_from_hom(SemiheapHom(s, s, np.arange(3)))
    assert np.array_equal(a.table, translation_action(s).table)


def test_action_from_mod2_reduction():
    z4, z2 = z_heap(4), z_heap(2)
    h = SemiheapHom(z4, z2, np.array([0, 1, 0, 1]))
    a = action_from_hom(h)
    assert a.space_size == 2 and a.semiheap.key() == z4.key()
    assert verify_action(a) is None


def test_action_from_constant_hom_is_single_translation():
    z4 = z_heap(4)
    h = SemiheapHom(z4, z4, np.zeros(4, dtype=np.int64))
    a = action_from_hom(h)
    fixed = right_endomap(z4, 0, 0)
    for x in range(4):
        for y in range(4):
            assert np.array_equal(a.table[:, x, y], fixed)


def test_group_self_action_induces_translation_action(corpus):
    for g in corpus:
        if g.n > 6:
            continue
        a = action_from_group_action(g, right_multiplication_action(g))
        h = functors.heapify(g)
        assert np.array_equal(a.table, translation_action(h.semiheap).table)


def test_trivial_group_action_induces_trivial_heap_action():
    g = groups.cyclic(3)
    act = np.tile(np.arange(5)[:, None], (1, 3))
    a = action_from_group_action(g, act)
    assert np.array_equal(a.table, trivial_action(5, functors.heapify(g).semiheap).table)


def test_z4_quotient_action_on_z2():
    g = groups.cyclic(4)
    act = np.array([[(p + x) % 2 for x in range(4)] for p in range(2)])
    a = action_from_group_action(g, act)
    assert verify_action(a) is None


def test_group_action_axioms_rejected():
    g = groups.cyclic(3)
    bad = np.array([[1, 0, 2], [0, 1, 2], [2, 2, 0]])
    assert group_action_witness(bad, g) is not None
    with pytest.raises(LawError):
        action_from_group_action(g, bad)


def test_induced_action_reduces_to_group_word(corpus):
    # sigma_{g3g4} . sigma_{g1g2} must equal a_{g1^-1 g2 g3^-1 g4}
    for g in [groups.cyclic(4), groups.symmetric3()]:
        act = right_multiplication_action(g)
        a = action_from_group_action(g, act)
        for g1 in range(g.n):
            for g2 in range(g.n):
                for g3 in range(g.n):
                    for g4 in range(g.n):
                        comp = a.table[:, g3, g4][a.table[:, g1, g2]]
                        word = g.mul[g.mul[g.mul[g.inv[g1], g2], g.inv[g3]], g4]
                        assert np.array_equal(comp, act[:, word])


def test_flow_action_rotation():
    for k in (1, 4, 5):
        flow = np.array([[(p + t) % k for t in range(k)] for p in range(k)])
        a = discretized_flow_action(k, k, flow)
        assert verify_action(a) is None


def test_flow_action_is_the_heap_action_of_its_cyclic_group_action():
    # The rotation flows for k = 1..6, and their quotients onto fewer points: table for table the action
    # that action_from_group_action builds from Z/k, and sigma(p, t1, t2) = flow[p, (t2 - t1) % k] on the
    # heap [a, b, c] = a - b + c mod k, read entry by entry.
    for k in range(1, 7):
        for m in {d for d in range(1, k + 1) if k % d == 0}:
            flow = np.array([[(p + t) % m for t in range(k)] for p in range(m)])
            a, want = discretized_flow_action(k, m, flow), action_from_group_action(groups.cyclic(k), flow)
            assert a.semiheap.key() == want.semiheap.key() == FiniteSemiheap.from_rule(
                k, lambda x, y, z: (x - y + z) % k).key()
            assert a.table.dtype == want.table.dtype and np.array_equal(a.table, want.table)
            assert all(a.table[p, t1, t2] == flow[p, (t2 - t1) % k]
                       for p in range(m) for t1 in range(k) for t2 in range(k))


def test_identity_flow_gives_trivial_action():
    flow = np.tile(np.arange(3)[:, None], (1, 4))
    a = discretized_flow_action(4, 3, flow)
    assert np.array_equal(a.table, trivial_action(3, a.semiheap).table)


def test_flow_axioms_enforced():
    bad = np.array([[1, 0], [0, 1]])
    with pytest.raises(LawError):
        discretized_flow_action(2, 2, bad)


def test_flow_and_unverified_action_tables_stay_in_the_space():
    with pytest.raises(InvalidTable, match="flow table entry 5"):
        discretized_flow_action(2, 2, [[0, 5], [1, 0]])
    table = z_heap(2).table.entries.copy()
    table[1, 0, 1] = 2
    with pytest.raises(InvalidTable, match="action table entry 2"):
        FiniteAction(z_heap(2), table, verify=False)


def test_equivariance_identity_and_quotient():
    s = z_heap(4)
    flow4 = np.array([[(p + t) % 4 for t in range(4)] for p in range(4)])
    flow2 = np.array([[(p + t) % 2 for t in range(4)] for p in range(2)])
    a4 = discretized_flow_action(4, 4, flow4)
    a2 = discretized_flow_action(4, 2, flow2)
    assert is_equivariant(np.arange(4), a4, a4)
    quotient = np.array([0, 1, 0, 1])
    assert is_equivariant(quotient, a4, a2)
    broken = np.array([0, 1, 1, 1])
    assert equivariance_witness(broken, a4, a2) is not None


def test_g_equivariant_implies_heap_equivariant():
    g = groups.cyclic(4)
    act_m = right_multiplication_action(g)
    act_n = np.array([[(p + x) % 2 for x in range(4)] for p in range(2)])
    psi = np.array([0, 1, 0, 1])
    # psi is G-equivariant for the raw actions
    assert np.array_equal(psi[act_m], act_n[psi])
    a_m = action_from_group_action(g, act_m)
    a_n = action_from_group_action(g, act_n)
    assert is_equivariant(psi, a_m, a_n)


def test_orbits():
    s = z_heap(5)
    assert orbit(trivial_action(4, s), 2) == frozenset({2})
    assert orbit(translation_action(s), 0) == frozenset(range(5))
    assert reachability_symmetric(translation_action(s)) is None


def test_asymmetric_reachability_on_constant_action():
    s = constant_semiheap(2, c=1)
    a = translation_action(s)
    assert orbit(a, 0) == frozenset({1})
    assert orbit(a, 1) == frozenset({1})
    assert reachability_symmetric(a) == (0, 1)
