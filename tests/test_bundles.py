from itertools import product as iproduct

import numpy as np
import pytest

from semiheap import functors, groups
from semiheap.actions import FiniteAction
from semiheap.bundles import (
    BundleHom,
    DiscreteSemiheapBundle,
    FinitePrincipalBundle,
    PrincipalBundleHom,
    fiber_semiheap,
    heapify_principal,
    heapify_principal_hom,
    trivial_bundle,
    trivial_principal_bundle,
    verify_bundle,
    verify_bundle_hom,
    verify_principal_hom,
)
from semiheap.core import InvalidTable, LawError, SemiheapHom, verify_para_associative


def z_heap(n):
    return functors.heapify(groups.cyclic(n)).semiheap


def twisted_z2_bundle():
    """Principal Z/2 bundle over two points with a twisted transition."""
    g = groups.cyclic(2)
    proj = np.array([0, 0, 1, 1])
    act = np.array([[0, 1], [1, 0], [2, 3], [3, 2]])
    chart0 = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    chart1 = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
    return FinitePrincipalBundle(g, 2, proj, act,
                                 (frozenset({0, 1}), frozenset({0, 1})),
                                 (chart0, chart1))


def twisted_z4_bundle():
    """Principal Z/4 bundle over two points, twisted by 1 on the second chart."""
    g = groups.cyclic(4)
    proj = np.arange(8) // 4
    act = np.array([[(p // 4) * 4 + (p % 4 + x) % 4 for x in range(4)] for p in range(8)])
    chart0 = {p: (p // 4, p % 4) for p in range(8)}
    chart1 = {p: (p // 4, (p % 4 + (p // 4)) % 4) for p in range(8)}
    return FinitePrincipalBundle(g, 2, proj, act,
                                 (frozenset({0, 1}), frozenset({0, 1})),
                                 (chart0, chart1))


def test_trivial_bundles_verify():
    for base, s in [(1, z_heap(3)), (3, z_heap(3)), (2, z_heap(1)), (4, z_heap(2))]:
        b = trivial_bundle(base, s)
        assert verify_bundle(b) is None


def test_trivial_bundle_fiber_is_structure():
    s = z_heap(3)
    b = trivial_bundle(3, s)
    induced, pts = fiber_semiheap(b, 1, 0)
    assert induced.key() == s.key()
    assert pts == [3, 4, 5]


def test_twisted_principal_bundles_heapify():
    for pb in (twisted_z2_bundle(), twisted_z4_bundle(), trivial_principal_bundle(2, groups.cyclic(3))):
        b = heapify_principal(pb)
        assert verify_bundle(b) is None


def test_single_point_base_reduces_to_structure():
    pb = trivial_principal_bundle(1, groups.cyclic(3))
    b = heapify_principal(pb)
    induced, _ = fiber_semiheap(b, 0, 0)
    assert induced.key() == z_heap(3).key()


def test_cross_chart_fiber_structures_isomorphic():
    for pb in (twisted_z2_bundle(), twisted_z4_bundle()):
        b = heapify_principal(pb)
        for m in range(b.base_size):
            for i in range(len(b.cover)):
                induced, _ = fiber_semiheap(b, m, i)   # asserts the transition hom inside
                assert verify_para_associative(induced.table) is None


def test_every_action_mutation_is_caught():
    b = heapify_principal(twisted_z2_bundle())
    base = b.action.table
    total, n = base.shape[0], b.structure.n
    mutants = 0
    for p in range(total):
        for x in range(n):
            for y in range(n):
                for v in range(total):
                    if v == base[p, x, y]:
                        continue
                    mutated = base.copy()
                    mutated[p, x, y] = v
                    bad = DiscreteSemiheapBundle(
                        b.base_size, b.projection, b.structure,
                        FiniteAction(b.structure, mutated, verify=False),
                        b.cover, b.charts)
                    assert verify_bundle(bad) is not None
                    mutants += 1
    assert mutants == total * n * n * (total - 1)


def test_verify_bundle_failure_axioms_are_specific():
    b = heapify_principal(twisted_z2_bundle())
    # send a point to the wrong fiber: fiber preservation must trip
    mutated = b.action.table.copy()
    mutated[0, 0, 0] = 2
    bad = DiscreteSemiheapBundle(b.base_size, b.projection, b.structure,
                                 FiniteAction(b.structure, mutated, verify=False),
                                 b.cover, b.charts)
    failure = verify_bundle(bad)
    assert failure.axiom in ("action-compatibility", "fiber-preservation")
    # break equivariance while staying inside the fiber
    mutated = b.action.table.copy()
    mutated[0, 0, 0], mutated[1, 0, 0] = mutated[1, 0, 0], mutated[0, 0, 0]
    bad = DiscreteSemiheapBundle(b.base_size, b.projection, b.structure,
                                 FiniteAction(b.structure, mutated, verify=False),
                                 b.cover, b.charts)
    failure = verify_bundle(bad)
    assert failure is not None


def test_principal_axioms_enforced():
    g = groups.cyclic(2)
    proj = np.array([0, 0])
    act = np.array([[0, 0], [1, 1]])      # not free: both points fixed by everything
    chart = {0: (0, 0), 1: (0, 1)}
    with pytest.raises(LawError):
        FinitePrincipalBundle(g, 1, proj, act, (frozenset({0}),), (chart,))


def test_principal_bundle_needs_one_chart_per_cover_set():
    g = groups.cyclic(2)
    chart = {0: (0, 0), 1: (0, 1)}
    with pytest.raises(InvalidTable, match="one trivialization per cover set"):
        FinitePrincipalBundle(g, 1, [0, 0], g.mul, (frozenset({0}), frozenset({0})), (chart,))


def test_principal_projection_outside_base_is_invalid():
    g = groups.cyclic(2)
    act = np.array([[0, 1], [1, 0], [2, 3], [3, 2]])
    chart = {0: (0, 0), 1: (0, 1)}
    with pytest.raises(InvalidTable, match="projection value outside base"):
        FinitePrincipalBundle(g, 1, [0, 0, 1, 1], act, (frozenset({0}),), (chart,))


def test_free_action_on_an_oversized_fiber_fails_chart_injectivity():
    # Z2 acts freely on one 4-point fiber: two orbits, so not transitive; the
    # chart onto {0} x Z2 cannot be injective, and that is the failure named.
    g = groups.cyclic(2)
    act = np.array([[0, 1], [1, 0], [2, 3], [3, 2]])
    chart = {0: (0, 0), 1: (0, 1), 2: (0, 0), 3: (0, 1)}
    with pytest.raises(LawError, match="chart-injective") as exc:
        FinitePrincipalBundle(g, 1, [0, 0, 0, 0], act, (frozenset({0}),), (chart,))
    assert (exc.value.witness.axiom, exc.value.witness.witness) == ("chart-injective", (0, 2, 0, 0))


def test_principal_and_semiheap_bundles_share_the_chart_checks():
    # A bad chart fails with the same axiom and witness in both bundle kinds.
    pb = twisted_z2_bundle()
    b = heapify_principal(pb)
    bad_charts = ({**pb.charts[0], 3: (1, 0)}, pb.charts[1])
    semi = DiscreteSemiheapBundle(b.base_size, b.projection, b.structure, b.action, b.cover, bad_charts)
    with pytest.raises(LawError) as exc:
        FinitePrincipalBundle(pb.group, 2, pb.projection, pb.action, pb.cover, bad_charts)
    assert exc.value.witness == verify_bundle(semi)
    assert exc.value.witness.axiom == "chart-injective"


def test_identity_bundle_hom():
    s = z_heap(2)
    b = trivial_bundle(2, s)
    hom = BundleHom(np.arange(b.total_size), np.arange(2), SemiheapHom(s, s, np.arange(2)))
    assert verify_bundle_hom(hom, b, b) is None


def test_quotient_structure_hom_over_identity_base():
    z4, z2 = z_heap(4), z_heap(2)
    b4, b2 = trivial_bundle(2, z4), trivial_bundle(2, z2)
    psi = SemiheapHom(z4, z2, np.array([0, 1, 0, 1]))
    total = np.array([(p // 4) * 2 + (p % 4) % 2 for p in range(8)])
    hom = BundleHom(total, np.arange(2), psi)
    assert verify_bundle_hom(hom, b4, b2) is None
    broken = total.copy()
    broken[3] = (broken[3] + 1) % 4
    assert verify_bundle_hom(BundleHom(broken, np.arange(2), psi), b4, b2) is not None


def test_principal_hom_transport_and_functoriality():
    g2, g4 = groups.cyclic(2), groups.cyclic(4)
    pb4 = trivial_principal_bundle(2, g4)
    pb2 = trivial_principal_bundle(2, g2)
    psi42 = np.array([0, 1, 0, 1])          # Z/4 -> Z/2 quotient
    total42 = np.array([(p // 4) * 2 + (p % 4) % 2 for p in range(8)])
    h42 = PrincipalBundleHom(total42, np.arange(2), psi42)
    assert verify_principal_hom(h42, pb4, pb2) is None
    bh42 = heapify_principal_hom(h42, pb4, pb2)   # asserts bundle-hom property

    # compose with the identity on pb2 and compare with direct transport
    ident = PrincipalBundleHom(np.arange(4), np.arange(2), np.arange(2))
    assert verify_principal_hom(ident, pb2, pb2) is None
    bh_id = heapify_principal_hom(ident, pb2, pb2)
    composed = PrincipalBundleHom(bh_id.total_map[h42.total_map],
                                  bh_id.base_map[h42.base_map],
                                  ident.group_hom[h42.group_hom])
    bh_comp = heapify_principal_hom(composed, pb4, pb2)
    assert np.array_equal(bh_comp.total_map, bh_id.total_map[bh42.total_map])
    assert np.array_equal(bh_comp.structure_hom.mapping,
                          bh_id.structure_hom.mapping[bh42.structure_hom.mapping])


def test_principal_hom_maps_are_checked_like_bundle_hom_maps():
    # Negative entries used to wrap round and fail the projection square;
    # long or out-of-range maps raised a bare IndexError.
    pb = trivial_principal_bundle(2, groups.cyclic(2))
    for total in ([0, 1, 2, 7], [-4, -3, -2, -1], [0, 1, 2, 3, 0]):
        with pytest.raises(InvalidTable, match="total map"):
            verify_principal_hom(PrincipalBundleHom(total, np.arange(2), np.arange(2)), pb, pb)
    with pytest.raises(InvalidTable, match="base map"):
        verify_principal_hom(PrincipalBundleHom(np.arange(4), [0, 2], np.arange(2)), pb, pb)


def test_bundle_heapification_is_faithful_but_not_full():
    # a semiheap-bundle hom whose structure map is the constant map onto the
    # non-identity element of the Z/2 heap; no principal-bundle hom maps to it
    g = groups.cyclic(2)
    pb = trivial_principal_bundle(1, g)
    b = heapify_principal(pb)
    s = b.structure
    psi_const = SemiheapHom(s, s, np.array([1, 1]))
    hom = BundleHom(np.zeros(2, dtype=np.int64), np.zeros(1, dtype=np.int64), psi_const)
    assert verify_bundle_hom(hom, b, b) is None

    transported = []
    for total in iproduct(range(2), repeat=2):
        for grp in iproduct(range(2), repeat=2):
            cand = PrincipalBundleHom(np.array(total), np.zeros(1, dtype=np.int64), np.array(grp))
            if verify_principal_hom(cand, pb, pb) is None:
                bh = heapify_principal_hom(cand, pb, pb)
                transported.append((tuple(bh.total_map.tolist()),
                                    tuple(bh.structure_hom.mapping.tolist())))
    # faithfulness: transport is injective on the principal homs
    assert len(transported) == len(set(transported))
    # not full: the constant-structure hom is not in the image
    assert (tuple(hom.total_map.tolist()),
            tuple(hom.structure_hom.mapping.tolist())) not in set(transported)
