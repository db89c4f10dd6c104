"""Every entry point that takes an index array rejects a malformed one with InvalidTable.

Each case builds one valid array and the call that consumes it; the test
then feeds the call the array with an extra axis, with a negative entry,
and with an entry equal to the bound of its range.
"""

import numpy as np
import pytest

from semiheap import functors, groups
from semiheap.actions import (
    FiniteAction,
    action_compat_witness,
    discretized_flow_action,
    equivariance_witness,
    group_action_witness,
)
from semiheap.bundles import (
    BundleHom,
    FinitePrincipalBundle,
    PrincipalBundleHom,
    trivial_bundle,
    trivial_principal_bundle,
    verify_bundle_hom,
    verify_principal_hom,
)
from semiheap.core import InvalidTable, SemiheapHom, closure_witness, homomorphism_witness
from semiheap.groups import FiniteGroup, group_hom_witness

Z2, Z4 = groups.cyclic(2), groups.cyclic(4)
H2, H4 = functors.heapify(Z2).semiheap, functors.heapify(Z4).semiheap
QUOTIENT = np.array([0, 1, 0, 1])                          # Z4 -> Z2
FLOW2 = np.array([[(p + t) % 2 for t in range(4)] for p in range(2)])
A4 = discretized_flow_action(4, 4, np.array([[(p + t) % 4 for t in range(4)] for p in range(4)]))
A2 = discretized_flow_action(4, 2, FLOW2)
PB, B = trivial_principal_bundle(2, Z2), trivial_bundle(2, H2)
ID_HOM = SemiheapHom(H2, H2, np.arange(2))

# name: (call taking the array, a valid array for it, the bound its entries stay below)
CASES = {
    "homomorphism_witness": (lambda v: homomorphism_witness(v, H4, H2), QUOTIENT, 2),
    "SemiheapHom": (lambda v: SemiheapHom(H4, H2, v), QUOTIENT, 2),
    "closure_witness": (lambda v: closure_witness(v, H4), np.array([0, 2]), 4),
    "FiniteGroup.mul": (lambda v: FiniteGroup(v, 0, Z4.inv), Z4.mul, 4),
    "FiniteGroup.inv": (lambda v: FiniteGroup(Z4.mul, 0, v), Z4.inv, 4),
    "FiniteGroup.from_mul": (FiniteGroup.from_mul, Z4.mul, 4),
    "group_hom_witness": (lambda v: group_hom_witness(v, Z4, Z2), QUOTIENT, 2),
    "action_compat_witness": (lambda v: action_compat_witness(v, H2), H2.table.entries, 2),
    "FiniteAction": (lambda v: FiniteAction(H2, v, verify=False), H2.table.entries, 2),
    "group_action_witness": (lambda v: group_action_witness(v, Z4), Z4.mul, 4),
    "equivariance_witness": (lambda v: equivariance_witness(v, A4, A2), QUOTIENT, 2),
    "discretized_flow_action": (lambda v: discretized_flow_action(4, 2, v), FLOW2, 2),
    "FinitePrincipalBundle.action": (
        lambda v: FinitePrincipalBundle(Z2, 2, PB.projection, v, PB.cover, PB.charts), PB.action, 4),
    "verify_bundle_hom.total_map": (
        lambda v: verify_bundle_hom(BundleHom(v, np.arange(2), ID_HOM), B, B), np.arange(4), 4),
    "verify_bundle_hom.base_map": (
        lambda v: verify_bundle_hom(BundleHom(np.arange(4), v, ID_HOM), B, B), np.arange(2), 2),
    "verify_principal_hom.total_map": (
        lambda v: verify_principal_hom(PrincipalBundleHom(v, np.arange(2), np.arange(2)), PB, PB),
        np.arange(4), 4),
    "verify_principal_hom.base_map": (
        lambda v: verify_principal_hom(PrincipalBundleHom(np.arange(4), v, np.arange(2)), PB, PB),
        np.arange(2), 2),
}


@pytest.mark.parametrize("flaw", ["shape", "negative", "high"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_index_arrays_are_checked_at_the_boundary(name, flaw):
    call, valid, high = CASES[name]
    call(valid)                                    # the valid array passes the boundary
    bad = np.array(valid)
    if flaw == "shape":
        bad = bad[None]
    else:
        bad.reshape(-1)[0] = -1 if flaw == "negative" else high
    with pytest.raises(InvalidTable):
        call(bad)
