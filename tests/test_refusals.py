"""The finite layer's documented refusals and witnesses, each reached by a call of its own.

Each case is a call and what it must do: raise the named exception with
the named message, or return the named value.
"""

import re

import numpy as np
import pytest

from semiheap import functors, groups
from semiheap.actions import (FiniteAction, discretized_flow_action, equivariance_witness, translation_action,
                              trivial_action)
from semiheap.bundles import DiscreteSemiheapBundle, fiber_semiheap, trivial_bundle, verify_bundle
from semiheap.charts import bundled_charts
from semiheap.core import FiniteSemiheap, InvalidTable, LawError, PointedSemiheap, SemiheapHom, TernaryTable
from semiheap.enumeration import are_isomorphic, enumerate_semiheaps
from semiheap.groups import FiniteGroup
from semiheap.numeric import left_invariant_field
from semiheap.translations import LawCounterexample, left_monoid_check, reachability_check

H2, H3 = functors.heapify(groups.cyclic(2)).semiheap, functors.heapify(groups.cyclic(3)).semiheap
LEFT = FiniteSemiheap.from_rule(2, lambda x, y, z: x)      # [x,y,z] = x: L_{00} is constant
RIGHT = FiniteSemiheap.from_rule(2, lambda x, y, z: z)     # [x,y,z] = z: [x,0,0] = 0 for every x
B = trivial_bundle(2, H2)
# a flow on two points that fixes them at step 0 but swaps them at every other step
SWAP = np.array([[0, 1, 1, 1], [1, 0, 0, 0]])


def _bundle_with_action(action):
    return DiscreteSemiheapBundle(B.base_size, B.projection, B.structure, action, B.cover, B.charts)


# name: (call, (the exception it raises, its message) or ("returns", the value it returns))
CASES = {
    "TernaryTable on a non-cube": (lambda: TernaryTable(np.zeros((2, 2, 3), dtype=np.int64)),
                                   (InvalidTable, "ternary table must be an (n,n,n) cube, got shape (2, 2, 3)")),
    "SemiheapHom on a non-hom": (lambda: SemiheapHom(H3, H3, np.array([0, 0, 1])),
                                 (LawError, "not a homomorphism at triple")),
    "FiniteGroup on a (0, 0) table": (lambda: FiniteGroup(np.zeros((0, 0), dtype=np.int64), 0, []),
                                      (InvalidTable, "a group needs at least the identity element")),
    "FiniteGroup with an identity outside the carrier": (
        lambda: FiniteGroup(groups.cyclic(2).mul, 2, [0, 1]), (InvalidTable, "identity index 2 outside carrier")),
    "enumerate_semiheaps by an unknown method": (lambda: enumerate_semiheaps(2, method="dfs"),
                                                 (ValueError, "unknown method 'dfs'")),
    "are_isomorphic across sizes": (lambda: are_isomorphic(H2, H3), ("returns", False)),
    "left_monoid_check on a non-biunital basepoint": (
        lambda: left_monoid_check(PointedSemiheap(LEFT, 0)),
        ("returns", LawCounterexample("left-unit-id", (0, 0), 1, 0, 1))),
    "reachability_check on a non-biunital basepoint": (
        lambda: reachability_check(PointedSemiheap(RIGHT, 0)),
        ("returns", LawCounterexample("reachability", (1, 0), 0, 0, 1))),
    "discretized_flow_action on a flow that fixes step 0 but is not additive": (
        lambda: discretized_flow_action(4, 2, SWAP), (LawError, "not a right group action: compatibility axiom fails")),
    "equivariance_witness across two semiheaps": (
        lambda: equivariance_witness(np.arange(2), translation_action(H2), translation_action(LEFT)),
        (InvalidTable, "equivariance needs actions of the same semiheap")),
    "left_invariant_field on a non-algebra generator": (
        lambda: left_invariant_field(bundled_charts()["so3"], np.eye(3)),
        (ValueError, "generator is not a so3 Lie-algebra element")),
    "verify_bundle with an action of another semiheap": (
        lambda: verify_bundle(_bundle_with_action(FiniteAction(RIGHT, B.action.table, verify=False))),
        (InvalidTable, "action is not an action of the structure semiheap")),
    "verify_bundle with an action of another size": (
        lambda: verify_bundle(_bundle_with_action(trivial_action(3, H2))),
        (InvalidTable, "action moves 3 points, the total space has 4")),
    "fiber_semiheap at a base point outside the chart": (lambda: fiber_semiheap(B, 2, 0),
                                                         (InvalidTable, "base point 2 not in chart 0")),
}


@pytest.mark.parametrize("name", CASES)
def test_documented_refusal(name):
    call, (want, value) = CASES[name]
    if want == "returns":
        assert call() == value
    else:
        with pytest.raises(want, match=re.escape(value)):
            call()
