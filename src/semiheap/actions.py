"""Right semiheap actions on finite sets.

An action of S on M is a table sigma(point, x, y) subject to the
compatibility law sigma_{x3x4} . sigma_{x1x2} = sigma_{x1, [x2,x3,x4]}.
Orbits are plain reachable sets: the paper's warning that semiheap
reachability is not an equivalence relation rules out quotient objects,
so none exist here.
"""

from dataclasses import dataclass, InitVar

import numpy as np

from .core import (FiniteSemiheap, InvalidTable, LawError, _first_class_path_disagreement, _first_disagreement,
                   _index_array, _translation_rows)
from .functors import heapify
from .groups import cyclic


@dataclass(frozen=True)
class ActionCounterexample:
    """First (point, x1, x2, x3, x4) where the compatibility law fails."""

    point: int
    quadruple: tuple
    lhs: int
    rhs: int


def action_compat_witness(table, semiheap):
    """Exhaustive compatibility check of a raw (m, n, n) action table.

    The scan runs over the rows (p, x1) in order, n^3 values per row, on
    the class path of _first_class_path_disagreement: both sides of row
    (p, x1) read it only through the map y -> sigma(p, x1, y).
    """
    n = semiheap.n
    a = _index_array(table, (None, n, n), None, "action table")
    values, *forms = _translation_rows(a, semiheap.table.entries, a.shape[0])
    hit = _first_class_path_disagreement(values, n ** 3, forms)
    if hit is None:
        return None
    (pair, *rest), (lhs, rhs) = hit
    p, x1 = divmod(pair, n)
    return ActionCounterexample(p, (x1, *rest), lhs, rhs)


@dataclass(frozen=True)
class FiniteAction:
    """A verified right action table of a semiheap on a finite set."""

    semiheap: FiniteSemiheap
    table: np.ndarray  # shape (m, n, n)
    verify: InitVar[bool] = True

    def __post_init__(self, verify):
        n = self.semiheap.n
        arr = _index_array(self.table, (None, n, n), None, "action table")
        object.__setattr__(self, "table", arr)
        if verify:
            witness = action_compat_witness(arr, self.semiheap)
            if witness is not None:
                raise LawError(f"action compatibility fails at point {witness.point}", witness)

    @property
    def space_size(self):
        return self.table.shape[0]

    def apply(self, p, x, y):
        return int(self.table[p, x, y])


def verify_action(action):
    """Re-run the compatibility check on an existing action value."""
    return action_compat_witness(action.table, action.semiheap)


def trivial_action(m, s):
    """Every pair acts as the identity on an m-point space."""
    table = np.broadcast_to(np.arange(m)[:, None, None], (m, s.n, s.n))
    return FiniteAction(s, table.copy())


def translation_action(s):
    """S acting on itself by right translation; the table is the ternary cube."""
    return FiniteAction(s, s.table.entries.copy())


def action_from_hom(h):
    """Action of the source on the target: (y, x1, x2) -> [y, psi x1, psi x2]'."""
    t2 = h.target.table.entries
    table = t2[:, h.mapping, :][:, :, h.mapping]
    return FiniteAction(h.source, table)


def group_action_witness(act, g):
    """First violated right group-action axiom on a raw (m, n) table, or None."""
    a = _index_array(act, (None, g.n), None, "group action table")
    m = a.shape[0]
    hit = _first_disagreement(m, 1, lambda r: a[r, g.e], lambda r: np.arange(m)[r])
    if hit is not None:
        (p,), (ap, _) = hit
        return ("identity", (p,), ap, p)
    hit = _first_disagreement(m, g.n ** 2,
                              lambda r: a[a[r]],              # a[a[p,g1],g2]
                              lambda r: a[r][:, g.mul])       # a[p,g1 g2]
    return None if hit is None else ("compatibility", hit[0], *hit[1])


def action_from_group_action(g, act):
    """The heap action induced by a right G-action: sigma(p,g1,g2) = a(p, g1^-1 g2)."""
    bad = group_action_witness(act, g)
    if bad is not None:
        raise LawError(f"not a right group action: {bad[0]} axiom fails", bad)
    return _heap_action(g, act, verify=True)


def _heap_action(g, act, verify):
    """The action of heapify(g) from a right G-action table act: sigma(p,g1,g2) = act[p, g1^-1 g2]."""
    return FiniteAction(heapify(g).semiheap, np.asarray(act, dtype=np.int64)[:, g.mul[g.inv]], verify)


def right_multiplication_action(g):
    """G acting on itself by right multiplication, as a raw (n, n) table."""
    return g.mul.copy()


def discretized_flow_action(k, m, flow):
    """Heap action of the cyclic step heap Z/k from an additive flow table.

    flow is an (m, k) table with flow[p, 0] = p and flow[flow[p, t1], t2] =
    flow[p, (t1 + t2) % k], a right Z/k-action; the induced action is
    action_from_group_action's, sigma(p, t1, t2) = flow[p, (-t1 + t2) % k].
    """
    f = _index_array(flow, (m, k), m, "flow table")
    return action_from_group_action(cyclic(k), f)


def equivariance_witness(mapping, a_m, a_n):
    """First (p, x, y) with psi(p <| (x,y)) != psi(p) <| (x,y), or None."""
    if a_m.semiheap.key() != a_n.semiheap.key():
        raise InvalidTable("equivariance needs actions of the same semiheap")
    psi = _index_array(mapping, (a_m.space_size,), a_n.space_size, "map")
    hit = _first_disagreement(a_m.space_size, a_m.semiheap.n ** 2,
                              lambda r: psi[a_m.table[r]],
                              lambda r: a_n.table[psi[r]])
    return None if hit is None else (*hit[0], *hit[1])


def is_equivariant(mapping, a_m, a_n):
    return equivariance_witness(mapping, a_m, a_n) is None


def orbit(action, p):
    """The reachable set {sigma(p, x, y)} — a plain set, never a quotient."""
    if not 0 <= p < action.space_size:
        raise InvalidTable(f"point {p} outside space of size {action.space_size}")
    return frozenset(int(v) for v in action.table[p].reshape(-1))


def reachability_symmetric(action):
    """Diagnostic: is q in orbit(p) equivalent to p in orbit(q) here?

    Returns None when symmetric, else the first asymmetric pair (p, q)
    with q reachable from p but not conversely.
    """
    m = action.space_size
    orbits = [orbit(action, p) for p in range(m)]
    for p in range(m):
        for q in sorted(orbits[p]):
            if p not in orbits[q]:
                return (p, q)
    return None
