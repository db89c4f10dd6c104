"""Desk-scale semiheap bundles over finite bases.

A bundle is a finite total space with a projection, a fiberwise semiheap
action, and per-chart trivializations that are equivariant for right
translation on the structure semiheap.  Charts are arbitrary base subsets;
there is no topology on a finite base.  Transitivity of the fiber action
is not part of the bundle axioms; in the principal bundles fed to
heapify_principal it follows from freeness and the charts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .actions import FiniteAction, action_compat_witness, group_action_witness
from .core import (
    FiniteSemiheap,
    InvalidTable,
    LawError,
    SemiheapHom,
    _first_disagreement,
    _index_array,
    induce_via_bijection,
    is_homomorphism,
)
from .functors import heapify
from .groups import FiniteGroup, group_hom_witness


@dataclass(frozen=True)
class BundleFailure:
    axiom: str
    witness: tuple


class _Trivialized:
    """What both bundle kinds hold, frozen on construction: a projection and one chart per cover set."""

    def __post_init__(self):
        proj = np.asarray(self.projection, dtype=np.int64).copy()
        proj.flags.writeable = False
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "cover", tuple(frozenset(u) for u in self.cover))
        object.__setattr__(self, "charts", tuple(dict(c) for c in self.charts))

    @property
    def total_size(self):
        return self.projection.shape[0]


@dataclass(frozen=True)
class DiscreteSemiheapBundle(_Trivialized):
    """Raw bundle data; run verify_bundle to certify it."""

    base_size: int
    projection: np.ndarray          # (P,) base index per total-space point
    structure: FiniteSemiheap
    action: FiniteAction            # of structure on the total space
    cover: tuple                    # tuple of frozensets of base indices
    charts: tuple                   # per chart, dict p -> (base index, fiber label)

    def fiber(self, m):
        return [int(p) for p in np.nonzero(self.projection == m)[0]]


def verify_bundle(b):
    """Check every bundle axiom exhaustively; None means certified.

    The action's compatibility law is re-checked here as well, so a
    corrupted action table is always caught through this single entry
    point.  Checks run in a fixed order and report the first failure.
    """
    _check_layout(b)
    if b.action.semiheap.key() != b.structure.key():
        raise InvalidTable("action is not an action of the structure semiheap")
    if b.action.space_size != b.total_size:
        raise InvalidTable(f"action moves {b.action.space_size} points, the total space has {b.total_size}")
    compat = action_compat_witness(b.action.table, b.structure)
    if compat is not None:
        return BundleFailure("action-compatibility", (compat.point, *compat.quadruple))
    return _trivialization_failure(b, b.action.table, b.structure.table.entries)


def _check_layout(b):
    """Raise InvalidTable unless the projection lands in the base and each cover set has one chart."""
    if b.projection.size and (b.projection.min() < 0 or b.projection.max() >= b.base_size):
        raise InvalidTable("projection value outside base")
    if len(b.charts) != len(b.cover):
        raise InvalidTable("one trivialization per cover set required")


def _trivialization_failure(b, act, mul):
    """The first failing axiom shared by semiheap and principal bundles, or None.

    act[p, *w] is the action of the structure on the total space and mul
    the structure's table (ternary cube or Cayley table); every chart
    must be an equivariant bijection onto its cover set times the carrier.
    """
    n, proj = mul.shape[0], b.projection
    missing = sorted(set(range(b.base_size)) - set(proj.tolist()))
    if missing:
        return BundleFailure("projection-surjective", (missing[0],))
    bad = _fiber_witness(proj, act)
    if bad is not None:
        return BundleFailure("fiber-preservation", (*bad, int(act[bad])))
    uncovered = sorted(set(range(b.base_size)).difference(*b.cover))
    if uncovered:
        return BundleFailure("cover", (uncovered[0],))
    for i, (u, chart) in enumerate(zip(b.cover, b.charts)):
        domain = {p for p in range(b.total_size) if int(proj[p]) in u}
        if set(chart) != domain:
            off = sorted(set(chart) ^ domain)[0]
            return BundleFailure("chart-domain", (i, off))
        seen = set()
        for p in sorted(domain):
            bm, s = chart[p]
            if bm != int(proj[p]):
                return BundleFailure("chart-triangle", (i, p, bm, int(proj[p])))
            if not 0 <= s < n:
                return BundleFailure("chart-range", (i, p, s))
            if (bm, s) in seen:
                return BundleFailure("chart-injective", (i, p, bm, s))
            seen.add((bm, s))
        if len(seen) != len(u) * n:
            return BundleFailure("chart-bijective", (i, len(seen), len(u) * n))
        bad = _chart_equivariance_witness(chart, act, mul)
        if bad is not None:
            return BundleFailure("chart-equivariance", (i, *bad))
    return None


def _fiber_witness(proj, act):
    """First index of the action table whose image leaves its point's fiber, or None."""
    hit = _first_disagreement(act.shape[0], math.prod(act.shape[1:]),
                              lambda r: proj[act[r]],
                              lambda r: proj[r].reshape((-1,) + (1,) * (act.ndim - 1)))
    return None if hit is None else hit[0]


def _chart_equivariance_witness(chart, act, mul):
    """First (p, *w, chart image, expected image) with chart(act[p, *w]) != (base, mul[label, *w]).

    Charts commute with the projection and the action preserves fibers
    (both checked before), so only the fiber labels need comparing.
    """
    points = np.array(sorted(chart), dtype=np.int64)
    label = np.zeros(act.shape[0], dtype=np.int64)
    label[points] = [chart[p][1] for p in points.tolist()]
    hit = _first_disagreement(points.size, math.prod(act.shape[1:]),
                              lambda r: label[act[points[r]]],
                              lambda r: mul[label[points[r]]])
    if hit is None:
        return None
    (i, *w), _ = hit
    p = int(points[i])
    bm, lab = chart[p]
    return (p, *w, chart[int(act[(p, *w)])], (bm, int(mul[(lab, *w)])))


def trivial_bundle(base_size, s):
    """The product bundle M x S with the right-translation action.

    Total-space index is m * n + x, matching the pair encoding used for
    semiheap products.
    """
    n = s.n
    total = base_size * n
    proj, x = np.divmod(np.arange(total), n)
    action = FiniteAction(s, proj[:, None, None] * n + s.table.entries[x], verify=False)
    chart = {p: (p // n, p % n) for p in range(total)}
    b = DiscreteSemiheapBundle(base_size, proj, s, action, (frozenset(range(base_size)),), (chart,))
    failure = verify_bundle(b)
    if failure is not None:
        raise AssertionError(f"trivial bundle must verify, got {failure}")
    return b


def fiber_semiheap(b, m, i):
    """The semiheap induced on the fiber over m by chart i.

    Returns (semiheap on the re-indexed fiber, the fiber points in order).
    For every other chart containing m, the transition map passes the
    homomorphism check between the two induced structures; a failure
    there would contradict the induced-structure proposition, so it is
    asserted.
    """
    if m not in b.cover[i]:
        raise InvalidTable(f"base point {m} not in chart {i}")
    fiber = b.fiber(m)
    labels = np.array([b.charts[i][p][1] for p in fiber], dtype=np.int64)
    induced = induce_via_bijection(labels, b.structure)
    for j in range(len(b.cover)):
        if j == i or m not in b.cover[j]:
            continue
        other = np.array([b.charts[j][p][1] for p in fiber], dtype=np.int64)
        induced_j = induce_via_bijection(other, b.structure)
        inv_j = {int(s): a for a, s in enumerate(other)}
        transition = np.array([inv_j[int(s)] for s in labels], dtype=np.int64)
        if not is_homomorphism(transition, induced, induced_j):
            raise AssertionError("cross-chart fiber structures must be isomorphic")
    return induced, fiber


@dataclass(frozen=True)
class FinitePrincipalBundle(_Trivialized):
    """A finite principal bundle: free, fiber-transitive right G-action
    with G-equivariant charts."""

    group: FiniteGroup
    base_size: int
    projection: np.ndarray          # (P,)
    action: np.ndarray              # (P, |G|) right action table
    cover: tuple
    charts: tuple                   # per chart, dict p -> (base index, group label)

    def __post_init__(self):
        """Check the group action, then freeness, then the shared trivialization axioms.

        Injective, bijective charts give every fiber exactly |G| points,
        so a free, fiber-preserving action is transitive on each fiber.
        """
        super().__post_init__()
        g = self.group
        act = _index_array(self.action, (self.total_size, g.n), self.total_size, "action table")
        object.__setattr__(self, "action", act)
        _check_layout(self)
        bad = group_action_witness(act, g)
        if bad is not None:
            raise LawError(f"not a right group action: {bad[0]}", bad)
        for p in range(self.total_size):
            fixed = np.nonzero(act[p] == p)[0]
            if fixed.tolist() != [g.e]:
                raise LawError(f"action is not free at point {p}", (p, fixed.tolist()))
        failure = _trivialization_failure(self, act, g.mul)
        if failure is not None:
            raise LawError(f"not a principal bundle: {failure.axiom} fails at {failure.witness}", failure)


def heapify_principal(pb):
    """The semiheap bundle canonically associated with a principal bundle.

    The structure is the heapification of G and the action is
    p <| (g1, g2) = a(p, g1^-1 g2).  The output passing verify_bundle is
    implied by the principal axioms, so it is asserted, not returned.
    """
    g = pb.group
    word = g.mul[g.inv]                          # word[g1,g2] = g1^-1 * g2
    table = pb.action[:, word]
    structure = heapify(g).semiheap
    action = FiniteAction(structure, table, verify=False)
    b = DiscreteSemiheapBundle(pb.base_size, pb.projection, structure, action, pb.cover, pb.charts)
    failure = verify_bundle(b)
    if failure is not None:
        raise AssertionError(f"heapified principal bundle must verify, got {failure}")
    return b


def trivial_principal_bundle(base_size, g):
    """The product principal bundle M x G with right multiplication."""
    n = g.n
    total = base_size * n
    proj, x = np.divmod(np.arange(total), n)
    act = proj[:, None] * n + g.mul[x]
    chart = {p: (p // n, p % n) for p in range(total)}
    return FinitePrincipalBundle(g, base_size, proj, act, (frozenset(range(base_size)),), (chart,))


@dataclass(frozen=True)
class BundleHom:
    """Candidate semiheap-bundle homomorphism data."""

    total_map: np.ndarray       # P -> P'
    base_map: np.ndarray        # M -> M'
    structure_hom: SemiheapHom


def verify_bundle_hom(h, b, b2):
    """Check the two bundle-hom identities exhaustively; None on success."""
    psi = h.structure_hom
    if psi.source.key() != b.structure.key() or psi.target.key() != b2.structure.key():
        raise InvalidTable("structure hom endpoints do not match the bundles")
    return _hom_failure(h, b, b2, b.action.table,
                        lambda phi, r: b2.action.table[np.ix_(phi[r], psi.mapping, psi.mapping)])


@dataclass(frozen=True)
class PrincipalBundleHom:
    """Candidate principal-bundle homomorphism data."""

    total_map: np.ndarray
    base_map: np.ndarray
    group_hom: np.ndarray       # G -> G' as an index array


def verify_principal_hom(h, pb, pb2):
    """Check Phi(a_g(p)) = a'_{psi(g)}(Phi(p)) and the base square; None on success."""
    psi = np.asarray(h.group_hom, dtype=np.int64)
    if group_hom_witness(psi, pb.group, pb2.group) is not None:
        return BundleFailure("hom-group", tuple(int(v) for v in psi))
    return _hom_failure(h, pb, pb2, pb.action, lambda phi, r: pb2.action[np.ix_(phi[r], psi)])


def _hom_failure(h, b, b2, act, moved_image):
    """The maps of h checked to run from b to b2, then the base square, then
    phi(p . w) = phi(p) . psi(w), its right side moved_image(phi, slab of points)."""
    phi = _index_array(h.total_map, (b.total_size,), b2.total_size, "total map")
    base = _index_array(h.base_map, (b.base_size,), b2.base_size, "base map")
    hit = _first_disagreement(phi.size, 1, lambda r: b2.projection[phi[r]], lambda r: base[b.projection[r]])
    if hit is not None:
        return BundleFailure("hom-projection", hit[0])
    hit = _first_disagreement(phi.size, math.prod(act.shape[1:]),
                              lambda r: phi[act[r]], lambda r: moved_image(phi, r))
    return None if hit is None else BundleFailure("hom-equivariance", hit[0])


def heapify_principal_hom(h, pb, pb2):
    """Transport a verified principal-bundle hom to the heapified bundles.

    The psi-equivariance of the result is automatic, so the transported
    hom is asserted to verify against the heapified bundles.
    """
    failure = verify_principal_hom(h, pb, pb2)
    if failure is not None:
        raise LawError(f"not a principal-bundle hom: {failure.axiom}", failure)
    s, s2 = heapify(pb.group).semiheap, heapify(pb2.group).semiheap
    hom = BundleHom(h.total_map, h.base_map, SemiheapHom(s, s2, h.group_hom))
    b, b2 = heapify_principal(pb), heapify_principal(pb2)
    if verify_bundle_hom(hom, b, b2) is not None:
        raise AssertionError("heapified principal homs must be semiheap-bundle homs")
    return hom
