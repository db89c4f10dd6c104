"""Left, right and centric translations as explicit endomaps.

Every translation is materialized as a length-n index array, so endomap
equality and composition are plain array operations: compose(f, g) is
f[g].  The composition laws

    R_{x3 x4} . R_{x1 x2} = R_{x1, [x2,x3,x4]}
    L_{x1 x2} . L_{x3 x4} = L_{[x1,x2,x3], x4}
    L_{x1 x2} . R_{x3 x4} = R_{x3 x4} . L_{x1 x2}

are theorems for any semiheap: each is the para-associative law read on
a permutation of its variables.  The checkers here re-derive them
exhaustively, quadruple by quadruple and point by point, as an
independent code path.
"""

from dataclasses import dataclass

import numpy as np

from .core import _first_disagreement, is_biunitary


@dataclass(frozen=True)
class LawCounterexample:
    law: str
    params: tuple
    point: int
    lhs: int
    rhs: int


def right_endomap(s, x1, x2):
    """R_{x1 x2}: x -> [x, x1, x2]."""
    return s.table.entries[:, x1, x2].copy()


def left_endomap(s, x1, x2):
    """L_{x1 x2}: x -> [x1, x2, x]."""
    return s.table.entries[x1, x2, :].copy()


def centric_endomap(s, x1, x2):
    """C_{x1 x2}: x -> [x1, x, x2]."""
    return s.table.entries[x1, :, x2].copy()


def _law_witness(law, s, lhs, rhs):
    """Scan the pairs (x1, x2), then (x3, x4, p); lhs and rhs are indexed [pair, x3, x4, p]."""
    n = s.n
    hit = _first_disagreement(n * n, n ** 3, lhs, rhs)
    if hit is None:
        return None
    (pair, x3, x4, p), values = hit
    return LawCounterexample(law, (*divmod(pair, n), x3, x4), p, *values)


def right_compose_law(s):
    """Check R_{x3x4} . R_{x1x2} = R_{x1,[x2,x3,x4]} over all quadruples.

    Read at every point p: [[p,x1,x2],x3,x4] against [p,x1,[x2,x3,x4]].
    Returns None (certificate) or the first counterexample.
    """
    t = s.table.entries
    right = t.transpose(1, 2, 0)                # right[a, b, x] = [x,a,b]
    pairs = right.reshape(s.n ** 2, s.n)
    x1, x2 = np.divmod(np.arange(s.n ** 2), s.n)
    return _law_witness("right-compose", s, lambda r: t[pairs[r]].transpose(0, 2, 3, 1),
                        lambda r: right[x1[r, None, None], t[x2[r]]])


def left_compose_law(s):
    """Check L_{x1x2} . L_{x3x4} = L_{[x1,x2,x3],x4} over all quadruples.

    Read at every point p: [x1,x2,[x3,x4,p]] against [[x1,x2,x3],x4,p].
    """
    t = s.table.entries
    pairs = t.reshape(s.n ** 2, s.n)
    return _law_witness("left-compose", s, lambda r: pairs[r][:, t], lambda r: t[pairs[r]])


def lr_commute(s):
    """Check L_{x1x2} . R_{x3x4} = R_{x3x4} . L_{x1x2} over all quadruples.

    Read at every point p: [x1,x2,[p,x3,x4]] against [[x1,x2,p],x3,x4].
    """
    t = s.table.entries
    pairs = t.reshape(s.n ** 2, s.n)
    return _law_witness("lr-commute", s, lambda r: pairs[r][:, t.transpose(1, 2, 0)],
                        lambda r: t[pairs[r]].transpose(0, 2, 3, 1))


def centric_nonclosure_witness(semiheaps, max_results=1):
    """Search the given semiheaps for C . C compositions that are not centric.

    Returns a list of (semiheap, (x1, x2), (x3, x4)) witnesses, at most
    max_results long, in deterministic scan order; empty if the centric
    translations of every input happen to be closed under composition.
    For each C_{x1x2}, all n^2 compositions C_{x3x4} . C_{x1x2} are formed
    at once and looked up among the sorted distinct centric translations.
    """
    found = []
    for s in semiheaps:
        n = s.n
        if n == 0:
            continue
        centric = s.table.entries.transpose(0, 2, 1).reshape(n * n, n)   # centric[a*n+b] = C_{ab}
        row = np.dtype((np.void, centric.itemsize * n))                  # one endomap as one sortable item
        known = np.unique(centric.view(row).ravel())
        for ab in range(n * n):
            comps = np.ascontiguousarray(centric[:, centric[ab]]).view(row).ravel()
            at = np.minimum(np.searchsorted(known, comps), known.size - 1)
            for cd in np.flatnonzero(known[at] != comps).tolist():
                found.append((s, divmod(ab, n), divmod(cd, n)))
                if len(found) >= max_results:
                    return found
    return found


def is_biunital(ps):
    """True iff the basepoint is biunitary against all elements."""
    return is_biunitary(ps.semiheap, ps.basepoint)


def left_monoid_check(ps):
    """On a biunital pointed semiheap, L_{x0 x0} is the unit of L(S).

    Checks that L_{x0x0} is the identity endomap, which makes it a
    two-sided unit for composition with every left translation.  Returns
    None or a counterexample.
    """
    t = ps.table.entries
    x0 = ps.basepoint
    hit = _first_disagreement(ps.n, 1, lambda r: t[x0, x0, r], lambda r: np.arange(ps.n)[r])
    if hit is None:
        return None
    (p,), (lhs, rhs) = hit
    return LawCounterexample("left-unit-id", (x0, x0), p, lhs, rhs)


def reachability_check(ps):
    """Every x must satisfy L_{x, x0}(x0) = x.  Returns None or a witness."""
    t = ps.table.entries
    x0 = ps.basepoint
    for x in range(ps.n):
        if int(t[x, x0, x0]) != x:
            return LawCounterexample("reachability", (x, x0), x0, int(t[x, x0, x0]), x)
    return None


def left_invariant_functions(ps):
    """Solve f . L = f for all left translations over the rationals.

    The constraints are pure equalities f(x) = f(L_{ab}(x)), so the
    solution space is spanned by the indicator functions of the connected
    components of the constraint graph.  Returns (dimension, component
    label array).  Biunital inputs must come out with dimension 1: the
    constants.
    """
    n = ps.n
    t = ps.table.entries
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for a in range(n):
        for b in range(n):
            for x in range(n):
                union(x, int(t[a, b, x]))
    labels = np.array([find(x) for x in range(n)], dtype=np.int64)
    roots = sorted(set(labels.tolist()))
    relabel = {r: i for i, r in enumerate(roots)}
    comps = np.array([relabel[int(v)] for v in labels], dtype=np.int64)
    return len(roots), comps
