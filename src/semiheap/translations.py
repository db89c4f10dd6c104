"""Left, right and centric translations as explicit endomaps.

Every translation is materialized as a length-n index array, so endomap
equality and composition are plain array operations: compose(f, g) is
f[g].  The composition laws

    R_{x3 x4} . R_{x1 x2} = R_{x1, [x2,x3,x4]}
    L_{x1 x2} . L_{x3 x4} = L_{[x1,x2,x3], x4}
    L_{x1 x2} . R_{x3 x4} = R_{x3 x4} . L_{x1 x2}

are theorems for any semiheap: each is the para-associative law read on
a permutation of its variables, and the checkers here verify them on
the class path of the para-associativity check (core).
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (_first_class_path_disagreement, _first_disagreement, _narrow, _row_classes, _translation_rows,
                   is_biunitary)


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


def _law_witness(law, s, keys, forms, loose=None):
    """The class path over the pairs (x1, x2) with translations keys, then (x3, x4, p): [pair, x3, x4, p]."""
    n = s.n
    hit = _first_class_path_disagreement(keys, n ** 3, forms, loose)
    if hit is None:
        return None
    (pair, x3, x4, p), values = hit
    return LawCounterexample(law, (*divmod(pair, n), x3, x4), p, *values)


def right_compose_law(s):
    """Check R_{x3x4} . R_{x1x2} = R_{x1,[x2,x3,x4]} over all quadruples.

    Read at every point p: [[p,x1,x2],x3,x4], through R_{x1x2}, against
    [p,x1,[x2,x3,x4]].  Returns None (certificate) or the first counterexample.
    """
    t, n = s.table.entries, s.n
    pairs = t.transpose(1, 2, 0).reshape(n * n, n)     # pairs[a * n + b, x] = [x,a,b], a contiguous copy
    cube = _narrow(t, n)
    return _law_witness("right-compose", s, _narrow(pairs, n),     # the right side: R_{x1,t[x2,x3,x4]}
                        (lambda r: cube.take(pairs[r], axis=0).transpose(0, 2, 3, 1),), loose=t)


def left_compose_law(s):
    """Check L_{x1x2} . L_{x3x4} = L_{[x1,x2,x3],x4} over all quadruples.

    Read at every point p through L_{x1x2}: [x1,x2,[x3,x4,p]] against [[x1,x2,x3],x4,p].
    """
    t = s.table.entries
    values, outer, inner = _translation_rows(t, t, s.n)
    return _law_witness("left-compose", s, values, (inner, outer))


def lr_commute(s):
    """Check L_{x1x2} . R_{x3x4} = R_{x3x4} . L_{x1x2} over all quadruples.

    Read at every point p through L_{x1x2}: [x1,x2,[p,x3,x4]] against [[x1,x2,p],x3,x4].
    """
    t = s.table.entries
    right = np.ascontiguousarray(t.transpose(1, 2, 0))      # right[a, b, x] = [x,a,b]
    values, outer, inner = _translation_rows(t, right, s.n)
    return _law_witness("lr-commute", s, values, (inner, lambda r: outer(r).transpose(0, 2, 3, 1)))


def centric_nonclosure_witness(semiheaps, max_results=1):
    """Search the given semiheaps for C . C compositions that are not centric.

    Returns a list of (semiheap, (x1, x2), (x3, x4)) witnesses, at most
    max_results long, in deterministic scan order; empty if the centric
    translations of every input happen to be closed under composition.
    For each C_{x1x2}, all n^2 compositions C_{x3x4} . C_{x1x2} are formed
    at once and looked up among the sorted distinct centric translations.
    """
    def witnesses():
        for s in semiheaps:
            n = s.n
            if n == 0:
                continue
            centric = _narrow(s.table.entries.transpose(0, 2, 1).reshape(n * n, n), n)   # [a*n+b] = C_{ab}
            known = _row_classes(centric)[0]    # the distinct endomaps, each one sortable item
            for ab in range(n * n):
                comps = np.ascontiguousarray(centric[:, centric[ab]]).view(known.dtype).ravel()
                at = np.minimum(np.searchsorted(known, comps), known.size - 1)
                for cd in np.flatnonzero(known[at] != comps).tolist():
                    yield s, divmod(ab, n), divmod(cd, n)
    return list(islice(witnesses(), max(max_results, 0)))


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
    hit = _first_disagreement(ps.n, 1, lambda r: t[r, x0, x0], lambda r: np.arange(ps.n)[r])
    return None if hit is None else LawCounterexample("reachability", (hit[0][0], x0), x0, *hit[1])


def left_invariant_functions(ps):
    """Solve f . L = f for all left translations over the rationals.

    The constraints are pure equalities f(x) = f(L_{ab}(x)), so the
    solution space is spanned by the indicator functions of the connected
    components of the constraint graph.  Returns (dimension, component
    label array).  Biunital inputs must come out with dimension 1: the
    constants.
    """
    n = ps.n
    x, image = np.tile(np.arange(n), n * n), ps.table.entries.reshape(-1)    # the edges x -- L_{ab}(x)
    labels = np.arange(n)
    while True:                                 # each pass spreads the least label one edge further
        low = np.minimum(labels[x], labels[image])
        spread = labels.copy()
        np.minimum.at(spread, x, low)
        np.minimum.at(spread, image, low)
        if np.array_equal(spread, labels):
            roots, comps = np.unique(labels, return_inverse=True)
            return len(roots), comps.astype(np.int64)
        labels = spread
