"""Independent brute-force oracles for the test suite.

Everything here is deliberately written with plain nested loops over
tuples, sharing no code path with the library's vectorized checkers.  The
numeric oracles are the per-sample loops the numeric layer ran before it
computed on stacks of samples.  They carry their own scalar chart
functions, ternary product, solve and norms, taking only the charts'
data (names, bases, step sizes) from the library.  all_group_tables, the
group route of the heap census for n <= 3, and fully_faithful_scan, the
map-by-map hom-set classification, are the exceptions: they scan chunks of
itertools.product rows as arrays, and tests hold them to plain loops.  So
are para_pair_scan, law_pair_scan and action_row_scan, the direct scans of
every tuple the law kernels made before they compared translation classes,
one row of n^3 values at a time, for sizes where the loops are too slow.  The
text-format oracles tokenize eagerly and write value by value.
"""

import math
from itertools import islice, permutations, product as iproduct
from types import SimpleNamespace

import numpy as np

from semiheap.charts import FD_STEP, PARA_TOL
from semiheap.core import FormatError
from semiheap.functors import FullyFaithfulReport, heapify
from semiheap.groups import FiniteGroup, LawError
from semiheap.numeric import PolynomialField


def first_para_failure(flat, n):
    """First quintuple where the three association orders disagree, or None.

    Returns (quintuple, outer, middle, inner) in loop-scan order.
    """
    def t(i, j, k):
        return flat[(i * n + j) * n + k]

    for x1 in range(n):
        for x2 in range(n):
            for x3 in range(n):
                for x4 in range(n):
                    for x5 in range(n):
                        outer = t(t(x1, x2, x3), x4, x5)
                        middle = t(x1, t(x4, x3, x2), x5)
                        inner = t(x1, x2, t(x3, x4, x5))
                        if not (outer == middle == inner):
                            return (x1, x2, x3, x4, x5), outer, middle, inner
    return None


def para_pair_scan(t):
    """first_para_failure of an (n, n, n) numpy table, scanned one pair (x1, x2) at a time."""
    n = len(t)
    for x1 in range(n):
        for x2 in range(n):
            outer = t[t[x1, x2]]                    # [x3, x4, x5]
            middle = t[x1][t[:, :, x2].T]           # t[x1, t[x4, x3, x2], x5]
            inner = t[x1, x2][t]
            bad = (outer != middle) | (outer != inner)
            if bad.any():
                i = np.unravel_index(int(bad.argmax()), bad.shape)
                return (x1, x2, *map(int, i)), int(outer[i]), int(middle[i]), int(inner[i])
    return None


def law_pair_scan(t, law):
    """first_right_compose_failure, first_left_compose_failure or first_lr_commute_failure (law "right",
    "left" or "commute") of an (n, n, n) numpy table, scanned one pair (x1, x2) at a time."""
    n = len(t)
    for x1 in range(n):
        for x2 in range(n):
            if law == "right":              # [[p,x1,x2],x3,x4] against [p,x1,[x2,x3,x4]], indexed [p, x3, x4]
                lhs, rhs = t[t[:, x1, x2]].transpose(1, 2, 0), t[:, x1][:, t[x2]].transpose(1, 2, 0)
            elif law == "left":             # [x1,x2,[x3,x4,p]] against [[x1,x2,x3],x4,p], indexed [x3, x4, p]
                lhs, rhs = t[x1, x2][t], t[t[x1, x2]]
            else:                           # [x1,x2,[p,x3,x4]] against [[x1,x2,p],x3,x4], indexed [p, x3, x4]
                lhs, rhs = t[x1, x2][t].transpose(1, 2, 0), t[t[x1, x2]].transpose(1, 2, 0)
            if (bad := lhs != rhs).any():
                x3, x4, p = map(int, np.unravel_index(int(bad.argmax()), bad.shape))
                return (x1, x2, x3, x4), p, int(lhs[x3, x4, p]), int(rhs[x3, x4, p])
    return None


def para_associative_loops(flat, n):
    """Pure-loop para-associativity check of a flat (i,j,k) row-major table."""
    return first_para_failure(flat, n) is None


def _first_endomap_failure(n, sides):
    """Scan quadruples, then points p; sides(x1, x2, x3, x4) gives the two endomaps."""
    for x1 in range(n):
        for x2 in range(n):
            for x3 in range(n):
                for x4 in range(n):
                    lhs, rhs = sides(x1, x2, x3, x4)
                    for p in range(n):
                        if lhs(p) != rhs(p):
                            return (x1, x2, x3, x4), p, lhs(p), rhs(p)
    return None


def _translations(flat, n):
    def t(i, j, k):
        return flat[(i * n + j) * n + k]

    def right(a, b):
        return lambda x: t(x, a, b)

    def left(a, b):
        return lambda x: t(a, b, x)

    return t, right, left


def first_right_compose_failure(flat, n):
    """R_{x3x4} . R_{x1x2} = R_{x1,[x2,x3,x4]}: first (params, point, lhs, rhs), or None."""
    t, right, _ = _translations(flat, n)
    return _first_endomap_failure(n, lambda x1, x2, x3, x4: (
        lambda p: right(x3, x4)(right(x1, x2)(p)),
        right(x1, t(x2, x3, x4))))


def first_left_compose_failure(flat, n):
    """L_{x1x2} . L_{x3x4} = L_{[x1,x2,x3],x4}: first (params, point, lhs, rhs), or None."""
    t, _, left = _translations(flat, n)
    return _first_endomap_failure(n, lambda x1, x2, x3, x4: (
        lambda p: left(x1, x2)(left(x3, x4)(p)),
        left(t(x1, x2, x3), x4)))


def first_lr_commute_failure(flat, n):
    """L_{x1x2} . R_{x3x4} = R_{x3x4} . L_{x1x2}: first (params, point, lhs, rhs), or None."""
    _, right, left = _translations(flat, n)
    return _first_endomap_failure(n, lambda x1, x2, x3, x4: (
        lambda p: left(x1, x2)(right(x3, x4)(p)),
        lambda p: right(x3, x4)(left(x1, x2)(p))))


def all_tables(n):
    """Every flat ternary table on n elements."""
    return iproduct(range(n), repeat=n ** 3)


def semiheap_tables_brute(n):
    """The accepted set of flat tables, by the loop oracle."""
    return {flat for flat in all_tables(n) if para_associative_loops(flat, n)}


def first_hom_failure(mapping, flat_s, n, flat_t, m):
    """First (x, y, z, phi[x,y,z], [phi x, phi y, phi z]') that differ, or None."""
    def ts(i, j, k):
        return flat_s[(i * n + j) * n + k]

    def tt(i, j, k):
        return flat_t[(i * m + j) * m + k]

    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = mapping[ts(x, y, z)]
                rhs = tt(mapping[x], mapping[y], mapping[z])
                if lhs != rhs:
                    return (x, y, z, lhs, rhs)
    return None


def hom_loops(mapping, flat_s, n, flat_t, m):
    """Pure-loop homomorphism check between flat tables."""
    return first_hom_failure(mapping, flat_s, n, flat_t, m) is None


def first_action_failure(act, m, flat_s, n):
    """First (point, quadruple, lhs, rhs) breaking compatibility of act[p][x][y], or None."""
    def t(i, j, k):
        return flat_s[(i * n + j) * n + k]

    for p in range(m):
        for x1 in range(n):
            for x2 in range(n):
                for x3 in range(n):
                    for x4 in range(n):
                        lhs = act[act[p][x1][x2]][x3][x4]
                        rhs = act[p][x1][t(x2, x3, x4)]
                        if lhs != rhs:
                            return p, (x1, x2, x3, x4), lhs, rhs
    return None


def action_row_scan(act, t):
    """first_action_failure of an (m, n, n) numpy action table on the (n, n, n) table t, one row (p, x1) at a time."""
    m, n = act.shape[:2]
    for p in range(m):
        for x1 in range(n):
            lhs = act[act[p, x1]]                   # [x2, x3, x4]
            rhs = act[p, x1][t]
            if (bad := lhs != rhs).any():
                i = np.unravel_index(int(bad.argmax()), bad.shape)
                return p, (x1, *map(int, i)), int(lhs[i]), int(rhs[i])
    return None


def action_compat_loops(act, m, flat_s, n):
    """Pure-loop compatibility check of an action table act[p][x][y]."""
    return first_action_failure(act, m, flat_s, n) is None


def partial_consistent_loops(flat, n):
    """False iff two evaluable forms of some quintuple disagree in a partial table.

    -1 marks an unassigned cell; a form is evaluable when its inner and
    outer cells are both assigned.
    """
    def t(i, j, k):
        return flat[(i * n + j) * n + k]

    def outer_of(inner, read):
        return read(inner) if inner >= 0 else -1

    for x1, x2, x3, x4, x5 in iproduct(range(n), repeat=5):
        vals = [outer_of(t(x1, x2, x3), lambda a: t(a, x4, x5)),
                outer_of(t(x4, x3, x2), lambda b: t(x1, b, x5)),
                outer_of(t(x3, x4, x5), lambda c: t(x1, x2, c))]
        if len({v for v in vals if v >= 0}) > 1:
            return False
    return True


def relabel_loops(flat, n, perm):
    """The flat table transported along x -> perm[x]."""
    out = [0] * len(flat)
    for i, j, k in iproduct(range(n), repeat=3):
        out[(perm[i] * n + perm[j]) * n + perm[k]] = perm[flat[(i * n + j) * n + k]]
    return tuple(out)


def canonical_loops(flat, n):
    """The lexicographically least relabeling of a flat table."""
    return min(relabel_loops(flat, n, perm) for perm in permutations(range(n)))


def prefix_dominated_loops(flat, assigned, n):
    """True iff some relabeling beats the first assigned cells of a partial table.

    A relabeling beats the prefix when, at the first cell where they
    differ, its source cell is assigned and its value is smaller.
    """
    for perm in permutations(range(n)):
        inv = [perm.index(x) for x in range(n)]
        for pos in range(assigned):
            i, r = divmod(pos, n * n)
            j, k = divmod(r, n)
            src = flat[(inv[i] * n + inv[j]) * n + inv[k]]
            if src < 0:
                break
            if perm[src] < flat[pos]:
                return True
            if perm[src] > flat[pos]:
                break
    return False


def propagate_loops(flat, n):
    """The forced-value fixpoint of a partial flat table, or None on a contradiction.

    -1 marks an unassigned cell.  In each quintuple a form is evaluable
    when its inner and outer cells are assigned.  When a form evaluates to
    e, every form whose inner cell is assigned but whose outer cell is not
    has that outer cell set to e at once; scans repeat until one sets
    nothing.  Two evaluable forms that disagree are a contradiction.
    """
    flat = list(flat)
    changed = True
    while changed:
        changed = False
        for x1, x2, x3, x4, x5 in iproduct(range(n), repeat=5):
            forms = (((x1 * n + x2) * n + x3, lambda a: (a * n + x4) * n + x5),
                     ((x4 * n + x3) * n + x2, lambda b: (x1 * n + b) * n + x5),
                     ((x3 * n + x4) * n + x5, lambda c: (x1 * n + x2) * n + c))
            outers = [outer(flat[inner]) for inner, outer in forms if flat[inner] >= 0]
            values = {flat[c] for c in outers if flat[c] >= 0}
            if len(values) > 1:
                return None
            for c in outers:
                if values and flat[c] < 0:
                    flat[c] = next(iter(values))
                    changed = True
    return tuple(flat)


def backtrack_loops(flat, n, symmetry_break=False):
    """Every para-associative completion of a partial flat table, in lexicographic order.

    The plain search without propagation: the unassigned (-1) cells are
    filled in flat order, values ascending, and a value stays while the
    partial table is consistent and, with symmetry_break, no relabeling
    precedes the prefix up to it.
    """
    flat = list(flat)
    free = [i for i, v in enumerate(flat) if v < 0]
    out = []

    def fill(depth):
        if depth == len(free):
            out.append(tuple(flat))
            return
        cell = free[depth]
        for v in range(n):
            flat[cell] = v
            if partial_consistent_loops(flat, n) and \
                    not (symmetry_break and prefix_dominated_loops(flat, cell + 1, n)):
                fill(depth + 1)
        flat[cell] = -1

    fill(0)
    return out


def all_group_tables(n):
    """Every Cayley table on n labeled points that satisfies the group axioms.

    Candidates are scanned in slabs in lexicographic order; only Latin
    squares, whose rows and columns are permutations, go on to the group
    constructor, which alone decides what is a group.
    """
    out = []
    if n == 0:
        return out
    ar = np.arange(n)
    for flat in _product_chunks(n, n * n, n * n):
        mul = flat.reshape(-1, n, n)
        latin = (np.sort(mul, axis=1) == ar[:, None]).all(axis=(1, 2)) & \
                (np.sort(mul, axis=2) == ar).all(axis=(1, 2))
        for m in mul[latin]:
            try:
                out.append(FiniteGroup.from_mul(m))
            except LawError:
                continue
    return out


def first_group_axiom_failure(flat, n, e):
    """The first group axiom that [x,e,y] with inverse [e,x,e] fails, or None.

    Returns (axiom, witness): identity (e, x, e*x, x*e), then associativity
    (x, y, z), then inverse (x, x^-1), each in loop-scan order.
    """
    def mul(x, y):
        return flat[(x * n + e) * n + y]

    for x in range(n):
        if not mul(e, x) == x == mul(x, e):
            return "identity", (e, x, mul(e, x), mul(x, e))
    for x, y, z in iproduct(range(n), repeat=3):
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            return "associativity", (x, y, z)
    for x in range(n):
        inv = flat[(e * n + x) * n + e]
        if not mul(x, inv) == e == mul(inv, x):
            return "inverse", (x, inv)
    return None


def first_trivialization_failure(base_size, proj, act, mul, cover, charts):
    """The first failing bundle axiom shared by semiheap and principal bundles, as (axiom, witness), or None.

    act is indexed [point, *word] with words over the structure's carrier
    (pairs for a semiheap, one element for a group) and mul is the
    structure's table; the axioms run in the order the library documents.
    """
    total, n = len(proj), len(mul)
    proj = [int(v) for v in proj]
    words = list(iproduct(range(n), repeat=np.ndim(act) - 1))
    for m in range(base_size):
        if m not in proj:
            return "projection-surjective", (m,)
    for p in range(total):
        for w in words:
            q = int(act[(p, *w)])
            if proj[q] != proj[p]:
                return "fiber-preservation", (p, *w, q)
    for m in range(base_size):
        if not any(m in u for u in cover):
            return "cover", (m,)
    for i, (u, chart) in enumerate(zip(cover, charts)):
        domain = [p for p in range(total) if proj[p] in u]
        for p in sorted(set(chart) | set(domain)):
            if (p in chart) != (p in domain):
                return "chart-domain", (i, p)
        seen = []
        for p in domain:
            bm, s = chart[p]
            if bm != proj[p]:
                return "chart-triangle", (i, p, bm, proj[p])
            if not 0 <= s < n:
                return "chart-range", (i, p, s)
            if (bm, s) in seen:
                return "chart-injective", (i, p, bm, s)
            seen.append((bm, s))
        if len(seen) != len(u) * n:
            return "chart-bijective", (i, len(seen), len(u) * n)
        for p in domain:
            for w in words:
                q = int(act[(p, *w)])
                want = (chart[p][0], int(mul[(chart[p][1], *w)]))
                if chart[q] != want:
                    return "chart-equivariance", (i, p, *w, chart[q], want)
    return None


def _product_chunks(base, length, width):
    """range(base)^length in itertools.product order, as int64 arrays of 2^14 // width rows (at least one)."""
    rows = iproduct(range(base), repeat=length)
    while len(chunk := list(islice(rows, max(1, (1 << 14) // width)))):
        yield np.array(chunk, dtype=np.int64).reshape(len(chunk), length)


def fully_faithful_scan(g, g2):
    """check_fully_faithful by a full scan: every map tested on every group and heap instance.

    Maps come in itertools.product order, a chunk of rows at a time; the
    report is built without the bijection check.
    """
    h, h2 = heapify(g), heapify(g2)
    t, mul2, t2 = h.semiheap.table.entries, g2.mul.reshape(-1), h2.semiheap.table.entries.reshape(-1)
    g_homs, p_homs, u_homs = [], [], []
    for f in _product_chunks(g2.n, g.n, g.n ** 3):
        pair = f[:, :, None] * g2.n + f[:, None, :]      # flat index of (f x, f y)
        group = (f[:, g.mul] == mul2[pair]).all(axis=(1, 2))
        heap = (f[:, t] == t2[pair[..., None] * g2.n + f[:, None, None, :]]).all(axis=(1, 2, 3))
        pointed = heap & (f[:, h.basepoint] == h2.basepoint)
        for homs, keep in ((g_homs, group), (p_homs, pointed), (u_homs, heap)):
            homs.extend(map(tuple, f[keep].tolist()))
    return FullyFaithfulReport(g2.n ** g.n, tuple(g_homs), tuple(p_homs), tuple(u_homs))


def product_loops(flat, n, flat2, n2):
    """The componentwise product table on pairs encoded as x * n2 + y."""
    m = n * n2
    out = []
    for a, b, c in iproduct(range(m), repeat=3):
        (x1, y1), (x2, y2), (x3, y3) = divmod(a, n2), divmod(b, n2), divmod(c, n2)
        out.append(flat[(x1 * n + x2) * n + x3] * n2 + flat2[(y1 * n2 + y2) * n2 + y3])
    return tuple(out)


def left_invariant_components_loops(flat, n):
    """(dimension, component of each point) of the graph x -- [a,b,x], by union-find.

    Components are numbered in order of their least point.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, x in iproduct(range(n), repeat=3):
        rx, ry = find(x), find(flat[(a * n + b) * n + x])
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    roots = sorted({find(x) for x in range(n)})
    return len(roots), [roots.index(find(x)) for x in range(n)]


def fully_faithful_loops(mul, e, mul2, e2):
    """(group homs, pointed heap homs, unpointed heap homs) among all maps, in product order.

    The heaps are x * y^-1 * z on each group; a pointed hom sends e to e2.
    """
    def heap(mul, e):
        inv = [next(y for y in range(len(mul)) if mul[x][y] == e) for x in range(len(mul))]
        return lambda x, y, z: mul[mul[x][inv[y]]][z]

    n, m = len(mul), len(mul2)
    h, h2 = heap(mul, e), heap(mul2, e2)
    group, pointed, unpointed = [], [], []
    for f in iproduct(range(m), repeat=n):
        if all(f[mul[x][y]] == mul2[f[x]][f[y]] for x, y in iproduct(range(n), repeat=2)):
            group.append(f)
        if all(f[h(x, y, z)] == h2(f[x], f[y], f[z]) for x, y, z in iproduct(range(n), repeat=3)):
            unpointed.append(f)
            if f[e] == e2:
                pointed.append(f)
    return group, pointed, unpointed


def centric_nonclosure_loops(flat, n, max_results):
    """The first max_results ((a, b), (c, d)) with C_cd . C_ab not a centric translation."""
    def centric(a, b):
        return tuple(flat[(a * n + x) * n + b] for x in range(n))

    centrics = {centric(a, b) for a in range(n) for b in range(n)}
    found = []
    for a, b, c, d in iproduct(range(n), repeat=4):
        cab, ccd = centric(a, b), centric(c, d)
        if tuple(ccd[cab[x]] for x in range(n)) not in centrics:
            found.append(((a, b), (c, d)))
            if len(found) >= max_results:
                break
    return found


# --- numeric: one sample at a time, with scalar chart functions --------------

def scalar_solve(a, b):
    s = np.linalg.svd(a, compute_uv=False) if np.isfinite(a).all() else None
    with np.errstate(divide="ignore", over="ignore"):      # an inverse that overflows is refused
        if s is None or not (1 / s[-1] < np.inf and s[0] / s[-1] <= 1e10):
            raise ValueError("matrix condition number exceeds 1e+10")
    return np.linalg.solve(a, b)


def scalar_rel_norm(delta, *refs):
    scale = max([1.0] + [float(np.linalg.norm(r)) for r in refs])
    return float(np.linalg.norm(delta)) / scale


def _rel(a, b, *more):
    return abs(a - b) / max(1.0, abs(a), abs(b), *map(abs, more))


def _rodrigues(a):
    w = np.array([a[2, 1], a[0, 2], a[1, 0]])
    theta = float(np.linalg.norm(w))
    if theta < 1e-12:
        return np.eye(3) + a + 0.5 * (a @ a)
    return np.eye(3) + (math.sin(theta) / theta) * a + ((1.0 - math.cos(theta)) / theta ** 2) * (a @ a)


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _exp_upper_2(a):
    p, q, b = float(a[0, 0]), float(a[1, 1]), float(a[0, 1])
    ep, eq = math.exp(p), math.exp(q)
    if abs(p - q) < 1e-8:
        dd = ep * (1.0 + (q - p) / 2.0 + (q - p) ** 2 / 6.0)
    else:
        dd = eq * math.expm1(p - q) / (p - q)
    return np.array([[ep, b * dd], [0.0, eq]])


def scalar_chart(chart):
    """The chart's functions on one matrix at a time, as the per-sample loops had them."""
    name, d, basis = chart.name, chart.dim_matrix, chart.basis
    n = d - 1

    def orthogonal(g):
        return scalar_rel_norm(g.T @ g - np.eye(d)) + abs(float(np.linalg.det(g)) - 1.0)

    def translation(column):
        g = np.eye(d)
        g[:n, n] = column
        return g

    def project_translation(a):
        out = np.zeros_like(a)
        out[:n, n] = a[:n, n]
        return out

    def combination(coeff):
        return sum(c * e for c, e in zip(coeff, basis))

    def flat(g):
        return g.reshape(-1)

    skew = (lambda a: 0.5 * (a - a.T))
    funcs = {
        "so3": (orthogonal, lambda rng: _rodrigues(combination(rng.normal(size=3))), _rodrigues, flat, skew),
        "so2": (orthogonal, lambda rng: _rot(float(rng.uniform(-math.pi, math.pi))),
                lambda a: _rot(float(a[1, 0])), flat, skew),
        "ut2": (lambda g: scalar_rel_norm(np.tril(g, -1), g),
                lambda rng: np.array([[float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))],
                                      [0.0, float(rng.uniform(0.5, 2.0))]]),
                _exp_upper_2, flat, np.triu),
        "rx": (lambda g: 0.0 if abs(float(g[0, 0])) > 1e-300 else 1.0,
               lambda rng: np.array([[float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))]]),
               lambda a: np.array([[math.exp(float(a[0, 0]))]]), flat, lambda a: a),
    }
    membership, sample, exp, coords, project = funcs.get(name, (
        lambda g: scalar_rel_norm(g - translation(g[:n, n]), g),
        lambda rng: translation(rng.uniform(-2.0, 2.0, size=n)),
        lambda a: np.eye(d) + a, lambda g: g[:n, n].copy(), project_translation))
    return SimpleNamespace(
        name=name, basis=basis, dim=len(basis), basepoint=np.eye(d), h=FD_STEP, tol=PARA_TOL,
        membership=membership, sample=sample, exp=exp, coords=coords, project=project, combination=combination,
        random_tangent=lambda g, rng: g @ combination(rng.normal(scale=1.0, size=len(basis))))


def scalar_mu(sc, g1, g2, g3):
    for g in (g1, g2, g3):
        if not sc.membership(g) <= 1e-12:
            raise ValueError(f"input leaves the {sc.name} chart")
    out = g1 @ scalar_solve(g2, g3)
    if not sc.membership(out) <= 1e-12:
        raise ValueError(f"ternary product left the {sc.name} chart")
    return out


def scalar_d_mu(g, vs):
    g1, g2, g3 = g
    v1, v2, v3 = vs
    s23 = scalar_solve(g2, g3)
    return v1 @ s23 - g1 @ scalar_solve(g2, v2) @ s23 + g1 @ scalar_solve(g2, v3)


def _poly(f, coords):
    total = 0.0
    for exps, coeff in f.terms:
        m = coeff
        for i in exps:
            m *= coords[i]
        total += m
    return total


class _Worst:
    """Worst residual (a NaN is the worst) and the first failing sample, one residual at a time."""

    def __init__(self, tol=math.inf):
        self.tol, self.worst, self.witness, self.failed = tol, 0.0, None, False

    def add(self, sample, r):
        r = float(r)
        if self.witness is None and not r < self.tol:
            self.witness = sample
        self.worst = r if r > self.worst or r != r else self.worst
        return r

    def require(self, sample, ok):
        if not ok:
            self.failed = True
            if self.witness is None:
                self.witness = sample

    def report(self, **extra):
        return self.worst, bool(self.worst < self.tol) and not self.failed, self.witness, extra


def _pushforward_fd(sc, x, y, z, v, h):
    a = sc.project(scalar_solve(z, v))
    curve = lambda t: x @ scalar_solve(y, z @ sc.exp(t * a))
    return (curve(h) - curve(-h)) / (2.0 * h)


def _para(op, g):
    return (op(op(g[0], g[1], g[2]), g[3], g[4]),
            op(g[0], op(g[3], g[2], g[1]), g[4]),
            op(g[0], g[1], op(g[2], g[3], g[4])))


def para_assoc_loops(chart, samples, seed, tol=None):
    """(max_residual, passed, witness, extra) of check_para_associative_numeric."""
    sc = scalar_chart(chart)
    rng = np.random.default_rng(seed)
    fold, membership = _Worst(sc.tol if tol is None else tol), _Worst()
    for i in range(samples):
        outer, middle, inner = _para(lambda a, b, c: scalar_mu(sc, a, b, c), [sc.sample(rng) for _ in range(5)])
        fold.add(i, scalar_rel_norm(outer - middle, outer))
        fold.add(i, scalar_rel_norm(outer - inner, outer))
        membership.add(i, sc.membership(outer))
    return fold.report(membership=membership.worst)


def _dL_residual(sc, x, y, z, v, h):
    a = scalar_solve(z, v)
    if not scalar_rel_norm(a - sc.project(a), a) <= 1e-9:
        raise ValueError("not tangent")
    analytic = x @ scalar_solve(y, v)
    return scalar_rel_norm(analytic - _pushforward_fd(sc, x, y, z, v, h), analytic)


def pushforward_loops(chart, samples, seed, h=1e-3):
    """(res_h, res_half, ratio) of pushforward_convergence."""
    sc = scalar_chart(chart)
    rng = np.random.default_rng(seed)
    res_h, res_half = _Worst(), _Worst()
    for i in range(samples):
        x, y, z = (sc.sample(rng) for _ in range(3))
        v = sc.random_tangent(z, rng)
        res_h.add(i, _dL_residual(sc, x, y, z, v, h))
        res_half.add(i, _dL_residual(sc, x, y, z, v, h / 2.0))
    ratio = res_h.worst / res_half.worst if res_half.worst > 0 else float("inf")
    return res_h.worst, res_half.worst, ratio


def left_invariant_loops(chart, v, samples, seed, tol=1e-6):
    sc = scalar_chart(chart)
    rng = np.random.default_rng(seed)
    fold = _Worst(tol)
    for i in range(samples):
        x, y, z = (sc.sample(rng) for _ in range(3))
        target = scalar_mu(sc, x, y, z) @ v
        fold.add(i, scalar_rel_norm(_pushforward_fd(sc, x, y, z, z @ v, sc.h) - target, target))
    return fold.report()


def group_vs_heap_loops(chart, v, samples, seed, tol=1e-6):
    sc = scalar_chart(chart)
    rng = np.random.default_rng(seed)
    x0 = sc.basepoint
    a = sc.project(scalar_solve(x0, v))
    fold = _Worst(tol)
    for i in range(samples):
        x = sc.sample(rng)
        fold.require(i, np.array_equal(x @ scalar_solve(x0, v), x @ v))
        target = x @ a
        fold.add(i, scalar_rel_norm(_pushforward_fd(sc, x, x0, x0, v, sc.h) - target, target))
    return fold.report(exact=not fold.failed)


def _rk4_loop(fieldrule, y0, t, step=1e-3):
    y = np.array(y0, dtype=float, copy=True)
    if t == 0.0:
        return y
    nsteps = max(1, int(math.ceil(abs(t) / step)))
    h = t / nsteps
    for _ in range(nsteps):
        k1 = fieldrule(y)
        k2 = fieldrule(y + 0.5 * h * k1)
        k3 = fieldrule(y + 0.5 * h * k2)
        k4 = fieldrule(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def bracket_loops(chart, u, v, samples, seed, tol=1e-4):
    sc, t = scalar_chart(chart), 1e-3
    rng = np.random.default_rng(seed)
    au, av = sc.project(u), sc.project(v)
    w = au @ av - av @ au
    flow_u = lambda y: y @ au
    fold = _Worst(tol)
    for i in range(samples):
        x = sc.sample(rng)
        conj = lambda s: _rk4_loop(flow_u, _rk4_loop(flow_u, x, s) @ av, -s)
        fold.add(i, scalar_rel_norm((conj(t) - conj(-t)) / (2.0 * t) - x @ w, x @ w))
        frame = np.stack([(x @ e).reshape(-1) for e in sc.basis])
        fold.require(i, np.linalg.matrix_rank(frame) == sc.dim)
    return fold.report(rank_ok=not fold.failed, commutator=w)


def _tangent_sample(sc, rng, h):
    """One sample of the tangent-lift check: its fd residual and its four para residuals."""
    pts = [sc.sample(rng) for _ in range(5)]
    vecs = [sc.random_tangent(g, rng) for g in pts]
    lifted = scalar_d_mu(pts[:3], vecs[:3])
    algs = [sc.project(scalar_solve(g, v)) for g, v in zip(pts[:3], vecs[:3])]

    def curve_mu(t):
        return scalar_mu(sc, *[g @ sc.exp(t * a) for g, a in zip(pts[:3], algs)])

    fd = (curve_mu(h) - curve_mu(-h)) / (2.0 * h)

    def t_mu(triple):
        gs = [p[0] for p in triple]
        return (scalar_mu(sc, *gs), scalar_d_mu(gs, [p[1] for p in triple]))

    tp = list(zip(pts, vecs))
    outer = t_mu([t_mu(tp[:3]), tp[3], tp[4]])
    middle = t_mu([tp[0], t_mu([tp[3], tp[2], tp[1]]), tp[4]])
    inner = t_mu([tp[0], tp[1], t_mu(tp[2:5])])
    para = [r for b in (middle, inner)
            for r in (scalar_rel_norm(outer[0] - b[0], outer[0]), scalar_rel_norm(outer[1] - b[1], outer[1], b[1]))]
    return scalar_rel_norm(lifted - fd, lifted), para


def tangent_loops(chart, samples, seed, tol=1e-6):
    sc = scalar_chart(chart)
    rng = np.random.default_rng(seed)
    fold, fd, para = _Worst(tol), _Worst(), _Worst()
    for i in range(samples):
        r_fd, r_para = _tangent_sample(sc, rng, sc.h)
        fold.add(i, fd.add(i, r_fd))
        for r in r_para:
            fold.add(i, para.add(i, r))
    return fold.report(fd_residual=fd.worst, para_residual=para.worst)


def tangent_residuals_loops(chart, samples, seed):
    """(fd, para) worst residuals of the tangent-lift check, with plain max folds.

    On finite residuals these must agree with the check's extras to the bit.
    """
    sc = scalar_chart(chart)
    rng = np.random.default_rng(seed)
    worst_fd = worst_para = 0.0
    for _ in range(samples):
        r_fd, r_para = _tangent_sample(sc, rng, sc.h)
        worst_fd, worst_para = max(worst_fd, r_fd), max(worst_para, *r_para)
    return worst_fd, worst_para


def _coassoc_sample(sc, rng, f1, f2, a, b):
    """The linear, multiplicative, unit and two para-coassoc residuals of one sample."""
    g = [sc.sample(rng) for _ in range(5)]
    cm = sc.coords(scalar_mu(sc, *g[:3]))
    mu3 = lambda a_, b_, c_: scalar_mu(sc, a_, b_, c_)
    outer, middle, inner = (_poly(f1, sc.coords(m)) for m in _para(mu3, g))
    return (_rel(_poly(a * f1 + b * f2, cm), a * _poly(f1, cm) + b * _poly(f2, cm)),
            _rel(_poly(f1 * f2, cm), _poly(f1, cm) * _poly(f2, cm)),
            abs(_poly(PolynomialField.constant(1.0), cm) - 1.0),
            (_rel(outer, middle, inner), _rel(outer, inner, middle)))


def _coassoc_setup(sc, seed, fields):
    rng = np.random.default_rng(seed)
    ncoords = sc.coords(sc.basepoint).shape[0]
    if fields is None:
        fields = (PolynomialField.random(ncoords, 3, rng), PolynomialField.random(ncoords, 3, rng))
    return rng, fields, float(rng.normal()), float(rng.normal())


def coassoc_loops(chart, samples, seed, tol=1e-10, fields=None):
    sc = scalar_chart(chart)
    rng, (f1, f2), a, b = _coassoc_setup(sc, seed, fields)
    fold = _Worst(tol)
    parts = {k: _Worst() for k in ("linear", "multiplicative", "unit", "para-coassoc")}
    for i in range(samples):
        lin, mult, unit, para = _coassoc_sample(sc, rng, f1, f2, a, b)
        for part, rs in (("linear", (lin,)), ("multiplicative", (mult,)), ("unit", (unit,)), ("para-coassoc", para)):
            for r in rs:
                fold.add(i, parts[part].add(i, r))
    return fold.report(**{k: w.worst for k, w in parts.items()})


def coassociativity_residuals_loops(chart, samples, seed):
    """The four worst residuals of the coassociativity check, with plain max folds."""
    sc = scalar_chart(chart)
    rng, (f1, f2), a, b = _coassoc_setup(sc, seed, None)
    worst = {"linear": 0.0, "multiplicative": 0.0, "unit": 0.0, "para-coassoc": 0.0}
    for _ in range(samples):
        lin, mult, unit, para = _coassoc_sample(sc, rng, f1, f2, a, b)
        worst["linear"] = max(worst["linear"], lin)
        worst["multiplicative"] = max(worst["multiplicative"], mult)
        worst["unit"] = max(worst["unit"], unit)
        worst["para-coassoc"] = max(worst["para-coassoc"], *para)
    return worst


def sample_triples_loops(chart, samples, seed):
    sc = scalar_chart(chart)
    rng = np.random.default_rng(seed)
    return [tuple(sc.sample(rng) for _ in range(3)) for _ in range(samples)]


def mult_function_loops(chart, f, triples, tol=1e-12, pointed=True):
    sc = scalar_chart(chart)
    value = (lambda c: _poly(f, c)) if isinstance(f, PolynomialField) else f
    fold = _Worst(tol)
    if pointed:
        base_val = float(value(sc.coords(sc.basepoint)))
        if not abs(base_val) <= tol:
            fold.add(("basepoint", base_val), abs(base_val))
            return fold.report()
    for x, y, z in triples:
        lhs = float(value(sc.coords(scalar_mu(sc, x, y, z))))
        rhs = float(value(sc.coords(x))) - float(value(sc.coords(y))) + float(value(sc.coords(z)))
        fold.add((x, y, z, lhs, rhs), _rel(lhs, rhs))
    return fold.report()


def mult_field_loops(fieldrule, triples, t_grid=(-0.5, -0.1, 0.1, 0.5), tol=1e-6):
    fold = _Worst(tol)
    for x, y, z in triples:
        x, y, z = (np.asarray(p, dtype=float) for p in (x, y, z))
        for t in t_grid:
            lhs = _rk4_loop(fieldrule, x - y + z, t)
            rhs = _rk4_loop(fieldrule, x, t) - _rk4_loop(fieldrule, y, t) + _rk4_loop(fieldrule, z, t)
            fold.add((t, (x, y, z), lhs, rhs), scalar_rel_norm(lhs - rhs, lhs, rhs))
    return fold.report()


def euclidean_loops(n, samples, seed, tol=1e-12):
    rng = np.random.default_rng(seed)
    g = np.dot
    fold = _Worst(tol)
    for i in range(samples):
        w, x, y, z, q = (rng.normal(size=n) for _ in range(5))
        s1, s2, s3 = g(w, x) * g(y, z), g(w, x * g(y, z)), g(y, g(x, w) * z)
        fold.add(i, abs(s1 - s2) / max(1.0, abs(s1)))
        fold.add(i, abs(s1 - s3) / max(1.0, abs(s1)))
        outer, middle, inner = _para(lambda a, b, c: a * g(b, c), [w, x, y, z, q])
        fold.add(i, scalar_rel_norm(outer - middle, outer))
        fold.add(i, scalar_rel_norm(outer - inner, outer))
        v = rng.normal(size=n)
        lhs, rhs = v * g(w, x) * g(y, z), v * g(w, x * g(y, z))
        fold.add(i, scalar_rel_norm(lhs - rhs, lhs))
    return fold.report()


def exp_hom_loops(samples, seed, tol=1e-12, span=3.0):
    rng = np.random.default_rng(seed)
    fold = _Worst(tol)
    for i in range(samples):
        x, y, z = rng.uniform(-span, span, size=3)
        lhs = math.exp(x - y + z)
        rhs = math.exp(x) * (1.0 / math.exp(y)) * math.exp(z)
        fold.add(i, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return fold.report(basepoint_ok=math.exp(0.0) == 1.0)


def token_positions(text):
    """Every token of a text format as (token, line, column), 1-based, computed eagerly.

    Lines are text.splitlines(), '#' starts a comment, tokens are
    str.split() words, and each token's column is found by searching its
    line from the end of the token before it.
    """
    items = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            items.append((tok, ln, col + 1))
            col += len(tok)
    return items


def entry_values(text, slots):
    """The integer entries of a text format at slots (token index, what, high), each converted by int() alone.

    The first bad entry raises the FormatError a parser gives for it: the same
    message, line and column, positions taken from token_positions.
    """
    items, values = token_positions(text), []
    for index, what, high in slots:
        if index >= len(items):
            raise FormatError(f"unexpected end of input, expected {what}")
        tok, line, col = items[index]
        try:
            value = int(tok)
        except ValueError:
            raise FormatError(f"expected integer {what}, got {tok!r}", line, col) from None
        if not 0 <= value < high:
            raise FormatError(f"{what} {value} out of range", line, col)
        values.append(value)
    return values


def int_lines(values, per_line):
    """Lines of per_line integers separated by single spaces, written one value at a time."""
    vals = [str(int(v)) for v in values]
    return [" ".join(vals[i:i + per_line]) for i in range(0, len(vals), per_line)]
