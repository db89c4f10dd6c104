"""Independent brute-force oracles for the test suite.

Everything here is deliberately written with plain nested loops over
tuples, sharing no code path with the library's vectorized checkers.
"""

from itertools import permutations, product as iproduct


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


def product_loops(flat, n, flat2, n2):
    """The componentwise product table on pairs encoded as x * n2 + y."""
    m = n * n2
    out = []
    for a, b, c in iproduct(range(m), repeat=3):
        (x1, y1), (x2, y2), (x3, y3) = divmod(a, n2), divmod(b, n2), divmod(c, n2)
        out.append(flat[(x1 * n + x2) * n + x3] * n2 + flat2[(y1 * n2 + y2) * n2 + y3])
    return tuple(out)


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
