"""Independent brute-force oracles for the test suite.

Everything here is deliberately written with plain nested loops over
tuples, sharing no code path with the library's vectorized checkers.
"""

from itertools import product as iproduct


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
