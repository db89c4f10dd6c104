"""Output checks made apart from the program.

Plain loops and scalar lookups over nested lists: nothing here imports
semiheap or numpy.  Ternary tables are t[x][y][z], Cayley tables
mul[x][y], action tables a[p][x][y].  The workloads derive their expected
answers from these functions and from how their inputs are built, never
from stored copies of the program's output.
"""

from itertools import permutations, product


# --- ternary tables --------------------------------------------------------

def para_values(t, q):
    """The three association orders of the para-associative law at q."""
    x1, x2, x3, x4, x5 = q
    return (t[t[x1][x2][x3]][x4][x5],
            t[x1][t[x4][x3][x2]][x5],
            t[x1][x2][t[x3][x4][x5]])


def para_fails(t, q):
    outer, middle, inner = para_values(t, q)
    return not outer == middle == inner


def first_para_failure(t):
    """Lexicographically first failing quintuple, or None."""
    n = len(t)
    for q in product(range(n), repeat=5):
        if para_fails(t, q):
            return q
    return None


def para_failure_through(t, cell):
    """A failing quintuple in which the cell is looked up directly, or None."""
    i, j, k = cell
    n = len(t)
    for a in range(n):
        for b in range(n):
            for q in ((i, j, k, a, b), (a, k, j, i, b), (a, b, i, j, k)):
                if para_fails(t, q):
                    return q
    return None


def is_heap(t):
    n = len(t)
    return all(t[y][x][x] == y and t[x][x][y] == y for x in range(n) for y in range(n))


def is_abelian(t):
    n = len(t)
    return all(t[x][y][z] == t[z][y][x] for x in range(n) for y in range(n) for z in range(n))


def relabel(t, perm):
    """Transport t along x -> perm[x]."""
    n = len(t)
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                out[perm[x]][perm[y]][perm[z]] = perm[t[x][y][z]]
    return out


def flat(t):
    return tuple(v for plane in t for row in plane for v in row)


def unflat(values, n):
    it = iter(values)
    return [[[next(it) for _ in range(n)] for _ in range(n)] for _ in range(n)]


def canonical(t):
    """The lexicographically least relabeling, as a flat tuple."""
    n = len(t)
    return min(flat(relabel(t, p)) for p in permutations(range(n)))


def aut_count(t):
    n = len(t)
    key = flat(t)
    return sum(1 for p in permutations(range(n)) if flat(relabel(t, p)) == key)


def semiheaps_brute(n):
    """Every para-associative table on n points, by scanning all n^(n^3)."""
    return [values for values in product(range(n), repeat=n ** 3)
            if first_para_failure(unflat(values, n)) is None]


# --- translation laws -------------------------------------------------------
# Each law compares two endomaps at a point p, for parameters (x1, x2, x3, x4).

LAWS = {
    "right": (lambda t, a, b, c, d, p: t[t[p][a][b]][c][d],
              lambda t, a, b, c, d, p: t[p][a][t[b][c][d]]),
    "left": (lambda t, a, b, c, d, p: t[a][b][t[c][d][p]],
             lambda t, a, b, c, d, p: t[t[a][b][c]][d][p]),
    "commute": (lambda t, a, b, c, d, p: t[a][b][t[p][c][d]],
                lambda t, a, b, c, d, p: t[t[a][b][p]][c][d]),
}


def law_values(t, law, params, p):
    lhs, rhs = LAWS[law]
    return lhs(t, *params, p), rhs(t, *params, p)


def first_law_failure(t, law):
    """(params, point, lhs, rhs) of the first failure in scan order, or None."""
    n = len(t)
    for params in product(range(n), repeat=4):
        for p in range(n):
            lhs, rhs = law_values(t, law, params, p)
            if lhs != rhs:
                return params, p, lhs, rhs
    return None


# --- actions and homomorphisms ------------------------------------------------

def action_values(a, t, p, quad):
    x1, x2, x3, x4 = quad
    return a[a[p][x1][x2]][x3][x4], a[p][x1][t[x2][x3][x4]]


def first_action_failure(a, t):
    """(point, quadruple) of the first compatibility failure, or None."""
    n = len(t)
    for p in range(len(a)):
        for quad in product(range(n), repeat=4):
            lhs, rhs = action_values(a, t, p, quad)
            if lhs != rhs:
                return p, quad
    return None


def action_failure_through(a, t, cell):
    """A failing (point, quadruple) that looks the cell up directly, or None."""
    p, x, y = cell
    n = len(t)
    for x3 in range(n):
        for x4 in range(n):
            if len(set(action_values(a, t, p, (x, y, x3, x4)))) > 1:
                return p, (x, y, x3, x4)
    for x2, x3, x4 in product(range(n), repeat=3):
        if t[x2][x3][x4] == y and len(set(action_values(a, t, p, (x, x2, x3, x4)))) > 1:
            return p, (x, x2, x3, x4)
    return None


def hom_values(phi, ts, tt, x, y, z):
    return phi[ts[x][y][z]], tt[phi[x]][phi[y]][phi[z]]


def first_hom_failure(phi, ts, tt):
    n = len(ts)
    for x, y, z in product(range(n), repeat=3):
        lhs, rhs = hom_values(phi, ts, tt, x, y, z)
        if lhs != rhs:
            return x, y, z, lhs, rhs
    return None


# --- groups -------------------------------------------------------------------

def heap_of_group(mul, inv):
    """[x, y, z] = x * y^-1 * z."""
    n = len(mul)
    return [[[mul[mul[x][inv[y]]][z] for z in range(n)] for y in range(n)] for x in range(n)]


def group_aut_count(mul):
    n = len(mul)
    return sum(1 for p in permutations(range(n))
               if all(p[mul[x][y]] == mul[p[x]][p[y]] for x in range(n) for y in range(n)))


def _generated(mul, e, gens):
    seen, frontier = {e}, [e]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = mul[x][s]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def generators(mul, e):
    """A generating set, chosen greedily in index order."""
    gens, closure = [], {e}
    for g in range(len(mul)):
        if g not in closure:
            gens.append(g)
            closure = _generated(mul, e, gens)
    return gens


def count_group_homs(mul, e, mul2, e2):
    """|Hom(G, G')|, counted over the images of a generating set of G."""
    gens = generators(mul, e)
    n = len(mul)
    count = 0
    for images in product(range(len(mul2)), repeat=len(gens)):
        f = {e: e2}
        frontier = [e]
        ok = True
        while frontier and ok:
            x = frontier.pop()
            for s, fs in zip(gens, images):
                y, fy = mul[x][s], mul2[f[x]][fs]
                if y not in f:
                    f[y] = fy
                    frontier.append(y)
                elif f[y] != fy:
                    ok = False
                    break
        if ok and all(f[mul[a][b]] == mul2[f[a]][f[b]] for a in range(n) for b in range(n)):
            count += 1
    return count


def is_group_hom(f, mul, mul2):
    n = len(mul)
    return all(f[mul[a][b]] == mul2[f[a]][f[b]] for a in range(n) for b in range(n))


# --- bundles --------------------------------------------------------------------

def chart_equivariance_values(t, act, charts, i, p, x, y):
    """(chart image of p <| (x, y), what equivariance requires it to be)."""
    bm, s = charts[i][p]
    return charts[i][act[p][x][y]], (bm, t[s][x][y])


def first_chart_failure(t, proj, act, cover, charts):
    """First chart axiom failure of a bundle, in the documented check order.

    Assumes the action, projection and cover axioms hold, which the
    callers establish by construction.
    """
    n = len(t)
    total = len(proj)
    for i, (u, chart) in enumerate(zip(cover, charts)):
        domain = sorted(p for p in range(total) if proj[p] in u)
        seen = set()
        for p in domain:
            bm, s = chart[p]
            if (bm, s) in seen:
                return "chart-injective", (i, p, bm, s)
            seen.add((bm, s))
        for p in domain:
            for x in range(n):
                for y in range(n):
                    got, want = chart_equivariance_values(t, act, charts, i, p, x, y)
                    if got != want:
                        return "chart-equivariance", (i, p, x, y, got, want)
    return None


# --- texts ------------------------------------------------------------------------

def render_rows(header, values, per_line):
    """A text as lines: the header, then per_line integers per line."""
    vals = [str(v) for v in values]
    return [header] + [" ".join(vals[k:k + per_line]) for k in range(0, len(vals), per_line)]


def token_position(lines, line_index, token_index):
    """1-based (line, column) of a token in space-separated lines."""
    toks = lines[line_index].split(" ")
    return line_index + 1, 1 + sum(len(tok) + 1 for tok in toks[:token_index])


def replace_token(lines, line_index, token_index, token):
    out = list(lines)
    toks = out[line_index].split(" ")
    toks[token_index] = token
    out[line_index] = " ".join(toks)
    return out


def int_block(text):
    """(header tokens, integers after the header line) of a table text."""
    head, _, body = text.partition("\n")
    return head.split(), [int(v) for v in body.split()]


def records(line):
    """key=value fields of one report line, with the leading word as 'verb'."""
    words = line.split()
    out = {"verb": words[0]} if words else {}
    for word in words[1:]:
        key, _, value = word.partition("=")
        out[key] = value
    return out


def ints(csv):
    return tuple(int(v) for v in csv.split(","))
