"""Inputs shared by certify and refute: pointed heaps with their groups, and bundles.

Every heap here is a heap by theorem: the heapification of a corpus group,
the product of two heapifications, or a seeded relabeling of one of those.
Next to each program object the benchmark keeps its own copy of the table
and of the group's Cayley table, built with plain loops; set-up checks
that the two agree, and at n <= SMALL it confirms the heap laws by loop
scans.
"""

from dataclasses import dataclass, field

import numpy as np

import oracles
from semiheap import bundles, core, functors, groups, translations
from semiheap.core import PointedSemiheap

GROUPS = ("Z4", "K4", "Z5", "S3", "Z6", "Z7", "Z8", "D4", "Q8")   # n = 4..8
PRODUCTS = (("K4", "Z3"), ("Q8", "Z2"), ("S3", "Z3"), ("D4", "Z3"))   # n = 12, 16, 18, 24
RELABELED = ("S3", "Q8", "K4xZ3", "Q8xZ2")
BUNDLES = (("Z4", 3), ("S3", 2), ("Q8", 2), ("D4", 3))   # (fiber group, base size)
SMALL = 8
# The translation laws by their CLI name: (checker, the law its witness names).
LAWS = {"right": (translations.right_compose_law, "right-compose"),
        "left": (translations.left_compose_law, "left-compose"),
        "commute": (translations.lr_commute, "lr-commute")}
# The heaps certify and refute also feed to the CLI verbs.
CLI_CHECK = ("Z4", "S3", "D4", "K4xZ3~", "Q8xZ2")
CLI_LAWS = ("S3", "D4")
CLI_ACTION = ("Q8", "K4xZ3")


@dataclass
class HeapCase:
    name: str
    pointed: PointedSemiheap
    group: groups.FiniteGroup
    t: list            # own copy of the ternary table
    mul: list          # own copy of the Cayley table
    inv: list
    e: int
    homs: list = field(default_factory=list)   # (label, own map, target semiheap, target table)

    @property
    def n(self):
        return len(self.t)

    @property
    def abelian(self):
        return all(self.mul[x][y] == self.mul[y][x] for x in range(self.n) for y in range(self.n))


@dataclass
class BundleCase:
    name: str
    principal: bundles.FinitePrincipalBundle
    heapified: bundles.DiscreteSemiheapBundle
    t: list            # structure table
    proj: list
    act: list          # heapified action table a[p][g1][g2]
    cover: tuple
    charts: tuple


def _direct_product(ga, gb):
    """Cayley table of A x B on the pair encoding a * |B| + b, built here."""
    ma, mb = ga.mul.tolist(), gb.mul.tolist()
    ia, ib = ga.inv.tolist(), gb.inv.tolist()
    nb = len(mb)
    pairs = [divmod(x, nb) for x in range(len(ma) * nb)]
    mul = [[ma[a1][a2] * nb + mb[b1][b2] for a2, b2 in pairs] for a1, b1 in pairs]
    inv = [ia[a] * nb + ib[b] for a, b in pairs]
    return mul, inv, int(ga.e) * nb + int(gb.e)


def heap_cases(ctx):
    tr = ctx.tracer
    with tr.span("groups.build"):
        corpus = {g.name: g for g in groups.corpus()}
    cases = {}

    def add(name, pointed, group, mul, inv, e):
        t = oracles.heap_of_group(mul, inv)
        ctx.validate(pointed.table.entries.tolist() == t and pointed.basepoint == e,
                     f"{name}: heap table differs from x * y^-1 * z")
        ctx.validate(group.mul.tolist() == mul and int(group.e) == e and group.inv.tolist() == inv,
                     f"{name}: group differs from the benchmark's Cayley table")
        cases[name] = HeapCase(name, pointed, group, t, mul, inv, e)
        return cases[name]

    for name in GROUPS:
        g = corpus[name]
        with tr.span("functors.heapify"):
            h = functors.heapify(g)
        add(name, h, g, g.mul.tolist(), g.inv.tolist(), int(g.e))

    for a, b in PRODUCTS:
        ga, gb = corpus[a], corpus[b]
        mul, inv, e = _direct_product(ga, gb)
        with tr.span("groups.build"):
            g = groups.FiniteGroup(np.array(mul), e, np.array(inv), name=f"{a}x{b}")
        with tr.span("functors.heapify"):
            ha, hb = functors.heapify(ga), functors.heapify(gb)
        with tr.span("core.product"):
            s = core.product(ha.semiheap, hb.semiheap)
        c = add(f"{a}x{b}", PointedSemiheap(s, e), g, mul, inv, e)
        nb = gb.n
        for h, proj in ((ha, [x // nb for x in range(c.n)]), (hb, [x % nb for x in range(c.n)])):
            c.homs.append((f"proj-{len(c.homs)}", proj, h.semiheap, h.table.entries.tolist()))

    rng = ctx.rng("relabel")
    for name in RELABELED:
        c = cases[name]
        phi = rng.permutation(c.n)
        new = np.argsort(phi).tolist()            # old label -> new label
        with tr.span("core.induce"):
            s = core.induce_via_bijection(phi, c.pointed.semiheap)
        mul = [[0] * c.n for _ in range(c.n)]
        inv = [0] * c.n
        for x in range(c.n):
            inv[new[x]] = new[c.inv[x]]
            for y in range(c.n):
                mul[new[x]][new[y]] = new[c.mul[x][y]]
        with tr.span("groups.build"):
            g = groups.FiniteGroup(np.array(mul), new[c.e], np.array(inv), name=f"{name}~")
        r = add(f"{name}~", PointedSemiheap(s, new[c.e]), g, mul, inv, new[c.e])
        c.homs.append(("iso", new, s, r.t))

    for c in cases.values():
        if c.n <= SMALL:
            ctx.validate(oracles.first_para_failure(c.t) is None and oracles.is_heap(c.t),
                         f"{c.name}: loop scan finds no heap")
    return list(cases.values())


def bundle_cases(ctx, cases):
    """Heapified principal bundles: a trivial chart and a seeded twisted one."""
    tr = ctx.tracer
    rng = ctx.rng("bundle")
    out = []
    for name, base in BUNDLES:
        c = cases[name]
        n, mul, inv = c.n, c.mul, c.inv
        total = base * n
        proj = [p // n for p in range(total)]
        right = [[(p // n) * n + mul[p % n][h] for h in range(n)] for p in range(total)]
        twist = rng.integers(0, n, size=base).tolist()
        chart0 = {p: (p // n, p % n) for p in range(total)}
        chart1 = {p: (p // n, mul[twist[p // n]][p % n]) for p in range(total)}
        cover = (frozenset(range(base)), frozenset(range(base)))
        with tr.span("bundles.principal"):
            pb = bundles.FinitePrincipalBundle(c.group, base, np.array(proj), np.array(right),
                                               cover, (chart0, chart1))
        with tr.span("bundles.verify"):
            b = bundles.heapify_principal(pb)
        act = [[[right[p][mul[inv[g1]][g2]] for g2 in range(n)] for g1 in range(n)]
               for p in range(total)]
        ctx.validate(b.action.table.tolist() == act and b.structure.table.entries.tolist() == c.t,
                     f"bundle {name}: heapified action differs from p * g1^-1 * g2")
        out.append(BundleCase(f"{name}x{base}", pb, b, c.t, proj, act, cover, (chart0, chart1)))
    return out
