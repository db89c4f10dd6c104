"""census: enumeration, hom-set classification and isomorphism tests.

No count is stored: n=2 is checked against the loop oracle over all 256
tables, n=3 by orbit-stabilizer against the benchmark's own automorphism
counts, heap counts by sum over groups G of (n-1)!/|Aut G|, and hom sets
against homomorphism counts made from generator images.
"""

from itertools import permutations
from math import factorial

import oracles
from common import Op, expect, first_problem
from semiheap import enumeration, functors, groups
from semiheap.core import FiniteSemiheap

# Map spaces |G'|^|G| from 4096 to 46656.
HOM_PAIRS = (("Z4", "Q8"), ("K4", "D4"), ("Z7", "Z4"), ("Z6", "S3"))
# Groups of order 2 and 3, which are all cyclic.
HEAP_GROUPS = {2: ("Z2",), 3: ("Z3",)}
# Semiheaps on 4 points known by construction, for canonical forms.
ISO_RULES = {
    "heap-Z4": lambda x, y, z: (x - y + z) % 4,
    "heap-K4": lambda x, y, z: x ^ y ^ z,
    "left-proj": lambda x, y, z: x,
    "right-proj": lambda x, y, z: z,
    "max": lambda x, y, z: max(x, y, z),
    "mul-mod4": lambda x, y, z: (x * y * z) % 4,
}


def _tables(result):
    return [oracles.unflat([int(v) for v in s.table.entries.reshape(-1)], s.n) for s in result]


def _enumerate(tr, name, fn, *args, **kw):
    def run():
        with tr.span("enumeration.enumerate") as counts:
            out = fn(*args, **kw)
            counts["tables"] = len(out)
        return out
    return name, run


def n2_ops(tr, brute):
    def check(result):
        got = [oracles.flat(t) for t in _tables(result)]
        return first_problem(expect(result.complete, "incomplete"),
                             expect(got == brute, f"{len(got)} tables, loop oracle finds {len(brute)}"))
    return [Op(name, run, check) for name, run in (
        _enumerate(tr, "semiheaps-n2-filter", enumeration.enumerate_semiheaps, 2, method="filter"),
        _enumerate(tr, "semiheaps-n2-backtrack", enumeration.enumerate_semiheaps, 2, method="backtrack"))]


def n3_ops(tr):
    """Up to iso first; the labeled operation is checked against its representatives."""
    reps = {}

    def check_iso(result):
        tables = _tables(result)
        reps["flat"] = [oracles.flat(t) for t in tables]
        reps["aut"] = [oracles.aut_count(t) for t in tables]
        return first_problem(
            expect(result.complete, "incomplete"),
            expect(all(oracles.first_para_failure(t) is None for t in tables), "a representative fails the law"),
            expect(all(oracles.canonical(t) == f for t, f in zip(tables, reps["flat"])),
                   "a representative is not its own canonical form"),
            expect(len(set(reps["flat"])) == len(tables), "two representatives coincide"))

    def check_labeled(result):
        got = {oracles.flat(t) for t in _tables(result)}
        if not reps.get("flat"):
            return "no representatives to compare with"
        orbits = {oracles.flat(oracles.relabel(oracles.unflat(f, 3), p))
                  for f in reps["flat"] for p in permutations(range(3))}
        predicted = sum(factorial(3) // a for a in reps["aut"])
        return first_problem(
            expect(result.complete, "incomplete"),
            expect(len(result) == predicted, f"{len(result)} labeled, orbit-stabilizer gives {predicted}"),
            expect(got == orbits, "labeled set differs from the orbits of the representatives"))

    iso = _enumerate(tr, "semiheaps-n3-up-to-iso", enumeration.enumerate_semiheaps, 3, up_to_iso=True)
    labeled = _enumerate(tr, "semiheaps-n3-labeled", enumeration.enumerate_semiheaps, 3)
    return [Op(*iso, check_iso), Op(*labeled, check_labeled)]


def heap_ops(tr, corpus):
    ops = []
    for n, names in HEAP_GROUPS.items():
        heaps = []
        for name in names:
            g = corpus[name]
            t = oracles.heap_of_group(g.mul.tolist(), g.inv.tolist())
            heaps += [oracles.flat(oracles.relabel(t, p)) for p in permutations(range(n))]
        predicted = sum(factorial(n - 1) // oracles.group_aut_count(corpus[name].mul.tolist())
                        for name in names)

        def check(result, heaps=set(heaps), predicted=predicted):
            got = [oracles.flat(t) for t in _tables(result)]
            return first_problem(
                expect(result.complete, "incomplete"),
                expect(len(got) == predicted, f"{len(got)} heaps, sum of (n-1)!/|Aut G| is {predicted}"),
                expect(set(got) == heaps and len(set(got)) == len(got),
                       "heaps differ from the relabeled heapified groups"))
        ops.append(Op(*_enumerate(tr, f"heaps-n{n}", enumeration.enumerate_heaps, n), check))
    return ops


def fully_faithful_ops(tr, corpus):
    ops = []
    for a, b in HOM_PAIRS:
        g, g2 = corpus[a], corpus[b]
        mul, mul2 = g.mul.tolist(), g2.mul.tolist()
        homs = oracles.count_group_homs(mul, int(g.e), mul2, int(g2.e))

        def run(g=g, g2=g2):
            with tr.span("functors.fully_faithful") as counts:
                report = functors.check_fully_faithful(g, g2)
                counts["maps"] = report.maps_checked
            return report

        def check(r, n=g.n, n2=g2.n, homs=homs, mul=mul, mul2=mul2):
            return first_problem(
                expect(r.maps_checked == n2 ** n, f"{r.maps_checked} maps checked"),
                expect(len(r.group_homs) == homs, f"{len(r.group_homs)} group homs, generators give {homs}"),
                expect(all(oracles.is_group_hom(f, mul, mul2) for f in r.group_homs), "a listed map is no hom"),
                expect(set(r.pointed_heap_homs) == set(r.group_homs), "pointed heap homs differ from group homs"),
                expect(len(r.unpointed_heap_homs) == homs * n2,
                       f"{len(r.unpointed_heap_homs)} unpointed heap homs, want {homs} * {n2}"))
        ops.append(Op(f"fully-faithful/{a}->{b}", run, check))
    return ops


def iso_ops(ctx):
    """Canonical forms of seeded relabelings, and isomorphism tests both ways."""
    tr = ctx.tracer
    rng = ctx.rng("relabel")
    inputs = []
    for name, rule in ISO_RULES.items():
        t = [[[rule(x, y, z) for z in range(4)] for y in range(4)] for x in range(4)]
        ctx.validate(oracles.first_para_failure(t) is None, f"{name} is not para-associative")
        pair = []
        for _ in range(2):
            relabeled = oracles.relabel(t, rng.permutation(4).tolist())
            with tr.span("core.semiheap"):
                pair.append(FiniteSemiheap.from_flat(4, oracles.flat(relabeled)))
        inputs.append((name, pair, oracles.canonical(t)))
    ops = []
    for k, (name, (s, s2), canon) in enumerate(inputs):
        def run_canon(s=s):
            with tr.span("enumeration.canonical"):
                return enumeration.canonical_form(s.table)
        ops.append(Op(f"canonical/{name}", run_canon,
                      lambda c, canon=canon: expect(c.flat() == canon, "canonical form differs")))
        other_name, (other, _), other_canon = inputs[(k + 1) % len(inputs)]
        for label, b, want in ((name, s2, True), (other_name, other, canon == other_canon)):
            def run_iso(s=s, b=b):
                with tr.span("enumeration.canonical"):
                    return enumeration.are_isomorphic(s, b)
            ops.append(Op(f"isomorphic/{name}-{label}", run_iso,
                          lambda same, want=want: expect(same == want, f"isomorphic = {same}, want {want}")))
    return ops


def build(ctx):
    with ctx.tracer.span("groups.build"):
        corpus = {g.name: g for g in groups.corpus()}
    brute = sorted(oracles.semiheaps_brute(2))
    return (n2_ops(ctx.tracer, brute) + n3_ops(ctx.tracer) + heap_ops(ctx.tracer, corpus)
            + fully_faithful_ops(ctx.tracer, corpus) + iso_ops(ctx))
