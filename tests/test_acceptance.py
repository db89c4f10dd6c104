"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from semiheap import enumeration, functors, groups
from semiheap.actions import (
    FiniteAction,
    action_from_group_action,
    is_equivariant,
    right_multiplication_action,
    translation_action,
    verify_action,
)
from semiheap.bundles import (
    DiscreteSemiheapBundle,
    FinitePrincipalBundle,
    fiber_semiheap,
    heapify_principal,
    trivial_bundle,
    trivial_principal_bundle,
    verify_bundle,
)
from semiheap.charts import bundled_charts
from semiheap.numeric import (
    PolynomialField,
    bracket_closure,
    check_para_associative_numeric,
    coassociativity_check,
    compare_group_vs_heap_invariance,
    euclidean_semiheap_check,
    exp_hom_check,
    left_invariant_field_check,
    multiplicative_function_check,
    pushforward_convergence,
    sample_triples,
)
from semiheap.translations import (
    left_compose_law,
    left_endomap,
    left_invariant_functions,
    lr_commute,
    reachability_check,
    right_compose_law,
)

from oracles import semiheap_tables_brute

SO3 = bundled_charts()["so3"]
R1 = bundled_charts()["r1"]
R3 = bundled_charts()["r3"]


def _emit(num, passed, detail):
    print(f"criterion={num} pass={str(bool(passed)).lower()} {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_c01_oracle_equivalence_n2():
    t0 = time.perf_counter()
    enumerated = {s.table.flat() for s in enumeration.enumerate_semiheaps(2)}
    oracle = semiheap_tables_brute(2)
    elapsed = time.perf_counter() - t0
    _emit(1, enumerated == oracle and elapsed < 1.0,
          f"count={len(enumerated)} elapsed={elapsed:.3f}s")


def test_c02_functor_round_trips(corpus, pointed_heaps_upto3):
    t0 = time.perf_counter()
    ok = len(corpus) >= 10
    for g in corpus:
        g2 = functors.groupify(functors.heapify(g))
        ok = ok and np.array_equal(g2.mul, g.mul) and g2.e == g.e
    for ps in pointed_heaps_upto3:
        back = functors.heapify(functors.groupify(ps))
        ok = ok and back.semiheap.key() == ps.semiheap.key() and back.basepoint == ps.basepoint
    elapsed = time.perf_counter() - t0
    _emit(2, ok and elapsed < 5.0,
          f"groups={len(corpus)} pointed_heaps={len(pointed_heaps_upto3)} elapsed={elapsed:.3f}s")


def test_c03_fully_faithful_pairs():
    four = [groups.cyclic(2), groups.cyclic(3), groups.cyclic(4), groups.klein_four()]
    ok = True
    counts = []
    for g in four:
        for g2 in four:
            report = functors.check_fully_faithful(g, g2)
            ok = ok and set(report.group_homs) == set(report.pointed_heap_homs)
            counts.append(len(report.group_homs))
    z2z2 = functors.check_fully_faithful(groups.cyclic(2), groups.cyclic(2))
    unpointed_extra = set(z2z2.unpointed_heap_homs) - set(z2z2.pointed_heap_homs)
    ok = ok and len(unpointed_extra) >= 1
    _emit(3, ok, f"pairs=16 hom_counts={counts} z2_extra_homs={sorted(unpointed_extra)}")


def test_c04_translation_laws(order2_semiheaps, heap_corpus):
    pool = list(order2_semiheaps) + [h.semiheap for _, h in heap_corpus]
    failures = 0
    for s in pool:
        for law in (right_compose_law, left_compose_law, lr_commute):
            failures += law(s) is not None
    _emit(4, failures == 0, f"semiheaps={len(pool)} failures={failures}")


def test_c05_biunital_suite(heap_corpus):
    ok = True
    for _, h in heap_corpus:
        ok = ok and np.array_equal(left_endomap(h.semiheap, h.basepoint, h.basepoint), np.arange(h.n))
        ok = ok and reachability_check(h) is None
        dim, _ = left_invariant_functions(h)
        ok = ok and dim == 1
    _emit(5, ok, f"heapified_groups={len(heap_corpus)}")


def test_c06_action_suite(order2_semiheaps, corpus):
    ok = True
    pool = list(order2_semiheaps) + [functors.heapify(g).semiheap for g in corpus if g.n <= 6]
    for s in pool:
        ok = ok and (verify_action(translation_action(s)) is None) == (right_compose_law(s) is None)

    bundled = []
    for g in [groups.cyclic(3), groups.cyclic(4), groups.symmetric3()]:
        bundled.append((g, right_multiplication_action(g)))
        bundled.append((g, np.tile(np.arange(3)[:, None], (1, g.n))))
    g4 = groups.cyclic(4)
    quotient = np.array([[(p + x) % 2 for x in range(4)] for p in range(2)])
    bundled.append((g4, quotient))
    for g, act in bundled:
        ok = ok and verify_action(action_from_group_action(g, act)) is None

    # every G-equivariant map among the instances stays equivariant for the
    # induced heap actions: identities on each instance plus the quotient
    equivariant_pairs = 0
    for g, act in bundled:
        a = action_from_group_action(g, act)
        ok = ok and is_equivariant(np.arange(act.shape[0]), a, a)
        equivariant_pairs += 1
    psi = np.array([0, 1, 0, 1])
    a_m = action_from_group_action(g4, right_multiplication_action(g4))
    a_n = action_from_group_action(g4, quotient)
    assert np.array_equal(psi[right_multiplication_action(g4)], quotient[psi])
    ok = ok and is_equivariant(psi, a_m, a_n)
    equivariant_pairs += 1
    _emit(6, ok, f"semiheaps={len(pool)} group_actions={len(bundled)} "
                 f"equivariant_maps={equivariant_pairs}")


def _twisted_z2_bundle():
    g = groups.cyclic(2)
    proj = np.array([0, 0, 1, 1])
    act = np.array([[0, 1], [1, 0], [2, 3], [3, 2]])
    chart0 = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    chart1 = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
    return FinitePrincipalBundle(g, 2, proj, act,
                                 (frozenset({0, 1}), frozenset({0, 1})),
                                 (chart0, chart1))


def test_c07_bundle_suite():
    t0 = time.perf_counter()
    ok = True
    for base, s in [(1, functors.heapify(groups.cyclic(3)).semiheap),
                    (3, functors.heapify(groups.cyclic(2)).semiheap)]:
        ok = ok and verify_bundle(trivial_bundle(base, s)) is None

    heapified = [heapify_principal(_twisted_z2_bundle()),
                 heapify_principal(trivial_principal_bundle(2, groups.cyclic(3)))]
    mutations = 0
    caught = 0
    for b in heapified:
        ok = ok and verify_bundle(b) is None
        for m in range(b.base_size):
            for i in range(len(b.cover)):
                if m in b.cover[i]:
                    fiber_semiheap(b, m, i)    # asserts the cross-chart isomorphisms
        base = b.action.table
        total, n = base.shape[0], b.structure.n
        for p in range(total):
            for x in range(n):
                for y in range(n):
                    for v in range(total):
                        if v == base[p, x, y]:
                            continue
                        mutated = base.copy()
                        mutated[p, x, y] = v
                        bad = DiscreteSemiheapBundle(
                            b.base_size, b.projection, b.structure,
                            FiniteAction(b.structure, mutated, verify=False),
                            b.cover, b.charts)
                        mutations += 1
                        caught += verify_bundle(bad) is not None
    elapsed = time.perf_counter() - t0
    _emit(7, ok and caught == mutations and elapsed < 5.0,
          f"mutations={mutations} caught={caught} elapsed={elapsed:.3f}s")


def test_c08_numeric_heap_laws_so3():
    para = check_para_associative_numeric(SO3, 200, 42, tol=1e-9)
    invariance = left_invariant_field_check(SO3, SO3.basis[0], 200, 42, tol=1e-6, h=1e-5)
    res_h, res_half, ratio = pushforward_convergence(SO3, 50, 42, h=1e-3)
    forms = compare_group_vs_heap_invariance(SO3, SO3.basis[0], 100, 42, tol=1e-6)
    ok = (para.passed and invariance.passed and 3.5 <= ratio <= 4.5
          and forms.extra["exact"] and forms.passed)
    _emit(8, ok, f"para={para.max_residual:.2e} invariance={invariance.max_residual:.2e} "
                 f"ratio={ratio:.3f} exact_forms={forms.extra['exact']}")


def test_c09_bracket_structure_constants():
    r = bracket_closure(SO3, SO3.basis[0], SO3.basis[1], 100, 42, tol=1e-4)
    ok = r.passed and np.allclose(r.extra["commutator"], SO3.basis[2]) and r.extra["rank_ok"]
    _emit(9, ok, f"residual={r.max_residual:.2e} rank_ok={r.extra['rank_ok']}")


def test_c10_multiplicativity_and_coalgebra():
    linear = multiplicative_function_check(
        R3, PolynomialField.linear([1.0, -0.5, 2.0]), sample_triples(R3, 200, 42),
        tol=1e-12, seed=42)

    def tr(v):
        g = np.eye(2)
        g[0, 1] = v
        return g

    square = multiplicative_function_check(
        R1, PolynomialField((((0, 0), 1.0),)),
        [(tr(1.0), tr(0.0), tr(1.0))], tol=1e-12)
    square_ok = (not square.passed and square.witness is not None
                 and square.witness[3] == 4.0 and square.witness[4] == 2.0)

    co_so3 = coassociativity_check(SO3, 100, 42, tol=1e-10)
    co_r3 = coassociativity_check(R3, 100, 42, tol=1e-10)
    exp = exp_hom_check(1000, 42, tol=1e-12)
    ok = linear.passed and square_ok and co_so3.passed and co_r3.passed and exp.passed
    _emit(10, ok, f"linear={linear.max_residual:.2e} square_witness=(1,0,1) "
                  f"coassoc_so3={co_so3.max_residual:.2e} coassoc_r3={co_r3.max_residual:.2e} "
                  f"exp={exp.max_residual:.2e}")


def test_c11_euclidean_semiheap():
    r = euclidean_semiheap_check(3, 1000, 42, tol=1e-12)
    _emit(11, r.passed, f"residual={r.max_residual:.2e} samples=1000")
