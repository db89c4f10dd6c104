"""The slabbed law checkers against the plain-loop oracles.

Each checker must report the same lexicographically first witness,
values included, as the loop scan in tests/oracles.py, on random tables
and on heaps with one corrupted cell.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import (
    first_action_failure,
    first_hom_failure,
    first_left_compose_failure,
    first_lr_commute_failure,
    first_para_failure,
    first_right_compose_failure,
)
from semiheap import functors, groups
from semiheap.actions import action_compat_witness
from semiheap.core import FiniteSemiheap, TernaryTable, homomorphism_witness, verify_para_associative
from semiheap.translations import left_compose_law, lr_commute, right_compose_law


def _tables(rng, n):
    """Random tables, heaps, and heaps with one corrupted cell, all on n points."""
    heaps = [functors.heapify(g).semiheap.table.entries for g in groups.corpus() if g.n == n]
    out = [rng.integers(0, n, size=(n, n, n)) for _ in range(4)] + heaps
    for _ in range(6):
        t = heaps[int(rng.integers(0, len(heaps)))].copy()
        t[tuple(rng.integers(0, n, size=3))] = rng.integers(0, n)
        out.append(t)
    return [FiniteSemiheap(TernaryTable(t), _certified=True) for t in out]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_first_witnesses_match_loop_scans(n):
    rng = np.random.default_rng(100 + n)
    found = 0
    for s in _tables(rng, n):
        flat = s.table.flat()
        w = verify_para_associative(s.table)
        want = first_para_failure(flat, n)
        assert (None if w is None else (w.quintuple, w.outer, w.middle, w.inner)) == want
        for law, oracle in [(right_compose_law, first_right_compose_failure),
                            (left_compose_law, first_left_compose_failure),
                            (lr_commute, first_lr_commute_failure)]:
            w = law(s)
            assert (None if w is None else (w.params, w.point, w.lhs, w.rhs)) == oracle(flat, n)
        act = s.table.entries.tolist()
        w = action_compat_witness(s.table.entries, s)
        want = first_action_failure(act, n, flat, n)
        assert (None if w is None else (w.point, w.quadruple, w.lhs, w.rhs)) == want
        for target in _tables(rng, n)[:3]:
            phi = rng.integers(0, n, size=n) if rng.random() < 0.5 else np.arange(n)
            want = first_hom_failure(phi.tolist(), flat, n, target.table.flat(), n)
            assert homomorphism_witness(phi, s, target) == want
            found += want is not None
    assert n == 1 or found, "no failing hom among the inputs"


def test_random_actions_match_loop_scan():
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        s = functors.heapify(groups.cyclic(n)).semiheap
        for m in range(1, 5):
            a = rng.integers(0, m, size=(m, n, n))
            w = action_compat_witness(a, s)
            want = first_action_failure(a.tolist(), m, s.table.flat(), n)
            assert (None if w is None else (w.point, w.quadruple, w.lhs, w.rhs)) == want


def test_para_associative_memory_stays_bounded_on_z32():
    table = functors.heapify(groups.cyclic(32)).semiheap.table
    tracemalloc.start()
    try:
        assert verify_para_associative(table) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
