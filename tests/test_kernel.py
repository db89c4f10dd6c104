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
from semiheap.core import _SLAB, FiniteSemiheap, TernaryTable, _narrow, homomorphism_witness, verify_para_associative
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


def _assert_law_kernels_match_loop_scans(s):
    """The five n^3-per-row kernels against their loop oracles, values included; returns the witnesses."""
    n, flat = s.n, s.table.flat()
    para = verify_para_associative(s.table)
    want = first_para_failure(flat, n)
    assert (None if para is None else (para.quintuple, para.outer, para.middle, para.inner)) == want
    laws = []
    for law, oracle in [(right_compose_law, first_right_compose_failure),
                        (left_compose_law, first_left_compose_failure),
                        (lr_commute, first_lr_commute_failure)]:
        laws.append(w := law(s))
        assert (None if w is None else (w.params, w.point, w.lhs, w.rhs)) == oracle(flat, n)
    act = action_compat_witness(s.table.entries, s)
    want = first_action_failure(s.table.entries.tolist(), n, flat, n)
    assert (None if act is None else (act.point, act.quadruple, act.lhs, act.rhs)) == want
    return para, act, laws


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_first_witnesses_match_loop_scans(n):
    rng = np.random.default_rng(100 + n)
    found = 0
    for s in _tables(rng, n):
        _assert_law_kernels_match_loop_scans(s)
        flat = s.table.flat()
        for target in _tables(rng, n)[:3]:
            phi = rng.integers(0, n, size=n) if rng.random() < 0.5 else np.arange(n)
            want = first_hom_failure(phi.tolist(), flat, n, target.table.flat(), n)
            assert homomorphism_witness(phi, s, target) == want
            found += want is not None
    assert n == 1 or found, "no failing hom among the inputs"


@pytest.mark.parametrize("n, cell, value", [(8, (4, 5, 2), 2), (21, (1, 1, 2), 2)])
def test_witnesses_past_the_first_slab_match_loop_scans(n, cell, value):
    # Every row of a heap reads every cell, so a heap with one corrupted cell
    # fails in its first row.  The constant semiheap [x,y,z] = 0 reads a
    # corrupted cell (a, b, c) only from x1 = a on.  A slab holds 32 of the
    # 64 rows at n = 8, and one row at n = 21, where 2 n^3 > _SLAB.
    t = np.zeros((n, n, n), dtype=np.int64)
    t[cell] = value
    para, act, laws = _assert_law_kernels_match_loop_scans(FiniteSemiheap(TernaryTable(t), _certified=True))
    rows = [para.quintuple[0] * n + para.quintuple[1], act.point * n + act.quadruple[0]]
    rows += [w.params[0] * n + w.params[1] for w in laws]
    step = max(1, _SLAB // n ** 3)              # rows per slab
    assert all(step <= row < step + 2 * n for row in rows), rows


def test_random_actions_match_loop_scan():
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        s = functors.heapify(groups.cyclic(n)).semiheap
        for m in range(1, 5):
            a = rng.integers(0, m, size=(m, n, n))
            w = action_compat_witness(a, s)
            want = first_action_failure(a.tolist(), m, s.table.flat(), n)
            assert (None if w is None else (w.point, w.quadruple, w.lhs, w.rhs)) == want


def test_actions_past_the_uint8_values_match_loop_scan():
    # Action values gather as uint8 for m <= 256 points, as uint16 up to 65,536 and as uint32 above.
    s = functors.heapify(groups.cyclic(3)).semiheap
    assert _narrow(np.arange(256), 256).dtype == np.uint8 and _narrow(np.arange(257), 257).dtype == np.uint16
    for m, point, value in [(300, None, None), (300, 280, 299), (256, 1, 255), (257, 1, 256)]:
        a = np.broadcast_to(np.arange(m)[:, None, None], (m, 3, 3)).copy()     # the trivial action
        if point is not None:
            a[point, 1, 2] = value
        w = action_compat_witness(a, s)
        want = first_action_failure(a.tolist(), m, s.table.flat(), 3)
        assert (None if w is None else (w.point, w.quadruple, w.lhs, w.rhs)) == want
    assert want is not None and want[2] == 256
    a = np.arange(65537)[:, None, None].copy()  # past uint16: point 1 -> 65536 -> 0 on heap(Z1)
    a[1], a[65536] = 65536, 0
    z1 = functors.heapify(groups.cyclic(1)).semiheap
    w = action_compat_witness(a, z1)
    assert (w.point, w.quadruple, w.lhs, w.rhs) == first_action_failure(a.tolist(), 65537, z1.table.flat(), 1)


def test_para_associative_memory_stays_bounded_on_z32():
    table = functors.heapify(groups.cyclic(32)).semiheap.table
    tracemalloc.start()
    try:
        assert verify_para_associative(table) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
