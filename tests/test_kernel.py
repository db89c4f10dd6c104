"""The slabbed law checkers against the plain-loop oracles.

Each checker must report the same lexicographically first witness,
values included, as the loop scan in tests/oracles.py, on random tables
and on heaps with one corrupted cell.  Past their first slab the five
n^3-per-row kernels (para-associativity, action compatibility and the
three translation laws) compare each row with the first row of its class
of equal translations; the tables that reach that path are checked
against the loops up to n = 9 and against the row-by-row numpy scans of
tests/oracles.py above, which also hold tables with more than 256
classes that fail early.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import (
    action_row_scan,
    first_action_failure,
    first_hom_failure,
    first_left_compose_failure,
    first_lr_commute_failure,
    first_para_failure,
    first_right_compose_failure,
    law_pair_scan,
    para_pair_scan,
)
from semiheap import functors, groups
from semiheap.actions import action_compat_witness, action_from_hom, trivial_action
from semiheap.core import (
    _SLAB,
    FiniteSemiheap,
    SemiheapHom,
    TernaryTable,
    _narrow,
    _row_classes,
    homomorphism_witness,
    relabel,
    verify_para_associative,
)
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


_LAWS = {"right": (right_compose_law, first_right_compose_failure),
         "left": (left_compose_law, first_left_compose_failure),
         "commute": (lr_commute, first_lr_commute_failure)}


def _assert_law_kernels_match(s, para_oracle, action_oracle, law_oracle):
    """verify_para_associative, action_compat_witness (the table acting on itself) and the three
    translation laws against oracles, values included; returns (para, action, [right, left, commute])."""
    para, act = verify_para_associative(s.table), action_compat_witness(s.table.entries, s)
    assert (None if para is None else (para.quintuple, para.outer, para.middle, para.inner)) == para_oracle(s)
    assert (None if act is None else (act.point, act.quadruple, act.lhs, act.rhs)) == action_oracle(s)
    laws = []
    for name, (law, _) in _LAWS.items():
        laws.append(w := law(s))
        assert (None if w is None else (w.params, w.point, w.lhs, w.rhs)) == law_oracle(s, name), name
    return para, act, laws


def _assert_law_kernels_match_loop_scans(s):
    """The five n^3-per-row kernels against their loop oracles, values included; returns the witnesses."""
    flat, n = s.table.flat(), s.n
    return _assert_law_kernels_match(s, lambda s: first_para_failure(flat, n),
                                     lambda s: first_action_failure(s.table.entries.tolist(), n, flat, n),
                                     lambda s, law: _LAWS[law][1](flat, n))


def _assert_law_kernels_match_pair_scans(s):
    """The five n^3-per-row kernels against the row-by-row numpy scans, values included; returns the witnesses."""
    t = s.table.entries
    return _assert_law_kernels_match(s, lambda s: para_pair_scan(t), lambda s: action_row_scan(t, t),
                                     lambda s, law: law_pair_scan(t, law))


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


def _semiheaps_with_few_classes(n):
    """Para-associative tables on n points that are not heaps: a projection, a semilattice, a
    commutative monoid, a constant and the other projection.  Their left translations fall into at
    most n classes; the last one's right translations, which the right law reads, too."""
    x, y, z = np.indices((n, n, n))
    return [x, np.maximum(np.maximum(x, y), z), x * y * z % n, np.zeros_like(x), z]


def _corrupted(rng, base, count):
    """A random relabeling of a table, then count copies of it with one random cell changed,
    in a row x1 of the upper half, where these tables first read it late."""
    n = len(base)
    t = relabel(TernaryTable(base), rng.permutation(n)).entries
    out = [t]
    for _ in range(count):
        out.append(t.copy())
        cell = int(rng.integers(n // 2, n)), int(rng.integers(0, n)), int(rng.integers(0, n))
        out[-1][cell] = (t[cell] + rng.integers(1, n)) % n
    return [FiniteSemiheap(TernaryTable(c), _certified=True) for c in out]


def _row(witness, n):
    """The row of the scan a witness of one of the five kernels lies in."""
    if hasattr(witness, "quintuple"):
        return witness.quintuple[0] * n + witness.quintuple[1]
    if hasattr(witness, "params"):
        return witness.params[0] * n + witness.params[1]
    return witness.point * n + witness.quadruple[0]


def _late(witnesses, n):
    """Which of the five kernels' witnesses lie past the first slab."""
    para, act, laws = witnesses
    return [w is not None and _row(w, n) >= _SLAB // n ** 3 for w in (para, act, *laws)]


def _early_failing(n):
    """A random table whose pairs (0, x2) all read R_{0,x2} = 3 and [3,y,z] = 3, so that they hold the
    right law; the random pairs after them fall into hundreds of classes of right translations."""
    t = np.random.default_rng(n).integers(0, n, size=(n, n, n))
    t[:, 0, :] = 3
    t[3] = 3
    return FiniteSemiheap(TernaryTable(t), _certified=True)


def test_pair_and_row_scans_match_loop_scans():
    rng = np.random.default_rng(300)
    for n in range(1, 6):
        few = [s for base in _semiheaps_with_few_classes(n) for s in _corrupted(rng, base, 2)] if n > 1 else []
        for s in _tables(rng, n) + few:
            t = s.table.entries
            assert para_pair_scan(t) == first_para_failure(s.table.flat(), n)
            assert action_row_scan(t, t) == first_action_failure(t.tolist(), n, s.table.flat(), n)
            for law, (_, loops) in _LAWS.items():
                assert law_pair_scan(t, law) == loops(s.table.flat(), n), law


@pytest.mark.parametrize("n", [7, 8, 9])
def test_class_path_witnesses_match_loop_scans(n):
    # A heap with one corrupted cell fails in its first row, inside the first
    # slab; these semiheaps are not heaps, so a changed cell is often first
    # read past it.  At n = 9 the kernels compare classes of equal rows
    # there; at n = 7 and 8 the table spans two slabs, which are scanned
    # whole.  At n = 7 the first slab holds 47 of the 49 rows: of these
    # tables only the constant semiheap with a cell (6, b, 5) or (6, b, 6)
    # set to b > 0 fails past it, and no action or translation law does.
    rng = np.random.default_rng(200 + n)
    tables = []
    for base in _semiheaps_with_few_classes(n):
        certified, *corrupted = _corrupted(rng, base, 8)
        assert _assert_law_kernels_match_loop_scans(certified) == (None, None, [None] * 3)
        tables += corrupted
    for b, c in ((1, n - 2), (2, n - 1)):
        t = np.zeros((n, n, n), dtype=np.int64)
        t[n - 1, b, c] = b
        tables.append(FiniteSemiheap(TernaryTable(t), _certified=True))
    late = np.sum([_late(_assert_law_kernels_match_loop_scans(s), n) for s in tables], axis=0).tolist()
    assert late[0] >= (2 if n == 7 else 6) and late[1] >= (0 if n == 7 else 6), late
    assert min(late[2:]) >= (0 if n == 7 else 6), late


@pytest.mark.parametrize("n", [12, 16, 24, 28])
def test_class_path_matches_pair_scans(n):
    # The projection [x,y,z] = x reads row x1 of the table only in the pairs
    # (x1, x2), so its three changed cells are refuted past the first slab;
    # the projection [x,y,z] = z has one class of right translations and
    # refutes the right law past it too.
    rng = np.random.default_rng(400 + n)
    heap = functors.heapify(groups.cyclic(n)).semiheap.table.entries
    tables = [FiniteSemiheap(relabel(TernaryTable(heap), rng.permutation(n)), _certified=True)]
    tables += [s for base in _semiheaps_with_few_classes(n) for s in _corrupted(rng, base, 3)]
    assert _assert_law_kernels_match_pair_scans(tables[0]) == (None, None, [None] * 3)
    late = np.sum([_late(_assert_law_kernels_match_pair_scans(s), n) for s in tables[1:]], axis=0).tolist()
    assert late[0] >= 3 and min(late[2:]) >= 3, late


@pytest.mark.parametrize("n, zero_rows", [(17, 1), (27, 10)])
def test_more_than_256_classes_match_pair_scans(n, zero_rows):
    # Every pair (x1, x2) with x1 < zero_rows reads only the zero rows, so it
    # passes; the random rows after them are more than 256 classes of
    # left translations, whose ids are uint16.
    t = np.random.default_rng(n).integers(0, n, size=(n, n, n))
    t[:zero_rows] = 0
    k = len(_row_classes(_narrow(t.reshape(n * n, n), n))[1])
    assert k > 256 and _narrow(np.arange(k), k).dtype == np.uint16
    para, act, _ = _assert_law_kernels_match_pair_scans(FiniteSemiheap(TernaryTable(t), _certified=True))
    assert para.quintuple[0] == zero_rows and act.point >= zero_rows


@pytest.mark.parametrize("n, classes", [(17, 273), (32, 993)])
def test_many_classes_failing_early_match_pair_scans(n, classes):
    # The right law holds in the pairs (0, x2) and first fails at (1, 0),
    # past the first slab; its class ids are uint16.
    s = _early_failing(n)
    k = len(_row_classes(_narrow(s.table.entries.transpose(1, 2, 0).reshape(n * n, n), n))[1])
    assert k == classes and _narrow(np.arange(k), k).dtype == np.uint16
    _, _, (right, _, _) = _assert_law_kernels_match_pair_scans(s)
    assert right.params[:2] == (1, 0) and _row(right, n) >= _SLAB // n ** 3


def test_row_classes_number_equal_rows_in_sorted_order():
    rows = np.array([[2, 0], [1, 1], [2, 0], [0, 2], [1, 1]], dtype=np.uint8)
    distinct, first, ids = _row_classes(rows)
    assert first.tolist() == [3, 1, 0] and ids.tolist() == [2, 1, 2, 0, 1]
    assert [bytes(v) for v in distinct] == [bytes([0, 2]), bytes([1, 1]), bytes([2, 0])]


def test_actions_with_repeated_rows_match_loop_scan():
    # m != n, and the rows (p, x1) repeat: every row of a point of a trivial
    # action is the same constant map, and an action through Z12 -> Z4 reads
    # x1 only mod 4.  A cell changed at a point p of the trivial action is
    # first read in row (p, 0), past the first slab.
    z8, z12 = (functors.heapify(groups.cyclic(k)).semiheap for k in (8, 12))
    z4 = functors.heapify(groups.cyclic(4)).semiheap
    rng = np.random.default_rng(500)
    mod4 = SemiheapHom(z12, z4, np.arange(12) % 4)
    for s, a in ((z8, trivial_action(12, z8).table), (z12, action_from_hom(mod4).table)):
        m, n = a.shape[:2]
        assert m * n > _SLAB // n ** 3 and len(_row_classes(_narrow(a.reshape(m * n, n), m))[1]) < m * n
        assert action_compat_witness(a, s) is None
        for point in (m - 1, m // 2, int(rng.integers(1, m))):
            bad = a.copy()
            bad[point, int(rng.integers(0, n)), int(rng.integers(0, n))] = (point + 1) % m
            w = action_compat_witness(bad, s)
            assert (w.point, w.quadruple, w.lhs, w.rhs) == first_action_failure(bad.tolist(), m, s.table.flat(), n)
            assert s is z12 or (w.point, w.quadruple[0]) == (point, 0)


def test_para_associative_memory_stays_bounded_on_z32():
    # The five kernels on heapified Z32, which they certify, and on a table
    # with 993 classes of right translations, which they refute: nothing
    # n^5 or (classes * n^3) in size is built.
    z32 = functors.heapify(groups.cyclic(32)).semiheap
    for s in (z32, _early_failing(32)):
        for kernel in (lambda s: verify_para_associative(s.table), lambda s: action_compat_witness(s.table.entries, s),
                       right_compose_law, left_compose_law, lr_commute):
            tracemalloc.start()
            try:
                witness = kernel(s)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (witness is None) == (s is z32) and peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
