import numpy as np
import pytest

from semiheap import functors, groups
from semiheap.actions import translation_action
from semiheap.bundles import heapify_principal, trivial_bundle, trivial_principal_bundle, verify_bundle
from semiheap.core import PointedSemiheap
from semiheap.formats import (
    FormatError,
    parse_act1,
    parse_bnd1,
    parse_grp1,
    parse_hom1,
    parse_shf1,
    parse_shf1_raw,
    write_act1,
    write_bnd1,
    write_grp1,
    write_hom1,
    write_shf1,
)


def test_shf1_round_trip_plain_and_pointed():
    s = functors.heapify(groups.cyclic(3)).semiheap
    assert parse_shf1(write_shf1(s)).key() == s.key()
    ps = PointedSemiheap(s, 2)
    back = parse_shf1(write_shf1(ps))
    assert isinstance(back, PointedSemiheap)
    assert back.basepoint == 2 and back.semiheap.key() == s.key()


def test_shf1_raw_skips_verification():
    table, pt = parse_shf1_raw("semiheap n=2\n0 0 1 1 0 0 1 1\n")
    assert pt is None and table.n == 2


def test_shf1_diagnostics():
    with pytest.raises(FormatError, match="line 2, column 17"):
        parse_shf1("semiheap n=2\n0 1 1 0 1 0 0 1 9\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_shf1("semiheap n=2\n0 1 1 5 1 0 0 1\n")
    with pytest.raises(FormatError, match="unexpected end"):
        parse_shf1("semiheap n=2\n0 1 1\n")
    with pytest.raises(FormatError, match="expected 'semiheap'"):
        parse_shf1("heap n=2\n0 1 1 0 1 0 0 1\n")
    with pytest.raises(FormatError):
        parse_shf1("semiheap n=2 pt=5\n0 1 1 0 1 0 0 1\n")


def test_shf1_comments_and_empty():
    s = parse_shf1("semiheap n=1  # trivial\n0\n")
    assert s.n == 1
    assert parse_shf1("semiheap n=0\n").n == 0


def test_grp1_round_trip_and_identity_check():
    for g in (groups.cyclic(4), groups.quaternion8()):
        back = parse_grp1(write_grp1(g))
        assert np.array_equal(back.mul, g.mul) and back.e == g.e
    with pytest.raises(FormatError, match="identity"):
        parse_grp1("group n=2 e=1\n0 1\n1 0\n")


def test_hom1_round_trip():
    arr, n, m = parse_hom1(write_hom1(np.array([0, 1, 0, 1]), 2))
    assert n == 4 and m == 2 and arr.tolist() == [0, 1, 0, 1]
    with pytest.raises(FormatError):
        parse_hom1("hom n=2 m=2\n0 5\n")


def test_act1_round_trip():
    s = functors.heapify(groups.cyclic(3)).semiheap
    a = translation_action(s)
    back = parse_act1(write_act1(a), s)
    assert np.array_equal(back.table, a.table)
    with pytest.raises(FormatError, match="declares n=3"):
        parse_act1(write_act1(a), functors.heapify(groups.cyclic(2)).semiheap)


def test_bnd1_round_trip_trivial_and_twisted():
    b = trivial_bundle(3, functors.heapify(groups.cyclic(2)).semiheap)
    back = parse_bnd1(write_bnd1(b))
    assert verify_bundle(back) is None
    assert np.array_equal(back.projection, b.projection)
    assert back.charts == b.charts

    twisted = heapify_principal(trivial_principal_bundle(2, groups.cyclic(3)))
    back = parse_bnd1(write_bnd1(twisted))
    assert verify_bundle(back) is None


def test_bnd1_rejects_mismatched_action_header():
    b = trivial_bundle(2, functors.heapify(groups.cyclic(2)).semiheap)
    text = write_bnd1(b).replace("action m=4 n=2", "action m=3 n=2")
    with pytest.raises(FormatError, match="does not match"):
        parse_bnd1(text)


def test_bnd1_action_header_and_deferred_verification():
    b = trivial_bundle(2, functors.heapify(groups.cyclic(2)).semiheap)
    text = write_bnd1(b)
    with pytest.raises(FormatError, match=r"^action header \(4,3\) does not match bundle \(4,2\)$"):
        parse_bnd1(text.replace("action m=4 n=2", "action m=4 n=3"))
    # The embedded action is checked by verify_bundle, not by the parser.
    head, body = text.split("action m=4 n=2\n")
    first, rest = body.split(" ", 1)
    bad = parse_bnd1(f"{head}action m=4 n=2\n{(int(first) + 1) % 4} {rest}")
    assert verify_bundle(bad).axiom == "action-compatibility"


def test_bnd1_trailing_garbage():
    b = trivial_bundle(1, functors.heapify(groups.cyclic(2)).semiheap)
    with pytest.raises(FormatError, match="trailing garbage"):
        parse_bnd1(write_bnd1(b) + "\n7\n")
