import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from oracles import entry_values, int_lines, token_positions

from semiheap import functors, groups
from semiheap.actions import translation_action
from semiheap.bundles import (
    FinitePrincipalBundle,
    heapify_principal,
    trivial_bundle,
    trivial_principal_bundle,
    verify_bundle,
)
from semiheap.core import LawError, PointedSemiheap, TernaryTable, verify_para_associative
from semiheap.formats import (
    FormatError,
    parse_act1,
    parse_bnd1,
    parse_grp1,
    parse_hom1,
    parse_shf1,
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


def test_shf1_refuses_every_non_para_associative_two_point_table_with_the_verifier_witness():
    failing = 0
    for cells in itertools.product(range(2), repeat=8):
        table = TernaryTable.from_flat(2, cells)
        witness = verify_para_associative(table)
        for head in ("semiheap n=2", "semiheap n=2 pt=1"):
            text = f"{head}\n{' '.join(map(str, cells))}\n"
            if witness is None:
                assert parse_shf1(text).table.key() == table.key()
                continue
            with pytest.raises(LawError) as info:
                parse_shf1(text)
            assert info.value.witness == witness
        failing += witness is not None
    assert failing == 256 - 8          # the 2-point census counts 8 semiheaps


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
    with pytest.raises(FormatError, match="trailing garbage '9'"):      # read whole before its table is verified
        parse_shf1("semiheap n=2\n0 0 1 1 0 0 1 1 9\n")


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


def test_act1_and_bnd1_read_the_whole_text_before_verifying():
    """Trailing garbage is a FormatError even where the embedded structure or the action breaks a law."""
    b = trivial_bundle(2, functors.heapify(groups.cyclic(2)).semiheap)
    bad = write_bnd1(b).replace("semiheap n=2\n0 1 1 0\n1 0 0 1\n", "semiheap n=2\n0 1 1 1 1 1 1 0\n")
    with pytest.raises(LawError):
        parse_bnd1(bad)
    with pytest.raises(FormatError, match="trailing garbage '7'"):
        parse_bnd1(bad + "7\n")
    s = functors.heapify(groups.cyclic(3)).semiheap
    head, body = write_act1(translation_action(s)).split("\n", 1)
    bad = f"{head}\n{(int(body[0]) + 1) % 3}{body[1:]}"
    with pytest.raises(LawError):
        parse_act1(bad, s)
    with pytest.raises(FormatError, match="trailing garbage '7'"):
        parse_act1(bad + "7\n", s)


def test_bnd1_trailing_garbage():
    b = trivial_bundle(1, functors.heapify(groups.cyclic(2)).semiheap)
    with pytest.raises(FormatError, match="trailing garbage"):
        parse_bnd1(write_bnd1(b) + "\n7\n")


def _twisted_bundle(g, base):
    """A heapified principal bundle over base points, covered by a trivial chart and a twisted one."""
    n, total = g.n, base * g.n
    proj, x = np.divmod(np.arange(total), n)
    twist = [(3 * m + 1) % n for m in range(base)]
    plain = {p: (p // n, p % n) for p in range(total)}
    twisted = {p: (p // n, int(g.mul[twist[p // n], p % n])) for p in range(total)}
    pb = FinitePrincipalBundle(g, base, proj, proj[:, None] * n + g.mul[x],
                               (frozenset(range(base)),) * 2, (plain, twisted))
    return heapify_principal(pb)


def _entry_slots(fmt, words):
    """(token index, what, high) of every integer entry of a valid text, read from its layout."""
    head = {k: int(v) for k, v in (w.split("=") for w in words[1:3])}   # SHF1 texts here are pointed
    if fmt == "SHF1":
        return [(3 + k, "table entry", head["n"]) for k in range(head["n"] ** 3)]
    if fmt == "GRP1":
        return [(3 + k, "Cayley entry", head["n"]) for k in range(head["n"] ** 2)]
    if fmt == "HOM1":
        return [(3 + k, "hom entry", head["m"]) for k in range(head["n"])]
    if fmt == "ACT1":
        return [(3 + k, "action entry", head["m"]) for k in range(head["m"] * head["n"] ** 2)]
    total, base, at = head["p"], head["m"], words.index
    s = at("structure") + 1                  # semiheap n=<n> [pt=<idx>], then the table
    n, skip = int(words[s + 1][2:]), 3 if words[s + 2].startswith("pt=") else 2
    slots = [(at("projection") + 1 + k, "projection entry", base) for k in range(total)]
    slots += [(s + skip + k, "table entry", n) for k in range(n ** 3)]
    slots += [(at("action") + 3 + k, "action entry", total) for k in range(total * n * n)]
    c = at("chart") + 1                      # size=<c>, then the chart's base points
    slots += [(c + 1 + k, "base index", base) for k in range(int(words[c][5:]))]
    slots += [(at("pairs") + 1 + k, ("total point", "fiber label")[k % 2], (total, n)[k % 2])
              for k in range(2 * total)]
    return slots


def _texts():
    """(parse, valid text) per format, with repeated values on every line."""
    z12, s3 = functors.heapify(groups.cyclic(12)), functors.heapify(groups.symmetric3()).semiheap
    return {"SHF1": (parse_shf1, write_shf1(z12)),
            "GRP1": (parse_grp1, write_grp1(groups.cyclic(12))),
            "HOM1": (parse_hom1, write_hom1(np.array([0, 11, 1, 11, 11, 1, 0, 10, 1, 11, 1, 1]), 12)),
            "ACT1": (lambda text: parse_act1(text, s3), write_act1(translation_action(s3))),
            "BND1": (parse_bnd1, write_bnd1(_twisted_bundle(groups.cyclic(4), 3)))}


def _messy(tokens, seed):
    """tokens laid out with tabs, '#' comments, blank lines and CRLF line ends, many to a line."""
    rng = random.Random(seed)
    out = ["# written for a test\r\n", "\r\n"]
    for tok in tokens:
        out += [tok, rng.choice((" ", "\t", "  ", " \t ")) if rng.random() > 0.05 else
                rng.choice(("\r\n", "\n", "  # 1 11 x\r\n", "\r\n\r\n", "\t#\r\n"))]
    return "".join(out)


def _raises_at(parse, text, message, line, col):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert (str(info.value), info.value.line, info.value.col) == (message, line, col)


@pytest.mark.parametrize("fmt", ["SHF1", "GRP1", "HOM1", "ACT1", "BND1"])
def test_errors_name_the_first_bad_token_where_the_eager_oracle_puts_it(fmt):
    parse, text = _texts()[fmt]
    tokens = [tok for tok, _, _ in token_positions(text)]
    parse(_messy(tokens, 0))
    slots = _entry_slots(fmt, tokens)
    picks = {0, len(slots) // 2, len(slots) - 1, *random.Random(fmt).sample(range(len(slots)), 3)}
    for index, what, high in (slots[k] for k in sorted(picks)):
        for bad, message in (("x", f"expected integer {what}, got 'x'"), ("-1", f"{what} -1 out of range"),
                             (str(high), f"{what} {high} out of range"),
                             (str(10 ** 30), f"{what} {10 ** 30} out of range")):
            planted = _messy(tokens[:index] + [bad] + tokens[index + 1:], index)
            tok, line, col = token_positions(planted)[index]
            assert tok == bad
            _raises_at(parse, planted, f"{message} at line {line}, column {col}", line, col)
        _raises_at(parse, _messy(tokens[:index], index), f"unexpected end of input, expected {what}", None, None)
    garbage = _messy(tokens + ["7"], len(tokens))
    _, line, col = token_positions(garbage)[-1]
    _raises_at(parse, garbage, f"trailing garbage '7' at line {line}, column {col}", line, col)


def _parsed_entries(fmt, parsed):
    """The integer entries of a parse result in the order of _entry_slots (of BND1, through its first chart)."""
    if fmt == "SHF1":
        return parsed.semiheap.table.entries.reshape(-1).tolist()
    if fmt == "GRP1":
        return parsed.mul.reshape(-1).tolist()
    if fmt == "HOM1":
        return parsed[0].tolist()
    if fmt == "ACT1":
        return parsed.table.reshape(-1).tolist()
    pairs = [v for p, (_, label) in parsed.charts[0].items() for v in (p, label)]
    return [*parsed.projection.tolist(), *parsed.structure.table.entries.reshape(-1).tolist(),
            *parsed.action.table.reshape(-1).tolist(), *sorted(parsed.cover[0]), *pairs]


def _spellings(value):
    """Tokens that int() reads as value and that are not plain ASCII decimals."""
    digits = str(value)
    out = [digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),       # Arabic-Indic digits
           digits.translate(str.maketrans("0123456789", "𝟎𝟏𝟐𝟑𝟒𝟓𝟔𝟕𝟖𝟗")),       # mathematical bold digits
           "+" + digits, "0" + digits]
    return out + ["-0"] * (value == 0) + [digits[0] + "_" + digits[1:]] * (value >= 10)


def _edgy(tokens, seed):
    """tokens separated by CRLF, form feeds, \\x1c, U+2028 and '#' comments, some written right after a token."""
    rng = random.Random(seed)
    out = ["# edge separators\r\n"]
    for tok in tokens:
        out += [tok, rng.choice((" ", "\t", "\r\n", "\x0c", "\x1c", "\u2028", "#c 1\r\n", " # x\x0c", "#\u2028"))]
    return "".join(out)


def test_entries_are_read_as_int_reads_them_one_token_at_a_time():
    """Every entry spelling int() takes parses to the eager oracle's value; every one it refuses fails where it does."""
    used = set()
    for fmt, (parse, text) in _texts().items():
        tokens = [tok for tok, _, _ in token_positions(text)]
        slots = _entry_slots(fmt, tokens)
        for k, (index, _, _) in enumerate(slots[::2]):
            spellings = _spellings(int(tokens[index]))
            tokens[index] = spellings[k % len(spellings)]
            used.add(tokens[index])
        edgy = _edgy(tokens, 0)
        assert _parsed_entries(fmt, parse(edgy)) == entry_values(edgy, slots) == _parsed_entries(fmt, parse(text))
        picks = {0, 1, len(slots) // 2, len(slots) - 1, *random.Random(fmt).sample(range(len(slots)), 3)}
        for bad in ("5.0", "0x10", "−1", "1__0", str(2 ** 63)):
            for index in sorted(slots[k][0] for k in picks):
                planted = _edgy(tokens[:index] + [bad] + tokens[index + 1:], index)
                with pytest.raises(FormatError) as want:
                    entry_values(planted, slots)
                _raises_at(parse, planted, str(want.value), want.value.line, want.value.col)
    assert {"٣", "𝟑", "1_0", "+1", "00", "-0"} <= used


def test_the_int_writer_is_bounded_by_the_value_count():
    image, m = np.array([0, 10 ** 12, 7]), 10 ** 12 + 1
    tracemalloc.start()
    try:
        text = write_hom1(image, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _lines(f"hom n=3 m={m}", *int_lines(image, 16)) and peak < 2 ** 20


def test_a_bad_last_entry_of_a_one_line_body_is_found_in_linear_time():
    n = 40
    body = [str((i + k) % n) for i in range(n * n) for k in range(n)]     # 64,000 entries
    for bad, message in (("x", "expected integer table entry, got 'x'"), (str(n), f"table entry {n} out of range")):
        line = " ".join(body[:-1] + [bad])
        col = len(line) - len(bad) + 1
        start = time.perf_counter()
        _raises_at(parse_shf1, f"semiheap n={n}\n{line}\n", f"{message} at line 2, column {col}", 2, col)
        assert time.perf_counter() - start < 1.0


def _lines(*lines):
    return "\n".join(lines) + "\n"


def test_bnd1_charts_are_counted_from_the_fiber_sizes():
    # 2,000 empty charts over a 20,000-point total space: each chart's pair count comes from the fiber
    # sizes of its base points, read once, where a scan of every total point per chart took seconds.
    text = _lines("bundle p=20000 m=1", "projection", " ".join(["0"] * 20000), "structure", "semiheap n=1", "0",
                  "action m=20000 n=1", " ".join(map(str, range(20000))), "cover k=2000",
                  *["chart size=0", "pairs"] * 2000)
    start = time.perf_counter()
    b = parse_bnd1(text)
    assert time.perf_counter() - start < 2.0
    assert b.total_size == 20000 and b.cover == (frozenset(),) * 2000 and b.charts == ({},) * 2000


def _bnd1_lines(b):
    """The lines write_bnd1 lays out for b, every integer written one value at a time."""
    n, total = b.structure.n, b.total_size
    lines = [f"bundle p={total} m={b.base_size}", "projection", *int_lines(b.projection, 16),
             "structure", f"semiheap n={n}", *int_lines(b.structure.table.entries.reshape(-1), n * n),
             f"action m={total} n={n}", *int_lines(b.action.table.reshape(-1), n * n), f"cover k={len(b.cover)}"]
    for u, chart in zip(b.cover, b.charts):
        lines += [f"chart size={len(u)}", " ".join(map(str, sorted(u))), "pairs"]
        lines += int_lines([v for p in sorted(chart) for v in (p, chart[p][1])], 2)
    return lines


def test_writers_match_value_by_value_rendering(heap_corpus):
    for g, heap in heap_corpus:
        n, entries = g.n, heap.semiheap.table.entries.reshape(-1)
        assert write_grp1(g) == _lines(f"group n={n} e={g.e}", *int_lines(g.mul.reshape(-1), n))
        assert write_shf1(heap) == _lines(f"semiheap n={n} pt={heap.basepoint}", *int_lines(entries, n * n))
        assert write_shf1(heap.semiheap) == _lines(f"semiheap n={n}", *int_lines(entries, n * n))
        assert write_hom1(g.inv, n) == _lines(f"hom n={n} m={n}", *int_lines(g.inv, 16))
        action = translation_action(heap.semiheap)
        assert write_act1(action) == _lines(f"action m={n} n={n}", *int_lines(action.table.reshape(-1), n * n))
    for g, base in ((groups.cyclic(4), 3), (groups.symmetric3(), 2), (groups.quaternion8(), 2), (groups.dihedral4(), 3)):
        b = _twisted_bundle(g, base)
        assert write_bnd1(b) == _lines(*_bnd1_lines(b))
    assert write_shf1(parse_shf1("semiheap n=0\n")) == "semiheap n=0\n"


def test_integers_beyond_int64_are_malformed_input():
    big, huge, top = 10 ** 29, 2 ** 64, 2 ** 63 - 1
    _raises_at(parse_hom1, f"hom n=1 m={big}\n{huge}\n", f"m={big} out of range at line 1, column 9", 1, 9)
    _raises_at(parse_hom1, f"hom n=1 m={top}\n{huge}\n", f"hom entry {huge} out of range at line 2, column 1", 2, 1)
    assert parse_hom1(f"hom n=1 m={top}\n5\n")[2] == top
    _raises_at(parse_bnd1, f"bundle p=1 m={big}\nprojection\n{huge}\n",
               f"m={big} out of range at line 1, column 12", 1, 12)
    _raises_at(parse_bnd1, f"bundle p=1 m={top}\nprojection\n{huge}\n",
               f"projection entry {huge} out of range at line 3, column 1", 3, 1)
