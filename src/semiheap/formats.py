"""Line-oriented text formats for the finite structures.

SHF1   semiheap n=<n> [pt=<idx>]     then n^3 integers, (i,j,k) row-major
GRP1   group n=<n> e=<idx>           then n^2 integers, row-major
HOM1   hom n=<n> m=<m>               then n integers
ACT1   action m=<m> n=<n>            then m*n^2 integers, (point,x,y) row-major
BND1   bundle p=<P> m=<M>            sectioned; see parse_bnd1

Parsers reject trailing garbage and out-of-range entries and report
1-based line/column positions in the error message.
"""

import bisect

import numpy as np

from .core import FiniteSemiheap, FormatError, PointedSemiheap, TernaryTable, _unpointed


class _Tokens:
    """Whitespace tokenizer over one flat word list; a token's line and column are found only for an error."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.words, self.ends, self.pos = [], [0], 0     # ends[i]: the number of tokens on lines 1..i
        for raw in self.lines:
            self.words += raw.split("#", 1)[0].split()
            self.ends.append(len(self.words))

    def error(self, message):
        """A FormatError at the 1-based line and column of the token just taken."""
        index = self.pos - 1
        ln = bisect.bisect_right(self.ends, index)
        line, col = self.lines[ln - 1].split("#", 1)[0], 0
        for tok in line.split()[:index - self.ends[ln - 1] + 1]:
            col = line.index(tok, col) + len(tok)
        return FormatError(message, ln, col - len(tok) + 1)

    def take(self, what="token"):
        if self.pos >= len(self.words):
            raise FormatError(f"unexpected end of input, expected {what}")
        self.pos += 1
        return self.words[self.pos - 1]

    def take_int(self, what, low=None, high=None):
        tok = self.take(what)
        try:
            v = int(tok)
        except ValueError:
            raise self.error(f"expected integer {what}, got {tok!r}") from None
        if low is not None and v < low or high is not None and v >= high:
            raise self.error(f"{what} {v} out of range")
        return v

    def take_keyword(self, keyword):
        tok = self.take(keyword)
        if tok != keyword:
            raise self.error(f"expected {keyword!r}, got {tok!r}")

    def take_field(self, name, low=None, high=2 ** 63):     # a header value must fit the int64 arrays it bounds
        tok = self.take(f"{name}=<int>")
        if not tok.startswith(name + "="):
            raise self.error(f"expected {name}=<int>, got {tok!r}")
        try:
            v = int(tok[len(name) + 1:])
        except ValueError:
            raise self.error(f"bad integer in {tok!r}") from None
        if low is not None and v < low or high is not None and v >= high:
            raise self.error(f"{name}={v} out of range")
        return v

    def peek_field(self, name):
        return self.pos < len(self.words) and self.words[self.pos].startswith(name + "=")

    def done(self):
        if self.pos < len(self.words):
            raise self.error(f"trailing garbage {self.take()!r}")


def _take_ints(toks, count, what, high):
    """The next count tokens as one int64 array, converted by int() and range-checked to 0..high-1 at once."""
    words = toks.words[toks.pos:toks.pos + count]
    try:
        arr = np.array(list(map(int, words)), dtype=np.int64)
        if len(words) == count and ((arr >= 0) & (arr < high)).all():
            toks.pos += count
            return arr
    except (ValueError, OverflowError):
        pass
    # A bad slice: take_int raises at its first bad token, and only that token's position is computed.
    return np.array([toks.take_int(what, 0, high) for _ in range(count)], dtype=np.int64)


def parse_shf1(text):
    """Parse SHF1; returns FiniteSemiheap or PointedSemiheap (if pt= present).

    The whole text is read (FormatError) before the table is verified
    (LawError, with verify_para_associative's witness).
    """
    toks = _Tokens(text)
    table, pt = _take_shf1(toks)
    toks.done()
    s = FiniteSemiheap(table)
    return s if pt is None else PointedSemiheap(s, pt)


def _take_shf1(toks):
    """An SHF1 header and table, unverified: (TernaryTable, basepoint or None)."""
    toks.take_keyword("semiheap")
    n = toks.take_field("n", low=0)
    pt = toks.take_field("pt", low=0, high=n) if toks.peek_field("pt") else None
    return TernaryTable(_take_ints(toks, n ** 3, "table entry", n).reshape(n, n, n)), pt


def write_shf1(s):
    inner = _unpointed(s)
    head = f"semiheap n={inner.n}" + (f" pt={s.basepoint}" if inner is not s else "")
    return head + "\n" + _int_block(inner.table.entries.reshape(-1), inner.n * inner.n)


def parse_grp1(text):
    toks = _Tokens(text)
    toks.take_keyword("group")
    n = toks.take_field("n", low=1)
    e = toks.take_field("e", low=0, high=n)
    mul = _take_ints(toks, n * n, "Cayley entry", n).reshape(n, n)
    toks.done()
    return _group_with_identity(mul, e)


def _group_with_identity(mul, e):
    from .groups import FiniteGroup
    g = FiniteGroup.from_mul(mul)
    if g.e != e:
        raise FormatError(f"declared identity {e} but table identity is {g.e}")
    return g


def write_grp1(g):
    return f"group n={g.n} e={g.e}\n" + _int_block(g.mul.reshape(-1), g.n)


def parse_hom1(text):
    """Parse HOM1 into a bare index array (n values below m)."""
    toks = _Tokens(text)
    toks.take_keyword("hom")
    n = toks.take_field("n", low=0)
    m = toks.take_field("m", low=0)
    arr = _take_ints(toks, n, "hom entry", m)
    toks.done()
    return arr, n, m


def write_hom1(mapping, m):
    arr = np.asarray(mapping, dtype=np.int64)
    return f"hom n={arr.shape[0]} m={m}\n" + _int_block(arr, 16)


def parse_act1(text, semiheap):
    """Parse ACT1 against a given structure semiheap; the whole text is read before the action is verified."""
    from .actions import FiniteAction
    toks = _Tokens(text)
    table = _take_act1(toks, semiheap.n)
    toks.done()
    return FiniteAction(semiheap, table)


def _take_act1(toks, n, bundle_size=None):
    """An ACT1 block's (m, n, n) table, unverified, for a structure semiheap on n points; bundle_size fixes m."""
    toks.take_keyword("action")
    m, declared = toks.take_field("m", low=0), toks.take_field("n", low=0)
    if bundle_size is not None and (m, declared) != (bundle_size, n):
        raise FormatError(f"action header ({m},{declared}) does not match bundle ({bundle_size},{n})")
    if declared != n:
        raise FormatError(f"action declares n={declared} but the semiheap has {n} elements")
    return _take_ints(toks, m * n * n, "action entry", m).reshape(m, n, n)


def write_act1(action):
    m, n = action.space_size, action.semiheap.n
    return f"action m={m} n={n}\n" + _int_block(action.table.reshape(-1), n * n)


def parse_bnd1(text):
    """Parse BND1 into a DiscreteSemiheapBundle.

    Layout:
        bundle p=<P> m=<M>
        projection      P integers
        structure       embedded SHF1
        action          embedded ACT1 with m=P
        cover k=<K>
        then per chart:
            chart size=<c>
            c base indices
            pairs       one "<p> <s>" pair per total point over the chart
    """
    from .actions import FiniteAction
    from .bundles import DiscreteSemiheapBundle
    toks = _Tokens(text)
    toks.take_keyword("bundle")
    total, base = toks.take_field("p", low=0), toks.take_field("m", low=0)
    toks.take_keyword("projection")
    proj = _take_ints(toks, total, "projection entry", base)
    fiber_sizes = np.bincount(proj, minlength=base)      # a chart's pairs: one per point over its base points
    toks.take_keyword("structure")
    table = _take_shf1(toks)[0]       # a basepoint in the header is dropped
    act = _take_act1(toks, table.n, bundle_size=total)
    toks.take_keyword("cover")
    cover, charts = [], []
    for _ in range(toks.take_field("k", low=0)):
        toks.take_keyword("chart")
        u = frozenset(int(v) for v in _take_ints(toks, toks.take_field("size", low=0), "base index", base))
        toks.take_keyword("pairs")
        chart = {}
        for _ in range(int(fiber_sizes[list(u)].sum())):
            p = toks.take_int("total point", 0, total)
            chart[p] = (int(proj[p]), toks.take_int("fiber label", 0, table.n))
        cover.append(u)
        charts.append(chart)
    toks.done()
    s = FiniteSemiheap(table)       # verify_bundle checks the action
    return DiscreteSemiheapBundle(base, proj, s, FiniteAction(s, act, verify=False), tuple(cover), tuple(charts))


def write_bnd1(b):
    lines = [f"bundle p={b.total_size} m={b.base_size}", "projection",
             _int_block(b.projection, 16).rstrip("\n"), "structure",
             write_shf1(b.structure).rstrip("\n"),
             write_act1(b.action).rstrip("\n"), f"cover k={len(b.cover)}"]
    for u, chart in zip(b.cover, b.charts):
        members = sorted(u)
        lines.append(f"chart size={len(members)}")
        lines.append(" ".join(str(m) for m in members) if members else "")
        lines.append("pairs")
        for p in sorted(chart):
            lines.append(f"{p} {chart[p][1]}")
    return "\n".join(line for line in lines if line != "") + "\n"


def _int_block(values, per_line):
    vals = list(map(str, values.tolist()))
    if not vals:
        return ""
    lines = [" ".join(vals[i:i + per_line]) for i in range(0, len(vals), per_line)]
    return "\n".join(lines) + "\n"
