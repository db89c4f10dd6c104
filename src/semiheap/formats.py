"""Line-oriented text formats for the finite structures.

SHF1   semiheap n=<n> [pt=<idx>]     then n^3 integers, (i,j,k) row-major
GRP1   group n=<n> e=<idx>           then n^2 integers, row-major
HOM1   hom n=<n> m=<m>               then n integers
ACT1   action m=<m> n=<n>            then m*n^2 integers, (point,x,y) row-major
BND1   bundle p=<P> m=<M>            sectioned; see parse_bnd1

Parsers reject trailing garbage and out-of-range entries and report
1-based line/column positions in the error message.
"""

import numpy as np

from .actions import FiniteAction
from .bundles import DiscreteSemiheapBundle
from .core import FiniteSemiheap, PointedSemiheap, TernaryTable
from .groups import FiniteGroup


class FormatError(ValueError):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)
        self.line = line
        self.col = col


class _Tokens:
    """Whitespace tokenizer that remembers line/column positions."""

    def __init__(self, text):
        self.items = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            col = 0
            for tok in line.split():
                col = line.index(tok, col)
                self.items.append((tok, ln, col + 1))
                col += len(tok)
        self.pos = 0

    def take(self, what="token"):
        if self.pos >= len(self.items):
            raise FormatError(f"unexpected end of input, expected {what}")
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def take_int(self, what, low=None, high=None):
        tok, ln, col = self.take(what)
        try:
            v = int(tok)
        except ValueError:
            raise FormatError(f"expected integer {what}, got {tok!r}", ln, col) from None
        if low is not None and v < low or high is not None and v >= high:
            raise FormatError(f"{what} {v} out of range", ln, col)
        return v

    def take_keyword(self, keyword):
        tok, ln, col = self.take(keyword)
        if tok != keyword:
            raise FormatError(f"expected {keyword!r}, got {tok!r}", ln, col)

    def take_field(self, name, low=None, high=None):
        tok, ln, col = self.take(f"{name}=<int>")
        if not tok.startswith(name + "="):
            raise FormatError(f"expected {name}=<int>, got {tok!r}", ln, col)
        try:
            v = int(tok[len(name) + 1:])
        except ValueError:
            raise FormatError(f"bad integer in {tok!r}", ln, col) from None
        if low is not None and v < low or high is not None and v >= high:
            raise FormatError(f"{name}={v} out of range", ln, col)
        return v

    def peek_field(self, name):
        if self.pos < len(self.items) and self.items[self.pos][0].startswith(name + "="):
            return True
        return False

    def done(self):
        if self.pos < len(self.items):
            tok, ln, col = self.items[self.pos]
            raise FormatError(f"trailing garbage {tok!r}", ln, col)


def _take_ints(toks, count, what, high):
    return np.array([toks.take_int(what, 0, high) for _ in range(count)], dtype=np.int64)


def parse_shf1(text):
    """Parse SHF1; returns FiniteSemiheap or PointedSemiheap (if pt= present)."""
    toks = _Tokens(text)
    s = _parse_shf1_body(toks)
    toks.done()
    return s


def parse_shf1_raw(text):
    """Parse SHF1 without running the law verifier.

    Returns (TernaryTable, basepoint or None); lets callers own the
    verification step and report witnesses themselves.
    """
    toks = _Tokens(text)
    table, pt = _parse_shf1_table(toks)
    toks.done()
    return table, pt


def _parse_shf1_table(toks):
    toks.take_keyword("semiheap")
    n = toks.take_field("n", low=0)
    pt = toks.take_field("pt", low=0, high=n) if toks.peek_field("pt") else None
    entries = _take_ints(toks, n ** 3, "table entry", n)
    return TernaryTable(entries.reshape(n, n, n)), pt


def _parse_shf1_body(toks):
    table, pt = _parse_shf1_table(toks)
    s = FiniteSemiheap(table)
    return PointedSemiheap(s, pt) if pt is not None else s


def write_shf1(s):
    pointed = isinstance(s, PointedSemiheap)
    inner = s.semiheap if pointed else s
    head = f"semiheap n={inner.n}" + (f" pt={s.basepoint}" if pointed else "")
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
    """Parse ACT1 against a given structure semiheap."""
    toks = _Tokens(text)
    action = _parse_act1_body(toks, semiheap)
    toks.done()
    return action


def _parse_act1_body(toks, semiheap, bundle_size=None):
    """An ACT1 block; in a bundle, bundle_size fixes m and verify_bundle checks the action."""
    toks.take_keyword("action")
    m = toks.take_field("m", low=0)
    n = toks.take_field("n", low=0)
    if bundle_size is not None and (m, n) != (bundle_size, semiheap.n):
        raise FormatError(f"action header ({m},{n}) does not match bundle ({bundle_size},{semiheap.n})")
    if n != semiheap.n:
        raise FormatError(f"action declares n={n} but the semiheap has {semiheap.n} elements")
    table = _take_ints(toks, m * n * n, "action entry", m).reshape(m, n, n)
    return FiniteAction(semiheap, table, verify=bundle_size is None)


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
    toks = _Tokens(text)
    toks.take_keyword("bundle")
    total = toks.take_field("p", low=0)
    base = toks.take_field("m", low=0)
    toks.take_keyword("projection")
    proj = _take_ints(toks, total, "projection entry", base)
    toks.take_keyword("structure")
    s = _parse_shf1_body(toks)
    if isinstance(s, PointedSemiheap):
        s = s.semiheap
    action = _parse_act1_body(toks, s, bundle_size=total)
    toks.take_keyword("cover")
    k = toks.take_field("k", low=0)
    cover, charts = [], []
    for _ in range(k):
        toks.take_keyword("chart")
        size = toks.take_field("size", low=0)
        u = frozenset(int(v) for v in _take_ints(toks, size, "base index", base))
        toks.take_keyword("pairs")
        count = sum(1 for p in range(total) if int(proj[p]) in u)
        chart = {}
        for _ in range(count):
            p = toks.take_int("total point", 0, total)
            sl = toks.take_int("fiber label", 0, s.n)
            chart[p] = (int(proj[p]), sl)
        cover.append(u)
        charts.append(chart)
    toks.done()
    return DiscreteSemiheapBundle(base, proj, s, action, tuple(cover), tuple(charts))


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
    vals = [str(int(v)) for v in values]
    if not vals:
        return ""
    lines = [" ".join(vals[i:i + per_line]) for i in range(0, len(vals), per_line)]
    return "\n".join(lines) + "\n"
