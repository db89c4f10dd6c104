"""Finite ternary tables and exhaustive semiheap law verification.

Carriers are always 0..n-1; a ternary product is stored as a dense
(n, n, n) integer cube indexed [x, y, z].  All law checks are exhaustive
and report the lexicographically first failing tuple, so results are
deterministic regardless of how the tuple space is scanned.
"""

from dataclasses import dataclass, InitVar

import numpy as np


class InvalidTable(ValueError):
    """Raised for malformed input data (shape or out-of-range entries)."""


class LawError(ValueError):
    """Raised when a structural law fails at construction time.

    Carries the witness produced by the corresponding verifier.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FormatError(ValueError):
    """Raised by the text parsers of formats for malformed input, at its 1-based line and column when known."""

    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)
        self.line = line
        self.col = col


class Unsupported(ValueError):
    """Raised by enumeration for a census this program declines by design, whatever the budget."""


def _index_array(values, shape, high, what):
    """The index data values as a read-only int64 copy of the given shape, entries in 0..high-1.

    None in shape matches any length; high=None bounds the entries by the
    array's own length (an action's table maps its m points to themselves).
    Raises InvalidTable naming what on a wrong shape or an out-of-range entry.
    """
    arr = np.array(values, dtype=np.int64)
    if arr.ndim != len(shape) or any(d is not None and d != a for d, a in zip(shape, arr.shape)):
        want = ", ".join("*" if d is None else str(d) for d in shape)
        raise InvalidTable(f"{what} must have shape ({want}), got ({', '.join(map(str, arr.shape))})")
    high = len(arr) if high is None else high
    if arr.size and (arr.min() < 0 or arr.max() >= high):
        raise InvalidTable(f"{what} entry {arr[(arr < 0) | (arr >= high)][0]} outside 0..{high - 1}")
    arr.flags.writeable = False
    return arr


def _narrow(arr, bound):
    """A contiguous read-only copy of an index array with values below bound, in the narrowest unsigned dtype:
    the law kernels gather the values they compare from it with ndarray.take, and uint8 (bound <= 256) moves
    an eighth of the bytes of int64 on numpy's fast gather and compare paths."""
    out = arr.astype(np.uint8 if bound <= 1 << 8 else np.uint16 if bound <= 1 << 16 else np.uint32, order="C")
    out.flags.writeable = False
    return out


def _cell_dtype(n):
    """The big-endian dtype of the values _cell_bytes writes for an n-point table."""
    return ">u1" if n <= 1 << 8 else ">u2" if n <= 1 << 16 else ">u4"


def _cell_bytes(cells, n):
    """An n-point table's (n, n, n) cells as bytes, or the list of those of each row of a 2-D stack of flat
    tables: each value big-endian in _narrow's dtype for n, whatever the dtype of cells, so that for one n
    the bytes order as the tables do lexicographically."""
    cells = cells.astype(_cell_dtype(n))
    if cells.ndim == 3:
        return cells.tobytes()
    return np.ndarray(len(cells), (np.void, cells.itemsize * cells.shape[1]), cells).tolist()   # a row of 0 cells too


def _cube_stack(cubes):
    """A stack of (n, n, n) tables as one read-only int64 copy, checked once: a wrong shape, or the first
    out-of-range entry at its place in its own table, raises the InvalidTable of TernaryTable(that table)."""
    arr = np.array(cubes, dtype=np.int64)
    if arr.ndim != 4 or len(set(arr.shape[1:])) > 1:
        raise InvalidTable(f"ternary table must be an (n,n,n) cube, got shape {arr.shape[1:]}")
    n = arr.shape[1]
    if arr.size and arr.view(np.uint64).max() >= n:       # a negative entry reads 2^63 or more
        bad = np.argwhere(arr.view(np.uint64) >= n)[0]
        raise InvalidTable(f"entry {arr[tuple(bad)]} at {tuple(bad[1:])} outside carrier 0..{n - 1}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ParaAssocCounterexample:
    """First quintuple where the three para-associative forms disagree."""

    quintuple: tuple
    outer: int    # [[x1,x2,x3],x4,x5]
    middle: int   # [x1,[x4,x3,x2],x5]
    inner: int    # [x1,x2,[x3,x4,x5]]


@dataclass(frozen=True)
class TernaryTable:
    """A complete ternary operation on the carrier {0, .., n-1}."""

    entries: np.ndarray  # shape (n, n, n), values in 0..n-1, read-only
    _checked: InitVar[bool] = False      # entries is a cube of a stack _cube_stack checked

    def __post_init__(self, _checked):
        if not _checked:
            object.__setattr__(self, "entries", _cube_stack(np.asarray(self.entries, dtype=np.int64)[None])[0])

    @classmethod
    def stack(cls, cubes):
        """A table for each (n, n, n) cube of a stack, checked once for the whole stack (_cube_stack)."""
        return [cls(cube, True) for cube in _cube_stack(cubes)]

    @property
    def n(self):
        return self.entries.shape[0]

    @classmethod
    def from_flat(cls, n, values):
        """Build from n^3 values in (i, j, k) row-major order."""
        vals = np.asarray(list(values), dtype=np.int64)
        if vals.size != n ** 3:
            raise InvalidTable(f"expected {n ** 3} entries for n={n}, got {vals.size}")
        return cls(vals.reshape(n, n, n))

    @classmethod
    def from_rule(cls, n, rule):
        """Tabulate rule(x, y, z) over the whole carrier."""
        arr = np.fromiter(
            (rule(x, y, z) for x in range(n) for y in range(n) for z in range(n)),
            dtype=np.int64,
            count=n ** 3,
        ) if n else np.zeros(0, dtype=np.int64)
        return cls(arr.reshape(n, n, n))

    def flat(self):
        return tuple(self.entries.reshape(-1).tolist())

    def key(self):
        """Hashable identity and order: (n, _cell_bytes of the entries); for one n, keys order as flat() does."""
        return (self.n, _cell_bytes(self.entries, self.n))


# Elements compared per slab: bounds the memory of every exhaustive check.
# The n^3-per-row law kernels compare values of 1 or 2 bytes (_narrow), so
# their slabs take 16-32 KiB; an int64 slab of the other checks takes
# 128 KiB, near glibc's mmap threshold, so its buffers are recycled from
# the heap.
_SLAB = 1 << 14


def _slab_rows(row_size, slab=_SLAB):
    """Rows of row_size elements per slab, the one rule of every slab loop: slab elements, at least one row."""
    return slab // row_size if 0 < row_size <= slab else 1


def _first_disagreement(rows, row_size, *forms, start=0, slab=_SLAB):
    """Lexicographically first index where the forms of an identity disagree.

    Each form maps a slice of the leading axis (rows start..rows-1) to that
    slab of one side of the identity, with row_size elements per row
    (trailing axes may broadcast).  Slabs of _slab_rows(row_size, slab)
    rows are compared in order.  Returns (index, value of each form there)
    or None.
    """
    step = _slab_rows(row_size, slab)
    for first in range(start, rows, step):
        r = slice(first, min(first + step, rows))
        slabs = [f(r) for f in forms]
        bad = slabs[0] != slabs[1]
        for other in slabs[2:]:
            bad |= slabs[0] != other
        if bad.any():
            idx = np.unravel_index(int(bad.argmax()), bad.shape)
            values = tuple(int(v[idx] if v.shape == bad.shape else np.broadcast_to(v, bad.shape)[idx])
                           for v in slabs)
            return (first + int(idx[0]), *map(int, idx[1:])), values
    return None


def _row_classes(rows):
    """The classes of equal rows of a 2-D index array (the law kernels pass narrow rows), by a sort of its
    rows viewed as void items, numbered in sorted order: (the distinct rows as void items, sorted; the
    first row of each class; the class of each row)."""
    items = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = items.argsort()
    ordered = items[order]
    new = np.ones(len(items), dtype=bool)      # where a class begins in sorted order
    new[1:] = ordered[1:] != ordered[:-1]
    ids = np.empty(len(items), dtype=np.int64)
    ids[order] = new.cumsum() - 1
    starts = np.flatnonzero(new)
    return ordered[starts], np.minimum.reduceat(order, starts), ids


def _first_class_path_disagreement(keys, row_size, forms, loose=None):
    """_first_disagreement of forms that read row r only through the translation keys[r]; given loose,
    the rows are the pairs (x1, x2) of an n-point table and a last form reads keys[x1 * n + loose[x2, x3,
    x4]] at (x3, x4).  Past the first slab of a table of three or more, the forms are compared on the
    first row of each class of equal keys (_row_classes); where that row holds, another row of its class
    fails exactly where its loose keys lie in other classes.  The first failing row is the least failing
    first row or row with such loose keys (rescanned directly), sought in slabs of 4 * _SLAB loose ids
    and 2 * _SLAB form values."""
    rows, step, direct = len(keys), _slab_rows(row_size), forms
    if loose is not None:
        n = len(loose)
        x1, x2 = np.divmod(np.arange(rows), n)
        direct = (*forms, lambda r: keys.take(x1[r, None, None] * n + loose[x2[r]], axis=0))
    hit = _first_disagreement(rows if rows <= 2 * step else step, row_size, *direct)
    if hit is not None or rows <= 2 * step:     # two slabs or fewer: scanned whole, cheaper than classed
        return hit
    first, ids = _row_classes(keys)[1:]
    heads, span = np.sort(first), rows
    if loose is not None:
        cls = _narrow(ids, len(first)).reshape(n, n)             # [x1, x2]: the class of keys[x1 * n + x2]
        held = np.empty((len(first), n, n), cls.dtype)          # [c]: the loose classes of c's first row
        forms = (*forms, lambda r, known=keys[first]: known.take(held[ids[r]], axis=0))
        span = n * _slab_rows(n ** 3, 4 * _SLAB)
    for begin in range(0, rows, span):
        end = stop = min(begin + span, rows)
        new = heads[np.searchsorted(heads, begin):np.searchsorted(heads, end)]
        if loose is not None:
            got = cls[begin // n:end // n].take(loose, axis=1).reshape(end - begin, n, n)
            held[ids[new]] = got[new - begin]
            bad = got != held[ids[begin:end]]
            stop = begin + int(bad.argmax()) // (n * n) if bad.any() else end
        at = new[(new >= step) & (new < stop)]
        hit = _first_disagreement(len(at), row_size, *(lambda r, f=f: f(at[r]) for f in forms), slab=2 * _SLAB)
        if hit is not None:
            return (int(at[hit[0][0]]), *hit[0][1:]), hit[1]
        if stop < end:
            return _first_disagreement(stop + 1, row_size, *direct, start=stop)
    return None


def _translation_rows(a, t, bound):
    """The narrow rows [r * n + x1, x2] = a[r,x1,x2] of an (m, n, n) index array a with values below bound, and the
    class path's forms of a slice of them, a[a[r,x1,x2],x3,x4] and a[r,x1,t[x2,x3,x4]] for an n-point table t."""
    cube = _narrow(a, bound)                    # the compared values, gathered by take
    pairs, values = (x.reshape(a.shape[0] * a.shape[1], a.shape[2]) for x in (a, cube))   # not (-1, n): n may be 0
    return values, lambda r: cube.take(pairs[r], axis=0), lambda r: values[r].take(t, axis=1)


def verify_para_associative(table):
    """Check the three-way identity over all n^5 quintuples, pair (x1, x2) by pair on the class path of
    _first_class_path_disagreement: outer = [L(x3),x4,x5] and inner = L([x3,x4,x5]) read the pair only
    through L = L_{x1x2}, middle through L_{x1,[x4,x3,x2]}.  A heap has n classes, so certifying it takes
    n^4 work, not n^5.  Returns None or the lexicographically first ParaAssocCounterexample."""
    t = table.entries
    n = table.n
    values, outer, inner = _translation_rows(t, t, n)
    hit = _first_class_path_disagreement(values, n ** 3, (outer, inner),
                                         loose=np.ascontiguousarray(t.transpose(2, 1, 0)))   # [x1,[x4,x3,x2],x5]
    if hit is None:
        return None
    (pair, *rest), (outer, inner, middle) = hit
    return ParaAssocCounterexample((*divmod(pair, n), *rest), outer, middle, inner)


@dataclass(frozen=True)
class FiniteSemiheap:
    """A ternary table certified para-associative.

    Construction runs the exhaustive verifier unless `_certified` is set,
    which is reserved for operations whose output is para-associative by
    theorem (opposite, product, induced structure, heapification).  Tables
    are immutable, so a certificate can never go stale.
    """

    table: TernaryTable
    _certified: InitVar[bool] = False

    def __post_init__(self, _certified):
        if not _certified:
            witness = verify_para_associative(self.table)
            if witness is not None:
                raise LawError(f"para-associativity fails at {witness.quintuple}", witness)

    @property
    def n(self):
        return self.table.n

    def apply(self, x, y, z):
        return int(self.table.entries[x, y, z])

    def key(self):
        return self.table.key()

    @classmethod
    def from_flat(cls, n, values):
        return cls(TernaryTable.from_flat(n, values))

    @classmethod
    def from_rule(cls, n, rule):
        return cls(TernaryTable.from_rule(n, rule))


@dataclass(frozen=True)
class PointedSemiheap:
    """A certified semiheap with a distinguished basepoint."""

    semiheap: FiniteSemiheap
    basepoint: int

    def __post_init__(self):
        if not 0 <= self.basepoint < self.semiheap.n:
            raise InvalidTable(f"basepoint {self.basepoint} outside carrier of size {self.semiheap.n}")

    @property
    def n(self):
        return self.semiheap.n

    @property
    def table(self):
        return self.semiheap.table


def _unpointed(s):
    """The semiheap of a semiheap or a pointed semiheap (parse_shf1 returns either), without its basepoint."""
    return s.semiheap if isinstance(s, PointedSemiheap) else s


def is_biunitary(s, x):
    """True iff [y,x,x] = y = [x,x,y] for every y."""
    t = s.table.entries
    n = s.n
    if not 0 <= x < n:
        raise IndexError(f"element {x} outside carrier of size {n}")
    ar = np.arange(n)
    return bool(np.array_equal(t[:, x, x], ar) and np.array_equal(t[x, x, :], ar))


def _first_non_biunitary(s):
    """The least x whose t[:, x, x] or t[x, x, :] is not the identity (all x at once), or None for a heap."""
    t, ar = s.table.entries, np.arange(s.n)
    bad = np.flatnonzero((t[:, ar, ar] != ar[:, None]).any(axis=0) | (t[ar, ar, :] != ar).any(axis=1))
    return int(bad[0]) if bad.size else None


def is_heap(s):
    """True iff every element of the semiheap is biunitary."""
    return _first_non_biunitary(s) is None


def is_abelian(s):
    """True iff the table equals its argument-reversed conjugate."""
    t = s.table.entries
    return bool(np.array_equal(t, t.transpose(2, 1, 0)))


@dataclass(frozen=True)
class FiniteHeap:
    """A semiheap in which every element is biunitary."""

    semiheap: FiniteSemiheap

    def __post_init__(self):
        if (bad := _first_non_biunitary(self.semiheap)) is not None:
            raise LawError(f"element {bad} is not biunitary", bad)

    @property
    def n(self):
        return self.semiheap.n

    def pointed(self, basepoint):
        return PointedSemiheap(self.semiheap, basepoint)


def opposite(s):
    """The argument-reversed semiheap [x,y,z]^op = [z,y,x].

    Para-associativity transports along the reversal, so the certificate
    is inherited.
    """
    rev = TernaryTable(s.table.entries.transpose(2, 1, 0))
    return FiniteSemiheap(rev, _certified=True)


def product(s, s2):
    """Componentwise product on the pair-encoded carrier (index = x*n2 + y)."""
    n, n2 = s.n, s2.n
    t, t2 = s.table.entries, s2.table.entries
    xs, ys = np.divmod(np.arange(n * n2), n2)
    big = t[np.ix_(xs, xs, xs)] * n2 + t2[np.ix_(ys, ys, ys)]
    return FiniteSemiheap(TernaryTable(big), _certified=True)


def product_projections(s, s2):
    """The two coordinate projections of product(s, s2), as index arrays."""
    return np.divmod(np.arange(s.n * s2.n), s2.n)


def homomorphism_witness(mapping, s, s2):
    """First triple violating phi[x,y,z] = [phi x, phi y, phi z]', or None."""
    phi = _index_array(mapping, (s.n,), s2.n, "map")
    t, t2 = s.table.entries, s2.table.entries
    hit = _first_disagreement(s.n, s.n ** 2,
                              lambda r: phi[t[r]],
                              lambda r: t2[phi[r, None, None], phi[:, None], phi])
    return None if hit is None else (*hit[0], *hit[1])


def is_homomorphism(mapping, s, s2):
    return homomorphism_witness(mapping, s, s2) is None


@dataclass(frozen=True)
class SemiheapHom:
    """A verified semiheap homomorphism, stored as an index array."""

    source: FiniteSemiheap
    target: FiniteSemiheap
    mapping: np.ndarray

    def __post_init__(self):
        arr = _index_array(self.mapping, (self.source.n,), self.target.n, "map")
        object.__setattr__(self, "mapping", arr)
        witness = homomorphism_witness(arr, self.source, self.target)
        if witness is not None:
            raise LawError(f"not a homomorphism at triple {witness[:3]}", witness)

    def __call__(self, x):
        return int(self.mapping[x])


def homomorphic_image(h):
    """The induced semiheap on the image subset of the target, re-indexed.

    Closure of the image is forced for verified homomorphisms; a failure
    here is an internal invariant violation, not an input error.
    """
    image = np.unique(h.mapping)
    if closure_witness(image, h.target) is not None:
        raise AssertionError("image of a verified homomorphism must be closed")
    pos = np.zeros(h.target.n, dtype=np.int64)
    pos[image] = np.arange(image.size)
    sub = pos[h.target.table.entries[np.ix_(image, image, image)]]
    return FiniteSemiheap(TernaryTable(sub), _certified=True)


def closure_witness(subset, s):
    """First triple from the subset whose product escapes it, or None."""
    members = np.unique(_index_array(list(subset), (None,), s.n, "subset"))
    t = s.table.entries
    inside = np.full(s.n, -1, dtype=np.int64)    # members to themselves, the rest to -1
    inside[members] = members
    k = members.size
    hit = _first_disagreement(k, k * k,
                              lambda r: t[np.ix_(members[r], members, members)],
                              lambda r: inside[t[np.ix_(members[r], members, members)]])
    if hit is None:
        return None
    (a, b, c), (v, _) = hit
    return (int(members[a]), int(members[b]), int(members[c]), v)


def is_subsemiheap(subset, s):
    return closure_witness(subset, s) is None


def _check_bijection(phi, n):
    arr = np.asarray(phi, dtype=np.int64)
    if arr.shape != (n,) or sorted(arr.tolist()) != list(range(n)):
        raise InvalidTable(f"not a bijection onto 0..{n - 1}: {arr.tolist()}")
    return arr


def relabel(table, perm):
    """Transport a table along the carrier bijection x -> perm[x]."""
    p = _check_bijection(perm, table.n)
    out = np.empty_like(table.entries)
    out[np.ix_(p, p, p)] = p[table.entries]
    return TernaryTable(out)


def induce_via_bijection(phi, s):
    """Pull the structure of s back along a bijection phi: M -> carrier(s).

    [m1,m2,m3] := phi^-1 [phi m1, phi m2, phi m3], the transport along
    phi^-1; the result is certified, since para-associativity transports
    along bijections.
    """
    return FiniteSemiheap(relabel(s.table, np.argsort(_check_bijection(phi, s.n))), _certified=True)


def induced_pair_iso(phi, psi, s):
    """The canonical isomorphism psi^-1 . phi between the two structures
    induced by bijections phi and psi, returned as a verified hom."""
    source, target = induce_via_bijection(phi, s), induce_via_bijection(psi, s)     # each checks its bijection
    return SemiheapHom(source, target, np.argsort(np.asarray(psi, dtype=np.int64))[np.asarray(phi, dtype=np.int64)])


def induce_pointed_via_bijection(phi, ps):
    """Pointed version: the basepoint transports to phi^-1(pt)."""
    induced = induce_via_bijection(phi, ps.semiheap)       # checks the bijection
    return PointedSemiheap(induced, int(np.argsort(np.asarray(phi, dtype=np.int64))[ps.basepoint]))
