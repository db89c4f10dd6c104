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

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.int64)
        if arr.ndim != 3 or len(set(arr.shape)) > 1:
            raise InvalidTable(f"ternary table must be an (n,n,n) cube, got shape {arr.shape}")
        n = arr.shape[0]
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            bad = np.argwhere((arr < 0) | (arr >= n))[0]
            raise InvalidTable(f"entry {arr[tuple(bad)]} at {tuple(bad)} outside carrier 0..{n - 1}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

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
        return tuple(int(v) for v in self.entries.reshape(-1))

    def key(self):
        """Hashable identity: (n, flat entries)."""
        return (self.n, self.flat())


# Elements compared per slab: bounds the memory of every exhaustive check.
# At 8 bytes each, a slab stays near glibc's 128 KiB mmap threshold, so slab
# buffers are recycled from the heap; 2^16 made certify ~25 % slower.
_SLAB = 1 << 14


def _first_disagreement(rows, row_size, *forms):
    """Lexicographically first index where the forms of an identity disagree.

    Each form maps a slice of the leading axis (rows long) to that slab of
    one side of the identity, with row_size elements per row (trailing axes
    may broadcast).  Slabs of _SLAB elements, at least one row, are compared
    in order.  Returns (index, value of each form there) or None.
    """
    step = max(1, _SLAB // max(row_size, 1))
    for start in range(0, rows, step):
        r = slice(start, start + step)
        slabs = [f(r) for f in forms]
        bad = slabs[0] != slabs[1]
        for other in slabs[2:]:
            bad = bad | (slabs[0] != other)
        if bad.any():
            idx = np.unravel_index(int(bad.argmax()), bad.shape)
            values = tuple(int(v[idx] if v.shape == bad.shape else np.broadcast_to(v, bad.shape)[idx])
                           for v in slabs)
            return (start + int(idx[0]), *map(int, idx[1:])), values
    return None


def verify_para_associative(table):
    """Check the three-way identity over all n^5 quintuples.

    The scan runs over the pairs (x1, x2) in order, so a slab holds n^3
    values per pair.  Returns None on success, else the lexicographically
    first ParaAssocCounterexample.
    """
    t = table.entries
    n = table.n
    pairs = t.reshape(n * n, n)                 # pairs[x1 * n + x2, x3] = [x1,x2,x3]
    x1, x2 = np.divmod(np.arange(n * n), n)
    trev = t.transpose(2, 1, 0)
    hit = _first_disagreement(n * n, n ** 3,
                              lambda r: t[pairs[r]],                          # [[x1,x2,x3],x4,x5]
                              lambda r: t[x1[r, None, None], trev[x2[r]]],    # [x1,[x4,x3,x2],x5]
                              lambda r: pairs[r][:, t])                       # [x1,x2,[x3,x4,x5]]
    if hit is None:
        return None
    (pair, *rest), (outer, middle, inner) = hit
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


def is_biunitary(s, x):
    """True iff [y,x,x] = y = [x,x,y] for every y."""
    t = s.table.entries
    n = s.n
    if not 0 <= x < n:
        raise IndexError(f"element {x} outside carrier of size {n}")
    ar = np.arange(n)
    return bool(np.array_equal(t[:, x, x], ar) and np.array_equal(t[x, x, :], ar))


def _first_non_biunitary(s):
    """The least element that is not biunitary, or None when s is a heap."""
    return next((x for x in range(s.n) if not is_biunitary(s, x)), None)


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
    n = s.n
    arr_phi = _check_bijection(phi, n)
    arr_psi = _check_bijection(psi, n)
    inv_psi = np.argsort(arr_psi)
    mapping = inv_psi[arr_phi]
    return SemiheapHom(induce_via_bijection(arr_phi, s), induce_via_bijection(arr_psi, s), mapping)


def induce_pointed_via_bijection(phi, ps):
    """Pointed version: the basepoint transports to phi^-1(pt)."""
    arr = _check_bijection(phi, ps.n)
    inv = np.argsort(arr)
    return PointedSemiheap(induce_via_bijection(arr, ps.semiheap), int(inv[ps.basepoint]))
