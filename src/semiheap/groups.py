"""Finite groups as Cayley tables, plus the bundled test corpus.

The corpus (cyclic groups up to order 8, the Klein four-group, S3, D4, Q8)
is constructed from fixed element orderings so every table is deterministic
across runs and platforms.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import InvalidTable, LawError, _first_disagreement, _index_array


@dataclass(frozen=True)
class FiniteGroup:
    """A validated Cayley table with identity and inverse table."""

    mul: np.ndarray  # shape (n, n)
    e: int
    inv: np.ndarray  # shape (n,)
    name: str = ""

    def __post_init__(self):
        n = len(self.mul)
        mul = _index_array(self.mul, (n, n), n, "Cayley table")
        if n == 0:
            raise InvalidTable("a group needs at least the identity element")
        inv = _index_array(self.inv, (n,), n, "inverse table")
        if not 0 <= self.e < n:
            raise InvalidTable(f"identity index {self.e} outside carrier")
        bad = group_axiom_witness(mul, self.e, inv)
        if bad is not None:
            raise LawError(f"{bad.axiom} fails at {bad.witness}", bad.witness)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)

    @property
    def n(self):
        return self.mul.shape[0]

    def key(self):
        return (self.n, self.e, tuple(int(v) for v in self.mul.reshape(-1)))

    @classmethod
    def from_mul(cls, mul, name=""):
        """Derive the identity, and as inverse of x the first y with xy = e, from a bare Cayley table."""
        n = len(mul)
        mul = _index_array(mul, (n, n), n, "Cayley table")
        ar = np.arange(n)
        e = None
        for c in range(n):
            if np.array_equal(mul[c], ar) and np.array_equal(mul[:, c], ar):
                e = c
                break
        if e is None:
            raise LawError("no two-sided identity in table")
        return cls(mul, e, (mul == e).argmax(axis=1), name=name)


@dataclass(frozen=True)
class GroupAxiomWitness:
    """The first group axiom a (mul, e, inv) triple fails, and where."""

    axiom: str
    witness: tuple


def group_axiom_witness(mul, e, inv):
    """Identity, associativity, then inverse: the first failure as a GroupAxiomWitness, or None.

    Witnesses: identity (e, x, e*x, x*e); associativity the triple (x, y, z);
    inverse (x, inv[x]).
    """
    ar = np.arange(mul.shape[0])
    hit = _first_disagreement(ar.size, 1, lambda r: ar[r], lambda r: mul[e, r], lambda r: mul[r, e])
    if hit is not None:
        (x,), (_, left, right) = hit
        return GroupAxiomWitness("identity", (e, x, left, right))
    bad = associativity_witness(mul)
    if bad is not None:
        return GroupAxiomWitness("associativity", bad)
    hit = _first_disagreement(ar.size, 1, lambda r: mul[ar[r], inv[r]], lambda r: mul[inv[r], ar[r]],
                              lambda r: np.asarray(e))
    if hit is None:
        return None
    (x,), _ = hit
    return GroupAxiomWitness("inverse", (x, int(inv[x])))


def associativity_witness(mul):
    """First triple with (ab)c != a(bc) in a Cayley table, or None."""
    n = mul.shape[0]
    hit = _first_disagreement(n, n * n, lambda r: mul[mul[r]], lambda r: mul[r][:, mul])
    return None if hit is None else hit[0]


def group_hom_witness(mapping, g, g2):
    """First pair with f(xy) != f(x)f(y), or None."""
    f = _index_array(mapping, (g.n,), g2.n, "map")
    hit = _first_disagreement(g.n, g.n,
                              lambda r: f[g.mul[r]],
                              lambda r: g2.mul[f[r, None], f])
    return None if hit is None else (*hit[0], *hit[1])


def is_group_hom(mapping, g, g2):
    return group_hom_witness(mapping, g, g2) is None


def cyclic(n):
    mul = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    inv = (-np.arange(n)) % n
    return FiniteGroup(mul, 0, inv, name=f"Z{n}")


def klein_four():
    ar = np.arange(4)
    mul = ar[:, None] ^ ar[None, :]
    return FiniteGroup(mul, 0, ar.copy(), name="K4")


def symmetric3():
    """S3 with elements the permutations of (0,1,2) in lexicographic order."""
    elems = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    mul = np.empty((6, 6), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mul[i, j] = index[tuple(p[q[k]] for k in range(3))]
    return FiniteGroup.from_mul(mul, name="S3")


def dihedral4():
    """D4 of order 8: element i + 4j stands for r^i s^j."""
    mul = np.empty((8, 8), dtype=np.int64)
    for i1 in range(4):
        for j1 in range(2):
            for i2 in range(4):
                for j2 in range(2):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % 4
                    mul[i1 + 4 * j1, i2 + 4 * j2] = i + 4 * ((j1 + j2) % 2)
    return FiniteGroup.from_mul(mul, name="D4")


def quaternion8():
    """Q8 with elements ordered 1, -1, i, -i, j, -j, k, -k."""
    # basis products: table[a][b] = (sign, axis) for axes 1,i,j,k
    basis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    def idx(sign, axis):
        return 2 * axis + (0 if sign > 0 else 1)
    mul = np.empty((8, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            sa, xa = (1 if a % 2 == 0 else -1), a // 2
            sb, xb = (1 if b % 2 == 0 else -1), b // 2
            s, x = basis[(xa, xb)]
            mul[a, b] = idx(sa * sb * s, x)
    return FiniteGroup.from_mul(mul, name="Q8")


def corpus():
    """The bundled groups: Z1..Z8, K4, S3, D4, Q8."""
    groups = [cyclic(n) for n in range(1, 9)]
    groups += [klein_four(), symmetric3(), dihedral4(), quaternion8()]
    return groups
