"""Finite groups as Cayley tables, plus the bundled test corpus.

The corpus (cyclic groups up to order 8, the Klein four-group, S3, D4, Q8)
is constructed from fixed element orderings so every table is deterministic
across runs and platforms.
"""

from dataclasses import InitVar, dataclass
from functools import cache
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
    _certified: InitVar[bool] = False      # set only where group_axiom_witness has just passed on these tables

    def __post_init__(self, _certified):
        n = len(self.mul)
        mul = _index_array(self.mul, (n, n), n, "Cayley table")
        if n == 0:
            raise InvalidTable("a group needs at least the identity element")
        inv = _index_array(self.inv, (n,), n, "inverse table")
        if not 0 <= self.e < n:
            raise InvalidTable(f"identity index {self.e} outside carrier")
        bad = None if _certified else group_axiom_witness(mul, self.e, inv)
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
        ids = np.flatnonzero((mul == ar).all(axis=1) & (mul.T == ar).all(axis=1))   # rows c with c x = x = x c
        if not ids.size:
            raise LawError("no two-sided identity in table")
        return cls(mul, int(ids[0]), (mul == ids[0]).argmax(axis=1), name=name)


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
    hit = _first_disagreement(ar.size, ar.size ** 2, lambda r: mul[mul[r]], lambda r: mul[r][:, mul])   # (ab)c, a(bc)
    if hit is not None:
        return GroupAxiomWitness("associativity", hit[0])
    hit = _first_disagreement(ar.size, 1, lambda r: mul[ar[r], inv[r]], lambda r: mul[inv[r], ar[r]],
                              lambda r: np.asarray(e))
    if hit is None:
        return None
    (x,), _ = hit
    return GroupAxiomWitness("inverse", (x, int(inv[x])))


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
    """S3 with elements the permutations of (0,1,2) in lexicographic order; p q maps k to p[q[k]]."""
    elems = sorted(permutations(range(3)))
    return FiniteGroup.from_mul([[elems.index(tuple(p[k] for k in q)) for q in elems] for p in elems], name="S3")


def dihedral4():
    """D4 of order 8: element i + 4j stands for r^i s^j, and r^i1 s^j1 r^i2 s^j2 = r^(i1 + (-1)^j1 i2) s^(j1 + j2)."""
    j, i = np.divmod(np.arange(8), 4)
    return FiniteGroup.from_mul((i[:, None] + (1 - 2 * j[:, None]) * i) % 4 + 4 * (j[:, None] ^ j), name="D4")


def quaternion8():
    """Q8 with elements ordered 1, -1, i, -i, j, -j, k, -k, multiplied by the Hamilton product."""
    q = np.repeat(np.eye(4, dtype=np.int64), 2, axis=0) * np.tile([1, -1], 4)[:, None]    # each as (w, x, y, z)
    (w, x, y, z), (w2, x2, y2, z2) = q.T[:, :, None], q.T[:, None, :]
    prod = np.stack([w * w2 - x * x2 - y * y2 - z * z2, w * x2 + x * w2 + y * z2 - z * y2,
                     w * y2 - x * z2 + y * w2 + z * x2, w * z2 + x * y2 - y * x2 + z * w2], axis=-1)
    return FiniteGroup.from_mul((prod[..., None, :] == q).all(axis=-1).argmax(axis=-1), name="Q8")


def corpus():
    """The bundled groups Z1..Z8, K4, S3, D4, Q8 in a new list, built once per process as they are frozen."""
    return list(_corpus())


@cache
def _corpus():
    return (*(cyclic(n) for n in range(1, 9)), klein_four(), symmetric3(), dihedral4(), quaternion8())
