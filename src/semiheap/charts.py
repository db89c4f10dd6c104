"""Matrix Lie groups realized as heaps, with seeded samplers.

Each chart bundles a membership residual, a seeded element sampler, a
tangent basis at the identity basepoint, and a structure-exact exponential
for its own Lie algebra.  The exponentials are closed-form per chart
(Rodrigues for rotations, a divided-difference formula for triangular
matrices, I + A for nilpotent translation generators), so no general
matrix-function routine is needed and tangent curves stay on the group to
machine precision.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

COND_LIMIT = 1e10


def solve(a, b):
    """a^-1 b via LU with partial pivoting, guarded by a condition bound."""
    if np.linalg.cond(a) > COND_LIMIT:
        raise ValueError(f"matrix condition number exceeds {COND_LIMIT:g}")
    return np.linalg.solve(a, b)


def rel_norm(delta, *refs):
    """Frobenius norm of delta relative to max(1, norms of the references)."""
    scale = max([1.0] + [float(np.linalg.norm(r)) for r in refs])
    return float(np.linalg.norm(delta)) / scale


@dataclass(frozen=True)
class MatrixHeapChart:
    name: str
    dim_matrix: int
    basis: tuple                                # tangent basis at the identity
    membership_residual: Callable
    sample: Callable                            # rng -> group element
    exp_tangent: Callable                       # Lie algebra element -> group element
    coords: Callable                            # group element -> 1d coordinate array
    project_algebra: Callable                   # matrix -> its part in the Lie algebra
    h: float = 1e-5
    tol: float = 1e-9

    @property
    def dim(self):
        return len(self.basis)

    @property
    def basepoint(self):
        return np.eye(self.dim_matrix)

    def tangent_residual(self, g, v):
        """Residual of the linearized membership constraint for v at g."""
        a = solve(g, v)
        return self.algebra_residual(a)

    def algebra_residual(self, a):
        """Distance of a from the span pattern of the Lie algebra."""
        proj = self.project_algebra(a)
        return rel_norm(a - proj, a)

    def random_algebra(self, rng, scale=1.0):
        coeff = rng.normal(scale=scale, size=self.dim)
        return sum(c * e for c, e in zip(coeff, self.basis))

    def random_tangent(self, g, rng, scale=1.0):
        """A tangent vector at g: g times a random algebra element."""
        return g @ self.random_algebra(rng, scale)


def _skew_basis_3():
    lx = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    ly = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    lz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return lx, ly, lz


def _rodrigues(a):
    """exp of a 3x3 skew matrix."""
    w = np.array([a[2, 1], a[0, 2], a[1, 0]])
    theta = float(np.linalg.norm(w))
    if theta < 1e-12:
        return np.eye(3) + a + 0.5 * (a @ a)
    return np.eye(3) + (math.sin(theta) / theta) * a + ((1.0 - math.cos(theta)) / theta ** 2) * (a @ a)


def _orthogonal_residual(g):
    d = g.shape[0]
    return rel_norm(g.T @ g - np.eye(d)) + abs(float(np.linalg.det(g)) - 1.0)


def _skew_part(a):
    return 0.5 * (a - a.T)


def so3():
    basis = _skew_basis_3()

    def sample(rng):
        return _rodrigues(sum(c * e for c, e in zip(rng.normal(size=3), basis)))

    return MatrixHeapChart(
        name="so3", dim_matrix=3, basis=basis,
        membership_residual=_orthogonal_residual,
        sample=sample, exp_tangent=_rodrigues,
        coords=lambda g: g.reshape(-1),
        project_algebra=_skew_part,
    )


def so2():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])

    def rot(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])

    return MatrixHeapChart(
        name="so2", dim_matrix=2, basis=(gen,),
        membership_residual=_orthogonal_residual,
        sample=lambda rng: rot(float(rng.uniform(-math.pi, math.pi))),
        exp_tangent=lambda a: rot(float(a[1, 0])),
        coords=lambda g: g.reshape(-1),
        project_algebra=_skew_part,
    )


def _exp_upper_2(a):
    """exp of an upper-triangular 2x2 matrix, stable near equal diagonals."""
    p, q = float(a[0, 0]), float(a[1, 1])
    b = float(a[0, 1])
    ep, eq = math.exp(p), math.exp(q)
    if abs(p - q) < 1e-8:
        # divided difference (e^p - e^q)/(p - q) via its series around p = q
        dd = ep * (1.0 + (q - p) / 2.0 + (q - p) ** 2 / 6.0)
    else:
        dd = eq * math.expm1(p - q) / (p - q)
    return np.array([[ep, b * dd], [0.0, eq]])


def upper_triangular2():
    basis = (
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
    )

    def sample(rng):
        # identity component: positive diagonal bounded away from zero
        return np.array([
            [float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))],
            [0.0, float(rng.uniform(0.5, 2.0))],
        ])

    return MatrixHeapChart(
        name="ut2", dim_matrix=2, basis=basis,
        membership_residual=lambda g: rel_norm(np.tril(g, -1), g),
        sample=sample, exp_tangent=_exp_upper_2,
        coords=lambda g: g.reshape(-1),
        project_algebra=np.triu,
    )


def translations(n):
    """(R^n, +) embedded as (n+1)x(n+1) translation matrices."""
    d = n + 1
    basis = []
    for i in range(n):
        e = np.zeros((d, d))
        e[i, n] = 1.0
        basis.append(e)

    def membership(g):
        expected = np.eye(d)
        expected[:n, n] = g[:n, n]
        return rel_norm(g - expected, g)

    def sample(rng):
        g = np.eye(d)
        g[:n, n] = rng.uniform(-2.0, 2.0, size=n)
        return g

    def project_algebra(a):
        out = np.zeros_like(a)
        out[:n, n] = a[:n, n]
        return out

    return MatrixHeapChart(
        name=f"r{n}", dim_matrix=d, basis=tuple(basis),
        membership_residual=membership,
        sample=sample,
        exp_tangent=lambda a: np.eye(d) + a,   # translation generators square to zero
        coords=lambda g: g[:n, n].copy(),
        project_algebra=project_algebra,
    )


def nonzero_reals():
    return MatrixHeapChart(
        name="rx", dim_matrix=1, basis=(np.array([[1.0]]),),
        membership_residual=lambda g: 0.0 if abs(float(g[0, 0])) > 1e-300 else 1.0,
        sample=lambda rng: np.array([[float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))]]),
        exp_tangent=lambda a: np.array([[math.exp(float(a[0, 0]))]]),
        coords=lambda g: g.reshape(-1),
        project_algebra=lambda a: a,
    )


def bundled_charts():
    """Every chart shipped with the package, keyed by name."""
    charts = [so2(), so3(), upper_triangular2(), translations(1),
              translations(2), translations(3), nonzero_reals()]
    return {c.name: c for c in charts}
