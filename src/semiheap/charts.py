"""Matrix Lie groups realized as heaps, with seeded samplers.

Each chart bundles a membership residual, a seeded element sampler, a
tangent basis at the identity basepoint, and a structure-exact exponential
for its own Lie algebra.  The exponentials are closed-form per chart
(Rodrigues for rotations, a divided-difference formula for triangular
matrices, I + A for nilpotent translation generators), so no general
matrix-function routine is needed and tangent curves stay on the group to
machine precision.  Every function also takes stacks of matrices (leading
axes index samples) and gives each matrix the bits it gets on its own:
closed-form scalars come from the math module, element by element.  A
chart draws seeded samples in slabs of at most SLAB, and polynomial
scalar fields are evaluated on stacks of chart coordinates.
"""

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

COND_LIMIT = 1e10
SLAB = 256          # samples per stack, so memory stays bounded for any sample count
FD_STEP = 1e-5      # the default step of the numeric checks' central differences
PARA_TOL = 1e-9     # the default tolerance of the sampled para-associativity check
_UT2_LOW, _UT2_RANGE = np.array([0.5, -1.0, 0.5]), np.array([1.5, 2.0, 1.5])     # ut2's draw: low, high - low


def solve(a, b):
    """a^-1 b via LU with partial pivoting, guarded by a condition bound.

    The 2-norm condition number is the ratio of the extreme singular values; a matrix with a NaN or
    infinite entry has none.  For k x k matrices cond_2 <= cond_F = |a|_F |a^-1|_F <= k cond_2 (Golub and
    Van Loan, Matrix Computations, 4th ed., 2.3 and 3.5): a matrix passes where cond_F <= COND_LIMIT / 2
    and fails where a finite cond_F > 2 k COND_LIMIT, margins far wider than the computed inverse's rounding.
    The SVD decides the rest (a NaN cond_F, an overflowed norm), and all of a stack with a singular matrix;
    it also refuses a matrix whose inverse overflows, where 1 / sigma_min is not finite (5e-324 I, 1e-310 I).
    """
    a = np.asarray(a)
    with np.errstate(all="ignore"):
        try:
            cond = _norm(a) * _norm(np.linalg.inv(a))
        except np.linalg.LinAlgError:
            cond = np.full(a.shape[:-2], np.nan)
        band = a[~(cond <= COND_LIMIT / 2)]
        ok = not ((2 * a.shape[-1] * COND_LIMIT < cond) & (cond < np.inf)).any() and np.isfinite(band).all()
        if ok and len(band):
            s = np.linalg.svd(band, compute_uv=False)
            ok = (1 / s[..., -1] < np.inf).all() and (s[..., 0] / s[..., -1] <= COND_LIMIT).all()
    if not ok:
        raise ValueError(f"matrix condition number exceeds {COND_LIMIT:g}")
    return np.linalg.solve(a, b)


def _norm(x):
    """Frobenius norm of each matrix of a stack (or of a vector), by np.linalg.norm's dot kernel."""
    f = x.reshape(*x.shape[:-2], 1, math.prod(x.shape[-2:])) if x.ndim >= 2 else x.reshape(1, -1)
    return np.sqrt(f @ f.swapaxes(-1, -2))[..., 0, 0]


def rel_norm(delta, *refs):
    """Frobenius norm of delta relative to max(1, norms of the references), per matrix."""
    scale = 1.0
    for r in refs:
        scale = np.fmax(scale, _norm(r))           # like max(), a NaN norm is skipped
    return (_norm(delta) / scale)[()]


def slabs(items):
    """(start, list of up to SLAB items) for consecutive slabs of an iterable."""
    it, start = iter(items), 0
    while slab := list(islice(it, SLAB)):
        yield start, slab
        start += len(slab)


def _elementwise(fn, *xs):
    """fn on Python floats at every position of the arrays xs, as one array per output."""
    out = np.array([fn(*v) for v in zip(*(x.ravel().tolist() for x in xs))], dtype=float)
    return tuple(col.reshape(xs[0].shape) for col in out.reshape(xs[0].size, -1).T)


def _combine(coeff, basis):
    """The matrices with coefficients coeff[..., i] on the basis."""
    return sum(coeff[..., i, None, None] * e for i, e in enumerate(basis))


def _matrices(rows):
    """Stack a nested list of equally shaped arrays (or scalars) into (..., k, k)."""
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1) for row in rows], axis=-2)


@dataclass(frozen=True)
class MatrixHeapChart:
    name: str
    dim_matrix: int
    basis: tuple                                # tangent basis at the identity
    membership_residual: Callable
    draw: Callable                              # (rng, count) -> (count, r) raw numbers, as count single draws
    build: Callable                             # (..., r) raw numbers -> (..., k, k) elements
    exp_tangent: Callable                       # Lie algebra element -> group element
    coords: Callable                            # group element -> 1d coordinate array
    project_algebra: Callable                   # matrix -> its part in the Lie algebra

    @property
    def dim(self):
        return len(self.basis)

    @property
    def basepoint(self):
        return np.eye(self.dim_matrix)

    def sample(self, rng):
        return self.build(self.draw(rng, 1)[0])

    def sample_slabs(self, rng, samples, elements, tangents=0):
        """Slabs of samples drawn in order, each `elements` group elements, then
        `tangents` algebra elements: (start, g, a), g[i] and a[i] stacks of every
        sample's i-th group and algebra element.  Without tangents a slab is one draw."""
        for start, slab in slabs(range(samples)):
            if tangents:
                raw, coeff = map(np.array, zip(*((self.draw(rng, elements), rng.normal(size=(tangents, self.dim)))
                                                 for _ in slab)))
            else:
                raw = self.draw(rng, len(slab) * elements).reshape(len(slab), elements, -1)
                coeff = np.zeros((len(slab), 0, self.dim))
            yield start, self.build(raw.swapaxes(0, 1)), _combine(coeff.swapaxes(0, 1), self.basis)

    def tangent_residual(self, g, v):
        """Residual of the linearized membership constraint for v at g."""
        a = solve(g, v)
        return rel_norm(a - self.project_algebra(a), a)

    def random_tangent(self, g, rng):
        """A tangent vector at g: g times a random algebra element, standard normal in the basis."""
        return g @ _combine(rng.normal(size=self.dim), self.basis)


def _flat_coords(g):
    return g.reshape(*g.shape[:-2], -1)


def _rodrigues(a):
    """exp of a 3x3 skew matrix: I + (sin t / t) a + ((1 - cos t) / t^2) a^2, t = |a|."""
    theta = _norm(np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]], axis=-1)[..., None, :])
    s, c = _elementwise(lambda t: (1.0, 0.5) if t < 1e-12 else
                        (math.sin(t) / t, (1.0 - math.cos(t)) / t ** 2), theta)
    return np.eye(3) + s[..., None, None] * a + c[..., None, None] * (a @ a)


def _orthogonal_residual(g):
    return (rel_norm(g.swapaxes(-1, -2) @ g - np.eye(g.shape[-1])) + abs(np.linalg.det(g) - 1.0))[()]


def _skew_part(a):
    return 0.5 * (a - a.swapaxes(-1, -2))


def so3():
    basis = (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),     # Lx, Ly, Lz
             np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
             np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    return MatrixHeapChart(
        name="so3", dim_matrix=3, basis=basis,
        membership_residual=_orthogonal_residual,
        draw=lambda rng, count: rng.normal(size=(count, 3)),
        build=lambda raw: _rodrigues(_combine(raw, basis)),
        exp_tangent=_rodrigues,
        coords=_flat_coords,
        project_algebra=_skew_part,
    )


def _rot(theta):
    c, s = _elementwise(lambda t: (math.cos(t), math.sin(t)), theta)
    return _matrices([[c, -s], [s, c]])


def so2():
    return MatrixHeapChart(
        name="so2", dim_matrix=2, basis=(np.array([[0.0, -1.0], [1.0, 0.0]]),),
        membership_residual=_orthogonal_residual,
        draw=lambda rng, count: rng.uniform(-math.pi, math.pi, size=(count, 1)),
        build=lambda raw: _rot(raw[..., 0]),
        exp_tangent=lambda a: _rot(a[..., 1, 0]),
        coords=_flat_coords,
        project_algebra=_skew_part,
    )


def _exp_upper_2_entries(p, q, b):
    ep, eq = math.exp(p), math.exp(q)
    if abs(p - q) < 1e-8:
        # divided difference (e^p - e^q)/(p - q) via its series around p = q
        dd = ep * (1.0 + (q - p) / 2.0 + (q - p) ** 2 / 6.0)
    else:
        dd = eq * math.expm1(p - q) / (p - q)
    return ep, b * dd, eq


def _exp_upper_2(a):
    """exp of an upper-triangular 2x2 matrix, stable near equal diagonals."""
    ep, top, eq = _elementwise(_exp_upper_2_entries, a[..., 0, 0], a[..., 1, 1], a[..., 0, 1])
    return _matrices([[ep, top], [0.0, eq]])


def upper_triangular2():
    basis = tuple(np.array(e) for e in ([[1.0, 0.0], [0.0, 0.0]],      # E11, E12, E22
                                        [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]))
    return MatrixHeapChart(
        name="ut2", dim_matrix=2, basis=basis,
        membership_residual=lambda g: rel_norm(np.tril(g, -1), g),
        # identity component: positive diagonal bounded away from zero, drawn as numpy's uniform(low, high) does
        draw=lambda rng, count: _UT2_LOW + _UT2_RANGE * rng.random((count, 3)),
        build=lambda raw: _matrices([[raw[..., 0], raw[..., 1]], [0.0, raw[..., 2]]]),
        exp_tangent=_exp_upper_2,
        coords=_flat_coords,
        project_algebra=np.triu,
    )


def translations(n):
    """(R^n, +) embedded as (n+1)x(n+1) translation matrices."""
    d = n + 1
    basis = tuple(np.outer(np.eye(d)[i], np.eye(d)[n]) for i in range(n))     # e_i e_n^T

    def with_column(column):
        out = np.zeros(column.shape[:-1] + (d, d)) + np.eye(d)
        out[..., :n, n] = column
        return out

    return MatrixHeapChart(
        name=f"r{n}", dim_matrix=d, basis=basis,
        membership_residual=lambda g: rel_norm(g - with_column(g[..., :n, n]), g),
        draw=lambda rng, count: rng.uniform(-2.0, 2.0, size=(count, n)),
        build=with_column,
        exp_tangent=lambda a: np.eye(d) + a,   # translation generators square to zero
        coords=lambda g: g[..., :n, n].copy(),
        project_algebra=lambda a: with_column(a[..., :n, n]) - np.eye(d),
    )


def _signed_uniforms(rng, count):
    """count draws of uniform(0.5, 3.0) * choice([-1.0, 1.0]) as (count, 1), from one random_raw call:
    uniform reads a 64-bit word w as 0.5 + 2.5 (w >> 11) 2^-53, choice bit 31 of a 32-bit half-word, low
    half first, the high half buffered in the state.  Without that buffer (MT19937) it draws one by one."""
    state = rng.bit_generator.state
    if "has_uint32" not in state:
        return np.array([rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]) for _ in range(count)]).reshape(-1, 1)
    held, i = state["has_uint32"], np.arange(count)
    words = rng.bit_generator.random_raw(count + (count + 1 - held) // 2)
    picks = words[held + 1::3]                  # drawn after the uniform of every other element
    halves = np.concatenate(([state["uinteger"]], picks.astype("<u8").view("<u4")))     # low half first
    sign = np.where(halves[1 - held:count + 1 - held] >> 31, 1.0, -1.0)
    rng.bit_generator.state = rng.bit_generator.state | {"has_uint32": (count - held) % 2, "uinteger": int(halves[-1])}
    return ((0.5 + 2.5 * ((words[i + (i + 1 - held) // 2] >> 11) * 2.0 ** -53)) * sign)[:, None]


def nonzero_reals():
    return MatrixHeapChart(
        name="rx", dim_matrix=1, basis=(np.array([[1.0]]),),
        membership_residual=lambda g: np.where(np.abs(g[..., 0, 0]) > 1e-300, 0.0, 1.0)[()],
        draw=_signed_uniforms,
        build=lambda raw: raw[..., None],
        exp_tangent=lambda a: _elementwise(math.exp, a)[0],
        coords=_flat_coords,
        project_algebra=lambda a: a,
    )


def bundled_charts():
    """Every chart shipped with the package, keyed by name."""
    charts = (so2(), so3(), upper_triangular2(), translations(1), translations(2), translations(3), nonzero_reals())
    return {c.name: c for c in charts}


# --- polynomial scalar fields over chart coordinates ---------------------

@dataclass(frozen=True)
class PolynomialField:
    """Sum of monomials over chart coordinates: {exponent tuple: coefficient}."""

    terms: tuple   # ((exponents, coeff), ...) with exponents a tuple of coord indices

    def __call__(self, coords):           # coords[..., i]: one value per leading position
        coords = np.asarray(coords)
        total = np.zeros(coords.shape[:-1])
        for exps, coeff in self.terms:
            total += math.prod((coords[..., i] for i in exps), start=coeff)
        return total[()]

    def __add__(self, other):
        return _merged((*self.terms, *other.terms))

    def __mul__(self, other):
        if np.isscalar(other):
            return PolynomialField(tuple((e, c * other) for e, c in self.terms))
        return _merged((tuple(sorted(e1 + e2)), c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms)

    __rmul__ = __mul__

    @classmethod
    def constant(cls, c):
        return cls((((), float(c)),))

    @classmethod
    def coordinate(cls, i):
        return cls((((i,), 1.0),))

    @classmethod
    def linear(cls, coeffs):
        return cls(tuple(((i,), float(c)) for i, c in enumerate(coeffs)))

    @classmethod
    def random(cls, n_coords, degree, rng):
        terms = []
        for _ in range(6):
            exps = sorted(int(rng.integers(0, n_coords)) for _ in range(int(rng.integers(0, degree + 1))))
            terms.append((tuple(exps), float(rng.normal())))
        return _merged(terms)


def _merged(terms):
    """The field of (exponents, coefficient) terms, like terms summed in order."""
    merged = {}
    for exps, coeff in terms:
        merged[exps] = merged.get(exps, 0.0) + coeff
    return PolynomialField(tuple(sorted(merged.items())))
