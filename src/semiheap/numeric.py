"""Numerical verification of heap laws on matrix groups.

Analytic pushforward formulas are the primary route everywhere; central
finite differences along structure-exact tangent curves are the
independent oracle.  Every stochastic check takes a seed and echoes it in
its report, and flow integration is fixed-step classical RK4 so residuals
are reproducible to the bit.  A NaN residual fails its report, and a
failing report names its first failing sample.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .charts import rel_norm, solve

RK4_STEP = 1e-3
FLOW_TOL = 1e-6
BRACKET_TOL = 1e-4


@dataclass(frozen=True)
class CheckReport:
    check: str
    max_residual: float
    tol: float
    passed: bool
    seed: int | None = None
    witness: object = None
    extra: dict = field(default_factory=dict)

    def line(self):
        seed = "none" if self.seed is None else str(self.seed)
        return (f"check={self.check} max_residual={self.max_residual:.3e} "
                f"seed={seed} pass={str(self.passed).lower()}")


def _worse(worst, r):
    """max(worst, r), except that a NaN, once seen, stays the worst."""
    return r if r > worst or r != r else worst


class _Fold:
    """The running worst residual of a sampled check, in constant memory.

    Python's max drops a NaN that is not its first argument, which would
    pass a check whose residual is undefined.  Here a NaN is the worst
    residual and fails the report, and witness names the first sample, in
    draw order, with a residual that is NaN or at least tol: by whatever
    add was given for it, an index or the failing inputs.  Residuals added
    under a part name are also kept apart, for the report's extras.
    """

    def __init__(self, tol=math.inf, *parts):
        self.tol, self.worst, self.witness = tol, 0.0, None
        self.parts = dict.fromkeys(parts, 0.0)

    def add(self, sample, *residuals, part=None):
        for r in map(float, residuals):
            if self.witness is None and not r < self.tol:
                self.witness = sample
            self.worst = _worse(self.worst, r)
            if part is not None:
                self.parts[part] = _worse(self.parts[part], r)

    def report(self, check, seed, **extra):
        return CheckReport(check, self.worst, self.tol, bool(self.worst < self.tol),
                           seed=seed, witness=self.witness, extra=extra)


def _rel(a, b, *more):
    """|a - b| relative to max(1, |a|, |b|, |more|...), for scalars."""
    return abs(a - b) / max(1.0, abs(a), abs(b), *map(abs, more))


def _central(curve, h):
    return (curve(h) - curve(-h)) / (2.0 * h)


def _pushforward_fd(chart, x, y, z, v, h):
    """L_{xy} pushed along the tangent curve z exp(t z^-1 v), by central difference."""
    a = chart.project_algebra(solve(z, v))
    return _central(lambda t: x @ solve(y, z @ chart.exp_tangent(t * a)), h)


def _para_forms(op, g):
    """[[g0,g1,g2],g3,g4], [g0,[g3,g2,g1],g4] and [g0,g1,[g2,g3,g4]]."""
    return (op(op(g[0], g[1], g[2]), g[3], g[4]),
            op(g[0], op(g[3], g[2], g[1]), g[4]),
            op(g[0], g[1], op(g[2], g[3], g[4])))


def mu(chart, g1, g2, g3, membership_tol=1e-12):
    """g1 * g2^-1 * g3 via linear solve; the output must stay on the group."""
    for g in (g1, g2, g3):
        if not chart.membership_residual(g) <= membership_tol:
            raise ValueError(f"input leaves the {chart.name} chart")
    out = g1 @ solve(g2, g3)
    if not chart.membership_residual(out) <= membership_tol:
        raise ValueError(f"ternary product left the {chart.name} chart")
    return out


def check_para_associative_numeric(chart, samples, seed, tol=None):
    """Max pairwise residual of the three association orders on sampled quintuples."""
    tol = chart.tol if tol is None else tol
    rng = np.random.default_rng(seed)
    fold, membership = _Fold(tol), _Fold()
    for i in range(samples):
        outer, middle, inner = _para_forms(partial(mu, chart), [chart.sample(rng) for _ in range(5)])
        fold.add(i, rel_norm(outer - middle, outer), rel_norm(outer - inner, outer))
        membership.add(i, chart.membership_residual(outer))
    return fold.report("para-assoc", seed, membership=membership.worst)


def dL(chart, x, y, z, v, h=None, tangent_tol=1e-9):
    """Pushforward of the tangent vector v at z under L_{xy}.

    Returns (analytic value, residual against the central finite
    difference along the curve z exp(t z^-1 v)).  v must satisfy the
    linearized membership constraint at z.
    """
    h = chart.h if h is None else h
    if not chart.tangent_residual(z, v) <= tangent_tol:
        raise ValueError(f"vector is not tangent to the {chart.name} chart at the base point")
    analytic = x @ solve(y, v)
    return analytic, rel_norm(analytic - _pushforward_fd(chart, x, y, z, v, h), analytic)


def pushforward_convergence(chart, samples, seed, h=1e-3):
    """Residual of the finite-difference pushforward at h and h/2.

    h defaults to 1e-3 so truncation error dominates roundoff and the
    second-order ratio is measurable; at much smaller h the subtraction
    noise of the central difference takes over.
    """
    rng = np.random.default_rng(seed)
    res_h, res_half = _Fold(), _Fold()
    for i in range(samples):
        x, y, z = (chart.sample(rng) for _ in range(3))
        v = chart.random_tangent(z, rng)
        res_h.add(i, dL(chart, x, y, z, v, h=h)[1])
        res_half.add(i, dL(chart, x, y, z, v, h=h / 2.0)[1])
    ratio = res_h.worst / res_half.worst if res_half.worst > 0 else float("inf")
    return res_h.worst, res_half.worst, ratio


def left_invariant_field(chart, v):
    """The left-invariant field with value v at the identity: x -> x v.

    v must be an exact Lie-algebra element so that the field reproduces it
    at the basepoint on the nose, not merely within tolerance.
    """
    if not np.array_equal(chart.project_algebra(v), v):
        raise ValueError(f"generator is not a {chart.name} Lie-algebra element")
    return lambda x: x @ v


def left_invariant_field_check(chart, v, samples, seed, tol=1e-6, h=None):
    """Finite-difference invariance of the field generated by v.

    The pushforward of V(z) under L_{xy} is compared with V([x,y,z]); the
    value at the basepoint must reproduce v exactly.
    """
    h = chart.h if h is None else h
    rng = np.random.default_rng(seed)
    fieldrule = left_invariant_field(chart, v)
    if not np.array_equal(fieldrule(chart.basepoint), v):
        raise AssertionError("field must reproduce its generator at the basepoint")
    fold = _Fold(tol)
    for i in range(samples):
        x, y, z = (chart.sample(rng) for _ in range(3))
        target = fieldrule(mu(chart, x, y, z))
        fold.add(i, rel_norm(_pushforward_fd(chart, x, y, z, fieldrule(z), h) - target, target))
    return fold.report("left-invariant", seed)


def compare_group_vs_heap_invariance(chart, v, samples, seed, tol=1e-6):
    """The heap-sense rule x * x0^-1 * v and the group-sense rule x * v.

    With basepoint the identity these are the same analytic expression;
    equality is checked entrywise-exactly, not just in norm.  The sampled
    heap-invariance condition at y = z = x0 must also reduce to group
    invariance within tol (finite differences).
    """
    rng = np.random.default_rng(seed)
    x0 = chart.basepoint
    a = chart.project_algebra(solve(x0, v))
    exact = True
    fold = _Fold(tol)
    for i in range(samples):
        x = chart.sample(rng)
        exact = exact and bool(np.array_equal(x @ solve(x0, v), x @ v))
        target = x @ a
        fold.add(i, rel_norm(_pushforward_fd(chart, x, x0, x0, v, chart.h) - target, target))
    return fold.report("group-vs-heap", seed, exact=exact)


def _rk4(fieldrule, y0, t, step=RK4_STEP):
    """Classical fixed-step RK4 from y0 over signed duration t."""
    if t == 0.0:
        return np.array(y0, dtype=float, copy=True)
    nsteps = max(1, int(math.ceil(abs(t) / step)))
    h = t / nsteps
    y = np.array(y0, dtype=float, copy=True)
    for _ in range(nsteps):
        k1 = fieldrule(y)
        k2 = fieldrule(y + 0.5 * h * k1)
        k3 = fieldrule(y + 0.5 * h * k2)
        k4 = fieldrule(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def bracket_closure(chart, u, v, samples, seed, tol=BRACKET_TOL, t=1e-3):
    """Commutator of the invariant fields of u and v, by flow differences.

    The Lie-derivative quotient (dPhi^U_{-t}) V(Phi^U_t x), centered in t,
    is computed with RK4-integrated flows; the RK4 map of a right-linear
    field is itself linear, so it doubles as its own pushforward.  The
    result must match the invariant field of the matrix commutator
    [u, v] = uv - vu, and the frame of basis fields must have full rank at
    every sampled point.
    """
    rng = np.random.default_rng(seed)
    au = chart.project_algebra(u)
    av = chart.project_algebra(v)
    w = au @ av - av @ au
    flow_u = lambda y: y @ au
    field_v = lambda y: y @ av
    fold = _Fold(tol)
    rank_ok = True
    for i in range(samples):
        x = chart.sample(rng)

        def conjugated(s):
            moved = _rk4(flow_u, x, s)
            return _rk4(flow_u, field_v(moved), -s)

        fold.add(i, rel_norm(_central(conjugated, t) - x @ w, x @ w))
        frame = np.stack([(x @ e).reshape(-1) for e in chart.basis])
        rank_ok = rank_ok and (np.linalg.matrix_rank(frame) == chart.dim)
    return fold.report("bracket", seed, rank_ok=rank_ok, commutator=w)


def multiplicative_function_check(chart, f, triples, tol=1e-12, seed=None, pointed=True):
    """Check f([x,y,z]) = f(x) - f(y) + f(z) on the given triples.

    Returns the first failing triple as the witness.  Pointed charts also
    require f(basepoint) = 0.
    """
    fold = _Fold(tol)
    if pointed:
        base_val = float(f(chart.coords(chart.basepoint)))
        if not abs(base_val) <= tol:
            fold.add(("basepoint", base_val), abs(base_val))
            return fold.report("mult-function", seed)
    for x, y, z in triples:
        lhs = float(f(chart.coords(mu(chart, x, y, z))))
        rhs = float(f(chart.coords(x))) - float(f(chart.coords(y))) + float(f(chart.coords(z)))
        fold.add((x, y, z, lhs, rhs), _rel(lhs, rhs))
    return fold.report("mult-function", seed)


def sample_triples(chart, samples, seed):
    rng = np.random.default_rng(seed)
    return [tuple(chart.sample(rng) for _ in range(3)) for _ in range(samples)]


def multiplicative_vector_field_check(fieldrule, triples, t_grid=(-0.5, -0.1, 0.1, 0.5),
                                      tol=FLOW_TOL, seed=None, step=RK4_STEP):
    """Flow-homomorphism test on the +-+ heap of R^k.

    Integrates the flow of the field with fixed-step RK4 and checks
    Phi_t(x - y + z) = Phi_t(x) - Phi_t(y) + Phi_t(z) on every triple and
    every t in the grid.  Returns the first failing (t, triple) witness.
    """
    fold = _Fold(tol)
    for x, y, z in triples:
        x, y, z = (np.asarray(p, dtype=float) for p in (x, y, z))
        for t in t_grid:
            lhs = _rk4(fieldrule, x - y + z, t, step)
            rhs = _rk4(fieldrule, x, t, step) - _rk4(fieldrule, y, t, step) + _rk4(fieldrule, z, t, step)
            fold.add((t, (x, y, z), lhs, rhs), rel_norm(lhs - rhs, lhs, rhs))
    return fold.report("mult-field", seed)


def d_mu(chart, g, vs):
    """Analytic differential of the ternary product at (g1,g2,g3).

    d mu(V1,V2,V3) = V1 g2^-1 g3 - g1 g2^-1 V2 g2^-1 g3 + g1 g2^-1 V3.
    """
    g1, g2, g3 = g
    v1, v2, v3 = vs
    s23 = solve(g2, g3)
    return v1 @ s23 - g1 @ solve(g2, v2) @ s23 + g1 @ solve(g2, v3)


def tangent_semiheap_check(chart, samples, seed, tol=1e-6, h=None):
    """Para-associativity of the tangent lift, with an FD cross-check on d mu.

    Tangent points are pairs (g, V); the lifted product is
    (mu(g), d mu(V)).  The differential is evaluated analytically and
    cross-checked by central differences along tangent curves; then the
    lifted product is checked para-associative on sampled quintuples in
    both components.
    """
    h = chart.h if h is None else h
    rng = np.random.default_rng(seed)
    fold = _Fold(tol, "fd_residual", "para_residual")

    def t_mu(*triple):
        gs = [p[0] for p in triple]
        return (mu(chart, *gs), d_mu(chart, gs, [p[1] for p in triple]))

    for i in range(samples):
        pts = [chart.sample(rng) for _ in range(5)]
        vecs = [chart.random_tangent(g, rng) for g in pts]
        lifted = d_mu(chart, pts[:3], vecs[:3])
        algs = [chart.project_algebra(solve(g, v)) for g, v in zip(pts[:3], vecs[:3])]

        def curve_mu(t):
            return mu(chart, *(g @ chart.exp_tangent(t * a) for g, a in zip(pts[:3], algs)))

        fold.add(i, rel_norm(lifted - _central(curve_mu, h), lifted), part="fd_residual")
        outer, middle, inner = _para_forms(t_mu, list(zip(pts, vecs)))
        for b in (middle, inner):
            fold.add(i, rel_norm(outer[0] - b[0], outer[0]),
                     rel_norm(outer[1] - b[1], outer[1], b[1]), part="para_residual")
    return fold.report("tangent-lift", seed, **fold.parts)


# --- polynomial scalar fields over chart coordinates ---------------------

@dataclass(frozen=True)
class PolynomialField:
    """Sum of monomials over chart coordinates: {exponent tuple: coefficient}."""

    terms: tuple   # ((exponents, coeff), ...) with exponents a tuple of coord indices

    def __call__(self, coords):
        total = 0.0
        for exps, coeff in self.terms:
            m = coeff
            for i in exps:
                m *= coords[i]
            total += m
        return total

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
    def random(cls, n_coords, degree, rng, n_terms=6):
        terms = []
        for _ in range(n_terms):
            d = int(rng.integers(0, degree + 1))
            exps = tuple(sorted(int(rng.integers(0, n_coords)) for _ in range(d)))
            terms.append((exps, float(rng.normal())))
        return _merged(terms)


def _merged(terms):
    """The field of (exponents, coefficient) terms, like terms summed in order."""
    merged = {}
    for exps, coeff in terms:
        merged[exps] = merged.get(exps, 0.0) + coeff
    return PolynomialField(tuple(sorted(merged.items())))


def coassociativity_check(chart, samples, seed, tol=1e-10, degree=3, fields=None):
    """The four comultiplication properties, evaluated pointwise.

    With Delta f = f . mu: linearity, multiplicativity over products of
    functions, preservation of the unit, and agreement of the three
    para-coassociative composites on sampled quintuples.  fields may
    supply an explicit (f1, f2) pair; by default two random polynomials
    of the given degree are drawn from the seed.
    """
    rng = np.random.default_rng(seed)
    ncoords = chart.coords(chart.basepoint).shape[0]
    if fields is None:
        f1 = PolynomialField.random(ncoords, degree, rng)
        f2 = PolynomialField.random(ncoords, degree, rng)
    else:
        f1, f2 = fields
    a, b = float(rng.normal()), float(rng.normal())
    fold = _Fold(tol, "linear", "multiplicative", "unit", "para-coassoc")
    for i in range(samples):
        g = [chart.sample(rng) for _ in range(5)]
        cm = chart.coords(mu(chart, *g[:3]))
        fold.add(i, _rel((a * f1 + b * f2)(cm), a * f1(cm) + b * f2(cm)), part="linear")
        fold.add(i, _rel((f1 * f2)(cm), f1(cm) * f2(cm)), part="multiplicative")
        fold.add(i, abs(PolynomialField.constant(1.0)(cm) - 1.0), part="unit")
        outer, middle, inner = (f1(chart.coords(m)) for m in _para_forms(partial(mu, chart), g))
        fold.add(i, _rel(outer, middle, inner), _rel(outer, inner, middle), part="para-coassoc")
    return fold.report("coassociativity", seed, **fold.parts)


def euclidean_semiheap_check(n, samples, seed, tol=1e-12):
    """Identities of the inner-product semiheap [X,Y,Z] = X (Y . Z) on R^n.

    Checks the scalar driver identity, para-associativity of the vector
    product, and the fiberwise bundle action compatibility
    v d(x1,x2) d(x3,x4) = v d(x1, x2 d(x3,x4)).
    """
    rng = np.random.default_rng(seed)
    g = np.dot
    fold = _Fold(tol)
    for i in range(samples):
        w, x, y, z, q = (rng.normal(size=n) for _ in range(5))
        s1 = g(w, x) * g(y, z)
        s2 = g(w, x * g(y, z))
        s3 = g(y, g(x, w) * z)
        scale = max(1.0, abs(s1))
        fold.add(i, abs(s1 - s2) / scale, abs(s1 - s3) / scale)
        outer, middle, inner = _para_forms(lambda a, b, c: a * g(b, c), [w, x, y, z, q])
        fold.add(i, rel_norm(outer - middle, outer), rel_norm(outer - inner, outer))
        v = rng.normal(size=n)
        lhs = v * g(w, x) * g(y, z)
        rhs = v * g(w, x * g(y, z))
        fold.add(i, rel_norm(lhs - rhs, lhs))
    return fold.report("euclidean", seed)


def exp_hom_check(samples, seed, tol=1e-12, span=3.0):
    """e^(x - y + z) = e^x (e^y)^-1 e^z on sampled real triples.

    The additive heap maps to the multiplicative heap with 0 -> 1, as a
    pointed-heap homomorphism.
    """
    rng = np.random.default_rng(seed)
    fold = _Fold(tol)
    for i in range(samples):
        x, y, z = rng.uniform(-span, span, size=3)
        lhs = math.exp(x - y + z)
        rhs = math.exp(x) * (1.0 / math.exp(y)) * math.exp(z)
        fold.add(i, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return fold.report("exp-hom", seed, basepoint_ok=math.exp(0.0) == 1.0)
