"""Numerical verification of heap laws on matrix groups.

Analytic pushforward formulas are the primary route everywhere; central
finite differences along structure-exact tangent curves are the
independent oracle.  Every stochastic check takes a seed and echoes it in
its report, and flow integration is fixed-step classical RK4 so residuals
are reproducible to the bit.
"""

import math
from dataclasses import dataclass, field

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


def _report(check, residual, tol, seed=None, witness=None, **extra):
    return CheckReport(check, float(residual), tol, bool(residual < tol),
                       seed=seed, witness=witness, extra=dict(extra))


def mu(chart, g1, g2, g3, membership_tol=1e-12):
    """g1 * g2^-1 * g3 via linear solve; the output must stay on the group."""
    for g in (g1, g2, g3):
        if chart.membership_residual(g) > membership_tol:
            raise ValueError(f"input leaves the {chart.name} chart")
    out = g1 @ solve(g2, g3)
    if chart.membership_residual(out) > membership_tol:
        raise ValueError(f"ternary product left the {chart.name} chart")
    return out


def check_para_associative_numeric(chart, samples, seed, tol=None):
    """Max pairwise residual of the three association orders on sampled quintuples."""
    tol = chart.tol if tol is None else tol
    rng = np.random.default_rng(seed)
    worst = 0.0
    membership_worst = 0.0
    for _ in range(samples):
        g = [chart.sample(rng) for _ in range(5)]
        outer = mu(chart, mu(chart, g[0], g[1], g[2]), g[3], g[4])
        middle = mu(chart, g[0], mu(chart, g[3], g[2], g[1]), g[4])
        inner = mu(chart, g[0], g[1], mu(chart, g[2], g[3], g[4]))
        worst = max(worst,
                    rel_norm(outer - middle, outer),
                    rel_norm(outer - inner, outer))
        membership_worst = max(membership_worst, chart.membership_residual(outer))
    return _report("para-assoc", worst, tol, seed=seed, membership=membership_worst)


def dL(chart, x, y, z, v, h=None, tangent_tol=1e-9):
    """Pushforward of the tangent vector v at z under L_{xy}.

    Returns (analytic value, residual against the central finite
    difference along the curve z exp(t z^-1 v)).  v must satisfy the
    linearized membership constraint at z.
    """
    h = chart.h if h is None else h
    if chart.tangent_residual(z, v) > tangent_tol:
        raise ValueError(f"vector is not tangent to the {chart.name} chart at the base point")
    analytic = x @ solve(y, v)
    a = chart.project_algebra(solve(z, v))

    def curve(t):
        return x @ solve(y, z @ chart.exp_tangent(t * a))

    fd = (curve(h) - curve(-h)) / (2.0 * h)
    return analytic, rel_norm(analytic - fd, analytic)


def pushforward_convergence(chart, samples, seed, h=1e-3):
    """Residual of the finite-difference pushforward at h and h/2.

    h defaults to 1e-3 so truncation error dominates roundoff and the
    second-order ratio is measurable; at much smaller h the subtraction
    noise of the central difference takes over.
    """
    rng = np.random.default_rng(seed)
    res_h = res_half = 0.0
    for _ in range(samples):
        x, y, z = (chart.sample(rng) for _ in range(3))
        v = chart.random_tangent(z, rng)
        res_h = max(res_h, dL(chart, x, y, z, v, h=h)[1])
        res_half = max(res_half, dL(chart, x, y, z, v, h=h / 2.0)[1])
    ratio = res_h / res_half if res_half > 0 else float("inf")
    return res_h, res_half, ratio


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
    worst = 0.0
    for _ in range(samples):
        x, y, z = (chart.sample(rng) for _ in range(3))
        vz = fieldrule(z)
        a = chart.project_algebra(solve(z, vz))

        def curve(t):
            return x @ solve(y, z @ chart.exp_tangent(t * a))

        fd = (curve(h) - curve(-h)) / (2.0 * h)
        target = fieldrule(mu(chart, x, y, z))
        worst = max(worst, rel_norm(fd - target, target))
    return _report("left-invariant", worst, tol, seed=seed)


def compare_group_vs_heap_invariance(chart, v, samples, seed, tol=1e-6):
    """The heap-sense rule x * x0^-1 * v and the group-sense rule x * v.

    With basepoint the identity these are the same analytic expression;
    equality is checked entrywise-exactly, not just in norm.  The sampled
    heap-invariance condition at y = x0 must also reduce to group
    invariance within tol (finite differences).
    """
    rng = np.random.default_rng(seed)
    x0 = chart.basepoint
    exact = True
    worst = 0.0
    for _ in range(samples):
        x = chart.sample(rng)
        heap_form = x @ solve(x0, v)
        group_form = x @ v
        exact = exact and bool(np.array_equal(heap_form, group_form))
        a = chart.project_algebra(solve(chart.basepoint, v))

        def curve(t):
            # heap invariance specialized to y = x0: L_{x x0}(gamma(t))
            return x @ solve(x0, chart.exp_tangent(t * a))

        fd = (curve(chart.h) - curve(-chart.h)) / (2.0 * chart.h)
        group_target = x @ a
        worst = max(worst, rel_norm(fd - group_target, group_target))
    report = _report("group-vs-heap", worst, tol, seed=seed, exact=exact)
    return report


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
    worst = 0.0
    rank_ok = True
    for _ in range(samples):
        x = chart.sample(rng)

        def conjugated(s):
            moved = _rk4(flow_u, x, s)
            return _rk4(flow_u, field_v(moved), -s)

        bracket_fd = (conjugated(t) - conjugated(-t)) / (2.0 * t)
        worst = max(worst, rel_norm(bracket_fd - x @ w, x @ w))
        frame = np.stack([(x @ e).reshape(-1) for e in chart.basis])
        rank_ok = rank_ok and (np.linalg.matrix_rank(frame) == chart.dim)
    return _report("bracket", worst, tol, seed=seed, rank_ok=rank_ok, commutator=w)


def multiplicative_function_check(chart, f, triples, tol=1e-12, seed=None, pointed=True):
    """Check f([x,y,z]) = f(x) - f(y) + f(z) on the given triples.

    Returns the first failing triple as the witness.  Pointed charts also
    require f(basepoint) = 0.
    """
    if pointed:
        base_val = float(f(chart.coords(chart.basepoint)))
        if abs(base_val) > tol:
            return _report("mult-function", abs(base_val), tol, seed=seed,
                           witness=("basepoint", base_val))
    worst = 0.0
    witness = None
    for x, y, z in triples:
        lhs = float(f(chart.coords(mu(chart, x, y, z))))
        rhs = float(f(chart.coords(x))) - float(f(chart.coords(y))) + float(f(chart.coords(z)))
        r = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        if r > worst:
            worst = r
            if r >= tol and witness is None:
                witness = (x, y, z, lhs, rhs)
    return _report("mult-function", worst, tol, seed=seed, witness=witness)


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
    worst = 0.0
    witness = None
    for x, y, z in triples:
        x, y, z = (np.asarray(p, dtype=float) for p in (x, y, z))
        for t in t_grid:
            lhs = _rk4(fieldrule, x - y + z, t, step)
            rhs = _rk4(fieldrule, x, t, step) - _rk4(fieldrule, y, t, step) + _rk4(fieldrule, z, t, step)
            r = rel_norm(lhs - rhs, lhs, rhs)
            if r > worst:
                worst = r
                if r >= tol and witness is None:
                    witness = (t, (x, y, z), lhs, rhs)
    return _report("mult-field", worst, tol, seed=seed, witness=witness)


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
    worst_fd = 0.0
    worst_para = 0.0
    for _ in range(samples):
        pts = [chart.sample(rng) for _ in range(5)]
        vecs = [chart.random_tangent(g, rng) for g in pts]

        base = mu(chart, *pts[:3])
        lifted = d_mu(chart, pts[:3], vecs[:3])
        algs = [chart.project_algebra(solve(g, v)) for g, v in zip(pts[:3], vecs[:3])]

        def curve_mu(t):
            moved = [g @ chart.exp_tangent(t * a) for g, a in zip(pts[:3], algs)]
            return mu(chart, *moved)

        fd = (curve_mu(h) - curve_mu(-h)) / (2.0 * h)
        worst_fd = max(worst_fd, rel_norm(lifted - fd, lifted))

        def t_mu(triple):
            gs = [p[0] for p in triple]
            ws = [p[1] for p in triple]
            return (mu(chart, *gs), d_mu(chart, gs, ws))

        tp = list(zip(pts, vecs))
        outer = t_mu([t_mu(tp[:3]), tp[3], tp[4]])
        middle = t_mu([tp[0], t_mu([tp[3], tp[2], tp[1]]), tp[4]])
        inner = t_mu([tp[0], tp[1], t_mu(tp[2:5])])
        for a, b in ((outer, middle), (outer, inner)):
            worst_para = max(worst_para,
                             rel_norm(a[0] - b[0], a[0]),
                             rel_norm(a[1] - b[1], a[1], b[1]))
    worst = max(worst_fd, worst_para)
    return _report("tangent-lift", worst, tol, seed=seed,
                   fd_residual=worst_fd, para_residual=worst_para)


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
        merged = {}
        for exps, coeff in list(self.terms) + list(other.terms):
            merged[exps] = merged.get(exps, 0.0) + coeff
        return PolynomialField(tuple(sorted(merged.items())))

    def __mul__(self, other):
        if np.isscalar(other):
            return PolynomialField(tuple((e, c * other) for e, c in self.terms))
        merged = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(sorted(e1 + e2))
                merged[key] = merged.get(key, 0.0) + c1 * c2
        return PolynomialField(tuple(sorted(merged.items())))

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
        merged = {}
        for e, c in terms:
            merged[e] = merged.get(e, 0.0) + c
        return cls(tuple(sorted(merged.items())))


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
    worst = {"linear": 0.0, "multiplicative": 0.0, "unit": 0.0, "para-coassoc": 0.0}
    for _ in range(samples):
        g = [chart.sample(rng) for _ in range(5)]
        m = mu(chart, *g[:3])
        cm = chart.coords(m)
        lin_lhs = (a * f1 + b * f2)(cm)
        lin_rhs = a * f1(cm) + b * f2(cm)
        worst["linear"] = max(worst["linear"],
                              abs(lin_lhs - lin_rhs) / max(1.0, abs(lin_lhs), abs(lin_rhs)))
        mult_lhs = (f1 * f2)(cm)
        mult_rhs = f1(cm) * f2(cm)
        worst["multiplicative"] = max(worst["multiplicative"],
                                      abs(mult_lhs - mult_rhs) / max(1.0, abs(mult_lhs), abs(mult_rhs)))
        worst["unit"] = max(worst["unit"], abs(PolynomialField.constant(1.0)(cm) - 1.0))
        outer = f1(chart.coords(mu(chart, mu(chart, g[0], g[1], g[2]), g[3], g[4])))
        middle = f1(chart.coords(mu(chart, g[0], mu(chart, g[3], g[2], g[1]), g[4])))
        inner = f1(chart.coords(mu(chart, g[0], g[1], mu(chart, g[2], g[3], g[4]))))
        scale = max(1.0, abs(outer), abs(middle), abs(inner))
        worst["para-coassoc"] = max(worst["para-coassoc"],
                                    abs(outer - middle) / scale, abs(outer - inner) / scale)
    total = max(worst.values())
    return _report("coassociativity", total, tol, seed=seed, **worst)


def euclidean_semiheap_check(n, samples, seed, tol=1e-12):
    """Identities of the inner-product semiheap [X,Y,Z] = X (Y . Z) on R^n.

    Checks the scalar driver identity, para-associativity of the vector
    product, and the fiberwise bundle action compatibility
    v d(x1,x2) d(x3,x4) = v d(x1, x2 d(x3,x4)).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        w, x, y, z, q = (rng.normal(size=n) for _ in range(5))
        g = np.dot
        s1 = g(w, x) * g(y, z)
        s2 = g(w, x * g(y, z))
        s3 = g(y, g(x, w) * z)
        scale = max(1.0, abs(s1))
        worst = max(worst, abs(s1 - s2) / scale, abs(s1 - s3) / scale)

        def tern(a, b, c):
            return a * g(b, c)

        outer = tern(tern(w, x, y), z, q)
        middle = tern(w, tern(z, y, x), q)
        inner = tern(w, x, tern(y, z, q))
        worst = max(worst,
                    rel_norm(outer - middle, outer),
                    rel_norm(outer - inner, outer))

        v = rng.normal(size=n)
        lhs = v * g(w, x) * g(y, z)
        rhs = v * g(w, x * g(y, z))
        worst = max(worst, rel_norm(lhs - rhs, lhs))
    return _report("euclidean", worst, tol, seed=seed)


def exp_hom_check(samples, seed, tol=1e-12, span=3.0):
    """e^(x - y + z) = e^x (e^y)^-1 e^z on sampled real triples.

    The additive heap maps to the multiplicative heap with 0 -> 1, as a
    pointed-heap homomorphism.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x, y, z = rng.uniform(-span, span, size=3)
        lhs = math.exp(x - y + z)
        rhs = math.exp(x) * (1.0 / math.exp(y)) * math.exp(z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    basepoint_ok = math.exp(0.0) == 1.0
    return _report("exp-hom", worst, tol, seed=seed, basepoint_ok=basepoint_ok)
