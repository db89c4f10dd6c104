"""Numerical verification of heap laws on matrix groups.

Analytic pushforward formulas are the primary route everywhere; central
finite differences along structure-exact tangent curves are the
independent oracle.  Every stochastic check takes a seed and echoes it in
its report, and flow integration is fixed-step classical RK4 so residuals
are reproducible to the bit.  A sampled check draws its samples in a
fixed per-sample order, then computes on stacks of at most charts.SLAB samples
with each sample's bits unchanged: sampled elements are checked once per slab,
and an identity's forms and a central difference's steps (+-h, and h with
h/2 in pushforward) are each one stack.  A NaN residual fails its report,
and a failing report names its first failing sample.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .charts import FD_STEP, PARA_TOL, PolynomialField, _elementwise, rel_norm, slabs, solve

RK4_STEP = 1e-3
FLOW_TOL = 1e-6
MEMBERSHIP_TOL = 1e-12      # how far mu's inputs and output may leave the group
TANGENT_TOL = 1e-9          # how far dL's vector may leave the tangent space
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


class _Fold:
    """The running worst residual of a sampled check, in constant memory.

    Residuals come as arrays, a slab at a time; flat position i (C order)
    is sample start + i.  A NaN is the worst residual (Python's max would
    drop it) and fails the report.  witness names the first sample, in
    draw order, whose residual is NaN or at least tol or that fails a
    requirement: by its number, or by the witness function given for it.
    Residuals added under a part name are also kept for the extras.
    """

    def __init__(self, tol=math.inf, *parts):
        self.tol, self.worst, self.failed, self.first, self.witness = tol, 0.0, False, None, None
        self.parts = dict.fromkeys(parts, 0.0)

    def add(self, start, *residuals, part=None, witness=None):
        for r in map(np.ravel, residuals):
            self._first_of(start, ~(r < self.tol), witness)
            self.worst = float(np.maximum(self.worst, r.max(initial=0.0)))     # a NaN stays
            if part is not None:
                self.parts[part] = float(np.maximum(self.parts[part], r.max(initial=0.0)))

    def require(self, start, ok, witness=None):
        """Fail the samples where ok is false, whatever their residuals."""
        ok = np.ravel(ok)
        self.failed = self.failed or not ok.all()
        self._first_of(start, ~ok, witness)

    def _first_of(self, start, bad, witness):
        bad = np.flatnonzero(bad)
        if bad.size and (self.first is None or start + bad[0] < self.first):
            self.first = start + int(bad[0])
            self.witness = self.first if witness is None else witness(int(bad[0]))

    def report(self, check, seed, **extra):
        passed = bool(self.worst < self.tol) and not self.failed
        return CheckReport(check, self.worst, self.tol, passed, seed=seed, witness=self.witness, extra=extra)


def _rel(a, b, *more):
    """|a - b| relative to max(1, |a|, |b|, |more|...) elementwise; like max(), fmax skips a NaN."""
    return np.abs(a - b) / np.fmax.reduce([np.ones_like(a), *map(np.abs, (a, b, *more))])


def _central(curve, h, ndim):
    """(curve(h) - curve(-h)) / 2h of ndim-dim values, curve taking +-h on a new leading axis, then h's own."""
    h = np.reshape(h, np.shape(h) + (1,) * ndim)
    return np.subtract(*curve(np.stack([h, -h]))) / (2.0 * h)


def _pushforward_fd(chart, x, y, z, v, h):
    """L_{xy} pushed along the tangent curve z exp(t z^-1 v), by central difference."""
    a = chart.project_algebra(solve(z, v))
    return _central(lambda t: x @ solve(y, z @ chart.exp_tangent(t * a)), h, max(map(np.ndim, (x, y, z, v))))


def _para_forms(op, g):
    """[g0,g1,g2], [g3,g2,g1], [g2,g3,g4], then [[g0,g1,g2],g3,g4], [g0,[g3,g2,g1],g4] and [g0,g1,[g2,g3,g4]]:
    op gets the three inner products stacked on a new leading axis, then the three outer ones."""
    i = op(*map(np.stack, ((g[0], g[3], g[2]), (g[1], g[2], g[3]), (g[2], g[1], g[4]))))
    return i, op(*map(np.stack, ((i[0], g[0], g[0]), (g[3], i[1], g[1]), (g[4], g[4], i[2]))))


def _on_chart(chart, g, message):
    if not np.all(chart.membership_residual(g) <= MEMBERSHIP_TOL):
        raise ValueError(f"{message} the {chart.name} chart")
    return g


def mu(chart, g1, g2, g3):
    """g1 * g2^-1 * g3 via linear solve, per matrix on stacks; inputs and output must stay on the group."""
    _on_chart(chart, np.stack(np.broadcast_arrays(g1, g2, g3)), "input leaves")
    return _mu(chart, g1, g2, g3)


def _mu(chart, g1, g2, g3):
    """mu on inputs already checked on the group: only the output is checked."""
    return _on_chart(chart, g1 @ solve(g2, g3), "ternary product left")


def check_para_associative_numeric(chart, samples, seed, tol=PARA_TOL):
    """Max pairwise residual of the three association orders on sampled quintuples."""
    fold, membership = _Fold(tol), _Fold()
    for start, g, _ in chart.sample_slabs(np.random.default_rng(seed), samples, 5):
        _on_chart(chart, g, "input leaves")
        _, (outer, middle, inner) = _para_forms(partial(_mu, chart), g)
        fold.add(start, rel_norm(outer - middle, outer), rel_norm(outer - inner, outer))
        membership.add(start, chart.membership_residual(outer))
    return fold.report("para-assoc", seed, membership=membership.worst)


def dL(chart, x, y, z, v, h=FD_STEP):
    """Pushforward of the tangent vector v at z under L_{xy}.

    Returns (analytic value, residual against the central finite
    difference along the curve z exp(t z^-1 v)), per sample on stacks and
    per step of a 1-d array h on a leading axis.  v must satisfy the
    linearized membership constraint at z.
    """
    if not np.all(chart.tangent_residual(z, v) <= TANGENT_TOL):
        raise ValueError(f"vector is not tangent to the {chart.name} chart at the base point")
    analytic = x @ solve(y, v)
    return analytic, rel_norm(analytic - _pushforward_fd(chart, x, y, z, v, h), analytic)


def pushforward_convergence(chart, samples, seed, h=1e-3):
    """Residual of the finite-difference pushforward at h and h/2.

    h defaults to 1e-3 so truncation error dominates roundoff and the
    second-order ratio is measurable; at much smaller h the subtraction
    noise of the central difference takes over.
    """
    res_h, res_half = _Fold(), _Fold()
    for start, (x, y, z), (a,) in chart.sample_slabs(np.random.default_rng(seed), samples, 3, tangents=1):
        for fold, res in zip((res_h, res_half), dL(chart, x, y, z, z @ a, h=np.array([h, h / 2.0]))[1]):
            fold.add(start, res)
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


def left_invariant_field_check(chart, v, samples, seed, tol=1e-6, h=FD_STEP):
    """Finite-difference invariance of the field generated by v.

    The pushforward of V(z) under L_{xy} is compared with V([x,y,z]); the
    value at the basepoint must reproduce v exactly.
    """
    fieldrule = left_invariant_field(chart, v)
    if not np.array_equal(fieldrule(chart.basepoint), v):
        raise AssertionError("field must reproduce its generator at the basepoint")
    fold = _Fold(tol)
    for start, (x, y, z), _ in chart.sample_slabs(np.random.default_rng(seed), samples, 3):
        target = fieldrule(mu(chart, x, y, z))
        fold.add(start, rel_norm(_pushforward_fd(chart, x, y, z, fieldrule(z), h) - target, target))
    return fold.report("left-invariant", seed)


def compare_group_vs_heap_invariance(chart, v, samples, seed, tol=1e-6):
    """The heap-sense rule x * x0^-1 * v and the group-sense rule x * v.

    With basepoint the identity these are the same analytic expression;
    equality is checked entrywise-exactly per sample, not just in norm.
    The sampled heap-invariance condition at y = z = x0 must also reduce
    to group invariance within tol (finite differences).
    """
    x0 = chart.basepoint
    a = chart.project_algebra(solve(x0, v))
    fold = _Fold(tol)
    for start, (x,), _ in chart.sample_slabs(np.random.default_rng(seed), samples, 1):
        fold.require(start, (x @ solve(x0, v) == x @ v).all(axis=(-2, -1)))
        target = x @ a
        fold.add(start, rel_norm(_pushforward_fd(chart, x, x0, x0, v, FD_STEP) - target, target))
    return fold.report("group-vs-heap", seed, exact=not fold.failed)


def _rk4(fieldrule, y0, t):
    """Classical fixed-step RK4 from y0, any stack of points, over signed durations t that broadcast against y0
    and vary along one axis at most.  Each element takes ceil(|t| / RK4_STEP) steps of t / that count (none at
    t = 0), with its own call's bits, in phases, one per distinct count: after its last step an element leaves
    the stack, and the rule is not called on it again."""
    y = np.array(np.broadcast_to(y0, np.broadcast_shapes(np.shape(y0), np.shape(t))), dtype=float)
    t = np.reshape(t, (1,) * (y.ndim - np.ndim(t)) + np.shape(t))      # t's axes line up with y's
    counts = np.ceil(np.abs(t) / RK4_STEP)      # at least 1 where t != 0: |t| / RK4_STEP is then above 0
    h, done = t / np.maximum(counts, 1), 0
    for count in sorted(set(counts.ravel().tolist()) - {0.0}):
        live = np.flatnonzero(counts.ravel() >= count)        # along t's axis; all of y while all of t flows
        at = () if live.size == counts.size else (slice(None),) * int(np.argmax(t.shape)) + (live,)
        ya, ha, half, sixth = y[at], h[at], 0.5 * h[at], h[at] / 6.0
        for _ in range(int(count) - done):
            k1 = fieldrule(ya)
            k2 = fieldrule(ya + half * k1)
            k3 = fieldrule(ya + half * k2)
            k4 = fieldrule(ya + ha * k3)
            ya = ya + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[at], done = ya, int(count)
    return y


def bracket_closure(chart, u, v, samples, seed, tol=BRACKET_TOL):
    """Commutator of the invariant fields of u and v, by flow differences.

    The Lie-derivative quotient (dPhi^U_{-t}) V(Phi^U_t x), centered at t = +-1e-3,
    is computed with RK4-integrated flows; the RK4 map of a right-linear
    field is itself linear, so it doubles as its own pushforward.  The
    result must match the invariant field of the matrix commutator
    [u, v] = uv - vu, and the frame of basis fields must have full rank at
    every sampled point: a sample where it does not fails the report.
    """
    au, av = chart.project_algebra(u), chart.project_algebra(v)
    w = au @ av - av @ au
    flow_u = lambda y: y @ au
    fold = _Fold(tol)
    for start, (x,), _ in chart.sample_slabs(np.random.default_rng(seed), samples, 1):
        conjugated = lambda s: _rk4(flow_u, _rk4(flow_u, x, s) @ av, -s)
        fold.add(start, rel_norm(_central(conjugated, 1e-3, x.ndim) - x @ w, x @ w))
        frame = np.stack([(x @ e).reshape(len(x), -1) for e in chart.basis], axis=-2)
        fold.require(start, np.linalg.matrix_rank(frame) == chart.dim)
    return fold.report("bracket", seed, rank_ok=not fold.failed, commutator=w)


def multiplicative_function_check(chart, f, triples, tol=1e-12, seed=None, pointed=True):
    """Check f([x,y,z]) = f(x) - f(y) + f(z) on the given triples.

    f is called once per slab, on the (4, m, ncoords) stack of the coordinates of [x,y,z], x, y and z, and
    must return one value per point from that point's coordinates alone, as a PolynomialField does: its
    first value in each row is checked against a single-point call, and an f that breaks this raises
    ValueError.  Returns the first failing triple as the witness.  Pointed charts also require f(basepoint) = 0.
    """
    fold = _Fold(tol)
    if pointed:
        base_val = float(f(chart.coords(chart.basepoint)))
        if not abs(base_val) <= tol:
            fold.add(0, abs(base_val), witness=lambda _: ("basepoint", base_val))
            return fold.report("mult-function", seed)
    for start, slab in slabs(triples):
        x, y, z = (np.array([triple[i] for triple in slab]) for i in range(3))
        coords = np.stack([chart.coords(g) for g in (mu(chart, x, y, z), x, y, z)])
        try:
            v = np.broadcast_to(np.asarray(f(coords), dtype=float), coords.shape[:-1])
            ok = np.allclose(v[:, 0], [float(f(c)) for c in coords[:, 0]], rtol=1e-12, atol=1e-12, equal_nan=True)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError("f must map a stack of coordinates to one value per point, from that point alone")
        lhs, rhs = v[0], v[1] - v[2] + v[3]
        fold.add(start, _rel(lhs, rhs), witness=lambda i: (*slab[i], float(lhs[i]), float(rhs[i])))
    return fold.report("mult-function", seed)


def sample_triples(chart, samples, seed):
    return list(_triples(chart, samples, seed))


def _triples(chart, samples, seed):
    """The seeded triples of sample_triples, drawn a slab at a time as they are read."""
    return (triple for _, g, _ in chart.sample_slabs(np.random.default_rng(seed), samples, 3) for triple in zip(*g))


def multiplicative_vector_field_check(fieldrule, triples, t_grid=(-0.5, -0.1, 0.1, 0.5),
                                      tol=FLOW_TOL, seed=None):
    """Flow-homomorphism test on the +-+ heap of R^k.

    Integrates the flow of the field with fixed-step RK4 and checks
    Phi_t(x - y + z) = Phi_t(x) - Phi_t(y) + Phi_t(z) on every triple and
    every t in the grid.  Returns the first failing (t, triple) witness,
    in triple-major order; an empty grid passes with residual 0.

    The points of a slab of triples flow together, every t of the grid in
    one _rk4 call, so fieldrule gets a (k, m) stack of points, one per
    column, and must return the field at each column from that column
    alone: y, y * y, np.full_like(y, c), np.sqrt(y - 1), A @ y and y[0] all
    do.  Its values are checked against single points, column by column,
    and a rule that breaks the contract raises ValueError.
    """
    t_grid, fold = tuple(t_grid), _Fold(tol)
    for start, slab in slabs(triples):
        slab = [tuple(np.asarray(p, dtype=float) for p in triple) for triple in slab]
        x, y, z = (np.stack([triple[i] for triple in slab], axis=-1) for i in range(3))
        points, m, nt = np.concatenate([x - y + z, x, y, z], axis=-1), len(slab), len(t_grid)
        try:
            ok = np.allclose(np.broadcast_to(fieldrule(points), points.shape), np.transpose(
                [np.broadcast_to(fieldrule(p), p.shape) for p in points.T]), rtol=1e-12, atol=1e-12, equal_nan=True)
        except ValueError:
            ok = False
        if not ok:
            raise ValueError("a field rule maps a (k, m) stack of points, one point per column, "
                             "to the field at each column, computed from that column alone")
        ends = _rk4(fieldrule, np.tile(points, nt), np.repeat(t_grid, 4 * m)).reshape(len(points), nt, 4, m)
        lhs, rhs = ends[:, :, 0], ends[:, :, 1] - ends[:, :, 2] + ends[:, :, 3]    # (k, t, triple)
        res = rel_norm(*(a.T[..., None, :] for a in (lhs - rhs, lhs, rhs)))      # (triple, t)
        fold.add(start * nt, res, witness=lambda q: (
            t_grid[q % nt], slab[q // nt], *(side[:, q % nt, q // nt].copy() for side in (lhs, rhs))))
    return fold.report("mult-field", seed)


def d_mu(chart, g, vs):
    """Analytic differential of the ternary product at (g1,g2,g3):
    d mu(V1,V2,V3) = V1 g2^-1 g3 - g1 g2^-1 V2 g2^-1 g3 + g1 g2^-1 V3."""
    return _mu_d_mu(g, vs)[1]


def _mu_d_mu(g, vs):
    """g1 g2^-1 g3 and d mu(vs) at g, from one solve of g2 against [g3, v2, v3]."""
    g1, g2, g3 = g
    v1, v2, v3 = vs
    s23, s2v2, s2v3 = solve(g2, np.stack(np.broadcast_arrays(g3, v2, v3)))
    return g1 @ s23, v1 @ s23 - g1 @ s2v2 @ s23 + g1 @ s2v3


def tangent_semiheap_check(chart, samples, seed, tol=1e-6, h=FD_STEP):
    """Para-associativity of the tangent lift, with an FD cross-check on d mu.

    Tangent points are pairs (g, V); the lifted product is
    (mu(g), d mu(V)).  The differential is evaluated analytically and
    cross-checked by central differences along tangent curves; then the
    lifted product is checked para-associative on sampled quintuples in
    both components.
    """
    fold = _Fold(tol, "fd_residual", "para_residual")
    def t_mu(*p):       # a tangent point is the stack [g, V]; t_mu gets stacks of them, g and V on axis 1
        out, lifted = _mu_d_mu([q[:, 0] for q in p], [q[:, 1] for q in p])
        return np.stack([_on_chart(chart, out, "ternary product left"), lifted], axis=1)
    for start, pts, algebra in chart.sample_slabs(np.random.default_rng(seed), samples, 5, tangents=5):
        _on_chart(chart, pts, "input leaves")
        vecs = pts @ algebra
        algs = chart.project_algebra(solve(pts[:3], vecs[:3]))
        fd = _central(lambda t: mu(chart, *(pts[:3] @ chart.exp_tangent(t * algs)).swapaxes(0, 1)), h, algs.ndim)
        firsts, (outer, middle, inner) = _para_forms(t_mu, np.stack([pts, vecs], axis=1))
        lifted = firsts[0, 1]           # d mu at (g0, g1, g2)
        fold.add(start, rel_norm(lifted - fd, lifted), part="fd_residual")
        for b in (middle, inner):
            fold.add(start, rel_norm(outer[0] - b[0], outer[0]),
                     rel_norm(outer[1] - b[1], outer[1], b[1]), part="para_residual")
    return fold.report("tangent-lift", seed, **fold.parts)


def coassociativity_check(chart, samples, seed, tol=1e-10, fields=None):
    """The four comultiplication properties, evaluated pointwise.

    With Delta f = f . mu: linearity, multiplicativity over products of
    functions, preservation of the unit, and agreement of the three
    para-coassociative composites on sampled quintuples.  fields may
    supply an explicit (f1, f2) pair, reading only the chart's
    coordinates (ValueError otherwise); by default two random polynomials
    of degree at most 3 are drawn from the seed.
    """
    rng, ncoords = np.random.default_rng(seed), chart.coords(chart.basepoint).shape[0]
    if fields is None:
        f1, f2 = (PolynomialField.random(ncoords, 3, rng) for _ in range(2))
    else:
        f1, f2 = fields
        for k, f in enumerate(fields):
            top = max((i for exps, _ in f.terms for i in exps), default=-1)
            if top >= ncoords:
                raise ValueError(f"fields[{k}] reads coordinate {top}, but chart {chart.name} "
                                 f"has {ncoords} coordinates")
    a, b = float(rng.normal()), float(rng.normal())
    fold = _Fold(tol, "linear", "multiplicative", "unit", "para-coassoc")
    for start, g, _ in chart.sample_slabs(rng, samples, 5):
        _on_chart(chart, g, "input leaves")
        cm = chart.coords(_mu(chart, *g[:3]))
        fold.add(start, _rel((a * f1 + b * f2)(cm), a * f1(cm) + b * f2(cm)), part="linear")
        fold.add(start, _rel((f1 * f2)(cm), f1(cm) * f2(cm)), part="multiplicative")
        fold.add(start, abs(PolynomialField.constant(1.0)(cm) - 1.0), part="unit")
        outer, middle, inner = f1(chart.coords(_para_forms(partial(_mu, chart), g)[1]))
        fold.add(start, _rel(outer, middle, inner), _rel(outer, inner, middle), part="para-coassoc")
    return fold.report("coassociativity", seed, **fold.parts)


def euclidean_semiheap_check(n, samples, seed, tol=1e-12):
    """Identities of the inner-product semiheap [X,Y,Z] = X (Y . Z) on R^n.

    Checks the scalar driver identity, para-associativity of the vector
    product, and the fiberwise bundle action compatibility
    v d(x1,x2) d(x3,x4) = v d(x1, x2 d(x3,x4)).
    """
    rng, fold = np.random.default_rng(seed), _Fold(tol)
    g = lambda a, b: np.vecdot(a, b)[..., None]       # kept as an axis, so products broadcast
    for start, slab in slabs(range(samples)):
        # each sample draws w, x, y, z, q and then v, kept as (1, n) rows so rel_norm takes vector norms
        w, x, y, z, q, v = rng.normal(size=(len(slab), 6, 1, n)).swapaxes(0, 1)
        s1, s2, s3 = g(w, x) * g(y, z), g(w, x * g(y, z)), g(y, g(x, w) * z)
        scale = np.fmax(1.0, abs(s1))
        fold.add(start, abs(s1 - s2) / scale, abs(s1 - s3) / scale)
        _, (outer, middle, inner) = _para_forms(lambda a, b, c: a * g(b, c), [w, x, y, z, q])
        fold.add(start, rel_norm(outer - middle, outer), rel_norm(outer - inner, outer))
        lhs = v * g(w, x) * g(y, z)
        rhs = v * g(w, x * g(y, z))
        fold.add(start, rel_norm(lhs - rhs, lhs))
    return fold.report("euclidean", seed)


def exp_hom_check(samples, seed, tol=1e-12):
    """e^(x - y + z) = e^x (e^y)^-1 e^z on real triples sampled uniformly from [-3, 3]^3.

    The additive heap maps to the multiplicative heap with 0 -> 1, as a
    pointed-heap homomorphism; a basepoint not sent to 1 fails the report.
    """
    rng, fold = np.random.default_rng(seed), _Fold(tol)
    fold.require(0, math.exp(0.0) == 1.0, witness=lambda _: "basepoint")
    for start, slab in slabs(range(samples)):
        lhs, rhs = _elementwise(lambda x, y, z: (math.exp(x - y + z), math.exp(x) * (1.0 / math.exp(y)) * math.exp(z)),
                                *rng.uniform(-3.0, 3.0, size=(len(slab), 3)).T)
        fold.add(start, abs(lhs - rhs) / np.fmax(1.0, abs(lhs)))
    return fold.report("exp-hom", seed, basepoint_ok=not fold.failed)
