"""numeric: sampled heap checks on the bundled matrix charts.

Every check must pass its stated tolerance, and its residual must repeat
bit for bit in every round, since each operation keeps its seed.  The
bracket's commutator must equal the closed-form structure constants, the
pushforward ratio must lie in [3.5, 4.5], and the quadratic
mult-function on r2 and r3 must fail with a witness that fails when
recomputed from coordinates here.
"""

import numpy as np

from common import Op, expect, first_problem
from semiheap import numeric
from semiheap.charts import bundled_charts
from semiheap.numeric import PolynomialField

CHARTS = ("so2", "so3", "ut2", "r1", "r2", "r3", "rx")
SAMPLED = {
    "para-assoc": lambda c, k, seed: numeric.check_para_associative_numeric(c, k, seed),
    "left-invariant": lambda c, k, seed: numeric.left_invariant_field_check(c, c.basis[0], k, seed),
    "group-vs-heap": lambda c, k, seed: numeric.compare_group_vs_heap_invariance(c, c.basis[0], k, seed),
    "tangent": lambda c, k, seed: numeric.tangent_semiheap_check(c, k, seed),
    "coassoc": lambda c, k, seed: numeric.coassociativity_check(c, k, seed, fields=_fields(c, seed)),
}
SAMPLES = 30
# Charts whose exponential is not linear, so the central difference has an
# h^2 error term and halving h divides the residual by about 4.
PUSHFORWARD = ("so2", "so3", "ut2", "rx")
# Closed-form commutators [basis[0], basis[1]] (basis[0] with itself when dim 1).
BRACKETS = {
    "so3": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],   # [Lx, Ly] = Lz
    "ut2": [[0.0, 1.0], [0.0, 0.0]],                               # [E11, E12] = E12
    "r2": [[0.0] * 3 for _ in range(3)],
    "so2": [[0.0] * 2 for _ in range(2)],
}
BRACKET_SAMPLES = 30
# f = sum of coordinates is multiplicative on the translation charts;
# f = coord0^2 is not, and must be caught.
MULT_FUNCTIONS = (("linear", "r1"), ("linear", "r2"), ("linear", "r3"), ("square", "r2"), ("square", "r3"))
FIELD_TRIPLES = 4


def _fields(chart, seed):
    """Two cubic polynomials of fixed shape with seeded coefficients.

    The check's own random polynomials vary in length with the seed, and
    so would the work per round.
    """
    rng = np.random.default_rng(seed)
    last = chart.coords(chart.basepoint).shape[0] - 1
    out = []
    for _ in range(2):
        f = PolynomialField.constant(rng.normal())
        for exps in ((0,), (last,), (0, last), (0, 0), (0, 0, last)):
            f = f + PolynomialField(((exps, float(rng.normal())),))
        out.append(f)
    return tuple(out)


def _repeatable(check):
    """Wrap a report check so the residual must also equal the first round's."""
    first = {}

    def wrapped(out):
        residual = out[0] if isinstance(out, tuple) else out.max_residual
        first.setdefault("residual", residual)
        return first_problem(check(out), expect(residual == first["residual"],
                                                f"residual {residual!r}, first round {first['residual']!r}"))
    return wrapped


def _passes(seed, **extra):
    def check(r):
        return first_problem(
            expect(r.passed and r.max_residual < r.tol, f"{r.check}: residual {r.max_residual:.3e} >= {r.tol:g}"),
            expect(r.seed == seed, f"report seed {r.seed}, ran with {seed}"),
            *(expect(r.extra.get(k) == v, f"{r.check}: {k} = {r.extra.get(k)}") for k, v in extra.items()))
    return check


def _sampled(tr, name, seed, fn, *args, samples, layer="numeric.sampled", **extra):
    def run():
        with tr.span(layer, samples=samples):
            return fn(*args)
    return Op(name, run, _repeatable(_passes(seed, **extra)))


def _square_witness():
    """Check a failing mult-function witness of f = coord0^2 on a translation chart."""
    def check(r):
        if r.passed or r.witness is None:
            return "quadratic function passed as multiplicative"
        x, y, z, lhs, rhs = r.witness
        cx, cy, cz = (float(g[0][-1]) for g in (x.tolist(), y.tolist(), z.tolist()))
        own_lhs, own_rhs = (cx - cy + cz) ** 2, cx ** 2 - cy ** 2 + cz ** 2
        scale = max(1.0, abs(own_lhs), abs(own_rhs))
        return first_problem(
            expect(abs(lhs - own_lhs) <= 1e-12 * scale and abs(rhs - own_rhs) <= 1e-12 * scale,
                   f"witness values ({lhs}, {rhs}), coordinates give ({own_lhs}, {own_rhs})"),
            expect(abs(own_lhs - own_rhs) / scale >= r.tol, "witness does not fail"))
    return check


def build(ctx):
    tr = ctx.tracer
    charts = bundled_charts()
    rng = ctx.rng("numeric")

    def seed():
        return int(rng.integers(0, 2 ** 31))

    ops = []
    for name in CHARTS:
        c = charts[name]
        for check, fn in SAMPLED.items():
            s = seed()
            extra = {"exact": True} if check == "group-vs-heap" else {}
            ops.append(_sampled(tr, f"{check}/{name}", s, fn, c, SAMPLES, s, samples=SAMPLES, **extra))
    for name in PUSHFORWARD:
        c, s = charts[name], seed()

        def run(c=c, s=s):
            with tr.span("numeric.sampled", samples=SAMPLES):
                return numeric.pushforward_convergence(c, SAMPLES, s)
        ops.append(Op(f"pushforward/{name}", run, _repeatable(
            lambda out: expect(3.5 <= out[2] <= 4.5 and out[0] > 0 and out[1] > 0, f"ratio {out[2]}"))))
    for name, commutator in BRACKETS.items():
        c, s = charts[name], seed()
        u, v = (c.basis[0], c.basis[1]) if c.dim >= 2 else (c.basis[0], c.basis[0])

        def run(c=c, u=u, v=v, s=s):
            with tr.span("numeric.flow", samples=BRACKET_SAMPLES):
                return numeric.bracket_closure(c, u, v, BRACKET_SAMPLES, s)

        def check(r, s=s, commutator=commutator):
            return first_problem(_passes(s, rank_ok=True)(r),
                                 expect(r.extra["commutator"].tolist() == commutator,
                                        f"commutator {r.extra['commutator'].tolist()}, want {commutator}"))
        ops.append(Op(f"bracket/{name}", run, _repeatable(check)))
    for kind, name in MULT_FUNCTIONS:
        c, s = charts[name], seed()
        ncoords = c.coords(c.basepoint).shape[0]
        f = PolynomialField((((0, 0), 1.0),)) if kind == "square" else PolynomialField.linear([1.0] * ncoords)
        triples = numeric.sample_triples(c, SAMPLES, s)

        def run(c=c, f=f, triples=triples, s=s):
            with tr.span("numeric.sampled", samples=len(triples)):
                return numeric.multiplicative_function_check(c, f, triples, seed=s)
        check = _square_witness() if kind == "square" else _passes(s)
        ops.append(Op(f"mult-function-{kind}/{name}", run, _repeatable(check)))
    s = seed()
    field_rng = np.random.default_rng(s)
    triples = [tuple(field_rng.uniform(-0.8, 0.8, size=1) for _ in range(3)) for _ in range(FIELD_TRIPLES)]
    ops.append(_sampled(tr, "mult-field/r1", s,
                        lambda s=s: numeric.multiplicative_vector_field_check(lambda y: y, triples, seed=s),
                        samples=FIELD_TRIPLES, layer="numeric.flow"))
    s = seed()
    ops.append(_sampled(tr, "euclidean/r3", s, numeric.euclidean_semiheap_check, 3, SAMPLES, s, samples=SAMPLES))
    s = seed()
    ops.append(_sampled(tr, "exp-hom/r1", s, numeric.exp_hom_check, SAMPLES, s, samples=SAMPLES,
                        basepoint_ok=True))
    return ops
