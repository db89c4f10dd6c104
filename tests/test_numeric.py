import dataclasses
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from semiheap import charts
from semiheap.charts import bundled_charts, rel_norm, solve
from semiheap.numeric import (
    PolynomialField,
    bracket_closure,
    check_para_associative_numeric,
    coassociativity_check,
    compare_group_vs_heap_invariance,
    d_mu,
    dL,
    euclidean_semiheap_check,
    exp_hom_check,
    left_invariant_field,
    left_invariant_field_check,
    mu,
    multiplicative_function_check,
    multiplicative_vector_field_check,
    pushforward_convergence,
    sample_triples,
    tangent_semiheap_check,
)
from semiheap.numeric import RK4_STEP, _rk4

import oracles
from oracles import coassociativity_residuals_loops, tangent_residuals_loops

CHARTS = bundled_charts()


def translation(v):
    n = len(v)
    g = np.eye(n + 1)
    g[:n, n] = v
    return g


def test_mu_identity_cases():
    chart = CHARTS["so3"]
    rng = np.random.default_rng(0)
    g = chart.sample(rng)
    assert rel_norm(mu(chart, g, g, g) - g, g) < 1e-14
    gi = mu(chart, chart.basepoint, g, chart.basepoint)
    assert rel_norm(gi - np.linalg.inv(g), gi) < 1e-12


def test_mu_membership_guard():
    chart = CHARTS["so3"]
    with pytest.raises(ValueError):
        mu(chart, np.eye(3) * 2.0, np.eye(3), np.eye(3))


def test_solve_condition_guard():
    with pytest.raises(ValueError):
        solve(np.array([[1.0, 0.0], [0.0, 1e-14]]), np.eye(2))


def test_solve_refuses_a_matrix_whose_inverse_overflows():
    # cond_F is NaN at these scales, so the SVD decides: cond_2 = 1, but 1 / sigma_min is not finite
    b = np.ones((2, 1))
    for scale in (5e-324, 1e-310):
        with pytest.raises(ValueError, match="condition number"):
            solve(scale * np.eye(2), b)
    assert _same(solve(1e-200 * np.eye(2), b), np.linalg.solve(1e-200 * np.eye(2), b))


def test_para_associativity_all_charts():
    for name, chart in sorted(CHARTS.items()):
        r = check_para_associative_numeric(chart, 100, 42)
        assert r.passed, (name, r.max_residual)
        assert r.extra["membership"] < 1e-12


def test_r3_para_associativity_machine_exact():
    r = check_para_associative_numeric(CHARTS["r3"], 200, 42, tol=1e-14)
    assert r.passed


def test_dL_identity_at_basepoint():
    chart = CHARTS["so3"]
    rng = np.random.default_rng(1)
    v = chart.random_tangent(chart.basepoint, rng)
    analytic, res = dL(chart, chart.basepoint, chart.basepoint, chart.basepoint, v)
    assert np.allclose(analytic, v)
    assert res < 1e-6


def test_dL_is_identity_on_translations():
    chart = CHARTS["r2"]
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y, z = (chart.sample(rng) for _ in range(3))
        v = chart.random_tangent(z, rng)
        analytic, res = dL(chart, x, y, z, v)
        assert np.allclose(analytic, v)
        assert res < 1e-9


def test_sampled_elements_and_tangents_satisfy_constraints():
    for name, chart in sorted(CHARTS.items()):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = chart.sample(rng)
            assert chart.membership_residual(g) < 1e-12, name
            v = chart.random_tangent(g, rng)
            assert chart.tangent_residual(g, v) < 1e-9, name


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_project_algebra_fixes_basis_and_is_idempotent(name):
    chart = CHARTS[name]
    for e in chart.basis:
        assert np.array_equal(chart.project_algebra(e), e)
    a = np.random.default_rng(41).normal(size=(chart.dim_matrix, chart.dim_matrix))
    once = chart.project_algebra(a)
    assert np.array_equal(chart.project_algebra(once), once)


def test_dL_rejects_non_tangent_vector():
    chart = CHARTS["so3"]
    with pytest.raises(ValueError, match="not tangent"):
        dL(chart, chart.basepoint, chart.basepoint, chart.basepoint, np.eye(3))


def test_dL_finite_difference_agreement_so3():
    chart = CHARTS["so3"]
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        x, y, z = (chart.sample(rng) for _ in range(3))
        v = chart.random_tangent(z, rng)
        worst = max(worst, dL(chart, x, y, z, v)[1])
    assert worst < 1e-6


def test_pushforward_second_order_convergence():
    res_h, res_half, ratio = pushforward_convergence(CHARTS["so3"], 50, 42, h=1e-3)
    assert 3.5 <= ratio <= 4.5
    assert res_half < res_h


def test_zero_field_invariance_is_exact():
    chart = CHARTS["so3"]
    r = left_invariant_field_check(chart, np.zeros((3, 3)), 20, 5)
    assert r.max_residual == 0.0


def test_constant_field_on_translations():
    chart = CHARTS["r3"]
    v = chart.basis[0] + 2.0 * chart.basis[2]
    rule = left_invariant_field(chart, v)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = chart.sample(rng)
        assert np.array_equal(rule(x), v)
    r = left_invariant_field_check(chart, v, 50, 4, tol=1e-9)
    assert r.passed


def test_left_invariant_field_so3():
    chart = CHARTS["so3"]
    r = left_invariant_field_check(chart, chart.basis[0], 100, 42)
    assert r.passed and r.max_residual < 1e-6


def test_group_vs_heap_field_forms():
    for name in ("so3", "ut2"):
        chart = CHARTS[name]
        r = compare_group_vs_heap_invariance(chart, chart.basis[0], 50, 42)
        assert r.extra["exact"], name
        assert r.passed


def test_bracket_abelian_charts_vanish():
    for name in ("r1", "r2", "r3"):
        chart = CHARTS[name]
        u = chart.basis[0]
        v = chart.basis[-1]
        r = bracket_closure(chart, u, v, 20, 11)
        assert r.passed
        assert np.allclose(r.extra["commutator"], 0.0)


def test_bracket_so3_structure_constants():
    chart = CHARTS["so3"]
    r = bracket_closure(chart, chart.basis[0], chart.basis[1], 50, 42)
    assert r.passed and r.max_residual < 1e-4
    assert np.allclose(r.extra["commutator"], chart.basis[2])
    assert r.extra["rank_ok"]


def test_bracket_of_equal_fields_is_zero():
    chart = CHARTS["so3"]
    r = bracket_closure(chart, chart.basis[1], chart.basis[1], 20, 8)
    assert r.passed
    assert np.allclose(r.extra["commutator"], 0.0)


def test_bracket_and_frame_rank_on_triangular_group():
    chart = CHARTS["ut2"]
    r = bracket_closure(chart, chart.basis[0], chart.basis[1], 30, 9)
    assert r.passed
    # [E11, E12] = E12 in the triangular algebra
    assert np.allclose(r.extra["commutator"], chart.basis[1])
    assert r.extra["rank_ok"]


def test_zero_function_is_multiplicative():
    chart = CHARTS["r2"]
    zero = PolynomialField.constant(0.0)
    r = multiplicative_function_check(chart, zero, sample_triples(chart, 50, 6), seed=6)
    assert r.passed and r.max_residual == 0.0


def test_linear_functionals_multiplicative_on_translations():
    chart = CHARTS["r3"]
    f = PolynomialField.linear([1.0, -2.0, 0.5])
    r = multiplicative_function_check(chart, f, sample_triples(chart, 200, 7), seed=7, tol=1e-12)
    assert r.passed


def test_square_fails_at_the_classical_witness():
    chart = CHARTS["r1"]
    square = PolynomialField((((0, 0), 1.0),))
    triple = (translation([1.0]), translation([0.0]), translation([1.0]))
    r = multiplicative_function_check(chart, square, [triple])
    assert not r.passed
    assert r.witness[3] == 4.0 and r.witness[4] == 2.0


def test_pointed_condition_enforced():
    chart = CHARTS["r1"]
    f = PolynomialField.constant(1.0)
    r = multiplicative_function_check(chart, f, [])
    assert not r.passed and r.witness[0] == "basepoint"


def test_constant_and_linear_vector_fields_multiplicative():
    rng = np.random.default_rng(12)
    triples = [tuple(rng.uniform(-0.8, 0.8, size=1) for _ in range(3)) for _ in range(30)]
    const = multiplicative_vector_field_check(lambda y: np.full_like(y, 0.7), triples)
    assert const.passed
    linear = multiplicative_vector_field_check(lambda y: y, triples)
    assert linear.passed


def test_square_vector_field_fails_with_witness():
    rng = np.random.default_rng(13)
    triples = [tuple(rng.uniform(-0.3, 0.3, size=1) for _ in range(3)) for _ in range(30)]
    r = multiplicative_vector_field_check(lambda y: y * y, triples)
    assert not r.passed
    assert r.witness is not None
    t, (x, y, z), lhs, rhs = r.witness
    assert abs(lhs - rhs) > 1e-6


def test_tangent_lift_zero_vectors_reduce_to_base():
    chart = CHARTS["so3"]
    rng = np.random.default_rng(14)
    g = [chart.sample(rng) for _ in range(3)]
    zeros = [np.zeros((3, 3))] * 3
    assert np.allclose(d_mu(chart, g, zeros), 0.0)


def test_tangent_lift_exact_on_translations():
    r = tangent_semiheap_check(CHARTS["r2"], 50, 15, tol=1e-9)
    assert r.passed


def test_tangent_lift_so3():
    r = tangent_semiheap_check(CHARTS["so3"], 100, 42)
    assert r.passed and r.max_residual < 1e-6


# (fd_residual, para_residual) of tangent_semiheap_check(chart, 20, 7), recorded when d mu at (g0, g1, g2)
# still had its own call; the lift read from the first inner product of _para_forms keeps every bit.
TANGENT_SEED7 = {
    "r1": (4.296188405028545e-11, 4.048977439722931e-16), "r2": (2.802113032504882e-11, 2.936309488801301e-16),
    "r3": (3.26856689610365e-11, 3.174500315477406e-16), "rx": (2.3642711659426805e-10, 7.818336591820735e-16),
    "so2": (2.338022438724442e-10, 1.0114613123884174e-15), "so3": (5.557638083230511e-10, 1.1404546864211451e-15),
    "ut2": (2.2330534298300041e-10, 7.790283451154642e-16),
}


def test_tangent_residuals_of_every_chart_are_pinned():
    for name, chart in sorted(CHARTS.items()):
        r = tangent_semiheap_check(chart, 20, 7)
        assert (r.extra["fd_residual"], r.extra["para_residual"]) == TANGENT_SEED7[name], name
        assert r.passed and r.max_residual == TANGENT_SEED7[name][0], name


def test_coassociativity_unit_is_exact():
    r = coassociativity_check(CHARTS["r1"], 30, 16)
    assert r.extra["unit"] == 0.0
    assert r.passed


def test_coassociativity_explicit_coordinate_fields():
    pair = (PolynomialField.coordinate(0), PolynomialField.coordinate(1))
    r = coassociativity_check(CHARTS["r2"], 50, 18, fields=pair)
    assert r.passed


def test_coassociativity_rejects_fields_beyond_the_chart():
    pair = (PolynomialField.coordinate(0), PolynomialField.linear([1.0, 2.0]))
    with pytest.raises(ValueError, match=r"fields\[1\] reads coordinate 1, but chart r1 has 1 coordinates"):
        coassociativity_check(CHARTS["r1"], 5, 1, fields=pair)


def test_coassociativity_so3_and_r3():
    for name in ("so3", "r3"):
        r = coassociativity_check(CHARTS[name], 100, 42)
        assert r.passed and r.max_residual < 1e-10, name


def test_euclidean_orthonormal_cases():
    e = np.eye(3)
    assert np.allclose(e[0] * np.dot(e[1], e[2]), 0.0)
    x, y = np.array([1.0, 2.0, 2.0]), np.array([0.0, 3.0, 4.0])
    assert np.allclose(x * np.dot(y, y), x * 25.0)


def test_euclidean_sampled_identities():
    r = euclidean_semiheap_check(3, 1000, 42)
    assert r.passed and r.max_residual < 1e-12


def test_exp_hom_trivial_and_sampled():
    assert math.exp(1 - 1 + 1) == math.exp(1.0)
    r = exp_hom_check(1000, 42)
    assert r.passed and r.max_residual < 1e-12
    assert r.extra["basepoint_ok"]


def test_polynomial_field_algebra():
    f = PolynomialField.linear([2.0, 0.0]) + PolynomialField.constant(1.0)
    g = PolynomialField.coordinate(1)
    fg = f * g
    coords = np.array([3.0, 5.0])
    assert fg(coords) == f(coords) * g(coords)
    assert (2.5 * g)(coords) == 12.5


def test_mu_rejects_non_finite_input():
    chart = CHARTS["so3"]
    for bad in (np.full((3, 3), np.nan), np.full((3, 3), np.inf)):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="input leaves the so3 chart"):
            mu(chart, bad, np.eye(3), np.eye(3))


def test_solve_rejects_non_finite_matrix():
    for bad in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0])):
        with pytest.raises(ValueError, match="condition number"):
            solve(bad, np.eye(3))


def _svd_rule_accepts(a):
    """The SVD rule of oracles.scalar_solve on every matrix of a stack (or on one matrix)."""
    try:
        for m in a.reshape(-1, *a.shape[-2:]):
            oracles.scalar_solve(m, np.eye(a.shape[-1]))
    except ValueError:
        return False
    return True


def _conditioned(rng, k, cond, scale):
    """scale times a random k x k matrix of singular values from 1 down to 1/cond (just 1 when k = 1), the
    inner ones at either end or between, so that cond_F spreads from cond towards k cond."""
    u, v = (np.linalg.qr(rng.normal(size=(k, k)))[0] for _ in range(2))
    exponents = np.sort(np.r_[0.0, rng.choice([0.0, 1.0, rng.uniform()], size=max(k - 2, 0)), 1.0][:k])
    return scale * (u * cond ** -exponents) @ v.T


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_solve_guard_decides_as_the_svd_rule(k):
    """The Frobenius bound with its SVD band accepts and rejects exactly where the SVD rule does,
    near the limit, at scales where the norms overflow or underflow, and on degenerate stacks."""
    rng = np.random.default_rng(k)
    ones = np.eye(k)
    specials = [np.zeros((k, k)), np.ones((k, k)), np.full((k, k), np.nan), np.full((k, k), np.inf),
                np.full((k, k), -np.inf), np.diag([np.nan] + [1.0] * (k - 1)), np.diag([1e-170] + [1.0] * (k - 1)),
                np.diag([1e170] + [1.0] * (k - 1)), 1e-160 * ones, 1e160 * ones, 1e300 * ones, 5e-324 * ones,
                1e-310 * ones, 1e-200 * ones]
    randoms = [_conditioned(rng, k, 10 ** rng.uniform(9.0, 11.0), 10 ** rng.choice([0.0, rng.uniform(-170, 170)]))
               for _ in range(300)]
    stacks = [np.zeros((0, k, k))] + [a for m in specials + randoms
                                      for a in (m, np.stack([m, ones]), np.stack([ones, m, ones]))]
    decisions = []
    for a in stacks:
        b = rng.normal(size=a.shape[:-1] + (2,))
        decisions.append(_svd_rule_accepts(a))
        if decisions[-1]:
            assert _same(solve(a, b), np.linalg.solve(a, b))
        else:
            with pytest.raises(ValueError, match="condition number"):
                solve(a, b)
    assert all(decisions[1 + 3 * len(specials):]) if k == 1 else 0 < sum(decisions) < len(stacks)


def test_dL_rejects_nan_vector():
    chart = CHARTS["so3"]
    with pytest.raises(ValueError, match="not tangent"):
        dL(chart, chart.basepoint, chart.basepoint, chart.basepoint, np.full((3, 3), np.nan))


def test_nan_field_fails_with_witness():
    triple = (np.array([0.5]), np.array([0.1]), np.array([0.2]))
    with np.errstate(invalid="ignore"):
        r = multiplicative_vector_field_check(lambda y: np.sqrt(y - 1.0), [triple])
    assert not r.passed and math.isnan(r.max_residual)
    t, (x, y, z), lhs, rhs = r.witness
    assert t == -0.5 and (x, y, z) == triple


def test_nan_function_fails_with_witness():
    chart = CHARTS["r1"]
    triples = sample_triples(chart, 5, 6)
    r = multiplicative_function_check(chart, lambda c: math.nan, triples)
    assert not r.passed and math.isnan(r.max_residual)
    assert r.witness[0] == "basepoint" and math.isnan(r.witness[1])
    r = multiplicative_function_check(chart, lambda c: math.nan, triples, pointed=False)
    assert not r.passed and math.isnan(r.max_residual)
    assert r.witness[0] is triples[0][0] and math.isnan(r.witness[3])


def test_nan_residual_stays_the_worst_and_names_its_sample():
    # Nearly linear below 2.5 and NaN from there on: residuals before the
    # first NaN are positive and under tol, and finite residuals after it
    # must not replace it.
    chart = CHARTS["r1"]
    triples = sample_triples(chart, 40, 1)

    def f(c):
        c = c[..., 0]
        return np.where(c < 2.5, c + 1e-9 * c ** 2, math.nan)

    def has_nan(x, y, z):
        return any(math.isnan(f(chart.coords(g))) for g in (x, y, z, mu(chart, x, y, z)))

    first = next(k for k, t in enumerate(triples) if has_nan(*t))
    assert 0 < first < len(triples) - 1 and not has_nan(*triples[-1])
    r = multiplicative_function_check(chart, f, triples, tol=1e-3, pointed=False)
    assert not r.passed and math.isnan(r.max_residual)
    assert r.witness[0] is triples[first][0]


@pytest.mark.parametrize("f", [lambda c: float(c[0]), lambda c: c[0] if c[0] < 2.5 else math.nan,
                               lambda c: float(np.sum(c)), lambda c: np.sum(c)])
def test_function_reading_one_point_at_a_time_is_refused(f):
    chart = CHARTS["r1"]
    with pytest.raises(ValueError, match="one value per point, from that point alone"):
        multiplicative_function_check(chart, f, sample_triples(chart, 5, 6), pointed=False)


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_mult_function_matches_the_loops_to_the_bit(name):
    """Residual, verdict and witness values of one f call per slab equal the per-point loops' bits."""
    def bits(x):
        return np.float64(x).view(np.uint64)

    def witness_bits(w):
        return w and [v.tobytes() if isinstance(v, np.ndarray) else bits(v) if isinstance(v, float) else v for v in w]

    chart = CHARTS[name]
    for seed in range(1, 9):
        for f in (_coordinate_sum(chart), SQUARE):
            for kw in ({}, {"tol": 0.0, "pointed": False}):
                r = multiplicative_function_check(chart, f, sample_triples(chart, 30, seed), **kw)
                worst, passed, witness, _ = oracles.mult_function_loops(
                    chart, f, oracles.sample_triples_loops(chart, 30, seed), **kw)
                assert bits(r.max_residual) == bits(worst) and r.passed == passed
                assert witness_bits(r.witness) == witness_bits(witness)


def test_witness_is_the_first_failing_sample_not_the_worst():
    seed, samples = 21, 60
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(samples):
        x, y, z = rng.uniform(-3.0, 3.0, size=3)
        lhs, rhs = math.exp(x - y + z), math.exp(x) * (1.0 / math.exp(y)) * math.exp(z)
        residuals.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    tol = sorted(r for r in residuals if r > 0)[-3]
    first = next(k for k, r in enumerate(residuals) if r >= tol)
    assert first != residuals.index(max(residuals))
    r = exp_hom_check(samples, seed, tol=tol)
    assert not r.passed and r.witness == first and r.max_residual == max(residuals)


ZERO_TOL_CHECKS = {
    "para-assoc": lambda c: check_para_associative_numeric(c, 3, 1, tol=0.0),
    "left-invariant": lambda c: left_invariant_field_check(c, c.basis[0], 3, 1, tol=0.0),
    "group-vs-heap": lambda c: compare_group_vs_heap_invariance(c, c.basis[0], 3, 1, tol=0.0),
    "bracket": lambda c: bracket_closure(c, c.basis[0], c.basis[1], 3, 1, tol=0.0),
    "tangent": lambda c: tangent_semiheap_check(c, 3, 1, tol=0.0),
    "coassoc": lambda c: coassociativity_check(c, 3, 1, tol=0.0),
    "euclidean": lambda c: euclidean_semiheap_check(3, 3, 1, tol=0.0),
    "exp-hom": lambda c: exp_hom_check(3, 1, tol=0.0),
}


@pytest.mark.parametrize("check", sorted(ZERO_TOL_CHECKS))
def test_zero_tolerance_fails_at_the_first_sample(check):
    r = ZERO_TOL_CHECKS[check](CHARTS["so3"])
    assert not r.passed and r.witness == 0


def test_zero_tolerance_function_and_field_witness_the_first_triple():
    chart = CHARTS["r2"]
    triples = sample_triples(chart, 3, 2)
    r = multiplicative_function_check(chart, PolynomialField.linear([1.0, 1.0]), triples, tol=0.0)
    assert not r.passed
    x, y, z, lhs, rhs = r.witness
    assert (x, y, z) == triples[0] and lhs == rhs
    points = [tuple(np.array([v]) for v in t) for t in ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))]
    r = multiplicative_vector_field_check(lambda y: y, points, tol=0.0)
    assert not r.passed
    t, (x, y, z), lhs, rhs = r.witness
    assert t == -0.5 and [x, y, z] == list(points[0])


@pytest.mark.parametrize("name", ["so3", "ut2", "r2"])
def test_tangent_and_coassoc_extras_match_plain_loops(name):
    chart = CHARTS[name]
    r = tangent_semiheap_check(chart, 20, 5)
    assert (r.extra["fd_residual"], r.extra["para_residual"]) == tangent_residuals_loops(chart, 20, 5)
    assert r.max_residual == max(r.extra.values())
    r = coassociativity_check(chart, 20, 5)
    assert r.extra == coassociativity_residuals_loops(chart, 20, 5)
    assert r.max_residual == max(r.extra.values())


# --- stacked checks against the per-sample loops ---------------------------

ORACLE_SAMPLES = 8


def _same(a, b):
    """Equal to the bit: arrays by shape and entries (NaN equal to NaN), floats by value or both NaN."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def _line_triples(seed, k=2, samples=ORACLE_SAMPLES):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(-0.8, 0.8, size=k) for _ in range(3)) for _ in range(samples)]


def _coordinate_sum(chart):
    return PolynomialField.linear([1.0] * chart.coords(chart.basepoint).shape[0])


SQUARE = PolynomialField((((0, 0), 1.0),))
# Each check as (stacked, loops), both called as (chart, seed, k=samples, **kw).
K = ORACLE_SAMPLES
CHART_CHECKS = {
    "para-assoc": (lambda c, s, k=K, **kw: check_para_associative_numeric(c, k, s, **kw),
                   lambda c, s, k=K, **kw: oracles.para_assoc_loops(c, k, s, **kw)),
    "left-invariant": (lambda c, s, k=K, **kw: left_invariant_field_check(c, c.basis[0], k, s, **kw),
                       lambda c, s, k=K, **kw: oracles.left_invariant_loops(c, c.basis[0], k, s, **kw)),
    "group-vs-heap": (lambda c, s, k=K, **kw: compare_group_vs_heap_invariance(c, c.basis[0], k, s, **kw),
                      lambda c, s, k=K, **kw: oracles.group_vs_heap_loops(c, c.basis[0], k, s, **kw)),
    "bracket": (lambda c, s, k=K, **kw: bracket_closure(c, c.basis[0], c.basis[-1], k, s, **kw),
                lambda c, s, k=K, **kw: oracles.bracket_loops(c, c.basis[0], c.basis[-1], k, s, **kw)),
    "tangent": (lambda c, s, k=K, **kw: tangent_semiheap_check(c, k, s, **kw),
                lambda c, s, k=K, **kw: oracles.tangent_loops(c, k, s, **kw)),
    "coassoc": (lambda c, s, k=K, **kw: coassociativity_check(c, k, s, **kw),
                lambda c, s, k=K, **kw: oracles.coassoc_loops(c, k, s, **kw)),
    "mult-function": (lambda c, s, k=K, **kw: multiplicative_function_check(
                          c, _coordinate_sum(c), sample_triples(c, k, s), **kw),
                      lambda c, s, k=K, **kw: oracles.mult_function_loops(
                          c, _coordinate_sum(c), oracles.sample_triples_loops(c, k, s), **kw)),
    "mult-function-square": (lambda c, s, k=K, **kw: multiplicative_function_check(
                                 c, SQUARE, sample_triples(c, k, s), **kw),
                             lambda c, s, k=K, **kw: oracles.mult_function_loops(
                                 c, SQUARE, oracles.sample_triples_loops(c, k, s), **kw)),
}
FREE_CHECKS = {
    "mult-field": (lambda s, k=K, **kw: multiplicative_vector_field_check(
                       lambda y: y * y, _line_triples(s, samples=k), **kw),
                   lambda s, k=K, **kw: oracles.mult_field_loops(lambda y: y * y, _line_triples(s, samples=k), **kw)),
    "euclidean": (lambda s, k=K, **kw: euclidean_semiheap_check(4, k, s, **kw),
                  lambda s, k=K, **kw: oracles.euclidean_loops(4, k, s, **kw)),
    "exp-hom": (lambda s, k=K, **kw: exp_hom_check(k, s, **kw),
                lambda s, k=K, **kw: oracles.exp_hom_loops(k, s, **kw)),
}


def _tol_past_first(loops):
    """(tol, first): a tol under which sample first > 0 is the loops' first failing sample.

    tol is the worst residual of the first k samples for the least k at which it
    exceeds sample 0's, so sample k - 1 is the first to reach it.  (None, None)
    when no later sample's residual exceeds sample 0's.
    """
    r0 = loops(1)[0]
    worst = ((k - 1, loops(k)[0]) for k in range(2, ORACLE_SAMPLES + 1))
    return next(((r, first) for first, r in worst if r > r0), (None, None))


def _kw(tol, loops):
    """The tol keyword for a parametrized tol; "past-first" takes it from the loops' own
    residuals, and the index witness of the loops must then be that later sample."""
    if tol != "past-first":
        return {} if tol is None else {"tol": tol}
    tol, first = _tol_past_first(loops)
    if tol is None:
        return {}
    witness = loops(ORACLE_SAMPLES, tol=tol)[2]
    assert not isinstance(witness, int) or witness == first > 0
    return {"tol": tol}


def _assert_matches(report, loops):
    max_residual, passed, witness, extra = loops
    assert _same(report.max_residual, max_residual)
    assert report.passed == passed
    assert _same(report.witness, witness)
    assert _same(report.extra, extra)


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_functions_on_stacks_match_scalar_oracles(name):
    chart, sc = CHARTS[name], oracles.scalar_chart(CHARTS[name])
    rng = np.random.default_rng(23)
    g = np.array([[sc.sample(rng) for _ in range(32)] for _ in range(3)])
    scales = np.repeat([1e-13, 1e-5, 0.5, 2.0], 8)[:, None, None]
    a = np.array([sc.project(m) for m in rng.normal(size=(32,) + g.shape[2:])]) * scales
    v = g[[1, 2, 0]] @ a
    pairs = [
        (chart.membership_residual(g[0]), [sc.membership(x) for x in g[0]]),
        (chart.exp_tangent(a), [sc.exp(x) for x in a]),
        (chart.coords(g[1]), [sc.coords(x) for x in g[1]]),
        (chart.project_algebra(g[2]), [sc.project(x) for x in g[2]]),
        (solve(g[0], g[1]), [oracles.scalar_solve(x, y) for x, y in zip(g[0], g[1])]),
        (rel_norm(g[0] - g[1], g[2], v[0]), [oracles.scalar_rel_norm(x - y, z, w) for x, y, z, w in zip(*g, v[0])]),
        (mu(chart, *g), [oracles.scalar_mu(sc, *t) for t in zip(*g)]),
        (d_mu(chart, g, v), [oracles.scalar_d_mu(t, w) for t, w in zip(zip(*g), zip(*v))]),
    ]
    for stacked, each in pairs:
        assert _same(stacked, np.array(each))


@pytest.fixture
def small_slabs(monkeypatch):
    """Slabs of three samples, so a few samples already cross slab boundaries."""
    monkeypatch.setattr(charts, "SLAB", 3)


@pytest.mark.parametrize("tol", [None, 0.0, "past-first"])
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("check", sorted(CHART_CHECKS))
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_stacked_checks_match_per_sample_loops(small_slabs, name, check, seed, tol):
    stacked, loops = CHART_CHECKS[check]
    kw = _kw(tol, lambda k, **kw: loops(CHARTS[name], seed, k, **kw))
    _assert_matches(stacked(CHARTS[name], seed, **kw), loops(CHARTS[name], seed, **kw))


@pytest.mark.parametrize("tol", [None, 0.0, "past-first"])
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("check", sorted(FREE_CHECKS))
def test_stacked_chart_free_checks_match_per_sample_loops(small_slabs, check, seed, tol):
    stacked, loops = FREE_CHECKS[check]
    kw = _kw(tol, lambda k, **kw: loops(seed, k, **kw))
    _assert_matches(stacked(seed, **kw), loops(seed, **kw))


def test_past_first_tols_pin_a_later_witness_for_every_check():
    """Each check, on some chart and seed of the tests above, has a "past-first" tol."""
    for check, (_, loops) in CHART_CHECKS.items():
        assert any(_tol_past_first(lambda k: loops(CHARTS[name], seed, k))[0] is not None
                   for name in sorted(CHARTS) for seed in (3, 11)), check
    for check, (_, loops) in FREE_CHECKS.items():
        assert any(_tol_past_first(lambda k: loops(seed, k))[0] is not None for seed in (3, 11)), check


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_stacked_samples_and_pushforward_match_per_sample_loops(small_slabs, name, seed):
    chart, k = CHARTS[name], ORACLE_SAMPLES
    assert _same(sample_triples(chart, k, seed), oracles.sample_triples_loops(chart, k, seed))
    assert pushforward_convergence(chart, k, seed) == oracles.pushforward_loops(chart, k, seed)


@pytest.mark.parametrize("tangents", [0, 5])
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_sample_slabs_match_per_element_draws(small_slabs, name, tangents):
    """A slab's draws give each element and tangent the bits of its own scalar draw, across slabs."""
    chart, sc = CHARTS[name], oracles.scalar_chart(CHARTS[name])
    rng = np.random.default_rng(19)
    want = [([sc.sample(rng) for _ in range(5)], [sc.combination(rng.normal(size=sc.dim)) for _ in range(tangents)])
            for _ in range(7)]
    slabs = list(chart.sample_slabs(np.random.default_rng(19), 7, 5, tangents))
    assert [start for start, _, _ in slabs] == [0, 3, 6]
    for part in (0, 1):
        got = np.concatenate([np.swapaxes(slab[part + 1], 0, 1) for slab in slabs])
        assert _same(got, np.array([sample[part] for sample in want]).reshape(got.shape))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox, np.random.MT19937])
def test_rx_draw_matches_per_element_draws(bit_generator):
    """The rx chart's one-call draw gives the bits, and leaves the state, of per-element uniform * choice
    draws, whether the half-word buffer of choice enters empty or full, with normal draws in between."""
    draw = CHARTS["rx"].draw
    for seed in range(200):
        got, want = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        for count in (0, 1, 0, 3, 2, 1, 4, 5, charts.SLAB + 1):
            each = [want.uniform(0.5, 3.0) * want.choice([-1.0, 1.0]) for _ in range(count)]
            assert _same(draw(got, count).view(np.uint64), np.array(each, dtype=float).reshape(count, 1).view(np.uint64))
            assert _same(got.bit_generator.state, want.bit_generator.state)
            assert _same(got.normal(size=count % 3), want.normal(size=count % 3))


@pytest.mark.parametrize("tol", [None, 0.0, "past-first"])
@pytest.mark.parametrize("t_grid", [(-0.01, 0.05, 0.0, 0.025, -0.01, 0.05), (0.0, 0.03, 0.0, -0.03, 0.005)])
def test_grouped_flows_match_per_duration_loops(small_slabs, t_grid, tol):
    """Durations with a repeated t, a 0.0 and three or more step counts flow together to the bit.

    The residual is largest at the longest duration, so a witness at the first t
    (tol 0.0) pins the flows of a shorter one.
    """
    def run(check, k=K, **kw):
        return check(lambda y: y * y, _line_triples(5, samples=k), t_grid=t_grid, **kw)

    kw = _kw(tol, partial(run, oracles.mult_field_loops))
    _assert_matches(run(multiplicative_vector_field_check, **kw), run(oracles.mult_field_loops, **kw))


def test_rk4_of_mixed_durations_matches_one_call_per_duration():
    """Each duration takes its own ceil(|t| / RK4_STEP) steps, bit for bit as on its own, on a leading axis
    (as bracket_closure stacks +-t) and on the last (as the flow check lays out its t-grid): a zero, a
    sub-step duration, a repeated t and three step counts."""
    durations = np.array([0.0, 0.0004, -0.003, 0.0105, 0.0, -0.003, 0.0072])
    so3 = CHARTS["so3"]
    x = so3.build(np.random.default_rng(5).normal(size=(4, 3)))
    au = so3.basis[0] + 0.5 * so3.basis[2]
    together = _rk4(lambda y: y @ au, x, durations[:, None, None, None])
    for d, got in zip(durations, together):
        assert _same(got.view(np.uint64), _rk4(lambda y: y @ au, x, d).view(np.uint64))
    points = np.random.default_rng(6).uniform(-0.8, 0.8, size=(2, 3))
    together = _rk4(lambda y: y * y, np.tile(points, len(durations)), np.repeat(durations, 3)).reshape(2, -1, 3)
    for q, d in enumerate(durations):
        assert _same(together[:, q].view(np.uint64), _rk4(lambda y: y * y, points, d).view(np.uint64))
    # one point per duration on the last axis, the step counts in no order and each column leaving at its own count
    shuffled = durations[[3, 0, 6, 2, 1, 5, 4]]
    points = np.random.default_rng(8).uniform(-0.8, 0.8, size=(2, len(shuffled)))
    together = _rk4(lambda y: y * y, points, shuffled)
    for q, d in enumerate(shuffled):
        assert _same(together[:, q].view(np.uint64), _rk4(lambda y: y * y, points[:, q], d).view(np.uint64))
    # a size-1 t flows the whole stack
    assert _same(_rk4(lambda y: y * y, points, shuffled[:1]).view(np.uint64),
                 np.transpose([_rk4(lambda y: y * y, p, shuffled[0]) for p in points.T]).view(np.uint64))


def test_finished_flows_leave_the_rk4_stack():
    """On the default grid the rule sees each column 4 times per step of its own duration, ceil(|t| / RK4_STEP)
    steps: 4 x 1,200 step-columns per column of one t, where flowing every column to the longest t took 4 x 2,000."""
    triples, columns = _line_triples(5), []
    r = multiplicative_vector_field_check(lambda y: columns.append(y.shape[-1] if y.ndim == 2 else 1) or y, triples)
    group = 4 * len(triples)                # [x,y,z], x, y and z of every triple, for one t
    steps = sum(math.ceil(abs(t) / RK4_STEP) for t in (-0.5, -0.1, 0.1, 0.5))
    assert steps == 1_200 and r.passed
    # the contract check sees the group once as a stack and once column by column
    assert sum(columns) == 2 * group + 4 * steps * group


def test_empty_and_all_zero_t_grids():
    points = np.random.default_rng(7).uniform(-0.8, 0.8, size=(2, 5))
    assert _same(_rk4(lambda y: y * y, points, np.zeros(5)), points)
    for t_grid in ((), (0.0, 0.0)):
        r = multiplicative_vector_field_check(lambda y: y * y, _line_triples(5), t_grid=t_grid)
        assert r.passed and r.max_residual == 0.0 and r.witness is None


def test_rank_deficient_frame_fails_the_bracket():
    so3 = CHARTS["so3"]
    lx, _, lz = so3.basis
    r = bracket_closure(dataclasses.replace(so3, basis=(lx, lx, lz)), lx, lz, 5, 1)
    assert not r.passed and not r.extra["rank_ok"] and r.witness == 0
    assert r.max_residual < r.tol


@pytest.mark.parametrize("rule", [
    lambda y: y, lambda y: y * y, lambda y: np.full_like(y, 0.7), lambda y: np.sqrt(y - 1.0),
    lambda y: np.array([[0.5, -1.0], [2.0, 0.25]]) @ y, lambda y: y[0],
])
def test_field_rules_keeping_the_contract_match_single_point_flows(rule):
    triples = _line_triples(5)
    with np.errstate(invalid="ignore"):
        r = multiplicative_vector_field_check(rule, triples, tol=0.5)
        max_residual, passed, witness, _ = oracles.mult_field_loops(rule, triples, tol=0.5)
    assert r.passed == passed and (r.witness is None) == (witness is None)
    assert r.max_residual == pytest.approx(max_residual, rel=1e-9, abs=1e-15, nan_ok=True)


@pytest.mark.parametrize("rule", [lambda y: y / np.linalg.norm(y), lambda y: y @ np.eye(2), lambda y: y.sum()])
def test_field_rule_mixing_columns_is_refused(rule):
    with pytest.raises(ValueError, match="one point per column"):
        multiplicative_vector_field_check(rule, _line_triples(5))


def test_para_assoc_memory_is_held_by_slabs():
    chart = CHARTS["so3"]

    def peak(samples):
        tracemalloc.start()
        try:
            check_para_associative_numeric(chart, samples, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20_000) <= 2 * peak(2_000)
