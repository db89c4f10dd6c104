import math

import numpy as np
import pytest

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


def test_coassociativity_unit_is_exact():
    r = coassociativity_check(CHARTS["r1"], 30, 16)
    assert r.extra["unit"] == 0.0
    assert r.passed


def test_coassociativity_explicit_coordinate_fields():
    pair = (PolynomialField.coordinate(0), PolynomialField.coordinate(1))
    r = coassociativity_check(CHARTS["r2"], 50, 18, fields=pair)
    assert r.passed


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


def test_report_line_format():
    r = exp_hom_check(10, 7)
    line = r.line()
    assert line.startswith("check=exp-hom max_residual=")
    assert "seed=7" in line and "pass=true" in line


def test_mu_rejects_non_finite_input():
    chart = CHARTS["so3"]
    for bad in (np.full((3, 3), np.nan), np.full((3, 3), np.inf)):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="input leaves the so3 chart"):
            mu(chart, bad, np.eye(3), np.eye(3))


def test_solve_rejects_non_finite_matrix():
    for bad in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0])):
        with pytest.raises(ValueError, match="condition number"):
            solve(bad, np.eye(3))


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
        return float(c[0]) + 1e-9 * float(c[0]) ** 2 if c[0] < 2.5 else math.nan

    def has_nan(x, y, z):
        return any(math.isnan(f(chart.coords(g))) for g in (x, y, z, mu(chart, x, y, z)))

    first = next(k for k, t in enumerate(triples) if has_nan(*t))
    assert 0 < first < len(triples) - 1 and not has_nan(*triples[-1])
    r = multiplicative_function_check(chart, f, triples, tol=1e-3, pointed=False)
    assert not r.passed and math.isnan(r.max_residual)
    assert r.witness[0] is triples[first][0]


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
