"""Tests for decay fits, residual checks, comparison, and reports."""

import dataclasses
import json
import math

import numpy as np
import pytest

from fracp.analysis import (
    CheckRecord,
    DecayFit,
    VerificationReport,
    _cell_power_integral,
    _comparison_detail,
    check_decay_sandwich,
    comparison_check,
    decay_window,
    fit_decay,
    fundamental_residual,
    harnack_ratio,
    uniform_bound_check,
)
from fracp.errors import DomainError, UsageError
from fracp.grid import RadialFunction, RadialGrid, make_radial_grid
from fracp.operator import _with_tail_exponent, assemble, weak_residual
from fracp.params import ProblemParams
from fracp.solver import RegularizedProblem, minimize_Jn, solve_pure_singular

# Pen-and-paper value for u = r^-2, R = 4, N = 3, p = 2:
# inf over B_1 is 1 (node at r = 1), the annulus mean of u is
# (int_2^4 r^-2 r^2 dr) / (int_2^4 r^2 dr) = 2 / (56/3) = 3/28,
# so the raw ratio is 28/3.  The discrete mean uses nodal values,
# which carries an O((grading-1)^2) bias at fixed grading.
GOLD_HARNACK_RAW = 28.0 / 3.0


@pytest.fixture(scope="module")
def p2():
    return ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5)


@pytest.fixture(scope="module")
def p25():
    return ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=29.0 / 24.0,
                         r_exp=1.2)


@pytest.fixture(scope="module")
def grid_star(p2):
    return make_radial_grid(tail_exponent=p2.beta_star, R_max=64.0, M=256,
                            grading=1.03)


@pytest.fixture(scope="module")
def power_profile(grid_star):
    vals = np.empty_like(grid_star.nodes)
    vals[1:] = 3.0 * grid_star.nodes[1:] ** -2.0
    vals[0] = vals[1]
    return RadialFunction(grid_star, vals)


@pytest.fixture(scope="module")
def solved(p2):
    """Small continuation run shared by the profile-based tests."""
    g = make_radial_grid(tail_exponent=p2.beta_star, R_max=64.0, M=48,
                         grading=1.06)
    K = assemble(g, p2)
    u, reports = solve_pure_singular(p2, g, K, schedule=[1, 2, 4, 8, 16],
                                     tol=1e-8)
    assert all(r.residual_norm <= 1e-8 for r in reports)
    return g, K, u


def test_fit_decay_recovers_exact_power(power_profile):
    fit = fit_decay(power_profile)
    assert fit.window == (8.0, 32.0)
    assert abs(fit.exponent - 2.0) <= 1e-12
    assert abs(fit.amplitude - 3.0) <= 1e-12 * 3.0
    assert fit.rms_residual <= 1e-13


def test_fit_decay_scale_invariance(power_profile):
    base = fit_decay(power_profile)
    scaled = fit_decay(RadialFunction(power_profile.grid,
                                      5.0 * power_profile.values))
    assert abs(scaled.exponent - base.exponent) <= 1e-12
    assert abs(scaled.amplitude - 5.0 * base.amplitude) <= 1e-10


def test_fit_decay_rejects_nonpositive(power_profile):
    vals = power_profile.values.copy()
    k = int(np.searchsorted(power_profile.grid.nodes, 10.0))
    vals[k] = 0.0
    with pytest.raises(DomainError):
        fit_decay(RadialFunction(power_profile.grid, vals))


def test_fit_decay_on_computed_profile(p2, solved):
    _, _, u = solved
    fit = fit_decay(u)
    assert abs(fit.exponent - p2.beta_star) <= 0.1 * p2.beta_star
    assert fit.rms_residual <= 0.05


def test_sandwich_on_power_profile(p2, power_profile):
    recs = check_decay_sandwich(power_profile, p2)
    assert [r.name for r in recs] == ["decay-lower-amplitude",
                                      "decay-upper-amplitude"]
    lower, upper = recs
    # u r^beta_star is constant 3 on the window, so the min is exact
    assert abs(lower.measured - 3.0) <= 1e-12 * 3.0
    assert lower.passed and upper.passed
    # the upper amplitude picks up the extra half power at the outermost
    # node inside the window (the graded grid has no node at exactly 32)
    r = power_profile.grid.nodes
    r_top = float(r[(r >= 8.0) & (r <= 32.0)].max())
    assert abs(upper.measured - 3.0 * r_top ** 0.5) <= 1e-9


def test_sandwich_failure_is_reported_not_raised(p2, grid_star):
    zero = RadialFunction(grid_star, np.zeros_like(grid_star.nodes))
    recs = check_decay_sandwich(zero, p2)
    assert not recs[0].passed and not recs[1].passed
    assert recs[0].measured == 0.0


def test_sandwich_empty_window(p2):
    # the nodes jump from 7 straight to R_max = 64, so the window
    # [8, 32] holds none of them
    grid = RadialGrid(nodes=np.append(np.linspace(0.0, 7.0, 17), 64.0),
                      tail_exponent=p2.beta_star)
    assert decay_window(grid) == (8.0, 32.0)
    u = RadialFunction(grid, np.ones_like(grid.nodes))
    with pytest.raises(UsageError, match="no grid nodes"):
        check_decay_sandwich(u, p2)
    with pytest.raises(UsageError, match="need at least 2"):
        fit_decay(u)
    # one node at 16 in the window is enough for the sandwich, but a
    # line through one point is no fit
    grid = RadialGrid(nodes=np.append(np.linspace(0.0, 7.0, 17),
                                      [16.0, 64.0]),
                      tail_exponent=p2.beta_star)
    u = RadialFunction(grid, np.ones_like(grid.nodes))
    assert [r.measured for r in check_decay_sandwich(u, p2)] == [
        16.0 ** p2.beta_star, 16.0 ** p2.beta_def]
    with pytest.raises(UsageError, match="contains 1 node"):
        fit_decay(u)


def test_cell_power_integral_exact():
    assert _cell_power_integral(2.0, 3.0, -1.0) == pytest.approx(
        math.log(1.5), rel=1e-15)
    assert _cell_power_integral(2.0, 3.0, 2.0) == pytest.approx(
        19.0 / 3.0, rel=1e-14)
    # the near-logarithmic regime must not cancel
    k = -1.0 + 1e-13
    direct_hi = math.log(1.5) + 1e-13 * (math.log(3.0) ** 2
                                         - math.log(2.0) ** 2) / 2.0
    assert _cell_power_integral(2.0, 3.0, k) == pytest.approx(
        direct_hi, rel=1e-10)


def test_fundamental_residual_beta_star(p2, grid_star):
    K = assemble(grid_star, p2)
    res = fundamental_residual(p2.beta_star, p2, K)
    assert res <= 0.02
    # refinement should cut the defect by a clear factor
    g_half = make_radial_grid(tail_exponent=p2.beta_star, R_max=64.0,
                              M=128, grading=1.03)
    res_half = fundamental_residual(p2.beta_star, p2, assemble(g_half, p2))
    assert res <= res_half / 1.6


def test_fundamental_residual_off_star(p2):
    g = make_radial_grid(tail_exponent=1.2, R_max=64.0, M=256, grading=1.03)
    K = assemble(g, p2)
    assert fundamental_residual(1.2, p2, K) <= 0.05


def _scaled(K, factor):
    """K with every pair weight, tail weight and the tail self-energy
    scaled by ``factor``: the operator times a constant."""
    return dataclasses.replace(
        K, weights=K.weights * factor, tail_self=K.tail_self * factor,
        tail=tuple(dataclasses.replace(blk, W=blk.W * factor)
                   for blk in K.tail))


def test_fundamental_residual_sees_the_operator_constant(p25):
    # off beta_star C(beta) != 0, so the pairing defect of r^-beta
    # against C(beta) times its moment carries the operator's constant:
    # on the battery's p = 2.5 operator (M = 256, grading 1.03, derived
    # for the tail exponent 0.85 beta_star) K scaled by 1.01 or 0.99
    # reads at least twice the true operator's defect
    grid = make_radial_grid(tail_exponent=p25.beta_star, R_max=64.0, M=256,
                            grading=1.03)
    beta = 0.85 * p25.beta_star
    g = make_radial_grid(tail_exponent=beta, R_max=64.0, M=256,
                         grading=1.03)
    K = _with_tail_exponent(assemble(grid, p25), g)
    true = fundamental_residual(beta, p25, K)
    assert true <= 1e-3
    for factor in (1.01, 0.99):
        assert fundamental_residual(beta, p25, _scaled(K, factor)) \
            >= 2.0 * true, factor


def test_fundamental_residual_validation(p2, grid_star):
    K = assemble(grid_star, p2)
    with pytest.raises(DomainError):
        fundamental_residual(0.1, p2, K)
    with pytest.raises(DomainError):
        fundamental_residual(p2.N / (p2.p - 1.0) + 0.5, p2, K)
    with pytest.raises(UsageError):
        fundamental_residual(1.2, p2, K)  # tail decays like 2.0


def test_comparison_accepts_equal_and_scaled(p2, solved):
    g, K, u = solved
    region = g.nodes > 1.0
    assert comparison_check(u, u, region, K)
    half = RadialFunction(g, 0.5 * u.values)
    assert comparison_check(half, u, region, K, residual_tol=1e-6)


def test_comparison_negative_names_node(p2, solved):
    g, K, u = solved
    region = g.nodes > 1.0
    half = RadialFunction(g, 0.5 * u.values)
    j = int(np.argmin(np.abs(g.nodes - 5.0)))
    vals = u.values.copy()
    vals[j] = 0.5 * u.values[j] * (1.0 - 1e-4)
    bad = RadialFunction(g, vals)
    # residual ordering holds once its tolerance absorbs the corruption
    ru = weak_residual(half, K)
    rv = weak_residual(bad, K)
    slack = 2.0 * float((ru - rv)[region].max())
    assert not comparison_check(half, bad, region, K, residual_tol=slack,
                                value_tol=1e-10)
    hyp, node = _comparison_detail(half, bad, region, K, slack, 1e-10)
    assert hyp and node == j


def test_comparison_vacuous_when_hypothesis_fails(p2, solved):
    g, K, u = solved
    region = g.nodes > 1.0
    j = int(np.argmin(np.abs(g.nodes - 5.0)))
    vals = u.values.copy()
    vals[j] = 0.5 * u.values[j] * (1.0 - 1e-4)
    bad = RadialFunction(g, vals)
    half = RadialFunction(g, 0.5 * u.values)
    # with a tight residual tolerance the hypothesis fails at node j,
    # so the implication holds vacuously
    assert comparison_check(half, bad, region, K,
                            residual_tol=1e-10, value_tol=1e-10)


def test_comparison_validation(p2, solved):
    g, K, u = solved
    other = make_radial_grid(tail_exponent=p2.beta_star, R_max=64.0, M=32,
                             grading=1.06)
    v_other = RadialFunction(other, np.ones_like(other.nodes))
    with pytest.raises(UsageError):
        comparison_check(u, v_other, g.nodes > 1.0, K)
    with pytest.raises(UsageError):
        comparison_check(u, u, np.ones(3, dtype=bool), K)
    # u > v outside the region violates the boundary hypothesis
    big = RadialFunction(g, 2.0 * u.values)
    with pytest.raises(UsageError):
        comparison_check(big, u, g.nodes > 1.0, K)


def test_harnack_oracle(p2, grid_star):
    vals = np.empty_like(grid_star.nodes)
    vals[1:] = grid_star.nodes[1:] ** -2.0
    vals[0] = vals[1]
    u = RadialFunction(grid_star, vals)
    raw = harnack_ratio(u, 4.0, p2)
    assert raw == pytest.approx(GOLD_HARNACK_RAW, rel=2e-3)
    assert raw > 1.0  # reports cap at 1, the raw quotient does not


def test_harnack_constant_and_scaling(p2, p25, grid_star):
    const = RadialFunction(grid_star, np.full_like(grid_star.nodes, 0.42))
    assert harnack_ratio(const, 4.0, p2) == pytest.approx(1.0, abs=1e-12)
    assert harnack_ratio(const, 4.0, p25) == pytest.approx(1.0, abs=1e-12)
    vals = np.empty_like(grid_star.nodes)
    vals[1:] = grid_star.nodes[1:] ** -2.0
    vals[0] = vals[1]
    u = RadialFunction(grid_star, vals)
    lam = RadialFunction(grid_star, 3.7 * vals)
    assert abs(harnack_ratio(lam, 4.0, p2)
               - harnack_ratio(u, 4.0, p2)) <= 1e-10
    assert abs(harnack_ratio(lam, 4.0, p25)
               - harnack_ratio(u, 4.0, p25)) <= 1e-10


def test_harnack_validation(p2, grid_star):
    vals = np.full_like(grid_star.nodes, 1.0)
    u = RadialFunction(grid_star, vals)
    with pytest.raises(UsageError):
        harnack_ratio(u, 33.0, p2)  # R_max/2 = 32
    with pytest.raises(UsageError):
        harnack_ratio(u, 0.0, p2)
    neg = RadialFunction(grid_star, vals - 2.0)
    with pytest.raises(DomainError):
        harnack_ratio(neg, 4.0, p2)


def test_uniform_bound_families(p2, solved):
    g, K, u = solved
    init = RadialFunction(g, (1.0 + g.nodes ** 2) ** -1.0)
    family = []
    prev = init
    for n in [1, 2, 4, 8, 16]:
        prob = RegularizedProblem(p2, n, g, K)
        prev, rep = minimize_Jn(prob, prev, tol=1e-10)
        assert rep.converged
        family.append(prev)
    rec = uniform_bound_check(family, K)
    assert rec.passed and rec.measured <= 2.0
    single = uniform_bound_check([u], K)
    assert single.passed and single.measured == pytest.approx(1.0, abs=1e-12)
    spread = uniform_bound_check(
        family + [RadialFunction(g, 10.0 * u.values)], K)
    assert not spread.passed
    with pytest.raises(UsageError):
        uniform_bound_check([], K)


def test_uniform_bound_median_is_numpys(p2, solved, monkeypatch):
    # the check takes its median from the sorted energies, not from
    # np.median; its ratio must be the one np.median gives, bit for bit,
    # and a non-finite energy fails the check wherever it sorts
    import fracp.analysis as analysis

    g, K, u = solved
    rng = np.random.default_rng(20261019)
    for size in list(range(1, 9)) * 25:
        e = rng.lognormal(0.0, rng.uniform(0.0, 1.5), size) ** p2.p
        monkeypatch.setattr(analysis, "energy_seminorm",
                            lambda s, K, it=iter(e): next(it))
        rec = uniform_bound_check([u] * size, K)
        ref = e ** (1.0 / p2.p)
        assert rec.measured == float(ref.max()) / float(np.median(ref))
    for bad in (math.nan, math.inf):
        for pos in range(3):
            e = [1.0, 1.1, 1.2]
            e[pos] = bad
            monkeypatch.setattr(analysis, "energy_seminorm",
                                lambda s, K, it=iter(e): next(it))
            rec = uniform_bound_check([u] * 3, K)
            assert not rec.passed and rec.measured == math.inf


def test_report_json_shape_and_determinism(p2, solved, tmp_path):
    g, K, u = solved
    rep = VerificationReport(p2)
    rep.add_check(uniform_bound_check([u], K))
    rep.add_fit("pure-singular", fit_decay(u))
    rep.set_harnack(min(1.0, harnack_ratio(u, 4.0, p2)), 4.0)
    rep.note("desk-scale run")
    text = rep.to_json()
    assert text == rep.to_json()
    doc = json.loads(text)
    assert list(doc) == ["params", "checks", "decay_fits", "harnack", "notes"]
    assert set(doc["checks"][0]) == {"name", "pass", "measured", "target",
                                     "tolerance"}
    assert doc["params"]["beta_star"] == 2.0
    assert doc["harnack"]["R"] == 4.0
    assert doc["notes"] == "desk-scale run"
    # floats survive the round trip bit for bit
    assert doc["checks"][0]["measured"] == rep.checks[0].measured
    out = tmp_path / "report.json"
    rep.write(str(out))
    assert out.read_text(encoding="ascii") == text
    assert rep.passed


def test_report_failure_flag(p2):
    rep = VerificationReport(p2)
    rep.add_check(CheckRecord("synthetic", False, 3.0, 2.0, 0.0))
    assert not rep.passed
    assert json.loads(rep.to_json())["checks"][0]["pass"] is False
