"""Discrete energy assembly against closed forms and structural identities.

GOLD_HAT_ENERGY and GOLD_SELF_COEFF come from an independent script that
evaluated the nonlocal energy of a single hat function (and the tail
self-interaction coefficient) with adaptive quadrature on the exact
closed-form kernel at N=3, s=1/2, where the angular profile collapses to
4*pi/(1-rho^2)^2.  GOLD_PLATEAU is the weighted L1 mass of a plateau
profile, reduced by hand to two one-dimensional integrals.  The
remaining tests are exact identities (homogeneity, Euler relations,
truncation monotonicity) that hold for the discrete model at any
resolution, so they use small grids.
"""

import math

import numpy as np
import pytest

from fracp.errors import DomainError, FracpError, UsageError
from fracp.grid import RadialGrid, RadialFunction, make_radial_grid
from fracp.params import ProblemParams
from fracp import operator as op

GOLD_HAT_ENERGY = 14076.91527532815439
GOLD_SELF_COEFF = 40425.899626862012903   # 4096 * pi^2
GOLD_PLATEAU = 5.7146962578219376356


@pytest.fixture(scope="module")
def p2():
    return ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5)


@pytest.fixture(scope="module")
def p25():
    return ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=1.0)


@pytest.fixture(scope="module")
def K16(p2):
    grid = RadialGrid(nodes=np.linspace(0.0, 16.0, 17), tail_exponent=2.0)
    return op.assemble(grid, p2)


@pytest.fixture(scope="module")
def K48(p25):
    grid = make_radial_grid(tail_exponent=2.0, R_max=64.0, M=48, grading=1.06)
    return op.assemble(grid, p25)


def test_hat_energy_golden(K16, p2):
    # Acceptance contract allows 1% here; the assembly actually lands
    # within 1e-9 of the adaptive-quadrature value.
    vals = np.zeros(17)
    vals[8] = 1.0
    u = RadialFunction(K16.grid, vals)
    e = op.energy_seminorm(u, K16, p2)
    assert e == pytest.approx(GOLD_HAT_ENERGY, rel=1e-6)


def test_tail_self_coefficient_golden(K16):
    assert K16.tail_self == pytest.approx(GOLD_SELF_COEFF, rel=1e-7)


def test_plateau_weighted_norm_golden():
    params = ProblemParams(N=3, s=0.5, p=2.0, gamma=0.2, alpha=1.0)
    nodes = np.linspace(0.0, 16.0, 33)
    grid = RadialGrid(nodes=nodes, tail_exponent=2.0)
    u = RadialFunction(grid, np.clip(2.0 - nodes, 0.0, 1.0))
    # piecewise-linear profile with kinks on grid nodes: the per-cell
    # rule is exact up to roundoff
    assert op.weighted_norm(u, 1.0, params) == pytest.approx(
        GOLD_PLATEAU, rel=1e-12)


def test_weighted_norm_rejects_bad_exponent(p2):
    grid = RadialGrid(nodes=np.linspace(0.0, 16.0, 17), tail_exponent=2.0)
    u = RadialFunction(grid, np.ones(17))
    with pytest.raises(DomainError):
        op.weighted_norm(u, 0.5, p2)
    with pytest.raises(DomainError):
        op.weighted_norm(u, p2.p_star + 0.1, p2)


def test_weight_function_values(p2):
    assert op.weight_a(0.0, p2) == 1.0
    assert op.weight_a(1.0, p2) == pytest.approx(0.5, rel=1e-15)
    r = np.array([2.0, 4.0])
    np.testing.assert_allclose(
        op.weight_a(r, p2), 1.0 / (1.0 + r ** 4.5), rtol=1e-15)


def test_constant_profile_has_zero_residual(p2):
    # A constant is an exact steady state when the tail carries the same
    # constant (tail_exponent=0), so every pair difference vanishes
    # identically, not just to tolerance.
    grid = make_radial_grid(tail_exponent=0.0, R_max=64.0, M=32, grading=1.05)
    K = op.assemble(grid, p2)
    u = RadialFunction(grid, np.full(33, 3.7))
    res = op.weak_residual(u, K, p2)
    ramp = RadialFunction(grid, grid.nodes / grid.R_max)
    scale = np.abs(op.weak_residual(ramp, K, p2)).max()
    assert scale > 0.0
    assert np.abs(res).max() <= 1e-12 * scale


def test_energy_homogeneity(K48, p25):
    rng = np.random.default_rng(314)
    vals = rng.standard_normal(K48.grid.nodes.size)
    u = RadialFunction(K48.grid, vals)
    v = RadialFunction(K48.grid, 2.75 * vals)
    e1 = op.energy_seminorm(u, K48, p25)
    e2 = op.energy_seminorm(v, K48, p25)
    assert e2 == pytest.approx(2.75 ** 2.5 * e1, rel=1e-12)


def test_weighted_norm_homogeneity(p2):
    rng = np.random.default_rng(99)
    grid = make_radial_grid(tail_exponent=2.0, R_max=64.0, M=32, grading=1.05)
    vals = rng.standard_normal(33)
    u = RadialFunction(grid, vals)
    v = RadialFunction(grid, 5.0 * vals)
    a = op.weighted_norm(u, 1.4, p2)
    b = op.weighted_norm(v, 1.4, p2)
    assert b == pytest.approx(5.0 * a, rel=1e-12)


def test_quadratic_pairing_identity(p2):
    # at p=2 the energy is a quadratic form, so <residual(u), u> must
    # reproduce the energy exactly
    grid = make_radial_grid(tail_exponent=2.0, R_max=64.0, M=128,
                            grading=1.03)
    K = op.assemble(grid, p2)
    rng = np.random.default_rng(2718)
    u = RadialFunction(grid, rng.standard_normal(grid.nodes.size))
    e = op.energy_seminorm(u, K, p2)
    pairing = float(op.weak_residual(u, K, p2) @ u.values)
    assert abs(pairing - e) <= 1e-10 * abs(e)


def test_residual_matches_energy_gradient(K48, p25):
    rng = np.random.default_rng(424242)
    vals = np.abs(rng.standard_normal(K48.grid.nodes.size)) + 0.5
    u = RadialFunction(K48.grid, vals)
    res = op.weak_residual(u, K48, p25)
    eps = 1e-6
    for _ in range(8):
        d = rng.standard_normal(vals.size)
        d /= np.linalg.norm(d)
        up = RadialFunction(K48.grid, vals + eps * d)
        dn = RadialFunction(K48.grid, vals - eps * d)
        fd = (op.energy_seminorm(up, K48, p25)
              - op.energy_seminorm(dn, K48, p25)) / (2.0 * eps)
        direct = p25.p * float(res @ d)
        assert direct == pytest.approx(fd, rel=5e-6)


def test_hessian_euler_identity(K48, p25):
    # each energy term is p-homogeneous, so Hess(E/p) u = (p-1) grad(E/p)
    rng = np.random.default_rng(777)
    vals = np.abs(rng.standard_normal(K48.grid.nodes.size)) + 0.25
    u = RadialFunction(K48.grid, vals)
    H = op.energy_hessian(u, K48, p25)
    res = op.weak_residual(u, K48, p25)
    np.testing.assert_allclose(H @ vals, (p25.p - 1.0) * res,
                               rtol=1e-10, atol=1e-13 * np.abs(res).max())


def test_hessian_matches_residual_differences(K48, p25):
    rng = np.random.default_rng(5150)
    vals = np.abs(rng.standard_normal(K48.grid.nodes.size)) + 0.5
    u = RadialFunction(K48.grid, vals)
    H = op.energy_hessian(u, K48, p25)
    eps = 1e-6
    for _ in range(4):
        d = rng.standard_normal(vals.size)
        d /= np.linalg.norm(d)
        up = RadialFunction(K48.grid, vals + eps * d)
        dn = RadialFunction(K48.grid, vals - eps * d)
        fd = (op.weak_residual(up, K48, p25)
              - op.weak_residual(dn, K48, p25)) / (2.0 * eps)
        hd = H @ d
        assert np.abs(hd - fd).max() <= 5e-6 * np.abs(fd).max()


def test_truncation_decreases_energy(K48, p25):
    rng = np.random.default_rng(86)
    for _ in range(6):
        vals = rng.standard_normal(K48.grid.nodes.size)
        u = RadialFunction(K48.grid, vals)
        plus = RadialFunction(K48.grid, np.maximum(vals, 0.0))
        assert (op.energy_seminorm(plus, K48, p25)
                <= op.energy_seminorm(u, K48, p25) * (1.0 + 1e-14))


def test_lattice_submodularity(K48, p25):
    # min/max combinations cannot increase total energy when every pair
    # weight is nonnegative; this is what the comparison arguments in
    # the solver lean on
    rng = np.random.default_rng(1234)
    for _ in range(6):
        a = rng.standard_normal(K48.grid.nodes.size)
        b = rng.standard_normal(K48.grid.nodes.size)
        eu = op.energy_seminorm(RadialFunction(K48.grid, a), K48, p25)
        ev = op.energy_seminorm(RadialFunction(K48.grid, b), K48, p25)
        emin = op.energy_seminorm(
            RadialFunction(K48.grid, np.minimum(a, b)), K48, p25)
        emax = op.energy_seminorm(
            RadialFunction(K48.grid, np.maximum(a, b)), K48, p25)
        assert emin + emax <= (eu + ev) * (1.0 + 1e-14)


def test_matrix_structure(K48):
    W = K48.weights
    assert W.shape == (49, 49)
    np.testing.assert_array_equal(W, W.T)
    assert np.all(np.diag(W) == 0.0)
    assert W.min() >= 0.0
    assert K48.tail_W.min() >= 0.0
    assert K48.tail_self >= 0.0
    assert np.all((K48.tail_xi > 0.0) & (K48.tail_xi < 1.0))
    np.testing.assert_allclose(
        K48.tail_g, K48.tail_xi ** K48.grid.tail_exponent, rtol=1e-14)
    np.testing.assert_array_equal(K48.tail_weights, K48.tail_W.sum(axis=1))
    assert 0.0 <= K48.assembly_error <= 1e-5
    assert K48.nu == pytest.approx(1.0 + K48.sp)


def test_boundary_pair_weight_is_clipped(K16):
    # the exact pair representation wants a small negative weight next
    # to the truncation radius (the overlap mass beats the local term
    # there); the assembly floors it at zero to keep the comparison
    # machinery valid, so this entry must be exactly zero
    assert K16.weights[15, 16] == 0.0
    assert K16.weights[14, 15] > 0.0


def test_tail_exponent_validation(p2):
    for bt in (0.5, 1.0):
        grid = make_radial_grid(tail_exponent=bt, R_max=64.0, M=32,
                                grading=1.05)
        with pytest.raises(DomainError):
            op.assemble(grid, p2)
    for bt in (0.0, 1.2):
        grid = make_radial_grid(tail_exponent=bt, R_max=64.0, M=32,
                                grading=1.05)
        K = op.assemble(grid, p2)
        assert K.weights.min() >= 0.0


def test_mismatched_grid_rejected(K16, p2):
    other = make_radial_grid(tail_exponent=2.0, R_max=64.0, M=32,
                             grading=1.05)
    u = RadialFunction(other, np.ones(33))
    assert not K16.matches(u)
    with pytest.raises(UsageError):
        op.energy_seminorm(u, K16, p2)
    good = RadialFunction(K16.grid, np.ones(17))
    wrong_params = ProblemParams(N=3, s=0.4, p=2.0, gamma=0.5, alpha=1.2)
    with pytest.raises(UsageError):
        op.weak_residual(good, K16, wrong_params)


def test_power_profile_residual_scale(p2):
    # r^{-beta} with the critical tail exponent should be nearly a
    # steady state of the pairing, while a 10% larger exponent is far
    # from one; measured ratio at this resolution is about 4.3e-3
    sups = {}
    for beta in (p2.beta_star, 1.1 * p2.beta_star):
        grid = make_radial_grid(tail_exponent=beta, R_max=64.0, M=128,
                                grading=1.03)
        K = op.assemble(grid, p2)
        vals = np.empty(grid.nodes.size)
        vals[1:] = grid.nodes[1:] ** -beta
        vals[0] = vals[1]
        res = op.weak_residual(RadialFunction(grid, vals), K, p2)
        win = (grid.nodes >= 2.0) & (grid.nodes <= grid.R_max / 2.0)
        sups[beta] = np.abs(res[win]).max()
    assert sups[p2.beta_star] <= 0.01 * sups[1.1 * p2.beta_star]
