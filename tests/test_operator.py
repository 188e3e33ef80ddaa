"""Discrete energy assembly against closed forms and structural identities.

GOLD_HAT_ENERGY and GOLD_SELF_COEFF come from an independent script that
evaluated the nonlocal energy of a single hat function (and the tail
self-interaction coefficient) with adaptive quadrature on the exact
closed-form kernel at N=3, s=1/2, where the angular profile collapses to
4*pi/(1-rho^2)^2.  The remaining tests are exact identities
(homogeneity, Euler relations, truncation monotonicity) that hold for
the discrete model at any resolution, so they use small grids.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fracp.errors import DomainError, FracpError, UsageError
from fracp.grid import RadialGrid, RadialFunction, make_radial_grid
from fracp.kernel import (
    PIPELINE_CONVENTION,
    edge_exponent,
    get_phi_table,
    unit_sphere_area,
)
from fracp.params import ProblemParams
from fracp.quadrature import (QuadratureSpec, _graded_rows, gauss_jacobi_01,
                              gauss_legendre_01, graded_points, integrate)
from fracp import kernel
from fracp import operator as op

GOLD_HAT_ENERGY = 14076.91527532815439
GOLD_SELF_COEFF = 40425.899626862012903   # 4096 * pi^2


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
    H = op.energy_terms(u, K48, p25).hessian()
    res = op.weak_residual(u, K48, p25)
    np.testing.assert_allclose(H @ vals, (p25.p - 1.0) * res,
                               rtol=1e-10, atol=1e-13 * np.abs(res).max())


def test_hessian_matches_residual_differences(K48, p25):
    rng = np.random.default_rng(5150)
    vals = np.abs(rng.standard_normal(K48.grid.nodes.size)) + 0.5
    u = RadialFunction(K48.grid, vals)
    H = op.energy_terms(u, K48, p25).hessian()
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


def _energy_terms_loop(U, K):
    """Energy, (1/p) gradient and Hessian of the pair model, term by term.

    Each elementary term c |U_i - g U_M|^p (a node pair has g = 1 and
    U_M replaced by U_j) is differentiated by hand in scalar loops, so
    nothing here shares the array formulas of ``energy_terms``.
    """
    p, n = K.p, U.size
    E, R, H = 0.0, np.zeros(n), np.zeros((n, n))

    def add(c, i, j, gj):
        # c |U_i - gj U_j|^p: gradient direction e_i - gj e_j
        nonlocal E
        t = U[i] - gj * U[j]
        E += c * abs(t) ** p
        flux = c * abs(t) ** (p - 2.0) * t
        curv = (p - 1.0) * c * abs(t) ** (p - 2.0)
        R[i] += flux
        R[j] -= gj * flux
        H[i, i] += curv
        H[i, j] -= gj * curv
        H[j, i] -= gj * curv
        H[j, j] += gj * gj * curv

    for i in range(n):
        for j in range(i + 1, n):
            add(float(K.weights[i, j]), i, j, 1.0)
    for i in range(n):
        for q in range(K.tail_g.size):
            add(float(K.tail_W[i, q]), i, n - 1, float(K.tail_g[q]))
    um = float(U[-1])
    E += K.tail_self * abs(um) ** p
    R[-1] += K.tail_self * abs(um) ** (p - 2.0) * um
    H[-1, -1] += (p - 1.0) * K.tail_self * abs(um) ** (p - 2.0)
    return E, R, H


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_energy_terms_match_term_loop(K48, p2, p25, p):
    # the tail terms of node M couple U_M to itself (gradient direction
    # (1 - g) e_M); the four Hessian updates of add() sum to that exactly
    params = p25 if p == 2.5 else p2
    K = K48 if p == 2.5 else op.assemble(K48.grid, p2)
    rng = np.random.default_rng(4242)
    r = K.grid.nodes
    vals = (1.0 + r ** 2) ** -0.75 * (1.0 + 0.2 * rng.standard_normal(r.size))
    terms = op.energy_terms(RadialFunction(K.grid, vals), K, params)
    E, R, H = _energy_terms_loop(vals, K)
    assert terms.energy == pytest.approx(E, rel=1e-12)
    assert np.abs(terms.residual() - R).max() <= 1e-12 * np.abs(R).max()
    assert np.abs(terms.hessian() - H).max() <= 1e-12 * np.abs(H).max()


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_shared_buffers_keep_values_and_refuse_stale_hessians(K48, p2, p25,
                                                              p):
    # a solve prices every point into one buffer set: point a keeps the
    # energy and residual it summed, point b is priced exactly as if
    # alone, and a's Hessian, whose weights b overwrote, is refused
    params = p25 if p == 2.5 else p2
    K = K48 if p == 2.5 else op.assemble(K48.grid, p2)
    rng = np.random.default_rng(4343)
    r = K.grid.nodes
    base = (1.0 + r ** 2) ** -0.75
    va, vb = base * (1.0 + 0.2 * rng.standard_normal((2, r.size)))
    ua = RadialFunction(K.grid, va)
    alone = op.energy_terms(ua, K, params)
    buffers = op._Buffers(K)
    a = op.energy_terms(ua, K, params, buffers=buffers)
    Ha = a.hessian().copy()
    b = op.energy_terms(RadialFunction(K.grid, vb), K, params,
                        buffers=buffers)
    assert a.energy == alone.energy
    assert np.array_equal(a.residual(), alone.residual())
    # bit for bit, and exactly symmetric: the Newton step factors H.T
    assert np.array_equal(Ha, alone.hessian())
    assert np.array_equal(Ha, Ha.T)
    E, R, H = _energy_terms_loop(vb, K)
    assert b.energy == pytest.approx(E, rel=1e-12)
    assert np.abs(b.residual() - R).max() <= 1e-12 * np.abs(R).max()
    assert np.abs(b.hessian() - H).max() <= 1e-12 * np.abs(H).max()
    with pytest.raises(UsageError):
        a.hessian()


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
    assert 0.0 <= K48.assembly_error <= 1e-5
    assert K48.nu == pytest.approx(1.0 + K48.sp)


def test_boundary_pair_weight_is_clipped(K16, p2):
    # the exact pair representation wants a small negative weight next
    # to the truncation radius (the overlap mass beats the local term
    # there); the assembly floors it at zero to keep the comparison
    # machinery valid, so this entry must be exactly zero
    assert K16.weights[15, 16] == 0.0
    assert K16.weights[14, 15] > 0.0
    # ... and records the clip: the correction V_15 exceeded the
    # neighbor weight it is subtracted from by V_15 - pre_sub_15
    args, ms, ml = _far_field_inputs(K16.grid, p2, PRODUCTION_RULES)
    V15 = _pair_corrections_loop(*args, ms, ml,
                                 _far_halves(args, PRODUCTION_RULES))[15]
    r, h, N, sp, nu, S, G = args
    same = op._same_cell(r, h, N, sp, p2.p, nu, S, G)
    _, Bw, _ = op._adjacent(r, h, N, sp, p2.p, nu, S, G)
    pre15 = same[15] + max(Bw[14], 0.0)
    assert K16.correction_clips >= 1
    assert V15 > pre15
    assert abs(K16.correction_clipped - (V15 - pre15)) <= 1e-13 * V15


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
    assert not K16.matches(u.grid)
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


# ---------------------------------------------------------------------------
# the far-field blocks against their per-node loops
# ---------------------------------------------------------------------------

def _pair_corrections_loop(r, h, N, sp, nu, S, G, mass_shared, mass_last,
                           halves, n_t=8, n_y=12):
    """Oracle: the variance masses of the log-distance rule one (cell,
    t-node) at a time.  Seen from t the mass splits at t/2 and 2t: the
    far halves from ``halves``, one node per call, the windows next to
    t by an n_y-point Gauss-Legendre rule in y = log|s - t|, written
    with (z - x)^{-nu} instead of e^{-nu y}, and (R_max, inf) from the
    exterior mass functions where 2t > R_max."""
    M = h.size
    R = r[-1]
    yt, wt = gauss_legendre_01(n_t)
    yq, wq = gauss_legendre_01(n_y)
    inner_half, outer_half = halves

    def window(tm, d_lo, d_hi, sign):
        if not d_hi > d_lo:
            return 0.0
        y = math.log(d_lo) + (math.log(d_hi) - math.log(d_lo)) * yq
        s = tm + sign * np.exp(y)
        x, z = (s, tm) if sign < 0 else (tm, s)
        val = (S * x ** (N - 1) * z ** (nu - 1.0 - sp) * (z - x) ** (-nu)
               * G(x / z) * np.exp(y))
        return (math.log(d_hi) - math.log(d_lo)) * float((val * wq).sum())

    V = np.zeros(M)
    for a in range(M):
        mass = np.zeros(n_t)
        for m, tm in enumerate((r[a] + h[a] * yt).tolist()):
            one = np.array([tm])
            if a == M - 1:
                mass[m] = mass_last(one)[0]
            else:                       # cells right of a+1, and beyond R
                edge = r[a + 2]
                B = max(edge, 2.0 * tm)
                mass[m] = (outer_half(one, np.array([tm / B]))[0]
                           if B <= R else mass_shared(one)[0])
                mass[m] += window(tm, edge - tm, min(B, R) - tm, 1.0)
            if a >= 2:                  # cells left of a-1
                edge = r[a - 1]
                P = min(edge, 0.5 * tm)
                mass[m] += (inner_half(one, np.array([P / tm]))[0]
                            + window(tm, tm - edge, tm - P, -1.0))
        V[a] = 2.0 * h[a] * float((wt * (1.0 - yt) * yt * mass).sum())
    return V


def _pair_corrections_graded(r, h, N, sp, nu, S, G, mass_shared, mass_last,
                             n_t=8, n_s=16, grade_factor=1.5):
    """Accuracy reference: the variance masses by the graded rule the
    assembly used before the log-distance rule.  The interior masses
    over [0, r_{a-1}] and [r_{a+2}, R_max] are integrated over panels
    graded toward the near edge, a panel set per t-node with the first
    panel half the distance to the edge, n_s Gauss points per panel;
    the exterior mass comes from the mass functions for every cell.
    The t-nodes of one cell are evaluated together, their panel sets
    built by the row form of graded_points."""
    M = h.size
    R = r[-1]
    yt, wt = gauss_legendre_01(n_t)
    ys, wsn = gauss_legendre_01(n_s)

    def graded_mass(t, lo, hi, toward_hi):
        # the graded_points rows of all t-nodes at once, padded with
        # zero-width panels at the end away from the edge
        edge = hi if toward_hi else lo
        pts = _graded_rows(lo, hi, 0.5 * np.abs(t - edge),
                           toward_b=toward_hi, factor=grade_factor,
                           max_panels=60)
        wid = np.diff(pts, axis=1)[:, :, None]
        s = pts[:, :-1, None] + wid * ys
        tm = t[:, None, None]
        x, y = (s, tm) if toward_hi else (tm, s)
        val = (S * x ** (N - 1) * y ** (nu - 1.0 - sp) * (y - x) ** (-nu)
               * G(x / y))
        return (val * wid * wsn).sum(axis=(1, 2))

    V = np.zeros(M)
    for a in range(M):
        t = r[a] + h[a] * yt
        mass = (mass_last if a == M - 1 else mass_shared)(t)
        if a >= 2:
            mass += graded_mass(t, 0.0, r[a - 1], True)
        if a <= M - 3:
            mass += graded_mass(t, r[a + 2], R, False)
        V[a] = 2.0 * h[a] * float((wt * (1.0 - yt) * yt * mass).sum())
    return V


def _tail_columns_loop(r, h, N, sp, nu, S, G, R, xi_s, wxi_s, xi_l, wxi_l,
                       n_hat=6):
    """Oracle: the exterior coupling with the last cell's columns built
    one xi node at a time."""
    M = h.size
    yx, wx = gauss_legendre_01(n_hat)
    nq_s = xi_s.size
    tail_xi = np.concatenate([xi_s, xi_l])
    W = np.zeros((M + 1, tail_xi.size))
    pref = 2.0 * S * R ** (-sp)

    c = np.arange(0, M - 1)
    x = r[c][:, None] + h[c][:, None] * yx[None, :]        # (M-1, n_hat)
    rho = x[:, :, None] * xi_s[None, None, :] / R
    phi = G(rho) * (1.0 - rho) ** (-nu)
    core = pref * x[:, :, None] ** (N - 1) * phi * wxi_s[None, None, :]
    core = core * (h[c][:, None, None] * wx[None, :, None])
    W[0:M - 1, 0:nq_s] += (core * (1.0 - yx)[None, :, None]).sum(axis=1)
    W[1:M, 0:nq_s] += (core * yx[None, :, None]).sum(axis=1)

    a = M - 1
    ha = h[a]
    for j, (xiq, wq) in enumerate(zip(xi_l.tolist(), wxi_l.tolist())):
        gap = (1.0 - xiq) * R
        if gap < 2.0 * ha:
            ptsx = np.asarray(graded_points(r[a], R, toward=R,
                                            scale=0.5 * gap, factor=2.0,
                                            max_panels=60))
        else:
            ptsx = np.array([r[a], R])
        xg = (ptsx[:-1, None] + np.diff(ptsx)[:, None] * yx[None, :]).ravel()
        wg_x = (np.diff(ptsx)[:, None] * wx[None, :]).ravel()
        rho = xg * xiq / R
        phi = G(rho) * (1.0 - rho) ** (-nu)
        val = pref * wq * xg ** (N - 1) * phi * wg_x
        frac = (xg - r[a]) / ha
        W[a, nq_s + j] += float((val * (1.0 - frac)).sum())
        W[a + 1, nq_s + j] += float((val * frac).sum())
    return tail_xi, W


# (n_t, n_y, far-half Jacobi order or None for the series, shared xi
# nodes, last-cell head and panel orders): the production pass and the
# verification pass of assemble
PRODUCTION_RULES = (8, 12, None, 48, 24, 12)
VERIFICATION_RULES = (12, 24, 16, 64, 32, 16)


def _far_field_inputs(grid, params, rules):
    N, sp = params.N, params.sp
    nu = edge_exponent(N, sp, PIPELINE_CONVENTION)
    S = unit_sphere_area(N - 1)
    G = get_phi_table(N, sp, PIPELINE_CONVENTION).edge_profile
    _, _, _, n_xi, n_head, n_panel = rules
    xi_s, wxi_s = gauss_jacobi_01(n_xi, 0.0, sp - 1.0)
    xi_l, wxi_l = op._last_cell_xi_rule(sp, n_head=n_head, n_panel=n_panel)
    ms, ml = op._tail_mass_funcs(grid.R_max, N, sp, nu, S, G,
                                 xi_s, wxi_s, xi_l, wxi_l)
    return (grid.nodes, grid.widths, N, sp, nu, S, G), ms, ml


def _far_halves(args, rules):
    # the far halves the pass of ``rules`` uses: the profile series in
    # production, Gauss-Jacobi quadrature of the phi table in the check
    _, _, N, sp, nu, S, G = args
    n_half = rules[2]
    if n_half is None:
        return op._series_halves(
            N, sp, S, kernel._profile_series(N, sp, PIPELINE_CONVENTION))
    return op._quadrature_halves(N, sp, nu, S, G, n_half)


def _max_rel(new, ref):
    nz = ref != 0.0
    assert np.array_equal(new != 0.0, nz)
    return float((np.abs(new - ref)[nz] / np.abs(ref[nz])).max())


@pytest.mark.parametrize("rules", [PRODUCTION_RULES, VERIFICATION_RULES],
                         ids=["production", "verification"])
@pytest.mark.parametrize("p", [2.0, 2.5])
def test_pair_corrections_match_loop(p, rules):
    # the corrections depend on the grid nodes and on sp = s*p, not on
    # the tail exponent (that is varied in the assemble test below)
    params = ProblemParams(N=3, s=0.5, p=p, gamma=0.5,
                           alpha=1.5 if p == 2.0 else 1.0)
    n_t, n_y = rules[:2]
    for grading in (1.0, 1.03):
        for M in (16, 48, 128):
            grid = make_radial_grid(tail_exponent=0.0, R_max=64.0, M=M,
                                    grading=grading)
            args, ms, ml = _far_field_inputs(grid, params, rules)
            halves = _far_halves(args, rules)
            V = op._pair_corrections(*args, ms, ml, halves, n_t=n_t,
                                     n_y=n_y)
            ref = _pair_corrections_loop(*args, ms, ml, halves, n_t=n_t,
                                         n_y=n_y)
            assert _max_rel(V, ref) <= 1e-13, (grading, M)


@pytest.mark.parametrize("rules", [PRODUCTION_RULES, VERIFICATION_RULES],
                         ids=["production", "verification"])
@pytest.mark.parametrize("N, s, p", [(3, 0.5, 2.0), (3, 0.5, 2.5),
                                     (3, 0.3, 2.2), (5, 0.4, 2.0)])
def test_pair_corrections_match_graded_rule(N, s, p, rules):
    # the log-distance rule against the graded rule at twice its panel
    # order and a finer grading, with the same t-rule and exterior mass
    # functions: 1e-9, where the two were measured 1.4e-10 apart (the
    # phi table's own error in these integrals, not either rule's)
    params = ProblemParams.kernel_only(N, s, p)
    n_t, n_y = rules[:2]
    grids = [make_radial_grid(tail_exponent=0.0, R_max=64.0, M=M,
                              grading=grading)
             for grading in (1.0, 1.03) for M in (16, 48, 128)]
    grids.append(make_radial_grid(tail_exponent=0.0, R_max=64.0, M=512,
                                  grading=1.03 ** 0.5))
    for grid in grids:
        args, ms, ml = _far_field_inputs(grid, params, rules)
        V = op._pair_corrections(*args, ms, ml, _far_halves(args, rules),
                                 n_t=n_t, n_y=n_y)
        ref = _pair_corrections_graded(*args, ms, ml, n_t=n_t)
        assert _max_rel(V, ref) <= 1e-9, grid.widths.size


@pytest.mark.parametrize("N, s, p", [(3, 0.5, 2.0), (3, 0.5, 2.5),
                                     (3, 0.3, 2.2), (5, 0.4, 2.0)])
def test_far_halves_match_adaptive_quadrature(N, s, p):
    # the mass over [0, u t] is S t^{N-1-sp} int_0^u rho^{N-1} Phi, the
    # mass over [t/u, inf) is S t^{N-1-sp} int_0^u xi^{sp-1} Phi, with Phi
    # in closed form; the series to 1e-13, the verification pass's
    # quadrature of the phi table to 1e-11 (the table's accuracy)
    sp = s * p
    nu = edge_exponent(N, sp)
    S = unit_sphere_area(N - 1)

    def Phi(rho):
        return (kernel._edge_profile_exact(rho, N, sp, PIPELINE_CONVENTION)
                * (1.0 - rho) ** -nu)

    spec = QuadratureSpec(nodes=24, tol=1e-15, max_refinements=4)
    u = np.array([1e-3, 0.1, 0.3, 0.5])
    want_in = np.array([integrate(lambda x: x ** (N - 1) * Phi(x),
                                  [0.0, v], spec).value for v in u])
    want_out = np.array([integrate(lambda x: x ** (sp - 1.0) * Phi(x),
                                   [0.0, v], spec,
                                   lo_exponent=sp - 1.0).value for v in u])
    series = op._series_halves(
        N, sp, S, kernel._profile_series(N, sp, PIPELINE_CONVENTION))
    table = op._quadrature_halves(
        N, sp, nu, S, get_phi_table(N, sp).edge_profile, 16)
    for t in (1.0, 3.7):
        scale = S * t ** (N - 1.0 - sp)
        tt = np.full(u.size, t)
        for (inner, outer), tol in ((series, 1e-13), (table, 1e-11)):
            assert np.max(np.abs(inner(tt, u) / (scale * want_in) - 1.0)) \
                <= tol
            assert np.max(np.abs(outer(tt, u) / (scale * want_out) - 1.0)) \
                <= tol


def test_verification_pass_does_not_use_the_series(p25, monkeypatch):
    # the production far halves come from the series; the verification
    # pass integrates its own from the phi table, so an error in the
    # series shows as an assembly deviation
    calls = []
    series = op._profile_series
    check = op._verification_pass

    def counting(*args):
        calls.append("series")
        return series(*args)

    def marked(*args):
        calls.append("check")
        return check(*args)

    monkeypatch.setattr(op, "_profile_series", counting)
    monkeypatch.setattr(op, "_verification_pass", marked)
    grid = make_radial_grid(tail_exponent=2.0, R_max=64.0, M=48,
                            grading=1.06)
    op.assemble(grid, p25)
    assert calls == ["series", "check"]


@pytest.mark.parametrize("bt_star", [False, True], ids=["bt0", "bt_star"])
def test_assemble_matches_loop_oracle(p25, bt_star, monkeypatch):
    bt = p25.beta_star if bt_star else 0.0
    grid = make_radial_grid(tail_exponent=bt, R_max=64.0, M=48,
                            grading=1.06)
    K = op.assemble(grid, p25)
    monkeypatch.setattr(op, "_pair_corrections", _pair_corrections_loop)
    monkeypatch.setattr(op, "_tail_columns", _tail_columns_loop)
    ref = op.assemble(grid, p25)
    assert _max_rel(K.weights, ref.weights) <= 1e-13
    assert _max_rel(K.tail_W, ref.tail_W) <= 1e-13
    assert K.assembly_error == pytest.approx(ref.assembly_error, rel=1e-12)


def test_assembly_makes_no_per_node_panel_calls(p25, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return graded_points(*args, **kwargs)

    monkeypatch.setattr(op, "graded_points", counting)
    grid = make_radial_grid(tail_exponent=2.0, R_max=64.0, M=48,
                            grading=1.06)
    op.assemble(grid, p25)
    assert len(calls) < 10


# ---------------------------------------------------------------------------
# bounded array passes: the same bits as one pass per band or block
# ---------------------------------------------------------------------------

def _separated_by_band(Kmat, r, h, N, sp, nu, S, G, order=op._band_order,
                       bands=None, far=None):
    """Oracle: the hat-product weights one band at a time, each band in
    one array pass and added to K before the next band is computed; with
    ``far``, only the pairs (c, c') with c' < far[c]."""
    M = h.size
    for d in (bands if bands is not None else range(2, M)):
        nd = order(d)
        X, Wx = gauss_legendre_01(nd)
        c = np.arange(0, M - d)
        if far is not None:
            c = c[c + d < far[c]]
        cp = c + d
        x = r[c][:, None] + h[c][:, None] * X[None, :]     # (npair, nd)
        y = r[cp][:, None] + h[cp][:, None] * X[None, :]
        xx = x[:, :, None]
        yy = y[:, None, :]
        base = (2.0 * S * xx ** (N - 1) * yy ** (nu - 1.0 - sp)
                * (yy - xx) ** (-nu) * G(xx / yy))
        base = base * (Wx[None, :, None] * Wx[None, None, :])
        base = base * (h[c] * h[cp])[:, None, None]
        lo_m, hi_m = (1.0 - X)[None, :, None], X[None, :, None]
        lo_k, hi_k = (1.0 - X)[None, None, :], X[None, None, :]
        Kmat[c, cp] += (base * lo_m * lo_k).sum(axis=(1, 2))
        Kmat[c, cp + 1] += (base * lo_m * hi_k).sum(axis=(1, 2))
        Kmat[c + 1, cp] += (base * hi_m * lo_k).sum(axis=(1, 2))
        Kmat[c + 1, cp + 1] += (base * hi_m * hi_k).sum(axis=(1, 2))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("M", [48, 128])
def test_separated_matches_band_loop_bitwise(K48, p25, M):
    # the production pass integrates the near pairs, c' < far[c]; at
    # M = 128 its order-4 bands span several chunks of whole pairs
    grid = K48.grid if M == 48 else make_radial_grid(
        tail_exponent=2.0, R_max=64.0, M=M, grading=1.03)
    args, _, _ = _far_field_inputs(grid, p25, PRODUCTION_RULES)
    far = op._far_start(grid.nodes)
    # nonzero start values, as the near-field weights are in assemble,
    # so the order of the additions shows in the bits
    start = np.random.default_rng(M).uniform(0.0, 1.0, (M + 1, M + 1))
    check = [d for d in op._CHECK_BANDS if d < M]
    Kmat, ref = start.copy(), start.copy()
    kept = op._separated(Kmat, *args, keep=check, far=far)
    _separated_by_band(ref, *args, far=far)
    assert _same_bits(Kmat, ref)

    # the kept production sums of the near pairs are those of the band
    # loop, the verification pass's K1 before the far pairs join it; the
    # elevated-order K2 takes every pair and matches its band loop too
    assert list(kept) == check
    K1, ref1 = np.zeros_like(start), np.zeros_like(start)
    for d, sums in kept.items():
        op._add_band(K1, d, sums)
    _separated_by_band(ref1, *args, bands=check, far=far)
    assert _same_bits(K1, ref1)
    K2, ref2 = np.zeros_like(start), np.zeros_like(start)
    double = lambda d: 2 * op._band_order(d)  # noqa: E731
    op._separated(K2, *args, order=double, bands=check)
    _separated_by_band(ref2, *args, order=double, bands=check)
    assert _same_bits(K2, ref2)


def test_diagonal_store_holds_the_check_bands_bitwise(p25):
    # the verification pass keeps only the diagonals its check bands
    # reach; filled by the same band additions, they hold the full
    # matrix's bits, and the full matrix has nothing off them
    M = 128
    grid = make_radial_grid(tail_exponent=2.0, R_max=64.0, M=M,
                            grading=1.03)
    args, _, _ = _far_field_inputs(grid, p25, PRODUCTION_RULES)
    check = [d for d in op._CHECK_BANDS if d < M]
    double = lambda d: 2 * op._band_order(d)  # noqa: E731
    full = np.zeros((M + 1, M + 1))
    _separated_by_band(full, *args, order=double, bands=check)
    store = op._Diagonals(M + 1, check)
    op._separated(store, *args, order=double, bands=check)
    i, j = np.nonzero(full)
    assert set(np.unique(j - i)) <= set(store.offsets.tolist())
    rows = np.arange(M + 1)[:, None]
    cols = rows + store.offsets[None, :]
    inside = cols <= M
    assert _same_bits(store.values[inside],
                      full[np.broadcast_to(rows, cols.shape)[inside],
                           cols[inside]])
    assert not np.any(store.values[~inside])


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_assembly_bits_do_not_depend_on_the_chunk_size(K48, p2, p25, p,
                                                       monkeypatch):
    # 37 points per pass puts a chunk boundary inside every block
    params = p2 if p == 2.0 else p25
    K = K48 if p == 2.5 else op.assemble(K48.grid, params)
    monkeypatch.setattr(op, "_CHUNK_PTS", 37)
    ragged = op.assemble(K48.grid, params)
    assert _same_bits(ragged.weights, K.weights)
    assert _same_bits(ragged.tail_W, K.tail_W)
    assert ragged.tail_self == K.tail_self
    assert ragged.assembly_error == K.assembly_error
    for name in ("adjacent_clips", "adjacent_clipped", "correction_clips",
                 "correction_clipped"):
        assert getattr(ragged, name) == getattr(K, name), name


def test_assembly_peak_memory_is_bounded(p25):
    # every block works in passes of at most _CHUNK_PTS points, so one
    # assembly at M = 256 holds a few MB (the (M+1)^2 weight arrays and
    # the band sums) at its peak; numpy reports its data buffers to
    # tracemalloc
    grid = make_radial_grid(tail_exponent=p25.beta_star, R_max=64.0, M=256,
                            grading=1.03)
    op.assemble(grid, p25)          # phi table and Gauss rules cached
    tracemalloc.start()
    try:
        op.assemble(grid, p25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_assembly_peak_memory_at_512(p25):
    # at M = 512 each (M+1)^2 array is 2.1 MB: K itself, plus one pass of
    # at most _CHUNK_PTS points at a time.  The separated bands are added
    # to K as they complete and the verification pass compares its check
    # bands on their diagonals only, so no second or third full matrix
    # is held (11.7 MB when both were)
    grid = make_radial_grid(tail_exponent=p25.beta_star, R_max=64.0, M=512,
                            grading=1.03)
    op.assemble(grid, p25)          # phi table and Gauss rules cached
    tracemalloc.start()
    try:
        op.assemble(grid, p25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.5e6


# ---------------------------------------------------------------------------
# the far field from the profile series
# ---------------------------------------------------------------------------

SERIES_CASES = [(3, 0.5, 2.0), (3, 0.5, 2.5), (3, 0.3, 2.2), (5, 0.4, 2.0)]


@pytest.mark.parametrize("N, s, p", SERIES_CASES)
def test_profile_series_matches_closed_form(N, s, p):
    # sum phi_k rho^{2k} is Phi on the whole range the far pairs use
    sp = s * p
    phi = kernel._profile_series(N, sp, PIPELINE_CONVENTION)
    rho = np.linspace(0.0, 0.5, 2001)
    series = (phi[None, :] * rho[:, None] ** (2 * np.arange(phi.size))).sum(1)
    exact = (kernel._edge_profile_exact(rho, N, sp, PIPELINE_CONVENTION)
             * (1.0 - rho) ** -edge_exponent(N, sp))
    assert np.max(np.abs(series / exact - 1.0)) <= 1e-14


def test_hat_integrals_match_gauss_legendre():
    # int_0^1 (s, 1 - s)(1 - delta s)^e ds against a 64-point rule, which
    # resolves (1 - delta s)^e to round-off for delta <= 1/2 at these
    # exponents; narrow cells (small delta) are where the closed forms
    # cancel and the series takes over
    y, w = gauss_legendre_01(64)
    for e in (-92.25, -45.5, -11.5, -3.7, -2.0, 2.0, 4.0, 10.0, 40.0, 90.0):
        delta = np.array([1e-6, 1e-4, 2e-3, 0.0074, 0.03, 0.1, 0.25, 0.5]
                         + ([0.9, 1.0] if e > 0 else []))
        lo, hi = op._hat_integrals(delta, np.array([e]))
        f = (1.0 - delta[:, None] * y[None, :]) ** e
        ref_lo = (f * y * w).sum(axis=1)
        ref_hi = (f * (1.0 - y) * w).sum(axis=1)
        assert np.max(np.abs(lo[:, 0] / ref_lo - 1.0)) <= 5e-14, e
        assert np.max(np.abs(hi[:, 0] / ref_hi - 1.0)) <= 5e-14, e


def _far_grids():
    # the battery's M = 512 grid (its first cell is 5e-7 wide, where
    # r'^{-1-sp-2k} alone overflows), a finer geometric one and a
    # uniform one
    return [make_radial_grid(tail_exponent=0.0, R_max=64.0, M=512,
                             grading=1.03),
            make_radial_grid(tail_exponent=0.0, R_max=64.0, M=1024,
                             grading=1.03 ** 0.25),
            make_radial_grid(tail_exponent=0.0, R_max=64.0, M=256,
                             grading=1.0)]


@pytest.mark.parametrize("N, s, p", SERIES_CASES)
def test_far_pairs_match_double_order_quadrature(N, s, p):
    # the series' hat sums of every far pair of a spread of bands against
    # the Gauss rules at twice the production order (the verification
    # pass's rule): 1e-10, where the production rule is 1e-8 to 1e-6 off
    params = ProblemParams.kernel_only(N, s, p)
    sp = params.sp
    phi = kernel._profile_series(N, sp, PIPELINE_CONVENTION)
    for grid in _far_grids():
        args, _, _ = _far_field_inputs(grid, params, PRODUCTION_RULES)
        r, h, _, _, nu, S, G = args
        M = h.size
        far = op._far_start(r)
        bands = sorted(set(range(2, M, 13)) | set(range(2, 40)))
        series = {d: np.zeros((4, M - d)) for d in bands}
        op._far_series(np.zeros((M + 1, M + 1)), r, h, N, sp, S, phi, far,
                       series)
        ref = op._separated(np.zeros((M + 1, M + 1)), *args,
                            order=lambda d: 2 * op._band_order(d),
                            bands=bands, keep=bands)
        origin = False          # a far pair has its first cell at r = 0
        for d in bands:
            c = np.arange(M - d)
            is_far = c + d >= far[c]
            assert not np.any(series[d][:, ~is_far])
            got, want = series[d][:, is_far], ref[d][:, is_far]
            assert np.all(np.isfinite(got))
            if is_far.any():
                assert np.max(np.abs(got / want - 1.0)) <= 1e-10, (M, d)
            origin |= bool(is_far[0])
        assert origin


def test_assembly_bits_do_not_depend_on_blas_threads(p25):
    # the far field sums its series without BLAS; K and tail_W come out
    # byte for byte the same with one and with two BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(op.__file__)))
    probe = (
        "import hashlib\n"
        "from fracp.grid import make_radial_grid\n"
        "from fracp.operator import assemble\n"
        "from fracp.params import ProblemParams\n"
        f"params = ProblemParams(N=3, s=0.5, p=2.5, gamma={p25.gamma!r}, "
        f"alpha={p25.alpha!r})\n"
        "grid = make_radial_grid(tail_exponent=params.beta_star, R_max=64.0, "
        "M=512, grading=1.03)\n"
        "K = assemble(grid, params)\n"
        "print(hashlib.sha256(K.weights.tobytes() + K.tail_W.tobytes())"
        ".hexdigest())\n")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=300).stdout
        digests.append(out.split()[-1])
    assert digests[0] == digests[1]
