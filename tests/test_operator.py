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
from fracp.quadrature import gauss_jacobi_01, gauss_legendre_01, graded_points
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
    V15 = _pair_corrections_loop(*args, ms, ml)[15]
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
                           n_t=8, n_s=8, grade_factor=2.0):
    """Oracle: the separated-pair variance masses one (cell, t-node) at a
    time, with one graded_points panel set each."""
    M = h.size
    R = r[-1]
    yt, wt = gauss_legendre_01(n_t)
    ys, wsn = gauss_legendre_01(n_s)
    V = np.zeros(M)
    for a in range(M):
        t = r[a] + h[a] * yt
        far = (mass_last if a == M - 1 else mass_shared)(t)
        if a >= 2:                      # cells strictly left of a-1
            edge = r[a - 1]
            for m, tm in enumerate(t.tolist()):
                pts = np.asarray(graded_points(
                    0.0, edge, toward=edge, scale=0.5 * (tm - edge),
                    factor=grade_factor, max_panels=60))
                s = pts[:-1, None] + np.diff(pts)[:, None] * ys[None, :]
                w = np.diff(pts)[:, None] * wsn[None, :]
                val = (S * s ** (N - 1) * tm ** (nu - 1.0 - sp)
                       * (tm - s) ** (-nu) * G(s / tm))
                far[m] += float((val * w).sum())
        if a <= M - 3:                  # cells strictly right of a+1
            edge = r[a + 2]
            for m, tm in enumerate(t.tolist()):
                pts = np.asarray(graded_points(
                    edge, R, toward=edge, scale=0.5 * (edge - tm),
                    factor=grade_factor, max_panels=60))
                s = pts[:-1, None] + np.diff(pts)[:, None] * ys[None, :]
                w = np.diff(pts)[:, None] * wsn[None, :]
                val = (S * tm ** (N - 1) * s ** (nu - 1.0 - sp)
                       * (s - tm) ** (-nu) * G(tm / s))
                far[m] += float((val * w).sum())
        V[a] = 2.0 * h[a] * float((wt * (1.0 - yt) * yt * far).sum())
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


# (n_t, n_s, grade_factor, shared xi nodes, last-cell head and panel
# orders): the production pass and the verification pass of assemble
PRODUCTION_RULES = (8, 8, 2.0, 48, 24, 12)
VERIFICATION_RULES = (12, 12, 1.5, 64, 32, 16)


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
    n_t, n_s, factor = rules[:3]
    for grading in (1.0, 1.03):
        for M in (16, 48, 128):
            grid = make_radial_grid(tail_exponent=0.0, R_max=64.0, M=M,
                                    grading=grading)
            args, ms, ml = _far_field_inputs(grid, params, rules)
            V = op._pair_corrections(*args, ms, ml, n_t=n_t, n_s=n_s,
                                     grade_factor=factor)
            ref = _pair_corrections_loop(*args, ms, ml, n_t=n_t, n_s=n_s,
                                         grade_factor=factor)
            assert _max_rel(V, ref) <= 1e-13, (grading, M)


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
                       bands=None):
    """Oracle: the hat-product weights one band at a time, each band in
    one array pass and added to K before the next band is computed."""
    M = h.size
    for d in (bands if bands is not None else range(2, M)):
        nd = order(d)
        X, Wx = gauss_legendre_01(nd)
        c = np.arange(0, M - d)
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
    # at M = 128 the order-4 bands span several chunks of whole pairs
    grid = K48.grid if M == 48 else make_radial_grid(
        tail_exponent=2.0, R_max=64.0, M=M, grading=1.03)
    args, _, _ = _far_field_inputs(grid, p25, PRODUCTION_RULES)
    # nonzero start values, as the near-field weights are in assemble,
    # so the order of the additions shows in the bits
    start = np.random.default_rng(M).uniform(0.0, 1.0, (M + 1, M + 1))
    check = [d for d in op._CHECK_BANDS if d < M]
    Kmat, ref = start.copy(), start.copy()
    kept = op._separated(Kmat, *args, keep=check)
    _separated_by_band(ref, *args)
    assert _same_bits(Kmat, ref)

    # the kept production sums rebuild the verification pass's K1, and
    # the elevated-order K2 matches its band loop too
    assert list(kept) == check
    K1, ref1 = np.zeros_like(start), np.zeros_like(start)
    for d, sums in kept.items():
        op._add_band(K1, d, sums)
    _separated_by_band(ref1, *args, bands=check)
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
