"""Discrete nonlocal energy on radial grids: assembly and evaluation.

A radial function is a piecewise-linear interpolant through nodal values
``U_0..U_M`` on ``[0, R_max]`` extended by the power tail
``U(r) = U_M (R_max/r)^{beta_tail}`` beyond the box.  For such profiles
the Gagliardo p-energy

    [u]^p = iint |u(x) - u(y)|^p |x - y|^{-(N + s p)} dx dy

reduces, after both sphere integrations, to a double radial integral
with kernel

    kappa(r, r') = S_{N-1} r^{N-1} r'^{-1-sp} Phi(r/r'),      r < r',

where Phi is the angular reduction of :mod:`fracp.kernel` and S_{N-1}
the unit-sphere area.  This module assembles that reduced form into

    E(U) = sum_{i<j} K_ij |U_i - U_j|^p
         + sum_{i,q} W_iq |U_i - g_q U_M|^p
         + c_self |U_M|^p,

a sum of elementary pair terms: ``K`` couples node pairs inside the box,
``W`` couples every node to quadrature samples of the exterior tail
profile (``g_q`` are the tail profile values at the samples), and
``c_self`` is the closed-form self-energy of the tail.

Why pair terms reproduce the energy
-----------------------------------
At p = 2 the true energy is the quadratic form of the interpolation
basis, and the assembly matches it block by block:

* within one cell only the slope enters; the cell's own energy is a
  single ``|U_{a+1} - U_a|^p`` term, exact for every p;
* for two adjacent cells a three-term model on the pair differences
  ``(U_{a+1}-U_a, U_{a+2}-U_{a+1}, U_{a+2}-U_a)`` is fitted to the three
  moments ``iint xi^p``, ``iint eta^p``, ``iint (xi+eta)^p`` of the
  local kernel; at p = 2 that reproduces every slope combination,
  because matching the three moments pins the cross moment
  ``iint xi eta`` exactly;
* separated cell pairs get the hat-product weights
  ``2 iint phi_i(r) phi_j(r') kappa``, which equal the mixed basis
  integrals whenever supports are disjoint.  Summed over nodes the
  products overshoot the true energy by the variance terms
  ``iint phi_a phi_{a+1}(r) (U_a - U_{a+1})^2 kappa`` of each cell
  (partition of unity inside the cell), so exactly that amount -- the
  far-field kernel mass weighted by ``phi_a phi_{a+1}`` -- is
  subtracted from the neighbor weight ``K[a, a+1]``.  The exterior
  columns enter the same bookkeeping, which is what makes the combined
  tail coupling exact as well.

For p > 2 the same weights give an O(h)-consistent pair model (the
within-cell and equal-slope adjacent parts stay exact); all weights stay
nonnegative, which the monotonicity and comparison arguments downstream
rely on.

Everything is assembled with fixed-order Gauss rules in a fixed
evaluation order, so a given (grid, params, convention) input always
produces the same matrix bit for bit.  A verification pass re-integrates
every block at elevated order and records the worst relative deviation
as ``assembly_error``; a deviation beyond 1e-5 raises
:class:`~fracp.errors.ConvergenceError` naming the offending cell pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, FracpError, UsageError
from .grid import RadialFunction, RadialGrid
from .kernel import (
    PIPELINE_CONVENTION,
    edge_exponent,
    get_phi_table,
    unit_sphere_area,
)
from .params import ProblemParams
from .quadrature import (
    QuadratureSpec,
    gauss_jacobi_01,
    gauss_legendre_01,
    graded_points,
    integrate,
)

__all__ = [
    "KernelMatrix",
    "assemble",
    "energy_seminorm",
    "weak_residual",
    "energy_hessian",
    "weight_a",
    "weighted_norm",
]

_SELF_CHECK_TOL = 1e-5
_TAIL_XI_CUT = 1e-6  # exterior coupling integrated up to xi = 1 - cut


@dataclass
class KernelMatrix:
    """Assembled pair weights realizing the energy on one grid.

    ``weights`` is dense symmetric with zero diagonal; entry (i, j)
    carries the full both-orderings mass of the pair, so the energy sums
    each unordered pair once.  ``tail_W`` couples nodes to the exterior
    sample points ``tail_xi = R_max / r'`` (profile values
    ``tail_g = tail_xi^{beta_tail}``), ``tail_self`` is the closed-form
    tail self-energy coefficient, and ``volume_weights`` are the exact
    annulus measures used for volume integrals on the same grid.
    """

    grid: RadialGrid
    convention: str
    N: int
    sp: float
    p: float
    nu: float
    weights: np.ndarray = field(repr=False, default=None)
    volume_weights: np.ndarray = field(repr=False, default=None)
    tail_xi: np.ndarray = field(repr=False, default=None)
    tail_g: np.ndarray = field(repr=False, default=None)
    tail_W: np.ndarray = field(repr=False, default=None)
    tail_self: float = 0.0
    assembly_error: float = 0.0

    @property
    def tail_weights(self) -> np.ndarray:
        """Total exterior coupling per node (row sums of ``tail_W``)."""
        return self.tail_W.sum(axis=1)

    def matches(self, u: RadialFunction) -> bool:
        return u.grid is self.grid or u.grid.grid_hash == self.grid.grid_hash


def _require_match(grid: RadialGrid, K: KernelMatrix, params: ProblemParams):
    """Refuse a grid or parameter set other than the ones K was built for."""
    if grid is not K.grid and grid.grid_hash != K.grid.grid_hash:
        raise UsageError(
            "kernel matrix was assembled on a different grid "
            f"(hashes {grid.grid_hash} vs {K.grid.grid_hash})"
        )
    if K.N != params.N or abs(K.sp - params.sp) > 1e-12 \
            or abs(K.p - params.p) > 1e-12:
        raise UsageError(
            "kernel matrix was assembled for different problem parameters "
            f"(N={K.N}, sp={K.sp:g}, p={K.p:g})"
        )


# ---------------------------------------------------------------------------
# assembly blocks
# ---------------------------------------------------------------------------

def _band_order(d: int) -> int:
    # integrands on separated pairs are analytic with the nearest kernel
    # edge at least d-1 cells away; low tensor orders converge fast
    if d == 2:
        return 10
    if d == 3:
        return 8
    if d <= 6:
        return 6
    return 4


def _same_cell(r, h, N, sp, p, nu, S, G, n_u=16, n_r=12):
    """Within-cell weights D_a / h_a^p for K[a, a+1].

    With w = r' - r the pair integral over one cell is
    2 S int_0^h w^{p-nu} int (r'-w)^{N-1} r'^{nu-1-sp} G((r'-w)/r') dr' dw;
    the outer power sits in a Jacobi weight, so the evaluation is
    singularity-free for every p.
    """
    yu, wu = gauss_jacobi_01(n_u, 0.0, p - nu)
    yr, wr = gauss_legendre_01(n_r)
    u = h[:, None] * yu[None, :]                       # (M, n_u)
    lo = r[:-1, None, None] + u[:, :, None]
    wid = (h[:, None] - u)[:, :, None]
    rp = lo + wid * yr[None, None, :]                  # (M, n_u, n_r)
    x = rp - u[:, :, None]
    vals = x ** (N - 1) * rp ** (nu - 1.0 - sp) * G(x / rp)
    inner = wid[:, :, 0] * np.einsum("aur,r->au", vals, wr)
    D = 2.0 * S * h ** (p - nu + 1.0) * np.einsum("au,u->a", inner, wu)
    return D / h ** p


def _adjacent(r, h, N, sp, p, nu, S, G, n_u=16, n_x=12):
    """Three-term weights (A', B', C') for every adjacent cell pair.

    Local coordinates: xi into the left cell, eta into the right cell,
    u = xi + eta the pair distance.  One kernel pass serves the three
    moments I_a = 2 iint xi^p Ker, I_b (eta^p), I_e ((xi+eta)^p).
    """
    ha, hb = h[:-1], h[1:]
    rm = r[1:-1]
    u1 = np.minimum(ha, hb)
    u2 = np.maximum(ha, hb)
    utop = ha + hb

    Ia = np.zeros(ha.size)
    Ib = np.zeros(ha.size)
    Ie = np.zeros(ha.size)

    ys, ws = gauss_legendre_01(n_x)

    # panel 1: u in (0, u1), xi = u * sigma; the power u^{p+1-nu} goes
    # into a Jacobi weight, sigma powers stay explicit so all three
    # moments share the kernel evaluations
    yu, wu = gauss_jacobi_01(n_u, 0.0, p + 1.0 - nu)
    u = u1[:, None] * yu[None, :]                      # (npair, n_u)
    xi = u[:, :, None] * ys[None, None, :]
    x = rm[:, None, None] - xi
    y = rm[:, None, None] + (u[:, :, None] - xi)
    base = x ** (N - 1) * y ** (nu - 1.0 - sp) * G(x / y)
    scale = 2.0 * S * u1 ** (p + 2.0 - nu)
    Ia += scale * np.einsum("aus,s,u->a", base, ws * ys ** p, wu)
    Ib += scale * np.einsum("aus,s,u->a", base, ws * (1.0 - ys) ** p, wu)
    Ie += scale * np.einsum("aus,s,u->a", base, ws, wu)

    # panels 2 and 3: u away from zero, xi over the exact admissible
    # slice [max(0, u - hb), min(ha, u)]; plain Gauss-Legendre in both.
    # Zero-width panels (equal neighbor cells) contribute zero weight.
    yg, wg = gauss_legendre_01(n_u)
    for lo_u, hi_u in ((u1, u2), (u2, utop)):
        wid_u = hi_u - lo_u
        u = lo_u[:, None] + wid_u[:, None] * yg[None, :]
        xlo = np.maximum(0.0, u - hb[:, None])
        xhi = np.minimum(ha[:, None], u)
        wid_x = xhi - xlo
        xi = xlo[:, :, None] + wid_x[:, :, None] * ys[None, None, :]
        eta = u[:, :, None] - xi
        x = rm[:, None, None] - xi
        y = rm[:, None, None] + eta
        ker = (u[:, :, None] ** (-nu) * x ** (N - 1)
               * y ** (nu - 1.0 - sp) * G(x / y))
        ker = ker * wid_x[:, :, None] * ws[None, None, :]
        pref = 2.0 * S * wid_u
        Ia += pref * np.einsum("aus,u->a", ker * xi ** p, wg)
        Ib += pref * np.einsum("aus,u->a", ker * eta ** p, wg)
        Ie += pref * np.einsum("aus,u->a", ker * u[:, :, None] ** p, wg)

    denom = utop ** p - ha ** p - hb ** p
    Cw = (Ie - Ia - Ib) / denom
    Aw = Ia / ha ** p - Cw
    Bw = Ib / hb ** p - Cw
    return Aw, Bw, Cw


def _separated(Kmat, r, h, N, sp, nu, S, G, order=_band_order, bands=None):
    """Hat-product weights for all cell pairs at distance >= 2."""
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


def _last_cell_xi_rule(sp, n_head=24, n_panel=12):
    """Nodes/weights for int_0^{1-cut} xi^{sp-1} f(xi) dxi that resolve
    the kernel edge at xi -> 1 (Jacobi head on [0, 1/2], geometrically
    graded panels after).  The xi power is folded into the weights.
    """
    head_y, head_w = gauss_jacobi_01(n_head, 0.0, sp - 1.0)
    xi_h = 0.5 * head_y
    w_h = 0.5 ** sp * head_w
    pts = graded_points(0.5, 1.0, toward=1.0, scale=_TAIL_XI_CUT,
                        factor=4.0, max_panels=60)[:-1]
    yg, wg = gauss_legendre_01(n_panel)
    lo = np.asarray(pts[:-1])
    hi = np.asarray(pts[1:])
    xi_g = (lo[:, None] + (hi - lo)[:, None] * yg[None, :]).ravel()
    w_g = ((hi - lo)[:, None] * wg[None, :]).ravel() * xi_g ** (sp - 1.0)
    return np.concatenate([xi_h, xi_g]), np.concatenate([w_h, w_g])


def _tail_mass_funcs(R, N, sp, nu, S, G, xi_s, wxi_s, xi_l, wxi_l):
    """Kernel mass beyond the box as a function of the interior radius.

    Substituting xi = R/r' maps (R, inf) to (0, 1):
    int_R^inf kappa(t, r') dr' = S R^{-sp} t^{N-1} int_0^1 xi^{sp-1}
    Phi(t xi/R) dxi.  The shared Jacobi rule handles radii at least one
    cell away from the boundary; inside the outermost cell the edge of
    Phi comes within reach of the interval, so the graded rule is used
    there plus the closed-form sliver remainder of the leading edge
    term beyond the cut.
    """
    def phi_at(t, xi):
        rho = t[:, None] * xi[None, :] / R
        return G(rho) * (1.0 - rho) ** (-nu)

    def mass_shared(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (S * R ** (-sp) * t ** (N - 1)
                * (phi_at(t, xi_s) * wxi_s).sum(-1))

    def mass_last(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        core = (phi_at(t, xi_l) * wxi_l).sum(-1)
        m1 = 1.0 - t / R
        m0 = 1.0 - t * (1.0 - _TAIL_XI_CUT) / R
        if nu != 1.0:
            sliver = (R / (t * (nu - 1.0))) * (m1 ** (1.0 - nu)
                                               - m0 ** (1.0 - nu))
        else:
            sliver = (R / t) * np.log(m0 / m1)
        core = core + G(t / R) * sliver
        return S * R ** (-sp) * t ** (N - 1) * core

    return mass_shared, mass_last


def _pair_corrections(r, h, N, sp, nu, S, G, mass_shared, mass_last,
                      n_t=8, n_s=8, grade_factor=2.0):
    """Separated-pair variance masses V_a to subtract from K[a, a+1].

    For cell a the hat products over all partners at distance >= 2 and
    over the exterior overshoot the energy by
    |U_a - U_{a+1}|^2 * 2 int_cell phi_a phi_{a+1}(t) M_far(t) dt with
    M_far(t) the kernel mass over [0, r_{a-1}], [r_{a+2}, R_max] and
    (R_max, inf).  Exact bookkeeping at p = 2; applied for every p as
    the pair-consistent allocation of that mass.
    """
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


def _tail_columns(r, h, N, sp, nu, S, G, R, xi_s, wxi_s, xi_l, wxi_l,
                  n_hat=6):
    """Exterior coupling matrix W on the combined xi node set.

    Interior cells couple through the shared Jacobi rule; the outermost
    cell sees the kernel edge as xi -> 1, so it uses the graded xi rule
    with radially graded panels toward R_max wherever the edge is closer
    than two cell widths.  The sliver beyond 1 - 1e-6 is dropped: the
    tail profile matches the boundary value continuously, so the energy
    integrand of any profile on this grid vanishes at that corner.
    """
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


def _tail_self_coefficient(N, sp, p, bt, R, S, table, quad):
    """Tail self energy 2 S R^{N-sp}/(p bt + sp - N) * profile integral."""
    if bt == 0.0:
        return 0.0
    pw = p * bt + sp - N
    if pw <= 0.0:
        raise DomainError(
            f"tail_exponent={bt:g}: the exterior self-energy diverges for "
            f"0 < beta_tail <= (N - sp)/p = {(N - sp) / p:g}"
        )
    nu = table.nu

    def f(tau):
        return (tau ** (sp - 1.0)
                * (-np.expm1(bt * np.log(tau))) ** p
                * table.phi(tau))

    pts = [0.0, 0.25, 0.5] + graded_points(0.5, 1.0, toward=1.0,
                                           scale=1e-8, factor=4.0)[1:]
    res = integrate(f, pts, quad, lo_exponent=sp - 1.0, hi_exponent=p - nu)
    return 2.0 * S * R ** (N - sp) / pw * res.value


def assemble(grid: RadialGrid, params: ProblemParams,
             quad: QuadratureSpec | None = None,
             convention: str = PIPELINE_CONVENTION) -> KernelMatrix:
    """Assemble the pair weights for one grid and parameter set.

    The angular profile defaults to the reduction validated by the
    closed-form p = 2 cross-check in :mod:`fracp.kernel`; pass
    ``convention`` explicitly to study the alternative.  The returned
    matrix is symmetric, nonnegative, and deterministic for fixed
    inputs.  Raises :class:`ConvergenceError` when the elevated-order
    verification pass disagrees with the production pass by more than
    1e-5 on any block, naming the offending cell pair.
    """
    if quad is None:
        quad = QuadratureSpec(nodes=24, tol=1e-9, max_refinements=12)
    N, sp, p = params.N, params.sp, params.p
    nu = edge_exponent(N, sp, convention)
    table = get_phi_table(N, sp, convention)
    G = table.edge_profile
    S = unit_sphere_area(N - 1)
    r = grid.nodes
    h = grid.widths
    M = h.size
    R = grid.R_max
    bt = grid.tail_exponent
    if bt > 0.0 and p * bt + sp - N <= 0.0:
        raise DomainError(
            f"tail_exponent={bt:g}: the exterior self-energy diverges for "
            f"0 < beta_tail <= (N - sp)/p = {(N - sp) / p:g}; "
            "use 0 (constant extension) or a faster decay"
        )

    Kmat = np.zeros((M + 1, M + 1))
    idx = np.arange(M)

    same = _same_cell(r, h, N, sp, p, nu, S, G)
    Kmat[idx, idx + 1] += same

    Aw, Bw, Cw = _adjacent(r, h, N, sp, p, nu, S, G)
    # The implied diagonal coefficients Aw + Cw and Bw + Cw of the local
    # quadratic form are positive for any true energy, and the cross term
    # is nonnegative for this kernel.  Violations mean the quadrature or
    # the model broke down, not a feature of the problem.
    if np.any(Cw < 0.0) or np.any(Aw + Cw <= 0.0) or np.any(Bw + Cw <= 0.0):
        a_bad = int(np.argmin(np.minimum(np.minimum(Aw, Bw) + Cw, Cw)))
        raise FracpError(
            "adjacent-cell weight model produced an inconsistent split at "
            f"cell pair ({a_bad}, {a_bad + 1}); the grid grading is too "
            "aggressive for the three-term split"
        )
    # Aw itself can come out slightly negative for the pair touching the
    # origin when the second cell is the narrower one (the measure weight
    # r^{N-1} pushes the energy outward).  Exact representability loses
    # to nonnegativity there: floor at zero, which overestimates the
    # first-cell slope energy by the floored amount.
    Kmat[idx[:-1], idx[:-1] + 1] += np.maximum(Aw, 0.0)
    Kmat[idx[:-1] + 1, idx[:-1] + 2] += np.maximum(Bw, 0.0)
    Kmat[idx[:-1], idx[:-1] + 2] += Cw

    _separated(Kmat, r, h, N, sp, nu, S, G)

    xi_s, wxi_s = gauss_jacobi_01(48, 0.0, sp - 1.0)
    xi_l, wxi_l = _last_cell_xi_rule(sp)
    mass_shared, mass_last = _tail_mass_funcs(R, N, sp, nu, S, G,
                                              xi_s, wxi_s, xi_l, wxi_l)
    V = _pair_corrections(r, h, N, sp, nu, S, G, mass_shared, mass_last)
    pre_sub = Kmat[idx, idx + 1].copy()
    # Next to the truncation boundary the exact representation can demand
    # a slightly negative neighbor weight (the overlap part of the form
    # outweighs the gradient part there; verified against closed forms).
    # Monotonicity is worth more than boundary-cell exactness, so the
    # correction is clipped; the discrepancy scales with the outermost
    # cell's share of the energy and vanishes as R_max grows.
    V_applied = np.minimum(V, pre_sub)
    Kmat[idx, idx + 1] = pre_sub - V_applied

    tail_xi, W = _tail_columns(r, h, N, sp, nu, S, G, R,
                               xi_s, wxi_s, xi_l, wxi_l)
    tail_self = _tail_self_coefficient(N, sp, p, bt, R, S, table, quad)
    tail_g = tail_xi ** bt if bt > 0.0 else np.ones_like(tail_xi)

    if Kmat.min() < 0.0:
        i_bad, j_bad = np.unravel_index(int(np.argmin(Kmat)), Kmat.shape)
        raise FracpError(
            f"pair weight K[{i_bad},{j_bad}] = {Kmat[i_bad, j_bad]:.3e} "
            "came out negative; the far-field correction exceeded the "
            "local weight (grid too coarse for this kernel)"
        )

    dev, worst = _verification_pass(
        r, h, N, sp, p, nu, S, G, R, same, Aw, Bw, Cw, Kmat, V_applied,
        pre_sub, W, tail_xi)
    if dev > _SELF_CHECK_TOL:
        raise ConvergenceError(
            f"assembly verification failed: relative deviation {dev:.2e} "
            f"at cell pair {worst} between production and elevated-order "
            "quadrature",
            best=dev,
        )

    Kmat = Kmat + Kmat.T
    return KernelMatrix(
        grid=grid,
        convention=convention,
        N=N,
        sp=sp,
        p=p,
        nu=nu,
        weights=Kmat,
        volume_weights=grid.volume_weights(N),
        tail_xi=tail_xi,
        tail_g=tail_g,
        tail_W=W,
        tail_self=tail_self,
        assembly_error=dev,
    )


def _verification_pass(r, h, N, sp, p, nu, S, G, R, same, Aw, Bw, Cw,
                       Kmat, V, pre_sub, W, tail_xi):
    """Re-integrate every block at elevated order; return the worst
    relative deviation and the cell pair it occurred at."""
    M = h.size
    dev = 0.0
    worst = (0, 1)

    same2 = _same_cell(r, h, N, sp, p, nu, S, G, n_u=24, n_r=18)
    rel = np.abs(same2 - same) / np.maximum(same, 1e-300)
    k = int(np.argmax(rel))
    if rel[k] > dev:
        dev, worst = float(rel[k]), (k, k + 1)

    Aw2, Bw2, Cw2 = _adjacent(r, h, N, sp, p, nu, S, G, n_u=24, n_x=18)
    scale_adj = np.maximum(np.abs(Aw) + np.abs(Bw) + np.abs(Cw), 1e-300)
    rel = (np.abs(Aw2 - Aw) + np.abs(Bw2 - Bw) + np.abs(Cw2 - Cw)) / scale_adj
    k = int(np.argmax(rel))
    if rel[k] > dev:
        dev, worst = float(rel[k]), (k, k + 2)

    bands = sorted({d for d in (2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48,
                                64, 96, 128, 192, 256, 384) if 2 <= d < M})
    K1 = np.zeros_like(Kmat)
    K2 = np.zeros_like(Kmat)
    _separated(K1, r, h, N, sp, nu, S, G, bands=bands)
    _separated(K2, r, h, N, sp, nu, S, G,
               order=lambda d: 2 * _band_order(d), bands=bands)
    mask = K1 > 0.0
    if np.any(mask):
        rel = np.abs(K2[mask] - K1[mask]) / K1[mask]
        k = int(np.argmax(rel))
        if rel[k] > dev:
            ii, jj = np.argwhere(mask)[k]
            dev, worst = float(rel[k]), (int(ii), int(jj))

    # far-field corrections against finer t/s rules and a denser shared
    # xi rule (the last-cell mass already resolves the kernel edge)
    xi_s2, wxi_s2 = gauss_jacobi_01(64, 0.0, sp - 1.0)
    xi_l2, wxi_l2 = _last_cell_xi_rule(sp, n_head=32, n_panel=16)
    ms2, ml2 = _tail_mass_funcs(R, N, sp, nu, S, G, xi_s2, wxi_s2,
                                xi_l2, wxi_l2)
    V2 = _pair_corrections(r, h, N, sp, nu, S, G, ms2, ml2,
                           n_t=12, n_s=12, grade_factor=1.5)
    rel = (np.abs(np.minimum(V2, pre_sub) - V)
           / np.maximum(pre_sub, 1e-300))
    k = int(np.argmax(rel))
    if rel[k] > dev:
        dev, worst = float(rel[k]), (k, k + 1)

    # exterior coupling: compare rule-independent row functionals (total
    # mass and a curvature-weighted mass) between the two xi rules
    _, W2 = _tail_columns(r, h, N, sp, nu, S, G, R, xi_s2, wxi_s2,
                          xi_l2, wxi_l2, n_hat=10)
    xi2 = np.concatenate([xi_s2, xi_l2])
    for g_pow in (0.0, 2.0):
        f1 = (W * tail_xi[None, :] ** g_pow).sum(axis=1)
        f2 = (W2 * xi2[None, :] ** g_pow).sum(axis=1)
        scale_w = max(float(f1.max()), 1e-300)
        rel = np.abs(f2 - f1) / scale_w
        k = int(np.argmax(rel))
        if rel[k] > dev:
            dev, worst = float(rel[k]), (k, M + 1)

    return dev, worst


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def energy_seminorm(u: RadialFunction, K: KernelMatrix,
                    params: ProblemParams) -> float:
    """Discrete [u]^p: pair sum + exterior coupling + tail self term."""
    _require_match(u.grid, K, params)
    U = u.values
    p = K.p
    D = U[:, None] - U[None, :]
    pairs = 0.5 * float((K.weights * np.abs(D) ** p).sum())
    d = U[:, None] - K.tail_g[None, :] * U[-1]
    tail = float((K.tail_W * np.abs(d) ** p).sum())
    return pairs + tail + K.tail_self * abs(float(U[-1])) ** p


def weak_residual(u: RadialFunction, K: KernelMatrix,
                  params: ProblemParams) -> np.ndarray:
    """Nodal pairing values R_i = (1/p) dE/dU_i (dual coefficients)."""
    _require_match(u.grid, K, params)
    U = u.values
    p = K.p
    D = U[:, None] - U[None, :]
    A = D if p == 2.0 else np.abs(D) ** (p - 2.0) * D
    out = (K.weights * A).sum(axis=1)
    d = U[:, None] - K.tail_g[None, :] * U[-1]
    At = d if p == 2.0 else np.abs(d) ** (p - 2.0) * d
    out += (K.tail_W * At).sum(axis=1)
    out[-1] -= float((K.tail_W * At * K.tail_g[None, :]).sum())
    um = float(U[-1])
    out[-1] += K.tail_self * (um if p == 2.0 else abs(um) ** (p - 2.0) * um)
    return out


def energy_hessian(u: RadialFunction, K: KernelMatrix,
                   params: ProblemParams) -> np.ndarray:
    """Dense second derivative of energy_seminorm / p at u."""
    _require_match(u.grid, K, params)
    U = u.values
    p = K.p
    n = U.size
    D = U[:, None] - U[None, :]
    B = (p - 1.0) * K.weights * np.abs(D) ** (p - 2.0)
    np.fill_diagonal(B, 0.0)
    H = -B
    H[np.arange(n), np.arange(n)] += B.sum(axis=1)
    d = U[:, None] - K.tail_g[None, :] * U[-1]
    Bt = (p - 1.0) * K.tail_W * np.abs(d) ** (p - 2.0)
    g = K.tail_g[None, :]
    H[np.arange(n), np.arange(n)] += Bt.sum(axis=1)
    cross = (Bt * g).sum(axis=1)
    H[:, -1] -= cross
    H[-1, :] -= cross
    H[-1, -1] += float((Bt * g ** 2).sum())
    um = abs(float(U[-1]))
    H[-1, -1] += (p - 1.0) * K.tail_self * um ** (p - 2.0)
    return H


def weight_a(r, params: ProblemParams):
    """The radial reaction weight a(r) = c_a / (1 + r^{N + alpha})."""
    r = np.asarray(r, dtype=float)
    out = params.c_a / (1.0 + r ** (params.N + params.alpha))
    return out if out.ndim else float(out)


def weighted_norm(u: RadialFunction, q: float, params: ProblemParams) -> float:
    """a-weighted norm (int a(x) |u|^q dx)^{1/q} on box plus tail.

    The box part integrates the piecewise-linear profile cell by cell
    (cells are split where the profile changes sign, so |u|^q stays
    smooth on every panel); beyond the box the substitution xi = R_max/r
    reduces the integral of the tail profile to a single Jacobi rule.
    """
    if not 1.0 <= q <= params.p_star:
        raise DomainError(
            f"q={q:g}: weighted norms are defined for 1 <= q <= p_star "
            f"= {params.p_star:g}"
        )
    grid = u.grid
    N, alpha = params.N, params.alpha
    S = unit_sphere_area(N - 1)
    r = grid.nodes
    U = u.values
    lo, hi = r[:-1].copy(), r[1:].copy()
    ulo, uhi = U[:-1].copy(), U[1:].copy()
    idx = np.flatnonzero(ulo * uhi < 0.0)
    if idx.size:
        t = ulo[idx] / (ulo[idx] - uhi[idx])
        rz = lo[idx] + t * (hi[idx] - lo[idx])
        lo = np.concatenate([lo, rz])
        hi = np.concatenate([hi, hi[idx]])
        ulo = np.concatenate([ulo, np.zeros(rz.size)])
        uhi = np.concatenate([uhi, uhi[idx]])
        hi[idx] = rz
        uhi[idx] = 0.0
    yg, wg = gauss_legendre_01(10)
    x = lo[:, None] + (hi - lo)[:, None] * yg[None, :]
    uv = ulo[:, None] + (uhi - ulo)[:, None] * yg[None, :]
    f = np.abs(uv) ** q * x ** (N - 1) / (1.0 + x ** (N + alpha))
    body = S * float(((hi - lo)[:, None] * wg[None, :] * f).sum())
    R = grid.R_max
    bt = grid.tail_exponent
    y, wy = gauss_jacobi_01(32, 0.0, q * bt + alpha - 1.0)
    tail_int = float((wy / (y ** (N + alpha) + R ** (N + alpha))).sum())
    tail = S * R ** N * abs(float(U[-1])) ** q * tail_int
    return (params.c_a * (body + tail)) ** (1.0 / q)
