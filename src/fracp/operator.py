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

Everything is assembled in a fixed evaluation order, so a given
(grid, params) input always produces the same matrix bit for bit.  The
near field uses fixed-order Gauss rules.  Each block is evaluated in
array passes of at most ``_CHUNK_PTS`` quadrature points, cut between
rows (cells, cell pairs or radii) that are reduced on their own, so the
pass size bounds the temporaries without changing a bit; the separated
bands of one Gauss order share their passes.  Far cell pairs, those with
r_{c'} >= 2 r_{c+1}, take no quadrature: there r/r' <= 1/2, Phi is its
power series in (r/r')^2 (:func:`fracp.kernel._profile_series`), and the
kernel separates, so their hat sums are products of closed-form hat
moments, summed without BLAS in tiles fixed by the grid.  The variance
masses subtracted from K[a, a+1] use the same series: the kernel is
homogeneous, so seen from a radius t the mass below t/2 and beyond 2t
is a closed-form sum, and only the two windows next to t take a Gauss
rule, one fixed rule in the log of the distance to t.  A verification
pass re-integrates every block at elevated order, the far pairs of its
check bands included and the far halves of the variance masses from
the phi table rather than the series, and records the worst relative
deviation as ``assembly_error``; a deviation beyond 1e-5 raises
:class:`~fracp.errors.ConvergenceError` naming the offending cell pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import ConvergenceError, DomainError, FracpError, UsageError
from .grid import RadialFunction, RadialGrid
from .kernel import (
    PIPELINE_CONVENTION,
    _profile_series,
    edge_exponent,
    get_phi_table,
    unit_sphere_area,
)
from .params import ProblemParams
from .quadrature import (
    QuadratureSpec,
    _graded_rows,
    gauss_jacobi_01,
    gauss_legendre_01,
    graded_points,
    integrate,
)

__all__ = [
    "KernelMatrix",
    "assemble",
    "energy_terms",
    "energy_seminorm",
    "weak_residual",
    "weight_a",
]

_SELF_CHECK_TOL = 1e-5
_TAIL_XI_CUT = 1e-6  # exterior coupling integrated up to xi = 1 - cut
# quadrature points per array pass: float64 temporaries of 2^13 entries
# (64 KiB) stay under glibc's default 128 KiB mmap threshold and are
# reused from the heap; one at or above it (2^14 entries plus malloc's
# header is) is mapped fresh and page-faults in again on every pass
_CHUNK_PTS = 1 << 13
# far-field tiles of _FAR_ROWS x _FAR_COLS cell pairs: their four hat
# sums fill one _CHUNK_PTS array.  Fixed here, so the tiling, and with it
# every bit of the far field, is a property of the grid alone
_FAR_ROWS = 32
_FAR_COLS = _CHUNK_PTS // (4 * _FAR_ROWS)
_UNIT_ROUNDOFF = 2.0 ** -53
# separated bands the verification pass re-integrates at twice the order
_CHECK_BANDS = (2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192,
                256, 384)


@dataclass
class KernelMatrix:
    """Assembled pair weights realizing the energy on one grid.

    ``weights`` is dense symmetric with zero diagonal; entry (i, j)
    carries the full both-orderings mass of the pair, so the energy sums
    each unordered pair once.  ``tail_W`` couples nodes to the exterior
    sample points ``tail_xi = R_max / r'`` (profile values
    ``tail_g = tail_xi^{beta_tail}``), and ``tail_self`` is the
    closed-form tail self-energy coefficient.  ``N``, ``sp`` and ``p``
    name the instance the weights were assembled for, and ``nu`` is the
    kernel edge exponent of the pipeline convention.

    The clip fields record where assembly gave up exactness for
    nonnegativity: ``adjacent_clips`` adjacent-pair weights (A' and B'
    of the three-term split) floored at zero, with ``adjacent_clipped``
    the total weight the floor added, and ``correction_clips``
    far-field corrections capped at the neighbor weight they are
    subtracted from, with ``correction_clipped`` the total correction
    left unapplied.
    """

    grid: RadialGrid
    N: int
    sp: float
    p: float
    nu: float
    weights: np.ndarray = field(repr=False, default=None)
    tail_xi: np.ndarray = field(repr=False, default=None)
    tail_g: np.ndarray = field(repr=False, default=None)
    tail_W: np.ndarray = field(repr=False, default=None)
    tail_self: float = 0.0
    assembly_error: float = 0.0
    adjacent_clips: int = 0
    adjacent_clipped: float = 0.0
    correction_clips: int = 0
    correction_clipped: float = 0.0

    def matches(self, grid: RadialGrid) -> bool:
        """Whether ``grid`` is the grid these weights were assembled on."""
        return grid is self.grid or grid.grid_hash == self.grid.grid_hash


def _require_match(grid: RadialGrid, K: KernelMatrix, params: ProblemParams):
    """Refuse a grid or parameter set other than the ones K was built for."""
    if not K.matches(grid):
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
    # edge at least d-1 cells away; low tensor orders converge fast.  The
    # Gauss rules serve the near pairs only, but on a uniform grid those
    # reach every band (c' < 2c + 2), so every branch is still taken
    if d == 2:
        return 10
    if d == 3:
        return 8
    if d <= 6:
        return 6
    return 4


def _row_chunks(n_rows, pts_per_row):
    """Slices over ``n_rows`` rows of ``pts_per_row`` quadrature points
    each: at most ``_CHUNK_PTS`` points, and at least one row, per slice.

    Every row is still reduced on its own, so the chunking changes no
    bit of a result; it only bounds the temporaries of one pass.
    """
    step = max(1, _CHUNK_PTS // pts_per_row)
    for k in range(0, n_rows, step):
        yield slice(k, k + step)


def _same_cell(r, h, N, sp, p, nu, S, G, n_u=16, n_r=12):
    """Within-cell weights D_a / h_a^p for K[a, a+1].

    With w = r' - r the pair integral over one cell is
    2 S int_0^h w^{p-nu} int (r'-w)^{N-1} r'^{nu-1-sp} G((r'-w)/r') dr' dw;
    the outer power sits in a Jacobi weight, so the evaluation is
    singularity-free for every p.
    """
    yu, wu = gauss_jacobi_01(n_u, 0.0, p - nu)
    yr, wr = gauss_legendre_01(n_r)
    inner = np.empty((h.size, n_u))
    for rows in _row_chunks(h.size, n_u * n_r):
        hc = h[rows]
        u = hc[:, None] * yu[None, :]                  # (rows, n_u)
        lo = r[:-1][rows, None, None] + u[:, :, None]
        wid = (hc[:, None] - u)[:, :, None]
        rp = lo + wid * yr[None, None, :]              # (rows, n_u, n_r)
        x = rp - u[:, :, None]
        vals = x ** (N - 1) * rp ** (nu - 1.0 - sp) * G(x / rp)
        inner[rows] = wid[:, :, 0] * np.einsum("aur,r->au", vals, wr)
    D = 2.0 * S * h ** (p - nu + 1.0) * np.einsum("au,u->a", inner, wu)
    return D / h ** p


def _adjacent(r, h, N, sp, p, nu, S, G, n_u=16, n_x=12):
    """Three-term weights (A', B', C') for every adjacent cell pair.

    Local coordinates: xi into the left cell, eta into the right cell,
    u = xi + eta the pair distance.  One kernel pass serves the three
    moments I_a = 2 iint xi^p Ker, I_b (eta^p), I_e ((xi+eta)^p).
    """
    ys, ws = gauss_legendre_01(n_x)
    yu, wu = gauss_jacobi_01(n_u, 0.0, p + 1.0 - nu)
    yg, wg = gauss_legendre_01(n_u)
    Aw, Bw, Cw = (np.empty(h.size - 1) for _ in range(3))
    for rows in _row_chunks(h.size - 1, n_u * n_x):
        ha, hb = h[:-1][rows], h[1:][rows]
        rm = r[1:-1][rows]
        u1 = np.minimum(ha, hb)
        u2 = np.maximum(ha, hb)
        utop = ha + hb

        Ia = np.zeros(ha.size)
        Ib = np.zeros(ha.size)
        Ie = np.zeros(ha.size)

        # panel 1: u in (0, u1), xi = u * sigma; the power u^{p+1-nu}
        # goes into a Jacobi weight, sigma powers stay explicit so all
        # three moments share the kernel evaluations
        u = u1[:, None] * yu[None, :]                  # (rows, n_u)
        xi = u[:, :, None] * ys[None, None, :]
        x = rm[:, None, None] - xi
        y = rm[:, None, None] + (u[:, :, None] - xi)
        base = x ** (N - 1) * y ** (nu - 1.0 - sp) * G(x / y)
        scale = 2.0 * S * u1 ** (p + 2.0 - nu)
        Ia += scale * np.einsum("aus,s,u->a", base, ws * ys ** p, wu)
        Ib += scale * np.einsum("aus,s,u->a", base, ws * (1.0 - ys) ** p, wu)
        Ie += scale * np.einsum("aus,s,u->a", base, ws, wu)

        # panels 2 and 3: u away from zero, xi over the exact admissible
        # slice [max(0, u - hb), min(ha, u)]; plain Gauss-Legendre in
        # both.  Zero-width panels (equal neighbor cells) contribute zero
        # weight.
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
        Cw[rows] = (Ie - Ia - Ib) / denom
        Aw[rows] = Ia / ha ** p - Cw[rows]
        Bw[rows] = Ib / hb ** p - Cw[rows]
    return Aw, Bw, Cw


def _separated(Kmat, r, h, N, sp, nu, S, G, order=_band_order, bands=None,
               keep=(), far=None):
    """Hat-product weights for cell pairs at distance >= 2, by Gauss rules.

    Band d holds the cell pairs (c, c + d).  ``far`` (see
    :func:`_far_start`) leaves out every pair (c, c') with
    c' >= far[c], which :func:`_far_series` sums instead; without it
    every pair of the bands is integrated.  The bands of one Gauss order
    run as one pass over all their pairs, cut into chunks of whole pairs
    so that every pair is still reduced over its own (nd, nd) block.  The
    four hat sums of a band (lo·lo, lo·hi, hi·lo, hi·hi) are added to K
    as soon as the chunk that completes the band is done, in ascending
    band order, so every entry receives the same additions in the same
    order as a loop over single bands, and only the sums of the bands
    still open are held.  Returns the sums of the bands in ``keep`` as
    {d: (4, M - d) array}, zero at the pairs left out.
    """
    M = h.size
    kept = {}
    for nd, group in groupby(bands if bands is not None else range(2, M),
                             key=order):
        group = list(group)
        # the cells c of each band's pairs; the group's pairs in band
        # order, band b at [ends[b] - cells[b].size, ends[b])
        cells = [np.arange(M - d) if far is None
                 else np.flatnonzero(far[:M - d] > np.arange(d, M))
                 for d in group]
        ends = np.cumsum([c.size for c in cells])
        ci_all = np.concatenate(cells)
        d_all = np.repeat(group, [c.size for c in cells])
        X, Wx = gauss_legendre_01(nd)
        lo = 1.0 - X
        hat = ((lo, lo), (lo, X), (X, lo), (X, X))
        held = np.empty((4, 0))     # sums from the first open band on
        done = 0                    # bands of the group added to K
        for pairs in _row_chunks(int(ends[-1]), nd * nd):
            ci = ci_all[pairs]
            cj = ci + d_all[pairs]
            x = r[ci][:, None] + h[ci][:, None] * X[None, :]   # (pairs, nd)
            y = r[cj][:, None] + h[cj][:, None] * X[None, :]
            xx = x[:, :, None]
            yy = y[:, None, :]
            base = (2.0 * S * xx ** (N - 1) * yy ** (nu - 1.0 - sp)
                    * (yy - xx) ** (-nu) * G(xx / yy))
            base = base * (Wx[None, :, None] * Wx[None, None, :])
            base = base * (h[ci] * h[cj])[:, None, None]
            sums = np.empty((4, ci.size))
            for j, (hat_m, hat_k) in enumerate(hat):
                sums[j] = (base * hat_m[None, :, None]
                           * hat_k[None, None, :]).sum(axis=(1, 2))
            held = np.concatenate([held, sums], axis=1)
            while done < len(group) and ends[done] <= pairs.stop:
                band_d, c = group[done], cells[done]
                band = held[:, :c.size]
                held = held[:, c.size:]
                done += 1
                _add_band(Kmat, band_d, band, c)
                if band_d in keep:
                    kept[band_d] = np.zeros((4, M - band_d))
                    kept[band_d][:, c] = band
        for band_d in group[done:]:     # a group without a single pair
            if band_d in keep:
                kept[band_d] = np.zeros((4, M - band_d))
    return kept


def _add_band(Kmat, d, sums, c=None):
    """Add the hat sums (4, n) of band d's pairs (c, c + d) to the pair
    weights; ``c`` defaults to every pair of the band."""
    if c is None:
        c = np.arange(sums.shape[1])
    cp = c + d
    Kmat[c, cp] += sums[0]
    Kmat[c, cp + 1] += sums[1]
    Kmat[c + 1, cp] += sums[2]
    Kmat[c + 1, cp + 1] += sums[3]


def _far_start(r):
    """The first far partner of every cell: far[c] is the first cell c'
    with r_{c'} >= 2 r_{c+1}, or M when there is none.

    On such a pair r/r' <= 1/2 everywhere, inside the range of the
    profile series; c' >= c + 2 always.
    """
    M = r.size - 1
    return np.searchsorted(r[:M], 2.0 * r[1:], side="left")


def _hat_integrals(delta, e):
    """int_0^1 (s, 1 - s) (1 - delta s)^e ds for every cell ratio delta
    and exponent e, as two (cells, exponents) arrays (lo, hi).

    With s = (r_{c+1} - x)/h_c and delta = h_c/r_{c+1} these are the
    moments of x^e over cell c against its lo and hi hats, divided by
    h_c r_{c+1}^e.  With n = e + 1 and q = 1 - delta the closed forms

        lo = (1 - q^n (1 + n delta)) / (n (n + 1) delta^2),
        hi = (q^{n+1} - 1 + (n + 1) delta) / (n (n + 1) delta^2)

    (q^n from log1p and expm1) hold to a few units of roundoff, except
    on narrow cells, delta (|e| + 1) <= 1/4: there both numerators
    cancel down to O(delta^2), and the binomial series
    sum_j C(e, j) (-delta)^j (1/(j + 2), 1/((j + 1)(j + 2))), whose
    terms fall by a factor 4 or more, is summed instead.  e = -2 (n + 1
    = 0) takes the limit of the closed forms.  The exponents must not be
    -1, and delta = 1 (the cell at the origin) needs e >= 0.
    """
    d = delta[:, None]
    n = e[None, :] + 1.0
    with np.errstate(divide="ignore"):
        L = np.log1p(-d)                 # -inf at delta = 1
    den = n * (n + 1.0) * d * d
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = (-np.expm1(n * L) - n * d * np.exp(n * L)) / den
        hi = (np.expm1((n + 1.0) * L) + (n + 1.0) * d) / den
    if np.any(e == -2.0):
        k = np.flatnonzero(e == -2.0)
        hi[:, k] = -(L + d) / (d * d)
        lo[:, k] = 1.0 / (1.0 - d) - hi[:, k]
    ii, kk = np.nonzero(d * (np.abs(e)[None, :] + 1.0) <= 0.25)
    if ii.size:
        dd, ee = delta[ii], e[kk]
        term = np.ones_like(dd)
        s_lo = np.zeros_like(dd)
        s_hi = np.zeros_like(dd)
        for j in range(28):             # 4^-28 < 2^-54
            s_lo += term / (j + 2.0)
            s_hi += term / ((j + 1.0) * (j + 2.0))
            term = term * (-dd * (ee - j) / (j + 1.0))
        lo[ii, kk] = s_lo
        hi[ii, kk] = s_hi
    return lo, hi


def _far_series(Kmat, r, h, N, sp, S, phi, far, kept):
    """Hat-product weights of the far pairs (c, c' >= far[c]) from the
    profile series.

    For r <= r'/2 the kernel 2 S r^{N-1} r'^{-1-sp} Phi(r/r') is
    2 S sum_k phi_k r^{N-1+2k} r'^{-1-sp-2k} (:func:`fracp.kernel.
    _profile_series`), so each of a pair's four hat sums is
    2 S sum_k phi_k X_k(c) Y_k(c'), with X_k and Y_k the closed-form hat
    moments (:func:`_hat_integrals`) of r^{N-1+2k} over cell c and of
    r'^{-1-sp-2k} over cell c'.

    The pairs go in tiles of ``_FAR_ROWS`` cells c by ``_FAR_COLS``
    cells c', the columns of a row block starting at its first far
    partner; pairs of a tile that are not far are masked out.  With
    alpha the outer end of the row block, X_k is scaled by
    (r_{c+1}/alpha)^{2k} and Y_k by (alpha/r_{c'+1})^{2k}, so neither
    overflows where r'^{-2k} alone would (next to the origin).  A tile
    sums the terms that its closest pair needs for the rest to stay
    below the unit roundoff times phi_0, as a product over k in fixed
    order (einsum, not BLAS), so the bits depend on neither the thread
    count nor ``_CHUNK_PTS``.  The tiles are added to K one after the
    other, and the far pairs' sums are written into the band sums
    ``kept`` ({d: (4, M - d) array}) as well.
    """
    M = h.size
    j_first = int(far.min())
    if j_first >= M:
        return
    k2 = 2.0 * np.arange(phi.size)
    coef = 2.0 * S * phi
    b = r[1:]
    log_b = np.log(b)
    delta = h / b
    # no cell left of j_first is anybody's far partner (and the first
    # two, delta near 1, have no finite moments of a negative power)
    y_lo = np.zeros((M, k2.size))
    y_hi = np.zeros((M, k2.size))
    y_lo[j_first:], y_hi[j_first:] = _hat_integrals(delta[j_first:],
                                                    (-1.0 - sp) - k2)
    y_scale = (h * b ** (-1.0 - sp))[j_first:, None]
    y_lo[j_first:] *= y_scale
    y_hi[j_first:] *= y_scale
    for c0 in range(0, M, _FAR_ROWS):
        c1 = min(c0 + _FAR_ROWS, M)
        first = far[c0:c1]
        if first.min() >= M:
            continue
        log_alpha = log_b[c1 - 1]
        x_lo, x_hi = _hat_integrals(delta[c0:c1], (N - 1.0) + k2)
        row_scale = np.exp(np.multiply.outer(log_b[c0:c1] - log_alpha, k2))
        row_scale *= (h[c0:c1] * b[c0:c1] ** (N - 1.0))[:, None]
        rows = np.concatenate([x_lo * row_scale,
                               x_hi * row_scale]).T.copy()      # (K, 2nr)
        nr = c1 - c0
        for j0 in range(int(first.min()), M, _FAR_COLS):
            j1 = min(j0 + _FAR_COLS, M)
            nc = j1 - j0
            start = np.maximum(first, j0)
            live = start < j1
            if not live.any():
                continue
            rho = float(np.max(b[c0:c1][live] / r[start[live]]))
            tail = np.cumsum((coef * rho ** k2)[::-1])[::-1]
            n_k = int(np.count_nonzero(tail > _UNIT_ROUNDOFF * coef[0]))
            # alpha/r_{c'+1} can exceed 1 only in masked columns, whose
            # entries may overflow; the far entries stay finite
            with np.errstate(over="ignore", invalid="ignore"):
                col_scale = np.exp(np.multiply.outer(
                    log_alpha - log_b[j0:j1], k2[:n_k]))
                cols = (np.concatenate([y_lo[j0:j1, :n_k] * col_scale,
                                        y_hi[j0:j1, :n_k] * col_scale])
                        * coef[:n_k]).T.copy()                  # (n_k, 2nc)
                acc = np.einsum("ki,kj->ij", rows[:n_k], cols)
            mask = np.arange(j0, j1)[None, :] >= first[:, None]
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                part = acc[i * nr:(i + 1) * nr, j * nc:(j + 1) * nc]
                dst = Kmat[c0 + i:c1 + i, j0 + j:j1 + j]
                np.add(dst, part, out=dst, where=mask)
            for d, sums in kept.items():    # the tile's far pairs of band d
                off = c0 + d - j0           # band d's tile column in row 0
                if not -nr < off < nc:
                    continue
                i = np.arange(max(0, -off), min(nr, nc - off))
                vals = acc[np.add.outer((0, 0, nr, nr), i),
                           np.add.outer((0, nc, 0, nc), i + off)]
                np.copyto(sums[:, c0 + i[0]:c0 + i[-1] + 1], vals,
                          where=mask[i, i + off])


class _Diagonals:
    """The diagonals j - i in {d - 1, d, d + 1} of an n x n matrix, for
    the bands d given: every entry the hat sums of those bands reach.

    Held as an (n, diagonals) array, ``values[i, k]`` being entry
    (i, i + offsets[k]), with the offsets ascending, so its row-major
    order is the full matrix's; it is indexed like the full matrix by
    :func:`_add_band`.
    """

    def __init__(self, n: int, bands):
        self.offsets = np.unique([d + e for d in bands for e in (-1, 0, 1)])
        self._slot = np.zeros(n, dtype=np.intp)
        self._slot[self.offsets] = np.arange(self.offsets.size)
        self.values = np.zeros((n, self.offsets.size))

    def __getitem__(self, index):
        i, j = index
        return self.values[i, self._slot[j - i]]

    def __setitem__(self, index, value):
        i, j = index
        self.values[i, self._slot[j - i]] = value


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
    term beyond the cut.  :func:`_pair_corrections` calls ``mass_shared``
    only for radii t > R/2 left of the outermost cell; from t <= R/2 the
    whole mass beyond max(r_{a+2}, 2t) is one of its far halves.
    """
    def phi_at(t, xi):
        rho = t[:, None] * xi[None, :] / R
        return G(rho) * (1.0 - rho) ** (-nu)

    def mass_shared(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        core = np.empty(t.size)
        for rows in _row_chunks(t.size, xi_s.size):
            core[rows] = (phi_at(t[rows], xi_s) * wxi_s).sum(-1)
        return S * R ** (-sp) * t ** (N - 1) * core

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


def _series_halves(N, sp, S, phi):
    """The far halves of the variance masses from the profile series.

    The kernel is homogeneous, kappa(lam s, lam t) = lam^{N-2-sp}
    kappa(s, t), so the mass seen from a radius t over [0, u t] and over
    [t/w, inf) depends on t through one power only.  For u, w <= 1/2
    Phi = sum_k phi_k rho^{2k} (:func:`fracp.kernel._profile_series`)
    holds on the whole range, and the two masses are

        S t^{N-1-sp} sum_k phi_k u^{N+2k}/(N+2k),
        S t^{N-1-sp} sum_k phi_k w^{sp+2k}/(sp+2k),

    returned as functions ``inner(t, u)`` and ``outer(t, w)`` of row
    arrays.  Every term is positive, and relative to the first term of
    its sum it is at most phi_k 4^{-k}/phi_0, so the series' cut leaves
    at most the unit roundoff of either sum.  Horner's rule in u^2
    (w^2) runs in place on rows of at most ``_CHUNK_PTS`` entries.
    """
    k2 = 2.0 * np.arange(phi.size)

    def half(e):
        coef = (phi / (e + k2))[::-1]

        def mass(t, u):
            out = np.empty(t.size)
            for rows in _row_chunks(t.size, 1):
                u2 = u[rows] ** 2
                acc = np.full(u2.size, coef[0])
                for c in coef[1:]:
                    acc *= u2
                    acc += c
                out[rows] = S * t[rows] ** (N - 1.0 - sp) * u[rows] ** e * acc
            return out
        return mass

    return half(float(N)), half(sp)


def _quadrature_halves(N, sp, nu, S, G, n):
    """The far halves of :func:`_series_halves` by quadrature of Phi.

    With rho = s/t (inner) and rho = t/s (outer) the two masses are

        S t^{N-1-sp} u^N int_0^1 x^{N-1} Phi(u x) dx,
        S t^{N-1-sp} w^sp int_0^1 xi^{sp-1} Phi(w xi) dxi,

    each taken with the n-point Gauss-Jacobi rule of its power and Phi
    from the edge profile G.  Phi(u x) is analytic out to x = 1/u >= 2,
    so a low order is exact to the table's accuracy.  This is the
    verification pass's rule: it shares no step with the series.
    """
    def half(e):
        x, wx = gauss_jacobi_01(n, 0.0, e - 1.0)

        def mass(t, u):
            core = np.empty(t.size)
            for rows in _row_chunks(t.size, n):
                rho = u[rows, None] * x[None, :]
                core[rows] = (G(rho) * (1.0 - rho) ** (-nu) * wx).sum(-1)
            return S * t ** (N - 1.0 - sp) * u ** e * core
        return mass

    return half(float(N)), half(sp)


def _window_mass(tm, lo, hi, N, sp, nu, S, G, n, left):
    """Kernel mass seen from radii tm over the windows [lo, hi], one row
    per radius, every window on the same side of its radius (``left``:
    hi <= tm, else lo >= tm).

    One n-point Gauss-Legendre rule in y = log|s - tm| over each window:
    with ds = e^y dy the integrand is S x^{N-1} z^{nu-1-sp} e^{(1-nu) y}
    G(x/z), (x, z) = (s, tm) or (tm, s), analytic in y all the way to the
    kernel edge, so no grading is needed.  Empty windows give zero.
    """
    yq, wq = gauss_legendre_01(n)
    d_lo, d_hi = (tm - hi, tm - lo) if left else (lo - tm, hi - tm)
    out = np.zeros(tm.size)
    live = np.flatnonzero(d_hi > d_lo)
    a = np.log(d_lo[live])
    L = np.log(d_hi[live]) - a
    for rows in _row_chunks(live.size, n):
        y = a[rows, None] + L[rows, None] * yq[None, :]        # (rows, n)
        d = np.exp(y)
        t = tm[live[rows], None]
        x, z = (t - d, t) if left else (t, t + d)
        val = (S * x ** (N - 1) * z ** (nu - 1.0 - sp)
               * np.exp((1.0 - nu) * y) * G(x / z))
        out[live[rows]] = L[rows] * (val * wq).sum(-1)
    return out


def _pair_corrections(r, h, N, sp, nu, S, G, mass_shared, mass_last, halves,
                      n_t=8, n_y=12):
    """Separated-pair variance masses V_a to subtract from K[a, a+1].

    For cell a the hat products over all partners at distance >= 2 and
    over the exterior overshoot the energy by
    |U_a - U_{a+1}|^2 * 2 int_cell phi_a phi_{a+1}(t) M_far(t) dt with
    M_far(t) the kernel mass over [0, r_{a-1}], [r_{a+2}, R_max] and
    (R_max, inf).  Exact bookkeeping at p = 2; applied for every p as
    the pair-consistent allocation of that mass.

    Seen from a t-node the mass splits at s = t/2 and s = 2t.  With
    P = min(r_{a-1}, t/2) and B = max(r_{a+2}, 2t) the far halves
    [0, P] and, while B <= R_max, [B, inf) come from ``halves`` (see
    :func:`_series_halves`); rows with B > R_max take ``mass_shared``
    for (R_max, inf), and the last cell ``mass_last``.  The near windows
    [P, r_{a-1}] and [r_{a+2}, min(B, R_max)] take one n_y-point rule
    in the log-distance (:func:`_window_mass`).  Every row has the same
    node count, so each side is one array pass in chunks of whole rows.
    """
    M = h.size
    R = r[-1]
    yt, wt = gauss_legendre_01(n_t)
    inner_half, outer_half = halves
    t = r[:-1, None] + h[:, None] * yt[None, :]            # (M, n_t)
    mass = np.empty((M, n_t))

    # partners right of a+1, rows a <= M-2
    tr = t[:-1].ravel()
    edge = np.repeat(r[2:], n_t)                            # r_{a+2}
    B = np.maximum(edge, 2.0 * tr)
    inside = B <= R
    right = np.empty(tr.size)
    right[inside] = outer_half(tr[inside], tr[inside] / B[inside])
    right[~inside] = mass_shared(tr[~inside])
    right += _window_mass(tr, edge, np.minimum(B, R), N, sp, nu, S, G, n_y,
                          left=False)
    mass[:-1] = right.reshape(M - 1, n_t)
    mass[-1] = mass_last(t[-1])

    # partners left of a-1, rows a >= 2
    tl = t[2:].ravel()
    edge = np.repeat(r[1:M - 1], n_t)                       # r_{a-1}
    P = np.minimum(edge, 0.5 * tl)
    left = inner_half(tl, P / tl)
    left += _window_mass(tl, P, edge, N, sp, nu, S, G, n_y, left=True)
    mass[2:] += left.reshape(M - 2, n_t)
    return 2.0 * h * ((wt * (1.0 - yt) * yt)[None, :] * mass).sum(axis=1)


def _tail_columns(r, h, N, sp, nu, S, G, R, xi_s, wxi_s, xi_l, wxi_l,
                  n_hat=6):
    """Exterior coupling matrix W on the combined xi node set.

    Interior cells couple through the shared Jacobi rule; the outermost
    cell sees the kernel edge as xi -> 1, so it uses the graded xi rule
    with radially graded panels toward R_max wherever the edge is closer
    than two cell widths.  Those panel sets are padded to one common
    length once, then evaluated in chunks of at most ``_CHUNK_PTS``
    points, one ``xi_l`` node per row.  The sliver beyond 1 - 1e-6 is
    dropped: the tail profile matches the boundary value continuously,
    so the energy integrand of any profile on this grid vanishes at
    that corner.
    """
    M = h.size
    yx, wx = gauss_legendre_01(n_hat)
    nq_s = xi_s.size
    tail_xi = np.concatenate([xi_s, xi_l])
    W = np.zeros((M + 1, tail_xi.size))
    pref = 2.0 * S * R ** (-sp)

    # the lo and hi hat parts of the interior cells, one row per cell
    lo = np.empty((M - 1, nq_s))
    hi = np.empty((M - 1, nq_s))
    for rows in _row_chunks(M - 1, n_hat * nq_s):
        hc = h[:M - 1][rows]
        x = r[:M - 1][rows, None] + hc[:, None] * yx[None, :]  # (rows, n_hat)
        rho = x[:, :, None] * xi_s[None, None, :] / R
        phi = G(rho) * (1.0 - rho) ** (-nu)
        core = pref * x[:, :, None] ** (N - 1) * phi * wxi_s[None, None, :]
        core = core * (hc[:, None, None] * wx[None, :, None])
        lo[rows] = (core * (1.0 - yx)[None, :, None]).sum(axis=1)
        hi[rows] = (core * yx[None, :, None]).sum(axis=1)
    W[0:M - 1, 0:nq_s] += lo
    W[1:M, 0:nq_s] += hi

    a = M - 1
    ha = h[a]
    gap = (1.0 - xi_l) * R
    # a zero scale leaves the single panel [r_a, R]
    ptsx = _graded_rows(r[a], R, np.where(gap < 2.0 * ha, 0.5 * gap, 0.0),
                        toward_b=True, factor=2.0, max_panels=60)
    Wa, Wb = W[a, nq_s:], W[a + 1, nq_s:]
    for rows in _row_chunks(xi_l.size, (ptsx.shape[1] - 1) * n_hat):
        wid = np.diff(ptsx[rows], axis=1)[:, :, None]
        xg = ptsx[rows, :-1, None] + wid * yx
        rho = xg * xi_l[rows, None, None] / R
        phi = G(rho) * (1.0 - rho) ** (-nu)
        val = (pref * wxi_l[rows, None, None] * xg ** (N - 1) * phi
               * (wid * wx))
        frac = (xg - r[a]) / ha
        Wa[rows] = (val * (1.0 - frac)).sum(axis=(1, 2))
        Wb[rows] = (val * frac).sum(axis=(1, 2))
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
             quad: QuadratureSpec | None = None) -> KernelMatrix:
    """Assemble the pair weights for one grid and parameter set.

    The angular profile is the reduction validated by the closed-form
    p = 2 cross-check in :mod:`fracp.kernel`.  The returned matrix is
    symmetric, nonnegative, and deterministic for fixed inputs.  Raises
    :class:`ConvergenceError` when the elevated-order verification pass
    disagrees with the production pass by more than 1e-5 on any block,
    naming the offending cell pair.
    """
    if quad is None:
        quad = QuadratureSpec(nodes=24, tol=1e-9, max_refinements=12)
    N, sp, p = params.N, params.sp, params.p
    nu = edge_exponent(N, sp, PIPELINE_CONVENTION)
    table = get_phi_table(N, sp, PIPELINE_CONVENTION)
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
    floored = np.maximum(-np.concatenate([Aw, Bw]), 0.0)
    Kmat[idx[:-1], idx[:-1] + 1] += np.maximum(Aw, 0.0)
    Kmat[idx[:-1] + 1, idx[:-1] + 2] += np.maximum(Bw, 0.0)
    Kmat[idx[:-1], idx[:-1] + 2] += Cw

    # near pairs by Gauss rules, far pairs from the profile series
    far = _far_start(r)
    check_sums = _separated(Kmat, r, h, N, sp, nu, S, G,
                            keep=[d for d in _CHECK_BANDS if d < M], far=far)
    phi = _profile_series(N, sp, PIPELINE_CONVENTION)
    _far_series(Kmat, r, h, N, sp, S, phi, far, check_sums)

    xi_s, wxi_s = gauss_jacobi_01(48, 0.0, sp - 1.0)
    xi_l, wxi_l = _last_cell_xi_rule(sp)
    mass_shared, mass_last = _tail_mass_funcs(R, N, sp, nu, S, G,
                                              xi_s, wxi_s, xi_l, wxi_l)
    V = _pair_corrections(r, h, N, sp, nu, S, G, mass_shared, mass_last,
                          _series_halves(N, sp, S, phi))
    pre_sub = Kmat[idx, idx + 1].copy()
    # Next to the truncation boundary the exact representation can demand
    # a slightly negative neighbor weight (the overlap part of the form
    # outweighs the gradient part there; verified against closed forms).
    # Monotonicity is worth more than boundary-cell exactness, so the
    # correction is clipped; the discrepancy scales with the outermost
    # cell's share of the energy and vanishes as R_max grows.
    V_applied = np.minimum(V, pre_sub)
    capped = np.maximum(V - pre_sub, 0.0)
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
        r, h, N, sp, p, nu, S, G, R, same, Aw, Bw, Cw, check_sums, Kmat,
        V_applied, pre_sub, W, tail_xi)
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
        N=N,
        sp=sp,
        p=p,
        nu=nu,
        weights=Kmat,
        tail_xi=tail_xi,
        tail_g=tail_g,
        tail_W=W,
        tail_self=tail_self,
        assembly_error=dev,
        adjacent_clips=int(np.count_nonzero(floored)),
        adjacent_clipped=float(floored.sum()),
        correction_clips=int(np.count_nonzero(capped)),
        correction_clipped=float(capped.sum()),
    )


def _verification_pass(r, h, N, sp, p, nu, S, G, R, same, Aw, Bw, Cw,
                       check_sums, Kmat, V, pre_sub, W, tail_xi):
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

    # K1 holds the production sums of the check bands, in band order;
    # K1 and K2 keep only the diagonals those bands reach
    K1 = _Diagonals(M + 1, check_sums)
    for d, sums in check_sums.items():
        _add_band(K1, d, sums)
    K2 = _Diagonals(M + 1, check_sums)
    _separated(K2, r, h, N, sp, nu, S, G,
               order=lambda d: 2 * _band_order(d), bands=list(check_sums))
    mask = K1.values > 0.0
    if np.any(mask):
        rel = (np.abs(K2.values[mask] - K1.values[mask])
               / K1.values[mask])
        k = int(np.argmax(rel))
        if rel[k] > dev:
            ii, slot = np.argwhere(mask)[k]
            dev, worst = float(rel[k]), (int(ii),
                                         int(ii + K1.offsets[slot]))

    # far-field corrections against finer t and window rules, far halves
    # by quadrature of the phi table instead of the series, and a denser
    # shared xi rule (the last-cell mass already resolves the kernel edge)
    xi_s2, wxi_s2 = gauss_jacobi_01(64, 0.0, sp - 1.0)
    xi_l2, wxi_l2 = _last_cell_xi_rule(sp, n_head=32, n_panel=16)
    ms2, ml2 = _tail_mass_funcs(R, N, sp, nu, S, G, xi_s2, wxi_s2,
                                xi_l2, wxi_l2)
    V2 = _pair_corrections(r, h, N, sp, nu, S, G, ms2, ml2,
                           _quadrature_halves(N, sp, nu, S, G, 16),
                           n_t=12, n_y=24)
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

class _Buffers:
    """Work arrays for pricing points of one solve on one KernelMatrix.

    ``D``, ``WA`` and ``flux`` are (M+1)^2, ``d``, ``WtA`` and ``tflux``
    are (M+1) x n_tail.  ``WA`` and ``WtA`` are only needed for p != 2,
    where they are not the assembled weights themselves.  Every
    evaluation priced into a set overwrites all of them and takes the next
    ``stamp``, so an evaluation can tell whether its weights are still
    there (a stamp, not a reference back, keeps the pair free of cycles).
    """

    def __init__(self, K: KernelMatrix):
        n, n_tail = K.weights.shape[0], K.tail_g.size
        self.D = np.empty((n, n))
        self.flux = np.empty((n, n))
        self.d = np.empty((n, n_tail))
        self.tflux = np.empty((n, n_tail))
        self.WA = None if K.p == 2.0 else np.empty((n, n))
        self.WtA = None if K.p == 2.0 else np.empty((n, n_tail))
        self.stamp = 0


class _EnergyTerms:
    """The energy at one point, with what its derivatives need, from one pass.

    ``WA = W |D|^{p-2}`` and ``WtA = tail_W |d|^{p-2}`` are the weights
    the energy, the residual and the Hessian share.  The energy and the
    residual are summed on construction from the pair and tail fluxes
    ``WA D`` and ``WtA d``; only WA and WtA are kept for the Hessian.

    Every array of (M+1)^2 or (M+1) x n_tail entries lives in ``buffers``
    (a private set when none is given), written with ``out=`` in the
    order the formulas read, so a shared set changes no bit of the
    results.  A row or column vector is first copied across a buffer,
    because a ufunc that broadcasts allocates iterator buffers of up to
    8192 entries per operand.  A later evaluation priced into the same
    set overwrites WA and WtA; :meth:`hessian` then raises instead of
    reading them.
    """

    def __init__(self, K: KernelMatrix, U: np.ndarray,
                 buffers: _Buffers | None = None):
        self.K = K
        self.um = um = float(U[-1])
        p = K.p
        buf = self._buf = buffers if buffers is not None else _Buffers(K)
        buf.stamp += 1
        self._stamp = buf.stamp
        # every (M+1)^2 and (M+1) x n_tail array is written into the
        # buffers: at M = 512 a fresh 2 MB temporary costs about as much
        # as its arithmetic, most of it in page faults
        np.copyto(buf.D, U[:, None])
        np.copyto(buf.flux, U)
        D = np.subtract(buf.D, buf.flux, out=buf.D)
        np.copyto(buf.d, U[:, None])
        np.copyto(buf.tflux, K.tail_g * um)
        d = np.subtract(buf.d, buf.tflux, out=buf.d)
        if p == 2.0:
            self.WA, self.WtA = K.weights, K.tail_W
        else:
            self.WA = np.abs(D, out=buf.WA)
            self.WA **= p - 2.0
            self.WA *= K.weights
            self.WtA = np.abs(d, out=buf.WtA)
            self.WtA **= p - 2.0
            self.WtA *= K.tail_W
        A = np.multiply(self.WA, D, out=buf.flux)
        At = np.multiply(self.WtA, d, out=buf.tflux)
        res = A.sum(axis=1)
        res += At.sum(axis=1)
        tail = float(np.multiply(At, d, out=d).sum())   # WtA d^2
        np.copyto(d, K.tail_g)
        res[-1] -= float(np.multiply(At, d, out=d).sum())
        res[-1] += K.tail_self * (um if p == 2.0
                                  else abs(um) ** (p - 2.0) * um)
        self._residual = res
        pairs = np.multiply(A, D, out=A)   # WA D^2
        self.energy = (0.5 * float(pairs.sum()) + tail
                       + K.tail_self * abs(um) ** p)

    def residual(self) -> np.ndarray:
        """Nodal pairing values R_i = (1/p) dE/dU_i (dual coefficients)."""
        return self._residual.copy()

    def hessian(self) -> np.ndarray:
        """Dense second derivative of the energy / p.

        Built into the flux buffer, so the array is overwritten by the
        next evaluation or Hessian priced into the same buffers.
        """
        buf = self._buf
        if buf.stamp != self._stamp:
            raise UsageError("a later evaluation has overwritten the "
                             "weights of this point; price it again")
        K, p = self.K, self.K.p
        diag = np.diag_indices_from(self.WA)
        # off the diagonal H = -(p-1) WA; the diagonal holds the row sums
        H = np.multiply(self.WA, -(p - 1.0), out=buf.flux)
        np.fill_diagonal(H, 0.0)
        H[diag] -= H.sum(axis=1)
        Bt = np.multiply(self.WtA, p - 1.0, out=buf.tflux)
        H[diag] += Bt.sum(axis=1)
        np.copyto(buf.d, K.tail_g)
        cross = np.multiply(Bt, buf.d, out=buf.d).sum(axis=1)
        H[:, -1] -= cross
        H[-1, :] -= cross
        np.copyto(buf.d, K.tail_g ** 2)
        H[-1, -1] += float(np.multiply(Bt, buf.d, out=buf.d).sum())
        H[-1, -1] += (p - 1.0) * K.tail_self * abs(self.um) ** (p - 2.0)
        return H


def energy_terms(u: RadialFunction, K: KernelMatrix, params: ProblemParams,
                 *, buffers: _Buffers | None = None) -> _EnergyTerms:
    """Energy at u, with its residual and Hessian priced from the same pass.

    ``buffers`` is the buffer set of a running solve (see
    :class:`_EnergyTerms`); without it the evaluation allocates its own.
    """
    _require_match(u.grid, K, params)
    return _EnergyTerms(K, u.values, buffers)


def energy_seminorm(u: RadialFunction, K: KernelMatrix,
                    params: ProblemParams) -> float:
    """Discrete [u]^p: pair sum + exterior coupling + tail self term."""
    return energy_terms(u, K, params).energy


def weak_residual(u: RadialFunction, K: KernelMatrix,
                  params: ProblemParams) -> np.ndarray:
    """Nodal pairing values R_i = (1/p) dE/dU_i (dual coefficients)."""
    return energy_terms(u, K, params).residual()


def weight_a(r, params: ProblemParams):
    """The radial reaction weight a(r) = c_a / (1 + r^{N + alpha})."""
    r = np.asarray(r, dtype=float)
    out = params.c_a / (1.0 + r ** (params.N + params.alpha))
    return out if out.ndim else float(out)
