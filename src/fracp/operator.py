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
``c_self`` is the self-energy of the tail: a closed-form factor times
one profile integral over (0, 1), taken by the same fixed composite rule
and breakpoints as the power-profile constant C(beta).

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
pass size bounds the temporaries without changing a bit.  The near
separated cell pairs form one list in band order, whose pairs of one
Gauss order share their passes; one scatter (:func:`_scatter`) adds
their hat sums to K, and it alone fixes the order in which they reach
an entry.  Far cell pairs, those with r_{c'} >= 2 r_{c+1}, take no
quadrature: there r/r' <= 1/2, Phi is its power series in (r/r')^2
(:func:`fracp.kernel._profile_series`), and the kernel separates, so
their hat sums are products of closed-form hat moments, summed without
BLAS in tiles fixed by the grid.  The variance
masses subtracted from K[a, a+1] use the same series: the kernel is
homogeneous, so seen from a radius t the mass below t/2 and beyond 2t
is a closed-form sum, and only the two windows next to t take a Gauss
rule, one fixed rule in the log of the distance to t.  A verification
pass re-integrates every block at elevated order, the far pairs of its
check bands included and the far halves of the variance masses from
the phi table rather than the series, and records the worst relative
deviation as ``assembly_error``; one beyond 1e-5 or not finite raises
:class:`~fracp.errors.ConvergenceError` naming the offending cell pair.
Of all the fields only the tail blocks' ``g`` and ``tail_self`` depend
on the tail exponent, so a matrix for another exponent on the same nodes
is derived from an assembled one rather than assembled again.

Evaluation (:func:`energy_terms`) prices the energy, its residual and
its Hessian at a point from one |D|^{p-2} pass into the buffers of the
solve that asks.  K is symmetric and the differences D_ij = U_i - U_j
are antisymmetric, so each node pair is priced once, above the
diagonal, in row blocks of about ``_PAIR_BLOCK`` entries that stay in
cache (:func:`_pair_blocks`); a matrix of one block is priced as the
whole square, both ways, exactly as a single pass would.  The Hessian
is built over the pair weights of that pass, in place, and mirrored
below the diagonal by exact copies, so it is exactly symmetric.  ``W``
is stored as the blocks the assembly fills (:class:`TailBlock`): the
shared Jacobi columns over rows 0..M-1 and the last cell's columns over
rows M-1 and M.  The tail terms are priced on each block as it is
stored, any number of them; outside the blocks ``W`` is zero.  K is
the instance: an evaluation takes (u, K) and refuses a u on any grid
but K's (:func:`_require_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, DomainError, FracpError, UsageError
from .grid import RadialFunction, RadialGrid, grid_difference
from .kernel import (
    _UNIT_POINTS,
    _profile_series,
    edge_exponent,
    get_phi_table,
    unit_sphere_area,
)
from .params import ProblemParams
from .quadrature import (
    NODES,
    _graded_rows,
    _panel_rules,
    gauss_jacobi_01,
    gauss_legendre_01,
    graded_points,
    integrate,
)

__all__ = [
    "KernelMatrix",
    "TailBlock",
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
# node-pair entries per row block of an evaluation (_pair_blocks): the
# four arrays a block streams through (D, flux, WA and its part of W)
# take 512 KiB each, 2 MiB together, the L2 cache of a core.  Up to
# M = 360 the node pairs are one block, the whole square priced both
# ways, which in cache costs less than the copies and the mirror that
# blocks of the upper triangle need; M = 512 is three blocks
_PAIR_BLOCK = 1 << 16
_UNIT_ROUNDOFF = 2.0 ** -53
# separated bands the verification pass re-integrates at twice the order
_CHECK_BANDS = (2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192,
                256, 384)


@dataclass(frozen=True, eq=False)
class TailBlock:
    """One block of the exterior coupling: the nodes ``rows`` against
    the exterior samples ``xi = R_max / r'``, of profile values
    ``g = xi^{beta_tail}``, by the C-contiguous weights ``W``."""

    start: int
    xi: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)

    @property
    def rows(self) -> slice:
        return slice(self.start, self.start + self.W.shape[0])


@dataclass
class KernelMatrix:
    """Assembled pair weights realizing the energy on one grid.

    ``weights`` is dense symmetric with zero diagonal; entry (i, j)
    carries the full both-orderings mass of the pair, so the energy sums
    each unordered pair once.  ``tail`` couples the nodes to the exterior
    samples in blocks (:class:`TailBlock`), zero outside them: the 48
    shared Jacobi columns over rows 0..M-1 and the last cell's columns
    over rows M-1 and M.  ``tail_self`` is the closed-form tail
    self-energy coefficient.  ``N``, ``sp`` and ``p`` name the instance
    the weights were assembled for.

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
    weights: np.ndarray = field(repr=False, default=None)
    tail: tuple[TailBlock, ...] = field(repr=False, default=())
    tail_self: float = 0.0
    assembly_error: float = 0.0
    adjacent_clips: int = 0
    adjacent_clipped: float = 0.0
    correction_clips: int = 0
    correction_clipped: float = 0.0


def _require_grid(grid: RadialGrid, K: KernelMatrix,
                  refusal: str = "kernel matrix was assembled on a "
                                 "different grid"):
    """Refuse a grid other than the one K was assembled on: the
    ``UsageError`` reads ``refusal`` and then, in parentheses, what
    :func:`~fracp.grid.grid_difference` names."""
    difference = grid_difference(grid, K.grid)
    if difference is not None:
        raise UsageError(f"{refusal} ({difference})")


def _require_match(K: KernelMatrix, params: ProblemParams):
    """Refuse a parameter set other than the one K was assembled for."""
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


def _same_cell(r, h, N, p, nu, S, table, n_u=16, n_r=12):
    """Within-cell weights D_a / h_a^p for K[a, a+1].

    With w = r' - r the pair integral over one cell is
    2 S int_0^h w^{p-nu} int (r'-w)^{N-1} G((r'-w)/r') dr' dw, nu = sp + 1;
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
        vals = x ** (N - 1) * table.edge_profile(x / rp)
        inner[rows] = wid[:, :, 0] * np.einsum("aur,r->au", vals, wr)
    D = 2.0 * S * h ** (p - nu + 1.0) * np.einsum("au,u->a", inner, wu)
    return D / h ** p


def _adjacent(r, h, N, p, nu, S, table, n_u=16, n_x=12):
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
        base = x ** (N - 1) * table.edge_profile(x / y)
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
                   * table.edge_profile(x / y))
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


def _pairs(stop, bands):
    """The cell pairs (c, c + d) with d in ``bands`` (ascending) and
    c + d < stop[c], as the arrays (c, d): in band order, and c ascending
    inside each band."""
    c = np.arange(stop.size)
    bands = np.asarray(bands, dtype=np.intp)
    bands = bands[bands < (stop - c).max()]     # the bands a pair reaches
    b, c = np.nonzero(c + bands[:, None] < stop)
    return c, bands[b]


def _hat_sums(c, d, r, h, N, nu, S, table, order=_band_order):
    """The four hat sums (lo·lo, lo·hi, hi·lo, hi·hi) of the cell pairs
    (c, c + d), shape (4, pairs), by Gauss rules of ``order(d)`` points
    per side.

    The pairs of one Gauss order run as one pass, cut into chunks of
    whole pairs, so every pair is still reduced over its own (nd, nd)
    block and its bits depend on neither the chunks nor the other pairs.
    """
    sums = np.empty((4, c.size))
    groups = {}
    for band in np.flatnonzero(np.bincount(d)):
        groups.setdefault(order(int(band)), []).append(band)
    for nd, group in groups.items():
        which = np.flatnonzero(np.isin(d, group))
        X, Wx = gauss_legendre_01(nd)
        lo = 1.0 - X
        hat = ((lo, lo), (lo, X), (X, lo), (X, X))
        for rows in _row_chunks(which.size, nd * nd):
            pairs = which[rows]
            ci = c[pairs]
            cj = ci + d[pairs]
            x = r[ci][:, None] + h[ci][:, None] * X[None, :]   # (pairs, nd)
            y = r[cj][:, None] + h[cj][:, None] * X[None, :]
            xx = x[:, :, None]
            yy = y[:, None, :]
            base = (2.0 * S * xx ** (N - 1) * yy ** (-nu)
                    * table.phi(xx / yy))
            base = base * (Wx[None, :, None] * Wx[None, None, :])
            base = base * (h[ci] * h[cj])[:, None, None]
            for j, (hat_m, hat_k) in enumerate(hat):
                sums[j, pairs] = (base * hat_m[None, :, None]
                                  * hat_k[None, None, :]).sum(axis=(1, 2))
    return sums


def _entries(c, d, n):
    """Flat row-major indices into an n x n matrix of the entries the
    hat sums of the pairs (c, c + d) add to, shape (4, pairs): lo·lo to
    (c, c + d), lo·hi to (c, c + d + 1), hi·lo to (c + 1, c + d) and
    hi·hi to (c + 1, c + d + 1)."""
    lo = c * n + (c + d)
    hi = lo + n
    return np.stack([lo, lo + 1, hi, hi + 1])


def _scatter(dst, at, sums):
    """Add the hat sums (4, pairs) to the flat array ``dst`` at the
    positions ``at`` (4, pairs).

    The one place that fixes the order in which hat sums reach an entry:
    entry (i, j) receives lo·hi of band j - i - 1, lo·lo of band j - i,
    hi·hi of band j - i and hi·lo of band j - i + 1, in that order, which
    is the order of a loop over single bands.  Each pass reaches an entry
    at most once, so the fancy-index additions are exact.
    """
    for k in (1, 0, 3, 2):
        dst[at[k]] += sums[k]


def _near_field(Kmat, r, h, N, nu, S, table, far, checks):
    """Add the hat sums of the near pairs, c + d < far[c], to K; return
    those of the pairs ``checks`` (c, d) as (4, pairs), zero at their far
    pairs."""
    M = h.size
    c, d = _pairs(far, np.arange(2, M))
    sums = _hat_sums(c, d, r, h, N, nu, S, table)
    _scatter(Kmat.reshape(-1), _entries(c, d, M + 1), sums)
    cc, cd = checks
    check_sums = np.zeros((4, cc.size))
    check_sums[:, cc + cd < far[cc]] = sums[:, np.isin(d, cd)]
    return check_sums


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
    xi_g, w_g = (v.ravel() for v in _panel_rules(np.asarray(pts), n_panel))
    w_g = w_g * xi_g ** (sp - 1.0)
    return np.concatenate([xi_h, xi_g]), np.concatenate([w_h, w_g])


def _tail_mass_funcs(R, N, sp, nu, S, table, xi_s, wxi_s, xi_l, wxi_l):
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
        return table.phi(t[:, None] * xi[None, :] / R)

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
        core = core + table.edge_profile(t / R) * sliver
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


def _quadrature_halves(N, sp, S, table):
    """The far halves of :func:`_series_halves` by quadrature of Phi.

    With rho = s/t (inner) and rho = t/s (outer) the two masses are

        S t^{N-1-sp} u^N int_0^1 x^{N-1} Phi(u x) dx,
        S t^{N-1-sp} w^sp int_0^1 xi^{sp-1} Phi(w xi) dxi,

    each taken with the 16-point Gauss-Jacobi rule of its power and Phi
    from the phi table.  Phi(u x) is analytic out to x = 1/u >= 2,
    so a low order is exact to the table's accuracy.  This is the
    verification pass's rule: it shares no step with the series.
    """
    def half(e):
        x, wx = gauss_jacobi_01(16, 0.0, e - 1.0)

        def mass(t, u):
            core = np.empty(t.size)
            for rows in _row_chunks(t.size, x.size):
                core[rows] = (table.phi(u[rows, None] * x[None, :])
                              * wx).sum(-1)
            return S * t ** (N - 1.0 - sp) * u ** e * core
        return mass

    return half(float(N)), half(sp)


def _window_mass(tm, lo, hi, N, nu, S, table, n, left):
    """Kernel mass seen from radii tm over the windows [lo, hi], one row
    per radius, every window on the same side of its radius (``left``:
    hi <= tm, else lo >= tm).

    One n-point Gauss-Legendre rule in y = log|s - tm| over each window:
    with ds = e^y dy the integrand is S x^{N-1} e^{(1-nu) y} G(x/z),
    (x, z) = (s, tm) or (tm, s), analytic in y all the way to the
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
        val = (S * x ** (N - 1) * np.exp((1.0 - nu) * y)
               * table.edge_profile(x / z))
        out[live[rows]] = L[rows] * (val * wq).sum(-1)
    return out


def _pair_corrections(r, h, N, nu, S, table, mass_shared, mass_last,
                      halves, n_t=8, n_y=12):
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
    right += _window_mass(tr, edge, np.minimum(B, R), N, nu, S, table, n_y,
                          left=False)
    mass[:-1] = right.reshape(M - 1, n_t)
    mass[-1] = mass_last(t[-1])

    # partners left of a-1, rows a >= 2
    tl = t[2:].ravel()
    edge = np.repeat(r[1:M - 1], n_t)                       # r_{a-1}
    P = np.minimum(edge, 0.5 * tl)
    left = inner_half(tl, P / tl)
    left += _window_mass(tl, P, edge, N, nu, S, table, n_y, left=True)
    mass[2:] += left.reshape(M - 2, n_t)
    return 2.0 * h * ((wt * (1.0 - yt) * yt)[None, :] * mass).sum(axis=1)


def _tail_columns(r, h, N, sp, S, table, R, xi_s, wxi_s, xi_l, wxi_l,
                  n_hat=6):
    """The exterior coupling W as its two blocks, zero outside them,
    each as (first row, samples, weights): the shared columns ``xi_s``
    over rows 0..M-1 and the last cell's columns ``xi_l`` over rows M-1
    and M.

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
    shared = np.zeros((M, nq_s))
    Wa, Wb = last = np.empty((2, xi_l.size))        # rows M-1 and M
    pref = 2.0 * S * R ** (-sp)

    # the lo and hi hat parts of the interior cells, one row per cell
    lo = np.empty((M - 1, nq_s))
    hi = np.empty((M - 1, nq_s))
    for rows in _row_chunks(M - 1, n_hat * nq_s):
        hc = h[:M - 1][rows]
        x = r[:M - 1][rows, None] + hc[:, None] * yx[None, :]  # (rows, n_hat)
        phi = table.phi(x[:, :, None] * xi_s[None, None, :] / R)
        core = pref * x[:, :, None] ** (N - 1) * phi * wxi_s[None, None, :]
        core = core * (hc[:, None, None] * wx[None, :, None])
        lo[rows] = (core * (1.0 - yx)[None, :, None]).sum(axis=1)
        hi[rows] = (core * yx[None, :, None]).sum(axis=1)
    shared[0:M - 1] += lo
    shared[1:M] += hi

    a = M - 1
    ha = h[a]
    gap = (1.0 - xi_l) * R
    # a zero scale leaves the single panel [r_a, R]
    ptsx = _graded_rows(r[a], R, np.where(gap < 2.0 * ha, 0.5 * gap, 0.0),
                        toward_b=True, factor=2.0, max_panels=60)
    for rows in _row_chunks(xi_l.size, (ptsx.shape[1] - 1) * n_hat):
        wid = np.diff(ptsx[rows], axis=1)[:, :, None]
        xg = ptsx[rows, :-1, None] + wid * yx
        phi = table.phi(xg * xi_l[rows, None, None] / R)
        val = (pref * wxi_l[rows, None, None] * xg ** (N - 1) * phi
               * (wid * wx))
        frac = (xg - r[a]) / ha
        Wa[rows] = (val * (1.0 - frac)).sum(axis=(1, 2))
        Wb[rows] = (val * frac).sum(axis=(1, 2))
    return (0, xi_s, shared), (a, xi_l, last)


def _tail_profile(grid, N, sp, p, xis, quad_nodes=NODES):
    """What a KernelMatrix holds that depends on the grid's tail
    exponent bt: the profile values g = xi^bt of the tail blocks, one
    array per array of samples in ``xis``, and the tail self-energy
    coefficient 2 S R^{N-sp}/(p bt + sp - N) * profile integral
    (``tail_self``).  The profile integral takes C(beta)'s fixed rule on
    the same breakpoints (``kernel._UNIT_POINTS``), at ``quad_nodes``
    per panel (24 by default).  The weights and samples depend on the
    nodes alone.
    """
    bt = grid.tail_exponent
    gs = [xi ** bt for xi in xis]
    if bt == 0.0:
        return gs, 0.0
    pw = p * bt + sp - N
    if pw <= 0.0:
        raise DomainError(
            f"tail_exponent={bt:g}: the exterior self-energy diverges for "
            f"0 < beta_tail <= (N - sp)/p = {(N - sp) / p:g}; "
            "use 0 (constant extension) or a faster decay"
        )
    table = get_phi_table(N, sp)

    def f(tau):
        return (tau ** (sp - 1.0)
                * (-np.expm1(bt * np.log(tau))) ** p
                * table.phi(tau))

    res = integrate(f, _UNIT_POINTS, quad_nodes,
                    lo_exponent=sp - 1.0, hi_exponent=p - table.nu)
    S = unit_sphere_area(N - 1)
    return gs, 2.0 * S * grid.R_max ** (N - sp) / pw * res.value


def _with_tail_exponent(K: KernelMatrix, grid: RadialGrid) -> KernelMatrix:
    """K for ``grid``, which has K's nodes and its own tail exponent.

    Only the tail blocks' ``g`` and ``tail_self`` are priced again
    (:func:`_tail_profile`, whose self-energy integral is one fixed rule
    with no refinement rounds); every other field, the arrays included,
    is K's.  The result equals, bit for bit, what :func:`assemble` builds
    on ``grid`` at the default Gauss order.
    """
    _require_grid(replace(grid, tail_exponent=K.grid.tail_exponent), K,
                  "the grid's nodes differ from the ones the kernel matrix "
                  "was assembled on")
    gs, tail_self = _tail_profile(grid, K.N, K.sp, K.p,
                                  [blk.xi for blk in K.tail])
    return replace(K, grid=grid, tail_self=tail_self,
                   tail=tuple(replace(blk, g=g) for blk, g in zip(K.tail, gs)))


def assemble(grid: RadialGrid, params: ProblemParams,
             quad_nodes: int = NODES) -> KernelMatrix:
    """Assemble the pair weights for one grid and parameter set.

    The angular profile is the reduction validated by the closed-form
    p = 2 cross-check in :mod:`fracp.kernel`; ``quad_nodes`` is the
    per-panel Gauss order of the tail self-energy integral
    (:func:`_tail_profile`).  The returned matrix is symmetric,
    nonnegative, and deterministic for fixed inputs.  Raises
    :class:`ConvergenceError` when the elevated-order verification pass
    disagrees with the production pass by more than 1e-5 or not finitely
    on any block, naming the offending cell pair, and :class:`FracpError`
    when a pair weight comes out negative or not finite.
    """
    N, sp, p = params.N, params.sp, params.p
    nu = edge_exponent(N, sp)
    table = get_phi_table(N, sp)
    S = unit_sphere_area(N - 1)
    r = grid.nodes
    h = grid.widths
    M = h.size
    R = grid.R_max
    xi_s, wxi_s = gauss_jacobi_01(48, 0.0, sp - 1.0)
    xi_l, wxi_l = _last_cell_xi_rule(sp)
    # first, so that a divergent tail self-energy is refused before any
    # assembly work
    gs, tail_self = _tail_profile(grid, N, sp, p, (xi_s, xi_l), quad_nodes)

    Kmat = np.zeros((M + 1, M + 1))
    idx = np.arange(M)

    same = _same_cell(r, h, N, p, nu, S, table)
    Kmat[idx, idx + 1] += same

    Aw, Bw, Cw = _adjacent(r, h, N, p, nu, S, table)
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

    # near pairs by Gauss rules, far pairs from the profile series; the
    # pairs of the check bands keep their production sums for the
    # verification pass, the far ones through per-band views {d: (4, M - d)}
    far = _far_start(r)
    checks = _pairs(np.full(M, M), _CHECK_BANDS)
    check_sums = _near_field(Kmat, r, h, N, nu, S, table, far, checks)
    bands, starts = np.unique(checks[1], return_index=True)
    phi = _profile_series(N, sp)
    _far_series(Kmat, r, h, N, sp, S, phi, far,
                {int(b): check_sums[:, i:i + M - b]
                 for b, i in zip(bands, starts)})

    mass_shared, mass_last = _tail_mass_funcs(R, N, sp, nu, S, table,
                                              xi_s, wxi_s, xi_l, wxi_l)
    V = _pair_corrections(r, h, N, nu, S, table, mass_shared, mass_last,
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

    blocks = _tail_columns(r, h, N, sp, S, table, R, xi_s, wxi_s, xi_l,
                           wxi_l)

    # a NaN fails every comparison: only finite nonnegative weights pass
    if not 0.0 <= Kmat.min() <= Kmat.max() < np.inf:
        bad = np.where(np.isfinite(Kmat), Kmat, -np.inf)
        i_bad, j_bad = np.unravel_index(int(np.argmin(bad)), Kmat.shape)
        raise FracpError(
            f"pair weight K[{i_bad},{j_bad}] = {Kmat[i_bad, j_bad]:.3e} "
            "came out negative or not finite (a negative one: the far-field "
            "correction exceeded the local weight; grid too coarse)"
        )

    dev, worst = _verification_pass(
        r, h, N, sp, p, nu, S, table, R, same, Aw, Bw, Cw, checks, check_sums,
        V_applied, pre_sub, blocks)
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
        weights=Kmat,
        tail=tuple(TailBlock(start, xi, g, W)
                   for (start, xi, W), g in zip(blocks, gs)),
        tail_self=tail_self,
        assembly_error=dev,
        adjacent_clips=int(np.count_nonzero(floored)),
        adjacent_clipped=float(floored.sum()),
        correction_clips=int(np.count_nonzero(capped)),
        correction_clipped=float(capped.sum()),
    )


def _verification_pass(r, h, N, sp, p, nu, S, table, R, same, Aw, Bw, Cw,
                       checks, check_sums, V, pre_sub, tail_blocks):
    """Re-integrate every block at elevated order; return the worst
    relative deviation and the cell pair it occurred at.

    ``checks`` are the cell pairs (c, d) of the check bands
    (:func:`_pairs`) and ``check_sums`` their production hat sums.  Each
    block yields its deviations and the cell pairs (i, j) of its entries;
    one reduction over the blocks, in order, keeps the first strictly
    largest, from 0 at (0, 1).  A NaN or an infinity counts as infinite.
    """
    M = h.size
    idx = np.arange(M + 1)
    same2 = _same_cell(r, h, N, p, nu, S, table, n_u=24, n_r=18)
    blocks = [(np.abs(same2 - same) / np.maximum(same, 1e-300), idx, idx + 1)]

    Aw2, Bw2, Cw2 = _adjacent(r, h, N, p, nu, S, table, n_u=24, n_x=18)
    scale_adj = np.maximum(np.abs(Aw) + np.abs(Bw) + np.abs(Cw), 1e-300)
    blocks.append(((np.abs(Aw2 - Aw) + np.abs(Bw2 - Bw) + np.abs(Cw2 - Cw))
                   / scale_adj, idx, idx + 2))

    # the check pairs' production and elevated-order sums, scattered
    # over the entries they reach (flat row-major indices into K)
    c, d = checks
    keys, at = np.unique(_entries(c, d, M + 1), return_inverse=True)
    at = at.reshape(4, -1)
    K1 = np.zeros(keys.size)
    _scatter(K1, at, check_sums)
    K2 = np.zeros(keys.size)
    _scatter(K2, at, _hat_sums(c, d, r, h, N, nu, S, table,
                               order=lambda d: 2 * _band_order(d)))
    mask = K1 > 0.0
    blocks.append((np.abs(K2[mask] - K1[mask]) / K1[mask],
                   *np.divmod(keys[mask], M + 1)))
    del keys, at, K1, K2    # not held through the blocks below

    # far-field corrections against finer t and window rules, far halves
    # by quadrature of the phi table instead of the series, and a denser
    # shared xi rule (the last-cell mass already resolves the kernel edge)
    xi_s2, wxi_s2 = gauss_jacobi_01(64, 0.0, sp - 1.0)
    xi_l2, wxi_l2 = _last_cell_xi_rule(sp, n_head=32, n_panel=16)
    ms2, ml2 = _tail_mass_funcs(R, N, sp, nu, S, table, xi_s2, wxi_s2,
                                xi_l2, wxi_l2)
    V2 = _pair_corrections(r, h, N, nu, S, table, ms2, ml2,
                           _quadrature_halves(N, sp, S, table),
                           n_t=12, n_y=24)
    blocks.append((np.abs(np.minimum(V2, pre_sub) - V)
                   / np.maximum(pre_sub, 1e-300), idx, idx + 1))

    # exterior coupling: compare rule-independent row functionals (total
    # mass and a curvature-weighted mass) between the two xi rules
    tail_blocks2 = _tail_columns(r, h, N, sp, S, table, R, xi_s2, wxi_s2,
                                 xi_l2, wxi_l2, n_hat=10)
    for g_pow in (0.0, 2.0):
        f1 = _tail_row_sums(tail_blocks, g_pow)
        f2 = _tail_row_sums(tail_blocks2, g_pow)
        blocks.append((np.abs(f2 - f1) / max(float(np.nanmax(f1)), 1e-300),
                       idx, np.full(M + 1, M + 1)))

    dev, worst = 0.0, (0, 1)
    for rel, i, j in blocks:
        rel = np.where(np.isfinite(rel), rel, np.inf)
        k = int(np.argmax(rel))
        if rel[k] > dev:
            dev, worst = float(rel[k]), (int(i[k]), int(j[k]))
    return dev, worst


def _tail_row_sums(blocks, g_pow):
    """sum_q W_iq xi_q^g_pow for every node, from the blocks of
    :func:`_tail_columns`: each block's row sums added into the rows it
    covers, in order."""
    out = np.zeros(max(start + W.shape[0] for start, _, W in blocks))
    for start, xi, W in blocks:
        out[start:start + W.shape[0]] += (W * xi ** g_pow).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class _TailBlock:
    """Arrays for pricing one tail block of K (:class:`TailBlock`), all
    of the block's shape but ``rows``: its weights ``W``, K's own array,
    not a copy; ``g``, the block's profile values copied across its
    rows; ``WA`` for p != 2; and the work arrays ``d`` and ``flux``, laid
    over the two work arrays of the pair blocks, which are done with
    them whenever the tail is priced."""

    def __init__(self, blk: TailBlock, p: float, D, flux):
        self.rows, self.W = blk.rows, blk.W
        shape, size = self.W.shape, self.W.size
        self.g = np.broadcast_to(blk.g, shape).copy()
        self.WA = None if p == 2.0 else np.empty(shape)
        self.d = D[:size].reshape(shape)
        self.flux = flux[:size].reshape(shape)


def _pair_blocks(n):
    """Row blocks [a, b) for pricing the node pairs of an n x n matrix.

    Block [a, b) takes rows a..b-1 against columns a..n-1: the diagonal
    square [a, b)^2 both ways, the rectangle [a, b) x [b, n) once, so
    every pair i < j is priced in exactly one block.  A block takes as
    many rows as keep it within ``_PAIR_BLOCK`` entries, and at least
    one, or all the rows left when fewer than that would remain after
    it, so no sliver of a few rows pays a block's fixed cost.  A matrix
    of at most _PAIR_BLOCK entries is a single block.
    """
    a = 0
    while a < n:
        rows = max(1, _PAIR_BLOCK // (n - a))
        b = n if n - a < 2 * rows else a + rows
        yield a, b
        a = b


class _PairBlock:
    """Views for pricing row block [a, b) of the node pairs
    (:func:`_pair_blocks`): rows a..b-1 against columns a..M.

    ``D`` and ``flux`` lay the block's shape over the buffers' two work
    arrays.  ``WA`` holds the block's pair weights, for p != 2, packed
    into the memory of H as one contiguous array from flat index
    ``start``; ``place`` is the block's place in H.  ``Hb`` is where its
    part of the Hessian is built: the place itself when that is
    contiguous (only the first block's is), else D.
    """

    def __init__(self, a, b, H, D, flux, start):
        shape = (b - a, H.shape[0] - a)
        size = shape[0] * shape[1]
        self.a, self.b = a, b
        self.D = D[:size].reshape(shape)
        self.flux = flux[:size].reshape(shape)
        self.WA = H.reshape(-1)[start:start + size].reshape(shape)
        self.place = H[a:b, a:]
        self.Hb = self.place if self.place.flags.c_contiguous else self.D


class _Buffers:
    """Work arrays for pricing points of one solve on one KernelMatrix.

    ``H`` is (M+1)^2: an evaluation packs its pair weights into H's
    memory, and :meth:`_EnergyTerms.hessian` builds the Hessian over
    them.  ``pairs`` lists the row blocks of the node pairs
    (:class:`_PairBlock`) and ``tail`` those of K's tail blocks
    (:class:`_TailBlock`).  All of them share two work arrays, sized for
    the largest block, for their ``D`` or ``d`` and their ``flux``.
    Every evaluation priced into a set overwrites all of them and takes
    the next ``stamp``, so an evaluation can tell whether its weights
    are still there (a stamp, not a reference back, keeps the pair free
    of cycles).
    """

    def __init__(self, K: KernelMatrix):
        n = K.weights.shape[0]
        blocks = list(_pair_blocks(n))
        size = max([(b - a) * (n - a) for a, b in blocks]
                   + [blk.W.size for blk in K.tail])
        self.H = np.empty((n, n))
        D, flux = np.empty(size), np.empty(size)
        self.pairs = []
        start = 0
        for a, b in blocks:
            self.pairs.append(_PairBlock(a, b, self.H, D, flux, start))
            start += (b - a) * (n - a)
        self.tail = [_TailBlock(blk, K.p, D, flux) for blk in K.tail]
        self.stamp = 0


class _EnergyTerms:
    """The energy at one point, with what its derivatives need, from one pass.

    ``WA = W |D|^{p-2}``, with ``D_ij = U_i - U_j``, and, per tail block,
    ``WtA = W_b |d_b|^{p-2}`` are the weights the energy, the residual
    and the Hessian share.  W is symmetric and D antisymmetric, so the
    pair terms are priced on the upper triangle only, row block by row
    block (:func:`_pair_blocks`).  A block's flux ``WA D`` adds its row
    sums to R and subtracts the column sums of its rectangle; the pairs
    of the rectangle add their energy ``WA D^2`` and those of the square,
    priced both ways, half of it.  The tail terms are priced on K's tail
    blocks, one after the other.  Only WA (for p = 2 it is W itself) and
    the tail blocks' WtA are kept for the Hessian.

    Every work array of a block's or a tail block's shape lives in
    ``buffers`` (a private set when none is given), written with ``out=``
    in the order the formulas read, so a shared set changes no bit of the
    results.  Every ufunc operand is contiguous: a row block of K's
    weights is first copied out (its tail blocks are stored contiguous),
    and a row or column vector is copied across a buffer, because a ufunc
    on a strided 2-D block or one that broadcasts runs through iterator
    buffers of up to 8192 entries per operand, at two to four times the
    cost.  A matrix of one block is priced exactly as
    the whole square.  A later evaluation priced into the same set
    overwrites WA and WtA; :meth:`hessian` then raises instead of
    reading them.
    """

    def __init__(self, K: KernelMatrix, U: np.ndarray,
                 buffers: _Buffers | None = None):
        self.K = K
        self._U = U = np.array(U, dtype=float)
        self.um = um = float(U[-1])
        p = K.p
        buf = self._buf = buffers if buffers is not None else _Buffers(K)
        buf.stamp += 1
        self._stamp = buf.stamp
        self._kept = True       # WA is in the buffers until hessian()
        n = U.size
        res = np.zeros(n)
        pairs = 0.0
        for blk in buf.pairs:
            a, b = blk.a, blk.b
            D, WA = self._pair_weights(blk)
            A = np.multiply(WA, D, out=blk.flux)
            res[a:b] += A.sum(axis=1)
            AD = np.multiply(A, D, out=D)       # WA D^2
            pairs += 0.5 * float(AD[:, :b - a].sum())
            if b < n:
                res[b:] -= A[:, b - a:].sum(axis=0)
                pairs += float(AD[:, b - a:].sum())
        tail = 0.0
        self.WtA = []
        for blk in buf.tail:
            np.copyto(blk.d, U[blk.rows, None])
            np.multiply(blk.g, um, out=blk.flux)
            d = np.subtract(blk.d, blk.flux, out=blk.d)
            if p == 2.0:
                WtA = blk.W
            else:
                WtA = np.abs(d, out=blk.WA)
                WtA **= p - 2.0
                WtA *= blk.W
            At = np.multiply(WtA, d, out=blk.flux)
            res[blk.rows] += At.sum(axis=1)
            tail += float(np.multiply(At, d, out=d).sum())   # WtA d^2
            res[-1] -= float(np.multiply(At, blk.g, out=d).sum())
            self.WtA.append(WtA)
        res[-1] += K.tail_self * (um if p == 2.0
                                  else abs(um) ** (p - 2.0) * um)
        self._residual = res
        self.energy = pairs + tail + K.tail_self * abs(um) ** p

    def _pair_weights(self, blk: _PairBlock):
        """D and WA of one row block, as contiguous arrays: D in the
        block's ``D``, WA in its ``WA`` (for p = 2, W itself, copied out
        unless the block's rows are whole rows of W)."""
        K, U = self.K, self._U
        a, b = blk.a, blk.b
        D, row = blk.D, blk.flux
        np.copyto(D, U[a:b, None])
        np.copyto(row, U[a:])
        np.subtract(D, row, out=D)
        W = K.weights[a:b, a:]
        if not W.flags.c_contiguous:
            np.copyto(row, W)
            W = row
        if K.p == 2.0:
            return D, W
        WA = np.abs(D, out=blk.WA)
        WA **= K.p - 2.0
        WA *= W
        return D, WA

    def residual(self) -> np.ndarray:
        """Nodal pairing values R_i = (1/p) dE/dU_i (dual coefficients)."""
        return self._residual.copy()

    def hessian(self) -> np.ndarray:
        """Dense second derivative of the energy / p.

        Built in the buffers' ``H`` over this point's WA: block by
        block, H = -(p-1) WA off the diagonal, its rectangle mirrored
        below the diagonal by an exact transposed copy, so H is exactly
        symmetric, and the row sums on the diagonal.  A block writes H
        only at or after the start of its own packed WA, below which
        lie the blocks before it, so building from the last block reads
        every WA before it is overwritten.  H is overwritten by the next
        evaluation priced into the same buffers; a second call, after
        the caller may have factored H in place, prices WA again first.
        """
        buf = self._buf
        if buf.stamp != self._stamp:
            raise UsageError("a later evaluation has overwritten the "
                             "weights of this point; price it again")
        K, p = self.K, self.K.p
        H = buf.H
        n = H.shape[0]
        if not self._kept and p != 2.0:
            for blk in buf.pairs:
                self._pair_weights(blk)
        self._kept = False
        diag = H.reshape(-1)[::n + 1]       # a view of H's diagonal
        for blk in reversed(buf.pairs):
            a, b, Hb = blk.a, blk.b, blk.Hb
            WA = K.weights[a:b, a:] if p == 2.0 else blk.WA
            if not WA.flags.c_contiguous:
                np.copyto(Hb, WA)
                WA = Hb
            np.multiply(WA, -(p - 1.0), out=Hb)
            # the diagonal of the block's square takes minus its row sums
            np.fill_diagonal(Hb, 0.0)
            Hb.reshape(-1)[::Hb.shape[1] + 1] -= Hb.sum(axis=1)
            if b < n:
                # and the rows below, built already, minus its column sums
                rect = Hb[:, b - a:]
                diag[b:] -= rect.sum(axis=0)
                np.copyto(H[b:, a:b], rect.T)
            if Hb is not blk.place:
                np.copyto(blk.place, Hb)
        cross = np.zeros(n)
        corner = 0.0
        for blk, WtA in zip(buf.tail, self.WtA):
            Bt = np.multiply(WtA, p - 1.0, out=blk.flux)
            diag[blk.rows] += Bt.sum(axis=1)
            cross[blk.rows] += np.multiply(Bt, blk.g, out=blk.d).sum(axis=1)
            g = blk.g[0]                # the profile values, one row
            np.copyto(blk.d, g * g)
            corner += float(np.multiply(Bt, blk.d, out=blk.d).sum())
        H[:, -1] -= cross
        H[-1, :] -= cross
        H[-1, -1] += corner
        H[-1, -1] += (p - 1.0) * K.tail_self * abs(self.um) ** (p - 2.0)
        return H


def energy_terms(u: RadialFunction, K: KernelMatrix, *,
                 buffers: _Buffers | None = None) -> _EnergyTerms:
    """Energy at u, with its residual and Hessian priced from the same pass.

    ``buffers`` is the buffer set of a running solve (see
    :class:`_EnergyTerms`); without it the evaluation allocates its own.
    """
    _require_grid(u.grid, K)
    return _EnergyTerms(K, u.values, buffers)


def energy_seminorm(u: RadialFunction, K: KernelMatrix) -> float:
    """Discrete [u]^p: pair sum + exterior coupling + tail self term."""
    return energy_terms(u, K).energy


def weak_residual(u: RadialFunction, K: KernelMatrix) -> np.ndarray:
    """Nodal pairing values R_i = (1/p) dE/dU_i (dual coefficients)."""
    return energy_terms(u, K).residual()


def weight_a(r, params: ProblemParams):
    """The radial reaction weight a(r) = c_a / (1 + r^{N + alpha})."""
    r = np.asarray(r, dtype=float)
    out = params.c_a / (1.0 + r ** (params.N + params.alpha))
    return out if out.ndim else float(out)
