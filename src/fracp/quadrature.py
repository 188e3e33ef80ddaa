"""Panel-based Gaussian quadrature with endpoint-weight handling.

Everything the kernel and operator modules integrate has the shape

    f(x) = (x - A)^{lam} * (B - x)^{mu} * g(x),      g smooth,

with known (possibly zero) endpoint exponents ``lam, mu > -1``.  The
integrator here takes the *full* integrand ``f`` plus the two exponents;
end panels use Gauss-Jacobi rules whose weight absorbs the singular
factor analytically (the factor is divided back out at the interior
nodes, which is exact up to rounding), interior panels use plain
Gauss-Legendre.  :func:`integrate` is one fixed composite rule: every
panel is evaluated once at n and at 2n points, from one call of the
integrand, and the n-versus-2n differences are the error estimate.
There are no refinement rounds; the caller grades the breakpoints
geometrically toward the endpoint singularities
(:func:`graded_points`), where composite Gauss rules converge
exponentially (Schwab, Computing 53, 1994).

The fixed-rule helpers :func:`gauss_legendre_01` and
:func:`gauss_jacobi_01` are exposed for consumers that build
deterministic tensor rules themselves (kernel matrix assembly).  Every
rule comes from one generator in numpy, Legendre being the Jacobi case
with both exponents zero (Golub-Welsch, then one Newton step per node
on the three-term recurrence).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "NODES",
    "QuadResult",
    "gauss_legendre_01",
    "gauss_jacobi_01",
    "graded_points",
    "integrate",
]


# relative error estimate :func:`integrate` accepts
_REL_TOL = 1e-9

# the default per-panel Gauss order of :func:`integrate`; its error
# estimate compares the rule against twice that order
NODES = 24


class QuadResult(NamedTuple):
    value: float
    rel_err: float
    n_evals: int


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for ``integral_0^1 f(y) dy ~= sum w_k f(y_k)``:
    the Jacobi rule with both exponents zero."""
    x, w = _jacobi_cached(int(n), 0.0, 0.0)
    return x.copy(), w.copy()


def _jacobi_pair(n: int, al, be, x):
    """(p_n, p_{n-1}) with p_k = P_k^(al, be)(x) / P_k^(al, be)(1).

    The three-term recurrence is run on the differences d_k = p_k -
    p_{k-1}, with t = 2k + al + be:

        d_{k+1} = ((t+1)(t+2) (x-1) p_k / 2 + k (k+be)(t+2) d_k / t)
                  / ((k+al+1)(k+al+be+1)),

    which keeps its digits toward x = 1.  ``al`` and ``be`` broadcast
    against ``x``.
    """
    xm = x - 1.0
    k = np.arange(1.0, n)[:, None]
    t = 2.0 * k + al + be
    den = (k + al + 1.0) * (k + al + be + 1.0)
    ax = (t + 1.0) * (t + 2.0) / (2.0 * den) * xm
    b = k * (k + be) * (t + 2.0) / (den * t)
    d = (al + be + 2.0) * xm / (2.0 * (al + 1.0))
    prev = np.ones_like(x)
    p = prev + d
    for i in range(n - 1):
        d = ax[i] * p + b[i] * d
        prev = p
        p = p + d
    return p, prev


@lru_cache(maxsize=None)
def _jacobi_cached(n: int, exp_at_1: float, exp_at_0: float):
    """The n-point Gauss rule of :func:`gauss_jacobi_01`.

    Golub-Welsch on [-1, 1] with the weight (1-x)^alpha (1+x)^beta: the
    nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix.  Each node then takes one Newton step on P_n, evaluated from
    the end it is nearer to (P_n^(a,b)(x) = (-1)^n P_n^(b,a)(-x)), and
    its weight is 1 / ((1 - x^2) P_n'(x)^2), scaled so that the weights
    of the rule on [0, 1] sum to B(alpha + 1, beta + 1).
    """
    alpha, beta = exp_at_1, exp_at_0
    k = np.arange(1.0, n)
    s = 2.0 * k + alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s * (s + 2.0))
    off2 = np.empty(n - 1)
    if n > 1:
        # k = 1 with its factor (alpha + beta + 1) / (s - 1) cancelled
        off2[0] = (4.0 * (1.0 + alpha) * (1.0 + beta)
                   / ((2.0 + alpha + beta) ** 2 * (3.0 + alpha + beta)))
        k, s = k[1:], s[1:]
        off2[1:] = (4.0 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
                    / (s * s * (s + 1.0) * (s - 1.0)))
    J = np.diag(diag)
    i = np.arange(n - 1)
    J[i, i + 1] = J[i + 1, i] = np.sqrt(off2)
    x = np.linalg.eigvalsh(J)

    right = x >= 0.0
    t = np.abs(x)
    al = np.where(right, alpha, beta)
    be = np.where(right, beta, alpha)
    s = 2.0 * n + al + be

    def newton_terms(t):
        # P_n and P_n' in units of P_n(1), from (1 - t^2) P_n' =
        # (n ((al - be) - s t) P_n + 2 (n + al)(n + be) P_{n-1}) / s and
        # P_{n-1}(1) / P_n(1) = n / (n + al)
        p, q = _jacobi_pair(n, al, be, t)
        dp = (n * ((al - be) - s * t) * p + 2.0 * n * (n + be) * q) / (
            s * (1.0 - t) * (1.0 + t))
        return p, dp

    p, dp = newton_terms(t)
    t = t - p / dp
    _, dp = newton_terms(t)
    # the nodes read from the left end come in units of P_n^(beta,alpha)(1)
    j = np.arange(1.0, n + 1.0)
    dp = dp * np.where(right, 1.0, np.prod((beta + j) / (alpha + j)))
    w = 1.0 / ((1.0 - t) * (1.0 + t) * dp * dp)
    mass = (math.gamma(alpha + 1.0) * math.gamma(beta + 1.0)
            / math.gamma(alpha + beta + 2.0))
    x = np.where(right, t, -t)
    return 0.5 * (x + 1.0), w * (mass / w.sum())


def gauss_jacobi_01(n: int, exp_at_1: float = 0.0, exp_at_0: float = 0.0):
    """Rule absorbing the weight ``(1-y)^{exp_at_1} * y^{exp_at_0}``.

    Returns ``(y, W)`` with
    ``integral_0^1 (1-y)^a y^b f(y) dy ~= sum W_k f(y_k)`` where ``f`` is
    the smooth part only.  Both exponents must exceed -1.
    """
    if exp_at_1 <= -1.0 or exp_at_0 <= -1.0:
        raise DomainError(
            f"Jacobi exponents ({exp_at_1}, {exp_at_0}) must both exceed -1"
        )
    y, w = _jacobi_cached(int(n), float(exp_at_1), float(exp_at_0))
    return y.copy(), w.copy()


def graded_points(a: float, b: float, *, toward: float, scale: float,
                  factor: float = 4.0, max_panels: int = 40) -> list[float]:
    """Breakpoints of [a, b] accumulating geometrically toward one end.

    ``toward`` must equal ``a`` or ``b``; the panel nearest to it has
    width ``~scale`` and widths grow by ``factor`` moving away.  Points
    that coincide in floating point (a scale below an ulp of ``toward``)
    raise :class:`DomainError`; they are never merged.
    """
    if not a < b:
        raise DomainError(f"empty interval [{a}, {b}]")
    if toward != a and toward != b:
        raise DomainError("toward must be one of the interval endpoints")
    row = _graded_rows(a, b, scale, toward_b=toward == b, factor=factor,
                       max_panels=max_panels)[0]
    if np.any(row[1:] <= row[:-1]):
        raise DomainError(f"scale={scale:g}: breakpoints of [{a}, {b}] "
                          "coincide in floating point")
    return row.tolist()


def _graded_rows(a, b, scale, *, toward_b: bool, factor: float,
                 max_panels: int) -> np.ndarray:
    """:func:`graded_points` for many intervals at once, as padded rows.

    ``a``, ``b`` and ``scale`` broadcast to one value per row, with
    ``a < b`` in every row; ``toward_b`` picks the end the panels grade
    toward for all rows.  Row k holds the breakpoints of
    ``graded_points(a[k], b[k], toward=..., scale=scale[k])`` as built,
    unchecked, padded to the longest row by repeating the endpoint away
    from ``toward``: zero-width panels where the integrands stay finite.
    """
    a, b, scale = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float))
                                        for v in (a, b, scale)))
    width = b - a
    scale = np.minimum(np.abs(scale), width / factor)
    # cumprod multiplies left to right, so the offsets round exactly as
    # a scalar ``d *= factor`` loop does
    steps = np.full((scale.size, max_panels), float(factor))
    steps[:, 0] = scale
    d = np.cumprod(steps, axis=1)
    n = np.logical_and.accumulate(d < width[:, None], axis=1).sum(axis=1)
    n[~(scale > 0.0)] = 0
    P = int(n.max(initial=0))
    j = np.arange(P)[None, :]
    if toward_b:
        inner = np.where(j < (P - n)[:, None], a[:, None],
                         b[:, None] - d[:, :P][:, ::-1])
    else:
        inner = np.where(j >= n[:, None], b[:, None], a[:, None] + d[:, :P])
    return np.concatenate([a[:, None], inner, b[:, None]], axis=1)


def _panel_rules(pts: np.ndarray, m: int, lo_exp: float = 0.0,
                 hi_exp: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The m-point rules on every panel of the breakpoints ``pts``.

    Returns nodes and weights as (panels, m) arrays, row k the rule on
    [pts[k], pts[k+1]]: Gauss-Legendre, except that the first panel
    absorbs ``(x - pts[0])^{lo_exp}`` and the last ``(pts[-1] -
    x)^{hi_exp}`` into Gauss-Jacobi weights, with the factor divided back
    out at the nodes, so the rules always take the full integrand.
    """
    a, b = pts[:-1], pts[1:]
    h = b - a
    y, w = _jacobi_cached(m, 0.0, 0.0)
    x = a[:, None] + h[:, None] * y
    wf = h[:, None] * w
    last = a.size - 1
    for k in {0, last}:
        lo = lo_exp if k == 0 else 0.0
        hi = hi_exp if k == last else 0.0
        if lo == 0.0 and hi == 0.0:
            continue
        ak, bk, hk = float(a[k]), float(b[k]), float(h[k])
        yj, wj = _jacobi_cached(m, hi, lo)
        x[k] = ak + hk * yj
        wf[k] = wj * hk ** (lo + hi + 1.0)
        if lo != 0.0:
            wf[k] *= (x[k] - ak) ** (-lo)
        if hi != 0.0:
            wf[k] *= (bk - x[k]) ** (-hi)
    return x, wf


def integrate(f: Callable[[np.ndarray], np.ndarray],
              points: Sequence[float],
              nodes: int = NODES,
              *,
              lo_exponent: float = 0.0,
              hi_exponent: float = 0.0) -> QuadResult:
    """Integrate ``f`` by a fixed composite rule on the panels of ``points``.

    ``points`` is an increasing breakpoint sequence; ``lo_exponent`` and
    ``hi_exponent`` declare power behavior ``(x - points[0])^{lo}`` and
    ``(points[-1] - x)^{hi}`` of the integrand at the extreme ends.
    ``f`` must accept a node array and return values of the same shape,
    and it must be pointwise: each value depends on its own node only.
    ``f`` is called once, on the n- and 2n-point nodes of every panel
    (n = ``nodes``, at least 2); the result is the 2n-point value, and its
    error estimate is the summed n-versus-2n difference of the panels.

    Raises ConvergenceError (carrying the value and the estimate) when
    the estimate exceeds ``_REL_TOL`` relative to the value and 1e-15
    relative to the summed panel magnitudes; the breakpoints are the
    caller's to grade toward the singularities.
    """
    pts = np.array(points, dtype=float)
    if pts.size < 2 or np.any(pts[1:] <= pts[:-1]):
        raise DomainError("breakpoints must be strictly increasing")
    if lo_exponent <= -1.0 or hi_exponent <= -1.0:
        raise DomainError("endpoint exponents must exceed -1")
    if nodes < 2:
        raise DomainError(f"nodes={nodes}: need at least 2 per panel")

    (xc, wc), (xf, wf) = (_panel_rules(pts, m, lo_exponent, hi_exponent)
                          for m in (nodes, 2 * nodes))
    # panel by panel, its n nodes and then its 2n nodes
    x = np.concatenate([xc, xf], axis=1)
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    coarse = [float(np.dot(w, v)) for w, v in zip(wc, fx[:, :nodes])]
    fine = [float(np.dot(w, v)) for w, v in zip(wf, fx[:, nodes:])]
    total = sum(fine)
    err = sum(abs(v - c) for c, v in zip(coarse, fine))
    sum_abs = sum(map(abs, fine))
    rel_err = err / max(abs(total), 1e-300)
    if err <= _REL_TOL * abs(total) or err <= 1e-15 * sum_abs:
        return QuadResult(total, rel_err, x.size)
    raise ConvergenceError(
        f"quadrature missed its error target: estimated relative error "
        f"{rel_err:.3e} (target {_REL_TOL:.1e}) with {nodes} and {2 * nodes} "
        f"nodes on each of {len(x)} panels",
        best=total,
        estimate=err,
    )
