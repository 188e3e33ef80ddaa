"""Panel-based Gaussian quadrature with endpoint-weight handling.

Everything the kernel and operator modules integrate has the shape

    f(x) = (x - A)^{lam} * (B - x)^{mu} * g(x),      g smooth,

with known (possibly zero) endpoint exponents ``lam, mu > -1``.  The
integrator here takes the *full* integrand ``f`` plus the two exponents;
end panels use Gauss-Jacobi rules whose weight absorbs the singular
factor analytically (the factor is divided back out at the interior
nodes, which is exact up to rounding), interior panels use plain
Gauss-Legendre.  An n-versus-2n comparison per panel drives adaptive
bisection until the requested relative tolerance is met; the integrand
is evaluated once per round, on the nodes of every panel of the round.

The fixed-rule helpers :func:`gauss_legendre_01` and
:func:`gauss_jacobi_01` are exposed for consumers that build
deterministic tensor rules themselves (kernel matrix assembly).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "gauss_legendre_01",
    "gauss_jacobi_01",
    "graded_points",
    "integrate",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy controls for adaptive quadrature.

    ``nodes`` is the per-panel Gauss order (the refinement comparison
    doubles it), ``tol`` the target relative error, and
    ``max_refinements`` the number of bisection rounds allowed before
    giving up.
    """

    nodes: int = 24
    tol: float = 1e-9
    max_refinements: int = 12

    def __post_init__(self):
        if self.nodes < 2:
            raise DomainError(f"nodes={self.nodes}: need at least 2 per panel")
        if self.tol <= 0.0:
            raise DomainError(f"tol={self.tol}: must be positive")
        if self.max_refinements < 0:
            raise DomainError("max_refinements must be nonnegative")


class QuadResult(NamedTuple):
    value: float
    rel_err: float
    n_evals: int


@lru_cache(maxsize=None)
def _legendre_cached(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for ``integral_0^1 f(y) dy ~= sum w_k f(y_k)``."""
    x, w = _legendre_cached(int(n))
    return x.copy(), w.copy()


@lru_cache(maxsize=None)
def _jacobi_cached(n: int, exp_at_1: float, exp_at_0: float):
    x, w = roots_jacobi(int(n), exp_at_1, exp_at_0)
    scale = 2.0 ** -(exp_at_1 + exp_at_0 + 1.0)
    return 0.5 * (x + 1.0), scale * w


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
    width ``~scale`` and widths grow by ``factor`` moving away.
    """
    if not a < b:
        raise DomainError(f"empty interval [{a}, {b}]")
    if toward != a and toward != b:
        raise DomainError("toward must be one of the interval endpoints")
    row = _graded_rows(a, b, scale, toward_b=toward == b, factor=factor,
                       max_panels=max_panels)[0]
    # a collapsed row comes padded with copies of its far endpoint
    return row[np.diff(row, prepend=-np.inf) > 0.0].tolist()


def _graded_rows(a, b, scale, *, toward_b: bool, factor: float,
                 max_panels: int) -> np.ndarray:
    """:func:`graded_points` for many intervals at once, as padded rows.

    ``a``, ``b`` and ``scale`` broadcast to one value per row, with
    ``a < b`` in every row; ``toward_b`` picks the end the panels grade
    toward for all rows.  Row k holds exactly the breakpoints of
    ``graded_points(a[k], b[k], toward=..., scale=scale[k])``, padded to
    the longest row by repeating the endpoint away from ``toward``, so
    the padding adds zero-width panels where the integrands stay finite.
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
        pad = j < (P - n)[:, None]
        inner = np.where(pad, a[:, None], b[:, None] - d[:, :P][:, ::-1])
    else:
        pad = j >= n[:, None]
        inner = np.where(pad, b[:, None], a[:, None] + d[:, :P])
    rows = np.concatenate([a[:, None], inner, b[:, None]], axis=1)

    # rows with points closer than the collapse threshold (offsets below
    # an ulp of the far endpoint) take the scalar collapse; the others
    # are already what it would return
    ends = np.ones((a.size, 1), bool)
    real = np.concatenate([ends, ~pad, ends], axis=1)
    lo, hi = rows[:, :-1], rows[:, 1:]
    close = hi - lo <= 4e-16 * np.maximum(np.abs(hi), np.abs(lo))
    close &= real[:, 1:] if toward_b else real[:, :-1]
    for k in np.flatnonzero(close.any(axis=1)):
        pts = _collapse(rows[k][real[k]].tolist(), float(b[k]))
        fill = [pts[0] if toward_b else pts[-1]] * (P + 2 - len(pts))
        rows[k] = fill + pts if toward_b else pts + fill
    return rows


def _collapse(pts: list[float], b: float) -> list[float]:
    # collapse floating-point duplicates (offsets below an ulp of the
    # far endpoint round onto it); the threshold must stay relative, an
    # absolute floor would wipe out the fine panels near a zero endpoint
    out = [pts[0]]
    for q in pts[1:]:
        if q - out[-1] > 4e-16 * max(abs(q), abs(out[-1])):
            out.append(q)
    if len(out) == 1 or out[-1] != b:
        out.append(b)
    if len(out) >= 3 and out[-1] - out[-2] <= 4e-16 * abs(b):
        del out[-2]
    return out


class _Panel(NamedTuple):
    a: float
    b: float
    lo_exp: float
    hi_exp: float


def _panel_rule(panel: _Panel, n: int):
    """Nodes and weights of the n-point rule on one panel.

    The endpoint weight, when declared, is divided out of ``f`` at the
    nodes and re-absorbed into Jacobi weights, so ``f`` is always the
    full integrand.
    """
    a, b, lo, hi = panel
    h = b - a
    if lo == 0.0 and hi == 0.0:
        y, w = _legendre_cached(n)
        return a + h * y, h * w
    y, w = _jacobi_cached(n, hi, lo)
    x = a + h * y
    wf = w * h ** (lo + hi + 1.0)
    if lo != 0.0:
        wf = wf * (x - a) ** (-lo)
    if hi != 0.0:
        wf = wf * (b - x) ** (-hi)
    return x, wf


def _eval_panels(f: Callable[[np.ndarray], np.ndarray],
                 panels: Sequence[_Panel], n: int) -> list[tuple[float, float]]:
    """The (n-point, 2n-point) values of every panel from one call of f."""
    rules = [_panel_rule(panel, m) for panel in panels for m in (n, 2 * n)]
    fx = np.asarray(f(np.concatenate([x for x, _ in rules])), dtype=float)
    vals = []
    k = 0
    for x, wf in rules:
        vals.append(float(np.dot(wf, fx[k:k + x.size])))
        k += x.size
    return list(zip(vals[0::2], vals[1::2]))


def integrate(f: Callable[[np.ndarray], np.ndarray],
              points: Sequence[float],
              spec: QuadratureSpec,
              *,
              lo_exponent: float = 0.0,
              hi_exponent: float = 0.0) -> QuadResult:
    """Adaptively integrate ``f`` over the panels defined by ``points``.

    ``points`` is an increasing breakpoint sequence; ``lo_exponent`` and
    ``hi_exponent`` declare power behavior ``(x - points[0])^{lo}`` and
    ``(points[-1] - x)^{hi}`` of the integrand at the extreme ends.
    ``f`` must accept a node array and return values of the same shape,
    and it must be pointwise: each value depends on its own node only.
    ``f`` is called once for the initial panels and once per refinement
    round, on the nodes of all the panels that round creates.

    Raises ConvergenceError (carrying the best estimate) if the error
    target is still missed after ``spec.max_refinements`` bisection
    rounds.
    """
    pts = list(map(float, points))
    if len(pts) < 2 or any(q <= p for p, q in zip(pts, pts[1:])):
        raise DomainError("breakpoints must be strictly increasing")
    if lo_exponent <= -1.0 or hi_exponent <= -1.0:
        raise DomainError("endpoint exponents must exceed -1")

    n = spec.nodes
    panels = []
    for k, (a, b) in enumerate(zip(pts, pts[1:])):
        lo = lo_exponent if k == 0 else 0.0
        hi = hi_exponent if k == len(pts) - 2 else 0.0
        panels.append(_Panel(a, b, lo, hi))

    n_evals = 0
    # heap entries: (-err, counter, panel, value_2n, err)
    heap = []
    total = 0.0
    sum_abs = 0.0
    counter = 0

    def push(panel: _Panel, coarse: float, fine: float):
        nonlocal n_evals, total, sum_abs, counter
        n_evals += 3 * n
        err = abs(fine - coarse)
        total += fine
        sum_abs += abs(fine)
        heapq.heappush(heap, (-err, counter, panel, fine, err))
        counter += 1

    for panel, values in zip(panels, _eval_panels(f, panels, n)):
        push(panel, *values)

    def current_error():
        return sum(entry[4] for entry in heap)

    for _ in range(spec.max_refinements + 1):
        err_now = current_error()
        target = spec.tol * max(abs(total), 1e-300)
        if err_now <= target or err_now <= 1e-15 * sum_abs:
            return QuadResult(total, err_now / max(abs(total), 1e-300), n_evals)
        # split every panel holding more than its share of the budget
        budget = target / max(len(heap), 1)
        stale = []
        while heap and heap[0][4] > budget:
            stale.append(heapq.heappop(heap))
        if not stale:
            stale.append(heapq.heappop(heap))
        halves = []
        for _, _, panel, _, _ in stale:
            m = 0.5 * (panel.a + panel.b)
            halves += [_Panel(panel.a, m, panel.lo_exp, 0.0),
                       _Panel(m, panel.b, 0.0, panel.hi_exp)]
        values = _eval_panels(f, halves, n)
        for k, (_, _, _, fine, _) in enumerate(stale):
            total -= fine
            sum_abs -= abs(fine)
            push(halves[2 * k], *values[2 * k])
            push(halves[2 * k + 1], *values[2 * k + 1])

    err_now = current_error()
    if err_now <= spec.tol * max(abs(total), 1e-300) or err_now <= 1e-15 * sum_abs:
        return QuadResult(total, err_now / max(abs(total), 1e-300), n_evals)
    raise ConvergenceError(
        f"quadrature stalled at estimated relative error "
        f"{err_now / max(abs(total), 1e-300):.3e} (target {spec.tol:.1e}) "
        f"after {spec.max_refinements} refinement rounds",
        best=total,
        estimate=err_now,
    )
