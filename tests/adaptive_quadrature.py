"""Adaptive bisection quadrature: the tests' oracle for fixed rules.

The package integrates with fixed composite rules
(:func:`fracp.quadrature.integrate`).  The oracles of the tests refine
instead: every panel is priced at n and 2n Gauss points, and the panels
whose n-versus-2n difference exceeds their share of the error budget are
bisected, round after round, until the summed difference meets ``tol``
relative to the value (or 1e-15 relative to the summed panel
magnitudes).  Each panel is evaluated by its own calls of ``f``, so the
oracle shares the Gauss and Gauss-Jacobi rules with the package but no
code path of its integrator.
"""

import heapq
from typing import NamedTuple

import numpy as np

from fracp.errors import ConvergenceError
from fracp.quadrature import (QuadResult, gauss_jacobi_01, gauss_legendre_01,
                              graded_points)

# breakpoints of (0, 1) for the integrals against the angular factor
# (powers of rho at 0, the kernel's edge at 1): panels halving toward
# both ends, down to 1e-60 and to 1e-12 wide, so the bisection starts
# from a mesh of its own and not from the package's.  The depth at 0 is
# for small sp near beta_star, where rho^e1 with e1 near 0 still holds
# 1e-5 of C(beta) below rho = 1e-30: from there the bisection stalls
UNIT_POINTS = (graded_points(0.0, 0.5, toward=0.0, scale=1e-60, factor=2.0,
                             max_panels=250)
               + graded_points(0.5, 1.0, toward=1.0, scale=1e-12, factor=2.0,
                               max_panels=60)[1:])


class _Panel(NamedTuple):
    a: float
    b: float
    lo_exp: float
    hi_exp: float


def panel_value(f, a, b, lo, hi, n):
    """The n-point Gauss value of ``f`` on [a, b], the endpoint powers
    ``(x - a)^lo`` and ``(b - x)^hi`` absorbed by a Gauss-Jacobi rule."""
    h = b - a
    if lo == 0.0 and hi == 0.0:
        y, w = gauss_legendre_01(n)
        x = a + h * y
        wf = h * w
    else:
        y, w = gauss_jacobi_01(n, exp_at_1=hi, exp_at_0=lo)
        x = a + h * y
        wf = w * h ** (lo + hi + 1.0)
        if lo != 0.0:
            wf = wf * (x - a) ** (-lo)
        if hi != 0.0:
            wf = wf * (b - x) ** (-hi)
    fx = np.asarray(f(x), dtype=float)
    return float(np.dot(wf, fx))


def integrate_adaptive(f, points, *, nodes=24, tol=1e-9, max_refinements=12,
                       lo_exponent=0.0, hi_exponent=0.0):
    """Integrate ``f`` over the panels of ``points`` by adaptive bisection.

    ``lo_exponent`` and ``hi_exponent`` declare the power behavior at the
    extreme ends, absorbed by Gauss-Jacobi rules on the end panels (and
    kept by their halves).  Returns a QuadResult whose ``n_evals`` counts
    3 ``nodes`` per panel priced; raises ConvergenceError with the best
    value and the error estimate when ``tol`` is missed after
    ``max_refinements`` rounds.
    """
    pts = list(map(float, points))
    n = nodes
    panels = []
    for k, (a, b) in enumerate(zip(pts, pts[1:])):
        lo = lo_exponent if k == 0 else 0.0
        hi = hi_exponent if k == len(pts) - 2 else 0.0
        panels.append(_Panel(a, b, lo, hi))

    n_evals = 0
    heap = []
    total = 0.0
    sum_abs = 0.0
    counter = 0

    def push(panel):
        nonlocal n_evals, total, sum_abs, counter
        coarse = panel_value(f, *panel, n)
        fine = panel_value(f, *panel, 2 * n)
        n_evals += 3 * n
        err = abs(fine - coarse)
        total += fine
        sum_abs += abs(fine)
        heapq.heappush(heap, (-err, counter, panel, fine, err))
        counter += 1

    for panel in panels:
        push(panel)

    def current_error():
        return sum(entry[4] for entry in heap)

    for _ in range(max_refinements):
        err_now = current_error()
        target = tol * max(abs(total), 1e-300)
        if err_now <= target or err_now <= 1e-15 * sum_abs:
            return QuadResult(total, err_now / max(abs(total), 1e-300),
                              n_evals)
        # split every panel holding more than its share of the budget
        budget = target / max(len(heap), 1)
        stale = []
        while heap and heap[0][4] > budget:
            stale.append(heapq.heappop(heap))
        if not stale:
            stale.append(heapq.heappop(heap))
        for _, _, panel, fine, _ in stale:
            total -= fine
            sum_abs -= abs(fine)
            m = 0.5 * (panel.a + panel.b)
            push(_Panel(panel.a, m, panel.lo_exp, 0.0))
            push(_Panel(m, panel.b, 0.0, panel.hi_exp))

    err_now = current_error()
    if err_now <= tol * max(abs(total), 1e-300) or err_now <= 1e-15 * sum_abs:
        return QuadResult(total, err_now / max(abs(total), 1e-300), n_evals)
    raise ConvergenceError(
        f"adaptive quadrature stalled at estimated relative error "
        f"{err_now / max(abs(total), 1e-300):.3e} (target {tol:.1e})",
        best=total, estimate=err_now)
