import heapq
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from fracp.errors import ConvergenceError, DomainError
from fracp.quadrature import (
    QuadResult,
    QuadratureSpec,
    _graded_rows,
    gauss_jacobi_01,
    gauss_legendre_01,
    graded_points,
    integrate,
)


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(nodes=1)
    with pytest.raises(DomainError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_refinements=-1)


def test_legendre_polynomial_exactness():
    x, w = gauss_legendre_01(8)
    # degree 15 is integrated exactly by an 8-point rule
    assert math.isclose(np.sum(w * x**15), 1.0 / 16.0, rel_tol=1e-14)
    assert math.isclose(np.sum(w), 1.0, rel_tol=1e-14)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (-0.5, -0.5), (1.5, -0.9), (0.25, 2.0)])
def test_jacobi_weight_mass(a, b):
    # with f = 1 the absorbed weights must sum to B(a+1, b+1)
    _, W = gauss_jacobi_01(16, exp_at_1=a, exp_at_0=b)
    assert math.isclose(np.sum(W), beta_fn(a + 1.0, b + 1.0), rel_tol=1e-13)


# (n, exponent at 1, exponent at 0): rules the kernel, the assembly and
# the adaptive integrator use, plus a few with exponents near -1 or large
JACOBI_RULES = [(1, 0.3, 0.7), (2, 0.3, 0.7), (8, -0.5, -0.5),
                (16, 0.0, 1.25), (16, 3.7, -0.5), (24, 0.0, -0.4),
                (24, 1.2, 0.0), (24, -0.95, -0.9), (32, 0.0, 0.5),
                (48, 0.0, 0.25), (48, 1.0, 0.0), (64, 0.0, 0.25)]


@pytest.mark.parametrize("n,a,b", JACOBI_RULES)
def test_jacobi_rule_matches_scipy_roots(n, a, b):
    from scipy.special import roots_jacobi

    y, W = gauss_jacobi_01(n, exp_at_1=a, exp_at_0=b)
    x_ref, w_ref = roots_jacobi(n, a, b)
    assert np.abs((2.0 * y - 1.0) - x_ref).max() <= 1e-15
    # roots_jacobi's own weights sit up to 1e-11 off a 40-digit
    # reference on these rules (see the next test), which bounds what
    # this comparison can show
    rel = np.abs(W / (w_ref * 2.0 ** -(a + b + 1.0)) - 1.0)
    assert rel.max() <= 2e-11


@pytest.mark.parametrize("n,a,b", JACOBI_RULES)
def test_jacobi_rule_matches_high_precision_reference(n, a, b):
    # 40-digit nodes (Newton on P_n from ours) and the closed-form
    # Gauss-Jacobi weights Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1)
    # n! (1 - x^2) P_n'(x)^2), mapped to [0, 1]
    mpmath = pytest.importorskip("mpmath")
    y, W = gauss_jacobi_01(n, exp_at_1=a, exp_at_0=b)
    with mpmath.workdps(40):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        half = (n + a_ + b_ + 1) / 2

        def dp(x):
            return half * mpmath.jacobi(n - 1, a_ + 1, b_ + 1, x)

        norm = (mpmath.gamma(n + a_ + 1) * mpmath.gamma(n + b_ + 1)
                / (mpmath.gamma(n + a_ + b_ + 1) * mpmath.factorial(n)))
        y_ref, w_ref = [], []
        for yk in y:
            x = 2 * mpmath.mpf(float(yk)) - 1
            for _ in range(3):
                x -= mpmath.jacobi(n, a_, b_, x) / dp(x)
            y_ref.append(float((x + 1) / 2))
            w_ref.append(float(norm / ((1 - x) * (1 + x) * dp(x) ** 2)))
    assert np.abs(y - np.array(y_ref)).max() <= 2.5e-16
    assert np.abs(W / np.array(w_ref) - 1.0).max() <= 2e-13


@pytest.mark.parametrize("n,a,b", JACOBI_RULES)
def test_jacobi_rule_integrates_beta_moments(n, a, b):
    # an n-point Gauss rule is exact through degree 2n - 1:
    # int_0^1 (1-y)^a y^b y^k dy = B(a + 1, b + k + 1)
    y, W = gauss_jacobi_01(n, exp_at_1=a, exp_at_0=b)
    for k in range(2 * n):
        got = float(np.dot(W, y ** k))
        assert math.isclose(got, beta_fn(a + 1.0, b + k + 1.0),
                            rel_tol=2e-13), k


def test_jacobi_rejects_nonintegrable_exponents():
    with pytest.raises(DomainError):
        gauss_jacobi_01(8, exp_at_1=-1.0)
    with pytest.raises(DomainError):
        gauss_jacobi_01(8, exp_at_0=-1.5)


def test_graded_points_shape():
    pts = graded_points(0.0, 2.0, toward=0.0, scale=1e-6, factor=4.0)
    assert pts[0] == 0.0 and pts[-1] == 2.0
    assert all(q > p for p, q in zip(pts, pts[1:]))
    assert pts[1] == pytest.approx(1e-6)


def test_graded_points_keep_subnormal_scales():
    # panels resolving structure far below 1e-15 must not be collapsed
    pts = graded_points(0.0, 2.0, toward=0.0, scale=1e-24, factor=4.0,
                        max_panels=60)
    assert pts[1] == pytest.approx(1e-24)
    assert len(pts) > 40


def test_graded_points_toward_upper_end():
    pts = graded_points(0.0, 1.0, toward=1.0, scale=1e-8, factor=4.0)
    assert pts[-2] == pytest.approx(1.0 - 1e-8)
    assert all(q > p for p, q in zip(pts, pts[1:]))


def test_graded_points_validation():
    with pytest.raises(DomainError):
        graded_points(1.0, 1.0, toward=1.0, scale=0.1)
    with pytest.raises(DomainError):
        graded_points(0.0, 1.0, toward=0.5, scale=0.1)


def _graded_points_loop(a, b, *, toward, scale, factor=4.0, max_panels=40):
    """Oracle: the scalar offset loop and duplicate collapse."""
    width = b - a
    scale = min(abs(scale), width / factor)
    if scale <= 0.0:
        return [a, b]
    offsets = []
    d = scale
    while d < width and len(offsets) < max_panels:
        offsets.append(d)
        d *= factor
    if toward == b:
        pts = [a] + [b - off for off in reversed(offsets)] + [b]
    else:
        pts = [a] + [a + off for off in offsets] + [b]
    out = [pts[0]]
    for q in pts[1:]:
        if q - out[-1] > 4e-16 * max(abs(q), abs(out[-1])):
            out.append(q)
    if len(out) == 1 or out[-1] != b:
        out.append(b)
    if len(out) >= 3 and out[-1] - out[-2] <= 4e-16 * abs(b):
        del out[-2]
    return out


def test_graded_rows_match_scalar_loop_bitwise():
    rng = np.random.default_rng(20261018)
    draws = []
    for _ in range(240):
        a = float(rng.choice([0.0, rng.uniform(-10.0, 10.0),
                              rng.uniform(0.5, 1.0) * 1e4]))
        b = a + float(10.0 ** rng.uniform(-8.0, 3.0))
        scale = float(10.0 ** rng.uniform(-30.0, 1.0))
        draws.append((a, b, scale, float(rng.choice([1.5, 2.0, 4.0])),
                      bool(rng.integers(2))))
    # subnormal scales at a zero end (kept) and at a nonzero end (they
    # round onto it and collapse); width/scale exactly factor^k, where
    # the last offset lands on the far end
    draws += [(0.0, 2.0, 1e-310, 4.0, False), (1.0, 3.0, 1e-310, 2.0, True),
              (0.0, 1.0, 1.0 / 16.0, 4.0, False),
              (0.0, 1.5 ** 9, 1.0, 1.5, True)]
    for factor in (1.5, 2.0, 4.0):
        for toward_b in (False, True):
            group = [d for d in draws if d[3] == factor and d[4] == toward_b]
            a, b, scale = (np.array([d[i] for d in group]) for i in range(3))
            rows = _graded_rows(a, b, scale, toward_b=toward_b,
                                factor=factor, max_panels=60)
            for (ak, bk, sk, _, _), row in zip(group, rows):
                ref = _graded_points_loop(ak, bk, toward=bk if toward_b else ak,
                                          scale=sk, factor=factor,
                                          max_panels=60)
                got = row[np.diff(row, prepend=-np.inf) > 0.0].tolist()
                assert got == ref, (ak, bk, sk, factor, toward_b)
                assert graded_points(ak, bk, toward=bk if toward_b else ak,
                                     scale=sk, factor=factor,
                                     max_panels=60) == ref


def test_integrate_smooth():
    spec = QuadratureSpec(nodes=12, tol=1e-12)
    res = integrate(np.cos, [0.0, 1.0], spec)
    assert res.value == pytest.approx(math.sin(1.0), rel=1e-13)
    assert res.rel_err < 1e-12


def test_integrate_endpoint_singularities():
    spec = QuadratureSpec(nodes=16, tol=1e-11)

    res = integrate(lambda x: x**-0.5, [0.0, 1.0], spec, lo_exponent=-0.5)
    assert res.value == pytest.approx(2.0, rel=1e-11)

    res = integrate(lambda x: (x * (1.0 - x)) ** -0.5, [0.0, 0.3, 1.0], spec,
                    lo_exponent=-0.5, hi_exponent=-0.5)
    assert res.value == pytest.approx(math.pi, rel=1e-11)


def test_integrate_beta_family_seeded():
    # random endpoint exponents against the closed Beta form
    rng = np.random.default_rng(20260819)
    spec = QuadratureSpec(nodes=20, tol=1e-10)
    for _ in range(12):
        a = rng.uniform(-0.9, 2.0)
        b = rng.uniform(-0.9, 2.0)
        res = integrate(lambda x: x**b * (1.0 - x) ** a, [0.0, 0.5, 1.0],
                        spec, lo_exponent=b, hi_exponent=a)
        assert res.value == pytest.approx(beta_fn(a + 1.0, b + 1.0), rel=5e-10)


def test_integrate_zero_integrand():
    spec = QuadratureSpec(nodes=8, tol=1e-10)
    res = integrate(lambda x: np.zeros_like(x), [0.0, 1.0], spec)
    assert res.value == 0.0


def test_integrate_reports_stall_with_best_estimate():
    spec = QuadratureSpec(nodes=2, tol=1e-14, max_refinements=0)
    with pytest.raises(ConvergenceError) as err:
        integrate(lambda x: np.abs(np.sin(40.0 * x)), [0.0, 1.0], spec)
    assert err.value.best is not None
    assert err.value.estimate > 0.0


def test_integrate_validates_breakpoints():
    spec = QuadratureSpec()
    with pytest.raises(DomainError):
        integrate(np.cos, [0.0], spec)
    with pytest.raises(DomainError):
        integrate(np.cos, [0.0, 1.0, 0.5], spec)
    with pytest.raises(DomainError):
        integrate(np.cos, [0.0, 1.0], spec, lo_exponent=-1.0)


# ---------------------------------------------------------------------------
# integrate against its panel-at-a-time loop
# ---------------------------------------------------------------------------

class _LoopPanel(NamedTuple):
    a: float
    b: float
    lo_exp: float
    hi_exp: float


def _eval_loop_panel(f, panel, n):
    a, b, lo, hi = panel
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


def _integrate_by_panel(f, points, spec, *, lo_exponent=0.0,
                        hi_exponent=0.0):
    """Oracle: adaptive bisection with two calls of f per new panel.

    Returns the QuadResult and the number of refinement rounds, or
    raises ConvergenceError like integrate.
    """
    pts = list(map(float, points))
    n = spec.nodes
    panels = []
    for k, (a, b) in enumerate(zip(pts, pts[1:])):
        lo = lo_exponent if k == 0 else 0.0
        hi = hi_exponent if k == len(pts) - 2 else 0.0
        panels.append(_LoopPanel(a, b, lo, hi))

    n_evals = 0
    heap = []
    total = 0.0
    sum_abs = 0.0
    counter = 0

    def push(panel):
        nonlocal n_evals, total, sum_abs, counter
        coarse = _eval_loop_panel(f, panel, n)
        fine = _eval_loop_panel(f, panel, 2 * n)
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

    rounds = 0
    for _ in range(spec.max_refinements):
        err_now = current_error()
        target = spec.tol * max(abs(total), 1e-300)
        if err_now <= target or err_now <= 1e-15 * sum_abs:
            return (QuadResult(total, err_now / max(abs(total), 1e-300),
                               n_evals), rounds)
        budget = target / max(len(heap), 1)
        stale = []
        while heap and heap[0][4] > budget:
            stale.append(heapq.heappop(heap))
        if not stale:
            stale.append(heapq.heappop(heap))
        rounds += 1
        for _, _, panel, fine, err in stale:
            total -= fine
            sum_abs -= abs(fine)
            m = 0.5 * (panel.a + panel.b)
            push(_LoopPanel(panel.a, m, panel.lo_exp, 0.0))
            push(_LoopPanel(m, panel.b, 0.0, panel.hi_exp))

    err_now = current_error()
    if (err_now <= spec.tol * max(abs(total), 1e-300)
            or err_now <= 1e-15 * sum_abs):
        return (QuadResult(total, err_now / max(abs(total), 1e-300),
                           n_evals), rounds)
    raise ConvergenceError("stalled", best=total, estimate=err_now)


def _integrand_cases():
    cases = [
        (np.cos, [0.0, 1.0], QuadratureSpec(nodes=12, tol=1e-12), {}),
        (lambda x: x ** -0.5, [0.0, 1.0], QuadratureSpec(nodes=16, tol=1e-11),
         {"lo_exponent": -0.5}),
        (lambda x: (x * (1.0 - x)) ** -0.5, [0.0, 0.3, 1.0],
         QuadratureSpec(nodes=16, tol=1e-11),
         {"lo_exponent": -0.5, "hi_exponent": -0.5}),
        (lambda x: np.zeros_like(x), [0.0, 1.0],
         QuadratureSpec(nodes=8, tol=1e-10), {}),
        # many rounds, most of them splitting more than one panel
        (lambda x: np.abs(np.sin(40.0 * x)), [0.0, 1.0],
         QuadratureSpec(nodes=4, tol=1e-10, max_refinements=20), {}),
        (lambda x: 1.0 / (1e-3 + (x - 0.37) ** 2), [0.0, 1.0],
         QuadratureSpec(nodes=8, tol=1e-10, max_refinements=20), {}),
    ]
    rng = np.random.default_rng(20260819)
    for _ in range(12):
        a = rng.uniform(-0.9, 2.0)
        b = rng.uniform(-0.9, 2.0)
        cases.append((lambda x, a=a, b=b: x ** b * (1.0 - x) ** a,
                      [0.0, 0.5, 1.0], QuadratureSpec(nodes=20, tol=1e-10),
                      {"lo_exponent": b, "hi_exponent": a}))
    return cases


def test_integrate_matches_panel_loop_bitwise():
    saw_rounds = set()
    for f, pts, spec, kw in _integrand_cases():
        calls = []

        def counted(x, f=f):
            calls.append(x.size)
            return f(x)

        res = integrate(counted, pts, spec, **kw)
        ref, rounds = _integrate_by_panel(f, pts, spec, **kw)
        assert res.value == ref.value
        assert res.rel_err == ref.rel_err
        assert res.n_evals == ref.n_evals
        # one call for the initial panels, one per refinement round
        assert len(calls) == 1 + rounds
        assert sum(calls) == ref.n_evals
        saw_rounds.add(rounds)
    assert 0 in saw_rounds and max(saw_rounds) >= 3


def test_integrate_stall_matches_panel_loop():
    f = lambda x: np.abs(np.sin(40.0 * x))  # noqa: E731
    spec = QuadratureSpec(nodes=2, tol=1e-14, max_refinements=0)
    with pytest.raises(ConvergenceError) as ref:
        _integrate_by_panel(f, [0.0, 1.0], spec)
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    with pytest.raises(ConvergenceError) as err:
        integrate(counted, [0.0, 1.0], spec)
    assert err.value.best == ref.value.best
    assert err.value.estimate == ref.value.estimate
    # max_refinements = 0 allows no bisection round: the initial panel's
    # call is the only one
    assert len(calls) == 1
