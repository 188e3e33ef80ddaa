import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from adaptive_quadrature import integrate_adaptive, panel_value
from fracp.errors import ConvergenceError, DomainError
from fracp.quadrature import (
    QuadResult,
    _graded_rows,
    gauss_jacobi_01,
    gauss_legendre_01,
    graded_points,
    integrate,
)


def test_integrate_refuses_fewer_than_two_nodes():
    with pytest.raises(DomainError, match="at least 2"):
        integrate(np.cos, [0.0, 1.0], 1)


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


def _assert_matches_high_precision_reference(y, W, n, a, b):
    # 40-digit nodes (Newton on P_n from ours) and the closed-form
    # Gauss-Jacobi weights Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1)
    # n! (1 - x^2) P_n'(x)^2), mapped to [0, 1]
    mpmath = pytest.importorskip("mpmath")
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
def test_jacobi_rule_matches_high_precision_reference(n, a, b):
    y, W = gauss_jacobi_01(n, exp_at_1=a, exp_at_0=b)
    _assert_matches_high_precision_reference(y, W, n, a, b)


# the Legendre orders the kernel, the assembly and integrate use
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 16, 18, 20, 24, 48])
def test_legendre_rule_matches_high_precision_reference(n):
    # numpy's leggauss weights sat 1.3e-12 off at n = 48
    y, W = gauss_legendre_01(n)
    _assert_matches_high_precision_reference(y, W, n, 0.0, 0.0)


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
    """Oracle: the scalar offset loop, its points as built."""
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
        return [a] + [b - off for off in reversed(offsets)] + [b]
    return [a] + [a + off for off in offsets] + [b]


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
    # round onto it and are refused); width/scale exactly factor^k, where
    # the last offset lands on the far end
    draws += [(0.0, 2.0, 1e-310, 4.0, False), (1.0, 3.0, 1e-310, 2.0, True),
              (0.0, 1.0, 1.0 / 16.0, 4.0, False),
              (0.0, 1.5 ** 9, 1.0, 1.5, True)]
    refused = 0
    for factor in (1.5, 2.0, 4.0):
        for toward_b in (False, True):
            group = [d for d in draws if d[3] == factor and d[4] == toward_b]
            a, b, scale = (np.array([d[i] for d in group]) for i in range(3))
            rows = _graded_rows(a, b, scale, toward_b=toward_b,
                                factor=factor, max_panels=60)
            for (ak, bk, sk, _, _), row in zip(group, rows.tolist()):
                ref = _graded_points_loop(ak, bk, toward=bk if toward_b else ak,
                                          scale=sk, factor=factor,
                                          max_panels=60)
                # the padding repeats the end away from the grading
                pad = len(row) - len(ref)
                if toward_b:
                    assert row[1:pad + 1] == [ak] * pad
                    got = row[:1] + row[pad + 1:]
                else:
                    assert row[len(ref) - 1:-1] == [bk] * pad
                    got = row[:len(ref) - 1] + row[-1:]
                assert got == ref, (ak, bk, sk, factor, toward_b)
                kwargs = dict(toward=bk if toward_b else ak, scale=sk,
                              factor=factor, max_panels=60)
                if all(q > p for p, q in zip(ref, ref[1:])):
                    assert graded_points(ak, bk, **kwargs) == ref
                else:
                    refused += 1
                    with pytest.raises(DomainError):
                        graded_points(ak, bk, **kwargs)
    assert refused > 0


def test_integrate_smooth():
    res = integrate(np.cos, [0.0, 1.0], 12)
    assert res.value == pytest.approx(math.sin(1.0), rel=1e-13)
    assert res.rel_err < 1e-12


def test_integrate_endpoint_singularities():
    res = integrate(lambda x: x**-0.5, [0.0, 1.0], 16, lo_exponent=-0.5)
    assert res.value == pytest.approx(2.0, rel=1e-11)

    res = integrate(lambda x: (x * (1.0 - x)) ** -0.5, [0.0, 0.3, 1.0], 16,
                    lo_exponent=-0.5, hi_exponent=-0.5)
    assert res.value == pytest.approx(math.pi, rel=1e-11)


def test_integrate_beta_family_seeded():
    # random endpoint exponents against the closed Beta form
    rng = np.random.default_rng(20260819)
    for _ in range(12):
        a = rng.uniform(-0.9, 2.0)
        b = rng.uniform(-0.9, 2.0)
        res = integrate(lambda x: x**b * (1.0 - x) ** a, [0.0, 0.5, 1.0],
                        20, lo_exponent=b, hi_exponent=a)
        assert res.value == pytest.approx(beta_fn(a + 1.0, b + 1.0), rel=5e-10)


def test_integrate_zero_integrand():
    res = integrate(lambda x: np.zeros_like(x), [0.0, 1.0], 8)
    assert res.value == 0.0


def test_integrate_reports_stall_with_best_estimate():
    # a 2- against 4-point rule cannot resolve |sin 40x| on one panel:
    # the rule refuses its value and carries it, with the estimate
    f = lambda x: np.abs(np.sin(40.0 * x))  # noqa: E731
    with pytest.raises(ConvergenceError, match=r"target 1\.0e-09") as err:
        integrate(f, [0.0, 1.0], 2)
    y, w = gauss_legendre_01(4)
    assert err.value.best == float(np.dot(w, f(y)))
    assert err.value.estimate > 1e-9 * abs(err.value.best)


def test_integrate_validates_breakpoints():
    with pytest.raises(DomainError):
        integrate(np.cos, [0.0])
    with pytest.raises(DomainError):
        integrate(np.cos, [0.0, 1.0, 0.5])
    with pytest.raises(DomainError):
        integrate(np.cos, [0.0, 1.0], lo_exponent=-1.0)


# ---------------------------------------------------------------------------
# integrate is one fixed rule
# ---------------------------------------------------------------------------

def _rule_cases():
    cases = [
        (np.cos, [0.0, 1.0], 12, {}),
        (lambda x: x ** -0.5, [0.0, 1.0], 16, {"lo_exponent": -0.5}),
        (lambda x: (x * (1.0 - x)) ** -0.5, [0.0, 0.3, 1.0], 16,
         {"lo_exponent": -0.5, "hi_exponent": -0.5}),
        (lambda x: np.zeros_like(x), [0.0, 1.0], 8, {}),
        (lambda x: 1.0 / (1e-3 + (x - 0.37) ** 2),
         np.linspace(0.0, 1.0, 41), 8, {}),
    ]
    rng = np.random.default_rng(20260819)
    for _ in range(12):
        a = rng.uniform(-0.9, 2.0)
        b = rng.uniform(-0.9, 2.0)
        cases.append((lambda x, a=a, b=b: x ** b * (1.0 - x) ** a,
                      [0.0, 0.5, 1.0], 20,
                      {"lo_exponent": b, "hi_exponent": a}))
    return cases


def test_integrate_is_one_call_of_the_n_and_2n_rules():
    # one call of f on the n- and 2n-point nodes of every panel; the
    # value is the sum of the 2n-point panel values and the estimate the
    # sum of the n-versus-2n differences, each panel priced by its own
    # calls as the adaptive oracle prices it
    for f, pts, n, kw in _rule_cases():
        calls = []

        def counted(x, f=f):
            calls.append(x.size)
            return f(x)

        res = integrate(counted, pts, n, **kw)
        last = len(pts) - 2
        assert calls == [3 * n * (last + 1)]
        assert res.n_evals == 3 * n * (last + 1)
        coarse, fine = [], []
        for k, (a, b) in enumerate(zip(pts, pts[1:])):
            ends = (kw.get("lo_exponent", 0.0) if k == 0 else 0.0,
                    kw.get("hi_exponent", 0.0) if k == last else 0.0)
            coarse.append(panel_value(f, a, b, *ends, n))
            fine.append(panel_value(f, a, b, *ends, 2 * n))
        assert res.value == sum(fine)
        err = sum(abs(x - y) for x, y in zip(fine, coarse))
        assert res.rel_err == err / max(abs(res.value), 1e-300)


def test_adaptive_oracle_refines_to_closed_forms():
    # the tests' oracle must refine for real: one panel at 4 or 8 nodes
    # misses both integrals by more than 1e-2 (the kinks of |sin 40x|
    # never meet a bisection point, so there it converges slowly)
    k = math.floor(40.0 / math.pi)
    want = (2.0 * k + 1.0 - math.cos(40.0 - k * math.pi)) / 40.0
    res = integrate_adaptive(lambda x: np.abs(np.sin(40.0 * x)), [0.0, 1.0],
                             nodes=4, tol=1e-10, max_refinements=20)
    assert res.value == pytest.approx(want, rel=1e-8)
    assert res.n_evals > 100 * 12
    c = math.sqrt(1e-3)
    want = (math.atan(0.63 / c) + math.atan(0.37 / c)) / c
    res = integrate_adaptive(lambda x: 1.0 / (1e-3 + (x - 0.37) ** 2),
                             [0.0, 1.0], nodes=8, tol=1e-10,
                             max_refinements=20)
    assert res.value == pytest.approx(want, rel=1e-10)
    with pytest.raises(ConvergenceError) as err:
        integrate_adaptive(lambda x: np.abs(np.sin(40.0 * x)), [0.0, 1.0],
                           nodes=2, tol=1e-14, max_refinements=0)
    assert err.value.best is not None and err.value.estimate > 0.0
