import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from fracp.errors import ConvergenceError, DomainError
from fracp.quadrature import (
    QuadratureSpec,
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
