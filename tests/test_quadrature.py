import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from fracp.errors import ConvergenceError, DomainError
from fracp.quadrature import (
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
