import math

import numpy as np
import pytest

from fracp.errors import DomainError, UsageError
from fracp.grid import (
    RadialFunction,
    RadialGrid,
    make_radial_grid,
)


def test_make_default():
    g = make_radial_grid(tail_exponent=2.0)
    assert g.M == 256
    assert g.nodes[0] == 0.0
    assert g.R_max == 64.0
    assert np.all(np.diff(g.nodes) > 0)
    # geometric widths
    h = g.widths
    ratios = h[1:] / h[:-1]
    interior = ratios[(ratios > 1.0001)]  # anchor snapping perturbs a few
    assert np.median(interior) == pytest.approx(1.03, rel=1e-6)


def test_anchor_snapping():
    g = make_radial_grid(tail_exponent=2.0, anchors=(1.0, 4.0))
    assert 1.0 in g.nodes
    assert 4.0 in g.nodes
    assert g.index_of(1.0) == int(np.where(g.nodes == 1.0)[0][0])
    with pytest.raises(UsageError):
        g.index_of(3.97)


def test_refinement_halves_spacing():
    coarse = make_radial_grid(tail_exponent=2.0, M=256, grading=1.03)
    fine = make_radial_grid(tail_exponent=2.0, M=512, grading=math.sqrt(1.03))
    for r in [0.5, 2.0, 10.0, 50.0]:
        hc = np.interp(r, coarse.nodes[1:], coarse.widths)
        hf = np.interp(r, fine.nodes[1:], fine.widths)
        assert hc / hf == pytest.approx(2.0, rel=0.02)


def test_uniform_grading():
    g = make_radial_grid(tail_exponent=0.0, R_max=16.0, M=16, grading=1.0,
                         anchors=())
    np.testing.assert_allclose(g.widths, 1.0, rtol=1e-14)


def test_invariants():
    with pytest.raises(DomainError):
        make_radial_grid(tail_exponent=2.0, M=8)
    with pytest.raises(DomainError):
        make_radial_grid(tail_exponent=2.0, R_max=4.0)
    with pytest.raises(DomainError):
        make_radial_grid(tail_exponent=-1.0)
    with pytest.raises(DomainError):
        make_radial_grid(tail_exponent=2.0, grading=0.9)
    with pytest.raises(DomainError):
        make_radial_grid(tail_exponent=2.0, anchors=(100.0,))
    with pytest.raises(DomainError):
        RadialGrid(nodes=np.linspace(1.0, 9.0, 33), tail_exponent=1.0)
    with pytest.raises(DomainError):
        RadialGrid(nodes=np.zeros(33), tail_exponent=1.0)


def test_volume_weights_telescope():
    g = make_radial_grid(tail_exponent=2.0, M=64, R_max=16.0)
    for N in (3, 4, 5):
        w = g.volume_weights(N)
        ball = math.pi ** (N / 2) / math.gamma(N / 2 + 1) * 16.0**N
        assert w.sum() == pytest.approx(ball, rel=1e-14)
        assert np.all(w > 0)


def test_grid_hash_sensitivity():
    g1 = make_radial_grid(tail_exponent=2.0, M=32, R_max=16.0)
    g2 = make_radial_grid(tail_exponent=2.0, M=32, R_max=16.0)
    g3 = make_radial_grid(tail_exponent=1.5, M=32, R_max=16.0)
    assert g1.grid_hash == g2.grid_hash
    assert g1.grid_hash != g3.grid_hash
    assert len(g1.grid_hash) == 16


def test_radial_function_eval_and_tail():
    g = make_radial_grid(tail_exponent=2.0, M=32, R_max=16.0)
    u = RadialFunction(g, g.nodes + 1.0)
    # exact at nodes, linear between
    assert u(float(g.nodes[5])) == pytest.approx(g.nodes[5] + 1.0)
    mid = 0.5 * (g.nodes[3] + g.nodes[4])
    assert u(float(mid)) == pytest.approx(mid + 1.0, rel=1e-14)
    # power-law beyond R_max
    assert u(32.0) == pytest.approx(17.0 * (32.0 / 16.0) ** -2.0)
    assert u.tail_amplitude == pytest.approx(17.0 * 16.0**2)


def test_radial_function_constant_tail():
    g = make_radial_grid(tail_exponent=0.0, M=32, R_max=16.0)
    u = RadialFunction(g, np.full(33, 3.0))
    assert u(100.0) == pytest.approx(3.0)
    assert u.tail_amplitude == pytest.approx(3.0)


def test_radial_function_shape_guard():
    g = make_radial_grid(tail_exponent=2.0, M=32, R_max=16.0)
    with pytest.raises(UsageError):
        RadialFunction(g, np.zeros(7))
