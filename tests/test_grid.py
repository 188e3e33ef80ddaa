import math

import numpy as np
import pytest

from fracp.errors import DomainError, UsageError
from fracp.grid import (
    RadialFunction,
    RadialGrid,
    grid_difference,
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
    # every grid has a node at r = 1: the one nearest 1 is moved onto it,
    # and no other node moves
    for M, grading in ((16, 1.2), (48, 1.06), (128, 1.03), (256, 1.03),
                       (512, math.sqrt(1.03))):
        g = make_radial_grid(tail_exponent=2.0, M=M, grading=grading)
        k = int(np.flatnonzero(g.nodes == 1.0)[0])
        h0 = 64.0 * (grading - 1.0) / (grading**M - 1.0)
        free = np.concatenate(([0.0],
                               np.cumsum(h0 * grading ** np.arange(M))))
        free[-1] = 64.0
        assert k == int(np.argmin(np.abs(free - 1.0))), M
        np.testing.assert_array_equal(np.delete(g.nodes, k),
                                      np.delete(free, k))


def test_refinement_halves_spacing():
    coarse = make_radial_grid(tail_exponent=2.0, M=256, grading=1.03)
    fine = make_radial_grid(tail_exponent=2.0, M=512, grading=math.sqrt(1.03))
    for r in [0.5, 2.0, 10.0, 50.0]:
        hc = np.interp(r, coarse.nodes[1:], coarse.widths)
        hf = np.interp(r, fine.nodes[1:], fine.widths)
        assert hc / hf == pytest.approx(2.0, rel=0.02)


def test_uniform_grading():
    g = make_radial_grid(tail_exponent=0.0, R_max=16.0, M=16, grading=1.0)
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
        RadialGrid(nodes=np.linspace(1.0, 9.0, 33), tail_exponent=1.0)
    with pytest.raises(DomainError):
        RadialGrid(nodes=np.zeros(33), tail_exponent=1.0)


def test_non_finite_node_refused():
    # a NaN difference is not <= 0 and an infinite last node is above the
    # minimum radius, so neither reaches the ordering or radius checks
    nodes = make_radial_grid(2.0, M=32, R_max=16.0).nodes
    for k, bad in ((5, math.nan), (-1, math.inf)):
        moved = nodes.copy()
        moved[k] = bad
        with pytest.raises(DomainError, match="nodes must be finite"):
            RadialGrid(nodes=moved, tail_exponent=2.0)


def test_volume_weights_telescope():
    g = make_radial_grid(tail_exponent=2.0, M=64, R_max=16.0)
    for N in (3, 4, 5):
        w = g.volume_weights(N)
        ball = math.pi ** (N / 2) / math.gamma(N / 2 + 1) * 16.0**N
        assert w.sum() == pytest.approx(ball, rel=1e-14)
        assert np.all(w > 0)


def test_grid_difference_is_exact():
    # the oracle is the bit pattern of the nodes and the tail exponent: a
    # grid built apart from K's is the same grid, one interior node moved
    # by one ulp or another tail exponent makes another
    g = make_radial_grid(tail_exponent=2.0, M=32, R_max=16.0)
    same = RadialGrid(nodes=g.nodes.copy(), tail_exponent=2.0)
    assert same is not g and grid_difference(same, g) is None
    assert grid_difference(g, g) is None
    nodes = g.nodes.copy()
    nodes[7] = np.nextafter(nodes[7], np.inf)
    assert nodes.tobytes() != g.nodes.tobytes()
    moved = RadialGrid(nodes=nodes, tail_exponent=2.0)
    assert grid_difference(moved, g) == (
        f"node 7 differs first: r={float(nodes[7])!r} vs "
        f"{float(g.nodes[7])!r}")
    other = RadialGrid(nodes=g.nodes.copy(), tail_exponent=1.5)
    assert grid_difference(other, g) == "tail exponents 1.5 vs 2.0"
    coarse = make_radial_grid(tail_exponent=2.0, M=16, R_max=16.0)
    assert grid_difference(coarse, g) == "17 nodes vs 33"


def test_radial_function_shape_guard():
    g = make_radial_grid(tail_exponent=2.0, M=32, R_max=16.0)
    with pytest.raises(UsageError):
        RadialFunction(g, np.zeros(7))
    # the tail is u(r) = A r^-2 beyond R_max with A = u(R_max) R_max^2;
    # a zero tail exponent extends the last value as a constant
    assert RadialFunction(g, g.nodes + 1.0).tail_amplitude == \
        pytest.approx(17.0 * 16.0**2)
    g0 = make_radial_grid(tail_exponent=0.0, M=32, R_max=16.0)
    assert RadialFunction(g0, np.full(33, 3.0)).tail_amplitude == \
        pytest.approx(3.0)
