"""The solver against an exact solution (tests/manufactured.py).

Every other oracle pins the operator, the kernel or a primitive; this one
pins a solution.  At p = 2 the weight a = L_2 w * w^gamma makes
w = (1 + r^2)^{-1} the exact solution of the pure-singular problem, and
the discrete solution on the nested grids must approach it at first
order, the order the dual-cell load of the reaction allows at the
origin.  The bounds are about 1.25 times the errors measured at
M = 128, 256 and 512 (2.204e-3, 1.155e-3, 5.884e-4).  A kernel matrix
scaled by 1.01 or 0.99 moves the solution by several times as much
(7e-3 to 9e-3), so the bounds see a wrong operator constant.
"""

import math

import pytest

from fracp.operator import assemble

import manufactured as mf
from test_analysis import _scaled

BOUNDS = {128: 2.75e-3, 256: 1.45e-3, 512: 7.4e-4}


@pytest.fixture(scope="module")
def instances():
    out = {}
    for M in BOUNDS:
        grid = mf.nested_grid(M)
        out[M] = grid, assemble(grid, mf.P2)
    return out


@pytest.fixture(scope="module")
def errors(instances):
    out = {}
    for M, (grid, K) in instances.items():
        err, rep = mf.sup_error(grid, K)
        assert rep.converged, f"M={M}: {rep}"
        out[M] = err
    return out


@pytest.mark.parametrize("M", sorted(BOUNDS))
def test_error_against_the_exact_solution(errors, M):
    assert errors[M] <= BOUNDS[M]


def test_observed_order(errors):
    ms = sorted(errors)
    for coarse, fine in zip(ms, ms[1:]):
        order = math.log2(errors[coarse] / errors[fine])
        assert order >= 0.8, f"M={coarse}->{fine}: order {order:.3f}"


@pytest.mark.parametrize("factor", [1.01, 0.99])
@pytest.mark.parametrize("M", [128, 256])
def test_a_scaled_operator_misses_the_bound(instances, M, factor):
    grid, K = instances[M]
    err, rep = mf.sup_error(grid, _scaled(K, factor))
    assert rep.converged
    assert err > BOUNDS[M], f"K x {factor} stays within the bound: {err}"
