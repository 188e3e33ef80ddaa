"""A manufactured exact solution of the pure-singular problem at p = 2.

Choose the solution first, w = (1 + r^2)^{-sigma}, and then the weight
that makes it one: with a := L_2 w * w^gamma the reaction a w^{-gamma}
equals L_2 w, so w solves (-Delta)^s u = a u^{-gamma} exactly (Roache,
J. Fluids Eng. 124 (2002)).  The case is P2 (N = 3, s = 0.5, p = 2,
gamma = 0.5, alpha = 1.5) with sigma = beta_star / 2 = 1, so w decays at
the capacitary rate that every grid's power tail carries.  L_2 w is
:func:`strong_form.p2_closed_form` (Dyda 2012), nothing of the package.

The weight enters the truncated problem at kappa = 0 through its private
nodal weight ``_a`` and tail weights ``_wT``; there is no production
parameter for it, since the weight has one production value.  The floor
1e-12 w sits far below every iterate, so the problem is the pure-singular
one.  The grids are the nested family r_i = c expm1((i/M) log1p(R/c)):
doubling M keeps every node of the coarser grid.
"""

import numpy as np

from fracp import solver as sv
from fracp.grid import RadialFunction, RadialGrid
from fracp.kernel import unit_sphere_area
from fracp.params import ProblemParams
from fracp.quadrature import gauss_jacobi_01

from strong_form import p2_closed_form

P2 = ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5)
SIGMA = P2.beta_star / 2.0
# the nested family's scale and truncation radius
C_NESTED = 0.042365
R_NESTED = 64.0


def w(r):
    return (1.0 + r * r) ** -SIGMA


def a(r):
    """The manufactured weight L_2 w * w^gamma."""
    return p2_closed_form(r, P2.s, SIGMA) * w(r) ** P2.gamma


def nested_grid(M: int) -> RadialGrid:
    i = np.arange(M + 1)
    nodes = C_NESTED * np.expm1(i / M * np.log1p(R_NESTED / C_NESTED))
    nodes[-1] = R_NESTED
    return RadialGrid(nodes=nodes, tail_exponent=P2.beta_star)


def problem(grid: RadialGrid, K) -> sv.TruncatedProblem:
    """The kappa = 0 truncated problem on ``grid`` whose exact solution
    is w: the weight is a at the nodes and at the 32 exterior points
    xi_j of the reaction's tail rule, S R^N w_j a(R/xi_j) xi_j^{-N-alpha}
    with w_j the rule's Jacobi weights (xi^{alpha-1} is in the rule)."""
    N, alpha, R = P2.N, P2.alpha, grid.R_max
    floor = RadialFunction(grid, 1e-12 * w(grid.nodes))
    prob = sv.TruncatedProblem(P2, grid, K, floor, 0.0)
    prob._a = a(grid.nodes)
    xi, wj = gauss_jacobi_01(sv._TAIL_RULE_NODES, 0.0, alpha - 1.0)
    prob._wT = (unit_sphere_area(N - 1) * R ** N * wj * a(R / xi)
                * xi ** (-N - alpha))
    return prob


def sup_error(grid: RadialGrid, K, tol: float = 1e-10, r_max: float = 16.0):
    """sup |u - w| over the nodes r <= r_max, u solved from w at ``tol``,
    with the solve's report."""
    nodes = grid.nodes
    pt, rep = sv._minimize(problem(grid, K), w(nodes), tol)
    inner = nodes <= r_max
    return float(np.abs(pt.vals - w(nodes))[inner].max()), rep
