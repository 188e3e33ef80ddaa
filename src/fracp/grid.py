"""Geometrically graded radial grids and piecewise-linear radial functions.

Profiles are represented by node values on ``0 = r_0 < r_1 < ... < r_M``
together with a power-law tail ``u(r) = u(r_M) (r / r_M)^{-tail_exponent}``
for ``r > r_M``.  A tail exponent of exactly zero means the constant
extension ``u(r) = u(r_M)``; small positive exponents below the
finite-energy threshold are rejected at operator assembly, not here.

Geometric grading keeps the cell count manageable while resolving both
the origin (where reaction terms are largest) and the far field (where
decay rates are measured).  Cell widths follow ``h_i = h_0 g^i`` with
``h_0`` fixed by the domain radius; refining with ``g -> sqrt(g)`` and
``M -> 2M`` halves the local spacing everywhere, which is what the
residual-convergence checks rely on.  The node nearest r = 1 is moved
onto r = 1, so every grid has a node there: the plateau edge of the
unit capacitary problem and the reference radius of the checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .kernel import unit_ball_volume

__all__ = [
    "GRADING",
    "RadialGrid",
    "RadialFunction",
    "grid_difference",
    "make_radial_grid",
]

_MIN_NODES = 16
_MIN_RADIUS = 8.0
# the growth factor of the cell widths of every configured grid
GRADING = 1.03


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radial nodes plus the tail model carried by every profile on it."""

    nodes: np.ndarray
    tail_exponent: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < _MIN_NODES + 1:
            raise DomainError(
                f"need at least {_MIN_NODES} cells, got {nodes.size - 1}")
        if not np.isfinite(nodes).all():
            raise DomainError("nodes must be finite")
        if nodes[0] != 0.0:
            raise DomainError("the first node must sit at the origin")
        if np.any(np.diff(nodes) <= 0.0):
            raise DomainError("nodes must be strictly increasing")
        if nodes[-1] < _MIN_RADIUS:
            raise DomainError(
                f"truncation radius {nodes[-1]:g} below the minimum "
                f"{_MIN_RADIUS:g}")
        if not np.isfinite(self.tail_exponent) or self.tail_exponent < 0.0:
            raise DomainError("tail exponent must be finite and >= 0")

    @property
    def M(self) -> int:
        return self.nodes.size - 1

    @property
    def R_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def dual_midpoints(self) -> np.ndarray:
        """Cell interface radii r_{i+1/2}, including 0 and R_max."""
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        return np.concatenate(([0.0], mids, [self.R_max]))

    def volume_weights(self, N: int) -> np.ndarray:
        """Dual-cell volumes; they sum exactly to the ball volume."""
        V = unit_ball_volume(N)
        shells = self.dual_midpoints ** N
        return V * np.diff(shells)


def grid_difference(a: RadialGrid, b: RadialGrid) -> str | None:
    """What tells grid ``a`` from grid ``b``, or None when they are one grid.

    The test is exact: the nodes and the tail exponent are compared bit
    for bit.  The text names the node counts, the first node that differs
    with its two values, or the two tail exponents.
    """
    if a.nodes.size != b.nodes.size:
        return f"{a.nodes.size} nodes vs {b.nodes.size}"
    bits = np.uint64
    differ = np.flatnonzero(a.nodes.view(bits) != b.nodes.view(bits))
    if differ.size:
        k = int(differ[0])
        return (f"node {k} differs first: r={float(a.nodes[k])!r} vs "
                f"{float(b.nodes[k])!r}")
    ta, tb = np.float64(a.tail_exponent), np.float64(b.tail_exponent)
    if ta.view(bits) != tb.view(bits):
        return f"tail exponents {float(ta)!r} vs {float(tb)!r}"
    return None


def make_radial_grid(tail_exponent: float, R_max: float = 64.0, M: int = 256,
                     grading: float = GRADING) -> RadialGrid:
    """Geometric grid on [0, R_max] with its node nearest r = 1 moved onto 1."""
    if M < _MIN_NODES:
        raise DomainError(f"M={M}: need at least {_MIN_NODES} cells")
    if R_max < _MIN_RADIUS:
        raise DomainError(f"R_max={R_max:g}: minimum is {_MIN_RADIUS:g}")
    if grading < 1.0:
        raise DomainError("grading must be >= 1")
    if abs(grading - 1.0) < 1e-12:
        h = np.full(M, R_max / M)
    else:
        h0 = R_max * (grading - 1.0) / (grading**M - 1.0)
        h = h0 * grading ** np.arange(M)
    nodes = np.concatenate(([0.0], np.cumsum(h)))
    nodes[-1] = R_max
    k = int(np.argmin(np.abs(nodes - 1.0)))
    nodes[max(1, min(M - 1, k))] = 1.0
    return RadialGrid(nodes=nodes, tail_exponent=float(tail_exponent))


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """Node values on a grid, linear between nodes, power-law beyond."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.nodes.shape:
            raise UsageError(
                f"value array shape {vals.shape} does not match grid "
                f"({self.grid.nodes.shape})")

    @property
    def tail_amplitude(self) -> float:
        """Coefficient A with u(r) = A r^{-tail_exponent} for r > R_max."""
        return float(self.values[-1]) * self.grid.R_max ** self.grid.tail_exponent
