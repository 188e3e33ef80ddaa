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
residual-convergence checks rely on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .kernel import unit_ball_volume

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "make_radial_grid",
]

_MIN_NODES = 16
_MIN_RADIUS = 8.0


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radial nodes plus the tail model carried by every profile on it."""

    nodes: np.ndarray
    tail_exponent: float
    grading: float = 1.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < _MIN_NODES + 1:
            raise DomainError(
                f"need at least {_MIN_NODES} cells, got {nodes.size - 1}")
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

    def index_of(self, r: float, tol: float = 1e-9) -> int:
        """Index of the node at radius ``r``, or UsageError if absent."""
        k = int(np.argmin(np.abs(self.nodes - r)))
        if abs(self.nodes[k] - r) > tol * max(r, 1.0):
            raise UsageError(
                f"no grid node at r={r:g}; regenerate the grid with an "
                f"anchor there (nearest node: {self.nodes[k]:g})")
        return k

    @property
    def grid_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.nodes.tobytes())
        h.update(np.float64(self.tail_exponent).tobytes())
        return h.hexdigest()[:16]


def make_radial_grid(tail_exponent: float, R_max: float = 64.0, M: int = 256,
                     grading: float = 1.03,
                     anchors: tuple[float, ...] = (1.0,)) -> RadialGrid:
    """Geometric grid on [0, R_max] with nodes snapped onto ``anchors``.

    Snapping moves the nearest node onto each anchor so that checks
    evaluated "at r = 1" (or at a capacitary radius) hit an exact node.
    """
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
    for anchor in anchors:
        if not 0.0 < anchor < R_max:
            raise DomainError(f"anchor {anchor:g} outside (0, R_max)")
        k = int(np.argmin(np.abs(nodes - anchor)))
        k = max(1, min(M - 1, k))
        nodes[k] = anchor
    return RadialGrid(nodes=nodes, tail_exponent=float(tail_exponent),
                      grading=float(grading))


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

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.interp(r, self.grid.nodes, self.values)
        beyond = r > self.grid.R_max
        if np.any(beyond):
            ratio = np.asarray(r, dtype=float)[beyond] / self.grid.R_max
            out = np.array(out, copy=True)
            out[beyond] = self.values[-1] * ratio ** -self.grid.tail_exponent
        return out if out.ndim else float(out)
