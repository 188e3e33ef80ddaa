"""Diagnostics for computed profiles: decay fits, residual checks, bounds.

Everything in this module is read-only with respect to the solver: the
functions take finished ``RadialFunction`` profiles and measure how well
they satisfy the structural predictions (power-law decay between the
capacitary rate ``beta_star`` and the reaction-limited rate ``beta_def``,
smallness of the pairing residual against the exact power profile,
discrete comparison between ordered profiles, and a Harnack-type
infimum-to-mean ratio on concentric balls).

Measured values are always reported, whether or not a check passes, so a
failed run still produces a usable record.  ``VerificationReport``
serializes the whole collection to JSON with full float precision.  The
solution CSV that carries a profile from one CLI step to the next
(:func:`write_solution_csv`, :func:`read_solution_csv`) lives here too,
so reading one back (``fracp plotdata``) does not load the solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .grid import RadialFunction, RadialGrid
from .kernel import power_profile_constant, profile_window, unit_sphere_area
from .operator import KernelMatrix, energy_seminorm, weak_residual, weight_a
from .params import ProblemParams
from .quadrature import QuadratureSpec

__all__ = [
    "DecayFit",
    "CheckRecord",
    "VerificationReport",
    "decay_window",
    "fit_decay",
    "check_decay_sandwich",
    "capacitary_stationarity",
    "check_capacitary",
    "fundamental_residual",
    "comparison_check",
    "harnack_ratio",
    "uniform_bound_check",
    "write_solution_csv",
    "read_solution_csv",
]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power fit u ~ amplitude * r^(-exponent) on a window."""

    exponent: float
    amplitude: float
    window: tuple[float, float]
    rms_residual: float


@dataclass(frozen=True)
class CheckRecord:
    """One named pass/fail measurement destined for a report."""

    name: str
    passed: bool
    measured: float
    target: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "measured": self.measured,
            "target": self.target,
            "tolerance": self.tolerance,
        }


def decay_window(grid: RadialGrid) -> tuple[float, float]:
    """The radial window [R_max/8, R_max/2] on which decay is graded.

    Far enough out that the near-field profile has flattened into its
    asymptotic regime, far enough in that the synthetic tail extension
    plays no role.  Decay fits, the sandwich amplitudes, the log-log
    plot data and the battery's envelope note all read it here.
    """
    R = grid.R_max
    return R / 8.0, R / 2.0


def _window_nodes(u: RadialFunction
                  ) -> tuple[np.ndarray, tuple[float, float]]:
    """Indices of the grid nodes in :func:`decay_window`, edges included,
    together with the window itself."""
    lo, hi = decay_window(u.grid)
    r = u.grid.nodes
    return np.flatnonzero((r >= lo) & (r <= hi)), (lo, hi)


def fit_decay(u: RadialFunction) -> DecayFit:
    """Fit a power law to ``u`` on :func:`decay_window` by log-log regression.

    Ordinary least squares on (log r, log u) over the nodes inside the
    window, of which there must be at least two.  Returns the slope
    magnitude as the decay exponent, so an exact profile ``A r^-b``
    reproduces ``b`` and ``A`` with zero rms residual.  Nonpositive
    values inside the window have no logarithm and raise
    ``DomainError``.
    """
    idx, win = _window_nodes(u)
    if idx.size < 2:
        raise UsageError(
            f"decay fit window ({win[0]:g}, {win[1]:g}) contains "
            f"{idx.size} node(s); need at least 2")
    vals = u.values[idx]
    if np.any(vals <= 0.0):
        bad = idx[int(np.argmin(vals))]
        raise DomainError(
            f"profile is not positive on the fit window (node {bad}, "
            f"r={u.grid.nodes[bad]:g}, value {vals.min():g})")
    x = np.log(u.grid.nodes[idx])
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return DecayFit(exponent=float(abs(slope)),
                    amplitude=float(np.exp(intercept)),
                    window=win, rms_residual=rms)


def check_decay_sandwich(u: RadialFunction,
                         params: ProblemParams) -> list[CheckRecord]:
    """Two-sided decay control on the annulus of :func:`decay_window`.

    Measures the smallest value of ``u * r^beta_star`` (a positive lower
    amplitude means the profile does not fall below the capacitary rate
    on the window) and the largest value of ``u * r^beta_def`` (a finite
    upper amplitude means it does not exceed the reaction-limited rate).
    Both records pass when the respective amplitude is finite and
    strictly positive.  Restriction to a bounded window is deliberate:
    the two rates differ, so no single constant works out to infinity,
    and the synthetic tail extension should not be graded.
    """
    idx, win = _window_nodes(u)
    if idx.size == 0:
        raise UsageError(
            f"decay sandwich window ({win[0]:g}, {win[1]:g}) contains no "
            "grid nodes")
    r = u.grid.nodes[idx]
    vals = u.values[idx]
    lower = float(np.min(vals * r ** params.beta_star))
    upper = float(np.max(vals * r ** params.beta_def))
    records = [
        CheckRecord("decay-lower-amplitude",
                    math.isfinite(lower) and lower > 0.0,
                    lower, 0.0, 0.0),
        CheckRecord("decay-upper-amplitude",
                    math.isfinite(upper) and upper > 0.0,
                    upper, 0.0, 0.0),
    ]
    return records


def capacitary_stationarity(u: RadialFunction, R: float, K: KernelMatrix,
                            params: ProblemParams, tol: float
                            ) -> tuple[np.ndarray, str | None]:
    """Weak residual of a capacitary profile, and a note if it missed.

    The nodes with r <= R are pinned, so their residual is the force of
    the constraint; the solve is stationary when the largest |residual|
    on the free nodes r > R is at most ``tol``.  The note (None when
    stationary) names the miss.
    """
    residual = weak_residual(u, K, params)
    worst = float(np.abs(residual[u.grid.nodes > R]).max())
    if worst <= tol:
        return residual, None
    return residual, (f"capacitary solve R={R:g} missed stationarity on "
                      f"the free nodes: residual {worst:.3e} > tol {tol:g}")


def check_capacitary(u: RadialFunction, R: float, params: ProblemParams,
                     stationary: bool) -> tuple[DecayFit, list[CheckRecord]]:
    """Decay fit and pass/fail records of a unit-plateau capacitary profile.

    ``u`` is pinned to 1 on the ball of radius ``R``.  The records:
    ``capacitary-exponent``, the fitted tail exponent within 5 % of
    beta_star; ``capacitary-plateau``, the scaled profile
    ``u (r/R)^beta_star`` on [2R, R_max/2] at most 1.05 p^(1/(p-1));
    ``capacitary-monotone``, no rise above 1e-8 between neighbor nodes.
    A profile whose solve was not ``stationary`` (see
    :func:`capacitary_stationarity`) fails all three, whatever it
    measures.
    """
    fit = fit_decay(u)
    dev = abs(fit.exponent - params.beta_star) / params.beta_star
    r = u.grid.nodes
    sel = (r >= 2.0 * R) & (r <= u.grid.R_max / 2.0)
    plateau = float((u.values[sel] * (r[sel] / R) ** params.beta_star).max())
    cap = 1.05 * params.p ** (1.0 / (params.p - 1.0))
    rise = float(np.diff(u.values).max())
    return fit, [
        CheckRecord("capacitary-exponent", stationary and dev <= 0.05, dev,
                    0.0, 0.05),
        CheckRecord("capacitary-plateau", stationary and plateau <= cap,
                    plateau, cap, 0.0),
        CheckRecord("capacitary-monotone", stationary and rise <= 1e-8, rise,
                    0.0, 1e-8),
    ]


def _cell_power_integral(a: float, b: float, k: float) -> float:
    """Exact integral of r^k over [a, b] with 0 < a < b, any real k.

    Written through expm1 so the logarithmic case k = -1 and its
    floating-point neighborhood come out to full precision instead of
    cancelling; the same expression is exact for every other k.
    """
    L = math.log(b / a)
    t = (k + 1.0) * L
    f = 1.0 if t == 0.0 else math.expm1(t) / t
    return a ** (k + 1.0) * L * f


def _hat_moment(grid, i: int, e: float) -> float:
    """Integral of the nodal hat at node i against r^e dr, exactly."""
    r = grid.nodes
    out = 0.0
    if i > 0:
        a, b = float(r[i - 1]), float(r[i])
        out += (_cell_power_integral(a, b, e + 1.0)
                - a * _cell_power_integral(a, b, e)) / (b - a)
    if i < r.size - 1:
        a, b = float(r[i]), float(r[i + 1])
        out += (b * _cell_power_integral(a, b, e)
                - _cell_power_integral(a, b, e + 1.0)) / (b - a)
    return out


def fundamental_residual(beta: float, params: ProblemParams,
                         grid, K: KernelMatrix) -> float:
    """Normalized pairing defect of the power profile r^-beta.

    For the exact profile the pairing of the nonlocal energy against each
    nodal hat equals ``C(beta)`` times the exact moment of the hat
    against ``r^(-beta(p-1) - sp)`` in the volume measure; this function
    assembles both sides and returns the worst relative mismatch over the
    nodes with ``2 <= r <= R_max / 2``.  Each node's defect is normalized
    by the gross pairing mass at that node (the sum of the absolute
    values of every pair and tail contribution), which makes the figure
    scale-free; at ``beta = beta_star`` the constant vanishes and the
    figure directly measures discretization quality.  ``C(beta)`` is
    integrated with the default :class:`QuadratureSpec`.

    The grid's tail extension must decay at the same rate ``beta``,
    otherwise the exterior coupling would compare against the wrong
    profile; a mismatch raises ``UsageError``.
    """
    lo, hi = profile_window(params)
    if not (lo < beta < hi):
        raise DomainError(
            f"profile rate beta={beta:g} outside the admissible window "
            f"({lo:g}, {hi:g}) for N={params.N}, s={params.s:g}, "
            f"p={params.p:g}")
    if abs(grid.tail_exponent - beta) > 1e-12 * max(1.0, abs(beta)):
        raise UsageError(
            f"grid tail extension decays like r^-{grid.tail_exponent:g} "
            f"but the tested profile decays like r^-{beta:g}; rebuild "
            "the grid with tail_exponent=beta")

    r = grid.nodes
    vals = np.empty_like(r)
    vals[1:] = r[1:] ** (-beta)
    vals[0] = vals[1]  # the profile blows up at the origin; clamp one node
    v = RadialFunction(grid, vals)
    res = weak_residual(v, K, params)

    C = power_profile_constant(beta, params, QuadratureSpec())
    S = unit_sphere_area(params.N - 1)
    e = params.N - 1.0 - beta * (params.p - 1.0) - params.sp

    U = v.values
    p = K.p
    D = np.abs(U[:, None] - U[None, :]) ** (p - 1.0)
    scale = (K.weights * D).sum(axis=1)
    dt = np.abs(U[:, None] - K.tail_g[None, :] * U[-1]) ** (p - 1.0)
    scale += (K.tail_W * dt).sum(axis=1)

    idx = np.flatnonzero((r >= 2.0) & (r <= grid.R_max / 2.0))
    worst = 0.0
    for i in idx:
        target = C * S * _hat_moment(grid, int(i), e)
        defect = abs(float(res[i]) - target) / float(scale[i])
        worst = max(worst, defect)
    return worst


def _comparison_detail(u: RadialFunction, v: RadialFunction,
                       region: np.ndarray, K: KernelMatrix,
                       params: ProblemParams, residual_tol: float,
                       value_tol: float) -> tuple[bool, int | None]:
    """(hypothesis holds, index of first conclusion violation or None)."""
    if not (K.matches(u.grid) and K.matches(v.grid)):
        raise UsageError(
            "comparison operands live on a different grid than the "
            "kernel matrix")
    mask = np.asarray(region, dtype=bool)
    if mask.shape != u.grid.nodes.shape:
        raise UsageError(
            f"region mask has shape {mask.shape}, expected "
            f"{u.grid.nodes.shape}")
    outside = ~mask
    gap = u.values[outside] - v.values[outside]
    if gap.size and float(gap.max()) > value_tol:
        k = int(np.flatnonzero(outside)[int(np.argmax(gap))])
        raise UsageError(
            f"ordering u <= v fails outside the region at node {k} "
            f"(r={u.grid.nodes[k]:g}, excess {float(gap.max()):.3e}); "
            "the comparison hypothesis needs it there")
    ru = weak_residual(u, K, params)
    rv = weak_residual(v, K, params)
    hyp = bool(np.all(ru[mask] <= rv[mask] + residual_tol))
    excess = u.values[mask] - v.values[mask]
    if excess.size and float(excess.max()) > value_tol:
        k = int(np.flatnonzero(mask)[int(np.argmax(excess))])
        return hyp, k
    return hyp, None


def comparison_check(u: RadialFunction, v: RadialFunction,
                     region, K: KernelMatrix, params: ProblemParams, *,
                     residual_tol: float = 1e-8,
                     value_tol: float = 1e-8) -> bool:
    """Discrete comparison test on a node region.

    Checks the implication behind the weak comparison principle: if the
    pairing residual of ``u`` is at most that of ``v`` on every region
    node (within ``residual_tol``), then ``u`` must not exceed ``v``
    there (within ``value_tol``).  ``region`` is a boolean node mask;
    ``u <= v`` must already hold off the region, which is the boundary
    condition of the principle, and gets a ``UsageError`` otherwise.

    Returns True either when the conclusion holds or when the residual
    hypothesis itself fails (the implication is then vacuous).  With all
    assembled pair weights nonnegative the principle is a theorem at
    matching tolerances, so a genuine False requires ``residual_tol``
    loose relative to ``value_tol``; that asymmetry is exactly what the
    negative regression test exercises.
    """
    hyp, bad = _comparison_detail(u, v, region, K, params,
                                  residual_tol, value_tol)
    if not hyp:
        return True
    return bad is None


def harnack_ratio(u: RadialFunction, R: float,
                  params: ProblemParams) -> float:
    """Infimum over B_{R/4} against the p-mean over B_R minus B_{R/2}.

    Returns the raw quotient inf u / (mean of u^(p-1))^(1/(p-1)); a
    constant profile gives exactly 1 and the ratio is invariant under
    positive scaling.  The annulus mean uses exact shell volumes for the
    nodal dual cells, clipped to the annulus, so no volume mass is lost
    at the annulus edges.  Callers reporting an effective constant cap
    the value at 1.  Needs ``R <= R_max / 2`` so the full annulus is
    covered by real cells rather than the tail extension.
    """
    grid = u.grid
    if not R > 0.0:
        raise UsageError(f"ball radius must be positive, got {R:g}")
    if R > grid.R_max / 2.0:
        raise UsageError(
            f"ball radius R={R:g} exceeds R_max/2 = {grid.R_max / 2.0:g}; "
            "the outer annulus would leave the resolved region")
    if float(u.values.min()) < 0.0:
        raise DomainError(
            "harnack ratio needs a nonnegative profile "
            f"(min value {float(u.values.min()):g})")
    r = grid.nodes
    inner = u.values[r <= R / 4.0]
    m = float(inner.min())

    edges = grid.dual_midpoints
    lo = np.maximum(edges[:-1], R / 2.0)
    hi = np.minimum(edges[1:], R)
    # shell volumes up to the common V_N factor, which cancels in the mean
    width = np.maximum(hi ** params.N - lo ** params.N, 0.0)
    total = float(width.sum())
    pw = params.p - 1.0
    mean = float((width * u.values ** pw).sum()) / total
    if mean <= 0.0:
        return math.inf
    return m / mean ** (1.0 / pw)


def uniform_bound_check(solutions, params: ProblemParams,
                        K: KernelMatrix) -> CheckRecord:
    """Energy flatness along a family of profiles.

    Measures max over the family of energy^(1/p) relative to the median
    and passes while the ratio stays at or below 2.  A single profile
    passes trivially (ratio 1).  This is the desk-scale stand-in for a
    uniform a priori bound: a continuation run whose energies drift past
    twice the median is diverging, not converging.
    """
    sols = list(solutions)
    if not sols:
        raise UsageError("uniform bound check needs at least one profile")
    e = np.array([energy_seminorm(s, K, params) ** (1.0 / params.p)
                  for s in sols])
    med = float(np.median(e))
    top = float(e.max())
    ratio = top / med if med > 0.0 else math.inf
    return CheckRecord("uniform-energy-bound", ratio <= 2.0,
                       ratio, 2.0, 0.0)


@dataclass
class VerificationReport:
    """Accumulates check records and renders them as deterministic JSON."""

    params: ProblemParams
    checks: list[CheckRecord] = field(default_factory=list)
    decay_fits: list[dict] = field(default_factory=list)
    harnack: dict | None = None
    notes: list[str] = field(default_factory=list)

    def add_check(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def add_fit(self, label: str, fit: DecayFit) -> None:
        self.decay_fits.append({
            "label": label,
            "exponent": fit.exponent,
            "amplitude": fit.amplitude,
            "window": [fit.window[0], fit.window[1]],
            "rms_residual": fit.rms_residual,
        })

    def set_harnack(self, sigma_effective: float, R: float) -> None:
        self.harnack = {"sigma_effective": sigma_effective, "R": R}

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        p = self.params
        return {
            "params": {
                "N": p.N, "s": p.s, "p": p.p, "gamma": p.gamma,
                "alpha": p.alpha, "c_a": p.c_a, "r_exp": p.r_exp,
                "beta_star": p.beta_star, "beta_def": p.beta_def,
            },
            "checks": [c.to_dict() for c in self.checks],
            "decay_fits": list(self.decay_fits),
            "harnack": self.harnack,
            "notes": "\n".join(self.notes),
        }

    def to_json(self) -> str:
        # floats serialize through repr, so round-tripping loses nothing
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_json())


def write_solution_csv(u: RadialFunction, params: ProblemParams, path: str,
                       *, rhs: np.ndarray, residual: np.ndarray,
                       converged: bool) -> None:
    """Write a solution profile with its right-hand side and residual.

    The metadata header carries the problem instance, the grid hash and
    the power-tail continuation so a profile file is self-describing.
    """
    grid = u.grid
    if np.shape(rhs) != u.values.shape or np.shape(residual) != u.values.shape:
        raise UsageError("rhs and residual must be nodal arrays matching "
                         "the grid")
    a_nodes = weight_a(grid.nodes, params)
    lines = [
        "# solution: N={} s={!r} p={!r} gamma={!r} alpha={!r} c_a={!r} "
        "r_exp={!r}".format(params.N, params.s, params.p, params.gamma,
                            params.alpha, params.c_a, params.r_exp),
        "# grid_hash={} tail_exponent={!r} tail_amplitude={!r} "
        "converged={}".format(grid.grid_hash, grid.tail_exponent,
                              u.tail_amplitude, bool(converged)),
        "r,u,a,rhs,residual",
    ]
    for vals in zip(grid.nodes.tolist(), u.values.tolist(), a_nodes.tolist(),
                    np.asarray(rhs, dtype=float).tolist(),
                    np.asarray(residual, dtype=float).tolist()):
        lines.append(",".join(repr(v) for v in vals))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_solution_csv(path: str) -> tuple[RadialFunction, dict]:
    """Read a profile written by :func:`write_solution_csv`.

    Returns the radial function together with the parsed metadata
    (instance fields, grid hash, tail data, converged flag).  The node
    set and tail exponent reconstruct the grid; its hash must match the
    stored one, which catches hand-edited or truncated files.
    """
    with open(path, encoding="ascii") as fh:
        first = fh.readline().strip()
        second = fh.readline().strip()
        if not first.startswith("# solution:") or not second.startswith("#"):
            raise UsageError(f"{path}: not a solution table")
        meta: dict = {}
        for token in (first[len("# solution:"):].split()
                      + second[1:].split()):
            key, _, val = token.partition("=")
            meta[key] = val
        columns = fh.readline().strip()
        if columns != "r,u,a,rhs,residual":
            raise UsageError(f"{path}: expected 'r,u,a,rhs,residual' columns")
        rows = [line.split(",") for line in fh if line.strip()]
    r = np.array([float(row[0]) for row in rows])
    u = np.array([float(row[1]) for row in rows])
    grid = RadialGrid(nodes=r, tail_exponent=float(meta["tail_exponent"]))
    if grid.grid_hash != meta.get("grid_hash"):
        raise UsageError(f"{path}: grid hash mismatch; file edited?")
    meta["converged"] = meta.get("converged") == "True"
    return RadialFunction(grid, u), meta
