"""Flat key=value run configuration.

One experiment is described by a small plain-text file of dotted keys,

    params.N = 3
    params.s = 0.5
    params.p = 2.5
    params.gamma = 0.5
    params.r_exp = 1.2
    grid.nodes = 256

chosen over a nested document format so config diffs stay line-per-field.
``parse_config`` validates everything up front: unknown keys are
rejected, and missing required keys are reported with the defaults
that would have applied.  The model's rules (alpha's default, kappa, the
(H_f) and (H_a) windows) are :class:`~fracp.params.ProblemParams`' and
the grid's bounds :mod:`fracp.grid`'s; either refusal surfaces here as
a ConfigError citing its rule, e.g. alpha outside its (H_a) window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError, UsageError
from .grid import RadialGrid, make_radial_grid
from .params import ProblemParams
from .quadrature import NODES

__all__ = ["GridSettings", "SolverSettings", "RunConfig",
           "parse_config", "read_config"]


@dataclass(frozen=True)
class GridSettings:
    r_max: float
    nodes: int


@dataclass(frozen=True)
class SolverSettings:
    tol: float
    schedule_max_n: int


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline invocation needs, fully validated."""

    params: ProblemParams
    grid: GridSettings
    quad: int
    solver: SolverSettings
    kappa: float
    output_dir: str
    seed: int

    def build_grid(self) -> RadialGrid:
        """The one grid of this run, with the tail decaying at beta_star."""
        return make_radial_grid(tail_exponent=self.params.beta_star,
                                R_max=self.grid.r_max, M=self.grid.nodes)

    def schedule(self) -> list[int]:
        # imported here: only a run that solves asks for its schedule,
        # and the solver loads the dense Cholesky factorization
        from .solver import doubling_schedule
        return doubling_schedule(self.solver.schedule_max_n)


def _parse_float(text: str) -> float:
    # nan and inf parse as floats but slip through every range check
    # below, since a comparison with nan is always False
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text} is not a finite number")
    return v


def _parse_int(text: str) -> int:
    v = _parse_float(text)
    if v != int(v):
        raise ValueError(f"{text} is not an integer")
    return int(v)


def _parse_optional_float(text: str):
    if text.lower() in ("none", ""):
        return None
    return _parse_float(text)


def _parse_str(text: str) -> str:
    return text


# key -> (parser, default); _REQUIRED marks keys with no usable default
_REQUIRED = object()
_KEYS = {
    "params.N": (_parse_int, _REQUIRED),
    "params.s": (_parse_float, _REQUIRED),
    "params.p": (_parse_float, _REQUIRED),
    "params.gamma": (_parse_float, _REQUIRED),
    "params.alpha": (_parse_optional_float, None),
    "params.c_a": (_parse_float, 1.0),
    "params.r_exp": (_parse_optional_float, None),
    "kappa": (_parse_float, 0.0),
    "grid.r_max": (_parse_float, 64.0),
    "grid.nodes": (_parse_int, 256),
    "quad.nodes": (_parse_int, NODES),
    "solver.tol": (_parse_float, 1e-8),
    "solver.schedule_max_n": (_parse_int, 128),
    "output_dir": (_parse_str, "out"),
    "seed": (_parse_int, 20240817),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key=value configuration."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser, _ = _KEYS[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key} = {val!r}: {exc}")

    missing = [k for k, (_, d) in _KEYS.items()
               if d is _REQUIRED and k not in values]
    if missing:
        defaulted = [f"{k}={d!r}" for k, (_, d) in _KEYS.items()
                     if d is not _REQUIRED and k not in values]
        raise ConfigError(
            "missing required key(s): " + ", ".join(missing)
            + "; defaults would cover: " + ", ".join(defaulted))
    for k, (_, d) in _KEYS.items():
        values.setdefault(k, d)

    try:
        params = ProblemParams(N=values["params.N"], s=values["params.s"],
                               p=values["params.p"],
                               gamma=values["params.gamma"],
                               alpha=values["params.alpha"],
                               c_a=values["params.c_a"],
                               r_exp=values["params.r_exp"])
    except DomainError as exc:
        raise ConfigError(f"params: {exc}")
    kappa = values["kappa"]
    try:
        params.check_kappa(kappa)
    except (DomainError, UsageError) as exc:
        raise ConfigError(str(exc)) from None

    quad = values["quad.nodes"]
    if quad < 4:
        raise ConfigError(f"quad.nodes={quad!r}: too few")

    ss = SolverSettings(tol=values["solver.tol"],
                        schedule_max_n=values["solver.schedule_max_n"])
    if ss.tol <= 0.0:
        raise ConfigError(f"solver.tol={ss.tol!r}: must be > 0")
    if ss.schedule_max_n < 1:
        raise ConfigError(
            f"solver.schedule_max_n={ss.schedule_max_n!r}: must be >= 1")

    if values["seed"] < 0:
        raise ConfigError(f"seed={values['seed']!r}: must be >= 0")
    cfg = RunConfig(params=params,
                    grid=GridSettings(r_max=values["grid.r_max"],
                                      nodes=values["grid.nodes"]),
                    quad=quad, solver=ss, kappa=kappa,
                    output_dir=values["output_dir"], seed=values["seed"])
    try:
        cfg.build_grid()
    except DomainError as exc:
        raise ConfigError(f"grid: {exc}") from None
    return cfg


def read_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text)
