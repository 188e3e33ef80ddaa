"""Problem data for the singular fractional p-Laplacian model.

The package computes with the prototype problem

    (-Delta_p)^s u = a(x) * (u^{-gamma} + kappa * u^{r})   on R^N,
    u > 0,  u(x) -> 0 as |x| -> infinity,

where ``(-Delta_p)^s`` is the fractional p-Laplacian with kernel
``|x - y|^{-(N + s p)}`` and the weight is the extremal radial instance
``a(x) = c_a * w(x)`` with ``w(x) = 1 / (1 + |x|^{N + alpha})``.

Standing hypotheses
-------------------
All admissibility checks in this module refer to the two named
hypotheses below; error messages cite them by label.

(H_f)  reaction window::

        0 < gamma < 1 < r < p - 1,       N >= 3,  0 < s < 1,  2 <= p < N/s.

       For p = 2 the interval (1, p-1) is empty, so the growth exponent
       ``r`` is optional: ``r_exp=None`` restricts the model to the pure
       singular reaction (kappa = 0 everywhere downstream).

(H_a)  weight window::

        gamma * beta_star < alpha < gamma * beta_star + s*p,

       with ``beta_star = (N - s*p)/(p - 1)`` the borderline decay rate.
       Both endpoints are excluded.

Derived exponents
-----------------
``beta_star``
    The decay rate annihilated by the operator: ``r^{-beta_star}`` is
    operator-harmonic outside a ball, and the profile constant of
    :mod:`fracp.kernel` vanishes exactly there.
``beta_def``
    ``(N + alpha - gamma*beta_star - s*p)/(p - 1)``, the upper decay
    rate produced by the barrier argument.  (H_a) is equivalent to
    ``beta_star < beta_def < N/(p - 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UsageError


@dataclass(frozen=True)
class ProblemParams:
    """All exponents and constants of one problem instance.

    Attributes
    ----------
    N : int
        Space dimension, at least 3.
    s : float
        Differentiability order in (0, 1).
    p : float
        Integrability exponent, 2 <= p < N/s.
    gamma : float
        Singularity strength in (0, 1).
    alpha : float
        Weight decay offset, inside the open (H_a) window.  Passed as
        None, it becomes the midpoint of that window.
    c_a : float
        Weight amplitude, positive.
    r_exp : float or None
        Growth exponent in (1, p-1), or None for the pure singular model.
    """

    N: int
    s: float
    p: float
    gamma: float
    alpha: float
    c_a: float = 1.0
    r_exp: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.N) and int(self.N) == self.N
                and self.N >= 3):
            raise DomainError(f"N={self.N}: need an integer N >= 3, see (H_f)")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"s={self.s}: need 0 < s < 1, see (H_f)")
        if not 2.0 <= self.p < self.N / self.s:
            raise DomainError(
                f"p={self.p}: need 2 <= p < N/s = {self.N / self.s:g}, see (H_f)"
            )
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma={self.gamma}: need 0 < gamma < 1, see (H_f)")
        if self.r_exp is not None and not 1.0 < self.r_exp < self.p - 1.0:
            raise DomainError(
                f"r_exp={self.r_exp}: need 1 < r < p-1 = {self.p - 1.0:g}, "
                "see (H_f); for p = 2 that interval is empty, use r_exp=None"
            )
        if not 0.0 < self.c_a < math.inf:
            raise DomainError(f"c_a={self.c_a}: weight amplitude must be "
                              "positive and finite")
        lo, hi = self.alpha_window
        if self.alpha is None:
            object.__setattr__(self, "alpha", lo + 0.5 * self.sp)
        if not lo < self.alpha < hi:
            raise DomainError(
                f"alpha={self.alpha}: outside the open window "
                f"({lo:g}, {hi:g}) = (gamma*beta_star, gamma*beta_star + s*p), "
                "see (H_a)"
            )

    def check_kappa(self, kappa: float) -> None:
        """Refuse a growth weight that (H_f) does not admit: DomainError
        outside [0, 1], UsageError for kappa > 0 without r_exp."""
        if not 0.0 <= kappa <= 1.0:
            raise DomainError(
                f"kappa={kappa!r}: need 0 <= kappa <= 1, see (H_f)")
        if kappa > 0.0 and self.r_exp is None:
            raise UsageError(
                "kappa > 0 needs params.r_exp: the reaction a(x)(t^-gamma + "
                "kappa t^r) requires 1 < r < p-1, see (H_f)")

    # -- derived exponents -------------------------------------------------

    @property
    def sp(self) -> float:
        return self.s * self.p

    @property
    def beta_star(self) -> float:
        return (self.N - self.sp) / (self.p - 1.0)

    @property
    def beta_def(self) -> float:
        return (self.N + self.alpha - self.gamma * self.beta_star - self.sp) / (
            self.p - 1.0
        )

    @property
    def alpha_window(self) -> tuple[float, float]:
        lo = self.gamma * self.beta_star
        return lo, lo + self.sp

    # -- convenience constructors ------------------------------------------

    @classmethod
    def kernel_only(cls, N: int, s: float, p: float) -> "ProblemParams":
        """Instance for kernel-level work where the reaction is unused.

        gamma is fixed at 1/2, alpha at the midpoint of its (H_a) window,
        and the growth term is disabled.
        """
        return cls(N=N, s=s, p=p, gamma=0.5, alpha=None, c_a=1.0, r_exp=None)
