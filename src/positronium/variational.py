"""Variational upper bound for the ring pair with a hydrogenic trial state.

The trial family is the 1s-type orbital psi_a(q) = exp(-q/a)/sqrt(pi a^3)
in the relative coordinate.  With the relativistic kinetic operator
2*sqrt(1 - Laplacian) (momentum space) and the ring-ring interaction U_R
(position space), both expectation values reduce to one-dimensional
integrals:

    <T>(a)    = (64/pi) int_0^inf x^2 sqrt(1 + x^2/a^2) / (1+x^2)^4 dx
    <U_R>(a)  = 4 int_0^inf s^2 U_R(a s) exp(-2 s) ds

(the x integral is the momentum integral with x = 2 pi a k; the norm
(32/pi) int x^2/(1+x^2)^4 dx is exactly 1).  E(a) = <T> + <U_R> is a
rigorous upper bound on the ground state for every a, so its minimum over
a is the best bound the family affords.

Two regimes matter: a near the Bohr radius 2/alpha reproduces the weakly
bound Coulombic state (E = 2 - alpha^2/4 + O(alpha^4)), and a near the
ring scale ~1.6e-5 probes the tightly bound state whose existence the ring
regularization is responsible for.  E(a) near the tight minimum is
violently sensitive to R (dE/dR ~ 1e10), which makes the minimum VALUE a
poor reproduction target at limited input precision even though the
minimum LOCATION is robust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import PhysicalConfig, RingParams, ring_pair_energy_ML
from .optimize import OptimizeError, find_local_minima
from .quadrature import Integral, integrate_semi_infinite

__all__ = [
    "TrialScale",
    "VariationalResult",
    "kinetic_expectation",
    "potential_expectation",
    "energy_expectation",
    "minimize_over_a",
]

_REL_TOL = 1e-12


@dataclass(frozen=True)
class TrialScale:
    """Length scale a of the hydrogenic trial orbital exp(-q/a)."""

    a: float

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise ValueError(f"trial scale a must be positive; got {self.a!r}")


@dataclass(frozen=True)
class VariationalResult:
    """One local minimum of the variational energy over the trial scale."""

    a_star: float
    kinetic: float
    potential: float
    energy: float
    R: float


def _scale(a: TrialScale | float) -> float:
    value = a.a if isinstance(a, TrialScale) else float(a)
    if not value > 0.0:
        raise ValueError(f"trial scale a must be positive; got {a!r}")
    return value


def kinetic_expectation(a: TrialScale | float) -> float:
    """<2 sqrt(1 - Laplacian)> in the trial state of scale a.

    Monotone decreasing in a, from 16/(3 pi a) at small a (ultra-
    relativistic) to 2 + 1/a^2 - 5/(4 a^4) + ... at large a.
    """
    av = _scale(a)

    def kernel(x: float) -> float:
        u = x / av
        w = 1.0 + x * x
        return x * x * math.sqrt(1.0 + u * u) / (w * w * w * w)

    value = integrate_semi_infinite(Integral(kernel, 0.0, math.inf, _REL_TOL, 0.0)).value
    return 64.0 / math.pi * value


def potential_expectation(
    a: TrialScale | float, R: float, cfg: PhysicalConfig | None = None
) -> float:
    """<U_R> in the trial state of scale a; tends to -alpha/a for a >> R."""
    av = _scale(a)
    cfg = cfg or PhysicalConfig()
    params = RingParams(R)

    def kernel(s: float) -> float:
        return s * s * ring_pair_energy_ML(params, cfg, av * s) * math.exp(-2.0 * s)

    value = integrate_semi_infinite(Integral(kernel, 0.0, math.inf, _REL_TOL, 0.0)).value
    return 4.0 * value


def energy_expectation(
    a: TrialScale | float, R: float, cfg: PhysicalConfig | None = None
) -> float:
    """Upper bound E(a) = <T>(a) + <U_R>(a) on the pair ground state."""
    return kinetic_expectation(a) + potential_expectation(a, R, cfg)


def minimize_over_a(
    R: float,
    a_min: float,
    a_max: float,
    cfg: PhysicalConfig | None = None,
    points_per_decade: int = 40,
) -> list[VariationalResult]:
    """All local minima of E(a) for a in (a_min, a_max), best bound first.

    Logarithmic scan plus parabolic refinement, same discipline as the
    potential-curve minimizers: the tight and Coulombic minima are nine
    decades apart, so linear scanning is useless.  Raises OptimizeError
    when the window contains no interior minimum.
    """
    if not (0.0 < a_min < a_max):
        raise ValueError(f"need 0 < a_min < a_max; got ({a_min!r}, {a_max!r})")
    cfg = cfg or PhysicalConfig()

    def f(a: float) -> float:
        return energy_expectation(a, R, cfg)

    points = find_local_minima(f, a_min, a_max, points_per_decade=points_per_decade)
    if not points:
        raise OptimizeError(
            f"no variational minimum for a in ({a_min:g}, {a_max:g}) at R={R!r}"
        )
    results = []
    for p in points:
        kin = kinetic_expectation(p.r_star)
        pot = potential_expectation(p.r_star, R, cfg)
        results.append(
            VariationalResult(
                a_star=p.r_star,
                kinetic=kin,
                potential=pot,
                energy=kin + pot,
                R=R,
            )
        )
    return sorted(results, key=lambda v: v.energy)
