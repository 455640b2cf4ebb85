"""Flux quantization constraint for the Bopp-regulated ring model.

With regulated fields the magnetic flux through a ring is finite, and pinning
it to one flux quantum ties the ring radius R to the regulator scale kappa:

    R = (alpha^2 / 2 pi) * G(kappa * R),
    G(u) = int_0^pi cos(2 phi) (1 - exp(-2 u sin phi)) / sin phi dphi.

In u = kappa R the constraint is explicit: R(u) = (alpha^2/2pi) G(u) and
kappa(u) = u / R(u).  G(u) ~ 4u^2/3 for small u and ~ 2 ln u for large u,
so kappa(u) has one minimum, kappa_min (~1.54e5 for the default alpha),
at u_min ~ 2.0811 for every alpha.  Below kappa_min the constraint has NO
solution; above it there are two radii, one each side of u_min.  This
module works on the outer branch (u > u_min, the larger radius), where
kappa(u) is monotone and the reference kappa ~ 1.8e5, R ~ 2.57e-5 sits.

G is the Bopp pair's cos(2 phi) integral at r = 0 (see
models._bltp_integrals), on the same cached GK15 panel tables; it holds
1e-15 relative from u = 1 to past 1e15 (1e-15/u below), so the solver
serves every finite kappa above kappa_min whose root u = kappa R is at
most half the largest float, u_top, where G takes u: up to the largest
float at the default alpha (u about 2e306 there), but at alpha = 0.5,
where R ~ 56, only up to kappa(u_top) = 1.5930033277148792e306, which
solves at u_top itself; above it FluxError names that bound.

tune_bltp walks the same constraint in u and reads the depth of the
regulated tight well at each (R(u), kappa(u)) from
PotentialModel("ring-bltp", ...).tight_minimum, whose window is relative
to R; the minimum it reports is the one of the root's own ring.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .models import PhysicalConfig, PotentialModel, RingParams, _bltp_decades, _bltp_table, _tune
from .optimize import (
    Bracket,
    OptimizeError,
    StationaryPoint,
    find_root,
    minimize_scalar,
)
from .quadrature import QuadratureError

__all__ = [
    "FluxError",
    "FluxSolution",
    "flux_constraint_integral",
    "flux_rhs",
    "solve_R_given_kappa",
    "tune_bltp",
]


class FluxError(RuntimeError):
    """The flux constraint could not be satisfied; ``kappa_min`` is set below it."""

    def __init__(self, message: str, *, kappa_min: float | None = None) -> None:
        super().__init__(message)
        self.kappa_min = kappa_min


@dataclass(frozen=True)
class FluxSolution:
    """A (kappa, R) pair satisfying the flux constraint.

    residual = R - flux_rhs(kappa, R); construction enforces
    |residual| <= 1e-12 * R so a sloppy solve cannot masquerade as a
    solution.
    """

    kappa: float
    R: float
    residual: float

    def __post_init__(self) -> None:
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive; got {self.kappa!r}")
        if not self.R > 0.0:
            raise ValueError(f"R must be positive; got {self.R!r}")
        if not abs(self.residual) <= 1e-12 * self.R:
            raise ValueError(
                f"unconverged flux solution: |residual|={abs(self.residual):.3e} "
                f"exceeds 1e-12 * R = {1e-12 * self.R:.3e}"
            )


def flux_constraint_integral(u: float) -> float:
    """G(u) = int_0^pi cos(2 phi) (1 - exp(-2 u sin phi)) / sin phi dphi.

    The integrand is entire (the apparent 1/sin endpoint singularity
    cancels; the endpoint limit is 2u), even about pi/2, and varies on the
    scale 1/2u near phi = 0 and pi.  It is the Bopp pair's I2 at
    rho = r/2R = 0 and 2 kappa R = 2u, so G takes that pair's tables and
    decade rule (see models._bltp_integrals): the GK15 rule on [0, pi/2],
    a panel [0, lo] and geometric panels up to pi/2, with lo the largest
    power of ten at or below 1e-2 min(1, 1/2u) (and at or above 1e-308),
    and cos(2 phi) applied at the nodes.  So the u of one decade of 2u
    share a table, and every u <= 0.5 the one with lo = 1e-2.  The 1 - exp
    is formed with expm1, so small u keeps full relative precision up to
    the cancellation of cos(2 phi) against G ~ 4u^2/3 (about 1e-15/u
    relative).  Above half the largest float the integrand's endpoint
    value 2u overflows, and QuadratureError names u.
    """
    if not 0.0 <= u < math.inf:
        raise ValueError(f"u must be finite and non-negative; got {u!r}")
    if u == 0.0:
        return 0.0
    if 2.0 * u == math.inf:  # numpy would warn of the overflow first
        raise QuadratureError(f"flux integral G at u={u!r}: the endpoint value 2u overflows")
    scale = 2.0 * u
    table, s, cos2 = _bltp_table(_bltp_decades(0.0, scale))
    return table.integral(cos2 * (-np.expm1(-scale * s) / s), u=u)


def flux_rhs(kappa: float, R: float, alpha: float = PhysicalConfig().alpha) -> float:
    """Right-hand side of the constraint: (alpha^2 / 2 pi) G(kappa R)."""
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive; got {kappa!r}")
    if not R > 0.0:
        raise ValueError(f"R must be positive; got {R!r}")
    return alpha * alpha / (2.0 * math.pi) * flux_constraint_integral(kappa * R)


def _ring_at(u: float, alpha: float) -> tuple[float, float]:
    """(R, kappa) on the constraint at u = kappa R: R = (alpha^2/2pi) G(u)."""
    R = alpha * alpha / (2.0 * math.pi) * flux_constraint_integral(u)
    return R, _kappa(u, R)


def _kappa(u: float, R: float) -> float:
    """kappa = u / R, inf where R has underflowed to 0 (alpha below ~1e-162)."""
    return u / R if R else math.inf


@functools.cache
def _threshold() -> tuple[float, float]:
    """(u_min, G(u_min)) minimizing kappa(u) alpha^2 = 2 pi u / G(u); alpha-free."""
    def scaled_kappa(u: float) -> float:
        return 2.0 * math.pi * u / flux_constraint_integral(u)

    u_min = minimize_scalar(scaled_kappa, Bracket(1.0, 2.0, 4.0), x_tol=1e-12).r_star
    return u_min, flux_constraint_integral(u_min)


def solve_R_given_kappa(kappa: float, alpha: float = PhysicalConfig().alpha) -> FluxSolution:
    """Outer-branch radius satisfying R = flux_rhs(kappa, R).

    Solves kappa(u) = kappa for u = kappa R and returns R = u / kappa.
    kappa <= kappa_min raises FluxError carrying kappa_min (found on the
    first call, then cached).  Above it kappa(u) rises on u > u_min, so
    doubling u from 2 u_min brackets the root for Brent's method.  Near
    the largest float kappa(u) overflows; taken as the largest float it
    still brackets the root, at the jump to inf.  u_hi stops at half the
    largest float, u_top, the largest u G takes: kappa(u_top) solves, at
    u_top itself, and a root u past it raises FluxError naming kappa,
    alpha and kappa(u_top), the largest kappa that solves.
    """
    if not (0.0 < kappa < math.inf and alpha > 0.0):
        raise ValueError(f"need finite kappa > 0 and alpha > 0; got {kappa!r}, {alpha!r}")
    u_min, g_min = _threshold()
    # _ring_at's arithmetic, so excess(u_min) < 0 exactly when kappa > kappa_min
    kappa_min = _kappa(u_min, alpha * alpha / (2.0 * math.pi) * g_min)
    if not kappa > kappa_min:
        raise FluxError(
            f"flux constraint has no radius at kappa={kappa!r}: below the "
            f"solvability threshold kappa_min={kappa_min:.10g}",
            kappa_min=kappa_min,
        )

    # kappa(u) - kappa by u: find_root starts from u_min, known from the
    # threshold, and from the last u_hi, which the doubling loop has just
    # evaluated, so neither costs another G.  kappa(u) overflows only for
    # kappa above about 9e307; clamped to the largest float, it keeps its
    # sign, and find_root's bisection brackets the jump
    known = {u_min: kappa_min - kappa}

    def excess(u: float) -> float:
        if u not in known:
            known[u] = min(_ring_at(u, alpha)[1] - kappa, sys.float_info.max)
        return known[u]

    u_hi, u_top = 2.0 * u_min, 0.5 * sys.float_info.max  # G takes u up to u_top
    while excess(u_hi) < 0.0:  # at 0, find_root returns u_hi itself
        if u_hi == u_top:
            raise FluxError(f"root u = kappa R overflows at kappa={kappa!r}, alpha={alpha!r}; "
                            f"the largest kappa that solves is {_ring_at(u_top, alpha)[1]!r}")
        u_hi = min(2.0 * u_hi, u_top)
    R = find_root(excess, u_min, u_hi) / kappa

    residual = R - flux_rhs(kappa, R, alpha)
    if abs(residual) > 1e-12 * R:
        raise FluxError(f"flux solve stalled at kappa={kappa!r}: R={R!r}, residual={residual!r}")
    return FluxSolution(kappa=kappa, R=R, residual=residual)


def tune_bltp(
    alpha: float = PhysicalConfig().alpha,
    target_energy: float = 0.0,
    n: int = 1,
) -> tuple[FluxSolution, StationaryPoint]:
    """Regulator scale at which the flux-constrained tight state hits
    ``target_energy``.

    Parameterized by u = kappa * R, which makes the constraint explicit:
    R(u) = (alpha^2/2pi) G(u) and kappa(u) = u / R(u).  The well depth
    E_min(u) rises steeply through zero near u ~ 4.6, then the well closes
    near u ~ 6.3; the search that tune_ring_radius takes too bisects over
    25 log-spaced u in (2.5, 8) for the adjacent pair that brackets the
    crossing (6 of the 25 at target 0), and Brent refinement pins it down.
    Returns the flux solution with the tight minimum of its ring,
    |E_min - target| at the 1e-8 level or better.  With no crossing the
    search's report is a FluxError; where alpha puts R out of RingParams'
    range (R = 0 once alpha^2 underflows), its ValueError propagates.
    """
    cfg = PhysicalConfig(alpha=alpha, n=n)

    def ring(u: float) -> PotentialModel:
        return PotentialModel("ring-bltp", cfg, RingParams(*_ring_at(u, alpha)))

    # at alpha = 1/137 the crossing of a target near zero lies in u in
    # (2.5, 8); at other alpha it moves out (below 2.5 at alpha = 1/60, above
    # 8 at 1/300), and this scan reports no crossing
    scan = [2.5 * (8.0 / 2.5) ** (i / 24.0) for i in range(25)]
    try:
        model, point = _tune(ring, target_energy, scan, "u")
    except OptimizeError as err:
        raise FluxError(str(err)) from err
    R, kappa = model.params.R, model.params.kappa
    return FluxSolution(kappa=kappa, R=R, residual=R - flux_rhs(kappa, R, alpha)), point
