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

G is the package's GK15 panel rule (see quadrature) with cos(2 phi)
folded into the weights; it holds 1e-14 relative from u = 0.1 to past
1e15, so the solver serves every finite kappa above kappa_min (u up to
about 2e306; only kappa = the largest float has no representable root
bracket).

tune_bltp walks the same constraint in u and reads the depth of the
regulated tight well at each (R(u), kappa(u)) from
PotentialModel("ring-bltp", ...).tight_minimum, whose window is relative
to R; the minimum it reports is the one of the root's own ring.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .models import PhysicalConfig, PotentialModel, RingParams
from .optimize import (
    Bracket,
    OptimizeError,
    StationaryPoint,
    find_root,
    minimize_scalar,
)
from .quadrature import PanelTable, QuadratureError, angular_edges

__all__ = [
    "FluxError",
    "FluxSolution",
    "flux_constraint_integral",
    "flux_rhs",
    "solve_R_given_kappa",
    "tune_bltp",
]

_REL_TOL = 1e-13
_ABS_TOL = 1e-15


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


@functools.lru_cache(maxsize=4)
def _G_table(decades: int) -> tuple[PanelTable, np.ndarray]:
    """The rule for G on angular_edges(10^-decades), cos(2 phi) folded in
    (twice, for the fold about pi/2), and sin phi at its nodes."""
    table = PanelTable.build(
        "flux integral G",
        angular_edges(10.0**-decades),
        lambda phi: 2.0 * np.cos(2.0 * phi),
        _REL_TOL,
        _ABS_TOL,
    )
    return table, np.sin(table.nodes)


def flux_constraint_integral(u: float) -> float:
    """G(u) = int_0^pi cos(2 phi) (1 - exp(-2 u sin phi)) / sin phi dphi.

    The integrand is entire (the apparent 1/sin endpoint singularity
    cancels; the endpoint limit is 2u), even about pi/2, and varies on the
    scale 1/u near phi = 0 and pi.  So G is one fixed GK15 rule on [0, pi/2]
    (see quadrature): a panel [0, lo], then geometric panels up to pi/2,
    with lo = 10^-d the largest power of ten at or below both 1e-9 and
    1e-2/u (d <= 308, so that pi/2 / lo stays finite; 2u lo <= 0.05 for
    every u a solve reaches).  Tables are kept for the last four d; one
    serves every u <= 1e7.  The 1 - exp is formed with expm1, so small u
    keeps full relative precision up to the cancellation of cos(2 phi)
    against G ~ 4u^2/3 (about 1e-15/u relative, or 1e-15 absolute).
    Above half the largest float the integrand's endpoint value 2u
    overflows, and QuadratureError names u.
    """
    if not 0.0 <= u < math.inf:
        raise ValueError(f"u must be finite and non-negative; got {u!r}")
    if u == 0.0:
        return 0.0
    if 2.0 * u == math.inf:  # numpy would warn of the overflow first
        raise QuadratureError(f"flux integral G at u={u!r}: the endpoint value 2u overflows")
    table, sines = _G_table(min(308, max(9, 2 + math.ceil(math.log10(u)))))
    return table.integral(-np.expm1(-2.0 * u * sines) / sines, u=u)


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
    return R, u / R


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
    doubling u from 2 u_min brackets the root for Brent's method.
    """
    if not (0.0 < kappa < math.inf and alpha > 0.0):
        raise ValueError(f"need finite kappa > 0 and alpha > 0; got {kappa!r}, {alpha!r}")
    u_min, g_min = _threshold()
    # _ring_at's arithmetic, so excess(u_min) < 0 exactly when kappa > kappa_min
    kappa_min = u_min / (alpha * alpha / (2.0 * math.pi) * g_min)
    if not kappa > kappa_min:
        raise FluxError(
            f"flux constraint has no radius at kappa={kappa!r}: below the "
            f"solvability threshold kappa_min={kappa_min:.10g}",
            kappa_min=kappa_min,
        )

    # kappa(u) - kappa by u: find_root starts from u_min, known from the
    # threshold, and from the last u_hi, which the doubling loop has just
    # evaluated, so neither costs another G
    known = {u_min: kappa_min - kappa}

    def excess(u: float) -> float:
        if u not in known:
            known[u] = _ring_at(u, alpha)[1] - kappa
        return known[u]

    u_hi = 2.0 * u_min
    while excess(u_hi) <= 0.0:
        u_hi *= 2.0
    # kappa(u_hi) overflows only for kappa above about 9e307: bisect back
    # into [u_hi / 2, u_hi], where kappa(u) < kappa at the left end, until
    # it is finite (it never is within a few ulps of the largest float)
    u_lo = 0.5 * u_hi
    while excess(u_hi) == math.inf:
        u_mid = 0.5 * (u_lo + u_hi)
        if not u_lo < u_mid < u_hi:
            raise FluxError(
                f"flux constraint unsolvable in floating point at kappa={kappa!r}: "
                f"kappa(u) overflows between u={u_lo!r} and u={u_hi!r}"
            )
        if excess(u_mid) <= 0.0:
            u_lo = u_mid
        else:
            u_hi = u_mid
    R = find_root(excess, u_min, u_hi, tol=0.0) / kappa

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
    E_min(u) rises steeply through zero near u ~ 4.6; a coarse logarithmic
    scan stops at the first crossing and Brent refinement pins it down.  Returns
    the flux solution together with the tight minimum; |E_min - target| at
    the returned point is at the 1e-8 level or better.
    """
    cfg = PhysicalConfig(alpha=alpha, n=n)

    @functools.cache  # find_root re-reads both bracket ends the scan has evaluated
    def ring(u: float) -> tuple[float, float, StationaryPoint]:
        R, kappa = _ring_at(u, alpha)
        return R, kappa, PotentialModel("ring-bltp", cfg, RingParams(R, kappa)).tight_minimum()

    def gap(u: float) -> float:
        return ring(u)[2].v_star - target_energy

    # coarse scan in u up to the first sign change; outside (2.5, 8) the
    # tight well is either far too deep or already closed for any target
    # near zero
    scanned: list[tuple[float, float | None]] = []
    for i in range(25):
        u = 2.5 * (8.0 / 2.5) ** (i / 24.0)
        try:
            g = gap(u)
        except OptimizeError:
            g = None
        u_a, g_a = scanned[-1] if scanned else (u, None)
        if g is not None and g_a is not None and g_a * g <= 0.0:
            break
        scanned.append((u, g))
    else:
        lines = ", ".join(
            f"u={u:.4g}: {'well closed' if g is None else f'{g:.6g}'}" for u, g in scanned
        )
        energies = [ring(u)[2].v_star for u, g in scanned if g is not None]
        reach = (
            f"the tight-minimum energy spans [{min(energies):.6g}, {max(energies):.6g}] "
            "where the well is open" if energies else "the well is closed at every u"
        )
        raise FluxError(
            f"no crossing of target_energy={target_energy!r} in the scan ({lines}); {reach}"
        )

    # find_root returns a point it has evaluated, so its ring and minimum are cached
    R, kappa, point = ring(find_root(gap, u_a, u, tol=0.0))
    residual = R - flux_rhs(kappa, R, alpha)
    return FluxSolution(kappa=kappa, R=R, residual=residual), point
