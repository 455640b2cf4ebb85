"""Variational upper bound for the ring pair with a hydrogenic trial state.

The trial family is the 1s-type orbital psi_a(q) = exp(-q/a)/sqrt(pi a^3)
in the relative coordinate.  With the relativistic kinetic operator
2*sqrt(1 - Laplacian) (momentum space) and the ring-ring interaction U_R
(position space), both expectation values reduce to one-dimensional
integrals:

    <T>(a)    = (64/pi) int_0^inf x^2 (1+x^2)^-4 sqrt(1 + x^2/a^2) dx
    <U_R>(a)  = (4/a^3) int_0^inf r^2 U_R(r) exp(-2r/a) dr

(the x integral is the momentum integral with x = 2 pi a k; the norm
(32/pi) int x^2/(1+x^2)^4 dx is exactly 1).  E(a) = <T> + <U_R> is a
rigorous upper bound on the ground state for every a, so its minimum over
a is the best bound the family affords.

Both integrals share their expensive part across trial scales: <U_R> is
a Laplace transform of r^2 U_R(r), and the kinetic weight
x^2 (1+x^2)^-4 does not depend on a.  So the integrals are taken with one
fixed GK15 rule on geometric panels, _PANELS_PER_DECADE to the decade,
with the weights folded into the node table: r^2 U_R(r) is sampled once
(one AGM over the node array) and E(a) needs only an exp and a sqrt at
the nodes and weighted sums.  minimize_over_a builds one table for its
whole window and takes its scan's grid in one pass: each expectation for
every trial scale at once, over (trial scale x node) arrays cut into
PanelTable.chunks, bit for bit the values the floats give; its Brent
refinement takes floats, one a at a time, and the minima it finds are
reported from one more pass over their a*.  The single-a functions build
a table for [a, a].  The tables cover

    r in [1e-7 min(a_min, 2R), 60 a_max],
    x in [1e-6 min(a_min, 1), 1e4 max(a_max, 1)],

and what they leave out is below 1e-17 of each integral for a in the
window (exp(-120) past 60 a; r^2 ln(1/r) and x^2 at the lower ends; an
x^-7 tail at the upper one).  The embedded Gauss-7 rule checks the rest:
the per-panel Kronrod-minus-Gauss differences, summed in magnitude,
estimate the discretisation error from above (the 15-point sum is far
more accurate than the 7-point one); the estimate is about 2e-15 relative
at 8 panels per decade, and QuadratureError names a and R when it exceeds
_REL_TOL.

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
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import _R_RANGE, PhysicalConfig, RingParams, _ring_lines
from .optimize import OptimizeError, find_local_minima
from .quadrature import PanelTable, QuadratureError, geometric_edges

__all__ = [
    "VariationalResult",
    "kinetic_expectation",
    "potential_expectation",
    "energy_expectation",
    "minimize_over_a",
]

# Past the float range (trial scales near 1e-300 or 1e300, R near its
# ends) the node tables overflow; the public functions run their numpy work
# under _quiet, and the rule's non-finite check reports it instead.
_quiet = np.errstate(all="ignore")
_REL_TOL = 1e-12
# geometric GK15 panels per decade of the node tables: the Gauss-7 estimate
# is about 2e-15 of each integral here, and about 3e-11 at 4 per decade
_PANELS_PER_DECADE = 8


@dataclass(frozen=True)
class VariationalResult:
    """One local minimum of the variational energy over the trial scale."""

    a_star: float
    kinetic: float
    potential: float
    energy: float
    R: float


def _scale(a: float) -> float:
    """The trial scale a of the orbital exp(-q/a), checked positive."""
    value = float(a)
    if not value > 0.0:
        raise ValueError(f"trial scale a must be positive; got {a!r}")
    return value


def _table(
    what: str, lo: float, hi: float, weight: Callable[[np.ndarray], np.ndarray]
) -> PanelTable:
    """The GK15 rule on geometric panels of [lo, hi], ``weight`` folded in."""
    return PanelTable.build(what, geometric_edges(lo, hi, _PANELS_PER_DECADE), weight, _REL_TOL)


def _kinetic_table(a_min: float, a_max: float) -> PanelTable:
    # the ends kept to normal floats: only for a below 2e-302 or above 1e304
    # does that move them, and the integrand overflows there anyway, so the
    # rule's non-finite check names a
    return _table(
        "kinetic expectation",
        max(1e-6 * min(a_min, 1.0), sys.float_info.min),
        min(1e4 * max(a_max, 1.0), sys.float_info.max),
        lambda x: x * x / (1.0 + x * x) ** 4,
    )


def _kinetic_at(table: PanelTable, a: float) -> float:
    u = table.nodes / a
    return 64.0 / math.pi * table.integral(np.sqrt(1.0 + u * u), a=a)


def _potential_table(
    R: float, a_min: float, a_max: float, cfg: PhysicalConfig | None
) -> PanelTable:
    RingParams(R)  # validates R
    cfg = cfg or PhysicalConfig()

    def weight(r: np.ndarray) -> np.ndarray:
        electric, magnetic = _ring_lines(R, cfg.alpha, cfg.alpha**3, r, hypot=np.hypot)
        return r * r * (electric + magnetic)

    what = f"potential expectation for R={R!r}"
    # outside the range RingParams allows R, a**3 overflows or is below the
    # least normal float, where the prefactor 4/a^3 divides by zero or is inf
    lo, hi = _R_RANGE
    for a in (a_min, a_max):
        if not lo <= a <= hi:
            raise QuadratureError(f"{what} at a={a!r}: the prefactor 4/a^3 needs a in "
                                  f"[{lo:.4g}, {hi:.4g}], where a^3 is a normal float")
    return _table(what, 1e-7 * min(a_min, 2.0 * R), 60.0 * a_max, weight)


def _potential_at(table: PanelTable, a: float) -> float:
    return 4.0 / a**3 * table.integral(np.exp(-2.0 / a * table.nodes), a=a)


def _expectations(
    kinetic: PanelTable, potential: PanelTable, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(<T>, <U_R>) at each trial scale of ``a``, bit for bit as _kinetic_at
    and _potential_at give them at a float: each in (trial scale x node)
    passes, PanelTable.chunks of them, with the same elementwise
    arithmetic and the prefactors on floats.  Its QuadratureError is the one
    the floats raise, scale by scale, kinetic before potential."""
    kin, pot = np.empty_like(a), np.empty_like(a)
    try:
        for rows in kinetic.chunks(a.size):
            u = kinetic.nodes / a[rows, None, None]
            kin[rows] = 64.0 / math.pi * kinetic.integrals(np.sqrt(1.0 + u * u), a=a[rows])
        for rows in potential.chunks(a.size):
            scale = a[rows]
            prefactor = np.array([4.0 / x**3 for x in scale.tolist()])
            pot[rows] = prefactor * potential.integrals(
                np.exp(-2.0 / scale[:, None, None] * potential.nodes), a=scale
            )
    except QuadratureError:
        for x in a.tolist():
            _kinetic_at(kinetic, x)
            _potential_at(potential, x)
        raise
    return kin, pot


@_quiet
def kinetic_expectation(a: float) -> float:
    """<2 sqrt(1 - Laplacian)> in the trial state of scale a.

    Monotone decreasing in a, from 16/(3 pi a) at small a (ultra-
    relativistic) to 2 + 1/a^2 - 5/(4 a^4) + ... at large a.
    """
    av = _scale(a)
    return _kinetic_at(_kinetic_table(av, av), av)


@_quiet
def potential_expectation(
    a: float, R: float, cfg: PhysicalConfig | None = None
) -> float:
    """<U_R> in the trial state of scale a; tends to -alpha/a for a >> R.
    Of ``cfg`` only alpha is read: the trial state is the 1s orbital."""
    av = _scale(a)
    return _potential_at(_potential_table(R, av, av, cfg), av)


def energy_expectation(
    a: float, R: float, cfg: PhysicalConfig | None = None
) -> float:
    """Upper bound E(a) = <T>(a) + <U_R>(a) on the pair ground state; of
    ``cfg`` only alpha is read."""
    return kinetic_expectation(a) + potential_expectation(a, R, cfg)


@_quiet
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
    decades apart, so linear scanning is useless.  Every E(a) comes from
    one pair of node tables built for the window, the scan's grid and the
    minima's a* each in one chunked pass (see the module docstring); of
    ``cfg`` only alpha is read.  Raises OptimizeError when the window
    contains no interior minimum.
    """
    if not (0.0 < a_min < a_max):
        raise ValueError(f"need 0 < a_min < a_max; got ({a_min!r}, {a_max!r})")
    potential = _potential_table(R, a_min, a_max, cfg)
    kinetic = _kinetic_table(a_min, a_max)

    def f(a: float | np.ndarray) -> float | np.ndarray:
        # the scan's grid in one chunked pass, the refinement's floats one
        # at a time; f must not call itself: that would leave a garbage
        # cycle per call, holding both node tables
        if isinstance(a, np.ndarray):
            return np.add(*_expectations(kinetic, potential, a))
        return _kinetic_at(kinetic, a) + _potential_at(potential, a)

    points = find_local_minima(f, a_min, a_max, points_per_decade=points_per_decade)
    if not points:
        raise OptimizeError(
            f"no variational minimum for a in ({a_min:g}, {a_max:g}) at R={R!r}"
        )
    a_star = [p.r_star for p in points]
    kin, pot = _expectations(kinetic, potential, np.array(a_star))
    results = [
        VariationalResult(a_star=a, kinetic=k, potential=u, energy=k + u, R=R)
        for a, k, u in zip(a_star, kin.tolist(), pot.tolist())
    ]
    return sorted(results, key=lambda v: v.energy)
