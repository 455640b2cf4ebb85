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

The kinetic integral is elementary.  With x = tan(t), s = sin(t), b = 1/a
and beta = b^2 - 1 = (b - 1)(b + 1),

    <T>(a) = (64/pi) I,  I = int_0^1 s^2 (1 - s^2) sqrt(1 + beta s^2) ds
                           = (2/15) 2F1(-1/2, 3/2; 7/2; -beta),

and _kinetic takes it in four branches, split at a = 1/sqrt(2), 1 and
sqrt(2):

* a < 1/sqrt(2) (beta > 1), the acosh form,
  I = b/(12(1 - a^2)) + a^3/(16(1 - a^2)^2)
      - a^3 (2 - a^2) acosh(b) / (16 (1 - a^2)^(5/2)),
  that is b^3/(12 beta) + b/(16 beta^2) - (2b^2 - 1) acosh(b)/(16 beta^(5/2))
  written in a, so that nothing overflows before <T> itself does, below
  a ~ 9.4e-309 (16/(3 pi a) there);
* 1/sqrt(2) <= a <= 1, the Taylor series of Pfaff's transform
  I = (2/15) b 2F1(-1/2, 2; 7/2; 1 - a^2), in 1 - a^2 <= 1/2;
* 1 < a <= sqrt(2), the binomial series
  I = sum_n C(1/2, n) beta^n 2/((2n + 3)(2n + 5)), in -beta <= 1/2;
* a > sqrt(2), the acos form with acos(b) = pi/2 - asin(b), split into
  the part even in b, which gives (64/pi) pi/32 = 2 and its corrections,
  and the odd part, which is O(b^5):
  <T> = 2 + 2((1 - 2b^2)/(1 - b^2)^(5/2) - 1) + (64/pi) J,
  J = -b^3/(12(1 - b^2))
      + (b - (1 - 2b^2) asin(b)/sqrt(1 - b^2)) / (16 (1 - b^2)^2).

Near a = 1 both closed forms cancel (their terms grow like beta^-2 while
I tends to 2/15), so the seams keep them to beta >= 1 and beta <= -1/2,
where they lose a few ulps at most, and each series has _SERIES_TERMS
terms past the first, which leave less than 2e-18 of I.  <T> is within 1e-15 of
50-digit mpmath from a = 1e-307 to the largest float (5.8e-16 at worst
over 4,000 draws, seams included), and non-increasing across each seam
to the ulp.

<U_R> is a Laplace transform of r^2 U_R(r), so its expensive part is
shared across trial scales: it is taken with one fixed GK15 rule on
geometric panels, _PANELS_PER_DECADE to the decade, with r^2 U_R(r)
folded into the node table: U_R is sampled once (one AGM over the node
array) and <U_R>(a) needs only an exp at the nodes and weighted sums.
minimize_over_a builds one table for its whole window and takes its
scan's grid in one pass: <U_R> for every trial scale at once, over
(trial scale x node) arrays cut into PanelTable.chunks, bit for bit the
values the floats give, and <T> from _kinetic at each scale; its Brent
refinement takes floats, one a at a time, and the minima it finds are
reported from one more pass over their a*.  potential_expectation builds
a table for [a, a].  The table covers

    r in [1e-7 min(a_min, 2R), 60 a_max],

and what it leaves out is below 1e-17 of the integral for a in the
window (exp(-120) past 60 a; r^2 ln(1/r) at the lower end).  The
embedded Gauss-7 rule checks the rest: the per-panel Kronrod-minus-Gauss
differences, summed in magnitude, estimate the discretisation error from
above (the 15-point sum is far more accurate than the 7-point one); the
estimate is about 2e-15 relative at 8 panels per decade, and
QuadratureError names a and R when it exceeds _REL_TOL.

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
# ends) the node table overflows; the public functions run their numpy work
# under _quiet, and the rule's non-finite check reports it instead.
_quiet = np.errstate(all="ignore")
_REL_TOL = 1e-12
# geometric GK15 panels per decade of the node table: the Gauss-7 estimate
# is about 2e-15 of each integral here, and about 3e-11 at 4 per decade
_PANELS_PER_DECADE = 8
# Taylor terms past the first of each series of <T> near a = 1: at 1 - a^2
# or 1 - b^2 = 1/2 the rest is below 2e-18 of I, at 40 terms below 3e-17
_SERIES_TERMS = 44
# the ratios of successive terms of 2F1(-1/2, p; 7/2; z), last first
_RATIOS = {p: [(n - 0.5) * (n + p) / ((n + 3.5) * (n + 1)) for n in range(_SERIES_TERMS)][::-1]
           for p in (1.5, 2.0)}
_SERIES_SCALE = 128.0 / (15.0 * math.pi)  # (64/pi) (2/15)
_SQRT_HALF, _SQRT_TWO = math.sqrt(0.5), math.sqrt(2.0)


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


def _series(p: float, z: float) -> float:
    """2F1(-1/2, p; 7/2; z) to _SERIES_TERMS terms past the first, by
    Horner's rule on the ratios of successive terms; I is
    (2/15) b 2F1(-1/2, 2; 7/2; 1 - a^2) = (2/15) 2F1(-1/2, 3/2; 7/2; 1 - b^2)."""
    total = 1.0
    for ratio in _RATIOS[p]:
        total = 1.0 + ratio * z * total
    return total


def _kinetic(a: float) -> float:
    """<T>(a) in the four branches of the module docstring; inf or nan
    where it leaves the float range (a below ~9.4e-309)."""
    if a < _SQRT_HALF:
        x = (1.0 - a) * (1.0 + a)  # 1 - a^2
        acosh = (2.0 - a * a) * math.acosh(1.0 / a) / math.sqrt(x)
        return 64.0 / math.pi * (1.0 / a / (12.0 * x) + a * a * a / (16.0 * x * x) * (1.0 - acosh))
    if a <= 1.0:
        return _SERIES_SCALE / a * _series(2.0, (1.0 - a) * (1.0 + a))
    b = 1.0 / a
    y = (1.0 - b) * (1.0 + b)  # 1 - b^2
    if a <= _SQRT_TWO:
        return _SERIES_SCALE * _series(1.5, y)
    even = (2.0 * y - 1.0) / (y * y * math.sqrt(y)) - 1.0
    asin = (2.0 * y - 1.0) * math.asin(b) / math.sqrt(y)
    odd = -b * b * b / (12.0 * y) + (b - asin) / (16.0 * y * y)
    return 2.0 + (2.0 * even + 64.0 / math.pi * odd)


def _potential_table(
    R: float, a_min: float, a_max: float, cfg: PhysicalConfig | None
) -> PanelTable:
    """The GK15 rule on geometric panels of the r range of the module
    docstring, r^2 U_R(r) folded in."""
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
    edges = geometric_edges(1e-7 * min(a_min, 2.0 * R), 60.0 * a_max, _PANELS_PER_DECADE)
    return PanelTable.build(what, edges, weight, _REL_TOL)


def _potential_at(table: PanelTable, a: float) -> float:
    return 4.0 / a**3 * table.integral(np.exp(-2.0 / a * table.nodes), a=a)


def _potentials(table: PanelTable, a: np.ndarray) -> np.ndarray:
    """<U_R> at each trial scale of ``a``, bit for bit as _potential_at
    gives it at a float: in (trial scale x node) passes, PanelTable.chunks
    of them, with the same elementwise arithmetic and the prefactor on
    floats.  Its QuadratureError is the floats' at the first failing scale."""
    pot = np.empty_like(a)
    for rows in table.chunks(a.size):
        scale = a[rows]
        prefactor = np.array([4.0 / x**3 for x in scale.tolist()])
        values = np.exp(-2.0 / scale[:, None, None] * table.nodes)
        pot[rows] = prefactor * table.integrals(values, a=scale)
    return pot


def kinetic_expectation(a: float) -> float:
    """<2 sqrt(1 - Laplacian)> in the trial state of scale a.

    Monotone decreasing in a, from 16/(3 pi a) at small a (ultra-
    relativistic) to 2 + 1/a^2 - 5/(4 a^4) + ... at large a.  Taken in
    closed form (module docstring): the acosh form below a = 1/sqrt(2),
    a series within a factor sqrt(2) of a = 1, the acos form above
    sqrt(2); within 1e-15 of the integral at every a from 1e-307 to the
    largest float.  Below a ~ 9.4e-309 <T> exceeds the largest float, and
    QuadratureError names a.
    """
    av = _scale(a)
    value = _kinetic(av)
    if not math.isfinite(value):
        raise QuadratureError(f"kinetic expectation at a={av!r}: <T> exceeds the largest float")
    return value


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
    decades apart, so linear scanning is useless.  Every <U_R> comes from
    one node table built for the window, the scan's grid and the minima's
    a* each in one chunked pass, and every <T> from the closed form (see
    the module docstring); of ``cfg`` only alpha is read.  Raises
    OptimizeError when the window contains no interior minimum.
    """
    if not (0.0 < a_min < a_max):
        raise ValueError(f"need 0 < a_min < a_max; got ({a_min!r}, {a_max!r})")
    potential = _potential_table(R, a_min, a_max, cfg)

    def f(a: float | np.ndarray) -> float | np.ndarray:
        # the scan's grid in one chunked pass, the refinement's floats one
        # at a time; f must not call itself: that would leave a garbage
        # cycle per call, holding the node table
        if isinstance(a, np.ndarray):
            return np.array(list(map(_kinetic, a.tolist()))) + _potentials(potential, a)
        return _kinetic(a) + _potential_at(potential, a)

    points = find_local_minima(f, a_min, a_max, points_per_decade=points_per_decade)
    if not points:
        raise OptimizeError(
            f"no variational minimum for a in ({a_min:g}, {a_max:g}) at R={R!r}"
        )
    a_star = [p.r_star for p in points]
    pot = _potentials(potential, np.array(a_star)).tolist()
    results = [
        VariationalResult(a_star=a, kinetic=k, potential=u, energy=k + u, R=R)
        for a, k, u in zip(a_star, map(_kinetic, a_star), pot)
    ]
    return sorted(results, key=lambda v: v.energy)
