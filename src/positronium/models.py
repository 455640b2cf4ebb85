"""Effective potentials for a relativistic electron-positron pair.

Everything is dimensionless: energies in units of the electron rest energy
mc^2, lengths in reduced Compton lengths hbar/mc.  The pair is treated on
circular orbits with angular momentum quantization p = n/r, so the kinetic
part of every potential is 2*sqrt(1 + n^2/r^2) (two particles of equal
mass).  Five interaction families, one FAMILIES entry each:

* coulomb         point charges, Coulomb only
* coulomb-dipole  point charges + point magnetic dipoles
* ring-ml         charged current rings, standard fields (elliptic
                  integrals)                                -> potential_v3
* ring-bltp       charged current rings, Bopp-regulated fields with
                  inverse length kappa (angular quadratures)
* scaling         the ring family with magnetic coupling alpha^(1+2k)
                  in place of alpha^3 and natural radius alpha^(1+k)
                                                    -> potential_scaling_law

ring-ml is the k = 1 member of scaling.  PotentialModel binds a family to
its parameters: model(r) is the kinetic term plus the family's
interaction, model.binding(r) the kinetic excess plus the same one, and
model.tight_minimum() the tightly bound well of the three ring families,
searched in a window each family declares relative to its own scale.

Numerical conditioning notes, load-bearing and easy to get wrong:

* Every potential tends to 2 (the rest energy) at large r.  Minimizing the
  raw potential near the shallow Coulombic well resolves the minimizer only
  to ~6e-6 relative, because the well depth ~alpha^2/4 drowns in ulp(2).
  PotentialModel.binding evaluates V - 2 without forming the difference,
  via 2*sqrt(1+q^2) - 2 = 2 q^2/(1 + sqrt(1+q^2)); minimize that when the
  minimizer location matters.
* The magnetic line of the ring-ring energy contains (2-m)K - 2E with
  m = 1/(1 + r^2/4R^2).  For r >> R this is pi m^2/16 + O(m^3) while K and
  E are each ~pi/2: direct evaluation leaves pure noise, amplified by the
  1/sqrt(m) prefactor into O(1) garbage at r ~ 1e6.  _ring_lines takes it
  as K * sum_j 2^j c_j^2 instead, a sum of positive terms from the
  cancellation-free AGM differences c_j (see elliptic), for floats and
  ndarrays alike.
* The elliptic moduli are fed to the AGM as the exact pair
  k = 1/hypot(1, rho), k' = rho/hypot(1, rho); reconstructing k' from a
  rounded k fails once rho < 1e-8 and k rounds to 1.0.
* The Bopp-regulated pair takes two angular integrals per r.  A periodic
  trapezoid rule serves rho = r/2R >= 1e-3, and below that the package's
  GK15 panel rule (see quadrature) on panels graded towards phi = 0;
  rho = 1e-3 is the only place a rule is chosen (see _bltp_integrals).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elliptic import _agm, _agm_array
from .optimize import OptimizeError, StationaryPoint, deepest_minimum, find_root
from .quadrature import PanelTable, QuadratureError, angular_edges

__all__ = [
    "ALPHA_FS",
    "ZERO_ENERGY_RADIUS_COEFF",
    "BIOT_SAVART_WINDOW",
    "COULOMB_WINDOW",
    "PhysicalConfig",
    "RingParams",
    "PotentialModel",
    "Family",
    "FAMILIES",
    "EnergyCurve",
    "bohr_energy",
    "bohr_expansion_coeffs",
    "kinetic_term",
    "kinetic_excess",
    "ring_energy_lines",
    "potential_v3",
    "potential_scaling_law",
    "scaled_ring_radius",
    "sample_curve",
    "tune_ring_radius",
]

ALPHA_FS = 1.0 / 137.036

# Ring radius coefficient (R = coeff * alpha^(1+k)) that puts the tightly
# bound minimum of the ring family at zero energy.  All eleven digits are
# load-bearing: the minimum is a difference of ~1e5-sized terms, and
# truncating the trailing 5 already flips its sign.
ZERO_ENERGY_RADIUS_COEFF = 0.49597832375

# operational windows (reduced Compton lengths) for scans and reporting:
# the magnetically dominated wells live far below the Compton length, the
# Coulombic well sits near the Bohr radius 2/alpha ~ 274
BIOT_SAVART_WINDOW = (1e-7, 1e-3)
COULOMB_WINDOW = (1.0, 1e4)

_SCALING_EXPONENTS = (0, 1, 2, 3)

# tolerances for the angular quadratures of the Bopp-regulated ring pair;
# the cos(2*phi) integral is multiplied by (alpha/2piR)^3 ~ 1e5, so its
# absolute error budget is what limits the final energy accuracy
_V4_REL_TOL = 1e-13
_V4_ABS_TOL = 1e-14

# the periodic trapezoid rule serves rho = r/2R >= 1e-3 (see _bltp_integrals)
_TRAPEZOID_MIN_RHO = 1e-3
_TRAPEZOID_START_NODES = 16
_TRAPEZOID_MAX_NODES = 2**15

# above this momentum q = n/r, 2 q^2 overflows; sqrt(1 + q^2) rounds to q
# from q = 2^27 on, so the kinetic terms take 2q there and every finite
# value they gave before stays bit for bit
_Q_SQUARE_MAX = math.sqrt(0.5 * sys.float_info.max)


@dataclass(frozen=True)
class PhysicalConfig:
    """Fine-structure constant and principal quantum number."""

    alpha: float = ALPHA_FS
    n: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1); got {self.alpha!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1; got {self.n!r}")


@dataclass(frozen=True)
class RingParams:
    """Ring radius R and, for the Bopp-regulated family only, the inverse
    length kappa (both in reciprocal-compatible reduced Compton units)."""

    R: float
    kappa: float | None = None

    def __post_init__(self) -> None:
        if not self.R > 0.0:
            raise ValueError(f"ring radius R must be positive; got {self.R!r}")
        if self.kappa is not None and not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive when given; got {self.kappa!r}")


@dataclass(frozen=True)
class Family:
    """What a model family takes, and its energy.

    ``energy(kinetic, model, r)`` adds the family's interaction at r to a
    kinetic part: kinetic_term for the potential, kinetic_excess for the
    binding energy.  Taking the kinetic part as an argument keeps each
    family's order of operations: coulomb-dipole is
    (K - alpha/r) - alpha^3/(8 pi^2 r^3), and a single summed interaction
    K + (-alpha/r - alpha^3/(8 pi^2 r^3)) differs from it in the last ulp
    at 934 of 4,001 log-spaced r in [1e-7, 1e4].

    ``tight_window(model)`` is the r window in which the family's tightly
    bound well is searched; the point families have none.
    """

    energy: Callable[[float, PotentialModel, float], float]
    R: bool = False  # takes a ring radius
    kappa: bool = False  # takes the Bopp regulator scale
    exponents: tuple[int, ...] = ()  # scaling exponents k it accepts
    tight_window: Callable[[PotentialModel], tuple[float, float]] | None = None


@dataclass(frozen=True)
class PotentialModel:
    """One interaction family bound to its parameters.

    ``family`` names a FAMILIES entry, which says whether ``params`` (ring
    radius R, and kappa for the regulated rings) and ``scaling_k`` are
    taken.  Instances are callables: model(r) evaluates the potential,
    model.binding(r) the conditioned V - 2.
    """

    family: str
    cfg: PhysicalConfig
    params: RingParams | None = None
    scaling_k: int | None = None

    def __post_init__(self) -> None:
        spec = FAMILIES.get(self.family)
        if spec is None:
            raise ValueError(f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}")
        if spec.R != (self.params is not None):
            raise ValueError(f"{self.family} {'needs' if spec.R else 'takes no'} RingParams")
        if spec.R and spec.kappa != (self.params.kappa is not None):
            raise ValueError(f"{self.family} {'needs' if spec.kappa else 'takes no'} kappa")
        if spec.exponents:
            _require_exponent(self.scaling_k)
        elif self.scaling_k is not None:
            raise ValueError(f"{self.family} takes no scaling exponent")

    def __call__(self, r: float) -> float:
        return FAMILIES[self.family].energy(kinetic_term(self.cfg, r), self, r)

    def binding(self, r: float) -> float:
        """V(r) - 2, evaluated without the rest-energy cancellation."""
        return FAMILIES[self.family].energy(kinetic_excess(self.cfg, r), self, r)

    def tight_minimum(self, points_per_decade: int = 60) -> StationaryPoint:
        """Deepest minimum of the potential in the family's tight-well window.

        Raises ValueError for the point families, which have no tight well,
        and OptimizeError naming the window, R and k (or kappa) when the
        window holds no interior minimum: the well has closed.
        """
        spec = FAMILIES[self.family]
        if spec.tight_window is None:
            raise ValueError(f"the {self.family} family has no tight well")
        lo, hi = spec.tight_window(self)
        energy, cfg = spec.energy, self.cfg

        def potential(r: float) -> float:  # self(r), the family looked up once
            return energy(kinetic_term(cfg, r), self, r)

        kappa = self.params.kappa
        shape = f"k={_exponent(self)}" if kappa is None else f"kappa={kappa!r}"
        context = f"at R={self.params.R!r}, {shape}"
        return deepest_minimum(potential, lo, hi, points_per_decade, context)


@dataclass(frozen=True)
class EnergyCurve:
    """A sampled energy curve: strictly increasing positive grid, finite values.

    ``model`` is the function sampled: a PotentialModel, its ``binding``,
    or any other energy of r.
    """

    model: Callable[[float], float]
    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if len(self.grid) < 2:
            raise ValueError("curve needs at least 2 points")
        if self.grid[0] <= 0.0:
            raise ValueError("grid must be positive")
        for a, b in zip(self.grid, self.grid[1:]):
            if not a < b:
                raise ValueError("grid must be strictly increasing")
        for r, v in zip(self.grid, self.values):
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} at r={r!r}")


def bohr_energy(cfg: PhysicalConfig) -> float:
    """Pair energy of the n-th circular orbit: 2*sqrt(1 - alpha^2/4n^2)."""
    x = cfg.alpha / (2.0 * cfg.n)
    return 2.0 * math.sqrt((1.0 - x) * (1.0 + x))


def bohr_expansion_coeffs(cfg: PhysicalConfig) -> tuple[float, float]:
    """(c2, c4) of bohr_energy = 2*(1 + c2 alpha^2 + c4 alpha^4 + ...).

    Analytic: c2 = -1/8n^2 and c4 = -1/128n^4; used to cross-validate
    finite differencing of the numerically minimized energy.
    """
    n2 = float(cfg.n * cfg.n)
    return -1.0 / (8.0 * n2), -1.0 / (128.0 * n2 * n2)


def _require_positive_r(r: float) -> None:
    if not r > 0.0:
        raise ValueError(f"separation r must be positive; got {r!r}")


def _require_exponent(k: int | None) -> None:
    if k not in _SCALING_EXPONENTS:
        raise ValueError(f"scaling exponent k must be in {{0,1,2,3}}; got {k!r}")


def kinetic_term(cfg: PhysicalConfig, r: float) -> float:
    """2*sqrt(1 + n^2/r^2): two relativistic particles with p = n/r."""
    _require_positive_r(r)
    q = cfg.n / r
    if q > _Q_SQUARE_MAX:
        return 2.0 * q
    return 2.0 * math.sqrt(1.0 + q * q)


def kinetic_excess(cfg: PhysicalConfig, r: float) -> float:
    """kinetic_term - 2 without cancellation: 2q^2/(1 + sqrt(1+q^2))."""
    _require_positive_r(r)
    q = cfg.n / r
    if q > _Q_SQUARE_MAX:
        return 2.0 * q  # 2q - 2 + O(1/q), and 2 is far below ulp(2q)
    q2 = q * q
    return 2.0 * q2 / (1.0 + math.sqrt(1.0 + q2))


def _ring_lines(R: float, alpha: float, mag_coupling: float, r: float | np.ndarray):
    """The two lines of the ring-ring energy at separation r (a float, or an
    ndarray of them: the variational bound samples it on node tables).

    electric = -(alpha/(pi R)) * k * K(k)
    magnetic = -(mag_coupling/(4 pi^3 R^3)) * (1/k) * [(2 - k^2)K - 2E]

    with k = 1/sqrt(1 + r^2/4R^2), and the bracket taken as K * S from the
    AGM (see elliptic).  mag_coupling is alpha^3 for the plain ring pair and
    alpha^(1+2k) for the generalized-coupling family.  Floats and arrays run
    the same arithmetic; they differ only where math.hypot and np.hypot
    round the modulus one ulp apart.
    """
    hypot, agm = (np.hypot, _agm_array) if isinstance(r, np.ndarray) else (math.hypot, _agm)
    rho = r / (2.0 * R)
    h = hypot(1.0, rho)
    k = 1.0 / h     # modulus
    kp = rho / h    # complementary modulus, exact even when k rounds to 1
    big_k, series = agm(k, kp)
    electric = -(alpha / (math.pi * R)) * k * big_k
    magnetic = -(mag_coupling / (4.0 * math.pi**3 * R**3)) * h * (big_k * series)
    return electric, magnetic


def ring_energy_lines(params: RingParams, cfg: PhysicalConfig, r: float) -> tuple[float, float]:
    """(electric, magnetic) components of the ring pair energy, separately.

    Their sum is negative for all r; it diverges like -ln(1/r) as r -> 0
    and decays like -alpha/r as r -> infinity, with the next-order tail
    -alpha^3/(8 pi^2 r^3) + alpha R^2 / r^3 (magnetic dipole-dipole plus
    electric quadrupole of the ring charge).  The two lines scale
    differently (1/c and 1/c^3) under the similarity map
    (r, R) -> (cr, cR), which the tests pin down exactly.
    """
    _require_positive_r(r)
    return _ring_lines(params.R, cfg.alpha, cfg.alpha**3, r)


def _ring_interaction(R: float, alpha: float, mag_coupling: float, r: float) -> float:
    electric, magnetic = _ring_lines(R, alpha, mag_coupling, r)
    return electric + magnetic


def potential_v3(params: RingParams, cfg: PhysicalConfig, r: float) -> float:
    """Ring pair with standard fields: kinetic term plus ring energy."""
    return kinetic_term(cfg, r) + _ring_interaction(params.R, cfg.alpha, cfg.alpha**3, r)


def _bltp_integrals(R: float, kappa: float, r: float) -> tuple[float, float]:
    """The two angular quadratures of the Bopp-regulated ring pair.

    I1 = int_0^pi          (1 - exp(-2 kappa R d(phi))) / d(phi) dphi
    I2 = int_0^pi cos(2phi)(1 - exp(-2 kappa R d(phi))) / d(phi) dphi

    with d(phi) = hypot(sin phi, rho), rho = r/2R; 1 - exp is formed with
    expm1 so the small-argument regime keeps full precision.  Both
    integrands depend on phi only through sin^2 phi, so they are pi-periodic
    and analytic in the strip |Im phi| < asinh(rho), where the plain
    trapezoid rule on [0, pi) converges exponentially (Trefethen & Weideman,
    "The exponentially convergent trapezoidal rule", SIAM Review 56, 2014).
    For rho >= 1e-3 the rule is nested: it starts at 16 nodes, adds the
    midpoints until successive I1 and I2 agree to _V4_REL_TOL/_V4_ABS_TOL,
    samples the kernel once per node for both integrals, and gives up past
    2^15 nodes.  The node count it needs grows like 1/asinh(rho), so below
    rho = 1e-3 the GK15 panel rule of quadrature is cheaper and is used
    instead, folded about pi/2 on angular_edges(lo).  The kernel's
    narrowest feature near phi = 0 is the peak of width rho; where
    scale * rho < 1e-8 (scale = 2 kappa R) the kernel is flat across it
    to 1e-8, and the next feature is the width 1/scale of the expm1
    factor.  So lo = 1e-2 max(rho, min(1, 1e-8/scale)).  hypot keeps
    d > 0 at every node even where sin^2 phi and rho^2 both underflow.
    """
    rho = r / (2.0 * R)
    scale = 2.0 * kappa * R
    if rho >= _TRAPEZOID_MIN_RHO:
        return _bltp_trapezoid(rho * rho, scale, r, R, kappa)
    lo = 1e-2 * max(rho, 1e-8 / max(scale, 1e-8))  # no division by scale = 0
    table = PanelTable.build("ring quadrature", angular_edges(lo), _twice, _V4_REL_TOL, _V4_ABS_TOL)
    s = np.sin(table.nodes)
    d = np.hypot(s, rho)
    f = -np.expm1(-scale * d) / d
    i1 = table.integral(f, r=r, R=R, kappa=kappa)
    i2 = table.integral((1.0 - 2.0 * s * s) * f, r=r, R=R, kappa=kappa)  # cos(2 phi) f
    return i1, i2


def _twice(phi: np.ndarray) -> np.ndarray:
    """The weight of an integral over [0, pi] folded about pi/2."""
    return np.full_like(phi, 2.0)


def _bltp_trapezoid(
    rho2: float, scale: float, r: float, R: float, kappa: float
) -> tuple[float, float]:
    """Nested periodic trapezoid rule for (I1, I2) of _bltp_integrals; its
    QuadratureError names r, R and kappa."""

    def sums(phi: np.ndarray) -> tuple[float, float]:
        s = np.sin(phi)
        d = np.sqrt(s * s + rho2)
        f = -np.expm1(-scale * d) / d
        return float(np.sum(f)), float(np.sum(np.cos(2.0 * phi) * f))

    n = _TRAPEZOID_START_NODES
    sum1, sum2 = sums(np.arange(n) * (math.pi / n))
    i1, i2 = sum1 * math.pi / n, sum2 * math.pi / n
    while 2 * n <= _TRAPEZOID_MAX_NODES:
        mid1, mid2 = sums((np.arange(n) + 0.5) * (math.pi / n))
        sum1 += mid1
        sum2 += mid2
        n *= 2
        new1, new2 = sum1 * math.pi / n, sum2 * math.pi / n
        err1, err2 = abs(new1 - i1), abs(new2 - i2)
        i1, i2 = new1, new2
        if err1 <= max(_V4_REL_TOL * abs(i1), _V4_ABS_TOL) and err2 <= max(
            _V4_REL_TOL * abs(i2), _V4_ABS_TOL
        ):
            return i1, i2
    raise QuadratureError(
        f"ring quadrature at r={r!r}, R={R!r}, kappa={kappa!r}: periodic trapezoid "
        f"rule unconverged at {n} nodes (last change {max(err1, err2):.3g})"
    )


def _bltp_interaction(R: float, kappa: float, alpha: float, r: float) -> float:
    i1, i2 = _bltp_integrals(R, kappa, r)
    c = alpha / (2.0 * math.pi * R)
    return -c * i1 - c**3 * i2


def potential_scaling_law(k: int, params: RingParams, cfg: PhysicalConfig, r: float) -> float:
    """Ring family with magnetic coupling alpha^(1+2k), electric unchanged.

    k = 1 is bit-identical to potential_v3 (alpha^3 coupling).  The natural
    radius for a zero-energy tight state scales as alpha^(1+k); see
    scaled_ring_radius.
    """
    _require_exponent(k)
    _require_positive_r(r)
    return kinetic_term(cfg, r) + _ring_interaction(
        params.R, cfg.alpha, cfg.alpha ** (1 + 2 * k), r
    )


def _coulomb(kinetic: float, model: PotentialModel, r: float) -> float:
    return kinetic - model.cfg.alpha / r


def _coulomb_dipole(kinetic: float, model: PotentialModel, r: float) -> float:
    """Unbounded below as r -> 0: the attractive r^-3 magnetic term beats the
    r^-1 kinetic barrier.  There is a local maximum near r ~ alpha*sqrt(3
    alpha/16 pi^2) ~ 8.6e-5 separating the plunge from the Coulombic well;
    the curve has no interior minimum below the Compton length.
    """
    return _coulomb(kinetic, model, r) - model.cfg.alpha**3 / (8.0 * math.pi**2 * r**3)


def _exponent(model: PotentialModel) -> int:
    """The scaling exponent k; ring-ml is k = 1 (_rings inlines this: hot path)."""
    return 1 if model.scaling_k is None else model.scaling_k


def _rings(kinetic: float, model: PotentialModel, r: float) -> float:
    k = 1 if model.scaling_k is None else model.scaling_k  # ring-ml is k = 1
    alpha = model.cfg.alpha
    return kinetic + _ring_interaction(model.params.R, alpha, alpha ** (1 + 2 * k), r)


def _rings_window(model: PotentialModel) -> tuple[float, float]:
    """The well of the k-family sits near r = 0.28 alpha^(1+k); x =
    r/alpha^(1+k) in (1e-3, 10) covers it with margin at any R for which
    it exists (it closes for R/alpha^(1+k) beyond ~0.56)."""
    s = model.cfg.alpha ** (1 + _exponent(model))
    return 1e-3 * s, 10.0 * s


def _regulated_rings(kinetic: float, model: PotentialModel, r: float) -> float:
    return kinetic + _bltp_interaction(model.params.R, model.params.kappa, model.cfg.alpha, r)


def _regulated_rings_window(model: PotentialModel) -> tuple[float, float]:
    """The regulated well sits near r = 0.67 R, so (0.05 R, 10 R) covers it
    at any alpha."""
    R = model.params.R
    return 0.05 * R, 10.0 * R


FAMILIES: dict[str, Family] = {
    "coulomb": Family(_coulomb),
    "coulomb-dipole": Family(_coulomb_dipole),
    "ring-ml": Family(_rings, R=True, tight_window=_rings_window),
    "ring-bltp": Family(
        _regulated_rings, R=True, kappa=True, tight_window=_regulated_rings_window
    ),
    "scaling": Family(_rings, R=True, exponents=_SCALING_EXPONENTS, tight_window=_rings_window),
}


def scaled_ring_radius(k: int, alpha: float = ALPHA_FS, coeff: float = ZERO_ENERGY_RADIUS_COEFF) -> float:
    """R = coeff * alpha^(1+k), the zero-energy radius rule of the family."""
    _require_exponent(k)
    return coeff * alpha ** (1 + k)


def sample_curve(
    model: Callable[[float], float],
    r_min: float,
    r_max: float,
    points: int,
    spacing: str = "log",
) -> EnergyCurve:
    """Evaluate ``model`` (a PotentialModel, its ``binding``, or any energy
    of r) once per point of a deterministic grid (log or linear spacing)."""
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max; got ({r_min!r}, {r_max!r})")
    if points < 2:
        raise ValueError(f"need at least 2 points; got {points!r}")
    if spacing == "log":
        grid = np.geomspace(r_min, r_max, points)
    elif spacing == "linear":
        grid = np.linspace(r_min, r_max, points)
    else:
        raise ValueError(f"spacing must be 'log' or 'linear'; got {spacing!r}")
    values = []
    for r in grid:
        try:
            values.append(model(float(r)))
        except Exception as err:
            raise RuntimeError(f"curve evaluation failed at r={float(r)!r}: {err}") from err
    return EnergyCurve(model=model, grid=tuple(float(r) for r in grid), values=tuple(values))


def tune_ring_radius(
    model_family: str,
    cfg: PhysicalConfig,
    target_energy: float,
    scaling_k: int = 1,
) -> float:
    """Ring radius R at which the tight minimum equals ``target_energy``.

    ``model_family`` is "ring-ml" (equivalent to scaling exponent k = 1) or
    "scaling" (uses ``scaling_k``).  Solves for the coefficient c in
    R = c * alpha^(1+k) over the bracket c in (0.42, 0.55), inside which
    the tight well exists and its depth is monotone through the target.
    The returned radius reproduces the target to the floating-point noise
    floor of the energy (~1e-11), well inside the 1e-10 contract.
    """
    if model_family not in ("ring-ml", "scaling"):
        raise ValueError(f"model_family must be 'ring-ml' or 'scaling'; got {model_family!r}")
    k = 1 if model_family == "ring-ml" else scaling_k
    _require_exponent(k)

    c_lo, c_hi = 0.42, 0.55

    def gap(c: float) -> float:
        params = RingParams(scaled_ring_radius(k, cfg.alpha, c))  # R = c alpha^(1+k)
        model = PotentialModel("scaling", cfg, params, scaling_k=k)  # ring-ml is k = 1
        return model.tight_minimum().v_star - target_energy

    try:
        c_star = find_root(gap, c_lo, c_hi, tol=0.0)
    except ValueError as err:
        raise OptimizeError(
            f"tuning bracket c in ({c_lo}, {c_hi}) does not straddle the target: {err}"
        ) from err
    return c_star * cfg.alpha ** (1 + k)
