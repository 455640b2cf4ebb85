"""Effective potentials for a relativistic electron-positron pair.

Everything is dimensionless: energies in units of the electron rest energy
mc^2, lengths in reduced Compton lengths hbar/mc.  The pair is treated on
circular orbits with angular momentum quantization p = n/r, so the kinetic
part of every potential is 2*sqrt(1 + n^2/r^2) (two particles of equal
mass).  Four interaction families, one FAMILIES entry each:

* coulomb         point charges, Coulomb only
* coulomb-dipole  point charges + point magnetic dipoles
* ring-bltp       charged current rings, Bopp-regulated fields with
                  inverse length kappa (angular quadratures)
* scaling         charged current rings, standard fields (elliptic
                  integrals), with magnetic coupling alpha^(1+2k) and
                  natural radius alpha^(1+k)

The current-ring pair of the paper, with standard fields, is the k = 1
member of scaling (the CLI spells it ring-ml).
PotentialModel binds a family to its parameters: model(r) is the kinetic
term plus the family's interaction, model.binding(r) the kinetic excess
plus the same one, and model.tight_minimum() the tightly bound well of the
two ring families, searched in a window each family declares relative to
its own scale.

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
* The Bopp-regulated pair takes two angular integrals per r, both from
  one cached GK15 panel table (see quadrature) on panels graded towards
  phi = 0, at every r (see _bltp_integrals).  The flux integral G is the
  second of them at r = 0 and takes the same tables.
* Every energy takes a float or a 1-D ndarray of them through the same
  function, and the two agree bit for bit.  The array forms take the
  float branches element by element: np.where past the overflow of q^2
  in the kinetic terms, np.float_power for r^3 and math.hypot for the
  ring modulus (np.power and np.hypot round differently from float ** and
  math.hypot), and the Bopp pair's sums run in the float order.  Arrays
  are evaluated under np.errstate: past the float range they give the
  inf, 0 or -0.0 the floats give, without a warning.  So every energy is
  a scan callable: find_local_minima (and with it tight_minimum) and
  sample_curve evaluate their grid in one array call, and the minima and
  curves they return are the ones a float-by-float scan returns.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .elliptic import _agm, _agm_array
from .optimize import OptimizeError, StationaryPoint, find_local_minima, find_root
from .quadrature import PanelTable, QuadratureError, angular_edges

__all__ = [
    "ALPHA_FS",
    "ZERO_ENERGY_RADIUS_COEFF",
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

_SCALING_EXPONENTS = (0, 1, 2, 3)

# tolerances for the angular quadratures of the Bopp-regulated ring pair
# and of the flux integral G, its cos(2*phi) integral at r = 0; that one
# is multiplied by (alpha/2piR)^3 ~ 1e5 in the energy, so its absolute
# error budget is what limits the final energy accuracy
_BLTP_REL_TOL = 1e-13
_BLTP_ABS_TOL = 1e-15

# ring radii whose cube is a normal float: the ring prefactors take R^3 and
# (alpha/R)^3, which overflow or divide by zero outside this range
_R_RANGE = (sys.float_info.min ** (1 / 3), sys.float_info.max ** (1 / 3))

# above this momentum q = n/r, 2 q^2 overflows; sqrt(1 + q^2) rounds to q
# from q = 2^27 on, so the kinetic terms take 2q there and every finite
# value they gave before stays bit for bit
_Q_SQUARE_MAX = math.sqrt(0.5 * sys.float_info.max)

_SUBNORMAL_MIN = math.ulp(0.0)


@dataclass(frozen=True)
class PhysicalConfig:
    """Fine-structure constant and principal quantum number."""

    alpha: float = ALPHA_FS
    n: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1); got {self.alpha!r}")
        # n enters the energies as a float
        if not (isinstance(self.n, int) and 1 <= self.n <= sys.float_info.max):
            raise ValueError(f"n must be an integer in [1, the largest float]; got {self.n!r}")


@dataclass(frozen=True)
class RingParams:
    """Ring radius R and, for the Bopp-regulated family only, the inverse
    length kappa (both in reciprocal-compatible reduced Compton units)."""

    R: float
    kappa: float | None = None

    def __post_init__(self) -> None:
        if not self.R > 0.0:
            raise ValueError(f"ring radius R must be positive; got {self.R!r}")
        if not _R_RANGE[0] <= self.R <= _R_RANGE[1]:
            raise ValueError(
                f"ring radius R must lie in [{_R_RANGE[0]:.4g}, {_R_RANGE[1]:.4g}], where "
                f"R^3 is a normal float; got {self.R!r}"
            )
        if self.kappa is not None and not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive when given; got {self.kappa!r}")


@dataclass(frozen=True)
class Family:
    """What a model family takes, and its energy.

    ``energy(kinetic, model, r)`` adds the family's interaction at r (a
    float, or a 1-D ndarray of them) to a kinetic part: kinetic_term for
    the potential, kinetic_excess for the binding energy.  Taking the
    kinetic part as an argument keeps each family's order of operations:
    coulomb-dipole is (K - alpha/r) - alpha^3/(8 pi^2 r^3), and a single
    summed interaction
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
    model.binding(r) the conditioned V - 2, each at a float r or at every
    element of a 1-D ndarray (bit for bit the float values).
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

    def __call__(self, r: float | np.ndarray) -> float | np.ndarray:
        return self._energy(kinetic_term, r)

    def binding(self, r: float | np.ndarray) -> float | np.ndarray:
        """V(r) - 2, evaluated without the rest-energy cancellation."""
        return self._energy(kinetic_excess, r)

    def _energy(self, kinetic: Callable, r: float | np.ndarray) -> float | np.ndarray:
        energy = FAMILIES[self.family].energy
        if isinstance(r, np.ndarray):
            # overflow past the float range gives the inf or 0 the float
            # branches give, without a warning
            with np.errstate(all="ignore"):
                return energy(kinetic(self.cfg, r), self, r)
        return energy(kinetic(self.cfg, r), self, r)

    def tight_minimum(self) -> StationaryPoint:
        """Deepest minimum of the potential in the family's tight-well window,
        scanned at 60 grid points per decade (see find_local_minima): the
        grid in one array call, the refinement in float calls.

        Raises ValueError for the point families, which have no tight well,
        and OptimizeError naming the window, R and k (or kappa) when the
        window holds no interior minimum: the well has closed.
        """
        spec = FAMILIES[self.family]
        if spec.tight_window is None:
            raise ValueError(f"the {self.family} family has no tight well")
        lo, hi = spec.tight_window(self)
        minima = find_local_minima(self, lo, hi, 60)
        if not minima:
            kappa = self.params.kappa
            shape = f"k={self.scaling_k}" if kappa is None else f"kappa={kappa!r}"
            raise OptimizeError(
                f"no interior minimum in ({lo!r}, {hi!r}) at R={self.params.R!r}, {shape}"
            )
        return min(minima, key=lambda p: p.v_star)


@dataclass(frozen=True)
class EnergyCurve:
    """A sampled energy curve: strictly increasing positive grid, finite values.

    ``model`` is the function sampled: a PotentialModel, its ``binding``,
    or any other energy of r that takes a float or a 1-D ndarray of them.
    """

    model: Callable[[float | np.ndarray], float | np.ndarray]
    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if len(self.grid) < 2:
            raise ValueError("curve needs at least 2 points")
        if self.grid[0] <= 0.0:
            raise ValueError("grid must be positive")
        if not all(a < b for a, b in zip(self.grid, self.grid[1:])):
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
    n = float(cfg.n)  # in floats: past n ~ 1.3e154, n^2 is inf and both are -0.0
    n2 = n * n
    return -1.0 / (8.0 * n2), -1.0 / (128.0 * n2 * n2)


def _require_positive_r(r: float) -> None:
    if not r > 0.0:
        raise ValueError(f"separation r must be positive; got {r!r}")


def _momenta(cfg: PhysicalConfig, r: np.ndarray) -> np.ndarray:
    """q = n/r at every element of r, each checked as _require_positive_r
    checks a float."""
    bad = ~(r > 0.0)
    if bad.any():
        _require_positive_r(float(r[bad][0]))
    return cfg.n / r


def _require_exponent(k: int | None) -> None:
    if k not in _SCALING_EXPONENTS:
        raise ValueError(f"scaling exponent k must be in {{0,1,2,3}}; got {k!r}")


def kinetic_term(cfg: PhysicalConfig, r: float | np.ndarray) -> float | np.ndarray:
    """2*sqrt(1 + n^2/r^2): two relativistic particles with p = n/r."""
    if isinstance(r, np.ndarray):
        q = _momenta(cfg, r)  # the float branches below, element by element
        return np.where(q > _Q_SQUARE_MAX, 2.0 * q, 2.0 * np.sqrt(1.0 + q * q))
    _require_positive_r(r)
    q = cfg.n / r
    if q > _Q_SQUARE_MAX:
        return 2.0 * q
    return 2.0 * math.sqrt(1.0 + q * q)


def kinetic_excess(cfg: PhysicalConfig, r: float | np.ndarray) -> float | np.ndarray:
    """kinetic_term - 2 without cancellation: 2q^2/(1 + sqrt(1+q^2))."""
    if isinstance(r, np.ndarray):
        q = _momenta(cfg, r)  # the float branches below, element by element
        q2 = q * q
        return np.where(q > _Q_SQUARE_MAX, 2.0 * q, 2.0 * q2 / (1.0 + np.sqrt(1.0 + q2)))
    _require_positive_r(r)
    q = cfg.n / r
    if q > _Q_SQUARE_MAX:
        return 2.0 * q  # 2q - 2 + O(1/q), and 2 is far below ulp(2q)
    q2 = q * q
    return 2.0 * q2 / (1.0 + math.sqrt(1.0 + q2))


def _ring_lines(
    R: float,
    alpha: float,
    mag_coupling: float,
    r: float | np.ndarray,
    hypot: Callable[[float, np.ndarray], np.ndarray] | None = None,
):
    """The two lines of the ring-ring energy at separation r (a float, or an
    ndarray of them: the variational bound samples it on node tables).

    electric = -(alpha/(pi R)) * k * K(k)
    magnetic = -(mag_coupling/(4 pi^3 R^3)) * (1/k) * [(2 - k^2)K - 2E]

    with k = 1/sqrt(1 + r^2/4R^2), and the bracket taken as K * S from the
    AGM (see elliptic).  mag_coupling is alpha^3 for the plain ring pair and
    alpha^(1+2k) for the generalized-coupling family.  Floats and arrays run
    the same arithmetic and agree bit for bit: both take h = hypot(1, rho)
    with math.hypot.  An array caller that needs no float twin may pass
    ``hypot=np.hypot`` (the variational node tables do): ten times faster,
    and an ulp off at about one rho in 500 between 0.003 and 40.

    Where rho underflows to 0 (K diverges at k = 1) the lines are far below
    an ulp of the kinetic term and the least subnormal rho serves; where it
    overflows they are their far limits -alpha/r and -0.0.
    """
    rho = r / (2.0 * R)
    array = isinstance(rho, np.ndarray)
    if not array:
        if math.isinf(rho):
            return -alpha / r, -0.0
        rho = max(rho, _SUBNORMAL_MIN)
        h, agm = math.hypot(1.0, rho), _agm
    else:
        far = np.isinf(rho)
        rho = np.where(far, 1.0, np.maximum(rho, _SUBNORMAL_MIN))
        if hypot is None:
            ones = itertools.repeat(1.0, rho.size)
            h = np.fromiter(map(math.hypot, ones, rho.ravel().tolist()), float, rho.size)
            h, agm = h.reshape(rho.shape), _agm_array
        else:
            h, agm = hypot(1.0, rho), _agm_array
    k = 1.0 / h     # modulus
    kp = rho / h    # complementary modulus, exact even when k rounds to 1
    big_k, series = agm(k, kp)
    electric = -(alpha / (math.pi * R)) * k * big_k
    bracket = big_k * series
    prefactor = -(mag_coupling / (4.0 * math.pi**3 * R**3))
    scaled = prefactor * h
    # far out the prefactor times h can overflow while the line, ~1/h^3, is
    # a finite float or underflows to -0.0: take h * K S first there
    if array:
        magnetic = np.where(np.isinf(scaled), prefactor * (h * bracket), scaled * bracket)
        electric[far], magnetic[far] = -alpha / r[far], -0.0
    elif math.isinf(scaled):
        magnetic = prefactor * (h * bracket)
    else:
        magnetic = scaled * bracket
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


def _ring_potential(R: float, cfg: PhysicalConfig, mag_coupling: float, r: float | np.ndarray):
    """Kinetic term plus ring energy.  An ndarray runs under np.errstate,
    as PotentialModel runs one; a float warns nothing, so it skips the
    errstate's cost."""
    if isinstance(r, np.ndarray):
        with np.errstate(all="ignore"):
            return kinetic_term(cfg, r) + _ring_interaction(R, cfg.alpha, mag_coupling, r)
    return kinetic_term(cfg, r) + _ring_interaction(R, cfg.alpha, mag_coupling, r)


# potential_v3 and potential_scaling_law are PotentialModel("scaling", ...)
# as plain functions, kept out of __all__: perfbench/workloads.py is their
# only caller
def potential_v3(params: RingParams, cfg: PhysicalConfig, r: float) -> float:
    """Ring pair with standard fields: kinetic term plus ring energy."""
    return _ring_potential(params.R, cfg, cfg.alpha**3, r)


def potential_scaling_law(k: int, params: RingParams, cfg: PhysicalConfig, r: float) -> float:
    """Ring family with magnetic coupling alpha^(1+2k), electric unchanged.

    k = 1 is bit-identical to potential_v3 (alpha^3 coupling).  The natural
    radius for a zero-energy tight state scales as alpha^(1+k); see
    scaled_ring_radius.
    """
    _require_exponent(k)
    return _ring_potential(params.R, cfg, cfg.alpha ** (1 + 2 * k), r)


def _bltp_integrals(R: float, kappa: float, r: float | np.ndarray):
    """The two angular quadratures of the Bopp-regulated ring pair.

    I1 = int_0^pi          (1 - exp(-2 kappa R d(phi))) / d(phi) dphi
    I2 = int_0^pi cos(2phi)(1 - exp(-2 kappa R d(phi))) / d(phi) dphi

    with d(phi) = hypot(sin phi, rho), rho = r/2R; 1 - exp is formed with
    expm1 so the small-argument regime keeps full precision, and hypot
    keeps d > 0 at every node even where sin^2 phi and rho^2 both
    underflow.  Both kernels are even about pi/2, so at every r they are
    taken with the GK15 panel rule of quadrature folded about pi/2, on
    angular_edges(lo).  The kernel's narrowest feature near phi = 0 is the
    peak of width rho; where scale * rho < 1e-8 (scale = 2 kappa R) the
    kernel is flat across it to 1e-8, and the next feature is the width
    1/scale of the expm1 factor.  So lo is 1e-2 min(1, max(rho, 1e-8/scale)),
    the cap at 1 keeping lo below pi/2 for far rings, rounded down to a
    power of ten 10^-d (d <= 308) so that one cached table serves a range
    of r.  At rho = 0 there is no peak, and lo is 1e-2 min(1, 1/scale):
    I2 there is the flux integral G(kappa R) (see flux), which takes these
    tables too.  QuadratureError names r, R and kappa when a panel
    estimate fails.

    An ndarray r gives the pair at each element, bit for bit as a float r
    would: its elements are grouped by table, and each group takes one pass
    over an (r x node) array, in the chunks of PanelTable.chunks.  Its
    QuadratureError is the one the floats would raise, one by one.
    """
    rho = r / (2.0 * R)
    scale = 2.0 * kappa * R
    if not isinstance(rho, np.ndarray):
        with np.errstate(all="ignore"):  # as PotentialModel runs an array
            return _bltp_pass(_bltp_decades(rho, scale), rho, scale, r, R, kappa)
    decades = np.array([_bltp_decades(x, scale) for x in rho.tolist()], dtype=int)
    i1, i2 = np.empty_like(rho), np.empty_like(rho)
    try:
        for d in dict.fromkeys(decades.tolist()):
            group = np.flatnonzero(decades == d)
            for rows in _bltp_table(d)[0].chunks(group.size):
                part = group[rows]
                i1[part], i2[part] = _bltp_pass(d, rho[part, None, None], scale, r[part], R, kappa)
    except QuadratureError:
        for x in r.tolist():  # the error of the first failing r, as a float r raises it
            _bltp_integrals(R, kappa, x)
        raise
    return i1, i2


def _bltp_decades(rho: float, scale: float) -> int:
    """d of the table 10^-d that _bltp_integrals takes at rho = r/2R.

    At rho = 0 the kernel has no peak, and its narrowest feature is the
    width 1/scale of the expm1 factor (the flux integral G takes this case).
    """
    # no division by scale = 0; the floor 1e-306 is the cap d <= 308
    width = max(rho, 1e-8 / max(scale, 1e-8)) if rho else 1.0 / max(scale, 1.0)
    return 2 - math.floor(math.log10(min(1.0, max(width, 1e-306))))


def _bltp_pass(
    decades: int,
    rho: float | np.ndarray,
    scale: float,
    r: float | np.ndarray,
    R: float,
    kappa: float,
):
    """The Bopp pair on table 10^-decades at rho (a float, or an (m, 1, 1)
    ndarray with r of shape (m,)): hypot, expm1, and the weighted sums."""
    table, s, cos2 = _bltp_table(decades)
    d = np.hypot(s, rho)
    f = np.multiply(d, -scale)
    np.negative(np.expm1(f, out=f), out=f)
    f /= d  # the kernel -expm1(-scale d)/d
    integral = table.integrals if isinstance(rho, np.ndarray) else table.integral
    i1 = integral(f, r=r, R=R, kappa=kappa)
    return i1, integral(np.multiply(cos2, f, out=d), r=r, R=R, kappa=kappa)


# a flux solve doubles u = kappa R through one table per decade of u (10
# tables at kappa = 1e12): 16 keep those of u up to ~1e13 from one solve
# to the next, so repeated solves build none
@functools.lru_cache(maxsize=16)
def _bltp_table(decades: int) -> tuple[PanelTable, np.ndarray, np.ndarray]:
    """The rule for the Bopp pair, and for the flux integral G, on
    angular_edges(10^-decades), weight 2 for the fold about pi/2, with
    sin phi and cos 2phi at its nodes."""
    table = PanelTable.build(
        "Bopp angular quadrature",
        angular_edges(10.0**-decades),
        lambda phi: np.full_like(phi, 2.0),
        _BLTP_REL_TOL,
        _BLTP_ABS_TOL,
    )
    s = np.sin(table.nodes)
    return table, s, 1.0 - 2.0 * s * s


def _bltp_interaction(R: float, kappa: float, alpha: float, r: float | np.ndarray):
    """-c I1 - c^3 I2 with c = alpha/(2 pi R), at a float r or at each
    element of an ndarray.

    Where r/2R overflows, the pair takes its far limit, as the plain rings
    do (see _ring_lines): I1 -> pi (1 - exp(-kappa r)) 2R/r and I2 -> 0, so
    the electric line is -alpha (1 - exp(-kappa r))/r and the magnetic one
    -0.0.  The quadrature cannot give it there: its kernel is 0 at every
    node, or nan once 2 kappa R underflows as well.  Nor can it where
    s = 2 kappa R is below the normal floats, for its kernel, about s, is 0
    or has lost digits; the limit serves there too, to about an ulp.  Its
    error is (2R/r)^2 where r/2R > 4e299, and below that kappa r < 1e-8 and
    both are -alpha kappa (1 - kappa r/2), or -alpha kappa where kappa r
    underflows, to within s relative.
    """
    rho = r / (2.0 * R)
    tiny = 2.0 * kappa * R < sys.float_info.min
    if isinstance(rho, np.ndarray):
        far = np.isinf(rho) | tiny
        if far.any():  # the far elements as floats (math.expm1), the rest in one pass
            interaction = np.empty_like(r)
            interaction[far] = [_bltp_interaction(R, kappa, alpha, x) for x in r[far].tolist()]
            interaction[~far] = _bltp_interaction(R, kappa, alpha, r[~far])
            return interaction
    elif tiny or math.isinf(rho):
        x = kappa * r
        return -alpha * -math.expm1(-x) / r if x >= sys.float_info.min else -alpha * kappa
    i1, i2 = _bltp_integrals(R, kappa, r)
    c = alpha / (2.0 * math.pi * R)
    return -c * i1 - c**3 * i2


def _coulomb(kinetic: float, model: PotentialModel, r: float) -> float:
    return kinetic - model.cfg.alpha / r


def _coulomb_dipole(kinetic: float, model: PotentialModel, r: float) -> float:
    """Unbounded below as r -> 0: the attractive r^-3 magnetic term beats the
    r^-1 kinetic barrier.  There is a local maximum near r ~ alpha*sqrt(3
    alpha/16 pi^2) ~ 8.6e-5 separating the plunge from the Coulombic well;
    the curve has no interior minimum below the Compton length.
    """
    return _coulomb(kinetic, model, r) - model.cfg.alpha**3 / (8.0 * math.pi**2 * _cube(r))


def _cube(r: float | np.ndarray) -> float | np.ndarray:
    """r^3 as the C pow rounds it (np.power rounds differently), kept in
    [smallest subnormal, inf]: where it underflows to 0 (r < 1e-108) or
    overflows (r > 5.6e102) the dipole term is then inf or 0, as it is
    already near there."""
    if isinstance(r, np.ndarray):
        return np.maximum(np.float_power(r, 3), _SUBNORMAL_MIN)
    try:
        return max(r**3, _SUBNORMAL_MIN)
    except OverflowError:
        return math.inf


def _rings(kinetic: float, model: PotentialModel, r: float) -> float:
    alpha, k = model.cfg.alpha, model.scaling_k
    return kinetic + _ring_interaction(model.params.R, alpha, alpha ** (1 + 2 * k), r)


def _rings_window(model: PotentialModel) -> tuple[float, float]:
    """The well of the k-family sits near r = 0.28 alpha^(1+k); x =
    r/alpha^(1+k) in (1e-3, 10) covers it with margin at any R for which
    it exists (it closes for R/alpha^(1+k) beyond ~0.56)."""
    s = model.cfg.alpha ** (1 + model.scaling_k)
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
    model: Callable[[float | np.ndarray], float | np.ndarray],
    r_min: float,
    r_max: float,
    points: int,
    spacing: str = "log",
) -> EnergyCurve:
    """Evaluate ``model`` (a PotentialModel, its ``binding``, or any energy
    of r that takes a float or a 1-D ndarray of them) in one call on a
    deterministic grid (log or linear spacing).

    A value that is not finite raises RuntimeError naming the first such
    r: a numerical failure, not a bad argument.  An exception from
    ``model`` propagates as raised."""
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max; got ({r_min!r}, {r_max!r})")
    if points < 2:
        raise ValueError(f"need at least 2 points; got {points!r}")
    if spacing not in ("log", "linear"):
        raise ValueError(f"spacing must be 'log' or 'linear'; got {spacing!r}")
    with np.errstate(over="ignore"):  # a step may overflow near the float range's top
        grid = (np.geomspace if spacing == "log" else np.linspace)(r_min, r_max, points)
    values = model(grid)
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))  # the first non-finite value
        raise RuntimeError(f"curve evaluation failed at r={float(grid[i])!r}: "
                           f"non-finite value {float(values[i])!r}")
    return EnergyCurve(model=model, grid=tuple(grid.tolist()), values=tuple(values.tolist()))


def _tune(ring: Callable[[float], PotentialModel], target_energy: float, scan: Iterable[float],
          name: str) -> tuple[float, PotentialModel, StationaryPoint]:
    """The x at which the tight minimum of ``ring(x)`` equals ``target_energy``,
    with that ring and its minimum: the gap (minimum minus target) at each
    point of ``scan`` up to its first sign change, then Brent's method
    between the last two.  Each ring's minimum is computed once, and the
    root is a point Brent evaluated.  A closed well (OptimizeError) has no
    gap.  With no sign change, OptimizeError lists each scan point as
    ``name``=x with its gap, and the energies the open well reaches.
    """
    @functools.cache
    def tuned(x: float) -> tuple[PotentialModel, StationaryPoint]:
        model = ring(x)
        return model, model.tight_minimum()

    def gap(x: float) -> float:
        return tuned(x)[1].v_star - target_energy

    scanned: list[tuple[float, float | None]] = []
    for x in scan:
        try:
            g = gap(x)
        except OptimizeError:
            g = None
        x_a, g_a = scanned[-1] if scanned else (x, None)
        if g is not None and g_a is not None and g_a * g <= 0.0:
            break
        scanned.append((x, g))
    else:
        lines = ", ".join(
            f"{name}={x:.4g}: {'well closed' if g is None else f'{g:.6g}'}" for x, g in scanned
        )
        energies = [tuned(x)[1].v_star for x, g in scanned if g is not None]
        reach = (
            f"the tight-minimum energy spans [{min(energies):.6g}, {max(energies):.6g}] "
            "where the well is open" if energies else f"the well is closed at every {name}"
        )
        raise OptimizeError(
            f"no crossing of target_energy={target_energy!r} in the scan ({lines}); {reach}"
        )
    root = find_root(gap, x_a, x)
    return root, *tuned(root)


def tune_ring_radius(
    model_family: str,
    cfg: PhysicalConfig,
    target_energy: float,
    scaling_k: int = 1,
) -> float:
    """Ring radius R at which the tight minimum of the scaling family at
    exponent ``scaling_k`` equals ``target_energy``.

    ``model_family`` must be "scaling", the one family this tunes: the
    argument stays so that callers of the form
    tune_ring_radius("scaling", cfg, target, scaling_k=k) keep working.
    Tunes c in R = c * alpha^(1+k) with _tune, from the scan c = 0.42, 0.55:
    the tight well exists across it and its depth is monotone through the
    target.  Where alpha puts R out of RingParams' range, its ValueError
    propagates.  The returned radius reproduces the target to the
    floating-point noise floor of the energy (~1e-11), well inside the
    1e-10 contract.
    """
    if model_family != "scaling":
        raise ValueError(f"model_family must be 'scaling'; got {model_family!r}")
    return tuned_scaling_ring(cfg, target_energy, scaling_k)[0].params.R


# kept out of __all__: the tune verb, which reports the tuned ring's
# minimum too, is its one caller besides tune_ring_radius
def tuned_scaling_ring(
    cfg: PhysicalConfig, target_energy: float, scaling_k: int
) -> tuple[PotentialModel, StationaryPoint]:
    """The ring tune_ring_radius tunes, with its tight minimum."""
    _require_exponent(scaling_k)

    def ring(c: float) -> PotentialModel:
        R = scaled_ring_radius(scaling_k, cfg.alpha, c)  # c alpha^(1+k)
        return PotentialModel("scaling", cfg, RingParams(R), scaling_k)

    return _tune(ring, target_energy, (0.42, 0.55), "c")[1:]
