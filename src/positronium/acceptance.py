"""Reproduction suite: recompute the headline numbers and check tolerances.

Each criterion function recomputes one published result of the model chain
from scratch and compares against the stored reference value at the stated
tolerance.  The suite is the single source of truth for "does this build
reproduce the reference computation": the `reproduce` CLI verb and the
acceptance tests both call into it, so the table the user sees and the
assertions CI runs can never drift apart.  Each criterion is a
CriterionResult of SubChecks, one per comparison, and as_report_dict
serializes them with dataclasses.asdict: their fields are the report's
schema, declared once.

Honesty notes, established numerically and kept out of the pass/fail
plumbing (the rows fail rather than bend):

* criterion 7: at the quoted radius coefficient the tight-state energy
  satisfies |E| <= 1e-4 only for k = 1 (the physical coupling).  For
  k = 0, 2, 3 the recomputed energies are ~2.0e-3, ~2.2e-4 and ~3.0e-2:
  the zero-energy coefficient does drift with k in the 11th digit, and the
  energy magnifies that drift by alpha^-(1+k).  The k-specific tuned
  coefficients (criterion 4 machinery) agree with the reference value to
  10 digits at k = 1 and to fewer digits as k moves away.
* criterion 8: at R = 2.661639e-5 the refined variational minimum sits at
  a = 1.571290e-5 (inside the +/-2% window) but its energy evaluates to
  -16.49, not inside [0.04, 0.06].  dE/dR at fixed a* is ~8e9, so the
  quoted 7-digit R underdetermines the energy by O(100): R = 2.6618432e-5
  reproduces the 0.0535 bound exactly.  The location, upper-bound and
  hydrogenic sub-checks all pass; the energy-window sub-check is reported
  as the honest failure it is.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from . import variational
from .elliptic import ellip_KE
from .flux import tune_bltp
from .models import (
    ALPHA_FS,
    ZERO_ENERGY_RADIUS_COEFF,
    PhysicalConfig,
    PotentialModel,
    RingParams,
    bohr_energy,
    bohr_expansion_coeffs,
    scaled_ring_radius,
    tune_ring_radius,
)
from .optimize import Bracket, OptimizeError, StationaryPoint, find_local_minima, minimize_scalar
from .quadrature import PanelTable

__all__ = [
    "SubCheck",
    "CriterionResult",
    "agrees_to_digits",
    "run_all",
    "as_table",
    "as_report_dict",
    "CRITERIA",
]

# reference configuration for the variational criterion
_VARIATIONAL_R = 2.661639e-5
_VARIATIONAL_A = 1.5726e-5
_VARIATIONAL_BOUND = 0.0535

# reference windows for the flux-constrained tuning
_BLTP_KAPPA_WINDOW = (1.7e5, 1.9e5)
_BLTP_R_WINDOW = (2.4e-5, 2.7e-5)


@dataclass(frozen=True)
class SubCheck:
    """One comparison: a computed number against a reference at a tolerance;
    ``delta`` is computed - expected, set on construction."""

    name: str
    computed: float
    expected: float
    tolerance: str
    delta: float = field(init=False)
    passed: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", self.computed - self.expected)


@dataclass(frozen=True)
class CriterionResult:
    """A criterion's checks; ``passed`` is whether all of them passed, set
    on construction."""

    number: int
    title: str
    passed: bool = field(init=False)
    checks: tuple[SubCheck, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))


def agrees_to_digits(computed: float, reference: float, digits: int) -> bool:
    """True when computed matches reference to >= ``digits`` significant
    digits, in the half-ulp sense |c - ref| <= 0.5 * 10^(1-digits) |ref|."""
    return abs(computed - reference) <= 0.5 * 10.0 ** (1 - digits) * abs(reference)


def _rel_check(name: str, computed: float, expected: float, rel_tol: float) -> SubCheck:
    ok = abs(computed - expected) <= rel_tol * abs(expected)
    return SubCheck(name, computed, expected, f"rel<={rel_tol:g}", ok)


def _abs_check(name: str, computed: float, expected: float, abs_tol: float) -> SubCheck:
    ok = abs(computed - expected) <= abs_tol
    return SubCheck(name, computed, expected, f"abs<={abs_tol:g}", ok)


def _range_check(name: str, computed: float, expected: float, lo: float, hi: float) -> SubCheck:
    return SubCheck(name, computed, expected, f"in [{lo:g}, {hi:g}]", lo <= computed <= hi)


def _minimized_coulomb_binding(cfg: PhysicalConfig) -> tuple[float, float]:
    """(r_star, binding minimum) of the point-charge potential, computed in
    the rest-subtracted form so the minimizer is well conditioned."""
    r_bohr = 2.0 * cfg.n * cfg.n / cfg.alpha
    f = PotentialModel("coulomb", cfg).binding
    p = minimize_scalar(f, Bracket(0.3 * r_bohr, r_bohr, 3.0 * r_bohr))
    return p.r_star, p.v_star


def criterion_1() -> CriterionResult:
    """Minimized point-charge potential against the closed-form spectrum."""
    checks = []
    for n in range(1, 6):
        cfg = PhysicalConfig(n=n)
        _, b_min = _minimized_coulomb_binding(cfg)
        checks.append(_rel_check(f"n={n} minimum energy", 2.0 + b_min, bohr_energy(cfg), 1e-10))
    return CriterionResult(1, "circular-orbit spectrum", tuple(checks))


def criterion_2() -> CriterionResult:
    """Finite-difference Maclaurin coefficients of the minimized energy.

    E_min(alpha)/2 = 1 + c2 alpha^2 + c4 alpha^4 + ...; with samples at
    alpha = h and 2h the Richardson combinations
        c2 ~ (16 u1 - u2) / 12 h^2,  c4 ~ (u2 - 4 u1) / 12 h^4,
    u_j = E_min(j h)/2 - 1, carry O(h^4) and O(h^2) bias, well inside the
    tolerances at h = 0.02.
    """
    h = 0.02
    checks = []
    for n in range(1, 6):
        u1 = _minimized_coulomb_binding(PhysicalConfig(alpha=h, n=n))[1] / 2.0
        u2 = _minimized_coulomb_binding(PhysicalConfig(alpha=2.0 * h, n=n))[1] / 2.0
        c2_est = (16.0 * u1 - u2) / (12.0 * h * h)
        c4_est = (u2 - 4.0 * u1) / (12.0 * h**4)
        c2_ref, c4_ref = bohr_expansion_coeffs(PhysicalConfig(n=n))
        checks.append(_abs_check(f"n={n} alpha^2 coefficient", c2_est, c2_ref, 1e-8))
        checks.append(_abs_check(f"n={n} alpha^4 coefficient", c4_est, c4_ref, 1e-4))
    return CriterionResult(2, "energy expansion coefficients", tuple(checks))


def criterion_3() -> CriterionResult:
    """Location of the weakly bound minimum for n = 1 point charges."""
    cfg = PhysicalConfig()
    r_star, _ = _minimized_coulomb_binding(cfg)
    expected = math.sqrt(4.0 - cfg.alpha**2) / cfg.alpha
    checks = (_rel_check("n=1 minimizer", r_star, expected, 1e-6),)
    return CriterionResult(3, "weak-well minimizer location", checks)


@lru_cache(maxsize=None)
def _tuned_ml_radius() -> float:
    return tune_ring_radius("scaling", PhysicalConfig(), 0.0, scaling_k=1)


def _rings(R: float, cfg: PhysicalConfig, k: int = 1) -> PotentialModel:
    """The current-ring pair of radius R at coupling alpha^(1+2k); k = 1 is
    the pair with standard fields."""
    return PotentialModel("scaling", cfg, RingParams(R), scaling_k=k)


def _ring_minima(R: float, cfg: PhysicalConfig) -> list[StationaryPoint]:
    """Interior minima of the k = 1 ring pair of radius R below the
    Compton length."""
    return find_local_minima(_rings(R, cfg), 1e-6, 1e-3, 40)


def criterion_4() -> CriterionResult:
    """Ring radius tuned to a zero-energy tight state, against the
    reference coefficient, minimizer location, and sign sensitivity."""
    cfg = PhysicalConfig()
    alpha2 = cfg.alpha**2
    R = _tuned_ml_radius()
    coeff = R / alpha2
    checks = [
        SubCheck(
            "tuned R/alpha^2",
            coeff,
            ZERO_ENERGY_RADIUS_COEFF,
            ">=10 significant digits",
            agrees_to_digits(coeff, ZERO_ENERGY_RADIUS_COEFF, 10),
        )
    ]
    minima = _ring_minima(R, cfg)
    r_star = next((p.r_star for p in minima if p.kind == "global_min"), math.nan)
    checks.append(_rel_check("tight minimizer r_star", r_star, 1.3e-5, 0.20))
    truncated = _ring_minima(0.4959783237 * alpha2, cfg)
    e_dropped = next((p.v_star for p in truncated if p.kind == "global_min"), math.nan)
    checks.append(
        SubCheck("truncated-coefficient minimum", e_dropped, 0.0, "strictly < 0", e_dropped < 0.0)
    )
    return CriterionResult(4, "ring radius tuning", tuple(checks))


def criterion_5() -> CriterionResult:
    """No second tightly bound state: the n = 2 curve at tuned parameters
    has no interior minimum below the Compton length."""
    minima = _ring_minima(_tuned_ml_radius(), PhysicalConfig(n=2))
    checks = (
        SubCheck("n=2 interior minima count", float(len(minima)), 0.0, "exactly 0", not minima),
    )
    return CriterionResult(5, "uniqueness for n >= 2", checks)


def criterion_6() -> CriterionResult:
    """Joint regulator/radius tuning under the flux constraint."""
    solution, point = tune_bltp(target_energy=0.0)
    checks = (
        _range_check("tuned kappa", solution.kappa, 1.8e5, *_BLTP_KAPPA_WINDOW),
        _range_check("tuned R", solution.R, 2.57e-5, *_BLTP_R_WINDOW),
        _abs_check("tight minimum energy", point.v_star, 0.0, 1e-6),
    )
    return CriterionResult(6, "flux-constrained tuning", checks)


def criterion_7() -> CriterionResult:
    """Zero-energy radius rule across the generalized couplings.

    Recomputes the tight-state minimum at R = coeff * alpha^(1+k) with
    coupling alpha^(1+2k) for k in {0,1,2,3}.  Only k = 1 lands within
    1e-4 of zero; see the module docstring for the numbers.
    """
    cfg = PhysicalConfig()
    checks = []
    for k in range(4):
        try:
            energy = _rings(scaled_ring_radius(k), cfg, k).tight_minimum().v_star
        except OptimizeError:
            energy = math.nan
        checks.append(_abs_check(f"k={k} tight minimum energy", energy, 0.0, 1e-4))
    return CriterionResult(7, "coupling scaling law", tuple(checks))


def criterion_8() -> CriterionResult:
    """Variational bound at the reference ring radius."""
    cfg = PhysicalConfig()
    results = variational.minimize_over_a(_VARIATIONAL_R, 1e-6, 1e-4, cfg)
    best = results[0]
    checks = [
        _rel_check("tight minimizer a_star", best.a_star, _VARIATIONAL_A, 0.02),
        _range_check("tight minimum energy", best.energy, 0.05, 0.04, 0.06),
        SubCheck(
            "upper bound",
            best.energy,
            _VARIATIONAL_BOUND,
            f"<= {_VARIATIONAL_BOUND} + 0.005",
            best.energy <= _VARIATIONAL_BOUND + 0.005,
        ),
    ]
    hydro = variational.minimize_over_a(_VARIATIONAL_R, 100.0, 1000.0, cfg)[0]
    expected = 2.0 - cfg.alpha**2 / 4.0
    checks.append(_abs_check("hydrogenic minimum energy", hydro.energy, expected, 1e-7))
    return CriterionResult(8, "variational bound", tuple(checks))


def _legendre_max_deviation() -> float:
    worst = 0.0
    for i in range(1, 101):
        k = i / 101
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        big_k, big_e = ellip_KE(k)
        big_kc, big_ec = ellip_KE(kp)
        legendre = big_k * big_ec + big_kc * big_e - big_k * big_kc
        worst = max(worst, abs(legendre - math.pi / 2.0))
    return worst


def _panel_rule(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """The package's GK15 rule on the one panel [lo, hi]."""
    table = PanelTable.build("polynomial", [lo, hi], np.ones_like, 1e-12, 1e-14)
    return table.integral(f(table.nodes))


def _exact_integral(coeffs: Sequence[float], lo: float, hi: float) -> float:
    """The integral over [lo, hi] of the polynomial with ``coeffs``."""
    anti = np.polyint(coeffs)
    return float(np.polyval(anti, hi) - np.polyval(anti, lo))


def _polynomial_quadrature_deviation() -> float:
    rng = random.Random(20260819)  # numpy.random would cost its import
    worst = 0.0
    for _ in range(10):
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(7)]
        d_coeffs = [rng.uniform(-2.0, 2.0) for _ in range(7)]
        a, mid, b = sorted(rng.uniform(-3.0, 3.0) for _ in range(3))
        if b - a < 0.5:
            b = a + 1.0
            mid = a + 0.4
        p, q = partial(np.polyval, coeffs), partial(np.polyval, d_coeffs)
        exact_p, exact_q = _exact_integral(coeffs, a, b), _exact_integral(d_coeffs, a, b)
        scale = max(1.0, abs(exact_p), abs(exact_q))
        combo = _panel_rule(lambda x: 2.0 * p(x) - 3.0 * q(x), a, b)
        worst = max(worst, abs(combo - (2.0 * exact_p - 3.0 * exact_q)) / scale)
        left = _panel_rule(p, a, mid)
        right = _panel_rule(p, mid, b)
        whole = _panel_rule(p, a, b)
        worst = max(worst, abs(left + right - whole) / scale)
    return worst


def criterion_9() -> CriterionResult:
    """Property suites: special-function identity, quadrature laws,
    kinetic lower bound, rest-energy asymptotics, regulator limit."""
    cfg = PhysicalConfig()
    checks = [
        _abs_check("Legendre relation worst deviation", _legendre_max_deviation(), 0.0, 1e-12),
        _abs_check(
            "quadrature linearity/additivity worst deviation",
            _polynomial_quadrature_deviation(),
            0.0,
            1e-12,
        ),
    ]

    kin_floor = min(
        variational.kinetic_expectation(a) for a in np.geomspace(1e-6, 1e4, 21)
    )
    checks.append(
        SubCheck("kinetic expectation floor", kin_floor, 2.0, ">= 2", kin_floor >= 2.0)
    )

    r_far = 1e6
    bltp = RingParams(2.57e-5, kappa=1.8e5)
    far_values = {
        "point charges": PotentialModel("coulomb", cfg)(r_far),
        "point dipoles": PotentialModel("coulomb-dipole", cfg)(r_far),
        "regulated rings": PotentialModel("ring-bltp", cfg, bltp)(r_far),
    }
    for k in range(4):
        far_values[f"scaling k={k}"] = _rings(scaled_ring_radius(k), cfg, k)(r_far)
    worst_far = max(abs(v - 2.0) for v in far_values.values())
    checks.append(_abs_check("rest-energy asymptote worst deviation", worst_far, 0.0, 1e-6))

    R = 2.57e-5
    kappa = 1e3 / R
    reg = PotentialModel("ring-bltp", cfg, RingParams(R, kappa))
    plain = _rings(R, cfg)
    worst_limit = max(
        abs(reg(r) - plain(r))
        for r in (5e-6, 2.57e-5, 1e-4, 274.0)
    )
    checks.append(_abs_check("regulator limit worst deviation", worst_limit, 0.0, 1e-6))
    return CriterionResult(9, "property suites", tuple(checks))


def criterion_10(prior: Sequence[CriterionResult]) -> CriterionResult:
    """The report itself must carry explicit computed-vs-reference deltas
    for the criteria that compare against published numerics (4, 6-8)."""
    numbered = {c.number: c for c in prior}
    count = 0
    for number in (4, 6, 7, 8):
        c = numbered.get(number)
        if c is not None and any(math.isfinite(s.delta) for s in c.checks):
            count += 1
    checks = (
        SubCheck(
            "criteria with explicit deltas",
            float(count),
            4.0,
            "all of 4, 6, 7, 8",
            count == 4,
        ),
    )
    return CriterionResult(10, "delta reporting", checks)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all() -> list[CriterionResult]:
    results = [fn() for fn in CRITERIA]
    results.append(criterion_10(results))
    return results


def as_table(results: Sequence[CriterionResult]) -> str:
    lines = []
    for c in results:
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(f"[{verdict}] criterion {c.number}: {c.title}")
        for s in c.checks:
            mark = "ok  " if s.passed else "FAIL"
            lines.append(
                f"    {mark} {s.name}: computed={s.computed:.12g} "
                f"expected={s.expected:.12g} delta={s.delta:.3e} ({s.tolerance})"
            )
    failed = [c.number for c in results if not c.passed]
    if failed:
        lines.append(f"result: {len(results) - len(failed)}/{len(results)} criteria passed; "
                     f"failing: {failed}")
    else:
        lines.append(f"result: all {len(results)} criteria passed")
    return "\n".join(lines)


def as_report_dict(results: Sequence[CriterionResult]) -> dict:
    return {"criteria": [asdict(c) for c in results], "all_passed": all(c.passed for c in results)}
