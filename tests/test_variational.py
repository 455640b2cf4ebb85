"""Variational bound: expectation values, limits, and minimization."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from positronium import variational
from positronium.models import PhysicalConfig, _R_RANGE
from positronium.optimize import Bracket, OptimizeError, minimize_scalar
from positronium.quadrature import PanelTable, QuadratureError
from positronium.variational import (
    energy_expectation,
    kinetic_expectation,
    minimize_over_a,
    potential_expectation,
)

CFG = PhysicalConfig()
R_REF = 2.661639e-5


# --- scipy oracle: composite Gauss-Legendre over the same integrals,
# elliptic integrals from scipy.special, the magnetic bracket (2 - m)K - 2E
# from the identity (pi m^2/16) 2F1(3/2, 3/2; 3; m) where the direct form
# cancels


def _oracle_lines(r: np.ndarray, R: float) -> tuple[np.ndarray, np.ndarray]:
    rho = r / (2.0 * R)
    m = 1.0 / (1.0 + rho * rho)
    near = m > 0.5
    big_k = np.where(near, special.ellipkm1(rho * rho / (1.0 + rho * rho)), special.ellipk(m))
    bracket = np.where(
        near,
        (2.0 - m) * big_k - 2.0 * special.ellipe(m),
        math.pi * m * m / 16.0 * special.hyp2f1(1.5, 1.5, 3.0, m),
    )
    electric = -(CFG.alpha / (math.pi * R)) * np.sqrt(m) * big_k
    magnetic = -(CFG.alpha**3 / (4.0 * math.pi**3 * R**3)) * np.hypot(1.0, rho) * bracket
    return electric, magnetic


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _gauss_legendre(f, lo: float, hi: float, per_decade: int) -> tuple[float, float]:
    """(the integral of f, the integral of |f|) over [lo, hi] by 16-point
    Gauss-Legendre on log-spaced panels, summed with fsum."""
    edges = np.geomspace(lo, hi, math.ceil(per_decade * math.log10(hi / lo)) + 1)
    a, b = edges[:-1, None], edges[1:, None]
    terms = (0.5 * (b - a) * _GL_W * f(0.5 * (a + b) + 0.5 * (b - a) * _GL_X)).ravel()
    return math.fsum(terms), math.fsum(np.abs(terms))


def _oracle_integral(f, lo: float, hi: float) -> float:
    """The integral of the vectorized ``f`` over [lo, hi] at 24 panels a
    decade, which 12 a decade must match to 1e-15 of the integral of |f|."""
    coarse, _ = _gauss_legendre(f, lo, hi, 12)
    fine, size = _gauss_legendre(f, lo, hi, 24)
    assert abs(fine - coarse) <= 1e-15 * size, (coarse, fine)
    return fine


def oracle_kinetic(a: float) -> float:
    def f(x):
        return x * x * np.sqrt(1.0 + (x / a) ** 2) / (1.0 + x * x) ** 4

    # below 1e-6 min(a, 1) and above 1e4 max(a, 1) lies < 1e-17 of the integral
    return 64.0 / math.pi * _oracle_integral(f, 1e-6 * min(a, 1.0), 1e4 * max(a, 1.0))


def oracle_potential(a: float, R: float) -> tuple[float, float]:
    """(<U_R>(a), the same integral of |electric| + |magnetic|)."""

    def weighted(s, combine):
        electric, magnetic = _oracle_lines(a * s, R)
        return s * s * np.exp(-2.0 * s) * combine(electric, magnetic)

    # s^2 |U| ~ s^2 ln(1/s) near 0, and exp(-120) is negligible beyond s = 60
    lo, hi = 1e-7 * min(1.0, 2.0 * R / a), 60.0
    value = _oracle_integral(lambda s: weighted(s, np.add), lo, hi)
    size = _oracle_integral(lambda s: weighted(s, lambda e, m: np.abs(e) + np.abs(m)), lo, hi)
    return 4.0 * value, 4.0 * size


def oracle_energy(a: float, R: float) -> float:
    return oracle_kinetic(a) + oracle_potential(a, R)[0]


def mpmath_kinetic(a: float) -> mpmath.mpf:
    """<T>(a) = (64/pi) int_0^1 s^2 (1 - s^2) sqrt(1 + beta s^2) ds, beta =
    1/a^2 - 1, by 50-digit mpmath quadrature."""
    with mpmath.workdps(50):
        b = 1 / mpmath.mpf(a)
        beta = (b - 1) * (b + 1)
        integral = mpmath.quad(lambda s: s * s * (1 - s * s) * mpmath.sqrt(1 + beta * s * s), [0, 1])
        return 64 / mpmath.pi * integral


def assert_kinetic_matches_mpmath(a: float) -> None:
    exact = mpmath_kinetic(a)
    with mpmath.workdps(50):
        assert abs(kinetic_expectation(a) - exact) <= 1e-15 * exact, a


def test_trial_state_norm_is_one(monkeypatch):
    # (4/a^3) int_0^inf r^2 exp(-2r/a) dr = 1: <U_R> for U_R = 1, on the
    # potential's node table; in momentum space the norm is half of <T> at
    # b = 1/a = 0, exactly 2 (test_kinetic_is_finite_wherever_its_value_is)
    monkeypatch.setattr(variational, "_ring_lines",
                        lambda R, e, m, r, hypot: (np.ones_like(r), np.zeros_like(r)))
    for a in (1e-7, 1.5726e-5, 1.0, 274.0):
        assert potential_expectation(a, R_REF) == pytest.approx(1.0, rel=1e-12)


def test_kinetic_frozen_value():
    assert kinetic_expectation(1.5726e-5) == pytest.approx(107951.97295773825, rel=1e-11)


def test_kinetic_ultrarelativistic_limit():
    a = 1e-7
    assert kinetic_expectation(a) == pytest.approx(16.0 / (3.0 * math.pi * a), rel=1e-10)


def test_kinetic_nonrelativistic_expansion():
    # <T> = 2 + 1/a^2 - 5/(4 a^4) + O(a^-6)
    a = 500.0
    expansion = 2.0 + 1.0 / a**2 - 1.25 / a**4
    assert kinetic_expectation(a) - expansion == pytest.approx(0.0, abs=1e-11)


def test_kinetic_never_below_rest_energy():
    for a in np.geomspace(1e-6, 1e4, 21):
        assert kinetic_expectation(float(a)) >= 2.0


def test_kinetic_is_monotone_decreasing():
    grid = np.geomspace(1e-6, 1e3, 19)
    values = [kinetic_expectation(float(a)) for a in grid]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_potential_frozen_value():
    assert potential_expectation(1.5726e-5, R_REF) == pytest.approx(
        -107968.45067881384, rel=1e-11
    )


def test_potential_reaches_coulomb_regime():
    # for a >> R, <U_R> -> -alpha <1/q> = -alpha/a (exact for the 1s state)
    a = 274.0
    assert potential_expectation(a, R_REF) == pytest.approx(-CFG.alpha / a, rel=1e-6)


def test_potential_is_negative():
    for a in np.geomspace(1e-6, 1e3, 10):
        assert potential_expectation(float(a), R_REF) < 0.0


def test_energy_decomposition_and_frozen_value():
    a = 1.5726e-5
    kin = kinetic_expectation(a)
    pot = potential_expectation(a, R_REF)
    assert energy_expectation(a, R_REF) == kin + pot
    # value is a ~16 cancellation of two ~1e5 terms; quote it absolutely
    assert energy_expectation(a, R_REF) == pytest.approx(-16.477721075585578, abs=1e-6)


def test_tight_minimum_location_and_depth():
    results = minimize_over_a(R_REF, 1e-7, 1e-3, CFG)
    assert len(results) == 1
    best = results[0]
    assert best.a_star == pytest.approx(1.5712900609407798e-05, rel=1e-6)
    assert best.energy == pytest.approx(-16.4949754900299, abs=1e-4)
    assert best.energy == best.kinetic + best.potential
    assert best.R == R_REF


def test_both_regimes_found_in_a_wide_window():
    results = minimize_over_a(R_REF, 1e-6, 1e4, CFG)
    assert len(results) == 2
    tight, hydrogenic = results  # sorted by energy, best bound first
    assert tight.a_star == pytest.approx(1.57129e-05, rel=1e-4)
    assert tight.energy < 0.0
    assert hydrogenic.a_star == pytest.approx(274.063, rel=1e-4)
    assert hydrogenic.energy == pytest.approx(2.0 - CFG.alpha**2 / 4.0, abs=1e-6)


def test_hydrogenic_refinement():
    p = minimize_scalar(
        lambda a: energy_expectation(a, R_REF, CFG), Bracket(100.0, 274.0, 1000.0)
    )
    # Double precision fixes this minimizer only to about 1e-5 relative:
    # E(a*) ~ 2 - alpha^2/4 sits where ulp(2) = 4.4e-16, and
    # E - E* ~ 1.5e-5 (da/a)^2, so moving a by 1e-5 relative changes E by
    # only ~1.5e-15 (~3 ulp), and a few ulp of rounding in E move the
    # minimizer by several 1e-6.  Valid evaluations already spread by 2e-6:
    # the earlier adaptive GK15 path gave 274.063005, scipy's Brent gave
    # 274.06358 over QUADPACK and gives 274.06327 over the Gauss-Legendre
    # oracle, and the GK15 node tables give 274.06302 to 274.06353
    # depending on the window.  So compare with the scipy
    # minimizer at 2e-5, not with a pinned value.
    oracle = optimize.minimize_scalar(
        lambda a: oracle_energy(a, R_REF), bracket=(100.0, 274.0, 1000.0), method="brent"
    )
    assert p.r_star == pytest.approx(oracle.x, rel=2e-5)
    assert p.v_star == pytest.approx(2.0 - CFG.alpha**2 / 4.0, abs=1e-7)


def test_every_sample_is_an_upper_bound_for_the_window_minimum():
    bound = minimize_over_a(R_REF, 1e-7, 1e-3, CFG)[0].energy
    for a in np.geomspace(1e-7, 1e-3, 13):
        assert energy_expectation(float(a), R_REF) >= bound - 1e-9 * abs(bound)


def test_minimum_is_stable_under_grid_refinement():
    coarse = minimize_over_a(R_REF, 1e-6, 1e-4, CFG, points_per_decade=40)[0]
    fine = minimize_over_a(R_REF, 1e-6, 1e-4, CFG, points_per_decade=80)[0]
    assert coarse.a_star == pytest.approx(fine.a_star, rel=1e-7)
    assert coarse.energy == pytest.approx(fine.energy, abs=1e-7)


def test_energy_is_continuous_in_the_scale():
    a0 = 2e-5
    slope = (
        energy_expectation(a0 * 1.001, R_REF) - energy_expectation(a0 * 0.999, R_REF)
    ) / (0.002 * a0)
    step = energy_expectation(a0 * (1.0 + 1e-6), R_REF) - energy_expectation(a0, R_REF)
    assert abs(step) <= abs(slope) * a0 * 2e-6 + 1e-7


def test_trial_scale_must_be_positive():
    for a in (0.0, -1.0):
        with pytest.raises(ValueError, match="trial scale a must be positive"):
            kinetic_expectation(a)
        with pytest.raises(ValueError, match="trial scale a must be positive"):
            energy_expectation(a, R_REF)


def test_trial_scales_whose_cube_is_not_a_normal_float_name_a():
    # the prefactor 4/a^3 divided by zero below ~1e-108, overflowed in a**3
    # above ~5.6e102, and was inf (energy nan) in between
    lo, hi = _R_RANGE
    for a in (math.nextafter(lo, 0.0), 1e-103, 1e-120, math.nextafter(hi, math.inf), 6e102):
        where = rf"potential expectation .* at a={re.escape(repr(a))}: "
        with pytest.raises(QuadratureError, match=where):
            potential_expectation(a, 2.6e-5)
    with pytest.raises(QuadratureError, match=r" at a=1e-120: "):
        minimize_over_a(2.6e-5, 1e-120, 1e-100, CFG)
    for a in _R_RANGE:
        assert math.isfinite(energy_expectation(a, 2.6e-5))


def test_kinetic_is_finite_wherever_its_value_is():
    # the kinetic node table's nodes squared past the float range for a
    # above ~1.3e150 or below ~7.5e-151 ("non-finite integrand"); the closed
    # form is exact there: 16/(3 pi a) at small a, 2 at large a
    for a in (1e-200, 1e200, 1e300, 1.7976931348623157e308):
        assert_kinetic_matches_mpmath(a)
    assert kinetic_expectation(1.7976931348623157e308) == 2.0
    # below ~9.4e-309 <T> itself exceeds the largest float
    for a in (9e-309, 5e-324):
        where = rf"kinetic expectation at a={re.escape(repr(a))}: "
        with pytest.raises(QuadratureError, match=where):
            kinetic_expectation(a)


# where _kinetic changes branch: acosh form | series in 1 - a^2 | series in
# 1 - b^2 | acos form
SEAMS = (variational._SQRT_HALF, 1.0, variational._SQRT_TWO)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-307.0, 308.0).map(lambda log_a: 10.0**log_a))
@example(a=1e-307)
@example(a=1.7976931348623157e308)
@example(a=0.8164)  # just past beta = 1/2, where a seam there lost 9.7e-16
@example(a=0.9)  # inside each series' range, where the closed forms cancel
@example(a=1.2)
@example(a=math.nextafter(SEAMS[0], 0.0))
@example(a=SEAMS[0])
@example(a=math.nextafter(SEAMS[0], math.inf))
@example(a=math.nextafter(1.0, 0.0))
@example(a=1.0)
@example(a=math.nextafter(1.0, math.inf))
@example(a=math.nextafter(SEAMS[2], 0.0))
@example(a=SEAMS[2])
@example(a=math.nextafter(SEAMS[2], math.inf))
def test_kinetic_closed_form_against_mpmath(a):
    assert_kinetic_matches_mpmath(a)


@pytest.mark.parametrize("seam", SEAMS)
def test_kinetic_decreases_across_each_seam(seam):
    # an ulp either side, and 2^-40 of the seam apart, where <T> changes by
    # about 1e-13: far more than the error of either branch
    grid = [seam * (1.0 + k * 2.0**-40) for k in range(-3, 4)]
    grid[3:4] = [math.nextafter(seam, 0.0), seam, math.nextafter(seam, math.inf)]
    values = [kinetic_expectation(a) for a in grid]
    assert all(x >= y for x, y in zip(values, values[1:])), values
    assert all(x > y for x, y in zip(values[::3], values[3::3])), values


def test_one_node_table_per_minimization(monkeypatch):
    # the work count behind minimize_over_a's speed: its kinetic node table
    # is gone, so a window builds the potential's table and nothing else
    built = []
    build = PanelTable.build.__func__
    monkeypatch.setattr(PanelTable, "build", classmethod(
        lambda cls, what, *args: built.append(what) or build(cls, what, *args)))
    for window in ((1e-6, 1e-4), (1.0, 1e4)):
        built.clear()
        minimize_over_a(R_REF, *window, CFG)
        assert built == [f"potential expectation for R={R_REF!r}"]
    built.clear()
    for a in (1e-6, 0.9, 1.0, 1.2, 274.0):
        kinetic_expectation(a)
    assert built == []


def test_window_validation_and_empty_window():
    with pytest.raises(ValueError):
        minimize_over_a(R_REF, 1e-3, 1e-7, CFG)
    with pytest.raises(OptimizeError):
        # beyond the hydrogenic minimum E(a) is monotone: nothing to find
        minimize_over_a(R_REF, 2e3, 1e4, CFG)


# --- the node tables against the scipy oracle over the whole trial-scale
# domain; U is compared relative to the integral of |electric| + |magnetic|,
# the size of the terms that cancel in E(a)

ORACLE_A = [float(a) for a in np.geomspace(1e-7, 1e4, 25)]
ORACLE_R = (2.661639e-5, 2.57e-5)


def _assert_matches_oracle(a: float, R: float) -> None:
    t = oracle_kinetic(a)
    u, size = oracle_potential(a, R)
    assert kinetic_expectation(a) == pytest.approx(t, rel=1e-13, abs=0.0), a
    assert abs(potential_expectation(a, R) - u) <= 1e-13 * size, (a, R)


@pytest.mark.parametrize("R", ORACLE_R)
def test_expectations_against_quadpack_oracle(R):
    for a in ORACLE_A:
        _assert_matches_oracle(a, R)


@settings(max_examples=20, deadline=None)
@given(log_a=st.floats(min_value=-7.0, max_value=4.0), R=st.floats(2.57e-5, 2.661639e-5))
def test_expectations_property_against_quadpack_oracle(log_a, R):
    _assert_matches_oracle(10.0**log_a, R)


def test_scan_table_matches_the_single_scale_values():
    # <T> is the closed form in both, bit for bit; <U_R> takes one table for
    # the window and one per a: the same integral on other nodes, so they
    # agree to the rule's accuracy, not bit for bit
    for best in minimize_over_a(R_REF, 1e-6, 1e4, CFG):
        assert best.kinetic == kinetic_expectation(best.a_star)
        assert best.potential == pytest.approx(
            potential_expectation(best.a_star, R_REF), rel=1e-14
        )


def test_error_estimate_names_the_scale_and_the_radius(monkeypatch):
    # one panel per decade is far too coarse: the Gauss-7 estimate trips;
    # <T> is in closed form, with no rule to trip
    kinetic = kinetic_expectation(1e-3)
    monkeypatch.setattr(variational, "_PANELS_PER_DECADE", 1)
    with pytest.raises(QuadratureError, match=r"potential expectation for R=2\.661639e-05 at a="):
        potential_expectation(1e-5, R_REF)
    assert kinetic_expectation(1e-3) == kinetic
    with pytest.raises(QuadratureError, match=r"at a=1e-06: Gauss-7 error estimate"):
        minimize_over_a(R_REF, 1e-6, 1e-4, CFG)
