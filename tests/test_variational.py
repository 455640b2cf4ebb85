"""Variational bound: expectation values, limits, and minimization."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from positronium import variational
from positronium.models import PhysicalConfig, _R_RANGE
from positronium.optimize import Bracket, OptimizeError, minimize_scalar
from positronium.quadrature import QuadratureError
from positronium.variational import (
    energy_expectation,
    kinetic_expectation,
    minimize_over_a,
    potential_expectation,
)

CFG = PhysicalConfig()
R_REF = 2.661639e-5


# --- scipy oracle: QUADPACK over the same integrals, elliptic integrals from
# scipy.special, the magnetic bracket (2 - m)K - 2E from the identity
# (pi m^2/16) 2F1(3/2, 3/2; 3; m) where the direct form cancels


def _oracle_lines(r: float, R: float) -> tuple[float, float]:
    rho = r / (2.0 * R)
    m = 1.0 / (1.0 + rho * rho)
    if m > 0.5:
        big_k = special.ellipkm1(rho * rho / (1.0 + rho * rho))
        bracket = (2.0 - m) * big_k - 2.0 * special.ellipe(m)
    else:
        big_k = special.ellipk(m)
        bracket = math.pi * m * m / 16.0 * special.hyp2f1(1.5, 1.5, 3.0, m)
    electric = -(CFG.alpha / (math.pi * R)) * math.sqrt(m) * big_k
    magnetic = -(CFG.alpha**3 / (4.0 * math.pi**3 * R**3)) * math.hypot(1.0, rho) * bracket
    return electric, magnetic


def _oracle_integral(f, lo: float, hi: float) -> float:
    """QUADPACK decade by decade over [lo, hi], summed with fsum."""
    edges = np.geomspace(lo, hi, max(2, math.ceil(math.log10(hi / lo))) + 1)
    return math.fsum(
        integrate.quad(f, float(a), float(b), epsabs=0.0, epsrel=2e-14, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


def oracle_kinetic(a: float) -> float:
    def f(x):
        return x * x * math.sqrt(1.0 + (x / a) ** 2) / (1.0 + x * x) ** 4

    # below 1e-6 min(a, 1) and above 1e4 max(a, 1) lies < 1e-17 of the integral
    return 64.0 / math.pi * _oracle_integral(f, 1e-6 * min(a, 1.0), 1e4 * max(a, 1.0))


def oracle_potential(a: float, R: float) -> tuple[float, float]:
    """(<U_R>(a), the same integral of |electric| + |magnetic|)."""

    def weighted(s, combine):
        return s * s * math.exp(-2.0 * s) * combine(_oracle_lines(a * s, R))

    # s^2 |U| ~ s^2 ln(1/s) near 0, and exp(-120) is negligible beyond s = 60
    lo, hi = 1e-7 * min(1.0, 2.0 * R / a), 60.0
    value = _oracle_integral(lambda s: weighted(s, sum), lo, hi)
    size = _oracle_integral(lambda s: weighted(s, lambda lines: sum(map(abs, lines))), lo, hi)
    return 4.0 * value, 4.0 * size


def oracle_energy(a: float, R: float) -> float:
    return oracle_kinetic(a) + oracle_potential(a, R)[0]


def test_trial_state_norm_is_one():
    # (32/pi) int_0^inf x^2 (1+x^2)^-4 dx = 1, on the kinetic node table
    for a in (1e-7, 1.5726e-5, 1.0, 274.0):
        table = variational._kinetic_table(a, a)
        norm = table.integral(np.ones_like(table.nodes), a=a)
        assert 32.0 / math.pi * norm == pytest.approx(1.0, rel=1e-12)


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
    # the earlier adaptive GK15 path gave 274.063005, scipy's Brent over
    # QUADPACK gives 274.06358, and the GK15 node tables give 274.06302 to
    # 274.06353 depending on the window.  So compare with the scipy
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
    # the kinetic node table's ends underflowed to 0 or overflowed to inf
    for a in (5e-324, 1.7976931348623157e308):
        where = rf"kinetic expectation at a={re.escape(repr(a))}: "
        with pytest.raises(QuadratureError, match=where):
            kinetic_expectation(a)


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
    # one table for the window and one per a: the same integrals on other
    # nodes, so they agree to the rule's accuracy, not bit for bit
    for best in minimize_over_a(R_REF, 1e-6, 1e4, CFG):
        assert best.kinetic == pytest.approx(kinetic_expectation(best.a_star), rel=1e-14)
        assert best.potential == pytest.approx(
            potential_expectation(best.a_star, R_REF), rel=1e-14
        )


def test_error_estimate_names_the_scale_and_the_radius(monkeypatch):
    # one panel per decade is far too coarse: the Gauss-7 estimate trips
    monkeypatch.setattr(variational, "_PANELS_PER_DECADE", 1)
    with pytest.raises(QuadratureError, match=r"potential expectation for R=2\.661639e-05 at a="):
        potential_expectation(1e-5, R_REF)
    with pytest.raises(QuadratureError, match=r"kinetic expectation at a=0\.001: Gauss-7"):
        kinetic_expectation(1e-3)
    with pytest.raises(QuadratureError, match=r"at a=1e-06: Gauss-7 error estimate"):
        minimize_over_a(R_REF, 1e-6, 1e-4, CFG)
