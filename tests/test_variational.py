"""Variational bound: expectation values, limits, and minimization."""

import math

import numpy as np
import pytest

from positronium.models import PhysicalConfig
from positronium.optimize import Bracket, OptimizeError, minimize_scalar
from positronium.quadrature import Integral, integrate_semi_infinite
from positronium.variational import (
    TrialScale,
    energy_expectation,
    kinetic_expectation,
    minimize_over_a,
    potential_expectation,
)

CFG = PhysicalConfig()
R_REF = 2.661639e-5


def test_trial_state_norm_is_one():
    res = integrate_semi_infinite(
        Integral(lambda x: x * x / (1.0 + x * x) ** 4, 0.0, math.inf, 1e-13, 0.0)
    )
    assert 32.0 / math.pi * res.value == pytest.approx(1.0, rel=1e-12)


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
    assert p.r_star == pytest.approx(274.06300503013523, rel=1e-8)
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


def test_trial_scale_wrapper():
    assert kinetic_expectation(TrialScale(2.0)) == kinetic_expectation(2.0)
    with pytest.raises(ValueError):
        TrialScale(0.0)
    with pytest.raises(ValueError):
        kinetic_expectation(-1.0)


def test_window_validation_and_empty_window():
    with pytest.raises(ValueError):
        minimize_over_a(R_REF, 1e-3, 1e-7, CFG)
    with pytest.raises(OptimizeError):
        # beyond the hydrogenic minimum E(a) is monotone: nothing to find
        minimize_over_a(R_REF, 2e3, 1e4, CFG)
