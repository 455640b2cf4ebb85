"""Flux constraint: the G integral, radius solves, and joint tuning."""

import dataclasses
import math

import pytest

from positronium.flux import (
    FluxError,
    FluxSolution,
    flux_constraint_integral,
    flux_rhs,
    solve_R_given_kappa,
    tune_bltp,
)
from positronium.models import ALPHA_FS, BIOT_SAVART_WINDOW


def _series_G(u: float) -> float:
    # independent evaluation: expand (1 - exp(-2u sin phi))/sin phi and use
    # the closed form of int_0^pi cos(2 phi) sin^p phi dphi via Gamma
    total = 0.0
    factorial = 2.0  # m!
    for m in range(2, 160):
        s = math.sqrt(math.pi) * math.gamma(m / 2.0) / math.gamma((m + 1) / 2.0)
        term = (-1.0) ** m * (2.0 * u) ** m * (m - 1.0) * s / (factorial * (m + 1.0))
        total += term
        if abs(term) < 1e-19 * max(abs(total), 1e-3):
            break
        factorial *= m + 1.0
    return total


@pytest.mark.parametrize("u", [0.1, 0.5, 1.0, 2.5, 4.626])
def test_constraint_integral_against_series(u):
    assert flux_constraint_integral(u) == pytest.approx(_series_G(u), rel=1e-10)


def test_constraint_integral_frozen_value():
    assert flux_constraint_integral(4.626) == pytest.approx(3.026733917023094, rel=1e-12)


def test_constraint_integral_small_argument():
    # G(u) = (4/3) u^2 (1 + O(u))
    u = 1e-3
    assert flux_constraint_integral(u) / (4.0 * u * u / 3.0) == pytest.approx(1.0, abs=2e-3)


def test_constraint_integral_edge_cases():
    assert flux_constraint_integral(0.0) == 0.0
    with pytest.raises(ValueError):
        flux_constraint_integral(-0.1)


def test_rhs_depends_only_on_the_product():
    kappa, R = 1.8e5, 2.5e-5
    assert flux_rhs(4.0 * kappa, R / 4.0) == flux_rhs(kappa, R)
    with pytest.raises(ValueError):
        flux_rhs(-1.0, R)
    with pytest.raises(ValueError):
        flux_rhs(kappa, 0.0)


def test_solve_frozen_reference_point():
    sol = solve_R_given_kappa(1.8e5)
    assert sol.R == pytest.approx(2.5568727271277648e-05, rel=1e-10)
    assert abs(sol.residual) <= 1e-12 * sol.R
    # self-consistency, checked through the public rhs
    assert flux_rhs(sol.kappa, sol.R) == pytest.approx(sol.R, rel=1e-12)


@pytest.mark.parametrize(
    "kappa,expected",
    [
        (1.6e5, 1.8890496520597922e-05),
        (3.0e5, 4.261364493502194e-05),
    ],
)
def test_solve_feasible_sweep(kappa, expected):
    sol = solve_R_given_kappa(kappa)
    assert sol.R == pytest.approx(expected, rel=1e-9)


def test_outer_branch_radius_grows_with_kappa():
    radii = [solve_R_given_kappa(k).R for k in (1.6e5, 1.8e5, 2.2e5, 3.0e5)]
    assert all(a < b for a, b in zip(radii, radii[1:]))


@pytest.mark.parametrize("kappa", [1e4, 1e5, 1.5e5])
def test_solve_below_threshold_raises(kappa):
    # kappa(u) has a floor ~1.54e5: below it the constraint is unsolvable
    with pytest.raises(FluxError):
        solve_R_given_kappa(kappa)


def test_tune_bltp_returns_plain_floats():
    solution, point = tune_bltp(target_energy=0.0)
    values = [getattr(solution, f.name) for f in dataclasses.fields(solution)]
    values += [point.r_star, point.v_star, *dataclasses.astuple(point.bracket)]
    assert all(type(x) is float for x in values), values


def test_solution_invariants_are_enforced():
    with pytest.raises(ValueError):
        FluxSolution(kappa=1.8e5, R=2.5e-5, residual=1e-10)
    with pytest.raises(ValueError):
        FluxSolution(kappa=-1.0, R=2.5e-5, residual=0.0)
    with pytest.raises(ValueError):
        FluxSolution(kappa=1.8e5, R=0.0, residual=0.0)


def test_tune_bltp_reference_configuration():
    solution, point = tune_bltp(target_energy=0.0)
    assert solution.kappa == pytest.approx(1.8052024923e5, rel=1e-6)
    assert solution.R == pytest.approx(2.5698078287e-05, rel=1e-6)
    assert abs(solution.residual) <= 1e-12 * solution.R
    assert abs(point.v_star) <= 1e-8
    assert point.r_star == pytest.approx(1.713201998833867e-05, rel=1e-4)
    lo, hi = BIOT_SAVART_WINDOW
    assert lo < point.r_star < hi
    # the constraint itself holds at the tuned pair
    rhs = ALPHA_FS**2 / (2.0 * math.pi) * flux_constraint_integral(solution.kappa * solution.R)
    assert rhs == pytest.approx(solution.R, rel=1e-12)
