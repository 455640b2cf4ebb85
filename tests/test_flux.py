"""Flux constraint: the G integral, radius solves, and joint tuning."""

import dataclasses
import json
import math
import re
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from positronium import cli, flux, models
from positronium.cli import _BIOT_SAVART_WINDOW
from positronium.flux import (
    FluxError,
    FluxSolution,
    flux_constraint_integral,
    flux_rhs,
    solve_R_given_kappa,
    tune_bltp,
)
from positronium.models import (
    ALPHA_FS,
    PhysicalConfig,
    PotentialModel,
    RingParams,
    _bltp_integrals,
)
from positronium.optimize import OptimizeError
from positronium.quadrature import QuadratureError


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


_PREF = ALPHA_FS**2 / (2.0 * math.pi)


def _quadpack_G(u: float) -> float:
    def kernel(phi: float) -> float:
        t = math.sin(phi)
        return 2.0 * u if t == 0.0 else math.cos(2.0 * phi) * -math.expm1(-2.0 * u * t) / t

    return integrate.quad(kernel, 0.0, math.pi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


def _mpmath_G(u: float) -> float:
    """G(u) to 40 digits: [0, pi/2] (the integrand is even about pi/2),
    split at 1e-2/u and every tenfold step up from it."""
    with mpmath.workdps(40):
        u = mpmath.mpf(u)

        def kernel(phi):
            return mpmath.cos(2 * phi) * -mpmath.expm1(-2 * u * mpmath.sin(phi)) / mpmath.sin(phi)

        points = [mpmath.mpf(0)]
        x = 1 / (100 * u)
        while x < mpmath.pi / 2:
            points.append(x)
            x *= 10
        return float(2 * mpmath.quad(kernel, points + [mpmath.pi / 2]))


@pytest.fixture(scope="module")
def oracle_threshold():
    """(u_min, kappa_min) by scipy: the minimum of kappa(u) = u / (pref G(u))."""
    res = optimize.minimize_scalar(
        lambda u: u / (_PREF * _quadpack_G(u)),
        bounds=(1.5, 3.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x), float(res.fun)


@pytest.fixture(scope="module")
def kappa_min():
    """The threshold the solver reports when it refuses a kappa."""
    with pytest.raises(FluxError) as info:
        solve_R_given_kappa(1e5)
    return info.value.kappa_min


@pytest.mark.parametrize("u", [0.1, 0.5, 1.0, 2.5, 4.626])
def test_constraint_integral_against_series(u):
    assert flux_constraint_integral(u) == pytest.approx(_series_G(u), rel=1e-10)


@pytest.mark.parametrize(
    "u", [1e-6, 1e-4, 1e-2, 0.03, 0.1, 1.0, 4.6, 72.0, 1e4, 1e6, 1e8, 1e10, 1e15]
)
def test_constraint_integral_against_mpmath(u):
    # below u = 1 the integrand's cos(2 phi) cancels against G ~ 4u^2/3,
    # which costs about 1e-15/u relative; from u ~ 1e4 on, G needs the
    # boundary layer of width 1/u at phi = 0 resolved
    rel = 1e-15 / min(u, 1.0)
    assert flux_constraint_integral(u) == pytest.approx(_mpmath_G(u), rel=rel, abs=0.0)


@pytest.mark.parametrize("u", [1e-3, 0.5, 2.0811, 4.626, 72.0, 1e6, 1e300])
def test_constraint_integral_is_the_bopp_cos2_integral_at_contact(u):
    # G(u) is the Bopp pair's I2 at r/2R = 0 (5e-324 / 2 rounds to 0) and
    # scale 2 kappa R = 2u: the same table, the same kernel, bit for bit
    assert flux_constraint_integral(u) == _bltp_integrals(1.0, u, 5e-324)[1]


def test_constraint_integral_estimate_failure_names_u(monkeypatch, fresh_bltp_tables):
    # no rule meets a zero tolerance: the Gauss-7 estimate is never exactly 0
    monkeypatch.setattr(models, "_BLTP_REL_TOL", 0.0)
    monkeypatch.setattr(models, "_BLTP_ABS_TOL", 0.0)
    with pytest.raises(
        QuadratureError, match=r"^Bopp angular quadrature at u=4\.626: Gauss-7 error estimate"
    ):
        flux_constraint_integral(4.626)


def test_tune_bltp_shares_the_bopp_tables(fresh_bltp_tables):
    # G along the u scan and the tight minima of its rings take their
    # angular tables from one cache: three tables in all
    tune_bltp()
    assert models._bltp_table.cache_info().misses <= 3


def test_constraint_integral_frozen_value():
    assert flux_constraint_integral(4.626) == pytest.approx(3.026733917023094, rel=1e-12)


def test_constraint_integral_small_argument():
    # G(u) = (4/3) u^2 (1 + O(u))
    u = 1e-3
    assert flux_constraint_integral(u) / (4.0 * u * u / 3.0) == pytest.approx(1.0, abs=2e-3)


def test_constraint_integral_edge_cases():
    assert flux_constraint_integral(0.0) == 0.0
    for u in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            flux_constraint_integral(u)


def test_constraint_integral_overflow_warns_nothing():
    # above half the largest float the integrand's endpoint value 2u
    # overflows; the QuadratureError names u, and numpy warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"u=9e\+307: the endpoint value 2u overflows"):
            flux_constraint_integral(9e307)


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


@pytest.mark.parametrize("kappa", [1.545e5, 1.55e5])
def test_solve_just_above_threshold(kappa, oracle_threshold):
    # both lie in (kappa_min, 1.006 kappa_min), where the constraint is
    # feasible and a solver must not report it infeasible
    u_min, _ = oracle_threshold
    sol = solve_R_given_kappa(kappa)
    assert sol.kappa * sol.R > u_min
    assert abs(sol.R - _PREF * _quadpack_G(kappa * sol.R)) <= 1e-12 * sol.R


@pytest.mark.parametrize("kappa", [1e10, 1e12])
def test_solve_at_large_kappa_meets_the_constraint(kappa):
    # R = pref G(kappa R) to the FluxSolution contract, with G from mpmath,
    # so the solver's own residual cannot hide an error in its G
    sol = solve_R_given_kappa(kappa)
    assert abs(sol.R - _PREF * _mpmath_G(kappa * sol.R)) <= 1e-12 * sol.R


@pytest.mark.parametrize("kappa", [1e15, 1e300])
def test_solve_at_extreme_kappa_returns_a_solution(kappa):
    sol = solve_R_given_kappa(kappa)
    assert sol.kappa == kappa
    assert abs(sol.residual) <= 1e-12 * sol.R
    assert sol.R == pytest.approx(_PREF * flux_constraint_integral(kappa * sol.R), rel=1e-12)


def test_solve_names_kappa_where_kappa_of_u_overflows():
    # only at the largest float itself does kappa(u) = u / R(u) jump from
    # below kappa straight to inf, so no float u brackets the root
    with pytest.raises(FluxError, match=r"kappa=1\.7976931348623157e\+308: kappa\(u\) overflows"):
        solve_R_given_kappa(1.7976931348623157e308)


@pytest.mark.parametrize("alpha", [5.29e-321, 1e-170])
def test_no_kappa_solves_where_alpha_squared_underflows(alpha):
    # R = (alpha^2/2pi) G(u) is 0 for every u, so kappa_min = u_min/0 is inf;
    # it divided by zero (and tune_bltp's kappa = u/R with it)
    with pytest.raises(FluxError, match=r"kappa_min=inf") as err:
        solve_R_given_kappa(7.9, alpha)
    assert err.value.kappa_min == math.inf
    with pytest.raises(ValueError, match=r"ring radius R must be positive; got 0\.0"):
        tune_bltp(alpha)


def test_cli_solves_at_large_kappa(capsys):
    code = cli.main(["flux-solve", "--kappa", "1e12", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["results"]["R"] > 0.0


def test_cli_solves_just_above_threshold(capsys):
    code = cli.main(["flux-solve", "--kappa", "1.55e5", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["results"]["R"] > 0.0


def test_threshold_matches_scipy_oracle(kappa_min, oracle_threshold):
    _, oracle_kappa_min = oracle_threshold
    assert kappa_min == pytest.approx(oracle_kappa_min, rel=1e-9)


def test_infeasible_error_carries_the_threshold(kappa_min):
    assert kappa_min == pytest.approx(154328.82387, rel=1e-9)
    with pytest.raises(FluxError, match=f"kappa_min={kappa_min:.10g}"):
        solve_R_given_kappa(1.5e5)


def test_solution_is_continuous_at_the_threshold(kappa_min, oracle_threshold):
    u_min, _ = oracle_threshold
    sol = solve_R_given_kappa(kappa_min * (1.0 + 1e-9))
    assert sol.R == pytest.approx(u_min / kappa_min, rel=1e-3)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_outer_branch_property(kappa_min, oracle_threshold, s, t):
    # kappa log-uniform over (kappa_min (1 + 1e-9), 1e6)
    lo = math.log(kappa_min * (1.0 + 1e-9))
    span = math.log(1e6) - lo
    kappas = sorted(math.exp(lo + span * x) for x in (s, t))
    sols = [solve_R_given_kappa(k) for k in kappas]
    u_min, _ = oracle_threshold
    for sol in sols:
        assert abs(sol.residual) <= 1e-12 * sol.R
        assert sol.kappa * sol.R >= u_min
    # kappa(u) carries roundoff of order 1e-15, so R is ordered only for
    # kappas farther apart than that
    if kappas[1] > kappas[0] * (1.0 + 1e-12):
        assert sols[0].R < sols[1].R


# Brent's steps depend on the last bits of G, so a count at one kappa pins
# its path rather than its cost: over 200 log-spaced kappa in (1.56e5, 1e6)
# a solve takes 10.35 G on average, and at most 14
@pytest.mark.parametrize("kappa,g_calls", [(1.8e5, 12), (1e6, 13)])
def test_solve_reuses_the_known_ends_of_the_bracket(monkeypatch, kappa, g_calls):
    # find_root evaluates kappa(u) first at u_min, whose G the threshold
    # search has cached, and at the last doubled u_hi, which the bracket
    # search has just evaluated: two of its evaluations cost no G
    flux._threshold()  # the once-per-process search stays outside the count
    counts = {"G": 0, "G in root": 0, "root evals": 0}
    in_root = False
    G, root = flux.flux_constraint_integral, flux.find_root

    def counted_G(u):
        counts["G"] += 1
        counts["G in root"] += in_root
        return G(u)

    def counted_root(g, lo, hi):
        nonlocal in_root

        def counted_g(u):
            counts["root evals"] += 1
            return g(u)

        in_root = True
        try:
            return root(counted_g, lo, hi)
        finally:
            in_root = False

    monkeypatch.setattr(flux, "flux_constraint_integral", counted_G)
    monkeypatch.setattr(flux, "find_root", counted_root)
    solve_R_given_kappa(kappa)
    assert counts["G in root"] == counts["root evals"] - 2
    assert counts["G"] == g_calls  # 14 and 15 when both ends were evaluated again


def test_tune_bltp_returns_plain_floats():
    solution, point = tune_bltp(target_energy=0.0)
    values = [getattr(solution, f.name) for f in dataclasses.fields(solution)]
    values += [point.r_star, point.v_star, *dataclasses.astuple(point.bracket)]
    assert all(type(x) is float for x in values), values


def test_closed_tight_well_names_the_window_and_the_ring():
    # on the constraint at u = kappa R = 8 the regulated tight well has closed
    R, kappa = 3.472926418068485e-05, 230353.2824185002
    where = rf"in \(.+\) at R={re.escape(repr(R))}, kappa={re.escape(repr(kappa))}"
    with pytest.raises(OptimizeError, match=where):
        PotentialModel("ring-bltp", PhysicalConfig(), RingParams(R, kappa)).tight_minimum()


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
    lo, hi = _BIOT_SAVART_WINDOW
    assert lo < point.r_star < hi
    # the constraint itself holds at the tuned pair
    rhs = ALPHA_FS**2 / (2.0 * math.pi) * flux_constraint_integral(solution.kappa * solution.R)
    assert rhs == pytest.approx(solution.R, rel=1e-12)


@pytest.mark.parametrize("target,calls", [(0.0, 20), (-1e-3, 20), (1e-3, 21)])
def test_tune_bltp_stops_at_the_first_crossing(monkeypatch, target, calls):
    # the u scan stops at its first sign change (scan point 14 of 25 at
    # target 0) and Brent reuses both ends of that bracket; the reported
    # minimum is the one of the root's own ring, which Brent has evaluated.
    # Scanning all 25 points and re-evaluating the ends took 35 calls at
    # target 0, and a separate reported minimum one more.  Brent's steps
    # depend on the last bits of G, as the solve's do: 20 or 21 of them.
    tight_minimum = PotentialModel.tight_minimum
    counted = []

    def counting(self, *args, **kwargs):
        counted.append(self.params)
        return tight_minimum(self, *args, **kwargs)

    monkeypatch.setattr(PotentialModel, "tight_minimum", counting)
    solution, point = tune_bltp(target_energy=target)
    assert len(counted) == len(set(counted)) == calls  # every ring once
    assert abs(point.v_star - target) <= 1e-8


def test_tune_bltp_without_crossing_lists_the_whole_scan():
    # the tight well climbs to about +2e4 before it closes near u = 6.3,
    # so a target of 1e5 has no crossing and the error reports every one
    # of the 25 scan points, closed wells included
    with pytest.raises(FluxError, match="no crossing of target_energy=100000.0") as info:
        tune_bltp(target_energy=1e5)
    assert "well closed" in str(info.value)
    listed = re.findall(r"u=([0-9.]+):", str(info.value))
    assert [float(u) for u in listed] == [
        pytest.approx(2.5 * 3.2 ** (i / 24.0), rel=1e-3) for i in range(25)
    ]
    # and the range of the tight minimum where the well is open: the gaps
    # listed, plus the target, from about -2.2e5 up to +2.1e4
    energies = [float(g) + 1e5 for g in re.findall(r"u=[0-9.]+: (-?[0-9.e+]+)", str(info.value))]
    assert len(energies) == 19
    low, high = re.search(r"energy spans \[(\S+), (\S+)\] where the well is open",
                          str(info.value)).groups()
    assert float(low) == pytest.approx(min(energies), rel=1e-5)
    assert float(high) == pytest.approx(max(energies), rel=1e-5)
    assert float(low) < -2e5 and 2e4 < float(high) < 2.2e4


def test_tune_bltp_without_an_open_well_says_so():
    # the n = 20 orbit has no regulated tight well anywhere in the scan
    with pytest.raises(FluxError, match="; the well is closed at every u$") as info:
        tune_bltp(target_energy=0.0, n=20)
    assert str(info.value).count("well closed") == 25
