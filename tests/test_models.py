"""Potential families: closed forms, asymptotics, scaling laws, tuning."""

import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from positronium import models
from positronium.flux import flux_constraint_integral
from positronium.models import (
    ALPHA_FS,
    ZERO_ENERGY_RADIUS_COEFF,
    EnergyCurve,
    PhysicalConfig,
    PotentialModel,
    RingParams,
    _bltp_integrals,
    _ring_lines,
    bohr_energy,
    bohr_expansion_coeffs,
    kinetic_excess,
    kinetic_term,
    potential_scaling_law,
    potential_v3,
    ring_energy_lines,
    sample_curve,
    scaled_ring_radius,
    tune_ring_radius,
)
from positronium.optimize import OptimizeError, find_local_minima, find_root
from positronium.quadrature import QuadratureError

CFG = PhysicalConfig()

# radius that puts the tight ring state at zero energy, frozen from a
# converged tuning run (full double precision)
TUNED_COEFF = 0.49597832371966283

COULOMB = PotentialModel("coulomb", CFG)
DIPOLE = PotentialModel("coulomb-dipole", CFG)


def test_fine_structure_constant():
    assert ALPHA_FS == 1.0 / 137.036


def test_bohr_energy_frozen_and_closed_form():
    assert bohr_energy(CFG) == pytest.approx(1.9999866871172396, rel=1e-15)
    for n in range(1, 6):
        cfg = PhysicalConfig(n=n)
        x = cfg.alpha / (2.0 * n)
        assert bohr_energy(cfg) == pytest.approx(2.0 * math.sqrt(1.0 - x * x), rel=1e-15)


def test_bohr_expansion_coefficients():
    assert bohr_expansion_coeffs(CFG) == (-0.125, -0.0078125)
    c2, c4 = bohr_expansion_coeffs(PhysicalConfig(n=2))
    assert c2 == -1.0 / 32.0
    assert c4 == -1.0 / 2048.0
    for n in range(1, 6):
        n2 = float(n * n)
        assert bohr_expansion_coeffs(PhysicalConfig(n=n)) == (-1.0 / (8.0 * n2),
                                                              -1.0 / (128.0 * n2 * n2))


@pytest.mark.parametrize(
    "n", [10**150, 10**154, 2**511, 10**200, int(sys.float_info.max)],
    ids=["1e150", "1e154", "2^511", "1e200", "largest-float"],
)
def test_bohr_expansion_coefficients_up_to_the_largest_float(n):
    # n * n leaves the float range above n ~ 1.3e154, inside PhysicalConfig's
    # domain; float(n * n) raised OverflowError there
    with mpmath.workdps(50):
        exact = (-1 / (8 * mpmath.mpf(n) ** 2), -1 / (128 * mpmath.mpf(n) ** 4))
        for got, want in zip(bohr_expansion_coeffs(PhysicalConfig(n=n)), exact):
            bound = math.ulp(float(want)) if abs(want) >= sys.float_info.min else \
                sys.float_info.min
            assert abs(got - want) <= bound, (n, got, want)


@pytest.mark.parametrize("r", [1e-6, 0.1, 1.0, 274.0, 1e4])
def test_kinetic_excess_matches_kinetic_term(r):
    assert kinetic_excess(CFG, r) == pytest.approx(
        kinetic_term(CFG, r) - 2.0, rel=1e-9, abs=1e-15
    )
    assert kinetic_term(CFG, r) == pytest.approx(
        2.0 * math.sqrt(1.0 + (CFG.n / r) ** 2), rel=1e-15
    )


@pytest.mark.parametrize("r", [1e-150, 1.0e-154, 1e-200, 1e-300])
def test_kinetic_terms_stay_finite_where_the_momentum_square_overflows(r):
    # 2 sqrt(1 + q^2) is 2q to the last bit once q >= 2^27; (n/r)^2 overflows
    # below r ~ 1e-154 although 2n/r does not
    q = CFG.n / r
    assert kinetic_term(CFG, r) == 2.0 * q
    assert kinetic_excess(CFG, r) == pytest.approx(2.0 * q - 2.0, rel=1e-15)


def test_kinetic_excess_survives_cancellation():
    # at r = 1e8 the subtraction form loses every digit (term - 2 is below
    # one ulp of 2); the conditioned form keeps full precision
    r = 1e8
    q2 = (CFG.n / r) ** 2
    assert kinetic_excess(CFG, r) == pytest.approx(q2 / (1.0 + 0.5 * q2), rel=1e-10)
    assert kinetic_excess(CFG, r) > 0.0


def test_point_dipole_term_stacks_on_point_charges():
    # exact: (K - alpha/r) - alpha^3/(8 pi^2 r^3), an order of operations
    # that summing the two interaction terms first breaks in the last ulp
    # at about a quarter of the dense grid
    for r in (1e-5, 1e-3, 0.5, 10.0, *np.geomspace(1e-7, 1e4, 4001)):
        r = float(r)
        extra = CFG.alpha**3 / (8.0 * math.pi**2 * r**3)
        assert DIPOLE(r) == COULOMB(r) - extra
        assert DIPOLE.binding(r) == COULOMB.binding(r) - extra


def test_dipole_term_past_the_float_range_is_infinite():
    # r^3 underflows to 0 below r ~ 1e-108; the term alpha^3/(8 pi^2 r^3) is
    # +inf there as it is from r ~ 1e-106 on, not a ZeroDivisionError
    for r in (1e-106, 1e-108, 1e-300):
        assert DIPOLE(r) == DIPOLE.binding(r) == -math.inf
    assert math.isfinite(DIPOLE(1e-105))
    # and r^3 overflows above r ~ 5.6e102, where the term is 0
    for r in (1e103, 1e300):
        assert DIPOLE(r) == COULOMB(r) and DIPOLE.binding(r) == COULOMB.binding(r)


def test_magnetic_line_far_out_is_negative_zero():
    # prefactor * hypot(1, r/2R) overflows at r = 1e300 while K S underflows
    # to 0: the line is -0.0, where inf * 0 gave nan
    for r in (1e300, np.array([1e300])):
        with np.errstate(all="ignore"):  # as PotentialModel runs the array form
            electric, magnetic = _ring_lines(2.6e-5, CFG.alpha, CFG.alpha**3, r)
        assert magnetic == 0.0 and np.signbit(magnetic)
        assert -1e-300 < electric < 0.0


@pytest.mark.parametrize("r", [1e-80, 1e-70, 1e-40])
def test_magnetic_line_of_a_tiny_ring_far_out_is_finite(r):
    # at R = 1e-100 the prefactor (~3e291) times hypot(1, r/2R) overflows
    # for r/2R above ~6e16 while the line itself, ~alpha^3/(8 pi^2 r^3),
    # is a finite float up to r ~ 1e-100 * 1e80: it was -inf there.  The
    # bracket cancels to ~(R/r)^4 of its terms, so mpmath needs 400 digits
    R = 1e-100
    with mpmath.workdps(400):
        want = [float(x) for x in _mp_ring_lines(R, r)]
    for x in (r, np.array([r])):
        with np.errstate(all="ignore"):  # as PotentialModel runs the array form
            got = _ring_lines(R, CFG.alpha, CFG.alpha**3, x)
        assert np.ravel(got).tolist() == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("R,r", [(1e100, 1e-300), (2.6e-5, 1e304), (1e-100, 1e300)])
def test_ring_lines_past_the_float_range_of_r_over_2R(R, r):
    # r/2R underflowed to 0 (K diverges at k = 1) or overflowed to inf (k' =
    # inf/inf), and the AGM raised "failed to converge".  Underflowed, the
    # lines are far below an ulp of the kinetic term; overflowed, they are
    # their far limits -alpha/r and -0.0
    for x in (r, np.array([1.0, r])):
        with np.errstate(all="ignore"):  # as PotentialModel runs the array form
            lines = _ring_lines(R, CFG.alpha, CFG.alpha**3, x)
        electric, magnetic = (np.ravel(line)[-1] for line in lines)
        if r / (2.0 * R) == math.inf:
            assert electric == -CFG.alpha / r and magnetic == 0.0 and np.signbit(magnetic)
        else:
            assert kinetic_term(CFG, r) + electric + magnetic == kinetic_term(CFG, r)
    model = PotentialModel("scaling", CFG, RingParams(R), scaling_k=1)
    for energy in (model, model.binding):
        assert math.isfinite(energy(r))
        assert energy(np.array([r])).tolist() == [energy(r)]


def test_regulated_pair_far_out_warns_nothing():
    # 2 kappa R d(phi) overflows at the far nodes for r/2R above ~1e69 here:
    # the float path warned "overflow encountered in multiply", the array
    # path (under PotentialModel's np.errstate) did not
    model = PotentialModel("ring-bltp", CFG, RingParams(4.25e-22, 1.58e260))
    for r in (1e60, 1e200):
        for energy in (model, model.binding):
            assert math.isfinite(energy(r))
            assert energy(np.array([r])).tolist() == [energy(r)]


def test_binding_is_rest_subtracted_potential():
    for r in (0.5, 274.0, 1e3):
        assert COULOMB.binding(r) == pytest.approx(COULOMB(r) - 2.0, rel=1e-12, abs=1e-15)


def test_dipole_curve_structure():
    # unbounded below at small r, one interior maximum, zero crossing
    # below the Compton length, and no interior minimum
    assert DIPOLE(1e-8) < 0.0
    assert find_local_minima(DIPOLE, 1e-6, 1e-4, points_per_decade=40) == []
    tops = find_local_minima(lambda r: -DIPOLE(r), 1e-6, 1e-4, points_per_decade=40)
    assert len(tops) == 1
    assert tops[0].r_star == pytest.approx(8.607806632909526e-05, rel=1e-6)
    assert -tops[0].v_star > 1e4
    crossing = find_root(DIPOLE, 1e-6, tops[0].r_star)
    assert crossing == pytest.approx(4.9697194722052714e-05, rel=1e-8)
    assert crossing < 1e-4


def test_ring_lines_against_scipy_elliptic():
    R = 2.661639e-5
    params = RingParams(R)
    for r in (0.7 * R, 2.0 * R, 50.0 * R):
        rho = r / (2.0 * R)
        m = 1.0 / (1.0 + rho * rho)
        k = math.sqrt(m)
        big_k = scipy.special.ellipk(m)
        electric, _ = ring_energy_lines(params, CFG, r)
        assert electric == pytest.approx(-(CFG.alpha / (math.pi * R)) * k * big_k, rel=1e-12)


@pytest.mark.parametrize("R", [2.661639e-5, 2.57e-5, 1e-3])
def test_array_ring_lines_match_the_scalar_lines(R):
    # floats and arrays run one recurrence on one modulus (math.hypot), so
    # both lines agree bit for bit, also where np.hypot would round the
    # modulus an ulp apart
    r = np.geomspace(1e-12, 1e6, 4001)
    electric, magnetic = _ring_lines(R, CFG.alpha, CFG.alpha**3, r)
    params = RingParams(R)
    for i, ri in enumerate(r):
        assert (electric[i], magnetic[i]) == ring_energy_lines(params, CFG, float(ri)), ri


def _mp_ring_lines(R, r):
    """(electric, magnetic) in mpmath's working precision, from the exact
    values of the doubles R and r."""
    rho = mpmath.mpf(r) / (2 * mpmath.mpf(R))
    m = 1 / (1 + rho**2)
    big_k, big_e = mpmath.ellipk(m), mpmath.ellipe(m)
    alpha = mpmath.mpf(CFG.alpha)
    electric = -(alpha / (mpmath.pi * R)) * mpmath.sqrt(m) * big_k
    magnetic = -(alpha**3 / (4 * mpmath.pi**3 * mpmath.mpf(R) ** 3))
    return electric, magnetic * mpmath.sqrt(1 + rho**2) * ((2 - m) * big_k - 2 * big_e)


@pytest.mark.parametrize("R", [2.661639e-5, 2.57e-5, 1e-3])
def test_scalar_ring_lines_against_multiprecision(R):
    # 90 digits, because the magnetic bracket (2 - m)K - 2E cancels to
    # pi m^2/16 ~ 1e-42 at r = 1e6; each line lands within 2e-15 of itself
    params = RingParams(R)
    with mpmath.workdps(90):
        for r in np.geomspace(1e-12, 1e6, 301):
            got = ring_energy_lines(params, CFG, float(r))
            for line, want in zip(got, _mp_ring_lines(R, float(r))):
                assert line == pytest.approx(float(want), rel=2e-15, abs=0.0), (r, got)


def test_array_magnetic_line_against_multiprecision():
    # the direct form (2 - m)K - 2E would lose ~7e-15 to cancellation just
    # above m = 1/2; the sum of positive terms K S does not
    mpmath.mp.dps = 30
    R = 2.661639e-5
    r = np.array([1e-9, 0.5 * R, 1.8 * R, 1.9 * R, 2.0 * R, 4.0 * R, 2000.0 * R, 1e4])
    _, magnetic = _ring_lines(R, CFG.alpha, CFG.alpha**3, r)
    for ri, got in zip(r, magnetic):
        rho = mpmath.mpf(float(ri)) / (2 * mpmath.mpf(R))
        m = 1 / (1 + rho**2)
        bracket = (2 - m) * mpmath.ellipk(m) - 2 * mpmath.ellipe(m)
        want = -(mpmath.mpf(CFG.alpha) ** 3 / (4 * mpmath.pi**3 * mpmath.mpf(R) ** 3))
        want *= mpmath.sqrt(1 + rho**2) * bracket
        assert got == pytest.approx(float(want), rel=1e-15), ri


def test_ring_magnetic_line_against_multiprecision():
    # the (2 - m)K - 2E bracket cancels to O(m^2) at small m; check the
    # scalar lines against 30-digit arithmetic on both sides of m = 1/2
    mpmath.mp.dps = 30
    R = 2.661639e-5
    params = RingParams(R)
    for r in (0.5 * R, 4.0 * R, 100.0 * R, 2000.0 * R):
        rho = r / (2.0 * R)
        m = mpmath.mpf(1) / (1 + mpmath.mpf(rho) ** 2)
        bracket = (2 - m) * mpmath.ellipk(m) - 2 * mpmath.ellipe(m)
        expected = -float(
            mpmath.mpf(CFG.alpha) ** 3
            / (4 * mpmath.pi**3 * mpmath.mpf(R) ** 3)
            * mpmath.sqrt(1 + mpmath.mpf(rho) ** 2)
            * bracket
        )
        _, magnetic = ring_energy_lines(params, CFG, r)
        assert magnetic == pytest.approx(expected, rel=1e-12)


def test_ring_energy_multipole_tail():
    # (U + alpha/r) r^3 -> alpha R^2 - alpha^3/(8 pi^2): the ring pair
    # reproduces the point-dipole attraction plus the charge quadrupole
    R = 2.661639e-5
    params = RingParams(R)
    limit = CFG.alpha * R**2 - CFG.alpha**3 / (8.0 * math.pi**2)
    tails = {}
    for r in (0.01, 0.1):
        tails[r] = (sum(ring_energy_lines(params, CFG, r)) + CFG.alpha / r) * r**3
        assert tails[r] == pytest.approx(limit, rel=1e-4)
    assert abs(tails[0.1] - limit) < abs(tails[0.01] - limit)


def test_ring_similarity_scaling():
    # (r, R) -> (c r, c R) leaves the modulus alone, so the electric line
    # scales exactly as 1/c and the magnetic line as 1/c^3; for c = 2 the
    # scale factors are powers of two and the identity is bitwise
    R = 2.661639e-5
    for r in (1e-5, 2.7e-5, 1e-4):
        e1, m1 = ring_energy_lines(RingParams(R), CFG, r)
        e2, m2 = ring_energy_lines(RingParams(2.0 * R), CFG, 2.0 * r)
        assert e2 == e1 / 2.0
        assert m2 == m1 / 8.0
        e3, m3 = ring_energy_lines(RingParams(3.0 * R), CFG, 3.0 * r)
        assert e3 == pytest.approx(e1 / 3.0, rel=1e-13)
        assert m3 == pytest.approx(m1 / 27.0, rel=1e-13)


def test_ring_interaction_is_attractive_everywhere():
    params = RingParams(2.661639e-5)
    for r in np.geomspace(1e-8, 1e3, 23):
        assert sum(ring_energy_lines(params, CFG, float(r))) < 0.0


def test_ring_potential_positive_where_dipole_diverges():
    # the ring structure regularizes the r -> 0 plunge: kinetic wins
    assert potential_v3(RingParams(2.661639e-5), CFG, 1e-8) > 0.0
    assert DIPOLE(1e-8) < 0.0


def test_ring_curve_has_two_minima_at_tuned_radius():
    minima = find_local_minima(_ring_ml(TUNED_COEFF).binding, 1e-6, 1e4, points_per_decade=40)
    assert len(minima) == 2
    tight, coulombic = minima
    assert tight.kind == "global_min"
    assert tight.r_star == pytest.approx(1.4845784693223017e-05, rel=1e-6)
    assert tight.v_star == pytest.approx(-2.0, abs=1e-8)
    assert coulombic.kind == "local_min"
    assert coulombic.r_star == pytest.approx(math.sqrt(4.0 - CFG.alpha**2) / CFG.alpha, rel=1e-5)
    assert coulombic.v_star == pytest.approx(bohr_energy(CFG) - 2.0, abs=1e-10)


def test_no_tight_minimum_for_second_orbit():
    R = TUNED_COEFF * CFG.alpha**2
    cfg2 = PhysicalConfig(n=2)
    assert (
        find_local_minima(
            lambda r: potential_v3(RingParams(R), cfg2, r), 1e-6, 1e-3, points_per_decade=40
        )
        == []
    )


def test_regulated_rings_approach_plain_rings():
    R = 2.57e-5
    reg = RingParams(R, kappa=1e3 / R)
    plain = RingParams(R)
    reg_model = PotentialModel("ring-bltp", CFG, reg)
    plain_model = PotentialModel("scaling", CFG, plain, scaling_k=1)
    for r in (5e-6, 2.57e-5, 1e-4, 274.0):
        assert abs(reg_model(r) - potential_v3(plain, CFG, r)) <= 1e-8
        assert abs(reg_model.binding(r) - plain_model.binding(r)) <= 1e-8


def test_regulated_rings_are_weaker_than_plain_rings():
    # dropping flux can only reduce the attraction
    R = 2.57e-5
    reg = PotentialModel("ring-bltp", CFG, RingParams(R, kappa=2.0 / R))
    plain = RingParams(R)
    for r in (1e-5, 1e-4):
        assert reg(r) > potential_v3(plain, CFG, r)


BLTP_R = 2.5698078287e-5


def _bltp_oracle(r, kappa_R):
    """(I1, I2) of the regulated ring pair from scipy's QUADPACK.

    Both kernels are symmetric about pi/2, so the oracle integrates
    [0, pi/2].  Between the peak width rho = r/2R at 0 and 1 the kernel
    falls off like 1/phi over up to fifteen decades, so the oracle breaks
    the interval at rho/10 and at every decade above it, and at the width
    1/(2 kappa R) of the expm1 factor.
    """
    rho = r / (2.0 * BLTP_R)
    scale = 2.0 * kappa_R

    def kernel(phi):
        d = math.hypot(math.sin(phi), rho)
        return -math.expm1(-scale * d) / d

    breaks = (*(rho * 10.0**j for j in range(-1, 20)), 1.0 / scale)
    points = sorted({x for x in breaks if x < 1.0}) or None
    opts = dict(points=points, epsabs=0.0, epsrel=2e-14, limit=500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        i1 = scipy.integrate.quad(kernel, 0.0, math.pi / 2, **opts)[0]
        i2 = scipy.integrate.quad(
            lambda p: math.cos(2.0 * p) * kernel(p), 0.0, math.pi / 2, **opts
        )[0]
    return 2.0 * i1, 2.0 * i2


def _bltp_mpmath(r, kappa_R):
    """(I1, I2) at 30 digits, with breakpoints at rho/10, rho, 10 rho and
    1/(2 kappa R)."""
    with mpmath.workdps(30):
        rho = mpmath.mpf(r) / (2 * mpmath.mpf(BLTP_R))
        scale = 2 * mpmath.mpf(kappa_R)

        def kernel(phi):
            d = mpmath.sqrt(mpmath.sin(phi) ** 2 + rho**2)
            return -mpmath.expm1(-scale * d) / d

        breaks = (rho / 10, rho, 10 * rho, 1 / scale)
        points = [0, *sorted(x for x in breaks if x < mpmath.pi / 2), mpmath.pi / 2]
        i1 = 2 * mpmath.quad(kernel, points)
        i2 = 2 * mpmath.quad(lambda p: mpmath.cos(2 * p) * kernel(p), points)
        return float(i1), float(i2)


@pytest.mark.parametrize(
    "r,kappa_R", [(1e-14, 1e3), (5.6e-14, 1e3), (1e-11, 4.64), (3e-11, 1.0), (1e-9, 1e-3)]
)
def test_bltp_oracle_against_mpmath_near_contact(r, kappa_R):
    # where rho is many decades below 1/(2 kappa R) the kernel is 1/phi in
    # between; an oracle with breakpoints only at rho, 10 rho and 100 rho
    # missed by up to 1e-12 of I1 here
    o1, o2 = _bltp_oracle(r, kappa_R)
    m1, m2 = _bltp_mpmath(r, kappa_R)
    assert abs(o1 - m1) <= 1e-15 * abs(m1)
    assert abs(o2 - m2) <= 1e-15 * abs(m1)


def _assert_bltp_matches_oracle(r, kappa_R):
    i1, i2 = _bltp_integrals(BLTP_R, kappa_R / BLTP_R, r)
    o1, o2 = _bltp_oracle(r, kappa_R)
    assert abs(i1 - o1) <= 1e-14 * abs(o1)
    assert abs(i2 - o2) <= 1e-14 * abs(o1)


# near contact one r per decade from 1e-14; and r at rho = r/2R = 0.999e-3
# and 1e-3, either side of a table boundary (lo = 1e-6 below, 1e-5 at it)
@pytest.mark.parametrize("kappa_R", [1e-3, 1.0, 4.64, 1e3, 1e6])
@pytest.mark.parametrize(
    "r",
    [float(r) for r in np.geomspace(1e-14, 1e-10, 5)]
    + [float(r) for r in np.geomspace(1e-9, 1e6, 16)]
    + [5.1344760417426006e-08, 5.1396156574000005e-08],
)
def test_bltp_integrals_against_scipy_quad(r, kappa_R):
    _assert_bltp_matches_oracle(r, kappa_R)


@settings(max_examples=30, deadline=None)
@given(
    log_r=st.floats(min_value=-14.0, max_value=6.0),
    log_kappa_R=st.floats(min_value=0.0, max_value=3.0),
)
def test_bltp_integrals_property_against_scipy_quad(log_r, log_kappa_R):
    _assert_bltp_matches_oracle(10.0**log_r, 10.0**log_kappa_R)


def test_regulated_potential_is_finite_at_near_contact():
    # at r = 1e-300 both sin^2 phi and rho^2 underflow near phi = 0, which
    # would make d = 0 there; hypot keeps d > 0 at every node
    model = PotentialModel("ring-bltp", CFG, RingParams(BLTP_R, 4.64 / BLTP_R))
    i1, i2 = _bltp_integrals(BLTP_R, 4.64 / BLTP_R, 1e-300)
    assert math.isfinite(model(1e-300)) and math.isfinite(model.binding(1e-300))
    # rho = 2e-296 is 0 to double precision: the kernel is
    # (1 - exp(-2 kappa R sin phi)) / sin phi, and I2 the flux integral G(kappa R)
    o1 = 2.0 * scipy.integrate.quad(
        lambda p: -math.expm1(-9.28 * math.sin(p)) / math.sin(p), 0.0, math.pi / 2,
        epsabs=0.0, epsrel=2e-14,
    )[0]
    assert i1 == pytest.approx(o1, rel=1e-13)
    assert i2 == pytest.approx(flux_constraint_integral(4.64), rel=1e-13)


def test_bltp_panel_estimate_failure_names_the_ring_parameters(monkeypatch, fresh_bltp_tables):
    # no rule meets a zero tolerance: the Gauss-7 estimate is never exactly 0
    monkeypatch.setattr(models, "_BLTP_REL_TOL", 0.0)
    monkeypatch.setattr(models, "_BLTP_ABS_TOL", 0.0)
    with pytest.raises(
        QuadratureError, match=r"Bopp angular quadrature at r=1e-06, R=2\.5698078287e-05, kappa=180000\.0: "
        r"Gauss-7 error estimate"
    ):
        _bltp_integrals(BLTP_R, 1.8e5, 1e-6)


def test_regulated_potential_returns_plain_floats():
    params = RingParams(BLTP_R, 1.8052024923e5)
    for r in (1e-8, 1.7e-5, 274.0):
        assert type(PotentialModel("ring-bltp", CFG, params)(r)) is float
        assert type(PotentialModel("ring-bltp", CFG, params).binding(r)) is float
        assert all(type(x) is float for x in _bltp_integrals(params.R, params.kappa, r))


def test_scaling_family_reduces_to_plain_rings_at_reference_exponent():
    # the plain ring pair is the k = 1 member of the scaling family, bit for bit
    R = 2.661639e-5
    params = RingParams(R)
    scaling_k1 = PotentialModel("scaling", CFG, params, scaling_k=1)
    for r in np.geomspace(1e-9, 1e6, 2001):
        r = float(r)
        assert potential_scaling_law(1, params, CFG, r) == potential_v3(params, CFG, r)
        assert scaling_k1(r) == potential_v3(params, CFG, r)
        assert scaling_k1.binding(r) == kinetic_excess(CFG, r) + sum(
            ring_energy_lines(params, CFG, r)
        )


def test_scaled_ring_radius_rule():
    for k in range(4):
        assert scaled_ring_radius(k) == ZERO_ENERGY_RADIUS_COEFF * ALPHA_FS ** (1 + k)
    with pytest.raises(ValueError):
        scaled_ring_radius(4)


def test_rest_energy_asymptote_across_families():
    r = 1e6
    values = [
        COULOMB(r),
        DIPOLE(r),
        potential_v3(RingParams(scaled_ring_radius(1)), CFG, r),
        PotentialModel("ring-bltp", CFG, RingParams(2.57e-5, 1.8e5))(r),
    ]
    values += [
        potential_scaling_law(k, RingParams(scaled_ring_radius(k)), CFG, r) for k in range(4)
    ]
    for v in values:
        assert abs(v - 2.0) <= 1e-6


def test_tune_ring_radius_frozen_coefficient():
    R = tune_ring_radius("scaling", CFG, 0.0)
    coeff = R / CFG.alpha**2
    assert coeff == pytest.approx(TUNED_COEFF, rel=1e-11)
    # ten significant digits of agreement with the package reference value
    assert abs(coeff - ZERO_ENERGY_RADIUS_COEFF) <= 0.5e-9 * ZERO_ENERGY_RADIUS_COEFF


def _ring_ml(coeff: float) -> PotentialModel:
    """The plain ring pair (the CLI's ring-ml) at R = coeff alpha^2."""
    R = scaled_ring_radius(1, CFG.alpha, coeff)
    return PotentialModel("scaling", CFG, RingParams(R), scaling_k=1)


@pytest.mark.parametrize("k", range(4))
def test_tight_minimum_scans_the_scaled_window(k):
    # the search is the deepest of the minima over r/alpha^(1+k) in
    # (1e-3, 10) at 60 points per decade, on the ring lines with coupling
    # alpha^(1+2k)
    s = CFG.alpha ** (1 + k)
    for coeff in (0.45, ZERO_ENERGY_RADIUS_COEFF, 0.53):
        R = coeff * s

        def f(r, R=R):
            electric, magnetic = _ring_lines(R, CFG.alpha, CFG.alpha ** (1 + 2 * k), r)
            return kinetic_term(CFG, r) + (electric + magnetic)

        want = min(find_local_minima(f, 1e-3 * s, 10.0 * s, 60), key=lambda p: p.v_star)
        got = PotentialModel("scaling", CFG, RingParams(R), scaling_k=k).tight_minimum()
        assert (got.r_star, got.v_star) == (want.r_star, want.v_star)


def test_tight_minimum_of_the_regulated_rings_scans_relative_to_R():
    R, kappa = 2.5698078287e-5, 1.8052024923e5
    model = PotentialModel("ring-bltp", CFG, RingParams(R, kappa))
    want = min(find_local_minima(model, 0.05 * R, 10.0 * R, 60), key=lambda p: p.v_star)
    got = model.tight_minimum()
    assert (got.r_star, got.v_star) == (want.r_star, want.v_star)
    assert 0.05 * R < got.r_star < 10.0 * R


def test_point_families_have_no_tight_well():
    for model in (COULOMB, DIPOLE):
        with pytest.raises(ValueError, match="no tight well"):
            model.tight_minimum()


def test_tuned_minimum_sits_at_zero_energy():
    p = _ring_ml(TUNED_COEFF).tight_minimum()
    assert p.r_star == pytest.approx(1.4845784693223017e-05, rel=1e-9)
    assert abs(p.v_star) <= 1e-9


def test_tenth_digit_sensitivity():
    # truncating the tuned coefficient after ten digits drops the tight
    # state to E ~ -1e-5: the zero is genuinely pinned at that precision
    coeff = 0.4959783237
    p = _ring_ml(coeff).tight_minimum()
    assert p.v_star < 0.0
    assert p.v_star == pytest.approx(-1.0663e-5, rel=1e-4)
    # At r* ~ 1.48e-5, V = T + U_e + U_m sums terms of size ~1.35e5, so a
    # double V carries a rounding error of order ulp(|T| + |U_e| + |U_m|)
    # = 5.8e-11, i.e. 5e-6 of V itself: a pinned double digit-for-digit
    # only pins one rounding.  Compare with 40-digit V at the same r*.
    R = coeff * CFG.alpha**2
    r = p.r_star
    kinetic = kinetic_term(CFG, r)
    electric, magnetic = ring_energy_lines(RingParams(R), CFG, r)
    with mpmath.workdps(40):
        q = CFG.n / mpmath.mpf(r)
        exact = 2 * mpmath.sqrt(1 + q**2) + sum(_mp_ring_lines(R, r))
        error = abs(p.v_star - float(exact))
    assert error <= 2.0 * math.ulp(abs(kinetic) + abs(electric) + abs(magnetic))


def test_tight_well_closes_at_large_coefficient():
    # past R/alpha^2 ~ 0.56 the window holds no interior minimum: the error
    # names the window, R and k
    model = _ring_ml(0.7)
    lo, hi = 1e-3 * CFG.alpha**2, 10.0 * CFG.alpha**2
    where = f"no interior minimum in ({lo!r}, {hi!r}) at R={model.params.R!r}, k=1"
    with pytest.raises(OptimizeError, match=re.escape(where) + "$"):
        model.tight_minimum()


def test_tune_rejects_unknown_family_and_exponent():
    # the scaling family is the one it tunes; ring-ml is the CLI's name for k = 1
    for family in ("coulomb", "ring-bltp", "ring-ml"):
        with pytest.raises(ValueError, match=f"must be 'scaling'; got '{family}'"):
            tune_ring_radius(family, CFG, 0.0)
    with pytest.raises(ValueError):
        tune_ring_radius("scaling", CFG, 0.0, scaling_k=7)


def test_scaling_family_tunes_per_exponent():
    # k = 0 tunes to its own coefficient, close to but distinct from k = 1
    R = tune_ring_radius("scaling", CFG, 0.0, scaling_k=0)
    coeff = R / CFG.alpha
    assert coeff == pytest.approx(0.495977809681941, rel=1e-9)
    assert coeff != pytest.approx(TUNED_COEFF, rel=1e-8)


@pytest.mark.parametrize("k,calls", [(0, 11), (1, 11), (2, 12), (3, 10)])
def test_tune_ring_radius_evaluates_each_ring_once(monkeypatch, k, calls):
    # the two scan points c = 0.42 and 0.55 are Brent's first two
    # evaluations, and the reported radius is one Brent has evaluated
    tight_minimum = PotentialModel.tight_minimum
    counted = []

    def counting(self, *args, **kwargs):
        counted.append(self.params)
        return tight_minimum(self, *args, **kwargs)

    monkeypatch.setattr(PotentialModel, "tight_minimum", counting)
    R = tune_ring_radius("scaling", CFG, 0.0, scaling_k=k)
    assert len(counted) == len(set(counted)) == calls  # every ring once
    assert RingParams(R) in counted


@pytest.mark.parametrize(
    "R,kappa,r",
    [
        (2.747884523608806e-70, 4.047637280674912e-267, 1e200),  # 2 kappa R is 0
        (1e-100, 1.5e-209, 1e150),  # 2 kappa R is subnormal
        (1e-100, 3e-222, 1e-99),  # and kappa r as well
    ],
)
def test_regulated_pair_where_2_kappa_R_underflows_is_its_far_limit(R, kappa, r):
    # the quadrature's kernel, about 2 kappa R, was 0 or subnormal there: the
    # pair read -0.0, or positive garbage of order 1e-31 from c^3 I2
    got = models._bltp_interaction(R, kappa, CFG.alpha, r)
    # -c I1 - c^3 I2 in 230 digits, each kernel divided by s = 2 kappa R so
    # that mpmath's quadrature sees values near 1 (c^2 amplifies the error
    # of I2 by up to 1e194)
    with mpmath.workdps(230):
        alpha, R_mp, kappa_mp = (mpmath.mpf(x) for x in (CFG.alpha, R, kappa))
        c, scale = alpha / (2 * mpmath.pi * R_mp), 2 * kappa_mp * R_mp
        rho = mpmath.mpf(r) / (2 * R_mp)

        def kernel(phi):
            sd = scale * mpmath.sqrt(mpmath.sin(phi) ** 2 + rho**2)
            return -mpmath.expm1(-sd) / sd

        i1 = scale * mpmath.quad(kernel, [0, mpmath.pi])
        i2 = scale * mpmath.quad(lambda phi: mpmath.cos(2 * phi) * kernel(phi), [0, mpmath.pi])
        want = float(-c * i1 - c**3 * i2)
    assert got == pytest.approx(want, rel=4e-16, abs=0.0)
    model = PotentialModel("ring-bltp", CFG, RingParams(R, kappa))
    assert model.binding(np.array([r]))[0] == model.binding(r)


def test_sample_curve_log_grid():
    curve = sample_curve(COULOMB, 1.0, 1e3, 7)
    assert len(curve.grid) == len(curve.values) == 7
    assert curve.grid[0] == 1.0
    assert curve.grid[-1] == 1e3
    ratios = [b / a for a, b in zip(curve.grid, curve.grid[1:])]
    assert all(x == pytest.approx(ratios[0], rel=1e-12) for x in ratios)
    for r, v in zip(curve.grid, curve.values):
        assert v == kinetic_term(CFG, r) - CFG.alpha / r


def test_sample_curve_linear_grid():
    curve = sample_curve(DIPOLE, 1.0, 2.0, 5, spacing="linear")
    steps = [b - a for a, b in zip(curve.grid, curve.grid[1:])]
    assert all(s == pytest.approx(0.25, rel=1e-12) for s in steps)


def test_sample_curve_validation():
    model = COULOMB
    with pytest.raises(ValueError):
        sample_curve(model, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        sample_curve(model, 1.0, 2.0, 1)
    with pytest.raises(ValueError):
        sample_curve(model, 1.0, 2.0, 10, spacing="cubic")


def test_sample_curve_names_a_non_finite_value():
    # sample_curve checks each value as it evaluates it: a RuntimeError (a
    # numerical failure), where EnergyCurve's own check raises ValueError
    with pytest.raises(RuntimeError, match=r"failed at r=1e-300: non-finite value -inf$"):
        sample_curve(DIPOLE, 1e-300, 1.0, 5)
    with pytest.raises(ValueError, match="non-finite value nan at r=2.0"):
        EnergyCurve(COULOMB, (1.0, 2.0), (0.0, math.nan))


def test_model_call_dispatch():
    r = 3e-5
    R = 2.661639e-5
    dipole = CFG.alpha**3 / (8.0 * math.pi**2 * r**3)
    ring_ml = PotentialModel("scaling", CFG, RingParams(R), scaling_k=1)
    ring_bltp = PotentialModel("ring-bltp", CFG, RingParams(R, 1.8e5))
    scaling = PotentialModel("scaling", CFG, RingParams(R), scaling_k=2)
    assert COULOMB(r) == kinetic_term(CFG, r) - CFG.alpha / r
    assert DIPOLE(r) == kinetic_term(CFG, r) - CFG.alpha / r - dipole
    assert ring_ml(r) == potential_v3(RingParams(R), CFG, r)
    assert ring_bltp(r) == kinetic_term(CFG, r) + models._bltp_interaction(
        R, 1.8e5, CFG.alpha, r
    )
    assert scaling(r) == potential_scaling_law(2, RingParams(R), CFG, r)
    assert COULOMB.binding(r) == kinetic_excess(CFG, r) - CFG.alpha / r
    assert DIPOLE.binding(r) == kinetic_excess(CFG, r) - CFG.alpha / r - dipole
    assert ring_ml.binding(r) == kinetic_excess(CFG, r) + sum(
        ring_energy_lines(RingParams(R), CFG, r)
    )
    assert ring_bltp.binding(r) == kinetic_excess(CFG, r) + models._bltp_interaction(
        R, 1.8e5, CFG.alpha, r
    )


def test_config_validation():
    with pytest.raises(ValueError):
        PhysicalConfig(alpha=0.0)
    with pytest.raises(ValueError):
        PhysicalConfig(alpha=1.0)
    with pytest.raises(ValueError):
        PhysicalConfig(n=0)
    with pytest.raises(ValueError):
        PhysicalConfig(n=1.5)
    # n enters the energies as a float
    assert PhysicalConfig(n=int(sys.float_info.max)).n == int(sys.float_info.max)
    with pytest.raises(ValueError, match="^n must"):
        PhysicalConfig(n=int(sys.float_info.max) + 1)


def test_ring_params_validation():
    with pytest.raises(ValueError):
        RingParams(-1e-5)
    with pytest.raises(ValueError):
        RingParams(1e-5, kappa=0.0)


@pytest.mark.parametrize("R", [1e200, 6e102, 2e-103, 1e-300])
def test_ring_radius_whose_cube_leaves_the_float_range_is_rejected(R):
    # the ring prefactors take R^3 and (alpha/R)^3; past these radii they
    # overflow or divide by zero in floating point
    with pytest.raises(ValueError, match=rf"ring radius R .* got {re.escape(repr(R))}"):
        RingParams(R)


def test_ring_radius_range_ends_evaluate_finitely():
    low = sys.float_info.min ** (1 / 3)
    high = sys.float_info.max ** (1 / 3)
    for R in (low, high):
        for model in (
            PotentialModel("scaling", CFG, RingParams(R), scaling_k=1),
            PotentialModel("scaling", CFG, RingParams(R), scaling_k=0),
            PotentialModel("ring-bltp", CFG, RingParams(R, 1.0)),
        ):
            assert math.isfinite(model(R)) and math.isfinite(model.binding(R))


def test_model_family_validation():
    with pytest.raises(ValueError):
        PotentialModel("yukawa", CFG)
    with pytest.raises(ValueError):
        PotentialModel("coulomb", CFG, RingParams(1e-5))
    with pytest.raises(ValueError):
        PotentialModel("scaling", CFG, RingParams(1e-5, kappa=1e5), scaling_k=1)
    with pytest.raises(ValueError):
        PotentialModel("ring-bltp", CFG, RingParams(1e-5))
    with pytest.raises(ValueError):
        PotentialModel("scaling", CFG, RingParams(1e-5), scaling_k=9)
    with pytest.raises(ValueError):
        PotentialModel("coulomb", CFG, scaling_k=1)
    # ring-ml is the CLI's name for the scaling family at k = 1, not a family
    with pytest.raises(ValueError, match="unknown family 'ring-ml'"):
        PotentialModel("ring-ml", CFG, RingParams(1e-5))


def test_missing_kappa_is_rejected_at_evaluation():
    with pytest.raises(ValueError):
        PotentialModel("ring-bltp", CFG, RingParams(1e-5)).binding(1e-5)


def test_positive_separation_required():
    with pytest.raises(ValueError):
        COULOMB(0.0)
    with pytest.raises(ValueError):
        kinetic_term(CFG, -1.0)
    with pytest.raises(ValueError):
        sum(ring_energy_lines(RingParams(1e-5), CFG, 0.0))


def test_energy_curve_invariants():
    model = COULOMB
    with pytest.raises(ValueError):
        EnergyCurve(model, (1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        EnergyCurve(model, (2.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        EnergyCurve(model, (0.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        EnergyCurve(model, (1.0, 2.0), (1.0, math.nan))
    with pytest.raises(ValueError):
        EnergyCurve(model, (1.0,), (1.0,))
