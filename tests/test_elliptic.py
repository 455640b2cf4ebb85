"""Complete elliptic integrals: frozen values, independent oracles, identities."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from positronium.elliptic import _agm, _agm_array, _ellip_KE_pair, ellip_E, ellip_K, ellip_KE

mpmath.mp.dps = 30


def _quad_K(k: float) -> float:
    # the defining integral, evaluated by QUADPACK so the AGM path is
    # checked against something that shares no code with it
    def kernel(t: float) -> float:
        s = k * math.sin(t)
        return 1.0 / math.sqrt((1.0 - s) * (1.0 + s))

    return integrate.quad(kernel, 0.0, math.pi / 2.0, epsabs=1e-15, epsrel=1e-13)[0]


def _quad_E(k: float) -> float:
    def kernel(t: float) -> float:
        s = k * math.sin(t)
        return math.sqrt((1.0 - s) * (1.0 + s))

    return integrate.quad(kernel, 0.0, math.pi / 2.0, epsabs=1e-15, epsrel=1e-13)[0]


def test_frozen_half_modulus():
    big_k, big_e = ellip_KE(0.5)
    assert big_k == pytest.approx(1.685750354812596, rel=5e-16)
    assert big_e == pytest.approx(1.4674622093394272, rel=5e-16)


def test_zero_modulus_is_exactly_pi_over_two():
    big_k, big_e = ellip_KE(0.0)
    assert big_k == math.pi / 2.0
    assert big_e == math.pi / 2.0


@pytest.mark.parametrize("k", [0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])
def test_against_multiprecision_oracle(k):
    big_k, big_e = ellip_KE(k)
    m = mpmath.mpf(k) ** 2
    assert big_k == pytest.approx(float(mpmath.ellipk(m)), rel=5e-15)
    assert big_e == pytest.approx(float(mpmath.ellipe(m)), rel=5e-15)


@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_against_defining_integral(k):
    assert ellip_K(k) == pytest.approx(_quad_K(k), rel=1e-12)
    assert ellip_E(k) == pytest.approx(_quad_E(k), rel=1e-12)


def test_legendre_relation_across_moduli():
    # K(k) E(k') + K(k') E(k) - K(k) K(k') = pi/2 for every modulus
    worst = 0.0
    for i in range(1, 101):
        k = i / 101.0
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        big_k, big_e = ellip_KE(k)
        big_kc, big_ec = ellip_KE(kp)
        value = big_k * big_ec + big_kc * big_e - big_k * big_kc
        worst = max(worst, abs(value - math.pi / 2.0))
    assert worst <= 1e-12


def test_logarithmic_divergence_near_unit_modulus():
    # K ~ ln(4/k'); the pair entry point takes k' exactly, which is what
    # keeps the ring potentials accurate when r << R rounds k to 1
    for rho in (1e-4, 1e-6, 1e-8):
        h = math.hypot(1.0, rho)
        k, kp = 1.0 / h, rho / h
        big_k, big_e = _ellip_KE_pair(k, kp)
        assert big_k == pytest.approx(math.log(4.0 / kp), rel=1e-8)
        assert big_e == pytest.approx(1.0, rel=1e-6)


def test_agm_terminates_on_awkward_moduli():
    # the iteration stalls with a - b at one or two ulp instead of reaching
    # zero; a threshold below that level loops forever.  Sweep moduli
    # densely through the once-problematic region and require termination
    # and the Legendre identity.
    for j in range(200):
        rho = 10.0 ** (-8.0 + 11.0 * j / 199.0)  # 1e-8 .. 1e3
        h = math.hypot(1.0, rho)
        k, kp = 1.0 / h, rho / h
        big_k, big_e = _ellip_KE_pair(k, kp)
        big_kc, big_ec = _ellip_KE_pair(kp, k)
        legendre = big_k * big_ec + big_kc * big_e - big_k * big_kc
        assert legendre == pytest.approx(math.pi / 2.0, abs=1e-12)


@pytest.mark.parametrize("R", [2.661639e-5, 2.57e-5, 1e-3])
def test_scalar_and_array_agm_agree_bit_for_bit(R):
    # the moduli of the ring lines; the array sweeps every entry until the
    # slowest has converged, and the extra sweeps must not move the others
    rho = np.geomspace(1e-12, 1e6, 4001) / (2.0 * R)
    h = np.hypot(1.0, rho)
    k, kp = 1.0 / h, rho / h
    big_k, series = _agm_array(k, kp)
    for i in range(len(rho)):
        assert (big_k[i], series[i]) == _agm(float(k[i]), float(kp[i])), rho[i]


def test_monotonicity():
    grid = [i / 20.0 for i in range(20)]
    ks = [ellip_K(k) for k in grid]
    es = [ellip_E(k) for k in grid]
    assert all(a < b for a, b in zip(ks, ks[1:]))
    assert all(a > b for a, b in zip(es, es[1:]))


def test_second_kind_closes_the_domain():
    assert ellip_E(1.0) == 1.0


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.inf])
def test_first_kind_domain(bad):
    with pytest.raises(ValueError):
        ellip_K(bad)


@pytest.mark.parametrize("bad", [-0.1, 1.0000001, math.inf])
def test_second_kind_domain(bad):
    with pytest.raises(ValueError):
        ellip_E(bad)
