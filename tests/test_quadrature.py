"""Adaptive Gauss-Kronrod integration: closed forms, laws, failure modes."""

import math

import numpy as np
import pytest

from positronium.quadrature import (
    Integral,
    QuadratureError,
    gk15_panels,
    integrate,
)


def test_linear_integrand_converges_on_first_panel():
    res = integrate(Integral(lambda x: x, 0.0, 1.0))
    assert res.value == pytest.approx(0.5, rel=1e-15)
    assert res.evaluations == 15


def test_sine_arch():
    res = integrate(Integral(math.sin, 0.0, math.pi))
    assert res.value == pytest.approx(2.0, rel=1e-14)


def test_cubic_with_negative_bounds():
    # int_{-1}^{2} (3x^2 - 2x) dx = [x^3 - x^2] = 6
    res = integrate(Integral(lambda x: 3.0 * x * x - 2.0 * x, -1.0, 2.0))
    assert res.value == pytest.approx(6.0, rel=1e-14)


def test_oscillatory_cancellation():
    res = integrate(Integral(lambda x: math.cos(7.0 * x), 0.0, 2.0 * math.pi))
    assert abs(res.value) <= 1e-12


def test_error_estimate_is_honest():
    exact = 1.0 - math.exp(-5.0)
    res = integrate(Integral(lambda x: math.exp(-x), 0.0, 5.0))
    assert abs(res.value - exact) <= max(res.error_estimate, 5e-15 * exact)


def test_linearity_and_additivity_on_seeded_polynomials():
    rng = np.random.default_rng(413)
    for _ in range(10):
        c_p = rng.uniform(-2.0, 2.0, size=7)
        c_q = rng.uniform(-2.0, 2.0, size=7)
        a, mid, b = sorted(rng.uniform(-3.0, 3.0, size=3))
        if b - a < 0.5:
            b, mid = a + 1.0, a + 0.4

        def p(x):
            return float(np.polyval(c_p, x))

        def q(x):
            return float(np.polyval(c_q, x))

        def exact(c, lo, hi):
            anti = np.polyint(c)
            return float(np.polyval(anti, hi) - np.polyval(anti, lo))

        scale = max(1.0, abs(exact(c_p, a, b)), abs(exact(c_q, a, b)))
        combo = integrate(Integral(lambda x: 2.0 * p(x) - 3.0 * q(x), a, b, 1e-12, 1e-14))
        linear = 2.0 * exact(c_p, a, b) - 3.0 * exact(c_q, a, b)
        assert abs(combo.value - linear) / scale <= 1e-12

        left = integrate(Integral(p, a, mid, 1e-12, 1e-14)).value
        right = integrate(Integral(p, mid, b, 1e-12, 1e-14)).value
        whole = integrate(Integral(p, a, b, 1e-12, 1e-14)).value
        assert abs(left + right - whole) / scale <= 1e-12


def test_determinism():
    spec = Integral(lambda x: math.sin(3.0 * x) / (1.0 + x * x), 0.0, 8.0, 1e-12, 0.0)
    first = integrate(spec)
    second = integrate(spec)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first.evaluations == second.evaluations


def test_roundoff_floor_accepts_noise_limited_results():
    # with a tolerance below ~50 eps * integral|f| the per-panel error
    # floors are additive, so subdivision alone can never reach the request;
    # the integrator must recognize the floor and accept.  This kernel (an
    # oscillating-sign integrand with |value| ~ 0.1 but mass ~ 1.5) used to
    # subdivide until the panel budget blew up.
    two_u = 2.0 * 0.3222988

    def kernel(phi):
        t = math.sin(phi)
        return math.cos(2.0 * phi) * (-math.expm1(-two_u * t)) / t

    res = integrate(Integral(kernel, 0.0, math.pi, 1e-13, 1e-15))
    assert res.value == pytest.approx(0.1085387247796919, rel=1e-10)
    assert res.error_estimate <= 1e-12
    assert res.evaluations < 1000


def test_budget_exhaustion_carries_best_estimate():
    spec = Integral(lambda x: math.sin(50.0 / x), 0.01, 10.0, 1e-13, 0.0, 8)
    with pytest.raises(QuadratureError) as excinfo:
        integrate(spec)
    best = excinfo.value.best_estimate
    assert best is not None
    assert best.evaluations == 15 + 30 * 7
    assert math.isfinite(best.value)


def test_non_finite_sample_names_the_abscissa():
    def kernel(x):
        return math.nan if x > 0.5 else 1.0

    with pytest.raises(QuadratureError) as excinfo:
        integrate(Integral(kernel, 0.0, 1.0))
    assert excinfo.value.abscissa is not None
    assert excinfo.value.abscissa > 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lower": 1.0, "upper": 0.0},
        {"lower": 1.0, "upper": 1.0},
        {"rel_tol": 0.0},
        {"rel_tol": -1e-12},
        {"abs_tol": -1.0},
        {"max_panels": 0},
    ],
)
def test_problem_validation(kwargs):
    base = {"integrand": math.sin, "lower": 0.0, "upper": 1.0}
    base.update(kwargs)
    with pytest.raises(ValueError):
        Integral(**base)


def test_infinite_interval_routing():
    with pytest.raises(ValueError, match="finite interval"):
        integrate(Integral(math.exp, 0.0, math.inf))


def test_gk15_panels_exact_degrees_and_estimate():
    # Kronrod is exact to degree 23 and its Gauss-7 subset to degree 13 on
    # each panel, so x^13 leaves a zero estimate and x^20 a positive one
    edges = np.array([0.5, 1.0, 3.0, 4.0])
    nodes, kronrod, gauss = gk15_panels(edges)
    assert nodes.shape == kronrod.shape == gauss.shape == (15, 3)
    assert np.all((edges[:-1] < nodes) & (nodes < edges[1:]))
    assert np.count_nonzero(gauss[:, 0]) == 7
    for p in (0, 5, 13, 20, 23):
        exact = (edges[1:] ** (p + 1) - edges[:-1] ** (p + 1)) / (p + 1)  # per panel
        assert np.sum(nodes**p * kronrod) == pytest.approx(exact.sum(), rel=1e-14)
        estimate = np.abs(np.sum(nodes**p * (kronrod - gauss), axis=0))
        if p <= 13:
            assert np.all(estimate <= 1e-14 * exact)
        else:
            assert np.all(estimate > 1e-13 * exact)
