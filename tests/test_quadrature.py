"""The GK15 panel rule: closed forms, laws, its error check, failure modes."""

import math
import re

import numpy as np
import pytest

from positronium.flux import flux_constraint_integral
from positronium.quadrature import (
    PanelTable,
    QuadratureError,
    angular_edges,
    geometric_edges,
    gk15_panels,
)


def _integral(f, edges, rel_tol=1e-12, abs_tol=1e-14):
    """The rule for f on the given panels, weight 1."""
    table = PanelTable.build("test integral", edges, np.ones_like, rel_tol, abs_tol)
    return table.integral(f(table.nodes))


def test_linear_integrand_converges_on_first_panel():
    table = PanelTable.build("line", [0.0, 1.0], np.ones_like, 1e-12)
    assert table.nodes.size == 15
    assert table.integral(table.nodes) == pytest.approx(0.5, rel=1e-15)


def test_sine_arch():
    assert _integral(np.sin, np.linspace(0.0, math.pi, 5)) == pytest.approx(2.0, rel=1e-14)


def test_cubic_with_negative_bounds():
    # int_{-1}^{2} (3x^2 - 2x) dx = [x^3 - x^2] = 6
    value = _integral(lambda x: 3.0 * x * x - 2.0 * x, [-1.0, 2.0])
    assert value == pytest.approx(6.0, rel=1e-14)


def test_oscillatory_cancellation():
    assert abs(_integral(lambda x: np.cos(7.0 * x), np.linspace(0.0, 2.0 * math.pi, 65))) <= 1e-12


def test_error_estimate_is_honest():
    # the summed Kronrod-minus-Gauss-7 differences bound the actual error
    exact = 1.0 - math.exp(-5.0)
    for panels in (1, 2, 4):
        table = PanelTable.build("exp", np.linspace(0.0, 5.0, panels + 1), np.ones_like, 1.0)
        values = np.exp(-table.nodes)
        estimate = np.abs(np.sum(values * table.weights[1], axis=0)).sum()
        assert abs(table.integral(values) - exact) <= max(estimate, 5e-15 * exact)


def test_linearity_and_additivity_on_seeded_polynomials():
    rng = np.random.default_rng(413)
    for _ in range(10):
        c_p = rng.uniform(-2.0, 2.0, size=7)
        c_q = rng.uniform(-2.0, 2.0, size=7)
        a, mid, b = sorted(rng.uniform(-3.0, 3.0, size=3))
        if b - a < 0.5:
            b, mid = a + 1.0, a + 0.4

        def p(x):
            return np.polyval(c_p, x)

        def q(x):
            return np.polyval(c_q, x)

        def exact(c, lo, hi):
            anti = np.polyint(c)
            return float(np.polyval(anti, hi) - np.polyval(anti, lo))

        scale = max(1.0, abs(exact(c_p, a, b)), abs(exact(c_q, a, b)))
        combo = _integral(lambda x: 2.0 * p(x) - 3.0 * q(x), [a, b])
        linear = 2.0 * exact(c_p, a, b) - 3.0 * exact(c_q, a, b)
        assert abs(combo - linear) / scale <= 1e-12

        left = _integral(p, [a, mid])
        right = _integral(p, [mid, b])
        whole = _integral(p, [a, b])
        assert abs(left + right - whole) / scale <= 1e-12


def test_determinism():
    edges = np.linspace(0.0, 8.0, 33)

    def run():
        table = PanelTable.build("damped sine", edges, lambda x: 1.0 / (1.0 + x * x), 1e-12)
        return table.nodes, table.integral(np.sin(3.0 * table.nodes))

    (nodes_1, first), (nodes_2, second) = run(), run()
    assert np.array_equal(nodes_1, nodes_2)
    assert first == second


def test_roundoff_floor_accepts_noise_limited_results():
    # an oscillating-sign kernel with |value| ~ 0.1 but mass ~ 1.5 (the flux
    # integral at u = 0.3222988): its estimate sits at the roundoff floor,
    # inside the tolerance, and the result is accepted
    assert flux_constraint_integral(0.3222988) == pytest.approx(0.1085387247796919, rel=1e-10)


def test_estimate_over_tolerance_raises_naming_the_integral():
    table = PanelTable.build(
        "wild integral", geometric_edges(0.01, 10.0, 3), np.ones_like, 1e-13
    )
    with pytest.raises(QuadratureError, match=r"wild integral at u=2\.5, n=3: Gauss-7 error"):
        table.integral(np.sin(50.0 / table.nodes), u=2.5, n=3)


def test_non_finite_sample_names_the_abscissa():
    table = PanelTable.build("step", [0.0, 0.5, 1.0], np.ones_like, 1e-12)
    values = np.where(table.nodes > 0.5, math.nan, 1.0)
    with pytest.raises(QuadratureError, match="non-finite integrand at node") as excinfo:
        table.integral(values)
    node = float(re.search(r"at node (\S+)", str(excinfo.value)).group(1))
    assert 0.5 < node < 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"edges": [1.0, 0.0]},
        {"edges": [1.0, 1.0]},
        {"edges": [0.0]},
        {"edges": [0.0, 0.5, 0.5, 1.0]},
        {"edges": [[0.0, 1.0]]},
        {"edges": [0.0, math.nan]},
    ],
)
def test_problem_validation(kwargs):
    base = {"what": "x", "edges": [0.0, 1.0], "weight": np.ones_like, "rel_tol": 1e-12}
    base.update(kwargs)
    with pytest.raises(ValueError, match="strictly increasing panel edges"):
        PanelTable.build(**base)


def test_infinite_interval_routing():
    with pytest.raises(ValueError, match="finite"):
        gk15_panels(np.array([0.0, math.inf]))


def test_angular_edges_layout():
    # [0, lo], then 8 geometric panels per decade up to pi/2
    edges = angular_edges(1e-9)
    assert edges[0] == 0.0 and edges[1] == 1e-9 and edges[-1] == pytest.approx(math.pi / 2)
    assert edges.size == 2 + math.ceil(8 * math.log10(math.pi / 2 / 1e-9))
    ratios = edges[2:] / edges[1:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12) and ratios[0] < 10 ** (1 / 8)


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
