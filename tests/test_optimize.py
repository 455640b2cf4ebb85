"""Scalar minimization, grid scanning, and root finding."""

import math
import re
import sys

import numpy as np
import pytest

from positronium.models import PhysicalConfig, PotentialModel, RingParams, bohr_energy
from positronium.optimize import (
    Bracket,
    OptimizeError,
    StationaryPoint,
    find_local_minima,
    find_root,
    minimize_scalar,
)


def test_quadratic_minimum():
    p = minimize_scalar(lambda x: (x - 2.0) ** 2 + 1.0, Bracket(0.5, 1.2, 5.0))
    assert p.r_star == pytest.approx(2.0, rel=1e-8)
    assert p.v_star == pytest.approx(1.0, abs=1e-15)
    assert p.kind == "local_min"


def test_minimum_value_never_exceeds_bracket_ends():
    f = lambda x: math.cosh(x - 1.3)
    bracket = Bracket(0.0, 1.0, 4.0)
    p = minimize_scalar(f, bracket)
    assert p.v_star <= f(bracket.lo)
    assert p.v_star <= f(bracket.hi)
    assert bracket.lo <= p.r_star <= bracket.hi


def test_cosine_minima_enumeration_and_tie_break():
    # cos has minima at pi, 3pi, 5pi inside (1, 20), all with value -1;
    # the global label must go to the smallest position on a value tie
    minima = find_local_minima(np.cos, 1.0, 20.0, points_per_decade=40)
    assert len(minima) == 3
    expected = [math.pi, 3.0 * math.pi, 5.0 * math.pi]
    for p, x in zip(minima, expected):
        assert p.r_star == pytest.approx(x, rel=1e-8)
        assert p.v_star == pytest.approx(-1.0, abs=1e-12)
    assert [p.kind for p in minima] == ["global_min", "local_min", "local_min"]


def test_coulomb_binding_refinement():
    # the rest-subtracted point-charge curve: analytic minimizer and value
    cfg = PhysicalConfig()
    binding = PotentialModel("coulomb", cfg).binding
    p = minimize_scalar(binding, Bracket(100.0, 250.0, 600.0))
    assert p.r_star == pytest.approx(math.sqrt(4.0 - cfg.alpha**2) / cfg.alpha, rel=1e-7)
    assert 2.0 + p.v_star == pytest.approx(bohr_energy(cfg), rel=1e-12)


def test_grid_resolution_invariance():
    binding = PotentialModel("coulomb", PhysicalConfig()).binding
    coarse = find_local_minima(binding, 1.0, 1e4, points_per_decade=15)
    fine = find_local_minima(binding, 1.0, 1e4, points_per_decade=60)
    assert len(coarse) == len(fine) == 1
    assert coarse[0].r_star == pytest.approx(fine[0].r_star, rel=1e-8)


def test_monotone_function_has_no_minima():
    assert find_local_minima(lambda x: x, 1.0, 100.0, points_per_decade=20) == []


def test_deepest_minimum_picks_the_lowest_well():
    # minima of cos(x) - x/100 at about pi, 3pi, 5pi: the last is deepest,
    # and the one labelled global_min
    f = lambda x: np.cos(x) - x / 100.0
    minima = find_local_minima(f, 1.0, 20.0, points_per_decade=40)
    p = min(minima, key=lambda q: q.v_star)
    assert len(minima) == 3 and [q.kind == "global_min" for q in minima] == [False, False, True]
    assert p is minima[-1]
    assert p.r_star == pytest.approx(5.0 * math.pi, rel=1e-3)


def test_deepest_minimum_names_the_empty_window():
    # the deepest tight minimum of a barely regulated ring pair (kappa R = 1):
    # (0.05 R, 10 R) holds no interior minimum, and the error names the
    # window, R and kappa
    R = 2.5698078287e-5
    model = PotentialModel("ring-bltp", PhysicalConfig(), RingParams(R, 1.0 / R))
    where = f"no interior minimum in ({0.05 * R!r}, {10.0 * R!r}) at R={R!r}, kappa={1.0 / R!r}"
    with pytest.raises(OptimizeError, match=re.escape(where) + "$"):
        model.tight_minimum()


def test_root_of_sqrt_two():
    root = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_root_at_bracket_end_returns_exactly():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0


def test_root_requires_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_root_argument_validation():
    with pytest.raises(ValueError):
        find_root(lambda x: x, 2.0, 1.0)


def test_minima_up_to_the_largest_float():
    # near the top of the float range 10 ** log10(r_max) rounded past it
    # (OverflowError in the grid), and (x - w)(f(x) - f(v)) overflowed in
    # the parabolic step, whose nan then divided by zero
    f = lambda x: (x / 1e307 - 10.0) ** 2
    p = minimize_scalar(f, Bracket(1e306, 5e307, 1.7e308))
    assert p.r_star == pytest.approx(1e308, rel=1e-6)
    (q,) = find_local_minima(f, 1e306, sys.float_info.max, 10)
    assert q.r_star == pytest.approx(1e308, rel=1e-6) and q.kind == "global_min"


def test_invalid_bracket_is_rejected():
    with pytest.raises(ValueError, match="below both ends"):
        minimize_scalar(lambda x: x, Bracket(0.0, 1.0, 2.0))


def test_non_finite_function_value_carries_abscissa():
    def f(x):
        return math.inf if x > 1.5 else (x - 1.0) ** 2

    with pytest.raises(OptimizeError) as excinfo:
        minimize_scalar(f, Bracket(0.0, 1.0, 2.0))
    assert excinfo.value.abscissa == 2.0


def test_scan_window_validation():
    with pytest.raises(ValueError):
        find_local_minima(np.cos, -1.0, 10.0, points_per_decade=40)
    with pytest.raises(ValueError):
        find_local_minima(np.cos, 10.0, 1.0, points_per_decade=40)
    with pytest.raises(ValueError):
        find_local_minima(np.cos, 1.0, 10.0, points_per_decade=5)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        minimize_scalar(lambda x: x * x, Bracket(-1.0, 0.1, 1.0), x_tol=0.0)


def test_dataclass_invariants():
    with pytest.raises(ValueError):
        Bracket(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        StationaryPoint(1.0, 0.0, "saddle", Bracket(0.0, 1.0, 2.0))
