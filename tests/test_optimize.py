"""Scalar minimization, grid scanning, and root finding."""

import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elementwise
from positronium import models, variational
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


def test_minima_on_either_side_of_a_narrow_spike_are_both_kept():
    # a spike of width 2d on the grid point x0 of a V: the dips at the grid
    # points either side refine to about x0 - d and x0 + d, under 1e-8
    # relative apart, and each is a minimum of its own, across the spike
    x0 = 10.0 ** 0.5  # grid[5] of the scan below
    d = 3e-9 * x0
    f = lambda x: np.abs(x - x0) + 10.0 * np.maximum(0.0, 1.0 - np.abs(x - x0) / d)
    minima = find_local_minima(f, 1.0, 10.0, 10)
    assert len(minima) == 2
    below, above = minima
    assert below.r_star < x0 < above.r_star
    for p in minima:
        assert 1e-9 < abs(p.r_star / x0 - 1.0) < 1e-8
    assert [p.kind for p in minima].count("global_min") == 1


_COSINES = st.lists(
    st.tuples(
        st.floats(0.1, 1.0),  # amplitude
        st.floats(0.5, 20.0),  # frequency in ln r
        st.floats(0.0, 2.0 * math.pi),  # phase
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(terms=_COSINES)
def test_minima_ascend_and_the_deepest_is_labelled(terms):
    # sums of cosines in ln r: many wells, often of equal depth
    def f(r):
        return sum(a * math.cos(w * math.log(r) + phase) for a, w, phase in terms)

    minima = find_local_minima(elementwise(f), 1.0, 1e3, 40)
    assert all(p.r_star < q.r_star for p, q in zip(minima, minima[1:]))
    if not minima:
        return
    assert [p.kind for p in minima].count("global_min") == 1
    # the lowest value, a tie within 1e-12 relative going to the smaller r
    low = min(p.v_star for p in minima)
    tied = [p for p in minima if p.v_star - low <= 1e-12 * max(abs(p.v_star), abs(low), 1e-300)]
    assert tied[0].kind == "global_min"


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
    # a non-finite window end or density is the window's own error, not the
    # OverflowError or bare ValueError of counting an infinite grid
    with pytest.raises(ValueError, match=re.escape("need 0 < r_min < r_max < inf; got (1.0, inf)")):
        find_local_minima(np.cos, 1.0, math.inf, 10)
    for ppd in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"points_per_decade must be .*; got {ppd!r}$"):
            find_local_minima(np.cos, 1.0, 10.0, ppd)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        minimize_scalar(lambda x: x * x, Bracket(-1.0, 0.1, 1.0), x_tol=0.0)


def test_dataclass_invariants():
    with pytest.raises(ValueError):
        Bracket(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        StationaryPoint(1.0, 0.0, "saddle", Bracket(0.0, 1.0, 2.0))


def _direct_minima(f, r_min, r_max, points_per_decade):
    """find_local_minima's answer computed directly: a fresh ``10.0 **``
    grid, a loop over its values for the dips, and minimize_scalar on each
    dip, which evaluates the bracket's three floats again.  The reference
    for the grid cache and for refining from the scan's values."""
    lg_lo, lg_hi = math.log10(r_min), math.log10(r_max)
    count = max(3, int(math.ceil(points_per_decade * (lg_hi - lg_lo))) + 1)
    step = (lg_hi - lg_lo) / (count - 1)
    grid = [r_min, *(10.0 ** (lg_lo + i * step) for i in range(1, count - 1)), r_max]
    values = f(np.array(grid)).tolist()
    found = [
        minimize_scalar(f, Bracket(grid[i - 1], grid[i], grid[i + 1]))
        for i in range(1, count - 1)
        if values[i - 1] > values[i] < values[i + 1]
    ]
    if found:
        best = 0
        for j in range(1, len(found)):
            vb, vj = found[best].v_star, found[j].v_star
            if vj < vb - 1e-12 * max(abs(vb), abs(vj), 1e-300):
                best = j
        found[best] = replace(found[best], kind="global_min")
    return found


def _scaling_ring(k, coeff):
    R = models.scaled_ring_radius(k, PhysicalConfig().alpha, coeff)
    return PotentialModel("scaling", PhysicalConfig(), RingParams(R), scaling_k=k)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(0, 3),
    coeff=st.floats(0.42, 0.55),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda t: abs(t[0] - t[1]) > 0.05),
    points_per_decade=st.sampled_from([10, 40, 60]),
)
def test_minima_are_the_direct_scans_minima(k, coeff, ends, points_per_decade):
    # any sub-window of a scaling ring's tight window, searched twice (the
    # second search reuses the first one's grid): the direct scan's minima,
    # bit for bit
    model = _scaling_ring(k, coeff)
    lo, hi = models.FAMILIES["scaling"].tight_window(model)
    r_min, r_max = (lo * (hi / lo) ** t for t in sorted(ends))
    expected = repr(_direct_minima(model, r_min, r_max, points_per_decade))
    for _ in range(2):
        assert repr(find_local_minima(model, r_min, r_max, points_per_decade)) == expected


def test_bopp_golden_minima_are_the_direct_scans_minima():
    # the ring of the golden minimize and scan --model ring-bltp envelopes
    model = PotentialModel("ring-bltp", PhysicalConfig(), RingParams(2.5698078e-05, 1.805202e5))
    window = models.FAMILIES["ring-bltp"].tight_window(model)
    (minimum,) = find_local_minima(model, *window, 60)
    assert repr([minimum]) == repr(_direct_minima(model, *window, 60))


@pytest.mark.parametrize("window", [(1e-6, 1e-4), (1.0, 1e4)])
def test_variational_minima_are_the_direct_scans_minima(monkeypatch, window):
    # minimize_over_a's objective at the reference ring over the tight and
    # Coulombic windows
    compared = []

    def both(f, r_min, r_max, points_per_decade):
        got = find_local_minima(f, r_min, r_max, points_per_decade)
        assert repr(got) == repr(_direct_minima(f, r_min, r_max, points_per_decade))
        compared.append(got)
        return got

    monkeypatch.setattr(variational, "find_local_minima", both)
    variational.minimize_over_a(2.661639e-5, *window)
    assert len(compared) == 1 and compared[0]


def test_flat_runs_are_the_direct_scans_dips():
    # values equal at neighbouring grid points: only a strict dip is refined
    f = elementwise(lambda x: round(math.cos(x), 1))
    assert repr(find_local_minima(f, 1.0, 20.0, 40)) == repr(_direct_minima(f, 1.0, 20.0, 40))


def test_a_callable_writing_its_argument_leaves_the_window_grid():
    # the grid of a window is laid once; f writing into its argument must not
    # move the next search of that window
    def cosine(x):
        return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)

    def doubling(x):
        values = cosine(x)
        if isinstance(x, np.ndarray):
            x *= 2.0
        return values

    expected = repr(_direct_minima(cosine, 1.0, 20.0, 40))
    assert repr(find_local_minima(doubling, 1.0, 20.0, 40)) == expected
    assert repr(find_local_minima(cosine, 1.0, 20.0, 40)) == expected
