"""Scans in one array call.

PotentialModel evaluates floats and 1-D ndarrays with one energy function
per family, and find_local_minima and sample_curve call their energy once
on the whole grid (find_local_minima refines with floats).  These tests pin
the contract that makes that safe: the array values are the float values
bit for bit, the same minima come out, the same errors are raised, fewer
float calls are made, no garbage cycle is left behind, and no numpy
warning escapes (pyproject.toml makes every RuntimeWarning a test failure).
"""

import dataclasses
import gc
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elementwise
from positronium import acceptance, cli, flux, models, quadrature, variational
from positronium.cli import _BIOT_SAVART_WINDOW, _COULOMB_WINDOW
from positronium.models import (
    FAMILIES,
    PhysicalConfig,
    PotentialModel,
    RingParams,
    _R_RANGE,
    _bltp_integrals,
    potential_scaling_law,
    potential_v3,
    sample_curve,
    scaled_ring_radius,
    tune_ring_radius,
)
from positronium.optimize import OptimizeError, find_local_minima
from positronium.quadrature import PanelTable, QuadratureError

CFG = PhysicalConfig()

# the ring of the `tune --model ring-bltp` golden envelope
BLTP_GOLDEN = RingParams(2.5698078287269686e-05, 180520.24923272172)


def _model(family: str, coeff: float, k: int = 1, u: float = 4.64) -> PotentialModel:
    """A model of ``family``; rings at R = coeff alpha^(1+k), and kappa R = u
    for the regulated ones."""
    if not FAMILIES[family].R:
        return PotentialModel(family, CFG)
    R = scaled_ring_radius(k, CFG.alpha, coeff)
    if family == "ring-bltp":
        return PotentialModel(family, CFG, RingParams(R, u / R))
    return PotentialModel(family, CFG, RingParams(R), scaling_k=k)


def _window(model: PotentialModel, which: int) -> tuple[float, float]:
    if model.params is not None:
        return FAMILIES[model.family].tight_window(model)
    return (_COULOMB_WINDOW, _BIOT_SAVART_WINDOW)[which]


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(tuple(FAMILIES)),
    coeff=st.floats(0.42, 0.55),
    k=st.integers(0, 3),
    u=st.floats(2.5, 8.0),
    which=st.integers(0, 1),
    where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_array_energies_are_the_float_energies(family, coeff, k, u, which, where):
    # over the family's window (the tight window of the rings, the two
    # operational windows of the point charges), bit for bit: no ulp apart
    model = _model(family, coeff, k, u)
    lo, hi = _window(model, which)
    r = lo * (hi / lo) ** np.array(where)
    for energy in (model, model.binding):
        got = energy(r)
        assert got.shape == r.shape
        assert got.tolist() == [energy(x) for x in r.tolist()]


@pytest.mark.parametrize(
    "family,k,which",
    [("coulomb", 1, 0), ("coulomb", 1, 1), ("coulomb-dipole", 1, 0), ("coulomb-dipole", 1, 1),
     ("ring-ml", 1, 0), ("ring-bltp", 1, 0), *(("scaling", k, 0) for k in range(4))],
)
def test_array_energies_are_the_float_energies_on_dense_grids(family, k, which):
    # np.hypot and np.power round about one value in 500 and one in 20
    # differently from math.hypot and float **: a dense grid sees both.
    # ring-ml is the model the CLI builds for --model ring-ml
    if family == "ring-ml":
        family, k = cli._family(family, None)
    model = _model(family, models.ZERO_ENERGY_RADIUS_COEFF, k)
    lo, hi = _window(model, which)
    r = np.geomspace(lo, hi, 401 if family == "ring-bltp" else 4001)
    for energy in (model, model.binding):
        assert energy(r).tolist() == [energy(x) for x in r.tolist()]


def test_array_energies_past_the_float_range():
    # -inf where the dipole term overflows, -0.0 magnetic lines far out,
    # 2q kinetic terms where q^2 overflows: the float values, silently
    r = np.array([1e-300, 1e-200, 1e-106, 1e-5, 1.0, 1e300])
    for model in (
        PotentialModel("coulomb", CFG),
        PotentialModel("coulomb-dipole", CFG),
        PotentialModel("scaling", CFG, RingParams(2.6e-5), scaling_k=1),
    ):
        for energy in (model, model.binding):
            assert energy(r).tolist() == [energy(x) for x in r.tolist()]


def test_array_separations_must_be_positive():
    with pytest.raises(ValueError, match=r"separation r must be positive; got -1\.0"):
        PotentialModel("coulomb", CFG)(np.array([1.0, -1.0, 0.0]))


def _count_float_calls(monkeypatch, name):
    calls = {"float": 0, "array": 0}
    original = getattr(models, name)

    def counted(*args):
        calls["array" if isinstance(args[-1], np.ndarray) else "float"] += 1
        return original(*args)

    monkeypatch.setattr(models, name, counted)
    return calls


def test_regulated_tight_minimum_makes_one_array_pass(monkeypatch):
    # the scan of 140 grid points is one array call; only the refinement
    # evaluates floats (160 float calls when the grid took floats too)
    calls = _count_float_calls(monkeypatch, "_bltp_integrals")
    PotentialModel("ring-bltp", CFG, BLTP_GOLDEN).tight_minimum()
    assert calls["array"] == 1
    assert calls["float"] <= 20


@pytest.mark.parametrize("k", range(4))
def test_ring_tight_minimum_makes_one_array_pass(monkeypatch, k):
    # 241 grid points in one call; 260 float calls when the grid took floats
    calls = _count_float_calls(monkeypatch, "_ring_lines")
    _model("scaling", models.ZERO_ENERGY_RADIUS_COEFF, k).tight_minimum()
    assert calls["array"] == 1
    assert calls["float"] <= 20


def test_tuning_finds_the_float_grids_minima(grids_compared):
    # criteria 4 to 7 and tune_ring_radius for every exponent: each minimum
    # from the array grid is the one the float grid finds
    flux.tune_bltp()
    assert len(grids_compared) == 20  # criterion 6: 20 distinct rings
    for k in range(4):
        models.tune_ring_radius("scaling", CFG, 0.0, scaling_k=k)
    acceptance.criterion_7()
    assert len(grids_compared) > 24
    compared = len(grids_compared)
    acceptance.criterion_4()
    acceptance.criterion_5()
    assert grids_compared[compared:][-3:] == [(1e-6, 1e-3)] * 3  # the scans of 4 and 5


def test_golden_minimize_and_tune_find_the_float_grids_minima(grids_compared):
    from test_cli_golden import CASES, run_case

    for argv in CASES:
        if argv[0] in ("minimize", "tune"):
            assert run_case(argv)["exit"] == 0
    assert len(grids_compared) >= 9


def test_regulated_pair_in_chunks(monkeypatch):
    # a CLI grid may hold a million r: each pass is capped at _CHUNK_NODES
    # nodes (a table has 285 to 1,365 of them here), without moving a value
    R, kappa = BLTP_GOLDEN.R, BLTP_GOLDEN.kappa
    r = np.geomspace(1e-3 * R, 1e3 * R, 50)
    whole = _bltp_integrals(R, kappa, r)
    sizes = []
    original = models._bltp_pass

    def counted(decades, rho, *args):
        sizes.append(rho.size * models._bltp_table(decades)[0].nodes.size)
        return original(decades, rho, *args)

    monkeypatch.setattr(models, "_bltp_pass", counted)
    monkeypatch.setattr(quadrature, "_CHUNK_NODES", 2000)
    chunked = _bltp_integrals(R, kappa, r)
    assert len(sizes) > 10 and max(sizes) <= 2000  # 4 tables, 14 passes
    assert [x.tolist() for x in chunked] == [x.tolist() for x in whole]


def test_regulated_pair_fails_as_the_floats_fail(monkeypatch):
    # no rule meets a zero tolerance: the array pass raises the error the
    # first float raises, which names that r, R and kappa
    models._bltp_table.cache_clear()
    monkeypatch.setattr(models, "_BLTP_REL_TOL", 0.0)
    monkeypatch.setattr(models, "_BLTP_ABS_TOL", 0.0)
    try:
        R, kappa = BLTP_GOLDEN.R, BLTP_GOLDEN.kappa
        r = np.geomspace(0.05 * R, 10.0 * R, 30)
        with pytest.raises(QuadratureError) as scalar:
            _bltp_integrals(R, kappa, float(r[0]))
        with pytest.raises(QuadratureError) as batched:
            _bltp_integrals(R, kappa, r)
        assert str(batched.value) == str(scalar.value)
        assert f"at r={float(r[0])!r}, R={R!r}, kappa={kappa!r}: Gauss-7" in str(scalar.value)
        # and through the tight-minimum search
        model = PotentialModel("ring-bltp", CFG, BLTP_GOLDEN)
        with pytest.raises(QuadratureError) as scalar:
            find_local_minima(elementwise(model), 0.05 * R, 10.0 * R, 60)
        with pytest.raises(QuadratureError) as batched:
            model.tight_minimum()
        assert str(batched.value) == str(scalar.value)
    finally:
        models._bltp_table.cache_clear()


def test_regulated_pair_names_the_first_failing_r_across_tables(monkeypatch):
    # the elements are evaluated table by table, not in array order: the
    # error is still the one the first failing float raises
    R, kappa = BLTP_GOLDEN.R, BLTP_GOLDEN.kappa
    r = np.array([3.0 * R, 0.1 * R, 4.0 * R])  # tables 10^-2, 10^-4, 10^-2
    failing = {0.1 * R, 4.0 * R}
    original = models._bltp_pass

    def failing_pass(decades, rho, scale, x, *args):
        hit = [v for v in np.ravel(x).tolist() if v in failing]
        if hit:
            raise QuadratureError(f"fails at r={hit[0]!r}")
        return original(decades, rho, scale, x, *args)

    monkeypatch.setattr(models, "_bltp_pass", failing_pass)
    with pytest.raises(QuadratureError, match=re.escape(f"fails at r={0.1 * R!r}")):
        _bltp_integrals(R, kappa, r)


VARIATIONAL_WINDOWS = [(1e-6, 1e-4), (1.0, 1e4), (1e-6, 1e4)]  # tight, Coulombic, wide
R_VARIATIONAL = 2.661639e-5


@pytest.mark.parametrize("chunk", [quadrature._CHUNK_NODES, 5000])
def test_variational_grid_is_the_float_energies(grids_compared, monkeypatch, chunk):
    # every trial scale of the grid's (a x node) passes gives its float
    # energy bit for bit; at 5000 elements a pass holds 2 or 3 scales, so each
    # grid crosses dozens of chunk boundaries
    monkeypatch.setattr(quadrature, "_CHUNK_NODES", chunk)
    for lo, hi in VARIATIONAL_WINDOWS:
        variational.minimize_over_a(R_VARIATIONAL, lo, hi, CFG)
        kinetic = variational._kinetic_table(lo, hi)
        potential = variational._potential_table(R_VARIATIONAL, lo, hi, CFG)
        a = np.geomspace(lo, hi, 401)
        floats = [variational._kinetic_at(kinetic, x) + variational._potential_at(potential, x)
                  for x in a.tolist()]
        assert variational._energies(kinetic, potential, a).tolist() == floats
    assert grids_compared == VARIATIONAL_WINDOWS


def _grid_and_float_errors(monkeypatch, *args):
    """The QuadratureError texts of minimize_over_a(*args), its scan grid
    taken in one array call and float by float."""
    texts = []
    for wrap in (lambda f: f, elementwise):
        monkeypatch.setattr(variational, "find_local_minima",
                            lambda f, *window, **kw: find_local_minima(wrap(f), *window, **kw))
        with pytest.raises(QuadratureError) as err:
            variational.minimize_over_a(*args)
        texts.append(str(err.value))
    return texts


@pytest.mark.parametrize(
    "window",
    [*VARIATIONAL_WINDOWS, (_R_RANGE[0], 1e3 * _R_RANGE[0]), (1e-3 * _R_RANGE[1], _R_RANGE[1])],
)
def test_variational_grid_fails_as_the_floats_fail(monkeypatch, window):
    # one panel per decade is far too coarse for both tables
    monkeypatch.setattr(variational, "_PANELS_PER_DECADE", 1)
    grid, floats = _grid_and_float_errors(monkeypatch, R_VARIATIONAL, *window, CFG)
    assert grid == floats
    assert f"at a={window[0]!r}: Gauss-7 error estimate" in grid


def test_variational_grid_names_the_first_failing_scale(monkeypatch):
    # the pass takes every kinetic integral before any potential one, yet
    # its error is the floats': here the kinetic integral fails from 1e-5
    # on and the potential one at every scale, so the potential error at
    # a_min comes first
    class FailsFrom(PanelTable):
        def integral(self, values, **at):
            if at["a"] >= 1e-5:
                raise QuadratureError(f"kinetic fails at a={at['a']!r}")
            return super().integral(values, **at)

        def integrals(self, values, **at):
            late = at["a"][at["a"] >= 1e-5]
            if late.size:
                raise QuadratureError(f"kinetic fails at a={float(late[0])!r}")
            return super().integrals(values, **at)

    kinetic, potential = variational._kinetic_table, variational._potential_table
    monkeypatch.setattr(variational, "_kinetic_table", lambda *w: FailsFrom(**vars(kinetic(*w))))
    # no rule meets a zero tolerance
    monkeypatch.setattr(variational, "_potential_table",
                        lambda *args: dataclasses.replace(potential(*args), rel_tol=0.0))
    grid, floats = _grid_and_float_errors(monkeypatch, R_VARIATIONAL, 1e-6, 1e-4, CFG)
    assert grid == floats
    assert f"potential expectation for R={R_VARIATIONAL!r} at a=1e-06: Gauss-7" in grid


def test_array_passes_stay_within_one_chunk(monkeypatch):
    # what keeps a long grid's memory flat: no (parameter x node) array
    # handed to PanelTable.integrals exceeds _CHUNK_NODES elements
    shapes = []
    original = PanelTable.integrals

    def recorded(self, values, **at):
        shapes.append(values.shape)
        return original(self, values, **at)

    monkeypatch.setattr(PanelTable, "integrals", recorded)
    variational.minimize_over_a(R_VARIATIONAL, 1e-6, 1e4, CFG)  # 401 scales
    passes = len(shapes)
    R, kappa = BLTP_GOLDEN.R, BLTP_GOLDEN.kappa
    _bltp_integrals(R, kappa, np.geomspace(1e-3 * R, 1e3 * R, 2000))
    assert passes > 2 and len(shapes) > passes + 2
    assert max(math.prod(shape) for shape in shapes) <= quadrature._CHUNK_NODES


def test_panel_integrals_name_the_first_failing_row():
    table = PanelTable.build("test integral", np.array([0.0, 1.0, 2.0]), np.ones_like, 1e-12)
    x = table.nodes
    values = np.stack([np.ones_like(x), np.sin(30.0 * x), np.sin(40.0 * x)])
    with pytest.raises(QuadratureError) as scalar:
        table.integral(values[1], a=2.5, b=1.0)
    with pytest.raises(QuadratureError) as batched:
        table.integrals(values, a=np.array([1.5, 2.5, 3.5]), b=1.0)
    assert str(batched.value) == str(scalar.value)
    assert table.integrals(values[:1], a=np.array([1.5])).tolist() == [table.integral(values[0])]


def test_non_finite_grid_value_fails_as_the_floats_fail():
    def f(x):
        return math.nan if x > 5.0 else (x - 3.0) ** 2

    def f_array(x):
        return np.where(x > 5.0, math.nan, (x - 3.0) ** 2)

    with pytest.raises(OptimizeError) as scalar:
        find_local_minima(elementwise(f), 1.0, 10.0, 20)
    with pytest.raises(OptimizeError) as batched:
        find_local_minima(f_array, 1.0, 10.0, 20)
    assert str(batched.value) == str(scalar.value)
    assert batched.value.abscissa == scalar.value.abscissa > 5.0
    # the point dipole below the float range: -inf from r = 1e-300 on
    dipole = PotentialModel("coulomb-dipole", CFG)
    with pytest.raises(OptimizeError) as batched:
        find_local_minima(dipole.binding, 1e-300, 1.0, 10)
    assert str(batched.value) == "function returned non-finite value -inf at x=1e-300"
    assert batched.value.abscissa == 1e-300


def test_array_grid_finds_the_float_grids_minima_of_any_function():
    minima = find_local_minima(np.cos, 1.0, 20.0, 40)
    assert minima == find_local_minima(elementwise(np.cos), 1.0, 20.0, 40)
    assert len(minima) == 3


@pytest.mark.parametrize("k", range(4))
def test_ring_potentials_on_arrays_are_their_floats(k):
    # the benchmark scans lambdas over potential_v3 and potential_scaling_law
    params = RingParams(scaled_ring_radius(k))
    r = np.geomspace(_BIOT_SAVART_WINDOW[0] * CFG.alpha ** (k - 1), _COULOMB_WINDOW[1], 2001)
    got = potential_scaling_law(k, params, CFG, r)
    assert got.tolist() == [potential_scaling_law(k, params, CFG, x) for x in r.tolist()]
    if k == 1:
        assert potential_v3(params, CFG, r).tolist() == got.tolist()
    with pytest.raises(ValueError, match=r"separation r must be positive; got 0\.0"):
        potential_scaling_law(k, params, CFG, np.array([1.0, 0.0]))
    # past the float range of q^2 and r/2R, without a numpy warning
    ring, ends = RingParams(2.6e-5), np.array([1e-320, 1.0, 1e304])
    got = potential_scaling_law(k, ring, CFG, ends)
    assert got.tolist() == [potential_scaling_law(k, ring, CFG, x) for x in ends.tolist()]
    if k == 1:
        assert potential_v3(ring, CFG, ends).tolist() == got.tolist()
        assert got.tolist() == [math.inf, 2.8211297673090185, 2.0]


def test_scans_leave_no_garbage_cycles():
    # an objective that calls itself (for one array element at a time, say)
    # leaves a cycle per call, holding whatever its closure holds
    R = scaled_ring_radius(1)
    ring = PotentialModel("scaling", CFG, RingParams(R), scaling_k=1)
    gc.collect()
    gc.disable()
    try:
        variational.minimize_over_a(R, 1e-6, 1e-4, CFG)
        ring.tight_minimum()
        tune_ring_radius("scaling", CFG, 0.0, scaling_k=1)
        sample_curve(ring.binding, 1e-6, 1e4, 50)
        assert gc.collect() == 0
    finally:
        gc.enable()
