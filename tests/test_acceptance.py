"""The reproduction suite, one pass/fail line per criterion.

Criteria 7 and 8 are implemented faithfully and asserted at their stated
tolerances, and the computed numbers land outside those windows; they are
marked as strict expected failures so the discrepancy stays visible in
every run instead of being absorbed into a looser test.  The sub-checks of
those criteria that do hold are asserted separately below, so a regression
cannot hide behind the xfail markers.
"""

import dataclasses
import math

import pytest

from positronium import acceptance


def _assert_criterion(results, number):
    c = results[number]
    failing = "; ".join(
        f"{s.name}: computed={s.computed:.12g} expected={s.expected:.12g} ({s.tolerance})"
        for s in c.checks
        if not s.passed
    )
    assert c.passed, f"criterion {number} [{c.title}]: {failing}"


def test_criterion_01_circular_orbit_spectrum(acceptance_results):
    _assert_criterion(acceptance_results, 1)


def test_criterion_02_energy_expansion_coefficients(acceptance_results):
    _assert_criterion(acceptance_results, 2)


def test_criterion_03_weak_well_minimizer_location(acceptance_results):
    _assert_criterion(acceptance_results, 3)


def test_criterion_04_ring_radius_tuning(acceptance_results):
    _assert_criterion(acceptance_results, 4)


def test_criterion_05_uniqueness_for_higher_orbits(acceptance_results):
    _assert_criterion(acceptance_results, 5)


def test_criterion_06_flux_constrained_tuning(acceptance_results):
    _assert_criterion(acceptance_results, 6)


@pytest.mark.xfail(
    strict=True,
    reason="zero-energy radius rule: recomputed tight-state energies at the "
    "reference coefficient land ~2e-3 (k=0), ~2.2e-4 (k=2), ~3e-2 (k=3) from "
    "zero, outside the 1e-4 window; only k=1 satisfies it",
)
def test_criterion_07_coupling_scaling_law(acceptance_results):
    _assert_criterion(acceptance_results, 7)


@pytest.mark.xfail(
    strict=True,
    reason="variational tight minimum evaluates to E ~ -16.49 at the reference "
    "radius, far below the expected [0.04, 0.06] window; the minimum location "
    "and the hydrogenic branch do agree (asserted separately)",
)
def test_criterion_08_variational_bound(acceptance_results):
    _assert_criterion(acceptance_results, 8)


def test_criterion_09_property_suites(acceptance_results):
    _assert_criterion(acceptance_results, 9)


def test_criterion_10_delta_reporting(acceptance_results):
    _assert_criterion(acceptance_results, 10)


def test_scaling_law_holds_at_reference_exponent(acceptance_results):
    # the k=1 member of criterion 7 must keep passing
    checks = {s.name: s for s in acceptance_results[7].checks}
    assert checks["k=1 tight minimum energy"].passed
    failing = [name for name, s in checks.items() if not s.passed]
    assert failing == [
        "k=0 tight minimum energy",
        "k=2 tight minimum energy",
        "k=3 tight minimum energy",
    ]


def test_variational_subchecks_other_than_the_energy_window(acceptance_results):
    checks = {s.name: s for s in acceptance_results[8].checks}
    assert checks["tight minimizer a_star"].passed
    assert checks["upper bound"].passed
    assert checks["hydrogenic minimum energy"].passed
    assert not checks["tight minimum energy"].passed
    # the computed bound itself must stay self-consistent: an upper bound
    # below the window can only mean a deeper minimum, not a broken engine
    assert checks["tight minimum energy"].computed < 0.04


def test_significant_digit_agreement_helper():
    assert acceptance.agrees_to_digits(1.234567890123, 1.234567890124, 10)
    assert not acceptance.agrees_to_digits(1.2345678, 1.2345679, 10)
    assert acceptance.agrees_to_digits(-5.0e-5, -5.0e-5, 12)
    assert not acceptance.agrees_to_digits(1.0, 2.0, 2)


def test_report_formats(acceptance_results):
    results = [acceptance_results[n] for n in sorted(acceptance_results)]
    table = acceptance.as_table(results)
    assert "criterion 1" in table and "criterion 10" in table
    assert "FAIL" in table  # the two honest failures must be visible
    report = acceptance.as_report_dict(results)
    assert report["all_passed"] is False
    assert len(report["criteria"]) == 10
    for c in report["criteria"]:
        assert c["checks"], f"criterion {c['number']} reports no checks"
        for s in c["checks"]:
            assert isinstance(s["passed"], bool)
    # each check entry is its SubCheck's fields, in order
    names = [f.name for f in dataclasses.fields(acceptance.SubCheck)]
    for c, result in zip(report["criteria"], results):
        assert [list(s) for s in c["checks"]] == [names] * len(result.checks)
        for s in c["checks"]:
            if math.isnan(s["computed"]):
                assert math.isnan(s["delta"])
            else:
                assert s["delta"] == s["computed"] - s["expected"]


def test_sub_check_computes_its_delta():
    check = acceptance.SubCheck("x", 3.5, 1.25, "abs<=1", False)
    assert (check.delta, check.passed) == (2.25, False)
    assert math.isnan(acceptance.SubCheck("x", math.nan, 1.0, "abs<=1", False).delta)


def test_deltas_are_reported_for_quantitative_criteria(acceptance_results):
    for number in (4, 6, 7, 8):
        deltas = [s.delta for s in acceptance_results[number].checks]
        assert any(math.isfinite(d) for d in deltas)


def test_tampered_reference_value_is_caught(monkeypatch):
    # negative control: push the stored radius coefficient off by 1e-9 and
    # the tuning criterion must flip to failing
    monkeypatch.setattr(acceptance, "ZERO_ENERGY_RADIUS_COEFF", 0.49597832375 + 1e-9)
    tampered = acceptance.criterion_4()
    checks = {s.name: s for s in tampered.checks}
    assert not checks["tuned R/alpha^2"].passed


def test_suite_work_goes_through_the_traced_names(monkeypatch):
    # perfbench's tracer counts the suite's work by wrapping these module
    # attributes, and reads 0 for a name it cannot find: a rewrite that
    # calls a search some other way must fail here, not go dark there
    from positronium.models import PotentialModel

    calls = dict.fromkeys(
        ("minimize_scalar", "find_local_minima", "tune_ring_radius", "tune_bltp",
         "tight_minimum"), 0)

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for name in ("minimize_scalar", "find_local_minima", "tune_ring_radius", "tune_bltp"):
        monkeypatch.setattr(acceptance, name, counted(name, getattr(acceptance, name)))
    monkeypatch.setattr(PotentialModel, "tight_minimum",
                        counted("tight_minimum", PotentialModel.tight_minimum))
    acceptance._tuned_ml_radius.cache_clear()
    acceptance.run_all()
    assert calls == {
        "minimize_scalar": 16,  # criteria 1-3: 5 + 10 + 1
        "find_local_minima": 3,  # criterion 4's two rings and criterion 5's
        "tune_ring_radius": 1,
        "tune_bltp": 1,
        "tight_minimum": 35,  # tune_ring_radius 11, tune_bltp 20, criterion 7 4
    }
    assert acceptance.CRITERIA == tuple(
        getattr(acceptance, f"criterion_{i}") for i in range(1, 10))
