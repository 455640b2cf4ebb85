"""Command-line interface: formats, envelopes, exit codes, config files."""

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from positronium import acceptance, cli, flux, models, variational
from positronium.models import PhysicalConfig, PotentialModel


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_emits_csv(capsys):
    code, out, err = run_cli(
        capsys, "scan", "--model", "coulomb", "--rmin", "100", "--rmax", "1000", "--points", "5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,V"
    assert len(lines) == 6
    model = PotentialModel("coulomb", PhysicalConfig())
    for line in lines[1:]:
        r_text, v_text = line.split(",")
        r, v = float(r_text), float(v_text)
        # 17 significant digits round-trip doubles exactly
        assert v == model(r)
    assert float(lines[1].split(",")[0]) == 100.0
    assert float(lines[-1].split(",")[0]) == 1000.0


def test_scan_json_envelope_and_determinism(capsys):
    argv = ("scan", "--model", "coulomb", "--rmin", "1", "--rmax", "10", "--points", "4", "--json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    first = json.loads(out)
    assert set(first) == {"command", "version", "params", "results", "meta"}
    assert first["command"] == "scan"
    assert first["params"]["model"] == "coulomb"
    assert first["params"]["quantity"] == "potential"
    assert len(first["results"]["r"]) == 4

    code, out, _ = run_cli(capsys, *argv)
    second = json.loads(out)
    first.pop("meta")
    second.pop("meta")
    assert first == second


def test_scan_parameter_echo_reruns_identically(capsys):
    _, out, _ = run_cli(capsys, "scan", "--model", "coulomb-dipole", "--json")
    env = json.loads(out)
    p = env["params"]
    argv = [
        "scan", "--model", p["model"], "--alpha", repr(p["alpha"]), "--n", str(p["n"]),
        "--rmin", repr(p["rmin"]), "--rmax", repr(p["rmax"]),
        "--points", str(p["points"]), "--quantity", p["quantity"], "--json",
    ]
    argv.append("--log" if p["spacing"] == "log" else "--linear")
    _, out, _ = run_cli(capsys, *argv)
    env2 = json.loads(out)
    assert env2["results"] == env["results"]


def test_scan_binding_quantity(capsys):
    _, out, _ = run_cli(
        capsys, "scan", "--model", "coulomb", "--rmin", "200", "--rmax", "400",
        "--points", "3", "--quantity", "binding", "--json",
    )
    env = json.loads(out)
    model = PotentialModel("coulomb", PhysicalConfig())
    for r, v in zip(env["results"]["r"], env["results"]["V"]):
        assert v == pytest.approx(model(r) - 2.0, abs=1e-15)
        assert v < 0.0


@pytest.mark.parametrize("quantity", ["potential", "binding"])
def test_scan_evaluates_each_point_once(capsys, monkeypatch, quantity):
    family = models.FAMILIES["coulomb"]
    evaluated = []

    def counted(kinetic, model, r):
        evaluated.append(r)
        return family.energy(kinetic, model, r)

    monkeypatch.setitem(models.FAMILIES, "coulomb", dataclasses.replace(family, energy=counted))
    code, out, _ = run_cli(
        capsys, "scan", "--model", "coulomb", "--points", "25", "--quantity", quantity, "--json"
    )
    assert code == 0
    # one array call, holding each grid point once, in order
    assert len(evaluated) == 1
    assert evaluated[0].tolist() == json.loads(out)["results"]["r"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("scan", "--model", "ring-ml", "--R", "-1"), "--R"),
        (("scan", "--model", "coulomb", "--rmin", "5", "--rmax", "5"), "--rmax"),
        (("scan", "--model", "coulomb", "--points", "1"), "--points"),
        (("scan", "--model", "coulomb", "--R", "1e-5"), "--R"),
        (("scan", "--model", "ring-ml"), "--R"),
        (("scan", "--model", "ring-bltp", "--R", "2.5e-5"), "--kappa"),
        (("scan", "--model", "scaling", "--R", "2.5e-5", "--k", "7"), "--k"),
        (("scan", "--model", "coulomb", "--alpha", "2.0"), "--alpha"),
        (("scan", "--model", "ring-ml", "--R", "1e-5", "--R-coeff", "0.5"), "--R"),
        (("minimize", "--model", "coulomb", "--points-per-decade", "3"), "--points-per-decade"),
        (("variational", "--R", "2.6e-5", "--a-min", "1", "--a-max", "0.5"), "--a-max"),
        # only the scaling family takes an exponent, for tune as for scan
        (("tune", "--model", "ring-ml", "--k", "3"), "--k"),
        (("tune", "--model", "ring-bltp", "--k", "3"), "--k"),
        (("tune", "--model", "scaling", "--k", "4"), "--k"),
        # non-finite floats stop at validation, not in the numerics
        (("variational", "--R", "2.6e-5", "--a", "inf"), "--a"),
        (("scan", "--model", "coulomb", "--rmax", "inf"), "--rmax"),
        (("flux-solve", "--kappa", "nan"), "--kappa"),
    ],
)
def test_usage_errors_name_the_flag(capsys, argv, flag):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert flag in err


@pytest.mark.parametrize("text", ["-5e-3", "-1E+2", "-.5e1"])
def test_negative_floats_in_exponent_notation_parse_as_values(text):
    # argparse's own negative-number pattern has no exponent, so without
    # help it takes "-5e-3" for an unknown option and "--target" goes empty
    args = cli._build_parser().parse_args(["tune", "--target", text])
    assert args.target == float(text)


def test_negative_exponent_window_reaches_validation(capsys):
    code, _, err = run_cli(capsys, "scan", "--model", "coulomb", "--rmin", "-1e-3")
    assert code == 2
    assert "--rmin: must be positive" in err


def test_negative_exponent_target_spaced_and_joined_agree(capsys):
    spaced = run_cli(capsys, "tune", "--model", "ring-ml", "--target", "-5e-3", "--json")
    joined = run_cli(capsys, "tune", "--model", "ring-ml", "--target=-5e-3", "--json")
    assert spaced[0] == joined[0] == 0
    envelopes = [json.loads(out) for _, out, _ in (spaced, joined)]
    for env in envelopes:
        env.pop("meta")
    assert envelopes[0] == envelopes[1]
    assert envelopes[0]["params"]["target"] == -5e-3


def test_extreme_windows_exit_cleanly(capsys):
    # the window spans 600 decades: r_max/r_min overflows, its logarithms do not
    code, out, _ = run_cli(
        capsys, "minimize", "--model", "coulomb", "--rmin", "1e-300", "--rmax", "1e300", "--json"
    )
    assert code == 0
    minima = json.loads(out)["results"]["minima"]
    cfg = PhysicalConfig()
    assert [m["r_star"] for m in minima] == [
        pytest.approx(math.sqrt(4.0 - cfg.alpha**2) / cfg.alpha, rel=1e-6)
    ]
    # at r = 1e-200 the kinetic energy 2n/r is finite although (n/r)^2 is not
    code, out, _ = run_cli(capsys, "scan", "--model", "coulomb", "--rmin", "1e-200", "--json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["r"][0] == 1e-200
    assert res["V"][0] == pytest.approx((2.0 - cfg.alpha) * 1e200, rel=1e-15)
    assert all(math.isfinite(v) for v in res["V"])


@pytest.mark.parametrize(
    "argv",
    [
        ("minimize", "--model", "ring-ml", "--R", "1e200"),
        ("minimize", "--model", "ring-bltp", "--R", "1e-300", "--kappa", "1"),
        ("variational", "--R", "1e200", "--a", "1"),
    ],
)
def test_ring_radius_past_the_float_range_is_a_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "ring radius R" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--a", "1e-300"),
        ("--a", "1e300"),
        ("--a-min", "1e-300", "--a-max", "1e300"),
        # a^3 is not a normal float: 4/a^3 divided by zero, overflowed, or
        # was inf and the energy null
        ("--a", "1e-120"),
        ("--a-min", "1e-120", "--a-max", "1e-100"),
        ("--a", "6e102"),
        ("--a", "1e-103"),
        ("--a", "1e-104"),
    ],
)
def test_trial_scales_past_the_float_range_are_a_numerical_failure(capsys, argv):
    # the node tables then span more than the float range: hi/lo overflows.
    # The integrands overflow at such scales too (silently: the numpy work
    # runs under np.errstate), and the rule's non-finite check names a; a
    # trial scale whose cube is not a normal float is named before that
    code, _, err = run_cli(capsys, "variational", "--R", "2.6e-5", *argv)
    assert code == 3
    assert "numerical failure" in err and " a=" in err


def test_dipole_window_past_the_float_range_is_a_numerical_failure(capsys):
    # r^3 underflows to 0 below r ~ 1e-108, where the dipole term
    # alpha^3/(8 pi^2 r^3) has already overflowed to inf (from r ~ 1e-106 on):
    # the potential is -inf there, which the minimizer names as it does at
    # r = 1e-106, instead of a ZeroDivisionError traceback
    code, _, err = run_cli(
        capsys, "minimize", "--model", "coulomb-dipole", "--rmin", "1e-300", "--rmax", "1"
    )
    assert code == 3
    assert err == "numerical failure: function returned non-finite value -inf at x=1e-300\n"


@pytest.mark.parametrize(
    "model,rmin,value",
    [
        # a subnormal r: the kinetic term is inf, the energy inf - inf
        ("coulomb", "1e-320", "nan"),
        # the dipole term has overflowed to inf
        ("coulomb-dipole", "1e-300", "-inf"),
    ],
)
def test_non_finite_scan_value_is_a_numerical_failure(capsys, model, rmin, value):
    # a non-finite potential on the grid is a numerical failure, exit 3, in
    # scan as in minimize: not a usage error
    code, _, err = run_cli(
        capsys, "scan", "--model", model, "--rmin", rmin, "--rmax", "1", "--points", "5"
    )
    assert code == 3
    assert err == (
        f"numerical failure: curve evaluation failed at r={float(rmin)!r}: "
        f"non-finite value {value}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--model", "coulomb", "--points", "3"),
        ("tune", "--model", "ring-bltp"),
    ],
)
def test_n_past_the_float_range_is_a_usage_error(capsys, argv):
    # n enters the energies as a float: converting 10^320 raised
    # OverflowError, a traceback
    code, _, err = run_cli(capsys, *argv, "--n", str(10**320))
    assert code == 2
    assert err.startswith("error: --n: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("spacing", ["--log", "--linear"])
def test_scan_up_to_the_largest_float_warns_nothing(capsys, spacing):
    # np.linspace and np.geomspace overflow in a step there, and numpy
    # printed a RuntimeWarning although the grid they return is finite
    code, out, err = run_cli(
        capsys, "scan", "--model", "coulomb", "--rmin", "134.5", "--rmax", repr(sys.float_info.max),
        "--points", "7", spacing, "--json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["r"][-1] == sys.float_info.max


def test_scan_of_more_points_than_floats_in_the_window_names_the_points(capsys):
    # the grid repeats a float: a usage error that named no flag
    code, _, err = run_cli(
        capsys, "scan", "--model", "coulomb", "--rmin", "1", "--rmax", "1.0000000000000002",
        "--points", "5",
    )
    assert code == 2
    assert err.startswith("error: --points: too many for the window (1.0, 1.0000000000000002): ")


@pytest.mark.parametrize("flag,value", [("--R", "1e-200"), ("--R-coeff", "1e300")])
def test_ring_radius_past_its_range_names_its_flag(capsys, flag, value):
    code, _, err = run_cli(capsys, "scan", "--model", "ring-ml", flag, value)
    assert code == 2
    assert err.startswith(f"error: {flag}: ring radius R must lie in [")


def test_dipole_scan_past_the_float_range_is_finite(capsys):
    # r^3 overflows above r ~ 5.6e102, where the dipole term is 0 to double
    # precision; Python's r**3 raised OverflowError there
    code, out, err = run_cli(
        capsys, "scan", "--model", "coulomb-dipole", "--rmin", "1", "--rmax", "1e300", "--json"
    )
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    assert res["r"][-1] == 1e300 and res["V"][-1] == 2.0
    code, _, _ = run_cli(
        capsys, "minimize", "--model", "coulomb-dipole", "--rmin", "1", "--rmax", "1e300"
    )
    assert code == 0


@pytest.mark.parametrize(
    "R,rmin,rmax",
    [
        # at r = 1e300 the magnetic prefactor times hypot(1, r/2R)
        # overflows while K S underflows to 0: the line is -0.0, not nan
        ("2.6e-5", "1e-300", "1e300"),
        # at R = 1e-100 the product overflows from r ~ 1e-83 on, where the
        # line is still a finite float: it is finite, not -inf
        ("1e-100", "1e-84", "1e-60"),
    ],
)
def test_ring_scan_past_the_float_range_is_finite(capsys, R, rmin, rmax):
    code, out, err = run_cli(
        capsys, "scan", "--model", "ring-ml", "--R", R, "--rmin", rmin, "--rmax", rmax, "--json",
    )
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    assert all(math.isfinite(v) for v in res["V"])
    if rmax == "1e300":
        assert res["r"][-1] == 1e300 and res["V"][-1] == 2.0


@pytest.mark.parametrize(
    "argv",
    [
        # where r/2R overflows the quadrature gave 0, so the binding ended at
        # 0 where it is -alpha/r
        ("--R", "5.93e-05", "--kappa", "125662", "--rmin", "134.5", "--points", "3",
         "--quantity", "binding"),
        # and where 2 kappa R underflows to 0 too, the kernel was inf * -0.0
        ("--R", "2.747884523608806e-70", "--kappa", "4.047637280674912e-267",
         "--rmin", "2e-133", "--points", "7"),
    ],
)
def test_regulated_scan_past_the_float_range_takes_the_far_limit(capsys, argv):
    code, out, err = run_cli(
        capsys, "scan", "--model", "ring-bltp", *argv, "--rmax", repr(sys.float_info.max), "--json"
    )
    assert (code, err) == (0, "")
    env = json.loads(out)
    R, kappa, binding = env["params"]["R"], env["params"]["kappa"], "binding" in argv
    cfg, r, V = PhysicalConfig(), env["results"]["r"], env["results"]["V"]
    kinetic = models.kinetic_excess if binding else models.kinetic_term
    far = [(x, v) for x, v in zip(r, V) if math.isinf(x / (2.0 * R))]
    assert far and all(
        v == kinetic(cfg, x) - cfg.alpha * -math.expm1(-kappa * x) / x for x, v in far
    )
    assert V[-1] == (-cfg.alpha / sys.float_info.max if binding else 2.0)


def test_regulated_binding_where_2_kappa_R_underflows(capsys):
    # 2 kappa R underflows to 0, so the kernel -expm1(-2 kappa R d)/d was 0
    # at every node and the binding read 0; it is the far limit
    # -alpha (1 - exp(-kappa r))/r (test_models.py checks the pair against
    # its angular integrals in mpmath)
    R, kappa = 2.747884523608806e-70, 4.047637280674912e-267
    code, out, err = run_cli(
        capsys, "scan", "--model", "ring-bltp", "--R", repr(R), "--kappa", repr(kappa),
        "--rmin", "1e200", "--rmax", "1e230", "--points", "3", "--quantity", "binding", "--json",
    )
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    with mpmath.workdps(50):
        alpha = mpmath.mpf(PhysicalConfig().alpha)
        for r, v in zip(res["r"], res["V"]):
            want = -alpha * -mpmath.expm1(-mpmath.mpf(kappa) * r) / r
            assert v == pytest.approx(float(want), rel=1e-15, abs=0.0), r
    assert res["V"][0] == pytest.approx(-2.9537e-269, rel=1e-4)


@pytest.mark.xfail(
    strict=True,
    reason="far out, the Bopp pair's magnetic angular integral I2 cancels to "
    "rounding noise, which (alpha/2 pi R)^3 amplifies: -5.02 at r=1e175 and "
    "+2.6e-25 at r=1e200, where the binding is about -alpha/r (ROADMAP item 2 "
    "integrates I2 by parts)",
)
@pytest.mark.parametrize(
    "argv",
    [
        ("--R", "1e-100", "--kappa", "1e-100", "--rmin", "1e150", "--rmax", "1e200"),
        ("--R", "1e-30", "--kappa", "1e-10", "--rmin", "1e50", "--rmax", "1e60"),
    ],
)
def test_regulated_binding_far_out_is_the_charge_and_dipole_terms(capsys, argv):
    # r/2R >= 1e80: the pair is its charge term -alpha (1 - e^-kappa r)/r and
    # its magnetic-dipole term -alpha^3 P(2, kappa r)/(8 pi^2 r^3), with
    # P(2, x) = 1 - (1 + x) e^-x, to far better than 1e-5
    code, out, err = run_cli(
        capsys, "scan", "--model", "ring-bltp", *argv, "--points", "3", "--quantity", "binding",
        "--json"
    )
    assert (code, err) == (0, "")
    env = json.loads(out)
    cfg, kappa, res = PhysicalConfig(), env["params"]["kappa"], env["results"]
    alpha = mpmath.mpf(cfg.alpha)
    for r, v in zip(res["r"], res["V"]):
        x = mpmath.mpf(kappa) * r
        far = (-alpha * -mpmath.expm1(-x) / r
               - alpha**3 * (1 - (1 + x) * mpmath.exp(-x)) / (8 * mpmath.pi**2 * mpmath.mpf(r)**3))
        assert v - models.kinetic_excess(cfg, r) == pytest.approx(float(far), rel=1e-5, abs=0.0), r


@pytest.mark.parametrize(
    "argv",
    [
        ("variational", "--R", "2.6e-5", "--a", "1e-300"),
        ("variational", "--R", "1e-100", "--a", "1"),
        ("minimize", "--model", "ring-ml", "--R", "2.6e-5", "--rmin", "1e-300", "--rmax", "1e300"),
        ("minimize", "--model", "coulomb-dipole", "--rmin", "1e-300", "--rmax", "1"),
    ],
)
def test_numpy_warnings_do_not_reach_stderr(argv):
    # a fresh interpreter, so that stderr is exactly what a user sees
    proc = subprocess.run(
        [sys.executable, "-m", "positronium.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=False,
    )
    lines = proc.stderr.splitlines()
    assert len(lines) == (proc.returncode != 0), proc.stderr
    if proc.returncode:
        assert proc.returncode == 3 and lines[0].startswith("numerical failure: "), proc.stderr


def test_missing_subcommand_is_a_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "positronium" in out


def test_minimize_coulomb(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--model", "coulomb", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["results"]["count"] == 1
    entry = env["results"]["minima"][0]
    cfg = PhysicalConfig()
    assert entry["r_star"] == pytest.approx(math.sqrt(4.0 - cfg.alpha**2) / cfg.alpha, rel=1e-6)
    assert entry["kind"] == "global_min"
    assert entry["V"] == pytest.approx(2.0 + entry["binding"], rel=1e-12)
    assert len(entry["bracket"]) == 3


def test_minimize_reports_absence_honestly(capsys):
    # second orbit over the regulated rings: no tight minimum, exit 0
    code, out, _ = run_cli(
        capsys, "minimize", "--model", "ring-bltp", "--R", "2.569808e-5",
        "--kappa", "1.805202e5", "--n", "2", "--json",
    )
    assert code == 0
    env = json.loads(out)
    assert env["results"]["count"] == 0
    assert env["results"]["minima"] == []


@pytest.mark.parametrize("k", [0, 2, 3])
def test_default_scaling_window_follows_the_exponent(capsys, k):
    # the k-family's tight well sits near 0.28 alpha^(1+k), so the default
    # window is (1e-7, 1e-3) alpha^(k-1); a fixed (1e-7, 1e-3) found no
    # minimum at k = 0 and k = 3
    code, out, _ = run_cli(
        capsys, "minimize", "--model", "scaling", "--k", str(k),
        "--R-coeff", "0.49597832375", "--json",
    )
    assert code == 0
    env = json.loads(out)
    shift = models.ALPHA_FS ** (k - 1)
    assert (env["params"]["rmin"], env["params"]["rmax"]) == (1e-7 * shift, 1e-3 * shift)
    assert env["results"]["count"] >= 1
    best = min(env["results"]["minima"], key=lambda p: p["binding"])
    assert best["r_star"] == pytest.approx(0.28 * models.ALPHA_FS ** (1 + k), rel=0.1)
    if k == 3:
        assert best["r_star"] == pytest.approx(7.906e-10, rel=1e-4)


def test_tune_ring_ml(capsys):
    code, out, _ = run_cli(capsys, "tune", "--model", "ring-ml", "--json")
    assert code == 0
    env = json.loads(out)
    res = env["results"]
    assert res["coefficient"] == pytest.approx(0.49597832371966283, rel=1e-9)
    assert res["coefficient_parameterization"] == "R / alpha^2"
    assert abs(res["minimum"]["energy"]) <= 1e-9
    sens = res["sensitivity"]
    assert sens["probe_coefficient"] == pytest.approx(0.4959783237, rel=1e-12)
    assert sens["sign_vs_target"] == "negative"
    assert sens["probe_energy"] < 0.0


def test_tune_computes_each_rings_tight_minimum_once(capsys, monkeypatch):
    # the 11 rings of the search and the probe ring: the tuned ring's
    # minimum is the one the search found, not computed again
    rings = []
    original = PotentialModel.tight_minimum

    def counted(self):
        rings.append(self.params)
        return original(self)

    monkeypatch.setattr(PotentialModel, "tight_minimum", counted)
    code, _, _ = run_cli(capsys, "tune", "--model", "ring-ml", "--json")
    assert code == 0
    assert len(rings) == len(set(rings)) == 12


_RING = ("--R-coeff", "0.49597832375")


@pytest.mark.parametrize(
    "verb,extra",
    [("scan", (*_RING, "--points", "60")), ("scan", (*_RING, "--quantity", "binding")),
     ("minimize", _RING), ("tune", ())],
)
def test_ring_ml_is_the_scaling_family_at_k_1(capsys, verb, extra):
    # one ring family: --model ring-ml is --model scaling --k 1, bit for bit,
    # and its envelope echoes ring-ml, with k only where tune echoes it
    envelopes = []
    for model in (("ring-ml",), ("scaling", "--k", "1")):
        code, out, _ = run_cli(capsys, verb, "--model", *model, *extra, "--json")
        assert code == 0
        envelopes.append(json.loads(out))
    ring_ml, scaling = envelopes
    assert ring_ml["results"] == scaling["results"]
    expected = dict(scaling["params"], model="ring-ml")
    if verb != "tune":
        del expected["k"]
    assert ring_ml["params"] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "ring-ml", "--alpha", "1e-60"),
        ("--model", "scaling", "--k", "3", "--alpha", "1e-30"),
        ("--model", "ring-bltp", "--alpha", "1e-60"),
    ],
)
def test_tune_names_alpha_where_the_tuned_ring_leaves_its_range(capsys, argv):
    # the tuned R depends only on alpha and k, so alpha puts it outside the
    # range RingParams allows: one cause, one exit code, one flag (ring-ml
    # exited 3 and ring-bltp 2, and neither named --alpha)
    code, out, err = run_cli(capsys, "tune", *argv)
    assert (code, out) == (2, "")
    alpha = re.escape(argv[-1])
    assert re.fullmatch(rf"error: --alpha: {alpha} [^\n]*ring radius R must [^\n]*\n", err), err


def test_tune_without_a_crossing_lists_the_scan_and_the_reachable_range(capsys):
    # the tight well of the ring pair climbs from about -7.9e4 to +1.9e4
    # over c in (0.42, 0.55): a target of 1e5 has no crossing
    code, _, err = run_cli(capsys, "tune", "--model", "scaling", "--target", "1e5")
    assert code == 3
    assert err.startswith("numerical failure: no crossing of --target 100000.0")
    assert err.count("\n") == 1 and "c=0.42: " in err and "c=0.55: " in err
    cfg = PhysicalConfig()
    energies = [
        PotentialModel("scaling", cfg, models.RingParams(models.scaled_ring_radius(1, coeff=c)),
                       scaling_k=1).tight_minimum().v_star
        for c in (0.42, 0.55)
    ]
    low, high = re.search(r"energy spans \[(\S+), (\S+)\] where the well is open", err).groups()
    assert float(low) == pytest.approx(min(energies), rel=1e-5)
    assert float(high) == pytest.approx(max(energies), rel=1e-5)


def test_tune_says_when_the_well_is_closed_at_every_scan_point(capsys):
    # the n = 2 orbit has no tight well at any c of the scan
    code, _, err = run_cli(capsys, "tune", "--model", "ring-ml", "--n", "2")
    assert code == 3
    assert err.startswith("numerical failure: no crossing of --target 0.0")
    assert err.endswith("; the well is closed at every c\n") and err.count("well closed") == 2


@pytest.mark.parametrize("verb,extra", [("scan", _RING), ("tune", ())])
def test_ring_ml_takes_no_exponent(capsys, verb, extra):
    code, _, err = run_cli(capsys, verb, "--model", "ring-ml", *extra, "--k", "1")
    assert code == 2
    assert err == "error: --k: only the scaling family takes an exponent; model is 'ring-ml'\n"


def test_model_choices_keep_their_order(capsys):
    for verb, choices in (
        ("scan", "'coulomb', 'coulomb-dipole', 'ring-ml', 'ring-bltp', 'scaling'"),
        ("tune", "'ring-ml', 'ring-bltp', 'scaling'"),
    ):
        code, _, err = run_cli(capsys, verb, "--model", "yukawa")
        assert code == 2
        assert f"invalid choice: 'yukawa' (choose from {choices})" in err


def test_flux_solve(capsys):
    code, out, _ = run_cli(capsys, "flux-solve", "--kappa", "1.8e5", "--json")
    assert code == 0
    env = json.loads(out)
    names = [f.name for f in dataclasses.fields(flux.FluxSolution)]
    assert list(env["results"]) == names + ["kappa_R"]
    assert env["results"]["R"] == pytest.approx(2.5568727271277648e-05, rel=1e-9)
    assert env["results"]["kappa_R"] == pytest.approx(1.8e5 * 2.5568727271277648e-05, rel=1e-9)


def test_flux_solve_infeasible_is_a_numerical_failure(capsys):
    code, _, err = run_cli(capsys, "flux-solve", "--kappa", "1e5")
    assert code == 3
    assert "numerical failure" in err
    assert "kappa_min=154328.8239" in err


def test_variational_single_point(capsys):
    code, out, _ = run_cli(
        capsys, "variational", "--R", "2.661639e-5", "--a", "1.5726e-5", "--json"
    )
    assert code == 0
    env = json.loads(out)
    res = env["results"]
    assert res["energy"] == pytest.approx(-16.477721075585578, abs=1e-5)
    assert res["energy"] == pytest.approx(res["kinetic"] + res["potential"], abs=1e-9)


def test_variational_takes_no_n(capsys, tmp_path):
    # the trial state is the 1s orbital: --n was echoed but changed no bit
    argv = ("variational", "--R", "2.6e-5", "--a", "1e-5", "--json")
    code, _, err = run_cli(capsys, *argv, "--n", "3")
    assert code == 2 and "--n" in err
    config = tmp_path / "variational.conf"
    config.write_text("n = 3\n")
    code, _, err = run_cli(capsys, *argv, "--config", str(config))
    assert code == 2 and "--config: unknown key 'n'" in err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "n" not in json.loads(out)["params"]
    assert variational.potential_expectation(1e-5, 2.6e-5, PhysicalConfig(n=3)) == \
        variational.potential_expectation(1e-5, 2.6e-5)


def test_variational_scan_mode(capsys):
    code, out, _ = run_cli(
        capsys, "variational", "--R", "2.661639e-5", "--a-min", "1e-7", "--a-max", "1e-3",
        "--json",
    )
    assert code == 0
    env = json.loads(out)
    assert env["results"]["count"] == 1
    names = [f.name for f in dataclasses.fields(variational.VariationalResult)]
    assert [list(m) for m in env["results"]["minima"]] == [names]
    assert env["results"]["bound"] == pytest.approx(-16.4949754900299, abs=1e-3)


def test_config_file_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "scan.conf"
    config.write_text(
        "# point-charge sweep\nmodel = coulomb\nrmin = 100\nrmax = 1000\npoints = 5\n"
    )
    code, out, _ = run_cli(capsys, "scan", "--config", str(config))
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_flags_override_config_file(capsys, tmp_path):
    config = tmp_path / "scan.conf"
    config.write_text("model = coulomb\nrmin = 100\nrmax = 1000\npoints = 5\n")
    code, out, _ = run_cli(capsys, "scan", "--config", str(config), "--points", "7")
    assert code == 0
    assert len(out.strip().splitlines()) == 8


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "scan.conf"
    config.write_text("model = coulomb\nbogus = 3\n")
    code, _, err = run_cli(capsys, "scan", "--config", str(config))
    assert code == 2
    assert "--config" in err and "bogus" in err


def test_config_file_rejects_non_finite_values(capsys, tmp_path):
    config = tmp_path / "scan.conf"
    config.write_text("model = coulomb\nrmax = nan\n")
    code, _, err = run_cli(capsys, "scan", "--config", str(config))
    assert code == 2
    assert "--rmax" in err and "finite" in err


def test_config_file_must_exist(capsys, tmp_path):
    code, _, err = run_cli(capsys, "scan", "--config", str(tmp_path / "missing.conf"))
    assert code == 2


def test_config_file_that_is_not_utf8_names_the_flag(capsys, tmp_path):
    # the decode error exited 2 naming no flag
    config = tmp_path / "scan.conf"
    config.write_bytes(b"model = coulomb\n\xff\n")
    code, out, err = run_cli(capsys, "scan", "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --config: cannot read {config}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_output_file(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys, "scan", "--model", "coulomb", "--rmin", "1", "--rmax", "2",
        "--points", "3", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "r,V"
    assert len(lines) == 4


@pytest.mark.parametrize("where", ["missing/curve.csv", "."])
def test_output_that_cannot_be_written_exits_2_naming_the_flag(capsys, tmp_path, where):
    # a file in a missing directory, or a directory, ended in a traceback
    # and exit 1, the code of a failed reproduction criterion
    target = tmp_path / where
    code, out, err = run_cli(capsys, "scan", "--model", "coulomb", "--points", "3",
                             "--output", str(target))
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: --output: cannot write {re.escape(str(target))}: [^\n]*\n", err)


def test_reproduce_reports_the_honest_failures(capsys):
    # the suite carries two comparisons that sit outside their reference
    # windows (see test_acceptance); the exit code must say so
    code, out, _ = run_cli(capsys, "reproduce", "--json")
    assert code == 1
    envelope = json.loads(out)
    report = envelope["results"]
    assert report["all_passed"] is False
    numbers = [c["number"] for c in report["criteria"]]
    assert numbers == list(range(1, 11))
    status = {c["number"]: c["passed"] for c in report["criteria"]}
    assert status[7] is False
    assert status[8] is False
    for number in (1, 2, 3, 4, 5, 6, 9, 10):
        assert status[number] is True, f"criterion {number} regressed"
    # each check entry is a SubCheck's fields, in order; non-finite -> null
    names = [f.name for f in dataclasses.fields(acceptance.SubCheck)]
    for c in report["criteria"]:
        for check in c["checks"]:
            assert list(check) == names
            if check["computed"] is None:
                assert check["delta"] is None
            else:
                assert check["delta"] == check["computed"] - check["expected"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        # each of these ran out of memory or ran for hours before the bounds
        (("scan", "--model", "coulomb", "--points", "1000000000"), "--points"),
        (("minimize", "--model", "coulomb", "--points-per-decade", "100000000"),
         "--points-per-decade"),
        (("variational", "--R", "2.6e-5", "--points-per-decade", "100000000"),
         "--points-per-decade"),
        # an in-range resolution over a 600-decade window is 6,000,001 points
        (("minimize", "--model", "coulomb", "--rmin", "1e-300", "--rmax", "1e300",
          "--points-per-decade", "10000"), "--points-per-decade"),
        (("variational", "--R", "2.6e-5", "--a-min", "1e-300", "--a-max", "1e300",
          "--points-per-decade", "10000"), "--points-per-decade"),
    ],
)
def test_grid_requests_are_bounded(capsys, argv, flag):
    # the commands check the cap before they lay a grid
    with mock.patch.object(cli, "find_local_minima", _unreachable), \
            mock.patch.object(variational, "minimize_over_a", _unreachable):
        code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"{flag}: must be in [" in err


def _verbs_named_outside_the_table(source, verbs):
    """String constants of ``source`` equal to one of ``verbs``, outside the
    module docstring and the assignment of _VERBS."""
    tree = ast.parse(source)
    exempt = {id(tree.body[0].value)} if ast.get_docstring(tree) is not None else set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "_VERBS" for t in targets):
            exempt.update(id(n) for n in ast.walk(node))
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in verbs and id(node) not in exempt
    ]


def test_only_the_verb_table_names_a_verb():
    # a verb's help line, flags and command are one _VERBS entry; no other
    # code branches on its name
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert _verbs_named_outside_the_table(source, set(cli._VERBS)) == []


def test_verb_name_check_sees_a_branch_on_a_verb():
    probe = '"""scan and minimize"""\n_VERBS = {"scan": 1}\nif verb == "minimize":\n    pass\n'
    assert _verbs_named_outside_the_table(probe, {"scan", "minimize"}) == ["line 3: 'minimize'"]


def test_config_spacing_names_the_spacing_flags(capsys, tmp_path):
    # the file key is "spacing", but no --spacing flag exists
    config = tmp_path / "scan.conf"
    config.write_text("model = coulomb\nspacing = zig\n")
    code, _, err = run_cli(capsys, "scan", "--config", str(config))
    assert code == 2
    assert "--log/--linear: must be one of log, linear; got 'zig'" in err


# every verb's declared flag domains, drawn from both sides: a value outside
# must stop at validation with exit 2 and name its flag, from the command
# line and from --config alike; a value inside must resolve unchanged

_VALID_ARGV = {
    "scan": {"model": "coulomb"},
    "minimize": {"model": "coulomb"},
    "tune": {"model": "ring-ml"},
    "flux-solve": {"kappa": "1.8e5"},
    "variational": {"R": "2.6e-5"},
}

_DECLARED = [
    (verb, key)
    for verb, entry in cli._VERBS.items()
    for key, param in entry.params.items()
    if param.choices or param.domain
]

# the edges of every numeric domain, written out apart from the table:
# (values just inside, values just outside)
_DOMAIN_EDGES = {
    "alpha": ([5e-324, 1.0 - 2.0**-53], [0.0, 1.0]),
    "n": ([1, int(sys.float_info.max)], [0, int(sys.float_info.max) + 1]),
    "points": ([2, 10**6], [1, 10**6 + 1]),
    "points_per_decade": ([10, 10**4], [9, 10**4 + 1]),
    **{key: ([5e-324], [0.0, -0.0])
       for key in ("R", "R_over_alpha2", "R_coeff", "kappa", "rmin", "a", "a_min", "a_max")},
}
_EDGES = [v for inside, outside in _DOMAIN_EDGES.values() for v in inside + outside]


def _candidates(param):
    if param.convert is str:
        return st.one_of(st.sampled_from(tuple(models.FAMILIES)), st.text("abcxyz-", min_size=1))
    if param.convert is int:
        return st.one_of(
            st.integers(-20, 20), st.integers(-100, 2 * 10**4),
            st.integers(-2 * 10**6, 2 * 10**6),
            st.sampled_from([v for v in _EDGES if isinstance(v, int)]),
        )
    return st.one_of(
        st.floats(-2.0, 2.0), st.floats(-1e300, 1e300),
        st.sampled_from([v for v in _EDGES if isinstance(v, float)]),
    )


def _admits(param, value):
    return value in param.choices if param.choices else param.domain[0](value)


def _text(value):
    return repr(value) if isinstance(value, float) else str(value)


def _argv(verb, key, value=None, config=None):
    """A valid command line for ``verb``, with ``key`` set to ``value`` by
    its flag, or left to the ``config`` file."""
    argv = [verb] + [f"{cli._flag(k)}={v}" for k, v in _VALID_ARGV[verb].items() if k != key]
    if value is not None:
        argv.append(f"--{value}" if key == "spacing" else f"{cli._flag(key)}={_text(value)}")
    if config is not None:
        argv += ["--config", str(config)]
    return argv


def _write_config(path, key, value):
    path.write_text(f"{key} = {_text(value)}\n")
    return path


def _unreachable(*args, **kwargs):
    raise AssertionError(f"validation passed {args}")


def _exit_code_and_stderr(argv):
    """cli.main's exit code and stderr; a value that gets past validation
    fails the test here rather than run a verb at that value."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            mock.patch.dict(cli._VERBS, {verb: entry._replace(command=_unreachable)
                                         for verb, entry in cli._VERBS.items()}):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize(
    "verb,key", [(v, k) for v, k in _DECLARED if cli._VERBS[v].params[k].domain]
)
def test_declared_domains_have_their_documented_edges(verb, key):
    param = cli._VERBS[verb].params[key]
    inside, outside = _DOMAIN_EDGES[key]
    assert all(_admits(param, v) for v in inside)
    assert not any(_admits(param, v) for v in outside)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("domains") / "params.conf"


@pytest.mark.parametrize("verb,key", _DECLARED)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_values_outside_a_declared_domain_exit_2_naming_the_flag(config_path, verb, key, data):
    param = cli._VERBS[verb].params[key]
    value = data.draw(_candidates(param).filter(lambda v: not _admits(param, v)), label=key)
    runs = [_argv(verb, key, config=_write_config(config_path, key, value))]
    if key != "spacing":  # --log and --linear carry no value
        runs.append(_argv(verb, key, value))
    for argv in runs:
        code, err = _exit_code_and_stderr(argv)
        assert code == 2, argv
        assert f"{cli._flag(key)}: " in err, (argv, err)


@pytest.mark.parametrize("verb,key", _DECLARED)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_values_inside_a_declared_domain_resolve(config_path, verb, key, data):
    param = cli._VERBS[verb].params[key]
    if param.choices:
        value = data.draw(st.sampled_from(param.choices), label=key)
    else:
        value = data.draw(_candidates(param).filter(lambda v: _admits(param, v)), label=key)
    parser = cli._build_parser()
    for argv in (
        _argv(verb, key, value),
        _argv(verb, key, config=_write_config(config_path, key, value)),
    ):
        assert cli._resolve_params(verb, parser.parse_args(argv))[key] == value


# every scan and minimize call, over every family and k, ring parameters
# across their domains and windows out to the ends of the float range:
# exit 0 with the values of a float-by-float evaluation (checked by
# grids_compared), or exit 2 or 3 with one line that names a flag or r

def _exponents(lo, hi):
    """Floats 10^e, e uniform in [lo, hi], and the ends of the float range."""
    return st.one_of(
        st.floats(lo, hi).map(lambda e: 10.0**e),
        st.sampled_from([5e-324, sys.float_info.min, sys.float_info.max]),
    )


# n: small, or an integer on either side of the largest float
_NS = st.one_of(st.integers(1, 4), st.integers(2**1023, 2**1025))


@st.composite
def _scan_argvs(draw):
    verb = draw(st.sampled_from(["scan", "minimize"]))
    model = draw(st.sampled_from(cli._MODELS))
    argv = [verb, "--model", model, "--json"]
    if model == "scaling":
        argv += ["--k", str(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        argv += ["--n", str(draw(_NS))]
    if model in ("ring-ml", "ring-bltp", "scaling"):
        argv += ["--R", repr(draw(_exponents(-103.0, 103.0)))]
    if model == "ring-bltp":
        argv += ["--kappa", repr(draw(_exponents(-323.3, 308.25)))]
    ends = sorted(draw(st.lists(_exponents(-323.3, 308.25), min_size=2, max_size=2)))
    argv += ["--rmin", repr(ends[0]), "--rmax", repr(ends[1])]
    if verb == "scan":
        argv += ["--points", str(draw(st.integers(2, 40))),
                 draw(st.sampled_from(["--log", "--linear"])),
                 "--quantity", draw(st.sampled_from(["potential", "binding"]))]
    else:
        argv += ["--points-per-decade", str(draw(st.integers(10, 20)))]
    return argv


_LARGEST = repr(sys.float_info.max)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_scan_argvs())
# the regulated pair where r/2R overflows (see
# test_regulated_scan_past_the_float_range_takes_the_far_limit)
@example(argv=["scan", "--model", "ring-bltp", "--json", "--R", "5.93e-05", "--kappa", "125662",
               "--rmin", "134.5", "--rmax", _LARGEST, "--points", "3", "--log",
               "--quantity", "binding"])
@example(argv=["scan", "--model", "ring-bltp", "--json", "--R", "2.747884523608806e-70",
               "--kappa", "4.047637280674912e-267", "--rmin", "2e-133", "--rmax", _LARGEST,
               "--points", "7", "--log", "--quantity", "potential"])
def test_scans_anywhere_in_the_float_range_exit_0_2_or_3(grids_compared, argv):
    compared = len(grids_compared)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    if code == 0:
        assert err == "" and len(grids_compared) == compared + 1, argv
    elif code == 2:
        assert re.fullmatch(r"error: --[A-Za-z-]+: [^\n]*\n", err), (argv, err)
    else:
        assert code == 3, (argv, err)
        assert re.fullmatch(r"numerical failure: [^\n]*\b[rx]=[^\n]*\n", err), (argv, err)


# every tune, flux-solve and variational call, each flag of its _VERBS entry
# left unset or drawn across its domain, out to the ends of the float range:
# exit 0 with finite results, or exit 2 or 3 with one line that names a flag
# or a parameter

# kappa stops at 1e13: from there to the largest float a solve can take
# 0.5 s, doubling its bracket from 2 u_min about a thousand times
_KAPPAS = st.one_of(
    st.floats(-323.3, 13.0).map(lambda e: 10.0**e), st.floats(1.5e5, 1e13),
    st.sampled_from([5e-324, sys.float_info.min]),
)


@st.composite
def _verb_argvs(draw):
    verb = draw(st.sampled_from(["tune", "flux-solve", "variational"]))
    drawn = {
        "model": st.sampled_from(cli._TUNE_MODELS),
        "alpha": st.one_of(st.floats(1e-3, 0.1), _exponents(-323.3, 0.0)),
        "n": _NS,
        "k": st.integers(0, 3),
        "target": st.one_of(st.floats(-1e-3, 1e-3), _exponents(-323.3, 308.25),
                            _exponents(-323.3, 308.25).map(lambda v: -v)),
        "kappa": _KAPPAS,
        "R": _exponents(-103.0, 103.0),
        "a": _exponents(-323.3, 308.25),
        "points_per_decade": st.integers(10, 20),
    }
    # a trial-scale window of at most 8 decades keeps the scan's grid and
    # node tables small; an end past the float range fails at once
    a_min = draw(_exponents(-323.3, 308.25))
    window = {"a_min": a_min, "a_max": a_min * 10.0 ** draw(st.floats(-1.0, 8.0))}
    argv = [verb, "--json"]
    for key, param in cli._VERBS[verb].params.items():
        if param.required or draw(st.booleans()):
            value = window[key] if key in window else draw(drawn[key])
            argv.append(f"{cli._flag(key)}={_text(value)}")
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_verb_argvs())
# each divided by zero or overflowed, with a traceback: alpha^2/2pi
# underflowing to 0, and the kinetic node table's ends leaving the floats
@example(argv=["flux-solve", "--json", "--kappa=7.9", "--alpha=5.29e-321"])
@example(argv=["tune", "--json", "--model=ring-bltp", "--alpha=5e-324"])
@example(argv=["variational", "--json", "--R=7.0", "--a=5e-324"])
@example(argv=["variational", "--json", "--R=2.6e-5", "--a-max=1.7976931348623157e+308"])
def test_other_verbs_anywhere_in_their_domains_exit_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    if code == 0:
        # a non-finite result is a null; no string of a results payload holds "null"
        assert err == "" and "null" not in json.dumps(json.loads(out.getvalue())["results"]), argv
    else:
        assert code in (2, 3), (argv, err)
        prefix = "error: " if code == 2 else "numerical failure: "
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        if argv[0] == "tune":
            # a flag (alpha puts the tuned ring out of range), or the target
            # that no scan point straddles
            named = "--[a-z]" if code == 2 else "no crossing of --target "
            assert re.match(prefix + named, err), (argv, err)
        else:
            assert re.search(r"--[a-z]|\b(R|a|u|kappa)=|ring radius R", err), (argv, err)
