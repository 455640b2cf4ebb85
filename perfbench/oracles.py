"""Independent checks of every operation's output, built on scipy.

Nothing here calls positronium.  The ring energy is re-derived from
scipy's complete elliptic integrals (``ellipk``/``ellipkm1``/``ellipe``)
and, where the magnetic bracket (2 - m)K - 2E cancels, from the identity

    (2 - m) K(m) - 2 E(m) = (pi m^2 / 16) 2F1(3/2, 3/2; 3; m)

(checked against mpmath to 20 digits) evaluated with ``scipy.special.hyp2f1``.
The flux integral uses QUADPACK (``scipy.integrate.quad``); the variational
expectation values use composite Gauss-Legendre rules on geometric panels,
accepted only when doubling the node count changes them by less than
1e-13.  Each check returns None when the output is right, else a message.

Tolerances are relative to the size of the terms that cancel (kinetic plus
|electric| plus |magnetic|), because every energy here is a small
difference of large terms.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
from scipy import integrate, optimize, special

from workloads import ALPHA, COULOMB_WINDOW, tight_window

_PREF = ALPHA * ALPHA / (2.0 * math.pi)

# agreement required between the package and the oracle
ENERGY_RTOL = 1e-12       # ring-family energies and tuned minima, relative to the term sizes
VARIATIONAL_RTOL = 1e-10  # expectation values: both sides integrate to ~1e-12
FLUX_RTOL = 1e-10         # R against (alpha^2/2pi) G(kappa R)
KAPPA_MIN_RTOL = 1e-6     # workloads.KAPPA_MIN against the oracle's threshold


def ring_interaction(r, R: float, mag: float):
    """(electric, magnetic) lines of the ring-pair energy at separations ``r``."""
    r = np.asarray(r, dtype=float)
    rho = r / (2.0 * R)
    h = np.hypot(1.0, rho)
    m = 1.0 / (h * h)
    near = m > 0.5
    big_k = np.where(near, special.ellipkm1(rho * rho / (1.0 + rho * rho)), special.ellipk(m))
    big_e = special.ellipe(m)
    bracket = np.where(
        near,
        (2.0 - m) * big_k - 2.0 * big_e,
        math.pi * m * m / 16.0 * special.hyp2f1(1.5, 1.5, 3.0, np.minimum(m, 0.5)),
    )
    electric = -(ALPHA / (math.pi * R)) * np.sqrt(m) * big_k
    magnetic = -(mag / (4.0 * math.pi**3 * R**3)) * h * bracket
    return electric, magnetic


def ring_energy(r, R: float, mag: float, n: int = 1):
    """Kinetic term plus ring interaction at separations ``r``, and the sum of
    the magnitudes of the three terms (the scale for tolerances)."""
    electric, magnetic = ring_interaction(r, R, mag)
    kinetic = 2.0 * np.sqrt(1.0 + (n / np.asarray(r, dtype=float)) ** 2)
    return kinetic + electric + magnetic, kinetic + np.abs(electric) + np.abs(magnetic)


def _family(op: dict[str, Any]) -> tuple[float, float]:
    """(R, magnetic coupling) of a ring_scan operation."""
    k = op["k"]
    return op["coeff"] * ALPHA ** (1 + k), ALPHA ** (1 + 2 * k)


def _dips(values: np.ndarray) -> np.ndarray:
    return np.nonzero((values[1:-1] < values[:-2]) & (values[1:-1] < values[2:]))[0] + 1


def check_tune(op: dict[str, Any], R: Any) -> str | None:
    """The tight minimum at the returned radius sits at the target energy."""
    if not isinstance(R, float):
        return f"expected a radius, got {R!r}"
    k = op["k"]
    s = ALPHA ** (1 + k)
    mag = ALPHA ** (1 + 2 * k)
    # coarse grid over the window, fine grid over the best cell, then the
    # vertex of the parabola through the three best fine points
    grid = np.geomspace(1e-3 * s, 10.0 * s, 601)
    i = int(np.argmin(ring_energy(grid, R, mag)[0][1:-1])) + 1
    fine = np.geomspace(grid[i - 1], grid[i + 1], 2001)
    values = ring_energy(fine, R, mag)[0]
    j = min(max(int(np.argmin(values)), 1), len(fine) - 2)
    x, y = fine[j - 1:j + 2], values[j - 1:j + 2]
    denom = (x[1] - x[0]) * (y[1] - y[2]) - (x[1] - x[2]) * (y[1] - y[0])
    vertex = x[1] - 0.5 * ((x[1] - x[0]) ** 2 * (y[1] - y[2])
                           - (x[1] - x[2]) ** 2 * (y[1] - y[0])) / denom
    energy, scale = ring_energy(min(vertex, fine[j], key=lambda r: ring_energy(r, R, mag)[0]),
                                R, mag)
    if abs(energy - op["target"]) > ENERGY_RTOL * scale:
        return f"tight minimum {float(energy)!r} at R={R!r} misses target {op['target']!r}"
    return None


def check_minima(op: dict[str, Any], points: Any) -> str | None:
    """Same number of minima as a dense scan finds, each a true local minimum
    with the right value, exactly one labelled global and it is the lowest."""
    R, mag = _family(op)
    lo, hi = tight_window(op["k"]) if op["window"] == "tight" else COULOMB_WINDOW
    grid = np.geomspace(lo, hi, 1201)
    values, _ = ring_energy(grid, R, mag)
    dips = _dips(values)
    if not isinstance(points, list) or len(points) != len(dips):
        return f"expected {len(dips)} minima, got {points!r}"
    delta = 1e-3 if op["window"] == "tight" else 1e-2
    for (r_star, v_star, _kind), i in zip(points, dips):
        if not grid[i - 1] <= r_star <= grid[i + 1]:
            return f"minimum at r={r_star!r} is not in the oracle's basin near {grid[i]!r}"
        near, scale = ring_energy([r_star, r_star * (1.0 - delta), r_star * (1.0 + delta)], R, mag)
        tol = ENERGY_RTOL * scale[0]
        if abs(near[0] - v_star) > tol:
            return f"V({r_star!r}) = {near[0]!r}, reported {v_star!r}"
        if min(near[1], near[2]) < v_star - tol:
            return f"r={r_star!r} is not a local minimum"
    kinds = [p[2] for p in points]
    if points and (kinds.count("global_min") != 1
                   or points[kinds.index("global_min")][1] > min(p[1] for p in points)):
        return f"global minimum mislabelled: {points!r}"
    return None


def check_curve(op: dict[str, Any], curve: Any) -> str | None:
    """Every sampled value matches the oracle on the reported grid."""
    if not isinstance(curve, dict):
        return f"expected a curve, got {curve!r}"
    grid = np.asarray(curve["grid"])
    expected_grid = np.geomspace(tight_window(op["k"])[0], COULOMB_WINDOW[1], len(grid))
    if len(grid) < 2 or np.any(np.abs(grid - expected_grid) > 1e-14 * expected_grid):
        return "grid differs from the requested log grid"
    R, mag = _family(op)
    values, scale = ring_energy(grid, R, mag)
    worst = np.max(np.abs(values - np.asarray(curve["values"])) / scale)
    if not worst <= ENERGY_RTOL:
        return f"curve deviates from the oracle by {worst:.3e} of the term sizes"
    return None


def flux_G(u: float) -> float:
    """G(u) = int_0^pi cos(2 phi)(1 - exp(-2u sin phi))/sin phi dphi by QUADPACK."""

    def kernel(phi: float) -> float:
        t = math.sin(phi)
        return 2.0 * u if t == 0.0 else math.cos(2.0 * phi) * -math.expm1(-2.0 * u * t) / t

    return integrate.quad(kernel, 0.0, math.pi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


def kappa_min() -> tuple[float, float]:
    """(u_min, kappa_min): the minimum of kappa(u) = u / ((alpha^2/2pi) G(u))."""
    res = optimize.minimize_scalar(lambda u: u / (_PREF * flux_G(u)), bounds=(1.5, 3.0),
                                   method="bounded", options={"xatol": 1e-10})
    return float(res.x), float(res.fun)


def check_flux(op: dict[str, Any], out: Any, u_min: float, k_min: float) -> str | None:
    """Feasible kappa (above the oracle's threshold) must give an outer-branch
    radius that satisfies the constraint; infeasible kappa must raise FluxError."""
    kappa = op["kappa"]
    feasible = kappa > k_min
    if "error" in out:
        if out["error"] == "FluxError" and not feasible:
            return None
        kind = "feasible" if feasible else "infeasible"
        return f"{out['error']} for {kind} kappa={kappa!r}: {out['message']}"
    if not feasible:
        return f"returned R={out['R']!r} for infeasible kappa={kappa!r}"
    R = out["R"]
    if kappa * R < u_min:
        return f"R={R!r} is on the inner branch (u={kappa * R!r} < {u_min!r})"
    residual = R - _PREF * flux_G(kappa * R)
    if abs(residual) > FLUX_RTOL * R:
        return f"R={R!r} misses the constraint by {residual!r}"
    return None


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _geometric_gl(f, lo: float, hi: float, per_decade: int) -> float:
    """Composite 16-point Gauss-Legendre on log-spaced panels of [lo, hi]."""
    edges = np.geomspace(lo, hi, max(2, int(per_decade * math.log10(hi / lo))) + 1)
    a, b = edges[:-1, None], edges[1:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X
    return float(np.sum(0.5 * (b - a) * _GL_W * f(x)))


def _converged(f, lo: float, hi: float) -> float:
    coarse = _geometric_gl(f, lo, hi, 12)
    fine = _geometric_gl(f, lo, hi, 24)
    if abs(fine - coarse) > 1e-13 * abs(fine):
        raise ArithmeticError(f"oracle quadrature did not converge: {coarse!r} vs {fine!r}")
    return fine


def kinetic_expectation(a: float) -> float:
    """(64/pi) int_0^inf x^2 sqrt(1 + x^2/a^2) / (1 + x^2)^4 dx."""
    f = lambda x: x * x * np.sqrt(1.0 + (x / a) ** 2) / (1.0 + x * x) ** 4  # noqa: E731
    # below 1e-6 min(a, 1) and above 1e4 max(a, 1) the integral is < 1e-17 of the total
    return 64.0 / math.pi * _converged(f, 1e-6 * min(a, 1.0), 1e4 * max(a, 1.0))


def potential_expectation(a: float, R: float) -> tuple[float, float]:
    """(4 int_0^inf s^2 U(a s) exp(-2s) ds, the same integral of |electric| + |magnetic|)."""
    mag = ALPHA**3
    # U grows only like log(1/s) at 0 and exp(-120) is negligible at 60
    lo, hi = 1e-7 * min(1.0, 2.0 * R / a), 60.0

    def lines(s):
        electric, magnetic = ring_interaction(a * s, R, mag)
        return s * s * np.exp(-2.0 * s), electric, magnetic

    def value(s):
        weight, electric, magnetic = lines(s)
        return weight * (electric + magnetic)

    def size(s):
        weight, electric, magnetic = lines(s)
        return weight * (np.abs(electric) + np.abs(magnetic))

    return 4.0 * _converged(value, lo, hi), 4.0 * _geometric_gl(size, lo, hi, 12)


def check_variational(op: dict[str, Any], results: Any) -> str | None:
    """Each reported minimum has the oracle's kinetic and potential values and
    is a local minimum of the oracle's E(a); the list is best bound first."""
    if not isinstance(results, list) or not results:
        return f"expected at least one minimum, got {results!r}"
    R = op["R"]
    for a_star, kinetic, potential, energy in results:
        if not op["a_min"] < a_star < op["a_max"]:
            return f"a*={a_star!r} outside the window"
        t = kinetic_expectation(a_star)
        u, size = potential_expectation(a_star, R)
        if abs(kinetic - t) > VARIATIONAL_RTOL * t or abs(potential - u) > VARIATIONAL_RTOL * size:
            return f"at a*={a_star!r}: T={kinetic!r} U={potential!r}, oracle T={t!r} U={u!r}"
        if energy != kinetic + potential:
            return f"energy {energy!r} is not T + U at a*={a_star!r}"
        tol = VARIATIONAL_RTOL * (t + size)
        for a in (a_star * 0.99, a_star * 1.01):
            if kinetic_expectation(a) + potential_expectation(a, R)[0] < t + u - tol:
                return f"a*={a_star!r} is not a local minimum of E(a)"
    energies = [r[3] for r in results]
    if energies != sorted(energies):
        return "minima are not sorted best bound first"
    return None


def check_reproduce(out: dict[str, Any]) -> tuple[str | None, str | None, dict[str, bool]]:
    """(failure, inconsistency, verdicts of criteria 7 and 8).

    Criteria 1-6, 9 and 10 must pass; 7 and 8 are recorded either way.
    The exit code must be 1 exactly when some criterion fails.
    """
    report = out["report"]
    if report is None:
        return f"no JSON report (exit code {out['exit']})", None, {}
    passed = {c["number"]: c["passed"] for c in report["criteria"]}
    recorded = {f"criterion_{n}": passed.get(n) for n in (7, 8)}
    failing = [n for n in (1, 2, 3, 4, 5, 6, 9, 10) if not passed.get(n)]
    failure = f"criteria {failing} failed" if failing else None
    expected_exit = 0 if all(passed.values()) and len(passed) == 10 else 1
    inconsistency = None
    if out["exit"] != expected_exit:
        inconsistency = f"exit code {out['exit']}, expected {expected_exit} for verdicts {passed}"
    return failure, inconsistency, recorded
