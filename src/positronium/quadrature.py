"""Adaptive one-dimensional quadrature on finite intervals.

The integrator drives the flux-quantization constraint and the angular
integrals of the flux-constrained ring potential at separations below
r = 2e-3 R (larger ones use a periodic trapezoid rule in models).  It is an
embedded-rule scheme: each panel is evaluated with a 15-point Kronrod rule
whose 7-point Gauss subset provides the error estimate, and the panel with
the largest estimated error is bisected until the summed estimate meets the
requested tolerance.
Subdivision order is deterministic (worst error first, ties broken by
creation order), all accumulation is compensated, and the nodes are fixed
constants -- identical inputs therefore yield bit-identical results across
runs and platforms.

gk15_panels lays the same rule, unrefined, on a given set of panels, for
integrals whose integrand is sampled as an array: the variational bound
builds one such node table per scan and reuses it for every trial scale
(see variational).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Integral",
    "QuadratureResult",
    "QuadratureError",
    "gk15_panels",
    "integrate",
]

DEFAULT_REL_TOL = 1e-12
DEFAULT_ABS_TOL = 1e-14
DEFAULT_MAX_PANELS = 4096

# 15-point Kronrod abscissae on [-1, 1] (positive half; the rule is symmetric)
# with their weights, and the weights of the embedded 7-point Gauss rule.
# Gauss nodes are abscissae 1, 3, 5 and the midpoint.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# the same rule over [-1, 1] in ascending order, Gauss weights zero off the
# Gauss nodes (odd positions)
_NODES = np.concatenate([-np.array(_XGK[:7]), np.array(_XGK[::-1])])
_KRONROD = np.array(_WGK + _WGK[-2::-1])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = _WG + _WG[-2::-1]

_EPS = math.ulp(1.0)
_UFLOW = 2.2250738585072014e-308


@dataclass(frozen=True)
class Integral:
    """One quadrature problem: integrand, finite interval, tolerances."""

    integrand: Callable[[float], float]
    lower: float
    upper: float
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    max_panels: int = DEFAULT_MAX_PANELS

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper; got [{self.lower!r}, {self.upper!r}]")
        if not (self.rel_tol > 0.0 and self.abs_tol >= 0.0):
            raise ValueError("need rel_tol > 0 and abs_tol >= 0")
        if self.max_panels < 1:
            raise ValueError("need max_panels >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised on non-convergence or a non-finite integrand sample.

    ``best_estimate`` carries the value/error reached so far (non-convergence
    case); ``abscissa`` identifies the offending point (non-finite case).
    """

    def __init__(
        self,
        message: str,
        *,
        best_estimate: QuadratureResult | None = None,
        abscissa: float | None = None,
    ) -> None:
        super().__init__(message)
        self.best_estimate = best_estimate
        self.abscissa = abscissa


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """One Gauss-Kronrod 7/15 panel: (integral, error estimate, resabs).

    The error heuristic follows the classic embedded-rule practice: compare
    Kronrod against Gauss, then damp by the panel's own variation measure so
    smooth panels are not over-refined.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)

    fc = f(center)
    if not math.isfinite(fc):
        raise QuadratureError(
            f"integrand returned non-finite value {fc!r} at x={center!r}", abscissa=center
        )
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    samples = [(center, fc)]

    for i in range(7):
        offset = half * _XGK[i]
        x_lo = center - offset
        x_hi = center + offset
        f_lo = f(x_lo)
        if not math.isfinite(f_lo):
            raise QuadratureError(
                f"integrand returned non-finite value {f_lo!r} at x={x_lo!r}", abscissa=x_lo
            )
        f_hi = f(x_hi)
        if not math.isfinite(f_hi):
            raise QuadratureError(
                f"integrand returned non-finite value {f_hi!r} at x={x_hi!r}", abscissa=x_hi
            )
        fsum = f_lo + f_hi
        resk += _WGK[i] * fsum
        resabs += _WGK[i] * (abs(f_lo) + abs(f_hi))
        if i % 2 == 1:
            resg += _WG[i // 2] * fsum
        samples.append((x_lo, f_lo))
        samples.append((x_hi, f_hi))

    # variation measure relative to the panel mean
    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for i in range(7):
        x_lo_val = samples[2 * i + 1][1]
        x_hi_val = samples[2 * i + 2][1]
        resasc += _WGK[i] * (abs(x_lo_val - mean) + abs(x_hi_val - mean))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(_EPS * 50.0 * resabs, err)
    return value, err, resabs


def gk15_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GK15 nodes and weights on the panels [edges[j], edges[j+1]].

    Returns (nodes, kronrod, gauss), each of shape (15, panels), one column
    per panel: the Kronrod weights, and the embedded Gauss-7 weights (zero
    at the eight Kronrod-only nodes), both scaled to the panel widths.
    Summing f(nodes) * kronrod gives the 15-point rule over the union of
    the panels; the column sums of f(nodes) * (kronrod - gauss) are each
    panel's Kronrod-minus-Gauss error estimate.
    """
    edges = np.asarray(edges, dtype=float)
    center = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (
        center + half * _NODES[:, None],
        half * _KRONROD[:, None],
        half * _GAUSS[:, None],
    )


def integrate(spec: Integral) -> QuadratureResult:
    """Adaptively integrate ``spec`` over its finite interval.

    Deterministic: the refinement sequence depends only on the inputs.
    Raises :class:`QuadratureError` when the panel budget is exhausted
    (carrying the best estimate) or the integrand goes non-finite (carrying
    the abscissa).

    Roundoff floor: each panel's error estimate is clipped from below at
    ~50 ulp of its own |f| mass, and that floor is additive, so no amount
    of subdivision pushes the total estimate under ~50 eps * integral|f|.
    Once the total reaches that floor the result is accepted even if the
    requested tolerance is smaller: the value cannot be improved in double
    precision, and the returned ``error_estimate`` still reports the honest
    (floor-limited) bound rather than the request.
    """
    if math.isinf(spec.lower) or math.isinf(spec.upper):
        raise ValueError(f"need a finite interval; got [{spec.lower!r}, {spec.upper!r}]")
    f = spec.integrand

    value, err, resabs = _gk15(f, spec.lower, spec.upper)
    evaluations = 15
    # heap entries: (-error, creation index, a, b, value, error, resabs)
    counter = 0
    heap = [(-err, counter, spec.lower, spec.upper, value, err, resabs)]
    done: list[tuple[float, float, float, float, float]] = []  # (a, b, value, error, resabs)
    panels = 1

    while True:
        total_err = math.fsum(entry[5] for entry in heap) + math.fsum(p[3] for p in done)
        total_val = math.fsum(entry[4] for entry in heap) + math.fsum(p[2] for p in done)
        total_resabs = math.fsum(entry[6] for entry in heap) + math.fsum(p[4] for p in done)
        roundoff_floor = 50.0 * _EPS * total_resabs
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total_val), roundoff_floor):
            break
        if not heap:
            # every remaining panel is at floating-point width; cannot refine
            raise QuadratureError(
                "tolerance unreachable: all panels at floating-point resolution",
                best_estimate=QuadratureResult(total_val, total_err, evaluations),
            )
        if panels >= spec.max_panels:
            raise QuadratureError(
                f"no convergence within {spec.max_panels} panels",
                best_estimate=QuadratureResult(total_val, total_err, evaluations),
            )
        _, _, a, b, v, e, ra = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel too narrow to split; freeze it
            done.append((a, b, v, e, ra))
            continue
        v_lo, e_lo, ra_lo = _gk15(f, a, mid)
        v_hi, e_hi, ra_hi = _gk15(f, mid, b)
        evaluations += 30
        panels += 1
        counter += 1
        heapq.heappush(heap, (-e_lo, counter, a, mid, v_lo, e_lo, ra_lo))
        counter += 1
        heapq.heappush(heap, (-e_hi, counter, mid, b, v_hi, e_hi, ra_hi))

    pieces = [(entry[2], entry[3], entry[4], entry[5]) for entry in heap] + [
        p[:4] for p in done
    ]
    pieces.sort()  # left-to-right final summation, independent of pop order
    final_value = math.fsum(p[2] for p in pieces)
    final_err = math.fsum(p[3] for p in pieces)
    return QuadratureResult(final_value, final_err, evaluations)
