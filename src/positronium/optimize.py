"""Derivative-free scalar minimization, minimum enumeration, root finding.

The engines used throughout the package:

* :func:`minimize_scalar` -- bracketed minimization combining golden-section
  contraction with parabolic-interpolation steps (superlinear on smooth
  wells, never worse than golden section).  Derivative-free on purpose: the
  ring-regularized potentials involve elliptic integrals and angular
  quadratures whose derivatives are not worth maintaining.
* :func:`find_local_minima` -- enumeration of every interior minimum of a
  function over a range by scanning a log-spaced grid and refining each
  discrete dip.  Log spacing is load-bearing: the wells of interest sit seven
  orders of magnitude apart in radius, so a linear grid starves one regime.
* :func:`find_root` -- Brent-style bracketed root finding (inverse quadratic
  interpolation / secant, bisection fallback), used by every tuning loop.

All are deterministic and evaluate only the supplied callable.  The
callable of find_local_minima takes a float or a 1-D ndarray of them (as
every energy of the package does): the scan evaluates its whole grid in
one array call, and the refinement calls it with floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "Bracket",
    "StationaryPoint",
    "OptimizeError",
    "DEFAULT_X_TOL",
    "minimize_scalar",
    "find_local_minima",
    "find_root",
]

# relative; minima locations are needed to ~11 significant digits by the
# most sensitive tuning loops, and golden-section can deliver ~sqrt(eps)
# at best for the value, 1e-9 for the abscissa is comfortably reachable
DEFAULT_X_TOL = 1e-9

_GOLDEN = 0.3819660112501051
_MAX_MIN_ITER = 256
_MAX_ROOT_ITER = 256


class OptimizeError(RuntimeError):
    """Search failure; carries the offending abscissa when one exists."""

    def __init__(self, message: str, *, abscissa: float | None = None) -> None:
        super().__init__(message)
        self.abscissa = abscissa


@dataclass(frozen=True)
class Bracket:
    """Ordered triple lo < mid < hi enclosing a minimum of some function."""

    lo: float
    mid: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo < self.mid < self.hi):
            raise ValueError(f"need lo < mid < hi; got ({self.lo!r}, {self.mid!r}, {self.hi!r})")


@dataclass(frozen=True)
class StationaryPoint:
    """A located minimum: position, value, classification, final bracket."""

    r_star: float
    v_star: float
    kind: str  # "local_min" or "global_min"
    bracket: Bracket

    def __post_init__(self) -> None:
        if self.kind not in ("local_min", "global_min"):
            raise ValueError(f"kind must be local_min or global_min, got {self.kind!r}")


def _checked(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise _non_finite(y, x)
    return y


def _non_finite(y: float, x: float) -> OptimizeError:
    return OptimizeError(f"function returned non-finite value {y!r} at x={x!r}", abscissa=x)


def minimize_scalar(
    f: Callable[[float], float], bracket: Bracket, x_tol: float = DEFAULT_X_TOL
) -> StationaryPoint:
    """Locate the minimum of ``f`` inside ``bracket`` to relative ``x_tol``.

    Requires f(mid) < min(f(lo), f(hi)).  Returns kind="local_min"; callers
    enumerate and upgrade the best candidate to "global_min" themselves.
    """
    if not x_tol > 0.0:
        raise ValueError("x_tol must be positive")
    f_lo = _checked(f, bracket.lo)
    f_mid = _checked(f, bracket.mid)
    f_hi = _checked(f, bracket.hi)
    if not (f_mid < f_lo and f_mid < f_hi):
        raise ValueError(
            "invalid bracket: f(mid) must be below both ends; got "
            f"f({bracket.lo!r})={f_lo!r}, f({bracket.mid!r})={f_mid!r}, "
            f"f({bracket.hi!r})={f_hi!r}"
        )

    a, b = bracket.lo, bracket.hi
    x = w = v = bracket.mid
    fx = fw = fv = f_mid
    d = e = 0.0

    for _ in range(_MAX_MIN_ITER):
        xm = 0.5 * a + 0.5 * b  # 0.5 * (a + b), without overflowing near the top
        tol1 = x_tol * abs(x) + 1e-300
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        if abs(e) > tol1:
            # try a parabola through (x, w, v)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # a nan p (the parabola overflowed) fails the first test: golden step
            if not abs(p) < abs(0.5 * q * e_prev) or p <= q * (a - x) or p >= q * (b - x):
                e = (a - x) if x >= xm else (b - x)
                d = _GOLDEN * e
            else:
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if xm >= x else -tol1
        else:
            e = (a - x) if x >= xm else (b - x)
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d >= 0.0 else -tol1)
        fu = _checked(f, u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

    if not a < x:
        a = math.nextafter(x, -math.inf)
    if not x < b:
        b = math.nextafter(x, math.inf)
    return StationaryPoint(r_star=x, v_star=fx, kind="local_min", bracket=Bracket(a, x, b))


def find_local_minima(
    f: Callable[[float | np.ndarray], float | np.ndarray],
    r_min: float,
    r_max: float,
    points_per_decade: int,
) -> list[StationaryPoint]:
    """Enumerate interior minima of ``f`` on [r_min, r_max].

    Scans a log-spaced grid with ``points_per_decade`` resolution, detects
    every discrete dip (slope changing from negative to positive), refines
    each with :func:`minimize_scalar`, and labels the least-valued result
    "global_min" (ties within 1e-12 relative in value go to the smaller
    position).  Minima whose basin spans fewer than 3 grid points may be
    missed; an empty list means no minima were found, which is a valid
    answer rather than an error.

    ``f`` takes a float or a 1-D ndarray of them: the grid's values come
    from one call on the grid as an ndarray, and the refinement calls it
    with floats.  A non-finite grid value raises OptimizeError at the first
    such grid point.
    """
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max; got ({r_min!r}, {r_max!r})")
    if points_per_decade < 10:
        raise ValueError("points_per_decade must be at least 10")

    lg_lo, lg_hi = math.log10(r_min), math.log10(r_max)
    count = max(3, int(math.ceil(points_per_decade * (lg_hi - lg_lo))) + 1)
    step = (lg_hi - lg_lo) / (count - 1)
    # the ends are r_min and r_max themselves: 10 ** lg_hi may round past the float range
    grid = [r_min, *(10.0 ** (lg_lo + i * step) for i in range(1, count - 1)), r_max]
    array = f(np.array(grid))
    if not np.isfinite(array).all():
        i = int(np.argmin(np.isfinite(array)))  # the first non-finite value
        raise _non_finite(float(array[i]), grid[i])
    values = array.tolist()

    found: list[StationaryPoint] = []
    for i in range(1, count - 1):
        if values[i - 1] > values[i] < values[i + 1]:
            point = minimize_scalar(f, Bracket(grid[i - 1], grid[i], grid[i + 1]))
            # adjacent dips can refine into one basin; keep the better copy
            for j, prior in enumerate(found):
                scale = max(abs(prior.r_star), abs(point.r_star))
                if abs(prior.r_star - point.r_star) <= 10.0 * DEFAULT_X_TOL * scale:
                    if point.v_star < prior.v_star:
                        found[j] = point
                    break
            else:
                found.append(point)

    if found:
        best = 0
        for j in range(1, len(found)):
            vb, vj = found[best].v_star, found[j].v_star
            scale = max(abs(vb), abs(vj), 1e-300)
            if vj < vb - 1e-12 * scale:
                best = j
            elif abs(vj - vb) <= 1e-12 * scale and found[j].r_star < found[best].r_star:
                best = j
        found[best] = replace(found[best], kind="global_min")

    return sorted(found, key=lambda p: p.r_star)


def find_root(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``g`` on [lo, hi] with g(lo), g(hi) of opposite sign.

    Brent's method: inverse quadratic interpolation and secant steps with a
    bisection fallback, so convergence is guaranteed for any continuous g.
    The bracket is sharpened to the floating point limit.  The returned
    point never has larger |g| than either end of the final bracket.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi; got ({lo!r}, {hi!r})")
    a, b = lo, hi
    fa = _checked(g, a)
    fb = _checked(g, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"no sign change: g({lo!r})={fa!r}, g({hi!r})={fb!r}")

    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ROOT_ITER):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * math.ulp(abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else (tol1 if xm > 0.0 else -tol1)
        fb = _checked(g, b)
    return b
