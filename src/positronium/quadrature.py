"""Fixed Gauss-Kronrod 7/15 panel rule for every integral of the package.

Every integral of the package is taken with one rule: the 15-point
Kronrod rule on a fixed set of panels, with the embedded 7-point Gauss
rule as its error check (the GK15 pair of QUADPACK; Piessens et al.,
1983).  A PanelTable holds the nodes and the weights of such a rule, with
a weight function of the integrand folded in, so an integral that is
needed for many values of a parameter samples only the parameter-dependent
factor at the nodes and takes weighted sums:

* variational: <T> and <U_R> for every trial scale of a scan, the scan's
  whole grid in (trial scale x node) passes (``PanelTable.integrals``);
* models: the Bopp angular pair at every r, folded about pi/2, on a panel
  [0, lo] and geometric panels from lo to pi/2, and at many r in (r x
  node) passes;
* flux: G(u) for every u, the pair's cos(2 phi) integral at r = 0, on
  the same tables.

A pass over many parameter values is cut into chunks of at most
_CHUNK_NODES (parameter x node) elements (``PanelTable.chunks``), so its
arrays stay in cache whatever the number of values.

Each panel's Kronrod-minus-Gauss-7 difference bounds its error from above
(the 15-point sum is far more accurate than the 7-point one), and their
summed magnitude is checked against the table's tolerance on every
integral: QuadratureError names the integral and its parameters when it
is exceeded.  The nodes are fixed constants and the sums run in a fixed
order, so identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "PanelTable",
    "QuadratureError",
    "angular_edges",
    "geometric_edges",
    "gk15_panels",
]

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

# geometric panels per decade of angular_edges: the Gauss-7 estimate of G(u)
# is about 1.5e-16 relative there
_ANGULAR_PANELS_PER_DECADE = 8

# (parameter x node) elements per pass of PanelTable.integrals: 128 KiB per
# float array, so a pass's temporaries stay in cache.  1 << 16 was slower
# for both callers: the Bopp pair at a tight minimum's 140 r by 5%, the
# variational tight grid took nearly twice as long (2-core Xeon, numpy 2.4)
_CHUNK_NODES = 1 << 14


class QuadratureError(RuntimeError):
    """A rule's own error estimate exceeds its tolerance, or it did not
    converge; the message names the integral and its parameters."""


def gk15_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GK15 nodes and weights on the panels [edges[j], edges[j+1]].

    Returns (nodes, kronrod, gauss), each of shape (15, panels), one column
    per panel: the Kronrod weights, and the embedded Gauss-7 weights (zero
    at the eight Kronrod-only nodes), both scaled to the panel widths.
    Summing f(nodes) * kronrod gives the 15-point rule over the union of
    the panels; the column sums of f(nodes) * (kronrod - gauss) are each
    panel's Kronrod-minus-Gauss error estimate.  ``edges`` must be finite
    and strictly increasing, with at least two of them.
    """
    edges = np.asarray(edges, dtype=float)
    if not (
        edges.ndim == 1 and edges.size >= 2 and np.all(edges[1:] > edges[:-1])
        and math.isfinite(edges[0]) and math.isfinite(edges[-1])
    ):
        raise ValueError(f"need finite, strictly increasing panel edges; got {edges!r}")
    center = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (
        center + half * _NODES[:, None],
        half * _KRONROD[:, None],
        half * _GAUSS[:, None],
    )


def geometric_edges(lo: float, hi: float, per_decade: int) -> np.ndarray:
    """Edges of ceil(per_decade * log10(hi/lo)) geometric panels, at least
    one, from lo to hi (0 < lo < hi, both finite)."""
    ratio = hi / lo
    if ratio < math.inf:
        panels = max(1, math.ceil(per_decade * math.log10(ratio)))
        return lo * ratio ** (np.arange(panels + 1) / panels)
    # the window spans more than the float range: hi/lo overflows, its logarithms do not
    panels = math.ceil(per_decade * (math.log10(hi) - math.log10(lo)))
    return np.geomspace(lo, hi, panels + 1)


def angular_edges(lo: float) -> np.ndarray:
    """Edges of the panel [0, lo] and of geometric panels from lo to pi/2.

    The layout of the angular integrals of flux and models, folded about
    pi/2: their integrands are smooth on [0, pi/2] but vary on a scale that
    can be many decades below 1 near phi = 0, and lo sits well below it.
    """
    return np.concatenate(([0.0], geometric_edges(lo, math.pi / 2.0, _ANGULAR_PANELS_PER_DECADE)))


@dataclass(frozen=True)
class PanelTable:
    """The GK15 rule on fixed panels, a weight function folded in.

    ``integral(values)`` is the rule's sum of weight(t) * values over the
    nodes t (shape (15, panels), as ``values``); ``integrals`` takes m of
    them stacked, (m, 15, panels), in one pass.  Each raises QuadratureError
    when the summed Kronrod-minus-Gauss-7 differences exceed
    max(rel_tol * |integral|, abs_tol); ``what`` names the integral there,
    and the keyword arguments of ``integral`` name its parameters.
    """

    what: str
    nodes: np.ndarray
    # weight(nodes) times the Kronrod and the Kronrod-minus-Gauss-7 weights
    weights: np.ndarray
    rel_tol: float
    abs_tol: float = 0.0

    @classmethod
    def build(
        cls,
        what: str,
        edges: np.ndarray,
        weight: Callable[[np.ndarray], np.ndarray],
        rel_tol: float,
        abs_tol: float = 0.0,
    ) -> PanelTable:
        nodes, kronrod, gauss = gk15_panels(edges)
        w = weight(nodes)
        return cls(what, nodes, np.stack([w * kronrod, w * (kronrod - gauss)]), rel_tol, abs_tol)

    def integral(self, values: np.ndarray, **at: float) -> float:
        # per-panel Kronrod sums and Kronrod-minus-Gauss differences
        panels = np.einsum("np,knp->kp", values, self.weights)
        total = float(panels[0].sum())
        estimate = float(np.abs(panels[1]).sum())
        if not estimate <= max(self.rel_tol * abs(total), self.abs_tol):
            raise self._error(values, total, estimate, at)
        return total

    def integrals(self, values: np.ndarray, **at: float | np.ndarray) -> np.ndarray:
        """``integral`` of each values[i] (shape (m, 15, panels)) in one pass.

        Each integral is bit-identical to ``integral(values[i])``.  An
        ndarray among the keyword arguments holds one parameter value per
        integral; the QuadratureError names the first failing i with its
        values, in the words ``integral`` would use.
        """
        panels = np.einsum("rnp,knp->rkp", values, self.weights)
        total = panels[:, 0].sum(axis=-1)
        estimate = np.abs(panels[:, 1]).sum(axis=-1)
        bad = np.flatnonzero(~(estimate <= np.maximum(self.rel_tol * np.abs(total), self.abs_tol)))
        if bad.size:
            i = bad[0]
            row = {name: float(v[i]) if isinstance(v, np.ndarray) else v for name, v in at.items()}
            raise self._error(values[i], float(total[i]), float(estimate[i]), row)
        return total

    def chunks(self, count: int) -> Iterator[slice]:
        """Slices of range(count), in order, each of at most _CHUNK_NODES
        // nodes rows (at least one): the passes of ``integrals`` over count
        parameter values."""
        step = max(1, _CHUNK_NODES // self.nodes.size)
        return (slice(start, start + step) for start in range(0, count, step))

    def _error(
        self, values: np.ndarray, total: float, estimate: float, at: dict[str, float]
    ) -> QuadratureError:
        params = ", ".join(f"{name}={value!r}" for name, value in at.items())
        where = f"{self.what} at {params}" if at else self.what
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 where a node overflowed
            bad = ~np.isfinite(values * self.weights[0])
        if bad.any():
            return QuadratureError(
                f"{where}: non-finite integrand at node {float(self.nodes[bad][0])!r}"
            )
        return QuadratureError(
            f"{where}: Gauss-7 error estimate {estimate:.3g} exceeds "
            f"max({self.rel_tol:g} of the integral {total!r}, {self.abs_tol:g})"
        )
