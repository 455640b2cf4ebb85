"""Spans and counters around the package's layers, installed from outside.

``install`` replaces the names each positronium module imports -- for
example ``positronium.models.integrate``, ``positronium.models._ellip_KE_pair``
and ``positronium.flux.find_local_minima`` -- with wrappers that time and
count the calls.  Nothing in the package changes, and the wrappers return
exactly what the wrapped function returns.

Two kinds of wrapper:

* span: one record per call (id, parent span, operation, name, start, end,
  time covered by child frames, failed), kept in memory and written out
  when the run ends.  Used at layer boundaries that are called at most
  tens of thousands of times per operation.
* leaf: calls, busy time and the time they cover inside their parent, but
  no record.  Used for the hot calls -- AGM runs, integrand samples,
  optimizer objective evaluations, the ring-ML potential -- whose number
  runs into millions.

A layer's self time is the sum over its spans of (end - start - child
time), where child time is what nested spans and leaf calls covered.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from typing import Any, Callable

_now = time.perf_counter_ns

# work counts that must repeat exactly for the same seed
COUNT_SUFFIXES = (".calls", ".evals", ".panels", ".fevals", ".failed")

_ENGINES = ("optimize.find_local_minima", "optimize.minimize_scalar", "optimize.find_root")


class Tracer:
    def __init__(self) -> None:
        # [id, parent id, operation, name, start ns, end ns, child ns, failed]
        self.spans: list[list[Any]] = []
        self.calls: Counter[str] = Counter()
        self.busy_ns: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.op = 0
        # frames [child ns, id of the span new spans attach to]; the bottom
        # frame stands for "outside any span"
        self._stack: list[list[int]] = [[0, 0]]

    def span(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack
        calls, busy, failed = self.calls, self.busy_ns, self.failed

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            record = [len(spans) + 1, parent[1], self.op, name, 0, 0, 0, False]
            spans.append(record)
            frame = [0, record[0]]
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[7] = True
                failed[name] += 1
                raise
            finally:
                end = _now()
                stack.pop()
                parent[0] += end - start
                record[4], record[5], record[6] = start, end, frame[0]
                calls[name] += 1
                busy[name] += end - start

        return wrapper

    def leaf(self, fn: Callable, name: str) -> Callable:
        stack, calls, busy = self._stack, self.calls, self.busy_ns

        def wrapper(*args, **kwargs):
            # the clock brackets the bookkeeping too, so the wrapper's own
            # cost lands in this leaf rather than in the parent's self time
            start = _now()
            parent = stack[-1]
            stack.append([0, parent[1]])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = _now() - start
                parent[0] += elapsed
                calls[name] += 1
                busy[name] += elapsed

        return wrapper

    def engine(self, fn: Callable, name: str) -> Callable:
        """Optimizer entry point: a span whose objective is a counted leaf."""

        def counted(f: Callable) -> Callable:
            if getattr(f, "_counted", False):  # already counted by an outer engine
                return f
            wrapped = self.leaf(f, "optimize.objective")
            wrapped._counted = True
            return wrapped

        return self.span(lambda f, *args, **kwargs: fn(counted(f), *args, **kwargs), name)

    def quadrature(self, fn: Callable, error_type: type) -> Callable:
        """``integrate``: a span whose integrand is a timed leaf."""
        work = self.work

        def run(spec):
            spec = dataclasses.replace(
                spec, integrand=self.leaf(spec.integrand, "quadrature.integrand"))
            try:
                result = fn(spec)
            except error_type as err:
                if err.best_estimate is not None:
                    work["quadrature.evals"] += err.best_estimate.evaluations
                raise
            work["quadrature.evals"] += result.evaluations
            # one 15-point panel, then two new panels per bisection (30 samples)
            work["quadrature.panels"] += (result.evaluations + 15) // 30
            return result

        return self.span(run, "quadrature.integrate")

    def summary(self) -> dict[str, dict[str, int]]:
        """Counters plus per-name self time derived from the spans."""
        self_ns: Counter[str] = Counter()
        for _, _, _, name, start, end, child, _ in self.spans:
            self_ns[name] += end - start - child
        return {"calls": dict(self.calls), "busy_ns": dict(self.busy_ns),
                "self_ns": dict(self_ns), "failed": dict(self.failed), "work": dict(self.work)}

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "child_ns", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point under each name a module imports it by."""
    from positronium import (acceptance, cli, elliptic, flux, models, optimize, quadrature,
                             variational)

    def patch(modules, attr, wrapper):
        # a module that no longer has the name is skipped, so a refactor of
        # the package turns a layer's counts to 0 instead of breaking the run
        wrapped = {}
        for module in modules:
            original = getattr(module, attr, None)
            if original is not None:
                if id(original) not in wrapped:
                    wrapped[id(original)] = wrapper(original)
                setattr(module, attr, wrapped[id(original)])

    span, leaf, engine = tracer.span, tracer.leaf, tracer.engine
    patch([quadrature, models, flux, variational, acceptance], "integrate",
          lambda f: tracer.quadrature(f, quadrature.QuadratureError))
    patch([elliptic, models], "_ellip_KE_pair", lambda f: leaf(f, "elliptic.agm"))
    patch([optimize, models, flux, variational, acceptance, cli], "find_local_minima",
          lambda f: engine(f, "optimize.find_local_minima"))
    patch([optimize, models, variational, acceptance], "minimize_scalar",
          lambda f: engine(f, "optimize.minimize_scalar"))
    patch([optimize, models, flux], "find_root", lambda f: engine(f, "optimize.find_root"))
    patch([models, acceptance], "potential_v3", lambda f: leaf(f, "models.potential_v3"))
    patch([models, flux, acceptance], "potential_v4", lambda f: span(f, "models.potential_v4"))
    patch([models, acceptance], "tune_ring_radius", lambda f: span(f, "models.tune_ring_radius"))
    patch([flux], "flux_constraint_integral", lambda f: span(f, "flux.G"))
    patch([flux], "solve_R_given_kappa", lambda f: span(f, "flux.solve_R_given_kappa"))
    patch([flux, acceptance], "tune_bltp", lambda f: span(f, "flux.tune_bltp"))
    patch([variational], "kinetic_expectation", lambda f: span(f, "variational.kinetic"))
    patch([variational], "potential_expectation", lambda f: span(f, "variational.potential"))
    if hasattr(acceptance, "CRITERIA"):
        acceptance.CRITERIA = tuple(
            span(fn, f"acceptance.criterion_{i}") for i, fn in enumerate(acceptance.CRITERIA, 1))
    patch([acceptance], "criterion_10", lambda f: span(f, "acceptance.criterion_10"))


def merge(summaries: list[dict[str, dict[str, int]]]) -> dict[str, dict[str, int]]:
    total: dict[str, Counter[str]] = {}
    for summary in summaries:
        for group, values in summary.items():
            total.setdefault(group, Counter()).update(values)
    return {group: dict(values) for group, values in total.items()}


def layer_metrics(summary: dict[str, dict[str, int]]) -> dict[str, float]:
    """Per-layer metrics (names as in BENCHMARK.json) from a run's summary."""
    calls, busy, self_ns, failed, work = (
        Counter(summary.get(group, {}))
        for group in ("calls", "busy_ns", "self_ns", "failed", "work"))
    sec = 1e-9
    metrics = {
        "quadrature.calls": calls["quadrature.integrate"],
        "quadrature.evals": work["quadrature.evals"],
        "quadrature.panels": work["quadrature.panels"],
        "quadrature.self_s": self_ns["quadrature.integrate"] * sec,
        "quadrature.failed": failed["quadrature.integrate"],
        "elliptic.calls": calls["elliptic.agm"],
        "elliptic.busy_s": busy["elliptic.agm"] * sec,
        "optimize.minima.calls": calls["optimize.find_local_minima"],
        "optimize.minimize.calls": calls["optimize.minimize_scalar"],
        "optimize.root.calls": calls["optimize.find_root"],
        "optimize.fevals": calls["optimize.objective"],
        "optimize.self_s": sum(self_ns[name] for name in _ENGINES) * sec,
        "optimize.failed": sum(failed[name] for name in _ENGINES),
        "models.v3.calls": calls["models.potential_v3"],
        "models.v4.calls": calls["models.potential_v4"],
        "models.v4.busy_s": busy["models.potential_v4"] * sec,
        "models.tune.busy_s": busy["models.tune_ring_radius"] * sec,
        "flux.G.calls": calls["flux.G"],
        "flux.G.busy_s": busy["flux.G"] * sec,
        "flux.solve.busy_s": busy["flux.solve_R_given_kappa"] * sec,
        "flux.solve.failed": failed["flux.solve_R_given_kappa"],
        "flux.tune.busy_s": busy["flux.tune_bltp"] * sec,
        "variational.kinetic.calls": calls["variational.kinetic"],
        "variational.potential.calls": calls["variational.potential"],
        "variational.busy_s": (busy["variational.kinetic"] + busy["variational.potential"]) * sec,
    }
    for i in range(1, 11):
        metrics[f"acceptance.criterion_{i}_s"] = busy[f"acceptance.criterion_{i}"] * sec
    return metrics
