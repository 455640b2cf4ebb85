"""Seeded inputs and the operations that consume them, one stream per workload.

Every workload is an endless sequence of operations built from ``--seed``
alone: the same seed gives the same operations in the same order.  Each
sequence is made of fixed-size blocks whose composition never changes and
whose order inside the block is shuffled by the seed, so any prefix of a
run has (almost exactly) the stated mix of operation kinds.  Continuous
inputs are drawn from golden-ratio sequences with a seeded start, which
spreads them evenly over their range even in a short run.  Both choices
keep the run-to-run spread of the latency metrics small.

Operations call the package through module attributes
(``models.tune_ring_radius``), never through names bound at import time,
so the wrappers installed by ``tracer.install`` see every call.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from typing import Any, Callable, Iterator

WORKLOADS = ("reproduce", "ring_scan", "flux_sweep", "variational")

ALPHA = 1.0 / 137.036

# Flux-quantization threshold for ALPHA, from oracles.kappa_min (scipy);
# oracles re-derives it on every flux_sweep run and the run is marked
# incorrect if the two disagree.
KAPPA_MIN = 154328.82387
NEAR_THRESHOLD = 0.01  # "near" kappa lie in (KAPPA_MIN, (1 + NEAR_THRESHOLD) KAPPA_MIN)
KAPPA_RANGE = (1.4e5, 1e6)
# The seed commit reports feasible kappa up to about 0.53% above KAPPA_MIN
# as infeasible.  Timed kappa stay above BAND_CLEAR, so no timed operation
# fails; the band is measured instead by the fixed BAND_PROBE kappas, which
# run.py checks after every untraced flux_sweep run.
BAND_CLEAR = 0.006
BAND_PROBE = tuple(KAPPA_MIN * (1.0 + BAND_CLEAR * (i + 0.5) / 8) for i in range(8))

# Reference ring radius of the variational criterion (acceptance criterion 8).
VARIATIONAL_R = 2.661639e-5
VARIATIONAL_WINDOWS = {"tight": (1e-6, 1e-4), "coulomb": (1.0, 1e4)}

CURVE_POINTS = 100
COULOMB_WINDOW = (1.0, 1e4)

_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Block composition per workload: kinds in one block, shuffled by the seed.
_BLOCKS = {
    "reproduce": ["reproduce"],
    # 10% tuning (about 20 ms each), 60% minimum scans (1-2 ms), 30% curve
    # scans (about 1 ms): the median lands inside the scan population and
    # the tail inside the tuning population.
    "ring_scan": ["tune"] * 2 + ["minima"] * 12 + ["curve"] * 6,
    # 20% of kappa within 1% (but at least BAND_CLEAR) above the threshold,
    # the rest spread over the whole range (a few percent of them below the
    # threshold).
    "flux_sweep": ["near"] * 4 + ["far"] * 16,
    # two tight-window scans (about 0.3 s) per Coulombic one (about 0.8 s),
    # so the median sits inside one population rather than between two.
    "variational": ["tight", "tight", "coulomb"],
}


class _Stream:
    """Golden-ratio sequence in [0, 1) with a seeded start."""

    def __init__(self, rng: random.Random) -> None:
        self._x = rng.random()

    def __call__(self) -> float:
        self._x = (self._x + _PHI) % 1.0
        return self._x


def tight_window(k: int) -> tuple[float, float]:
    """Sub-Compton scan window of the k-th coupling family (k = 1: 1e-7..1e-3)."""
    s = ALPHA ** (k - 1)
    return 1e-7 * s, 1e-3 * s


def operations(workload: str, seed: int) -> Iterator[dict[str, Any]]:
    """Endless seeded operation sequence of ``workload``."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    draw = {name: _Stream(rng) for name in ("coeff", "target", "kappa", "near", "R", "lo", "hi")}
    counter: Counter[str] = Counter()
    make = {
        "reproduce": lambda kind, i: {"kind": "reproduce"},
        "ring_scan": lambda kind, i: _ring_op(kind, i, draw),
        "flux_sweep": lambda kind, i: _flux_op(kind, draw),
        "variational": lambda kind, i: _variational_op(kind, draw),
    }[workload]
    while True:
        block = list(_BLOCKS[workload])
        rng.shuffle(block)
        for kind in block:
            yield make(kind, counter[kind])
            counter[kind] += 1


def _ring_op(kind: str, i: int, draw: dict[str, _Stream]) -> dict[str, Any]:
    coeff = 0.42 + 0.13 * draw["coeff"]()
    if kind == "tune":
        return {"kind": "tune", "k": i % 4, "target": (2.0 * draw["target"]() - 1.0) * 1e-3}
    if kind == "minima":
        family = "v3" if i % 2 == 0 else "scaling"
        window = "tight" if (i // 2) % 2 == 0 else "coulomb"
        k = 1 if family == "v3" else (i // 4) % 4
        return {"kind": "minima", "family": family, "k": k, "coeff": coeff, "window": window}
    family = "v3" if i % 2 == 0 else "scaling"
    k = 1 if family == "v3" else (i // 2) % 4
    return {"kind": "curve", "family": family, "k": k, "coeff": coeff}


def _flux_op(kind: str, draw: dict[str, _Stream]) -> dict[str, Any]:
    if kind == "near":
        frac = BAND_CLEAR + (NEAR_THRESHOLD - BAND_CLEAR) * draw["near"]()
        return {"kind": "flux", "kappa": KAPPA_MIN * (1.0 + frac)}
    # log-uniform over the range with the near band cut out
    lo, hi = KAPPA_RANGE
    near_top = KAPPA_MIN * (1.0 + NEAR_THRESHOLD)
    below = math.log(KAPPA_MIN / lo)
    x = (below + math.log(hi / near_top)) * draw["kappa"]()
    kappa = lo * math.exp(x) if x < below else near_top * math.exp(x - below)
    return {"kind": "flux", "kappa": kappa}


def _variational_op(kind: str, draw: dict[str, _Stream]) -> dict[str, Any]:
    lo, hi = VARIATIONAL_WINDOWS[kind]
    return {
        "kind": "variational",
        "window": kind,
        "R": VARIATIONAL_R * (1.0 + 0.005 * (2.0 * draw["R"]() - 1.0)),
        "a_min": lo * 10.0 ** (0.05 * (2.0 * draw["lo"]() - 1.0)),
        "a_max": hi * 10.0 ** (0.05 * (2.0 * draw["hi"]() - 1.0)),
    }


def input_properties(workload: str, ops: list[dict[str, Any]]) -> dict[str, float]:
    """Measured share of the inputs that has the property an optimisation would key on."""
    n = len(ops)
    if n == 0:
        return {}
    if workload == "flux_sweep":
        kappas = [op["kappa"] for op in ops]
        return {
            "near_threshold_share": sum(
                KAPPA_MIN < k < KAPPA_MIN * (1.0 + NEAR_THRESHOLD) for k in kappas) / n,
            "below_threshold_share": sum(k <= KAPPA_MIN for k in kappas) / n,
        }
    if workload == "variational":
        tight = sum(op["window"] == "tight" for op in ops) / n
        return {"tight_share": tight, "coulomb_share": 1.0 - tight}
    if workload == "ring_scan":
        shares: Counter[str] = Counter()
        for op in ops:
            shares[f"{op['kind']}_share"] += 1
            shares[f"{op['kind']}_k{op['k']}_share"] += 1
        return {name: count / n for name, count in sorted(shares.items())}
    return {}  # reproduce has no inputs


def executor(workload: str, traced_run: Callable[[list[str]], dict] | None = None
             ) -> Callable[[dict[str, Any]], Any]:
    """Import the package and return the function that runs one operation.

    ``traced_run`` replaces the CLI subprocess of ``reproduce`` by a traced
    one; in-process workloads are traced by wrapping the package instead.
    """
    if workload == "reproduce":
        import positronium.cli  # noqa: F401  (the cold start a CLI user pays)

        return lambda op: (traced_run or _cli_run)(["reproduce", "--json"])

    from positronium import flux, models, optimize, variational

    cfg = models.PhysicalConfig()

    def run(op: dict[str, Any]) -> Any:
        kind = op["kind"]
        if kind == "tune":
            return models.tune_ring_radius("scaling", cfg, op["target"], scaling_k=op["k"])
        if kind == "minima":
            model = _model(models, cfg, op)
            lo, hi = tight_window(op["k"]) if op["window"] == "tight" else COULOMB_WINDOW
            points = optimize.find_local_minima(model, lo, hi, points_per_decade=40)
            return [[p.r_star, p.v_star, p.kind] for p in points]
        if kind == "curve":
            curve = models.sample_curve(
                _model(models, cfg, op), tight_window(op["k"])[0], COULOMB_WINDOW[1], CURVE_POINTS)
            return {"grid": list(curve.grid), "values": list(curve.values)}
        if kind == "flux":
            sol = flux.solve_R_given_kappa(op["kappa"])
            return {"R": sol.R, "residual": sol.residual}
        if kind == "variational":
            results = variational.minimize_over_a(op["R"], op["a_min"], op["a_max"], cfg)
            return [[v.a_star, v.kinetic, v.potential, v.energy] for v in results]
        raise ValueError(f"unknown operation kind {kind!r}")

    return run


def _model(models: Any, cfg: Any, op: dict[str, Any]) -> Callable[[float], float]:
    """v3 ring pair or k-th scaling-law member at R = coeff * alpha^(1+k)."""
    R = op["coeff"] * ALPHA ** (1 + op["k"])
    params = models.RingParams(R)
    if op["family"] == "v3":
        return lambda r: models.potential_v3(params, cfg, r)
    k = op["k"]
    return lambda r: models.potential_scaling_law(k, params, cfg, r)


def run_child(cmd: list[str]) -> dict[str, Any]:
    """Run ``cmd`` to completion; return exit code, stdout and its peak memory."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "stdout": out.decode("utf-8", "replace"),
            "maxrss_kb": usage.ru_maxrss}


_HERE = os.path.dirname(os.path.abspath(__file__))


def _cli_run(argv: list[str]) -> dict[str, Any]:
    """One CLI command in a fresh process, with the machine speed sampled
    inside it (cli_child.py); the samples come back as ``speed_samples``."""
    samples = os.path.join(_HERE, "out", "cli-speed.json")
    if os.path.exists(samples):
        os.remove(samples)
    child = run_child([sys.executable, os.path.join(_HERE, "cli_child.py"), samples, *argv])
    with open(samples, encoding="utf-8") as fh:
        speed = [tuple(sample) for sample in json.load(fh)]
    return {**reproduce_output(child), "speed_samples": speed}


def reproduce_output(child: dict[str, Any]) -> dict[str, Any]:
    """Exit code, criterion verdicts and full report of one ``reproduce --json``."""
    try:
        report = json.loads(child["stdout"])["results"]
    except (ValueError, KeyError, TypeError):
        report = None
    return {"exit": child["exit"], "report": report, "maxrss_kb": child["maxrss_kb"]}
