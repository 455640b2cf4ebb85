"""The positronium benchmark: seeded workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/positronium``).
The package is imported from that ``src`` and never modified.

--trace 0 measures the end-to-end metrics: ``setup_s`` is the median time
from starting a fresh interpreter to the first operation being ready (over
several fresh starts), then one worker process runs the closed loop for S
seconds.  Every duration is scaled to a reference machine speed with the
calibration loop timed around it (calibration.py); the details line also
gives the unscaled figures.  --trace 1 runs a fixed, seeded number of operations three times
in fresh processes -- once plain, twice with the layer wrappers of
tracer.py -- and reports the per-layer metrics of the first traced run,
after checking that tracing left every output unchanged and that both
traced runs did exactly the same work.

Every output is checked by oracles.py.  The last line of standard output
is {"correct", "attempted", "failed", "metrics"}; the line before it holds
the details (tail percentile and sample count, failure messages, input
properties, the flux band probe).  An operation fails when it raises where it should not or its
output fails the check.  ``correct`` is false when an operation returned a
wrong value without raising, or when a run-level consistency check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any

import calibration
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 11
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 170
# operations of a traced run: about 1-4 s of untraced work per workload
TRACE_OPS = {"reproduce": 1, "ring_scan": 400, "flux_sweep": 40, "variational": 6}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "positronium", "__init__.py")):
        raise BenchError(f"no positronium package under {src}: run from the root of a checkout")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    if args.trace:
        detail, result = traced_run(args.workload, args.seed, env)
    else:
        detail, result = timed_run(args.workload, args.seed, args.seconds, env)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def timed_run(workload: str, seed: int, seconds: float, env: dict) -> tuple[dict, dict]:
    speed = calibration.Sampler()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        setup_spans.append(time_setup(workload, seed, env))
        speed.burst()
    setups = scaled(setup_spans, speed.samples)
    run = run_worker(workload, seed, env, "--seconds", str(seconds))
    records = run["records"]
    verdict = check(workload, records, run.get("band_probe"))

    latencies = sorted(_scaled_latencies(run))
    n = len(latencies)
    # p99, lowered where needed to keep ten samples beyond it; too few samples -> the maximum
    tail_index = min(int(0.99 * n), n - 11) if n >= 11 else n - 1
    if workload == "reproduce":
        maxrss_kb = max(r["output"].get("maxrss_kb", 0) for r in records)
    else:
        maxrss_kb = run["maxrss_kb"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[tail_index] * 1e3,
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    unscaled = sorted(r["latency_s"] for r in records)
    raw = {
        "setup_s": statistics.median(end - start for start, end in setup_spans),
        "ops_per_s": n / sum(unscaled),
        "latency_p50_ms": statistics.median(unscaled) * 1e3,
        "latency_tail_ms": unscaled[tail_index] * 1e3,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "samples": n,
        "unscaled": raw,
        "latency_tail_percentile": 100.0 * (tail_index + 1) / n,
        "fail_frac": verdict["failed"] / n,
        "setup_samples_s": setups,
        "input_properties": workloads.input_properties(workload, [r["op"] for r in records]),
        **verdict["detail"],
    }
    return detail, result_line(verdict, n, values, END_TO_END_UNITS)


def traced_run(workload: str, seed: int, env: dict) -> tuple[dict, dict]:
    count = str(TRACE_OPS[workload])
    plain = run_worker(workload, seed, env, "--ops", count)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}")
    traced = [run_worker(workload, seed, env, "--ops", count, "--spans", f"{spans}-{i}")
              for i in (1, 2)]
    records = plain["records"]
    verdict = check(workload, records, plain.get("band_probe"))
    for run in traced:
        if [_comparable(r["output"]) for r in run["records"]] != [
                _comparable(r["output"]) for r in records]:
            verdict["inconsistencies"].append("tracing changed the outputs")

    layers = [tracer.layer_metrics(run["summary"]) for run in traced]
    counts = {k: v for k, v in layers[0].items() if k.endswith(tracer.COUNT_SUFFIXES)}
    repeat = {k: v for k, v in layers[1].items() if k.endswith(tracer.COUNT_SUFFIXES)}
    if counts != repeat:
        diff = {k: (counts[k], repeat[k]) for k in counts if counts[k] != repeat[k]}
        verdict["inconsistencies"].append(f"work counts differ between same-seed runs: {diff}")

    metrics = dict(layers[0])
    metrics["flux.band_false_infeasible"] = verdict["band_false_infeasible"]
    metrics["cli.import_s"] = statistics.median(time_import(env) for _ in range(IMPORT_REPEATS))
    metrics["trace.overhead_frac"] = sum(_scaled_latencies(traced[0])) / sum(
        _scaled_latencies(plain)) - 1.0
    units = {name: _layer_unit(name) for name in metrics}
    n = len(records)
    detail = {
        "workload": workload,
        "seed": seed,
        "traced_operations": n,
        "work_counts_repeat": counts == repeat,
        "work_counts": counts,
        "input_properties": workloads.input_properties(workload, [r["op"] for r in records]),
        **verdict["detail"],
    }
    return detail, result_line(verdict, n, metrics, units)


def result_line(verdict: dict, attempted: int, values: dict, units: dict) -> dict:
    return {
        "correct": verdict["correct"] and not verdict["inconsistencies"],
        "attempted": attempted,
        "failed": verdict["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _comparable(output: Any) -> Any:
    """The part of an output that must not depend on tracing."""
    if isinstance(output, dict) and "report" in output:
        return output["exit"], output["report"]
    return output


def check(workload: str, records: list[dict], probe: list[dict] | None = None) -> dict:
    """Check every output; count failures and silent wrong answers.

    ``probe`` holds the untimed band-probe outputs of flux_sweep: feasible
    kappa the seed commit reports as infeasible.  They are counted in
    ``band_false_infeasible``, not as failed operations; a wrong radius
    returned for one of them still makes the run incorrect."""
    import oracles  # scipy is imported only after the timed work is done

    u_min = k_min = None
    inconsistencies: list[str] = []
    if workload == "flux_sweep":
        u_min, k_min = oracles.kappa_min()
        if abs(k_min - workloads.KAPPA_MIN) > oracles.KAPPA_MIN_RTOL * k_min:
            inconsistencies.append(f"threshold drift: oracle kappa_min={k_min!r}")

    failures: Counter[str] = Counter()
    examples: list[str] = []
    silent = 0
    criteria: dict[str, Counter] = {}
    for record in records:
        op, out = record["op"], record["output"]
        kind = op["kind"]
        raised = isinstance(out, dict) and "error" in out
        if kind == "flux":
            message = oracles.check_flux(op, out, u_min, k_min)
        elif raised:
            message = f"{out['error']}: {out['message']}"
        elif kind == "reproduce":
            message, inconsistency, states = oracles.check_reproduce(out)
            if inconsistency:
                inconsistencies.append(inconsistency)
            for name, state in states.items():
                criteria.setdefault(name, Counter())["pass" if state else "fail"] += 1
        else:
            message = {
                "tune": oracles.check_tune,
                "minima": oracles.check_minima,
                "curve": oracles.check_curve,
                "variational": oracles.check_variational,
            }[kind](op, out)
        if message is None:
            continue
        failures[kind + (": raised" if raised else ": wrong output")] += 1
        silent += not raised and kind != "reproduce"
        if len(examples) < 5:
            examples.append(message)

    false_infeasible = 0
    for record in probe or []:
        message = oracles.check_flux(record["op"], record["output"], u_min, k_min)
        if message is None:
            continue
        if "error" in record["output"]:
            false_infeasible += 1
        else:
            silent += 1
            examples.append(message)

    detail = {"failures": dict(failures), "failure_examples": examples,
              "inconsistencies": inconsistencies}
    if probe is not None:
        detail["band_probe"] = {"kappas": len(probe), "false_infeasible": false_infeasible}
    if criteria:
        detail["recorded_criteria"] = {k: dict(v) for k, v in criteria.items()}
    return {"correct": silent == 0, "failed": sum(failures.values()),
            "band_false_infeasible": false_infeasible,
            "inconsistencies": inconsistencies, "detail": detail}


def scaled(spans: list[tuple[float, float]], samples: list) -> list[float]:
    """Durations of ``spans`` at the calibration loop's reference speed."""
    factors = calibration.local_scales(samples, spans)
    return [(end - start) * f for (start, end), f in zip(spans, factors)]


def _scaled_latencies(run: dict) -> list[float]:
    return scaled([(r["start_s"], r["start_s"] + r["latency_s"]) for r in run["records"]],
                  run["calibration"])


def time_setup(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """(start, ready): from starting a fresh interpreter to its first operation being ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, workload, str(seed), "setup"],
                            stdout=subprocess.PIPE, env=env)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != b"ready" or code != 0:
        raise BenchError(f"setup of {workload} failed with exit code {code}")
    return start, ready


def time_import(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import positronium.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout)


def run_worker(workload: str, seed: int, env: dict, *options: str) -> dict:
    out = os.path.join(OUT_DIR, f"run-{workload}-{seed}.jsonl")
    # own process group, so a timeout also stops the CLI children of a reproduce worker
    proc = subprocess.Popen([sys.executable, WORKER, workload, str(seed), "measure", out, *options],
                            env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload} worker did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        *records, end = (json.loads(line) for line in fh)
    return {"records": records, **end}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(2)
