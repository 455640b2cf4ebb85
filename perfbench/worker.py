"""One measuring process: import the package, make the inputs, run operations.

    python3 perfbench/worker.py WORKLOAD SEED setup
    python3 perfbench/worker.py WORKLOAD SEED measure OUT.jsonl (--seconds S | --ops N)
                                [--spans PREFIX]

``setup`` stops once the first operation is ready; run.py times it from a
fresh interpreter.  ``measure`` runs the closed loop -- one client, the
next operation starts when the previous one has returned -- for S seconds
or for exactly N operations.  It writes every input, output and latency to
OUT.jsonl, one line per operation, then a last line with the peak memory,
for an untraced flux_sweep the outputs of the band probe, and, when
traced, the layer summary.  Outputs are checked by run.py, not
here, so no oracle code or scipy import runs in this process.  With
``--spans`` the layer wrappers are installed first and the spans are
written to PREFIX*.jsonl.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

import calibration
import tracer
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("out", nargs="?")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args()

    trace = tracer.Tracer() if args.spans else None
    summaries = []
    traced_run = None
    if trace is not None and args.workload == "reproduce":
        def traced_run(argv):
            prefix = f"{args.spans}-{len(summaries)}"
            child = workloads.run_child([
                sys.executable, os.path.join(os.path.dirname(__file__), "traced_cli.py"),
                prefix + ".summary.json", prefix + ".jsonl", *argv])
            with open(prefix + ".summary.json", encoding="utf-8") as fh:
                summaries.append(json.load(fh))
            return workloads.reproduce_output(child)

    run = workloads.executor(args.workload, traced_run)
    import positronium

    src = os.path.realpath(os.path.join("src", "positronium"))
    if os.path.dirname(os.path.realpath(positronium.__file__)) != src:
        raise SystemExit(f"positronium imported from {positronium.__file__}, not {src}")
    ops = workloads.operations(args.workload, args.seed)
    first = next(ops)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if trace is not None and args.workload != "reproduce":
        tracer.install(trace)

        def measured(op):
            return trace.span(run, "op." + op["kind"])(op)
    else:
        measured = run

    # one JSON line per operation, written as the run goes, so the memory
    # the worker reports is the package's, not a growing list of outputs
    count = 0
    speed = calibration.Sampler()
    with open(args.out, "w", encoding="utf-8") as fh:
        started = time.perf_counter()
        for op in itertools.chain([first], ops):
            if args.ops is not None and count >= args.ops:
                break
            if args.ops is None and time.perf_counter() - started >= args.seconds:
                break
            if trace is not None:
                trace.op = count
            t0 = time.perf_counter()
            output = attempt(measured, op)
            latency = time.perf_counter() - t0
            if isinstance(output, dict) and "speed_samples" in output:
                speed.samples.extend(output.pop("speed_samples"))
            fh.write(json.dumps({"op": op, "start_s": t0, "latency_s": latency,
                                 "output": output}) + "\n")
            count += 1
            speed.catch_up()
        speed.burst()
        end = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "calibration": speed.samples}
        if args.workload == "flux_sweep" and trace is None:
            # untimed, after the loop: the seed's false-infeasible band
            end["band_probe"] = [
                {"op": op, "output": attempt(run, op)}
                for op in ({"kind": "flux", "kappa": k} for k in workloads.BAND_PROBE)]
        if trace is not None:
            if args.workload == "reproduce":
                end["summary"] = tracer.merge(summaries)
            else:
                end["summary"] = trace.summary()
                trace.write_spans(args.spans + ".jsonl")
        fh.write(json.dumps(end) + "\n")
    return 0


def attempt(run, op):
    try:
        return run(op)
    except Exception as err:  # recorded per operation; run.py decides if it was expected
        return {"error": type(err).__name__, "message": str(err)[:500]}


if __name__ == "__main__":
    sys.exit(main())
