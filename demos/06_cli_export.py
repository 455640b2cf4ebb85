#!/usr/bin/env python3
"""Drive the command-line interface in-process: CSV scans, JSON envelopes,
and the reproduction suite."""

import csv
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from positronium import cli


def run(*argv: str) -> tuple[int, str]:
    """Call the CLI entry point and capture stdout."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

# 1. scan a potential curve to CSV; values round-trip at full precision
csv_path = out_dir / "coulomb_scan.csv"
code, _ = run(
    "scan",
    "--model", "coulomb",
    "--rmin", "1",
    "--rmax", "1e4",
    "--points", "61",
    "--output", str(csv_path),
)
assert code == 0
with open(csv_path, newline="") as f:
    rows = list(csv.reader(f))
print(f"wrote {csv_path}: {len(rows) - 1} samples, header {rows[0]}")
r_mid, v_mid = map(float, rows[31])
print(f"  mid-grid sample: r = {r_mid:g}, V = {v_mid!r}")

# 2. the JSON envelope: every command reports command/version/params/results
code, out = run(
    "minimize",
    "--model", "coulomb",
    "--rmin", "1",
    "--rmax", "1e4",
    "--json",
)
assert code == 0
envelope = json.loads(out)
print(f"\nminimize envelope keys: {sorted(envelope)}")
minima = envelope["results"]["minima"]
print(f"  found {len(minima)} minimum: r* = {minima[0]['r_star']:.10g}")
print(f"  params echo lets any result be re-run: model = {envelope['params']['model']!r}")

json_path = out_dir / "minimize_coulomb.json"
json_path.write_text(out)
print(f"  saved to {json_path}")

# 3. tune the ring radius and read off the sensitivity report; ring-ml,
#    the paper's ring pair, is the CLI's name for the scaling family at k = 1
code, out = run("tune", "--model", "ring-ml", "--json")
assert code == 0
tune = json.loads(out)["results"]
code, out = run("tune", "--model", "scaling", "--k", "1", "--json")
assert code == 0 and json.loads(out)["results"] == tune
print("\ntune --model ring-ml and --model scaling --k 1 agree bit for bit")
print(f"tuned coefficient ({tune['coefficient_parameterization']}):")
print(f"  {tune['coefficient']!r}")
sens = tune["sensitivity"]
print(f"  truncated to 10 digits -> probe energy {sens['probe_energy']:.3e} ({sens['sign_vs_target']})")

# 4. the reproduction suite: exit code is the honest summary
code, out = run("reproduce", "--json")
report = json.loads(out)["results"]
n_pass = sum(1 for c in report["criteria"] if c["passed"])
print(f"\nreproduce: {n_pass}/{len(report['criteria'])} criteria pass, exit code {code}")
for c in report["criteria"]:
    if not c["passed"]:
        worst = [chk["name"] for chk in c["checks"] if not chk["passed"]]
        print(f"  criterion {c['number']} fails on: {', '.join(worst)}")
print("(the two failures are stable reference-value gaps, documented in README)")
