"""Run one positronium CLI command with the layer wrappers installed.

    python3 perfbench/traced_cli.py SUMMARY.json SPANS.jsonl reproduce --json

Prints what the CLI prints, exits with its exit code, and writes the
tracer's summary and spans to the two files.
"""

from __future__ import annotations

import json
import sys

import tracer


def main(argv: list[str]) -> int:
    summary_path, spans_path, *cli_argv = argv
    from positronium import cli

    trace = tracer.Tracer()
    tracer.install(trace)
    code = trace.span(cli.main, "op.cli")(cli_argv)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(trace.summary(), fh)
    trace.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
