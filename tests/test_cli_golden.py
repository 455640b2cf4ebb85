"""Golden CLI envelopes: every verb's params, results and exit code, pinned.

The fixture ``tests/golden/cli_envelopes.json`` holds one recorded
envelope per command line below.  A refactor of the model, flux or CLI
layers must reproduce each of them exactly; re-record only for a change
that is meant to move a number, and say so where the change is described:

    PYTHONPATH=src python tests/test_cli_golden.py

which prints each value it moves: its path, old -> new, and the relative
change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from positronium import acceptance, cli

FIXTURE = Path(__file__).resolve().parent / "golden" / "cli_envelopes.json"

_RING_ML = ("--model", "ring-ml", "--R-over-alpha2", "0.49597832375")
_BLTP = ("--model", "ring-bltp", "--R", "2.5698078e-05", "--kappa", "1.805202e5")

CASES: tuple[tuple[str, ...], ...] = (
    ("scan", "--model", "coulomb"),
    ("scan", "--model", "coulomb", "--quantity", "binding"),
    ("scan", "--model", "coulomb-dipole"),
    ("scan", "--model", "coulomb-dipole", "--quantity", "binding"),
    ("scan", *_RING_ML, "--points", "200"),
    ("scan", *_RING_ML, "--points", "200", "--quantity", "binding"),
    ("scan", "--model", "scaling", "--k", "0", "--R-coeff", "0.49597832375", "--points", "200"),
    ("scan", "--model", "scaling", "--k", "2", "--R-coeff", "0.49597832375", "--points", "200",
     "--quantity", "binding"),
    ("scan", "--model", "scaling", "--R-coeff", "0.49597832375", "--points", "50"),
    ("scan", *_BLTP, "--points", "40"),
    ("scan", *_BLTP, "--points", "40", "--quantity", "binding"),
    ("scan", "--model", "coulomb", "--rmin", "1", "--rmax", "1000", "--points", "50", "--linear"),
    ("scan", "--model", "coulomb-dipole", "--rmin", "1e-5", "--rmax", "1e-4", "--points", "50",
     "--linear", "--quantity", "binding"),
    ("minimize", "--model", "coulomb"),
    ("minimize", "--model", "coulomb-dipole"),
    ("minimize", *_RING_ML),
    ("minimize", "--model", "scaling", "--k", "3", "--R-coeff", "0.49597832375",
     "--rmin", "1e-11", "--rmax", "1e-7"),
    ("minimize", *_BLTP, "--rmin", "1e-6", "--rmax", "1e-4"),
    ("tune", "--model", "ring-ml"),
    ("tune", "--model", "scaling", "--k", "0"),
    ("tune", "--model", "scaling"),
    ("tune", "--model", "ring-bltp"),
    ("flux-solve", "--kappa", "1.8e5"),
    ("variational", "--R", "2.661639e-5", "--a", "1.5726e-5"),
    ("variational", "--R", "2.661639e-5", "--a-min", "1e-6", "--a-max", "1e-4"),
    ("reproduce",),
)


def _main(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_case(argv: tuple[str, ...]) -> dict:
    code, out, _ = _main((*argv, "--json"))
    envelope = json.loads(out)
    return {"exit": code, "params": envelope["params"], "results": envelope["results"]}


def _key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _assert_close(got, want, path: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-13, abs_tol=0.0), (
            f"{path}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_fixture_covers_every_case(golden):
    assert set(golden) == {_key(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=[_key(a) for a in CASES])
def test_envelope_matches_golden(golden, argv):
    want = golden[_key(argv)]
    got = run_case(argv)
    assert got["exit"] == want["exit"]
    assert got["params"] == want["params"]
    if "ring-bltp" in argv or argv == ("reproduce",):
        # the regulated-ring energies go through numpy's sin/sqrt/expm1 and
        # sums, which may differ in the last ulp across CPUs (README,
        # numerical notes), so they are compared at 1e-13 relative; so are
        # reproduce's, whose criteria 6 and 9 take the regulated pair
        _assert_close(got["results"], want["results"], "results")
    else:
        assert got["results"] == want["results"]


# the text forms: without --json, scan prints its results as CSV and
# reproduce as the suite's table; --output writes what stdout would carry

_SCANS = [argv for argv in CASES if argv[0] == "scan"]


@pytest.mark.parametrize("argv", _SCANS, ids=[_key(a) for a in _SCANS])
def test_scan_csv_is_the_json_results_at_17_digits(argv):
    code, csv, err = _main(argv)
    results = run_case(argv)["results"]
    assert (code, err) == (0, "")
    rows = "".join(f"{r:.17g},{v:.17g}\n" for r, v in zip(results["r"], results["V"]))
    assert csv == "r,V\n" + rows


@pytest.fixture
def suite_once(monkeypatch, acceptance_results):
    """acceptance.run_all returns the session's results, in order, rather
    than run the suite again."""
    criteria = [acceptance_results[number] for number in sorted(acceptance_results)]
    monkeypatch.setattr(acceptance, "run_all", lambda: criteria)
    return criteria


def test_reproduce_prints_the_table_and_exits_1(suite_once):
    assert _main(("reproduce",)) == (1, acceptance.as_table(suite_once) + "\n", "")


def _masked(text: str) -> str:
    return re.sub(r'"elapsed_seconds": [^\n]*', '"elapsed_seconds": ...', text)


@pytest.mark.parametrize(
    "argv",
    [("scan", "--model", "coulomb", "--points", "5"), ("reproduce",),
     ("flux-solve", "--kappa", "1.8e5", "--json")],
    ids=["csv", "table", "envelope"],
)
def test_output_file_holds_the_bytes_of_stdout(suite_once, tmp_path, argv):
    target = tmp_path / "out"
    code, shown, err = _main(argv)
    assert _main((*argv, "--output", str(target))) == (code, "", err)
    assert _masked(target.read_bytes().decode("utf-8")) == _masked(shown)


def _moved(old, new, path: str):
    """(path, old, new) of each leaf of the envelopes where new differs from old."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in dict.fromkeys([*old, *new]):
            yield from _moved(old.get(key), new.get(key), f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from _moved(o, n, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    previous = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    recorded = {_key(argv): run_case(argv) for argv in CASES}
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    for path, old, new in _moved(previous, recorded, ""):
        change = ""
        if isinstance(old, float) and isinstance(new, float) and old:
            change = f" ({(new - old) / abs(old):+.2e} relative)"
        sys.stdout.write(f"{path}: {old!r} -> {new!r}{change}\n")
    sys.stdout.write(f"recorded {len(recorded)} envelopes in {FIXTURE}\n")
