"""Command-line surface: scans, minimization, tuning, flux solving,
variational bounds, and the reproduction suite.

Each verb is one entry of _VERBS: its help line, its flags and its
command.  Without ``--json`` it prints

    scan         a potential curve     CSV: ``r,V`` at 17 significant digits
    minimize     all local minima      the JSON envelope
    tune         a tuned ring          the JSON envelope
    flux-solve   R at a given kappa    the JSON envelope
    variational  E(a) or its minima    the JSON envelope (echo: R, alpha,
                                       then --a or the --a-min/--a-max scan)
    reproduce    the whole suite       one pass/fail table

and with ``--json`` the JSON envelope; ``--output FILE`` writes the same
bytes (UTF-8, LF line endings) to FILE.  Exit codes: 0 success, 1 a
reproduction criterion failed, 2 usage/validation (a --config file that
cannot be read and an --output file that cannot be written included),
3 numerical failure.  The variational trial state is the 1s orbital, so
that verb takes no --n.  The envelope:

    {
      "command":  <verb>,
      "version":  <package version>,
      "params":   { fully resolved parameters, defaults included },
      "results":  { verb-specific payload },
      "meta":     { "elapsed_seconds": ... }
    }

The params block is complete: re-running the same verb with exactly those
values reproduces the results payload bit for bit at the same version.
Only ``meta`` varies between runs and is excluded from comparisons.
Where a payload or an echo is one of the library's result types
(SubCheck, FluxSolution, VariationalResult, PhysicalConfig, RingParams),
it comes from dataclasses.asdict, so its keys are the dataclass's fields
in declaration order.

An optional ``--config FILE`` supplies ``key = value`` defaults (keys are
flag names without the leading dashes); explicit flags override the file,
and the merged result is what the envelope echoes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import asdict
from decimal import ROUND_DOWN, Decimal
from typing import Any, Callable, NamedTuple

from . import __version__, acceptance, flux, models, variational
from .models import (
    ALPHA_FS,
    FAMILIES,
    PhysicalConfig,
    PotentialModel,
    RingParams,
    scaled_ring_radius,
)
from .optimize import find_local_minima

__all__ = ["main"]


class UsageError(ValueError):
    """Parameter validation failure; message names the offending flag."""


def _fail_usage(flag: str, message: str) -> None:
    raise UsageError(f"{flag}: {message}")


def _truncate_sig(value: float, digits: int) -> float:
    """Truncate (toward zero) to ``digits`` significant decimal digits."""
    if value == 0.0 or not math.isfinite(value):
        return value
    d = Decimal(repr(value))
    exponent = d.adjusted() - (digits - 1)
    return float(d.quantize(Decimal(1).scaleb(exponent), rounding=ROUND_DOWN))


def _sanitize(obj: Any) -> Any:
    """Replace non-finite floats with None so the JSON stays strict."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


class _Param(NamedTuple):
    """One flag of a verb: ``--name`` parses with ``convert``; argparse
    stores None when it is unset, so the config file can fill it in before
    ``default`` does.  A set value must be one of ``choices`` and pass
    ``domain``, a ``(test, phrase)`` pair: "must be <phrase>" otherwise."""

    convert: Callable[[str], Any]
    default: Any
    help: str
    required: bool = False
    choices: tuple[Any, ...] | None = None
    domain: tuple[Callable[[Any], bool], str] | None = None


# a negative number, exponent included: argparse's own pattern (Python 3.11)
# has no exponent, so it would read "--target -5e-3" as two options
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

# the --model names: the FAMILIES, with ring-ml, the paper's ring pair,
# for the scaling family at k = 1 (see _family)
_MODELS = ("coulomb", "coulomb-dipole", "ring-ml", "ring-bltp", "scaling")
_TUNE_MODELS = ("ring-ml", "ring-bltp", "scaling")

_POSITIVE = (lambda v: v > 0.0, "positive")
_ALPHA = _Param(float, ALPHA_FS, "fine-structure constant",
                domain=(lambda v: 0.0 < v < 1.0, "in (0, 1)"))
_N = _Param(int, 1, "principal quantum number",
           domain=(lambda v: 1 <= v <= sys.float_info.max, "in [1, the largest float]"))
# the grid bounds keep a scan's arrays, and its run time, in reach
_MAX_POINTS = 10**6
_PPD = _Param(int, 40, "scan resolution in grid points per decade",
              domain=(lambda v: 10 <= v <= 10**4, "in [10, 10000]"))
_MODEL_PARAMS = {
    "model": _Param(str, None, "interaction family", True, _MODELS),
    "alpha": _ALPHA,
    "n": _N,
    "R": _Param(float, None, "ring radius", domain=_POSITIVE),
    "R_over_alpha2": _Param(float, None, "ring radius in units of alpha^2", domain=_POSITIVE),
    "R_coeff": _Param(float, None, "ring radius in units of alpha^(1+k)", domain=_POSITIVE),
    "kappa": _Param(float, None, "Bopp regulator scale (ring-bltp only)", domain=_POSITIVE),
    "k": _Param(int, None, "scaling exponent (scaling only; default 1)",
                choices=FAMILIES["scaling"].exponents),
    "rmin": _Param(float, None, "lower end of the r window", domain=_POSITIVE),
    "rmax": _Param(float, None, "upper end of the r window"),
}

def _flag(key: str) -> str:
    return "--log/--linear" if key == "spacing" else f"--{key.replace('_', '-')}"


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    _fail_usage("--config", f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                entries[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as err:
        _fail_usage("--config", f"cannot read {path}: {err}")
    return entries


def _resolve_params(verb: str, args: argparse.Namespace) -> dict[str, Any]:
    spec = _VERBS[verb].params
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in file_values:
        if key not in spec:
            _fail_usage("--config", f"unknown key {key!r} for verb {verb!r}")
    resolved: dict[str, Any] = {}
    for key, param in spec.items():
        value = getattr(args, key, None)
        if value is None and key in file_values:
            try:
                value = param.convert(file_values[key])
            except ValueError:
                _fail_usage("--config", f"key {key!r}: cannot parse {file_values[key]!r}")
        if value is None:
            value = param.default
        flag = _flag(key)
        if param.required and value is None:
            _fail_usage(flag, "is required")
        if isinstance(value, float) and not math.isfinite(value):
            _fail_usage(flag, f"must be finite; got {value!r}")
        if value is not None and param.choices and value not in param.choices:
            _fail_usage(flag, f"must be one of {', '.join(map(str, param.choices))}; got {value!r}")
        if value is not None and param.domain and not param.domain[0](value):
            _fail_usage(flag, f"must be {param.domain[1]}; got {value!r}")
        resolved[key] = value
    return resolved


def _family(model: str, k: int | None) -> tuple[str, int | None]:
    """The family and exponent that --model and --k name: ring-ml is the
    scaling family at k = 1, scaling takes --k (1 when unset), and the
    other models take no --k."""
    if model != "scaling":
        if k is not None:
            _fail_usage("--k", f"only the scaling family takes an exponent; model is {model!r}")
        return ("scaling", 1) if model == "ring-ml" else (model, None)
    return model, 1 if k is None else k


def _build_model(params: dict[str, Any]) -> PotentialModel:
    """Construct the requested PotentialModel, naming flags on failure."""
    name = params["model"]
    family, k = _family(name, params["k"])
    spec = FAMILIES[family]
    cfg = PhysicalConfig(params["alpha"], params["n"])

    given = [key for key in ("R", "R_over_alpha2", "R_coeff") if params[key] is not None]
    if len(given) > 1:
        _fail_usage("--R", "give only one of --R, --R-over-alpha2, --R-coeff")
    R: float | None = None
    if params["R"] is not None:
        R = params["R"]
    elif params["R_over_alpha2"] is not None:
        R = params["R_over_alpha2"] * cfg.alpha**2
    elif params["R_coeff"] is not None:
        R = params["R_coeff"] * cfg.alpha ** (1 + (k if k is not None else 1))
    if (R is not None) != spec.R:
        _fail_usage("--R", f"the {name} model {'needs a' if spec.R else 'has no'} ring radius")
    kappa = params["kappa"]
    if (kappa is not None) != spec.kappa:
        _fail_usage("--kappa", f"the {name} model {'needs the' if spec.kappa else 'has no'} "
                    "regulator scale")
    try:
        ring = RingParams(R, kappa) if R is not None else None
    except ValueError as err:  # R past its range; kappa's domain is checked
        _fail_usage(_flag(given[0]), str(err))
    return PotentialModel(family, cfg, ring, scaling_k=k)


# operational windows (reduced Compton lengths) of scan and minimize: the
# magnetically dominated wells live far below the Compton length, the
# Coulombic well sits near the Bohr radius 2/alpha ~ 274
_BIOT_SAVART_WINDOW = (1e-7, 1e-3)
_COULOMB_WINDOW = (1.0, 1e4)


def _window(params: dict[str, Any]) -> tuple[float, float]:
    """--rmin/--rmax, defaulting to the operational window of --model.

    The tight well of the scaling family sits near 0.28 alpha^(1+k), so its
    window is _BIOT_SAVART_WINDOW (the k = 1 one) times alpha^(k-1).
    """
    family, k = _family(params["model"], params["k"])
    lo, hi = _COULOMB_WINDOW if family == "coulomb" else _BIOT_SAVART_WINDOW
    if k is not None:
        shift = params["alpha"] ** (k - 1)
        lo, hi = lo * shift, hi * shift
    rmin = params["rmin"] if params["rmin"] is not None else lo
    rmax = params["rmax"] if params["rmax"] is not None else hi
    if not rmin < rmax:
        _fail_usage("--rmax", f"must exceed --rmin; got rmin={rmin!r}, rmax={rmax!r}")
    return rmin, rmax


def _check_grid(lo: float, hi: float, ppd: int) -> None:
    """Exit 2 naming --points-per-decade when the log grid over (lo, hi) at
    ppd points per decade, ceil(ppd * decades) + 1 points (see
    find_local_minima), would pass the --points cap."""
    decades = math.log10(hi) - math.log10(lo)
    if math.ceil(ppd * decades) + 1 > _MAX_POINTS:
        top = math.floor((_MAX_POINTS - 1) / decades)
        _fail_usage("--points-per-decade", f"must be in [10, {top}] for a window of "
                    f"{decades:.6g} decades (at most {_MAX_POINTS} grid points); got {ppd}")


# what a verb returns: its params echo, its results payload, and its plain
# text form, a callable that makes the text, or None for a JSON-only verb
_Run = tuple[dict[str, Any], dict[str, Any], Callable[[], str] | None]


def _model_in_window(params: dict[str, Any]) -> tuple[PotentialModel, float, float, dict[str, Any]]:
    """The --model, its r window, and their echo: the model name, the
    PhysicalConfig and RingParams fields that are set (ring-ml echoes no
    k), rmin and rmax."""
    model = _build_model(params)
    rmin, rmax = _window(params)
    echo: dict[str, Any] = {"model": params["model"], **asdict(model.cfg)}
    if model.params is not None:
        echo.update((k, v) for k, v in asdict(model.params).items() if v is not None)
    if params["model"] == "scaling":
        echo["k"] = model.scaling_k
    echo.update(rmin=rmin, rmax=rmax)
    return model, rmin, rmax, echo


def _cmd_scan(params: dict[str, Any]) -> _Run:
    model, rmin, rmax, echo = _model_in_window(params)
    energy = model.binding if params["quantity"] == "binding" else model
    try:
        curve = models.sample_curve(energy, rmin, rmax, params["points"], params["spacing"])
    except ValueError as err:  # the window and flags are valid: the grid repeats a float
        _fail_usage("--points", f"too many for the window ({rmin!r}, {rmax!r}): {err}")
    echo.update((key, params[key]) for key in ("points", "spacing", "quantity"))
    grid, values = list(curve.grid), list(curve.values)
    return echo, {"r": grid, "V": values}, lambda: "\n".join(
        ["r,V", *(f"{r:.17g},{v:.17g}" for r, v in zip(grid, values))])


def _cmd_minimize(params: dict[str, Any]) -> _Run:
    model, rmin, rmax, echo = _model_in_window(params)
    ppd = params["points_per_decade"]
    _check_grid(rmin, rmax, ppd)

    # minimize the rest-subtracted form (same minimizers, far better
    # conditioned); report both the raw value and the binding value
    minima = find_local_minima(model.binding, rmin, rmax, points_per_decade=ppd)
    payload = [
        {
            "r_star": p.r_star,
            "V": 2.0 + p.v_star,
            "binding": p.v_star,
            "kind": p.kind,
            "bracket": [p.bracket.lo, p.bracket.mid, p.bracket.hi],
        }
        for p in minima
    ]
    echo["points_per_decade"] = ppd
    return echo, {"minima": payload, "count": len(payload)}, None


def _cmd_tune(params: dict[str, Any]) -> _Run:
    """The tuned ring, its tight minimum, and the minimum at the tuned R
    (kappa held) or coefficient truncated to the 10 digits it is quoted to."""
    family, k = _family(params["model"], params["k"])
    cfg = PhysicalConfig(params["alpha"], params["n"])
    target = params["target"]
    echo = {"model": params["model"], **asdict(cfg), "target": target}
    try:
        if family == "ring-bltp":
            solution, point = flux.tune_bltp(cfg.alpha, target, cfg.n)
            results = {**asdict(solution), "R_over_alpha2": solution.R / cfg.alpha**2}
            key, probe = "probe_R", _truncate_sig(solution.R, 10)
            probe_ring = RingParams(probe, solution.kappa)
        else:
            echo["k"] = k
            model, point = models.tuned_scaling_ring(cfg, target, k)
            R = model.params.R
            coeff = R / cfg.alpha ** (1 + k)
            results = {"R": R, "coefficient": coeff,
                       "coefficient_parameterization": f"R / alpha^{1 + k}"}
            key, probe = "probe_coefficient", _truncate_sig(coeff, 10)
            probe_ring = RingParams(scaled_ring_radius(k, cfg.alpha, probe))
    except ValueError as err:  # the tuned R depends only on alpha and k
        _fail_usage("--alpha", f"{cfg.alpha!r} puts the tuned ring outside its range: {err}")
    except RuntimeError as err:  # the search's report names the flag, not the parameter
        raise RuntimeError(str(err).replace(f"target_energy={target!r}", f"--target {target!r}"))
    energy = PotentialModel(family, cfg, probe_ring, scaling_k=k).tight_minimum().v_star
    results["minimum"] = {"r_star": point.r_star, "energy": point.v_star}
    results["sensitivity"] = {
        key: probe,
        "probe_energy": energy,
        "sign_vs_target": "negative" if energy < target else "positive",
    }
    return echo, results, None


def _cmd_flux_solve(params: dict[str, Any]) -> _Run:
    solution = flux.solve_R_given_kappa(params["kappa"], params["alpha"])
    echo = {"kappa": params["kappa"], "alpha": params["alpha"]}
    return echo, {**asdict(solution), "kappa_R": solution.kappa * solution.R}, None


def _cmd_variational(params: dict[str, Any]) -> _Run:
    R, cfg = params["R"], PhysicalConfig(params["alpha"])
    echo: dict[str, Any] = {"R": R, "alpha": cfg.alpha}

    if params["a"] is not None:
        a = params["a"]
        kin = variational.kinetic_expectation(a)
        pot = variational.potential_expectation(a, R, cfg)
        echo["a"] = a
        return echo, {"a": a, "kinetic": kin, "potential": pot, "energy": kin + pot}, None

    a_min, a_max, ppd = params["a_min"], params["a_max"], params["points_per_decade"]
    if not a_min < a_max:
        _fail_usage("--a-max", f"must exceed --a-min; got ({a_min!r}, {a_max!r})")
    _check_grid(a_min, a_max, ppd)
    echo.update(a_min=a_min, a_max=a_max, points_per_decade=ppd)
    results = variational.minimize_over_a(R, a_min, a_max, cfg, ppd)
    payload = [asdict(v) for v in results]
    return echo, {"minima": payload, "count": len(payload), "bound": results[0].energy}, None


def _cmd_reproduce(params: dict[str, Any]) -> _Run:
    criteria = acceptance.run_all()
    return {}, acceptance.as_report_dict(criteria), lambda: acceptance.as_table(criteria)


class _Verb(NamedTuple):
    """One verb: its help line, its flags (the parser, the config-file keys,
    the value checks and the resolved params echo all come from these), and
    the command that runs on the resolved params."""

    help: str
    params: dict[str, _Param]
    command: Callable[[dict[str, Any]], _Run]


_VERBS = {
    "scan": _Verb("sample a potential curve to CSV or JSON", {
        **_MODEL_PARAMS,
        "points": _Param(int, 400, "number of grid points",
                         domain=(lambda v: 2 <= v <= _MAX_POINTS, f"in [2, {_MAX_POINTS}]")),
        "spacing": _Param(str, "log", "log-spaced grid (the default)",
                          choices=("log", "linear")),
        "quantity": _Param(
            str, "potential",
            "emit the raw potential (default) or the rest-subtracted binding energy",
            choices=("potential", "binding"),
        ),
    }, _cmd_scan),
    "minimize": _Verb("locate all local minima of a potential",
                      {**_MODEL_PARAMS, "points_per_decade": _PPD}, _cmd_minimize),
    "tune": _Verb("tune ring parameters to a target tight-state energy", {
        "model": _Param(str, None, "ring family to tune", True, _TUNE_MODELS),
        "alpha": _ALPHA,
        "n": _N,
        "k": _MODEL_PARAMS["k"],
        "target": _Param(float, 0.0, "target energy of the tight minimum"),
    }, _cmd_tune),
    "flux-solve": _Verb("solve the flux constraint for R at given kappa", {
        "kappa": _Param(float, None, "Bopp regulator scale", True, domain=_POSITIVE),
        "alpha": _ALPHA,
    }, _cmd_flux_solve),
    "variational": _Verb("variational upper bound over the trial scale", {
        "R": _Param(float, None, "ring radius", True, domain=_POSITIVE),
        "alpha": _ALPHA,
        "a": _Param(float, None, "single-point mode: evaluate E(a) only", domain=_POSITIVE),
        "a_min": _Param(float, 1e-7, "lower end of the trial-scale window", domain=_POSITIVE),
        "a_max": _Param(float, 1e4, "upper end of the trial-scale window", domain=_POSITIVE),
        "points_per_decade": _PPD,
    }, _cmd_variational),
    "reproduce": _Verb("run the full reproduction suite", {}, _cmd_reproduce),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="positronium",
        description="Semiclassical and variational binding-energy models "
        "for an electron-positron pair.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for key, param in verb.params.items():
            if key == "spacing":
                p.add_argument("--log", dest=key, action="store_const", const="log",
                               default=None, help=param.help)
                p.add_argument("--linear", dest=key, action="store_const", const="linear",
                               help="linearly spaced grid")
            else:
                text = param.help if param.domain is None else \
                    f"{param.help}; must be {param.domain[1]}"
                p.add_argument(_flag(key), dest=key, type=param.convert, default=None,
                               choices=param.choices, help=text)
        p.add_argument("--json", dest="as_json", action="store_true", default=False,
                       help="emit the JSON envelope")
        p.add_argument("--output", type=str, default=None, help="write to this file")
        p.add_argument("--config", type=str, default=None,
                       help="file of 'key = value' defaults; flags override it")
    return parser


def _emit(text: str, output: str | None) -> None:
    """``text`` and a newline, to stdout or to the file ``output``."""
    text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as err:
            _fail_usage("--output", f"cannot write {output}: {err}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        params = _resolve_params(args.verb, args)
        started = time.perf_counter()
        echo, results, text = _VERBS[args.verb].command(params)
        if args.as_json or text is None:
            envelope = {
                "command": args.verb,
                "version": __version__,
                "params": _sanitize(echo),
                "results": _sanitize(results),
                "meta": {"elapsed_seconds": time.perf_counter() - started},
            }
            _emit(json.dumps(envelope, indent=2), args.output)
        else:
            _emit(text(), args.output)
        return 1 if results.get("all_passed") is False else 0
    except ValueError as err:  # UsageError included
        sys.stderr.write(f"error: {err}\n")
        return 2
    except RuntimeError as err:  # QuadratureError, OptimizeError and FluxError included
        sys.stderr.write(f"numerical failure: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
