"""Command-line surface: scans, minimization, tuning, flux solving,
variational bounds, and the reproduction suite.

Verbs: scan, minimize, tune, flux-solve, variational, reproduce.
Exit codes: 0 success, 1 reproduction failure, 2 usage/validation,
3 numerical failure.

Output is CSV for curve scans (columns ``r,V``, 17 significant digits,
UTF-8, LF line endings) and a JSON envelope for everything else:

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
from decimal import ROUND_DOWN, Decimal
from typing import Any, Callable, NamedTuple

from . import __version__, acceptance, flux, models, variational
from .models import (
    ALPHA_FS,
    BIOT_SAVART_WINDOW,
    COULOMB_WINDOW,
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
_N = _Param(int, 1, "principal quantum number", domain=(lambda v: v >= 1, "at least 1"))
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

# per-verb parameter tables; the parser, the config-file keys, the value
# checks and the resolved params echo all come from these
_PARAM_SPECS: dict[str, dict[str, _Param]] = {
    "scan": {
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
    },
    "minimize": {**_MODEL_PARAMS, "points_per_decade": _PPD},
    "tune": {
        "model": _Param(str, None, "ring family to tune", True, _TUNE_MODELS),
        "alpha": _ALPHA,
        "n": _N,
        "k": _MODEL_PARAMS["k"],
        "target": _Param(float, 0.0, "target energy of the tight minimum"),
    },
    "flux-solve": {
        "kappa": _Param(float, None, "Bopp regulator scale", True, domain=_POSITIVE),
        "alpha": _ALPHA,
    },
    "variational": {
        "R": _Param(float, None, "ring radius", True, domain=_POSITIVE),
        "alpha": _ALPHA,
        "n": _N,
        "a": _Param(float, None, "single-point mode: evaluate E(a) only", domain=_POSITIVE),
        "a_min": _Param(float, 1e-7, "lower end of the trial-scale window", domain=_POSITIVE),
        "a_max": _Param(float, 1e4, "upper end of the trial-scale window", domain=_POSITIVE),
        "points_per_decade": _PPD,
    },
    "reproduce": {},
}

_VERB_HELP = {
    "scan": "sample a potential curve to CSV or JSON",
    "minimize": "locate all local minima of a potential",
    "tune": "tune ring parameters to a target tight-state energy",
    "flux-solve": "solve the flux constraint for R at given kappa",
    "variational": "variational upper bound over the trial scale",
    "reproduce": "run the full reproduction suite",
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
    except OSError as err:
        _fail_usage("--config", f"cannot read {path}: {err}")
    return entries


def _resolve_params(verb: str, args: argparse.Namespace) -> dict[str, Any]:
    spec = _PARAM_SPECS[verb]
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
    ring = RingParams(R, kappa) if R is not None else None
    return PotentialModel(family, cfg, ring, scaling_k=k)


def _window(params: dict[str, Any], model: PotentialModel) -> tuple[float, float]:
    """--rmin/--rmax, defaulting to the family's operational window.

    The tight well of the scaling family sits near 0.28 alpha^(1+k), so its
    window is BIOT_SAVART_WINDOW (the k = 1 one) times alpha^(k-1).
    """
    lo, hi = COULOMB_WINDOW if model.family == "coulomb" else BIOT_SAVART_WINDOW
    if model.scaling_k is not None:
        shift = model.cfg.alpha ** (model.scaling_k - 1)
        lo, hi = lo * shift, hi * shift
    rmin = params["rmin"] if params["rmin"] is not None else lo
    rmax = params["rmax"] if params["rmax"] is not None else hi
    if not rmin < rmax:
        _fail_usage("--rmax", f"must exceed --rmin; got rmin={rmin!r}, rmax={rmax!r}")
    return rmin, rmax


def _check_grid(verb: str, params: dict[str, Any]) -> None:
    """Exit 2 naming --points-per-decade when the log grid that minimize or
    a variational scan lays, ceil(ppd * decades) + 1 points (see
    find_local_minima), would pass the --points cap."""
    if verb == "minimize":
        lo, hi = _window(params, _build_model(params))
    elif verb == "variational" and params["a"] is None:
        lo, hi = params["a_min"], params["a_max"]
    else:
        return
    ppd = params["points_per_decade"]
    decades = math.log10(hi) - math.log10(lo)
    if math.ceil(ppd * decades) + 1 > _MAX_POINTS:
        top = math.floor((_MAX_POINTS - 1) / decades)
        _fail_usage("--points-per-decade", f"must be in [10, {top}] for a window of "
                    f"{decades:.6g} decades (at most {_MAX_POINTS} grid points); got {ppd}")


def _echo_model_params(name: str, model: PotentialModel) -> dict[str, Any]:
    """The resolved model parameters, under the --model ``name``: ring-ml
    echoes no k."""
    echo: dict[str, Any] = {
        "model": name,
        "alpha": model.cfg.alpha,
        "n": model.cfg.n,
    }
    if model.params is not None:
        echo["R"] = model.params.R
        if model.params.kappa is not None:
            echo["kappa"] = model.params.kappa
    if name == "scaling":
        echo["k"] = model.scaling_k
    return echo


def _cmd_scan(params: dict[str, Any]) -> tuple[dict[str, Any], Any]:
    model = _build_model(params)
    rmin, rmax = _window(params, model)
    energy = model.binding if params["quantity"] == "binding" else model
    curve = models.sample_curve(energy, rmin, rmax, params["points"], params["spacing"])
    echo = _echo_model_params(params["model"], model)
    echo.update(
        rmin=rmin,
        rmax=rmax,
        points=params["points"],
        spacing=params["spacing"],
        quantity=params["quantity"],
    )
    results = {"r": list(curve.grid), "V": list(curve.values)}
    return echo, results


def _curve_csv(results: dict[str, Any]) -> str:
    lines = ["r,V"]
    for r, v in zip(results["r"], results["V"]):
        lines.append(f"{r:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_minimize(params: dict[str, Any]) -> tuple[dict[str, Any], Any]:
    model = _build_model(params)
    rmin, rmax = _window(params, model)
    ppd = params["points_per_decade"]

    # minimize the rest-subtracted form (same minimizers, far better
    # conditioned); report both the raw value and the binding value.  The
    # grid takes the array form in one call, the refinement the float one
    minima = find_local_minima(
        model.binding, rmin, rmax, points_per_decade=ppd, f_grid=model.binding
    )
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
    echo = _echo_model_params(params["model"], model)
    echo.update(rmin=rmin, rmax=rmax, points_per_decade=ppd)
    return echo, {"minima": payload, "count": len(payload)}


def _sensitivity(
    key: str, value: float, target: float, ring: Callable[[float], PotentialModel]
) -> dict[str, Any]:
    """The tight minimum of the ring ``ring(probe)``, at ``value`` truncated
    to the 10 digits a tuned value is quoted to, and its side of ``target``."""
    probe = _truncate_sig(value, 10)
    energy = ring(probe).tight_minimum().v_star
    return {
        key: probe,
        "probe_energy": energy,
        "sign_vs_target": "negative" if energy < target else "positive",
    }


def _cmd_tune(params: dict[str, Any]) -> tuple[dict[str, Any], Any]:
    family, k = _family(params["model"], params["k"])
    cfg = PhysicalConfig(params["alpha"], params["n"])
    target = params["target"]
    echo = {
        "model": params["model"],
        "alpha": cfg.alpha,
        "n": cfg.n,
        "target": target,
    }

    if family == "ring-bltp":
        solution, point = flux.tune_bltp(cfg.alpha, target, cfg.n)
        results = {
            "kappa": solution.kappa,
            "R": solution.R,
            "residual": solution.residual,
            "R_over_alpha2": solution.R / cfg.alpha**2,
            "minimum": {"r_star": point.r_star, "energy": point.v_star},
            "sensitivity": _sensitivity(
                "probe_R", solution.R, target,
                lambda R: PotentialModel(family, cfg, RingParams(R, solution.kappa)),
            ),
        }
        return echo, results

    echo["k"] = k
    R = models.tune_ring_radius(family, cfg, target, scaling_k=k)
    coeff = R / cfg.alpha ** (1 + k)

    def ring(R: float) -> PotentialModel:
        return PotentialModel(family, cfg, RingParams(R), scaling_k=k)

    point = ring(R).tight_minimum()
    results = {
        "R": R,
        "coefficient": coeff,
        "coefficient_parameterization": f"R / alpha^{1 + k}",
        "minimum": {"r_star": point.r_star, "energy": point.v_star},
        "sensitivity": _sensitivity(
            "probe_coefficient", coeff, target,
            lambda c: ring(scaled_ring_radius(k, cfg.alpha, c)),  # R = c alpha^(1+k)
        ),
    }
    return echo, results


def _cmd_flux_solve(params: dict[str, Any]) -> tuple[dict[str, Any], Any]:
    solution = flux.solve_R_given_kappa(params["kappa"], params["alpha"])
    echo = {"kappa": params["kappa"], "alpha": params["alpha"]}
    results = {
        "kappa": solution.kappa,
        "R": solution.R,
        "residual": solution.residual,
        "kappa_R": solution.kappa * solution.R,
    }
    return echo, results


def _cmd_variational(params: dict[str, Any]) -> tuple[dict[str, Any], Any]:
    cfg = PhysicalConfig(params["alpha"], params["n"])
    R = params["R"]
    echo: dict[str, Any] = {"R": R, "alpha": cfg.alpha, "n": cfg.n}

    if params["a"] is not None:
        a = params["a"]
        kin = variational.kinetic_expectation(a)
        pot = variational.potential_expectation(a, R, cfg)
        echo["a"] = a
        return echo, {"a": a, "kinetic": kin, "potential": pot, "energy": kin + pot}

    if not params["a_min"] < params["a_max"]:
        _fail_usage("--a-max", f"must exceed --a-min; got ({params['a_min']!r}, {params['a_max']!r})")
    echo.update(
        a_min=params["a_min"],
        a_max=params["a_max"],
        points_per_decade=params["points_per_decade"],
    )
    results = variational.minimize_over_a(
        R, params["a_min"], params["a_max"], cfg, params["points_per_decade"]
    )
    payload = [
        {
            "a_star": v.a_star,
            "kinetic": v.kinetic,
            "potential": v.potential,
            "energy": v.energy,
            "R": v.R,
        }
        for v in results
    ]
    return echo, {"minima": payload, "count": len(payload), "bound": payload[0]["energy"]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="positronium",
        description="Semiclassical and variational binding-energy models "
        "for an electron-positron pair.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, spec in _PARAM_SPECS.items():
        p = sub.add_parser(verb, help=_VERB_HELP[verb])
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for key, param in spec.items():
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
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


_COMMANDS: dict[str, Callable[[dict[str, Any]], tuple[dict[str, Any], Any]]] = {
    "scan": _cmd_scan,
    "minimize": _cmd_minimize,
    "tune": _cmd_tune,
    "flux-solve": _cmd_flux_solve,
    "variational": _cmd_variational,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    verb = args.verb
    try:
        params = _resolve_params(verb, args)
        _check_grid(verb, params)
        started = time.perf_counter()
        code, text = 0, None  # text stays None for the JSON envelope
        if verb == "reproduce":
            criteria = acceptance.run_all()
            echo, results = {}, acceptance.as_report_dict(criteria)
            code = 0 if results["all_passed"] else 1
            if not args.as_json:
                text = acceptance.as_table(criteria)
        else:
            echo, results = _COMMANDS[verb](params)
            if verb == "scan" and not args.as_json:
                text = _curve_csv(results)
        if text is None:
            envelope = {
                "command": verb,
                "version": __version__,
                "params": _sanitize(echo),
                "results": _sanitize(results),
                "meta": {"elapsed_seconds": time.perf_counter() - started},
            }
            text = json.dumps(envelope, indent=2)
        _emit(text, args.output)
        return code
    except ValueError as err:  # UsageError included
        sys.stderr.write(f"error: {err}\n")
        return 2
    except RuntimeError as err:  # QuadratureError, OptimizeError and FluxError included
        sys.stderr.write(f"numerical failure: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
