"""The package's public surface, pinned: adding or removing an exported name,
or reaching into another module's private names from the CLI or the
reproduction suite, has to be a deliberate edit of this file."""

import ast
from pathlib import Path

import positronium

PACKAGE = Path(positronium.__file__).resolve().parent

EXPORTS = {
    "__version__",
    # elliptic
    "ellip_KE",
    # quadrature
    "QuadratureError",
    # optimize
    "Bracket", "OptimizeError", "StationaryPoint", "find_local_minima", "find_root",
    "minimize_scalar",
    # models
    "ALPHA_FS", "ZERO_ENERGY_RADIUS_COEFF", "EnergyCurve", "PhysicalConfig", "PotentialModel",
    "RingParams", "bohr_energy", "bohr_expansion_coeffs", "kinetic_excess", "kinetic_term",
    "ring_energy_lines", "sample_curve", "scaled_ring_radius", "tune_ring_radius",
    # flux
    "FluxError", "FluxSolution", "flux_constraint_integral", "flux_rhs",
    "solve_R_given_kappa", "tune_bltp",
    # variational
    "VariationalResult", "energy_expectation", "kinetic_expectation", "minimize_over_a",
    "potential_expectation",
}


def test_package_exports_are_pinned():
    assert len(positronium.__all__) == len(set(positronium.__all__)) == 34
    assert set(positronium.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(positronium, name), name


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(path: Path) -> list[str]:
    """Private names of other positronium modules that ``path`` imports or
    reads as module attributes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: set[str] = set()  # local names bound to positronium modules
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("positronium")
        ):
            for alias in node.names:
                if _private(alias.name):
                    uses.append(f"line {node.lineno}: imports {alias.name}")
                if (node.level > 0 and node.module is None) or node.module == "positronium":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("positronium"):
                    if any(_private(part) for part in alias.name.split(".")):
                        uses.append(f"line {node.lineno}: imports {alias.name}")
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            uses.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return uses


def test_cli_and_acceptance_use_only_public_names_of_other_modules():
    for module in ("cli.py", "acceptance.py"):
        assert _private_uses(PACKAGE / module) == [], module


def test_private_use_check_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import models, __version__\n"
        "from .flux import _ring_at, tune_bltp\n"
        "x = models._tight_window\n"
        "y = models.PotentialModel\n",
        encoding="utf-8",
    )
    assert _private_uses(probe) == [
        "line 2: imports _ring_at",
        "line 3: reads models._tight_window",
    ]
