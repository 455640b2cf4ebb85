"""Semiclassical and variational binding-energy models for an
electron-positron pair, from point charges to flux-quantized current rings.

The package is organized bottom-up:

* quadrature - the one rule for every integral: Gauss-Kronrod 15
               on fixed panels, weight folded in, Gauss-7 error check
* elliptic   - complete elliptic integrals K and E by the AGM, in one run
* optimize   - bracketed scalar minimization, log-grid scans, root finding
* models     - the four interaction families (the paper's ring pair is
               scaling at k = 1), PotentialModel and ring tuning
* flux       - the flux-quantization constraint linking regulator and radius
* variational - hydrogenic trial-state upper bound on the ground state
* acceptance - the reproduction suite behind `positronium reproduce`
* cli        - command-line verbs (scan, minimize, tune, flux-solve,
               variational, reproduce)

All quantities are dimensionless: energies in units of the electron rest
energy, lengths in reduced Compton lengths.
"""

__version__ = "1.0.0"

from .elliptic import ellip_KE
from .flux import (
    FluxError,
    FluxSolution,
    flux_constraint_integral,
    flux_rhs,
    solve_R_given_kappa,
    tune_bltp,
)
from .models import (
    ALPHA_FS,
    BIOT_SAVART_WINDOW,
    COULOMB_WINDOW,
    ZERO_ENERGY_RADIUS_COEFF,
    EnergyCurve,
    PhysicalConfig,
    PotentialModel,
    RingParams,
    bohr_energy,
    bohr_expansion_coeffs,
    kinetic_excess,
    kinetic_term,
    potential_scaling_law,
    potential_v3,
    ring_energy_lines,
    sample_curve,
    scaled_ring_radius,
    tune_ring_radius,
)
from .optimize import (
    Bracket,
    OptimizeError,
    StationaryPoint,
    find_local_minima,
    find_root,
    minimize_scalar,
)
from .quadrature import QuadratureError
from .variational import (
    VariationalResult,
    energy_expectation,
    kinetic_expectation,
    minimize_over_a,
    potential_expectation,
)

__all__ = [
    "__version__",
    # elliptic
    "ellip_KE",
    # quadrature
    "QuadratureError",
    # optimize
    "Bracket",
    "OptimizeError",
    "StationaryPoint",
    "find_local_minima",
    "find_root",
    "minimize_scalar",
    # models
    "ALPHA_FS",
    "BIOT_SAVART_WINDOW",
    "COULOMB_WINDOW",
    "ZERO_ENERGY_RADIUS_COEFF",
    "EnergyCurve",
    "PhysicalConfig",
    "PotentialModel",
    "RingParams",
    "bohr_energy",
    "bohr_expansion_coeffs",
    "kinetic_excess",
    "kinetic_term",
    "potential_scaling_law",
    "potential_v3",
    "ring_energy_lines",
    "sample_curve",
    "scaled_ring_radius",
    "tune_ring_radius",
    # flux
    "FluxError",
    "FluxSolution",
    "flux_constraint_integral",
    "flux_rhs",
    "solve_R_given_kappa",
    "tune_bltp",
    # variational
    "VariationalResult",
    "energy_expectation",
    "kinetic_expectation",
    "minimize_over_a",
    "potential_expectation",
]
