"""
Current-ring pair: a geometric regulator for the magnetic term
==============================================================

Replace each point particle by a circular current loop of radius R.  The
coaxial pair at separation r then interacts through closed-form line
energies built from complete elliptic integrals:

    electric: -(alpha / pi R) k K(k)
    magnetic: -(alpha^3 / 4 pi^3 R^3) h [(2 - m) K(m) - 2 E(m)]

with k the modulus set by rho = r / 2R.  At r >> R this collapses back to
point charge + point dipole, but at r ~ R the geometry smears the
singularity: for small enough R the orbit energy develops a genuine inner
minimum instead of a bottomless plunge.

The pair is the k = 1 member of the package's one ring family,
"scaling", whose magnetic coupling is alpha^(1+2k).  This script tunes R
so the inner well sits exactly at zero total energy, shows the resulting
two-well structure, and verifies the similarity scaling that makes one
tuned coefficient cover the whole family of couplings.
"""

import numpy as np

from positronium import (
    ZERO_ENERGY_RADIUS_COEFF,
    PhysicalConfig,
    PotentialModel,
    RingParams,
    find_local_minima,
    ring_energy_lines,
    scaled_ring_radius,
    tune_ring_radius,
)

cfg = PhysicalConfig()
alpha = cfg.alpha


def ring_pair(R: float, k: int = 1) -> PotentialModel:
    """The ring pair of radius R at magnetic coupling alpha^(1+2k)."""
    return PotentialModel("scaling", cfg, RingParams(R), scaling_k=k)


# -- far field: ring pair looks like point charge + point dipole ------------
R = 1e-5
params = RingParams(R)
for r in (0.01, 0.1):
    v_elec, v_mag = ring_energy_lines(params, cfg, r)
    point = -alpha / r
    dipole = -(alpha**3) / (8.0 * np.pi**2 * r**3)
    print(f"r = {r:g}: electric/point = {v_elec / point:.8f}, magnetic/dipole = {v_mag / dipole:.8f}")
print("(both ratios -> 1: the multipole tail is correct)")
print()

# -- tune the radius so the inner well touches zero total energy -------------
R_star = tune_ring_radius("scaling", cfg, target_energy=0.0, scaling_k=1)
coeff = R_star / alpha**2
print(f"tuned ring radius: R = {R_star:.15g}  (R/alpha^2 = {coeff:.15g})")
print(f"packaged reference coefficient: {ZERO_ENERGY_RADIUS_COEFF!r}")
print(f"relative agreement: {abs(coeff / ZERO_ENERGY_RADIUS_COEFF - 1.0):.1e}")
print()

# -- the two wells ------------------------------------------------------------
minima = find_local_minima(ring_pair(R_star).binding, 1e-6, 1e4, points_per_decade=40)
print(f"minima of E(r) - 2 at the tuned radius: {len(minima)}")
for m in minima:
    print(f"  {m.kind:10s} r* = {m.r_star:.10g}   E - 2 = {m.v_star:.10g}   E = {2.0 + m.v_star:.2e}")
print("the outer well is the Bohr state (binding ~ alpha^2/4); the inner")
print("well is new, held open by the ring geometry, and its TOTAL energy")
print("vanishes because R was tuned to put it there")
print()

# -- similarity scaling -------------------------------------------------------
# (r, R) -> (c r, c R) leaves the elliptic modulus alone, so the electric
# line scales as 1/c and the magnetic line as 1/c^3.  Exact in floating
# point when c is a power of two.
c = 2.0
for r in np.geomspace(1e-5, 1.0, 4):
    a = ring_energy_lines(RingParams(c * R_star), cfg, c * float(r))
    b = ring_energy_lines(RingParams(R_star), cfg, float(r))
    assert a[0] == b[0] / c and a[1] == b[1] / c**3
print("similarity scaling (c = 2): exact to the last bit")

# the same collapse makes a one-parameter family: coupling alpha^(1+2k)
# with ring radius R_k = coeff * alpha^(1+k) shares one tuned coefficient
for k in (0, 1, 2, 3):
    print(f"  k = {k}: scaled ring radius = {scaled_ring_radius(k):.12g}")
print()

# -- sensitivity: the tenth significant digit already matters -----------------
rounded = float(f"{coeff:.10g}")
m = min(
    find_local_minima(ring_pair(rounded * alpha**2).binding, 1e-6, 1e-4, points_per_decade=60),
    key=lambda p: p.v_star,
)
print(f"coefficient truncated to 10 digits moves the well total energy to {2.0 + m.v_star:.4e}")
print("(it is ~1e-10 at full precision: the tuning is razor thin)")
