#!/usr/bin/env python3
"""Why the point-dipole magnetic correction cannot bind anything."""

# Adding the spin-spin interaction as a point dipole gives the orbit energy
#
#     E(r) = 2 sqrt(1 + 1/r^2) - alpha/r - alpha^3 / (8 pi^2 r^3)
#
# The attractive r^-3 term beats the r^-1 kinetic barrier as r -> 0, so
# E is unbounded below: the pair falls to the center.  There is no new
# minimum, only a finite barrier separating the Bohr well from the
# collapse region.  This script maps that barrier.

import math

from positronium import (
    Bracket,
    PhysicalConfig,
    PotentialModel,
    find_local_minima,
    find_root,
    minimize_scalar,
    sample_curve,
)

cfg = PhysicalConfig()
alpha = cfg.alpha
model = PotentialModel("coulomb-dipole", cfg)

# 1. no minimum at sub-Compton separations, despite the huge barrier
minima = find_local_minima(model.binding, 1e-6, 1e-4, points_per_decade=50)
print(f"minima of E(r) on (1e-6, 1e-4): {len(minima)}  (expected 0)")

# 2. the barrier: E has a local MAXIMUM where the dipole term takes over.
# Negate and minimize.
top = minimize_scalar(lambda r: -model.binding(r), Bracket(5e-5, 8e-5, 2e-4))
r_barrier = top.r_star
height = -top.v_star
approx = alpha * math.sqrt(3.0 * alpha / (16.0 * math.pi**2))
print(f"barrier top: r = {r_barrier:.12g}, E - 2 = {height:.6g}")
print(f"  leading-order estimate alpha*sqrt(3 alpha/16 pi^2) = {approx:.6g}")
print("  (a barrier ~1.5e4 rest energies: classically protected,")
print("   but there is no floor underneath)")

# 3. inside the barrier the total energy dives through zero
r_cross = find_root(model, 1e-6, r_barrier)
print(f"total energy crosses E = 0 at r = {r_cross:.12g}")

# 4. collapse in numbers: walk inward and watch the energy dive
curve = sample_curve(model, 1e-7, 1e-3, 9)
print()
print("        r            E(r)")
for r, v in zip(curve.grid, curve.values):
    print(f"  {r:12.3e}   {v:14.6e}")

inner = model.binding(1e-7)
assert inner < -1e8, "energy must be deeply negative well inside the crossing"
print()
print(f"E(1e-7) - 2 = {inner:.3e}: unbounded below, as advertised")
print("conclusion: the point-dipole form needs a regulator (see demos 03-04)")
