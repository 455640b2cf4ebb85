"""
Relativistic Bohr levels of the point-Coulomb pair
==================================================

The simplest member of the model family: two point charges, relativistic
kinetic energy, circular orbits. The total energy at separation r is

    E(r) = 2 sqrt(1 + n^2/r^2) - alpha/r

and its minimum over r reproduces the closed-form level

    E_n = 2 sqrt(1 - (alpha/2n)^2).

This script evaluates the spectrum, checks the weak-coupling expansion,
and locates the n = 1 minimum numerically.
"""

import math

import numpy as np

from positronium import (
    PhysicalConfig,
    PotentialModel,
    bohr_energy,
    bohr_expansion_coeffs,
    find_local_minima,
    kinetic_term,
)

alpha = PhysicalConfig().alpha
print(f"fine-structure constant alpha = {alpha:.12g} (1/alpha = {1.0 / alpha:g})")
print()

# the first five levels, computed and closed-form
print("n    E_n (model units)       binding  E_n - 2  (eV equivalent)")
for n in range(1, 6):
    cfg = PhysicalConfig(n=n)
    e = bohr_energy(cfg)
    closed = 2.0 * math.sqrt(1.0 - (alpha / (2.0 * n)) ** 2)
    assert abs(e - closed) < 1e-15
    binding_ev = (e - 2.0) * 510998.95
    print(f"{n}    {e:.15f}    {binding_ev:12.6f} eV")
print()

# weak-coupling expansion: E = 2 (1 + c2 alpha^2 + c4 alpha^4 + ...)
c2, c4 = bohr_expansion_coeffs(PhysicalConfig(n=1))
print(f"expansion coefficients: c2 = {c2} (-1/8), c4 = {c4} (-1/128)")
e_series = 2.0 * (1.0 + c2 * alpha**2 + c4 * alpha**4)
print(f"series through alpha^4: {e_series:.15f}")
print(f"exact level:            {bohr_energy(PhysicalConfig()):.15f}")
print()

# the same level found the honest way: minimize E(r) over separation.
# model(r) is the full orbit energy (kinetic term included).
cfg = PhysicalConfig()
model = PotentialModel("coulomb", cfg)
minima = find_local_minima(model, 1.0, 1e4, points_per_decade=30)
assert len(minima) == 1
m = minima[0]
r_bohr = math.sqrt(4.0 - alpha**2) / alpha
print(f"numerical minimum: r* = {m.r_star:.10g}, E = {m.v_star:.15f}")
print(f"analytic Bohr radius 2/alpha * sqrt(1 - (alpha/2)^2): {r_bohr:.10g}")
print(f"radius agreement: {abs(m.r_star / r_bohr - 1.0):.2e} relative")

# the model object is the closed form 2 sqrt(1 + n^2/r^2) - alpha/r, bit for bit
r_grid = np.geomspace(10.0, 1000.0, 5)
for r in r_grid:
    assert model(float(r)) == kinetic_term(cfg, float(r)) - cfg.alpha / float(r)
print()
print("done: spectrum, expansion, and numerical minimum all agree")
