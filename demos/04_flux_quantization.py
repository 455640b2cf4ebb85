#!/usr/bin/env python3
"""Flux quantization pins the ring radius to the regulator scale.

The regulated ring model (Bopp cutoff at inverse length kappa) stops being
a one-parameter family once the loop is required to carry one flux
quantum: the radius must satisfy

    R = (alpha^2 / 2 pi) * G(kappa R)

where G is an oscillation-free angular integral.  This script maps G,
shows the feasibility threshold in kappa, solves the constraint across a
kappa sweep, and reproduces the self-consistent configuration where the
tight state sits at zero total energy.
"""

from positronium import (
    FluxError,
    PhysicalConfig,
    PotentialModel,
    RingParams,
    find_local_minima,
    flux_constraint_integral,
    flux_rhs,
    solve_R_given_kappa,
    tune_bltp,
)

alpha = PhysicalConfig().alpha

# G(u) grows ~ u^2 at small u and ~ 2 ln u at large u
print("  u        G(u)")
for u in (0.1, 0.5, 1.0, 2.5, 4.626, 10.0):
    print(f"  {u:6.3f}   {flux_constraint_integral(u):.12g}")
print()

# the constraint R = (alpha^2/2pi) G(kappa R) has solutions only for
# kappa above a threshold near 1.54e5; below it the curves never meet
for kappa in (1.0e5, 1.5e5):
    try:
        solve_R_given_kappa(kappa)
        print(f"kappa = {kappa:g}: solved (unexpected)")
    except FluxError as err:
        print(f"kappa = {kappa:g}: infeasible, threshold kappa_min = {err.kappa_min:.10g}")
print()

# above threshold there are two branches; the solver follows the outer one
# (larger R), on which R grows with kappa
print("  kappa      R(kappa)        kappa*R      residual")
for kappa in (1.6e5, 1.8e5, 2.2e5, 3.0e5):
    sol = solve_R_given_kappa(kappa)
    rhs = flux_rhs(sol.kappa, sol.R)
    print(f"  {kappa:.1e}  {sol.R:.8e}  {sol.kappa * sol.R:9.5f}  {sol.residual:+.2e}")
print()

# the one free knob left is kappa; tune it so the tight minimum of the
# regulated potential sits at zero total energy
sol, tight = tune_bltp()
print("self-consistent zero-energy configuration:")
print(f"  kappa = {sol.kappa:.10g}")
print(f"  R     = {sol.R:.10g}")
print(f"  u     = {sol.kappa * sol.R:.10g}")
print(f"  tight minimum: r* = {tight.r_star:.10g}, E = {tight.v_star:.3e}")

# cross-check: rebuild the curve at the tuned parameters and re-find the well
params = RingParams(R=sol.R, kappa=sol.kappa)
cfg = PhysicalConfig()
again = find_local_minima(
    PotentialModel("ring-bltp", cfg, params).binding, 1e-6, 1e-4, points_per_decade=60
)
best = min(again, key=lambda p: p.v_star)
# the energy near the well carries ulp noise of ~1.5e-11 from the 1e5-sized
# kinetic and magnetic terms, which locates a quadratic minimum only to
# ~1e-8 relative; 1e-7 is the agreement two independent scans can promise
assert abs(best.r_star - tight.r_star) < 1e-7 * tight.r_star
print(f"  re-derived from scratch: r* matches to {abs(best.r_star / tight.r_star - 1.0):.1e}")
print()

# sanity: constraint still holds at the tuned point, to roundoff
print(f"  constraint residual |R - rhs| = {abs(sol.R - flux_rhs(sol.kappa, sol.R)):.2e}")
print("one condition, one knob: the model has no free parameters left")
