"""Complete elliptic integrals of the first and second kind.

ellip_KE returns the pair (K, E) from one AGM run.  It takes the elliptic
MODULUS k, not the parameter m = k**2.
This matters: the ring-ring interaction energy evaluates K and E at
k = 1/sqrt(1 + r**2/(4*R**2)), and feeding that argument to a
parameter-convention routine silently corrupts every ring potential.

    K(k) = integral_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta)
    E(k) = integral_0^{pi/2} sqrt(1 - k^2 sin^2 theta) dtheta

Evaluation uses the arithmetic-geometric mean, which converges
quadratically (a handful of sweeps at double precision):

    a_0 = 1,  b_0 = k' = sqrt(1 - k^2)
    a_{j+1} = (a_j + b_j)/2,  b_{j+1} = sqrt(a_j b_j)
    K(k) = pi / (2 * AGM(1, k'))

The differences c_j = (a_{j-1} - b_{j-1})/2 come from the exact rewrites
c_1 = k^2/(2(1 + k')) and c_{j+1} = c_j^2/(2(a_j + b_j)), which never
subtract.  With S = sum_{j>=1} 2^j c_j^2 (the AGM form of DLMF 19.8),

    E(k) = K(k) (1 - (k^2 + S)/2),     (2 - k^2) K(k) - 2 E(k) = K(k) S,

and the second is how the ring potentials take a bracket that cancels
catastrophically at small k.  _agm runs the recurrence on floats, or, the
same loop, on ndarrays.

K diverges logarithmically as k -> 1; that endpoint is a signalled domain
error of ellip_KE, never an infinity sentinel, because the ring models
reach k = 1 only at r = 0 which callers must exclude.
"""

from __future__ import annotations

import math

__all__ = ["ellip_KE"]

# AGM contraction is quadratic; 64 sweeps is far beyond what double
# precision can ever use, so hitting the cap indicates a logic error.
_MAX_SWEEPS = 64
_EPS = math.ulp(1.0)


def _agm(k, kp, sqrt=math.sqrt, converged=bool):
    """(K(k), S) by the AGM, S = sum_{j>=1} 2^j c_j^2 (module docstring).

    Both moduli come from the caller.  One who knows the complementary
    modulus to full precision -- e.g. k = 1/hypot(1, x) together with
    k' = x/hypot(1, x) -- must pass it directly: reconstructing k' from a
    rounded k loses every digit once k is within a few ulp of 1, and k may
    even round to exactly 1.0 while k' is still a perfectly good 1e-12.
    Requires kp > 0 (K diverges at kp = 0).  Floats take the defaults;
    arrays k, kp pass np.sqrt and np.ndarray.all (np.all's dispatch cost a
    tenth of a 241-point run), and then every pair of moduli is swept
    until the slowest has converged.
    """
    a = 1.0
    b = kp
    c = k * k / (2.0 * (1.0 + kp))
    weight = 2.0
    series = weight * c * c
    for _ in range(_MAX_SWEEPS):
        a, b = 0.5 * (a + b), sqrt(a * b)
        c = c * c / (2.0 * (a + b))
        weight *= 2.0
        series += weight * c * c
        # c keeps shrinking quadratically after a and b stall an ulp apart,
        # so this always ends the loop, with later terms below an ulp
        if converged(c <= _EPS * a):
            return math.pi / (a + b), series
    raise RuntimeError("AGM failed to converge (unreachable for moduli in [0,1))")


def _ellip_KE_pair(k: float, kp: float) -> tuple[float, float]:
    """(K(k), E(k)) with both moduli supplied by the caller (see _agm)."""
    big_k, series = _agm(k, kp)
    return big_k, big_k * (1.0 - 0.5 * (k * k + series))


def ellip_KE(k: float) -> tuple[float, float]:
    """Return (K(k), E(k)) from a single AGM run.

    The pair shares the iteration, so E costs nothing beyond K.  The ring
    potentials run _agm themselves, on moduli that keep k' exact.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1 for K(k); got k={k!r}")
    # k' formed without the 1 - k^2 cancellation
    return _ellip_KE_pair(k, math.sqrt((1.0 - k) * (1.0 + k)))
