"""Elliptic integrals of the first kind and the Jacobi amplitude.

F and K are built on the Carlson symmetric integral R_F evaluated by the
duplication algorithm; the AGM route is kept in the test suite as an
independent oracle.  F extends quasi-periodically to all real amplitudes,
F(phi + n*pi, k) = F(phi, k) + 2*n*K(k), and jacobi_am inverts it.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy.optimize import brentq

from .errors import BracketError, DomainError, SolverError

__all__ = [
    "carlson_rf",
    "ellip_k",
    "ellip_f",
    "jacobi_am",
    "invert_monotone",
]

# Double-double split of pi for compensated reduction phi -> phi - n*pi.
_PI_HI = 3.14159265358979311600e00
_PI_LO = 1.22464679914735317723e-16

# Duplication stops once the spread is below this; the truncated fifth-order
# series then contributes < 1e-16 relative error.
_RF_SPREAD = 2.0e-3


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson symmetric integral R_F(x, y, z).

    Defined for nonnegative arguments with at most one of them zero;
    accurate to a few ulp.
    """
    if not all(math.isfinite(v) for v in (x, y, z)):
        raise DomainError(f"carlson_rf: arguments must be finite, got {(x, y, z)!r}")
    if x < 0.0 or y < 0.0 or z < 0.0:
        raise DomainError(f"carlson_rf: arguments must be nonnegative, got {(x, y, z)!r}")
    if (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise DomainError("carlson_rf: diverges when two or more arguments vanish")

    for _ in range(300):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        mu = (x + y + z) / 3.0
        dx = (mu - x) / mu
        dy = (mu - y) / mu
        dz = (mu - z) / mu
        if max(abs(dx), abs(dy), abs(dz)) < _RF_SPREAD:
            e2 = dx * dy - dz * dz
            e3 = dx * dy * dz
            series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
            return series / math.sqrt(mu)
    raise SolverError("carlson_rf: duplication did not converge")  # pragma: no cover


def _check_modulus(k: float) -> None:
    if not (0.0 <= k < 1.0):
        raise DomainError(f"modulus k must satisfy 0 <= k < 1, got {k!r}")


def ellip_k(k: float) -> float:
    """Complete elliptic integral of the first kind K(k), 0 <= k < 1."""
    _check_modulus(k)
    return carlson_rf(0.0, (1.0 - k) * (1.0 + k), 1.0)


def _f_principal(phi: float, k: float) -> float:
    # F on the principal branch phi in [-pi/2, pi/2].
    s = math.sin(phi)
    c = math.cos(phi)
    return s * carlson_rf(c * c, 1.0 - (k * s) * (k * s), 1.0)


def ellip_f(phi: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi, k).

    Valid for any real amplitude phi via the quasi-periodic extension
    F(phi + n*pi, k) = F(phi, k) + 2*n*K(k).  Strictly increasing in phi.
    """
    _check_modulus(k)
    if not math.isfinite(phi):
        raise DomainError(f"ellip_f: amplitude must be finite, got {phi!r}")
    n = math.floor(phi / math.pi + 0.5)
    if n == 0:
        return _f_principal(phi, k)
    # Compensated subtraction of n*pi keeps the reduced amplitude accurate
    # for moderately large |phi|.
    phi0 = (phi - n * _PI_HI) - n * _PI_LO
    return _f_principal(phi0, k) + 2.0 * n * ellip_k(k)


def jacobi_am(t: float, k: float) -> float:
    """Jacobi amplitude am(t, k), the inverse of ellip_f in the amplitude.

    am(F(phi, k), k) = phi for all real phi; cn = cos(am), sn = sin(am).
    """
    _check_modulus(k)
    if not math.isfinite(t):
        raise DomainError(f"jacobi_am: argument must be finite, got {t!r}")
    bigk = ellip_k(k)
    n = math.floor(t / (2.0 * bigk) + 0.5)
    r = t - 2.0 * n * bigk  # in [-K, K]
    # Solve F(phi, k) = r on [-pi/2, pi/2]: Newton with a bisection safeguard.
    lo, hi = -0.5 * math.pi, 0.5 * math.pi
    phi = 0.5 * math.pi * r / bigk
    for _ in range(60):
        err = _f_principal(phi, k) - r
        if abs(err) < 1e-15 * max(1.0, abs(r)):
            break
        if err > 0.0:
            hi = phi
        else:
            lo = phi
        s = math.sin(phi)
        step = err * math.sqrt(1.0 - (k * s) * (k * s))  # err / F'(phi)
        # Near k = 1 F' is large and the residual test above can sit below
        # the rounding noise of F; a step or bracket at ulp level has converged.
        if min(abs(step), hi - lo) <= math.ulp(phi):
            break
        cand = phi - step
        phi = cand if lo < cand < hi else 0.5 * (lo + hi)
    else:  # pragma: no cover
        raise SolverError("jacobi_am: amplitude iteration did not converge")
    return phi + n * math.pi


def invert_monotone(
    f: Callable[[float], float],
    target: float,
    bracket: tuple[float, float],
    atol: float = 1e-10,
    xtol: float = 1e-13,
) -> float:
    """Solve f(x) = target for a continuous strictly monotone f on a bracket.

    Raises BracketError when the target is not enclosed by the endpoint
    values.  The result satisfies |f(x) - target| <= atol with the final
    interval narrower than xtol.
    """
    a, b = bracket
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"invert_monotone: bad bracket {bracket!r}")
    ga = f(a) - target
    gb = f(b) - target
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if ga * gb > 0.0:
        raise BracketError(
            f"invert_monotone: no sign change on [{a!r}, {b!r}] for target {target!r}"
        )
    x = brentq(lambda v: f(v) - target, a, b, xtol=xtol, rtol=8.9e-16, maxiter=300)
    resid = f(x) - target
    if abs(resid) <= atol:
        return x
    # Steep functions can leave |f - target| above atol at the x-tolerance
    # limit; continue bisecting down to ulp resolution around x.
    sign_b = 1.0 if gb > 0.0 else -1.0
    delta = max(xtol, 1e-15 * max(1.0, abs(x)))
    if resid * sign_b > 0.0:
        lo, hi = max(a, x - delta), x
        while (f(lo) - target) * sign_b > 0.0 and lo > a:
            delta *= 4.0
            lo = max(a, x - delta)
    else:
        lo, hi = x, min(b, x + delta)
        while (f(hi) - target) * sign_b < 0.0 and hi < b:
            delta *= 4.0
            hi = min(b, x + delta)
    best_x, best_r = x, abs(resid)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        r = f(mid) - target
        if abs(r) < best_r:
            best_x, best_r = mid, abs(r)
            if best_r <= atol:
                return best_x
        if r * sign_b > 0.0:
            hi = mid
        else:
            lo = mid
    if best_r > atol:
        raise SolverError(
            f"invert_monotone: residual {best_r!r} above atol={atol!r} "
            "at ulp resolution"
        )
    return best_x
