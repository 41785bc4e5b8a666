"""Elliptic integrals of the first kind and the Jacobi amplitude.

F and K are built on the Carlson symmetric integral R_F evaluated by the
duplication algorithm; the AGM route is kept in the test suite as an
independent oracle.  F extends quasi-periodically to all real amplitudes,
F(phi + n*pi, k) = F(phi, k) + 2*n*K(k), and jacobi_am inverts it.

Every function takes arrays and broadcasts its arguments; a scalar input
returns a float.  The iterative ones (duplication, Newton, root finding)
stop each element at its own convergence test, so element i of an array
call equals the scalar call on element i bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, SolverError, _require

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
# series then contributes < 1e-16 relative error.  Each duplication cuts the
# spread by 4, so no element needs more than a few dozen steps.
_RF_SPREAD = 2.0e-3

# Relative x-tolerance added to xtol in invert_monotone (4 ulp).
_RTOL = 4.0 * np.finfo(float).eps


def _arrays(*args):
    """Broadcast the arguments to float arrays of one shape."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))


def carlson_rf(x, y, z):
    """Carlson symmetric integral R_F(x, y, z).

    Defined for nonnegative arguments with at most one of them zero;
    accurate to a few ulp.
    """
    x, y, z = _arrays(x, y, z)
    shape = x.shape
    v = np.stack([x.ravel(), y.ravel(), z.ravel()])
    _require(np.isfinite(v), "carlson_rf: arguments must be finite", v)
    _require(v >= 0.0, "carlson_rf: arguments must be nonnegative", v)
    if np.any((v == 0.0).sum(axis=0) > 1):
        raise DomainError("carlson_rf: diverges when two or more arguments vanish")

    out = np.empty(v.shape[1])
    live = np.arange(v.shape[1])
    for _ in range(300):
        r = np.sqrt(v)
        lam = r[0] * r[1] + r[1] * r[2] + r[2] * r[0]
        v = 0.25 * (v + lam)
        mu = (v[0] + v[1] + v[2]) / 3.0
        d = (mu - v) / mu
        done = np.abs(d).max(axis=0) < _RF_SPREAD
        if done.any():
            dx, dy, dz = d[:, done]
            e2 = dx * dy - dz * dz
            e3 = dx * dy * dz
            series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
            out[live[done]] = series / np.sqrt(mu[done])
            live, v = live[~done], v[:, ~done]
            if not live.size:
                out = out.reshape(shape)
                return out if out.ndim else float(out)
    raise SolverError("carlson_rf: duplication did not converge")  # pragma: no cover


def _check_modulus(k) -> None:
    _require((k >= 0.0) & (k < 1.0), "modulus k must satisfy 0 <= k < 1", k)


def ellip_k(k):
    """Complete elliptic integral of the first kind K(k), 0 <= k < 1."""
    k = np.asarray(k, dtype=float)
    _check_modulus(k)
    return carlson_rf(0.0, (1.0 - k) * (1.0 + k), 1.0)


def _f_principal(phi, k):
    # F on the principal branch phi in [-pi/2, pi/2].  1 - (k sin)^2 is
    # written k'^2 + (k cos)^2, which does not cancel near k = 1, phi = pi/2.
    s = np.sin(phi)
    c = np.cos(phi)
    return s * carlson_rf(c * c, (1.0 - k) * (1.0 + k) + (k * c) * (k * c), 1.0)


def ellip_f(phi, k):
    """Incomplete elliptic integral of the first kind F(phi, k).

    Valid for any real amplitude phi via the quasi-periodic extension
    F(phi + n*pi, k) = F(phi, k) + 2*n*K(k).  Strictly increasing in phi.
    """
    phi, k = _arrays(phi, k)
    _check_modulus(k)
    _require(np.isfinite(phi), "ellip_f: amplitude must be finite", phi)
    # Nearest multiple of pi, ties toward zero: |phi| = pi/2 stays on the
    # principal branch, where F' ~ 1/k' would amplify the rounding of the
    # reduced amplitude near k = 1.
    n = np.sign(phi) * np.ceil(np.abs(phi) / math.pi - 0.5)
    # Compensated subtraction of n*pi keeps the reduced amplitude accurate
    # for moderately large |phi|; it is exact for n = 0.
    phi0 = (phi - n * _PI_HI) - n * _PI_LO
    f = np.asarray(_f_principal(phi0, k))
    wound = n != 0.0
    if wound.any():
        f[wound] += 2.0 * n[wound] * ellip_k(k[wound])
    return f if f.ndim else float(f)


def jacobi_am(t, k):
    """Jacobi amplitude am(t, k), the inverse of ellip_f in the amplitude.

    am(F(phi, k), k) = phi for all real phi; cn = cos(am), sn = sin(am).
    """
    t, k = _arrays(t, k)
    _check_modulus(k)
    _require(np.isfinite(t), "jacobi_am: argument must be finite", t)
    shape = t.shape
    t, k = t.ravel(), k.ravel()
    bigk = np.asarray(ellip_k(k))
    n = np.floor(t / (2.0 * bigk) + 0.5)
    r = t - 2.0 * n * bigk  # in [-K, K]
    # Solve F(phi, k) = r on [-pi/2, pi/2]: Newton with a bisection safeguard,
    # element by element.
    phi = 0.5 * math.pi * r / bigk
    lo = np.full(t.size, -0.5 * math.pi)
    hi = np.full(t.size, 0.5 * math.pi)
    live = np.arange(t.size)
    for _ in range(60):
        ph, kl, rl = phi[live], k[live], r[live]
        err = _f_principal(ph, kl) - rl
        done = np.abs(err) < 1e-15 * np.maximum(1.0, np.abs(rl))
        above = err > 0.0
        hl = np.where(above, ph, hi[live])
        ll = np.where(above, lo[live], ph)
        s = np.sin(ph)
        step = err * np.sqrt(1.0 - (kl * s) * (kl * s))  # err / F'(phi)
        # Near k = 1 F' is large and the residual test above can sit below
        # the rounding noise of F; a step or bracket at ulp level has converged.
        done |= np.minimum(np.abs(step), hl - ll) <= np.spacing(np.abs(ph))
        cand = ph - step
        inside = (ll < cand) & (cand < hl)
        phi[live] = np.where(done, ph, np.where(inside, cand, 0.5 * (ll + hl)))
        lo[live], hi[live] = ll, hl
        live = live[~done]
        if not live.size:
            break
    else:  # pragma: no cover
        raise SolverError("jacobi_am: amplitude iteration did not converge")
    phi = (phi + n * math.pi).reshape(shape)
    return phi if phi.ndim else float(phi)


def invert_monotone(
    f: Callable,
    target,
    bracket,
    atol: float = 1e-10,
    xtol: float = 1e-13,
):
    """Solve f(x) = target for a continuous strictly monotone f on a bracket.

    f must act elementwise on arrays; target and the two bracket ends
    broadcast, one root per element.  Raises BracketError when a target is
    not enclosed by its endpoint values.  Each result satisfies
    |f(x) - target| <= atol, and its final bracket is narrower than
    xtol + 4 eps |x| unless that needed bisecting below xtol to reach atol.
    Raises SolverError when atol is out of reach at ulp resolution.

    The solver is Brent's safeguarded secant/bisection iteration without
    the inverse quadratic step, run on all elements at once; an element
    stops at its own tolerance test.
    """
    a, b = bracket
    target, a, b = _arrays(target, a, b)
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a < b)):
        raise DomainError(f"invert_monotone: bad bracket {bracket!r}")
    shape = target.shape
    target, a, b = target.ravel(), a.ravel(), b.ravel()
    ga = np.asarray(f(a), dtype=float) - target
    gb = np.asarray(f(b), dtype=float) - target
    unbracketed = np.flatnonzero(ga * gb > 0.0)
    if unbracketed.size:
        i = unbracketed[0]
        raise BracketError(
            f"invert_monotone: no sign change on [{float(a[i])!r}, {float(b[i])!r}] "
            f"for target {float(target[i])!r}"
        )
    out = np.where(ga == 0.0, a, b)
    live = np.flatnonzero((ga != 0.0) & (gb != 0.0))
    # Brent's state: xcur is the best iterate, [xcur, xblk] brackets the
    # root, xpre is the previous iterate; scur/spre are the last two steps.
    xpre, xcur, tgt = a[live], b[live], target[live]
    fpre, fcur = ga[live], gb[live]
    xblk, fblk = xpre, fpre
    spre = scur = xcur - xpre
    for _ in range(300):
        if not live.size:
            out = out.reshape(shape)
            return out if out.ndim else float(out)
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, fpre = np.where(swap, xcur, xpre), np.where(swap, fcur, fpre)
        xcur, xblk = np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fcur, fblk = np.where(swap, fblk, fcur), np.where(swap, fpre, fblk)

        delta = 0.5 * (xtol + _RTOL * np.abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        small = np.abs(sbis) < delta
        good = np.abs(fcur) <= atol
        mid = xcur + sbis
        at_ulp = (mid == xcur) | (mid == xblk)
        done = (fcur == 0.0) | (small & good) | at_ulp
        stuck = done & ~good & (fcur != 0.0)
        if stuck.any():
            raise SolverError(
                f"invert_monotone: residual {np.max(np.abs(fcur[stuck])):.3e} above "
                f"atol={atol!r} at ulp resolution"
            )
        if done.any():
            out[live[done]] = xcur[done]
            more = ~done
            live, tgt = live[more], tgt[more]
            xpre, xcur, xblk = xpre[more], xcur[more], xblk[more]
            fpre, fcur, fblk = fpre[more], fcur[more], fblk[more]
            spre, scur = spre[more], scur[more]
            delta, sbis, small = delta[more], sbis[more], small[more]
            if not live.size:
                continue

        # Secant step from the last two iterates, taken only when it lands
        # well inside the bracket and the steps keep shrinking; otherwise
        # bisect.  Below xtol (reachable only with |f - target| > atol) the
        # iteration bisects down to ulp resolution.
        interp = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) & ~small
        stry = np.zeros_like(xcur)
        np.divide(-fcur * (xcur - xpre), fcur - fpre, out=stry, where=interp)
        take = interp & (2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta))
        spre = np.where(take, scur, sbis)
        scur = np.where(take, stry, sbis)
        xpre, fpre = xcur, fcur
        step = np.where(small | (np.abs(scur) > delta), scur, np.copysign(delta, sbis))
        xcur = xcur + step
        fcur = np.asarray(f(xcur), dtype=float) - tgt
    raise SolverError("invert_monotone: no convergence in 300 iterations")
