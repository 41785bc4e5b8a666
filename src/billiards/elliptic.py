"""Elliptic integrals of the first kind and the Jacobi amplitude.

F and K are built on the Carlson symmetric integral R_F evaluated by the
duplication algorithm; the AGM route is kept in the test suite as an
independent oracle.  F extends quasi-periodically to all real amplitudes,
F(phi + n*pi, k) = F(phi, k) + 2*n*K(k), and jacobi_am inverts it.
ellip_fk returns F and K from one carlson_rf call on the stacked
arguments; ellip_f shares that pass, where wound amplitudes take their K.
Duplication acts element by element, so the fused values equal separate
ellip_f and ellip_k calls bit for bit.

Every function takes arrays and broadcasts its arguments; a scalar input
returns a float.  The iterative ones (duplication, Newton, root finding)
stop each element at its own convergence test, so element i of an array
call equals the scalar call on element i bit for bit.  carlson_rf checks
its domain from the minimum and maximum and each column's spread with one
division; jacobi_am compacts its live elements and fixes k'^2 per element.

Scalar work runs in Python floats, where numpy's per-call dispatch would
cost more than the arithmetic: carlson_rf on at most RF_FLOAT_COLUMNS
columns, F and K on one amplitude and modulus, invert_monotone on one
target and bracket.  These paths repeat the array loops' operations in
the same order; +, -, *, / and sqrt are correctly rounded in IEEE 754
arithmetic, so they give the same bits.  sin and cos stay numpy's, and
invert_monotone hands f 0-d arrays, so that f runs numpy's array loops
(a Python float's x ** 3 can round differently).  Inputs out of domain
take the array path, which raises.
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
    "ellip_fk",
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

# carlson_rf runs calls of at most this many columns through the float
# kernel _rf_float, column by column, and larger ones through the array
# loop.  On caustic-chart arguments with a scalar z (2-vCPU host, timeit
# minima per call) the kernel took 5 us for 1 column, 45 for 16, 69 for 24
# and 90 for 32, the array loop 40 us at 1 column and 74-87 us from 8 to
# 32; they cross near 26 columns, and at 16 the kernel is 1.7x faster.
RF_FLOAT_COLUMNS = 16


def _arrays(*args):
    """Broadcast the arguments to float arrays of one shape."""
    arrays = [np.asarray(v, dtype=float) for v in args]
    # broadcast_arrays returns equal shapes as they are, after a slower check
    return arrays if len({a.shape for a in arrays}) == 1 else np.broadcast_arrays(*arrays)


def carlson_rf(x, y, z):
    """Carlson symmetric integral R_F(x, y, z).

    Defined for nonnegative arguments with at most one of them zero;
    accurate to a few ulp.
    """
    shape = np.broadcast(x, y, z).shape
    v = np.empty((3, *shape))  # the (3, N) state, broadcast as it is filled
    v[0], v[1], v[2] = x, y, z
    v = v.reshape(3, -1)
    if v.shape[1] <= RF_FLOAT_COLUMNS:
        # A column out of domain, or one whose subnormal arguments reach
        # 0/0, sends the call to the array loop, which raises or warns.
        try:
            out = list(map(_rf_float, *v.tolist()))
        except ZeroDivisionError:
            out = [None]
        if None not in out:
            return np.array(out).reshape(shape) if shape else out[0]
    # One min/max pass for both checks (NaN fails both comparisons); the
    # messages come from the two _require calls, run only when it fails.
    lo, hi = v.min(initial=math.inf), v.max(initial=0.0)
    if not (lo >= 0.0 and hi < math.inf):
        _require(np.isfinite(v), "carlson_rf: arguments must be finite", v)
        _require(v >= 0.0, "carlson_rf: arguments must be nonnegative", v)
    if lo == 0.0 and np.any((v == 0.0).sum(axis=0) > 1):
        raise DomainError("carlson_rf: diverges when two or more arguments vanish")

    # No compaction: a column stops duplicating at its own spread test and
    # keeps its state, from which the series is taken once at the end.
    # While every column is pending the step needs no masked copy.  As mu > 0
    # and rounding is monotone, max|mu - v| / mu is max|(mu - v) / mu|.
    pending = np.ones(v.shape[1], dtype=bool)
    npending = v.shape[1]
    for _ in range(300):
        if not npending:
            break
        r = np.sqrt(v)
        lam = r[0] * r[1] + r[1] * r[2] + r[2] * r[0]
        if npending == v.shape[1]:
            v = 0.25 * (v + lam)
        else:
            np.copyto(v, 0.25 * (v + lam), where=pending)
        mu = (v[0] + v[1] + v[2]) / 3.0
        pending &= np.abs(mu - v).max(axis=0) / mu >= _RF_SPREAD
        npending = np.count_nonzero(pending)
    else:  # pragma: no cover
        raise SolverError("carlson_rf: duplication did not converge")
    mu = (v[0] + v[1] + v[2]) / 3.0
    dx, dy, dz = (mu - v) / mu
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    out = (series / np.sqrt(mu)).reshape(shape)
    return out if out.ndim else float(out)


def _rf_float(x, y, z):
    # One column of carlson_rf's array loop in Python floats: the same
    # operations in the same order, each correctly rounded, so the same bits.
    # None when the column is out of domain.
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf and 0.0 <= z < math.inf) or (
            (x == 0.0) + (y == 0.0) + (z == 0.0) > 1):
        return None
    for _ in range(300):
        rx, ry, rz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = rx * ry + ry * rz + rz * rx
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + z) / 3.0
        dx, dy, dz = (mu - x) / mu, (mu - y) / mu, (mu - z) / mu
        if max(abs(dx), abs(dy), abs(dz)) < _RF_SPREAD:
            break
    else:  # pragma: no cover
        raise SolverError("carlson_rf: duplication did not converge")
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    return series / math.sqrt(mu)


def _check_modulus(k) -> None:
    _require((k >= 0.0) & (k < 1.0), "modulus k must satisfy 0 <= k < 1", k)


def ellip_k(k):
    """Complete elliptic integral of the first kind K(k), 0 <= k < 1."""
    k = np.asarray(k, dtype=float)
    _check_modulus(k)
    return carlson_rf(*_rf_args(0.0, k))


def _rf_args(c, k):
    # Arguments of the R_F factor of F = sin(phi) R_F on the principal
    # branch phi in [-pi/2, pi/2], c = cos(phi); c = 0 gives K(k) exactly.
    # 1 - (k sin)^2 is written k'^2 + (k cos)^2, which does not cancel near
    # k = 1, phi = pi/2.
    return c * c, (1.0 - k) * (1.0 + k) + (k * c) * (k * c), 1.0


def _f_and_k(phi, k, need_k=True):
    """F(phi, k) and K(k) from one carlson_rf call on the principal-branch
    arguments stacked over the complete ones.  K is evaluated where need_k
    (broadcast to the shape of phi and k) or where the amplitude is wound,
    and is NaN elsewhere."""
    phi, k = _arrays(phi, k)
    if not phi.ndim and 0.0 <= k < 1.0 and math.isfinite(phi):
        return _f_and_k_float(float(phi), float(k), bool(need_k))
    _check_modulus(k)
    _require(np.isfinite(phi), "ellip_f: amplitude must be finite", phi)
    # Nearest multiple of pi, ties toward zero: |phi| = pi/2 stays on the
    # principal branch, where F' ~ 1/k' would amplify the rounding of the
    # reduced amplitude near k = 1.
    n = np.sign(phi) * np.ceil(np.abs(phi) / math.pi - 0.5)
    # Compensated subtraction of n*pi keeps the reduced amplitude accurate
    # for moderately large |phi|; it is exact for n = 0.
    phi0 = (phi - n * _PI_HI) - n * _PI_LO
    wound = n != 0.0
    at = (np.broadcast_to(need_k, phi.shape) | wound).ravel()
    c = np.concatenate((np.cos(phi0).ravel(), np.zeros(np.count_nonzero(at))))
    rf = carlson_rf(*_rf_args(c, np.concatenate((k.ravel(), k.ravel()[at]))))
    f = np.asarray(np.sin(phi0) * rf[:phi.size].reshape(phi.shape))
    bigk = np.full(phi.size, np.nan)
    bigk[at] = rf[phi.size:]
    bigk = bigk.reshape(phi.shape)
    f[wound] += 2.0 * n[wound] * bigk[wound]
    return f, bigk


def _f_and_k_float(phi, k, need_k):
    # _f_and_k on one valid (phi, k) in Python floats, with the array
    # path's roundings: math.ceil is exact, phi + 0.0 is what the zero n
    # leaves (-0.0 turns +0.0), and sin and cos stay numpy's.
    c = math.ceil(abs(phi) / math.pi - 0.5)
    n = math.copysign(float(c), phi)
    phi0 = (phi - n * _PI_HI) - n * _PI_LO if c else phi + 0.0
    cos0, sin0 = float(np.cos(phi0)), float(np.sin(phi0))
    if not (need_k or c):
        return np.asarray(sin0 * carlson_rf(*_rf_args(cos0, k))), np.asarray(math.nan)
    (x0, y0, _), (x1, y1, _) = _rf_args(cos0, k), _rf_args(0.0, k)
    rf, bigk = carlson_rf((x0, x1), (y0, y1), (1.0, 1.0)).tolist()
    f = sin0 * rf + 2.0 * n * bigk if c else sin0 * rf
    return np.asarray(f), np.asarray(bigk)


def ellip_f(phi, k):
    """Incomplete elliptic integral of the first kind F(phi, k).

    Valid for any real amplitude phi via the quasi-periodic extension
    F(phi + n*pi, k) = F(phi, k) + 2*n*K(k).  Strictly increasing in phi.
    """
    f, _ = _f_and_k(phi, k, False)
    return f if f.ndim else float(f)


def ellip_fk(phi, k):
    """(F(phi, k), K(k)) from one carlson_rf call, both of the broadcast
    shape of phi and k; bit for bit (ellip_f(phi, k), ellip_k(k))."""
    f, bigk = _f_and_k(phi, k)
    return (f, bigk) if f.ndim else (float(f), float(bigk))


def jacobi_am(t, k):
    """Jacobi amplitude am(t, k), the inverse of ellip_f in the amplitude.

    am(F(phi, k), k) = phi for all real phi; cn = cos(am), sn = sin(am).
    """
    return _jacobi_am(t, k, ellip_k(k))


def _jacobi_am(t, k, bigk):
    # jacobi_am with bigk = K(k) from the caller; k is not checked again.
    t, k, bigk = _arrays(t, k, bigk)
    _require(np.isfinite(t), "jacobi_am: argument must be finite", t)
    shape = t.shape
    t, k, bigk = t.ravel(), k.ravel(), bigk.ravel()
    n = np.floor(t / (2.0 * bigk) + 0.5)
    r = t - 2.0 * n * bigk  # in [-K, K]
    # Solve F(phi, k) = r on [-pi/2, pi/2]: Newton with a bisection safeguard,
    # element by element, on the live elements only, compacted as they stop.
    phi = ph = 0.5 * math.pi * r / bigk
    live = np.arange(t.size)
    kp2 = (1.0 - k) * (1.0 + k)  # as in _rf_args
    tol = 1e-15 * np.maximum(1.0, np.abs(r))
    lo, hi = np.full(t.size, -0.5 * math.pi), np.full(t.size, 0.5 * math.pi)
    for _ in range(60):
        s, c = np.sin(ph), np.cos(ph)
        kc = k * c
        err = s * carlson_rf(c * c, kp2 + kc * kc, 1.0) - r
        done = np.abs(err) < tol
        above = err > 0.0
        hi = np.where(above, ph, hi)
        lo = np.where(above, lo, ph)
        step = err * np.sqrt(1.0 - (k * s) * (k * s))  # err / F'(phi)
        # Near k = 1 F' is large and the residual test above can sit below
        # the rounding noise of F; a step or bracket at ulp level has converged.
        done |= np.minimum(np.abs(step), hi - lo) <= np.spacing(np.abs(ph))
        cand = ph - step
        nxt = np.where((lo < cand) & (cand < hi), cand, 0.5 * (lo + hi))
        if done.any():
            phi[live[done]] = ph[done]
            more = ~done
            live, nxt, k, r, kp2, tol, lo, hi = (
                a[more] for a in (live, nxt, k, r, kp2, tol, lo, hi))
        if not live.size:
            break
        ph = nxt
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
    fbracket=None,
):
    """Solve f(x) = target for a continuous strictly monotone f on a bracket.

    f must act elementwise on arrays; target and the two bracket ends
    broadcast, one root per element.  fbracket, when given, holds the values
    f(a) and f(b) at the bracket ends (from a grid the bracket was read
    off, say); they broadcast with target and f is not evaluated there.
    Raises BracketError when a target is not enclosed by its endpoint
    values.  Each result satisfies
    |f(x) - target| <= atol, and its final bracket is narrower than
    xtol + 4 eps |x| unless that needed bisecting below xtol to reach atol.
    Raises SolverError when atol is out of reach at ulp resolution.

    The solver is Brent's safeguarded secant/bisection iteration without
    the inverse quadratic step, run on all elements at once; an element
    stops at its own tolerance test.
    """
    a, b = bracket
    fab = () if fbracket is None else fbracket
    target, a, b, *fab = _arrays(target, a, b, *fab)
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a < b)):
        raise DomainError(f"invert_monotone: bad bracket {bracket!r}")
    shape = target.shape
    if not shape:
        fab = [float(v) for v in fab] if fab else np.asarray(
            f(np.array((float(a), float(b)))), dtype=float).tolist()
        return _brent_float(f, float(target), float(a), float(b), *fab, atol, xtol)
    target, a, b = target.ravel(), a.ravel(), b.ravel()
    # Both bracket ends in one evaluation of f.
    fa, fb = (v.ravel() for v in fab) if fab else np.split(
        np.asarray(f(np.concatenate((a, b))), dtype=float), 2)
    ga = np.asarray(fa, dtype=float) - target
    gb = np.asarray(fb, dtype=float) - target
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


def _brent_float(f, target, a, b, fa, fb, atol, xtol):
    # invert_monotone's iteration on one element in Python floats: the
    # array loop's comparisons and roundings step by step, so the same
    # root, or the same error, bit for bit.
    ga, gb = fa - target, fb - target
    if ga * gb > 0.0:
        raise BracketError(
            f"invert_monotone: no sign change on [{a!r}, {b!r}] for target {target!r}")
    if ga == 0.0 or gb == 0.0:
        return a if ga == 0.0 else b
    xpre, xcur, fpre, fcur = a, b, ga, gb
    xblk, fblk = xpre, fpre
    spre = scur = xcur - xpre
    for _ in range(300):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, fpre = xcur, fcur
            xcur, xblk = xblk, xcur
            fcur, fblk = fblk, fpre

        delta = 0.5 * (xtol + _RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        small = abs(sbis) < delta
        good = abs(fcur) <= atol
        mid = xcur + sbis
        if fcur == 0.0 or (small and good) or mid == xcur or mid == xblk:
            if not good and fcur != 0.0:
                raise SolverError(f"invert_monotone: residual {abs(fcur):.3e} above "
                                  f"atol={atol!r} at ulp resolution")
            return xcur

        interp = abs(spre) > delta and abs(fcur) < abs(fpre) and not small
        stry = -fcur * (xcur - xpre) / (fcur - fpre) if interp else 0.0
        if interp and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur = xcur + (scur if small or abs(scur) > delta else math.copysign(delta, sbis))
        fcur = float(f(np.array(xcur))) - target
    raise SolverError("invert_monotone: no convergence in 300 iterations")
