"""Bounce on a perturbed circle by a high-precision ray-curve intersection.

A test oracle, kept apart from the package so that it shares none of the
code it checks: the profile, the frame and the chord are written out in
mpmath from the table's radius and harmonics, and the exit is the root of
the ray residual, not of the half-step equation PerturbedCircleTable solves.
"""

import mpmath as mp


def chord_exit_oracle(radius, harmonics, t0, theta, dps=50):
    """(t1, theta1) as mpf for the chord leaving the radial profile
    r(t) = radius (1 + sum eps cos(m t + phase)) at the boundary angle t0
    with incidence theta in (0, pi), at dps digits.

    The exit is the root of g(t) = cross(u, gamma(t) - gamma(t0)) along the
    ray direction u.  g also vanishes at t0 and at t0 + 2 pi, so the root is
    taken of g(t0 + x) / x for theta <= pi/2 and, closer to pi, of
    g(t0 + 2 pi - y) / y: the trivial zero nearest the exit is divided out.
    """
    with mp.workdps(dps):
        R, t0, theta = mp.mpf(radius), mp.mpf(t0), mp.mpf(theta)
        modes = [(int(m), mp.mpf(eps), mp.mpf(phase)) for m, eps, phase in harmonics]

        def point(t):
            r = R * (1 + sum(eps * mp.cos(m * t + ph) for m, eps, ph in modes))
            return r * mp.cos(t), r * mp.sin(t)

        def tangent(t):
            r = R * (1 + sum(eps * mp.cos(m * t + ph) for m, eps, ph in modes))
            dr = -R * sum(eps * m * mp.sin(m * t + ph) for m, eps, ph in modes)
            dx, dy = dr * mp.cos(t) - r * mp.sin(t), dr * mp.sin(t) + r * mp.cos(t)
            w = mp.hypot(dx, dy)
            return dx / w, dy / w

        px, py = point(t0)
        tx, ty = tangent(t0)
        ux = mp.cos(theta) * tx - mp.sin(theta) * ty
        uy = mp.sin(theta) * tx + mp.cos(theta) * ty

        def g(t):
            x, y = point(t)
            return ux * (y - py) - uy * (x - px)

        if theta <= mp.pi / 2:
            x = _root(lambda x: g(t0 + x) / x, 2 * theta, sign=1)
        else:
            x = 2 * mp.pi - _root(lambda y: g(t0 + 2 * mp.pi - y) / y,
                                  2 * (mp.pi - theta), sign=-1)
        t1 = t0 + x
        # g(t0 + x) / x has one root in (0, 2 pi) on a strictly convex table
        assert 0 < x < 2 * mp.pi, x
        t1x, t1y = tangent(t1)
        theta1 = mp.atan2(ux * t1y - uy * t1x, ux * t1x + uy * t1y)
        return t1, theta1


def _root(f, guess, sign):
    """The root in (0, 2 pi) of f, which has the sign of sign * (z - root)
    there: a bracket grown from the guess, then Anderson-Bjorck."""
    lo = hi = guess
    while sign * f(lo) > 0:
        lo /= 2
    while sign * f(hi) < 0:
        hi = (hi + 2 * mp.pi) / 2
    return lo if lo == hi else mp.findroot(f, (lo, hi), solver="anderson")
