"""Exact maximal (1, q)-orbit lengths of an elliptic table, in mpmath.

A test oracle, kept apart from the package so that it shares none of the
code it checks: the caustic, its rotation number and the orbit length come
from mpmath's elliptic integrals (parameter convention m = k^2), not from
billiards.elliptic or the orbit solver.

The maximal (1, q)-orbits of the ellipse x^2/a^2 + y^2/b^2 = 1 are tangent
to the confocal ellipse of parameter lam whose rotation number
F(asin(lam/b) | m) / (2 K(m)), m = c^2 / (a^2 - lam^2), equals 1/q.  Its
semi-axes are A = sqrt(a^2 - lam^2) and B = sqrt(b^2 - lam^2).  The orbit
length is q L_z + perimeter(caustic), where the Lazutkin-type invariant
L_z = |P T1| + |P T2| - arc(T1, T2) is read at the minor-axis vertex
P = (0, b): its tangents touch the caustic at T = (+-A cos u, B sin u) with
sin u = B/b, and the arc between them is 2 A E(pi/2 - u | m_c), with
m_c = 1 - B^2/A^2.
"""

import mpmath as mp


def ellipse_max_length(a, b, q, dps=40):
    """Length of the maximal (1, q)-periodic orbit of the ellipse with
    semi-axes a > b, to about dps digits, as an mpmath number."""
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        c2 = a * a - b * b

        def rotation_gap(lam):
            m = c2 / (a * a - lam * lam)
            return mp.ellipf(mp.asin(lam / b), m) / (2 * mp.ellipk(m)) - mp.mpf(1) / q

        # Bracket ends 10 digits inside (0, b), so b (1 - tiny) stays below b
        # at any dps; the 1e-30 of dps = 40 rounded to b at dps = 30.
        tiny = mp.mpf(10) ** (10 - dps)
        lam = mp.findroot(rotation_gap, (b * tiny, b * (1 - tiny)), solver="anderson")
        A, B = mp.sqrt(a * a - lam * lam), mp.sqrt(b * b - lam * lam)
        u = mp.asin(B / b)
        m_c = 1 - (B / A) ** 2
        pt = mp.hypot(A * mp.cos(u), B * mp.sin(u) - b)
        lazutkin_invariant = 2 * pt - 2 * A * mp.ellipe(mp.pi / 2 - u, m_c)
        return q * lazutkin_invariant + 4 * A * mp.ellipe(m_c)
