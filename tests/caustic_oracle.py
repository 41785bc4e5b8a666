"""Caustic parameter of an elliptic table by direct tangency.

A test oracle, kept apart from the package so that it shares none of the
code it checks: the boundary frame is written out from the semi-axes, the
chord comes from its own ray-ellipse quadratic, not from
EllipseTable.chord_exit, and the caustic from a golden-section search, not
from caustic_param.
"""

import math

import numpy as np

from billiards import DomainError


def caustic_param_oracle(E, phi, theta):
    """Caustic parameter by direct tangency: the deepest confocal-ellipse
    level reached along the explicit chord, on the ellipse of semi-axes
    E.a >= E.b (an EllipseTable).

    Each interior point (x, y) lies on one confocal ellipse
    x^2/(a^2-mu) + y^2/(b^2-mu) = 1 with mu in [0, b^2); the chord is
    tangent to the level it maximizes.  The maximum is located by golden
    section.  Takes arrays; every element runs the same 90 golden-section
    steps.
    """
    phi, theta = np.broadcast_arrays(np.asarray(phi, dtype=float),
                                     np.asarray(theta, dtype=float))
    if not np.all((theta >= 0.0) & (theta < math.pi)):
        raise DomainError("incidence angle must lie in [0, pi)")
    lam = np.zeros(theta.shape)
    chord = theta > 0.0  # theta = 0 is the boundary point itself
    phi, theta = phi[chord], theta[chord]
    a, b = E.a, E.b
    px, py = a * np.cos(phi), b * np.sin(phi)
    w = np.hypot(a * np.sin(phi), b * np.cos(phi))
    tx, ty = -a * np.sin(phi) / w, b * np.cos(phi) / w
    c, s = np.cos(theta), np.sin(theta)
    ux, uy = c * tx - s * ty, s * tx + c * ty
    # second root of |p + tau*u|_ellipse = 1, the spurious tau ~ 0 one removed
    qa = (ux / a) ** 2 + (uy / b) ** 2
    qb = 2.0 * (px * ux / a**2 + py * uy / b**2)
    qc = (px / a) ** 2 + (py / b) ** 2 - 1.0
    tau_exit = -qb / qa + qc / qb
    # Chords meeting the open focal segment have hyperbolic caustics.
    tau0 = np.divide(-py, uy, out=np.full(py.shape, -1.0), where=uy != 0.0)
    on_segment = np.abs(px + tau0 * ux) < math.sqrt((a - b) * (a + b))
    if np.any((0.0 < tau0) & (tau0 < tau_exit) & on_segment):
        raise DomainError("chord crosses the focal segment; caustic is not an ellipse")

    def mu_of(tau):
        x = px + tau * ux
        y = py + tau * uy
        ssum = a * a + b * b - x * x - y * y
        qprod = a * a * b * b - b * b * x * x - a * a * y * y
        disc = np.maximum(ssum * ssum - 4.0 * qprod, 0.0)
        return 2.0 * qprod / (ssum + np.sqrt(disc))

    lo, hi = np.zeros(px.shape), tau_exit
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = mu_of(x1), mu_of(x2)
    for _ in range(90):
        left = f1 < f2
        lo = np.where(left, x1, lo)
        hi = np.where(left, hi, x2)
        x1, x2 = (np.where(left, x2, hi - invphi * (hi - lo)),
                  np.where(left, lo + invphi * (hi - lo), x1))
        fnew = mu_of(np.where(left, x2, x1))
        f1, f2 = np.where(left, f2, fnew), np.where(left, fnew, f1)
    lam[chord] = np.sqrt(np.maximum(f1, f2))
    return lam if lam.ndim else float(lam)
