"""The billiard ball map on the phase cylinder.

Phase points are (s, theta): boundary arc length and the angle between the
outgoing chord and the positive tangent.  The map fixes theta in {0, pi}
pointwise; interior chords are resolved by each table's chord solver.  The
chord length d(s, s') is the generating function: d_s = -cos(theta) and
d_s' = cos(theta') tie the map to the length functional used by the
periodic-orbit solver.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _require
from .tables import Table

__all__ = [
    "PhasePoint",
    "step",
    "step_angle",
    "step_lifted",
    "generating",
    "rotation_estimate",
    "trajectory",
    "write_trajectory_csv",
]

# Chords launched closer than this to the tangent direction are treated as
# the boundary fixed point.
TANGENCY_CUTOFF = 1e-8


@dataclass(frozen=True)
class PhasePoint:
    """Phase point (s, theta); s and theta may also be arrays of one shape,
    a batch of points that every map in this package takes at once."""

    s: float
    theta: float

    def __post_init__(self):
        theta = np.asarray(self.theta)
        _require((theta >= -1e-12) & (theta <= math.pi + 1e-12),
                 "incidence angle must lie in [0, pi]", theta)

    @property
    def y(self):
        """Twist-coordinate companion of s: y = cos(theta)."""
        return np.cos(self.theta)


def _rotate(tan, theta):
    """Unit vector at angle theta from the unit tangent tan (shape (..., 2))."""
    c, s = np.cos(theta), np.sin(theta)
    tx, ty = tan[..., 0], tan[..., 1]
    return np.stack([c * tx - s * ty, s * tx + c * ty], axis=-1)


def step_angle(table: Table, t0, theta):
    """One bounce in the boundary-angle parametrization: returns the exit
    angle t1 in (t0, t0 + 2*pi] and the new incidence angle.  Iteration
    loops stay in this chart to avoid re-inverting arc length per bounce.
    Takes arrays; theta must lie strictly inside (0, pi)."""
    pos, tan, _, _ = table.frame(t0)
    u = _rotate(tan, theta)
    t1 = table.chord_exit(t0, pos, u)
    _, tan1, _, _ = table.frame(t1)
    # incoming chord u = cos(theta')*T1 - sin(theta')*N1 with N1 = rot90(T1)
    ux, uy, tx, ty = u[..., 0], u[..., 1], tan1[..., 0], tan1[..., 1]
    theta1 = np.arctan2(ux * ty - uy * tx, ux * tx + uy * ty)  # (-u . N1, u . T1)
    return (t1, theta1) if theta1.ndim else (float(t1), float(theta1))


def step_lifted(table: Table, s_lift, theta):
    """One bounce on the universal cover: the lift advances by the arc
    increment in (0, perimeter], so winding is tracked exactly.  Takes
    arrays; points within TANGENCY_CUTOFF of theta = 0 or pi stay fixed."""
    s_lift, theta = np.broadcast_arrays(np.asarray(s_lift, dtype=float),
                                        np.asarray(theta, dtype=float))
    s1, theta1 = s_lift.copy(), theta.copy()
    move = (theta > TANGENCY_CUTOFF) & (theta < math.pi - TANGENCY_CUTOFF)
    if move.any():
        ell = table.perimeter
        t0 = table.angle_of_arc(s_lift[move] % ell)
        t1, th1 = step_angle(table, t0, theta[move])
        theta1[move] = th1
        ds = (table.arc_of_angle(t1) - table.arc_of_angle(t0)) % ell
        s1[move] = s_lift[move] + np.where(ds == 0.0, ell, ds)
    return (s1, theta1) if s1.ndim else (float(s1), float(theta1))


def step(table: Table, p: PhasePoint) -> PhasePoint:
    """The billiard map f(s, theta) = (s', theta'), with s' reduced mod
    perimeter; p may hold arrays."""
    s1, theta1 = step_lifted(table, p.s, p.theta)
    return PhasePoint(s1 % table.perimeter, theta1)


def generating(table: Table, s: float, s2: float) -> tuple[float, float, float]:
    """Chord length d(s, s2) with its exact partial derivatives.

    Returns (d, d_s, d_s2) where d_s = -cos(theta) for the chord leaving s
    and d_s2 = cos(theta') for the same chord arriving at s2.
    """
    t = table.angle_of_arc(s % table.perimeter)
    t2 = table.angle_of_arc(s2 % table.perimeter)
    p1, tan1, _, _ = table.frame(t)
    p2, tan2, _, _ = table.frame(t2)
    dx = p2[0] - p1[0]
    dy = p2[1] - p1[1]
    d = math.hypot(dx, dy)
    if d < 1e-12 * table.perimeter:
        raise DomainError(f"generating: coincident boundary points s={s!r}, s2={s2!r}")
    ux, uy = dx / d, dy / d
    return d, -(ux * tan1[0] + uy * tan1[1]), ux * tan2[0] + uy * tan2[1]


def rotation_estimate(table: Table, p: PhasePoint, n: int) -> float:
    """Average winding per bounce over n iterates, normalized to [0, 1)."""
    if n < 1:
        raise DomainError(f"rotation_estimate needs n >= 1, got {n}")
    if p.theta <= TANGENCY_CUTOFF or p.theta >= math.pi - TANGENCY_CUTOFF:
        return 0.0
    t_lift = table.angle_of_arc(p.s % table.perimeter)
    t_start = t_lift
    theta = p.theta
    two_pi = 2.0 * math.pi
    for _ in range(n):
        t_red = t_lift % two_pi
        t1, theta = step_angle(table, t_red, theta)
        t_lift += t1 - t_red
    advance = table.arc_of_angle(t_lift) - table.arc_of_angle(t_start)
    return (advance / (n * table.perimeter)) % 1.0


def trajectory(table: Table, p: PhasePoint, n: int):
    """Iterate the lifted map n times; returns (s_lift, theta, points) arrays."""
    s = np.empty(n + 1)
    th = np.empty(n + 1)
    s[0], th[0] = p.s, p.theta
    for i in range(n):
        s[i + 1], th[i + 1] = step_lifted(table, s[i], th[i])
    pts = table.position(table.angle_of_arc(s % table.perimeter))
    return s, th, pts


def write_trajectory_csv(path, table: Table, s_lift, theta, points) -> None:
    """CSV rows (n, s, theta, x, y_plane_x, y_plane_y): footpoint arc length
    mod perimeter, incidence angle, the lifted coordinate x, and the plane
    point of the footpoint."""
    ell = table.perimeter
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "s", "theta", "x", "y_plane_x", "y_plane_y"])
        for i, (si, ti, pt) in enumerate(zip(s_lift, theta, points)):
            writer.writerow(
                [i, float(si) % ell, float(ti), float(si), float(pt[0]), float(pt[1])]
            )
