"""The billiard ball map on the phase cylinder.

Phase points are (s, theta): boundary arc length and the angle between the
outgoing chord and the positive tangent.  The map fixes theta in {0, pi}
pointwise; interior chords are resolved by each table's chord_exit.  The
chord length d(s, s') is the generating function: d_s = -cos(theta) and
d_s' = cos(theta') tie the map to the length functional used by the
periodic-orbit solver.  Trajectories iterate in the boundary-angle chart t,
so s appears only at their input and output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _require
from .tables import TWO_PI, Table

__all__ = [
    "PhasePoint",
    "step",
    "step_angle",
    "step_lifted",
    "generating",
    "rotation_estimate",
    "trajectory",
]

# Chords launched closer than this to the tangent direction are treated as
# the boundary fixed point.
TANGENCY_CUTOFF = 1e-8
# Largest spacing of the floats near a trajectory's start s0, per unit
# perimeter, that trajectory accepts.  Its lift is s0 plus each arc
# increment; past this spacing the increments round away, and the lifted
# states no longer resolve the reflection law d_s = -cos(theta).
REFLECTION_TOL = 1e-9


@dataclass(frozen=True)
class PhasePoint:
    """Phase point (s, theta); s and theta may also be arrays of one shape,
    a batch of points that every map in this package takes at once."""

    s: float
    theta: float

    def __post_init__(self):
        _require(np.isfinite(self.s), "arc length must be finite", self.s)
        _require((self.theta >= -1e-12) & (self.theta <= math.pi + 1e-12),
                 "incidence angle must lie in [0, pi]", self.theta)


def step_angle(table: Table, t0, theta):
    """One bounce in the boundary-angle chart, as Table.chord_exit; loops
    stay in this chart to avoid re-inverting arc length per bounce."""
    return table.chord_exit(t0, theta)


def step_lifted(table: Table, s_lift, theta):
    """One bounce on the universal cover: the lift advances by the arc
    increment from t0 to the lifted exit t1 in (t0, t0 + 2*pi), so winding
    is tracked exactly.  Takes arrays; points within TANGENCY_CUTOFF of
    theta = 0 or pi stay fixed."""
    s_lift, theta = np.broadcast_arrays(np.asarray(s_lift, dtype=float),
                                        np.asarray(theta, dtype=float))
    s1, theta1 = s_lift.copy(), theta.copy()
    move = (theta > TANGENCY_CUTOFF) & (theta < math.pi - TANGENCY_CUTOFF)
    if move.any():
        t0 = table.angle_of_arc(s_lift[move] % table.perimeter)
        t1, theta1[move] = step_angle(table, t0, theta[move])
        s1[move] = s_lift[move] + (table.arc_of_angle(t1) - table.arc_of_angle(t0))
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
    t = table.angle_of_arc(np.array([s, s2]) % table.perimeter)
    (p1, p2), (tan1, tan2), _, _, _ = table.frame(t)
    dx = p2[0] - p1[0]
    dy = p2[1] - p1[1]
    d = math.hypot(dx, dy)
    if d < 1e-12 * table.perimeter:
        raise DomainError(f"generating: coincident boundary points s={s!r}, s2={s2!r}")
    ux, uy = dx / d, dy / d
    return d, -(ux * tan1[0] + uy * tan1[1]), ux * tan2[0] + uy * tan2[1]


def rotation_estimate(table: Table, p: PhasePoint, n: int) -> float:
    """Average winding per bounce over the n iterates of trajectory,
    normalized to [0, 1)."""
    if n < 1:
        raise DomainError(f"rotation_estimate needs n >= 1, got {n}")
    s, _, _ = trajectory(table, p, n)
    return float((s[-1] - s[0]) / (n * table.perimeter)) % 1.0


def trajectory(table: Table, p: PhasePoint, n: int):
    """Iterate the lifted map n times; returns (s_lift, theta, points) arrays.

    The bounces run in the boundary-angle chart: s enters through one
    angle_of_arc call and leaves through one arc_of_angle call on the
    lifted angles, with s_lift[0] = p.s exactly.  A point within
    TANGENCY_CUTOFF of theta = 0 or pi stays fixed.  Raises DomainError
    when one ulp of p.s exceeds REFLECTION_TOL of the perimeter.
    """
    if n < 0:
        raise DomainError(f"trajectory needs n >= 0, got {n}")
    if np.spacing(abs(p.s)) > REFLECTION_TOL * table.perimeter:
        raise DomainError(f"trajectory: s0 = {p.s!r} is too large to resolve arc increments "
                          f"(one ulp is {np.spacing(abs(p.s)):.3g}, the perimeter "
                          f"{table.perimeter:.6g})")
    t_red = table.angle_of_arc(p.s % table.perimeter)
    th_i, turns = float(p.theta), 0.0  # lift = reduced angle + whole turns: no drift
    t, th = [t_red], [th_i]
    for i in range(n):
        if not TANGENCY_CUTOFF < th_i < math.pi - TANGENCY_CUTOFF:
            t, th = t + [t[-1]] * (n - i), th + [th_i] * (n - i)
            break
        t1, th_i = step_angle(table, t_red, th_i)
        k, t_red = divmod(t1, TWO_PI)
        turns += k
        t.append(t_red + turns * TWO_PI)
        th.append(th_i)
    t, th = np.array(t), np.array(th)
    arc = table.arc_of_angle(t)
    return p.s + (arc - arc[0]), th, table.position(t)
