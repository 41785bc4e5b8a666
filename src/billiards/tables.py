"""Strictly convex billiard tables.

Every table is a closed convex curve parametrized internally by a boundary
angle t in [0, 2*pi) and exposed through arc length s.  Construction builds
a cached monotone arc-length lookup (composite Gauss panels refined by a
local Newton polish) plus the perimeter and the Lazutkin perimeter
lambda = integral of kappa^(2/3) ds.  Tables are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from .errors import ConvexityError, TableConfigError

__all__ = [
    "EllipseParams",
    "Table",
    "CircleTable",
    "EllipseTable",
    "PerturbedCircleTable",
    "load_table",
    "table_from_config",
]

TWO_PI = 2.0 * math.pi

_N_PANELS = 1024
_GL_ORDER = 12
_CONVEXITY_GRID = 10_000
CHORD_TOL = 1e-13  # angle step at which the generic chord solver's Newton polish stops
_SECTIONS = 8  # sub-intervals per round of the generic chord solver's multisection


@dataclass(frozen=True)
class EllipseParams:
    """Semi-axes of an ellipse with the derived focal data.

    theta_star is the incidence-angle threshold below which every chord,
    from every boundary point, stays clear of the focal segment (so its
    caustic is a confocal ellipse).  It equals arctan(b/c) = arcsin(b/a)
    and degenerates to pi/2 for the circle.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.b <= self.a):
            raise ConvexityError(f"ellipse needs 0 < b <= a, got a={self.a}, b={self.b}")

    @property
    def eccentricity(self) -> float:
        return math.sqrt(1.0 - (self.b / self.a) ** 2)

    @property
    def focal_distance(self) -> float:
        """Semi-focal distance c = sqrt(a^2 - b^2)."""
        return math.sqrt((self.a - self.b) * (self.a + self.b))

    @property
    def theta_star(self) -> float:
        return math.asin(self.b / self.a)


class Table:
    """Base class: arc-length facade over an angle-parametrized boundary."""

    kind = "abstract"
    # Integrable tables have equal-length periodic-orbit families, so one
    # solver start finds the maximizer; other tables need the multistart.
    integrable = False

    def __init__(self):
        self._build_arc_tables()
        self._check_convexity()
        self._lazutkin = self._integrate_lazutkin()

    # -- subclass surface --------------------------------------------------

    def position(self, t):
        """Boundary point at angle parameter t; vectorized."""
        raise NotImplementedError

    def frame(self, t):
        """Return (position, unit tangent, curvature, speed |dgamma/dt|)."""
        raise NotImplementedError

    def speed(self, t):
        raise NotImplementedError

    def dspeed(self, t):
        """d|dgamma/dt| / dt, needed by the orbit Hessian."""
        raise NotImplementedError

    def scaled(self, c: float) -> "Table":
        """Similar table enlarged by the factor c > 0."""
        raise NotImplementedError

    def as_config(self) -> dict:
        raise NotImplementedError

    # -- construction helpers ----------------------------------------------

    def _build_arc_tables(self):
        nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
        self._gl_nodes = nodes
        self._gl_weights = weights
        knots = np.linspace(0.0, TWO_PI, _N_PANELS + 1)
        h = knots[1] - knots[0]
        mids = 0.5 * (knots[:-1] + knots[1:])
        tt = mids[:, None] + 0.5 * h * nodes[None, :]
        panel = (self.speed(tt) * (0.5 * h * weights[None, :])).sum(axis=1)
        self._t_knots = knots
        self._panel_h = h
        self._s_knots = np.concatenate([[0.0], np.cumsum(panel)])
        self._perimeter = float(self._s_knots[-1])

    def _check_convexity(self):
        t = np.linspace(0.0, TWO_PI, _CONVEXITY_GRID, endpoint=False)
        _, _, kappa, _ = self.frame(t)
        if np.min(kappa) <= 0.0:
            raise ConvexityError(
                f"{self.kind}: curvature reaches {np.min(kappa):.3e}; "
                "table is not strictly convex"
            )

    def _integrate_lazutkin(self) -> float:
        def integrand(t):
            _, _, kappa, w = self.frame(t)
            return kappa ** (2.0 / 3.0) * w

        val, _ = quad(integrand, 0.0, TWO_PI, epsabs=1e-12, epsrel=1e-12, limit=400)
        return float(val)

    # -- arc-length machinery ----------------------------------------------

    @property
    def perimeter(self) -> float:
        return self._perimeter

    @property
    def lazutkin_perimeter(self) -> float:
        return self._lazutkin

    def arc_of_angle(self, t):
        """Arc length s(t); strictly increasing, s(t + 2*pi) = s(t) + perimeter."""
        t = np.asarray(t, dtype=float)
        wind = np.floor(t / TWO_PI)
        tr = t - wind * TWO_PI
        idx = np.minimum((tr / self._panel_h).astype(int), _N_PANELS - 1)
        t0 = self._t_knots[idx]
        half = 0.5 * (tr - t0)
        tt = (t0 + half)[..., None] + half[..., None] * self._gl_nodes
        partial = (self.speed(tt) * (half[..., None] * self._gl_weights)).sum(axis=-1)
        s = self._s_knots[idx] + partial + wind * self._perimeter
        return s if s.ndim else float(s)

    def angle_of_arc(self, s):
        """Inverse of arc_of_angle (same winding convention)."""
        s = np.asarray(s, dtype=float)
        wind = np.floor(s / self._perimeter)
        sr = s - wind * self._perimeter
        idx = np.clip(np.searchsorted(self._s_knots, sr, side="right") - 1, 0, _N_PANELS - 1)
        s0 = self._s_knots[idx]
        s1 = self._s_knots[idx + 1]
        t = self._t_knots[idx] + self._panel_h * (sr - s0) / (s1 - s0)
        for _ in range(5):
            resid = self.arc_of_angle(t) - sr
            t = t - resid / self.speed(t)
        t = t + wind * TWO_PI
        return t if t.ndim else float(t)

    def point(self, s):
        """Plane point, unit tangent and curvature at arc length s (mod perimeter)."""
        t = self.angle_of_arc(np.asarray(s, dtype=float))
        pos, tan, kappa, _ = self.frame(t)
        return pos, tan, kappa

    # -- chord solver -------------------------------------------------------

    def chord_exit(self, t0, p, u):
        """Second intersection of the ray p + tau*u with the boundary.

        p = position(t0); u is a unit vector pointing strictly inward; t0 may
        be an array, with p and u of shape t0.shape + (2,).  Returns the exit
        angle t1 in (t0, t0 + 2*pi).  The signed residual
        g(t) = cross(u, gamma(t) - p) is negative between t0 and the exit
        and positive after it, so a sign multisection is safe; a Newton
        polish brings the parameter error below CHORD_TOL.  Each element
        stops at its own tolerance.
        """
        t0 = np.asarray(t0, dtype=float)
        px, py, ux, uy = p[..., 0], p[..., 1], u[..., 0], u[..., 1]

        def g(q, px=px, py=py, ux=ux, uy=uy):
            return ux * (q[..., 1] - py) - uy * (q[..., 0] - px)

        # Seed the bracket away from the two boundary zeros.
        a = t0 + 1e-6
        b = t0 + TWO_PI - 1e-6
        a_out = g(self.position(a)) >= 0.0
        b_in = g(self.position(b)) <= 0.0
        lo = np.where(a_out, t0, np.where(b_in, b, a)).ravel()
        hi = np.where(a_out, a, np.where(b_in, t0 + TWO_PI, b)).ravel()
        # Multisection: one position call evaluates g at _SECTIONS - 1
        # interior points of every live bracket, and the bracket shrinks to
        # the section where g changes sign.  An element leaves once its
        # bracket is below 1e-9.
        frac = np.arange(1, _SECTIONS) / _SECTIONS
        live = np.arange(lo.size)
        lane = [v.reshape(-1, 1) for v in (px, py, ux, uy)]
        blo, bhi = lo, hi
        for _ in range(60):
            if not live.size:
                break
            tt = blo[:, None] + (bhi - blo)[:, None] * frac
            k = np.count_nonzero(g(self.position(tt), *lane) < 0.0, axis=1)
            tt = np.concatenate((blo[:, None], tt, bhi[:, None]), axis=1)
            rows = np.arange(live.size)
            blo, bhi = tt[rows, k], tt[rows, k + 1]
            done = bhi - blo < 1e-9
            if done.any():
                lo[live[done]], hi[live[done]] = blo[done], bhi[done]
                more = ~done
                live, blo, bhi = live[more], blo[more], bhi[more]
                lane = [v[more] for v in lane]
        lo, hi = lo.reshape(t0.shape), hi.reshape(t0.shape)
        t1 = 0.5 * (lo + hi)
        live = np.ones(t0.shape, dtype=bool)
        for _ in range(8):
            q, tan, _, w = self.frame(t1)
            gp = (ux * tan[..., 1] - uy * tan[..., 0]) * w
            live &= gp != 0.0
            step = np.divide(g(q), gp, out=np.zeros(t0.shape), where=live)
            t1 = t1 - step
            live &= np.abs(step) >= CHORD_TOL
            if not live.any():
                break
        return t1 if t1.ndim else float(t1)


class CircleTable(Table):
    kind = "circle"
    integrable = True

    def __init__(self, radius: float):
        if radius <= 0.0:
            raise ConvexityError(f"circle radius must be positive, got {radius}")
        self.radius = float(radius)
        super().__init__()

    def position(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([self.radius * np.cos(t), self.radius * np.sin(t)], axis=-1)

    def frame(self, t):
        t = np.asarray(t, dtype=float)
        pos = np.stack([self.radius * np.cos(t), self.radius * np.sin(t)], axis=-1)
        tan = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        kappa = np.full_like(t, 1.0 / self.radius)
        w = np.full_like(t, self.radius)
        return pos, tan, kappa, w

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.radius)

    def dspeed(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t)

    # Exact arc length: s = R * t.
    def arc_of_angle(self, t):
        t = np.asarray(t, dtype=float)
        s = self.radius * t
        return s if s.ndim else float(s)

    def angle_of_arc(self, s):
        s = np.asarray(s, dtype=float)
        t = s / self.radius
        return t if t.ndim else float(t)

    def _build_arc_tables(self):
        self._perimeter = TWO_PI * self.radius

    def chord_exit(self, t0, p, u):
        # Inscribed-chord geometry: the central angle advance is exactly 2*theta.
        _, tan, _, _ = self.frame(t0)
        tx, ty, ux, uy = tan[..., 0], tan[..., 1], u[..., 0], u[..., 1]
        t1 = t0 + 2.0 * np.arctan2(tx * uy - ty * ux, tx * ux + ty * uy)
        return t1 if t1.ndim else float(t1)

    def scaled(self, c):
        return CircleTable(c * self.radius)

    def as_config(self):
        return {"kind": "circle", "R": self.radius}


class EllipseTable(Table):
    kind = "ellipse"
    integrable = True

    def __init__(self, a: float, b: float):
        self.params = EllipseParams(float(a), float(b))
        self.a = float(a)
        self.b = float(b)
        super().__init__()

    def position(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        st, ct = np.sin(t), np.cos(t)
        return np.sqrt((self.a * st) ** 2 + (self.b * ct) ** 2)

    def dspeed(self, t):
        t = np.asarray(t, dtype=float)
        st, ct = np.sin(t), np.cos(t)
        w = np.sqrt((self.a * st) ** 2 + (self.b * ct) ** 2)
        return (self.a**2 - self.b**2) * st * ct / w

    def frame(self, t):
        t = np.asarray(t, dtype=float)
        st, ct = np.sin(t), np.cos(t)
        pos = np.stack([self.a * ct, self.b * st], axis=-1)
        w = np.sqrt((self.a * st) ** 2 + (self.b * ct) ** 2)
        tan = np.stack([-self.a * st / w, self.b * ct / w], axis=-1)
        kappa = self.a * self.b / w**3
        return pos, tan, kappa, w

    def _exit_tau(self, p, u):
        """Ray parameter of the second intersection of p + tau*u with the
        ellipse, for p on it: the quadratic's nonzero root."""
        a, b = self.a, self.b
        px, py, ux, uy = p[..., 0], p[..., 1], u[..., 0], u[..., 1]
        qa = (ux / a) ** 2 + (uy / b) ** 2
        qb = 2.0 * (px * ux / a**2 + py * uy / b**2)
        qc = (px / a) ** 2 + (py / b) ** 2 - 1.0
        return -qb / qa + qc / qb  # exact root minus the spurious tau ~ 0 one

    def chord_exit(self, t0, p, u):
        tau = self._exit_tau(p, u)
        qx = p[..., 0] + tau * u[..., 0]
        qy = p[..., 1] + tau * u[..., 1]
        t1 = np.arctan2(qy / self.b, qx / self.a)
        # Wind into (t0, t0 + 2*pi]; the two fixes catch rounding at the ends.
        t1 = t1 + TWO_PI * np.floor((t0 - t1) / TWO_PI + 1.0)
        t1 = np.where(t1 <= t0, t1 + TWO_PI, t1)
        t1 = np.where(t1 > t0 + TWO_PI, t1 - TWO_PI, t1)
        return t1 if t1.ndim else float(t1)

    def scaled(self, c):
        return EllipseTable(c * self.a, c * self.b)

    def as_config(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b}


class PerturbedCircleTable(Table):
    """Radial profile r(psi) = R * (1 + sum eps_m cos(m psi + phase_m)).

    Construction rejects profiles for which r^2 + 2 r'^2 - r r'' fails to
    stay positive on a dense grid (the curvature numerator), since the
    billiard map is only defined on strictly convex tables.
    """

    kind = "perturbed_circle"

    def __init__(self, radius: float, harmonics):
        if radius <= 0.0:
            raise ConvexityError(f"base radius must be positive, got {radius}")
        self.radius = float(radius)
        self.harmonics = tuple(
            (int(m), float(eps), float(phase)) for (m, eps, phase) in harmonics
        )
        super().__init__()

    def _radial(self, psi):
        r = np.ones_like(psi)
        r1 = np.zeros_like(psi)
        r2 = np.zeros_like(psi)
        for m, eps, phase in self.harmonics:
            arg = m * psi + phase
            r += eps * np.cos(arg)
            r1 += -eps * m * np.sin(arg)
            r2 += -eps * m * m * np.cos(arg)
        return self.radius * r, self.radius * r1, self.radius * r2

    def position(self, t):
        t = np.asarray(t, dtype=float)
        r, _, _ = self._radial(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        r, r1, _ = self._radial(t)
        return np.sqrt(r * r + r1 * r1)

    def dspeed(self, t):
        t = np.asarray(t, dtype=float)
        r, r1, r2 = self._radial(t)
        return (r * r1 + r1 * r2) / np.sqrt(r * r + r1 * r1)

    def frame(self, t):
        t = np.asarray(t, dtype=float)
        r, r1, r2 = self._radial(t)
        ct, st = np.cos(t), np.sin(t)
        pos = np.stack([r * ct, r * st], axis=-1)
        dx = r1 * ct - r * st
        dy = r1 * st + r * ct
        w = np.sqrt(dx * dx + dy * dy)
        tan = np.stack([dx / w, dy / w], axis=-1)
        kappa = (r * r + 2.0 * r1 * r1 - r * r2) / w**3
        return pos, tan, kappa, w

    def _check_convexity(self):
        psi = np.linspace(0.0, TWO_PI, _CONVEXITY_GRID, endpoint=False)
        r, r1, r2 = self._radial(psi)
        if np.min(r) <= 0.0:
            raise ConvexityError("radial profile reaches zero; not a closed convex curve")
        num = r * r + 2.0 * r1 * r1 - r * r2
        if np.min(num) <= 0.0:
            raise ConvexityError(
                f"convexity check failed: min(r^2 + 2r'^2 - r r'') = {np.min(num):.3e}"
            )

    def scaled(self, c):
        return PerturbedCircleTable(c * self.radius, self.harmonics)

    def as_config(self):
        return {
            "kind": "perturbed_circle",
            "R": self.radius,
            "harmonics": [
                {"m": m, "eps": eps, "phase": phase} for (m, eps, phase) in self.harmonics
            ],
        }


def table_from_config(cfg: dict) -> Table:
    """Build a table from a parsed JSON description."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise TableConfigError("table config must be an object with a 'kind' field")
    kind = cfg["kind"]
    try:
        if kind == "circle":
            return CircleTable(float(cfg["R"]))
        if kind == "ellipse":
            return EllipseTable(float(cfg["a"]), float(cfg["b"]))
        if kind == "perturbed_circle":
            harmonics = [
                (h["m"], h["eps"], h.get("phase", 0.0)) for h in cfg.get("harmonics", [])
            ]
            return PerturbedCircleTable(float(cfg["R"]), harmonics)
    except KeyError as exc:
        raise TableConfigError(f"table config missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConvexityError):
            raise
        raise TableConfigError(f"bad table config value: {exc}") from exc
    raise TableConfigError(f"unknown table kind {kind!r}")


def load_table(path) -> Table:
    """Load a table description file (JSON)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TableConfigError(f"cannot read table file {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableConfigError(f"table file {path} is not valid JSON: {exc}") from exc
    return table_from_config(cfg)
