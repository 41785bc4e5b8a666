"""Strictly convex billiard tables.

Every table is a closed convex curve parametrized internally by a boundary
angle t in [0, 2*pi) and exposed through arc length s.  A table states its
geometry in two methods: speed |dgamma/dt|, and frame, which returns the
position, unit tangent, curvature, speed and d speed/dt from one evaluation
of the boundary; position and dspeed are views of frame.  Construction makes
one evaluation, _arc_integrands, on the nodes of composite Gauss panels in t:
speed's integrand gives the monotone arc-length lookup (refined by a local
Newton polish on inversion) and the perimeter, and frame's curvature and speed
check kappa > 0 and sum the Lazutkin perimeter lambda = integral of
kappa^(2/3) ds, with its per-panel sums kept as knots of the Lazutkin
coordinate (the orbit solver's starts on integrable tables).  The circle
has all of them in closed form.  Tables are immutable
after construction and safe to share across workers.  The bounce,
Table.chord_exit, solves for the half-step h to t0 + 2h: in closed form, or on
the perturbed circle by one Newton solve per point in Python floats, free of
O(1) cancellation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConvexityError, SolverError, TableConfigError, _require

__all__ = [
    "Table",
    "CircleTable",
    "EllipseTable",
    "PerturbedCircleTable",
    "load_table",
    "table_from_config",
]

TWO_PI = 2.0 * math.pi

_N_PANELS = 1024
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_CONVEXITY_GRID = 10_000  # PerturbedCircleTable's radial check
CHORD_TOL = 1e-13  # relative Newton step |dh|/h that stops PerturbedCircleTable.chord_exit
# Largest |s(t) - s| per unit perimeter that angle_of_arc accepts; dense grids
# on ellipses down to b/a = 0.01 and on perturbed circles reach 2.4e-16.
ARC_INVERSE_TOL = 1e-14


class Table:
    """Base class: arc-length facade over an angle-parametrized boundary."""

    kind = "abstract"
    # Integrable tables have equal-length periodic-orbit families, one per
    # rotation number p/q with q > 2, so one solver start per q serves both
    # orbit classes and the min class needs no scattered starts above q = 2;
    # other tables need the multistart.
    integrable = False

    def __init__(self):
        self._build_arc_tables()

    # -- subclass surface --------------------------------------------------
    # A table defines speed, frame, chord_exit, scaled, as_config and, unless its
    # arc tables are closed-form, _arc_integrands(t) -> (speed, kappa, frame's speed)
    # from the formulas of speed and frame; position and dspeed are views of frame.

    def speed(self, t):
        """|dgamma/dt| at angle parameter t; vectorized."""
        raise NotImplementedError

    def frame(self, t):
        """Return (position, unit tangent, curvature, speed |dgamma/dt|,
        d speed/dt) at angle parameter t; vectorized."""
        raise NotImplementedError

    def position(self, t):
        """Boundary point at angle parameter t."""
        return self.frame(t)[0]

    def dspeed(self, t):
        """d|dgamma/dt| / dt."""
        return self.frame(t)[4]

    def scaled(self, c: float) -> "Table":
        """Similar table enlarged by the factor c > 0."""
        raise NotImplementedError

    def as_config(self) -> dict:
        raise NotImplementedError

    # -- construction helpers ----------------------------------------------

    def _build_arc_tables(self):
        """Arc-length lookup, perimeter and Lazutkin perimeter from one set
        of Gauss nodes; raises ConvexityError where kappa <= 0."""
        knots = np.linspace(0.0, TWO_PI, _N_PANELS + 1)
        h = knots[1] - knots[0]
        mids = 0.5 * (knots[:-1] + knots[1:])
        tt = mids[:, None] + 0.5 * h * _GL_NODES[None, :]
        gw = 0.5 * h * _GL_WEIGHTS[None, :]
        v, kappa, w = self._arc_integrands(tt)
        self._t_knots = knots
        self._panel_h = h
        self._s_knots = np.concatenate([[0.0], np.cumsum((v * gw).sum(axis=1))])
        self._perimeter = float(self._s_knots[-1])
        if np.min(kappa) <= 0.0:
            raise ConvexityError(
                f"{self.kind}: curvature reaches {np.min(kappa):.3e}; "
                "table is not strictly convex"
            )
        dz = kappa ** (2.0 / 3.0) * w * gw
        self._lazutkin = float(dz.sum())
        # Lazutkin coordinate z(t) = integral of kappa^(2/3) ds at the knots;
        # the panel sums as a product with ones cost a third of sum(axis=1).
        self._z_knots = np.concatenate([[0.0], np.cumsum(dz @ np.ones(dz.shape[1]))])

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
        tt = (t0 + half)[..., None] + half[..., None] * _GL_NODES
        partial = (self.speed(tt) * (half[..., None] * _GL_WEIGHTS)).sum(axis=-1)
        s = self._s_knots[idx] + partial + wind * self._perimeter
        return s if s.ndim else float(s)

    def angle_of_arc(self, s):
        """Inverse of arc_of_angle (same winding convention).  Raises
        SolverError when the Newton passes leave a residual above
        ARC_INVERSE_TOL per unit perimeter."""
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
        # The last pass's residual, reused: the check costs no evaluation.
        if not np.all(np.abs(resid) <= ARC_INVERSE_TOL * self._perimeter):
            raise SolverError(f"{self.kind}: arc-length inversion left a residual of "
                              f"{np.max(np.abs(resid)):.3e}")
        t = t + wind * TWO_PI
        return t if t.ndim else float(t)

    def angle_of_lazutkin(self, z):
        """Angle t at the Lazutkin coordinate z (z(t) = integral of
        kappa^(2/3) ds from 0, winding by lazutkin_perimeter), by linear
        interpolation between the panel knots: a solver start, not an exact
        inverse."""
        z = np.asarray(z, dtype=float)
        wind = np.floor(z / self._lazutkin)
        t = np.interp(z - wind * self._lazutkin, self._z_knots, self._t_knots) + wind * TWO_PI
        return t if t.ndim else float(t)

    # -- the bounce -----------------------------------------------------------

    def chord_exit(self, t0, theta):
        """One bounce in the boundary-angle chart: returns (t1, theta1).

        The chord leaves gamma(t0) at incidence theta in (0, pi), the angle
        from the unit tangent T(t0) to the chord, and meets the boundary
        again at t1 in (t0, t0 + 2*pi); theta1 is the angle from the chord
        to T(t1).  Takes arrays of one shape; a scalar input returns floats.
        """
        raise NotImplementedError


class CircleTable(Table):
    kind = "circle"
    integrable = True

    def __init__(self, radius: float):
        _require(math.isfinite(radius), "circle radius must be finite", radius)
        if radius <= 0.0:
            raise ConvexityError(f"circle radius must be positive, got {radius}")
        self.radius = float(radius)
        super().__init__()

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.radius)

    def frame(self, t):
        t = np.asarray(t, dtype=float)
        pos = np.stack([self.radius * np.cos(t), self.radius * np.sin(t)], axis=-1)
        tan = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        kappa = np.full_like(t, 1.0 / self.radius)
        return pos, tan, kappa, np.full_like(t, self.radius), np.zeros_like(t)

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
        self._lazutkin = TWO_PI * self.radius ** (1.0 / 3.0)

    # Exact Lazutkin coordinate: z = R^(1/3) * t.
    def angle_of_lazutkin(self, z):
        t = np.asarray(z, dtype=float) / self.radius ** (1.0 / 3.0)
        return t if t.ndim else float(t)

    def chord_exit(self, t0, theta):
        # Inscribed-chord geometry: the central angle advances by exactly 2*theta.
        theta = np.array(theta, dtype=float)
        t1 = t0 + 2.0 * theta
        return (t1, theta) if t1.ndim else (float(t1), float(theta))

    def scaled(self, c):
        return CircleTable(c * self.radius)

    def as_config(self):
        return {"kind": "circle", "R": self.radius}


class EllipseTable(Table):
    """Ellipse with semi-axes a >= b and its focal data.

    c2 = a^2 - b^2 is the squared focal distance.  theta_star is the
    incidence-angle threshold below which every chord, from every boundary
    point, stays clear of the focal segment (so its caustic is a confocal
    ellipse).  It equals arctan(b/c) = arcsin(b/a) and degenerates to pi/2
    for the circle.
    """

    kind = "ellipse"
    integrable = True

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        _require(np.isfinite([a, b]), "ellipse semi-axes must be finite", [a, b])
        if not (0.0 < b <= a):
            raise ConvexityError(f"ellipse needs 0 < b <= a, got a={a}, b={b}")
        self.a, self.b = a, b
        self.c2 = (a - b) * (a + b)
        self.eccentricity = math.sqrt(1.0 - (b / a) ** 2)
        self.theta_star = math.asin(b / a)
        super().__init__()

    def _w2(self, st, ct):
        """Squared speed a^2 sin^2 t + b^2 cos^2 t from sin t and cos t."""
        return (self.a * st) ** 2 + (self.b * ct) ** 2

    def _kappa_w(self, st, ct):
        """Curvature ab / w^3 and speed w from sin t and cos t."""
        w = np.sqrt(self._w2(st, ct))
        return self.a * self.b / w**3, w

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        return np.sqrt(self._w2(np.sin(t), np.cos(t)))

    def frame(self, t):
        t = np.asarray(t, dtype=float)
        st, ct = np.sin(t), np.cos(t)
        pos = np.stack([self.a * ct, self.b * st], axis=-1)
        kappa, w = self._kappa_w(st, ct)
        tan = np.stack([-self.a * st / w, self.b * ct / w], axis=-1)
        return pos, tan, kappa, w, self.c2 * st * ct / w

    def _arc_integrands(self, t):
        kappa, w = self._kappa_w(np.sin(t), np.cos(t))
        return w, kappa, w  # speed is w, bit for bit

    def chord_exit(self, t0, theta):
        # The chord from t0 to t0 + 2h is parallel to the tangent at m = t0 + h,
        # and the tangent turns from t to t + h by the angle
        # atan2(ab sin h, w(t)^2 cos h + c^2 sin t cos t sin h).  Setting that
        # turn to theta from t0 gives h; the turn from m gives theta1.  Nothing
        # O(1) cancels, so theta -> 0 keeps full relative accuracy.
        ab, c2 = self.a * self.b, self.c2
        t0 = np.asarray(t0, dtype=float)
        st, ct, s0, c0 = np.sin(theta), np.cos(theta), np.sin(t0), np.cos(t0)
        h = np.arctan2(self._w2(s0, c0) * st, ab * ct - c2 * s0 * c0 * st)
        m = t0 + h
        sh, ch, sm, cm = np.sin(h), np.cos(h), np.sin(m), np.cos(m)
        theta1 = np.arctan2(ab * sh, self._w2(sm, cm) * ch + c2 * sm * cm * sh)
        t1 = t0 + 2.0 * h
        return (t1, theta1) if t1.ndim else (float(t1), float(theta1))

    def scaled(self, c):
        return EllipseTable(c * self.a, c * self.b)

    def as_config(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b}


class PerturbedCircleTable(Table):
    """Radial profile r(psi) = R * (1 + sum eps_m cos(m psi + phase_m)).

    Construction rejects profiles for which r^2 + 2 r'^2 - r r'' (the curvature
    numerator) fails to stay positive on a grid of at least 32 points per period
    of the fastest harmonic: the billiard map needs a strictly convex table.
    """

    kind = "perturbed_circle"

    def __init__(self, radius: float, harmonics):
        _require(math.isfinite(radius), "base radius must be finite", radius)
        if radius <= 0.0:
            raise ConvexityError(f"base radius must be positive, got {radius}")
        self.radius = float(radius)
        harmonics = np.array(harmonics, dtype=float).reshape(-1, 3)
        _require(np.isfinite(harmonics), "harmonic m, eps and phase must be finite", harmonics)
        _require(harmonics[:, 0] % 1.0 == 0.0, "harmonic order m must be an integer",
                 harmonics[:, 0])
        self.harmonics = tuple((int(m), eps, phase) for m, eps, phase in harmonics.tolist())
        # r = R + sum er cos(m t + phase), r' = sum emr sin(m t + phase)
        self._modes = tuple((float(m), phase, self.radius * eps, -self.radius * eps * m)
                            for m, eps, phase in self.harmonics)
        # First, on a grid that resolves harmonics too fast for the Gauss nodes.
        self._check_convexity()
        super().__init__()

    def _radial(self, psi, order=2):
        """r, r' and, for order 2, r''.  Each harmonic costs one cosine and
        one sine."""
        r = [np.ones_like(psi)] + [np.zeros_like(psi) for _ in range(order)]
        for m, eps, phase in self.harmonics:
            arg = m * psi + phase
            c = np.cos(arg)
            r[0] += eps * c
            r[1] += -eps * m * np.sin(arg)
            if order == 2:
                r[2] += -eps * m * m * c
        return [self.radius * v for v in r]

    @staticmethod
    def _velocity(r, r1, r2, ct, st):
        """dgamma/dt = (dx, dy), its length w and the curvature kappa."""
        dx = r1 * ct - r * st
        dy = r1 * st + r * ct
        w = np.sqrt(dx * dx + dy * dy)
        return dx, dy, w, (r * r + 2.0 * r1 * r1 - r * r2) / w**3

    def speed(self, t):
        t = np.asarray(t, dtype=float)
        r, r1 = self._radial(t, 1)
        return np.sqrt(r * r + r1 * r1)

    def frame(self, t):
        t = np.asarray(t, dtype=float)
        r, r1, r2 = self._radial(t)
        ct, st = np.cos(t), np.sin(t)
        pos = np.stack([r * ct, r * st], axis=-1)
        dx, dy, w, kappa = self._velocity(r, r1, r2, ct, st)
        tan = np.stack([dx / w, dy / w], axis=-1)
        return pos, tan, kappa, w, (r * r1 + r1 * r2) / np.sqrt(r * r + r1 * r1)

    def _arc_integrands(self, t):
        r, r1, r2 = self._radial(t)
        _, _, w, kappa = self._velocity(r, r1, r2, np.cos(t), np.sin(t))
        return np.sqrt(r * r + r1 * r1), kappa, w  # speed's bits can differ from w's

    def chord_exit(self, t0, theta):
        # T(t) points at t + pi/2 - delta(t), delta = atan2(r', r), the chord to
        # t0 + 2h at t0 + h + pi/2 - eps(h), eps = atan2(D cos h, (r0 + r1) sin h),
        # and D = r(t0 + 2h) - r0 = -2R sum eps_m sin(m (t0 + h) + phase_m) sin(m h)
        # cancels nothing.  F(h) = h - eps(h) - theta + delta(t0) rises from -theta
        # to pi - theta on (0, pi); theta1 = h - delta(t1) + eps(h).  Past pi/2 the
        # mirror image t -> 2 t0 - t is solved, which integer m make exact.  Each point
        # is one float Newton solve, _exit_one, so an array call's element i is the scalar call.
        if np.ndim(t0) == 0:
            return self._exit_one(float(t0), float(theta))
        t0, theta = np.broadcast_arrays(t0, theta)
        out = [self._exit_one(a, b) for a, b in zip(t0.ravel().tolist(), theta.ravel().tolist())]
        out = np.array(out, dtype=float).reshape(t0.shape + (2,))
        return out[..., 0], out[..., 1]

    def _exit_one(self, t0, theta):
        """chord_exit of one point, in Python floats."""
        back = theta > 0.5 * math.pi
        sg, h = (-1.0, math.pi - theta) if back else (1.0, theta)  # sg: walking direction
        r0 = self.radius + sum(math.cos(t0 * m + p) * er for m, p, er, _ in self._modes)
        dr0 = sum(math.sin(t0 * m + p) * emr for m, p, _, emr in self._modes)
        rhs = h - math.atan2(sg * dr0, r0)

        def chord(h):
            """eps(h), den = x^2 + y^2, den F'(h), r(t1) and r'(t1) along the walk."""
            u, D, r1p = sg * h, 0.0, 0.0
            for m, phase, er, emr in self._modes:
                D += math.sin((t0 + u) * m + phase) * math.sin(u * m) * er
                r1p += math.sin((t0 + 2.0 * u) * m + phase) * emr
            D, r1p = -2.0 * D, sg * r1p
            rr, sh, ch = 2.0 * r0 + D, math.sin(h), math.cos(h)
            x, y = rr * sh, D * ch
            den = x * x + y * y
            # den eps'(h) = x y' - y x' = 4 r0 r1' sin h cos h - (r0 + r1) D
            return math.atan2(y, x), den, den - 4.0 * r0 * r1p * sh * ch + rr * D, r0 + D, r1p

        lo, hi, prev = 0.0, math.pi, math.nan
        for _ in range(100):  # Newton from h = theta, exact on the circle
            eps, den, dfden, _, _ = chord(h)
            f = h - eps - rhs
            lo, hi = (h, hi) if f < 0.0 else (lo, h)
            hn = h - f * den / dfden
            newton = lo <= hn <= hi
            hn = hn if newton else 0.5 * (lo + hi)
            step, h = abs(hn - h), hn
            # Newton steps that stop halving have met the rounding of F (h < ~1e-3).
            if not step > CHORD_TOL * hn or (newton and step > 0.5 * prev):
                break
            prev = step if newton else math.nan
        else:
            raise SolverError(f"{self.kind}: chord solve did not converge")
        eps, _, _, r1, r1p = chord(h)
        theta1 = h - math.atan2(r1p, r1) + eps
        return (t0 + (TWO_PI - 2.0 * h), math.pi - theta1) if back else (t0 + 2.0 * h, theta1)

    def _check_convexity(self):
        n = max([_CONVEXITY_GRID] + [32 * m for m, _, _ in self.harmonics])
        psi = np.linspace(0.0, TWO_PI, n, endpoint=False)
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
