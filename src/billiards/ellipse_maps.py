"""Closed-form integrable structure of elliptic billiards.

Every chord of an elliptic table is tangent to a confocal conic; for
incidence angles below theta_star the conic is a confocal ellipse with
parameter lambda in [0, b).  In the action-angle pair (lambda, t), where
t = F(phi - pi/2, k(lambda)) is the elliptic time measured from the
minor-axis vertex, the billiard map is the rigid shift
t -> t + delta(lambda) with delta = 2 F(arcsin(lambda/b), k).  Matching
rotation numbers of caustics between two ellipses yields an explicit
near-boundary conjugacy; its failure mode for distinct eccentricities is
witnessed by periodic orbits with hyperbolic caustics, which exist on one
table and not the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhasePoint, step
from .elliptic import ellip_f, ellip_k, invert_monotone, jacobi_am
from .errors import BracketError, DomainError, SolverError, _require
from .tables import EllipseParams, EllipseTable

__all__ = [
    "CausticCoord",
    "ConjugacyMap",
    "HyperbolicDecision",
    "caustic_param",
    "rotation_number_of_caustic",
    "orbit_shift",
    "action_angle",
    "action_angle_inverse",
    "build_conjugacy",
    "hyperbolic_orbit_exists",
    "eccentricity_witness",
]

TWO_PI = 2.0 * math.pi


def _params(e) -> EllipseParams:
    if isinstance(e, EllipseTable):
        return e.params
    if isinstance(e, EllipseParams):
        return e
    raise DomainError(f"expected EllipseParams or EllipseTable, got {type(e)!r}")


@functools.lru_cache(maxsize=16)
def _table_of(E: EllipseParams) -> EllipseTable:
    return EllipseTable(E.a, E.b)


def _table(e) -> EllipseTable:
    """The table whose boundary geometry (speed, chords) the chart uses;
    tables are immutable, so one is built per semi-axis pair."""
    return e if isinstance(e, EllipseTable) else _table_of(_params(e))


def caustic_param(E, phi, theta):
    """Parameter of the confocal ellipse tangent to the chord leaving the
    boundary point of angle phi at incidence theta.

    Closed form lambda = sin(theta) * sqrt(a^2 sin^2(phi) + b^2 cos^2(phi)),
    validated to 1e-10 against the tangency oracle of the tests.  Chords
    crossing the focal segment have lambda >= b (hyperbolic caustic) and
    raise.  Takes arrays.
    """
    table = _table(E)
    theta = np.asarray(theta, dtype=float)
    _require((theta >= 0.0) & (theta < math.pi), "incidence angle must lie in [0, pi)", theta)
    lam = np.sin(theta) * table.speed(phi)
    if np.any(lam >= table.b):
        raise DomainError(
            f"chord crosses the focal segment (lambda={np.max(lam):.6g} >= b={table.b}); "
            "caustic is not a confocal ellipse"
        )
    return lam if lam.ndim else float(lam)


def _modulus(E: EllipseParams, lam):
    return np.sqrt((E.a**2 - E.b**2) / (E.a**2 - lam * lam))


def rotation_number_of_caustic(E, lam):
    """Rotation number of the caustic lambda:
    F(arcsin(lambda/b), k(lambda)) / (2 K(k(lambda))) in [0, 1/2).  Takes
    arrays."""
    E = _params(E)
    lam = np.asarray(lam, dtype=float)
    _require((lam >= 0.0) & (lam < E.b), "caustic parameter must lie in [0, b)", lam)
    k = _modulus(E, lam)
    return ellip_f(np.arcsin(lam / E.b), k) / (2.0 * ellip_k(k))


def orbit_shift(E, lam):
    """Elliptic-time advance per bounce on caustic lambda:
    delta = 2 F(arcsin(lambda/b), k(lambda)) = 4 K(k) * rotation number.
    Takes arrays."""
    E = _params(E)
    lam = np.asarray(lam, dtype=float)
    _require((lam > 0.0) & (lam < E.b), "caustic parameter must lie in (0, b)", lam)
    k = _modulus(E, lam)
    return 2.0 * ellip_f(np.arcsin(lam / E.b), k)


@dataclass(frozen=True)
class CausticCoord:
    """Action-angle coordinates of a phase point in the elliptic-caustic
    regime, with the normalized pair used internally (lambda/b, t/period).
    The fields are arrays when the phase point holds arrays."""

    lam: float
    t: float
    k: float
    period: float  # 4 K(k(lambda))
    b: float

    @property
    def lam_hat(self):
        return self.lam / self.b

    @property
    def t_hat(self):
        return (self.t / self.period) % 1.0


def action_angle(table: EllipseTable, p: PhasePoint) -> CausticCoord:
    """Chart (s, theta) -> (lambda, t) conjugating the map to a shift.

    Defined on the elliptic-caustic regime (lambda < b, forward branch
    theta <= pi/2); theta < theta_star guarantees membership for every
    footpoint.  The elliptic time is t = F(phi - pi/2, k(lambda)) modulo
    the period 4K.  p may hold arrays.
    """
    if not isinstance(table, EllipseTable):
        raise DomainError("action_angle needs an EllipseTable")
    theta = np.asarray(p.theta, dtype=float)
    _require(theta > 1e-12, "tangential degeneracy: theta = 0 is singular for the chart", theta)
    _require(theta <= 0.5 * math.pi + 1e-12,
             "retrograde branch theta > pi/2 not covered by the chart", theta)
    phi = table.angle_of_arc(np.asarray(p.s) % table.perimeter)
    lam = caustic_param(table, phi, theta)
    k = _modulus(table.params, lam)
    period = 4.0 * ellip_k(k)
    t = ellip_f(phi - 0.5 * math.pi, k) % period
    return CausticCoord(lam=lam, t=t, k=k, period=period, b=table.b)


def action_angle_inverse(table: EllipseTable, lam, t) -> PhasePoint:
    """Inverse chart: (lambda, t) -> (s, theta) on the forward branch.
    Takes arrays."""
    if not isinstance(table, EllipseTable):
        raise DomainError("action_angle_inverse needs an EllipseTable")
    lam = np.asarray(lam, dtype=float)
    _require((lam > 0.0) & (lam < table.b), "caustic parameter must lie in (0, b)", lam)
    k = _modulus(table.params, lam)
    phi = jacobi_am(t, k) + 0.5 * math.pi
    theta = np.arcsin(np.minimum(1.0, lam / table.speed(phi)))
    s = table.arc_of_angle(phi % TWO_PI)
    return PhasePoint(s % table.perimeter, theta if theta.ndim else float(theta))


class ConjugacyMap:
    """Explicit near-boundary conjugacy h with f1 o h = h o f2.

    Built by matching caustic rotation numbers: a phase point of table 2 is
    sent to its action-angle pair, the caustic is replaced by the table-1
    caustic of equal rotation number, the normalized time is kept, and the
    table-1 chart is inverted.  The map takes arrays of phase points.
    """

    def __init__(self, table1: EllipseTable, table2: EllipseTable):
        self.table1 = table1
        self.table2 = table2
        e1, e2 = table1.params, table2.params
        self.theta1_star = e1.theta_star
        self.theta2_star = e2.theta_star
        # Rotation-number range of table 1's near-boundary strip: caustics
        # entirely inside theta < theta1* have lambda < b1^2/a1 (= b1 for
        # the circle, where the clamp keeps the modulus below 1).
        lam1_max = min(e1.b * math.sin(self.theta1_star), e1.b * (1.0 - 1e-12))
        omega1_max = rotation_number_of_caustic(e1, lam1_max)
        # theta3*: pull the strip boundary back through the rotation matching.
        # The rotation number is arbitrarily steep in lambda near the strip
        # top, so only a modest residual in omega is representable; the
        # corresponding lambda (hence theta3*) is still ulp-accurate.
        try:
            lam2_max = invert_monotone(
                lambda lam: rotation_number_of_caustic(e2, lam),
                omega1_max,
                (0.0, e2.b * (1.0 - 1e-12)),
                atol=1e-8,
                xtol=1e-15,
            )
            self.theta3_star = math.asin(min(1.0, lam2_max / e2.b))
        except BracketError:
            # omega1_max exceeds the whole sampled range of table 2
            self.theta3_star = self.theta2_star
        self.theta_star = min(self.theta2_star, self.theta3_star)
        # Monotone grid for bracketing the omega_1 inversion tightly.
        self._lam_grid = np.linspace(0.0, e1.b * (1.0 - 1e-9), 800)
        self._om_grid = rotation_number_of_caustic(e1, self._lam_grid)
        # Largest |omega_1(lambda_1) - omega| left by the inversions so far.
        self._omega_residual = 0.0

    def _lambda1_of_omega(self, omega):
        om = self._om_grid
        omega = np.asarray(omega, dtype=float)
        if np.any(omega >= om[-1]):
            raise DomainError(
                f"rotation number {np.max(omega)} outside table 1's near-boundary range"
            )
        lam = np.zeros(omega.shape)
        pos = omega > 0.0
        if pos.any():
            e1 = self.table1.params
            j = np.searchsorted(om, omega[pos])
            lo = self._lam_grid[np.maximum(j - 1, 0)]
            hi = self._lam_grid[np.minimum(j, len(om) - 1)]
            lam[pos] = invert_monotone(
                lambda v: rotation_number_of_caustic(e1, v),
                omega[pos],
                (lo, hi),
                atol=1e-10,
                xtol=1e-15,
            )
            resid = np.abs(rotation_number_of_caustic(e1, lam[pos]) - omega[pos])
            self._omega_residual = max(self._omega_residual, float(np.max(resid)))
        return lam if lam.ndim else float(lam)

    def __call__(self, p: PhasePoint) -> PhasePoint:
        coord2 = action_angle(self.table2, p)
        omega = rotation_number_of_caustic(self.table2.params, coord2.lam)
        lam1 = self._lambda1_of_omega(omega)
        k1 = _modulus(self.table1.params, lam1)
        period1 = 4.0 * ellip_k(k1)
        t1 = coord2.t_hat * period1
        return action_angle_inverse(self.table1, lam1, t1)

    def residual_grid(self, n_s: int = 200, n_theta: int = 50,
                      theta_min: float = 0.01, theta_margin: float = 0.01):
        """Conjugacy defect |f1(h(x)) - h(f2(x))| on a phase grid of table 2.

        Returns (s, theta, res_s, res_theta) flat arrays, theta-major;
        distances in s are circular modulo table 1's perimeter.
        """
        ell1 = self.table1.perimeter
        svals = np.linspace(0.0, self.table2.perimeter, n_s, endpoint=False)
        tvals = np.linspace(theta_min, self.theta_star - theta_margin, n_theta)
        s, th = (v.ravel() for v in np.meshgrid(svals, tvals))
        x = PhasePoint(s, th)
        lhs = step(self.table1, self(x))
        rhs = self(step(self.table2, x))
        ds = np.abs(lhs.s - rhs.s) % ell1
        return s, th, np.minimum(ds, ell1 - ds), np.abs(lhs.theta - rhs.theta)

    def max_residual(self, **kw) -> float:
        _, _, rs, rt = self.residual_grid(**kw)
        return float(np.max(np.concatenate((rs, rt))))  # NaN propagates


def build_conjugacy(e1, e2) -> ConjugacyMap:
    """Conjugacy from table 2's phase cylinder to table 1's, valid on
    incidence angles below min(theta2*, theta3*)."""
    return ConjugacyMap(_table(e1), _table(e2))


@dataclass(frozen=True)
class HyperbolicDecision:
    """Outcome of the hyperbolic-caustic periodic-orbit test for (m, n)."""

    exists: bool
    m: int
    n: int
    threshold: float  # (1/pi) arcsin(b/a)
    xi_root: float | None = None
    g_at_root: float | None = None
    u_min: float | None = None

    def to_dict(self) -> dict:
        return {
            "exists": self.exists,
            "m": self.m,
            "n": self.n,
            "threshold": self.threshold,
            "xi_root": self.xi_root,
            "g_at_root": self.g_at_root,
            "u_min": self.u_min,
        }


def _hyperbolic_fk(E: EllipseParams, xi):
    """(F(amp, k), K(k)) of the hyperbolic caustic xi in (-c^2, 0)."""
    k = np.sqrt(np.maximum(1.0 + xi / E.focal_distance**2, 0.0))
    amp = np.arcsin(np.sqrt(E.b**2 / (E.b**2 - xi)))
    return ellip_f(amp, k), ellip_k(k)


def _g_hyperbolic(E: EllipseParams, m: int, n: int, xi):
    f, bigk = _hyperbolic_fk(E, xi)
    return f - (2.0 * m / n) * bigk


def _u_hyperbolic(E: EllipseParams, xi):
    f, bigk = _hyperbolic_fk(E, xi)
    return f - (2.0 / math.pi) * E.theta_star * bigk


def hyperbolic_orbit_exists(E, m: int, n: int, *, u_grid: int = 200) -> HyperbolicDecision:
    """Whether the ellipse has an (m, n)-periodic orbit with a hyperbolic
    caustic: root of the phase condition on xi in (-c^2, 0) when m/n
    reaches the threshold (1/pi) arcsin(b/a), otherwise a certificate that
    the condition stays positive."""
    E = _params(E)
    if n <= 0 or m <= 0 or 2 * m >= n:
        raise DomainError(f"need coprime 0 < m < n/2, got ({m}, {n})")
    if math.gcd(m, n) != 1:
        raise DomainError(f"m and n must be coprime, got ({m}, {n})")
    threshold = E.theta_star / math.pi
    c2 = E.focal_distance**2
    if c2 == 0.0:
        # circle: every caustic is a concentric circle
        return HyperbolicDecision(False, m, n, threshold, u_min=math.inf)
    if m / n >= threshold:
        hi = -1e-12 * c2
        for widen in (1e-10, 1e-11, 1e-12, 1e-13):
            lo = -c2 * (1.0 - widen)
            if _g_hyperbolic(E, m, n, lo) < 0.0 < _g_hyperbolic(E, m, n, hi):
                xi = invert_monotone(
                    lambda x: _g_hyperbolic(E, m, n, x), 0.0, (lo, hi),
                    atol=1e-11, xtol=1e-15,
                )
                return HyperbolicDecision(
                    True, m, n, threshold, xi_root=xi,
                    g_at_root=_g_hyperbolic(E, m, n, xi),
                )
        raise SolverError(
            f"hyperbolic_orbit_exists({m},{n}): could not bracket the phase root"
        )
    grid = np.linspace(-c2 * (1.0 - 1e-6), -1e-6 * c2, u_grid)
    u_min = float(np.min(_u_hyperbolic(E, grid)))
    return HyperbolicDecision(False, m, n, threshold, u_min=u_min)


def _stern_brocot(lo: float, hi: float, max_den: int = 10**6) -> tuple[int, int]:
    """Smallest-denominator fraction in the half-open interval [lo, hi)."""
    pl, ql, pr, qr = 0, 1, 1, 1
    while True:
        pm, qm = pl + pr, ql + qr
        if qm > max_den:
            raise SolverError(
                f"no fraction with denominator <= {max_den} in [{lo}, {hi})"
            )
        v = pm / qm
        if v < lo:
            pl, ql = pm, qm
        elif v >= hi:
            pr, qr = pm, qm
        else:
            return pm, qm


def _witness_decisions(e1, e2):
    """The hyperbolic-orbit decisions (on the more eccentric ellipse, on
    the other one) for the witness rotation number of two ellipses, or
    None when the eccentricities coincide (no witness exists)."""
    E1, E2 = _params(e1), _params(e2)
    ecc1, ecc2 = E1.eccentricity, E2.eccentricity
    if ecc1 == ecc2:
        return None
    hi_e, lo_e = (E1, E2) if ecc1 > ecc2 else (E2, E1)
    lo = hi_e.theta_star / math.pi
    hi = lo_e.theta_star / math.pi
    if not lo < hi:
        return None
    m, n = _stern_brocot(lo, hi)
    has_hi = hyperbolic_orbit_exists(hi_e, m, n)
    has_lo = hyperbolic_orbit_exists(lo_e, m, n)
    if not (has_hi.exists and not has_lo.exists):  # pragma: no cover
        raise SolverError(
            f"witness ({m},{n}) failed confirmation: {has_hi.exists} vs {has_lo.exists}"
        )
    return has_hi, has_lo


def eccentricity_witness(e1, e2) -> tuple[int, int] | None:
    """A rotation number m/n whose hyperbolic-caustic periodic orbit exists
    on exactly one of the two ellipses, or None when the eccentricities
    coincide (no witness exists)."""
    decisions = _witness_decisions(e1, e2)
    return None if decisions is None else (decisions[0].m, decisions[0].n)
