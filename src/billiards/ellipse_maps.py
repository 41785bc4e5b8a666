"""Closed-form integrable structure of elliptic billiards.

Every chord of an elliptic table is tangent to a confocal conic; for
incidence angles below theta_star the conic is a confocal ellipse with
parameter lambda in [0, b).  In the action-angle pair (lambda, t), where
t = F(phi - pi/2, k(lambda)) is the elliptic time of the boundary angle
phi, the billiard map is the rigid shift t -> t + 2 F(arcsin(lambda/b), k).
Matching caustic rotation numbers of two ellipses gives an explicit
near-boundary conjugacy; for distinct eccentricities, periodic orbits with
hyperbolic caustics exist on one table and not the other.  The charts work
on (phi, theta); action_angle, its inverse and ConjugacyMap.__call__ convert
arc length s at their edges, and residual_grid converts only at its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhasePoint
from .elliptic import _jacobi_am, ellip_f, ellip_fk, ellip_k, invert_monotone
from .errors import BracketError, DomainError, SolverError, _require
from .tables import TWO_PI, EllipseTable

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


def _ellipse(e) -> EllipseTable:
    if not isinstance(e, EllipseTable):
        raise DomainError(f"expected an EllipseTable, got {type(e)!r}")
    return e


def caustic_param(E: EllipseTable, phi, theta):
    """Parameter of the confocal ellipse tangent to the chord leaving the
    boundary point of angle phi at incidence theta.

    Closed form lambda = sin(theta) * sqrt(a^2 sin^2(phi) + b^2 cos^2(phi)),
    validated to 1e-10 against the tangency oracle of the tests.  Chords
    crossing the focal segment have lambda >= b (hyperbolic caustic) and
    raise.  Takes arrays.
    """
    E = _ellipse(E)
    theta = np.asarray(theta, dtype=float)
    _require((theta >= 0.0) & (theta < math.pi), "incidence angle must lie in [0, pi)", theta)
    lam = np.sin(theta) * E.speed(phi)
    _require(lam < E.b, "chord crosses the focal segment, so its caustic is not a confocal "
             f"ellipse: lambda must stay below b = {E.b}", lam)
    return lam if lam.ndim else float(lam)


def _modulus(E: EllipseTable, lam):
    return np.sqrt(E.c2 / (E.a**2 - lam * lam))


def rotation_number_of_caustic(E: EllipseTable, lam):
    """Rotation number of the caustic lambda:
    F(arcsin(lambda/b), k(lambda)) / (2 K(k(lambda))) in [0, 1/2).  Takes
    arrays."""
    E = _ellipse(E)
    lam = np.asarray(lam, dtype=float)
    _require((lam >= 0.0) & (lam < E.b), "caustic parameter must lie in [0, b)", lam)
    return _rotation(E, lam, _modulus(E, lam))[0]


def _rotation(E: EllipseTable, lam, k):
    # (rotation number, K(k)) of the caustic lambda of modulus k = k(lambda),
    # from one carlson_rf pass.
    f, bigk = ellip_fk(np.arcsin(lam / E.b), k)
    return f / (2.0 * bigk), bigk


def orbit_shift(E: EllipseTable, lam):
    """Elliptic-time advance per bounce on caustic lambda:
    delta = 2 F(arcsin(lambda/b), k(lambda)) = 4 K(k) * rotation number.
    Takes arrays."""
    E = _ellipse(E)
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


def _action_angle_phi(table: EllipseTable, phi, theta) -> CausticCoord:
    # action_angle in the boundary-angle chart: phi is the footpoint's angle.
    theta = np.asarray(theta, dtype=float)
    _require(theta > 1e-12, "tangential degeneracy: theta = 0 is singular for the chart", theta)
    _require(theta <= 0.5 * math.pi + 1e-12,
             "retrograde branch theta > pi/2 not covered by the chart", theta)
    lam = caustic_param(table, phi, theta)
    k = _modulus(table, lam)
    f, bigk = ellip_fk(phi - 0.5 * math.pi, k)
    period = 4.0 * bigk
    t = f % period
    return CausticCoord(lam=lam, t=t, k=k, period=period, b=table.b)


def _action_angle_inverse_phi(table: EllipseTable, lam, t, bigk=None):
    # action_angle_inverse in the boundary-angle chart: returns (phi, theta).
    # A caller holding K(k(lambda)) passes it as bigk.
    lam = np.asarray(lam, dtype=float)
    _require((lam > 0.0) & (lam < table.b), "caustic parameter must lie in (0, b)", lam)
    k = _modulus(table, lam)
    phi = _jacobi_am(t, k, ellip_k(k) if bigk is None else bigk) + 0.5 * math.pi
    return phi, np.arcsin(np.minimum(1.0, lam / table.speed(phi)))


def _phase_point(table: EllipseTable, phi, theta) -> PhasePoint:
    # (phi, theta) of the boundary-angle chart -> PhasePoint(s, theta).
    s = table.arc_of_angle(phi % TWO_PI)
    return PhasePoint(s % table.perimeter, theta if theta.ndim else float(theta))


def action_angle(table: EllipseTable, p: PhasePoint) -> CausticCoord:
    """Chart (s, theta) -> (lambda, t) conjugating the map to a shift.

    Defined on the elliptic-caustic regime (lambda < b, forward branch
    theta <= pi/2); theta < theta_star guarantees membership for every
    footpoint.  The elliptic time is t = F(phi - pi/2, k(lambda)) modulo
    the period 4K, where phi = angle_of_arc(s).  p may hold arrays.
    """
    _ellipse(table)
    return _action_angle_phi(table, table.angle_of_arc(np.asarray(p.s) % table.perimeter), p.theta)


def action_angle_inverse(table: EllipseTable, lam, t) -> PhasePoint:
    """Inverse chart: (lambda, t) -> (s, theta) on the forward branch.
    Takes arrays."""
    return _phase_point(table, *_action_angle_inverse_phi(_ellipse(table), lam, t))


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
        # Rotation-number range of table 1's near-boundary strip: caustics
        # entirely inside theta < theta1* have lambda < b1^2/a1 (= b1 for
        # the circle, where the clamp keeps the modulus below 1).
        lam1_max = min(table1.b * math.sin(table1.theta_star), table1.b * (1.0 - 1e-12))
        # Monotone grid for bracketing the omega_1 inversion tightly;
        # omega1_max is evaluated in the same pass, as one more element.
        self._lam_grid = np.linspace(0.0, table1.b * (1.0 - 1e-9), 800)
        om = rotation_number_of_caustic(table1, np.append(self._lam_grid, lam1_max))
        self._om_grid, omega1_max = om[:-1], float(om[-1])
        # theta3*: pull the strip boundary back through the rotation matching.
        # The rotation number is arbitrarily steep in lambda near the strip
        # top, so only a modest residual in omega is representable; the
        # corresponding lambda (hence theta3*) is still ulp-accurate.
        try:
            lam2_max = invert_monotone(
                lambda lam: rotation_number_of_caustic(table2, lam),
                omega1_max,
                (0.0, table2.b * (1.0 - 1e-12)),
                atol=1e-8,
                xtol=1e-15,
            )
            self.theta3_star = math.asin(min(1.0, lam2_max / table2.b))
        except BracketError:
            # omega1_max exceeds the whole sampled range of table 2
            self.theta3_star = table2.theta_star
        self.theta_star = min(table2.theta_star, self.theta3_star)
        # Largest |omega_1(lambda_1) - omega| left by the inversions so far.
        self._omega_residual = 0.0

    def _match(self, coord2: CausticCoord):
        """The core of h in either chart: (lambda1, t1, K(k1)), the table-1
        caustic of equal rotation number, its time at equal normalized time
        and its complete integral, for the inverse chart."""
        om = self._om_grid
        # period / 4 = K(k2) exactly: table 2's complete integral is not re-evaluated.
        omega = np.asarray(ellip_f(np.arcsin(coord2.lam / self.table2.b), coord2.k)
                           / (2.0 * (coord2.period / 4.0)))
        _require(omega < om[-1], "rotation number outside table 1's near-boundary range", omega)
        lam = np.zeros(omega.shape)
        pos = omega > 0.0
        if pos.any():
            # om[jl] < omega <= om[jh]; the grid's omega values at the bracket
            # ends are what a re-evaluation there would give, bit for bit.
            j = np.searchsorted(om, omega[pos])
            jl, jh = np.maximum(j - 1, 0), np.minimum(j, len(om) - 1)
            lam[pos] = invert_monotone(
                lambda v: rotation_number_of_caustic(self.table1, v),
                omega[pos],
                (self._lam_grid[jl], self._lam_grid[jh]),
                atol=1e-10,
                xtol=1e-15,
                fbracket=(om[jl], om[jh]),
            )
        # One pass gives omega_1 for the re-check and the K(k1) that serves
        # the time rescale and the inverse chart; at lambda = 0 (omega = 0)
        # the re-check reads exactly 0.
        omega1, bigk1 = _rotation(self.table1, lam, _modulus(self.table1, lam))
        resid = np.abs(omega1 - omega)
        self._omega_residual = max(self._omega_residual, float(np.max(resid, initial=0.0)))
        return lam, coord2.t_hat * 4.0 * bigk1, bigk1

    def __call__(self, p: PhasePoint) -> PhasePoint:
        match = self._match(action_angle(self.table2, p))
        return _phase_point(self.table1, *_action_angle_inverse_phi(self.table1, *match))

    def residual_grid(self, n_s: int = 200, n_theta: int = 50, theta_min: float = 0.01):
        """Conjugacy defect |f1(h(x)) - h(f2(x))| on a grid of table 2: n_s
        arc lengths by n_theta angles from theta_min to theta_star - 0.01,
        which must lie above theta_min.

        Returns (s, theta, res_s, res_theta) flat arrays, theta-major;
        distances in s are circular modulo table 1's perimeter.  It runs in
        phi: one angle_of_arc call, chord_exit bounces, h once on the stacked
        points [x; f2(x)] and one arc_of_angle call for the distances in s.
        """
        if n_s < 1 or n_theta < 1:
            raise DomainError(f"residual grid needs n_s, n_theta >= 1, got {n_s}, {n_theta}")
        if not theta_min < self.theta_star - 0.01:
            raise DomainError(f"residual grid strip is empty: theta_min = {theta_min!r} is not "
                              f"below theta_star - 0.01, theta_star = {self.theta_star!r}")
        svals = np.linspace(0.0, self.table2.perimeter, n_s, endpoint=False)
        tvals = np.linspace(theta_min, self.theta_star - 0.01, n_theta)
        s, th = (v.ravel() for v in np.meshgrid(svals, tvals))
        phi = self.table2.angle_of_arc(s)
        phi_f, th_f = self.table2.chord_exit(phi, th)
        coord2 = _action_angle_phi(self.table2, np.concatenate((phi, phi_f)),
                                   np.concatenate((th, th_f)))
        hphi, hth = _action_angle_inverse_phi(self.table1, *self._match(coord2))
        n = s.size
        lhs_phi, lhs_th = self.table1.chord_exit(hphi[:n], hth[:n])
        ell1 = self.table1.perimeter
        lhs_s, rhs_s = np.split(self.table1.arc_of_angle(np.concatenate((lhs_phi, hphi[n:]))), 2)
        ds = np.abs(lhs_s - rhs_s) % ell1
        return s, th, np.minimum(ds, ell1 - ds), np.abs(lhs_th - hth[n:])

    def max_residual(self, **kw) -> float:
        _, _, rs, rt = self.residual_grid(**kw)
        return float(np.max(np.concatenate((rs, rt))))  # NaN propagates


def build_conjugacy(e1: EllipseTable, e2: EllipseTable) -> ConjugacyMap:
    """Conjugacy from table 2's phase cylinder to table 1's, valid on
    incidence angles below min(theta2*, theta3*)."""
    return ConjugacyMap(_ellipse(e1), _ellipse(e2))


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


def _hyperbolic_phase(E: EllipseTable, slope: float, xi):
    """F(amp, k) - slope * K(k) for the hyperbolic caustic xi in (-c^2, 0):
    the phase condition of an (m, n) orbit at slope 2m/n, and its margin at
    the threshold slope (2/pi) theta_star."""
    k = np.sqrt(np.maximum(1.0 + xi / E.c2, 0.0))
    amp = np.arcsin(np.sqrt(E.b**2 / (E.b**2 - xi)))
    f, bigk = ellip_fk(amp, k)
    return f - slope * bigk


def hyperbolic_orbit_exists(E: EllipseTable, m: int, n: int) -> HyperbolicDecision:
    """Whether the ellipse has an (m, n)-periodic orbit with a hyperbolic
    caustic: root of the phase condition on xi in (-c^2, 0) when m/n
    reaches the threshold (1/pi) arcsin(b/a), otherwise a grid check that
    the condition stays positive (u_min over 200 points; not a proof)."""
    E = _ellipse(E)
    if n <= 0 or m <= 0 or 2 * m >= n:
        raise DomainError(f"need coprime 0 < m < n/2, got ({m}, {n})")
    if math.gcd(m, n) != 1:
        raise DomainError(f"m and n must be coprime, got ({m}, {n})")
    threshold = E.theta_star / math.pi
    c2 = E.c2
    if c2 == 0.0:
        # circle: every caustic is a concentric circle
        return HyperbolicDecision(False, m, n, threshold, u_min=math.inf)
    if m / n >= threshold:
        slope = 2.0 * m / n
        hi = -1e-12 * c2
        for widen in (1e-10, 1e-11, 1e-12, 1e-13):
            lo = -c2 * (1.0 - widen)
            if _hyperbolic_phase(E, slope, lo) < 0.0 < _hyperbolic_phase(E, slope, hi):
                xi = invert_monotone(
                    lambda x: _hyperbolic_phase(E, slope, x), 0.0, (lo, hi),
                    atol=1e-11, xtol=1e-15,
                )
                return HyperbolicDecision(
                    True, m, n, threshold, xi_root=xi,
                    g_at_root=_hyperbolic_phase(E, slope, xi),
                )
        raise SolverError(
            f"hyperbolic_orbit_exists({m},{n}): could not bracket the phase root"
        )
    grid = np.linspace(-c2 * (1.0 - 1e-6), -1e-6 * c2, 200)
    u_min = float(np.min(_hyperbolic_phase(E, (2.0 / math.pi) * E.theta_star, grid)))
    return HyperbolicDecision(False, m, n, threshold, u_min=u_min)


def _stern_brocot(lo: float, hi: float) -> tuple[int, int]:
    """Smallest-denominator fraction in the half-open interval [lo, hi),
    with a denominator of at most 10^6."""
    pl, ql, pr, qr = 0, 1, 1, 1
    while True:
        pm, qm = pl + pr, ql + qr
        if qm > 10**6:
            raise SolverError(f"no fraction with denominator <= 10^6 in [{lo}, {hi})")
        v = pm / qm
        if v < lo:
            pl, ql = pm, qm
        elif v >= hi:
            pr, qr = pm, qm
        else:
            return pm, qm


def _witness_decisions(e1: EllipseTable, e2: EllipseTable):
    """The hyperbolic-orbit decisions (on the more eccentric ellipse, on
    the other one) for the witness rotation number of two ellipses, or
    None when the eccentricities coincide (no witness exists)."""
    E1, E2 = _ellipse(e1), _ellipse(e2)
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


def eccentricity_witness(e1: EllipseTable, e2: EllipseTable) -> tuple[int, int] | None:
    """A rotation number m/n whose hyperbolic-caustic periodic orbit exists
    on exactly one of the two ellipses, or None when the eccentricities
    coincide (no witness exists)."""
    decisions = _witness_decisions(e1, e2)
    return None if decisions is None else (decisions[0].m, decisions[0].n)
