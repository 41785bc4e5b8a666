"""Birkhoff (p, q)-periodic orbits by variation of the length functional.

A configuration is a lifted, strictly increasing list of boundary angles
t_0 < ... < t_{q-1} with t_q = t_0 + 2*pi*p; its length is the sum of the
q chord lengths.  Stationarity of the length at every vertex is the
reflection law, so critical configurations are periodic orbits.

The maximizer is found by coordinate-ascent sweeps from the
equally-spaced-in-arc initialization followed by a damped Newton polish
of the stationarity system; Levenberg-Marquardt damping absorbs the zero
Hessian mode that the continuous orbit families of integrable tables
produce.  Minimal critical values are collected by running the same
Newton solver from rotated (and, at low q, scattered) initializations
and keeping every distinct critical value found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError
from .tables import Table

__all__ = ["OrbitConfig", "find_orbit", "beta_at", "lq_bounds"]

TWO_PI = 2.0 * math.pi

SWEEP_CAP = 10_000
NEWTON_CAP = 50
STAT_TOL_FACTOR = 1e-10  # stationarity tolerance is this times the perimeter
# Critical values closer than this (relatively) are the same orbit family.
VALUE_DEDUPE_RTOL = 1e-9


@dataclass
class OrbitConfig:
    """A stationary (p, q) configuration of the length functional."""

    p: int
    q: int
    orbit_class: str
    s: np.ndarray  # lifted arc lengths, strictly increasing, s[0] in [0, ell)
    t: np.ndarray  # lifted boundary angles
    length: float
    residual: float  # max |dL/ds_i|
    sweeps: int
    newton_steps: int
    converged: bool
    candidates: list = field(default_factory=list)  # distinct critical values seen

    @property
    def beta(self) -> float:
        return -self.length / self.q

    def vertices(self, table: Table) -> np.ndarray:
        return table.position(np.mod(self.t, TWO_PI))


class _Chain:
    """Gradient/Hessian assembly for the lifted length functional in t."""

    def __init__(self, table: Table, p: int, q: int):
        self.table = table
        self.p = p
        self.q = q

    def geometry(self, t):
        pos, tan, kappa, w = self.table.frame(t)
        dw = self.table.dspeed(t)
        return pos, tan, kappa, w, dw

    def chords(self, t):
        pos, tan, kappa, w, dw = self.geometry(t)
        nxt = np.roll(pos, -1, axis=0)
        dvec = nxt - pos
        d = np.hypot(dvec[:, 0], dvec[:, 1])
        u = dvec / d[:, None]
        tan_n = np.roll(tan, -1, axis=0)
        cos_out = u[:, 0] * tan[:, 0] + u[:, 1] * tan[:, 1]
        sin_out = tan[:, 0] * u[:, 1] - tan[:, 1] * u[:, 0]
        cos_in = u[:, 0] * tan_n[:, 0] + u[:, 1] * tan_n[:, 1]
        sin_in = u[:, 0] * tan_n[:, 1] - u[:, 1] * tan_n[:, 0]
        return pos, tan, kappa, w, dw, d, u, cos_out, sin_out, cos_in, sin_in

    def value_grad(self, t):
        (_, _, _, w, _, d, _, cos_out, _, cos_in, _) = self.chords(t)
        # dL/ds_i = cos(theta_in at i) - cos(theta_out at i)
        grad_s = np.roll(cos_in, 1) - cos_out
        return float(d.sum()), grad_s * w, grad_s

    def hessian(self, t):
        (pos, tan, kappa, w, dw, d, u, cos_out, sin_out, cos_in, sin_in) = self.chords(t)
        q = self.q
        kappa_n = np.roll(kappa, -1)
        tan_n = np.roll(tan, -1, axis=0)
        tt = tan[:, 0] * tan_n[:, 0] + tan[:, 1] * tan_n[:, 1]
        # second partials of the chord length d(s_i, s_{i+1})
        h_aa = sin_out**2 / d - kappa * sin_out
        h_bb = sin_in**2 / d - kappa_n * sin_in
        h_ab = -(tt - cos_out * cos_in) / d
        grad_s = np.roll(cos_in, 1) - cos_out
        w_n = np.roll(w, -1)
        J = np.zeros((q, q))
        idx = np.arange(q)
        nxt = (idx + 1) % q
        np.add.at(J, (idx, idx), w * w * h_aa)
        np.add.at(J, (nxt, nxt), w_n * w_n * h_bb)
        np.add.at(J, (idx, nxt), w * w_n * h_ab)
        np.add.at(J, (nxt, idx), w * w_n * h_ab)
        np.add.at(J, (idx, idx), dw * grad_s)
        F = grad_s * w
        return F, J


def _ordered(t, p):
    return bool(np.all(np.diff(t) > 0.0) and (t[-1] - t[0]) < TWO_PI * p)


def _sweeps(chain: _Chain, t, n_sweeps: int):
    """Red-black coordinate passes: a clamped 1-d Newton step of the local
    reflection residual at every even vertex, then every odd one.  Each
    update moves toward the interior maximum of its two adjacent chords, so
    the pass is a coordinate-ascent globalizer for the Newton polish."""
    q = chain.q
    span = TWO_PI * chain.p
    t = t.copy()
    for _ in range(n_sweeps):
        for parity in (0, 1):
            idx = np.arange(parity, q, 2)
            F, J = chain.hessian(t)
            jd = np.diag(J)[idx]
            fi = F[idx]
            left = t[idx - 1] if parity else np.concatenate([[t[-1] - span], t[idx[1:] - 1]])
            right = t[(idx + 1) % q] + np.where(idx + 1 == q, span, 0.0)
            gap_lo = t[idx] - left
            gap_hi = right - t[idx]
            newton = np.where(jd < -1e-14, -fi / np.where(jd < -1e-14, jd, -1.0), 0.0)
            fallback = 0.125 * np.minimum(gap_lo, gap_hi) * np.sign(fi)
            step = np.where(jd < -1e-14, newton, fallback)
            step = np.clip(step, -0.45 * gap_lo, 0.45 * gap_hi)
            t[idx] += step
    return t


def _newton(chain: _Chain, t, cap: int, stat_tol: float):
    """Damped Gauss-Newton on the stationarity system.

    The Hessian of the length functional is exactly singular along the
    orbit families of integrable tables and nearly so for perturbed ones,
    so the step solves the Levenberg-Marquardt system (J^T J + mu*I) d =
    -J^T F; mu grows when a step is rejected and shrinks on success.
    Returns (t, residual, steps, ok) with the residual in max |dL/ds_i|.
    """
    t = t.copy()
    F, J = chain.hessian(t)
    res = float(np.max(np.abs(F / chain.table.speed(t))))
    steps = 0
    mu = 1e-12
    eye = np.eye(chain.q)
    for _ in range(cap):
        if res <= stat_tol:
            return t, res, steps, True
        gram = J.T @ J
        scale = float(np.trace(gram)) / chain.q
        rhs = -J.T @ F
        norm_f = float(np.dot(F, F))
        improved = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(gram + (mu * scale) * eye, rhs)
            except np.linalg.LinAlgError:  # pragma: no cover
                mu *= 100.0
                continue
            alpha = 1.0
            for _ in range(20):
                t_new = t + alpha * delta
                if _ordered(t_new, chain.p):
                    F_new, J_new = chain.hessian(t_new)
                    if float(np.dot(F_new, F_new)) <= norm_f * (1.0 - 1e-6 * alpha):
                        t, F, J = t_new, F_new, J_new
                        improved = True
                        break
                alpha *= 0.5
            if improved:
                mu = max(mu * 0.1, 1e-14)
                break
            mu *= 100.0
        steps += 1
        if not improved:
            return t, res, steps, res <= stat_tol
        res = float(np.max(np.abs(F / chain.table.speed(t))))
    return t, res, steps, res <= stat_tol


def _equal_arc_init(table: Table, p: int, q: int, offset: float):
    s = np.arange(q) * p * table.perimeter / q + offset
    return np.asarray(table.angle_of_arc(s))


def _canonical(table: Table, t, p, q):
    """Rotate labels so s_0 = min(s_i mod ell) and anchor the lift at it."""
    ell = table.perimeter
    s = np.asarray(table.arc_of_angle(t))
    s_mod = np.mod(s, ell)
    k = int(np.argmin(s_mod))
    s_rot = np.concatenate([s[k:], s[:k] + p * ell])
    s_rot = s_rot - (s[k] - s_mod[k])
    t_rot = np.asarray(table.angle_of_arc(s_rot))
    return s_rot, t_rot


def _solve_from(chain: _Chain, table: Table, p: int, q: int, t_init,
                ascent: bool, stat_tol: float, budget: int = SWEEP_CAP):
    t = np.asarray(t_init, dtype=float).copy()
    sweeps_done = 0
    newton_total = 0
    if ascent:
        t = _sweeps(chain, t, 3)
        sweeps_done += 3
    while True:
        t_new, res, steps, ok = _newton(chain, t, NEWTON_CAP, stat_tol)
        newton_total += steps
        if ok:
            return t_new, res, sweeps_done, newton_total, True
        extra = 50 if ascent else 25
        if sweeps_done + extra > budget:
            return t_new, res, sweeps_done, newton_total, False
        t = _sweeps(chain, t_new if _ordered(t_new, p) else t, extra)
        sweeps_done += extra


def find_orbit(table: Table, p: int, q: int, orbit_class: str = "max") -> OrbitConfig:
    """Stationary (p, q) configuration of the chord-length functional.

    orbit_class "max" returns the Birkhoff maximizer; "min" returns the
    smallest critical value discovered by the rotated multistart (the
    minimax orbit for the tables shipped here).  Raises SolverError with
    the best iterate attached when nothing converges.
    """
    if q < 2:
        raise DomainError(f"need q >= 2, got q={q}")
    if not (0 < p < q):
        raise DomainError(f"need 0 < p < q, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"p and q must be coprime, got p={p}, q={q}")
    if orbit_class not in ("max", "min"):
        raise DomainError(f"orbit_class must be 'max' or 'min', got {orbit_class!r}")

    chain = _Chain(table, p, q)
    ell = table.perimeter
    stat_tol = STAT_TOL_FACTOR * ell

    multistart = orbit_class == "min" or not table.integrable
    offsets = [j * ell * p / (8.0 * q) for j in range(8)] if multistart else [0.0]
    inits = [_equal_arc_init(table, p, q, off) for off in offsets]
    if orbit_class == "min" and q <= 16:
        # Rotations of the equal spacing all sit in the basin of the ordered
        # family; low-q saddle orbits (focal-crossing ones on the ellipse)
        # need genuinely scattered ordered starts to be discovered.
        rng = np.random.default_rng(1000 * q + p)
        for _ in range(16):
            t0 = np.sort(rng.uniform(0.0, TWO_PI * p, q))
            if np.min(np.diff(t0)) > 1e-3:
                inits.append(t0)

    ascent = orbit_class == "max"
    results = []
    best_failed = None
    for t_init in inits:
        # Once one start has converged, the remaining starts only probe for
        # other critical families; cap their retry budget so a start
        # stranded on a degenerate ridge cannot dominate the runtime.
        budget = SWEEP_CAP if not results else 60
        t, res, sweeps, nsteps, ok = _solve_from(
            chain, table, p, q, t_init, ascent, stat_tol, budget
        )
        if not ok or not _ordered(t, p):
            if best_failed is None or res < best_failed[0]:
                best_failed = (res, t, sweeps, nsteps)
            continue
        length = chain.value_grad(t)[0]
        s_rot, t_rot = _canonical(table, t, p, q)
        results.append((length, float(s_rot[0]), s_rot, t_rot, res, sweeps, nsteps))

    if not results:
        res, t, sweeps, nsteps = best_failed
        s_rot, t_rot = (np.asarray(table.arc_of_angle(t)), t)
        best = OrbitConfig(p, q, orbit_class, s_rot, t_rot,
                           chain.value_grad(t)[0], res, sweeps, nsteps, False)
        raise SolverError(
            f"find_orbit({p},{q},{orbit_class}): no start converged "
            f"(best residual {res:.3e})",
            best=best,
        )

    # "max" takes the longest orbit found, "min" the shortest; exact ties
    # break to the smallest s_0 (max() keeps the first of equal keys).
    values = sorted(results, key=lambda r: (r[0], r[1]))
    chosen = max(values, key=lambda r: r[0]) if orbit_class == "max" else values[0]
    length, _, s_rot, t_rot, res, sweeps, nsteps = chosen
    candidates = []  # critical values closer than the dedupe tolerance count once
    for r in values:
        if not candidates or r[0] - candidates[-1] > VALUE_DEDUPE_RTOL * max(1.0, candidates[-1]):
            candidates.append(r[0])
    return OrbitConfig(
        p, q, orbit_class, s_rot, t_rot, length, res, sweeps, nsteps, True,
        candidates=candidates,
    )


def beta_at(table: Table, p: int, q: int) -> float:
    """Mather beta at p/q: minus the averaged maximal length, -L_max/q."""
    return find_orbit(table, p, q, "max").beta


def lq_bounds(table: Table, q: int) -> tuple[float, float]:
    """(L_q, l_q): extreme perimeters over simple (p=1) q-periodic orbits.

    Critical values that coincide within the dedupe tolerance are reported
    as equal, so integrable tables (whose q-gons form equal-length
    families) return a gap of exactly zero.
    """
    if q < 2:
        raise DomainError(f"lq_bounds needs q >= 2, got {q}")
    upper = find_orbit(table, 1, q, "max")
    lower = find_orbit(table, 1, q, "min")
    big = upper.length
    small = min(lower.length, big)
    if big - small <= VALUE_DEDUPE_RTOL * max(1.0, abs(big)):
        small = big
    return big, small
