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

The starts are solved as one batch: every start is a row of an
(n_starts, q) array, and each sweep or Newton pass evaluates all rows in
one call.  The Hessian is cyclic tridiagonal and is assembled as its
diagonal and off-diagonal vectors by slicing; the sweeps read only the
diagonal, and the Newton polish runs a per-row accept/reject state
machine, so every start takes the path it would take alone.  Its
Levenberg-Marquardt step is one complex solve with the shifted Hessian
H - i*sigma*I, which equals the normal-equations step without squaring
the condition number of H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError
from .tables import Table

__all__ = ["OrbitConfig", "find_orbit", "lq_bounds"]

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


def _next(a):
    """a[..., i + 1] at vertex i, cyclically along the last axis."""
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


def _prev(a):
    """a[..., i - 1] at vertex i, cyclically along the last axis."""
    return np.concatenate((a[..., -1:], a[..., :-1]), axis=-1)


class _Chain:
    """Length, gradient and Hessian of the lifted length functional in t,
    for a batch of configurations t of shape (n, q), one per row."""

    def __init__(self, table: Table, p: int, q: int):
        self.table = table
        self.p = p
        self.q = q

    def value(self, t):
        """Total chord length of every row."""
        pos = self.table.position(t)
        x, y = pos[..., 0], pos[..., 1]
        return np.hypot(_next(x) - x, _next(y) - y).sum(axis=-1)

    def hessian(self, t):
        """F = dL/dt, its cyclic tridiagonal Jacobian as (diag, off), where
        off[..., i] is the (i, i+1) entry (and the (i+1, i) one), and the
        residual max |dL/ds_i| of every row."""
        pos, tan, kappa, w = self.table.frame(t)
        dw = self.table.dspeed(t)
        x, y = pos[..., 0], pos[..., 1]
        tx, ty = tan[..., 0], tan[..., 1]
        tnx, tny = _next(tx), _next(ty)
        dx, dy = _next(x) - x, _next(y) - y
        d = np.hypot(dx, dy)
        # Two consecutive vertices on one boundary point (a chord of length
        # 0) are no Birkhoff configuration: NaN marks the row, and every
        # acceptance test of the solver rejects it.
        d[d == 0.0] = np.nan
        ux, uy = dx / d, dy / d
        cos_out = ux * tx + uy * ty
        sin_out = tx * uy - ty * ux
        cos_in = ux * tnx + uy * tny
        sin_in = ux * tny - uy * tnx
        tt = tx * tnx + ty * tny
        # second partials of the chord length d(s_i, s_{i+1})
        h_aa = sin_out**2 / d - kappa * sin_out
        h_bb = sin_in**2 / d - _next(kappa) * sin_in
        h_ab = -(tt - cos_out * cos_in) / d
        # dL/ds_i = cos(theta_in at i) - cos(theta_out at i)
        grad_s = _prev(cos_in) - cos_out
        w_n = _next(w)
        diag = (w * w * h_aa + _prev(w_n * w_n * h_bb)) + dw * grad_s
        off = w * w_n * h_ab
        if self.q == 2:  # both neighbours of a vertex are the same vertex
            off = off + off[..., ::-1]
        return grad_s * w, diag, off, np.max(np.abs(grad_s), axis=-1)


def _ordered(t, p):
    """Per row: strictly increasing and spanning less than p turns."""
    return np.all(np.diff(t, axis=-1) > 0.0, axis=-1) & (t[..., -1] - t[..., 0] < TWO_PI * p)


def _sweeps(chain: _Chain, t, n_sweeps: int):
    """Red-black coordinate passes: a clamped 1-d Newton step of the local
    reflection residual at every even vertex, then every odd one.  Each
    update moves toward the interior maximum of its two adjacent chords, so
    the pass is a coordinate-ascent globalizer for the Newton polish."""
    q = chain.q
    span = TWO_PI * chain.p
    t = t.copy()
    passes = []
    for parity in (0, 1):
        idx = np.arange(parity, q, 2)
        # lifted neighbours: vertex -1 is t_{q-1} - span, vertex q is t_0 + span
        passes.append((idx, idx - 1, np.where(idx == 0, span, 0.0),
                       (idx + 1) % q, np.where(idx + 1 == q, span, 0.0)))
    for _ in range(n_sweeps):
        for idx, lo, lo_shift, hi, hi_shift in passes:
            F, diag, _, _ = chain.hessian(t)
            jd = diag[:, idx]
            fi = F[:, idx]
            gap_lo = t[:, idx] - (t[:, lo] - lo_shift)
            gap_hi = (t[:, hi] + hi_shift) - t[:, idx]
            newton = np.where(jd < -1e-14, -fi / np.where(jd < -1e-14, jd, -1.0), 0.0)
            fallback = 0.125 * np.minimum(gap_lo, gap_hi) * np.sign(fi)
            step = np.where(jd < -1e-14, newton, fallback)
            step = np.clip(step, -0.45 * gap_lo, 0.45 * gap_hi)
            t[:, idx] += step
    return t


def _lm_step(diag, off, F, mu):
    """Levenberg-Marquardt step of every row: d solves (H^2 + mu*s*I) d = -H F
    for the cyclic tridiagonal Hessian H = (diag, off) and s = trace(H^2)/q.
    As H^2 + sigma^2 I = (H + i*sigma*I)(H - i*sigma*I) with sigma^2 = mu*s,
    d = -Re[(H - i*sigma*I)^-1 F]: one complex solve with the condition
    number of H, not of H^2; its eigenvalues lambda - i*sigma never vanish."""
    n, q = diag.shape
    i = np.arange(q)
    A = np.zeros((n, q, q), dtype=complex)
    A[:, i, i] = diag
    A[:, i, (i + 1) % q] = off
    A[:, (i + 1) % q, i] = off
    # s from the matrix itself: at q = 2 both corners hold the one entry off[1]
    scale = np.sum(A.real**2, axis=(1, 2)) / q
    A[:, i, i] -= 1j * np.sqrt(mu * scale)[:, None]
    try:
        return -np.linalg.solve(A, F[..., None])[..., 0].real
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular shifted Levenberg-Marquardt system: {exc}") from exc


# states of a row in _newton
_OUTER, _SOLVE, _TRIAL, _DONE = range(4)


def _newton(chain: _Chain, t, cap: int, stat_tol: float):
    """Damped Gauss-Newton on the stationarity system, one start per row.

    The Hessian of the length functional is exactly singular along the
    orbit families of integrable tables and nearly so for perturbed ones,
    so the step solves the Levenberg-Marquardt system (J^T J + mu*s*I) d =
    -J^T F, as the shifted complex solve of `_lm_step` (J = H is
    symmetric); mu grows when a step is rejected and shrinks on success.

    Every row runs its own state machine: an outer step records |F|^2,
    up to 12 values of mu are tried, each with up to 20 halvings
    of the step length.  Each pass of the loop moves every live row to its
    next trial points and evaluates all of them in one batch, so rows
    share evaluations but never decisions.  Returns (t, residual, steps,
    ok) arrays with the residual in max |dL/ds_i|.
    """
    t = np.array(t, dtype=float)
    n, q = t.shape
    F, diag, off, res = chain.hessian(t)
    steps = np.zeros(n, dtype=int)
    mu = np.full(n, 1e-12)
    tries = np.zeros(n, dtype=int)  # values of mu tried in this outer step
    halvings = np.zeros(n, dtype=int)
    norm_f = np.empty(n)
    delta = np.empty((n, q))
    state = np.full(n, _OUTER)

    def next_mu(rows):
        mu[rows] *= 100.0
        tries[rows] += 1
        state[rows] = _SOLVE
        spent = rows[tries[rows] == 12]
        steps[spent] += 1  # the outer step failed: stop where the row is
        state[spent] = _DONE

    while not np.all(state == _DONE):
        rows = np.flatnonzero(state == _OUTER)
        stop = (res[rows] <= stat_tol) | (steps[rows] >= cap)
        state[rows[stop]] = _DONE
        rows = rows[~stop]
        norm_f[rows] = np.sum(F[rows]**2, axis=-1)
        tries[rows] = 0
        state[rows] = _SOLVE

        rows = np.flatnonzero(state == _SOLVE)
        if rows.size:
            delta[rows] = _lm_step(diag[rows], off[rows], F[rows], mu[rows])
            halvings[rows] = 0
            state[rows] = _TRIAL

        rows = np.flatnonzero(state == _TRIAL)
        if not rows.size:
            continue
        # A row first tries the full step.  Once that is rejected, the rest
        # of its halvings for this mu are evaluated together and the first
        # that passes is taken: the step a one-at-a-time search takes.
        count = np.where(halvings[rows] == 0, 1, 20 - halvings[rows])
        owner = np.repeat(rows, count)
        k = halvings[owner] + np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        alpha = np.ldexp(1.0, -k)
        t_try = t[owner] + alpha[:, None] * delta[owner]
        ev = np.flatnonzero(_ordered(t_try, chain.p))
        if ev.size:
            F_try, diag_try, off_try, res_try = chain.hessian(t_try[ev])
            norm_try = np.sum(F_try**2, axis=-1)
            hit = np.flatnonzero(norm_try <= norm_f[owner[ev]] * (1.0 - 1e-6 * alpha[ev]))
            first = hit[np.unique(owner[ev[hit]], return_index=True)[1]]
            up = owner[ev[first]]
            t[up] = t_try[ev[first]]
            F[up], diag[up], off[up] = F_try[first], diag_try[first], off_try[first]
            mu[up] = np.maximum(mu[up] * 0.1, 1e-14)
            steps[up] += 1
            res[up] = res_try[first]
            state[up] = _OUTER
        missed = state[rows] == _TRIAL
        rejected = rows[missed]
        halvings[rejected] += count[missed]
        next_mu(rejected[halvings[rejected] == 20])
    return t, res, steps, res <= stat_tol


def _equal_arc_init(table: Table, p: int, q: int, offsets):
    """One start per offset: q points equally spaced in arc from it."""
    s = np.arange(q) * p * table.perimeter / q + offsets[:, None]
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


def _solve_from(chain: _Chain, t_init, ascent: bool, stat_tol: float):
    """Solve every start (row) of t_init, after 3 sweeps when ascending.

    All rows are swept and polished together.  A row whose polish fails is
    then retried alone, in row order, with more sweeps.  Once any row has
    converged, the others only probe for other critical families, so their
    retry budget drops from SWEEP_CAP to 60 sweeps and a start stranded on
    a degenerate ridge cannot dominate the runtime.
    Returns (t, residual, sweeps, newton_steps, ok) arrays, where ok means
    converged to an ordered configuration.
    """
    p = chain.p
    t = _sweeps(chain, t_init, 3) if ascent else np.array(t_init, dtype=float)
    sweeps = np.full(len(t), 3 if ascent else 0)
    t_new, res, steps, ok = _newton(chain, t, NEWTON_CAP, stat_tol)
    conv = ok & _ordered(t_new, p)
    extra = 50 if ascent else 25
    for k in np.flatnonzero(~ok):
        budget = 60 if conv.any() else SWEEP_CAP
        tk, tk_new = t[k:k + 1], t_new[k:k + 1]
        while not ok[k] and sweeps[k] + extra <= budget:
            tk = _sweeps(chain, tk_new if _ordered(tk_new, p)[0] else tk, extra)
            sweeps[k] += extra
            tk_new, res_k, steps_k, ok_k = _newton(chain, tk, NEWTON_CAP, stat_tol)
            res[k], ok[k] = res_k[0], ok_k[0]
            steps[k] += steps_k[0]
        t_new[k] = tk_new[0]
        conv[k] = ok[k] and _ordered(tk_new, p)[0]
    return t_new, res, sweeps, steps, conv


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
    offsets = np.arange(8) * ell * p / (8.0 * q) if multistart else np.zeros(1)
    inits = [_equal_arc_init(table, p, q, offsets)]
    if orbit_class == "min" and q <= 16:
        # Rotations of the equal spacing all sit in the basin of the ordered
        # family; low-q saddle orbits (focal-crossing ones on the ellipse)
        # need genuinely scattered ordered starts to be discovered.
        rng = np.random.default_rng(1000 * q + p)
        for _ in range(16):
            t0 = np.sort(rng.uniform(0.0, TWO_PI * p, q))
            if np.min(np.diff(t0)) > 1e-3:
                inits.append(t0[None])

    t, res, sweeps, nsteps, ok = _solve_from(
        chain, np.concatenate(inits), orbit_class == "max", stat_tol
    )

    if not ok.any():
        k = min(range(len(res)), key=lambda j: res[j])  # first of the smallest
        best = OrbitConfig(p, q, orbit_class, np.asarray(table.arc_of_angle(t[k])), t[k],
                           float(chain.value(t[k:k + 1])[0]), float(res[k]),
                           int(sweeps[k]), int(nsteps[k]), False)
        raise SolverError(
            f"find_orbit({p},{q},{orbit_class}): no start converged "
            f"(best residual {res[k]:.3e})",
            best=best,
        )

    # "max" takes the longest orbit found, "min" the shortest; exact ties
    # break to the smallest s_0 = min(s_i mod ell) (max() keeps the first
    # of equal keys).
    rows = np.flatnonzero(ok)
    lengths = chain.value(t[rows]).tolist()
    s0 = np.min(np.mod(np.asarray(table.arc_of_angle(t[rows])), ell), axis=-1).tolist()
    order = sorted(range(rows.size), key=lambda i: (lengths[i], s0[i]))
    chosen = max(order, key=lambda i: lengths[i]) if orbit_class == "max" else order[0]
    k = rows[chosen]
    s_rot, t_rot = _canonical(table, t[k], p, q)
    candidates = []  # critical values closer than the dedupe tolerance count once
    for i in order:
        if not candidates or lengths[i] - candidates[-1] > VALUE_DEDUPE_RTOL * max(1.0, candidates[-1]):
            candidates.append(lengths[i])
    return OrbitConfig(
        p, q, orbit_class, s_rot, t_rot, lengths[chosen], float(res[k]),
        int(sweeps[k]), int(nsteps[k]), True, candidates=candidates,
    )


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
