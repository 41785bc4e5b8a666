"""Birkhoff (p, q)-periodic orbits by variation of the length functional.

A configuration is a lifted, strictly increasing list of boundary angles
t_0 < ... < t_{q-1} with t_q = t_0 + 2*pi*p; its length is the sum of the
q chord lengths.  Stationarity of the length at every vertex is the
reflection law, so critical configurations are periodic orbits.  "max"
keeps the longest orbit found, "min" the shortest critical value.  This
docstring is the one statement of the solver's rules.

Starts.  Every start is q points equally spaced.  Integrable tables
(circle, ellipse) space them in the Lazutkin coordinate z = integral of
kappa^(2/3) ds, in which the (1, q) orbits are equally spaced up to
O(1/q^2) (Lazutkin 1973); equal arc length is O(e^2) off them, and from
it "max" found no orbit at some q on ellipses with b/a <= 0.12.  Other
tables space them in arc length: Lazutkin starts made "max" return the
min class at six phases of the m = 3 perturbed circle (q = 13 and 17),
so they wait for a Morse-index check of the orbit class, after which the
equal-arc branch goes.  On an integrable table every (p, q) orbit with
q > 2 is tangent to the one caustic of rotation number p/q, so all have
one length: such a q takes one start and no ascent in either class, the
two classes are one computation, and lq_bounds relabels the max orbit
"min".  Other tables take 8 starts per q, rotated by j/8 of one gap.

Ascent and scattered starts.  All other "max" rows take 3
coordinate-ascent sweeps before their first Newton polish; at q = 2 on
integrable tables they pick the major axis over the minor one.  "min"
adds up to 16 scattered ordered starts at q <= 16 on non-integrable
tables and at q = 2 on integrable ones.

Retries.  Round 0 sweeps the ascent rows and polishes every row.  Each
later round takes the failed rows that their q's budget allows, restarts
each from its last iterate if that is ordered, sweeps it 50 more times
if it ascends and 25 if not, and polishes it again.  A q grants
SWEEP_CAP sweeps until any of its rows converges; its other rows then
only probe for other critical families, so its budget drops to 60 and a
start stranded on a degenerate ridge cannot dominate the runtime.
Sweeps, Newton trials and converged lifts keep every gap t_{i+1} - t_i,
the closing one too, under one turn, so a (p, q) orbit is never a
(p - 1, q) one in disguise.

Batching.  The starts of all q are one batch: each is a row of an
(n_rows, max q) array that carries its own q and is padded past it with
inert columns (no gradient, unit Hessian diagonal, no coupling, no sweep
step).  Each sweep and Newton pass evaluates its rows in one call, in
blocks of at most HESSIAN_BLOCK vertex entries cut to their widest row,
of the cyclic tridiagonal Hessian as its two band vectors.  Rows share
evaluations but no decision: each q gets the orbit, residual and work
that it gets alone.

The LM step and the line search.  The Newton polish is damped by
Levenberg-Marquardt (LM), which absorbs the zero Hessian mode of the
orbit families of integrable tables; _lm_step takes the step of every
row in one O(q) sweep, so a pass costs the same however many q the batch
holds.  The line search tries alpha = 1, 1/2, ..., 2^-19 and takes the
first trial that passes: the step a one-at-a-time search takes.  A row
whose last accepted step was alpha = 2^-k evaluates halvings 0..k in the
first trial pass of each LM step (so a row's first step, and one after a
full step, tries alpha = 1 alone), then _HALVING_CHUNK halvings per pass,
and no trial is evaluated past the pass that decides it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, SolverError
from .tables import TWO_PI, Table

__all__ = ["OrbitConfig", "find_orbit", "find_orbits", "lq_bounds"]

log = logging.getLogger(__name__)

SWEEP_CAP = 10_000
NEWTON_CAP = 50
STAT_TOL_FACTOR = 1e-10  # stationarity tolerance is this times the perimeter
# Critical values closer than this (relatively) are the same orbit family.
VALUE_DEDUPE_RTOL = 1e-9
# Vertex entries per _Chain.hessian evaluation.  Rows are evaluated in
# blocks of at most this many entries, which bounds the temporaries of
# every solve.  On the mm-ellipse benchmark (2-vCPU host) 4096 ran at least
# as fast as 2048, 8192 and 16384, at a peak RSS of 63.8 MB, against
# 64.8 MB at 8192, 66.6 MB at 16384 and 70.1 MB unblocked.
HESSIAN_BLOCK = 4096
# Halvings of one line search that _newton evaluates per pass after a row's
# first pass, which evaluates halvings 0..k when its last step was 2^-k.
# On the q 10..20 "max" batch of the m = 3 circle (16 phases, 2-vCPU host,
# numpy 2.4.6) chunks of 8 cost the polish 1111 Hessian rows in 18.1 calls
# per table, every later halving at once 1556 rows in 17.3 calls, chunks of
# 4 968 rows in 19.3 calls, and a fixed first pass of halvings 0..7 with
# chunks of 8 1457 rows in 20.8 calls.  find_orbits took 1.07 (all at once)
# and 0.96 (chunks of 4) of the chunks-of-8 time, as medians of paired
# ratios.
_HALVING_CHUNK = 8


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
    # the work of all starts of this q; sweeps and newton_steps are the chosen one's
    total_sweeps: int = 0
    total_newton_steps: int = 0

    @property
    def beta(self) -> float:
        return -self.length / self.q

    def vertices(self, table: Table) -> np.ndarray:
        return table.position(np.mod(self.t, TWO_PI))


def _next(a, last):
    """a[:, i + 1] at vertex i, cyclically over each row's own columns
    0..last[row]; a has shape (n, Q) or (n, Q, k)."""
    out = np.concatenate((a[:, 1:], a[:, :1]), axis=1)
    out[np.arange(len(a)), last] = a[:, 0]
    return out


def _prev(a, last):
    """a[:, i - 1] at vertex i, cyclically over each row's own columns."""
    out = np.concatenate((a[:, -1:], a[:, :-1]), axis=1)
    out[:, 0] = a[np.arange(len(a)), last]
    return out


def _runs(q):
    """(start, stop) of every run of rows with equal q."""
    cut = (np.flatnonzero(np.diff(q)) + 1).tolist()
    return list(zip([0] + cut, cut + [len(q)])) if len(q) else []


def _blocks(q):
    """(start, stop) of consecutive row blocks that cover every row once and
    hold at most HESSIAN_BLOCK vertex entries each when cut to their widest
    row (a single row wider than that is a block of its own)."""
    out, lo = [], 0
    while lo < len(q):
        width = np.maximum.accumulate(q[lo:lo + HESSIAN_BLOCK // 2])  # every q >= 2
        size = np.arange(1, width.size + 1) * width
        hi = lo + max(1, int(np.searchsorted(size, HESSIAN_BLOCK, side="right")))
        out.append((lo, hi))
        lo = hi
    return out


def _row_sums(a, q):
    """Sum of every row over its own q columns, as chord lengths are summed
    into orbit lengths.  A run of rows of one q is summed by one np.sum on
    its own columns: zeros past the end of a row would change how the
    pairwise summation rounds."""
    out = np.empty(len(q))
    for lo, hi in _runs(q):
        out[lo:hi] = np.sum(a[lo:hi, :q[lo]], axis=-1)
    return out


def _sequential_sums(a):
    """Sum of every row of a, added in column order.  Zeros past the end of
    a row leave its sum as it is, so a row sums to the same value in any
    batch, however wide."""
    return np.cumsum(a, axis=-1)[:, -1]


class _Chain:
    """Length, gradient and Hessian of the lifted length functional in t,
    for a batch of configurations t of shape (n, Q), one per row: row r is
    a q[r]-gon in its first q[r] columns."""

    def __init__(self, table: Table, p: int):
        self.table = table
        self.p = p

    def value(self, t, q):
        """Total chord length of every row."""
        pos = self.table.position(t)
        chord = _next(pos, q - 1) - pos
        return _row_sums(np.hypot(chord[..., 0], chord[..., 1]), q)

    def hessian(self, t, q):
        """F = dL/dt, its cyclic tridiagonal Jacobian as (diag, off), where
        off[:, i] is the (i, i+1) entry (and the (i+1, i) one), and the
        residual max |dL/ds_i| of every row.  Padded columns hold F = 0,
        diag = 1 and off = 0.  Rows are evaluated in blocks of `_blocks`,
        each cut to its widest row; every row's numbers are those of its
        own evaluation, so the blocking changes none of them."""
        if t.size <= HESSIAN_BLOCK:
            return self._block(t, q)
        F, diag = np.zeros(t.shape), np.ones(t.shape)
        off, res = np.zeros(t.shape), np.empty(len(t))
        for lo, hi in _blocks(q):
            w = q[lo:hi].max()
            F[lo:hi, :w], diag[lo:hi, :w], off[lo:hi, :w], res[lo:hi] = self._block(
                t[lo:hi, :w], q[lo:hi])
        return F, diag, off, res

    def _block(self, t, q):
        """hessian of one block of rows, on all of its columns."""
        last = q - 1
        pos, tan, kappa, w, dw = self.table.frame(t)
        pos_n, tan_n = _next(pos, last), _next(tan, last)
        x, y = pos[..., 0], pos[..., 1]
        tx, ty = tan[..., 0], tan[..., 1]
        tnx, tny = tan_n[..., 0], tan_n[..., 1]
        dx, dy = pos_n[..., 0] - x, pos_n[..., 1] - y
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
        h_bb = sin_in**2 / d - _next(kappa, last) * sin_in
        h_ab = -(tt - cos_out * cos_in) / d
        # dL/ds_i = cos(theta_in at i) - cos(theta_out at i)
        grad_s = _prev(cos_in, last) - cos_out
        w_n = _next(w, last)
        diag = (w * w * h_aa + _prev(w_n * w_n * h_bb, last)) + dw * grad_s
        off = w * w_n * h_ab
        pair = q == 2  # both neighbours of a vertex are the same vertex
        if pair.any():
            off[pair, :2] = off[pair, :2] + off[pair, 1::-1]
        pad = np.arange(t.shape[1]) > last[:, None]
        grad_s[pad] = 0.0
        diag[pad] = 1.0
        off[pad] = 0.0
        return grad_s * w, diag, off, np.max(np.abs(grad_s), axis=-1)


def _ordered(t, q, p):
    """Per row: a (p, q) lift over its own q columns.  Every gap
    t_{i+1} - t_i, the closing one t_0 + 2*pi*p - t_{q-1} too, lies strictly
    between 0 and one turn; a longer gap would make it a (p - 1, q) orbit
    in disguise.  For p = 1 the rising test and a span under one turn
    already imply the rest."""
    beyond = np.arange(t.shape[1] - 1) >= (q - 1)[:, None]
    gap = np.diff(t, axis=-1)
    rising = np.all(((gap > 0.0) & (gap < TWO_PI)) | beyond, axis=-1)
    span = t[np.arange(len(t)), q - 1] - t[:, 0]
    return rising & (span < TWO_PI * p) & (span > TWO_PI * (p - 1))


def _sweeps(chain: _Chain, t, q, n_sweeps: int):
    """Red-black coordinate passes: a clamped 1-d Newton step of the local
    reflection residual at every even vertex, then every odd one.  Each
    update moves toward the interior maximum of its two adjacent chords, so
    the pass is a coordinate-ascent globalizer for the Newton polish.  A step
    takes at most 0.45 of either adjacent gap, and of what either has left
    below one turn, so the row stays a (p, q) lift in the sense of _ordered."""
    span = TWO_PI * chain.p
    t = t.copy()
    rows = np.arange(len(t))[:, None]
    qc = q[:, None]
    passes = []
    for parity in (0, 1):
        idx = np.arange(parity, t.shape[1], 2)
        # lifted neighbours: vertex -1 is t_{q-1} - span, vertex q is t_0 + span
        passes.append((idx, idx < qc, np.where(idx == 0, qc - 1, idx - 1),
                       np.where(idx == 0, span, 0.0), np.where(idx + 1 >= qc, 0, idx + 1),
                       np.where(idx + 1 == qc, span, 0.0)))
    for _ in range(n_sweeps):
        for idx, live, lo, lo_shift, hi, hi_shift in passes:
            F, diag, _, _ = chain.hessian(t, q)
            jd = diag[:, idx]
            fi = F[:, idx]
            gap_lo = t[:, idx] - (t[rows, lo] - lo_shift)
            gap_hi = (t[rows, hi] + hi_shift) - t[:, idx]
            newton = np.where(jd < -1e-14, -fi / np.where(jd < -1e-14, jd, -1.0), 0.0)
            fallback = 0.125 * np.minimum(gap_lo, gap_hi) * np.sign(fi)
            step = np.where(jd < -1e-14, newton, fallback)
            if chain.p > 1:  # keep both gaps under one turn (for p = 1 the span does)
                gap_lo, gap_hi = (np.minimum(gap_lo, TWO_PI - gap_hi),
                                  np.minimum(gap_hi, TWO_PI - gap_lo))
            step = np.clip(step, -0.45 * gap_lo, 0.45 * gap_hi)
            t[:, idx] += np.where(live, step, 0.0)
    return t


def _lm_step(diag, off, F, q, mu):
    """Levenberg-Marquardt step of every row: d solves (H^2 + mu*s*I) d = -H F
    for the cyclic tridiagonal Hessian H = (diag, off) and s = trace(H^2)/q.
    As H^2 + sigma^2 I = (H + i*sigma*I)(H - i*sigma*I) with sigma^2 = mu*s,
    d = -Re[(H - i*sigma*I)^-1 F]: one complex solve with the condition
    number of H, not of H^2; its eigenvalues lambda - i*sigma never vanish.

    Row r is solved on its own q[r] columns by one Thomas sweep down the
    columns of the whole batch, for F and for the corner vector of the
    Sherman-Morrison correction (gamma = -a_0, a = diag - i*sigma).  Every
    leading block H_k - i*sigma*I is nonsingular for sigma > 0, so the sweep
    needs no pivoting; a zero or non-finite pivot raises SolverError.
    Padded columns are decoupled, with F = 0, and return 0.  At q = 2 the
    one coupling off[0] (= off[1]) is the plain off-diagonal and there is no
    corner.  All arithmetic is elementwise per row and s is summed in
    column order, so a row's step is the same alone and in any batch."""
    n, w = diag.shape
    rows, last = np.arange(n), q - 1
    col = np.arange(w)
    corner = np.where(q > 2, off[rows, last], 0.0)
    link = np.where(col < last[:, None], off, 0.0)  # the (i, i+1) entries of the chain
    trace = _sequential_sums(np.where(col < q[:, None], diag * diag, 0.0) + 2.0 * link * link)
    sigma = np.sqrt(mu * (trace + 2.0 * corner * corner) / q)
    b = diag.T - 1j * sigma  # a = diag - i*sigma as (w, n): one batch row per column
    link = link.T
    rhs = np.zeros((w, 2, n), dtype=complex)  # F and the corner vector u
    rhs[:, 0] = F.T
    inv = np.empty((w, n), dtype=complex)  # 1 / pivot
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A = B + u v^T with u = gamma e_0 + corner e_{q-1} and
        # v = e_0 + (corner / gamma) e_{q-1}
        gamma = -b[0]
        v_last = corner / gamma
        b[0] -= gamma
        b[last, rows] -= corner * v_last
        rhs[0, 1] = gamma
        rhs[last, 1, rows] = corner
        inv[0] = 1.0 / b[0]
        square = link * link
        for i in range(1, w):
            inv[i] = 1.0 / (b[i] - square[i - 1] * inv[i - 1])
        rhs *= inv[:, None]
        lower = link[:-1] * inv[1:]  # the eliminated (i, i-1) entry over pivot i
        for i in range(1, w):
            rhs[i] -= lower[i - 1] * rhs[i - 1]
        upper = link * inv  # the (i, i+1) entry over pivot i
        for i in range(w - 2, -1, -1):
            rhs[i] -= upper[i] * rhs[i + 1]
        y, z = rhs[:, 0], rhs[:, 1]  # B^-1 F and B^-1 u
        den = 1.0 + z[0] + v_last * z[last, rows]
        x = y - (y[0] + v_last * y[last, rows]) / den * z
    # 1 / pivot is finite and nonzero exactly when the pivot is
    if not (np.all(np.isfinite(inv) & (inv != 0.0)) and np.all(np.isfinite(den) & (den != 0.0))):
        raise SolverError("singular shifted Levenberg-Marquardt system")
    return -x.real.T


# states of a row in _newton
_OUTER, _SOLVE, _TRIAL, _DONE = range(4)


def _newton(chain: _Chain, t, q, cap: int, stat_tol: float):
    """Damped Gauss-Newton on the stationarity system, one start per row,
    row r on its own q[r] columns, by the LM step and line search of the
    module docstring.  Every row runs its own state machine: an outer step
    records |F|^2, then tries up to 12 values of mu (x100 once all 20
    halvings of the step fail, x0.1 on an accepted step).  |F|^2 is
    summed in column order, which padding does not change.  Returns (t,
    residual, steps, ok) arrays with the residual in max |dL/ds_i|."""
    t = np.array(t, dtype=float)
    n = len(t)
    F, diag, off, res = chain.hessian(t, q)
    steps = np.zeros(n, dtype=int)
    mu = np.full(n, 1e-12)
    tries = np.zeros(n, dtype=int)  # values of mu tried in this outer step
    halvings = np.zeros(n, dtype=int)
    last_k = np.zeros(n, dtype=int)  # the last accepted step was alpha = 2^-last_k
    norm_f = np.empty(n)
    delta = np.zeros(t.shape)  # padded columns never move
    state = np.full(n, _OUTER)
    while not np.all(state == _DONE):
        rows = np.flatnonzero(state == _OUTER)
        # a NaN residual (a collapsed chord) stops the row where it is
        stop = (res[rows] <= stat_tol) | (steps[rows] >= cap) | np.isnan(res[rows])
        state[rows[stop]] = _DONE
        rows = rows[~stop]
        norm_f[rows] = _sequential_sums(F[rows]**2)
        tries[rows] = 0
        state[rows] = _SOLVE

        rows = np.flatnonzero(state == _SOLVE)
        if rows.size:
            w = q[rows].max()
            delta[rows, :w] = _lm_step(diag[rows, :w], off[rows, :w], F[rows, :w], q[rows],
                                       mu[rows])
        halvings[rows] = 0
        state[rows] = _TRIAL

        rows = np.flatnonzero(state == _TRIAL)
        if not rows.size:
            continue
        count = np.where(halvings[rows] == 0, last_k[rows] + 1,
                         np.minimum(_HALVING_CHUNK, 20 - halvings[rows]))
        owner = np.repeat(rows, count)
        k = halvings[owner] + np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        alpha = np.ldexp(1.0, -k)
        w = q[rows].max()  # the trial batch is as wide as its widest row
        t_try = t[owner, :w] + alpha[:, None] * delta[owner, :w]
        ev = np.flatnonzero(_ordered(t_try, q[owner], chain.p))
        if ev.size:
            F_try, diag_try, off_try, res_try = chain.hessian(t_try[ev], q[owner[ev]])
            norm_try = _sequential_sums(F_try**2)
            hit = np.flatnonzero(norm_try <= norm_f[owner[ev]] * (1.0 - 1e-6 * alpha[ev]))
            first = hit[np.unique(owner[ev[hit]], return_index=True)[1]]
            up = owner[ev[first]]
            t[up, :w] = t_try[ev[first]]
            F[up, :w], diag[up, :w], off[up, :w] = F_try[first], diag_try[first], off_try[first]
            mu[up] = np.maximum(mu[up] * 0.1, 1e-14)
            last_k[up] = k[ev[first]]
            steps[up] += 1
            res[up] = res_try[first]
            state[up] = _OUTER
        missed = state[rows] == _TRIAL
        rejected = rows[missed]
        halvings[rejected] += count[missed]
        rows = rejected[halvings[rejected] == 20]  # every halving failed: the next mu
        mu[rows] *= 100.0
        tries[rows] += 1
        state[rows] = _SOLVE
        spent = rows[tries[rows] == 12]
        steps[spent] += 1  # the outer step failed: stop where the row is
        state[spent] = _DONE
    return t, res, steps, res <= stat_tol


def _equal_init(table: Table, p: int, q, frac):
    """One start per entry of frac: q points equally spaced in the chart of
    the module docstring, rotated by frac of one gap.  q is one value or
    one per start; rows are padded to the largest q with 0."""
    if table.integrable:
        period, to_t = table.lazutkin_perimeter, table.angle_of_lazutkin
    else:
        period, to_t = table.perimeter, table.angle_of_arc
    q = np.broadcast_to(q, frac.shape)
    x = np.arange(q.max()) * p * period / q[:, None] + (frac * period * p / q)[:, None]
    own = np.arange(q.max()) < q[:, None]
    t = np.zeros(x.shape)
    t[own] = to_t(x[own])  # only the own columns are mapped
    return t


def _turn(t):
    """t mod 2*pi in [0, 2*pi): np.mod rounds a t just below a multiple of
    2*pi up to 2*pi itself, which is the point at 0."""
    t_mod = np.mod(t, TWO_PI)
    return np.where(t_mod < TWO_PI, t_mod, 0.0)


def _canonical(t, p):
    """Rotate labels so t_0 = min(t_i mod 2*pi) and anchor the lift at it."""
    t_mod = _turn(t)
    k = int(np.argmin(t_mod))
    return np.concatenate([t[k:], t[:k] + TWO_PI * p]) - (t[k] - t_mod[k])


def _solve_from(chain: _Chain, t_init, q, ascent, stat_tol: float):
    """Solve every start (row) of t_init, row r a q[r]-gon, in the rounds of
    the module docstring; ascent is a per-row mask, or one bool for all.
    Returns (t, residual, sweeps, newton_steps, ok) arrays, where ok means
    converged to an ordered configuration."""
    p, n = chain.p, len(t_init)
    t = np.array(t_init, dtype=float)
    t_new, res = t.copy(), np.empty(n)
    sweeps, steps = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    ok, ordered = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    ascent = np.broadcast_to(ascent, n)
    more = np.where(ascent, 3, 0)  # the sweeps of this round
    r = np.arange(n)
    while r.size:
        for k in np.unique(more[r][more[r] > 0]):  # the rows of one count sweep together
            sel = r[more[r] == k]
            w = q[sel].max()
            t[sel, :w] = _sweeps(chain, t[sel, :w], q[sel], int(k))
        sweeps[r] += more[r]
        w, qr = q[r].max(), q[r]
        t_new[r, :w], res[r], steps_r, ok[r] = _newton(chain, t[r, :w], qr, NEWTON_CAP, stat_tol)
        steps[r] += steps_r
        ordered[r] = _ordered(t_new[r, :w], qr, p)
        more = np.where(ascent, 50, 25)
        budget = np.where(np.isin(q, q[ok & ordered]), 60, SWEEP_CAP)
        r = np.flatnonzero(~ok & (sweeps + more <= budget))
        back = r[ordered[r]]  # a retried row restarts from its last iterate if ordered
        t[back] = t_new[back]
    return t_new, res, sweeps, steps, ok & ordered


def _check(p: int, q: int, orbit_class: str):
    if q < 2:
        raise DomainError(f"need q >= 2, got q={q}")
    if not (0 < p < q):
        raise DomainError(f"need 0 < p < q, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"p and q must be coprime, got p={p}, q={q}")
    if orbit_class not in ("max", "min"):
        raise DomainError(f"orbit_class must be 'max' or 'min', got {orbit_class!r}")


def _one_length(table: Table, q):
    """Whether every (p, q) orbit of table has one length (see the module
    docstring), elementwise in q."""
    return table.integrable & (q > 2)


def find_orbits(table: Table, p: int, qs, orbit_class: str = "max") -> list[OrbitConfig]:
    """find_orbit at every q of qs, all solved as one batch.  Returns one
    OrbitConfig per distinct q, in increasing q, the one that q gets alone.
    Raises SolverError, with the best iterate attached, for the smallest q
    at which no start converged."""
    qs = sorted({int(q) for q in qs})
    for q in qs:
        _check(p, q, orbit_class)
    if not qs:
        return []
    chain = _Chain(table, p)
    stat_tol = STAT_TOL_FACTOR * table.perimeter

    n_eq = 1 if table.integrable else 8
    t_eq = _equal_init(table, p, np.repeat(qs, n_eq), np.tile(np.arange(n_eq) / 8.0, len(qs)))
    starts = []  # the starts of every q, as its rows of t
    for i, q in enumerate(qs):
        rows = [t_eq[i * n_eq:(i + 1) * n_eq, :q]]
        if orbit_class == "min" and q <= 16 and not _one_length(table, q):
            # Rotations of the equal spacing all sit in the basin of the
            # ordered family; a second critical value needs genuinely
            # scattered ordered starts to be found.  An integrable table has
            # one only at q = 2.  An orbit whose chords cross the ellipse's
            # focal segment (tangent to a confocal hyperbola) alternates
            # between the arcs above and below the major axis, so if ordered
            # it has rotation number 1/2: at q = 2 the two axes give two
            # values (8 and 4 on 2:1).
            rng = np.random.default_rng(1000 * q + p)
            lift = np.arange(q) * p  # q points on the circle, visited p/q turn apart
            for _ in range(16):
                u = np.sort(rng.uniform(0.0, TWO_PI, q))
                t0 = u[lift % q] + TWO_PI * (lift // q)
                if np.min(np.diff(t0)) > 1e-3:
                    rows.append(t0[None])
        starts.append(np.concatenate(rows))
    q_row = np.repeat(qs, [len(rows) for rows in starts])
    t_init = np.zeros((q_row.size, qs[-1]))
    t_init[np.arange(qs[-1]) < q_row[:, None]] = np.concatenate([r.ravel() for r in starts])

    ascent = (orbit_class == "max") & ~_one_length(table, q_row)
    t, res, sweeps, nsteps, ok = _solve_from(chain, t_init, q_row, ascent, stat_tol)
    conv = np.flatnonzero(ok)
    lengths = np.empty(len(t))
    lengths[conv] = chain.value(t[conv], q_row[conv])
    t_min = np.min(np.where(np.arange(qs[-1]) < q_row[:, None], _turn(t), np.inf), axis=-1)
    runs = _runs(q_row)  # one run of rows per q, in increasing q
    chosen, t_rot = [], np.zeros((len(qs), qs[-1]))
    for i, ((lo, hi), q) in enumerate(zip(runs, qs)):
        rows = lo + np.flatnonzero(ok[lo:hi])
        if not rows.size:
            k = lo + min(range(hi - lo), key=lambda j: res[lo + j])  # first of the smallest
            best = OrbitConfig(p, q, orbit_class, np.asarray(table.arc_of_angle(t[k, :q])),
                               t[k, :q], float(chain.value(t[k:k + 1], q_row[k:k + 1])[0]),
                               float(res[k]), int(sweeps[k]), int(nsteps[k]), False,
                               total_sweeps=int(sweeps[lo:hi].sum()),
                               total_newton_steps=int(nsteps[lo:hi].sum()))
            raise SolverError(
                f"find_orbit({p},{q},{orbit_class}): no start converged "
                f"(best residual {res[k]:.3e})",
                best=best,
            )
        # "max" takes the longest orbit found, "min" the shortest; exact ties
        # break to the smallest t_0 = min(t_i mod 2*pi) (max() keeps the
        # first of equal keys).
        length, key = lengths[rows].tolist(), t_min[rows].tolist()
        order = sorted(range(rows.size), key=lambda j: (length[j], key[j]))
        pick = max(order, key=lambda j: length[j]) if orbit_class == "max" else order[0]
        candidates = []  # critical values closer than the dedupe tolerance count once
        for j in order:
            if not candidates or length[j] - candidates[-1] > VALUE_DEDUPE_RTOL * max(1.0, candidates[-1]):
                candidates.append(length[j])
        chosen.append((rows[pick], candidates))
        t_rot[i, :q] = _canonical(t[rows[pick], :q], p)
    s_rot = np.asarray(table.arc_of_angle(t_rot))  # s appears only at output
    return [
        OrbitConfig(p, q, orbit_class, s_rot[i, :q], t_rot[i, :q], float(lengths[k]),
                    float(res[k]), int(sweeps[k]), int(nsteps[k]), True, candidates=candidates,
                    total_sweeps=int(sweeps[lo:hi].sum()),
                    total_newton_steps=int(nsteps[lo:hi].sum()))
        for i, (q, (lo, hi), (k, candidates)) in enumerate(zip(qs, runs, chosen))
    ]


def find_orbit(table: Table, p: int, q: int, orbit_class: str = "max") -> OrbitConfig:
    """Stationary (p, q) configuration of the chord-length functional:
    orbit_class "max" returns the Birkhoff maximizer, "min" the smallest
    critical value the starts find (the minimax orbit on the tables
    shipped here).  Raises SolverError with the best iterate attached
    when nothing converges.  This is find_orbits at the one q."""
    return find_orbits(table, p, [q], orbit_class)[0]


def lq_bounds(table: Table, qs, maxima=()) -> list[tuple[float, float, OrbitConfig, OrbitConfig]]:
    """(L_q, l_q, upper, lower) at every distinct q of qs, in increasing q:
    the extreme perimeters over simple (p = 1) q-periodic orbits, with the
    max-class and min-class orbits they come from.

    maxima may hold p = 1 max-class orbits already solved on this table
    (the ones behind sample_beta, say); a q found among them is not solved
    again, as a batch row is the orbit a solve here would return.  Each
    class solves its other q in one find_orbits batch; where the min orbit
    is the max one relabelled (module docstring) the gap is exactly zero.
    Critical values that coincide within the dedupe tolerance are reported
    as equal.  Raises DomainError before any solve if some q < 2.  If a
    solve fails, the SolverError names the smallest failing q of the max
    class; only when the max class solves at every q, that of the min
    class."""
    known = {orb.q: orb for orb in maxima}
    if any(orb.p != 1 or orb.orbit_class != "max" for orb in known.values()):
        raise DomainError("lq_bounds: maxima must be p = 1 max-class orbits")
    qs, out = sorted({int(q) for q in qs}), []

    def solve(want, orbit_class):  # one batch, and none for no q
        return iter(find_orbits(table, 1, want, orbit_class) if want else ())

    solved = solve([q for q in qs if q not in known], "max")
    uppers = [known[q] if q in known else next(solved) for q in qs]
    solved = solve([q for q in qs if not _one_length(table, q)], "min")
    for upper in uppers:
        lower = replace(upper, orbit_class="min") if _one_length(table, upper.q) else next(solved)
        big = upper.length
        small = min(lower.length, big)
        if big - small <= VALUE_DEDUPE_RTOL * max(1.0, abs(big)):
            small = big
        log.info("L_%d = %.15g, l_%d = %.15g: max residual %.2e, %d Newton steps; "
                 "min residual %.2e, %d Newton steps (all starts)", upper.q, big, upper.q,
                 small, upper.residual, upper.total_newton_steps, lower.residual,
                 lower.total_newton_steps)
        out.append((big, small, upper, lower))
    return out
