"""Length-spectrum invariants assembled from periodic-orbit samples.

The central object is the normalized action function lambda^-3 (beta + ell*omega)
whose odd Taylor coefficients at omega = 0 are conjugacy invariants; the
companion expansion L_q ~ ell_0 + sum ell_k / q^(2k) of maximal q-gon
perimeters carries the same information (ell_0 is the perimeter and
ell_k = -lambda^3 c_{2k+1}).  Both are recovered here by weighted least
squares over sampled rotation numbers, together with the Lazutkin
parameter and the Legendre-Fenchel dual of beta.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, DomainError
from .orbits import find_orbits
from .tables import Table

__all__ = [
    "BetaSamples",
    "InvariantReport",
    "RatioRow",
    "sample_beta",
    "fit_normalized_beta",
    "mm_fit_from_samples",
    "mm_invariants",
    "mm_ratio_check",
    "lazutkin_parameter",
    "mather_alpha",
]

DEFAULT_Q_RANGE = (10, 120)
OMEGA_MAX = 0.1  # the normalized-beta fit uses samples with omega <= this
WEIGHT_POWER = 4  # row weights are q**WEIGHT_POWER
COND_LIMIT = 1e12

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BetaSamples:
    """Sampled values of Mather's beta with the table constants needed to
    normalize them.

    sample_beta also keeps the solved maximal OrbitConfig of every sample
    in `orbits`; each carries how it was solved (residual, sweeps, Newton
    steps, convergence, candidates, the work of all starts of its q).
    Samples built by hand leave it None.
    """

    p: np.ndarray
    q: np.ndarray
    omega: np.ndarray
    beta: np.ndarray
    ell: float
    lazutkin: float
    orbits: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        if om.size == 0:
            raise DomainError("BetaSamples needs at least one sample")
        if np.any(om <= 0.0) or np.any(om > 0.5):
            raise DomainError("rotation numbers must lie in (0, 1/2]")
        if np.unique(om).size != om.size:
            raise DomainError("rotation numbers must be distinct")
        if np.any(np.asarray(self.beta) >= 0.0):
            raise DomainError("beta samples must be negative")

    @property
    def lengths(self) -> np.ndarray:
        """Orbit perimeters L = -q * beta (p = 1 samples only)."""
        return -np.asarray(self.q, dtype=float) * np.asarray(self.beta)


def sample_beta(table: Table, q_min: int = DEFAULT_Q_RANGE[0],
                q_max: int = DEFAULT_Q_RANGE[1], p: int = 1,
                workers: int = 1) -> BetaSamples:
    """Compute beta(p/q) over an integer q range (coprime q, p/q <= 1/2).

    The maximal orbits of all q are solved as one batch of find_orbits, whose
    rows carry their own q; with workers > 1, each worker process solves one
    contiguous chunk of the q range as one batch.  Raises DomainError for
    workers < 1.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    qs = [q for q in range(q_min, q_max + 1) if math.gcd(p, q) == 1 and q >= 2 * p]
    if workers > 1:
        chunks = [c.tolist() for c in np.array_split(qs, workers) if c.size]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(find_orbits, [table] * len(chunks), [p] * len(chunks), chunks)
            orbits = [orb for part in parts for orb in part]
    else:
        orbits = find_orbits(table, p, qs)
    for orb in orbits:
        log.info("beta(%d/%d) = %.15g: residual %.2e, %d sweeps, %d Newton steps, "
                 "converged %s, %d candidates; all starts: %d sweeps, %d Newton steps",
                 p, orb.q, orb.beta, orb.residual, orb.sweeps, orb.newton_steps,
                 orb.converged, len(orb.candidates), orb.total_sweeps, orb.total_newton_steps)
    q_arr = np.array([orb.q for orb in orbits])
    return BetaSamples(
        p=np.full_like(q_arr, p),
        q=q_arr,
        omega=p / q_arr.astype(float),
        beta=np.array([orb.beta for orb in orbits]),
        ell=table.perimeter,
        lazutkin=table.lazutkin_perimeter,
        orbits=orbits,
    )


@dataclass
class InvariantReport:
    """Fitted invariants of one table.

    beta_coeffs holds c_3, c_5, ..., c_{2K+1} of the normalized action
    expansion; mm_ell holds ell_0 ... ell_K of the max-perimeter expansion
    when the direct fit was run.  Guard coefficients absorb the first
    truncated order and are reported but not part of the invariant set.
    """

    K: int
    ell: float
    lazutkin: float
    beta_coeffs: np.ndarray
    beta_guard: float
    beta_resid_rms: float
    beta_resid_max: float
    beta_cond: float
    beta_cov: np.ndarray | None = None
    mm_ell: np.ndarray | None = None
    mm_guard: float | None = None
    mm_resid_rms: float | None = None
    mm_resid_max: float | None = None
    mm_cond: float | None = None
    consistency: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def derived_ell(self) -> np.ndarray:
        """MM coefficients implied by the beta fit: ell_0 = perimeter and
        ell_k = -lambda^3 c_{2k+1}."""
        lam3 = self.lazutkin**3
        return np.concatenate([[self.ell], -lam3 * self.beta_coeffs])

    def to_dict(self) -> dict:
        def arr(x):
            return None if x is None else [float(v) for v in np.atleast_1d(x)]

        return {
            "K": self.K,
            "perimeter": self.ell,
            "lazutkin_perimeter": self.lazutkin,
            "beta_coeffs": arr(self.beta_coeffs),
            "beta_guard": self.beta_guard,
            "beta_resid_rms": self.beta_resid_rms,
            "beta_resid_max": self.beta_resid_max,
            "beta_cond": self.beta_cond,
            "beta_cov": None if self.beta_cov is None else [arr(r) for r in self.beta_cov],
            "mm_ell": arr(self.mm_ell),
            "mm_guard": self.mm_guard,
            "mm_resid_rms": self.mm_resid_rms,
            "mm_resid_max": self.mm_resid_max,
            "mm_cond": self.mm_cond,
            "derived_ell": arr(self.derived_ell),
            "consistency": arr(self.consistency),
            "provenance": self.provenance,
        }


def _wls(design: np.ndarray, y: np.ndarray, row_w: np.ndarray):
    """Column-normalized weighted least squares by one thin SVD; the
    coefficients, condition number and covariance all come from the same
    factorization.  Returns (coeffs, resid, cond, cov)."""
    A = design * row_w[:, None]
    col = np.linalg.norm(A, axis=0)
    if np.any(col == 0.0):
        raise ConditioningError("degenerate design column; widen the sample range")
    U, sv, Vt = np.linalg.svd(A / col[None, :], full_matrices=False)
    cond = float(sv[0] / sv[-1])
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(
            f"design condition number {cond:.2e} exceeds {COND_LIMIT:.0e}; "
            "narrow the omega range or reduce K"
        )
    coeffs = (Vt.T @ ((U.T @ (y * row_w)) / sv)) / col
    resid = design @ coeffs - y
    wres = resid * row_w
    dof = max(1, len(y) - design.shape[1])
    sigma2 = float(np.dot(wres, wres)) / dof
    # (An^T An)^-1 = V S^-2 V^T, without squaring the condition number
    VS = Vt.T / sv
    cov = sigma2 * ((VS @ VS.T) / np.outer(col, col))
    return coeffs, resid, cond, cov


def fit_normalized_beta(samples: BetaSamples, K: int = 3) -> InvariantReport:
    """Fit the odd expansion of the normalized action function.

    Regresses lambda^-3 (beta + ell*omega) on omega^3, ..., omega^(2K+3)
    (one guard order past K) using samples with omega <= OMEGA_MAX and
    weights q^WEIGHT_POWER.
    """
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    om = np.asarray(samples.omega, dtype=float)
    keep = om <= OMEGA_MAX
    if int(np.count_nonzero(keep)) < 2 * K + 2:
        raise DomainError(
            f"need at least {2 * K + 2} samples with omega <= {OMEGA_MAX}, "
            f"have {int(np.count_nonzero(keep))}"
        )
    om = om[keep]
    beta = np.asarray(samples.beta)[keep]
    qv = np.asarray(samples.q, dtype=float)[keep]
    lam3 = samples.lazutkin**3
    y = (beta + samples.ell * om) / lam3
    powers = np.arange(1, K + 2)
    design = om[:, None] ** (2 * powers[None, :] + 1)
    row_w = qv**WEIGHT_POWER
    coeffs, resid, cond, cov = _wls(design, y, row_w)
    return InvariantReport(
        K=K,
        ell=samples.ell,
        lazutkin=samples.lazutkin,
        beta_coeffs=coeffs[:K],
        beta_guard=float(coeffs[K]),
        beta_resid_rms=float(np.sqrt(np.mean(resid**2))),
        beta_resid_max=float(np.max(np.abs(resid))),
        beta_cond=cond,
        beta_cov=cov[:K, :K],
        provenance={
            "q_min": int(qv.min()),
            "q_max": int(qv.max()),
            "n_samples": int(len(om)),
            "omega_max": OMEGA_MAX,
            "weight_power": WEIGHT_POWER,
        },
    )


def mm_fit_from_samples(samples: BetaSamples, K: int = 3) -> InvariantReport:
    """Fit L_q against 1, q^-2, ..., q^-2(K+1) and cross-check against the
    normalized-beta fit of the same samples."""
    report = fit_normalized_beta(samples, K)
    qv = np.asarray(samples.q, dtype=float)
    lengths = samples.lengths
    powers = np.arange(0, K + 2)
    design = qv[:, None] ** (-2.0 * powers[None, :])
    row_w = qv**WEIGHT_POWER
    coeffs, resid, cond, _ = _wls(design, lengths, row_w)
    report.mm_ell = coeffs[: K + 1]
    report.mm_guard = float(coeffs[K + 1])
    report.mm_resid_rms = float(np.sqrt(np.mean(resid**2)))
    report.mm_resid_max = float(np.max(np.abs(resid)))
    report.mm_cond = cond
    # ell_k from the direct fit vs -lambda^3 c_{2k+1} from the beta fit
    report.consistency = np.abs(report.mm_ell - report.derived_ell[: K + 1])
    return report


def _check_q_range(q_min: int, q_max: int, K: int) -> None:
    """The q range of beta, mm, compare and mm_invariants, whose L_q fit
    takes every sampled q: K >= 1, q_min >= 5 and at least 2K + 2 values
    of q."""
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    if q_min < 5:
        raise DomainError(f"q_min must be >= 5, got {q_min}")
    if q_max - q_min + 1 < 2 * K + 2:
        raise DomainError(f"q range must span at least {2 * K + 2} values")


def mm_invariants(table: Table, q_range: tuple[int, int] = DEFAULT_Q_RANGE,
                  K: int = 3, *, workers: int = 1) -> InvariantReport:
    """Marvizi-Melrose coefficients from maximal q-gon perimeters."""
    _check_q_range(*q_range, K)
    samples = sample_beta(table, *q_range, p=1, workers=workers)
    return mm_fit_from_samples(samples, K)


@dataclass(frozen=True)
class RatioRow:
    n: int
    measured: float
    predicted: float
    deviation: float


def mm_ratio_check(report1: InvariantReport, report2: InvariantReport) -> list[RatioRow]:
    """Ratios of the dimensionally dressed invariants of two tables.

    The n-th invariant is represented as c_{2n+1} * lambda^(3-2n) (for
    n = 1 this is c_3 * lambda; the raw fitted ell_k sit in the reports).
    Smooth conjugacy predicts the ratio (lambda_2 / lambda_1)^(2n-3).
    """
    if report1.K != report2.K:
        raise DomainError("ratio check requires reports fitted with the same K")
    rows = []
    lam1, lam2 = report1.lazutkin, report2.lazutkin
    for n in range(1, report1.K + 1):
        c1 = float(report1.beta_coeffs[n - 1])
        c2 = float(report2.beta_coeffs[n - 1])
        measured = (c1 * lam1 ** (3 - 2 * n)) / (c2 * lam2 ** (3 - 2 * n))
        predicted = (lam2 / lam1) ** (2 * n - 3)
        rows.append(RatioRow(n, measured, predicted, abs(measured / predicted - 1.0)))
    return rows


def _beta_polynomial(report: InvariantReport) -> np.polynomial.Polynomial:
    """The fitted beta(omega) = -ell omega + lambda^3 (c_3 omega^3 + ...
    + c_{2K+1} omega^(2K+1) + guard omega^(2K+3))."""
    coef = np.zeros(2 * report.K + 4)
    coef[1] = -report.ell
    coef[3::2] = report.lazutkin**3 * np.append(report.beta_coeffs, report.beta_guard)
    return np.polynomial.Polynomial(coef)


def lazutkin_parameter(samples: BetaSamples, omega: float, *,
                       report: InvariantReport | None = None) -> float:
    """Lazutkin parameter omega*beta'(omega) - beta(omega) of the convex
    caustic with rotation number omega, from the fitted expansion."""
    om = np.asarray(samples.omega, dtype=float)
    if not (om.min() <= omega <= om.max()):
        raise DomainError(
            f"omega={omega} outside the sampled range [{om.min()}, {om.max()}]"
        )
    if report is None:
        report = fit_normalized_beta(samples)
    beta = _beta_polynomial(report)
    return float(omega * beta.deriv()(omega) - beta(omega))


def _alpha_discrete(samples: BetaSamples, c: float) -> tuple[float, float]:
    om = np.asarray(samples.omega, dtype=float)
    beta = np.asarray(samples.beta, dtype=float)
    vals = om * c - beta
    i = int(np.argmax(vals))
    return float(vals[i]), float(om[i])


def mather_alpha(samples: BetaSamples, c: float) -> float:
    """Discrete Legendre-Fenchel transform sup_omega (omega*c - beta(omega))
    over the sampled rotation numbers."""
    om = np.asarray(samples.omega, dtype=float)
    if om.size < 2:
        raise DomainError(f"mather_alpha needs at least 2 samples, got {om.size}")
    beta = np.asarray(samples.beta, dtype=float)
    order = np.argsort(om)
    om, beta = om[order], beta[order]
    slopes = np.diff(beta) / np.diff(om)
    tol = 1e-9 * (1.0 + abs(c))
    if c < slopes.min() - tol or c > slopes.max() + tol:
        raise DomainError(
            f"c={c} outside the sampled slope range [{slopes.min()}, {slopes.max()}]"
        )
    return _alpha_discrete(samples, c)[0]
