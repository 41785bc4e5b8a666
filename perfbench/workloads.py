"""The four benchmark workloads: seeded inputs, CLI arguments and output checks.

Every task is one ``billiards`` CLI command on one generated table (or table
pair).  Inputs come from a shifted Halton sequence: the seed picks a random
shift of each coordinate, task k takes point k of the shifted sequence.  So
the same seed gives the same inputs, every seed covers the whole family, and
the first tasks of a run already spread evenly over it.  Per-task cost varies
several-fold across each family (b/a for the ellipses, the phase for the
perturbed circle), and the even spread keeps run medians steady.

A check reads the files the command wrote and returns its accuracy figure
and a list of problems; a task with any problem counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ellipe

from billiards.dynamics import generating
from billiards.errors import DomainError
from billiards.tables import load_table

C3 = 1.0 / 24.0
C3_TOL = 1e-4  # acceptance criterion 02
ELL0_TOL = 1e-6  # acceptance criterion 03
CONJ_TOL = 1e-6  # acceptance criterion 06, passed to the CLI as --threshold
REFLECTION_TOL = 1e-9

HALTON_BASES = (2, 3, 5, 7)


def _radical_inverse(k: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inv += digit * scale
        scale /= base
    return inv


class Inputs:
    """Seeded low-discrepancy points in the unit cube, one per task."""

    def __init__(self, seed: int):
        self.shift = np.random.default_rng(seed).random(len(HALTON_BASES))

    def point(self, k: int) -> list[float]:
        return [(_radical_inverse(k + 1, b) + float(s)) % 1.0
                for b, s in zip(HALTON_BASES, self.shift)]


@dataclass
class Task:
    index: int
    argv: list[str]  # CLI arguments; the runner appends --out
    inputs: dict  # the generated parameters, printed with the result
    tables: list[str]  # the table files the command reads
    work: int  # find_orbit solves, grid points or bounces


def _perturbed(phase: float) -> dict:
    return {"kind": "perturbed_circle", "R": 1.0,
            "harmonics": [{"m": 3, "eps": 0.05, "phase": phase}]}


def _ellipse(ratio: float, u_scale: float) -> dict:
    a = 1.0 + u_scale
    return {"kind": "ellipse", "a": a, "b": a * ratio}


def _ellipse_perimeter(cfg: dict) -> float:
    """Closed form 4 a E(e^2), independent of the program's quadrature."""
    a, b = cfg["a"], cfg["b"]
    return 4.0 * a * float(ellipe(1.0 - (b / a) ** 2))


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    work_metric = ""  # end-to-end name of this workload's throughput
    accuracy_metric = ""
    accuracy_tol = 0.0
    builds_conjugacy = False  # whether set-up builds a conjugacy from each task's table pair

    def __init__(self, seed: int, workdir: Path):
        self.inputs = Inputs(seed)
        self.workdir = workdir

    def task(self, k: int) -> Task:
        raise NotImplementedError

    def check(self, task: Task, out: Path) -> tuple[float, list[str]]:
        raise NotImplementedError


class BetaPerturbed(Workload):
    name = "beta-perturbed"
    work_metric = "orbits_per_s"
    accuracy_metric = "c3_abs_err"
    accuracy_tol = C3_TOL
    Q_RANGE = (10, 20)

    def task(self, k):
        phase = 2.0 * math.pi * self.inputs.point(k)[0]
        path = _write(self.workdir / f"t{k:04d}.json", _perturbed(phase))
        qmin, qmax = self.Q_RANGE
        argv = ["beta", "--table", path, "--qmin", str(qmin), "--qmax", str(qmax),
                "--K", "3", "--threads", "1"]
        return Task(k, argv, {"phase": phase}, [path], work=qmax - qmin + 1)

    def check(self, task, out):
        problems = []
        rows = _read_csv(out / "beta_samples.csv")
        qs = [int(r["q"]) for r in rows]
        if qs != list(range(self.Q_RANGE[0], self.Q_RANGE[1] + 1)):
            problems.append(f"beta_samples.csv has q {qs}")
        if not all(math.isfinite(float(r["beta"])) and float(r["beta"]) < 0.0 for r in rows):
            problems.append("beta_samples.csv has a non-negative or non-finite beta")
        report = json.loads((out / "invariant_report.json").read_text())
        err = abs(report["beta_coeffs"][0] - C3)
        if not err <= C3_TOL:
            problems.append(f"|c3 - 1/24| = {err:.3e} > {C3_TOL:g}")
        return err, problems


class MmEllipse(Workload):
    name = "mm-ellipse"
    work_metric = "orbits_per_s"
    accuracy_metric = "ell0_abs_err"
    accuracy_tol = ELL0_TOL
    Q_RANGE = (10, 30)
    GAP_STEP = 5

    def task(self, k):
        u = self.inputs.point(k)
        cfg = _ellipse(0.3 + 0.6 * u[0], u[1])
        path = _write(self.workdir / f"t{k:04d}.json", cfg)
        qmin, qmax = self.Q_RANGE
        argv = ["mm", "--table", path, "--qmin", str(qmin), "--qmax", str(qmax),
                "--K", "3", "--gap-step", str(self.GAP_STEP), "--threads", "1"]
        # one max solve per q, plus a max and a min solve per gap q
        return Task(k, argv, cfg, [path], work=(qmax - qmin + 1) + 2 * len(self.gap_qs()))

    def gap_qs(self) -> list[int]:
        return list(range(self.Q_RANGE[0], self.Q_RANGE[1] + 1, self.GAP_STEP))

    def check(self, task, out):
        problems = []
        rows = _read_csv(out / "mm_table.csv")
        qs = [int(r["q"]) for r in rows]
        if qs != self.gap_qs():
            problems.append(f"mm_table.csv has q {qs}")
        for r in rows:
            if float(r["L_q"]) != float(r["l_q"]):
                problems.append(f"q={r['q']}: L_q {r['L_q']} != l_q {r['l_q']}")
        report = json.loads((out / "invariant_report.json").read_text())
        err = abs(report["mm_ell"][0] - _ellipse_perimeter(task.inputs))
        if not err <= ELL0_TOL:
            problems.append(f"|ell0 - perimeter| = {err:.3e} > {ELL0_TOL:g}")
        return err, problems


class ConjugacyEllipse(Workload):
    name = "conjugacy-ellipse"
    work_metric = "points_per_s"
    accuracy_metric = "conj_residual_max"
    accuracy_tol = CONJ_TOL
    builds_conjugacy = True
    GRID = (40, 10)
    # b/a of table 1 in 0.3..0.8, of table 2 at least GAP rounder, up to 0.9.
    # Closer pairs put grid points on caustics of modulus k above 0.985,
    # where jacobi_am can fail to converge (see README.md).
    RATIO1 = (0.3, 0.8)
    RATIO_MAX = 0.9
    GAP = 0.1

    def task(self, k):
        u = self.inputs.point(k)
        lo, hi = self.RATIO1
        r1 = lo + (hi - lo) * u[0]
        r2 = r1 + self.GAP + (self.RATIO_MAX - r1 - self.GAP) * u[1]
        cfg1, cfg2 = _ellipse(r1, u[2]), _ellipse(r2, u[3])
        p1 = _write(self.workdir / f"t{k:04d}a.json", cfg1)
        p2 = _write(self.workdir / f"t{k:04d}b.json", cfg2)
        n_s, n_theta = self.GRID
        argv = ["conjugacy", "--table", p1, "--table2", p2, "--grid", str(n_s),
                str(n_theta), "--threshold", repr(CONJ_TOL), "--threads", "1"]
        return Task(k, argv, {"table": cfg1, "table2": cfg2}, [p1, p2], work=n_s * n_theta)

    def check(self, task, out):
        problems = []
        rows = _read_csv(out / "conjugacy_residuals.csv")
        if len(rows) != task.work:
            problems.append(f"conjugacy_residuals.csv has {len(rows)} rows, want {task.work}")
        res = np.array([[float(r["residual_s"]), float(r["residual_theta"])] for r in rows])
        # np.max keeps a NaN, where Python's max() can skip it
        worst = float(np.max(res)) if res.size else math.inf
        if not worst <= CONJ_TOL:
            problems.append(f"conjugacy residual {worst:.3e} > {CONJ_TOL:g}")
        return worst, problems


class OrbitPerturbed(Workload):
    name = "orbit-perturbed"
    work_metric = "bounces_per_s"
    accuracy_metric = "reflection_err_max"
    accuracy_tol = REFLECTION_TOL
    STEPS = 200
    THETA_MARGIN = 0.1

    def task(self, k):
        u = self.inputs.point(k)
        phase = 2.0 * math.pi * u[0]
        s0 = 2.0 * math.pi * u[1]
        theta0 = self.THETA_MARGIN + (math.pi - 2.0 * self.THETA_MARGIN) * u[2]
        path = _write(self.workdir / f"t{k:04d}.json", _perturbed(phase))
        argv = ["orbit", "--table", path, "--s0", repr(s0), "--theta0", repr(theta0),
                "--steps", str(self.STEPS), "--threads", "1"]
        return Task(k, argv, {"phase": phase, "s0": s0, "theta0": theta0}, [path],
                    work=self.STEPS)

    def check(self, task, out):
        problems = []
        rows = _read_csv(out / "trajectory.csv")
        if len(rows) != self.STEPS + 1:
            problems.append(f"trajectory.csv has {len(rows)} rows, want {self.STEPS + 1}")
        table = load_table(task.tables[0])
        s = np.array([float(r["x"]) for r in rows])
        theta = np.array([float(r["theta"]) for r in rows])
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(theta))):
            problems.append("trajectory.csv has a non-finite s or theta")
            return math.nan, problems
        if rows and (s[0] != task.inputs["s0"] or theta[0] != task.inputs["theta0"]):
            problems.append("trajectory.csv does not start at the given (s0, theta0)")
        # reflection law from the generating function: d_s = -cos(theta) when
        # leaving s_i, d_s' = cos(theta') when arriving at s_{i+1}
        errs = [0.0]
        for i in range(len(rows) - 1):
            try:
                _, d_s, d_s2 = generating(table, s[i], s[i + 1])
            except DomainError as exc:  # the ball did not move
                problems.append(f"step {i}: {exc}")
                return math.inf, problems
            errs += [d_s + math.cos(theta[i]), d_s2 - math.cos(theta[i + 1])]
        # np.max keeps a NaN, where Python's max() can skip it
        worst = float(np.max(np.abs(errs)))
        if not worst <= REFLECTION_TOL:
            problems.append(f"reflection error {worst:.3e} > {REFLECTION_TOL:g}")
        return worst, problems


WORKLOADS = {w.name: w for w in (BetaPerturbed, MmEllipse, ConjugacyEllipse, OrbitPerturbed)}
