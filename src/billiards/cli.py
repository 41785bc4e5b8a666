"""Command-line front end.

Subcommands: beta, mm, compare, conjugacy, witness, orbit.  Each command
reads table description files (JSON), writes CSV data plus a
machine-readable summary.json into the output directory, and exits 0 on
success, 1 on configuration errors, 2 on fit-conditioning failures, 3 on
solver failures and 4 when the conjugacy residual is above --threshold
(or is NaN).  Set BILLIARDS_LOG to a logging level name for
progress output; --threads parallelizes the beta q sweeps.  This is the
package's only module that writes files.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import PhasePoint, trajectory
from .ellipse_maps import _witness_decisions, build_conjugacy
from .errors import (
    BilliardsError,
    ConditioningError,
    DomainError,
    SolverError,
    TableConfigError,
)
from .invariants import (
    COND_LIMIT,
    DEFAULT_Q_RANGE,
    _check_q_range,
    fit_normalized_beta,
    mm_fit_from_samples,
    mm_ratio_check,
    sample_beta,
)
from .orbits import STAT_TOL_FACTOR, find_orbit, lq_bounds
from .tables import CHORD_TOL, EllipseTable, load_table

log = logging.getLogger("billiards")

TOLERANCES = {
    "stationarity_per_perimeter": STAT_TOL_FACTOR,
    "fit_condition_limit": COND_LIMIT,
    "chord_parameter": CHORD_TOL,
}

# How each beta sample's maximal orbit was solved: beta_samples.csv columns
# after p, q, omega, beta, and per-q lists beside q in invariant_report.json.
SOLVER_COLUMNS = ("residual", "sweeps", "newton_steps", "converged", "candidates",
                  "total_sweeps", "total_newton_steps")


def _solver_row(orb) -> list:
    return [orb.residual, orb.sweeps, orb.newton_steps, orb.converged, len(orb.candidates),
            orb.total_sweeps, orb.total_newton_steps]


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="billiards",
        description="Length-spectrum invariants and conjugacies of convex billiards",
    )
    ap.add_argument("--version", action="version", version=f"billiards {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, two_tables=False, fit=False):
        p.add_argument("--table", required=True, help="table description file (JSON)")
        if two_tables:
            p.add_argument("--table2", required=True, help="second table file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="processes for the q sweeps of beta, mm and compare")
        if fit:
            p.add_argument("--qmin", type=int, default=DEFAULT_Q_RANGE[0])
            p.add_argument("--qmax", type=int, default=DEFAULT_Q_RANGE[1])
            p.add_argument("--K", type=int, default=3)

    p = sub.add_parser("beta", help="sample beta(1/q) and fit the normalized expansion")
    common(p, fit=True)

    p = sub.add_parser("mm", help="L_q/l_q table and Marvizi-Melrose fit")
    common(p, fit=True)
    p.add_argument("--gap-step", type=int, default=5,
                   help="stride for the l_q (gap) computation")

    p = sub.add_parser("compare", help="normalized coefficients of two tables + ratio law")
    common(p, two_tables=True, fit=True)

    p = sub.add_parser("conjugacy", help="verify the elliptic near-boundary conjugacy")
    common(p, two_tables=True)
    p.add_argument("--grid", type=int, nargs=2, default=(200, 50),
                   metavar=("NS", "NTHETA"))
    p.add_argument("--threshold", type=float, default=None,
                   help="exit 4 when the max residual exceeds this or is NaN")

    p = sub.add_parser("witness", help="eccentricity-rigidity witness for two ellipses")
    common(p, two_tables=True)

    p = sub.add_parser("orbit", help="export a periodic orbit or a trajectory")
    common(p)
    p.add_argument("--pq", type=int, nargs=2, metavar=("P", "Q"))
    p.add_argument("--orbit-class", choices=("max", "min"), default="max")
    p.add_argument("--s0", type=float, default=0.0)
    p.add_argument("--theta0", type=float, default=None)
    p.add_argument("--steps", type=int, default=100)
    return ap


def _strict(obj):
    """obj with every non-finite float replaced by None, for strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


class _Stages:
    """Wall seconds (perf_counter) of a command's stages, in order."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now


def _write_summary(outdir: Path, command: str, config: dict, payload: dict,
                   outputs: list[str], stages: _Stages) -> None:
    summary = {
        "tool": "billiards",
        "version": __version__,
        "command": command,
        "config": config,
        "tolerances": TOLERANCES,
        "timings": stages.seconds,
        "outputs": outputs,
    }
    summary.update(payload)
    _write_json(outdir / "summary.json", summary)


def _write_json(path: Path, obj) -> None:
    """obj as indented strict JSON: a non-finite float is written null."""
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, allow_nan=False)


def _write_csv(path: Path, header, rows) -> None:
    """A header line, then one line per row; a bool is written 1 or 0."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([int(v) if isinstance(v, bool) else v for v in row] for row in rows)


def _write_report(path: Path, report, samples) -> None:
    """invariant_report.json: the fit, plus the per-q solver diagnostics
    under the beta_samples.csv column names."""
    out = report.to_dict()
    out["q"] = [orb.q for orb in samples.orbits]
    rows = [_solver_row(orb) for orb in samples.orbits]
    out.update({name: list(col) for name, col in zip(SOLVER_COLUMNS, zip(*rows))})
    _write_json(path, out)


def _load(path) -> object:
    table = load_table(path)
    log.info("loaded %s table from %s (perimeter %.6f)", table.kind, path, table.perimeter)
    return table


def _cmd_beta(args, outdir: Path) -> int:
    _check_q_range(args.qmin, args.qmax, args.K)
    stages = _Stages()
    table = _load(args.table)
    stages.lap("load")
    samples = sample_beta(table, args.qmin, args.qmax, workers=args.threads)
    stages.lap("sample")
    report = mm_fit_from_samples(samples, args.K)
    stages.lap("fit")
    csv_path = outdir / "beta_samples.csv"
    _write_csv(csv_path, ("p", "q", "omega", "beta") + SOLVER_COLUMNS,
               ([orb.p, orb.q, orb.p / orb.q, orb.beta, *_solver_row(orb)]
                for orb in samples.orbits))
    rep_path = outdir / "invariant_report.json"
    _write_report(rep_path, report, samples)
    stages.lap("write")
    _write_summary(
        outdir, "beta", {"table": table.as_config(), "qmin": args.qmin,
                         "qmax": args.qmax, "K": args.K},
        {"c3": float(report.beta_coeffs[0]), "ell0": float(report.mm_ell[0]),
         "perimeter": table.perimeter},
        [str(csv_path), str(rep_path)], stages,
    )
    return 0


def _cmd_mm(args, outdir: Path) -> int:
    if args.gap_step < 1:
        raise DomainError(f"--gap-step must be >= 1, got {args.gap_step}")
    _check_q_range(args.qmin, args.qmax, args.K)
    stages = _Stages()
    table = _load(args.table)
    stages.lap("load")
    samples = sample_beta(table, args.qmin, args.qmax, workers=args.threads)
    stages.lap("sample")
    report = mm_fit_from_samples(samples, args.K)
    stages.lap("fit")
    rows = lq_bounds(table, range(args.qmin, args.qmax + 1, args.gap_step), samples.orbits)
    stages.lap("gaps")
    csv_path = outdir / "mm_table.csv"
    _write_csv(csv_path, ("q", "L_q", "l_q", "beta", "max_residual", "max_total_newton_steps",
                          "min_residual", "min_total_newton_steps"),
               ([upper.q, big, small, -big / upper.q, upper.residual, upper.total_newton_steps,
                 lower.residual, lower.total_newton_steps] for big, small, upper, lower in rows))
    rep_path = outdir / "invariant_report.json"
    _write_report(rep_path, report, samples)
    stages.lap("write")
    _write_summary(
        outdir, "mm", {"table": table.as_config(), "qmin": args.qmin,
                       "qmax": args.qmax, "K": args.K, "gap_step": args.gap_step},
        {"ell0": float(report.mm_ell[0]), "perimeter": table.perimeter,
         "max_gap": max(big - small for big, small, _, _ in rows)},
        [str(csv_path), str(rep_path)], stages,
    )
    return 0


def _cmd_compare(args, outdir: Path) -> int:
    stages = _Stages()
    t1 = _load(args.table)
    t2 = _load(args.table2)
    stages.lap("load")
    s1 = sample_beta(t1, args.qmin, args.qmax, workers=args.threads)
    s2 = sample_beta(t2, args.qmin, args.qmax, workers=args.threads)
    stages.lap("sample")
    r1 = fit_normalized_beta(s1, args.K)
    r2 = fit_normalized_beta(s2, args.K)
    ratios = mm_ratio_check(r1, r2)
    stages.lap("fit")
    diff = [
        {"k": 2 * k + 3, "c_table1": float(a), "c_table2": float(b),
         "abs_diff": abs(float(a) - float(b)),
         "rel_diff": abs(float(a) - float(b)) / max(abs(float(b)), 1e-300)}
        for k, (a, b) in enumerate(zip(r1.beta_coeffs, r2.beta_coeffs))
    ]
    csv_path = outdir / "ratio_table.csv"
    _write_csv(csv_path, ("n", "measured", "predicted", "deviation"),
               ([row.n, row.measured, row.predicted, row.deviation] for row in ratios))
    stages.lap("write")
    _write_summary(
        outdir, "compare",
        {"table": t1.as_config(), "table2": t2.as_config(), "qmin": args.qmin,
         "qmax": args.qmax, "K": args.K},
        {"coefficients": diff,
         "ratio_table": [row.__dict__ for row in ratios],
         "lazutkin": [r1.lazutkin, r2.lazutkin]},
        [str(csv_path)], stages,
    )
    return 0


def _cmd_conjugacy(args, outdir: Path) -> int:
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise DomainError(f"--threshold must be finite, got {args.threshold}")
    stages = _Stages()
    t1 = _load(args.table)
    t2 = _load(args.table2)
    if not isinstance(t1, EllipseTable) or not isinstance(t2, EllipseTable):
        raise TableConfigError("conjugacy requires elliptic tables")
    stages.lap("load")
    h = build_conjugacy(t1, t2)
    stages.lap("build")
    n_s, n_theta = args.grid
    s, th, rs, rt = h.residual_grid(n_s=n_s, n_theta=n_theta)
    stages.lap("grid")
    csv_path = outdir / "conjugacy_residuals.csv"
    _write_csv(csv_path, ("s", "theta", "residual_s", "residual_theta"),
               np.column_stack((s, th, rs, rt)).tolist())
    max_res = float(np.max(np.concatenate((rs, rt))))  # NaN propagates
    stages.lap("write")
    _write_summary(
        outdir, "conjugacy",
        {"table": t1.as_config(), "table2": t2.as_config(), "grid": [n_s, n_theta]},
        {"max_residual": max_res, "max_omega_residual": h._omega_residual,
         "theta_star": h.theta_star, "theta2_star": t2.theta_star,
         "theta3_star": h.theta3_star},
        [str(csv_path)], stages,
    )
    if args.threshold is not None and not max_res <= args.threshold:
        log.error("conjugacy residual %.3e exceeds threshold %.3e", max_res, args.threshold)
        return 4
    return 0


def _cmd_witness(args, outdir: Path) -> int:
    stages = _Stages()
    t1 = _load(args.table)
    t2 = _load(args.table2)
    if not isinstance(t1, EllipseTable) or not isinstance(t2, EllipseTable):
        raise TableConfigError("witness requires elliptic tables")
    stages.lap("load")
    decisions = _witness_decisions(t1, t2)
    payload = {
        "e1": t1.eccentricity,
        "e2": t2.eccentricity,
        "interval": sorted([t1.theta_star / math.pi, t2.theta_star / math.pi]),
        "m": None,
        "n": None,
        "xi_root": None,
        "u_min": None,
    }
    if decisions is not None:
        hot, cold = decisions
        payload.update({"m": hot.m, "n": hot.n, "xi_root": hot.xi_root, "u_min": cold.u_min})
    stages.lap("witness")
    json_path = outdir / "witness.json"
    _write_json(json_path, payload)
    stages.lap("write")
    _write_summary(outdir, "witness",
                   {"table": t1.as_config(), "table2": t2.as_config()},
                   payload, [str(json_path)], stages)
    return 0


def _cmd_orbit(args, outdir: Path) -> int:
    stages = _Stages()
    table = _load(args.table)
    stages.lap("load")
    outputs = []
    payload = {}
    if args.pq:
        p, q = args.pq
        orb = find_orbit(table, p, q, args.orbit_class)
        stages.lap("solve")
        pts = orb.vertices(table)
        csv_path = outdir / f"orbit_{p}_{q}_{args.orbit_class}.csv"
        _write_csv(csv_path, ("i", "s_i", "x_i", "y_i"),
                   ([i, float(si % table.perimeter), float(pt[0]), float(pt[1])]
                    for i, (si, pt) in enumerate(zip(orb.s, pts))))
        outputs.append(str(csv_path))
        payload.update({"length": orb.length, "beta": orb.beta,
                        "residual": orb.residual})
    else:
        theta0 = args.theta0 if args.theta0 is not None else math.pi / 4
        s, th, pts = trajectory(table, PhasePoint(args.s0, theta0), args.steps)
        stages.lap("iterate")
        csv_path = outdir / "trajectory.csv"
        ell = table.perimeter  # s is the lift x mod perimeter
        _write_csv(csv_path, ("n", "s", "theta", "x", "y_plane_x", "y_plane_y"),
                   ([i, float(si) % ell, float(ti), float(si), float(pt[0]), float(pt[1])]
                    for i, (si, ti, pt) in enumerate(zip(s, th, pts))))
        outputs.append(str(csv_path))
        # the mean winding per bounce, as in dynamics.rotation_estimate
        winding = (s[-1] - s[0]) / (args.steps * table.perimeter) if args.steps else math.nan
        payload.update({"steps": args.steps, "rotation_number": float(winding % 1.0)})
    stages.lap("write")
    _write_summary(outdir, "orbit", {"table": table.as_config()}, payload, outputs, stages)
    return 0


_COMMANDS = {
    "beta": _cmd_beta,
    "mm": _cmd_mm,
    "compare": _cmd_compare,
    "conjugacy": _cmd_conjugacy,
    "witness": _cmd_witness,
    "orbit": _cmd_orbit,
}

_PARSER = _parser()


def main(argv=None) -> int:
    level = os.environ.get("BILLIARDS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, outdir)
    except TableConfigError as exc:
        print(f"billiards: {exc}", file=sys.stderr)
        return 1
    except ConditioningError as exc:
        print(f"billiards: fit conditioning failure: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"billiards: solver failure: {exc}", file=sys.stderr)
        return 3
    except BilliardsError as exc:
        print(f"billiards: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
