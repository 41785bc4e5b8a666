import csv
import hashlib
import json
import logging
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import billiards.cli as cli
import billiards.ellipse_maps as ellipse_maps
import billiards.invariants as invariants_mod
import billiards.orbits as orbits_mod
from billiards.cli import main
from billiards.dynamics import generating
from billiards.ellipse_maps import ConjugacyMap
from billiards.errors import DomainError, SolverError
from billiards.invariants import COND_LIMIT
from billiards.orbits import STAT_TOL_FACTOR, VALUE_DEDUPE_RTOL, find_orbit, lq_bounds
from billiards.tables import ARC_INVERSE_TOL, CHORD_TOL, load_table


def _reject(token):
    """parse_constant for json.loads that refuses NaN and Infinity."""
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.fixture
def circle_cfg(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"kind": "circle", "R": 1.0}))
    return str(path)


@pytest.fixture
def ellipse_cfg(tmp_path):
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 2.0, "b": 1.0}))
    return str(path)


@pytest.fixture
def ellipse32_cfg(tmp_path):
    path = tmp_path / "ellipse32.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 3.0, "b": 2.0}))
    return str(path)


@pytest.fixture
def perturbed_cfg(tmp_path):
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps({"kind": "perturbed_circle", "R": 1.0,
                                "harmonics": [{"m": 3, "eps": 0.05, "phase": 0.0}]}))
    return str(path)


def read_summary(outdir):
    with open(outdir / "summary.json") as fh:
        return json.load(fh)


class TestBetaCommand:
    def test_circle_fit(self, circle_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["beta", "--table", circle_cfg, "--qmin", "10", "--qmax", "60",
                   "--out", str(out), "--threads", "1"])
        assert rc == 0
        summary = read_summary(out)
        assert abs(summary["c3"] - 1.0 / 24.0) < 1e-5
        assert summary["tool"] == "billiards"
        assert summary["version"]
        assert summary["tolerances"] == {
            "stationarity_per_perimeter": STAT_TOL_FACTOR,
            "fit_condition_limit": COND_LIMIT,
            "chord_parameter": CHORD_TOL,
            "value_dedupe_relative": VALUE_DEDUPE_RTOL,
            "arc_inverse_per_perimeter": ARC_INVERSE_TOL,
        }
        with open(out / "beta_samples.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["p"] == "1" and rows[0]["q"] == "10"
        report = json.loads((out / "invariant_report.json").read_text())
        assert report["beta_coeffs"]

    def test_solver_diagnostics(self, perturbed_cfg, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="billiards")
        out = tmp_path / "out"
        rc = main(["beta", "--table", perturbed_cfg, "--qmin", "10", "--qmax", "20",
                   "--out", str(out), "--threads", "1"])
        assert rc == 0
        with open(out / "beta_samples.csv") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["p", "q", "omega", "beta", "residual", "sweeps",
                                     "newton_steps", "converged", "candidates",
                                     "total_sweeps", "total_newton_steps"]
        assert [int(r["q"]) for r in rows] == list(range(10, 21))
        perimeter = read_summary(out)["perimeter"]
        for r in rows:
            assert float(r["residual"]) <= STAT_TOL_FACTOR * perimeter
            assert int(r["sweeps"]) >= 3 and int(r["newton_steps"]) >= 1
            assert r["converged"] == "1" and int(r["candidates"]) >= 1
            # all 8 starts of the q, the chosen one among them
            assert int(r["total_sweeps"]) >= 8 * 3
            assert int(r["total_sweeps"]) >= int(r["sweeps"])
            assert int(r["total_newton_steps"]) >= int(r["newton_steps"])
        q10 = rows[0]  # the maximal 10-gon of this table, solved from 8 starts
        assert (q10["sweeps"], q10["newton_steps"], q10["candidates"]) == ("3", "5", "2")
        orb = find_orbit(load_table(perturbed_cfg), 1, 10)
        assert (int(q10["total_sweeps"]), int(q10["total_newton_steps"])) == (
            orb.total_sweeps, orb.total_newton_steps)
        per_q = [rec for rec in caplog.records
                 if rec.name == "billiards.invariants" and rec.levelno == logging.INFO]
        assert len(per_q) == len(rows)
        with open(out / "invariant_report.json") as fh:
            report = json.load(fh)
        assert report["q"] == [int(r["q"]) for r in rows]
        assert report["residual"] == [float(r["residual"]) for r in rows]
        for name in ("sweeps", "newton_steps", "candidates", "total_sweeps",
                     "total_newton_steps"):
            assert report[name] == [int(r[name]) for r in rows]
        assert report["converged"] == [r["converged"] == "1" for r in rows]

    def test_report_is_strict_json(self, tmp_path):
        class Report:
            def to_dict(self):
                return {"condition": math.inf, "c": [1.0, math.nan]}

        orbit = SimpleNamespace(q=10, residual=math.nan, sweeps=3, newton_steps=4,
                                converged=False, candidates=[-6.2], total_sweeps=24,
                                total_newton_steps=30)
        samples = SimpleNamespace(orbits=[orbit])
        path = tmp_path / "invariant_report.json"
        cli._write_report(path, Report(), samples)
        report = json.loads(path.read_text(), parse_constant=_reject)
        assert report["condition"] is None and report["c"] == [1.0, None]
        assert report["residual"] == [None] and report["converged"] == [False]

    def test_ellipse_ell0(self, ellipse_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["beta", "--table", ellipse_cfg, "--qmin", "10", "--qmax", "60",
                   "--out", str(out), "--threads", "1"])
        assert rc == 0
        summary = read_summary(out)
        assert abs(summary["ell0"] - summary["perimeter"]) < 1e-6

    def test_eccentric_ellipse(self, tmp_path):
        # From equal-arc starts "max" found no orbit at q = 14 here (exit 3).
        table = tmp_path / "ellipse_thin.json"
        table.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 0.1}))
        out = tmp_path / "out"
        rc = main(["beta", "--table", str(table), "--qmin", "10", "--qmax", "20", "--K", "3",
                   "--out", str(out), "--threads", "1"])
        assert rc == 0
        with open(out / "beta_samples.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["q"]) for r in rows] == list(range(10, 21))
        assert all(r["converged"] == "1" for r in rows)
        assert abs(read_summary(out)["c3"] - 1.0 / 24.0) < 1e-4

    def test_malformed_table(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        rc = main(["beta", "--table", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestMmCommand:
    def test_circle(self, circle_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["mm", "--table", circle_cfg, "--qmin", "10", "--qmax", "40",
                   "--gap-step", "10", "--out", str(out), "--threads", "1"])
        assert rc == 0
        with open(out / "mm_table.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            q = int(row["q"])
            assert float(row["L_q"]) == pytest.approx(
                2 * q * math.sin(math.pi / q), abs=1e-9
            )
            assert float(row["L_q"]) >= float(row["l_q"])
        with open(out / "invariant_report.json") as fh:
            report = json.load(fh)
        assert report["q"] == list(range(10, 41))
        assert all(report["converged"]) and min(report["candidates"]) >= 1

    def test_gap_diagnostics(self, perturbed_cfg, tmp_path, caplog):
        # after beta, the residual and the Newton steps of all starts of the
        # max-class and of the min-class solve behind L_q and l_q
        caplog.set_level(logging.INFO, logger="billiards")
        out = tmp_path / "out"
        rc = main(["mm", "--table", perturbed_cfg, "--qmin", "10", "--qmax", "20",
                   "--gap-step", "5", "--out", str(out), "--threads", "1"])
        assert rc == 0
        with open(out / "mm_table.csv") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        per_q = [rec for rec in caplog.records
                 if rec.name == "billiards.orbits" and rec.levelno == logging.INFO]
        assert len(per_q) == len(rows) == 3
        assert reader.fieldnames == ["q", "L_q", "l_q", "beta", "max_residual",
                                     "max_total_newton_steps", "min_residual",
                                     "min_total_newton_steps"]
        bounds = lq_bounds(load_table(perturbed_cfg), [10, 15, 20])
        assert [int(r["q"]) for r in rows] == [10, 15, 20]
        perimeter = read_summary(out)["perimeter"]
        for r, (big, small, upper, lower) in zip(rows, bounds):
            assert (float(r["L_q"]), float(r["l_q"])) == (big, small)
            assert float(r["max_residual"]) == upper.residual
            assert float(r["min_residual"]) == lower.residual
            assert max(upper.residual, lower.residual) <= STAT_TOL_FACTOR * perimeter
            assert int(r["max_total_newton_steps"]) == upper.total_newton_steps >= 1
            assert int(r["min_total_newton_steps"]) == lower.total_newton_steps >= 1

    def test_solves_each_max_orbit_once(self, ellipse_cfg, perturbed_cfg, tmp_path,
                                        monkeypatch):
        # the gap q take their maximal orbits from the beta sweep; the ellipse
        # takes its minimal ones from them too (both classes are one solve at
        # q > 2), the perturbed circle solves them in one "min" batch
        solved = []
        find = orbits_mod.find_orbits

        def counted(table, p, qs, orbit_class="max"):
            solved.append((orbit_class, sorted(qs)))
            return find(table, p, qs, orbit_class)

        monkeypatch.setattr(orbits_mod, "find_orbits", counted)
        monkeypatch.setattr(invariants_mod, "find_orbits", counted)
        for cfg, min_batches in ((ellipse_cfg, []), (perturbed_cfg, [[10, 15, 20]])):
            solved.clear()
            rc = main(["mm", "--table", cfg, "--qmin", "10", "--qmax", "20", "--gap-step",
                       "5", "--out", str(tmp_path / "out"), "--threads", "1"])
            assert rc == 0
            assert sum((qs for cls, qs in solved if cls == "max"), []) == list(range(10, 21))
            assert [qs for cls, qs in solved if cls == "min"] == min_batches


class TestCompareCommand:
    def test_scaled_pair(self, circle_cfg, tmp_path):
        big = tmp_path / "circle3.json"
        big.write_text(json.dumps({"kind": "circle", "R": 3.0}))
        out = tmp_path / "out"
        rc = main(["compare", "--table", circle_cfg, "--table2", str(big),
                   "--qmin", "10", "--qmax", "60", "--out", str(out),
                   "--threads", "1"])
        assert rc == 0
        summary = read_summary(out)
        for entry in summary["coefficients"]:
            assert entry["rel_diff"] < 1e-4
        with open(out / "ratio_table.csv") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["n", "measured", "predicted", "deviation"]
        assert [int(r["n"]) for r in rows] == [1, 2, 3]
        assert float(rows[0]["deviation"]) < 1e-3

    def test_bad_q_range_is_1(self, ellipse_cfg, ellipse32_cfg, tmp_path, capsys, monkeypatch):
        # the beta/mm check, before any orbit is solved: q = 2..9 would be
        # solved and then dropped by the fit (omega > OMEGA_MAX)
        def unreachable(*a, **k):
            raise AssertionError("sample_beta called")

        monkeypatch.setattr(cli, "sample_beta", unreachable)
        rc = main(["compare", "--table", ellipse_cfg, "--table2", ellipse32_cfg,
                   "--qmin", "2", "--qmax", "20", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("billiards: q_min must be >= 5") and err.count("\n") == 1


class TestConjugacyCommand:
    def test_identity(self, ellipse_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["conjugacy", "--table", ellipse_cfg, "--table2", ellipse_cfg,
                   "--grid", "24", "8", "--out", str(out)])
        assert rc == 0
        summary = read_summary(out)
        assert summary["max_residual"] < 1e-10

    def test_pair_below_threshold(self, ellipse_cfg, ellipse32_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["conjugacy", "--table", ellipse_cfg, "--table2", ellipse32_cfg,
                   "--grid", "24", "8", "--threshold", "1e-6", "--out", str(out)])
        assert rc == 0
        with open(out / "conjugacy_residuals.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["s", "theta", "residual_s", "residual_theta"]

    def test_stage_timings(self, ellipse_cfg, ellipse32_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["conjugacy", "--table", ellipse_cfg, "--table2", ellipse32_cfg,
                   "--grid", "24", "8", "--out", str(out)])
        assert rc == 0
        summary = read_summary(out)
        timings = summary["timings"]
        assert list(timings) == ["load", "build", "grid", "write"]
        assert all(math.isfinite(v) and v >= 0.0 for v in timings.values())
        assert 0.0 <= summary["max_omega_residual"] <= 1e-10

    def test_nan_residual_fails_threshold(self, ellipse_cfg, tmp_path, monkeypatch):
        def nan_grid(self, **kw):
            return (np.zeros(2), np.zeros(2), np.array([0.0, 1e-12]),
                    np.array([np.nan, 0.0]))

        monkeypatch.setattr(ConjugacyMap, "residual_grid", nan_grid)
        out = tmp_path / "out"
        rc = main(["conjugacy", "--table", ellipse_cfg, "--table2", ellipse_cfg,
                   "--threshold", "1e-6", "--out", str(out)])
        assert rc == 4

        summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject)
        assert summary["max_residual"] is None

    def test_requires_ellipses(self, perturbed_cfg, ellipse_cfg, tmp_path, capsys):
        rc = main(["conjugacy", "--table", perturbed_cfg, "--table2", ellipse_cfg,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "elliptic tables" in capsys.readouterr().err

    def test_circle_is_the_round_ellipse(self, circle_cfg, ellipse_cfg, tmp_path):
        round_cfg = tmp_path / "round.json"
        round_cfg.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 1.0}))
        out = {}
        for name, cfg in (("circle", circle_cfg), ("round", str(round_cfg))):
            out[name] = tmp_path / name
            rc = main(["conjugacy", "--table", ellipse_cfg, "--table2", cfg,
                       "--grid", "12", "4", "--out", str(out[name])])
            assert rc == 0
        assert ((out["circle"] / "conjugacy_residuals.csv").read_bytes()
                == (out["round"] / "conjugacy_residuals.csv").read_bytes())

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_1(self, ellipse_cfg, ellipse32_cfg, tmp_path,
                                       capsys, threshold):
        # a configuration error before any work, not a residual failure (4)
        out = tmp_path / "o"
        rc = main(["conjugacy", "--table", ellipse_cfg, "--table2", ellipse32_cfg,
                   "--grid", "4", "2", f"--threshold={threshold}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("billiards: --threshold must be finite") and err.count("\n") == 1
        assert not (out / "conjugacy_residuals.csv").exists()

    @pytest.mark.parametrize("threshold", ["-1", "-1e-300"])
    def test_negative_threshold_is_1(self, ellipse_cfg, ellipse32_cfg, tmp_path, capsys,
                                     threshold):
        # no residual is below a negative threshold, so it could only exit 4
        out = tmp_path / "o"
        rc = main(["conjugacy", "--table", ellipse_cfg, "--table2", ellipse32_cfg,
                   "--grid", "4", "2", f"--threshold={threshold}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("billiards: --threshold must be") and ">= 0" in err
        assert err.count("\n") == 1
        assert not (out / "conjugacy_residuals.csv").exists()


class TestWitnessCommand:
    def test_distinct_eccentricities(self, tmp_path):
        t1 = tmp_path / "e08.json"
        b1 = math.sqrt(1 - 0.8**2)
        t1.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": b1}))
        t2 = tmp_path / "e05.json"
        b2 = math.sqrt(1 - 0.5**2)
        t2.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": b2}))
        out = tmp_path / "out"
        rc = main(["witness", "--table", str(t1), "--table2", str(t2),
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "witness.json").read_text())
        assert (payload["m"], payload["n"]) == (1, 4)
        assert payload["xi_root"] is not None
        assert payload["u_min"] is not None and payload["u_min"] > 0

    def test_equal_eccentricities(self, ellipse_cfg, tmp_path):
        scaled = tmp_path / "double.json"
        scaled.write_text(json.dumps({"kind": "ellipse", "a": 4.0, "b": 2.0}))
        out = tmp_path / "out"
        rc = main(["witness", "--table", ellipse_cfg, "--table2", str(scaled),
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "witness.json").read_text())
        assert payload["m"] is None and payload["n"] is None

    def test_degenerate_circles(self, circle_cfg, tmp_path):
        other = tmp_path / "circle2.json"
        other.write_text(json.dumps({"kind": "circle", "R": 2.0}))
        # a circle is the a = b ellipse: an equal-eccentricity pair
        out = tmp_path / "o"
        rc = main(["witness", "--table", circle_cfg, "--table2", str(other),
                   "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "witness.json").read_text())["m"] is None
        # the same degenerate pair as ellipses with a == b
        c1 = tmp_path / "c1.json"
        c1.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 1.0}))
        c2 = tmp_path / "c2.json"
        c2.write_text(json.dumps({"kind": "ellipse", "a": 3.0, "b": 3.0}))
        out = tmp_path / "out"
        rc = main(["witness", "--table", str(c1), "--table2", str(c2),
                   "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "witness.json").read_text())["m"] is None

    def test_decides_each_ellipse_once(self, tmp_path, monkeypatch):
        # one hyperbolic-orbit decision per ellipse, shared by the witness
        # search and the payload (4 calls when the command decided again)
        calls = []
        real = ellipse_maps.hyperbolic_orbit_exists

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ellipse_maps, "hyperbolic_orbit_exists", counted)
        monkeypatch.setattr(cli, "hyperbolic_orbit_exists", counted, raising=False)
        t1 = tmp_path / "e08.json"
        t1.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 0.6}))
        t2 = tmp_path / "e062.json"
        t2.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 0.62}))
        rc = main(["witness", "--table", str(t1), "--table2", str(t2),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(calls) == 2

    def test_circle_partner_is_strict_json(self, tmp_path):
        # the circle's positivity margin is infinite: null, not Infinity
        t1 = tmp_path / "e.json"
        t1.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 0.6}))
        t2 = tmp_path / "c.json"
        t2.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 1.0}))
        out = tmp_path / "out"
        rc = main(["witness", "--table", str(t1), "--table2", str(t2), "--out", str(out)])
        assert rc == 0
        for name in ("witness.json", "summary.json"):
            payload = json.loads((out / name).read_text(), parse_constant=_reject)
            assert payload["m"] is not None and payload["u_min"] is None


    def test_circle_is_the_round_ellipse(self, circle_cfg, tmp_path):
        # the circle file and the a = b ellipse file give one witness.json;
        # u_min is null for the circle partner
        t1 = tmp_path / "e.json"
        t1.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 0.6}))
        round_cfg = tmp_path / "round.json"
        round_cfg.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 1.0}))
        out = {}
        for name, cfg in (("circle", circle_cfg), ("round", str(round_cfg))):
            out[name] = tmp_path / name
            rc = main(["witness", "--table", str(t1), "--table2", cfg, "--out", str(out[name])])
            assert rc == 0
        payload = (out["circle"] / "witness.json").read_bytes()
        assert payload == (out["round"] / "witness.json").read_bytes()
        payload = json.loads(payload, parse_constant=_reject)
        assert payload["m"] is not None and payload["u_min"] is None


class TestGoldenOutputs:
    """Outputs pinned bit for bit: a faster elliptic layer must reproduce
    them exactly (float.hex of the summary numbers, sha256 of the CSV)."""

    def test_conjugacy_21_vs_32(self, ellipse_cfg, ellipse32_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["conjugacy", "--table", ellipse_cfg, "--table2", ellipse32_cfg,
                   "--grid", "40", "10", "--out", str(out)])
        assert rc == 0
        digest = hashlib.sha256((out / "conjugacy_residuals.csv").read_bytes()).hexdigest()
        assert digest == "870cdba892c1eee706bbe1e48056f1af053cde78db6c2b41a6fefc25efc993a9"
        summary = read_summary(out)
        assert summary["theta3_star"].hex() == "0x1.d8e6de6f4219bp-2"
        assert summary["theta_star"] == summary["theta3_star"]
        assert summary["max_residual"].hex() == "0x1.8000000000000p-48"
        assert summary["max_omega_residual"].hex() == "0x1.0000000000000p-53"

    def test_witness_21_vs_5_15(self, ellipse_cfg, tmp_path):
        t2 = tmp_path / "e515.json"
        t2.write_text(json.dumps({"kind": "ellipse", "a": 5.0, "b": 1.5}))
        out = tmp_path / "out"
        rc = main(["witness", "--table", ellipse_cfg, "--table2", str(t2), "--out", str(out)])
        assert rc == 0
        summary = read_summary(out)
        assert (summary["m"], summary["n"]) == (1, 6)
        hexes = {k: summary[k].hex() for k in ("e1", "e2", "xi_root", "u_min")}
        assert hexes == {"e1": "0x1.bb67ae8584caap-1", "e2": "0x1.e86ab810ea912p-1",
                         "xi_root": "-0x1.2bc14e5e0a735p+1", "u_min": "0x1.d0f1b9b000000p-24"}
        assert [v.hex() for v in summary["interval"]] == ["0x1.8d41e8c042c2dp-4",
                                                          "0x1.5555555555556p-3"]
        assert json.loads((out / "witness.json").read_text()) == {
            k: summary[k] for k in ("e1", "e2", "interval", "m", "n", "xi_root", "u_min")}


    @pytest.mark.parametrize("args, rc, stages, digests", [
        (["beta", "--table", "{pert}", "--qmin", "10", "--qmax", "24"], 0,
         ["load", "sample", "fit", "write"],
         {"beta_samples.csv": "6f7ebcdb783e74911a65358c0c5e3e44dee70a9469135f14253eb6086362b4cd",
          "invariant_report.json":
              "bb050c73e3582876f6b651020a7ad1c115feee66097693f78590fd73cf4b6ded",
          "summary.json": "230185738bd61bc9e3406370ed7c853aed39d34edb79cd42cdc026b2b5c09845"}),
        (["mm", "--table", "{pert}", "--qmin", "10", "--qmax", "24", "--gap-step", "7"], 0,
         ["load", "sample", "fit", "gaps", "write"],
         {"mm_table.csv": "bbeca1b87caa4f44ef7b31219604f4e96e71a0cf66a722d90df99a836e88659c",
          "invariant_report.json":
              "bb050c73e3582876f6b651020a7ad1c115feee66097693f78590fd73cf4b6ded",
          "summary.json": "ec282168154dbe931df97f936f1aaf66a17e02e7f4e87c3a0a8532c455bc8583"}),
        (["mm", "--table", "{e21}", "--qmin", "10", "--qmax", "30"], 0,
         ["load", "sample", "fit", "gaps", "write"],
         {"mm_table.csv": "26909bd72679dc1730b26a0595bfffe452420ed8882b0680154309b869afc8a2",
          "invariant_report.json":
              "a9fa74654fa893a7258aa89381135028ebedfde5d14c21da8f0dc0a3bdc5535f",
          "summary.json": "09b2f11c7d7d686ecad0a727a8cd1a5cff1866792dbebfab38df120af6342b4d"}),
        (["compare", "--table", "{e21}", "--table2", "{e32}", "--qmin", "10", "--qmax", "40"], 0,
         ["load", "sample", "fit", "write"],
         {"ratio_table.csv": "c1e9042b063f370d2da4e51262a6cee63926464ca1fdc332090917cb65f32314",
          "summary.json": "ffdf57edd57bebfe392b3229cdcb7cc9bee293955695f2bfc3cfd4cab8bf4229"}),
        (["witness", "--table", "{e21}", "--table2", "{e32}"], 0,
         ["load", "witness", "write"],
         {"witness.json": "7a6b1aec728d4b2add675ad043105e9868d2cf6c651174680d50514436f996c3",
          "summary.json": "57034cabe1273bc09f3aad6e7345e50001e4b447806a2114561314bdc0ebc1c6"}),
        (["orbit", "--table", "{pert}", "--pq", "2", "7", "--orbit-class", "min"], 0,
         ["load", "solve", "write"],
         {"orbit_2_7_min.csv": "e16373b01f2e8057a3e78929e4bac7c6ce4d2044d5cd02587f03fb27fa9eef21",
          "summary.json": "48042ae26e62dce5dd2bb6395c3c5996bc90f9236f17bc2cc5e919655c65cf69"}),
        (["orbit", "--table", "{pert}", "--s0", "0.3", "--theta0", "1.1", "--steps", "50"], 0,
         ["load", "iterate", "write"],
         {"trajectory.csv": "a2bdfbaee9e01e1d2eb6e538e8b5f1b243158a6990ebc258745f01f03842388a",
          "summary.json": "f2336edaa1351b5edc4f7dece77b9c7735bf46351470ceb14e16744cbf26fc5f"}),
        (["conjugacy", "--table", "{e21}", "--table2", "{e32}", "--grid", "8", "4",
          "--threshold", "0"], 4,
         ["load", "build", "grid", "write"],
         {"conjugacy_residuals.csv":
              "eb78971389979f4fd2db683f8787f3452e3fea56afb69c0d44df5c7577e18f7c",
          "summary.json": "bf987514fb8e420a4633d1ab361d1ec7823a7a06bd5658e631500021de06d00e"}),
    ], ids=["beta", "mm-perturbed", "mm-ellipse", "compare", "witness", "orbit-pq-min",
            "trajectory", "conjugacy-exit-4"])
    def test_command_bytes(self, perturbed_cfg, ellipse_cfg, ellipse32_cfg, tmp_path,
                           args, rc, stages, digests):
        # every data file by sha256, and summary.json by the sha256 of its
        # json.dumps (key order kept) without the run-dependent timings and
        # outputs; the stage names are pinned on their own
        tables = {"pert": perturbed_cfg, "e21": ellipse_cfg, "e32": ellipse32_cfg}
        out = tmp_path / "out"
        assert main([a.format(**tables) for a in args] + ["--out", str(out)]) == rc
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        summary = read_summary(out)
        assert list(summary.pop("timings")) == stages
        del summary["outputs"]
        got["summary.json"] = hashlib.sha256(json.dumps(summary).encode()).hexdigest()
        assert got == digests

    def test_bad_q_range_writes_no_summary(self, perturbed_cfg, ellipse_cfg, ellipse32_cfg,
                                           tmp_path, capsys):
        # a command refused for its own arguments leaves no --out behind
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        for i, (args, err) in enumerate([
            (["beta", "--table", perturbed_cfg, "--qmin", "3"], "q_min must be >= 5, got 3"),
            (["mm", "--table", perturbed_cfg, "--gap-step", "0"],
             "--gap-step must be >= 1, got 0"),
            (["conjugacy", "--table", ellipse_cfg, "--table2", ellipse32_cfg, "--threshold", "-1"],
             "--threshold must be finite and >= 0, got -1.0"),
            (["witness", "--table", str(bad), "--table2", ellipse32_cfg],
             f"table file {bad} is not valid JSON: "),
        ]):
            out = tmp_path / f"out{i}"
            assert main(args + ["--out", str(out)]) == 1
            msg = capsys.readouterr().err
            assert msg.startswith(f"billiards: {err}") and msg.count("\n") == 1
            assert not out.exists()


@pytest.mark.parametrize("rows", [
    [[0, 1.5, True, 1e16, 1e-300],
     [np.int64(7), np.float64(0.1), False, math.nan, math.inf],
     [-3, -0.0, np.float64(-math.inf), np.float64(1e16), np.float64(-1e-300)],
     [np.int64(-1), np.float64(-0.0), 2.0 / 3.0, -math.nan, 123456789012345678]],
    [],
], ids=["mixed", "header-only"])
def test_write_csv_is_csv_writer_bytes(tmp_path, rows):
    # the reference: csv.writer on the same rows with each bool cast to int
    header = ("n", "value", "flag", "big", "tiny")
    cli._write_csv(tmp_path / "got.csv", header, rows)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([int(v) if isinstance(v, bool) else v for v in row] for row in rows)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == len(rows) + 1


def test_write_json_is_json_dump_bytes(tmp_path):
    # the bytes json.dump streams, built first and written in one call; an
    # object that cannot be encoded leaves no file
    obj = {"a": [1, 2.5, math.nan, -math.inf], "b": {"c": "x", "d": [np.float64(0.1), (3, 4)]},
           "e": "\u00e9\n", "f": True, "g": None, "h": {}, "i": []}
    path = tmp_path / "got.json"
    cli._write_json(path, obj)
    with open(tmp_path / "want.json", "w") as fh:
        json.dump(cli._strict(obj), fh, indent=2, allow_nan=False)
    assert path.read_bytes() == (tmp_path / "want.json").read_bytes()
    bad = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        cli._write_json(bad, {"a": 1, "b": object()})
    assert not bad.exists()


class TestOrbitCommand:
    def test_unresolved_s0_is_1(self, perturbed_cfg, tmp_path, capsys):
        # at s0 = 1e17 one ulp is 16: every row would show one s and x
        out = tmp_path / "o"
        rc = main(["orbit", "--table", perturbed_cfg, "--s0", "1e17", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("billiards: trajectory: s0 = 1e+17") and err.count("\n") == 1
        assert not (out / "trajectory.csv").exists()

    def test_periodic_export(self, ellipse_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["orbit", "--table", ellipse_cfg, "--pq", "1", "5",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "orbit_1_5_max.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert set(rows[0]) == {"i", "s_i", "x_i", "y_i"}

    def test_trajectory_export(self, circle_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["orbit", "--table", circle_cfg, "--theta0", "0.7",
                   "--steps", "20", "--out", str(out)])
        assert rc == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "s", "theta", "x", "y_plane_x", "y_plane_y"]
        assert len(rows) == 22  # header + 21 states
        assert [int(r[0]) for r in rows[1:]] == list(range(21))
        # x column is the lift, strictly increasing; s column its reduction
        x = np.array([float(r[3]) for r in rows[1:]])
        assert np.all(np.diff(x) > 0)
        ell = load_table(circle_cfg).perimeter
        assert [float(r[1]) for r in rows[1:]] == [float(r[3]) % ell for r in rows[1:]]
        # one bounce on the unit circle advances s by 2 theta0
        assert read_summary(out)["rotation_number"] == pytest.approx(0.7 / math.pi, abs=1e-12)

    def test_trajectory_near_boundary(self, perturbed_cfg, tmp_path):
        # 200 bounces at theta0 = 1e-7 on the m = 3 perturbed circle: the ball
        # moves forward at every bounce and obeys the reflection law
        out = tmp_path / "out"
        rc = main(["orbit", "--table", perturbed_cfg, "--theta0", "1e-7",
                   "--steps", "200", "--out", str(out)])
        assert rc == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        x = np.array([float(r["x"]) for r in rows])
        theta = np.array([float(r["theta"]) for r in rows])
        assert len(rows) == 201
        assert np.all(np.diff(x) > 0.0) and np.all(theta > 0.0)
        table = load_table(perturbed_cfg)
        for i in range(200):
            _, d_s, d_s2 = generating(table, x[i], x[i + 1])
            assert abs(d_s + math.cos(theta[i])) <= 1e-9, i
            assert abs(d_s2 - math.cos(theta[i + 1])) <= 1e-9, i

    @pytest.mark.parametrize("s0", ["nan", "inf"])
    def test_non_finite_s0(self, perturbed_cfg, tmp_path, capsys, s0):
        # a typed error and one message line, not a traceback from the arc lookup
        rc = main(["orbit", "--table", perturbed_cfg, "--s0", s0,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("billiards: arc length must be finite") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["beta", "--qmin", "10", "--qmax", "20"],
    ["mm", "--qmin", "10", "--qmax", "20", "--gap-step", "5"],
    ["compare", "--table2", "{table2}", "--qmin", "10", "--qmax", "20"],
    ["conjugacy", "--table2", "{table2}", "--grid", "8", "4"],
    ["witness", "--table2", "{table2}"],
    ["orbit", "--pq", "1", "5"],
    ["orbit", "--steps", "10"],
], ids=["beta", "mm", "compare", "conjugacy", "witness", "orbit-pq", "orbit-trajectory"])
def test_summary_names_every_output(ellipse_cfg, ellipse32_cfg, tmp_path, args):
    out = tmp_path / "out"
    argv = [a.format(table2=ellipse32_cfg) for a in args]
    assert main([*argv, "--table", ellipse_cfg, "--out", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir() if p.name != "summary.json")
    outputs = read_summary(out)["outputs"]
    assert all(Path(o).parent == out for o in outputs)
    assert sorted(Path(o).name for o in outputs) == written and written


class TestExitCodes:
    def test_conditioning_failure_is_2(self, circle_cfg, tmp_path, monkeypatch):
        import math

        import numpy as np

        from billiards.invariants import BetaSamples

        def degenerate_samples(*a, **k):
            qs = np.arange(10**6, 10**6 + 9)
            om = 1.0 / qs
            return BetaSamples(np.ones_like(qs), qs, om,
                               -2.0 * np.sin(math.pi * om), 2 * math.pi, 2 * math.pi)

        monkeypatch.setattr(cli, "sample_beta", degenerate_samples)
        rc = main(["beta", "--table", circle_cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_solver_failure_is_3(self, circle_cfg, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise SolverError("forced failure")

        monkeypatch.setattr(cli, "sample_beta", boom)
        rc = main(["beta", "--table", circle_cfg, "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_singular_lm_solve_is_3(self, ellipse_cfg, tmp_path, monkeypatch):
        # the shifted LM system cannot be singular; if a zero Hessian makes
        # it so anyway (sigma = 0 too), the sweep meets a zero pivot and the
        # orbit solver fails like any other solver failure
        lm_step = orbits_mod._lm_step

        def singular(diag, off, F, q, mu):
            return lm_step(np.zeros_like(diag), np.zeros_like(off), F, q, mu)

        monkeypatch.setattr(orbits_mod, "_lm_step", singular)
        rc = main(["orbit", "--table", ellipse_cfg, "--pq", "1", "5",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("args, message", [
        (["conjugacy", "--table2", "{table}", "--grid", "0", "10"], "n_s"),
        (["mm", "--qmin", "10", "--qmax", "20", "--gap-step", "0"], "--gap-step"),
        (["mm", "--qmin", "10", "--qmax", "20", "--gap-step", "-5"], "--gap-step"),
    ], ids=["empty-grid", "gap-step-0", "gap-step-negative"])
    def test_bad_grid_or_gap_is_1(self, ellipse_cfg, tmp_path, capsys, args, message):
        # a configuration error: neither a solver failure (3) nor an argparse
        # error (2, the code of conditioning failures)
        argv = [a.format(table=ellipse_cfg) for a in args]
        rc = main([*argv, "--table", ellipse_cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("billiards: ") and message in err
        assert "Traceback" not in err and "solver failure" not in err

    @pytest.mark.parametrize("text", [
        '{"kind": "circle", "R": NaN}',
        '{"kind": "circle", "R": Infinity}',
        '{"kind": "ellipse", "a": Infinity, "b": 1.0}',
        '{"kind": "perturbed_circle", "R": 1.0, "harmonics": [{"m": 3, "eps": NaN}]}',
        '{"kind": "perturbed_circle", "R": 1.0, "harmonics": [{"m": 3, "eps": 0.05, "phase": NaN}]}',
        '{"kind": "perturbed_circle", "R": 1.0, "harmonics": [{"m": 2.5, "eps": 0.05}]}',
        '{"kind": "perturbed_circle", "R": 1.0, "harmonic": [{"m": 3, "eps": 0.05}]}',
        '{"kind": "ellipse", "a": true, "b": 1.0}',
        '{"kind": "perturbed_circle", "R": 1.0, "harmonics": {"m": 3}}',
    ], ids=["circle-nan", "circle-inf", "ellipse-inf", "eps-nan", "phase-nan", "m-fraction",
            "misspelled-field", "bool-value", "harmonics-object"])
    def test_bad_table_value_is_1(self, tmp_path, capsys, text):
        path = tmp_path / "table.json"
        path.write_text(text)
        out = tmp_path / "o"
        rc = main(["orbit", "--table", str(path), "--theta0", "0.5", "--steps", "5",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("billiards: ") and err.count("\n") == 1
        assert not (out / "trajectory.csv").exists()

    def test_radial_profile_through_zero_is_1(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"kind": "perturbed_circle", "R": 1.0,
                                    "harmonics": [{"m": 1, "eps": 1.2, "phase": 0.0}]}))
        rc = main(["orbit", "--table", str(path), "--theta0", "0.5", "--steps", "5",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("billiards: radial profile reaches zero")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, qmin, qmax, K, message", [
        ("beta", 1, 20, 3, "q_min must be >= 5"),
        ("mm", 3, 20, 3, "q_min must be >= 5"),
        ("beta", 10, 16, 3, "q range must span at least 8"),
        ("mm", 10, 14, 2, "q range must span at least 6"),
    ], ids=["beta-qmin-1", "mm-qmin-3", "beta-short", "mm-short-K2"])
    def test_bad_q_range_is_1(self, ellipse_cfg, tmp_path, capsys, monkeypatch,
                              command, qmin, qmax, K, message):
        # mm_invariants' check, made before any orbit is solved
        def unreachable(*a, **k):
            raise AssertionError("sample_beta called")

        monkeypatch.setattr(cli, "sample_beta", unreachable)
        rc = main([command, "--table", ellipse_cfg, "--qmin", str(qmin), "--qmax", str(qmax),
                   "--K", str(K), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"billiards: {message}") and err.count("\n") == 1
        with pytest.raises(DomainError, match=message):
            invariants_mod.mm_invariants(load_table(ellipse_cfg), (qmin, qmax), K)

    @pytest.mark.parametrize("command, K", [("mm", "0"), ("beta", "-1"), ("compare", "0")])
    def test_K_below_one_solves_no_orbit(self, ellipse_cfg, ellipse32_cfg, tmp_path, capsys,
                                         monkeypatch, command, K):
        # K = 0 and K = -1 pass the span check (2K + 2 values of q); the fit
        # refused them only after the whole q range had been solved
        solved = []

        def spy(*a, **k):
            solved.append(a)
            raise AssertionError("find_orbits called")

        monkeypatch.setattr(orbits_mod, "find_orbits", spy)
        monkeypatch.setattr(invariants_mod, "find_orbits", spy)
        tables = ["--table", ellipse_cfg] + (["--table2", ellipse32_cfg] if command == "compare"
                                              else [])
        out = tmp_path / "o"
        rc = main([command, *tables, "--qmin", "10", "--qmax", "60", "--K", K,
                   "--out", str(out), "--threads", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"billiards: K must be >= 1, got {K}\n"
        assert not out.exists()
        with pytest.raises(DomainError, match="K must be >= 1"):
            invariants_mod.mm_invariants(load_table(ellipse_cfg), (10, 60), int(K))
        assert solved == []

    @pytest.mark.parametrize("command, threads", [("beta", "-3"), ("mm", "0"),
                                                   ("orbit", "-1")])
    def test_threads_below_one_is_1(self, ellipse_cfg, tmp_path, capsys, monkeypatch,
                                    command, threads):
        # sample_beta would run a negative count serially without a word
        def unreachable(*a, **k):
            raise AssertionError("sample_beta called")

        monkeypatch.setattr(cli, "sample_beta", unreachable)
        out = tmp_path / "o"
        rc = main([command, "--table", ellipse_cfg, "--threads", threads, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"billiards: --threads must be >= 1, got {threads}\n"
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
    def test_unwritable_out_is_1(self, ellipse_cfg, ellipse32_cfg, tmp_path, capsys, under):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "sub" if under else blocker
        rc = main(["witness", "--table", ellipse_cfg, "--table2", ellipse32_cfg,
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"billiards: cannot write {out}: ") and err.count("\n") == 1
        assert blocker.read_text() == "x"

    def test_unwritable_output_file_is_1(self, ellipse_cfg, ellipse32_cfg, tmp_path, capsys):
        # a directory where the data file goes: open() fails inside the command
        out = tmp_path / "o"
        (out / "witness.json").mkdir(parents=True)
        rc = main(["witness", "--table", ellipse_cfg, "--table2", ellipse32_cfg,
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"billiards: cannot write {out / 'witness.json'}: ")
        assert err.count("\n") == 1 and not (out / "summary.json").exists()

    def test_computation_oserror_is_not_relabelled(self, ellipse_cfg, ellipse32_cfg,
                                                   tmp_path, monkeypatch):
        def failing(*a, **k):
            raise OSError("raised by the computation")

        monkeypatch.setattr(cli, "_witness_decisions", failing)
        with pytest.raises(OSError, match="raised by the computation"):
            main(["witness", "--table", ellipse_cfg, "--table2", ellipse32_cfg,
                  "--out", str(tmp_path / "o")])

    def test_version_flag(self, capsys):
        rc = main(["--version"])
        assert rc == 0
        assert "billiards" in capsys.readouterr().out


def test_parser_built_once(ellipse_cfg, tmp_path, monkeypatch, capsys):
    # main parses with the parser built on import; a parse error (exit 2)
    # or --version (exit 0) leaves it parsing the next call as the first
    calls = []
    monkeypatch.setattr(cli, "_parser", lambda: calls.append(1))
    argv = ["orbit", "--table", ellipse_cfg, "--theta0", "0.4", "--steps", "30"]

    def run(i):
        out = tmp_path / f"out{i}"
        assert main([*argv, "--out", str(out)]) == 0
        summary = read_summary(out)
        del summary["timings"], summary["outputs"]
        return (out / "trajectory.csv").read_bytes(), summary

    first = run(0)
    assert main([*argv, "--no-such-flag"]) == 2
    assert run(1) == first
    assert main(["--version"]) == 0
    assert run(2) == first
    assert main(["beta"]) == 2  # --table missing
    assert run(3) == first
    assert not calls


def test_threads_default_is_one():
    # each worker's BLAS starts its own threads, so the default is one process
    assert cli._parser().parse_args(["beta", "--table", "t.json"]).threads == 1
