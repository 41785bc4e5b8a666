import csv
import json
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

import billiards.cli as cli
import billiards.ellipse_maps as ellipse_maps
from billiards.cli import main
from billiards.dynamics import generating
from billiards.ellipse_maps import ConjugacyMap
from billiards.errors import SolverError
from billiards.invariants import COND_LIMIT
from billiards.orbits import STAT_TOL_FACTOR
from billiards.tables import CHORD_TOL, load_table


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
                                     "newton_steps", "converged", "candidates"]
        assert [int(r["q"]) for r in rows] == list(range(10, 21))
        perimeter = read_summary(out)["perimeter"]
        for r in rows:
            assert float(r["residual"]) <= STAT_TOL_FACTOR * perimeter
            assert int(r["sweeps"]) >= 3 and int(r["newton_steps"]) >= 1
            assert r["converged"] == "1" and int(r["candidates"]) >= 1
        q10 = rows[0]  # the maximal 10-gon of this table, solved from 8 starts
        assert (q10["sweeps"], q10["newton_steps"], q10["candidates"]) == ("3", "4", "2")
        per_q = [rec for rec in caplog.records
                 if rec.name == "billiards.invariants" and rec.levelno == logging.INFO]
        assert len(per_q) == len(rows)
        with open(out / "invariant_report.json") as fh:
            report = json.load(fh)
        assert report["q"] == [int(r["q"]) for r in rows]
        assert report["residual"] == [float(r["residual"]) for r in rows]
        for name in ("sweeps", "newton_steps", "candidates"):
            assert report[name] == [int(r[name]) for r in rows]
        assert report["converged"] == [r["converged"] == "1" for r in rows]

    def test_report_is_strict_json(self, tmp_path):
        class Report:
            def to_dict(self):
                return {"condition": math.inf, "c": [1.0, math.nan]}

        samples = SimpleNamespace(q=[10], residual=[math.nan], sweeps=[3], newton_steps=[4],
                                  converged=[False], candidates=[1])
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
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["deviation"]) < 1e-3


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

    def test_requires_ellipses(self, circle_cfg, ellipse_cfg, tmp_path, capsys):
        rc = main(["conjugacy", "--table", circle_cfg, "--table2", ellipse_cfg,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "elliptic tables" in capsys.readouterr().err


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
        # circles are not EllipseTable configs, so this is a config error
        rc = main(["witness", "--table", circle_cfg, "--table2", str(other),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        # degenerate equal-eccentricity pair as ellipses with a == b
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


class TestOrbitCommand:
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
        assert len(rows) == 22  # header + 21 states
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
        # the shifted LM system cannot be singular; if LAPACK says so anyway,
        # the orbit solver fails like any other solver failure
        def singular(*a, **k):
            raise np.linalg.LinAlgError("forced singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        rc = main(["orbit", "--table", ellipse_cfg, "--pq", "1", "5",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_version_flag(self, capsys):
        rc = main(["--version"])
        assert rc == 0
        assert "billiards" in capsys.readouterr().out
