import csv
import json
import math

import numpy as np
import pytest

from billiards import (
    CircleTable,
    DomainError,
    EllipseTable,
    PerturbedCircleTable,
    PhasePoint,
    generating,
    rotation_estimate,
    step,
    step_lifted,
    trajectory,
)
from billiards.cli import main
from billiards.dynamics import TANGENCY_CUTOFF, step_angle

TWO_PI = 2.0 * math.pi
# Incidence angles of the near-boundary regime, down to just above the cutoff.
NEAR_BOUNDARY = (1e-2, 1e-4, 1e-6, 1e-7, 2e-8)
NEAR_BOUNDARY_ELLIPSES = [EllipseTable(2.0, 1.0), EllipseTable(1.0, 0.3), EllipseTable(1.5, 1.4)]
NEAR_BOUNDARY_PERTURBED = [
    PerturbedCircleTable(1.0, [(3, 0.05, 0.0)]),
    PerturbedCircleTable(1.0, [(2, 0.02, 0.3), (3, 0.05, 1.1), (5, 0.01, 0.2)]),
]


class TestStep:
    def test_circle_closed_form(self, circle):
        rng = np.random.default_rng(1)
        for _ in range(25):
            s = rng.uniform(0, circle.perimeter)
            th = rng.uniform(0.05, math.pi - 0.05)
            out = step(circle, PhasePoint(s, th))
            assert out.s == pytest.approx((s + 2 * th) % TWO_PI, abs=1e-12)
            assert out.theta == pytest.approx(th, abs=1e-12)

    def test_circle_radius_scaling(self):
        table = CircleTable(2.0)
        out = step(table, PhasePoint(1.0, 0.7))
        assert out.s == pytest.approx(1.0 + 2 * 0.7 * 2.0, abs=1e-12)

    def test_boundary_fixed_points(self, ellipse21):
        for th in (0.0, math.pi):
            p = PhasePoint(1.2, th)
            out = step(ellipse21, p)
            assert out.s == p.s and out.theta == p.theta

    def test_focal_reflection(self, ellipse21):
        # chord aimed at the focus (+c, 0) reflects into one through (-c, 0)
        c = math.sqrt(ellipse21.c2)
        t0 = 1.0
        pos, tan, _, _, _ = ellipse21.frame(t0)
        aim = np.array([c, 0.0]) - pos
        aim /= math.hypot(*aim)
        theta = math.atan2(tan[0] * aim[1] - tan[1] * aim[0],
                           tan[0] * aim[0] + tan[1] * aim[1])
        p1 = step(ellipse21, PhasePoint(ellipse21.arc_of_angle(t0), theta))
        t1 = ellipse21.angle_of_arc(p1.s)
        pos1, tan1, _, _, _ = ellipse21.frame(t1)
        out = np.array([math.cos(p1.theta) * tan1[0] - math.sin(p1.theta) * tan1[1],
                        math.sin(p1.theta) * tan1[0] + math.cos(p1.theta) * tan1[1]])
        # distance from the line pos1 + t*out to (-c, 0)
        rel = np.array([-c, 0.0]) - pos1
        dist = abs(out[0] * rel[1] - out[1] * rel[0])
        assert dist < 1e-9

    def test_time_reversal(self, ellipse21, perturbed):
        rng = np.random.default_rng(12)
        for table in (ellipse21, perturbed):
            for _ in range(20):
                p = PhasePoint(rng.uniform(0, table.perimeter),
                               rng.uniform(0.1, math.pi - 0.1))
                fwd = step(table, p)
                back = step(table, PhasePoint(fwd.s, math.pi - fwd.theta))
                assert back.s == pytest.approx(p.s, abs=1e-9)
                assert math.pi - back.theta == pytest.approx(p.theta, abs=1e-9)

    def test_area_preservation(self, ellipse21):
        # Jacobian determinant of (x, y) = (s, cos theta) -> step
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(10):
            s = rng.uniform(0, ellipse21.perimeter)
            th = rng.uniform(0.3, math.pi - 0.3)

            def lifted(sv, yv):
                s1, th1 = step_lifted(ellipse21, sv, math.acos(yv))
                return np.array([s1, math.cos(th1)])

            y = math.cos(th)
            j00, j01 = (lifted(s + h, y) - lifted(s - h, y)) / (2 * h)
            j10, j11 = (lifted(s, y + h) - lifted(s, y - h)) / (2 * h)
            det = j00 * j11 - j01 * j10
            assert det == pytest.approx(1.0, abs=1e-6)

    def test_twist(self, ellipse21, perturbed):
        rng = np.random.default_rng(14)
        h = 1e-6
        for table in (ellipse21, perturbed):
            for _ in range(10):
                s = rng.uniform(0, table.perimeter)
                th = rng.uniform(0.2, math.pi - 0.2)
                up, _ = step_lifted(table, s, th + h)
                dn, _ = step_lifted(table, s, th - h)
                assert (up - dn) / (2 * h) > 0.0

    def test_rejects_bad_angle(self):
        with pytest.raises(DomainError):
            PhasePoint(0.0, -0.5)

    def test_rejects_non_finite_s(self):
        for s in (math.nan, math.inf, -math.inf, np.array([0.5, math.nan])):
            with pytest.raises(DomainError, match="arc length must be finite"):
                PhasePoint(s, 0.7)

    def test_circle_bounce_is_exact(self, circle):
        rng = np.random.default_rng(15)
        t0 = rng.uniform(-TWO_PI, TWO_PI, 500)
        th = rng.uniform(1e-9, math.pi - 1e-9, 500)
        for table in (circle, CircleTable(2.5)):
            t1, th1 = step_angle(table, t0, th)
            assert np.array_equal(t1, t0 + 2.0 * th) and np.array_equal(th1, th)
            assert step_angle(table, 0.3, 1e-7) == (0.3 + 2e-7, 1e-7)

    def test_ellipse_caustic_conserved_near_boundary(self):
        # sin(theta) |gamma'(t)| is the ellipse's Joachimsthal integral: every
        # bounce keeps it, at every incidence angle
        t0 = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
        for table in NEAR_BOUNDARY_ELLIPSES:
            for theta in NEAR_BOUNDARY:
                t1, th1 = step_angle(table, t0, np.full(t0.shape, theta))
                lam0 = math.sin(theta) * table.speed(t0)
                drift = np.sin(th1) * table.speed(t1) / lam0 - 1.0
                assert np.max(np.abs(drift)) <= 1e-14, (table.b, theta)

    def test_ellipse_bounce_contract_near_boundary(self):
        t0 = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
        for table in NEAR_BOUNDARY_ELLIPSES:
            for theta in NEAR_BOUNDARY:
                t1, th1 = step_angle(table, t0, np.full(t0.shape, theta))
                assert np.all(th1 > 0.0), (table.b, theta)
                assert np.all((t0 < t1) & (t1 < t0 + TWO_PI)), (table.b, theta)

    @pytest.mark.parametrize("table", NEAR_BOUNDARY_PERTURBED, ids=["m3", "m235"])
    def test_perturbed_bounce_contract_near_boundary(self, table):
        # at theta and pi - theta: the contract, and time reversal
        # (t, theta) -> (t, pi - theta) to rounding
        t0 = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
        for theta in NEAR_BOUNDARY + tuple(math.pi - th for th in NEAR_BOUNDARY):
            t1, th1 = step_angle(table, t0, np.full(t0.shape, theta))
            assert np.all((t0 < t1) & (t1 < t0 + TWO_PI)), theta
            assert np.all((0.0 < th1) & (th1 < math.pi)), theta
            t2, th2 = step_angle(table, t1, math.pi - th1)
            assert np.max(np.abs(t2 - (t0 + TWO_PI))) <= 1e-14, theta
            assert np.max(np.abs(math.pi - th2 - theta)) <= 1e-14, theta


class TestGenerating:
    def test_circle_antipodal(self, circle):
        d, ds, ds2 = generating(circle, 0.0, math.pi)
        assert d == pytest.approx(2.0, abs=1e-12)
        assert ds == pytest.approx(0.0, abs=1e-12)
        assert ds2 == pytest.approx(0.0, abs=1e-12)

    def test_ellipse_major_axis(self, ellipse21):
        d, _, _ = generating(ellipse21, 0.0, ellipse21.perimeter / 2)
        assert d == pytest.approx(4.0, rel=1e-10)

    def test_finite_difference_partials(self, ellipse21, perturbed):
        rng = np.random.default_rng(15)
        h = 1e-6
        for table in (ellipse21, perturbed):
            for _ in range(15):
                s = rng.uniform(0, table.perimeter)
                s2 = s + rng.uniform(0.3, table.perimeter - 0.3)
                d, ds, ds2 = generating(table, s, s2)
                fd_s = (generating(table, s + h, s2)[0] - generating(table, s - h, s2)[0]) / (2 * h)
                fd_s2 = (generating(table, s, s2 + h)[0] - generating(table, s, s2 - h)[0]) / (2 * h)
                assert ds == pytest.approx(fd_s, abs=1e-6)
                assert ds2 == pytest.approx(fd_s2, abs=1e-6)

    def test_consistency_with_step(self, ellipse21, perturbed):
        rng = np.random.default_rng(16)
        for table in (ellipse21, perturbed):
            for _ in range(15):
                p = PhasePoint(rng.uniform(0, table.perimeter),
                               rng.uniform(0.1, math.pi - 0.1))
                s1, th1 = step_lifted(table, p.s, p.theta)
                _, ds, ds2 = generating(table, p.s, s1)
                assert ds == pytest.approx(-math.cos(p.theta), abs=1e-9)
                assert ds2 == pytest.approx(math.cos(th1), abs=1e-9)

    def test_coincident_points(self, circle):
        with pytest.raises(DomainError):
            generating(circle, 1.0, 1.0)


class TestRotation:
    def test_circle_exact(self, circle):
        est = rotation_estimate(circle, PhasePoint(0.3, math.pi / 5), 37)
        assert est == pytest.approx(0.2, abs=1e-9)

    def test_boundary_fixed_point(self, circle):
        assert rotation_estimate(circle, PhasePoint(0.3, 0.0), 10) == 0.0

    def test_ellipse_caustic_consistency(self, ellipse21):
        # matches the closed-form rotation number of the conserved caustic
        from billiards import caustic_param, rotation_number_of_caustic

        phi0, th0 = 0.3, 0.2
        lam = caustic_param(ellipse21, phi0, th0)
        omega = rotation_number_of_caustic(ellipse21, lam)
        p = PhasePoint(ellipse21.arc_of_angle(phi0), th0)
        est = rotation_estimate(ellipse21, p, 10_000)
        assert est == pytest.approx(omega, abs=1e-4)


class TestTrajectory:
    def test_export_columns(self, circle, tmp_path):
        # trajectory.csv, written by the orbit command, holds trajectory()'s states
        s, th, pts = trajectory(circle, PhasePoint(0.0, 0.9), 12)
        assert len(s) == 13
        assert np.all(np.diff(s) > 0)
        cfg = tmp_path / "circle.json"
        cfg.write_text(json.dumps({"kind": "circle", "R": circle.radius}))
        out = tmp_path / "out"
        assert main(["orbit", "--table", str(cfg), "--theta0", "0.9", "--steps", "12",
                     "--out", str(out)]) == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "s", "theta", "x", "y_plane_x", "y_plane_y"]
        assert len(rows) == 14
        # x column is the lift; s column its reduction
        x = float(rows[3][3])
        assert float(rows[3][1]) == pytest.approx(x % circle.perimeter)
        got = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.array_equal(got[:, 0], np.arange(13))
        assert np.array_equal(got[:, 2], th)
        assert np.array_equal(got[:, 3], s)
        assert np.array_equal(got[:, 4:], pts)


class TestChartLoop:
    """trajectory iterates in the boundary-angle chart t."""

    @pytest.mark.parametrize("name", ["circle", "ellipse21", "perturbed"])
    def test_matches_step_lifted(self, name, request):
        # only the first bounces can agree: the perturbed map is chaotic, so
        # longer orbits part at round-off level
        table = request.getfixturevalue(name)
        rng = np.random.default_rng(71)
        for _ in range(3):
            s0 = rng.uniform(-table.perimeter, 2.0 * table.perimeter)
            th0 = rng.uniform(0.1, math.pi - 0.1)
            s, th, pts = trajectory(table, PhasePoint(s0, th0), 10)
            ref_s, ref_th = [s0], [th0]
            for _ in range(10):
                s1, th1 = step_lifted(table, ref_s[-1], ref_th[-1])
                ref_s.append(s1)
                ref_th.append(th1)
            assert s[0] == s0
            assert np.max(np.abs(s - ref_s)) <= 1e-12
            assert np.max(np.abs(th - ref_th)) <= 1e-12
            pos = table.frame(table.angle_of_arc(s))[0]
            assert np.allclose(pts, pos, rtol=0.0, atol=1e-12)

    def test_time_reversal(self, perturbed):
        ell = perturbed.perimeter
        rng = np.random.default_rng(72)
        for _ in range(3):
            s0, th0 = rng.uniform(0.0, ell), rng.uniform(0.2, math.pi - 0.2)
            s, th, _ = trajectory(perturbed, PhasePoint(s0, th0), 20)
            back, th_back, _ = trajectory(perturbed, PhasePoint(s[-1], math.pi - th[-1]), 20)
            gap = (back[-1] - s0) % ell
            assert min(gap, ell - gap) <= 1e-9
            assert th_back[-1] == pytest.approx(math.pi - th0, abs=1e-9)

    @pytest.mark.parametrize("theta0", [0.0, math.pi - 0.5 * TANGENCY_CUTOFF])
    def test_boundary_fixed_point(self, perturbed, theta0):
        s, th, pts = trajectory(perturbed, PhasePoint(0.7, theta0), 5)
        assert np.all(s == 0.7) and np.all(th == theta0)
        assert np.all(pts == pts[0])

    def test_one_arc_inversion(self, perturbed, monkeypatch):
        calls = []
        inverse = perturbed.angle_of_arc

        def counted(s):
            calls.append(s)
            return inverse(s)

        monkeypatch.setattr(perturbed, "angle_of_arc", counted)
        trajectory(perturbed, PhasePoint(1.1, 0.8), 50)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["circle", "ellipse21", "perturbed"])
    def test_rotation_estimate_is_mean_winding(self, name, request):
        table = request.getfixturevalue(name)
        p, n = PhasePoint(2.3, 1.1), 40
        s, _, _ = trajectory(table, p, n)
        assert rotation_estimate(table, p, n) == ((s[-1] - s[0]) / (n * table.perimeter)) % 1.0

    def test_negative_steps_rejected(self, circle):
        with pytest.raises(DomainError):
            trajectory(circle, PhasePoint(0.0, 1.0), -1)


class TestBatchIndependence:
    """Element i of an array call equals the scalar call on element i."""

    @pytest.mark.parametrize("name", ["circle", "ellipse21", "perturbed"])
    def test_step(self, name, request):
        table = request.getfixturevalue(name)
        rng = np.random.default_rng(61)
        s = rng.uniform(0.0, table.perimeter, 150)
        th = rng.uniform(0.0, math.pi, 150)
        th[:3] = (0.0, 1e-9, math.pi)  # boundary fixed points in the batch
        th[3:6] = (1e-7, 3e-7, math.pi - 2e-7)  # chords shorter than the seed bracket
        out = step(table, PhasePoint(s, th))
        ref = [step(table, PhasePoint(a, b)) for a, b in zip(s, th)]
        assert np.array_equal(out.s, [p.s for p in ref])
        assert np.array_equal(out.theta, [p.theta for p in ref])
