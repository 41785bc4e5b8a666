import csv
import math

import numpy as np
import pytest

from billiards import (
    DomainError,
    PhasePoint,
    generating,
    rotation_estimate,
    step,
    step_lifted,
    trajectory,
    write_trajectory_csv,
)

TWO_PI = 2.0 * math.pi


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
        from billiards import CircleTable

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
        c = ellipse21.params.focal_distance
        t0 = 1.0
        pos, tan, _, _ = ellipse21.frame(t0)
        aim = np.array([c, 0.0]) - pos
        aim /= math.hypot(*aim)
        theta = math.atan2(tan[0] * aim[1] - tan[1] * aim[0],
                           tan[0] * aim[0] + tan[1] * aim[1])
        p1 = step(ellipse21, PhasePoint(ellipse21.arc_of_angle(t0), theta))
        t1 = ellipse21.angle_of_arc(p1.s)
        pos1, tan1, _, _ = ellipse21.frame(t1)
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
        lam = caustic_param(ellipse21.params, phi0, th0)
        omega = rotation_number_of_caustic(ellipse21.params, lam)
        p = PhasePoint(ellipse21.arc_of_angle(phi0), th0)
        est = rotation_estimate(ellipse21, p, 10_000)
        assert est == pytest.approx(omega, abs=1e-4)


class TestTrajectory:
    def test_export_columns(self, circle, tmp_path):
        s, th, pts = trajectory(circle, PhasePoint(0.0, 0.9), 12)
        assert len(s) == 13
        assert np.all(np.diff(s) > 0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, circle, s, th, pts)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "s", "theta", "x", "y_plane_x", "y_plane_y"]
        assert len(rows) == 14
        # x column is the lift; s column its reduction
        x = float(rows[3][3])
        assert float(rows[3][1]) == pytest.approx(x % circle.perimeter)


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
