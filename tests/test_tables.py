import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import billiards
from billiards import (
    CircleTable,
    ConvexityError,
    EllipseTable,
    PerturbedCircleTable,
    SolverError,
    TableConfigError,
    load_table,
    table_from_config,
)
from billiards.dynamics import TANGENCY_CUTOFF, step_lifted
from billiards.tables import _GL_NODES, _GL_WEIGHTS, _N_PANELS

from chord_oracle import chord_exit_oracle
from strategies import PROPERTY, ellipses, footpoints, perturbed_circles

TWO_PI = 2.0 * math.pi


def gauss_arc_oracle(speed_fn, t_hi, panels=64, order=50):
    """Composite Gauss quadrature of |gamma'| at a resolution independent of
    the table's internal lookup."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, t_hi, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * np.sum(weights * speed_fn(mid + half * nodes))
    return total


class TestCircle:
    def test_curvature_constant(self, circle):
        for s in np.linspace(0.0, circle.perimeter, 7):
            _, _, kappa, _, _ = circle.frame(circle.angle_of_arc(s))
            assert float(kappa) == pytest.approx(1.0, abs=1e-14)

    def test_arc_is_linear(self, circle):
        assert circle.arc_of_angle(1.234) == pytest.approx(1.234)
        assert circle.angle_of_arc(2.0) == pytest.approx(2.0)

    def test_lazutkin_closed_form(self):
        table = CircleTable(8.0)
        assert table.lazutkin_perimeter == pytest.approx(4 * math.pi, rel=1e-12)


class TestEllipse:
    def test_vertex_curvature(self, ellipse21):
        _, _, kappa, _, _ = ellipse21.frame(ellipse21.angle_of_arc(0.0))
        assert float(kappa) == pytest.approx(2.0, rel=1e-12)
        # closed form a b / (a^2 sin^2 + b^2 cos^2)^(3/2) at random angles
        rng = np.random.default_rng(2)
        for t in rng.uniform(0, TWO_PI, 20):
            _, _, kappa, _, _ = ellipse21.frame(t)
            w2 = 4 * math.sin(t) ** 2 + math.cos(t) ** 2
            assert float(kappa) == pytest.approx(2.0 / w2**1.5, rel=1e-12)

    def test_perimeter_against_quadrature(self, ellipse21):
        oracle = gauss_arc_oracle(ellipse21.speed, TWO_PI)
        assert ellipse21.perimeter == pytest.approx(oracle, rel=1e-12)

    def test_quarter_arc(self, ellipse21):
        assert ellipse21.arc_of_angle(math.pi / 2) == pytest.approx(
            ellipse21.perimeter / 4.0, rel=1e-10
        )

    def test_periodic_shift(self, ellipse21):
        t = 0.83
        assert ellipse21.arc_of_angle(t + TWO_PI) == pytest.approx(
            ellipse21.arc_of_angle(t) + ellipse21.perimeter, rel=1e-12
        )

    def test_roundtrip(self, ellipse21):
        rng = np.random.default_rng(4)
        t = rng.uniform(0.0, TWO_PI, 200)
        s = ellipse21.arc_of_angle(t)
        assert np.max(np.abs(ellipse21.angle_of_arc(s) - t)) < 1e-10

    def test_unit_tangent(self, ellipse21):
        # |gamma'(s)| = 1: finite differences of position along arc length
        # (the measurement itself carries ~1e-10 of FD noise at h = 1e-5)
        h = 1e-5
        for s0 in (0.7, 2.3, 5.1, 8.8):
            pa, _, _, _, _ = ellipse21.frame(ellipse21.angle_of_arc(s0 - h))
            pb, _, _, _, _ = ellipse21.frame(ellipse21.angle_of_arc(s0 + h))
            speed = math.hypot(*(np.asarray(pb) - np.asarray(pa))) / (2 * h)
            assert speed == pytest.approx(1.0, abs=1e-9)
        _, tan, _, _, _ = ellipse21.frame(ellipse21.angle_of_arc(2.3))
        assert math.hypot(*np.asarray(tan)) == pytest.approx(1.0, abs=1e-14)

    def test_lazutkin_scaling(self, ellipse21):
        scaled = ellipse21.scaled(3.0)
        assert scaled.lazutkin_perimeter == pytest.approx(
            3.0 ** (1.0 / 3.0) * ellipse21.lazutkin_perimeter, rel=1e-10
        )

    def test_params(self):
        E = EllipseTable(2.0, 1.0)
        assert E.eccentricity == pytest.approx(math.sqrt(3) / 2)
        assert math.sqrt(E.c2) == pytest.approx(math.sqrt(3))
        assert E.theta_star == pytest.approx(math.asin(0.5))
        assert EllipseTable(1.0, 1.0).theta_star == pytest.approx(math.pi / 2)


def lazutkin_integrand(table):
    """kappa^(2/3) |gamma'(t)| in closed form and in mpmath, sharing no code
    with the table: (ab)^(2/3) / w on the ellipse, N^(2/3) / sqrt(r^2 + r'^2)
    with N = r^2 + 2 r'^2 - r r'' on the perturbed circle."""
    third = mp.mpf(1) / 3
    if isinstance(table, EllipseTable):
        a, b = mp.mpf(table.a), mp.mpf(table.b)
        return lambda t: (a * b) ** (2 * third) / mp.hypot(a * mp.sin(t), b * mp.cos(t))
    R = mp.mpf(table.radius)
    modes = [(m, mp.mpf(eps), mp.mpf(phase)) for m, eps, phase in table.harmonics]

    def integrand(t):
        r = R * (1 + mp.fsum(eps * mp.cos(m * t + ph) for m, eps, ph in modes))
        r1 = -R * mp.fsum(eps * m * mp.sin(m * t + ph) for m, eps, ph in modes)
        r2 = -R * mp.fsum(eps * m * m * mp.cos(m * t + ph) for m, eps, ph in modes)
        return (r * r + 2 * r1 * r1 - r * r2) ** (2 * third) / mp.hypot(r, r1)

    return integrand


class TestConstruction:
    """One Gauss pass builds the arc tables and the Lazutkin perimeter."""

    @pytest.mark.parametrize("table", [
        EllipseTable(2.0, 1.0),
        EllipseTable(1.0, 0.01),
        PerturbedCircleTable(1.0, [(2, 0.02, 0.3), (3, 0.05, 1.1)]),
    ], ids=["ellipse21", "ellipse_thin", "perturbed2"])
    def test_lazutkin_quadrature(self, table):
        with mp.workdps(30):
            oracle = mp.quad(lazutkin_integrand(table), mp.linspace(0, 2 * mp.pi, 9))
            rel = abs((table.lazutkin_perimeter - oracle) / oracle)
        assert rel <= 1e-14

    @pytest.mark.parametrize("cls,args,passes", [
        (CircleTable, (1.0,), 0),
        (EllipseTable, (2.0, 1.0), 1),
        (PerturbedCircleTable, (1.0, [(3, 0.05, 0.0)]), 1),
    ], ids=["circle", "ellipse21", "perturbed"])
    def test_one_gauss_pass(self, cls, args, passes, monkeypatch):
        # Construction evaluates the boundary once on the Gauss nodes, through
        # _arc_integrands, and calls neither speed nor frame.
        seen = {"speed": 0, "frame": 0, "_arc_integrands": 0}

        def counting(name):
            method = getattr(cls, name, None)

            def counted(self, t):
                seen[name] += 1
                return method(self, t)
            return counted

        for name in seen:
            monkeypatch.setattr(cls, name, counting(name), raising=False)
        cls(*args)
        assert seen == {"speed": 0, "frame": 0, "_arc_integrands": passes}

    @pytest.mark.parametrize("table", [
        EllipseTable(1.0, 1.0),
        EllipseTable(2.0, 1.0),
        EllipseTable(1.0, 0.1),
        EllipseTable(2.0, 1.0).scaled(1.7),
        PerturbedCircleTable(1.0, [(3, 0.05, 0.0)]),
        PerturbedCircleTable(1.0, [(2, 0.02, 0.3), (3, 0.05, 1.1), (5, 0.01, 0.2)]),
    ], ids=["ellipse_round", "ellipse21", "ellipse_thin", "ellipse_scaled",
            "perturbed1", "perturbed3"])
    def test_bits_of_speed_and_frame(self, table):
        # The one-pass build gives the same bits as the panel sums of speed and
        # the Lazutkin sum of frame's curvature and speed on the same nodes.
        knots = np.linspace(0.0, TWO_PI, _N_PANELS + 1)
        h = knots[1] - knots[0]
        mids = 0.5 * (knots[:-1] + knots[1:])
        tt = mids[:, None] + 0.5 * h * _GL_NODES[None, :]
        gw = 0.5 * h * _GL_WEIGHTS[None, :]
        s_knots = np.concatenate([[0.0], np.cumsum((table.speed(tt) * gw).sum(axis=1))])
        _, _, kappa, w, _ = table.frame(tt)
        assert np.array_equal(table._s_knots, s_knots)
        assert table.perimeter == float(s_knots[-1])
        assert table.lazutkin_perimeter == float((kappa ** (2.0 / 3.0) * w * gw).sum())

    @pytest.mark.parametrize("table", [
        EllipseTable(2.0, 1.0),
        PerturbedCircleTable(1.0, [(2, 0.02, 0.3), (3, 0.05, 1.1), (5, 0.01, 0.2)]),
    ], ids=["ellipse21", "perturbed3"])
    def test_lazutkin_knots(self, table):
        # The cumulative panel sums of kappa^(2/3) w rise strictly to the
        # Lazutkin perimeter, and angle_of_lazutkin interpolates between them,
        # winding by one turn per Lazutkin perimeter.
        z, lam = table._z_knots, table.lazutkin_perimeter
        assert z.shape == (_N_PANELS + 1,) and z[0] == 0.0 and np.all(np.diff(z) > 0.0)
        assert abs(z[-1] - lam) <= 1e-14 * lam
        assert np.array_equal(table.angle_of_lazutkin(z[:-1]), table._t_knots[:-1])
        mid = 0.5 * (z[:-1] + z[1:])
        np.testing.assert_allclose(table.angle_of_lazutkin(mid - 2.0 * lam),
                                   0.5 * (table._t_knots[:-1] + table._t_knots[1:]) - 2 * TWO_PI,
                                   rtol=0.0, atol=1e-13)
        assert isinstance(table.angle_of_lazutkin(0.25 * lam), float)

    def test_imports_without_scipy(self):
        src = str(Path(billiards.__file__).resolve().parents[1])
        code = ("import sys; sys.modules['scipy'] = None; "
                f"sys.path.insert(0, {src!r}); import billiards.cli")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


class TestPerturbedCircle:
    def test_zero_amplitude_matches_circle(self, circle):
        flat = PerturbedCircleTable(1.0, [(3, 0.0, 0.0)])
        rng = np.random.default_rng(6)
        for t in rng.uniform(0, TWO_PI, 10):
            pc, tc, _, _, _ = circle.frame(t)
            pf, tf, kf, _, _ = flat.frame(t)
            assert np.allclose(pc, pf, atol=1e-14)
            assert np.allclose(tc, tf, atol=1e-14)
            assert float(kf) == pytest.approx(1.0, abs=1e-14)
        assert flat.perimeter == pytest.approx(circle.perimeter, rel=1e-12)

    def test_convexity_check_rejects(self):
        with pytest.raises(ConvexityError):
            PerturbedCircleTable(1.0, [(3, 0.2, 0.0)])

    def test_radial_profile_must_stay_positive(self):
        # r = 1 + 1.2 cos(psi) reaches zero, while r^2 + 2 r'^2 - r r'' =
        # 3.88 + 3.6 cos(psi) stays positive: only the r > 0 check rejects it
        with pytest.raises(ConvexityError, match="radial profile reaches zero"):
            PerturbedCircleTable(1.0, [(1, 1.2, 0.0)])

    def test_convexity_grid_resolves_fast_harmonics(self):
        # r^2 + 2 r'^2 - r r'' reaches 1 - 10 = -9 where cos(10000 psi) = -1,
        # but is 1 + 10 on every point of a 10000-point grid
        with pytest.raises(ConvexityError):
            PerturbedCircleTable(1.0, [(10_000, 1e-7, 0.0)])

    def test_curvature_positive_on_grid(self, perturbed):
        t = np.linspace(0.0, TWO_PI, 10_000, endpoint=False)
        _, _, kappa, _, _ = perturbed.frame(t)
        assert np.min(kappa) > 0.0

    def test_perimeter_matches_lookup_increments(self, perturbed):
        t = np.linspace(0.0, TWO_PI, 5000)
        s = perturbed.arc_of_angle(t)
        assert float(s[-1]) == pytest.approx(perturbed.perimeter, abs=1e-9)
        assert np.all(np.diff(s) > 0)

    def test_roundtrip(self, perturbed):
        rng = np.random.default_rng(8)
        t = rng.uniform(0.0, TWO_PI, 100)
        s = perturbed.arc_of_angle(t)
        assert np.max(np.abs(perturbed.angle_of_arc(s) - t)) < 1e-10

    def test_profile_orders_agree_with_frame(self):
        # speed builds only r and r'; frame builds r, r', r''
        table = PerturbedCircleTable(1.0, [(2, 0.02, 0.3), (3, 0.05, 1.1), (5, 0.01, 0.2)])
        t = np.random.default_rng(9).uniform(0.0, TWO_PI, 500)
        pos, _, _, w, _ = table.frame(t)
        assert np.array_equal(table.position(t), pos)
        assert np.allclose(table.speed(t), w, rtol=1e-14, atol=0.0)


class TestSpeedDerivative:
    """frame's fifth value, d|dgamma/dt|/dt, against a central difference of
    speed; dspeed is the same number."""

    @pytest.mark.parametrize("table,tol", [
        (CircleTable(1.0), 0.0),
        (EllipseTable(2.0, 1.0), 1e-9),
        (PerturbedCircleTable(1.0, [(2, 0.02, 0.3), (3, 0.05, 1.1), (5, 0.01, 0.2)]), 1e-9),
    ], ids=["circle", "ellipse21", "perturbed3"])
    def test_central_difference(self, table, tol):
        t = np.random.default_rng(10).uniform(0.0, TWO_PI, 200)
        h = 1e-5
        fd = (table.speed(t + h) - table.speed(t - h)) / (2.0 * h)
        dw = table.frame(t)[4]
        assert np.max(np.abs(dw - fd)) <= tol
        assert np.array_equal(table.dspeed(t), dw)

    @pytest.mark.parametrize("cls", [CircleTable, EllipseTable, PerturbedCircleTable])
    def test_subclass_defines_no_position_or_dspeed(self, cls):
        # both are views of frame, so a table states its geometry once
        assert "position" not in vars(cls) and "dspeed" not in vars(cls)


class TestArcInverse:
    @pytest.mark.parametrize("name", ["circle", "ellipse21", "ellipse_e05", "perturbed"])
    def test_dense_grid_accepted(self, name, request):
        table = request.getfixturevalue(name)
        s = np.linspace(-table.perimeter, 2.0 * table.perimeter, 10_001)
        t = table.angle_of_arc(s)
        assert np.max(np.abs(table.arc_of_angle(t) - s)) < 1e-12

    def test_wrong_speed_raises(self):
        class WrongSpeed(EllipseTable):
            factor = 1.0

            def speed(self, t):
                return self.factor * super().speed(t)

        table = WrongSpeed(2.0, 1.0)
        table.factor = 0.1  # speed now disagrees with the arc tables built from it
        with pytest.raises(SolverError):
            table.angle_of_arc(np.linspace(0.0, table.perimeter, 101))


class TestConfig:
    def test_roundtrip_all_kinds(self, tmp_path):
        configs = [
            {"kind": "circle", "R": 2.0},
            {"kind": "ellipse", "a": 2.0, "b": 1.0},
            {
                "kind": "perturbed_circle",
                "R": 1.0,
                "harmonics": [{"m": 3, "eps": 0.05, "phase": 0.1}],
            },
        ]
        for cfg, integrable in zip(configs, (True, True, False)):
            path = tmp_path / "table.json"
            path.write_text(json.dumps(cfg))
            table = load_table(path)
            assert table.as_config()["kind"] == cfg["kind"]
            assert table.integrable is integrable

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TableConfigError):
            load_table(path)

    def test_unknown_kind(self):
        with pytest.raises(TableConfigError):
            table_from_config({"kind": "square", "side": 1.0})

    def test_missing_field(self):
        with pytest.raises(TableConfigError):
            table_from_config({"kind": "ellipse", "a": 2.0})

    @pytest.mark.parametrize("cfg", [
        {"kind": "circle", "R": math.nan},
        {"kind": "circle", "R": math.inf},
        {"kind": "ellipse", "a": math.inf, "b": 1.0},
        {"kind": "perturbed_circle", "R": math.inf, "harmonics": []},
        {"kind": "perturbed_circle", "R": 1.0, "harmonics": [{"m": 3, "eps": math.nan}]},
        {"kind": "perturbed_circle", "R": 1.0,
         "harmonics": [{"m": 3, "eps": 0.05, "phase": math.nan}]},
        {"kind": "perturbed_circle", "R": 1.0, "harmonics": [{"m": 2.5, "eps": 0.05}]},
        {"kind": "perturbed_circle", "R": 1.0, "harmonics": [{"m": math.inf, "eps": 0.05}]},
    ], ids=["circle-nan", "circle-inf", "ellipse-inf", "perturbed-inf", "eps-nan",
            "phase-nan", "m-fraction", "m-inf"])
    def test_non_finite_or_fractional_value_rejected(self, cfg):
        # Python's json reads NaN and Infinity, so a table file reaches all of these
        with pytest.raises(TableConfigError, match="finite|integer"):
            table_from_config(json.loads(json.dumps(cfg)))

    def test_integral_float_order_accepted(self):
        table = table_from_config({"kind": "perturbed_circle", "R": 1.0,
                                   "harmonics": [{"m": 3.0, "eps": 0.05}]})
        assert table.as_config()["harmonics"] == [{"m": 3, "eps": 0.05, "phase": 0.0}]

    def test_nonconvex_rejected_at_load(self, tmp_path):
        path = tmp_path / "bad_table.json"
        path.write_text(json.dumps({
            "kind": "perturbed_circle", "R": 1.0,
            "harmonics": [{"m": 5, "eps": 0.2, "phase": 0.0}],
        }))
        with pytest.raises(ConvexityError):
            load_table(path)


bounces = st.one_of(
    st.tuples(ellipses, footpoints, st.floats(TANGENCY_CUTOFF, math.pi - 1e-3)),
    st.tuples(perturbed_circles, footpoints,
              st.floats(TANGENCY_CUTOFF, math.pi - TANGENCY_CUTOFF)),
)


def _angle(u, v):
    """Angle from the plane vector u to v."""
    return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])


class TestChordExitProperties:
    """Structural laws of Table.chord_exit on random tables."""

    @PROPERTY
    @given(bounces)
    def test_reflection_law(self, bounce):
        table, t0, theta = bounce
        t1, theta1 = table.chord_exit(t0, theta)
        (p0, p1), (tan0, tan1), _, _, _ = table.frame(np.array([t0, t1]))
        chord = p1 - p0
        # the measured angles carry the rounding of the positions over |chord|
        tol = 1e-12 + 1e-15 * table.perimeter / math.hypot(*chord)
        assert abs(_angle(tan0, chord) - theta) <= tol
        assert abs(_angle(chord, tan1) - theta1) <= tol

    @PROPERTY
    @given(bounces)
    def test_time_reversal(self, bounce):
        # (t, theta) -> (t, pi - theta) conjugates the bounce to its inverse
        table, t0, theta = bounce
        t1, theta1 = table.chord_exit(t0, theta)
        assert t0 < t1 < t0 + TWO_PI and 0.0 < theta1 < math.pi
        t2, theta2 = table.chord_exit(t1, math.pi - theta1)
        assert t2 == pytest.approx(t0 + TWO_PI, abs=1e-11)
        assert math.pi - theta2 == pytest.approx(theta, abs=1e-11)

    @PROPERTY
    @given(ellipses, footpoints, st.floats(TANGENCY_CUTOFF, math.pi / 2))
    def test_ellipse_caustic_conserved(self, table, t0, theta):
        # sin(theta) |gamma'(t)| is the ellipse's Joachimsthal integral; the
        # bound allows the rounding of t1 through |gamma'(t1)| at b/a = 0.1
        t1, theta1 = table.chord_exit(t0, theta)
        lam0 = math.sin(theta) * table.speed(t0)
        assert math.sin(theta1) * table.speed(t1) == pytest.approx(lam0, rel=2e-14, abs=0.0)

    @PROPERTY
    @given(st.one_of(ellipses, perturbed_circles), footpoints,
           st.floats(0.05, math.pi - 0.05))
    def test_area_preservation(self, table, t0, theta):
        # The map preserves ds ^ dy, y = cos theta: the Jacobian of step in (s, y),
        # by central differences of its lift step_lifted, has determinant 1.  A
        # central difference with step d errs by C d^2 from truncation, C up to
        # ~5e4 on the flattest drawn ellipse (b/a = 0.1), and by the rounding of
        # s' and y' over d, ~1e-15 / d; both are taken relative to the two
        # products the determinant cancels.  With d = 1e-6 each stays below 1e-7
        # (4e-8 measured on 2000 ellipse draws), and the bound leaves 10x.
        d = 1e-6
        s, y = table.arc_of_angle(t0), math.cos(theta)
        s1, theta1 = step_lifted(table, np.array([s + d, s - d, s, s]),
                                 np.arccos([y, y, y + d, y - d]))
        y1 = np.cos(theta1)
        (a, b), (c, e) = np.array([[s1[0] - s1[1], s1[2] - s1[3]],
                                   [y1[0] - y1[1], y1[2] - y1[3]]]) / (2.0 * d)
        assert abs(a * e - b * c - 1.0) <= 1e-6 * (abs(a * e) + abs(b * c))


class TestPerturbedChordOracle:
    """PerturbedCircleTable.chord_exit against a 50-digit ray-curve
    intersection, from theta = 1 down to just above the tangency cutoff and
    at the mirror angles pi - theta."""

    THETAS = (1e-2, 1e-4, 1e-6, 1e-7, 2e-8, 1.0)

    @pytest.mark.parametrize("harmonics", [
        [(3, 0.05, 0.0)],
        [(2, 0.02, 0.3), (3, 0.05, 1.1), (5, 0.01, 0.2)],
    ])
    def test_exit_matches_oracle(self, harmonics):
        table = PerturbedCircleTable(1.0, harmonics)
        t0 = np.linspace(0.0, TWO_PI, 8, endpoint=False) + 0.1
        for theta in self.THETAS + tuple(math.pi - th for th in self.THETAS):
            t1, theta1 = table.chord_exit(t0, np.full(t0.shape, theta))
            for a, b, c in zip(t0, t1, theta1):
                t1_star, theta1_star = chord_exit_oracle(1.0, harmonics, a, theta)
                assert abs(b - t1_star) <= 1e-14, (theta, a)
                assert abs(c - theta1_star) <= 1e-14, (theta, a)
                # scalar calls return Python floats, bit for bit the array's element
                for scalar in (float, np.float64, np.array):
                    s1, sth1 = table.chord_exit(scalar(a), scalar(theta))
                    assert type(s1) is float and type(sth1) is float, scalar
                    assert abs(s1 - t1_star) <= 1e-14, (theta, a, scalar)
                    assert abs(sth1 - theta1_star) <= 1e-14, (theta, a, scalar)
                    assert (s1, sth1) == (b, c), (theta, a, scalar)
