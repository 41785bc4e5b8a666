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
from billiards import tables
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
from billiards.tables import ARC_INVERSE_TOL, CHORD_TOL, _GL_NODES, _GL_WEIGHTS, _N_PANELS

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

    def test_scaled(self):
        assert CircleTable(2.0).scaled(1.5).radius == 3.0


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

    @pytest.mark.parametrize("make,message", [
        (lambda: CircleTable(0.0), "circle radius must be positive, got 0.0"),
        (lambda: CircleTable(-1.0), "circle radius must be positive, got -1.0"),
        (lambda: EllipseTable(1.0, 2.0), "ellipse needs 0 < b <= a, got a=1.0, b=2.0"),
        (lambda: PerturbedCircleTable(0.0, []), "base radius must be positive, got 0.0"),
    ], ids=["circle-zero", "circle-negative", "ellipse-b-above-a", "perturbed-zero"])
    def test_parameters_outside_the_convex_family_rejected(self, make, message):
        with pytest.raises(ConvexityError, match=message):
            make()

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

    @pytest.mark.parametrize("name", ["_T_KNOTS", "_GRID_T", "_GRID_SIN", "_GRID_COS", "_GRID_W"])
    def test_shared_grid_is_read_only(self, name):
        grid = {"_T_KNOTS": tables._T_KNOTS, "_GRID_W": tables._GRID_W,
                **dict(zip(["_GRID_T", "_GRID_SIN", "_GRID_COS"], tables._GRID))}
        with pytest.raises(ValueError, match="read-only"):
            grid[name][0] = 1.0

    def test_tables_share_the_grid(self):
        one, two = EllipseTable(2.0, 1.0), PerturbedCircleTable(1.0, [(3, 0.05, 0.0)])
        assert one._t_knots is two._t_knots is tables._T_KNOTS
        assert one._panel_h is two._panel_h

    def test_rebuild_after_many_tables_same_bits(self):
        # 49 builds of mixed kinds between two builds of one table change none of its bytes.
        def build():
            return PerturbedCircleTable(1.3, [(2, 0.02, 0.3), (3, -0.01, 1.1)])

        def digest(table):
            return (np.float64(table.perimeter).tobytes(), table._s_knots.tobytes(),
                    table._z_knots.tobytes())

        makers = [lambda i: EllipseTable(2.0, 0.02 + 0.02 * i), lambda i: CircleTable(1.0 + i),
                  lambda i: PerturbedCircleTable(1.0, [(2 + i % 4, 0.001 * (i % 7), 0.1 * i)])]
        first = digest(build())
        for i in range(49):
            makers[i % 3](i)
        assert digest(build()) == first

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

    def test_radial_dip_between_grid_points(self):
        # r = 1 + (1 + delta) cos(psi + pi/32) dips to -delta at psi = 31 pi/32, midway
        # between two points of the 32-point grid, where r = 1 - (1 + delta) cos(pi/32)
        # > 0; the curvature numerator 1 + 3 a cos + 2 a^2 stays positive, so only the
        # r > 0 check on the Gauss nodes rejects it
        harmonics = [(1, 1.001, math.pi / 32)]
        psi = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        assert np.min(1.0 + 1.001 * np.cos(psi + math.pi / 32)) > 0.0
        with pytest.raises(ConvexityError, match="radial profile reaches zero"):
            PerturbedCircleTable(1.0, harmonics)

    def test_convexity_near_boundary_against_dense_grid(self):
        # 300 seeded profiles of one to three harmonics m <= 12, scaled to within
        # 3 % of the amplitude where r or r^2 + 2 r'^2 - r r'' first reaches zero
        rng = np.random.default_rng(27)
        psi = np.linspace(0.0, TWO_PI, 1 << 14, endpoint=False)
        verdicts = []
        for _ in range(300):
            k = int(rng.integers(1, 4))
            m = rng.choice(np.arange(1, 13), size=k, replace=False)[:, None]
            w = rng.uniform(0.2, 1.0, (k, 1)) / (m * m)
            phase = rng.uniform(0.0, TWO_PI, (k, 1))
            arg = m * psi + phase
            g, g1, g2 = [(w * v).sum(axis=0) for v in
                         (np.cos(arg), -m * np.sin(arg), -m * m * np.cos(arg))]
            # r = 1 + lam g, and the numerator is 1 + b lam + a lam^2: the first
            # positive root over the grid is the boundary amplitude
            a, b = g * g + 2.0 * g1 * g1 - g * g2, 2.0 * g - g2
            disc = b * b - 4.0 * a
            with np.errstate(divide="ignore", invalid="ignore"):
                q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
                roots = np.concatenate([np.where(disc >= 0.0, [q / a, 1.0 / q], np.inf),
                                        np.where(g < 0.0, -1.0 / g, np.inf)[None]])
            lam = np.min(np.where(roots > 0.0, roots, np.inf)) * rng.uniform(0.97, 1.03)
            # Dense-grid oracle: its minima are within |num''| spacing^2 / 8 < 2e-5
            # of the true ones here (|num''| < 1e3, spacing 4e-4), so a margin
            # above 1e-3 is resolved.
            r, r1, r2 = 1.0 + lam * g, lam * g1, lam * g2
            margin = min(np.min(r), np.min(r * r + 2.0 * r1 * r1 - r * r2))
            if abs(margin) < 1e-3:
                continue
            harmonics = [(int(mi), float(lam * wi), float(pi))
                         for mi, wi, pi in zip(m[:, 0], w[:, 0], phase[:, 0])]
            try:
                PerturbedCircleTable(1.0, harmonics)
                accepted = True
            except ConvexityError:
                accepted = False
            assert accepted == (margin > 0.0), (harmonics, margin)
            verdicts.append(accepted)
        assert len(verdicts) > 250 and 0.3 < np.mean(verdicts) < 0.7

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


def _five_pass_inverse(table, s):
    """angle_of_arc as five Newton passes on every point, fixed or not,
    with the check on the fifth pass's residual."""
    s = np.asarray(s, dtype=float)
    wind = np.floor(s / table.perimeter)
    sr = s - wind * table.perimeter
    idx = np.clip(np.searchsorted(table._s_knots, sr, side="right") - 1, 0, _N_PANELS - 1)
    s0, s1 = table._s_knots[idx], table._s_knots[idx + 1]
    t = table._t_knots[idx] + table._panel_h * (sr - s0) / (s1 - s0)
    for _ in range(5):
        resid = table.arc_of_angle(t) - sr
        t = t - resid / table.speed(t)
    assert np.all(np.abs(resid) <= ARC_INVERSE_TOL * table.perimeter)
    return t + wind * TWO_PI


class TestArcInverse:
    @pytest.mark.parametrize("name", ["ellipse21", "perturbed"])
    @pytest.mark.parametrize("make", [
        lambda ell: np.array(-0.3 * ell),
        lambda ell: 7.5 * ell,
        lambda ell: -1e-17,
        lambda ell: np.array([]),
        lambda ell: np.concatenate([np.linspace(-ell, 2.0 * ell, 2001),
                                    np.random.default_rng(4).uniform(-5.0 * ell, 5.0 * ell, 500)]),
        lambda ell: np.linspace(-2.0 * ell, 3.0 * ell, 1200).reshape(40, 30),
    ], ids=["0-d", "float-wrapped", "float-negative", "empty", "1-D", "2-D"])
    def test_same_bits_as_five_full_passes(self, name, make, request):
        # A pass runs only on the points that moved in the one before; the
        # others sit at a fixed point, so every t is the five-pass t.
        table = request.getfixturevalue(name)
        s = make(table.perimeter)
        got = table.angle_of_arc(s)
        assert np.array_equal(got, _five_pass_inverse(table, s))
        assert np.shape(got) == np.shape(s)
        assert isinstance(got, float) == (np.ndim(s) == 0)

    @pytest.mark.parametrize("s", [math.nan, [0.5, math.nan, 1.0]], ids=["0-d", "1-D"])
    def test_non_finite_raises(self, ellipse21, s):
        with pytest.raises(SolverError, match="residual of nan"):
            ellipse21.angle_of_arc(s)

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

    @pytest.mark.parametrize("cfg", [[{"kind": "circle", "R": 1.0}], "circle", {"R": 1.0}],
                             ids=["list", "string", "no-kind"])
    def test_not_an_object_with_a_kind(self, cfg):
        with pytest.raises(TableConfigError, match="must be an object with a 'kind' field"):
            table_from_config(cfg)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(TableConfigError, match="cannot read table file"):
            load_table(tmp_path)  # a directory

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

    @pytest.mark.parametrize("cfg,field", [
        ({"kind": "perturbed_circle", "R": 1.0, "harmonic": [{"m": 3, "eps": 0.05}]},
         "harmonic"),
        ({"kind": "circle", "R": 1.0, "r": 2.0}, "r"),
        ({"kind": "ellipse", "a": 2.0, "b": 1.0, "harmonics": []}, "harmonics"),
        ({"kind": "perturbed_circle", "R": 1.0, "harmonics": [{"m": 3, "eps": 0.05, "phi": 1.0}]},
         "phi"),
    ], ids=["misspelled-harmonics", "circle-extra", "ellipse-harmonics", "harmonic-phi"])
    def test_undocumented_field_rejected(self, cfg, field):
        with pytest.raises(TableConfigError, match=f"undocumented field '{field}'"):
            table_from_config(cfg)

    @pytest.mark.parametrize("cfg,field", [
        ({"kind": "ellipse", "a": True, "b": 1.0}, "a"),
        ({"kind": "circle", "R": "2"}, "R"),
        ({"kind": "circle", "R": None}, "R"),
        ({"kind": "perturbed_circle", "R": 1.0, "harmonics": [{"m": "3", "eps": 0.05}]}, "m"),
        ({"kind": "perturbed_circle", "R": 1.0, "harmonics": [{"m": 3, "eps": None}]}, "eps"),
        ({"kind": "perturbed_circle", "R": 1.0,
          "harmonics": [{"m": 3, "eps": 0.05, "phase": False}]}, "phase"),
        ({"kind": "circle", "R": [1.0]}, "R"),
    ], ids=["bool", "string", "null", "m-string", "eps-null", "phase-bool", "list"])
    def test_value_not_a_number_rejected(self, cfg, field):
        with pytest.raises(TableConfigError, match=f"field '{field}' must be a number"):
            table_from_config(json.loads(json.dumps(cfg)))

    @pytest.mark.parametrize("harmonics", [{"m": 3, "eps": 0.05}, [3, 0.05, 0.0], None, "m3"],
                             ids=["object", "numbers", "null", "string"])
    def test_harmonics_not_a_list_of_objects_rejected(self, harmonics):
        with pytest.raises(TableConfigError, match="'harmonics' must be a list of objects"):
            table_from_config({"kind": "perturbed_circle", "R": 1.0, "harmonics": harmonics})

    def test_integer_beyond_float_rejected(self):
        with pytest.raises(TableConfigError, match="bad table config value"):
            table_from_config({"kind": "circle", "R": 10**400})

    def test_readme_tables_load(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        texts = block.replace("\n ", " ").splitlines()
        assert [table_from_config(json.loads(text)).kind for text in texts] == [
            "circle", "ellipse", "perturbed_circle"]

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


def _plain_sum(terms):
    """sum() as Python before 3.12 adds floats: from 0, left to right."""
    total = 0
    for v in terms:
        total = total + v
    return total


def _closure_exit_one(table, t0, theta):
    """PerturbedCircleTable._exit_one as a chord closure called once per Newton
    step and once more for theta1, with generator sums: the reference for the
    inlined kernel's bits."""
    back = theta > 0.5 * math.pi
    sg, h = (-1.0, math.pi - theta) if back else (1.0, theta)
    r0 = table.radius + _plain_sum(math.cos(t0 * m + p) * er for m, p, er, _ in table._modes)
    dr0 = _plain_sum(math.sin(t0 * m + p) * emr for m, p, _, emr in table._modes)
    rhs = h - math.atan2(sg * dr0, r0)

    def chord(h):
        u, D, r1p = sg * h, 0.0, 0.0
        for m, phase, er, emr in table._modes:
            D += math.sin((t0 + u) * m + phase) * math.sin(u * m) * er
            r1p += math.sin((t0 + 2.0 * u) * m + phase) * emr
        D, r1p = -2.0 * D, sg * r1p
        rr, sh, ch = 2.0 * r0 + D, math.sin(h), math.cos(h)
        x, y = rr * sh, D * ch
        den = x * x + y * y
        return math.atan2(y, x), den, den - 4.0 * r0 * r1p * sh * ch + rr * D, r0 + D, r1p

    lo, hi, prev = 0.0, math.pi, math.nan
    for _ in range(100):
        eps, den, dfden, _, _ = chord(h)
        f = h - eps - rhs
        lo, hi = (h, hi) if f < 0.0 else (lo, h)
        hn = h - f * den / dfden
        newton = lo <= hn <= hi
        hn = hn if newton else 0.5 * (lo + hi)
        step, h = abs(hn - h), hn
        if not step > CHORD_TOL * hn or (newton and step > 0.5 * prev):
            break
        prev = step if newton else math.nan
    else:
        raise SolverError("chord solve did not converge")
    eps, _, _, r1, r1p = chord(h)
    theta1 = h - math.atan2(r1p, r1) + eps
    return (t0 + (TWO_PI - 2.0 * h), math.pi - theta1) if back else (t0 + 2.0 * h, theta1)


@pytest.mark.parametrize("harmonics", [
    [(3, 0.05, 0.0)],
    [(2, 0.02, 0.3), (3, 0.05, 1.1), (5, 0.01, 0.2)],
], ids=["m3", "three-harmonic"])
def test_exit_kernel_same_bits_as_closure_kernel(harmonics):
    table = PerturbedCircleTable(1.0, harmonics)
    rng = np.random.default_rng(12)
    n = 2500
    t0 = rng.uniform(-5.0 * TWO_PI, 5.0 * TWO_PI, n)  # negative and wound
    theta = rng.uniform(0.0, math.pi, n)  # half of them on the mirror branch
    theta[:250] = 10.0 ** rng.uniform(-12.0, -8.0, 250)  # within 1e-8 of 0 and of pi
    theta[250:500] = math.pi - 10.0 ** rng.uniform(-12.0, -8.0, 250)
    theta[500:750] = 10.0 ** rng.uniform(-8.0, 0.0, 250)
    for a, b in zip(t0.tolist(), theta.tolist()):
        got, want = table._exit_one(a, b), _closure_exit_one(table, a, b)
        assert [v.hex() for v in got] == [v.hex() for v in want], (a, b)


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
