import math

import numpy as np
import pytest

from billiards import (
    DomainError,
    EllipseParams,
    EllipseTable,
    PhasePoint,
    action_angle,
    action_angle_inverse,
    build_conjugacy,
    caustic_param,
    caustic_param_oracle,
    eccentricity_witness,
    ellip_k,
    hyperbolic_orbit_exists,
    orbit_shift,
    rotation_number_of_caustic,
    step,
)

TWO_PI = 2.0 * math.pi


def params_from_ecc(e, a=1.0):
    return EllipseParams(a, a * math.sqrt(1.0 - e * e))


class TestCausticParam:
    def test_circle_reduction(self):
        E = EllipseParams(1.0, 1.0)
        for phi in (0.0, 0.7, 2.2, 5.0):
            assert caustic_param(E, phi, math.pi / 6) == pytest.approx(0.5, abs=1e-14)

    def test_minor_vertex(self):
        E = EllipseParams(2.0, 1.0)
        assert caustic_param(E, math.pi / 2, 0.3) == pytest.approx(
            2.0 * math.sin(0.3), rel=1e-14
        )

    def test_grazing_chord(self):
        E = EllipseParams(2.0, 1.0)
        assert caustic_param(E, 1.1, 0.0) == 0.0

    def test_focal_crossing_signalled(self):
        E = EllipseParams(2.0, 1.0)
        with pytest.raises(DomainError):
            caustic_param(E, math.pi / 2, math.pi / 2)
        with pytest.raises(DomainError):
            caustic_param_oracle(E, math.pi / 2, math.pi / 2)

    @pytest.mark.parametrize("ecc", [0.0, 0.5, 0.8])
    def test_oracle_agreement(self, ecc):
        E = params_from_ecc(ecc)
        phis = np.linspace(0.0, TWO_PI, 25, endpoint=False)
        thetas = np.linspace(0.01, E.theta_star - 0.01, 25)
        p, t = np.meshgrid(phis, thetas, indexing="ij")
        worst = np.max(np.abs(caustic_param(E, p, t) - caustic_param_oracle(E, p, t)))
        assert worst < 1e-10

    def test_conserved_along_orbit(self, ellipse21):
        E = ellipse21.params
        phi, theta = 0.9, 0.25
        lam0 = caustic_param_oracle(E, phi, theta)
        p = PhasePoint(ellipse21.arc_of_angle(phi), theta)
        for _ in range(50):
            p = step(ellipse21, p)
            phi_n = ellipse21.angle_of_arc(p.s)
            assert caustic_param_oracle(E, phi_n, p.theta) == pytest.approx(
                lam0, abs=1e-9
            )


class TestRotationNumber:
    def test_zero_caustic(self):
        assert rotation_number_of_caustic(EllipseParams(2.0, 1.0), 0.0) == 0.0

    def test_circle_closed_form(self):
        E = EllipseParams(1.0, 1.0)
        for lam in (0.1, 0.5, 0.9):
            assert rotation_number_of_caustic(E, lam) == pytest.approx(
                math.asin(lam) / math.pi, rel=1e-13
            )

    def test_strictly_increasing(self, ellipse21):
        E = ellipse21.params
        lams = np.linspace(0.0, E.b * (1 - 1e-6), 200)
        oms = [rotation_number_of_caustic(E, v) for v in lams]
        assert np.all(np.diff(oms) > 0)
        assert oms[-1] < 0.5

    def test_domain(self, ellipse21):
        with pytest.raises(DomainError):
            rotation_number_of_caustic(ellipse21.params, 1.0)


class TestOrbitShift:
    def test_rotation_identity(self):
        E = params_from_ecc(0.6)
        lam = E.b / 2
        k = math.sqrt((E.a**2 - E.b**2) / (E.a**2 - lam**2))
        assert orbit_shift(E, lam) == pytest.approx(
            4.0 * ellip_k(k) * rotation_number_of_caustic(E, lam), rel=1e-13
        )

    def test_circle_arc_advance(self):
        # k = 0 makes the elliptic time the boundary angle: shift = 2 theta
        E = EllipseParams(1.0, 1.0)
        theta = 0.37
        lam = math.sin(theta)
        assert orbit_shift(E, lam) == pytest.approx(2.0 * theta, rel=1e-13)

    def test_qfold_advance(self, ellipse21):
        p = PhasePoint(0.7, 0.2)
        coord0 = action_angle(ellipse21, p)
        delta = orbit_shift(ellipse21.params, coord0.lam)
        for n in (1, 2, 5, 9):
            pn = p
            for _ in range(n):
                pn = step(ellipse21, pn)
            coord = action_angle(ellipse21, pn)
            drift = (coord.t - coord0.t - n * delta) % coord.period
            drift = min(drift, coord.period - drift)
            assert drift < 1e-9


class TestActionAngle:
    def test_roundtrip(self, ellipse_e05):
        rng = np.random.default_rng(21)
        E = ellipse_e05.params
        for _ in range(500):
            p = PhasePoint(
                rng.uniform(0, ellipse_e05.perimeter),
                rng.uniform(0.01, E.theta_star * 0.99),
            )
            coord = action_angle(ellipse_e05, p)
            back = action_angle_inverse(ellipse_e05, coord.lam, coord.t)
            assert back.s == pytest.approx(p.s, abs=1e-9)
            assert back.theta == pytest.approx(p.theta, abs=1e-9)

    def test_small_theta_limit(self, ellipse21):
        # lambda -> 0 and the elliptic time tends to F(phi - pi/2, e)
        from billiards import ellip_f

        E = ellipse21.params
        phi = 1.3
        p = PhasePoint(ellipse21.arc_of_angle(phi), 1e-6)
        coord = action_angle(ellipse21, p)
        assert coord.lam < 3e-6
        expected = ellip_f(phi - math.pi / 2, E.eccentricity) % coord.period
        assert coord.t == pytest.approx(expected, abs=1e-5)

    def test_shift_conjugation(self, ellipse21):
        rng = np.random.default_rng(22)
        E = ellipse21.params
        for _ in range(200):
            p = PhasePoint(
                rng.uniform(0, ellipse21.perimeter),
                rng.uniform(0.01, E.theta_star * 0.95),
            )
            coord = action_angle(ellipse21, p)
            delta = orbit_shift(E, coord.lam)
            after = action_angle(ellipse21, step(ellipse21, p))
            assert after.lam == pytest.approx(coord.lam, abs=1e-10)
            drift = (after.t - coord.t - delta) % coord.period
            drift = min(drift, coord.period - drift)
            assert drift < 1e-8

    def test_domain_errors(self, ellipse21):
        with pytest.raises(DomainError):
            action_angle(ellipse21, PhasePoint(0.3, 0.0))
        with pytest.raises(DomainError):
            action_angle(ellipse21, PhasePoint(0.3, 2.0))

    def test_normalized_coordinates(self, ellipse21):
        coord = action_angle(ellipse21, PhasePoint(1.0, 0.3))
        assert 0.0 <= coord.lam_hat < 1.0
        assert 0.0 <= coord.t_hat < 1.0
        assert coord.period == pytest.approx(4.0 * ellip_k(coord.k), rel=1e-14)


class TestConjugacy:
    def test_identity_pair(self, ellipse21):
        h = build_conjugacy(ellipse21, EllipseTable(2.0, 1.0))
        assert h.max_residual(n_s=40, n_theta=10) < 1e-10

    def test_circle_pair_is_rescaling(self):
        c1, c2 = EllipseTable(1.5, 1.5), EllipseTable(0.7, 0.7)
        h = build_conjugacy(c1, c2)
        rng = np.random.default_rng(25)
        for _ in range(30):
            s = rng.uniform(0, c2.perimeter)
            th = rng.uniform(0.01, 1.5)
            out = h(PhasePoint(s, th))
            assert out.s == pytest.approx((s * 1.5 / 0.7) % c1.perimeter, abs=1e-10)
            assert out.theta == pytest.approx(th, abs=1e-10)

    def test_intertwining_random_pairs(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            a1, b1 = 1.0 + rng.uniform(0, 2), 1.0
            a2, b2 = 1.0 + rng.uniform(0, 2), 1.0 + rng.uniform(0, 0.8)
            if a2 < b2:
                a2, b2 = b2, a2
            h = build_conjugacy(EllipseTable(a1, b1), EllipseTable(a2, b2))
            assert h.max_residual(n_s=24, n_theta=6) < 1e-6

    def test_theta_star_composition(self, ellipse21):
        t2 = EllipseTable(3.0, 2.0)
        h = build_conjugacy(ellipse21, t2)
        assert 0.0 < h.theta_star <= min(h.theta2_star, h.theta3_star)
        # above the strip the chart must refuse (retrograde or hyperbolic)
        with pytest.raises(DomainError):
            h(PhasePoint(t2.arc_of_angle(math.pi / 2), t2.params.theta_star + 0.05))


class TestHyperbolicOrbits:
    def test_root_exists_above_threshold(self):
        E = params_from_ecc(0.8)
        dec = hyperbolic_orbit_exists(E, 1, 4)
        assert dec.exists
        c2 = E.focal_distance**2
        assert -c2 < dec.xi_root < 0.0
        assert abs(dec.g_at_root) <= 1e-10

    def test_no_root_below_threshold(self):
        E = params_from_ecc(0.8)
        dec = hyperbolic_orbit_exists(E, 1, 5)
        assert not dec.exists
        assert dec.u_min > 0.0

    def test_near_circle_never_exists(self):
        E = params_from_ecc(1e-4)
        assert E.theta_star / math.pi == pytest.approx(0.5, abs=1e-4)
        dec = hyperbolic_orbit_exists(E, 1, 3)
        assert not dec.exists and dec.u_min > 0.0

    def test_exact_circle(self):
        dec = hyperbolic_orbit_exists(EllipseParams(1.0, 1.0), 1, 3)
        assert not dec.exists

    def test_validation(self):
        E = params_from_ecc(0.5)
        with pytest.raises(DomainError):
            hyperbolic_orbit_exists(E, 2, 4)
        with pytest.raises(DomainError):
            hyperbolic_orbit_exists(E, 3, 5)

    def test_u_positive_on_parameter_grid(self):
        from billiards.ellipse_maps import _u_hyperbolic

        # reference magnitude for the global minimum is ~5.65e-9; the grid
        # minimum here only needs strict positivity
        rng = np.random.default_rng(27)
        for _ in range(12):
            a = rng.uniform(1.0, 4.0)
            b = rng.uniform(0.2, a * 0.999)
            E = EllipseParams(a, b)
            c2 = E.focal_distance**2
            if c2 == 0.0:
                continue
            for xi in np.linspace(-c2 * (1 - 1e-4), -1e-4 * c2, 50):
                assert _u_hyperbolic(E, float(xi)) > 0.0


class TestWitness:
    def test_canonical_pair(self):
        assert eccentricity_witness(params_from_ecc(0.8), params_from_ecc(0.5)) == (1, 4)

    def test_order_independent(self):
        assert eccentricity_witness(params_from_ecc(0.5), params_from_ecc(0.8)) == (1, 4)

    def test_equal_eccentricity(self):
        assert eccentricity_witness(params_from_ecc(0.5), params_from_ecc(0.5)) is None

    def test_similar_ellipses(self):
        assert eccentricity_witness(EllipseParams(2.0, 1.0), EllipseParams(4.0, 2.0)) is None

    def test_circle_pair(self):
        assert eccentricity_witness(EllipseParams(1.0, 1.0), EllipseParams(3.0, 3.0)) is None


class TestBatchIndependence:
    """Element i of an array call equals the scalar call on element i."""

    def test_action_angle(self, ellipse21):
        rng = np.random.default_rng(62)
        s = rng.uniform(0.0, ellipse21.perimeter, 100)
        th = rng.uniform(0.01, 0.99 * ellipse21.params.theta_star, 100)
        coord = action_angle(ellipse21, PhasePoint(s, th))
        for i, (a, b) in enumerate(zip(s, th)):
            one = action_angle(ellipse21, PhasePoint(a, b))
            assert (one.lam, one.t, one.k, one.period) == (
                coord.lam[i], coord.t[i], coord.k[i], coord.period[i])

    def test_conjugacy_map(self, ellipse21):
        h = build_conjugacy(ellipse21, EllipseTable(3.0, 2.0))
        rng = np.random.default_rng(63)
        s = rng.uniform(0.0, h.table2.perimeter, 40)
        th = rng.uniform(0.01, h.theta_star, 40)
        out = h(PhasePoint(s, th))
        ref = [h(PhasePoint(a, b)) for a, b in zip(s, th)]
        assert np.array_equal(out.s, [p.s for p in ref])
        assert np.array_equal(out.theta, [p.theta for p in ref])

    def test_oracle(self):
        E = params_from_ecc(0.8)
        rng = np.random.default_rng(64)
        phi = rng.uniform(0.0, TWO_PI, 30)
        th = rng.uniform(0.0, E.theta_star, 30)
        th[0] = 0.0
        out = caustic_param_oracle(E, phi, th)
        assert np.array_equal(out, [caustic_param_oracle(E, *v) for v in zip(phi, th)])
