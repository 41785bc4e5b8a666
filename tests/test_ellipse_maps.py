import math

import numpy as np
import pytest

from billiards import (
    BracketError,
    DomainError,
    EllipseTable,
    PhasePoint,
    Table,
    action_angle,
    action_angle_inverse,
    build_conjugacy,
    caustic_param,
    eccentricity_witness,
    ellip_k,
    hyperbolic_orbit_exists,
    orbit_shift,
    rotation_number_of_caustic,
    step,
)

import billiards.elliptic as elliptic
import billiards.ellipse_maps as ellipse_maps
from billiards.ellipse_maps import ConjugacyMap
from caustic_oracle import caustic_param_oracle

TWO_PI = 2.0 * math.pi


def ellipse_from_ecc(e, a=1.0):
    return EllipseTable(a, a * math.sqrt(1.0 - e * e))


@pytest.mark.parametrize("call", [
    lambda t, e: caustic_param(t, 0.3, 0.2),
    lambda t, e: rotation_number_of_caustic(t, 0.1),
    lambda t, e: orbit_shift(t, 0.1),
    lambda t, e: action_angle(t, PhasePoint(0.3, 0.2)),
    lambda t, e: action_angle_inverse(t, 0.1, 0.2),
    lambda t, e: build_conjugacy(e, t),
    lambda t, e: hyperbolic_orbit_exists(t, 1, 4),
    lambda t, e: eccentricity_witness(e, t),
], ids=["caustic_param", "rotation_number_of_caustic", "orbit_shift", "action_angle",
        "action_angle_inverse", "build_conjugacy", "hyperbolic_orbit_exists",
        "eccentricity_witness"])
@pytest.mark.parametrize("name", ["circle", "perturbed"])
def test_needs_an_ellipse(call, name, request, ellipse21):
    with pytest.raises(DomainError):
        call(request.getfixturevalue(name), ellipse21)


class TestCausticParam:
    def test_circle_reduction(self):
        E = EllipseTable(1.0, 1.0)
        for phi in (0.0, 0.7, 2.2, 5.0):
            assert caustic_param(E, phi, math.pi / 6) == pytest.approx(0.5, abs=1e-14)

    def test_minor_vertex(self):
        E = EllipseTable(2.0, 1.0)
        assert caustic_param(E, math.pi / 2, 0.3) == pytest.approx(
            2.0 * math.sin(0.3), rel=1e-14
        )

    def test_grazing_chord(self):
        E = EllipseTable(2.0, 1.0)
        assert caustic_param(E, 1.1, 0.0) == 0.0

    def test_focal_crossing_signalled(self):
        E = EllipseTable(2.0, 1.0)
        with pytest.raises(DomainError):
            caustic_param(E, math.pi / 2, math.pi / 2)
        with pytest.raises(DomainError):
            caustic_param_oracle(E, math.pi / 2, math.pi / 2)

    @pytest.mark.parametrize("ecc", [0.0, 0.5, 0.8])
    def test_oracle_agreement(self, ecc):
        E = ellipse_from_ecc(ecc)
        phis = np.linspace(0.0, TWO_PI, 25, endpoint=False)
        thetas = np.linspace(0.01, E.theta_star - 0.01, 25)
        p, t = np.meshgrid(phis, thetas, indexing="ij")
        worst = np.max(np.abs(caustic_param(E, p, t) - caustic_param_oracle(E, p, t)))
        assert worst < 1e-10

    def test_conserved_along_orbit(self, ellipse21):
        E = ellipse21
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
        assert rotation_number_of_caustic(EllipseTable(2.0, 1.0), 0.0) == 0.0

    def test_circle_closed_form(self):
        E = EllipseTable(1.0, 1.0)
        for lam in (0.1, 0.5, 0.9):
            assert rotation_number_of_caustic(E, lam) == pytest.approx(
                math.asin(lam) / math.pi, rel=1e-13
            )

    def test_strictly_increasing(self, ellipse21):
        E = ellipse21
        lams = np.linspace(0.0, E.b * (1 - 1e-6), 200)
        oms = [rotation_number_of_caustic(E, v) for v in lams]
        assert np.all(np.diff(oms) > 0)
        assert oms[-1] < 0.5

    def test_domain(self, ellipse21):
        with pytest.raises(DomainError):
            rotation_number_of_caustic(ellipse21, 1.0)


class TestOrbitShift:
    def test_rotation_identity(self):
        E = ellipse_from_ecc(0.6)
        lam = E.b / 2
        k = math.sqrt((E.a**2 - E.b**2) / (E.a**2 - lam**2))
        assert orbit_shift(E, lam) == pytest.approx(
            4.0 * ellip_k(k) * rotation_number_of_caustic(E, lam), rel=1e-13
        )

    def test_circle_arc_advance(self):
        # k = 0 makes the elliptic time the boundary angle: shift = 2 theta
        E = EllipseTable(1.0, 1.0)
        theta = 0.37
        lam = math.sin(theta)
        assert orbit_shift(E, lam) == pytest.approx(2.0 * theta, rel=1e-13)

    def test_qfold_advance(self, ellipse21):
        p = PhasePoint(0.7, 0.2)
        coord0 = action_angle(ellipse21, p)
        delta = orbit_shift(ellipse21, coord0.lam)
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
        E = ellipse_e05
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

        E = ellipse21
        phi = 1.3
        p = PhasePoint(ellipse21.arc_of_angle(phi), 1e-6)
        coord = action_angle(ellipse21, p)
        assert coord.lam < 3e-6
        expected = ellip_f(phi - math.pi / 2, E.eccentricity) % coord.period
        assert coord.t == pytest.approx(expected, abs=1e-5)

    def test_shift_conjugation(self, ellipse21):
        rng = np.random.default_rng(22)
        E = ellipse21
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
        assert 0.0 <= coord.lam / ellipse21.b < 1.0
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

    def test_residual_near_boundary(self, ellipse21):
        h = build_conjugacy(ellipse21, EllipseTable(3.0, 2.0))
        assert h.max_residual(theta_min=1e-6) <= 1e-12

    def test_residual_at_tangency_cutoff(self, ellipse21):
        # The grid bounces by chord_exit, which has no TANGENCY_CUTOFF.  step
        # keeps a point at theta = 1e-8 fixed on table 2 but moves its image
        # under h (theta = 1.006e-8) on table 1, a defect of 2.4e-8.
        h = build_conjugacy(ellipse21, EllipseTable(3.0, 2.0))
        assert h.max_residual(theta_min=1e-8) <= 1e-13

    @pytest.mark.parametrize("table2,theta_min", [
        (EllipseTable(1.0, 0.01), 0.01),
        (EllipseTable(1.0, 0.009), 0.01),
        (EllipseTable(3.0, 2.0), 0.75),
    ], ids=["strip-top-above-min", "strip-top-negative", "min-above-strip"])
    def test_empty_strip_raises(self, table2, theta_min):
        # the theta axis would otherwise run backwards from theta_min
        h = build_conjugacy(EllipseTable(1.0, 0.5), table2)
        with pytest.raises(DomainError, match="strip is empty") as err:
            h.residual_grid(n_s=8, n_theta=4, theta_min=theta_min)
        assert repr(theta_min) in str(err.value) and repr(h.theta_star) in str(err.value)

    def test_theta3_star_beyond_table2_range(self, monkeypatch):
        # The circle's strip reaches rotation numbers that no caustic of the
        # 1:0.99 ellipse has: the omega_1 inversion finds no bracket, and
        # theta3* falls back to table 2's theta*.
        raised = []

        def invert(*args, **kwargs):
            try:
                return elliptic.invert_monotone(*args, **kwargs)
            except BracketError:
                raised.append(True)
                raise

        monkeypatch.setattr(ellipse_maps, "invert_monotone", invert)
        t2 = EllipseTable(1.0, 0.99)
        h = build_conjugacy(EllipseTable(1.0, 1.0), t2)
        assert raised
        assert h.theta3_star == h.theta_star == t2.theta_star == math.asin(0.99)
        assert h.max_residual(n_s=60, n_theta=15) <= 1e-13

    def test_theta_star_composition(self, ellipse21):
        t2 = EllipseTable(3.0, 2.0)
        h = build_conjugacy(ellipse21, t2)
        assert 0.0 < h.theta_star <= min(t2.theta_star, h.theta3_star)
        # above the strip the chart must refuse (retrograde or hyperbolic)
        with pytest.raises(DomainError):
            h(PhasePoint(t2.arc_of_angle(math.pi / 2), t2.theta_star + 0.05))


class TestHyperbolicOrbits:
    def test_root_exists_above_threshold(self):
        E = ellipse_from_ecc(0.8)
        dec = hyperbolic_orbit_exists(E, 1, 4)
        assert dec.exists
        c2 = E.c2
        assert -c2 < dec.xi_root < 0.0
        assert abs(dec.g_at_root) <= 1e-10

    def test_no_root_below_threshold(self):
        E = ellipse_from_ecc(0.8)
        dec = hyperbolic_orbit_exists(E, 1, 5)
        assert not dec.exists
        assert dec.u_min > 0.0

    def test_near_circle_never_exists(self):
        E = ellipse_from_ecc(1e-4)
        assert E.theta_star / math.pi == pytest.approx(0.5, abs=1e-4)
        dec = hyperbolic_orbit_exists(E, 1, 3)
        assert not dec.exists and dec.u_min > 0.0

    def test_exact_circle(self):
        dec = hyperbolic_orbit_exists(EllipseTable(1.0, 1.0), 1, 3)
        assert not dec.exists

    def test_validation(self):
        E = ellipse_from_ecc(0.5)
        with pytest.raises(DomainError):
            hyperbolic_orbit_exists(E, 2, 4)
        with pytest.raises(DomainError):
            hyperbolic_orbit_exists(E, 3, 5)
        with pytest.raises(DomainError, match=r"m and n must be coprime, got \(2, 10\)"):
            hyperbolic_orbit_exists(EllipseTable(1.0, 0.5), 2, 10)

    def test_u_positive_on_parameter_grid(self):
        from billiards.ellipse_maps import _hyperbolic_phase

        # reference magnitude for the global minimum is ~5.65e-9; the grid
        # minimum here only needs strict positivity
        rng = np.random.default_rng(27)
        for _ in range(12):
            a = rng.uniform(1.0, 4.0)
            b = rng.uniform(0.2, a * 0.999)
            E = EllipseTable(a, b)
            c2 = E.c2
            if c2 == 0.0:
                continue
            for xi in np.linspace(-c2 * (1 - 1e-4), -1e-4 * c2, 50):
                assert _hyperbolic_phase(E, (2.0 / math.pi) * E.theta_star, float(xi)) > 0.0


class TestWitness:
    def test_canonical_pair(self):
        assert eccentricity_witness(ellipse_from_ecc(0.8), ellipse_from_ecc(0.5)) == (1, 4)

    def test_order_independent(self):
        assert eccentricity_witness(ellipse_from_ecc(0.5), ellipse_from_ecc(0.8)) == (1, 4)

    def test_equal_eccentricity(self):
        assert eccentricity_witness(ellipse_from_ecc(0.5), ellipse_from_ecc(0.5)) is None

    def test_similar_ellipses(self):
        assert eccentricity_witness(EllipseTable(2.0, 1.0), EllipseTable(4.0, 2.0)) is None

    def test_circle_pair(self):
        assert eccentricity_witness(EllipseTable(1.0, 1.0), EllipseTable(3.0, 3.0)) is None


class TestBatchIndependence:
    """Element i of an array call equals the scalar call on element i."""

    def test_action_angle(self, ellipse21):
        rng = np.random.default_rng(62)
        s = rng.uniform(0.0, ellipse21.perimeter, 100)
        th = rng.uniform(0.01, 0.99 * ellipse21.theta_star, 100)
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

    def test_conjugacy_map_on_repeated_points(self, ellipse21):
        # _match inverts each distinct omega_2 and evaluates each distinct
        # lambda_1 once: a batch holding every point three times, as 2-D
        # array, and a 0-d point all give the per-point bits
        h = build_conjugacy(ellipse21, EllipseTable(3.0, 2.0))
        rng = np.random.default_rng(65)
        s = rng.uniform(0.0, h.table2.perimeter, 30)
        th = rng.uniform(0.01, h.theta_star, 30)
        s, th = np.tile(s, 3), np.tile(th, 3)
        s[7], th[7] = 0.0, th[8]  # a repeated theta at another s
        ref = [h(PhasePoint(a, b)) for a, b in zip(s, th)]
        assert all(isinstance(p.s, float) and isinstance(p.theta, float) for p in ref)
        want = [[p.s.hex() for p in ref], [p.theta.hex() for p in ref]]
        for shape in ((90,), (3, 30)):
            out = h(PhasePoint(s.reshape(shape), th.reshape(shape)))
            assert np.shape(out.s) == np.shape(out.theta) == shape
            assert [[float(v).hex() for v in np.ravel(x)] for x in (out.s, out.theta)] == want
        one = h(PhasePoint(np.array(s[7]), np.array(th[7])))
        assert (one.s.hex(), one.theta.hex()) == (want[0][7], want[1][7])

    def test_oracle(self):
        E = ellipse_from_ecc(0.8)
        rng = np.random.default_rng(64)
        phi = rng.uniform(0.0, TWO_PI, 30)
        th = rng.uniform(0.0, E.theta_star, 30)
        th[0] = 0.0
        out = caustic_param_oracle(E, phi, th)
        assert np.array_equal(out, [caustic_param_oracle(E, *v) for v in zip(phi, th)])


def _rf_spy(monkeypatch, inside=None):
    """Replace elliptic.carlson_rf by a spy; the list it returns gets, per
    call made while inside[0] is false, the number of complete-integral
    arguments (R_F(0, k'^2, 1): x = 0) in that call."""
    calls, rf = [], elliptic.carlson_rf
    inside = [False] if inside is None else inside

    def spy(x, y, z):
        if not inside[0]:
            calls.append(int(np.count_nonzero(np.asarray(x) == 0.0)))
        return rf(x, y, z)

    monkeypatch.setattr(elliptic, "carlson_rf", spy)
    return calls


def _outside_inversion(monkeypatch):
    """Spy on ellipse_maps.invert_monotone; the flag it returns reads true
    while an inversion runs."""
    inside, invert = [False], ellipse_maps.invert_monotone

    def spy(*args, **kw):
        inside[0] = True
        try:
            return invert(*args, **kw)
        finally:
            inside[0] = False

    monkeypatch.setattr(ellipse_maps, "invert_monotone", spy)
    return inside


class TestMatchCompleteIntegrals:
    def test_one_complete_integral_per_match(self, ellipse21, monkeypatch):
        # omega_2 comes with coord2 from the action-angle pass, and one pass
        # gives omega_1 for the re-check and the K(k1) of the time rescale;
        # the inversion's own evaluations are not counted.
        h = build_conjugacy(ellipse21, EllipseTable(3.0, 2.0))
        phi = np.linspace(0.0, TWO_PI, 50, endpoint=False)
        coord2 = ellipse_maps._action_angle_phi(h.table2, phi, np.full(50, 0.4))
        assert np.array_equal(coord2.period / 4.0, ellip_k(coord2.k))
        assert np.array_equal(coord2.omega, rotation_number_of_caustic(h.table2, coord2.lam))
        calls = _rf_spy(monkeypatch, _outside_inversion(monkeypatch))
        lam1, t1, bigk1 = h._match(coord2)
        # the fused omega_1 pass only, on the 20 distinct lambda_1 of the 21
        # distinct omega_2 of the 50 points (50 before the passes ran once
        # per distinct value)
        assert (np.unique(coord2.omega).size, np.unique(lam1).size) == (21, 20)
        assert calls == [20]
        k1 = ellipse_maps._modulus(h.table1, lam1)
        assert np.array_equal(bigk1, ellip_k(k1))
        assert np.array_equal(t1, coord2.t_hat * 4.0 * ellip_k(k1))


class TestCarlsonCalls:
    """The caustic chart makes one carlson_rf pass per (F, K) pair."""

    def test_one_pass_per_rotation_number(self, ellipse21, monkeypatch):
        lam = np.linspace(0.0, 0.99, 30)
        want = rotation_number_of_caustic(ellipse21, lam)
        calls = _rf_spy(monkeypatch)
        assert np.array_equal(rotation_number_of_caustic(ellipse21, lam), want)
        assert calls == [30]

    def test_one_pass_per_action_angle(self, ellipse21, monkeypatch):
        # amplitudes phi - pi/2 on both sides of pi/2: wound ones take K
        # from the same pass
        phi = np.linspace(0.0, TWO_PI, 40, endpoint=False)
        want = ellipse_maps._action_angle_phi(ellipse21, phi, 0.3)
        calls = _rf_spy(monkeypatch)
        got = ellipse_maps._action_angle_phi(ellipse21, phi, 0.3)
        assert calls == [40]
        assert np.array_equal(got.t, want.t) and np.array_equal(got.period, want.period)

    def test_pinned_call_counts(self, ellipse21, monkeypatch):
        # build: the omega_1 grid with omega1_max (1), the theta3* bracket
        # ends (1) and 7 iterations; grid: action_angle with omega_2 (1),
        # the omega_1 inversion, the omega_1 re-check (1) and jacobi_am's
        # Newton passes.  Before the fused passes these were 22 and 21, and
        # before omega_2 joined the action-angle pass the grid made 13.
        calls = _rf_spy(monkeypatch)
        build_conjugacy(EllipseTable(1.3, 0.65), EllipseTable(1.1, 0.792))
        assert len(calls) == 9
        h = build_conjugacy(ellipse21, EllipseTable(3.0, 2.0))
        calls.clear()
        h.residual_grid(n_s=40, n_theta=10)
        assert len(calls) == 12

    def test_one_complete_integral_per_modulus_in_grid(self, ellipse21, monkeypatch):
        # Outside the omega_1 inversion the grid evaluates K(k2) once per
        # stacked point (in action_angle) and K(k1) once per distinct lambda_1
        # (in _match, passed on to the Newton solve of jacobi_am); no ellip_k
        # call at all.  That is 800 + 494 with numpy's AVX512 loops and
        # 800 + 507 without (the distinct count follows the bits), where one
        # K(k1) per point made 2 * 800.
        h = build_conjugacy(ellipse21, EllipseTable(3.0, 2.0))

        def forbidden(k):
            raise AssertionError("residual_grid re-evaluated a complete integral")

        calls = _rf_spy(monkeypatch, _outside_inversion(monkeypatch))
        monkeypatch.setattr(elliptic, "ellip_k", forbidden)
        monkeypatch.setattr(ellipse_maps, "ellip_k", forbidden)
        matched, match = [], h._match
        monkeypatch.setattr(h, "_match", lambda coord2: matched.append(match(coord2)) or matched[0])
        h.residual_grid(n_s=40, n_theta=10)
        assert sum(calls) == 800 + np.unique(matched[0][0]).size


class TestResidualGridOnePass:
    """residual_grid runs in the boundary-angle chart and matches the
    s-chart two-pass defect |f1(h(x)) - h(f2(x))| to 1e-13: the two paths
    round differently, so they agree to a few ulp, not bit for bit."""

    @pytest.mark.parametrize("pair,kw", [
        ((EllipseTable(2.0, 1.0), EllipseTable(3.0, 2.0)), {"n_s": 40, "n_theta": 10}),
        ((EllipseTable(2.0, 1.0), EllipseTable(2.0, 1.0)), {"n_s": 40, "n_theta": 10}),
        ((EllipseTable(1.5, 1.5), EllipseTable(0.7, 0.7)), {"n_s": 40, "n_theta": 10}),
        ((EllipseTable(2.0, 1.0), EllipseTable(3.0, 2.0)),
         {"n_s": 40, "n_theta": 10, "theta_min": 1e-6}),
        ((EllipseTable(1.0, 0.4), EllipseTable(1.0, 0.7)), {"n_s": 200, "n_theta": 50}),
    ], ids=["2:1-3:2", "identity", "circles", "theta_min", "200x50"])
    def test_matches_two_passes(self, pair, kw):
        h, ref = build_conjugacy(*pair), build_conjugacy(*pair)
        s, th, rs, rt = h.residual_grid(**kw)
        x = PhasePoint(s, th)
        lhs = step(ref.table1, ref(x))
        rhs = ref(step(ref.table2, x))
        ell1 = ref.table1.perimeter
        ds = np.abs(lhs.s - rhs.s) % ell1
        assert np.max(np.abs(rs - np.minimum(ds, ell1 - ds))) <= 1e-13
        assert np.max(np.abs(rt - np.abs(lhs.theta - rhs.theta))) <= 1e-13
        assert h._omega_residual <= 1e-10

    def test_one_map_call_and_no_grid_reevaluation(self, ellipse21, monkeypatch):
        # One angle_of_arc call on the n_s distinct arc lengths of the grid
        # (not on its n = n_s * n_theta points), one arc_of_angle call
        # (besides those inside angle_of_arc), one pass of the rotation
        # matching on the 2n stacked points, none of the s-chart maps, and
        # no re-evaluation of the omega grid.
        h = build_conjugacy(ellipse21, EllipseTable(3.0, 2.0))
        calls, omega1_at, depth = [], [], [0]
        angle_of_arc, arc_of_angle = Table.angle_of_arc, Table.arc_of_angle
        match, rotation = ConjugacyMap._match, ellipse_maps.rotation_number_of_caustic

        def spy_angle(self, s):
            calls.append(("angle_of_arc", self, np.size(s)))
            depth[0] += 1
            try:
                return angle_of_arc(self, s)
            finally:
                depth[0] -= 1

        def spy_arc(self, t):
            if not depth[0]:
                calls.append(("arc_of_angle", self, np.size(t)))
            return arc_of_angle(self, t)

        def spy_match(self, coord2):
            calls.append(("match", None, np.size(coord2.lam)))
            return match(self, coord2)

        def spy_rotation(E, lam):
            if E is h.table1:
                omega1_at.append(np.ravel(lam))
            return rotation(E, lam)

        def forbidden(*args):
            raise AssertionError("residual_grid left the boundary-angle chart")

        monkeypatch.setattr(Table, "angle_of_arc", spy_angle)
        monkeypatch.setattr(Table, "arc_of_angle", spy_arc)
        monkeypatch.setattr(ConjugacyMap, "_match", spy_match)
        monkeypatch.setattr(ellipse_maps, "rotation_number_of_caustic", spy_rotation)
        monkeypatch.setattr(ConjugacyMap, "__call__", forbidden)
        for name in ("action_angle", "action_angle_inverse"):
            monkeypatch.setattr(ellipse_maps, name, forbidden)
        h.residual_grid(n_s=40, n_theta=10)
        assert calls == [("angle_of_arc", h.table2, 40), ("match", None, 800),
                         ("arc_of_angle", h.table1, 800)]
        assert omega1_at and not np.isin(np.concatenate(omega1_at), h._lam_grid).any()
