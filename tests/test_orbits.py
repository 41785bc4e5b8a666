import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from scipy.optimize import minimize

from billiards import (
    CircleTable,
    DomainError,
    EllipseTable,
    PerturbedCircleTable,
    PhasePoint,
    SolverError,
    find_orbit,
    find_orbits,
    generating,
    lq_bounds,
    rotation_estimate,
    sample_beta,
)
import billiards.orbits as orbits_mod
from ellipse_beta_oracle import ellipse_max_length
from strategies import PROPERTY, ellipses


def polygon_length(radius, p, q):
    """Regular star-polygon oracle for the circle."""
    return 2.0 * q * radius * math.sin(math.pi * p / q)


class TestCircleOrbits:
    def test_equilateral_triangle(self, circle):
        orb = find_orbit(circle, 1, 3)
        assert orb.length == pytest.approx(3 * math.sqrt(3), abs=1e-12)
        assert orb.converged

    @pytest.mark.parametrize("p,q", [(1, 4), (1, 7), (2, 5), (3, 8)])
    def test_star_polygons(self, circle, p, q):
        orb = find_orbit(circle, p, q)
        assert orb.length == pytest.approx(polygon_length(1.0, p, q), abs=1e-11)

    def test_beta_closed_form(self, circle):
        assert find_orbit(circle, 1, 4).beta == pytest.approx(-math.sqrt(2), abs=1e-12)

    def test_lq_gap_vanishes(self, circle):
        (big, small, _, _), = lq_bounds(circle, [6])
        assert big == pytest.approx(6.0, abs=1e-11)
        assert big == small


class TestEllipseOrbits:
    def test_two_periodic_axes(self, ellipse21):
        # the 2-periodic orbits run along the axes; lengths count both
        # traversals of the chord (the standard action convention, which the
        # circle formula -2 q R sin(pi p / q) extends to q = 2)
        (big, small, _, _), = lq_bounds(ellipse21, [2])
        assert big == pytest.approx(8.0, rel=1e-10)
        assert small == pytest.approx(4.0, rel=1e-10)
        assert find_orbit(ellipse21, 1, 2).beta == pytest.approx(-4.0, rel=1e-10)

    def test_q3_bounds_against_brute_force(self, ellipse21):
        # On the integrable ellipse the simple 3-periodic orbits form one
        # equal-perimeter family, so the bounds coincide; the brute-force
        # oracle confirms there is no second non-degenerate critical value.
        (big, small, _, _), = lq_bounds(ellipse21, [3])
        assert big == small > 0.0

        # independent multistart oracle: Nelder-Mead on the squared gradient
        # of the 3-chord length in the angle chart (critical values do not
        # depend on the parametrization), gradient by finite differences
        a, b = 2.0, 1.0

        def length(t):
            x = a * np.cos(t)
            y = b * np.sin(t)
            return float(
                np.hypot(x[1] - x[0], y[1] - y[0])
                + np.hypot(x[2] - x[1], y[2] - y[1])
                + np.hypot(x[0] - x[2], y[0] - y[2])
            )

        def grad_sq(t):
            h = 1e-6
            g = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                g[i] = (length(t + e) - length(t - e)) / (2 * h)
            return float(np.dot(g, g))

        rng = np.random.default_rng(23)
        found = []
        for _ in range(30):
            t0 = np.sort(rng.uniform(0, 2 * math.pi, 3))
            if np.min(np.diff(t0)) < 0.5:
                continue
            res = minimize(grad_sq, t0, method="Nelder-Mead",
                           options={"xatol": 1e-9, "fatol": 1e-22, "maxiter": 3000})
            if res.fun < 1e-15:
                t_fin = np.sort(res.x % (2 * math.pi))
                gaps = np.diff(np.concatenate([t_fin, [t_fin[0] + 2 * math.pi]]))
                if np.min(gaps) > 1e-5:  # genuine 3-gon, not a pinched chain
                    found.append(length(res.x))
        assert found, "oracle found no critical points"
        assert max(found) == pytest.approx(big, abs=1e-6)
        assert min(found) == pytest.approx(small, abs=1e-6)

    def test_orbit_rotation_number(self, ellipse21):
        orb = find_orbit(ellipse21, 1, 5)
        pts = orb.vertices(ellipse21)
        chord = pts[1] - pts[0]
        chord /= math.hypot(*chord)
        _, tan, _, _, _ = ellipse21.frame(orb.t[0])
        theta0 = math.atan2(tan[0] * chord[1] - tan[1] * chord[0],
                            tan[0] * chord[0] + tan[1] * chord[1])
        est = rotation_estimate(ellipse21, PhasePoint(orb.s[0], theta0), 5)
        assert est == pytest.approx(1.0 / 5.0, abs=1e-9)


class TestExactEllipseLengths:
    """Maximal (1, q)-orbit lengths against the exact formula through the
    caustic of rotation number 1/q (tests/ellipse_beta_oracle.py)."""

    def test_oracle_closed_form_at_q4(self):
        # the maximal 4-gon of an ellipse has length 4 sqrt(a^2 + b^2)
        for a, b in ((2.0, 1.0), (1.0, 0.3)):
            assert float(ellipse_max_length(a, b, 4)) == pytest.approx(
                4.0 * math.hypot(a, b), rel=1e-15)

    @pytest.mark.parametrize("q", [3, 10, 40])
    def test_oracle_precision_independent(self, q):
        # the root bracket scales with dps: at dps = 30 a fixed 1e-30 offset
        # rounded the upper end to b, where the modulus reaches 1
        assert abs(ellipse_max_length(1.0, 0.1, q, dps=30)
                   - ellipse_max_length(1.0, 0.1, q, dps=40)) <= 1e-25

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (3.0, 2.0), (1.0, 0.3)])
    def test_max_lengths(self, a, b):
        qs = [3, 5, 10, 20, 57, 120]
        for q, orb in zip(qs, find_orbits(EllipseTable(a, b), 1, qs)):
            exact = ellipse_max_length(a, b, q)
            assert abs(float((orb.length - exact) / exact)) <= 4e-16, q

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (3.0, 2.0), (1.0, 0.3), (1.0, 0.1015625),
                                      (1.0, 0.1)])
    def test_min_lengths(self, a, b):
        # Every (1, q) orbit of an ellipse lies on the caustic of rotation
        # number 1/q, so the min class has the max-class length; its one
        # Lazutkin start finds it on eccentric ellipses too.
        qs = [3, 5, 10, 20, 57, 120]
        for q, orb in zip(qs, find_orbits(EllipseTable(a, b), 1, qs, "min")):
            exact = ellipse_max_length(a, b, q)
            assert abs(float((orb.length - exact) / exact)) <= 4e-16, q

    @pytest.mark.parametrize("b, qs", [
        (0.1015625, [13, 22, 26, 34]),
        (0.1, [14, 17, 24, 30, 36, 40]),
        (0.12, [28, 36, 38]),
    ])
    def test_eccentric_max_length(self, b, qs):
        # From equal-arc starts no "max" start converged at these q (each
        # raised SolverError after SWEEP_CAP sweeps); the Lazutkin-equal start
        # lies O(1/q^2) from the orbit family.
        for q, orb in zip(qs, find_orbits(EllipseTable(1.0, b), 1, qs)):
            exact = ellipse_max_length(1.0, b, q)
            assert abs(float((orb.length - exact) / exact)) <= 4e-16, q


class TestProperties:
    def test_reflection_law_at_vertices(self, ellipse21, perturbed):
        for table in (ellipse21, perturbed):
            orb = find_orbit(table, 1, 6)
            s = orb.s
            ell = table.perimeter
            for i in range(6):
                s_prev = s[i - 1] if i > 0 else s[5] - ell
                s_next = s[i + 1] if i < 5 else s[0] + ell
                _, _, din = generating(table, s_prev, s[i])
                _, dout, _ = generating(table, s[i], s_next)
                # stationarity: cos(theta_in) = cos(theta_out)
                assert din + dout == pytest.approx(0.0, abs=1e-8)

    def test_reversal_symmetry(self, ellipse_e05):
        assert find_orbit(ellipse_e05, 1, 5).beta == pytest.approx(
            find_orbit(ellipse_e05, 4, 5).beta, rel=1e-10
        )

    def test_beta_convexity(self, ellipse21):
        qs = [3, 4, 5, 6, 7, 8, 10, 12]
        omegas = np.array([1.0 / q for q in qs][::-1])
        betas = np.array([find_orbit(ellipse21, 1, q).beta for q in qs][::-1])
        slopes = np.diff(betas) / np.diff(omegas)
        assert np.all(np.diff(slopes) > 0.0)

    @PROPERTY
    @given(ellipses)
    def test_max_lengths_rise_and_beta_is_convex(self, table):
        # b/a reaches 0.1, where "max" from equal-arc starts raised SolverError
        qs = np.arange(3, 25)
        lengths = np.array([orb.length for orb in find_orbits(table, 1, qs)])
        assert np.all(np.diff(lengths) > 0.0)
        omega, beta = 1.0 / qs[::-1], -lengths[::-1] / qs[::-1]
        assert np.all(np.diff(np.diff(beta) / np.diff(omega)) > 0.0)

    @pytest.mark.parametrize("p,q", [(2, 5), (3, 5), (4, 5), (2, 7), (3, 7), (3, 8), (5, 8)])
    def test_orbits_keep_their_rotation_number(self, circle, ellipse21, perturbed, p, q):
        # A lift with a gap of more than one turn is a (p - 1, q) orbit in
        # disguise (the 1:5 pentagon for "min" at (2, 5)).  Reversal maps the
        # (p, q) lifts onto the (q - p, q) ones, chord for chord, so the two
        # maxima are equal; on an integrable table every (p, q) orbit lies on
        # one caustic, so "min" has that length too.
        for table in (circle, ellipse21, perturbed):
            big = find_orbit(table, min(p, q - p), q, "max").length
            for orbit_class in ("max", "min") if table.integrable else ("max",):
                orb = find_orbit(table, p, q, orbit_class)
                gaps = np.diff(np.append(orb.t, orb.t[0] + 2 * math.pi * p))
                assert np.all((gaps > 0.0) & (gaps < 2 * math.pi)), orbit_class
                assert orb.length == pytest.approx(big, rel=1e-15), orbit_class

    def test_scaling_homogeneity(self, ellipse21):
        scaled = ellipse21.scaled(3.0)
        for (p, q) in [(1, 3), (1, 9), (2, 7)]:
            assert find_orbit(scaled, p, q).beta == pytest.approx(
                3.0 * find_orbit(ellipse21, p, q).beta, rel=1e-10
            )

    def test_max_is_longest_single_start(self, perturbed):
        # At q = 29 two critical values lie within the dedupe tolerance; the
        # maximizer must be the longer one, whichever start found it.
        p, q = 1, 29
        chain = orbits_mod._Chain(perturbed, p)
        stat_tol = orbits_mod.STAT_TOL_FACTOR * perturbed.perimeter
        starts = orbits_mod._equal_init(perturbed, p, q, np.arange(8) / 8.0)
        lengths = []
        one = np.array([q])
        for j in range(8):
            t, _, _, _, ok = orbits_mod._solve_from(chain, starts[j:j + 1], one, True, stat_tol)
            if ok[0]:
                lengths.append(chain.value(t, one)[0])
        assert lengths
        assert find_orbit(perturbed, p, q, "max").length >= max(lengths) - 1e-12

    @pytest.mark.parametrize("q,k", [
        pytest.param(q, k, marks=pytest.mark.xfail(
            strict=True, reason="all 8 starts polish to the min class (6.259087954816307)"))
        if (q, k) == (13, 2) else (q, k)
        for q in (13, 17) for k in range(10)
    ])
    def test_max_length_is_rotation_invariant(self, q, k):
        # L_q does not change when the table is rotated: ten phases across
        # one period 2 pi / 3 of the m = 3 harmonic, by find_orbit and by the
        # batched sample_beta, give the phase-0 maximal lengths.
        table = PerturbedCircleTable(1, [(3, 0.05, k * (2 * math.pi / 3) / 10)])
        length = {13: 6.259117106469387, 17: 6.283584880326566}[q]
        assert find_orbit(table, 1, q, "max").length == pytest.approx(length, rel=1e-14)
        samples = sample_beta(table, 13, 17)
        assert -q * samples.beta[q - 13] == pytest.approx(length, rel=1e-14)

    def test_perturbed_gap_positive_small_q(self, perturbed):
        (big, small, _, _), = lq_bounds(perturbed, [10])
        assert big - small > 1e-5

    def test_collapsed_chord_trial_is_silent(self, perturbed):
        # A row with two vertices on one boundary point (a chord of length 0)
        # reads a NaN residual, without a divide-by-zero warning; the Newton
        # polish stops it where it is, unconverged, and the healthy row
        # beside it takes the path it takes alone.
        q = np.array([13, 13])
        chain = orbits_mod._Chain(perturbed, 1)
        stat_tol = orbits_mod.STAT_TOL_FACTOR * perturbed.perimeter
        healthy = orbits_mod._equal_init(perturbed, 1, 13, np.array([0.3]))[0]
        collapsed = healthy.copy()
        collapsed[5] = collapsed[4]
        t = np.stack([collapsed, healthy])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, _, res = chain.hessian(t, q)
            t_out, res_out, steps, ok = orbits_mod._newton(chain, t, q, orbits_mod.NEWTON_CAP,
                                                           stat_tol)
        assert np.isnan(res[0]) and np.isfinite(res[1])
        assert np.isnan(res_out[0]) and not ok[0] and steps[0] == 0
        assert np.array_equal(t_out[0], collapsed)
        alone = orbits_mod._newton(chain, t[1:], q[1:], orbits_mod.NEWTON_CAP, stat_tol)
        assert ok[1] and steps[1] >= 1
        assert np.array_equal(t_out[1], alone[0][0])
        assert (res_out[1], steps[1], ok[1]) == (alone[1][0], alone[2][0], alone[3][0])

    def test_perturbed_min_length_pin(self, perturbed):
        orb = find_orbit(perturbed, 1, 13, "min")
        assert orb.length == 6.259087954816306
        assert orb.converged

    def test_canonical_labeling(self, ellipse21):
        orb = find_orbit(ellipse21, 1, 5)
        assert 0.0 <= orb.s[0] < ellipse21.perimeter
        assert orb.s[0] == min(si % ellipse21.perimeter for si in orb.s)
        assert np.all(np.diff(orb.s) > 0)


    def test_canonical_labeling_at_the_wrap(self, circle, perturbed):
        # A vertex polished to t = -1e-16 is the vertex at 0 (np.mod rounds it
        # up to 2 pi): it takes label 0 and wins the tie-break among equal
        # lengths.  On the perturbed circle that is the start that needed no
        # Newton step.
        orb = find_orbit(circle, 1, 2)
        assert orb.t[0] == 0.0 and orb.s[0] == 0.0
        orb = find_orbit(perturbed, 1, 3, "max")
        assert orb.t[0] == 0.0 and orb.s[0] == 0.0
        assert (orb.sweeps, orb.newton_steps) == (3, 0)


class TestStarts:
    def test_circle_start_is_equal_angle(self):
        # On the circle the Lazutkin coordinate is R^(1/3) t, so the
        # integrable start is the equal-angle one, rotations included.
        table = CircleTable(1.7)
        for p, q in [(1, 2), (1, 7), (3, 8), (1, 40)]:
            frac = np.arange(8) / 8.0
            t = orbits_mod._equal_init(table, p, q, frac)
            want = 2 * math.pi * p * (np.arange(q) + frac[:, None]) / q
            np.testing.assert_allclose(t, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name", ["ellipse21", "perturbed"])
    def test_starts_follow_the_table(self, name, request):
        # Integrable tables start equally spaced in the Lazutkin coordinate,
        # the others in arc length; a rotated start moves by its fraction
        # of one gap.
        table = request.getfixturevalue(name)
        if table.integrable:
            period = table.lazutkin_perimeter
            coord = lambda t: np.interp(t, table._t_knots, table._z_knots)  # noqa: E731
        else:
            period, coord = table.perimeter, table.arc_of_angle
        t = orbits_mod._equal_init(table, 1, 11, np.array([0.0, 0.375]))
        want = (np.arange(11) + np.array([[0.0], [0.375]])) * period / 11
        np.testing.assert_allclose(coord(t), want, rtol=0.0, atol=1e-13)


def _one_trial_at_a_time(chain, t, q, cap, stat_tol):
    """_newton's search for one row, one trial point per evaluation: the
    full step, then each halving in turn, for up to 12 values of mu.
    Returns (t, residual, steps, the halving index k of each accepted step
    alpha = 2^-k)."""
    F, diag, off, res = chain.hessian(t, q)
    mu, steps, taken = 1e-12, 0, []
    while res[0] > stat_tol and steps < cap:
        norm = orbits_mod._sequential_sums(F**2)[0]
        for _ in range(12):
            delta = orbits_mod._lm_step(diag, off, F, q, np.array([mu]))
            for k in range(20):
                alpha = np.ldexp(1.0, -k)
                t_try = t + alpha * delta
                if not orbits_mod._ordered(t_try, q, chain.p)[0]:
                    continue
                F_try, diag_try, off_try, res_try = chain.hessian(t_try, q)
                if orbits_mod._sequential_sums(F_try**2)[0] <= norm * (1.0 - 1e-6 * alpha):
                    break
            else:
                mu *= 100.0
                continue
            taken.append(k)
            t, F, diag, off, res = t_try, F_try, diag_try, off_try, res_try
            mu = max(mu * 0.1, 1e-14)
            steps += 1
            break
        else:  # every mu failed: the outer step counts, and the row stops
            return t, res[0], steps + 1, taken
    return t, res[0], steps, taken


class TestBatchedSolver:
    def test_batch_rows_are_independent(self, perturbed):
        # A start solved inside a batch takes exactly the path it takes alone.
        p, q = 1, 15
        chain = orbits_mod._Chain(perturbed, p)
        stat_tol = orbits_mod.STAT_TOL_FACTOR * perturbed.perimeter
        starts = orbits_mod._equal_init(perturbed, p, q, np.arange(8) / 8.0)
        qs = np.full(8, q)
        swept = orbits_mod._sweeps(chain, starts, qs, 3)
        batch = orbits_mod._newton(chain, swept, qs, orbits_mod.NEWTON_CAP, stat_tol)
        assert np.all(batch[3]) and len(set(batch[2].tolist())) > 1
        for j in range(8):
            one = qs[j:j + 1]
            assert np.array_equal(orbits_mod._sweeps(chain, starts[j:j + 1], one, 3),
                                  swept[j:j + 1])
            single = orbits_mod._newton(chain, swept[j:j + 1], one, orbits_mod.NEWTON_CAP,
                                        stat_tol)
            for got, want in zip(single, batch):  # t, residual, steps, ok
                assert np.array_equal(got, want[j:j + 1])

    def test_mixed_q_rows_are_independent(self, perturbed):
        # Rows of q 10..20, 8 starts each, padded to q = 20 in one batch: each
        # row takes exactly the path of its one-q run, and the padded columns
        # of t never move.
        p = 1
        chain = orbits_mod._Chain(perturbed, p)
        stat_tol = orbits_mod.STAT_TOL_FACTOR * perturbed.perimeter
        q_each = np.arange(10, 21)
        qs = np.repeat(q_each, 8)
        frac = np.tile(np.arange(8) / 8.0, q_each.size)
        starts = orbits_mod._equal_init(perturbed, p, qs, frac)
        assert starts.shape == (qs.size, 20)
        pad = np.arange(20) >= qs[:, None]
        swept = orbits_mod._sweeps(chain, starts, qs, 3)
        assert np.array_equal(swept[pad], starts[pad])
        batch = orbits_mod._newton(chain, swept, qs, orbits_mod.NEWTON_CAP, stat_tol)
        assert np.array_equal(batch[0][pad], starts[pad])
        for q in q_each:
            rows = np.flatnonzero(qs == q)
            one = qs[rows]
            alone_start = orbits_mod._equal_init(perturbed, p, q, frac[rows])
            assert np.array_equal(alone_start, starts[rows, :q])
            alone_swept = orbits_mod._sweeps(chain, alone_start, one, 3)
            assert np.array_equal(alone_swept, swept[rows, :q])
            alone = orbits_mod._newton(chain, alone_swept, one, orbits_mod.NEWTON_CAP, stat_tol)
            assert np.array_equal(alone[0], batch[0][rows, :q])
            for got, want in zip(alone[1:], batch[1:]):  # residual, steps, ok
                assert np.array_equal(got, want[rows])

    def test_mixed_q_retries_keep_their_own_budget(self, perturbed, monkeypatch):
        # With no Newton steps every polish fails unless its sweeps alone
        # converge, so rows are retried.  A q none of whose rows has
        # converged grants SWEEP_CAP, one with a converged row grants 60
        # sweeps; the batch of q 10..20 must take each q's own decisions, so
        # it returns exactly what every q returns alone.
        monkeypatch.setattr(orbits_mod, "NEWTON_CAP", 0)
        monkeypatch.setattr(orbits_mod, "SWEEP_CAP", 153)
        p = 1
        chain = orbits_mod._Chain(perturbed, p)
        stat_tol = orbits_mod.STAT_TOL_FACTOR * perturbed.perimeter
        q_each = np.arange(10, 21)
        qs = np.repeat(q_each, 8)
        frac = np.tile(np.arange(8) / 8.0, q_each.size)
        starts = orbits_mod._equal_init(perturbed, p, qs, frac)
        batch = orbits_mod._solve_from(chain, starts, qs, True, stat_tol)
        sweeps = batch[2]
        assert sweeps.max() == 153 and np.any((sweeps > 3) & (sweeps <= 60))
        for q in q_each:
            rows = np.flatnonzero(qs == q)
            alone = orbits_mod._solve_from(chain, starts[rows, :q], qs[rows], True, stat_tol)
            assert np.array_equal(alone[0], batch[0][rows, :q])
            for got, want in zip(alone[1:], batch[1:]):  # residual, sweeps, steps, ok
                assert np.array_equal(got, want[rows])

    def test_failed_rows_of_every_q_retry_in_one_batch(self, perturbed, monkeypatch):
        # Each retry round polishes every failed row of every q in one
        # _newton call: the 16 rows of q 12 and 13, then all 16 again after
        # 50 more sweeps.  One row of each q converges there, which drops
        # the others' budget to 60 sweeps, so no third round runs.
        monkeypatch.setattr(orbits_mod, "NEWTON_CAP", 0)
        monkeypatch.setattr(orbits_mod, "SWEEP_CAP", 153)
        batches = []
        newton = orbits_mod._newton

        def record(chain, t, q, *args):
            batches.append(len(t))
            return newton(chain, t, q, *args)

        monkeypatch.setattr(orbits_mod, "_newton", record)
        orbits = find_orbits(perturbed, 1, [12, 13], "max")
        assert batches == [16, 16]
        assert [(orb.sweeps, orb.total_sweeps) for orb in orbits] == [(53, 424)] * 2

    @staticmethod
    def _replay_polishes(table, qs, orbit_class, monkeypatch):
        """Every _newton polish of find_orbits, replayed row by row by the
        one-trial-at-a-time search, which must reach the same t, residual
        and steps.  Returns the halving indices each row's steps took."""
        polished = []
        newton = orbits_mod._newton

        def record(chain, t, q, cap, stat_tol):
            got = newton(chain, t, q, cap, stat_tol)
            polished.append((chain, np.array(t), np.array(q), cap, stat_tol, got))
            return got

        monkeypatch.setattr(orbits_mod, "_newton", record)
        find_orbits(table, 1, qs, orbit_class)
        taken = []
        for chain, starts, q, cap, stat_tol, batch in polished:
            for j, n in enumerate(q):
                t, res, steps, ks = _one_trial_at_a_time(chain, starts[j:j + 1, :n], q[j:j + 1],
                                                         cap, stat_tol)
                assert np.array_equal(t, batch[0][j:j + 1, :n])
                assert (res, steps) == (batch[1][j], batch[2][j])
                taken.append(ks)
        return taken

    def test_halving_ladder_takes_the_one_at_a_time_step(self, perturbed, monkeypatch):
        # A row whose last step was 2^-k evaluates halvings 0..k in its first
        # trial pass, then chunks of _HALVING_CHUNK; it must take the step,
        # and so the path, of a search that tries one trial point per
        # evaluation.  The swept q 10..20 x 8 "max" starts take 93 steps
        # after a halved one between them, some after a step of 2^-9.
        taken = self._replay_polishes(perturbed, range(10, 21), "max", monkeypatch)
        assert len(taken) == 88
        assert sum(k > 0 for ks in taken for k in ks[:-1]) == 93
        assert max(max(ks, default=0) for ks in taken) == 9

    def test_min_halving_ladder_takes_the_one_at_a_time_step(self, perturbed, monkeypatch):
        # The same over the "min" batch of q 14..16: equal and scattered
        # starts with no ascent sweeps, and their retries.  Its rows take
        # 336 steps after a halved one, some as deep as 2^-19.
        taken = self._replay_polishes(perturbed, range(14, 17), "min", monkeypatch)
        assert len(taken) == 69
        assert sum(k > 0 for ks in taken for k in ks[:-1]) == 336
        assert max(max(ks, default=0) for ks in taken) == 19

    def test_halving_ladder_cost(self, perturbed, monkeypatch):
        # The polish of the swept q 10..20 x 8 "max" batch evaluates 1203
        # Hessian rows in 18 calls.  A first trial pass of halvings 0..7 for
        # every row whose last step was halved took 1569 rows in 19 calls,
        # and every untried halving at once 3105 rows in 17 calls, on the
        # same batch, to the same 417 steps.
        p, qs = 1, np.repeat(np.arange(10, 21), 8)
        chain = orbits_mod._Chain(perturbed, p)
        stat_tol = orbits_mod.STAT_TOL_FACTOR * perturbed.perimeter
        starts = orbits_mod._equal_init(perturbed, p, qs, np.tile(np.arange(8) / 8.0, 11))
        starts = orbits_mod._sweeps(chain, starts, qs, 3)
        rows = []
        hessian = chain.hessian

        def count(t, q):
            rows.append(len(t))
            return hessian(t, q)

        monkeypatch.setattr(chain, "hessian", count)
        _, _, steps, ok = orbits_mod._newton(chain, starts, qs, orbits_mod.NEWTON_CAP, stat_tol)
        assert (sum(rows), len(rows)) == (1203, 18)
        assert steps.sum() == 417 and ok.all()

    @pytest.mark.parametrize("q", [7, 2, pytest.param((2, 7), id="2+7")])
    def test_hessian_matches_finite_differences(self, q):
        # q = 2: both chords share one entry; (2, 7): a q = 2 and a q = 7 row
        # in one batch, the first padded to 7 columns
        table = PerturbedCircleTable(1, [(3, 0.05, 0)])
        p, h = 1, 1e-6
        qs = np.atleast_1d(q)
        chain = orbits_mod._Chain(table, p)
        rng = np.random.default_rng(5)
        t = orbits_mod._equal_init(table, p, qs, np.full(qs.size, 0.3))
        t = t + rng.uniform(-0.1, 0.1, t.shape)  # off the critical set
        F, diag, off, _ = chain.hessian(t, qs)
        width = t.shape[1]
        for r, qr in enumerate(qs):
            bumps = h * np.eye(qr, width)
            plus, minus = t[r] + bumps, t[r] - bumps  # row j moves vertex j
            one = np.full(qr, qr)
            grad_fd = (chain.value(plus, one) - chain.value(minus, one)) / (2 * h)
            np.testing.assert_allclose(F[r, :qr], grad_fd, rtol=1e-6, atol=1e-9)
            J_fd = ((chain.hessian(plus, one)[0] - chain.hessian(minus, one)[0])[:, :qr]
                    / (2 * h)).T
            i = np.arange(qr)
            np.testing.assert_allclose(diag[r, :qr], J_fd[i, i], rtol=1e-6)
            np.testing.assert_allclose(off[r, :qr], J_fd[i, (i + 1) % qr], rtol=1e-6)
            np.testing.assert_allclose(off[r, :qr], J_fd[(i + 1) % qr, i], rtol=1e-6)
            band = np.zeros((qr, qr), dtype=bool)
            band[i, i] = band[i, (i + 1) % qr] = band[(i + 1) % qr, i] = True
            assert np.all(np.abs(J_fd[~band]) < 1e-8)
            # padded columns are inert
            assert np.all(F[r, qr:] == 0.0) and np.all(off[r, qr:] == 0.0)
            assert np.all(diag[r, qr:] == 1.0)

    @pytest.mark.parametrize("name", ["circle", "ellipse21", "perturbed"])
    def test_hessian_residual_is_arc_gradient(self, name, request):
        # the fourth output is max |dL/ds_i| = max |F_i / |gamma'(t_i)||
        table = request.getfixturevalue(name)
        chain = orbits_mod._Chain(table, 1)
        rng = np.random.default_rng(6)
        t = orbits_mod._equal_init(table, 1, 9, rng.uniform(0.0, 9.0, 4))
        t = t + rng.uniform(-0.05, 0.05, t.shape)
        F, _, _, res = chain.hessian(t, np.full(4, 9))
        want = np.max(np.abs(F / table.speed(t)), axis=-1)
        np.testing.assert_allclose(res, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("table_name,q,orbit_class,length,sweeps,steps,n_cand", [
        ("perturbed", 10, "max", 6.218979971400411, 3, 5, 2),
        ("perturbed", 15, "max", 6.273996167046811, 3, 5, 2),
        ("perturbed", 20, "max", 6.293215531981547, 3, 7, 2),
        ("perturbed", 10, "min", 6.218808001326209, 0, 6, 2),
        ("ellipse21", 12, "min", 9.596550106257556, 0, 3, 1),
    ])
    def test_same_work_as_sequential_solver(self, request, table_name, q, orbit_class,
                                            length, sweeps, steps, n_cand):
        # Recorded with the start-by-start solver this one replaced; the
        # Newton step counts with the O(q) sweep of the shifted complex LM
        # solve.  At q = 10 several starts reach one orbit, with lengths
        # equal to an ulp, and rounding picks the chosen one among them: the
        # dense solve picked one of 4 steps for "max" and one of 16 for
        # "min", while each start's steps are unchanged (31 and 253 over
        # all starts).  The ellipse
        # row solves only its one start (no rotated or scattered ones above
        # q = 2 on integrable tables), equally spaced in the Lazutkin
        # coordinate, in 3 steps (4 from equal-arc starts, with the same
        # length to 1e-14).  The perturbed rows keep their equal-arc starts
        # and their pins.
        orb = find_orbit(request.getfixturevalue(table_name), 1, q, orbit_class)
        assert orb.length == pytest.approx(length, rel=1e-14)
        assert (orb.sweeps, orb.newton_steps, len(orb.candidates)) == (sweeps, steps, n_cand)

    def test_retry_budget_once_any_row_converged(self, monkeypatch):
        # Rows 1-3 and 5-7 converge in the batched polish, so the failed row 0
        # gets the 60-sweep probe budget too, not SWEEP_CAP (it took 153).
        solved = []
        solve_from = orbits_mod._solve_from

        def record(*args):
            out = solve_from(*args)
            solved.append(out)
            return out

        monkeypatch.setattr(orbits_mod, "_solve_from", record)
        orb = find_orbit(PerturbedCircleTable(1, [(3, 0.05, 2.5)]), 1, 28, "max")
        assert orb.length == pytest.approx(6.305534031577483, rel=1e-14)
        (_, _, sweeps, _, ok), = solved
        assert ok.sum() > 1 and sweeps.max() <= 60

    def test_scattered_min_starts_only_where_two_critical_values_can_be(self, perturbed,
                                                                           monkeypatch):
        # On an integrable table only q = 2 has two (1, q) critical values
        # (the axes); above it every (1, q) orbit has one length, so one
        # start is all "min" takes, as "max" does.  Other tables keep the 8
        # rotated starts and add scattered ones at every q <= 16.
        rows = []
        solve_from = orbits_mod._solve_from

        def record(chain, t_init, q, *args):
            rows.append(dict(zip(*np.unique(q, return_counts=True))))
            return solve_from(chain, t_init, q, *args)

        monkeypatch.setattr(orbits_mod, "_solve_from", record)
        find_orbits(EllipseTable(2.0, 1.0), 1, [2, 3, 12], "min")
        find_orbits(perturbed, 1, [12], "min")
        ellipse, other = rows
        assert ellipse[2] > 1 and (ellipse[3], ellipse[12]) == (1, 1)
        assert other[12] > 8

    def test_eccentric_ellipse_min_needs_no_retry(self):
        # One Lazutkin start per q polishes at once on the 1:0.1 ellipse,
        # so no q pays for retries.
        orbits = find_orbits(EllipseTable(1.0, 0.1), 1, range(3, 41), "min")
        assert [orb.total_sweeps for orb in orbits] == [0] * 38

    def test_every_start_is_a_lift_of_its_rotation_number(self, perturbed, monkeypatch):
        # the scattered starts too: q points on the circle visited p/q turn
        # apart, every gap (the closing one too) between 0 and one turn
        starts = []
        solve_from = orbits_mod._solve_from

        def record(chain, t_init, *args):
            starts.append(t_init)
            return solve_from(chain, t_init, *args)

        monkeypatch.setattr(orbits_mod, "_solve_from", record)
        find_orbit(perturbed, 3, 7, "min")
        t, = starts
        gaps = np.diff(np.hstack((t, t[:, :1] + 2 * math.pi * 3)), axis=1)
        assert len(t) > 8 and np.all((gaps > 0.0) & (gaps < 2 * math.pi))

    @pytest.mark.parametrize("order", ["by_q", "shuffled"])
    def test_hessian_blocks_are_bit_identical_and_bounded(self, order, monkeypatch):
        # One call on 400 rows of q 2, 7, 30 and 120 spans several blocks,
        # some cut narrower than the batch: every row gets, bit for bit, its
        # own one-row evaluation on its own columns, padded columns stay
        # inert, and no evaluation of the table sees more than HESSIAN_BLOCK
        # entries.
        table = PerturbedCircleTable(1, [(3, 0.05, 0)])
        chain = orbits_mod._Chain(table, 1)
        qs = np.repeat([2, 7, 30, 120], 100)
        if order == "shuffled":
            qs = np.random.default_rng(8).permutation(qs)
        rng = np.random.default_rng(9)
        t = orbits_mod._equal_init(table, 1, qs, rng.uniform(0.0, 1.0, qs.size))
        own = np.arange(120) < qs[:, None]
        t[own] += rng.uniform(-0.01, 0.01, own.sum())
        assert t.size > orbits_mod.HESSIAN_BLOCK
        sizes = []
        frame = table.frame

        def record(t):
            sizes.append(t.shape)
            return frame(t)

        monkeypatch.setattr(table, "frame", record)
        F, diag, off, res = chain.hessian(t, qs)
        assert len(sizes) > 1 and sum(n for n, _ in sizes) == qs.size
        assert max(n * w for n, w in sizes) <= orbits_mod.HESSIAN_BLOCK
        for r, q in enumerate(qs):
            one = chain.hessian(t[r:r + 1, :q], qs[r:r + 1])
            for got, want in zip((F, diag, off), one[:3]):
                assert np.array_equal(got[r, :q], want[0])
            assert res[r] == one[3][0]
            assert np.all(F[r, q:] == 0.0) and np.all(diag[r, q:] == 1.0)
            assert np.all(off[r, q:] == 0.0)


class TestHessianPins:
    """_Chain.hessian on one fixed 4-gon per table kind, pinned bit for bit
    (float.hex of F, diag, off and res) so any change in how the tables'
    geometry reaches the Hessian shows."""

    TABLES = {
        "circle": lambda: CircleTable(1.0),
        "ellipse21": lambda: EllipseTable(2.0, 1.0),
        "perturbed3": lambda: PerturbedCircleTable(
            1.0, [(2, 0.02, 0.3), (3, 0.05, 1.1), (5, 0.01, 0.2)]),
    }
    PINS = {
        "circle": (
            ["0x1.89a21faa02480p-8", "-0x1.1e92e7e388b90p-5", "0x1.1e92e7e388b90p-5",
             "-0x1.89a21faa02580p-8"],
            ["-0x1.6dc7c4343645ap-1", "-0x1.662486cbfc6edp-1", "-0x1.662486cbfc6edp-1",
             "-0x1.6dc7c4343645ap-1"],
            ["0x1.6f494c2bffeccp-2", "0x1.5cffc16bf8f0bp-2", "0x1.6f494c2bffeccp-2",
             "0x1.6c463c3c6c9e8p-2"],
            ["0x1.1e92e7e388b90p-5"],
        ),
        "ellipse21": (
            ["-0x1.2d3bb42001081p-1", "0x1.343a4574638efp-3", "-0x1.dea8eb4b9c622p-2",
             "0x1.6490475a4f902p-3"],
            ["-0x1.3e3758396b2b3p+1", "-0x1.5c5750cd1e6a1p-3", "-0x1.40b785e740413p+1",
             "-0x1.26401a28340f7p-3"],
            ["0x1.d844e5e334d4cp-3", "0x1.43e23255f58b7p-1", "0x1.eee01edae4385p-3",
             "0x1.520f42f284effp-1"],
            ["0x1.0c25c3576c926p-1"],
        ),
        "perturbed3": (
            ["-0x1.524c23305398bp-2", "-0x1.69c4d5d6f5289p-4", "0x1.2f117372d189bp-2",
             "0x1.fa5fbd0850205p-4"],
            ["-0x1.a8d1ac9856b60p-2", "-0x1.b59f270843fe6p-1", "-0x1.d155e5851deaep-1",
             "-0x1.8d13ddb11897cp-2"],
            ["0x1.278279928c9cap-2", "0x1.203396b5cb710p-2", "0x1.76eb0424c1527p-2",
             "0x1.d1a51ad81aebcp-2"],
            ["0x1.4da8f75dc7f7cp-2"],
        ),
    }
    T = np.array([[0.3, 1.9, 3.4, 5.0]])  # no stationary 4-gon: F != 0

    @pytest.mark.parametrize("name", list(TABLES))
    def test_bit_identical(self, name):
        got = orbits_mod._Chain(self.TABLES[name](), 1).hessian(self.T, np.array([4]))
        for value, pin in zip(got, self.PINS[name]):
            assert [float(x).hex() for x in np.ravel(value)] == pin

    @pytest.mark.parametrize("name", list(TABLES))
    def test_one_geometry_call_per_block(self, name, monkeypatch):
        # frame carries position, tangent, curvature, speed and its derivative:
        # a block evaluates the boundary once
        table = self.TABLES[name]()
        calls = []
        for method in ("frame", "speed", "dspeed", "position"):
            def spy(t, _method=method, _bound=getattr(table, method)):
                calls.append(_method)
                return _bound(t)
            monkeypatch.setattr(table, method, spy)
        orbits_mod._Chain(table, 1).hessian(self.T, np.array([4]))
        assert calls == ["frame"]


def _dense_hessian(diag, off):
    """The symmetric cyclic tridiagonal H with H[i, i+1] = H[i+1, i] = off[i]."""
    q = diag.size
    i = np.arange(q)
    H = np.diag(diag)
    H[i, (i + 1) % q] = off
    H[(i + 1) % q, i] = off
    return H


def _normal_equations_step(diag, off, F, mu):
    """(H^T H + mu*s*I) d = -H^T F with s = trace(H^T H)/q, by a dense solve."""
    q = diag.size
    H = _dense_hessian(diag, off)
    gram = H.T @ H
    return np.linalg.solve(gram + mu * np.trace(gram) / q * np.eye(q), -H.T @ F)


def _padded_batch(qs, seed):
    """Well-conditioned Hessians and gradients of rows of q = qs, padded as
    `hessian` pads them: F = 0, diag = 1 and off = 0 past a row's q."""
    rng = np.random.default_rng(seed)
    n, w = len(qs), max(qs)
    diag, off, F = np.ones((n, w)), np.zeros((n, w)), np.zeros((n, w))
    for r, q in enumerate(qs):
        diag[r, :q] = rng.uniform(-4.0, -1.0, q)
        off[r, :q] = rng.uniform(-0.6, 0.6, q)
        if q == 2:  # the Hessian's one coupling, as `hessian` returns it
            off[r, 1] = off[r, 0]
        F[r, :q] = rng.uniform(-1.0, 1.0, q)
    return diag, off, F, np.array(qs), 10.0 ** rng.uniform(-12.0, 0.0, n)


def _sparse_solve(rows, rhs):
    """Gaussian elimination without pivoting on a matrix given as one dict
    {column: entry} per row; enough for the symmetric positive definite
    normal equations, and O(q) for their cyclic band."""
    n = len(rows)
    for k in range(n):
        for i in range(k + 1, n):
            if k in rows[i]:
                f = rows[i].pop(k) / rows[k][k]
                for j, v in rows[k].items():
                    if j > k:
                        rows[i][j] = rows[i].get(j, 0) - f * v
                rhs[i] -= f * rhs[k]
    x = [0] * n
    for k in reversed(range(n)):
        x[k] = (rhs[k] - sum(v * x[j] for j, v in rows[k].items() if j > k)) / rows[k][k]
    return x


class TestLMStep:
    @pytest.mark.parametrize("q", [2, 3, 7, 20])
    def test_matches_normal_equations(self, q):
        # a batch of one q, with one damping per row
        rng = np.random.default_rng(q)
        mu = 10.0 ** np.arange(-12.0, 1.0)
        n = mu.size
        diag = rng.uniform(-4.0, -1.0, (n, q))
        off = rng.uniform(-0.6, 0.6, (n, q))
        if q == 2:  # the Hessian's one coupling, as `hessian` returns it
            off[:, 1] = off[:, 0]
        F = rng.uniform(-1.0, 1.0, (n, q))
        got = orbits_mod._lm_step(diag, off, F, np.full(n, q), mu)
        for k in range(n):
            want = _normal_equations_step(diag[k], off[k], F[k], mu[k])
            np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    def test_padded_batch_matches_normal_equations(self):
        # rows of q = 2, 3, 7 and 20 in one batch: each row is solved on its
        # own columns, and its padded columns step by 0
        diag, off, F, qs, mu = _padded_batch([2, 3, 7, 20, 7, 2], 24)
        got = orbits_mod._lm_step(diag, off, F, qs, mu)
        for k, q in enumerate(qs):
            want = _normal_equations_step(diag[k, :q], off[k, :q], F[k, :q], mu[k])
            np.testing.assert_allclose(got[k, :q], want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))
            assert np.all(got[k, q:] == 0.0)

    def test_batch_invariant(self):
        # a row's step is the same, bit for bit, alone (cut to its own q)
        # and inside a padded batch of other q
        diag, off, F, qs, mu = _padded_batch([20, 2, 3, 7, 20, 3], 25)
        batch = orbits_mod._lm_step(diag, off, F, qs, mu)
        for k, q in enumerate(qs):
            alone = orbits_mod._lm_step(diag[k:k + 1, :q], off[k:k + 1, :q], F[k:k + 1, :q],
                                        qs[k:k + 1], mu[k:k + 1])
            assert np.array_equal(alone[0], batch[k, :q])

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_singular_system_raises(self, bad):
        # H = 0 makes sigma = 0 and the system singular; a NaN pivot is
        # no step either
        diag, off, F, qs, mu = _padded_batch([5, 7], 26)
        diag[1, :] = bad
        off[1, :] = 0.0
        with pytest.raises(SolverError, match="singular shifted Levenberg-Marquardt system"):
            orbits_mod._lm_step(diag, off, F, qs, mu)

    def test_near_degenerate_step_against_mpmath(self, ellipse21):
        # Near the 2:1 ellipse's q = 12 orbit family H is nearly singular;
        # at mu = 1e-12 the normal equations lose about 1e-7 of the step,
        # the shifted solve keeps it to 1e-10 of a 50-digit solve.
        q, mu = 12, 1e-12
        orb = find_orbit(ellipse21, 1, q, "max")
        t = orb.t[None] + 1e-3 * np.random.default_rng(0).uniform(-1.0, 1.0, (1, q))
        F, diag, off, _ = orbits_mod._Chain(ellipse21, 1).hessian(t, np.array([q]))
        got = orbits_mod._lm_step(diag, off, F, np.array([q]), np.array([mu]))[0]
        with mp.workdps(50):
            H = mp.matrix(_dense_hessian(diag[0], off[0]).tolist())
            f = mp.matrix(F[0].tolist())
            gram = H.T * H
            shift = mp.mpf(mu) * sum(gram[i, i] for i in range(q)) / q
            d = mp.lu_solve(gram + shift * mp.eye(q), -(H.T * f))
            want = np.array([float(x) for x in d])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_indefinite_saddle_step_against_mpmath(self, perturbed):
        # The sweep does not pivot.  Next to the m = 3 table's q = 120
        # min-class saddle H is indefinite (one eigenvalue is +3e-11), and at
        # the smallest damping mu = 1e-14 the step still agrees with a
        # 50-digit solve to 1e-10 (the sweep was 9e-12 off, as was a dense
        # LU solve).
        q, mu = 120, 1e-14
        orb = find_orbit(perturbed, 1, q, "min")
        t = orb.t[None] + 1e-6 * np.random.default_rng(0).uniform(-1.0, 1.0, (1, q))
        F, diag, off, _ = orbits_mod._Chain(perturbed, 1).hessian(t, np.array([q]))
        eig = np.linalg.eigvalsh(_dense_hessian(diag[0], off[0]))
        assert eig[0] < 0.0 < eig[-1]
        got = orbits_mod._lm_step(diag, off, F, np.array([q]), np.array([mu]))[0]
        with mp.workdps(50):
            H = [{j % q: mp.mpf(float(v)) for j, v in ((i - 1, off[0, i - 1]), (i, diag[0, i]),
                                                       (i + 1, off[0, i]))}
                 for i in range(q)]
            gram = [{} for _ in range(q)]  # H^T H = H^2, a cyclic band of width 5
            for i in range(q):
                for k, h_ik in H[i].items():
                    for j, h_kj in H[k].items():
                        gram[i][j] = gram[i].get(j, 0) + h_ik * h_kj
            shift = mp.mpf(mu) * sum(gram[i][i] for i in range(q)) / q
            for i in range(q):
                gram[i][i] += shift
            rhs = [-sum(h * mp.mpf(float(F[0, k])) for k, h in H[i].items()) for i in range(q)]
            want = np.array([float(x) for x in _sparse_solve(gram, rhs)])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestValidation:
    def test_rejects_non_coprime(self, circle):
        with pytest.raises(DomainError):
            find_orbit(circle, 2, 4)

    def test_rejects_bad_p(self, circle):
        with pytest.raises(DomainError):
            find_orbit(circle, 0, 3)
        with pytest.raises(DomainError):
            find_orbit(circle, 5, 3)

    def test_rejects_unknown_orbit_class(self, circle):
        with pytest.raises(DomainError, match="orbit_class must be 'max' or 'min', got 'mid'"):
            find_orbit(circle, 1, 5, "mid")

    @pytest.mark.parametrize("orbit_class", ["max", "min"])
    def test_batch_of_no_q_is_empty(self, perturbed, orbit_class):
        assert find_orbits(perturbed, 1, [], orbit_class) == []

    def test_batch_rejects_any_bad_q(self, circle):
        with pytest.raises(DomainError):
            find_orbits(circle, 2, [5, 6, 7])

    def test_batch_error_names_smallest_failing_q(self, ellipse21, monkeypatch):
        monkeypatch.setattr(orbits_mod, "NEWTON_CAP", 0)
        monkeypatch.setattr(orbits_mod, "SWEEP_CAP", 0)
        with pytest.raises(SolverError) as err:
            find_orbits(ellipse21, 1, [11, 9, 7])
        assert "find_orbit(1,7,max)" in str(err.value)
        assert err.value.best.q == 7 and err.value.best.s.shape == (7,)

    @pytest.mark.parametrize("orbit_class", ["max", "min"])  # "min" adds scattered starts
    def test_batch_returns_each_q_once_in_order(self, perturbed, orbit_class):
        orbits = find_orbits(perturbed, 1, [12, 10, 12], orbit_class)
        assert [orb.q for orb in orbits] == [10, 12]
        for orb in orbits:
            alone = find_orbit(perturbed, 1, orb.q, orbit_class)
            assert orb.length == alone.length and np.array_equal(orb.t, alone.t)
            assert (orb.total_sweeps, orb.total_newton_steps) == (
                alone.total_sweeps, alone.total_newton_steps)

    def test_solver_error_carries_best_iterate(self, ellipse21, monkeypatch):
        monkeypatch.setattr(orbits_mod, "NEWTON_CAP", 0)
        monkeypatch.setattr(orbits_mod, "SWEEP_CAP", 0)
        with pytest.raises(SolverError) as err:
            find_orbit(ellipse21, 1, 9)
        best = err.value.best
        assert best is not None and not best.converged
        assert best.s.shape == (9,)


def _assert_same_orbit(a, b):
    """Every field but the orbit class equal, arrays bit for bit."""
    for f in dataclasses.fields(orbits_mod.OrbitConfig):
        if f.name != "orbit_class":
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name


def _count_solves(monkeypatch):
    """Spy on orbits.find_orbits: the returned list gets (orbit_class,
    sorted q) of every call."""
    solved, find = [], orbits_mod.find_orbits

    def counted(table, p, qs, orbit_class="max"):
        solved.append((orbit_class, sorted(qs)))
        return find(table, p, qs, orbit_class)

    monkeypatch.setattr(orbits_mod, "find_orbits", counted)
    return solved


class TestOneLengthClasses:
    """Every (p, q) orbit of an integrable table with q > 2 is tangent to one
    caustic, so "max" and "min" there are one computation: one start, no
    ascent sweeps, and lq_bounds takes the min orbit from the max one."""

    @pytest.mark.parametrize("table", [CircleTable(1.0), EllipseTable(2.0, 1.0),
                                       EllipseTable(1.0, 0.1)], ids=["circle", "2:1", "1:0.1"])
    def test_max_and_min_batches_are_equal(self, table):
        qs = range(3, 41)
        big, small = find_orbits(table, 1, qs, "max"), find_orbits(table, 1, qs, "min")
        for upper, lower in zip(big, small):
            assert (upper.orbit_class, lower.orbit_class) == ("max", "min")
            _assert_same_orbit(upper, lower)
            assert upper.total_sweeps == 0

    def test_q2_row_still_sweeps(self, ellipse21):
        # the major axis (length 8) against the minor one: "max" ascends at q = 2
        batch = find_orbits(ellipse21, 1, [2, 3, 12], "max")
        assert batch[0].length == 8.0 and batch[0].sweeps == 3
        assert [orb.total_sweeps for orb in batch[1:]] == [0, 0]
        for orb in batch:
            _assert_same_orbit(orb, find_orbit(ellipse21, 1, orb.q, "max"))

    @pytest.mark.parametrize("qs,min_batches", [([3, 8, 13], []), ([2, 5, 9], [[2]])],
                             ids=["q>2", "q=2"])
    def test_lq_bounds_solves_min_only_at_q2(self, ellipse21, monkeypatch, qs, min_batches):
        want = {orb.q: orb for orb in find_orbits(ellipse21, 1, qs, "min")}
        solved = _count_solves(monkeypatch)
        bounds = lq_bounds(ellipse21, qs)
        assert [qs for cls, qs in solved if cls == "min"] == min_batches
        for big, small, upper, lower in bounds:
            assert lower.orbit_class == "min"
            _assert_same_orbit(lower, want[lower.q])
        gaps = [big - small for big, small, _, _ in bounds]
        assert gaps == [4.0 if qs[0] == 2 else 0.0, 0.0, 0.0]  # the two axes at q = 2


class TestGapBounds:
    @pytest.mark.parametrize("name,qs", [("ellipse21", range(2, 13)),
                                         ("perturbed", range(10, 21))],
                             ids=["ellipse21", "perturbed"])
    def test_batch_matches_one_q_calls(self, name, qs, request):
        # q = 2 holds the ellipse's two axis orbits, the only gap there
        table = request.getfixturevalue(name)
        batch = lq_bounds(table, qs)
        assert [upper.q for _, _, upper, _ in batch] == list(qs)
        assert [lower.q for _, _, _, lower in batch] == list(qs)
        for q, (big, small, upper, lower) in zip(qs, batch):
            (big1, small1, upper1, lower1), = lq_bounds(table, [q])
            assert (big, small) == (big1, small1)
            assert (upper.orbit_class, lower.orbit_class) == ("max", "min")
            assert (upper.total_newton_steps, lower.total_newton_steps) == (
                upper1.total_newton_steps, lower1.total_newton_steps)

    def test_known_maxima_are_not_solved_again(self, ellipse21, monkeypatch):
        # maxima solved in another batch give the same bounds, bit for bit
        qs = range(5, 12)
        ref = lq_bounds(ellipse21, qs)
        maxima = find_orbits(ellipse21, 1, range(8, 15))
        solved = _count_solves(monkeypatch)
        out = lq_bounds(ellipse21, qs, maxima)
        # every q > 2 of an integrable table takes its min orbit from the max one
        assert solved == [("max", [5, 6, 7])]
        for (big, small, upper, lower), (big1, small1, upper1, lower1) in zip(out, ref):
            assert (big, small) == (big1, small1)
            assert (upper.residual, upper.total_newton_steps) == (
                upper1.residual, upper1.total_newton_steps)
            assert lower.total_newton_steps == lower1.total_newton_steps

    def test_maxima_must_be_simple_max_class(self, ellipse21):
        with pytest.raises(DomainError):
            lq_bounds(ellipse21, [6], find_orbits(ellipse21, 1, [6], "min"))

    def test_rejects_q_below_2_before_any_solve(self, circle, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before validating q")

        monkeypatch.setattr(orbits_mod, "_solve_from", no_solve)
        for qs in ([5, 1, 6], [0], [3, -2]):
            with pytest.raises(DomainError):
                lq_bounds(circle, qs)

    def test_returns_each_q_once_in_order(self, circle):
        bounds = lq_bounds(circle, [8, 6, 8])
        assert [(upper.q, lower.q) for _, _, upper, lower in bounds] == [(6, 6), (8, 8)]
        assert [big for big, _, _, _ in bounds] == pytest.approx(
            [polygon_length(1.0, 1, 6), polygon_length(1.0, 1, 8)], abs=1e-11)

    @pytest.mark.parametrize("fail,named", [
        ({"max": [11], "min": [7]}, "find_orbit(1,11,max)"),
        ({"max": [], "min": [11, 9]}, "find_orbit(1,9,min)"),
    ], ids=["max-first", "min"])
    def test_error_names_smallest_failing_q(self, perturbed, monkeypatch, fail, named):
        # max-class failures come first, then the smallest failing min-class q;
        # on a non-integrable table every "max" row ascends and no "min" row does
        solve_from = orbits_mod._solve_from

        def failing(chain, t, q, ascent, stat_tol):
            out = solve_from(chain, t, q, ascent, stat_tol)
            out[4][np.where(ascent, np.isin(q, fail["max"]), np.isin(q, fail["min"]))] = False
            return out

        monkeypatch.setattr(orbits_mod, "_solve_from", failing)
        with pytest.raises(SolverError) as err:
            lq_bounds(perturbed, [11, 9, 7])
        assert named in str(err.value)
