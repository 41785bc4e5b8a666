import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import minimize

from billiards import (
    DomainError,
    PerturbedCircleTable,
    PhasePoint,
    SolverError,
    find_orbit,
    generating,
    lq_bounds,
    rotation_estimate,
)
import billiards.orbits as orbits_mod


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
        big, small = lq_bounds(circle, 6)
        assert big == pytest.approx(6.0, abs=1e-11)
        assert big == small


class TestEllipseOrbits:
    def test_two_periodic_axes(self, ellipse21):
        # the 2-periodic orbits run along the axes; lengths count both
        # traversals of the chord (the standard action convention, which the
        # circle formula -2 q R sin(pi p / q) extends to q = 2)
        big, small = lq_bounds(ellipse21, 2)
        assert big == pytest.approx(8.0, rel=1e-10)
        assert small == pytest.approx(4.0, rel=1e-10)
        assert find_orbit(ellipse21, 1, 2).beta == pytest.approx(-4.0, rel=1e-10)

    def test_q3_bounds_against_brute_force(self, ellipse21):
        # On the integrable ellipse the simple 3-periodic orbits form one
        # equal-perimeter family, so the bounds coincide; the brute-force
        # oracle confirms there is no second non-degenerate critical value.
        big, small = lq_bounds(ellipse21, 3)
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
        _, tan, _, _ = ellipse21.frame(orb.t[0])
        theta0 = math.atan2(tan[0] * chord[1] - tan[1] * chord[0],
                            tan[0] * chord[0] + tan[1] * chord[1])
        est = rotation_estimate(ellipse21, PhasePoint(orb.s[0], theta0), 5)
        assert est == pytest.approx(1.0 / 5.0, abs=1e-9)


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
        chain = orbits_mod._Chain(perturbed, p, q)
        stat_tol = orbits_mod.STAT_TOL_FACTOR * perturbed.perimeter
        starts = orbits_mod._equal_arc_init(
            perturbed, p, q, np.arange(8) * perturbed.perimeter * p / (8.0 * q))
        lengths = []
        for j in range(8):
            t, _, _, _, ok = orbits_mod._solve_from(chain, starts[j:j + 1], True, stat_tol)
            if ok[0]:
                lengths.append(chain.value(t)[0])
        assert lengths
        assert find_orbit(perturbed, p, q, "max").length >= max(lengths) - 1e-12

    def test_perturbed_gap_positive_small_q(self, perturbed):
        big, small = lq_bounds(perturbed, 10)
        assert big - small > 1e-5

    def test_collapsed_chord_trial_is_silent(self, perturbed):
        # a retry trial here puts two vertices on one boundary point; the
        # solver rejects it without a divide-by-zero warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orb = find_orbit(perturbed, 1, 13, "min")
        assert orb.length == 6.259087954816305
        assert orb.converged

    def test_canonical_labeling(self, ellipse21):
        orb = find_orbit(ellipse21, 1, 5)
        assert 0.0 <= orb.s[0] < ellipse21.perimeter
        assert orb.s[0] == min(si % ellipse21.perimeter for si in orb.s)
        assert np.all(np.diff(orb.s) > 0)


class TestBatchedSolver:
    def test_batch_rows_are_independent(self, perturbed):
        # A start solved inside a batch takes exactly the path it takes alone.
        p, q = 1, 15
        chain = orbits_mod._Chain(perturbed, p, q)
        stat_tol = orbits_mod.STAT_TOL_FACTOR * perturbed.perimeter
        starts = orbits_mod._equal_arc_init(
            perturbed, p, q, np.arange(8) * perturbed.perimeter * p / (8.0 * q))
        swept = orbits_mod._sweeps(chain, starts, 3)
        batch = orbits_mod._newton(chain, swept, orbits_mod.NEWTON_CAP, stat_tol)
        assert np.all(batch[3]) and len(set(batch[2].tolist())) > 1
        for j in range(8):
            assert np.array_equal(orbits_mod._sweeps(chain, starts[j:j + 1], 3), swept[j:j + 1])
            single = orbits_mod._newton(chain, swept[j:j + 1], orbits_mod.NEWTON_CAP, stat_tol)
            for got, want in zip(single, batch):  # t, residual, steps, ok
                assert np.array_equal(got, want[j:j + 1])

    @pytest.mark.parametrize("q", [7, 2])  # at q = 2 both chords share one entry
    def test_hessian_matches_finite_differences(self, q):
        table = PerturbedCircleTable(1, [(3, 0.05, 0)])
        p, h = 1, 1e-6
        chain = orbits_mod._Chain(table, p, q)
        rng = np.random.default_rng(5)
        t = orbits_mod._equal_arc_init(table, p, q, np.array([0.3]))
        t = t + rng.uniform(-0.1, 0.1, t.shape)  # off the critical set
        F, diag, off, _ = chain.hessian(t)
        bumps = h * np.eye(q)
        plus, minus = t + bumps, t - bumps  # row j moves vertex j
        grad_fd = (chain.value(plus) - chain.value(minus)) / (2 * h)
        np.testing.assert_allclose(F[0], grad_fd, rtol=1e-6, atol=1e-9)
        J_fd = ((chain.hessian(plus)[0] - chain.hessian(minus)[0]) / (2 * h)).T
        i = np.arange(q)
        np.testing.assert_allclose(diag[0], J_fd[i, i], rtol=1e-6)
        np.testing.assert_allclose(off[0], J_fd[i, (i + 1) % q], rtol=1e-6)
        np.testing.assert_allclose(off[0], J_fd[(i + 1) % q, i], rtol=1e-6)
        band = np.zeros((q, q), dtype=bool)
        band[i, i] = band[i, (i + 1) % q] = band[(i + 1) % q, i] = True
        assert np.all(np.abs(J_fd[~band]) < 1e-8)

    @pytest.mark.parametrize("name", ["circle", "ellipse21", "perturbed"])
    def test_hessian_residual_is_arc_gradient(self, name, request):
        # the fourth output is max |dL/ds_i| = max |F_i / |gamma'(t_i)||
        table = request.getfixturevalue(name)
        chain = orbits_mod._Chain(table, 1, 9)
        rng = np.random.default_rng(6)
        t = orbits_mod._equal_arc_init(table, 1, 9, rng.uniform(0.0, table.perimeter, 4))
        t = t + rng.uniform(-0.05, 0.05, t.shape)
        F, _, _, res = chain.hessian(t)
        want = np.max(np.abs(F / table.speed(t)), axis=-1)
        np.testing.assert_allclose(res, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("table_name,q,orbit_class,length,sweeps,steps,n_cand", [
        ("perturbed", 10, "max", 6.218979971400411, 3, 4, 2),
        ("perturbed", 15, "max", 6.273996167046811, 3, 5, 2),
        ("perturbed", 20, "max", 6.293215531981547, 3, 7, 2),
        ("perturbed", 10, "min", 6.218808001326209, 0, 16, 2),
        ("ellipse21", 12, "min", 9.596550106257556, 0, 8, 1),
    ])
    def test_same_work_as_sequential_solver(self, request, table_name, q, orbit_class,
                                            length, sweeps, steps, n_cand):
        # Recorded with the start-by-start solver this one replaced; the
        # Newton step counts with the shifted complex LM solve.
        orb = find_orbit(request.getfixturevalue(table_name), 1, q, orbit_class)
        assert orb.length == pytest.approx(length, rel=1e-14)
        assert (orb.sweeps, orb.newton_steps, len(orb.candidates)) == (sweeps, steps, n_cand)


def _dense_hessian(diag, off):
    """The symmetric cyclic tridiagonal H with H[i, i+1] = H[i+1, i] = off[i]."""
    q = diag.size
    i = np.arange(q)
    H = np.diag(diag)
    H[i, (i + 1) % q] = off
    H[(i + 1) % q, i] = off
    return H


class TestLMStep:
    @pytest.mark.parametrize("q", [2, 3, 7, 20])
    def test_matches_normal_equations(self, q):
        # (H^T H + mu*s*I) d = -H^T F with s = trace(H^T H)/q, for a batch of
        # well-conditioned Hessians and one damping per row
        rng = np.random.default_rng(q)
        mu = 10.0 ** np.arange(-12.0, 1.0)
        n = mu.size
        diag = rng.uniform(-4.0, -1.0, (n, q))
        off = rng.uniform(-0.6, 0.6, (n, q))
        if q == 2:  # the Hessian's one coupling, as `hessian` returns it
            off[:, 1] = off[:, 0]
        F = rng.uniform(-1.0, 1.0, (n, q))
        got = orbits_mod._lm_step(diag, off, F, mu)
        for k in range(n):
            H = _dense_hessian(diag[k], off[k])
            gram = H.T @ H
            want = np.linalg.solve(gram + mu[k] * np.trace(gram) / q * np.eye(q), -H.T @ F[k])
            np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    def test_near_degenerate_step_against_mpmath(self, ellipse21):
        # Near the 2:1 ellipse's q = 12 orbit family H is nearly singular;
        # at mu = 1e-12 the normal equations lose about 1e-7 of the step,
        # the shifted solve keeps it to 1e-10 of a 50-digit solve.
        q, mu = 12, 1e-12
        orb = find_orbit(ellipse21, 1, q, "max")
        t = orb.t[None] + 1e-3 * np.random.default_rng(0).uniform(-1.0, 1.0, (1, q))
        F, diag, off, _ = orbits_mod._Chain(ellipse21, 1, q).hessian(t)
        got = orbits_mod._lm_step(diag, off, F, np.array([mu]))[0]
        with mp.workdps(50):
            H = mp.matrix(_dense_hessian(diag[0], off[0]).tolist())
            f = mp.matrix(F[0].tolist())
            gram = H.T * H
            shift = mp.mpf(mu) * sum(gram[i, i] for i in range(q)) / q
            d = mp.lu_solve(gram + shift * mp.eye(q), -(H.T * f))
            want = np.array([float(x) for x in d])
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

    def test_solver_error_carries_best_iterate(self, ellipse21, monkeypatch):
        monkeypatch.setattr(orbits_mod, "NEWTON_CAP", 0)
        monkeypatch.setattr(orbits_mod, "SWEEP_CAP", 0)
        with pytest.raises(SolverError) as err:
            find_orbit(ellipse21, 1, 9)
        best = err.value.best
        assert best is not None and not best.converged
        assert best.s.shape == (9,)
