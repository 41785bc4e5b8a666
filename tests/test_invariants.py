import math

import numpy as np
import pytest

from billiards import (
    BetaSamples,
    CircleTable,
    ConditioningError,
    DomainError,
    fit_normalized_beta,
    lazutkin_parameter,
    mather_alpha,
    mm_fit_from_samples,
    mm_invariants,
    mm_ratio_check,
    sample_beta,
)

# circle closed forms: beta(w) = -2 R sin(pi w), ell = 2 pi R, lambda^3 = 8 pi^3 R
C3 = 1.0 / 24.0
C5 = -math.pi**2 / 480.0
C7 = math.pi**4 / 20160.0
ELL1 = -math.pi**3 / 3.0
ELL2 = math.pi**5 / 60.0


def circle_samples(radius=1.0, q_lo=10, q_hi=120):
    qs = np.arange(q_lo, q_hi + 1)
    om = 1.0 / qs
    beta = -2.0 * radius * np.sin(math.pi * om)
    return BetaSamples(
        p=np.ones_like(qs), q=qs, omega=om, beta=beta,
        ell=2 * math.pi * radius,
        lazutkin=2 * math.pi * radius ** (1.0 / 3.0),
    )


@pytest.fixture(scope="module")
def circle_beta(circle):
    return sample_beta(circle, 10, 120)


@pytest.fixture(scope="module")
def ellipse_beta(ellipse_e05):
    return sample_beta(ellipse_e05, 10, 120)


class TestBetaSamples:
    def test_rejects_bad_omega(self):
        with pytest.raises(DomainError):
            BetaSamples(np.array([1]), np.array([1]), np.array([0.7]),
                        np.array([-1.0]), 1.0, 1.0)

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            BetaSamples(np.array([1, 1]), np.array([4, 4]), np.array([0.25, 0.25]),
                        np.array([-1.0, -1.0]), 1.0, 1.0)

    def test_rejects_no_sample(self):
        with pytest.raises(DomainError, match="needs at least one sample"):
            BetaSamples(np.array([]), np.array([]), np.array([]), np.array([]), 1.0, 1.0)

    def test_rejects_positive_beta(self):
        with pytest.raises(DomainError):
            BetaSamples(np.array([1]), np.array([4]), np.array([0.25]),
                        np.array([1.0]), 1.0, 1.0)


class TestNormalizedBetaFit:
    def test_synthetic_circle_coefficients(self):
        rep = fit_normalized_beta(circle_samples(), K=3)
        assert rep.beta_coeffs[0] == pytest.approx(C3, abs=1e-10)
        assert rep.beta_coeffs[1] == pytest.approx(C5, rel=1e-6)
        assert rep.beta_coeffs[2] == pytest.approx(C7, rel=1e-3)

    def test_sampled_circle_coefficients(self, circle_beta):
        rep = fit_normalized_beta(circle_beta, K=3)
        assert rep.beta_coeffs[0] == pytest.approx(C3, abs=1e-8)
        assert rep.beta_coeffs[1] == pytest.approx(C5, rel=1e-3)

    def test_universal_cubic_on_ellipse(self, ellipse_beta):
        rep = fit_normalized_beta(ellipse_beta, K=3)
        assert rep.beta_coeffs[0] == pytest.approx(C3, abs=1e-4)

    def test_scaling_invariance(self, ellipse_e05):
        scaled = ellipse_e05.scaled(3.0)
        r1 = fit_normalized_beta(sample_beta(ellipse_e05, 10, 60), K=2)
        r2 = fit_normalized_beta(sample_beta(scaled, 10, 60), K=2)
        assert np.allclose(r1.beta_coeffs, r2.beta_coeffs, rtol=1e-6)

    def test_requires_enough_samples(self):
        with pytest.raises(DomainError):
            fit_normalized_beta(circle_samples(q_lo=10, q_hi=14), K=3)

    def test_rejects_k_below_one(self):
        with pytest.raises(DomainError, match="K must be >= 1, got 0"):
            fit_normalized_beta(circle_samples(), K=0)

    def test_high_k_fits(self):
        rep = fit_normalized_beta(circle_samples(), K=5)
        assert rep.beta_coeffs[0] == pytest.approx(C3, abs=1e-10)

    def test_conditioning_error(self):
        # samples clustered at nearly identical rotation numbers make the
        # monomial columns indistinguishable
        qs = np.arange(10**6, 10**6 + 9)
        om = 1.0 / qs
        beta = -2.0 * np.sin(math.pi * om)
        samples = BetaSamples(np.ones_like(qs), qs, om, beta,
                              2 * math.pi, 2 * math.pi)
        with pytest.raises(ConditioningError):
            fit_normalized_beta(samples, K=3)


class TestMarviziMelrose:
    def test_circle_closed_forms(self, circle_beta):
        rep = mm_fit_from_samples(circle_beta, K=3)
        assert rep.mm_ell[0] == pytest.approx(2 * math.pi, abs=1e-9)
        assert rep.mm_ell[1] == pytest.approx(ELL1, rel=1e-8)
        assert rep.mm_ell[2] == pytest.approx(ELL2, rel=1e-4)

    def test_ell0_is_perimeter(self, ellipse_beta, ellipse_e05):
        rep = mm_fit_from_samples(ellipse_beta, K=3)
        assert rep.mm_ell[0] == pytest.approx(ellipse_e05.perimeter, abs=1e-8)

    def test_beta_mm_consistency(self, ellipse_beta):
        # direct ell_k fit vs -lambda^3 c_{2k+1} from the beta fit
        rep = mm_fit_from_samples(ellipse_beta, K=3)
        for k in (0, 1, 2):
            scale = max(1.0, abs(rep.derived_ell[k]))
            assert rep.consistency[k] / scale < 1e-6

    def test_mm_invariants_entry_point(self, circle):
        rep = mm_invariants(circle, (10, 40), K=2)
        assert rep.mm_ell[0] == pytest.approx(2 * math.pi, abs=1e-8)

    def test_parallel_sampling_matches_serial(self, circle, perturbed):
        # each worker solves a contiguous chunk of q as one batch; on the
        # perturbed circle every q runs the 8-start multistart
        for table in (circle, perturbed):
            serial = sample_beta(table, 10, 24)
            parallel = sample_beta(table, 10, 24, workers=2)
            assert np.array_equal(serial.q, parallel.q)
            assert np.array_equal(serial.beta, parallel.beta)
            assert ([(orb.converged, len(orb.candidates)) for orb in serial.orbits]
                    == [(orb.converged, len(orb.candidates)) for orb in parallel.orbits])

    def test_circle_beta_beyond_p_one(self):
        # (2, q) orbits: beta(2/q) = -2 R sin(2 pi / q) on odd q >= 5
        samples = sample_beta(CircleTable(1.3), 5, 15, p=2)
        assert samples.q.tolist() == [5, 7, 9, 11, 13, 15]
        assert np.all(samples.omega == 2.0 / samples.q)
        err = np.abs(samples.beta + 2.0 * 1.3 * np.sin(2.0 * math.pi / samples.q))
        assert err.max() <= 1e-15

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, circle, workers):
        # no silent serial fallback: the same rule as the CLI's --threads
        with pytest.raises(DomainError, match="workers must be >= 1"):
            sample_beta(circle, 10, 24, workers=workers)
        with pytest.raises(DomainError, match="workers must be >= 1"):
            mm_invariants(circle, (10, 40), K=2, workers=workers)

    def test_q_range_validation(self, circle):
        with pytest.raises(DomainError):
            mm_invariants(circle, (3, 40), K=2)
        with pytest.raises(DomainError):
            mm_invariants(circle, (10, 12), K=3)


class TestRatioCheck:
    def test_identical_tables(self, circle_beta):
        rep = mm_fit_from_samples(circle_beta, K=3)
        for row in mm_ratio_check(rep, rep):
            assert row.measured == pytest.approx(1.0)
            assert row.predicted == pytest.approx(1.0)

    def test_circle_radii(self):
        r1 = fit_normalized_beta(circle_samples(1.0), K=3)
        r8 = fit_normalized_beta(circle_samples(8.0), K=3)
        rows = mm_ratio_check(r1, r8)
        # lambda ratio is 2, so the n = 2 prediction is (lam2/lam1)^1 = 2
        assert rows[1].predicted == pytest.approx(2.0, rel=1e-12)
        assert rows[1].measured == pytest.approx(2.0, rel=1e-5)
        assert rows[0].predicted == pytest.approx(0.5, rel=1e-12)

    def test_mismatched_k(self, circle_beta):
        r3 = mm_fit_from_samples(circle_beta, K=3)
        r2 = mm_fit_from_samples(circle_beta, K=2)
        with pytest.raises(DomainError):
            mm_ratio_check(r3, r2)


class TestLazutkinParameter:
    def test_circle_closed_form(self, circle_beta):
        om = 0.05
        expected = 2.0 * (math.sin(math.pi * om) - math.pi * om * math.cos(math.pi * om))
        assert lazutkin_parameter(circle_beta, om) == pytest.approx(expected, rel=1e-6)

    def test_leading_order(self):
        # L(w) = lambda^3 w^3 / 12 + O(w^5)
        samples = circle_samples()
        lam3 = samples.lazutkin**3
        om = 0.02
        assert lazutkin_parameter(samples, om) == pytest.approx(
            lam3 * om**3 / 12.0, rel=1e-3
        )

    def test_positive_on_shipped_tables(self, circle_beta, ellipse_beta):
        for samples in (circle_beta, ellipse_beta):
            for om in (0.02, 0.05, 0.1):
                assert lazutkin_parameter(samples, om) > 0.0

    def test_extrapolation_rejected(self, circle_beta):
        with pytest.raises(DomainError):
            lazutkin_parameter(circle_beta, 0.4)


class TestMatherAlpha:
    def test_duality_roundtrip(self):
        samples = circle_samples(q_lo=3, q_hi=60)
        rep = fit_normalized_beta(samples, K=3)
        from billiards.invariants import _beta_polynomial

        for om in (0.05, 0.1):
            c = _beta_polynomial(rep).deriv()(om)
            h = 1e-7
            slope = (mather_alpha(samples, c + h) - mather_alpha(samples, c - h)) / (2 * h)
            assert slope == pytest.approx(om, abs=1e-4)

    def test_convexity(self):
        samples = circle_samples(q_lo=3, q_hi=40)
        cs = np.linspace(-6.2, -5.0, 25)
        vals = [mather_alpha(samples, c) for c in cs]
        second = np.diff(vals, 2)
        assert np.all(second > -1e-12)

    def test_symmetric_maximizer(self):
        # with omega = 1/2 sampled, slopes just below zero take the maximum
        # at the symmetric point
        qs = np.array([2, 3, 4, 5, 6, 8, 12, 20])
        om = 1.0 / qs
        beta = -2.0 * np.sin(math.pi * om)
        samples = BetaSamples(np.ones_like(qs), qs, om, beta, 2 * math.pi, 2 * math.pi)
        from billiards.invariants import _alpha_discrete

        _, argmax = _alpha_discrete(samples, -0.1)
        assert argmax == 0.5

    def test_out_of_range(self):
        samples = circle_samples()
        with pytest.raises(DomainError):
            mather_alpha(samples, 100.0)

    def test_one_sample_has_no_slope(self):
        with pytest.raises(DomainError, match="at least 2 samples"):
            mather_alpha(circle_samples(q_lo=10, q_hi=10), -6.0)
