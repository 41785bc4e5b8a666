"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with its measured margin (run with -s to see them all)."""

import math

import numpy as np
import pytest

from billiards import (
    CircleTable,
    EllipseTable,
    PerturbedCircleTable,
    PhasePoint,
    action_angle,
    build_conjugacy,
    caustic_param,
    eccentricity_witness,
    ellip_f,
    ellip_k,
    find_orbit,
    fit_normalized_beta,
    hyperbolic_orbit_exists,
    jacobi_am,
    lq_bounds,
    mather_alpha,
    mm_fit_from_samples,
    mm_ratio_check,
    orbit_shift,
    sample_beta,
    step,
)

from caustic_oracle import caustic_param_oracle

C3 = 1.0 / 24.0
C5 = -math.pi**2 / 480.0


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status}  {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tables():
    return {
        "circle": CircleTable(1.0),
        "ellipse05": EllipseTable(1.0, math.sqrt(0.75)),
        "ellipse21": EllipseTable(2.0, 1.0),
        "ellipse32": EllipseTable(3.0, 2.0),
        "ellipse515": EllipseTable(5.0, 1.5),
        "perturbed": PerturbedCircleTable(1.0, [(3, 0.05, 0.0)]),
    }


@pytest.fixture(scope="module")
def perturbed_scaled(tables):
    return tables["perturbed"].scaled(3.0)


@pytest.fixture(scope="module")
def beta_fits(tables, perturbed_scaled):
    fits = {}
    for name, table in (
        ("circle", tables["circle"]),
        ("ellipse05", tables["ellipse05"]),
        ("perturbed", tables["perturbed"]),
        ("perturbed3x", perturbed_scaled),
    ):
        samples = sample_beta(table, 10, 120)
        fits[name] = (samples, mm_fit_from_samples(samples, K=3))
    return fits


def test_criterion_01_circle_beta_exactness(tables):
    worst = 0.0
    for radius in (1.0, 3.0):
        table = CircleTable(radius) if radius != 1.0 else tables["circle"]
        for q in range(3, 51):
            err = abs(find_orbit(table, 1, q).beta + 2.0 * radius * math.sin(math.pi / q))
            worst = max(worst, err)
    report(1, worst <= 1e-9,
           "circle beta(1/q) = -2R sin(pi/q), R in {1,3}, q in 3..50",
           f"worst abs err {worst:.2e} <= 1e-9")


def test_criterion_02_universal_cubic(beta_fits):
    errs = {name: abs(float(fit.beta_coeffs[0]) - C3)
            for name, (_, fit) in beta_fits.items() if name != "perturbed3x"}
    c5_rel = abs(float(beta_fits["circle"][1].beta_coeffs[1]) / C5 - 1.0)
    ok = all(e <= 1e-4 for e in errs.values()) and c5_rel <= 1e-3
    detail = ", ".join(f"{n}: {e:.2e}" for n, e in errs.items())
    report(2, ok, "fitted c3 = 1/24 (1e-4) on circle/ellipse/perturbed; circle c5 (1e-3 rel)",
           f"{detail}; c5 rel {c5_rel:.2e}")


def test_criterion_03_marvizi_melrose(beta_fits, tables):
    ell0_errs = {}
    for name in ("circle", "ellipse05", "perturbed"):
        samples, fit = beta_fits[name]
        ell0_errs[name] = abs(float(fit.mm_ell[0]) - samples.ell)
    ell1_rel = abs(float(beta_fits["circle"][1].mm_ell[1]) / (-math.pi**3 / 3.0) - 1.0)
    qs = list(range(20, 121, 5))
    gaps = np.array([q**6 * (big - small)
                     for q, (big, small, _, _) in zip(qs, lq_bounds(tables["ellipse21"], qs))])
    decay_ok = bool(np.all(gaps >= 0.0) and np.all(np.diff(gaps) <= 1e-9))
    ok = all(e <= 1e-6 for e in ell0_errs.values()) and ell1_rel <= 1e-5 and decay_ok
    report(3, ok, "ell0 = perimeter (1e-6); circle ell1 (1e-5 rel); ellipse q^6 gap decay",
           f"ell0 errs {max(ell0_errs.values()):.2e}; ell1 rel {ell1_rel:.2e}; "
           f"max q^6 gap {gaps.max():.2e}")


def test_criterion_04_scaling_invariance(beta_fits):
    _, fit1 = beta_fits["perturbed"]
    _, fit2 = beta_fits["perturbed3x"]
    rel = np.abs(np.asarray(fit1.beta_coeffs) / np.asarray(fit2.beta_coeffs) - 1.0)
    rows = mm_ratio_check(fit1, fit2)
    ratio_dev = max(rows[0].deviation, rows[1].deviation)
    ok = bool(np.all(rel <= 1e-4) and ratio_dev <= 1e-3)
    report(4, ok, "normalized c3,c5,c7 invariant under 3x scaling; ratio law n in {1,2}",
           f"coeff rel {rel.max():.2e} <= 1e-4; ratio dev {ratio_dev:.2e} <= 1e-3")


def test_criterion_05_caustic_oracle(tables):
    worst = 0.0
    for ecc in (0.0, 0.5, 0.8):
        E = EllipseTable(1.0, math.sqrt(1.0 - ecc * ecc))
        phis = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)
        thetas = np.linspace(0.01, E.theta_star - 0.01, 100)
        phi, th = np.meshgrid(phis, thetas, indexing="ij")
        err = np.abs(caustic_param(E, phi, th) - caustic_param_oracle(E, phi, th))
        worst = max(worst, float(np.max(err)))
    table = tables["ellipse21"]
    E = table
    lam0 = caustic_param(E, 0.4, 0.21)
    p = PhasePoint(table.arc_of_angle(0.4), 0.21)
    drift = 0.0
    for _ in range(1000):
        p = step(table, p)
        lam = caustic_param(E, table.angle_of_arc(p.s), p.theta)
        drift = max(drift, abs(lam - lam0))
    ok = worst <= 1e-10 and drift <= 1e-9
    report(5, ok, "caustic closed form vs tangency oracle (1e-10); conservation (1e-9)",
           f"grid worst {worst:.2e}; 1000-step drift {drift:.2e}")


def test_criterion_06_conjugacy(tables):
    pair_res = {}
    for name in ("ellipse32", "ellipse515"):
        h = build_conjugacy(tables["ellipse21"], tables[name])
        pair_res[name] = h.max_residual(n_s=200, n_theta=50)
    ident = build_conjugacy(tables["ellipse21"], EllipseTable(2.0, 1.0))
    ident_res = ident.max_residual(n_s=60, n_theta=12)
    c1, c2 = EllipseTable(1.0, 1.0), EllipseTable(2.5, 2.5)
    hc = build_conjugacy(c1, c2)
    rng = np.random.default_rng(31)
    s, th = rng.uniform((0.0, 0.01), (c2.perimeter, 1.4), (200, 2)).T
    out = hc(PhasePoint(s, th))
    circ_err = float(np.max(np.concatenate((np.abs(out.s - (s / 2.5) % c1.perimeter),
                                            np.abs(out.theta - th)))))
    ok = (max(pair_res.values()) <= 1e-6 and ident_res <= 1e-10
          and circ_err <= 1e-10)
    report(6, ok, "conjugacy residual <= 1e-6 on 200x50 grids; identity/circle <= 1e-10",
           f"pairs {max(pair_res.values()):.2e}; identity {ident_res:.2e}; "
           f"circles {circ_err:.2e}")


def test_criterion_07_action_angle_shift(tables):
    rng = np.random.default_rng(33)
    worst = 0.0
    for name in ("ellipse21", "ellipse32", "ellipse515"):
        table = tables[name]
        E = table
        s, th = rng.uniform((0.0, 0.01), (table.perimeter, 0.95 * E.theta_star), (500, 2)).T
        p = PhasePoint(s, th)
        coord = action_angle(table, p)
        delta = orbit_shift(E, coord.lam)
        after = action_angle(table, step(table, p))
        drift = (after.t - coord.t - delta) % coord.period
        drift = np.minimum(drift, coord.period - drift)
        worst = max(worst, float(np.max(drift)))
    report(7, worst <= 1e-8, "action-angle shift residual at 500 random points per ellipse",
           f"worst {worst:.2e} <= 1e-8")


def test_criterion_08_hyperbolic_witness():
    E8 = EllipseTable(1.0, 0.6)  # eccentricity 0.8
    dec14 = hyperbolic_orbit_exists(E8, 1, 4)
    root_ok = (dec14.exists and -E8.c2 < dec14.xi_root < 0.0
               and abs(dec14.g_at_root) <= 1e-10)
    dec15 = hyperbolic_orbit_exists(E8, 1, 5)
    positive_ok = (not dec15.exists) and dec15.u_min > 0.0
    E5 = EllipseTable(1.0, math.sqrt(0.75))  # eccentricity 0.5
    wit = eccentricity_witness(E8, E5)
    none_wit = eccentricity_witness(E5, EllipseTable(2.0, 2.0 * math.sqrt(0.75)))
    ok = root_ok and positive_ok and wit == (1, 4) and none_wit is None
    report(8, ok, "hyperbolic-caustic root (1,4); u > 0 for (1,5); witness logic",
           f"|g(xi)| {abs(dec14.g_at_root):.2e}; u_min {dec15.u_min:.2e}; "
           f"witness {wit}")


def test_criterion_09_special_functions():
    k0_err = abs(ellip_k(0.0) - math.pi / 2)
    a, b = 1.0, math.sqrt(1.0 - 0.5)
    for _ in range(60):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    agm_err = abs(ellip_k(1.0 / math.sqrt(2.0)) - math.pi / (2 * a))
    rng = np.random.default_rng(35)
    qp_err = 0.0
    rt_err = 0.0
    for _ in range(200):
        phi = rng.uniform(-4 * math.pi, 4 * math.pi)
        k = rng.uniform(0.0, 0.95)
        qp_err = max(qp_err, abs(ellip_f(phi + math.pi, k) - ellip_f(phi, k)
                                 - 2 * ellip_k(k)))
        rt_err = max(rt_err, abs(jacobi_am(ellip_f(phi, k), k) - phi))
    ok = k0_err <= 1e-15 and agm_err <= 1e-13 and qp_err <= 1e-11 and rt_err <= 1e-11
    report(9, ok, "K(0) exact; K(1/sqrt2) vs AGM; F quasi-periodicity; am roundtrip",
           f"K0 {k0_err:.2e}; AGM {agm_err:.2e}; quasi-per {qp_err:.2e}; "
           f"roundtrip {rt_err:.2e}")


def test_criterion_10_legendre_duality(tables):
    samples = sample_beta(tables["circle"], 3, 60)
    rep = fit_normalized_beta(samples, K=3)
    from billiards.invariants import _beta_polynomial

    worst = 0.0
    for om in (0.05, 0.1):
        c = _beta_polynomial(rep).deriv()(om)
        h = 1e-7
        slope = (mather_alpha(samples, c + h) - mather_alpha(samples, c - h)) / (2 * h)
        worst = max(worst, abs(slope - om))
    report(10, worst <= 1e-3, "Legendre duality alpha'(beta'(w)) = w at w in {0.05, 0.1}",
           f"worst {worst:.2e} <= 1e-3")
