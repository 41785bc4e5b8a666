import math

import numpy as np
import pytest
from scipy.integrate import quad

import billiards.elliptic as elliptic
from billiards import (
    BracketError,
    DomainError,
    SolverError,
    carlson_rf,
    ellip_f,
    ellip_fk,
    ellip_k,
    invert_monotone,
    jacobi_am,
)


def agm_k(k):
    """Independent oracle: K = pi / (2 agm(1, sqrt(1-k^2)))."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(60):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def f_quadrature(phi, k):
    """Independent oracle: direct quadrature of the defining integrand."""
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, phi,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


class TestCarlsonRF:
    def test_equal_arguments(self):
        assert carlson_rf(4.0, 4.0, 4.0) == pytest.approx(0.5, abs=1e-15)

    def test_complete_reduction(self):
        assert carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_lemniscate_constant(self):
        # (1/2) integral dt / sqrt(t (t+1) (t+2))
        oracle, _ = quad(
            lambda u: 1.0 / math.sqrt((u + 0.0) * (u + 1.0) * (u + 2.0)),
            0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400,
        )
        assert carlson_rf(0.0, 1.0, 2.0) == pytest.approx(0.5 * oracle, rel=1e-12)
        assert carlson_rf(0.0, 1.0, 2.0) == pytest.approx(1.3110287771461, abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            x, y, z = rng.uniform(0.01, 50.0, size=3)
            c = rng.uniform(0.1, 20.0)
            assert carlson_rf(c * x, c * y, c * z) == pytest.approx(
                carlson_rf(x, y, z) / math.sqrt(c), rel=1e-13
            )

    def test_quadrature_agreement(self):
        def oracle(x, y, z):
            v, _ = quad(
                lambda u: 0.5 / math.sqrt((u + x) * (u + y) * (u + z)),
                0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400,
            )
            return v

        for args in [(1.0, 2.0, 3.0), (0.5, 0.5, 4.0), (0.0, 2.5, 0.3)]:
            assert carlson_rf(*args) == pytest.approx(oracle(*args), rel=1e-11)

    def test_pinned_values(self):
        # Bit patterns that a rewrite of the duplication loop must keep, in a
        # batch and one point at a time: a zero argument, spreads of 1e16 and
        # 1e600, near-equal arguments and a generic point.
        pins = [
            ((0.0, 1.0, 1.0), "0x1.921fb54442d19p+0"),
            ((0.0, 1.0, 2.0), "0x1.4f9f94f9f50b1p+0"),
            ((2.0, 3.0, 0.0), "0x1.00469b71d306fp+0"),
            ((1e-8, 1.0, 1e8), "0x1.15c8241a04e00p-10"),
            ((1e-300, 7.0, 1e300), "0x1.1afc4b18b9dc9p-490"),
            ((1.0, 1.0 + 1e-10, 1.0 - 1e-10), "0x1.0000000000000p+0"),
            ((0.3, 2.5, 17.0), "0x1.05b607d53b3c9p-1"),
        ]
        args = [a for a, _ in pins]
        want = [float.fromhex(h) for _, h in pins]
        assert carlson_rf(*np.array(args).T).tolist() == want
        assert [carlson_rf(*a) for a in args] == want

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            carlson_rf(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            carlson_rf(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            carlson_rf(math.inf, 1.0, 1.0)


class TestEllipK:
    def test_k_zero(self):
        assert ellip_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_agm_oracle(self):
        for k in (0.1, 1 / math.sqrt(2), 0.9, 0.99):
            assert ellip_k(k) == pytest.approx(agm_k(k), rel=1e-14)

    def test_near_one_is_finite(self):
        val = ellip_k(0.999999)
        assert math.isfinite(val)
        assert val > 7.0

    def test_rejects_bad_modulus(self):
        for k in (1.0, 1.5, -0.2):
            with pytest.raises(DomainError):
                ellip_k(k)


class TestEllipF:
    def test_zero_modulus_is_identity(self):
        assert ellip_f(1.3, 0.0) == pytest.approx(1.3, abs=1e-14)

    def test_quarter_period(self):
        assert ellip_f(math.pi / 2, 0.6) == pytest.approx(ellip_k(0.6), rel=1e-15)

    def test_quadrature_oracle(self):
        for phi, k in [(0.4, 0.5), (1.2, 0.8), (2.6, 0.3), (-1.0, 0.7)]:
            assert ellip_f(phi, k) == pytest.approx(f_quadrature(phi, k), abs=1e-12)

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            phi = rng.uniform(-8.0, 8.0)
            k = rng.uniform(0.0, 0.95)
            lhs = ellip_f(phi + math.pi, k) - ellip_f(phi, k)
            assert lhs == pytest.approx(2.0 * ellip_k(k), abs=1e-12)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(5)
        for k in (0.0, 0.4, 0.9):
            grid = np.sort(rng.uniform(-7.0, 7.0, size=60))
            vals = [ellip_f(p, k) for p in grid]
            assert np.all(np.diff(vals) > 0)

    def test_scipy_cross_check(self):
        from scipy.special import ellipkinc

        rng = np.random.default_rng(9)
        for _ in range(40):
            phi = rng.uniform(-6.0, 6.0)
            k = rng.uniform(0.0, 0.97)
            assert ellip_f(phi, k) == pytest.approx(ellipkinc(phi, k * k), rel=1e-12)


class TestEllipFK:
    """ellip_fk is (ellip_f, ellip_k) from one carlson_rf pass, bit for bit."""

    @staticmethod
    def _same(phi, k):
        f, bigk = ellip_fk(phi, k)
        want_f, want_k = ellip_f(phi, k), ellip_k(np.broadcast_to(k, np.shape(f)))
        assert np.array_equal(f, want_f) and np.array_equal(bigk, want_k)
        assert np.shape(f) == np.shape(bigk) == np.broadcast_shapes(np.shape(phi), np.shape(k))
        return f, bigk

    def test_wound_amplitudes(self):
        rng = np.random.default_rng(56)
        phi = rng.uniform(-20.0, 20.0, 300)
        k = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, 300)
        self._same(phi, k)

    @pytest.mark.parametrize("k", [0.0, 0.5, 0.999999])
    def test_branch_edges_and_extreme_moduli(self, k):
        phi = np.array([-math.pi / 2, math.pi / 2, -math.pi, math.pi, 3 * math.pi / 2, 0.0])
        f, bigk = self._same(phi, k)
        assert f[0] == -f[1] and np.all(bigk == ellip_k(k))

    def test_scalar(self):
        f, bigk = ellip_fk(2.5, 0.7)
        assert isinstance(f, float) and isinstance(bigk, float)
        assert (f, bigk) == (ellip_f(2.5, 0.7), ellip_k(0.7))

    def test_empty(self):
        for shape in ((0,), (3, 0)):
            for f, bigk in (ellip_fk(np.empty(shape), 0.5), ellip_fk(np.empty(shape),
                                                                     np.empty(shape))):
                assert isinstance(f, np.ndarray) and f.shape == bigk.shape == shape

    def test_broadcast(self):
        phi = np.linspace(-7.0, 7.0, 12).reshape(3, 4)
        self._same(phi, np.array([0.1, 0.4, 0.8, 0.99]))
        self._same(phi[:, :1], np.array([0.1, 0.4, 0.8, 0.99]))
        self._same(1.2, np.array([[0.0], [0.3], [0.9]]))

    def test_one_pass(self, monkeypatch):
        calls, rf = [], elliptic.carlson_rf
        monkeypatch.setattr(elliptic, "carlson_rf", lambda *a: calls.append(1) or rf(*a))
        ellip_fk(np.linspace(-9.0, 9.0, 25), 0.6)
        ellip_f(np.linspace(-9.0, 9.0, 25), 0.6)
        assert len(calls) == 2

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            ellip_fk(0.5, 1.0)
        with pytest.raises(DomainError):
            ellip_fk(math.nan, 0.5)


class TestJacobiAm:
    def test_zero_modulus(self):
        assert jacobi_am(0.7, 0.0) == pytest.approx(0.7, abs=1e-14)

    def test_quarter_period(self):
        assert jacobi_am(ellip_k(0.3), 0.3) == pytest.approx(math.pi / 2, abs=1e-13)

    def test_roundtrip_example(self):
        assert jacobi_am(ellip_f(1.1, 0.8), 0.8) == pytest.approx(1.1, abs=1e-12)

    def test_roundtrip_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            phi = rng.uniform(-4 * math.pi, 4 * math.pi)
            k = rng.uniform(0.0, 0.95)
            assert jacobi_am(ellip_f(phi, k), k) == pytest.approx(phi, abs=1e-11)

    def test_converges_near_unit_modulus(self):
        # F' reaches 1/sqrt(1 - k^2) ~ 10 here, so |F(phi) - t| cannot always
        # get below 1e-15 * |t| in double precision
        k = 0.995
        big_k = ellip_k(k)
        t = np.random.default_rng(41).uniform(-big_k, big_k, 2000)
        assert np.max(np.abs(ellip_f(jacobi_am(t, k), k) - t)) <= 1e-11

    def test_rejects_bad_modulus(self):
        with pytest.raises(DomainError):
            jacobi_am(0.3, 1.0)


class TestInvertMonotone:
    def test_identity(self):
        assert invert_monotone(lambda x: x, 0.5, (0.0, 1.0)) == pytest.approx(0.5)

    def test_cube(self):
        assert invert_monotone(lambda x: x**3, 8.0, (0.0, 3.0)) == pytest.approx(2.0)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            invert_monotone(lambda x: x, 5.0, (0.0, 1.0))

    def test_rejects_reversed_bracket(self):
        with pytest.raises(DomainError, match=r"bad bracket \(1.0, 0.0\)"):
            invert_monotone(lambda x: x, 0.5, (1.0, 0.0))

    def test_supplied_bracket_values_give_the_same_roots(self):
        rng = np.random.default_rng(55)
        target = rng.uniform(-25.0, 25.0, 50)
        lo, hi = rng.uniform(-6.0, -4.0, 50), rng.uniform(5.0, 7.0, 50)
        target[:2] = np.sinh(lo[0]), np.sinh(hi[1])  # roots at the bracket ends
        kw = {"atol": 1e-12, "xtol": 1e-15}
        out = invert_monotone(np.sinh, target, (lo, hi), fbracket=(np.sinh(lo), np.sinh(hi)), **kw)
        assert np.array_equal(out, invert_monotone(np.sinh, target, (lo, hi), **kw))
        one = invert_monotone(np.sinh, 3.0, (-5.0, 6.0), fbracket=(np.sinh(-5.0), np.sinh(6.0)),
                              **kw)
        assert isinstance(one, float)
        assert one == invert_monotone(np.sinh, 3.0, (-5.0, 6.0), **kw)

    def test_supplied_bracket_values_are_checked(self):
        def unused(x):
            raise AssertionError("f evaluated at a bracket end")

        with pytest.raises(BracketError):
            invert_monotone(unused, [0.5, 5.0], (0.0, 1.0), fbracket=(0.0, 1.0))

    def test_supplied_bracket_values_broadcast(self):
        target = np.array([[0.2, 0.5, 0.7], [0.1, 0.3, 0.9]])
        out = invert_monotone(lambda x: x**3, target, (0.0, 1.0), fbracket=(0.0, np.ones(3)),
                              atol=1e-14)
        assert out.shape == (2, 3)
        assert np.array_equal(out, invert_monotone(lambda x: x**3, target, (0.0, 1.0),
                                                   atol=1e-14))

    def test_bracket_ends_in_one_call(self):
        seen = []

        def f(x):
            seen.append(np.array(x))
            return np.sinh(x)

        lo, hi = np.array([-5.0, -4.0, -6.0]), np.array([6.0, 5.0, 7.0])
        out = invert_monotone(f, [1.0, -2.0, 30.0], (lo, hi), atol=1e-12, xtol=1e-15)
        assert np.array_equal(seen[0], np.concatenate((lo, hi)))
        assert all(x.size <= 3 for x in seen[1:])
        assert np.array_equal(out, invert_monotone(np.sinh, [1.0, -2.0, 30.0], (lo, hi),
                                                   atol=1e-12, xtol=1e-15))

    def test_rotation_number_inversion(self, ellipse21):
        # forward-evaluate the caustic rotation number on a fine grid to
        # bracket the expected answer, then invert
        from billiards import rotation_number_of_caustic

        E = ellipse21
        target = 0.2
        lam = invert_monotone(
            lambda v: rotation_number_of_caustic(E, v), target, (0.0, E.b * (1 - 1e-9))
        )
        grid = np.linspace(0.0, E.b * (1 - 1e-9), 4001)
        vals = rotation_number_of_caustic(E, grid)
        j = int(np.searchsorted(vals, target))
        assert grid[j - 1] <= lam <= grid[j]
        assert rotation_number_of_caustic(E, lam) == pytest.approx(target, abs=1e-10)


class TestNearUnitModulus:
    @pytest.mark.parametrize("k", [0.99, 0.9999, 0.999999])
    def test_ellip_f_against_mpmath(self, k):
        # 1 - (k sin phi)^2 cancels here; k'^2 + (k cos phi)^2 does not
        mpmath = pytest.importorskip("mpmath")
        phi = np.linspace(1.3, math.pi / 2, 101)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.ellipf(float(p), mpmath.mpf(k) ** 2)) for p in phi])
        assert np.max(np.abs(ellip_f(phi, k) / ref - 1.0)) <= 2e-15


class TestBatchIndependence:
    """Element i of an array call equals the scalar call on element i, bit
    for bit, although elements stop their iterations at different steps."""

    def test_carlson_rf(self):
        rng = np.random.default_rng(51)
        x, y, z = 10.0 ** rng.uniform(-8.0, 8.0, (3, 200))
        x[::7] = 0.0
        out = carlson_rf(x, y, z)
        assert np.array_equal(out, [carlson_rf(*v) for v in zip(x, y, z)])

    def test_ellip_f(self):
        rng = np.random.default_rng(52)
        phi = rng.uniform(-8.0, 8.0, 200)
        k = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, 200)
        out = ellip_f(phi, k)
        assert np.array_equal(out, [ellip_f(*v) for v in zip(phi, k)])

    def test_jacobi_am(self):
        rng = np.random.default_rng(53)
        t = rng.uniform(-12.0, 12.0, 200)
        k = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, 200)
        out = jacobi_am(t, k)
        assert np.array_equal(out, [jacobi_am(*v) for v in zip(t, k)])

    def test_invert_monotone(self):
        rng = np.random.default_rng(54)
        target = rng.uniform(-25.0, 25.0, 200)
        lo = rng.uniform(-6.0, -4.0, 200)
        hi = rng.uniform(5.0, 7.0, 200)
        target[:2] = np.sinh(lo[0]), np.sinh(hi[1])  # roots at the bracket ends
        out = invert_monotone(np.sinh, target, (lo, hi), atol=1e-12, xtol=1e-15)
        ref = [invert_monotone(np.sinh, *v, atol=1e-12, xtol=1e-15)
               for v in zip(target, zip(lo, hi))]
        assert np.array_equal(out, ref)
        assert np.max(np.abs(np.sinh(out) - target)) <= 1e-12

    @pytest.mark.parametrize("call", [
        lambda e: carlson_rf(e, e, e),
        lambda e: ellip_k(e),
        lambda e: ellip_f(e, e),
        lambda e: jacobi_am(e, e),
    ], ids=["carlson_rf", "ellip_k", "ellip_f", "jacobi_am"])
    def test_empty_in_empty_out(self, call):
        for shape in ((0,), (3, 0)):
            out = call(np.empty(shape))
            assert isinstance(out, np.ndarray) and out.shape == shape

    def test_one_unbracketed_element_raises(self):
        with pytest.raises(BracketError):
            invert_monotone(lambda x: x, [0.5, 5.0], (0.0, 1.0))


def _hex(v):
    return [float(x).hex() for x in np.ravel(v)]


def _outcome(call):
    """(result type, float.hex of every value) or (error type, message)."""
    try:
        out = call()
    except Exception as exc:
        return type(exc), str(exc)
    return type(out), _hex(out)


class TestFloatPath:
    """Scalar evaluations run in Python floats: carlson_rf on at most
    RF_FLOAT_COLUMNS columns, _f_and_k on 0-d inputs and invert_monotone
    on a scalar target and bracket.  Each exit matches the array path's, in
    float.hex, in type and in message."""

    @pytest.mark.parametrize("n", [1, elliptic.RF_FLOAT_COLUMNS, elliptic.RF_FLOAT_COLUMNS + 1])
    def test_carlson_rf_on_both_sides_of_the_column_limit(self, n, monkeypatch):
        rng = np.random.default_rng(60 + n)
        x, y, z = 10.0 ** rng.uniform(-8.0, 8.0, (3, 40 * n))
        x[::3] = 0.0
        kernel, kernel_calls = elliptic._rf_float, []
        monkeypatch.setattr(elliptic, "_rf_float",
                            lambda *c: kernel_calls.append(1) or kernel(*c))
        got = [carlson_rf(*cols) for cols in np.split(np.stack((x, y, z)), 40, axis=1)]
        assert len(kernel_calls) == (40 * n if n <= elliptic.RF_FLOAT_COLUMNS else 0)
        scalar = [carlson_rf(*v) for v in zip(x, y, z)]
        assert all(isinstance(v, float) for v in scalar)
        monkeypatch.setattr(elliptic, "RF_FLOAT_COLUMNS", 0)
        assert _hex(np.concatenate(got)) == _hex(carlson_rf(x, y, z)) == _hex(scalar)

    @pytest.mark.parametrize("args", [
        (-1.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (0.0, 0.0, 1.0),
        (0.0, 5e-324, 5e-324),  # 0/0 after one duplication: numpy's NaN and warning
    ], ids=["negative", "nan", "inf", "two-zeros", "subnormal"])
    def test_carlson_rf_out_of_domain(self, args):
        with np.errstate(invalid="ignore"):
            scalar = _outcome(lambda: carlson_rf(*args))
            array = _outcome(lambda: carlson_rf(*([v] for v in args)))
        assert scalar[0] in (float, DomainError) and scalar[1] == array[1]

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0 - 1e-12])
    def test_ellip_fk_scalar_is_the_array_path(self, k, monkeypatch):
        # wound amplitudes, the ties at +-pi/2 and 3 pi/2 that stay on the
        # lower branch, and signed zeros
        phi = [7.3, -7.3, 40.0, math.pi / 2, -math.pi / 2, 1.5 * math.pi,
               np.nextafter(math.pi / 2, 4.0), 0.0, -0.0, 1e-300, -1e-300]
        scalar = [(ellip_fk(p, k), ellip_f(p, k)) for p in phi]
        for (f, bigk), f_only in scalar:
            assert isinstance(f, float) and isinstance(bigk, float) and isinstance(f_only, float)
        monkeypatch.setattr(elliptic, "RF_FLOAT_COLUMNS", 0)
        f, bigk = ellip_fk(np.array(phi), k)
        assert [_hex(v[0]) for v, _ in scalar] == [_hex(v) for v in f]
        assert [_hex(v[1]) for v, _ in scalar] == [_hex(v) for v in bigk]
        assert [_hex(v) for _, v in scalar] == [_hex(v) for v in ellip_f(np.array(phi), k)]

    @pytest.mark.parametrize("phi, k", [(0.5, 1.0), (0.5, -0.1), (math.nan, 0.5),
                                        (math.inf, 0.5), (0.5, math.nan)])
    def test_ellip_fk_rejects_like_the_array_path(self, phi, k):
        assert _outcome(lambda: ellip_fk(phi, k)) == _outcome(lambda: ellip_fk([phi], [k]))

    @staticmethod
    def _both(f, target, bracket, **kw):
        """invert_monotone's outcome on a float target and on its 1-element
        array; a returned value is compared as float.hex."""
        scalar = _outcome(lambda: invert_monotone(f, target, bracket, **kw))
        array = _outcome(lambda: invert_monotone(f, [target], bracket, **kw))
        assert scalar[1] == array[1]
        return scalar, array

    def test_invert_bracket_error(self):
        scalar, array = self._both(np.sinh, 5000.0, (0.0, 1.0))
        assert scalar[0] is array[0] is BracketError
        assert scalar[1].startswith("invert_monotone: no sign change on [0.0, 1.0]")

    def test_invert_stuck_above_atol(self):
        # a jump of 1 at x = 0.3 that the target falls into
        def step(x):
            return np.where(x < 0.3, x, x + 1.0)

        scalar, array = self._both(step, 0.8, (0.0, 1.0))
        assert scalar[0] is array[0] is SolverError
        assert "above atol=1e-10 at ulp resolution" in scalar[1]

    @pytest.mark.parametrize("supplied", [False, True], ids=["evaluated", "fbracket"])
    def test_invert_root_at_a_bracket_end(self, supplied):
        lo, hi = -5.0, 6.0
        kw = {"fbracket": (np.sinh(lo), np.sinh(hi))} if supplied else {}
        for target, end in ((float(np.sinh(lo)), lo), (float(np.sinh(hi)), hi)):
            scalar, array = self._both(np.sinh, target, (lo, hi), **kw)
            assert scalar == (float, _hex(end)) and array[0] is np.ndarray

    def test_invert_evaluates_zero_d_arrays(self):
        # After the bracket ends (one 2-element call) f sees 0-d arrays, on
        # which numpy runs its array loops: x ** 3 rounds differently on a
        # Python float or np.float64 than on an array.
        seen = []

        def cube(x):
            seen.append(np.shape(x))
            return x ** 3

        invert_monotone(cube, 1.0, (-5.0, 5.0))
        assert seen[0] == (2,) and len(seen) > 2 and set(seen[1:]) == {()}

    @pytest.mark.parametrize("f", [np.sinh, np.arctan, lambda x: np.tanh(5.0 * x),
                                   lambda x: x ** 3], ids=["sinh", "arctan", "tanh", "cube"])
    def test_invert_scalar_steps_like_the_array_loop(self, f):
        # flat and steep stretches make the secant step fall back to
        # bisection
        target = f(np.random.default_rng(62).uniform(-3.0, 4.0, 200))
        kw = {"atol": 1e-12, "xtol": 1e-15}
        scalar = [invert_monotone(f, t, (-3.0, 4.0), **kw) for t in target]
        assert _hex(scalar) == _hex(invert_monotone(f, target, (-3.0, 4.0), **kw))
