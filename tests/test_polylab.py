import numpy as np
import pytest

from oracles import (
    allclose,
    identity,
    lp_add,
    lp_series_divide,
    lp_truncated_inverse_series,
    transfer_series,
)
from ratex.polylab import (
    LaurentMatrix,
    Model,
    ShapeMismatchError,
    SingularMatrixError,
    lp_det_and_zeros,
    lp_mul,
    trim_dust,
)
from ratex.wienerhopf import ZerosOnUnitCircle, wh_factorize


def scalar(coeffs, min_lag=0):
    return LaurentMatrix.from_coeffs([[[c]] for c in coeffs], min_lag)


def naive_convolution(a, b):
    """Double-loop Cauchy product, the independent oracle for lp_mul."""
    lo = a.min_lag + b.min_lag
    hi = a.max_lag + b.max_lag
    out = np.zeros((hi - lo + 1, a.rows, b.cols))
    for i in range(a.min_lag, a.max_lag + 1):
        for j in range(b.min_lag, b.max_lag + 1):
            out[i + j - lo] += a.coefficient(i) @ b.coefficient(j)
    return LaurentMatrix.from_coeffs(out, lo)


class TestAdd:
    def test_cancellation_trims(self):
        # (z + 1) + (-1) = z
        a = scalar([1.0, 1.0])
        b = scalar([-1.0])
        s = lp_add(a, b)
        assert s.min_lag == 1 and s.max_lag == 1
        assert s.coefficient(1) == pytest.approx(1.0)

    def test_additive_identity(self):
        rng = np.random.default_rng(0)
        a = LaurentMatrix.from_coeffs(rng.standard_normal((3, 2, 2)), -1)
        z = LaurentMatrix.zero(2, 2)
        assert allclose(lp_add(z, a), a)

    def test_disjoint_lag_ranges(self):
        a = LaurentMatrix.from_coeffs([np.eye(2)], -1)
        b = LaurentMatrix.from_coeffs([np.eye(2)], 1)
        s = lp_add(a, b)
        assert s.min_lag == -1 and s.max_lag == 1
        assert np.allclose(s.coefficient(0), 0.0)
        assert np.allclose(s.coefficient(-1), np.eye(2))
        assert np.allclose(s.coefficient(1), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            lp_add(LaurentMatrix.zero(2, 2), LaurentMatrix.zero(2, 3))


class TestMul:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="cannot multiply 2x2 by 3x3"):
            lp_mul(LaurentMatrix.zero(2, 2), LaurentMatrix.zero(3, 3))

    def test_scalar_factor_product(self):
        # (1 - b_minus/z) * (b0 (1 - b_plus z)): coefficients from expanding
        # the product by hand.
        b_minus, b_plus, b0 = 0.4, -0.3, 1.7
        a = scalar([-b_minus, 1.0], -1)
        b = scalar([b0, -b0 * b_plus])
        p = lp_mul(a, b)
        assert p.coefficient(-1) == pytest.approx(-b_minus * b0)
        assert p.coefficient(0) == pytest.approx(b0 * (1 + b_minus * b_plus))
        assert p.coefficient(1) == pytest.approx(-b0 * b_plus)

    def test_identity(self):
        rng = np.random.default_rng(1)
        a = LaurentMatrix.from_coeffs(rng.standard_normal((4, 3, 2)), -2)
        assert allclose(lp_mul(identity(3), a), a)

    def test_against_naive_convolution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = LaurentMatrix.from_coeffs(rng.standard_normal((3, 2, 3)), rng.integers(-2, 1))
            b = LaurentMatrix.from_coeffs(rng.standard_normal((4, 3, 2)), rng.integers(-1, 2))
            assert allclose(lp_mul(a, b), naive_convolution(a, b), atol=1e-12)

    def test_row_times_column(self):
        # (1, z) @ (1/z, 1)' = 1/z + z
        row = LaurentMatrix.from_coeffs([[[1.0, 0.0]], [[0.0, 1.0]]], 0)
        col = LaurentMatrix.from_coeffs([[[1.0], [0.0]], [[0.0], [1.0]]], -1)
        p = lp_mul(row, col)
        expected = scalar([1.0, 0.0, 1.0], -1)
        assert allclose(p, expected)

    def test_associativity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = LaurentMatrix.from_coeffs(rng.standard_normal((2, 2, 2)), -1)
            b = LaurentMatrix.from_coeffs(rng.standard_normal((3, 2, 2)), 0)
            c = LaurentMatrix.from_coeffs(rng.standard_normal((2, 2, 2)), -1)
            left = lp_mul(lp_mul(a, b), c)
            right = lp_mul(a, lp_mul(b, c))
            scale = max(left.max_abs(), 1.0)
            assert allclose(left, right, atol=1e-12 * scale)

    def test_degree_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = LaurentMatrix.from_coeffs(rng.standard_normal((3, 2, 2)), -1)
            b = LaurentMatrix.from_coeffs(rng.standard_normal((2, 2, 2)), 0)
            p = lp_mul(a, b)
            assert p.max_lag <= a.max_lag + b.max_lag
            assert p.min_lag >= a.min_lag + b.min_lag
            # nonsingular trailing coefficient product: min lag is exact
            if abs(np.linalg.det(a.coefficient(a.min_lag) @ b.coefficient(b.min_lag))) > 1e-10:
                assert p.min_lag == a.min_lag + b.min_lag


def per_lag_value(a, z):
    """Scalar evaluation by a loop over lags, the oracle for batched value."""
    out = np.zeros((a.rows, a.cols), dtype=complex)
    for lag in range(a.min_lag, a.max_lag + 1):
        out += a.coefficient(lag) * complex(z) ** lag
    return out


class TestValue:
    @pytest.mark.parametrize("min_lag", [-2, 0, 1])
    def test_batched_matches_per_point(self, min_lag):
        rng = np.random.default_rng(3)
        a = LaurentMatrix.from_coeffs(rng.standard_normal((4, 3, 2)), min_lag)
        for shape in [(), (5,), (3, 4)]:
            z = (rng.uniform(0.5, 1.5, shape)
                 * np.exp(1j * rng.uniform(0, 2 * np.pi, shape)))
            got = a.value(z)
            assert got.shape == shape + (3, 2)
            want = np.array([per_lag_value(a, w) for w in np.ravel(z)]).reshape(got.shape)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_scalar_point_gives_matrix(self):
        a = scalar([2.0, 1.0, 3.0], -1)
        assert a.value(2.0).shape == (1, 1)
        assert a.value(2.0)[0, 0] == pytest.approx(1.0 + 1.0 + 6.0)

    def test_zero_inside_array_with_negative_lags(self):
        a = scalar([2.0, 1.0], -1)
        with pytest.raises(ZeroDivisionError):
            a.value(np.array([1.0, 0.0, 1j]))
        with pytest.raises(ZeroDivisionError):
            a.value(0.0)
        # plain polynomials evaluate at the origin
        assert np.allclose(scalar([2.0, 1.0]).value(np.array([0.0, 1.0]))[:, 0, 0], [2.0, 3.0])


class TestWindow:
    @pytest.mark.parametrize("lo, hi", [(-2, 3), (-1, 1), (0, 0), (2, 5), (-6, -3), (4, 7)])
    def test_matches_per_lag_coefficients(self, rng, lo, hi):
        # stored lags -1..2: windows inside, overlapping and outside that range
        a = LaurentMatrix.from_coeffs(rng.standard_normal((4, 2, 3)), -1)
        w = a.window(lo, hi)
        assert w.shape == (hi - lo + 1, 2, 3)
        assert np.array_equal(w, np.array([a.coefficient(k) for k in range(lo, hi + 1)]))
        w[:] = 1.0  # a fresh array: the matrix itself is untouched
        assert a.coefficient(0).tolist() != np.ones((2, 3)).tolist()


class TestTrimmedConstruction:
    """The paths that skip a second check or trim build what from_coeffs builds."""

    @staticmethod
    def dusty(rng):
        c = rng.standard_normal((5, 2, 3))
        c[0], c[-1] = 1e-14, 0.0        # dust at the lowest lag, a zero top lag
        c[2, 1, 1] = -3e-13             # dust inside
        return c

    def test_trimmed_is_its_own_trimmed_form(self, rng):
        a = LaurentMatrix(self.dusty(rng), -2)
        t = a.trimmed()
        assert t.trimmed() is t and LaurentMatrix.from_coeffs(a.coeffs, -2).trimmed() is not t
        assert (t.min_lag, t.max_lag) == (-1, 1) and t.coeffs[1, 1, 1] == 0.0
        assert not t.coeffs.flags.writeable

    def test_from_trimmed_matches_from_coeffs(self, rng):
        for c in (self.dusty(rng), np.zeros((3, 2, 2)), 1e-13 * np.ones((2, 1, 1))):
            dust_free = trim_dust(c[None])[0]
            want = LaurentMatrix.from_coeffs(c)
            got = LaurentMatrix.from_trimmed(dust_free)
            assert (got.min_lag, got.coeffs.tolist()) == (want.min_lag, want.coeffs.tolist())

    def test_from_coeffs_still_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            LaurentMatrix.from_coeffs([[[1.0]], [[np.nan]]])
        with pytest.raises(ValueError, match="n_lags >= 1"):
            LaurentMatrix.from_coeffs(np.zeros((0, 2, 2)))

    def test_from_coeffs_needs_matrices(self):
        with pytest.raises(ValueError, match="same shape"):
            LaurentMatrix.from_coeffs([])


class TestDetAndZeros:
    def test_needs_a_square_matrix(self):
        with pytest.raises(ShapeMismatchError, match="square"):
            lp_det_and_zeros(LaurentMatrix.zero(2, 3))

    def test_scalar_linear_factor(self):
        b0, b_plus = 2.0, 0.4
        a = scalar([b0, -b0 * b_plus])
        zeros = lp_det_and_zeros(a)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(1 / b_plus)

    def test_identity_has_no_zeros(self):
        zeros = lp_det_and_zeros(identity(2))
        assert zeros.size == 0

    def test_quadratic_vieta(self):
        # z * (theta1/z - s + z) = theta1 - s z + z^2; the zeros multiply to
        # theta1 and sum to s (quadratic-formula oracle).
        theta1, s = 0.9, 2.6
        a = scalar([theta1, -s, 1.0], -1)
        zeros = lp_det_and_zeros(a)
        assert np.prod(zeros).real == pytest.approx(theta1)
        assert np.sum(zeros).real == pytest.approx(s)
        disc = np.sqrt(s * s - 4 * theta1)
        expected = sorted([(s - disc) / 2, (s + disc) / 2])
        assert sorted(z.real for z in zeros) == pytest.approx(expected)

    def test_matrix_zero_split(self):
        rng = np.random.default_rng(5)
        s1 = 0.5 * rng.standard_normal((2, 2))
        u1 = 0.4 * rng.standard_normal((2, 2))
        left = LaurentMatrix.from_coeffs([-s1, np.eye(2)], -1)
        right = LaurentMatrix.from_coeffs([np.eye(2), -u1], 0)
        zeros = lp_det_and_zeros(lp_mul(left, right))
        expected = np.concatenate([np.linalg.eigvals(s1), 1.0 / np.linalg.eigvals(u1)])
        assert sorted(np.round(zeros, 8)) == pytest.approx(sorted(np.round(expected, 8)), abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_unimodular_has_no_zeros(self, seed):
        # I + z Q N Q' with N nilpotent has det identically 1; its singular
        # lead gives Jordan chains at infinity, which must not turn into huge
        # finite zeros.  Chains of length 2, 3 and 4 (two length-2 factors).
        rng = np.random.default_rng(seed)

        def factor(n):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            return LaurentMatrix.from_coeffs([np.eye(n), q @ np.eye(n, k=1) @ q.T], 0)

        cases = [factor(2), factor(3), lp_mul(factor(2), factor(2))]
        for b in cases:
            assert lp_det_and_zeros(b).size == 0
            assert wh_factorize(b).zeros.size == 0     # raises unless EU holds

    def test_identically_zero_det(self):
        cases = [
            LaurentMatrix.from_coeffs([np.array([[1.0, 1.0], [1.0, 1.0]])], 0),
            # u(z) v(z)' with linear 2x1 u and 1x2 v: rank 1 at every z
            lp_mul(LaurentMatrix.from_coeffs([[[1.0], [2.0]], [[0.5], [-1.0]]], 0),
                   LaurentMatrix.from_coeffs([[[1.0, -1.0]], [[0.3, 2.0]]], 0)),
        ]
        for a in cases:
            with pytest.raises(SingularMatrixError):
                lp_det_and_zeros(a)
            with pytest.raises(ZerosOnUnitCircle):
                wh_factorize(a)


class TestInverseSeries:
    def test_geometric_series(self):
        b_plus = 0.37
        inv = lp_truncated_inverse_series(scalar([1.0, -b_plus]), 3)
        assert [c[0, 0] for c in inv] == pytest.approx([1, b_plus, b_plus**2, b_plus**3])

    def test_identity(self):
        inv = lp_truncated_inverse_series(identity(2), 4)
        assert np.allclose(inv[0], np.eye(2))
        for c in inv[1:]:
            assert np.allclose(c, 0.0)

    def test_multiply_back(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = LaurentMatrix.from_coeffs(
                np.concatenate([[np.eye(3) + 0.1 * rng.standard_normal((3, 3))],
                                0.3 * rng.standard_normal((2, 3, 3))]), 0)
            h = 7
            inv = lp_truncated_inverse_series(g, h)
            conv = [sum(g.coefficient(i) @ inv[j - i] for i in range(0, j + 1)) for j in range(h + 1)]
            assert np.allclose(conv[0], np.eye(3), atol=1e-12)
            for c in conv[1:]:
                assert np.allclose(c, 0.0, atol=1e-12)

    def test_negative_power_expansion(self):
        # series inverse of 1 - f/z is 1 + f/z + f^2/z^2 + ...
        f = 0.6
        inv = lp_truncated_inverse_series(scalar([-f, 1.0], -1), 3)
        assert [c[0, 0] for c in inv] == pytest.approx([1, f, f**2, f**3])

    def test_singular_leading_coefficient(self):
        # series_divide gives a singular g_0 NaN coefficients instead of raising
        a = LaurentMatrix.from_coeffs([np.zeros((2, 2)), np.eye(2)], 0, trim=False)
        assert np.isnan(lp_truncated_inverse_series(a, 2)).all()


def long_division_oracle(g, rhs, horizon):
    """Per-coefficient long division of rhs by a list g of coefficients in z."""
    g0_inv = np.linalg.inv(g[0])
    out = []
    for j in range(horizon + 1):
        acc = np.array(rhs[j]) if j < len(rhs) else np.zeros_like(rhs[0])
        for i in range(1, min(len(g) - 1, j) + 1):
            acc = acc - g[i] @ out[j - i]
        out.append(g0_inv @ acc)
    return np.array(out)


class TestSeriesDivide:
    def random_poly(self, rng, n, degree):
        return [np.eye(n) + 0.2 * rng.standard_normal((n, n))] + \
            [0.3 * rng.standard_normal((n, n)) for _ in range(degree)]

    def test_inverse_in_z(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = self.random_poly(rng, 3, 2)
            want = long_division_oracle(g, [np.eye(3)], 9)
            got = lp_truncated_inverse_series(LaurentMatrix.from_coeffs(g, 0), 9)
            assert np.allclose(got, want, rtol=0, atol=1e-13)

    def test_inverse_in_one_over_z(self):
        # a(z) = sum_i g_i z^-i: its inverse series in 1/z has the
        # coefficients of the inverse of sum_i g_i w^i
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = self.random_poly(rng, 2, 3)
            a = LaurentMatrix.from_coeffs(g[::-1], -3)
            want = long_division_oracle(g, [np.eye(2)], 8)
            assert np.allclose(lp_truncated_inverse_series(a, 8), want, rtol=0, atol=1e-13)

    def test_rectangular_right_hand_side(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g = self.random_poly(rng, 3, 2)
            rhs = [rng.standard_normal((3, 2)) for _ in range(3)]
            want = long_division_oracle(g, rhs, 10)
            b_plus = LaurentMatrix.from_coeffs(g, 0)
            ma = LaurentMatrix.from_coeffs(rhs, 0)
            got = lp_series_divide(b_plus, ma, 10)
            assert got.shape == (11, 3, 2)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert np.allclose(transfer_series(b_plus, ma, 10).coeffs, want, rtol=0, atol=1e-12)
            # multiplying back recovers the right-hand side
            back = lp_mul(b_plus, LaurentMatrix.from_coeffs(got, 0, trim=False))
            for j in range(11):
                target = rhs[j] if j < 3 else np.zeros((3, 2))
                assert np.allclose(back.coefficient(j), target, atol=1e-12)


class TestModel:
    def test_infers_bounds(self):
        B = scalar([1 / 3, 1.0, 0.5], -1)
        A = scalar([1.0, 0.5])
        mod = Model(B, A)
        assert (mod.n, mod.m, mod.lam, mod.kappa) == (1, 1, 1, 1)

    def test_declared_bounds_override(self):
        mod = Model(scalar([1.0]), scalar([1.0]), lam=1, kappa=1)
        assert (mod.lam, mod.kappa) == (1, 1)

    def test_rejects_negative_lag_A(self):
        with pytest.raises(ValueError):
            Model(scalar([1.0]), scalar([1.0, 1.0], -1))

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            Model(scalar([1 / 3, 1.0, 0.5], -1), scalar([1.0]), lam=0)

    @pytest.mark.parametrize("A, kappa, message", [
        (np.ones((1, 3, 1)), -1, "same number of rows"),
        (np.ones((1, 2, 0)), -1, "at least 1"),
        (np.ones((2, 2, 1)), 0, "A max lag 1 exceeds declared kappa=0"),
    ])
    def test_rejects_an_inconsistent_A(self, A, kappa, message):
        with pytest.raises(ValueError, match=message):
            Model(LaurentMatrix.from_coeffs([np.eye(2)]), LaurentMatrix.from_coeffs(A, trim=False),
                  kappa=kappa)

    def test_rejects_nonsquare_B(self):
        B = LaurentMatrix.from_coeffs([np.ones((2, 3))], 0)
        with pytest.raises(ShapeMismatchError):
            Model(B, LaurentMatrix.from_coeffs([np.ones((2, 1))], 0))
