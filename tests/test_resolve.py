import numpy as np
import pytest

from conftest import make_valid_model
from oracles import (
    allclose,
    autocovariances_from_spectrum,
    identity,
    lp_truncated_inverse_series,
    ma_path_by_lag,
    plus_part,
    plus_part_of_bminus_inv_a,
    sample_autocovariances,
    transfer_series,
)
from ratex.polylab import (
    LaurentMatrix,
    Model,
    SingularMatrixError,
    lp_mul,
)
from ratex import resolve
from ratex.resolve import (
    NotInvertible,
    RankDeficientC0,
    a_plus,
    canonical_rotation,
    cf_check_and_normalize,
    is_canonical_staircase,
    simulate,
    solve_model,
    solve_models,
    solve_stack,
    spectral_density,
    spectral_distance,
    unit_circle_grid,
)
from ratex.wienerhopf import ZerosOnUnitCircle, wh_factorize


def scalar(coeffs, min_lag=0):
    return LaurentMatrix.from_coeffs([[[c]] for c in coeffs], min_lag)


def scalar_instance(rng):
    """Random parameters of the one-lead one-lag scalar family with its
    closed-form solution pieces."""
    b_minus = rng.uniform(-0.9, 0.9)
    b_plus = rng.uniform(-0.9, 0.9)
    b0 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    a0, a1 = rng.uniform(-2, 2, 2)
    B = scalar([-b_minus * b0, b0 * (1 + b_minus * b_plus), -b0 * b_plus], -1)
    A = scalar([a0, a1])
    return B, A, b_minus, b_plus, b0, a0, a1


class TestMaPart:
    def test_scalar_closed_form(self, rng):
        # [B_minus^-1 A]_+ = a1 b_- + a0 + a1 z for B_minus = 1 - b_- / z
        for _ in range(20):
            bm = rng.uniform(-0.9, 0.9)
            a0, a1 = rng.uniform(-2, 2, 2)
            ma = plus_part_of_bminus_inv_a(scalar([-bm, 1.0], -1), scalar([a0, a1]))
            assert ma.coefficient(0)[0, 0] == pytest.approx(a1 * bm + a0, abs=1e-12)
            assert ma.coefficient(1)[0, 0] == pytest.approx(a1, abs=1e-12)
            assert ma.min_lag >= 0

    def test_identity_b_minus(self, rng):
        A = LaurentMatrix.from_coeffs(rng.standard_normal((3, 2, 2)), 0)
        ma = plus_part_of_bminus_inv_a(identity(2), A)
        assert allclose(ma, A)

    def test_against_long_series_truncation(self, rng):
        # high-horizon Laurent expansion of B_minus^-1 A, keep lags >= 0
        for _ in range(10):
            n = 2
            from conftest import random_b_minus
            bm = random_b_minus(rng, n, 2)
            A = LaurentMatrix.from_coeffs(rng.standard_normal((3, n, n)), 0)
            ma = plus_part_of_bminus_inv_a(bm, A)
            h = 60
            f = lp_truncated_inverse_series(bm, h)
            full = [sum(f[i] @ A.coefficient(k + i) for i in range(h - k + 1))
                    for k in range(A.max_lag + 1)]
            expect = LaurentMatrix.from_coeffs(full, 0)
            assert allclose(ma, expect, atol=1e-10)


class TestAPlus:
    def test_scalar_closed_form(self, rng):
        # A_plus = (-a1 b_-^2 - a0 b_-) / z + a0 + a1 z
        for _ in range(20):
            bm = rng.uniform(-0.9, 0.9)
            a0, a1 = rng.uniform(-2, 2, 2)
            bmin = scalar([-bm, 1.0], -1)
            ap = a_plus(bmin, plus_part_of_bminus_inv_a(bmin, scalar([a0, a1])))
            assert ap.coefficient(-1)[0, 0] == pytest.approx(-a1 * bm**2 - a0 * bm, abs=1e-12)
            assert ap.coefficient(0)[0, 0] == pytest.approx(a0, abs=1e-12)
            assert ap.coefficient(1)[0, 0] == pytest.approx(a1, abs=1e-12)

    def test_varma_case_equals_A(self, rng):
        A = LaurentMatrix.from_coeffs(rng.standard_normal((2, 2, 2)), 0)
        bm = identity(2)
        ap = a_plus(bm, plus_part_of_bminus_inv_a(bm, A))
        assert allclose(ap, A)

    def test_positive_part_recovers_A(self, rng):
        for _ in range(10):
            model, bm, bp, ma = make_valid_model(rng, n=2, m=2, lam=2, kappa=1)
            ap = a_plus(bm, ma)
            assert allclose(plus_part(ap), model.A, atol=1e-10)


class TestTransferSeries:
    def test_trivial_white_noise(self):
        ts = transfer_series(scalar([1.0]), scalar([1.0]), 3)
        assert ts.coeffs[:, 0, 0] == pytest.approx([1, 0, 0, 0])

    def test_hansen_sargent_closed_form(self):
        # theta = (1, -2, -1): B = 1/z - 2.5 + z, A = -0.5; with rho2 = 2 the
        # coefficients are C_j = -1 / (theta2 rho2**(j+1))
        theta2, rho2 = -2.0, 2.0
        model = Model(scalar([1.0, -2.5, 1.0], -1), scalar([1 / theta2]), lam=1, kappa=1)
        bundle = solve_model(model, horizon=8)
        expect = [-1.0 / (theta2 * rho2 ** (j + 1)) for j in range(9)]
        assert bundle.transfer.coeffs[:, 0, 0] == pytest.approx(expect, abs=1e-12)

    def test_scalar_geometric_recursion(self, rng):
        for _ in range(10):
            B, A, bm, bp, b0, a0, a1 = scalar_instance(rng)
            bundle = solve_model(Model(B, A), horizon=10)
            c = bundle.transfer.coeffs[:, 0, 0]
            c0 = (a1 * bm + a0) / b0
            assert c[0] == pytest.approx(c0, abs=1e-10)
            assert c[1] == pytest.approx(bp * c0 + a1 / b0, abs=1e-10)
            for j in range(2, 11):
                assert c[j] == pytest.approx(bp * c[j - 1], abs=1e-10)

    def test_two_expressions_agree(self, rng):
        # B_plus^-1 [B_minus^-1 A]_+ and B^-1 A_plus give the same series
        for _ in range(10):
            n = int(rng.integers(1, 3))
            lam = int(rng.integers(0, 3))
            kappa = int(rng.integers(0, 3))
            model, *_ = make_valid_model(rng, n=n, m=n, lam=lam, kappa=kappa)
            bundle = solve_model(model, horizon=12)
            # route 2: expand B^-1 A_plus directly around the unit circle is
            # not one-sided, so divide A_plus shifted into polynomial form:
            # z^lam B(z) C(z) = z^lam A_plus(z) as power series
            lhs = lp_mul(model.B, LaurentMatrix.from_coeffs(bundle.transfer.coeffs, 0))
            for lag in range(0, 13 - model.kappa - model.lam):
                assert np.allclose(lhs.coefficient(lag), bundle.a_plus.coefficient(lag),
                                   atol=1e-10 * max(1.0, bundle.a_plus.max_abs()))


class TestLemma31Suite:
    def test_degree_identities(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, n + 1))
            lam = int(rng.integers(0, 3))
            kappa = int(rng.integers(0, 3))
            model, *_ = make_valid_model(rng, n=n, m=m, lam=lam, kappa=kappa)
            fac = wh_factorize(model.B)
            B = model.B.trimmed()
            assert fac.b_minus.min_lag == B.min_lag if B.min_lag < 0 else fac.b_minus.min_lag == 0
            assert fac.b_plus.max_lag == B.max_lag
            ma = plus_part_of_bminus_inv_a(fac.b_minus, model.A)
            ap = a_plus(fac.b_minus, ma)
            assert ma.min_lag >= 0
            assert ma.max_lag == model.A.trimmed().max_lag
            assert ap.min_lag >= B.min_lag
            assert ap.max_lag == model.A.trimmed().max_lag
            assert allclose(plus_part(ap), model.A, atol=1e-9 * max(1.0, ap.max_abs()))


class TestCanonicalForm:
    def test_lower_triangular_positive_diag_is_canonical(self):
        c0 = np.array([[2.0, 0.0], [1.0, 3.0]])
        assert is_canonical_staircase(c0)
        assert np.array_equal(canonical_rotation(c0), np.eye(2))

    def test_scalar_sign_flip(self):
        v = canonical_rotation(np.array([[-1.0]]))
        assert v[0, 0] == pytest.approx(-1.0)

    def test_random_rotation_structure(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            c0 = rng.standard_normal((n, m))
            v = canonical_rotation(c0)
            assert np.allclose(v.T @ v, np.eye(m), atol=1e-12)
            assert is_canonical_staircase(c0 @ v)

    def test_wide_staircase(self):
        # column 1 pivots in row 2: still canonical when rows increase
        c0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
        assert is_canonical_staircase(c0)
        c0_bad = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        assert not is_canonical_staircase(c0_bad)

    def test_rank_deficient_c0(self, rng):
        model, *_ = make_valid_model(rng, n=2, m=2, lam=0, kappa=1)
        # zero out A so C0 = 0
        bad = Model(model.B, LaurentMatrix.zero(2, 2), lam=model.lam, kappa=model.kappa)
        bundle = solve_model(bad)
        with pytest.raises(RankDeficientC0):
            cf_check_and_normalize(bundle)

    def test_rotation_needs_full_column_rank(self):
        with pytest.raises(RankDeficientC0, match=r"rank\(C0\) = 1 < m = 2"):
            canonical_rotation(np.array([[0.0, 1.0], [0.0, 2.0]]))

    def test_not_invertible_detected(self):
        # ma part 1 - 2z has a zero at 0.5 inside the disk
        model = Model(scalar([1.0]), scalar([1.0, -2.0]), lam=0, kappa=1)
        bundle = solve_model(model)
        with pytest.raises(NotInvertible):
            cf_check_and_normalize(bundle)

    def test_rotation_preserves_spectral_density(self, rng):
        for _ in range(5):
            model, *_ = make_valid_model(rng, n=2, m=2, lam=1, kappa=1, canonical=False)
            bundle = solve_model(model)
            v, rotated = cf_check_and_normalize(bundle)
            grid = unit_circle_grid(32)
            fa = spectral_density(bundle.model, bundle.a_plus, grid)
            fb = spectral_density(rotated.model, rotated.a_plus, grid)
            for x, y in zip(fa, fb):
                assert np.allclose(x, y, atol=1e-10 * max(1.0, np.abs(x).max()))
            assert rotated.c0_canonical

    def test_tall_system_invertibility_paths(self, rng):
        model, *_ = make_valid_model(rng, n=3, m=2, lam=1, kappa=1)
        bundle = solve_model(model)
        v, rotated = cf_check_and_normalize(bundle)
        assert is_canonical_staircase(rotated.transfer.coeffs[0])

    def test_unit_circle_ma_zero_is_warning_not_error(self):
        # 1 + z loses rank exactly on the circle: boundary case, reported
        model = Model(scalar([1.0]), scalar([1.0, 1.0]), lam=0, kappa=1)
        bundle = solve_model(model)
        v, checked = cf_check_and_normalize(bundle)
        assert checked.warnings
        assert np.array_equal(v, np.eye(1))

    def test_wide_unit_circle_drop_warned_once(self):
        # (1 + z) [1, 0.5, 0.25]' drops rank only at z = -1: one warning,
        # however many maximal minors vanish there
        col = np.array([[1.0], [0.5], [0.25]])
        model = Model(identity(3), LaurentMatrix.from_coeffs([col, col], 0),
                      lam=0, kappa=1)
        _, checked = cf_check_and_normalize(solve_model(model))
        assert len(checked.warnings) == 1

    def test_wide_not_invertible_detected(self, rng):
        # N(z) diag(1, 1 - 2.5 z) with N of full column rank on the disk
        # loses rank at z = 0.4
        n0 = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        n1 = 0.2 * rng.standard_normal((3, 2))
        ma = lp_mul(LaurentMatrix.from_coeffs([n0, n1], 0),
                    LaurentMatrix.from_coeffs([np.eye(2), np.diag([0.0, -2.5])], 0))
        bundle = solve_model(Model(identity(3), ma, lam=0, kappa=2))
        with pytest.raises(NotInvertible, match="0.400000"):
            cf_check_and_normalize(bundle)


class TestSpectralDensity:
    def test_white_noise_flat(self):
        model = Model(scalar([1.0]), scalar([1.0]), lam=1, kappa=1)
        bundle = solve_model(model)
        for f in spectral_density(model, bundle.a_plus, unit_circle_grid(16)):
            assert f[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_equivalent_pair_identical(self):
        grid = unit_circle_grid(64)
        m1 = Model(scalar([1.0]), scalar([1.0]), lam=1, kappa=1)
        m2 = Model(scalar([1.0, 0.5]), scalar([1.0, 0.5]), lam=1, kappa=1)
        b1, b2 = solve_model(m1), solve_model(m2)
        diff, scale = spectral_distance(b1, b2, grid)
        assert diff <= 1e-10 * scale

    def test_mixed_lag_model_flat_spectrum(self):
        grid = unit_circle_grid(64)
        m = Model(scalar([1 / 3, 1.0, 0.5], -1), scalar([1.0, 0.5]), lam=1, kappa=1)
        bundle = solve_model(m)
        for f in spectral_density(m, bundle.a_plus, grid):
            assert f[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_hermitian_psd(self, rng):
        model, *_ = make_valid_model(rng, n=2, m=2, lam=1, kappa=1)
        bundle = solve_model(model)
        for f in spectral_density(model, bundle.a_plus, unit_circle_grid(8)):
            assert np.allclose(f, f.conj().T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(f)) >= -1e-10


    def test_matches_per_point_solve(self, rng):
        grid = unit_circle_grid(24)
        for n, m, lam, kappa in [(1, 1, 1, 1), (3, 2, 1, 2), (4, 2, 2, 1)]:
            model, *_ = make_valid_model(rng, n=n, m=m, lam=lam, kappa=kappa)
            bundle = solve_model(model)
            f = spectral_density(model, bundle.a_plus, grid)
            assert f.shape == (24, n, n)
            for z, fz in zip(grid, f):
                g = np.linalg.solve(model.B.value(z), bundle.a_plus.value(z))
                want = g @ g.conj().T
                assert np.allclose(fz, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_singular_point_named(self):
        model = Model(scalar([1.0, 1.0]), scalar([1.0]), lam=0, kappa=1)
        a_plus_mat = scalar([1.0])
        with pytest.raises(SingularMatrixError, match=r"grid point z = -1\+0j"):
            spectral_density(model, a_plus_mat, np.array([1.0, 1j, -1.0, -1j]))


class TestSolveModels:
    """Several models factored in one stack per shape give each model's own
    solve_model bundle, and the first model that fails raises."""

    def test_same_bundles_as_one_by_one(self, rng):
        models = [make_valid_model(rng, n=2, m=2, lam=1, kappa=1)[0] for _ in range(2)]
        models.append(make_valid_model(rng, n=2, m=1, lam=0, kappa=2)[0])
        for model, bundle in zip(models, solve_models(models)):
            alone = solve_model(model)
            assert allclose(bundle.factors.b_minus, alone.factors.b_minus, atol=1e-13)
            assert allclose(bundle.factors.b_plus, alone.factors.b_plus, atol=1e-13)
            assert np.allclose(bundle.transfer.coeffs, alone.transfer.coeffs, atol=1e-13)

    def test_kept_inverse_series_gives_the_same_numbers(self, rng):
        # an A reaching past B's top lag makes the solve extend the series
        # the factorization kept; the numbers are those of a fresh division
        model, *_ = make_valid_model(rng, n=2, m=2, lam=1, kappa=1)
        A = lp_mul(model.A, LaurentMatrix.from_coeffs([np.eye(2), 0.4 * np.eye(2)]))
        fac = wh_factorize(model.B)
        assert fac.inv_series.shape == (2, 2, 2) and not fac.inv_series.flags.writeable
        stacks = fac.b_minus.coeffs[None], fac.b_plus.window(0, 2)[None], A.window(0, 2)[None]
        for kept, fresh in zip(solve_stack(*stacks, 8, fac.inv_series[None]),
                               solve_stack(*stacks, 8)):
            assert np.array_equal(kept, fresh)

    def test_first_failure_raises(self, rng):
        good = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)[0]
        unit_root = Model(scalar([1.0, -1.0]), scalar([1.0]))
        with pytest.raises(ZerosOnUnitCircle):
            solve_models([good, unit_root])
        with pytest.raises(ZerosOnUnitCircle):
            solve_models([unit_root, good])


class TestSimulate:
    def test_white_noise_variance(self):
        model = Model(scalar([1.0]), scalar([1.0]))
        bundle = solve_model(model)
        y = simulate(bundle, 100_000, seed=7)
        assert y.var() == pytest.approx(1.0, rel=0.05)

    def test_deterministic_given_seed(self, rng):
        model, *_ = make_valid_model(rng, n=2, m=2, lam=1, kappa=1)
        bundle = solve_model(model)
        a = simulate(bundle, 500, seed=11)
        b = simulate(bundle, 500, seed=11)
        assert np.array_equal(a, b)

    def test_sem_output_iid(self, rng):
        model, *_ = make_valid_model(rng, n=2, m=2, lam=0, kappa=0)
        bundle = solve_model(model)
        y = simulate(bundle, 50_000, seed=3)
        acf = sample_autocovariances(y, 1)
        assert np.max(np.abs(acf[1])) <= 0.05 * np.max(np.abs(acf[0]))

    # the benchmark's (n, m, lam, kappa) ladder
    LADDER = ((1, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 2), (4, 2, 2, 2), (6, 3, 1, 2), (8, 4, 1, 2))

    @pytest.mark.parametrize("dims", LADDER)
    def test_blocked_convolution_is_the_lag_loop_bitwise(self, rng, monkeypatch, dims):
        """The path of the blocked convolution, bytes and signs of zeros
        included, equals one matmul and one add per lag, on paths of one,
        several and many blocks."""
        n, m, lam, kappa = dims
        bundle = solve_model(make_valid_model(rng, n=n, m=m, lam=lam, kappa=kappa)[0])
        paths = [simulate(bundle, T, seed=3) for T in (0, 1, 200, 5000)]
        monkeypatch.setattr(resolve, "_ma_path", ma_path_by_lag)
        for T, path in zip((0, 1, 200, 5000), paths):
            assert path.tobytes() == simulate(bundle, T, seed=3).tobytes()

    def test_zero_output_row_stays_positive_zero(self, monkeypatch):
        """y_2 = 0 in every period: the blocked sum, which starts from
        zeros as the lag loop does, holds +0.0 there (printed 0, never -0),
        bitwise the loop's path."""
        B = LaurentMatrix.from_coeffs([np.eye(2), [[-0.5, 0.0], [0.0, -0.3]]], 0)
        A = LaurentMatrix.from_coeffs([[[1.0], [0.0]], [[0.4], [0.0]]], 0)
        bundle = solve_model(Model(B, A, lam=0, kappa=1))
        y = simulate(bundle, 300, seed=5)
        assert not y[:, 1].any() and not np.signbit(y[:, 1]).any()
        monkeypatch.setattr(resolve, "_ma_path", ma_path_by_lag)
        assert y.tobytes() == simulate(bundle, 300, seed=5).tobytes()

    def test_acf_matches_spectral_inverse_transform(self, rng):
        model, *_ = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)
        bundle = solve_model(model)
        gamma = autocovariances_from_spectrum(bundle, 5)
        y = simulate(bundle, 100_000, seed=5)
        acf = sample_autocovariances(y, 5)
        for h in range(6):
            se = np.sqrt(2.0 / 100_000) * abs(gamma[0][0, 0]) * 3
            assert abs(acf[h][0, 0] - gamma[h][0, 0]) <= 5 * se + 1e-12
