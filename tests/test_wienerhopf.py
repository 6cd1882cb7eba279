import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_valid_model, match_zero_multisets, random_b_minus, random_b_plus
from ratex.polylab import (
    PENCIL_INFINITE_RTOL,
    LaurentMatrix,
    Model,
    companion_stack,
    lp_det_and_zeros,
    lp_mul,
    trim_dust,
)
from ratex.resolve import solve_model
from ratex.wienerhopf import (
    FactorizationError,
    ToleranceConfig,
    WHFactors,
    WrongStableCount,
    ZerosOnUnitCircle,
    _classify_zeros,
    _screen_counts,
    check_eu,
    wh_factorize,
    wh_factorize_stack,
)


def scalar(coeffs, min_lag=0):
    return LaurentMatrix.from_coeffs([[[c]] for c in coeffs], min_lag)


def scalar_oracle_example():
    """Closed form for B = 1/3 z^-1 + 1 + 1/2 z.

    Writing B = (1 - b_minus/z) * b0 (1 - b_plus z) and matching
    coefficients gives 6 b0^2 - 6 b0 + 1 = 0; the root keeping both factor
    zeros off the closed/open disks is b0 = (3 + sqrt(3)) / 6, then
    b_minus = -(1/3)/b0 and b_plus = -(1/2)/b0.
    """
    b0 = (3 + np.sqrt(3)) / 6
    return b0, -(1 / 3) / b0, -(1 / 2) / b0


class TestScalarExamples:
    def test_example_mixed_lags(self):
        b0, bm, bp = scalar_oracle_example()
        fac = wh_factorize(scalar([1 / 3, 1.0, 0.5], -1))
        assert fac.b_minus.coefficient(-1)[0, 0] == pytest.approx(-bm, abs=1e-8)
        assert fac.b_plus.coefficient(0)[0, 0] == pytest.approx(b0, abs=1e-8)
        assert fac.b_plus.coefficient(1)[0, 0] == pytest.approx(-b0 * bp, abs=1e-8)
        assert fac.residual <= 1e-10 * fac.scale
        assert abs(bm) < 1 and abs(bp) < 1

    def test_polynomial_input_passthrough(self):
        # min_lag = 0 with no disk zeros: B_minus = I exactly, B_plus = B
        B = scalar([1.0, 0.4])
        fac = wh_factorize(B)
        assert fac.b_minus.coefficient(0) == pytest.approx(np.eye(1))
        assert fac.b_minus.min_lag == 0 and fac.b_minus.max_lag == 0
        assert fac.b_plus.allclose(B)
        assert fac.residual == 0.0

    def test_quadratic_root_oracle(self):
        # z B(z) = z^2 - 2.5 z + 1 has roots 0.5 and 2, so B_minus = 1 - 0.5/z
        # and B_plus = B / B_minus = z - 2.
        fac = wh_factorize(scalar([1.0, -2.5, 1.0], -1))
        assert fac.b_minus.coefficient(-1)[0, 0] == pytest.approx(-0.5, abs=1e-10)
        assert fac.b_plus.coefficient(0)[0, 0] == pytest.approx(-2.0, abs=1e-10)
        assert fac.b_plus.coefficient(1)[0, 0] == pytest.approx(1.0, abs=1e-10)


class TestFailures:
    def test_zero_on_unit_circle(self):
        with pytest.raises(ZerosOnUnitCircle):
            wh_factorize(scalar([1.0, -1.0]))

    def test_wrong_stable_count(self):
        # both zeros of z^2 - 0.3 z + 0.02 are inside the circle but lam = 1
        with pytest.raises(WrongStableCount):
            wh_factorize(scalar([0.02, -0.3, 1.0], -1))

    def test_polynomial_with_inside_zero(self):
        with pytest.raises(WrongStableCount):
            wh_factorize(scalar([1.0, -2.0]))  # zero at 0.5, lam = 0

    def test_near_circle_band_is_error(self):
        tol = ToleranceConfig(boundary=1e-6)
        with pytest.raises(ZerosOnUnitCircle):
            wh_factorize(scalar([1.0, -(1.0 + 1e-8)]), tol)

    def test_nonzero_partial_indices(self):
        # diag(z, 1/z): the stable zero count looks right (both at 0) but no
        # normalized factorization exists; the subspace block is singular
        from ratex.wienerhopf import DivisorExtractionSingular
        coeffs = [np.diag([0.0, 1.0]), np.zeros((2, 2)), np.diag([1.0, 0.0])]
        B = LaurentMatrix.from_coeffs(coeffs, -1)
        with pytest.raises(DivisorExtractionSingular):
            wh_factorize(B)

    def test_coupled_shift_pair_factors(self):
        # [[z, 1], [0, 1/z]] has determinant 1 and a nilpotent exact
        # factorization: B_minus = I + e21/z, B_plus = [[z, 1], [-1, 0]]
        coeffs = [np.array([[0.0, 0.0], [0.0, 1.0]]),
                  np.array([[0.0, 1.0], [0.0, 0.0]]),
                  np.array([[1.0, 0.0], [0.0, 0.0]])]
        B = LaurentMatrix.from_coeffs(coeffs, -1)
        fac = wh_factorize(B)
        assert fac.residual <= 1e-12
        assert np.allclose(fac.b_minus.coefficient(-1), [[0.0, 0.0], [1.0, 0.0]], atol=1e-10)
        assert lp_mul(fac.b_minus, fac.b_plus).allclose(B, atol=1e-12)

    def test_positive_min_lag_fails(self):
        # B = z I has its zeros at the origin with lam = 0 declared
        with pytest.raises(WrongStableCount):
            wh_factorize(scalar([0.0, 1.0]))

    def test_positive_min_lag_counts_every_origin_zero(self, rng):
        # det(z^2 B_plus(z)) = z^4 det B_plus(z) for n = 2: four zeros at the
        # origin lie inside the circle, and B_plus contributes none
        B = random_b_plus(rng, 2, 1).shifted(2)
        with pytest.raises(WrongStableCount, match=r"found 4 zero\(s\) inside"):
            wh_factorize(B)


class TestProperties:
    def test_uniqueness_recovers_random_factors(self, rng):
        for n, lam, kappa in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 2), (2, 0, 2)]:
            for _ in range(6):
                bm = random_b_minus(rng, n, lam)
                bp = random_b_plus(rng, n, kappa)
                fac = wh_factorize(lp_mul(bm, bp))
                scale = max(bm.max_abs(), bp.max_abs())
                assert fac.b_minus.allclose(bm, atol=1e-6 * scale)
                assert fac.b_plus.allclose(bp, atol=1e-6 * scale)

    def test_reconstruction_residual(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            lam = int(rng.integers(0, 3))
            kappa = int(rng.integers(0, 3))
            model, *_ = make_valid_model(rng, n=n, m=n, lam=lam, kappa=kappa)
            fac = wh_factorize(model.B)
            recon = lp_mul(fac.b_minus, fac.b_plus)
            assert recon.allclose(model.B, atol=1e-8 * fac.scale)

    def test_zero_split(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            lam = int(rng.integers(1, 3))
            kappa = int(rng.integers(1, 3))
            model, *_ = make_valid_model(rng, n=n, m=n, lam=lam, kappa=kappa)
            fac = wh_factorize(model.B)
            zb = lp_det_and_zeros(model.B)
            zm = lp_det_and_zeros(fac.b_minus)
            zp = lp_det_and_zeros(fac.b_plus)
            assert match_zero_multisets(zb, np.concatenate([zm, zp]), tol=1e-6)
            assert np.all(np.abs(zm) < 1) and np.all(np.abs(zp) > 1)

    def test_unimodular_right_factor(self, rng):
        # B = B_minus B_plus (I + z Q N Q') with N nilpotent: the last factor
        # has det 1 but gives B a singular lead with a Jordan chain at
        # infinity, which must not add huge spurious zeros; B_minus and the
        # zeros of B_minus and B_plus are all that remain.
        n = 3
        for _ in range(4):
            bm = random_b_minus(rng, n, 1)
            bp = random_b_plus(rng, n, 1)
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            u = LaurentMatrix.from_coeffs([np.eye(n), q @ np.eye(n, k=1) @ q.T], 0)
            fac = wh_factorize(lp_mul(bm, lp_mul(bp, u)))
            assert fac.b_minus.allclose(bm, atol=1e-6 * max(bm.max_abs(), 1.0))
            expected = np.concatenate([lp_det_and_zeros(bm), lp_det_and_zeros(bp)])
            assert match_zero_multisets(fac.zeros, expected, tol=1e-6)

    def test_varma_degenerate_b_minus_exact_identity(self, rng):
        for _ in range(5):
            bp = random_b_plus(rng, 2, 2)
            fac = wh_factorize(bp)
            assert fac.b_minus.min_lag == 0 and fac.b_minus.max_lag == 0
            assert np.array_equal(fac.b_minus.coefficient(0), np.eye(2))

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            WHFactors(b_minus=LaurentMatrix.constant([[2.0]]),
                      b_plus=LaurentMatrix.constant([[1.0]]), residual=0.0)

    def test_deterministic(self):
        B = scalar([1 / 3, 1.0, 0.5], -1)
        a = wh_factorize(B)
        b = wh_factorize(B)
        assert np.array_equal(a.b_minus.coeffs, b.b_minus.coeffs)
        assert np.array_equal(a.b_plus.coeffs, b.b_plus.coeffs)


class TestCheckEU:
    def test_trivial_scalar(self):
        holds, diag = check_eu(scalar([1.0]))
        assert holds and diag.stable_count == 0

    def test_unit_circle_zero(self):
        holds, diag = check_eu(scalar([1.0, -1.0]))
        assert not holds
        assert diag.boundary_count >= 1 or "circle" in diag.reason

    def test_hansen_sargent_point(self):
        # theta = (1, -2, -1): theta3/theta2 = 0.5, so B = 1/z - 2.5 + z
        holds, diag = check_eu(scalar([1.0, -2.5, 1.0], -1))
        assert holds
        assert diag.stable_count == 1 and diag.expected_stable == 1
        stable = [z for z in diag.zeros if abs(z) < 1]
        assert stable[0].real == pytest.approx(0.5, abs=1e-10)

    def test_origin_zeros_counted(self):
        holds, diag = check_eu(LaurentMatrix.from_coeffs([np.eye(2)], 1))
        assert not holds
        assert diag.stable_count == 2 and diag.expected_stable == 0
        assert np.sum(diag.zeros == 0) == 2
        assert "inside the unit circle" in diag.reason

    @pytest.mark.parametrize("seed", range(6))
    def test_high_degree_zero_count(self, seed):
        # B = B_minus B_plus with n = 8 and lam = kappa = 5, built from
        # factors I - S/z and I - z S with S = Q diag(s) Q': det(z^5 B) has
        # degree 80, with the 40 s of B_minus inside the circle and the 40
        # 1/s of B_plus outside (|s| in [0.72, 0.97], all distinct)
        n, lam, kappa = 8, 5, 5
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 1.0, n * (lam + kappa))
        s = rng.permutation(0.97 * np.exp(-0.3 * t) * rng.choice([-1.0, 1.0], t.size))
        s = s.reshape(lam + kappa, n)

        def sym(v):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            return q @ np.diag(v) @ q.T

        B = LaurentMatrix.identity(n)
        for v in s[:lam]:
            B = lp_mul(B, LaurentMatrix.from_coeffs([-sym(v), np.eye(n)], -1))
        for v in s[lam:]:
            B = lp_mul(B, LaurentMatrix.from_coeffs([np.eye(n), -sym(v)], 0))
        fac = wh_factorize(B)
        assert fac.residual <= 1e-8 * fac.scale
        holds, diag = check_eu(B)
        assert holds
        assert diag.stable_count == n * lam == 40
        expected = np.concatenate([s[:lam].ravel(), 1.0 / s[lam:].ravel()])
        assert match_zero_multisets(diag.zeros, expected, tol=1e-4)

    def test_declared_lam_with_zero_lead_not_double_counted(self, rng):
        # lam = 1 declared but B_{-1} = 0: det(z B_plus(z)) has n zeros at the
        # origin against n * lam = n expected (after trimming: none against
        # none), so the origin must not be counted twice and EU holds
        bp = random_b_plus(rng, 2, 1)
        padded = LaurentMatrix.from_coeffs(
            [np.zeros((2, 2))] + list(bp.coeffs), -1, trim=False)
        holds, diag = check_eu(padded)
        assert holds
        assert diag.stable_count == diag.expected_stable
        bundle = solve_model(Model(padded, LaurentMatrix.identity(2), lam=1, kappa=1))
        assert bundle.factors.b_minus.allclose(LaurentMatrix.identity(2))
        assert bundle.factors.b_plus.allclose(bp)


def near_band_stack(rng, lam, lead_margin, zero_kinds):
    """B (1, lam + 2, 2, 2) at lags -lam..1 with the 2 * (lam + 1) zeros of
    det(z^lam B) picked by ``zero_kinds`` and a lead B_1 whose sigma_min,
    after the companion pencil's power-of-two scaling, is ``lead_margin``
    times PENCIL_INFINITE_RTOL."""
    boundary = ToleranceConfig().boundary
    moduli = {"out": 1 + 10 * boundary, "in": 1 - 10 * boundary, "deep": 0.5, "far": 2.0}
    poly = [np.eye(2)]                               # ascending coefficients
    for pair in np.reshape(zero_kinds, (-1, 2)):
        s = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        x = s @ np.diag([moduli[k] * rng.choice([-1.0, 1.0]) for k in pair]) @ np.linalg.inv(s)
        factor = [-x, np.eye(2)]                     # z I - X
        poly = [sum(poly[i] @ factor[k - i] for i in range(len(poly)) if 0 <= k - i < 2)
                for k in range(len(poly) + 1)]
    q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    e = 0
    for _ in range(3):          # the scaling exponent of the product settles
        lead = q1 @ np.diag([1.0, lead_margin * PENCIL_INFINITE_RTOL * 2.0 ** e]) @ q2
        Bc = np.array([lead @ c for c in poly])
        e = np.frexp(np.abs(Bc).max())[1]
    return trim_dust(Bc[None])[0]


class TestStackedScreen:
    """The eigenvalue screen of wh_factorize_stack against the pencil path."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 20), lam=st.sampled_from([0, 1]),
           lead_margin=st.sampled_from([1.01, 1.5, 3.0, 10.0, 1e3, 1e6]),
           kinds=st.lists(st.sampled_from(["out", "in", "deep", "far"]), min_size=4, max_size=4))
    def test_near_band_counts_match_pencil(self, seed, lam, lead_margin, kinds):
        Bc = near_band_stack(np.random.default_rng(seed), lam, lead_margin, kinds[:2 * (lam + 1)])
        tol = ToleranceConfig()
        A, E = companion_stack(Bc.swapaxes(2, 3))
        stable, on_band, _, decided = _screen_counts(A, E, tol.boundary)
        try:
            zeros, want = wh_factorize(LaurentMatrix(Bc[0], -lam)).zeros, None
        except FactorizationError as exc:
            zeros, want = exc.zeros, type(exc)
        except ValueError:      # scipy's ordqz could not reorder: no reference counts
            assume(False)
        if decided[0]:
            assert (stable[0], on_band[0]) == _classify_zeros(zeros, tol.boundary)
        got = wh_factorize_stack(Bc, lam)[2][0]
        assert type(got) is want if want else got is None

    def test_well_conditioned_near_band_is_screened(self):
        rng = np.random.default_rng(3)
        for kinds in (["out", "in"], ["in", "in"], ["out", "far"]):
            Bc = near_band_stack(rng, 0, 1e6, kinds)
            assert _screen_counts(*companion_stack(Bc.swapaxes(2, 3)), 1e-9)[3][0]
