import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_valid_model,
    match_zero_multisets,
    near_band_stack,
    random_b_minus,
    random_b_plus,
)
from oracles import allclose, classify_zeros, constant, identity, shifted
from ratex.polylab import (
    PENCIL_INFINITE_RTOL,
    LaurentMatrix,
    Model,
    _deflate_infinite,
    companion_stack,
    lp_det_and_zeros,
    lp_mul,
    trim_dust,
)
from ratex import wienerhopf
from ratex.resolve import solve_model
from ratex.wienerhopf import (
    BOUNDARY_TOL,
    DivisorExtractionSingular,
    FactorizationError,
    WHFactors,
    WrongStableCount,
    ZerosOnUnitCircle,
    _band_counts,
    _screen_counts,
    _split_zeros,
    _unit_circle_split,
    wh_factorize,
    wh_factorize_stack,
)

# samples in the stacks below that are compared with one-sample calls
STACK = 16


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
        assert allclose(fac.b_plus, B)
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
        with pytest.raises(ZerosOnUnitCircle):
            wh_factorize(scalar([1.0, -(1.0 + 1e-8)]), boundary=1e-6)

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
        assert allclose(lp_mul(fac.b_minus, fac.b_plus), B, atol=1e-12)

    def test_positive_min_lag_fails(self):
        # B = z I has its zeros at the origin with lam = 0 declared
        with pytest.raises(WrongStableCount):
            wh_factorize(scalar([0.0, 1.0]))

    def test_positive_min_lag_counts_every_origin_zero(self, rng):
        # det(z^2 B_plus(z)) = z^4 det B_plus(z) for n = 2: four zeros at the
        # origin lie inside the circle, and B_plus contributes none
        B = shifted(random_b_plus(rng, 2, 1), 2)
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
                assert allclose(fac.b_minus, bm, atol=1e-6 * scale)
                assert allclose(fac.b_plus, bp, atol=1e-6 * scale)

    def test_reconstruction_residual(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            lam = int(rng.integers(0, 3))
            kappa = int(rng.integers(0, 3))
            model, *_ = make_valid_model(rng, n=n, m=n, lam=lam, kappa=kappa)
            fac = wh_factorize(model.B)
            recon = lp_mul(fac.b_minus, fac.b_plus)
            assert allclose(recon, model.B, atol=1e-8 * fac.scale)

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
            assert allclose(fac.b_minus, bm, atol=1e-6 * max(bm.max_abs(), 1.0))
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
            WHFactors(b_minus=constant([[2.0]]),
                      b_plus=constant([[1.0]]), residual=0.0)

    def test_needs_a_square_b(self):
        with pytest.raises(ValueError, match="B must be square"):
            wh_factorize(LaurentMatrix.zero(2, 3))

    def test_deterministic(self):
        B = scalar([1 / 3, 1.0, 0.5], -1)
        a = wh_factorize(B)
        b = wh_factorize(B)
        assert np.array_equal(a.b_minus.coeffs, b.b_minus.coeffs)
        assert np.array_equal(a.b_plus.coeffs, b.b_plus.coeffs)


class TestCheckEU:
    """The existence/uniqueness verdict and its evidence: wh_factorize's
    zeros when it holds, the FactorizationError's zeros and message when
    it fails, counted by classify_zeros."""

    def test_trivial_scalar(self):
        fac = wh_factorize(scalar([1.0]))
        assert classify_zeros(fac.zeros, BOUNDARY_TOL) == (0, 0)

    def test_unit_circle_zero(self):
        with pytest.raises(ZerosOnUnitCircle, match="circle") as info:
            wh_factorize(scalar([1.0, -1.0]))
        assert classify_zeros(info.value.zeros, BOUNDARY_TOL) == (0, 1)

    def test_hansen_sargent_point(self):
        # theta = (1, -2, -1): theta3/theta2 = 0.5, so B = 1/z - 2.5 + z
        fac = wh_factorize(scalar([1.0, -2.5, 1.0], -1))
        stable, on_band = classify_zeros(fac.zeros, BOUNDARY_TOL)
        assert stable == 1 * 1 and on_band == 0      # n * lam
        inside = [z for z in fac.zeros if abs(z) < 1]
        assert inside[0].real == pytest.approx(0.5, abs=1e-10)

    def test_origin_zeros_counted(self):
        # lam = 0, so no zero may lie inside; det(z I) has two at the origin
        with pytest.raises(WrongStableCount, match="inside the unit circle") as info:
            wh_factorize(LaurentMatrix.from_coeffs([np.eye(2)], 1))
        assert classify_zeros(info.value.zeros, BOUNDARY_TOL) == (2, 0)
        assert np.sum(info.value.zeros == 0) == 2

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

        B = identity(n)
        for v in s[:lam]:
            B = lp_mul(B, LaurentMatrix.from_coeffs([-sym(v), np.eye(n)], -1))
        for v in s[lam:]:
            B = lp_mul(B, LaurentMatrix.from_coeffs([np.eye(n), -sym(v)], 0))
        fac = wh_factorize(B)
        assert fac.residual <= 1e-8 * fac.scale
        assert classify_zeros(fac.zeros, BOUNDARY_TOL) == (n * lam, 0) == (40, 0)
        expected = np.concatenate([s[:lam].ravel(), 1.0 / s[lam:].ravel()])
        assert match_zero_multisets(fac.zeros, expected, tol=1e-4)

    def test_declared_lam_with_zero_lead_not_double_counted(self, rng):
        # lam = 1 declared but B_{-1} = 0: det(z B_plus(z)) has n zeros at the
        # origin against n * lam = n expected (after trimming: none against
        # none), so the origin must not be counted twice and EU holds
        bp = random_b_plus(rng, 2, 1)
        padded = LaurentMatrix.from_coeffs(
            [np.zeros((2, 2))] + list(bp.coeffs), -1, trim=False)
        fac = wh_factorize(padded)
        assert classify_zeros(fac.zeros, BOUNDARY_TOL)[0] == 0
        bundle = solve_model(Model(padded, identity(2), lam=1, kappa=1))
        assert allclose(bundle.factors.b_minus, identity(2))
        assert allclose(bundle.factors.b_plus, bp)


def oracle_zeros(A, E):
    """Finite eigenvalues of one pencil from scipy's QZ, infinite ones split
    off first."""
    return scipy.linalg.eigvals(*_deflate_infinite(A, E)[:2]).astype(complex)


class TestStackedScreen:
    """The eigenvalue screen of wh_factorize_stack against the QZ zeros of
    the same pencil (scipy, after the infinite eigenvalues are split off)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 20), lam=st.sampled_from([0, 1]),
           lead_margin=st.sampled_from([1.01, 1.5, 3.0, 10.0, 1e3, 1e6]),
           kinds=st.lists(st.sampled_from(["out", "in", "deep", "far"]), min_size=4, max_size=4))
    def test_near_band_counts_match_pencil(self, seed, lam, lead_margin, kinds):
        Bc = near_band_stack(np.random.default_rng(seed), lam, lead_margin, kinds[:2 * (lam + 1)])
        A, E = companion_stack(Bc.swapaxes(2, 3))
        zeros = oracle_zeros(A[0], E[0])
        s_E = np.linalg.svd(E)[1]
        if s_E[0, -1] > PENCIL_INFINITE_RTOL:
            stable, on_band, _, decided = _screen_counts(A, E, s_E, BOUNDARY_TOL)
            if decided[0]:
                assert (stable[0], on_band[0]) == classify_zeros(zeros, BOUNDARY_TOL)
        # a stack of copies decides each copy as the one sample alone
        want = _outcome(LaurentMatrix(Bc[0], -lam))
        for got in wh_factorize_stack(np.repeat(Bc, STACK, axis=0), lam)[2]:
            assert type(got) is want

    def test_well_conditioned_near_band_is_screened(self):
        rng = np.random.default_rng(3)
        for kinds in (["out", "in"], ["in", "in"], ["out", "far"]):
            A, E = companion_stack(near_band_stack(rng, 0, 1e6, kinds).swapaxes(2, 3))
            assert _screen_counts(A, E, np.linalg.svd(E)[1], 1e-9)[3][0]

    def test_exactly_defective_sample_is_left_to_the_split(self):
        # B(z) = z^2 I + z [[0, 1], [0, 0]]: the lead is I, and the
        # eigenvector matrix of E^-1 A is exactly singular, so the screen
        # decides nothing and the split counts the four zeros at the origin
        Bc = np.array([np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]], np.eye(2)])
        A, E = companion_stack(Bc[None].swapaxes(2, 3))
        assert not _screen_counts(A, E, np.linalg.svd(E)[1], BOUNDARY_TOL)[3][0]
        with pytest.raises(WrongStableCount, match="found 4 zero") as err:
            wh_factorize(LaurentMatrix(Bc, 0))
        assert np.array_equal(err.value.zeros, np.zeros(4))

    def test_split_zeros_off_their_side_are_recounted(self):
        # a near_band_stack draw (lam = 2, zeros within 1e-8 of the circle,
        # one inside) whose split settles, but whose restricted pencils'
        # zeros do not lie on their own sides of the band: the sample is
        # counted again at the band edges, alone and in a stack alike
        Bc = np.array([
            [[6.17819384617216, 12.838454315105988], [0.2188031063772505, 0.45467661053932623]],
            [[-8.298407201718057, -15.586417060784486],
             [-0.2939463335173416, -0.5521162769774796]],
            [[-1.8390986656040704, -6.391949686250836],
             [-0.06506138509761858, -0.22623863087994858]],
            [[0.7680599954889744, 0.639398829187679], [0.02719581641083949, 0.02265763256606247]]])
        with pytest.raises(WrongStableCount, match="need exactly 4"):
            wh_factorize(LaurentMatrix(Bc, -2))
        errors = wh_factorize_stack(np.repeat(Bc[None], 3, axis=0), 2)[2]
        assert [type(e) for e in errors] == [WrongStableCount] * 3


def _outcome(B):
    """Type of wh_factorize's error on B, NoneType where it factors."""
    try:
        wh_factorize(B)
    except FactorizationError as exc:
        return type(exc)
    return type(None)


class TestStackAgainstScalar:
    """Each sample of wh_factorize_stack against wh_factorize on that sample
    alone, including samples that do not fill the declared window."""

    @staticmethod
    def window_stack(rng, n, lam, kappa):
        def model(lo, hi, last=identity(n)):
            B = lp_mul(random_b_minus(rng, n, lo), lp_mul(random_b_plus(rng, n, hi), last))
            return B.window(-lam, kappa)

        samples = [model(lam, kappa) for _ in range(STACK)]
        samples.append(model(lam, kappa) @ np.diag([0.0] + [1.0] * (n - 1)))   # det B = 0
        if lam:
            samples.append(model(lam - 1, kappa))                 # B_{-lam} = 0
        if kappa:
            samples.append(model(lam, kappa - 1))                 # B_kappa = 0
            samples.append(model(lam, kappa - 1, LaurentMatrix.from_coeffs(
                [np.eye(n), -np.diag([1.0] + [0.5] * (n - 1))])))  # a zero at z = 1
            shifted = np.zeros_like(samples[0])                   # min lag 1
            shifted[lam + 1:] = random_b_plus(rng, n, kappa - 1).coeffs
            samples.append(shifted)
        return trim_dust(np.array(samples))

    # the last two are benchmark ladder shapes, (4, 2, 2, 2) and (8, 4, 1, 2)
    @pytest.mark.parametrize("n, lam, kappa", [
        (2, 0, 0), (2, 0, 1), (3, 0, 2), (1, 1, 2), (2, 1, 1), (2, 2, 1), (3, 1, 0),
        (4, 2, 2), (8, 1, 2)])
    def test_same_outcome_and_factors(self, rng, n, lam, kappa):
        Bc = self.window_stack(rng, n, lam, kappa)
        b_minus, b_plus, errors = wh_factorize_stack(Bc, lam)[:3]
        outcomes = []
        for s, B in enumerate(Bc):
            outcomes.append(_outcome(LaurentMatrix(B, -lam)))
            assert type(errors[s]) is outcomes[-1]
            if errors[s] is None:
                fac = wh_factorize(LaurentMatrix(B, -lam))
                assert np.abs(b_minus[s] - fac.b_minus.window(-lam, 0)).max() <= 1e-12
                assert np.abs(b_plus[s] - fac.b_plus.window(0, kappa)).max() <= 1e-12
        assert outcomes[:STACK] == [type(None)] * STACK
        assert outcomes[STACK] is ZerosOnUnitCircle
        if kappa:
            assert outcomes[-2:] == [ZerosOnUnitCircle, WrongStableCount]

    def test_divisors_of_the_split_and_the_band_edges_in_one_stack(self, monkeypatch):
        # z^-1 (z - 0.5)(z - c), lam = 1: with c = 3 the split settles at
        # once; with c = 1 + 1e-7 it takes more than _certified_steps, so that
        # sample is counted at the band edges, and the divisors of both paths
        # are read in one stack
        def scalar_model(c):
            return scalar([0.5 * c, -(0.5 + c), 1.0], -1)

        splits = []

        def recording(A, E, boundary):
            out = _unit_circle_split(A, E, boundary)
            splits.append(out[2].tolist())
            return out

        models = [scalar_model(3.0), scalar_model(1.0 + 1e-7)]
        monkeypatch.setattr(wienerhopf, "_unit_circle_split", recording)
        together = wienerhopf.wh_factorize_all(models)
        monkeypatch.undo()
        steps = splits[0]
        cap = wienerhopf._certified_steps(BOUNDARY_TOL)
        assert steps[0] <= cap < steps[1] and len(splits) == 2      # then the band edges
        for model, got in zip(models, together):
            want = wh_factorize(model)
            for name in ("b_minus", "b_plus"):
                assert np.array_equal(getattr(got, name).coeffs, getattr(want, name).coeffs)
                assert getattr(got, name).min_lag == getattr(want, name).min_lag
            assert np.array_equal(got.zeros, want.zeros)


def test_failed_reordering_is_a_factorization_error():
    # the counts pass (two zeros just inside the band, two just outside,
    # n * lam = 2), but the pencil with its nearly singular lead is too
    # ill-conditioned to yield a divisor that reconstructs B; both paths
    # report it with the zeros instead of a factorization
    Bc = near_band_stack(np.random.default_rng(0), 1, 1.01, ["in", "out", "out", "in"])
    with pytest.raises(FactorizationError, match="reconstruction residual") as info:
        wh_factorize(LaurentMatrix(Bc[0], -1))
    assert type(info.value) is DivisorExtractionSingular
    assert classify_zeros(info.value.zeros, BOUNDARY_TOL) == (2, 0)
    error = wh_factorize_stack(Bc, 1)[2][0]
    assert type(error) is DivisorExtractionSingular and "reconstruction residual" in str(error)


class TestOrderedQZ:
    """The inverse-free split against scipy's ordered QZ: ordqz's ordered
    Schur vectors and eigvals' zeros are the oracles."""

    @staticmethod
    def pencils(N, rng):
        # A = X D Y, E = X Y with X, Y of condition <= 4: D diagonal with a
        # real spectrum off 0.6 < |z| < 1.6, then 2 x 2 rotation blocks that
        # give complex pairs, on both sides of the unit circle
        def conditioned():
            q1, q2 = (np.linalg.qr(rng.standard_normal((N, N)))[0] for _ in range(2))
            return q1 @ np.diag(rng.uniform(0.5, 2.0, N)) @ q2

        def modulus(size):
            inside = rng.random(size) < 0.5
            return np.where(inside, rng.uniform(0.05, 0.6, size), rng.uniform(1.6, 3.0, size))

        d = rng.choice([-1.0, 1.0], N) * modulus(N)
        D = np.diag(d)
        for i in range(0, N - 1, 2):
            r, t = modulus(1)[0], rng.uniform(0.3, 2.8)
            D[i:i + 2, i:i + 2] = r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        for block in (np.diag(d), D):
            X, Y = conditioned(), conditioned()
            yield X @ block @ Y, X @ Y

    @pytest.mark.parametrize("N", range(2, 25))
    def test_equals_scipy_ordqz(self, N):
        # the split's count and deflating subspace equal ordqz's, up to
        # principal angles of 1e-12, and its zeros eigvals' 
        rng = np.random.default_rng(N)
        complex_pairs = 0
        for A, E in self.pencils(N, rng):
            want = scipy.linalg.eigvals(A, E)
            inside = np.count_nonzero(np.abs(want) < 1.0)
            U, counts, _, failed = _unit_circle_split(A[None], E[None], BOUNDARY_TOL)
            assert not failed[0] and counts[0] == inside
            Z = scipy.linalg.ordqz(A, E, sort="iuc")[5]
            if inside:
                angles = scipy.linalg.subspace_angles(U[0, :, :inside], Z[:, :inside])
                assert angles.max() <= 1e-12
            zeros, *_, agree = _split_zeros(A[None], E[None], U, inside, BOUNDARY_TOL)
            assert agree[0] and match_zero_multisets(zeros[0], want, tol=1e-10)
            complex_pairs += np.count_nonzero(want.imag > 0)
        assert N < 4 or complex_pairs

    def test_failed_count_raises_before_reordering(self, monkeypatch):
        # a count that fails raises with the zeros before any divisor is read
        def divisor(*args, **kwargs):
            raise AssertionError("read a divisor for a pencil whose counts failed")

        monkeypatch.setattr(wienerhopf, "_stable_monic_divisor", divisor)
        with pytest.raises(WrongStableCount) as info:
            wh_factorize(scalar([0.02, -0.3, 1.0], -1))       # zeros 0.1 and 0.2
        assert classify_zeros(info.value.zeros, BOUNDARY_TOL) == (2, 0)
        with pytest.raises(ZerosOnUnitCircle):
            wh_factorize(scalar([-0.5, 1.5, -2.0, 1.0], -1))   # zeros 1, (1 -/+ i) / 2

    def test_unsettled_split_is_a_factorization_error(self, monkeypatch):
        # a split cut off before it settles cannot count: the sample is
        # reported as failing, with the zeros of its whole pencil
        monkeypatch.setattr(wienerhopf, "_split_cap", lambda boundary: 1)
        with pytest.raises(ZerosOnUnitCircle, match="did not settle") as info:
            wh_factorize(scalar([1 / 3, 1.0, 0.5], -1))
        assert len(info.value.zeros) == 2

    def test_infinite_eigenvalues_count_outside(self):
        # E singular: one infinite eigenvalue besides 0.5 and 2
        A, E = np.diag([0.5, 2.0, 1.0]), np.diag([1.0, 1.0, 0.0])
        U, counts, _, failed = _unit_circle_split(A[None], E[None], BOUNDARY_TOL)
        assert not failed[0] and counts[0] == 1
        zeros = _split_zeros(A[None], E[None], U, 1, BOUNDARY_TOL)[0][0]
        assert match_zero_multisets(zeros, [0.5, 2.0])

    def test_zero_on_the_circle_fails_the_split(self):
        A, E = np.diag([0.5, 1.0, 3.0]), np.eye(3)
        assert _unit_circle_split(A[None], E[None], BOUNDARY_TOL)[3][0]
        with pytest.raises(ZerosOnUnitCircle):
            wh_factorize(LaurentMatrix.from_coeffs([np.diag([-0.5, -1.0]), np.eye(2)], -1))

    def test_identically_zero_determinant(self):
        # rank-one B at every lag: det B(z) = 0 for all z
        v = np.array([[1.0], [2.0]])
        B = LaurentMatrix.from_coeffs([v @ [[0.3, 1.0]], v @ [[1.0, 0.2]], v @ [[0.5, -1.0]]], -1)
        with pytest.raises(ZerosOnUnitCircle, match="identically zero"):
            wh_factorize(B)


class TestBandCounts:
    """_band_counts splits at both band edges in one stack, with the counts
    and U of one split per edge."""

    @staticmethod
    def one_split_per_edge(A, E, b):
        U, hi, _, unsettled = _unit_circle_split(A, (1.0 + b) * E, b)
        U, stable, _, lo_failed = _unit_circle_split(A, (1.0 - b) * E, b)
        return stable, hi - stable, U, unsettled | lo_failed | (hi < stable)

    def pencils(self):
        yield np.diag([0.5, 1.0, 3.0])[None], np.eye(3)[None]    # a zero on the circle
        for lam, seed in itertools.product((0, 1), range(4)):
            rng = np.random.default_rng(seed)
            stack = [near_band_stack(rng, lam, margin, list(kinds[:2 * (lam + 1)]))
                     for margin in (1.01, 1e6)
                     for kinds in (("out", "in", "deep", "far"), ("in", "in", "out", "out"))]
            yield companion_stack(np.concatenate(stack).swapaxes(2, 3))

    def test_one_split_with_the_counts_of_two(self, monkeypatch):
        b = BOUNDARY_TOL
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return _unit_circle_split(*args)

        for A, E in self.pencils():
            want = self.one_split_per_edge(A, E, b)
            calls.clear()
            monkeypatch.setattr(wienerhopf, "_unit_circle_split", counted)
            got = _band_counts(A, E, b)
            monkeypatch.undo()
            assert calls == [2 * len(A)]
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


class TestHardFamilies:
    """Families that stress the split: long Jordan chains at infinity and
    zeros 1e-8 from the unit circle."""

    @pytest.mark.parametrize("seed", range(20))
    def test_long_chains_at_infinity(self, seed):
        # B_minus B_plus times five rotated factors I + z q e1 e6' q' (n = 6):
        # each has determinant 1, and together they give the lead of B a
        # Jordan chain at infinity nine levels long
        rng = np.random.default_rng(seed)
        n = 6
        bm, bp = random_b_minus(rng, n, 1), random_b_plus(rng, n, 1)
        B = lp_mul(bm, bp)
        for _ in range(5):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            B = lp_mul(B, LaurentMatrix.from_coeffs(
                [np.eye(n), q @ np.outer(np.eye(n)[0], np.eye(n)[-1]) @ q.T], 0))
        fac = wh_factorize(B)
        assert classify_zeros(fac.zeros, BOUNDARY_TOL)[0] == n
        assert allclose(fac.b_minus, bm, atol=1e-6 * max(bm.max_abs(), 1.0))
        assert fac.residual <= 1e-8 * fac.scale

    def test_near_band_family_lam_0(self):
        # zeros at 1 -/+ 1e-8, 0.5 and 2 behind leads down to 1.01 times
        # PENCIL_INFINITE_RTOL: where scipy's QZ counts the same for B and
        # for three copies perturbed by 1e-14 relative, the verdict is the
        # one those counts give
        robust = 0
        cases = itertools.product((1.01, 10.0, 1e6), range(3), itertools.product(
            ["out", "in", "deep", "far"], repeat=2))
        for margin, seed, kinds in cases:
            rng = np.random.default_rng(seed)
            Bc = near_band_stack(rng, 0, margin, list(kinds))
            counts = set()
            for t in range(4):
                c = Bc[0] * (1 + (t > 0) * 1e-14 * rng.standard_normal(Bc[0].shape))
                A, E = companion_stack(c.swapaxes(1, 2)[None])
                counts.add(classify_zeros(oracle_zeros(A[0], E[0]), BOUNDARY_TOL))
            if len(counts) > 1:
                continue
            robust += 1
            stable, on_band = counts.pop()
            want = ZerosOnUnitCircle if on_band else WrongStableCount if stable else type(None)
            assert _outcome(LaurentMatrix(Bc[0], 0)) is want
        assert robust > 100
