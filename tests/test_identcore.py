import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_valid_model
from oracles import coeff_vec_index, identity, plus_part
from ratex.identcore import (
    IdentSystem,
    RestrictionSet,
    build_ident_system,
    coeff_vec_length,
    ds_criterion,
    equivalence_class_dim,
    ident_test_affine,
    ident_test_equation,
    kernel_vec,
    model_coeff_vec,
    obs_equivalent,
    spectral_equivalent,
)
from ratex.numrank import DEFAULT_TOL_RANK, numerical_rank, stacked_rank
from ratex.polylab import LaurentMatrix, Model
from ratex.resolve import solve_model


def scalar(coeffs, min_lag=0):
    return LaurentMatrix.from_coeffs([[[c]] for c in coeffs], min_lag)


def white_noise_bundle():
    model = Model(scalar([1.0]), scalar([1.0]), lam=1, kappa=1)
    return model, solve_model(model, horizon=6)


def pin_restriction(pins, n, m, kappa, lam):
    """Rows pinning single coefficients: pins = [(block, lag, row, col, value)]."""
    N = coeff_vec_length(n, m, kappa, lam)
    R = np.zeros((len(pins), N))
    u = np.zeros(len(pins))
    for k, (block, lag, row, col, val) in enumerate(pins):
        R[k, coeff_vec_index(block, lag, row, col, n, m, kappa, lam)] = 1.0
        u[k] = val
    return RestrictionSet.affine(R, u)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), rank=st.integers(0, 6),
       exponent=st.integers(-300, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_numerical_rank_is_the_stacked_rule_at_one_sample(rows, cols, rank, exponent, seed):
    """One rank rule: count the singular values above DEFAULT_TOL_RANK *
    sigma_max * max(shape), in that order of multiplication, bit for bit."""
    rng = np.random.default_rng(seed)
    M = (rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))) * 10.0 ** exponent
    r, svals, cutoff = numerical_rank(M)
    ranks, stacked, cutoffs = stacked_rank(M[None])
    assert (r, cutoff) == (ranks[0], cutoffs[0])
    assert np.array_equal(svals, stacked[0])
    assert cutoff == DEFAULT_TOL_RANK * np.linalg.svd(M, compute_uv=False).max() * max(M.shape)
    assert r == np.count_nonzero(svals > cutoff)


class TestBuildSystem:
    def test_displayed_scalar_kernel_matrix(self):
        # n = m = 1, kappa = lam = 1: P' (x) I must reproduce the 4x6 matrix
        # with rows (-C0,0,0,1,0,0), (-C1,-C0,0,0,1,0), (-C2,-C1,-C0,0,0,1),
        # (-C3,-C2,-C1,0,0,0)
        rng = np.random.default_rng(0)
        model, *_ = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)
        bundle = solve_model(model, horizon=5)
        c = bundle.transfer.coeffs[:, 0, 0]
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
        K = np.kron(sys.P.T, np.eye(1))
        expect = np.array([
            [-c[0], 0, 0, 1, 0, 0],
            [-c[1], -c[0], 0, 0, 1, 0],
            [-c[2], -c[1], -c[0], 0, 0, 1],
            [-c[3], -c[2], -c[1], 0, 0, 0]])
        assert np.allclose(K, expect, atol=1e-12)

    def test_white_noise_hankel_zero(self):
        _, bundle = white_noise_bundle()
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
        assert sys.H.shape == (3, 1)
        assert np.all(sys.H == 0)
        assert sys.hankel_rank == 0

    def test_insufficient_horizon(self):
        _, bundle = white_noise_bundle()
        with pytest.raises(ValueError):
            build_ident_system(bundle.transfer, 1, 1, 3, 3)

    def test_hankel_corner_blocks(self, rng):
        model, *_ = make_valid_model(rng, n=2, m=2, lam=1, kappa=2)
        bundle = solve_model(model)
        sys = build_ident_system(bundle.transfer, 2, 2, 2, 1)
        q = 2 + 1 + 1
        assert np.allclose(sys.H[-2:, :2], bundle.transfer.coefficient(1))
        assert np.allclose(sys.H[:2, -2:], bundle.transfer.coefficient((2 + 1) * 2 + 1))
        assert sys.H.shape == (2 * q, 2 * 2 * 2)

    def test_rank_P_identity(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, n + 1))
            lam = int(rng.integers(0, 3))
            kappa = int(rng.integers(0, 3))
            model, *_ = make_valid_model(rng, n=n, m=m, lam=lam, kappa=kappa)
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, n, m, kappa, lam)
            rank_p, _, _ = numerical_rank(sys.P)
            assert rank_p == m * (kappa + lam + 1) + sys.hankel_rank


class TestEquivalenceClassDim:
    def test_white_noise_dim_three(self):
        _, bundle = white_noise_bundle()
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
        assert equivalence_class_dim(sys) == 3

    def test_generic_scalar_dim_two(self, rng):
        for _ in range(10):
            model, *_ = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)
            bundle = solve_model(model)
            if abs(bundle.transfer.coefficient(1)[0, 0]) < 1e-6:
                continue
            sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
            assert equivalence_class_dim(sys) == 2

    def test_varma_generic_dim(self, rng):
        from conftest import random_b_plus, random_ma_part
        from ratex.polylab import lp_mul
        from ratex.resolve import canonical_rotation
        for _ in range(5):
            n = 2
            B = random_b_plus(rng, n, 1, nonsingular_lead=True)
            ma = random_ma_part(rng, n, n, 1)
            v = canonical_rotation(np.linalg.solve(B.coefficient(0), ma.coefficient(0)))
            A = ma.right_multiplied(v)
            model = Model(B, A, lam=0, kappa=1)
            if not _coprime(model):
                continue
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, n, n, 1, 0)
            assert equivalence_class_dim(sys) == n * n

    def test_dim_equals_n_times_nullity(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 3))
            lam = int(rng.integers(0, 2))
            kappa = int(rng.integers(0, 3))
            model, *_ = make_valid_model(rng, n=n, m=n, lam=lam, kappa=kappa)
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, n, n, kappa, lam)
            rank_pt, _, _ = numerical_rank(sys.P.T)
            nullity = sys.P.shape[0] - rank_pt
            assert equivalence_class_dim(sys) == n * nullity

    def test_lower_bound_on_sweep(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, n + 1))
            lam = int(rng.integers(0, 3))
            kappa = int(rng.integers(0, 3))
            model, *_ = make_valid_model(rng, n=n, m=m, lam=lam, kappa=kappa)
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, n, m, kappa, lam)
            assert sys.hankel_rank <= n * kappa
            assert equivalence_class_dim(sys) >= n * n * (1 + lam)


def _coprime(model):
    """rank([B(z) A(z)]) = n at every zero of det B."""
    from ratex.polylab import lp_det_and_zeros
    try:
        zeros = lp_det_and_zeros(model.B)
    except Exception:
        return False
    for z in zeros:
        stacked = np.hstack([model.B.value(z), model.A.value(z)])
        svals = np.linalg.svd(stacked, compute_uv=False)
        if svals[model.n - 1] < 1e-8 * svals[0]:
            return False
    return True


class TestObsEquivalent:
    def test_redundant_dynamics_pair(self):
        model, bundle = white_noise_bundle()
        other = Model(scalar([1.0, 0.5]), scalar([1.0, 0.5]), lam=1, kappa=1)
        eq, resid, scale = obs_equivalent(bundle, solve_model(other))
        assert eq and resid <= 1e-10 * scale
        xi = kernel_vec(other.B, solve_model(other).a_plus, 1, 1, 1, 1)
        assert xi == pytest.approx([0, 1, 0.5, 0, 1, 0.5], abs=1e-12)

    def test_forward_shift_pair(self):
        model, bundle = white_noise_bundle()
        other = Model(scalar([1 / 3, 1.0, 0.5], -1), scalar([1.0, 0.5]), lam=1, kappa=1)
        eq, resid, scale = obs_equivalent(bundle, solve_model(other))
        assert eq
        xi = kernel_vec(other.B, solve_model(other).a_plus, 1, 1, 1, 1)
        assert xi == pytest.approx([1 / 3, 1, 0.5, 1 / 3, 1, 0.5], abs=1e-10)

    def test_non_equivalent_pair(self):
        model, bundle = white_noise_bundle()
        other = Model(scalar([1.0]), scalar([1.0, 0.5]), lam=1, kappa=1)
        eq, *_ = obs_equivalent(bundle, solve_model(other))
        assert not eq
        noteq, diff, scale = spectral_equivalent(bundle, solve_model(other))
        assert not noteq and diff > 1e-3 * scale

    def test_kernel_and_spectral_agree(self, rng):
        _, bundle = white_noise_bundle()
        for other in [Model(scalar([1.0, 0.5]), scalar([1.0, 0.5]), lam=1, kappa=1),
                      Model(scalar([1 / 3, 1.0, 0.5], -1), scalar([1.0, 0.5]), lam=1, kappa=1),
                      Model(scalar([1.0]), scalar([1.0, 0.5]), lam=1, kappa=1)]:
            k_eq, *_ = obs_equivalent(bundle, solve_model(other))
            s_eq, *_ = spectral_equivalent(bundle, solve_model(other))
            assert k_eq == s_eq

    def test_kernel_perturbation_stays_equivalent(self, rng):
        # any kernel direction added to the coefficient vector gives an
        # observationally equivalent model while it stays valid
        for _ in range(6):
            n = int(rng.integers(1, 3))
            lam = int(rng.integers(0, 2))
            kappa = int(rng.integers(1, 3))
            model, *_ = make_valid_model(rng, n=n, m=n, lam=lam, kappa=kappa)
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, n, n, kappa, lam)
            K = np.kron(sys.P.T, np.eye(n))
            _, svals, cutoff = numerical_rank(K)
            _, _, vt = np.linalg.svd(K)
            null_mask = np.concatenate([svals <= cutoff,
                                        np.ones(vt.shape[0] - svals.size, bool)])
            basis = vt[null_mask]
            assert basis.shape[0] >= 1
            xi = basis.T @ rng.standard_normal(basis.shape[0])
            zeta = kernel_vec(model.B, bundle.a_plus, n, n, kappa, lam)
            c = 0.05 * np.max(np.abs(zeta)) / max(np.max(np.abs(xi)), 1e-12)
            X = (zeta + c * xi).reshape(n, -1, order="F")
            nb = n * (kappa + lam + 1)
            Bt = LaurentMatrix.from_coeffs(
                [X[:, k * n:(k + 1) * n] for k in range(kappa + lam + 1)], -lam)
            Ap = LaurentMatrix.from_coeffs(
                [X[:, nb + k * n:nb + (k + 1) * n] for k in range(kappa + lam + 1)], -lam)
            try:
                other = Model(Bt, plus_part(Ap), lam=lam, kappa=kappa)
                eq, resid, scale = obs_equivalent(bundle, solve_model(other))
            except Exception:
                continue  # perturbation left the parameter space
            assert eq, f"kernel perturbation broke equivalence: resid={resid}"


class TestAffineTest:
    def test_example_two_pins_det_rule(self, rng):
        # scalar kappa = lam = 1, pinning B_{-1} and A_0: identified iff the
        # second impulse response is nonzero
        for _ in range(8):
            model, *_ = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)
            bundle = solve_model(model)
            c1 = bundle.transfer.coefficient(1)[0, 0]
            if abs(c1) < 1e-4:
                continue
            sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
            res = pin_restriction(
                [("B", -1, 0, 0, model.B.coefficient(-1)[0, 0]),
                 ("A", 0, 0, 0, model.A.coefficient(0)[0, 0])], 1, 1, 1, 1)
            report = ident_test_affine(sys, res, model)
            assert report.identified
            assert report.required_rank == equivalence_class_dim(sys)
            assert not report.warnings

    def test_white_noise_not_identified_by_two_pins(self):
        model, bundle = white_noise_bundle()
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
        res = pin_restriction([("B", -1, 0, 0, 0.0), ("A", 0, 0, 0, 1.0)], 1, 1, 1, 1)
        report = ident_test_affine(sys, res, model)
        assert not report.identified
        assert report.numerical_rank < report.required_rank

    def test_full_pinning_sem(self, rng):
        model, *_ = make_valid_model(rng, n=2, m=2, lam=0, kappa=0)
        bundle = solve_model(model)
        sys = build_ident_system(bundle.transfer, 2, 2, 0, 0)
        vec = model_coeff_vec(model)
        res = RestrictionSet.affine(np.eye(vec.size), vec)
        report = ident_test_affine(sys, res, model)
        assert report.identified

    def test_zero_u_rejected(self):
        model, bundle = white_noise_bundle()
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")             # built without a warning
            res = RestrictionSet.affine(np.zeros((1, 5)), np.zeros(1))
        with pytest.raises(ValueError, match="u = 0 is meaningless"):
            ident_test_affine(sys, res, model)

    def test_membership_warning(self):
        model, bundle = white_noise_bundle()
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
        res = pin_restriction([("A", 0, 0, 0, 5.0)], 1, 1, 1, 1)  # A_0 is 1, not 5
        report = ident_test_affine(sys, res, model)
        assert report.warnings

    def test_wrong_columns_rejected(self):
        model, bundle = white_noise_bundle()
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
        from ratex.identcore import RestrictionDimensionError
        with pytest.raises(RestrictionDimensionError):
            ident_test_affine(sys, RestrictionSet.affine(np.ones((1, 7)), [1.0]), model)

    def test_stack_conditioning_does_not_decide(self):
        # n = 8, m = 4, lam = 1, kappa = 2: the Hankel rank 16 is clear
        # (sigma_16 = 7e-3, sigma_17 = 1.5e-13), and 128 random rows on the
        # 128-dimensional kernel have sigma_min = 7e-3, about 170x the
        # cutoff; the 768 x 384 stack [P' (x) I_n; R] of the same case has
        # its sigma_min at 0.27x its own cutoff, a rank deficiency of 1
        rng = np.random.default_rng(46)
        model, *_ = make_valid_model(rng, n=8, m=4, lam=1, kappa=2)
        sys = build_ident_system(solve_model(model).transfer, 8, 4, 2, 1)
        assert sys.hankel_rank == 16
        R = rng.standard_normal((128, coeff_vec_length(8, 4, 2, 1)))
        report = ident_test_affine(sys, RestrictionSet.affine(R, np.ones(128)))
        assert report.required_rank == equivalence_class_dim(sys) == 128
        assert report.identified
        assert report.gap_ratio > 10


class TestEquationTest:
    def test_scalar_reduces_to_system_test(self, rng):
        for _ in range(5):
            model, *_ = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
            R = rng.standard_normal((2, 5))
            vec = model_coeff_vec(model)
            u = R @ vec
            rep_sys = ident_test_affine(sys, RestrictionSet.affine(R, u), model)
            rep_eq = ident_test_equation(sys, RestrictionSet.for_equation(1, R, u), model)
            # identical matrices entry for entry in the scalar case
            M_sys = np.vstack([np.kron(sys.P.T, np.eye(1)),
                               np.hstack([R[:, :3], np.zeros((2, 1)), R[:, 3:]])])
            M_eq = np.vstack([sys.P.T,
                              np.hstack([R[:, :3], np.zeros((2, 1)), R[:, 3:]])])
            assert np.allclose(M_sys, M_eq)
            assert rep_sys.verdict == rep_eq.verdict

    def test_all_equations_identified_implies_system(self, rng):
        for _ in range(6):
            n = 2
            model, *_ = make_valid_model(rng, n=n, m=n, lam=1, kappa=1)
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, n, n, 1, 1)
            vec = model_coeff_vec(model)
            X = vec.reshape(n, -1, order="F")
            per_eq = []
            blocks = []
            row_len = coeff_vec_length(n, n, 1, 1, equation=True)
            for i in range(1, n + 1):
                R_i = np.eye(row_len)
                u_i = X[i - 1]
                per_eq.append(ident_test_equation(
                    sys, RestrictionSet.for_equation(i, R_i, u_i), model))
                blocks.append((R_i, u_i))
            if all(r.identified for r in per_eq):
                # stack the equation-wise pins into system-wide rows
                N = coeff_vec_length(n, n, 1, 1)
                rows, us = [], []
                for i, (R_i, u_i) in enumerate(blocks):
                    for k in range(R_i.shape[0]):
                        row = np.zeros(N)
                        # entry k of equation i's vector sits at index k*n + i
                        for c in range(row_len):
                            row[c * n + i] = R_i[k, c]
                        rows.append(row)
                        us.append(u_i[k])
                rep = ident_test_affine(sys, RestrictionSet.affine(np.array(rows), us), model)
                assert rep.identified


def _clear_of_cutoff(svals, rank, cutoff):
    """The rank decision sits at least 10x away from the cutoff."""
    above = rank == 0 or svals[rank - 1] >= 10 * cutoff
    below = rank == svals.size or svals[rank] <= cutoff / 10
    return above and below


class TestKernelOracle:
    """The kernel test against the Kronecker-lifted stack it stands for:
    [P' (x) I_n; R] (system) or [P'; R] (one equation), with zero columns
    for the A+ lags -lam..-1 in R, has full column rank iff R has full
    column rank on the kernel of the upper block."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 2), lam=st.integers(0, 2),
           kappa=st.integers(0, 2), extra=st.sampled_from([-1, 0, 1]),
           equation=st.booleans(), pins=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_deficiency_matches_stack(self, n, m, lam, kappa, extra, equation, pins, seed):
        m = min(m, n)
        rng = np.random.default_rng(seed)
        model, *_ = make_valid_model(rng, n=n, m=m, lam=lam, kappa=kappa)
        sys = build_ident_system(solve_model(model).transfer, n, m, kappa, lam)
        dim = equivalence_class_dim(sys)
        lift = 1 if equation else n
        rows = max(dim // n * lift + extra, 1)
        cols = coeff_vec_length(n, m, kappa, lam, equation=equation)
        if pins:  # single coefficients, so the verdict depends on where N lies
            R = np.eye(cols)[rng.choice(cols, rows, replace=False)]
        else:
            R = rng.standard_normal((rows, cols))
        if equation:
            i = int(rng.integers(1, n + 1))
            report = ident_test_equation(
                sys, RestrictionSet.for_equation(i, R, np.ones(rows)))
        else:
            report = ident_test_affine(sys, RestrictionSet.affine(R, np.ones(rows)))
            assert report.required_rank == dim

        nb = lift * n * (kappa + lam + 1)
        Rbar = np.hstack([R[:, :nb], np.zeros((rows, lift * m * lam)), R[:, nb:]])
        M = np.vstack([np.kron(sys.P.T, np.eye(lift)), Rbar])
        rank, svals, cutoff = numerical_rank(M)
        kernel_cutoff = (DEFAULT_TOL_RANK * max(np.linalg.norm(sys.P), np.linalg.norm(R))
                         * max(M.shape))
        assume(_clear_of_cutoff(svals, rank, cutoff))
        assume(_clear_of_cutoff(report.singular_values, report.numerical_rank, kernel_cutoff))
        assert M.shape[1] - rank == report.required_rank - report.numerical_rank


class TestDSCriterion:
    def test_requires_varma(self, rng):
        model, *_ = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)
        with pytest.raises(ValueError):
            ds_criterion(model, RestrictionSet.affine(np.ones((1, 5)), [1.0]))

    def test_ar1_identified_both_ways(self):
        model = Model(scalar([1.0, -0.5]), scalar([1.0]), lam=0, kappa=1)
        bundle = solve_model(model, horizon=4)
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 0)
        res = pin_restriction([("B", 0, 0, 0, 1.0), ("A", 0, 0, 0, 1.0)], 1, 1, 1, 0)
        a = ident_test_affine(sys, res, model)
        d = ds_criterion(model, res)
        assert a.identified and d.identified
        assert d.required_rank == 1 * (1 + 2 * 1)

    def test_ma1_pinned_b0(self):
        # generic invertible MA(1): the only kernel direction rescales the
        # model, so pinning B_0 identifies it; degenerate A_1 = 0 does not
        for a1, expect in [(0.5, True), (0.0, False)]:
            model = Model(scalar([1.0]), scalar([1.0, a1]), lam=0, kappa=1)
            bundle = solve_model(model, horizon=4)
            sys = build_ident_system(bundle.transfer, 1, 1, 1, 0)
            res = pin_restriction([("B", 0, 0, 0, 1.0)], 1, 1, 1, 0)
            a = ident_test_affine(sys, res, model)
            d = ds_criterion(model, res)
            assert a.identified == expect
            assert d.identified == expect

    def test_agreement_on_random_draws(self, rng):
        agreements = 0
        trials = 0
        while trials < 15:
            n = int(rng.integers(1, 3))
            kappa = int(rng.integers(1, 3))
            model, *_ = make_valid_model(rng, n=n, m=n, lam=0, kappa=kappa)
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, n, n, kappa, 0)
            N = coeff_vec_length(n, n, kappa, 0)
            r = int(rng.integers(1, N + 1))
            R = rng.standard_normal((r, N))
            u = R @ model_coeff_vec(model)
            if not np.any(np.abs(u) > 1e-12):
                continue
            res = RestrictionSet.affine(R, u)
            a = ident_test_affine(sys, res, model)
            d = ds_criterion(model, res)
            trials += 1
            agreements += int(a.identified == d.identified)
        assert agreements == trials


class TestHankelRankLemma:
    def test_coprime_varma_full_hankel_rank(self, rng):
        from conftest import random_b_plus, random_ma_part
        from ratex.resolve import canonical_rotation
        done = 0
        while done < 12:
            n = int(rng.integers(1, 3))
            kappa = int(rng.integers(1, 3))
            B = random_b_plus(rng, n, kappa, nonsingular_lead=True)
            ma = random_ma_part(rng, n, n, kappa)
            v = canonical_rotation(np.linalg.solve(B.coefficient(0), ma.coefficient(0)))
            A = ma.right_multiplied(v)
            model = Model(B, A, lam=0, kappa=kappa)
            if abs(np.linalg.det(model.B.coefficient(kappa))) < 1e-6 or not _coprime(model):
                continue
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, n, n, kappa, 0)
            assert sys.hankel_rank == n * kappa
            done += 1

    def test_hand_built_mcmillan_degrees(self):
        cases = []
        # scalar AR(1): one non-cancelled pole
        cases.append((Model(scalar([1.0, -0.5]), scalar([1.0]), lam=0, kappa=1), 1))
        # scalar MA(1): one-step memory
        cases.append((Model(scalar([1.0]), scalar([1.0, 0.7]), lam=0, kappa=1), 1))
        # common factor cancels completely
        cases.append((Model(scalar([1.0, -0.5]), scalar([1.0, -0.5]), lam=0, kappa=1), 0))
        # one of two AR factors cancels
        b2 = np.convolve([1.0, -0.5], [1.0, -0.3])
        cases.append((Model(scalar(list(b2)), scalar([1.0, -0.5]), lam=0, kappa=2), 1))
        # diagonal bivariate, independent poles
        B = LaurentMatrix.from_coeffs([np.eye(2), -np.diag([0.5, 0.3])], 0)
        cases.append((Model(B, identity(2), lam=0, kappa=1), 2))
        # nilpotent MA memory: single Hankel direction
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        A = LaurentMatrix.from_coeffs([np.eye(2), N], 0)
        cases.append((Model(identity(2), A, lam=0, kappa=1), 1))
        for model, delta in cases:
            bundle = solve_model(model)
            sys = build_ident_system(bundle.transfer, model.n, model.m, model.kappa, 0)
            assert sys.hankel_rank == delta, f"{model}: got {sys.hankel_rank}, want {delta}"
            # independent oracle: rank of a large block Hankel of the series
            big = solve_model(model, horizon=24).transfer
            rows = [np.hstack([big.coefficient(i + j) for j in range(12)])
                    for i in range(1, 13)]
            rank_big, _, _ = numerical_rank(np.vstack(rows))
            assert rank_big == delta
