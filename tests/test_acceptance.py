"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s to see them).  Tolerances are pinned here and
nowhere else; every expected value is either a closed form derived in the
test or the output of an independent oracle.
"""

import numpy as np
import pytest

from conftest import make_valid_model, random_b_plus, random_ma_part
from ratex.identcore import (
    RestrictionSet,
    build_ident_system,
    coeff_vec_index,
    coeff_vec_length,
    ds_criterion,
    equivalence_class_dim,
    ident_test_affine,
    model_coeff_vec,
    obs_equivalent,
    spectral_equivalent,
)
from ratex.numrank import numerical_rank
from ratex.paramdsl import (
    RestrictionSet as _RS,  # same class, re-exported for clarity
    SamplerConfig,
    affine_as_nonlinear,
    eval_model,
    generic_ident,
    local_ident,
    parse_model,
)
from ratex.polylab import LaurentMatrix, Model, lp_mul
from ratex.resolve import (
    autocovariances_from_spectrum,
    canonical_rotation,
    plus_part_of_bminus_inv_a,
    a_plus,
    sample_autocovariances,
    simulate,
    solve_model,
)
from ratex.wienerhopf import wh_factorize


def scalar(coeffs, min_lag=0):
    return LaurentMatrix.from_coeffs([[[c]] for c in coeffs], min_lag)


def pins(entries, n, m, kappa, lam):
    N = coeff_vec_length(n, m, kappa, lam)
    R = np.zeros((len(entries), N))
    u = np.zeros(len(entries))
    for k, (block, lag, row, col, val) in enumerate(entries):
        R[k, coeff_vec_index(block, lag, row, col, n, m, kappa, lam)] = 1.0
        u[k] = val
    return RestrictionSet.affine(R, u)


def _passed(k, label):
    print(f"ACCEPTANCE {k} ({label}): PASS")


def test_criterion_01_scalar_solution_algebra():
    # ma part a1 b_- + a0 + a1 z and extended loading
    # (-a1 b_-^2 - a0 b_-)/z + a0 + a1 z, both to 1e-10, through the full
    # factorize-then-solve pipeline on random valid scalar instances
    rng = np.random.default_rng(101)
    for _ in range(25):
        bm = rng.uniform(-0.9, 0.9)
        bp = rng.uniform(-0.9, 0.9)
        b0 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        a0, a1 = rng.uniform(-2.0, 2.0, 2)
        B = scalar([-bm * b0, b0 * (1 + bm * bp), -b0 * bp], -1)
        fac = wh_factorize(B)
        ma = plus_part_of_bminus_inv_a(fac.b_minus, scalar([a0, a1]))
        ap = a_plus(fac.b_minus, ma)
        assert ma.coefficient(0)[0, 0] == pytest.approx(a1 * bm + a0, abs=1e-10)
        assert ma.coefficient(1)[0, 0] == pytest.approx(a1, abs=1e-10)
        assert abs(ma.coefficient(-1)).max() == 0.0
        assert ap.coefficient(-1)[0, 0] == pytest.approx(-a1 * bm**2 - a0 * bm, abs=1e-10)
        assert ap.coefficient(0)[0, 0] == pytest.approx(a0, abs=1e-10)
        assert ap.coefficient(1)[0, 0] == pytest.approx(a1, abs=1e-10)
    _passed(1, "scalar solution algebra")


def test_criterion_02_wiener_hopf_factorization():
    # quadratic oracle for B = 1/3 z^-1 + 1 + 1/2 z: matching coefficients
    # gives 6 b0^2 - 6 b0 + 1 = 0; keep the root with both factor zeros off
    # the unit circle
    b0 = (3 + np.sqrt(3)) / 6
    bm = -(1 / 3) / b0
    bp = -(1 / 2) / b0
    assert abs(bm) < 1 and abs(bp) < 1
    fac = wh_factorize(scalar([1 / 3, 1.0, 0.5], -1))
    assert fac.b_minus.coefficient(-1)[0, 0] == pytest.approx(-bm, abs=1e-8)
    assert fac.b_plus.coefficient(0)[0, 0] == pytest.approx(b0, abs=1e-8)
    assert fac.b_plus.coefficient(1)[0, 0] == pytest.approx(-b0 * bp, abs=1e-8)
    assert fac.residual <= 1e-10 * fac.scale
    # lam = 0 inputs degenerate exactly
    rng = np.random.default_rng(102)
    for _ in range(5):
        B = random_b_plus(rng, 2, 2)
        fac0 = wh_factorize(B)
        assert fac0.b_minus.min_lag == 0 and fac0.b_minus.max_lag == 0
        assert np.array_equal(fac0.b_minus.coefficient(0), np.eye(2))
        assert fac0.b_plus.allclose(B)
    _passed(2, "Wiener-Hopf factorization")


def test_criterion_03_observational_equivalence_oracles():
    base = Model(scalar([1.0]), scalar([1.0]), lam=1, kappa=1)
    bundle = solve_model(base, horizon=6)
    equivalent = [
        Model(scalar([1.0, 0.5]), scalar([1.0, 0.5]), lam=1, kappa=1),
        Model(scalar([1 / 3, 1.0, 0.5], -1), scalar([1.0, 0.5]), lam=1, kappa=1),
    ]
    for other in equivalent:
        k_eq, *_ = obs_equivalent(bundle, solve_model(other))
        s_eq, *_ = spectral_equivalent(bundle, solve_model(other), grid_size=64)
        assert k_eq and s_eq  # both oracles, agreement mandatory
    different = Model(scalar([1.0]), scalar([1.0, 0.5]), lam=1, kappa=1)
    k_eq, *_ = obs_equivalent(bundle, solve_model(different))
    s_eq, *_ = spectral_equivalent(bundle, solve_model(different), grid_size=64)
    assert not k_eq and not s_eq
    _passed(3, "equivalence oracles agree")


def test_criterion_04_equivalence_class_dimension():
    base = Model(scalar([1.0]), scalar([1.0]), lam=1, kappa=1)
    sys = build_ident_system(solve_model(base, horizon=6).transfer, 1, 1, 1, 1)
    assert equivalence_class_dim(sys) == 3

    rng = np.random.default_rng(104)
    generic_checked = 0
    while generic_checked < 10:
        model, *_ = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)
        bundle = solve_model(model)
        if abs(bundle.transfer.coefficient(1)[0, 0]) < 1e-3:
            continue
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
        assert equivalence_class_dim(sys) == 2
        generic_checked += 1

    hankel_bound_failures = 0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, n + 1))
        lam = int(rng.integers(0, 3))
        kappa = int(rng.integers(0, 3))
        model, *_ = make_valid_model(rng, n=n, m=m, lam=lam, kappa=kappa)
        bundle = solve_model(model)
        sys = build_ident_system(bundle.transfer, n, m, kappa, lam)
        assert sys.hankel_rank <= n * kappa
        if equivalence_class_dim(sys) < n * n * (1 + lam):
            hankel_bound_failures += 1
    assert hankel_bound_failures == 0
    _passed(4, "equivalence-class dimension")


def test_criterion_05_two_pin_identification():
    rng = np.random.default_rng(105)

    def run(model):
        bundle = solve_model(model, horizon=6)
        sys = build_ident_system(bundle.transfer, 1, 1, 1, 1)
        res = pins([("B", -1, 0, 0, model.B.coefficient(-1)[0, 0]),
                    ("A", 0, 0, 0, model.A.coefficient(0)[0, 0])], 1, 1, 1, 1)
        report = ident_test_affine(sys, res, model)
        return report, bundle.transfer.coefficient(1)[0, 0]

    # generic points: nonzero second impulse response is decisive
    checked = 0
    while checked < 10:
        model, *_ = make_valid_model(rng, n=1, m=1, lam=1, kappa=1)
        report, c1 = run(model)
        if abs(c1) < 1e-3:
            continue
        assert report.identified
        checked += 1

    # engineered c1 = 0: choose a1 so b_+ c0 + a1/b0 vanishes
    bm, bp, b0, a0 = 0.4, -0.5, 1.3, 1.0
    a1 = -bp * a0 / (1 + bm * bp)
    B = scalar([-bm * b0, b0 * (1 + bm * bp), -b0 * bp], -1)
    A = scalar([a0, a1])
    model = Model(B, A, lam=1, kappa=1)
    report, c1 = run(model)
    assert abs(c1) < 1e-12
    assert not report.identified

    # the white-noise point is not identified by the two pins
    report, c1 = run(Model(scalar([1.0]), scalar([1.0]), lam=1, kappa=1))
    assert abs(c1) == 0.0 and not report.identified
    _passed(5, "two-pin rank rule")


def _employment_spec(pin_first=False, domain=None):
    if pin_first:
        return {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                "params": ["theta2", "theta3"],
                "domain": domain or [[-3.0, -0.5], [-3.0, -0.5]],
                "B": {"-1": "1", "0": "-((theta3/theta2)+2)", "1": "1"},
                "A": {"0": "1/theta2"}}
    return {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
            "params": ["theta1", "theta2", "theta3"],
            "domain": [[0.05, 0.95], [-3.0, -0.5], [-3.0, -0.5]],
            "B": {"-1": "theta1", "0": "-((theta3/theta2)+1+theta1)", "1": "1"},
            "A": {"0": "1/theta2"}}


def test_criterion_06_generic_identification():
    two_pins = pins([("B", 1, 0, 0, 1.0), ("A", 1, 0, 0, 0.0)], 1, 1, 1, 1)
    report = generic_ident(parse_model(_employment_spec()), two_pins,
                           SamplerConfig(num_samples=48, seed=106, min_valid=16))
    assert report.verdict == "evidence_not_identified"
    assert report.samples_valid >= 16
    assert report.deficient_count == report.samples_valid

    three_pins = pins([("B", 1, 0, 0, 1.0), ("A", 1, 0, 0, 0.0),
                       ("B", -1, 0, 0, 1.0)], 1, 1, 1, 1)
    pm1 = parse_model(_employment_spec(pin_first=True))
    rep1 = generic_ident(pm1, three_pins, SamplerConfig(
        num_samples=8, seed=107, probe_points=((-2.0, -1.0),)))
    assert rep1.verdict == "generically_identified"
    assert rep1.witness[0] == pytest.approx([-2.0, -1.0])
    pm2 = parse_model(_employment_spec(pin_first=True,
                                       domain=[[0.8, 1.2], [-6.0, -4.9]]))
    rep2 = generic_ident(pm2, three_pins, SamplerConfig(
        num_samples=8, seed=108, probe_points=((1.0, -5.0),)))
    assert rep2.verdict == "generically_identified"
    assert rep2.witness[0] == pytest.approx([1.0, -5.0])

    # sampled transfer coefficients match the closed form -1/(t2 r2^(j+1))
    rng = np.random.default_rng(109)
    for _ in range(10):
        theta = np.array([rng.uniform(-3, -0.5), rng.uniform(-3, -0.5)])
        bundle = solve_model(eval_model(pm1, theta), horizon=6)
        s = theta[1] / theta[0] + 2.0
        r2 = (s + np.sqrt(s * s - 4.0)) / 2.0
        for j in range(7):
            assert bundle.transfer.coefficient(j)[0, 0] == pytest.approx(
                -1.0 / (theta[0] * r2 ** (j + 1)), abs=1e-8)
    _passed(6, "generic identification")


def test_criterion_07_solution_algebra_property_suite():
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, n + 1))
        lam = int(rng.integers(0, 3))
        kappa = int(rng.integers(0, 3))
        model, *_ = make_valid_model(rng, n=n, m=m, lam=lam, kappa=kappa)
        B = model.B.trimmed()
        A = model.A.trimmed()
        fac = wh_factorize(B)
        scale = max(1.0, B.max_abs(), A.max_abs())
        # (i) degree equalities for the factors
        assert fac.b_minus.min_lag == min(B.min_lag, 0)
        assert fac.b_plus.max_lag == B.max_lag
        # (ii) polynomial ma part with the degree of A
        ma = plus_part_of_bminus_inv_a(fac.b_minus, A)
        assert ma.min_lag >= 0
        assert ma.max_lag == A.max_lag
        # (iii) extended loading bounded below by min deg B, same top degree
        ap = a_plus(fac.b_minus, ma)
        assert ap.min_lag >= B.min_lag
        assert ap.max_lag == A.max_lag
        # (iv) its nonnegative-lag part is A itself
        assert ap.plus_part().allclose(A, atol=1e-9 * scale)
    _passed(7, "solution algebra property suite")


def _coprime(model):
    from ratex.polylab import lp_det_and_zeros
    zeros = lp_det_and_zeros(model.B)
    for z in zeros:
        stacked = np.hstack([model.B.value(z), model.A.value(z)])
        svals = np.linalg.svd(stacked, compute_uv=False)
        if svals[model.n - 1] < 1e-8 * svals[0]:
            return False
    return True


def test_criterion_08_hankel_rank_and_mcmillan_degree():
    rng = np.random.default_rng(108)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        kappa = int(rng.integers(1, 3))
        B = random_b_plus(rng, n, kappa, nonsingular_lead=True)
        ma = random_ma_part(rng, n, n, kappa)
        v = canonical_rotation(np.linalg.solve(B.coefficient(0), ma.coefficient(0)))
        model = Model(B, ma.right_multiplied(v), lam=0, kappa=kappa)
        if abs(np.linalg.det(model.B.coefficient(kappa))) < 1e-6 or not _coprime(model):
            continue
        bundle = solve_model(model)
        sys = build_ident_system(bundle.transfer, n, n, kappa, 0)
        assert sys.hankel_rank <= n * kappa
        assert sys.hankel_rank == n * kappa
        done += 1

    # hand-built rational transfer functions with known minimal degree
    def diag2(d1, d2):
        return LaurentMatrix.from_coeffs([np.eye(2), -np.diag([d1, d2])], 0)

    eye2 = LaurentMatrix.identity(2)
    nilp = LaurentMatrix.from_coeffs([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]], 0)
    cases = [
        # one autoregressive state
        (Model(scalar([1.0, -0.5]), scalar([1.0]), lam=0, kappa=1), 1),
        # one moving-average memory cell
        (Model(scalar([1.0]), scalar([1.0, 0.7]), lam=0, kappa=1), 1),
        # full cancellation: white noise in disguise
        (Model(scalar([1.0, -0.5]), scalar([1.0, -0.5]), lam=0, kappa=1), 0),
        # one of two autoregressive factors cancels
        (Model(scalar(list(np.convolve([1, -0.5], [1, 0.3]))),
               scalar([1.0, 0.3]), lam=0, kappa=2), 1),
        # coprime ARMA(2,2): both states survive
        (Model(scalar(list(np.convolve([1, -0.5], [1, 0.3]))),
               scalar(list(np.convolve([1, -0.2], [1, 0.4]))), lam=0, kappa=2), 2),
        # independent bivariate autoregressions
        (Model(diag2(0.5, 0.3), eye2, lam=0, kappa=1), 2),
        # equal poles still need one state per channel
        (Model(diag2(0.5, 0.5), eye2, lam=0, kappa=1), 2),
        # one active channel only
        (Model(diag2(0.5, 0.0), eye2, lam=0, kappa=1), 1),
        # nilpotent moving-average memory: a single Hankel direction
        (Model(eye2, nilp, lam=0, kappa=1), 1),
        # two-step scalar memory needs two states
        (Model(scalar([1.0]), scalar([1.0, 0.0, 0.5]), lam=0, kappa=2), 2),
    ]
    assert len(cases) == 10
    for model, delta in cases:
        bundle = solve_model(model)
        sys = build_ident_system(bundle.transfer, model.n, model.m, model.kappa, 0)
        assert sys.hankel_rank == delta, f"{model}: {sys.hankel_rank} != {delta}"
        # independent large-Hankel oracle on a longer expansion
        big = solve_model(model, horizon=26).transfer
        rows = [np.hstack([big.coefficient(i + j) for j in range(12)])
                for i in range(1, 13)]
        rank_big, _, _ = numerical_rank(np.vstack(rows))
        assert rank_big == delta
    _passed(8, "Hankel rank / minimal degree")


def test_criterion_09_structural_coefficient_crosscheck():
    rng = np.random.default_rng(109)
    agreements = 0
    done = 0
    while done < 50:
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
        agreements += int(a.identified == d.identified)
        done += 1
    assert agreements == 50
    _passed(9, "structural-coefficient cross-check")


def test_criterion_10_local_identification():
    rng = np.random.default_rng(110)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 3))
        lam = int(rng.integers(0, 2))
        kappa = int(rng.integers(0, 2))
        model, *_ = make_valid_model(rng, n=n, m=n, lam=lam, kappa=kappa)
        bundle = solve_model(model)
        sys = build_ident_system(bundle.transfer, n, n, kappa, lam)
        N = coeff_vec_length(n, n, kappa, lam)
        r = int(rng.integers(1, N + 1))
        R = rng.standard_normal((r, N))
        u = R @ model_coeff_vec(model)
        if not np.any(np.abs(u) > 1e-9):
            continue
        affine_report = ident_test_affine(sys, RestrictionSet.affine(R, u), model)
        local_report = local_ident(model, affine_as_nonlinear(R, u))
        assert local_report.locally_identified == affine_report.identified
        done += 1

    # squared pin: rank deficient but regularity fails, so no
    # non-identification claim is made
    model = Model(LaurentMatrix.constant([[2.0]]), LaurentMatrix.constant([[1.0]]),
                  lam=0, kappa=0)
    report = local_ident(model, _RS.nonlinear(
        lambda x: np.array([(x[1] - 1.0) ** 2]), 1))
    assert not report.locally_identified
    assert report.rank_locally_constant is False
    assert "inconclusive" in report.note
    _passed(10, "local identification")


def test_criterion_11_simulation_crosscheck():
    T = 100_000
    a = Model(scalar([1.0]), scalar([1.0]), lam=1, kappa=1)
    b = Model(scalar([1 / 3, 1.0, 0.5], -1), scalar([1.0, 0.5]), lam=1, kappa=1)
    bundle_a, bundle_b = solve_model(a), solve_model(b)
    gamma = autocovariances_from_spectrum(bundle_a, 60)

    ya = simulate(bundle_a, T, seed=111)
    yb = simulate(bundle_b, T, seed=111)
    acf_a = sample_autocovariances(ya, 5)
    acf_b = sample_autocovariances(yb, 5)

    g = gamma[:, 0, 0]
    padded = np.concatenate([g[::-1][:-1], g])  # lags -60..60

    def bartlett_se(h):
        var = 0.0
        for j in range(-50, 51):
            gj = padded[60 + j]
            gjh_p = padded[60 + j + h] if abs(j + h) <= 60 else 0.0
            gjh_m = padded[60 + j - h] if abs(j - h) <= 60 else 0.0
            var += gj * gj + gjh_p * gjh_m
        return np.sqrt(var / T)

    for h in range(6):
        band = 3.0 * bartlett_se(h)
        assert abs(acf_a[h][0, 0] - acf_b[h][0, 0]) <= band
        assert abs(acf_a[h][0, 0] - gamma[h][0, 0]) <= band
    _passed(11, "simulation cross-check")
