"""The chunked, sample-stacked generic identification against a per-sample oracle.

``sequential_generic`` runs the scalar pipeline once per draw and stops
at the first full-rank draw: eval_model -> solve_model -> rank(C_0) ->
_rank_drop_points -> canonical check -> build_ident_system -> ident_test_*.
Its EU verdicts come from wh_factorize, the factorization at one sample,
where no eigenvalue screen runs, so the screen that the stacked pipeline
runs on large lam = 0 chunks is checked against it too.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coeff_vec_index
from ratex.identcore import (
    RankReport,
    RestrictionSet,
    build_ident_system,
    coeff_vec_length,
    ident_test_affine,
    ident_test_equation,
)
from ratex import paramdsl
from ratex.numrank import DEFAULT_TOL_RANK
from ratex.paramdsl import (
    ASSUMPTION_NOTE,
    BORDERLINE_GAP,
    EVIDENCE_NOTE,
    EvalError,
    GenericReport,
    SamplerConfig,
    eval_model,
    generic_ident,
    parse_model,
)
from ratex.polylab import LaurentMatrix, SingularMatrixError, companion_stack, series_divide
from ratex.resolve import _rank_drop_points, is_canonical_staircase, rank_drop_stack, solve_model
from ratex.wienerhopf import BOUNDARY_TOL, FactorizationError, _screen_counts


def sequential_generic(pm, restrictions, config) -> GenericReport:
    """One sample at a time through the scalar callers."""
    rng = np.random.default_rng(config.seed)
    lo, hi = (pm.domain[:, 0], pm.domain[:, 1]) if pm.dim else (np.zeros(0), np.zeros(0))
    points = [np.asarray(p, dtype=float) for p in config.probe_points]
    points += [lo + (hi - lo) * rng.random(pm.dim) for _ in range(config.num_samples)]
    drawn = valid = deficient = borderline = 0
    witness = None
    invalid = {}
    for theta in points:
        if witness is not None:
            break
        drawn += 1
        try:
            model = eval_model(pm, theta)
        except EvalError:
            invalid["eval_error"] = invalid.get("eval_error", 0) + 1
            continue
        bundle, reason = _validate_point(model)
        if bundle is None:
            invalid[reason] = invalid.get(reason, 0) + 1
            continue
        try:
            sys = build_ident_system(bundle.transfer, model.n, model.m,
                                     model.kappa, model.lam, config.tol_rank)
        except SingularMatrixError:     # a kernel basis that is not all finite
            invalid["eu_failed: SingularMatrixError"] = \
                invalid.get("eu_failed: SingularMatrixError", 0) + 1
            continue
        valid += 1
        test = ident_test_equation if restrictions.kind == "equation" else ident_test_affine
        report = test(sys, restrictions, model, config.tol_rank)
        if report.identified:
            witness = (np.array(theta), report)
        elif report.gap_ratio >= BORDERLINE_GAP:
            borderline += 1
        else:
            deficient += 1
    notes = [ASSUMPTION_NOTE]
    if witness is not None:
        verdict = "generically_identified"
    elif valid >= config.min_valid and deficient == valid:
        verdict = "evidence_not_identified"
        notes.append(EVIDENCE_NOTE)
    else:
        verdict = "inconclusive"
    return GenericReport(samples_drawn=drawn, samples_valid=valid,
                         full_rank_found=witness is not None, witness=witness,
                         deficient_count=deficient, borderline_count=borderline,
                         verdict=verdict, invalid_reasons=invalid, notes=tuple(notes))


def _validate_point(model):
    try:
        bundle = solve_model(model)
    except (FactorizationError, SingularMatrixError) as exc:
        return None, f"eu_failed: {type(exc).__name__}"
    if bundle.c0_rank < model.m:
        return None, "c0_rank_deficient"
    try:
        inside, _ = _rank_drop_points(bundle.ma_part)
    except Exception:
        return None, "not_invertible"
    if inside:
        return None, "not_invertible"
    if not is_canonical_staircase(bundle.transfer.coefficient(0)):
        return None, "c0_not_canonical"
    return bundle, None


def assert_same_report(got, want):
    for name in ("samples_drawn", "samples_valid", "full_rank_found", "deficient_count",
                 "borderline_count", "verdict", "invalid_reasons", "notes"):
        assert getattr(got, name) == getattr(want, name), name
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert np.array_equal(got.witness[0], want.witness[0])     # bitwise
        a, b = got.witness[1], want.witness[1]
        assert (a.numerical_rank, a.required_rank, a.verdict, a.matrix_shape, a.warnings) == \
               (b.numerical_rank, b.required_rank, b.verdict, b.matrix_shape, b.warnings)
        scale = np.max(np.abs(b.singular_values))
        assert np.max(np.abs(a.singular_values - b.singular_values)) <= 1e-12 * scale


def pins(spec, n, m, kappa, lam, equation=None):
    R = np.zeros((len(spec), coeff_vec_length(n, m, kappa, lam, equation is not None)))
    for k, (block, lag, row, col, _) in enumerate(spec):
        R[k, coeff_vec_index(block, lag, row, col, n, m, kappa, lam, equation is not None)] = 1.0
    u = [val for *_, val in spec]
    if equation is None:
        return RestrictionSet.affine(R, u)
    return RestrictionSet.for_equation(equation, R, u)


def employment(domain):
    """The three-parameter employment map; a theta2 range that straddles 0
    crosses the pole of 1/theta2."""
    return parse_model({
        "n": 1, "m": 1, "lambda": 1, "kappa": 1,
        "params": ["theta1", "theta2", "theta3"], "domain": domain,
        "B": {"-1": "theta1", "0": "-((theta3/theta2)+1+theta1)", "1": "1"},
        "A": {"0": "1/theta2"}})


def varma(b_half, a0_lo, a1_half):
    """Bivariate VARMA(1,1) with B_0 = I; wide boxes give EU failures,
    non-canonical or rank-deficient C_0 and non-invertible MA parts."""
    return parse_model({
        "n": 2, "m": 2, "lambda": 0, "kappa": 1,
        "params": [f"t{i}" for i in range(1, 12)],
        "domain": [[-b_half, b_half]] * 4 + [[a0_lo, 1.5], [-0.5, 0.5], [a0_lo, 1.5]]
                  + [[-a1_half, a1_half]] * 4,
        "B": {"0": [[1, 0], [0, 1]], "1": [["t1", "t2"], ["t3", "t4"]]},
        "A": {"0": [["t5", 0], ["t6", "t7"]], "1": [["t8", "t9"], ["t10", "t11"]]}})


EMPLOYMENT_PINS = {
    "two": [("B", 1, 0, 0, 1.0), ("A", 1, 0, 0, 0.0)],
    "three": [("B", 1, 0, 0, 1.0), ("A", 1, 0, 0, 0.0), ("B", -1, 0, 0, 0.5)],
}
VARMA_PINS = [("B", 0, 0, 0, 1.0), ("B", 0, 1, 1, 1.0), ("B", 0, 0, 1, 0.0),
              ("B", 0, 1, 0, 0.0), ("A", 0, 0, 1, 0.0)]


@st.composite
def employment_case(draw):
    lo2 = draw(st.floats(-3.0, -0.05))
    hi2 = draw(st.floats(0.05, 3.0))
    domain = [[0.05, draw(st.floats(0.5, 1.6))], [lo2, hi2], [-3.0, draw(st.floats(-0.5, 3.0))]]
    restrictions = pins(EMPLOYMENT_PINS[draw(st.sampled_from(sorted(EMPLOYMENT_PINS)))],
                        1, 1, 1, 1)
    probe = st.tuples(st.floats(-0.5, 2.0), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    probes = draw(st.lists(probe, max_size=3))
    probes += draw(st.sampled_from([[], [(0.5, 0.0, -1.0)]]))      # theta2 on the pole
    return employment(domain), restrictions, probes


@st.composite
def varma_case(draw):
    pm = varma(draw(st.floats(0.3, 1.3)), draw(st.floats(-0.6, 0.5)), draw(st.floats(0.05, 1.2)))
    kind = draw(st.sampled_from(["three", "five", "equation"]))
    if kind == "equation":
        restrictions = pins([("B", 0, 0, 0, 1.0), ("B", 0, 0, 1, 0.0), ("A", 0, 0, 1, 0.0)],
                            2, 2, 1, 0, equation=1)
    else:
        restrictions = pins(VARMA_PINS[:3] if kind == "three" else VARMA_PINS, 2, 2, 1, 0)
    return pm, restrictions, []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=st.one_of(employment_case(), varma_case()),
       seed=st.integers(0, 2 ** 20), num_samples=st.integers(0, 40),
       min_valid=st.integers(1, 20))
def test_stacked_report_equals_sequential_oracle(case, seed, num_samples, min_valid):
    pm, restrictions, probes = case
    config = SamplerConfig(num_samples=num_samples, seed=seed, min_valid=min_valid,
                           probe_points=tuple(probes))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)       # out-of-box probes
        assert_same_report(generic_ident(pm, restrictions, config),
                           sequential_generic(pm, restrictions, config))


# -- chunk semantics ---------------------------------------------------------

# Scalar ARMA(1,1) B = 1 + b z, A = 1 + a z with B_0 pinned: identified
# unless a = b (B and A share their factor and C_j = 0 for j >= 1).
ARMA = {"n": 1, "m": 1, "lambda": 0, "kappa": 1, "params": ["a", "b"],
        "domain": [[-0.9, 0.9], [-0.9, 0.9]], "B": {"0": "1", "1": "b"}, "A": {"0": "1", "1": "a"}}
WITNESS, DEFICIENT = (0.2, -0.4), (0.3, 0.3)
EU_FAIL, NOT_INVERTIBLE = (0.1, 1.5), (1.5, 0.1)     # both outside the box


def arma_scan(probes, num_samples=0):
    config = SamplerConfig(num_samples=num_samples, seed=0, probe_points=tuple(probes))
    return generic_ident(parse_model(ARMA), pins([("B", 0, 0, 0, 1.0)], 1, 1, 1, 0), config)


def test_point_kinds():
    assert arma_scan([WITNESS]).full_rank_found
    assert arma_scan([DEFICIENT]).deficient_count == 1
    with pytest.warns(UserWarning, match="outside the declared domain"):
        assert arma_scan([EU_FAIL]).invalid_reasons == {"eu_failed: WrongStableCount": 1}
    with pytest.warns(UserWarning, match="outside the declared domain"):
        assert arma_scan([NOT_INVERTIBLE]).invalid_reasons == {"not_invertible": 1}


def assert_counts_stop_at_witness(before):
    after = [EU_FAIL, DEFICIENT, NOT_INVERTIBLE] * 4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = arma_scan(before + [WITNESS] + after, num_samples=8)
    assert report.samples_drawn == len(before) + 1
    assert report.witness[0].tolist() == list(WITNESS)
    assert report.samples_valid == before.count(DEFICIENT) + 1
    assert report.deficient_count == before.count(DEFICIENT)
    assert report.borderline_count == 0
    expected = {}
    for point, reason in ((EU_FAIL, "eu_failed: WrongStableCount"),
                          (NOT_INVERTIBLE, "not_invertible")):
        if point in before:
            expected[reason] = before.count(point)
    assert report.invalid_reasons == expected
    # only the out-of-box points scanned before the witness warn
    outside = sum(p in (EU_FAIL, NOT_INVERTIBLE) for p in before)
    assert sum("outside the declared domain" in str(w.message) for w in caught) == outside
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        want = sequential_generic(parse_model(ARMA), pins([("B", 0, 0, 0, 1.0)], 1, 1, 1, 0),
                                  SamplerConfig(num_samples=8, seed=0,
                                                probe_points=tuple(before + [WITNESS] + after)))
    assert_same_report(report, want)


@pytest.mark.parametrize("index", [0, 1, 2, 4, 6, 9])
def test_counts_stop_at_witness(index):
    # the first point is valid and deficient, so the chunks hold [0] and
    # then every other point: index 0 is a first-draw witness, 1 opens the
    # big chunk and the others sit inside it; invalid and deficient points
    # follow the witness
    before = [DEFICIENT, EU_FAIL, DEFICIENT, NOT_INVERTIBLE, DEFICIENT, DEFICIENT,
              EU_FAIL, NOT_INVERTIBLE, DEFICIENT][:index]
    assert_counts_stop_at_witness(before)


@pytest.mark.parametrize("before", [
    [EU_FAIL, EU_FAIL, DEFICIENT],                  # chunks [0], [1, 2], then the rest
    [EU_FAIL, NOT_INVERTIBLE, EU_FAIL, DEFICIENT],  # witness inside chunk [3 .. 6]
    [NOT_INVERTIBLE] * 7 + [DEFICIENT, EU_FAIL],    # witness inside chunk [7 .. 14]
], ids=["after-chunk-2", "inside-chunk-4", "inside-chunk-8"])
def test_counts_stop_at_witness_after_invalid_points(before):
    # invalid points keep the chunks doubling until a valid one is scanned
    assert_counts_stop_at_witness(before)


def scan_chunk_sizes(monkeypatch, scan):
    """The number of points in each _scan_chunk call while ``scan`` runs."""
    sizes = []
    inner = paramdsl._scan_chunk

    def recording(pm, restrictions, thetas, tol_rank):
        sizes.append(len(thetas))
        return inner(pm, restrictions, thetas, tol_rank)

    monkeypatch.setattr(paramdsl, "_scan_chunk", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = scan()
    return sizes, report


# the ARMA map with A's lag-1 coefficient tied to B's: deficient everywhere
ARMA_DEFICIENT = {**ARMA, "A": {"0": "1", "1": "b"}}


def test_chunk_schedule(monkeypatch):
    sizes, report = scan_chunk_sizes(monkeypatch, lambda: arma_scan([WITNESS], num_samples=64))
    assert (sizes, report.samples_drawn) == ([1], 1)
    # invalid points keep the chunks doubling; the first valid deficient
    # point (in the chunk of 4) sends every remaining point in one chunk
    probes = [EU_FAIL, NOT_INVERTIBLE, EU_FAIL, EU_FAIL, DEFICIENT, DEFICIENT, DEFICIENT]
    sizes, report = scan_chunk_sizes(monkeypatch, lambda: arma_scan(probes, num_samples=20))
    assert sizes == [1, 2, 4, 20]
    assert report.samples_drawn == len(probes) + 1 and report.full_rank_found
    config = SamplerConfig(num_samples=64, seed=3)
    restrictions = pins([("B", 0, 0, 0, 1.0)], 1, 1, 1, 0)
    sizes, report = scan_chunk_sizes(monkeypatch, lambda: generic_ident(
        parse_model(ARMA_DEFICIENT), restrictions, config))
    assert sizes == [1, 63]
    assert (report.deficient_count, report.verdict) == (64, "evidence_not_identified")
    assert_same_report(report, sequential_generic(parse_model(ARMA_DEFICIENT),
                                                  restrictions, config))


def test_out_of_box_probe_warns_once_scanned():
    with pytest.warns(UserWarning, match="outside the declared domain"):
        report = arma_scan([DEFICIENT, EU_FAIL, WITNESS])
    assert report.samples_drawn == 3


# -- non-finite values ---------------------------------------------------------


def test_overflow_through_product_and_power_is_eval_error():
    spec = {"n": 1, "m": 1, "lambda": 0, "kappa": 1, "params": ["a"],
            "domain": [[0.5, 2.0]], "B": {"0": "1", "1": "a*1e200*1e200"}, "A": {"0": "1"}}
    for entry in ("a*1e200*1e200", "(a*1e200)^2"):
        spec["B"]["1"] = entry
        pm = parse_model(spec)
        report = generic_ident(pm, pins([("B", 0, 0, 0, 1.0)], 1, 1, 1, 0),
                               SamplerConfig(num_samples=5, seed=1))
        assert report.invalid_reasons == {"eval_error": 5}
        with pytest.raises(EvalError):
            eval_model(pm, [1.0])


def test_from_coeffs_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LaurentMatrix.from_coeffs([[[1.0]], [[bad]]], 0)


# -- a stage that fails on some samples ----------------------------------------

# A stacked stage never raises because of one sample: a failing sample gets
# NaN (series_divide), a rank drop at z = 0 (rank_drop_stack) or stays
# undecided (_screen_counts), and every other sample gets the bits it gets alone.


def same(got, want):
    """Equal dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()


STACKS = dict(seed=st.integers(0, 2 ** 32 - 1), S=st.integers(1, 5),
              planted=st.sets(st.integers(0, 4), max_size=3))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 2), lg=st.integers(1, 3), horizon=st.integers(0, 6),
       **STACKS)
def test_series_divide_lanes_are_independent(seed, S, planted, n, c, lg, horizon):
    rng = np.random.default_rng(seed)
    g, rhs = rng.standard_normal((S, lg, n, n)), rng.standard_normal((S, 2, n, c))
    planted = sorted(p for p in planted if p < S)
    g[planted, 0, :, 0] = 0.0                   # a zero column: g_0 exactly singular
    out = series_divide(g, rhs, horizon)
    for s in range(S):
        if s in planted:
            assert np.isnan(out[s]).all()
        else:
            assert same(out[s], series_divide(g[s:s + 1], rhs[s:s + 1], horizon)[0])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(1, 3), extra=st.integers(0, 1), L=st.integers(2, 3), **STACKS)
def test_rank_drop_stack_lanes_are_independent(seed, S, planted, n, extra, L):
    rng = np.random.default_rng(seed)
    m = max(n - extra, 1)
    M = rng.standard_normal((S, L, n, m))
    planted = sorted(p for p in planted if p < S)
    M[planted, 0] = 0.0                         # Q_0 = U'M_0 = 0
    z, hit = rank_drop_stack(M)
    for s in range(S):
        if s in planted:
            assert (z[s] == 0).all() and hit[s].all()
        else:
            alone = rank_drop_stack(M[s:s + 1])
            assert same(z[s], alone[0][0]) and same(hit[s], alone[1][0])


# B(z) = z^2 I + z [[0, 1], [0, 0]]: exactly singular eigenvectors of E^-1 A
DEFECTIVE = np.array([np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]], np.eye(2)])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(**STACKS)
def test_screen_lanes_are_independent(seed, S, planted):
    rng = np.random.default_rng(seed)
    Bc = rng.standard_normal((S, 3, 2, 2))
    planted = sorted(p for p in planted if p < S)
    Bc[planted] = DEFECTIVE
    A, E = companion_stack(Bc.swapaxes(2, 3))
    s_E = np.linalg.svd(E, compute_uv=False)
    got = _screen_counts(A, E, s_E, BOUNDARY_TOL)
    for s in range(S):
        if s in planted:
            assert not got[3][s]
        else:
            alone = _screen_counts(A[s:s + 1], E[s:s + 1], s_E[s:s + 1], BOUNDARY_TOL)
            assert all(same(x[s], y[0]) for x, y in zip(got, alone))


# ARMA points: valid deficient, EU failure, valid deficient, not invertible,
# valid deficient, the witness, and a full-rank point after it
LANE_POINTS = [(0.3, 0.3), EU_FAIL, (-0.2, -0.2), NOT_INVERTIBLE, (0.6, 0.6), WITNESS,
               (0.1, 0.5)]


# The ARMA map with A scaled by s: at s = 1 the ARMA points, at s = 1e308
# and a - b = 1.8 a C_1 = s (a - b) that overflows, and at s = 8.7e307 with
# a - b = 1.99 a finite C_j near the largest float whose kernel basis
# overflows; both fail as "eu_failed: SingularMatrixError".
ARMA_SCALED = {**ARMA, "params": ["a", "b", "s"], "domain": ARMA["domain"] + [[1.0, 1.0]],
               "A": {"0": "s", "1": "s*a"}}
OVERFLOW = {"solution": (0.9, -0.9, 1e308), "kernel": (1.0, -0.99, 8.7e307)}


def same_outcome(got, want):
    if not isinstance(want, RankReport):
        return got == want
    fields = ("numerical_rank", "required_rank", "verdict", "matrix_shape", "warnings",
              "gap_ratio")
    return (isinstance(got, RankReport)
            and all(getattr(got, f) == getattr(want, f) for f in fields)
            and same(got.singular_values, want.singular_values))


@pytest.mark.parametrize("where", sorted(OVERFLOW))
@pytest.mark.parametrize("chosen", [0, 3, 5, 7])
def test_an_overflowing_draw_is_rejected_alone(chosen, where):
    pm, restrictions = parse_model(ARMA_SCALED), pins([("B", 0, 0, 0, 1.0)], 1, 1, 1, 0)
    points = [point + (1.0,) for point in LANE_POINTS]
    want = paramdsl._scan_chunk(pm, restrictions, np.array(points), DEFAULT_TOL_RANK)
    points.insert(chosen, OVERFLOW[where])
    # p_norm squares the kernel draw's entries past the largest float (CHANGES.md FOUND)
    with np.errstate(over="ignore"):
        got = paramdsl._scan_chunk(pm, restrictions, np.array(points), DEFAULT_TOL_RANK)
        alone = paramdsl._scan_chunk(pm, restrictions, np.array([OVERFLOW[where]] * 2),
                                     DEFAULT_TOL_RANK)
    assert got[chosen] == "eu_failed: SingularMatrixError"
    assert alone == ["eu_failed: SingularMatrixError"] * 2
    for g, w in zip(got[:chosen] + got[chosen + 1:], want):
        assert same_outcome(g, w), (g, w)
