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
from ratex.polylab import LaurentMatrix, SingularMatrixError
from ratex.resolve import _rank_drop_points, is_canonical_staircase, solve_model
from ratex.wienerhopf import FactorizationError


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
        valid += 1
        sys = build_ident_system(bundle.transfer, model.n, model.m,
                                 model.kappa, model.lam, config.tol_rank)
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


# -- a stage that fails on one sample ------------------------------------------

# ARMA points: valid deficient, EU failure, valid deficient, not invertible,
# valid deficient, the witness, and a full-rank point after it
LANE_POINTS = [(0.3, 0.3), EU_FAIL, (-0.2, -0.2), NOT_INVERTIBLE, (0.6, 0.6), WITNESS,
               (0.1, 0.5)]


def same_outcome(got, want):
    if not isinstance(want, RankReport):
        return got == want
    fields = ("numerical_rank", "required_rank", "verdict", "matrix_shape", "warnings")
    return (isinstance(got, RankReport)
            and all(getattr(got, f) == getattr(want, f) for f in fields)
            and np.allclose(got.singular_values, want.singular_values, rtol=0.0, atol=1e-12))


@pytest.mark.parametrize("chosen", [0, 2, 4, 6])
@pytest.mark.parametrize("stage, error, reason", [
    ("solve_stack", SingularMatrixError, "eu_failed: SingularMatrixError"),
    ("rank_drop_stack", np.linalg.LinAlgError, "not_invertible")])
def test_a_stage_failing_on_one_draw_rejects_that_draw_alone(monkeypatch, chosen, stage,
                                                             error, reason):
    # the stage raises on every stack that holds the chosen draw, which it
    # knows by the lag-1 coefficient of B_plus = B (solve_stack) or of
    # M = A (rank_drop_stack); _lanewise then runs it one draw at a time
    pm, restrictions = parse_model(ARMA), pins([("B", 0, 0, 0, 1.0)], 1, 1, 1, 0)
    thetas = np.array(LANE_POINTS)
    want = paramdsl._scan_chunk(pm, restrictions, thetas, DEFAULT_TOL_RANK)
    a, b = LANE_POINTS[chosen]
    inner, sizes = getattr(paramdsl, stage), []

    def failing(*stacks):
        lag1 = stacks[1][:, 1, 0, 0] if stage == "solve_stack" else stacks[0][:, 1, 0, 0]
        sizes.append(len(lag1))
        if np.any(lag1 == (b if stage == "solve_stack" else a)):
            raise error("planted failure")
        return inner(*stacks)

    monkeypatch.setattr(paramdsl, stage, failing)
    got = paramdsl._scan_chunk(pm, restrictions, thetas, DEFAULT_TOL_RANK)
    assert sizes[0] > 1 and set(sizes[1:]) == {1} and len(sizes) == 1 + sizes[0]
    assert got[chosen] == reason
    for k, (g, w) in enumerate(zip(got, want)):
        if k != chosen:
            assert same_outcome(g, w), (k, g, w)


@pytest.mark.parametrize("stage, error, reason", [
    ("solve_stack", SingularMatrixError, "eu_failed: SingularMatrixError"),
    ("rank_drop_stack", np.linalg.LinAlgError, "not_invertible")])
def test_a_stage_failing_on_every_draw_rejects_them_all(monkeypatch, stage, error, reason):
    # _lanewise runs the stage on each draw alone, none passes, and the
    # stage's outputs are those of an empty stack
    pm, restrictions = parse_model(ARMA), pins([("B", 0, 0, 0, 1.0)], 1, 1, 1, 0)
    thetas = np.array(LANE_POINTS)
    want = paramdsl._scan_chunk(pm, restrictions, thetas, DEFAULT_TOL_RANK)
    inner, sizes = getattr(paramdsl, stage), []

    def failing(*stacks):
        sizes.append(len(stacks[0]))
        if len(stacks[0]):
            raise error("planted failure")
        return inner(*stacks)

    monkeypatch.setattr(paramdsl, stage, failing)
    got = paramdsl._scan_chunk(pm, restrictions, thetas, DEFAULT_TOL_RANK)
    assert sizes == [6] + [1] * 6 + [0]
    # EU_FAIL (draw 1) fails the factorization before either stage
    assert want[1] == "eu_failed: WrongStableCount"
    assert got == [want[1] if k == 1 else reason for k in range(len(thetas))]
