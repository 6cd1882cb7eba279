"""Deep-parameter model maps theta -> (B(theta), A(theta)) and the sampled
generic / local identification drivers built on them.

The expression language (:mod:`ratex.exprs`) is deliberately rational:
literals, parameter names, + - * /, unary minus, and integer powers.
Rational maps are analytic on their domain, which is what the
generic-identification sampling logic needs; a single full-rank sample
point certifies generic identification, while rank deficiency everywhere
can only be evidenced, never proven, by sampling.  Report wording keeps
that asymmetry explicit.

The entries compile into one flat program of :mod:`ratex.exprs`, with
the exact Jacobian by reverse accumulation, so the local identification
test ranks an exact Jacobian for compiled expressions; central
differences (:func:`fd_jacobian`) are used only for an opaque residual
callable.

Generic identification stacks samples.  The draws go through the pipeline
in draw-order chunks: the same walk evaluates a whole chunk at once (one
array of values per parameter), and every later stage takes coefficient
stacks with a leading sample axis, dropping invalid samples as it goes.
The factorization (:func:`~ratex.wienerhopf.wh_factorize_stack`), the
series divisions, the rank tests and the canonical-form check each run once
per chunk, the split of the companion pencils at the unit circle included.
The scan stops at the first full-rank sample, and the counts are those of
scanning the samples one by one; the scalar entry points (solve_model,
build_ident_system, ident_test_*) run the same kernels at one sample.

The chunk sizes follow from the generic-rank dichotomy.  On a connected
domain the identification rank of an analytic map takes its maximum on an
open dense set of full measure, so a scan almost surely either finds its
witness at the first valid draw or sees rank-deficient draws everywhere.
While no valid draw has been scanned the chunks double (1, 2, 4, ...),
because invalid draws say nothing about the generic rank; once a valid
draw is rank deficient, the next chunk holds every remaining point.  So a
first-draw witness costs one sample, and a scan of deficient draws pays
the per-chunk cost about twice.
"""

from __future__ import annotations

import json
import warnings as _warnings
from dataclasses import dataclass, replace

import numpy as np

from .exprs import EvalError, ExprParser, ExprProgram, ModelFileError, ParseError
from .identcore import (
    EquationBlocks,
    InputError,
    RankReport,
    RestrictionSet,
    _ident_test,
    check_test_kind,
    coeff_vec,
    kernel_bases,
    kernel_rank_stack,
    lane_report,
    membership,
    membership_warnings,
    model_coeff_vec,
    model_ident_system,
    p_norm,
    p_shape,
    toeplitz_hankel,
)
from .numrank import DEFAULT_TOL_RANK, stacked_rank
from .polylab import LaurentMatrix, Model, trim_dust
from .resolve import (
    CF_BOUNDARY_MARGIN,
    canonical_staircase_mask,
    default_horizon,
    rank_drop_stack,
    solve_stack,
)
from .wienerhopf import wh_factorize_stack

BORDERLINE_GAP = 0.1  # deficient samples within 10x of the rank cutoff


# -- parametrized models -----------------------------------------------------


@dataclass(frozen=True)
class ParamMap:
    """Parsed map theta -> (B(theta), A(theta)) with a sampling box.

    ``program`` evaluates every entry of the file's B and A blocks, in file
    order, against theta positions; ``slots`` holds each entry's index in
    the flattened coefficient stacks [B | A] (:func:`_coeff_stacks`).
    The program is the entries' one representation: no expression trees
    are kept.
    """

    param_names: tuple
    domain: np.ndarray            # (d, 2) finite bounds
    n: int
    m: int
    lam: int
    kappa: int
    program: ExprProgram
    slots: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.param_names)


def json_typed(value, kind: type, label: str):
    """``value`` if it is a JSON object (``kind`` dict) or array (list)."""
    if not isinstance(value, kind):
        raise ModelFileError(f"{label} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def json_int(value, label: str) -> int:
    """A JSON number with an integral value, as an int."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ModelFileError(f"{label} must be an integer, got {value!r}")


def json_array(value, dtype, label: str) -> np.ndarray:
    """Nested JSON arrays as one numpy array of ``dtype``."""
    try:
        return np.array(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{label}: {exc}") from exc


class _RepeatedKeys(dict):
    """A JSON object that gives a key more than once: the last value of
    each key, as json keeps it, but every pair, in file order, from
    ``items()``."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        self.pairs = pairs

    def items(self):
        return self.pairs


def json_object(pairs: list) -> dict:
    """``object_pairs_hook`` of model files, so that :func:`decode_lag_blocks`
    sees a lag key given twice literally, which a plain dict would drop."""
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else _RepeatedKeys(pairs)


HEADER_FIELDS = ("n", "m", "lambda", "kappa")


def decode_lag_blocks(spec: dict, dtype, convert):
    """The header and lag blocks of a model file, either form (grammar:
    :mod:`ratex.modelio`).  Each block becomes one ``dtype`` array of its
    shape, then ``convert(block, "B[lag]")``.  Returns ((n, m, lam, kappa),
    B map, A map), each map lag -> converted block in file order."""
    for key in HEADER_FIELDS:
        if key not in spec:
            raise ModelFileError(f"missing required field {key!r}")
    n, m, lam, kappa = (json_int(spec[key], key) for key in HEADER_FIELDS)
    if min(n, m) < 1 or min(lam, kappa) < 0:
        raise ModelFileError("n and m must be at least 1, lambda and kappa at least 0")
    maps = []
    for key, cols, lo in (("B", n, -lam), ("A", m, 0)):
        blocks, keys = {}, {}
        for lag_key, raw in json_typed(spec.get(key, {}), dict, key).items():
            try:
                lag = int(lag_key)
            except ValueError:
                raise ModelFileError(f"{key} lag key {lag_key!r} is not an integer") from None
            if not lo <= lag <= kappa:
                raise ModelFileError(f"{key} lag {lag} outside {lo}..{kappa}")
            if lag in keys:
                raise ModelFileError(f"{key} lag {lag} given twice "
                                     f"(keys {keys[lag]!r} and {lag_key!r})")
            keys[lag] = lag_key
            label = f"{key}[{lag}]"
            if (n, cols) == (1, 1) and isinstance(raw, (int, float, str)):
                raw = [[raw]]  # the scalar shorthand of a 1 x 1 block
            block = json_array(raw, dtype, label)
            if block.shape != (n, cols):
                raise ModelFileError(f"{label}: shape {block.shape} != ({n}, {cols})")
            blocks[lag] = convert(block, label)
        maps.append(blocks)
    return (n, m, lam, kappa), maps[0], maps[1]


def parse_model(spec) -> ParamMap:
    """Build a ParamMap from JSON text or an already-decoded mapping: the
    parametrized form of :mod:`ratex.modelio`, with the header inside.
    The entries of all blocks parse in one pass; every name is resolved
    once the parameter names are known."""
    if isinstance(spec, (str, bytes)):
        spec = json.loads(spec, object_pairs_hook=json_object)
    sources, labels = [], []

    def cells(block: np.ndarray, label: str) -> int:
        """Each entry of a block, in row-major order, as the next source to
        parse: a number (its literal) or a string.  Returns the number of
        the block's first expression."""
        first = len(sources)
        for i, row in enumerate(block.tolist(), 1):
            for j, cell in enumerate(row, 1):
                if not isinstance(cell, (str, int, float)):
                    raise ModelFileError(f"{label}[{i}][{j}]: entry must be a number or a "
                                         f"string, got {cell!r}")
                sources.append(cell)
                labels.append(f"{label}[{i}][{j}]")
        return first

    parser = ExprParser()
    try:
        (n, m, lam, kappa), b_exprs, a_exprs = decode_lag_blocks(spec, object, cells)
    except ModelFileError:
        parser.parse(sources, labels)   # a syntax error in an earlier entry comes first
        raise
    parser.parse(sources, labels)
    names = tuple(json_typed(spec.get("params", []), list, "params"))
    if not all(isinstance(name, str) for name in names):
        raise ParseError("parameter names must be strings")
    if len(set(names)) != len(names):
        raise ParseError("duplicate parameter names")
    domain = json_array(spec.get("domain", [[-1.0, 1.0]] * len(names)), float, "domain")
    if domain.size != 2 * len(names):
        raise ParseError(f"domain has {domain.size} bounds for {len(names)} parameters, "
                         "expected one [lo, hi] box each")
    domain = domain.reshape(-1, 2)
    if not np.all(np.isfinite(domain)) or np.any(domain[:, 0] > domain[:, 1]):
        raise ParseError("domain bounds must be finite with lo <= hi")
    positions = {name: k for k, name in enumerate(names)}
    for name in parser.names:
        if name not in positions:
            raise ParseError(f"unknown identifier '{name}'")
    # a block's entries are consecutive expressions and consecutive slots
    slots, offset = [0] * len(sources), 0
    for firsts, cols, lo in ((b_exprs, n, -lam), (a_exprs, m, 0)):
        for lag, first in firsts.items():
            start = offset + (lag - lo) * n * cols
            slots[first:first + n * cols] = range(start, start + n * cols)
        offset += (kappa - lo + 1) * n * cols
    return ParamMap(param_names=names, domain=domain, n=n, m=m, lam=lam, kappa=kappa,
                    program=parser.compile([positions[name] for name in parser.names]),
                    slots=np.array(slots, dtype=int))


def eval_model(pm: ParamMap, theta) -> Model:
    """Evaluate the map at a parameter point; deterministic in theta.
    Raises EvalError when an entry fails or is not finite."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (pm.dim,):
        raise InputError(f"theta must have {pm.dim} entries")
    if _outside(pm, theta[None])[0]:
        _warnings.warn(OUTSIDE_WARNING)
    values = pm.program.values(theta)
    if not np.all(np.isfinite(values)):
        raise EvalError("non-finite coefficient value")
    B, A = _coeff_stacks(pm, values[None])
    return Model(LaurentMatrix.from_coeffs(B[0], -pm.lam), LaurentMatrix.from_coeffs(A[0], 0),
                 lam=pm.lam, kappa=pm.kappa)


OUTSIDE_WARNING = "theta outside the declared domain box"


def _outside(pm: ParamMap, thetas: np.ndarray) -> np.ndarray:
    """Which rows of an (S, d) array of points lie outside the domain box."""
    return ((thetas < pm.domain[:, 0]) | (thetas > pm.domain[:, 1])).any(axis=1)


def _coeff_stacks(pm: ParamMap, values: np.ndarray):
    """Entry values (S, K) -> raw coefficient stacks of B (S, lam+kappa+1, n, n)
    at lags -lam..kappa and A (S, kappa+1, n, m) at lags 0..kappa."""
    nb = (pm.kappa + pm.lam + 1) * pm.n * pm.n
    flat = np.zeros((len(values), nb + (pm.kappa + 1) * pm.n * pm.m))
    flat[:, pm.slots] = values
    return (flat[:, :nb].reshape(len(values), -1, pm.n, pm.n),
            flat[:, nb:].reshape(len(values), -1, pm.n, pm.m))


# -- generic identification by sampling -------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    num_samples: int = 64
    seed: int = 0
    min_valid: int = 16
    probe_points: tuple = ()
    tol_rank: float = DEFAULT_TOL_RANK


ASSUMPTION_NOTE = ("domain connectedness and injectivity of the parameter map "
                   "are user-asserted assumptions, not verified numerically")
EVIDENCE_NOTE = ("every valid sample produced a rank-deficient test matrix; "
                 "this is numerical evidence of non-identification on the sampled "
                 "region, not a proof")


@dataclass(frozen=True)
class GenericReport:
    samples_drawn: int
    samples_valid: int
    full_rank_found: bool
    witness: tuple | None          # (theta, RankReport)
    deficient_count: int
    borderline_count: int
    verdict: str                   # generically_identified | evidence_not_identified | inconclusive
    invalid_reasons: dict
    notes: tuple


def generic_ident(pm: ParamMap, restrictions: RestrictionSet,
                  config: SamplerConfig | None = None) -> GenericReport:
    """Sample the domain box and hunt for a single full-rank witness.

    Probe points run first (in order), then uniform draws; the scan stops
    at the first full-rank sample.  Rank-deficient samples whose margin is
    within 10x of the cutoff count as borderline, not as evidence.

    The points go through :func:`_scan_chunk` in draw order.  Until a valid
    sample has been scanned the chunks hold 1, 2, 4, ... points, so a
    witness on the first draw costs one sample; after a valid rank-deficient
    sample, the next chunk holds all the remaining points, since on a
    connected domain deficiency at one valid draw almost surely means
    deficiency at all (see the module docstring).  The counts stop at the
    witness, as if the samples ran one at a time.

    Restrictions the rank test cannot use raise InputError before any draw
    (:func:`~ratex.identcore.check_test_kind`), whatever the draws.
    """
    config = config or SamplerConfig()
    rng = np.random.default_rng(config.seed)
    lo, hi = (pm.domain[:, 0], pm.domain[:, 1]) if pm.dim else (np.zeros(0), np.zeros(0))
    probes = [np.atleast_1d(np.asarray(p, dtype=float)) for p in config.probe_points]
    if any(p.shape != (pm.dim,) for p in probes):
        raise InputError(f"theta must have {pm.dim} entries")
    check_test_kind(restrictions, pm.n, restrictions.kind == "equation")
    draws = lo + (hi - lo) * rng.random((config.num_samples, pm.dim))
    points = np.concatenate([np.reshape(probes, (len(probes), pm.dim)), draws])

    drawn = valid = deficient = borderline = 0
    witness = None
    invalid = {}
    start, size = 0, 1
    while start < len(points) and witness is None:
        chunk = points[start:start + size]
        outcomes = _scan_chunk(pm, restrictions, chunk, config.tol_rank)
        for theta, outside, outcome in zip(chunk, _outside(pm, chunk), outcomes):
            drawn += 1
            if outside:
                _warnings.warn(OUTSIDE_WARNING)
            if isinstance(outcome, RankReport):
                valid += 1
                witness = (np.array(theta), outcome)
                break
            if outcome in ("deficient", "borderline"):
                valid += 1
                deficient += outcome == "deficient"
                borderline += outcome == "borderline"
            else:
                invalid[outcome] = invalid.get(outcome, 0) + 1
        # a valid draw that is no witness puts the scan on the deficient
        # side of the dichotomy, so the rest of the points go in one chunk
        start, size = start + size, len(points) if valid else 2 * size

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


def _scan_chunk(pm: ParamMap, restrictions: RestrictionSet, thetas: np.ndarray,
                tol_rank: float) -> list:
    """The outcome of each point of a chunk, from kernels over the stack.

    An outcome is the reason a point is invalid ("eval_error", "eu_failed:
    <error>", "c0_rank_deficient", "not_invertible", "c0_not_canonical",
    "hankel_rank_above_bound"),
    "deficient" or "borderline" for a rank-deficient valid point, or the
    RankReport of the first full-rank point; later points stay None.  The
    checks run in the order of one point's: evaluate, solve the model
    (:func:`~ratex.resolve.solve_model`, whose SingularMatrixError is a
    solution or kernel basis not all finite), rank(C_0), rank drops of the
    moving-average part in the closed disk, canonical form of C_0, the
    Hankel rank against its bound n * kappa, then the identification rank
    test.  No stage raises for one sample; each marks those that fail it.
    A chunk stops at the check that rejects its last sample; a check that
    rejects none passes the stacks on whole.
    """
    n, m, lam, kappa = pm.n, pm.m, pm.lam, pm.kappa
    outcomes = [None] * len(thetas)
    lanes = np.arange(len(thetas))

    def reject(bad, reason, *stacks):
        """Record ``reason`` (one string, or one per sample) for the samples
        flagged ``bad``; the rest of ``lanes`` and ``stacks`` go on, and
        _NoneLeft is raised once no sample does."""
        nonlocal lanes
        if not bad.any():
            return stacks
        for k in np.flatnonzero(bad).tolist():
            outcomes[lanes[k]] = reason if isinstance(reason, str) else reason[k]
        lanes = lanes[~bad]
        if not lanes.size:
            raise _NoneLeft
        return [a[~bad] for a in stacks]

    try:
        values = pm.program.values(thetas)
        B, A = reject(~np.isfinite(values).all(axis=1), "eval_error",
                      *_coeff_stacks(pm, values))
        B, A = trim_dust(B), trim_dust(A)

        b_minus, b_plus, errors, _, _, inv = wh_factorize_stack(B, lam)
        B, A, b_minus, b_plus, inv = reject(
            np.array([e is not None for e in errors], dtype=bool),
            [e and f"eu_failed: {type(e).__name__}" for e in errors],
            B, A, b_minus, b_plus, inv)
        ma, transfer, failed = solve_stack(b_minus, b_plus, A,
                                           default_horizon(n, kappa, lam), inv)
        B, A, ma, transfer = reject(failed, "eu_failed: SingularMatrixError",
                                    B, A, ma, transfer)
        c0_ranks = stacked_rank(transfer[:, 0])[0]
        B, A, ma, transfer = reject(c0_ranks < m, "c0_rank_deficient", B, A, ma, transfer)
        z, hit = rank_drop_stack(ma)
        inside = (hit & (np.abs(z) < 1.0 - CF_BOUNDARY_MARGIN)).any(axis=1)
        B, A, transfer = reject(inside, "not_invertible", B, A, transfer)
        B, A, transfer = reject(~canonical_staircase_mask(transfer[:, 0]), "c0_not_canonical",
                                B, A, transfer)
    except _NoneLeft:
        return outcomes

    equation = restrictions.kind == "equation"
    T, H = toeplitz_hankel(transfer, n, m, kappa, lam)
    pnorm = p_norm(T, H)
    first = None
    for rank, (group, N) in kernel_bases(T, H, m, lam, tol_rank)[1].items():
        if rank > n * kappa:            # build_ident_system's failures, by mask
            for s in group.tolist():
                outcomes[lanes[s]] = "hankel_rank_above_bound"
            continue
        finite = np.isfinite(N).all(axis=(1, 2))
        if not finite.all():
            for s in group[~finite].tolist():
                outcomes[lanes[s]] = "eu_failed: SingularMatrixError"
            group, N = group[finite], N[finite]
            if not group.size:
                continue
        shape, ranks, svals, gaps = kernel_rank_stack(
            N, restrictions.blocks(1 if equation else n), pnorm[group], p_shape(T, H),
            tol_rank)
        for k, s in enumerate(group.tolist()):
            if ranks[k] == shape[1]:
                if first is None or s < first[0]:
                    first = (s, lane_report(shape, ranks[k], svals[k], shape[1], gaps[k]))
            else:
                outcomes[lanes[s]] = "borderline" if gaps[k] >= BORDERLINE_GAP else "deficient"
    if first is not None:
        s, report = first
        outcomes[lanes[s]] = replace(report, warnings=membership_warnings(
            restrictions, coeff_vec(B[s], A[s]), n))
    return outcomes


class _NoneLeft(Exception):
    """Every sample of a chunk has been rejected (:func:`_scan_chunk`)."""


# -- local identification under nonlinear restrictions -----------------------

# central-difference step relative to max(1, |x_j|): cbrt(machine epsilon)
# balances truncation and rounding for the O(h^2) stencil
FD_REL_STEP = float(np.cbrt(np.finfo(float).eps))
# points x0 + LOCAL_PROBE_SCALE * max(1, max |x0|) * N(0, I) probed around a
# rank-deficient x0, drawn from a generator seeded 0
LOCAL_PROBES, LOCAL_PROBE_SCALE = 8, 1e-4


def fd_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian, step h_j = FD_REL_STEP * max(1, |x_j|)."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        h = FD_REL_STEP * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fp = np.atleast_1d(np.asarray(f(xp), dtype=float))
        fm = np.atleast_1d(np.asarray(f(xm), dtype=float))
        J[:, j] = (fp - fm) / (2.0 * h)
    return J


@dataclass(frozen=True)
class LocalReport:
    rank_report: RankReport
    locally_identified: bool
    rank_locally_constant: bool | None   # None when the rank test passed
    probe_ranks: tuple
    note: str


def local_ident(model: Model, restrictions: RestrictionSet,
                tol_rank: float = DEFAULT_TOL_RANK) -> LocalReport:
    """Rank test with the Jacobian of the restriction map on the kernel,
    R(x)·(N⊗Iₙ) (or R(x)·N for one equation).

    An affine map's Jacobian is R, so on affine restrictions this is the
    ``ident`` test, through the same function, and a deficient rank is
    constant.  Compiled expressions give their exact Jacobian (an opaque
    residual callable, central differences).  Full column rank certifies
    local identification.  A rank-deficient matrix only indicates
    non-identification when the rank is locally constant (the regularity
    condition), so LOCAL_PROBES nearby points are probed and the report
    says whether the rank looks constant; without that, no
    non-identification claim is made.  Restrictions that miss the point
    (:func:`~ratex.identcore.membership`) or that the ``ident`` test cannot
    use raise InputError before any numerical work.
    """
    affine, equation = restrictions.kind != "nonlinear", restrictions.equation
    if not affine and restrictions.residual_fn is None:
        raise ValueError("local test needs restrictions with a residual map")
    x0, n = model_coeff_vec(model), model.n
    if equation is not None:
        x0, n = x0.reshape(n, -1, order="F")[equation - 1], 1
    resid, bound = membership(restrictions, x0)
    if resid > bound:
        raise InputError(f"restrictions do not hold at the point (residual {resid:.3e})")
    if affine:
        check_test_kind(restrictions, model.n, equation is not None)
    sys = model_ident_system(model, tol_rank)

    def jacobian_ranks(points):
        """kernel_rank_stack at the Jacobians of the (P, size) points, one
        partition of their joint nonzeros covering all P."""
        blocks = EquationBlocks(np.array(
            [np.atleast_2d(restrictions.jacobian(x)) for x in points], dtype=float), n)
        return kernel_rank_stack(sys.N[None], blocks, p_norm(sys.T[None], sys.H[None]),
                                 p_shape(sys.T, sys.H), tol_rank)

    if affine:
        report = _ident_test(sys, restrictions, None, tol_rank, equation is not None)
    else:
        shape, ranks, svals, gaps = jacobian_ranks(x0[None])
        report = lane_report(shape, ranks[0], svals[0], shape[1], gaps[0])
    if report.identified:
        return LocalReport(report, True, None, (), "full column rank: locally identified")
    if affine:
        return LocalReport(report, False, True, (), "rank deficient and constant "
                           "(affine restrictions): not locally identified")

    rng = np.random.default_rng(0)
    scale = LOCAL_PROBE_SCALE * max(1.0, float(np.max(np.abs(x0))))
    probes = x0 + scale * rng.standard_normal((LOCAL_PROBES, x0.size))
    probe_ranks = jacobian_ranks(probes)[1].tolist()
    constant = all(r == report.numerical_rank for r in probe_ranks)
    if constant:
        note = ("rank deficient and locally constant: not locally identified "
                "under the regularity condition")
    else:
        note = ("rank deficient but NOT locally constant: the rank test is "
                "inconclusive (regularity fails); the point may still be identified")
    return LocalReport(report, False, constant, tuple(probe_ranks), note)
