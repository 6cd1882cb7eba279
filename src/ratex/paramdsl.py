"""Deep-parameter model maps theta -> (B(theta), A(theta)) and the sampled
generic / local identification drivers built on them.

The expression language is deliberately rational: literals, parameter
names, + - * /, unary minus, and integer powers.  Rational maps are
analytic on their domain, which is what the generic-identification
sampling logic needs; a single full-rank sample point certifies generic
identification, while rank deficiency everywhere can only be evidenced,
never proven, by sampling.  Report wording keeps that asymmetry explicit.

A list of expression trees is compiled once (:class:`CompiledExprs`): names
resolve to positions in an argument vector (theta for a ParamMap, the
coefficient vector for a restriction file), and one forward-mode walk
returns the values and, on request, the exact sparse Jacobian.  So the
local identification test ranks an exact Jacobian for compiled
expressions; central differences (:func:`fd_jacobian`) are used only for
an opaque residual callable.

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
import re
import warnings as _warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .identcore import (
    EquationBlocks,
    InputError,
    RankReport,
    RestrictionSet,
    build_ident_system,
    check_test_kind,
    coeff_vec,
    kernel_bases,
    kernel_rank_stack,
    lane_report,
    membership_warnings,
    model_coeff_vec,
    p_norm,
    toeplitz_hankel,
)
from .numrank import DEFAULT_TOL_RANK
from .polylab import LaurentMatrix, Model, SingularMatrixError, trim_dust
from .resolve import (
    CF_BOUNDARY_MARGIN,
    canonical_staircase_mask,
    default_horizon,
    rank_drop_stack,
    solve_model,
    solve_stack,
)
from .wienerhopf import wh_factorize_stack

DIV_FLOOR = 1e-300
BORDERLINE_GAP = 0.1  # deficient samples within 10x of the rank cutoff


class ModelFileError(InputError):
    """Malformed model or restriction file."""


class ParseError(ModelFileError):
    """Syntax or validation error with source position."""

    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{where}")


class EvalError(ArithmeticError):
    """Runtime evaluation failure (division blow-up, unknown name)."""


# -- expression AST ---------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int  # non-negative integer literal only


# -- compiled evaluation -----------------------------------------------------

_LIT, _VAR, _NEG, _POW, _ADD, _SUB, _MUL, _DIV = range(8)
_BINOPS = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}


def _resolve(expr, positions: dict):
    """Tree -> nested tuples (opcode, ...) with each name replaced by its
    position in the argument vector."""
    if isinstance(expr, Lit):
        return (_LIT, expr.value)
    if isinstance(expr, Var):
        try:
            return (_VAR, positions[expr.name])
        except KeyError as exc:
            raise EvalError(f"unknown identifier '{expr.name}'") from exc
    if isinstance(expr, Neg):
        return (_NEG, _resolve(expr.operand, positions))
    if isinstance(expr, Pow):
        return (_POW, _resolve(expr.base, positions), expr.exponent)
    if isinstance(expr, BinOp):
        return (_BINOPS[expr.op], _resolve(expr.left, positions),
                _resolve(expr.right, positions))
    raise TypeError(f"not an expression node: {expr!r}")


def _scale(c, g):
    """c*g for a sparse gradient {position: partial}; None stays None."""
    return None if g is None else {i: c * d for i, d in g.items()}


def _lincomb(ca, a, cb, b):
    """ca*a + cb*b for sparse gradients; None (values only) stays None."""
    if a is None:
        return None
    out = {i: ca * d for i, d in a.items()}
    for i, d in b.items():
        out[i] = out[i] + cb * d if i in out else cb * d
    return out


def _forward(node, x, grad: bool, failed=None):
    """Value of a compiled node at x and, with ``grad``, its exact sparse
    gradient by forward mode (None without).

    With ``failed`` (a boolean array over samples) x holds one array of
    values per argument, and a division below DIV_FLOOR marks its samples
    in ``failed`` instead of raising.
    """
    op = node[0]
    if op == _VAR:
        return x[node[1]], ({node[1]: 1.0} if grad else None)
    if op == _LIT:
        return node[1], ({} if grad else None)
    if op == _NEG:
        v, g = _forward(node[1], x, grad, failed)
        return -v, _scale(-1.0, g)
    if op == _POW:
        v, g = _forward(node[1], x, grad, failed)
        k = node[2]
        if failed is not None:
            out = _lane_power(v, k)
        else:
            try:
                out = v ** k
            except OverflowError as exc:
                raise EvalError(f"overflow in {v!r}^{k}") from exc
        if g is not None:
            g = _scale(k * v ** (k - 1), g) if k else {}
        return out, g
    l, gl = _forward(node[1], x, grad, failed)
    r, gr = _forward(node[2], x, grad, failed)
    if op == _ADD:
        return l + r, _lincomb(1.0, gl, 1.0, gr)
    if op == _SUB:
        return l - r, _lincomb(1.0, gl, -1.0, gr)
    if op == _MUL:
        return l * r, _lincomb(r, gl, l, gr)
    small = abs(r) < DIV_FLOOR
    if failed is not None:
        failed |= small
    elif small:
        raise EvalError(f"division by {r!r}")
    v = l / r
    return v, _lincomb(1.0 / r, gl, -v / r, gr)


def _lane_power(v, k: int):
    """v**k for a stack of samples by Python's float power on each value,
    so that every sample gets the bits of a one-point evaluation; an
    overflowing sample gives inf."""
    if isinstance(v, np.ndarray):
        return np.array([_lane_power(t, k) for t in v.tolist()])
    try:
        return v ** k
    except OverflowError:
        return np.inf


class CompiledExprs:
    """A list of expression trees compiled once against ``positions``
    (name -> index into the argument vector x).

    ``values(x)`` evaluates every tree, at one point x or at each row of an
    (S, d) array of points; ``jacobian(x)`` is the exact Jacobian of those
    values at one point, d values[k] / d x[j], by forward mode.
    """

    def __init__(self, trees, positions: dict):
        self.nodes = tuple(_resolve(t, positions) for t in trees)

    def values(self, x) -> np.ndarray:
        """(K,) values at a point, raising EvalError; or (S, K) values at
        the rows of an (S, d) array, with the rows whose evaluation failed
        (a division below DIV_FLOOR) set to NaN."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            xs = x.tolist()
            return np.array([_forward(node, xs, False)[0] for node in self.nodes])
        failed = np.zeros(len(x), dtype=bool)
        out = np.empty((len(x), len(self.nodes)))
        columns = list(x.T)
        with np.errstate(all="ignore"):  # failed or overflowing samples only
            for k, node in enumerate(self.nodes):
                out[:, k] = _forward(node, columns, False, failed)[0]
        out[failed] = np.nan
        return out

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        J = np.zeros((len(self.nodes), x.size))
        xs = x.tolist()
        for k, node in enumerate(self.nodes):
            for j, d in _forward(node, xs, True)[1].items():
                J[k, j] = d
        return J


# -- lexer / recursive-descent parser --------------------------------------

# one alternative per token kind; whitespace runs carry the line breaks.  A
# name may carry integer subscripts, so B[-1][1][2] is one name token.
_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<num>[\d.]+(?:[eE](?:[+-]|(?=\d))[\d.]*)?)
  | (?P<ident>[^\W\d]\w*(?:\[-?\d+\])*)
  | (?P<op>[-+*/^()])
  | (?P<bad>.)
""", re.VERBOSE)


class _Token(NamedTuple):
    kind: str   # 'num' | 'ident' | an operator character | 'end'
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, tok = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "space":
            breaks = tok.count("\n")
            if breaks:
                line += breaks
                line_start = match.start() + tok.rindex("\n") + 1
            continue
        if kind == "bad" or (kind == "ident" and not (tok[0].isalpha() or tok[0] == "_")):
            raise ParseError(f"unexpected character {tok[0]!r}", line, col)
        tokens.append(_Token(tok if kind == "op" else kind, tok, line, col))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.take()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return e

    def expr(self):
        node = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in "*/":
            op = self.take().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.expect("num")
            if not tok.text.isdigit():
                raise ParseError("exponent must be a non-negative integer literal",
                                 tok.line, tok.col)
            node = Pow(node, int(tok.text))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            try:
                return Lit(float(tok.text))
            except ValueError:
                raise ParseError(f"bad number literal {tok.text!r}", tok.line, tok.col)
        if tok.kind == "ident":
            self.take()
            return Var(tok.text)
        if tok.kind == "-":
            self.take()
            # '^' binds tighter than unary minus: -x^2 means -(x^2)
            return Neg(self.factor())
        if tok.kind == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)


def parse_expression(text: str):
    """Parse one expression; raises ParseError with line/column on failure."""
    return _Parser(text).parse()


# -- parametrized models -----------------------------------------------------


@dataclass(frozen=True)
class ParamMap:
    """Parsed map theta -> (B(theta), A(theta)) with a sampling box."""

    param_names: tuple
    domain: np.ndarray            # (d, 2) finite bounds
    n: int
    m: int
    lam: int
    kappa: int
    b_entries: dict               # lag -> (n, n) object array of expressions
    a_entries: dict               # lag -> (n, m) object array of expressions

    @property
    def dim(self) -> int:
        return len(self.param_names)

    @cached_property
    def _compiled(self):
        """Every B and A entry compiled once against theta positions, and
        each entry's index in the flattened coefficient stacks [B | A]."""
        trees, slots, offset = [], [], 0
        for entries, rows, cols, lo in ((self.b_entries, self.n, self.n, -self.lam),
                                        (self.a_entries, self.n, self.m, 0)):
            for lag, grid in entries.items():
                start = offset + (lag - lo) * rows * cols
                trees += list(grid.flat)
                slots += range(start, start + rows * cols)
            offset += (self.kappa - lo + 1) * rows * cols
        positions = {name: k for k, name in enumerate(self.param_names)}
        return CompiledExprs(trees, positions), np.array(slots, dtype=int), offset


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
        blocks = {}
        for lag_key, raw in json_typed(spec.get(key, {}), dict, key).items():
            try:
                lag = int(lag_key)
            except ValueError:
                raise ModelFileError(f"{key} lag key {lag_key!r} is not an integer") from None
            if not lo <= lag <= kappa:
                raise ModelFileError(f"{key} lag {lag} outside {lo}..{kappa}")
            label = f"{key}[{lag}]"
            if (n, cols) == (1, 1) and isinstance(raw, (int, float, str)):
                raw = [[raw]]  # the scalar shorthand of a 1 x 1 block
            block = json_array(raw, dtype, label)
            if block.shape != (n, cols):
                raise ModelFileError(f"{label}: shape {block.shape} != ({n}, {cols})")
            blocks[lag] = convert(block, label)
        maps.append(blocks)
    return (n, m, lam, kappa), maps[0], maps[1]


def _parse_cells(block: np.ndarray, label: str) -> np.ndarray:
    """Expression tree of each entry: a number's literal or a parsed string."""
    grid = np.empty(block.shape, dtype=object)
    for (i, j), cell in np.ndenumerate(block):
        where = f"{label}[{i + 1}][{j + 1}]"
        if isinstance(cell, str):
            try:
                grid[i, j] = parse_expression(cell)
            except ParseError as exc:
                raise ParseError(f"{where}: {exc}") from exc
        elif isinstance(cell, (int, float)):
            grid[i, j] = Lit(float(cell))
        else:
            raise ModelFileError(f"{where}: entry must be a number or a string, got {cell!r}")
    return grid


def parse_model(spec) -> ParamMap:
    """Build a ParamMap from JSON text or an already-decoded mapping: the
    parametrized form of :mod:`ratex.modelio`, with the header inside.
    Every name is resolved here, when the entries are compiled."""
    if isinstance(spec, (str, bytes)):
        spec = json.loads(spec)
    (n, m, lam, kappa), b_entries, a_entries = decode_lag_blocks(spec, object, _parse_cells)
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
    pm = ParamMap(param_names=names, domain=domain, n=n, m=m, lam=lam, kappa=kappa,
                  b_entries=b_entries, a_entries=a_entries)
    try:
        pm._compiled
    except EvalError as exc:
        raise ParseError(str(exc)) from exc
    return pm


def eval_model(pm: ParamMap, theta) -> Model:
    """Evaluate the map at a parameter point; deterministic in theta.
    Raises EvalError when an entry fails or is not finite."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (pm.dim,):
        raise InputError(f"theta must have {pm.dim} entries")
    if _outside(pm, theta[None])[0]:
        _warnings.warn(OUTSIDE_WARNING)
    values = pm._compiled[0].values(theta)
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
    _, slots, size = pm._compiled
    flat = np.zeros((len(values), size))
    flat[:, slots] = values
    nb = (pm.kappa + pm.lam + 1) * pm.n * pm.n
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
    """
    config = config or SamplerConfig()
    rng = np.random.default_rng(config.seed)
    lo, hi = (pm.domain[:, 0], pm.domain[:, 1]) if pm.dim else (np.zeros(0), np.zeros(0))
    probes = [np.atleast_1d(np.asarray(p, dtype=float)) for p in config.probe_points]
    if any(p.shape != (pm.dim,) for p in probes):
        raise InputError(f"theta must have {pm.dim} entries")
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
    <error>", "c0_rank_deficient", "not_invertible", "c0_not_canonical"),
    "deficient" or "borderline" for a rank-deficient valid point, or the
    RankReport of the first full-rank point; later points stay None.  The
    checks run in the order of one point's: evaluate, solve the model
    (:func:`~ratex.resolve.solve_model`), rank(C_0), rank drops of the
    moving-average part in the closed disk, canonical form of C_0, then the
    identification rank test.
    """
    n, m, lam, kappa = pm.n, pm.m, pm.lam, pm.kappa
    outcomes = [None] * len(thetas)
    lanes = np.arange(len(thetas))

    def reject(bad, reason, *stacks):
        """Record ``reason`` (one string, or one per sample) for the samples
        flagged ``bad``; the rest of ``lanes`` and ``stacks`` go on."""
        nonlocal lanes
        if not bad.any():
            return list(stacks)
        for k in np.flatnonzero(bad):
            outcomes[lanes[k]] = reason if isinstance(reason, str) else reason[k]
        lanes = lanes[~bad]
        return [a[~bad] for a in stacks]

    values = pm._compiled[0].values(thetas)
    B, A = reject(~np.isfinite(values).all(axis=1), "eval_error", *_coeff_stacks(pm, values))
    B, A = trim_dust(B), trim_dust(A)

    b_minus, b_plus, errors, _, _, inv = wh_factorize_stack(B, lam)
    B, A, b_minus, b_plus, inv = reject(
        np.array([e is not None for e in errors], dtype=bool),
        [e and f"eu_failed: {type(e).__name__}" for e in errors], B, A, b_minus, b_plus, inv)
    if not lanes.size:
        return outcomes
    horizon = default_horizon(n, kappa, lam)
    (ma, transfer, c0_ranks), singular = _lanewise(
        lambda bm, bp, a, f: solve_stack(bm, bp, a, horizon, f), b_minus, b_plus, A, inv)
    B, A = reject(singular, "eu_failed: SingularMatrixError", B, A)
    B, A, ma, transfer = reject(c0_ranks < m, "c0_rank_deficient", B, A, ma, transfer)
    (z, hit), failed = _lanewise(lambda M: rank_drop_stack(M, tol_rank), ma)
    B, A, transfer, z, hit = reject(failed, "not_invertible", B, A, transfer, z, hit)
    inside = (hit & (np.abs(z) < 1.0 - CF_BOUNDARY_MARGIN)).any(axis=1)
    B, A, transfer = reject(inside, "not_invertible", B, A, transfer)
    B, A, transfer = reject(~canonical_staircase_mask(transfer[:, 0]), "c0_not_canonical",
                            B, A, transfer)
    if not lanes.size:
        return outcomes

    equation = restrictions.kind == "equation"
    check_test_kind(restrictions, n, equation)
    T, H = toeplitz_hankel(transfer, n, m, kappa, lam)
    q = kappa + lam + 1
    p_shape = (n * q + m * q, m * q + m * n * kappa)
    pnorm = p_norm(T, H)
    first = None
    for group, N in kernel_bases(T, H, m, lam, tol_rank)[2].values():
        shape, ranks, svals, gaps = kernel_rank_stack(
            N, restrictions.blocks(1 if equation else n), pnorm[group], p_shape, tol_rank)
        for k, s in enumerate(group):
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


def _lanewise(fn, *stacks):
    """``fn`` on stacks with a leading sample axis, returning a tuple of
    stacks.  If it raises SingularMatrixError or LinAlgError it runs on each
    sample alone.  Returns (outputs of the samples that passed, mask of the
    samples that raised)."""
    try:
        return fn(*stacks), np.zeros(len(stacks[0]), dtype=bool)
    except (SingularMatrixError, np.linalg.LinAlgError):
        pass
    outputs, failed = [], []
    for s in range(len(stacks[0])):
        try:
            outputs.append(fn(*(a[s:s + 1] for a in stacks)))
        except (SingularMatrixError, np.linalg.LinAlgError):
            failed.append(True)
            continue
        failed.append(False)
    if not outputs:  # shapes of an empty result
        outputs.append(fn(*(a[:0] for a in stacks)))
    return tuple(np.concatenate(parts) for parts in zip(*outputs)), np.array(failed, dtype=bool)


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

    ``restrictions.jacobian`` supplies it: R itself for affine or
    equation-wise restrictions, the exact Jacobian for compiled expressions
    (restriction files), and central differences only for an opaque
    residual callable.  Full column rank certifies local identification.
    A rank-deficient matrix only indicates non-identification when the
    rank is locally constant (the regularity condition), so LOCAL_PROBES
    nearby points are probed and the report says whether the rank looks
    constant; without that, no non-identification claim is made.  An
    affine map's rank is constant.
    """
    affine = restrictions.kind != "nonlinear"
    if not affine and restrictions.residual_fn is None:
        raise ValueError("local test needs restrictions with a residual map")
    bundle = solve_model(model)
    sys = build_ident_system(bundle.transfer, model.n, model.m,
                             model.kappa, model.lam, tol_rank)
    equation = restrictions.equation
    x0 = model_coeff_vec(model)
    if equation is not None:
        x0 = x0.reshape(model.n, -1, order="F")[equation - 1]

    resid = (restrictions.R @ x0 - restrictions.u if affine
             else restrictions.residual_fn(x0))
    resid = np.max(np.abs(np.atleast_1d(np.asarray(resid, dtype=float))))
    if resid > 1e-8 * (1.0 + np.max(np.abs(x0))):
        raise InputError(f"restrictions do not hold at the point (residual {resid:.3e})")

    n = 1 if equation is not None else model.n

    def jacobian_ranks(points):
        """kernel_rank_stack at the Jacobians of the (P, size) points, one
        partition of their joint nonzeros covering all P."""
        blocks = restrictions.blocks(n) if affine else EquationBlocks(np.array(
            [np.atleast_2d(restrictions.jacobian(x)) for x in points], dtype=float), n)
        return kernel_rank_stack(sys.N[None], blocks, np.array([sys.p_norm]),
                                 sys.P.shape, tol_rank)

    shape, ranks, svals, gaps = jacobian_ranks(x0[None])
    report = lane_report(shape, ranks[0], svals[0], shape[1], gaps[0])
    if report.identified:
        return LocalReport(report, True, None, (),
                           "full column rank: locally identified")
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


def affine_as_nonlinear(R, u, equation: int | None = None) -> RestrictionSet:
    """Wrap affine restrictions as a residual map, for cross-checking paths."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def fn(x):
        return R @ x - u

    return RestrictionSet.nonlinear(fn, R.shape[0], equation=equation)
