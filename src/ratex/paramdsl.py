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
"""

from __future__ import annotations

import json
import re
import warnings as _warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .identcore import (
    RankReport,
    RestrictionSet,
    _kernel_rank_test,
    build_ident_system,
    ident_test_affine,
    ident_test_equation,
    model_coeff_vec,
)
from .numrank import DEFAULT_TOL_RANK
from .polylab import LaurentMatrix, Model, SingularMatrixError
from .resolve import is_canonical_staircase, _rank_drop_points, solve_model
from .wienerhopf import FactorizationError

DIV_FLOOR = 1e-300
BORDERLINE_GAP = 0.1  # deficient samples within 10x of the rank cutoff


class ParseError(ValueError):
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


def expr_names(expr) -> set:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return expr_names(expr.operand)
    if isinstance(expr, Pow):
        return expr_names(expr.base)
    if isinstance(expr, BinOp):
        return expr_names(expr.left) | expr_names(expr.right)
    return set()


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


def _forward(node, x, grad: bool):
    """Value of a compiled node at x and, with ``grad``, its exact sparse
    gradient by forward mode (None without)."""
    op = node[0]
    if op == _VAR:
        return x[node[1]], ({node[1]: 1.0} if grad else None)
    if op == _LIT:
        return node[1], ({} if grad else None)
    if op == _NEG:
        v, g = _forward(node[1], x, grad)
        return -v, _scale(-1.0, g)
    if op == _POW:
        v, g = _forward(node[1], x, grad)
        k = node[2]
        try:
            out = v ** k
        except OverflowError as exc:
            raise EvalError(f"overflow in {v!r}^{k}") from exc
        if g is not None:
            g = _scale(k * v ** (k - 1), g) if k else {}
        return out, g
    l, gl = _forward(node[1], x, grad)
    r, gr = _forward(node[2], x, grad)
    if op == _ADD:
        return l + r, _lincomb(1.0, gl, 1.0, gr)
    if op == _SUB:
        return l - r, _lincomb(1.0, gl, -1.0, gr)
    if op == _MUL:
        return l * r, _lincomb(r, gl, l, gr)
    if abs(r) < DIV_FLOOR:
        raise EvalError(f"division by {r!r}")
    v = l / r
    return v, _lincomb(1.0 / r, gl, -v / r, gr)


class CompiledExprs:
    """A list of expression trees compiled once against ``positions``
    (name -> index into the argument vector x).

    ``values(x)`` evaluates every tree; ``jacobian(x)`` is the exact
    Jacobian of those values, d values[k] / d x[j], by forward mode.
    """

    def __init__(self, trees, positions: dict):
        self.nodes = tuple(_resolve(t, positions) for t in trees)

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).tolist()
        return np.array([_forward(node, x, False)[0] for node in self.nodes])

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        J = np.zeros((len(self.nodes), x.size))
        xs = x.tolist()
        for k, node in enumerate(self.nodes):
            for j, d in _forward(node, xs, True)[1].items():
                J[k, j] = d
        return J


def eval_expr(expr, env: dict) -> float:
    """One tree's value with names bound by ``env`` (values-only entry)."""
    return float(CompiledExprs([expr], {name: k for k, name in enumerate(env)})
                 .values(list(env.values()))[0])


# -- lexer / recursive-descent parser --------------------------------------

# one alternative per token kind; whitespace runs carry the line breaks
_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<num>[\d.]+(?:[eE](?:[+-]|(?=\d))[\d.]*)?)
  | (?P<ident>[^\W\d]\w*)
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


def pretty(expr) -> str:
    """Render an expression so that parse(pretty(e)) rebuilds the same tree."""
    if isinstance(expr, Lit):
        return f"{expr.value:.17g}"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = pretty(expr.operand)
        if isinstance(expr.operand, BinOp):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Pow):
        base = pretty(expr.base)
        if isinstance(expr.base, (BinOp, Neg, Pow)):
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, BinOp):
        left, right = pretty(expr.left), pretty(expr.right)
        if expr.op in "+-":
            if isinstance(expr.right, BinOp) and expr.right.op in "+-":
                right = f"({right})"
        else:
            if isinstance(expr.left, BinOp) and expr.left.op in "+-":
                left = f"({left})"
            if isinstance(expr.right, (Neg, BinOp)):
                right = f"({right})"
        return f"{left}{expr.op}{right}"
    raise TypeError(f"not an expression node: {expr!r}")


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


def _entry_grid(raw, rows, cols, label):
    """Normalize a scalar / nested-list entry spec into an expression grid."""
    if isinstance(raw, (str, int, float)):
        if (rows, cols) != (1, 1):
            raise ParseError(f"{label}: scalar entry given for a {rows}x{cols} block")
        raw = [[raw]]
    grid = np.empty((rows, cols), dtype=object)
    if len(raw) != rows:
        raise ParseError(f"{label}: expected {rows} rows, got {len(raw)}")
    for i, row in enumerate(raw):
        if len(row) != cols:
            raise ParseError(f"{label}: row {i + 1} has {len(row)} entries, expected {cols}")
        for j, cell in enumerate(row):
            if isinstance(cell, (int, float)):
                grid[i, j] = Lit(float(cell))
            else:
                try:
                    grid[i, j] = parse_expression(str(cell))
                except ParseError as exc:
                    raise ParseError(f"{label}[{i + 1}][{j + 1}]: {exc}") from exc
    return grid


def parse_model(spec) -> ParamMap:
    """Build a ParamMap from JSON text or an already-decoded mapping.

    Expected keys: n, m, lambda, kappa, params (list of names), domain
    (list of [lo, hi] per parameter), B (map lag-string -> entries), A
    (map lag-string -> entries).  Entries are expression strings, numbers,
    or nested lists thereof.
    """
    if isinstance(spec, (str, bytes)):
        spec = json.loads(spec)
    try:
        n, m = int(spec["n"]), int(spec["m"])
        lam, kappa = int(spec["lambda"]), int(spec["kappa"])
    except KeyError as exc:
        raise ParseError(f"missing required field {exc}")
    names = tuple(spec.get("params", ()))
    if len(set(names)) != len(names):
        raise ParseError("duplicate parameter names")
    domain = np.asarray(spec.get("domain", [[-1.0, 1.0]] * len(names)), dtype=float)
    domain = domain.reshape(-1, 2) if domain.size else np.zeros((0, 2))
    if domain.shape[0] != len(names):
        raise ParseError(f"domain has {domain.shape[0]} boxes for {len(names)} parameters")
    if domain.size and (not np.all(np.isfinite(domain)) or np.any(domain[:, 0] > domain[:, 1])):
        raise ParseError("domain bounds must be finite with lo <= hi")

    def load_block(key, rows, cols, lo):
        out = {}
        for lag_str, raw in dict(spec.get(key, {})).items():
            lag = int(lag_str)
            if not lo <= lag <= kappa:
                raise ParseError(f"{key} lag {lag} outside {lo}..{kappa}")
            out[lag] = _entry_grid(raw, rows, cols, f"{key}[{lag}]")
        return out

    pm = ParamMap(param_names=names, domain=domain, n=n, m=m, lam=lam, kappa=kappa,
                  b_entries=load_block("B", n, n, -lam),
                  a_entries=load_block("A", n, m, 0))
    declared = set(names)
    used = set()
    for grid in list(pm.b_entries.values()) + list(pm.a_entries.values()):
        for cell in grid.flat:
            used |= expr_names(cell)
    unknown = used - declared
    if unknown:
        raise ParseError(f"undeclared identifier(s): {', '.join(sorted(unknown))}")
    return pm


def eval_model(pm: ParamMap, theta) -> Model:
    """Evaluate the map at a parameter point; deterministic in theta."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (pm.dim,):
        raise ValueError(f"theta must have {pm.dim} entries")
    if pm.dim and (np.any(theta < pm.domain[:, 0]) or np.any(theta > pm.domain[:, 1])):
        _warnings.warn("theta outside the declared domain box")
    program, slots, size = pm._compiled
    flat = np.zeros(size)
    flat[slots] = program.values(theta)
    nb = (pm.kappa + pm.lam + 1) * pm.n * pm.n
    B = LaurentMatrix.from_coeffs(flat[:nb].reshape(-1, pm.n, pm.n), -pm.lam)
    A = LaurentMatrix.from_coeffs(flat[nb:].reshape(-1, pm.n, pm.m), 0)
    return Model(B, A, lam=pm.lam, kappa=pm.kappa)


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


def _validate_point(model: Model, tol_rank: float):
    """EU + canonical-form screen; returns (bundle, reason-if-invalid)."""
    try:
        bundle = solve_model(model)
    except (FactorizationError, SingularMatrixError) as exc:
        return None, f"eu_failed: {type(exc).__name__}"
    if bundle.c0_rank < model.m:
        return None, "c0_rank_deficient"
    try:
        inside, _ = _rank_drop_points(bundle.ma_part, tol_rank)
    except Exception:
        return None, "not_invertible"
    if inside:
        return None, "not_invertible"
    if not is_canonical_staircase(bundle.transfer.coefficient(0)):
        return None, "c0_not_canonical"
    return bundle, None


def generic_ident(pm: ParamMap, restrictions: RestrictionSet,
                  config: SamplerConfig | None = None) -> GenericReport:
    """Sample the domain box and hunt for a single full-rank witness.

    Probe points run first (in order), then uniform draws; the scan stops
    at the first full-rank sample.  Rank-deficient samples whose margin is
    within 10x of the cutoff count as borderline, not as evidence.
    """
    config = config or SamplerConfig()
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
        bundle, reason = _validate_point(model, config.tol_rank)
        if bundle is None:
            invalid[reason] = invalid.get(reason, 0) + 1
            continue
        valid += 1
        sys = build_ident_system(bundle.transfer, model.n, model.m,
                                 model.kappa, model.lam, config.tol_rank)
        if restrictions.kind == "equation":
            report = ident_test_equation(sys, restrictions, model, config.tol_rank)
        else:
            report = ident_test_affine(sys, restrictions, model, config.tol_rank)
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


# -- local identification under nonlinear restrictions -----------------------


def fd_jacobian(f, x, rel_step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian, step h_j = rel_step * max(1, |x_j|).

    The default step cbrt(machine epsilon) balances truncation and
    rounding for the O(h^2) central stencil.
    """
    x = np.asarray(x, dtype=float)
    step = rel_step if rel_step is not None else float(np.cbrt(np.finfo(float).eps))
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
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
                tol_rank: float = DEFAULT_TOL_RANK,
                n_probes: int = 8, probe_scale: float = 1e-4,
                seed: int = 0) -> LocalReport:
    """Rank test with the Jacobian of the restriction map on the kernel,
    R(x)·(N⊗Iₙ) (or R(x)·N for one equation).

    ``restrictions.jacobian`` supplies it: R itself for affine or
    equation-wise restrictions, the exact Jacobian for compiled expressions
    (restriction files), and central differences only for an opaque
    residual callable.  Full column rank certifies local identification.
    A rank-deficient matrix only indicates non-identification when the
    rank is locally constant (the regularity condition), so nearby points
    are probed and the report says whether the rank looks constant;
    without that, no non-identification claim is made.  An affine map's
    rank is constant.
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
        raise ValueError(f"restrictions do not hold at the point (residual {resid:.3e})")

    def jacobian_test(x):
        J = restrictions.jacobian(x)
        return _kernel_rank_test(sys, J, equation is not None, tol_rank)

    report = jacobian_test(x0)
    if report.identified:
        return LocalReport(report, True, None, (),
                           "full column rank: locally identified")
    if affine:
        return LocalReport(report, False, True, (), "rank deficient and constant "
                           "(affine restrictions): not locally identified")

    rng = np.random.default_rng(seed)
    scale = probe_scale * max(1.0, float(np.max(np.abs(x0))))
    probe_ranks = []
    for _ in range(n_probes):
        x = x0 + scale * rng.standard_normal(x0.size)
        probe_ranks.append(jacobian_test(x).numerical_rank)
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
