"""Deep-parameter model maps theta -> (B(theta), A(theta)) and the sampled
generic / local identification drivers built on them.

The expression language is deliberately rational: literals, parameter
names, + - * /, unary minus, and integer powers.  Rational maps are
analytic on their domain, which is what the generic-identification
sampling logic needs; a single full-rank sample point certifies generic
identification, while rank deficiency everywhere can only be evidenced,
never proven, by sampling.  Report wording keeps that asymmetry explicit.
"""

from __future__ import annotations

import json
import warnings as _warnings
from dataclasses import dataclass, field

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


def eval_expr(expr, env: dict) -> float:
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError as exc:
            raise EvalError(f"unknown identifier '{expr.name}'") from exc
    if isinstance(expr, Neg):
        return -eval_expr(expr.operand, env)
    if isinstance(expr, Pow):
        return eval_expr(expr.base, env) ** expr.exponent
    if isinstance(expr, BinOp):
        l = eval_expr(expr.left, env)
        r = eval_expr(expr.right, env)
        if expr.op == "+":
            return l + r
        if expr.op == "-":
            return l - r
        if expr.op == "*":
            return l * r
        if abs(r) < DIV_FLOOR:
            raise EvalError(f"division by {r!r}")
        return l / r
    raise TypeError(f"not an expression node: {expr!r}")


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


# -- lexer / recursive-descent parser --------------------------------------

_OPS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str   # 'num' | 'ident' | an operator character | 'end'
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_exp = False
            while j < len(text):
                c = text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_exp and j + 1 < len(text) and (
                        text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_exp = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            tokens.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
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
    env = dict(zip(pm.param_names, theta))

    def numeric(entries, rows, cols, lo):
        coeffs = np.zeros((pm.kappa - lo + 1, rows, cols))
        for lag, grid in entries.items():
            for i in range(rows):
                for j in range(cols):
                    coeffs[lag - lo, i, j] = eval_expr(grid[i, j], env)
        return LaurentMatrix.from_coeffs(coeffs, lo)

    B = numeric(pm.b_entries, pm.n, pm.n, -pm.lam)
    A = numeric(pm.a_entries, pm.n, pm.m, 0)
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
                fd_step: float | None = None,
                n_probes: int = 8, probe_scale: float = 1e-4,
                seed: int = 0) -> LocalReport:
    """Rank test with the Jacobian of the restriction map: finite differences
    for nonlinear restrictions, R itself for affine or equation-wise ones.

    Full column rank certifies local identification.  A rank-deficient
    matrix only indicates non-identification when the rank is locally
    constant (the regularity condition), so nearby points are probed and
    the report says whether the rank looks constant; without that, no
    non-identification claim is made.  An affine map's rank is constant.
    """
    affine = restrictions.kind != "nonlinear"
    fn = (affine_as_nonlinear(restrictions.R, restrictions.u) if affine
          else restrictions).residual_fn
    if fn is None:
        raise ValueError("local test needs restrictions with a residual map")
    bundle = solve_model(model)
    sys = build_ident_system(bundle.transfer, model.n, model.m,
                             model.kappa, model.lam, tol_rank)
    equation = restrictions.equation
    x0 = model_coeff_vec(model)
    if equation is not None:
        x0 = x0.reshape(model.n, -1, order="F")[equation - 1]

    resid = np.max(np.abs(np.atleast_1d(np.asarray(fn(x0), dtype=float))))
    if resid > 1e-8 * (1.0 + np.max(np.abs(x0))):
        raise ValueError(f"restrictions do not hold at the point (residual {resid:.3e})")

    def jacobian_test(x):
        J = restrictions.R if affine else fd_jacobian(fn, x, fd_step)
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
