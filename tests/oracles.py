"""Reference implementations and helpers that only the tests use.

Each is the plain, direct form of something the package computes another
way (or no longer needs at run time), kept as an oracle:

- Laurent matrices: the lag-zero constant and identity, the part at lags
  >= 0, coefficient-wise comparison, sums and shifts;
- series: long division by a LaurentMatrix (:func:`lp_series_divide`),
  one-sided series inverses, transfer series, and the nonnegative-lag part
  of B_minus^-1 A;
- zero counts inside and on the unit circle's band;
- autocovariances from the spectrum and from a sample path, and the
  moving-average path summed one lag at a time;
- the scalar position of one coefficient in the vec ordering
  (:func:`coeff_vec_index`), and affine restrictions wrapped as an opaque
  residual map;
- expression trees: the tree view of a parsed program (:func:`expr_trees`,
  :func:`parse_expression`, :func:`entry_trees` of a ParamMap), compilation
  against a name map, one-tree evaluation and a printer whose output
  parses back to the same tree; a compiled program's Jacobian at one point
  by its own reverse sweep (:func:`point_jacobian`).
"""

from dataclasses import dataclass

import numpy as np

from ratex.exprs import (_ADD, _BINARY, _DIV, _LIT, _MUL, _NEG, _POW, _SUB, _VAR, EvalError,
                         ExprParser, _lane_power)
from ratex.identcore import RestrictionSet
from ratex.polylab import LaurentMatrix, ShapeMismatchError, series_divide
from ratex.resolve import TransferSeries, spectral_density, unit_circle_grid
from ratex.wienerhopf import bminus_inv_plus

# grid of autocovariances_from_spectrum
AUTOCOV_GRID = 512


# -- Laurent matrices --------------------------------------------------------


def constant(mat) -> LaurentMatrix:
    """Lag-zero matrix."""
    return LaurentMatrix.from_coeffs([mat], 0, trim=False)


def identity(n: int) -> LaurentMatrix:
    return constant(np.eye(n))


def plus_part(a: LaurentMatrix) -> LaurentMatrix:
    """Lags >= 0."""
    if a.min_lag >= 0:
        return a
    if a.max_lag < 0:
        return LaurentMatrix.zero(a.rows, a.cols)
    return LaurentMatrix.from_coeffs(a.coeffs[-a.min_lag:], 0)


def allclose(a: LaurentMatrix, b: LaurentMatrix, atol: float = 1e-12) -> bool:
    """Coefficient-wise comparison over the union of lag ranges."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return False
    lo = min(a.min_lag, b.min_lag)
    hi = max(a.max_lag, b.max_lag)
    return np.allclose(a.window(lo, hi), b.window(lo, hi), atol=atol, rtol=0.0)


def lp_add(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Coefficient-wise sum over the union of lag ranges."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError(
            f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols} matrices")
    lo = min(a.min_lag, b.min_lag)
    hi = max(a.max_lag, b.max_lag)
    out = np.zeros((hi - lo + 1, a.rows, a.cols))
    out[a.min_lag - lo: a.max_lag - lo + 1] += a.coeffs
    out[b.min_lag - lo: b.max_lag - lo + 1] += b.coeffs
    return LaurentMatrix.from_coeffs(out, lo)


def shifted(a: LaurentMatrix, s: int) -> LaurentMatrix:
    """a times z**s."""
    return LaurentMatrix(a.coeffs, a.min_lag + s)


# -- series ------------------------------------------------------------------


def lp_series_divide(g: LaurentMatrix, rhs: LaurentMatrix, horizon: int) -> np.ndarray:
    """Coefficients 0..horizon of the power series g^-1 rhs (see
    :func:`~ratex.polylab.series_divide`); g is a polynomial in z with
    invertible g_0.  Returns (horizon + 1, rows, cols)."""
    gs = g.window(0, max(g.max_lag, 0))
    rs = rhs.window(0, max(min(rhs.max_lag, horizon), 0))
    return series_divide(gs[None], rs[None], horizon)[0]


def lp_truncated_inverse_series(a: LaurentMatrix, horizon: int) -> list[np.ndarray]:
    """First ``horizon + 1`` coefficients of the matrix power-series inverse.

    For a polynomial in z (min_lag >= 0 after trimming) the expansion is in
    powers of z; for a polynomial in 1/z (max_lag <= 0) it is in powers of
    1/z, computed as the inverse of the reversed polynomial a(1/z).  Either
    way ``G[0]`` must be invertible and the returned list starts at the
    lag-0 coefficient of the inverse.
    """
    if a.rows != a.cols:
        raise ShapeMismatchError("series inverse requires a square matrix")
    t = a.trimmed()
    if t.min_lag < 0 < t.max_lag:
        raise ValueError("matrix mixes positive and negative lags; no one-sided expansion")
    if t.min_lag < 0:
        t = LaurentMatrix(t.coeffs[::-1], -t.max_lag)
    return list(lp_series_divide(t, LaurentMatrix(np.eye(a.rows)[None], 0), horizon))


def transfer_series(b_plus: LaurentMatrix, ma_part: LaurentMatrix, horizon: int) -> TransferSeries:
    """C_0..C_horizon solving B_plus * C = ma_part by matrix long division."""
    return TransferSeries(lp_series_divide(b_plus, ma_part, horizon))


def plus_part_of_bminus_inv_a(b_minus: LaurentMatrix, A: LaurentMatrix) -> LaurentMatrix:
    """Nonnegative-lag part of B_minus^-1 A (see
    :func:`~ratex.wienerhopf.bminus_inv_plus`)."""
    if A.is_zero:
        return LaurentMatrix.zero(b_minus.rows, A.cols)
    if b_minus.trimmed().max_lag > 0:
        raise ValueError("B_minus must be a polynomial in 1/z")
    bm = b_minus.window(min(b_minus.min_lag, 0), 0)
    a = A.window(0, A.max_lag)
    return LaurentMatrix.from_coeffs(bminus_inv_plus(bm[None], a[None])[0], 0)


def classify_zeros(zeros: np.ndarray, boundary: float):
    """(inside, on the band) counts of zeros: moduli below 1 - boundary, and
    within boundary of 1."""
    mods = np.abs(zeros)
    return (int(np.count_nonzero(mods < 1.0 - boundary)),
            int(np.count_nonzero(np.abs(mods - 1.0) <= boundary)))


# -- second moments ----------------------------------------------------------


def autocovariances_from_spectrum(bundle, lags: int):
    """Autocovariances gamma(0..lags) via the inverse transform of the
    spectrum on AUTOCOV_GRID points."""
    grid = unit_circle_grid(AUTOCOV_GRID)
    f = spectral_density(bundle.model, bundle.a_plus, grid)
    weights = grid ** -np.arange(lags + 1)[:, None]
    return np.real(np.tensordot(weights, f, axes=1) / AUTOCOV_GRID)


def ma_path_by_lag(eps: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The path of ``resolve._ma_path`` with one matmul and one add per lag."""
    h = len(coeffs) - 1
    T = len(eps) - h
    y = np.zeros((T, coeffs.shape[1]))
    for j in range(h + 1):
        y += eps[h - j: h - j + T] @ coeffs[j].T
    return y


def sample_autocovariances(y: np.ndarray, lags: int):
    """Biased (1/T) sample autocovariances gamma_hat(0..lags), mean removed."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    T = y.shape[0]
    yc = y - y.mean(axis=0)
    out = []
    for h in range(lags + 1):
        out.append(yc[h:].T @ yc[: T - h] / T)
    return np.array(out)


# -- coefficient vector and restrictions -------------------------------------


def coeff_vec_index(block: str, lag: int, row: int, col: int,
                    n: int, m: int, kappa: int, lam: int, equation: bool = False) -> int:
    """Position of a coefficient entry in vec([B_-lam..B_kappa | A_0..A_kappa]).

    ``row``/``col`` are 0-based here; vec stacks the columns of the
    horizontal concatenation.  With ``equation`` the vector is the single
    row ``row`` of that concatenation (see
    :func:`~ratex.identcore.coeff_vec_length`), so the position is the
    column index alone.
    """
    if block == "B":
        if not (-lam <= lag <= kappa) or not (0 <= row < n and 0 <= col < n):
            raise IndexError(f"B[{lag}][{row}][{col}] outside the coefficient space")
        c = (lag + lam) * n + col
    elif block == "A":
        if not (0 <= lag <= kappa) or not (0 <= row < n and 0 <= col < m):
            raise IndexError(f"A[{lag}][{row}][{col}] outside the coefficient space")
        c = n * (kappa + lam + 1) + lag * m + col
    else:
        raise ValueError("block must be 'B' or 'A'")
    return c if equation else c * n + row


def dense(entries: tuple, shape: tuple) -> np.ndarray:
    """The dense matrix of entries (rows, cols, values), or the (P, r, N)
    stack of values (P, nnz) on one pattern."""
    rows, cols, values = entries
    values = np.asarray(values, dtype=float)
    R = np.zeros(values.shape[:-1] + tuple(shape))
    R[..., rows, cols] = values
    return R


def affine_as_nonlinear(R, u, equation: int | None = None) -> RestrictionSet:
    """Wrap affine restrictions as a residual map, for cross-checking paths."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))

    def fn(x):
        return R @ x - u

    return RestrictionSet.nonlinear(fn, R.shape[0], equation=equation)


# -- expression trees --------------------------------------------------------


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


_SYMBOL = {code: op for op, code in _BINARY.items()}


def expr_trees(parser: ExprParser) -> list:
    """The expression trees of a parsed program, one per root, built from
    the parser's ``key``, ``arg``, ``names`` and ``roots``."""
    names = list(parser.names)
    built = []
    for k, (op, x) in enumerate(zip(parser.key, parser.arg)):
        op &= 7
        if op == _LIT:
            built.append(Lit(x))
        elif op == _VAR:
            built.append(Var(names[x]))
        elif op == _NEG:
            built.append(Neg(built[k - 1]))
        elif op == _POW:
            built.append(Pow(built[k - 1], x))
        else:
            built.append(BinOp(_SYMBOL[op], built[x], built[k - 1]))
    return [built[r] for r in parser.roots]


def parse_expression(text: str):
    """Parse one expression; raises ParseError with line/column on failure."""
    parser = ExprParser()
    parser.parse([text])
    return expr_trees(parser)[0]


def compile_exprs(sources, names: dict):
    """Expression strings (or numbers) compiled against ``names`` (name ->
    index into the argument vector); an unknown name raises EvalError."""
    parser = ExprParser()
    parser.parse(sources)
    try:
        positions = [names[name] for name in parser.names]
    except KeyError as exc:
        raise EvalError(f"unknown identifier '{exc.args[0]}'") from None
    return parser.compile(positions)


def entry_trees(pm) -> tuple:
    """The B and A entry trees of a ParamMap, each a dict lag -> (n, n) or
    (n, m) object array, for the lags in the file."""
    nb = (pm.kappa + pm.lam + 1) * pm.n * pm.n
    maps = ({}, {})
    for tree, slot in zip(expr_trees(pm.program.parser), pm.slots.tolist()):
        is_a = slot >= nb
        cols, lo = (pm.m, 0) if is_a else (pm.n, -pm.lam)
        lag, cell = divmod(slot - nb * is_a, pm.n * cols)
        grid = maps[is_a].setdefault(lo + lag, np.empty((pm.n, cols), dtype=object))
        grid[divmod(cell, cols)] = tree
    return maps


def eval_expr(expr, env: dict) -> float:
    """One tree's value with names bound by ``env`` (values-only entry)."""
    return float(compile_exprs([pretty(expr)], {name: k for k, name in enumerate(env)})
                 .values(list(env.values()))[0])


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


def point_jacobian(program, x) -> np.ndarray:
    """The Jacobian values of ``program`` at one point x, (nnz,) on its
    ``jacobian_pattern``: one reverse sweep over 1-D node values, the way
    ``ExprProgram.jacobian`` took them one point at a time."""
    v = program._run(np.asarray(x, dtype=float))
    adj = np.zeros(program.size)
    adj[program.roots] = 1.0
    with np.errstate(all="ignore"):
        for code, s, e, i, j, k in reversed(program.steps):
            g = adj[s:e]
            if code == _ADD or code == _SUB:
                adj[i] = g
                adj[j] = g if code == _ADD else -g
            elif code == _MUL:
                adj[i] = g * v[j]
                adj[j] = g * v[i]
            elif code == _DIV:
                adj[i] = g * (1.0 / v[j])
                adj[j] = g * (-v[s:e] / v[j])
            elif code == _NEG:
                adj[i] = -g
            else:
                adj[i] = g * (np.array(k, dtype=float)
                              * _lane_power(v[i], [max(t - 1, 0) for t in k]))
    rows, _, leaf_entry = program.jacobian_pattern
    values = np.zeros(len(rows))
    np.add.at(values, leaf_entry, adj[program.n_lit:program.n_lit + program.n_var])
    return values
