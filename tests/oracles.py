"""Reference implementations that only the tests use.

Each is the plain, direct form of something the package computes another
way (or no longer needs at run time), kept as an oracle: coefficient-wise
sums and shifts of Laurent matrices, one-sided series inverses, transfer
series by long division, zero counts inside and on the unit circle's band,
one-tree expression evaluation and a printer whose output parses back to
the same tree.
"""

import numpy as np

from ratex.exprs import BinOp, Lit, Neg, Pow, Var, compile_exprs
from ratex.polylab import LaurentMatrix, ShapeMismatchError, lp_series_divide
from ratex.resolve import TransferSeries


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


def classify_zeros(zeros: np.ndarray, boundary: float):
    """(inside, on the band) counts of zeros: moduli below 1 - boundary, and
    within boundary of 1."""
    mods = np.abs(zeros)
    return (int(np.count_nonzero(mods < 1.0 - boundary)),
            int(np.count_nonzero(np.abs(mods - 1.0) <= boundary)))


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
