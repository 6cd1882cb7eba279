"""Dense LAPACK calls on float64 and complex128 stacks.

Every SVD, solve, inverse, eigendecomposition, QR and 2-norm that ratex
takes goes through this module.  Each function calls the LAPACK gufunc of
``numpy.linalg._umath_linalg`` that the np.linalg function of the same name
calls, under the same floating-point error state, so its results are
bitwise np.linalg's and a singular or non-converged result raises the same
``np.linalg.LinAlgError``; the two quiet functions, :func:`inv_or_nan` and
:func:`pencil_eigvals`, give a failing sample NaN instead.  What np.linalg
adds around the gufunc per call (array wrapping, dtype resolution and the
``signature=`` argument, a fresh error state) is left out: on the small
matrices here that costs 3-7 us against a kernel of 1-5 us.  The error
states are built once, at import, and set through numpy's own context
variable, private numpy API like the gufuncs themselves; inputs must be
float64 or complex128 arrays (..., rows, cols), as every caller's are.
"""

from __future__ import annotations

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg


def _raising(message: str):
    """np.linalg's error state: a LAPACK failure (the gufunc flags it as an
    invalid value) raises LinAlgError(message); other flags are ignored."""
    def fail(err, flag):
        raise LinAlgError(message)

    return _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore",
                        under="ignore")


_SINGULAR = _raising("Singular matrix")
_SVD = _raising("SVD did not converge")
_EIG = _raising("Eigenvalues did not converge")
_QR = _raising("Incorrect argument found while performing QR factorization")
_QUIET = _make_extobj(all="ignore")


def _call(state, gufunc, *args):
    """gufunc(*args) under the error state ``state``."""
    token = _extobj_contextvar.set(state)
    try:
        return gufunc(*args)
    finally:
        _extobj_contextvar.reset(token)


def svdvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.svd(a, compute_uv=False): singular values, descending."""
    return _call(_SVD, _umath_linalg.svd, a)


def svd(a: np.ndarray):
    """np.linalg.svd(a): (u, s, vh) with square u and vh."""
    return _call(_SVD, _umath_linalg.svd_f, a)


def svd_reduced(a: np.ndarray):
    """np.linalg.svd(a, full_matrices=False): (u, s, vh) with min(rows,
    cols) columns of u and rows of vh."""
    return _call(_SVD, _umath_linalg.svd_s, a)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a stack of matrices b (not vectors)."""
    return _call(_SINGULAR, _umath_linalg.solve, a, b)


def inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv(a)."""
    return _call(_SINGULAR, _umath_linalg.inv, a)


def inv_or_nan(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv(a) without its error: a singular matrix of the stack
    gets NaN, the others their inverses, bitwise np.linalg's."""
    return _call(_QUIET, _umath_linalg.inv, a)


def _finite(a: np.ndarray):
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")


def eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals(a): complex eigenvalues, real ones for a real a
    whose whole spectrum is real; LinAlgError for a non-finite a."""
    _finite(a)
    w = _call(_EIG, _umath_linalg.eigvals, a)
    if a.dtype.kind != "c" and not w.imag.any():
        return w.real
    return w


def eig(a: np.ndarray):
    """np.linalg.eig(a): eigenvalues and right eigenvectors, real arrays
    for a real a whose whole spectrum is real."""
    _finite(a)
    w, v = _call(_EIG, _umath_linalg.eig, a)
    if a.dtype.kind != "c" and not w.imag.any():
        return w.real, v.real
    return w, v


def pencil_eigvals(e: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Complex eigenvalues of e^-1 a for a stack of square pairs, from the
    kernels of ``np.linalg.eigvals(np.linalg.solve(e, a))`` but without
    either's errors: a sample with a singular e gets NaN, the others their
    eigenvalues.  A sample whose solve is not finite never reaches the
    eigenvalue kernel, where LAPACK's error handler would print to file
    descriptor 1."""
    token = _extobj_contextvar.set(_QUIET)
    try:
        x = _umath_linalg.solve(e, a)
        finite = np.isfinite(x).all(axis=(-2, -1))
        if finite.all():
            return _umath_linalg.eigvals(x)
        w = np.full(x.shape[:-1], np.nan, dtype=complex)
        w[finite] = _umath_linalg.eigvals(x[finite])
        return w
    finally:
        _extobj_contextvar.reset(token)


def qr_raw(x: np.ndarray) -> np.ndarray:
    """The Householder QR of each (rows, cols) matrix of a stack, in place,
    as in np.linalg.qr: R in x's upper triangle, the reflectors below it,
    and their scalars returned."""
    return _call(_QR, _umath_linalg.qr_r_raw, x)


def qr_complete(x: np.ndarray):
    """Q (..., rows, rows) and R of the QR of a stack x with rows > cols,
    Q as np.linalg.qr(x, mode="complete") gives it; x is overwritten and
    returned as R, its strict lower part holding the reflectors instead of
    zeros."""
    tau = qr_raw(x)
    return _call(_QR, _umath_linalg.qr_complete, x, tau), x


def norm(x: np.ndarray, axis=None):
    """np.linalg.norm(x, axis=axis) at its default order: the 2-norm of all
    of x (axis None), of its vectors along one axis, or the Frobenius norm
    over a pair of axes."""
    if axis is None:
        x = x.ravel(order="K")
        if x.dtype.kind == "c":
            return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
        return np.sqrt(x.dot(x))
    return np.sqrt(np.add.reduce((x.conj() * x).real if x.dtype.kind == "c" else x * x,
                                 axis=axis))
