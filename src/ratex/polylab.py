"""Real Laurent polynomial matrices with exact degree bookkeeping.

A LaurentMatrix stores an n x m matrix whose entries are real Laurent
polynomials, as one dense coefficient matrix per lag.  Everything else in
the package (factorization, solution operators, identification systems)
computes on this substrate.

Evaluation is batched (:meth:`LaurentMatrix.value` takes an array of
points).  The kernels below the class take coefficient stacks with a
leading sample axis S, so one call serves S polynomials at once: the dust
rule of :func:`trim_dust`, the long division of :func:`series_divide` and
the companion pencils of :func:`companion_stack`.  The LaurentMatrix
functions here call the first and the last at S = 1.

Polynomial zeros have one source: the block-companion pencils of
:func:`companion_stack`, whose generalized eigenvalues are the zeros of
det(z**max(0, -min_lag) * a(z)) and infinity.  The factorization splits
them at the unit circle with numpy alone
(:func:`~ratex.wienerhopf.wh_factorize_stack`), and infinite eigenvalues
are split off (:func:`_deflate_infinite`) only to list the finite zeros.
:func:`lp_det_and_zeros`, which no command calls, is the oracle tests
check that list against: scipy's QZ of :func:`companion_pencil`.  The
determinant coefficients themselves are never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lapack

# Relative threshold below which a coefficient matrix counts as zero when
# trimming lag ranges.  The floor at 1 keeps all-tiny matrices intact.
TRIM_RTOL = 1e-12

# Rank decisions on a companion pencil scaled to unit size: singular values
# of E below PENCIL_INFINITE_RTOL span infinite eigenvalues (dropping any
# genuine zero beyond about 1e8 with them); one of W'A below
# PENCIL_SINGULAR_RTOL marks a singular pencil, det(z E - A) identically 0.
PENCIL_INFINITE_RTOL = np.sqrt(np.finfo(float).eps)
PENCIL_SINGULAR_RTOL = 1e-10


class ShapeMismatchError(ValueError):
    """Operands have incompatible matrix dimensions."""


class SingularMatrixError(ValueError):
    """A matrix is numerically singular, or a solution is not all finite (resolve.NOT_FINITE)."""


@dataclass(frozen=True)
class LaurentMatrix:
    """Matrix of real Laurent polynomials, one coefficient matrix per lag.

    ``coeffs[k]`` is the n x m real matrix multiplying ``z**(min_lag + k)``.
    Instances are immutable; construct through :meth:`from_coeffs`.
    """

    coeffs: np.ndarray  # shape (n_lags, rows, cols), read-only
    min_lag: int

    def __post_init__(self):
        c = self.coeffs
        if c.ndim != 3 or c.shape[0] < 1:
            raise ValueError("coeffs must be a (n_lags, rows, cols) array with n_lags >= 1")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False

    @classmethod
    def trusted(cls, coeffs: np.ndarray, min_lag: int) -> "LaurentMatrix":
        """Wrap a (n_lags, rows, cols) float array known to be finite, such as
        one derived from checked coefficients by the dust rule, without
        checking it again.  The array is made read-only, not copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "min_lag", min_lag)
        coeffs.flags.writeable = False
        return self

    @classmethod
    def from_trimmed(cls, coeffs: np.ndarray) -> "LaurentMatrix":
        """Wrap coefficients (n_lags, rows, cols) at lags 0.. that already
        passed the dust rule (:func:`trim_dust`'s output, finite by
        construction) with their zero leading and trailing lags dropped, as
        :meth:`from_coeffs` would give them, without checking or trimming
        them again."""
        lags = coeffs.any(axis=(1, 2)).nonzero()[0]
        if not lags.size:
            return cls.zero(*coeffs.shape[1:])
        return cls.trusted(coeffs[lags[0]:lags[-1] + 1], int(lags[0]))

    @classmethod
    def from_coeffs(cls, coeffs, min_lag: int = 0, trim: bool = True) -> "LaurentMatrix":
        """Build from a sequence of equally shaped coefficient matrices."""
        if isinstance(coeffs, np.ndarray) and coeffs.ndim == 3:
            arr = np.array(coeffs, dtype=float)
        else:
            arr = np.array([np.atleast_2d(np.asarray(c, dtype=float)) for c in coeffs],
                           dtype=float)
        if arr.ndim != 3:
            raise ValueError("coefficient matrices must all have the same shape")
        # checked before trimming: a non-finite scale would make every lag dust
        out = cls(arr, int(min_lag))
        return out.trimmed() if trim else out

    @classmethod
    def zero(cls, rows: int, cols: int) -> "LaurentMatrix":
        return cls(np.zeros((1, rows, cols)), 0)

    # -- basic queries ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.coeffs.shape[1]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[2]

    @property
    def max_lag(self) -> int:
        return self.min_lag + self.coeffs.shape[0] - 1

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def coefficient(self, lag: int) -> np.ndarray:
        """Coefficient matrix at ``lag`` (zeros outside the stored range)."""
        if self.min_lag <= lag <= self.max_lag:
            return np.array(self.coeffs[lag - self.min_lag])
        return np.zeros((self.rows, self.cols))

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficient matrices at lags lo..hi, (hi - lo + 1, rows, cols),
        zero outside the stored range."""
        out = np.zeros((hi - lo + 1, self.rows, self.cols))
        first, last = max(lo, self.min_lag), min(hi, self.max_lag)
        if first <= last:
            out[first - lo:last - lo + 1] = self.coeffs[first - self.min_lag:last - self.min_lag + 1]
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def value(self, z) -> np.ndarray:
        """Evaluate at a complex point, or batched at an array of points
        (shape ``z.shape + (rows, cols)``) by one product of the power table
        z**lag with the coefficients.  ZeroDivisionError at 0 if min_lag < 0."""
        z = np.asarray(z, dtype=complex)
        if self.min_lag < 0 and np.any(z == 0):
            raise ZeroDivisionError("negative lags cannot be evaluated at z=0")
        L = self.coeffs.shape[0]
        powers = z[..., None] ** np.arange(self.min_lag, self.max_lag + 1)
        # np.tensordot(powers, coeffs, axes=1), without its axis bookkeeping
        return np.dot(powers.reshape(-1, L), self.coeffs.reshape(L, -1)).reshape(
            z.shape + self.coeffs.shape[1:])

    def right_multiplied(self, v: np.ndarray) -> "LaurentMatrix":
        """Apply a constant matrix on the right (each coefficient @ v)."""
        return LaurentMatrix.from_coeffs(self.coeffs @ v, self.min_lag)

    def trimmed(self) -> "LaurentMatrix":
        """Dust rule applied and all-dust end lags dropped; a result of this
        (or of :meth:`from_coeffs`) is its own trimmed form."""
        if self.__dict__.get("_is_trimmed"):
            return self
        out = LaurentMatrix.trusted(*_trim(self.coeffs, self.min_lag))
        object.__setattr__(out, "_is_trimmed", True)
        return out


def trim_dust(arr: np.ndarray) -> np.ndarray:
    """The dust rule on each sample of a (S, n_lags, rows, cols) stack.

    Entries at or below TRIM_RTOL * max(max |coefficient|, 1) of their own
    sample are set to zero (all of a sample with a non-finite entry).
    Returns the zeroed copy.
    """
    mag = np.abs(arr)
    thresh = TRIM_RTOL * mag.max(axis=(1, 2, 3), keepdims=True, initial=1.0)
    return np.where(mag > thresh, arr, 0.0)


def _trim(arr: np.ndarray, min_lag: int):
    """The dust rule on a (n_lags, rows, cols) array, and its leading and
    trailing all-dust lags dropped: a new array and its min lag."""
    out = trim_dust(arr[None])[0]
    lags = out.any(axis=(1, 2)).nonzero()[0]
    if not lags.size:
        return np.zeros((1,) + arr.shape[1:]), 0
    return out[lags[0]: lags[-1] + 1], min_lag + int(lags[0])


# -- arithmetic -----------------------------------------------------------


def lp_mul(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Cauchy product of the coefficient sequences."""
    if a.cols != b.rows:
        raise ShapeMismatchError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    na, nb = a.coeffs.shape[0], b.coeffs.shape[0]
    out = np.zeros((na + nb - 1, a.rows, b.cols))
    for i in range(na):
        out[i:i + nb] += a.coeffs[i] @ b.coeffs
    return LaurentMatrix.from_coeffs(out, a.min_lag + b.min_lag)


def companion_pencil(a: LaurentMatrix):
    """Finite part (A, E, V) of the companion pencil of P(z) = z**max(0, -min_lag) a(z).

    P, scaled by a power of two to unit size and taken as degree
    d = max(0, -min_lag) + max(0, max_lag) >= 1, gives A = [[0, I, ..], ..,
    [-P_0 .. -P_{d-1}]] and E = diag(I, .., I, P_d), det(z E - A) a constant
    multiple of det P(z).  The infinite eigenvalues of a singular P_d are
    split off (:func:`_deflate_infinite`), so the generalized eigenvalues of
    the returned (A, E) are exactly the zeros of det P, a positive min_lag
    giving exact ones at the origin.  V maps a right deflating subspace of
    (A, E) to one of the full pencil, where one of n*k eigenvalues with an
    invertible top block yields the monic degree-k right divisor of P
    carrying them.  Raises SingularMatrixError when det P is identically 0.
    """
    if a.rows != a.cols:
        raise ShapeMismatchError("determinant requires a square matrix")
    s = max(0, -a.min_lag)
    d = max(s + max(a.max_lag, 0), 1)
    A, E = companion_stack(a.window(-s, d - s)[None])
    return _deflate_infinite(A[0], E[0])


def companion_stack(P: np.ndarray):
    """Block-companion pencils (A, E), each (S, n*d, n*d), of a stack of
    polynomials P_0 + P_1 z + .. + P_d z**d given as (S, d + 1, n, n), d >= 1.

    Each polynomial is scaled by a power of two to unit size; A = [[0, I, ..],
    .., [-P_0 .. -P_{d-1}]] and E = diag(I, .., I, P_d), before any infinite
    eigenvalue is split off.
    """
    S, d, n = P.shape[0], P.shape[1] - 1, P.shape[2]
    e = np.frexp(np.abs(P).max(axis=(1, 2, 3)))[1]
    P = np.ldexp(P, -e[:, None, None, None])
    N = n * d
    A, E = np.zeros((S, N, N)), np.zeros((S, N, N))
    A.reshape(S, N * N)[:, n:(N - n) * (N + 1):N + 1] = 1.0     # A[i, i + n] = 1
    E.reshape(S, N * N)[:, ::N + 1] = 1.0                       # E[i, i] = 1
    A[:, N - n:, :] = -P[:, :d].transpose(0, 2, 1, 3).reshape(S, n, N)
    E[:, N - n:, N - n:] = P[:, d]
    return A, E


def _deflate_infinite(A: np.ndarray, E: np.ndarray):
    """Split the infinite eigenvalues off a regular pencil (A, E).

    With W the left null space of E and V1 the null space of W'A (full row
    rank unless the pencil is singular), (z E - A) V1 = U1 (z E11 - A11) for
    orthonormal U1 orthogonal to W; the rest holds infinite eigenvalues only.
    Repeating until E11 is nonsingular removes whole Jordan chains at
    infinity, which a QZ of the full pencil would perturb by eps**(1/k) into
    huge spurious zeros.  Returns the last (A11, E11) and the product V of
    the V1s.
    """
    V = np.eye(A.shape[0])
    while A.size:
        u, s, _ = lapack.svd(E)
        r = int(np.sum(s > PENCIL_INFINITE_RTOL))
        if r == A.shape[0]:
            break
        _, t, h = lapack.svd(u[:, r:].T @ A)
        if t[-1] <= PENCIL_SINGULAR_RTOL:
            raise SingularMatrixError("determinant is identically zero")
        u1, v1 = u[:, :r], h[A.shape[0] - r:].T
        A, E, V = u1.T @ A @ v1, u1.T @ E @ v1, V @ v1
    return A, E, V


def lp_det_and_zeros(a: LaurentMatrix) -> np.ndarray:
    """Complex zeros of det(z**max(0, -min_lag) * a(z)).

    A negative min_lag -lam is cleared by z**lam, as in det(z**lam B(z)).
    A positive min_lag is kept: the polynomial is det(a) itself, whose
    n * min_lag zeros at the origin are among the returned zeros and count
    as inside the unit circle.  The zeros are the generalized eigenvalues
    of the finite part of :func:`companion_pencil`; infinite eigenvalues
    are excluded.  Raises SingularMatrixError when the determinant is
    identically zero.

    An oracle for tests: no command reaches it, so scipy, which it needs
    for the QZ eigenvalues of the pencil, is imported here alone.  It
    stays in the package because the benchmark's span tracer
    (bench/spans.py) wraps it by name.
    """
    from scipy.linalg import eig

    A, E, _ = companion_pencil(a)
    return eig(A, E, right=False, check_finite=False).astype(complex)


def series_divide(g: np.ndarray, rhs: np.ndarray, horizon: int,
                  prefix: np.ndarray | None = None) -> np.ndarray:
    """The one long-division kernel, over a leading sample axis.

    g (S, Lg, n, n) and rhs (S, Lr, n, c) hold lags 0.. of polynomials in z;
    returns the (S, horizon + 1, n, c) coefficients of g^-1 rhs from
    out_j = g_0^-1 (rhs_j - sum_{i>=1} g_i out_{j-i}).  A prefix (S, p, n,
    c), the first p coefficients from an earlier call, is extended rather
    than recomputed, with the same result.  A sample whose g_0 is singular
    gets NaN coefficients; the others are those of that sample alone.
    """
    g0_inv = lapack.inv_or_nan(g[:, 0])
    out = np.zeros((g.shape[0], horizon + 1, g.shape[2], rhs.shape[3]))
    start = 0
    if prefix is not None:
        start = prefix.shape[1]
        out[:, :start] = prefix
    lags = list(out.swapaxes(0, 1))                         # out[:, j] views
    gs = list(g.swapaxes(0, 1)[1:])                         # g[:, i], i >= 1
    for j in range(start, horizon + 1):
        acc = rhs[:, j] if j < rhs.shape[1] else lags[j]    # still zero
        for i, gi in enumerate(gs[:j], 1):
            acc = acc - gi @ lags[j - i]
        np.matmul(g0_inv, acc, out=lags[j])
    return out


# -- the model type -------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """Validated structural pair (B, A) with declared lag bounds.

    B is n x n over lags -lam..kappa, A is n x m over lags 0..kappa.  The
    declared bounds may exceed the trimmed degrees; they fix the ambient
    coefficient space used by the identification machinery.
    """

    B: LaurentMatrix
    A: LaurentMatrix
    lam: int = field(default=-1)
    kappa: int = field(default=-1)

    def __post_init__(self):
        B, A = self.B, self.A
        if B.rows != B.cols:
            raise ShapeMismatchError("B must be square")
        if A.rows != B.rows:
            raise ShapeMismatchError("A must have the same number of rows as B")
        if B.rows < 1 or A.cols < 1:
            raise ValueError("model dimensions must be at least 1")
        if A.min_lag < 0 and not A.is_zero:
            raise ValueError("A must be a plain polynomial matrix (no negative lags)")
        lam = self.lam if self.lam >= 0 else max(0, -B.min_lag)
        kappa = self.kappa if self.kappa >= 0 else max(0, B.max_lag, A.max_lag)
        if B.min_lag < -lam or B.max_lag > kappa:
            raise ValueError(f"B lags {B.min_lag}..{B.max_lag} exceed declared bounds -{lam}..{kappa}")
        if A.max_lag > kappa:
            raise ValueError(f"A max lag {A.max_lag} exceeds declared kappa={kappa}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "kappa", kappa)

    @property
    def n(self) -> int:
        return self.B.rows

    @property
    def m(self) -> int:
        return self.A.cols
