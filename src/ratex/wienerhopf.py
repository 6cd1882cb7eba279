"""Wiener-Hopf factorization B = B_minus * B_plus with unit normalization.

B_minus is a polynomial in 1/z equal to the identity at infinity and
invertible outside the open unit disk; B_plus is a polynomial in z
invertible on the closed unit disk.  Existence of this factorization (with
zero partial indices) is exactly the existence/uniqueness condition for a
stationary solution, so failure modes are reported as typed errors that
downstream diagnostics can turn into verdicts.

Algorithm: form P(z) = z**lam * B(z), transpose so the sought monic
degree-lam factor becomes a right divisor, linearize as a block companion
pencil, split its spectrum at the unit circle with one ordered generalized
Schur decomposition (whose eigenvalues are also the zeros counted for the
verdict), and reconstruct the divisor from the deflating subspace.  B_plus
then falls out of the long division B_minus**-1 * B with exact degree cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import ordqz

from .polylab import (
    PENCIL_INFINITE_RTOL,
    LaurentMatrix,
    SingularMatrixError,
    companion_pencil,
    companion_stack,
    series_divide,
    trim_dust,
)


class FactorizationError(Exception):
    """The required factorization does not exist (or is numerically unresolvable).

    ``zeros`` holds the zeros of det(z**lam B(z)) when they were computed
    before the failure (empty otherwise), so verdicts can report them.
    """

    def __init__(self, message: str, zeros=()):
        super().__init__(message)
        self.zeros = np.asarray(zeros, dtype=complex)


class ZerosOnUnitCircle(FactorizationError):
    """det(z**lam B(z)) vanishes within the boundary tolerance of |z| = 1."""


class WrongStableCount(FactorizationError):
    """The number of zeros inside the unit circle differs from n * lam."""


class DivisorExtractionSingular(FactorizationError):
    """The deflating-subspace block is numerically singular (nonzero partial indices)."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances for factorization and its certificates."""

    boundary: float = 1e-9          # relative band around |z| = 1 treated as on-circle
    reconstruction: float = 1e-8    # relative bound on max-abs(B - B_minus B_plus)
    extraction_rcond: float = 1e-10  # condition floor for the subspace block


DEFAULT_TOL = ToleranceConfig()

_SINGULAR_BLOCK = ("deflating-subspace block is numerically singular; "
                   "no monic stable divisor of the required degree exists")


@dataclass(frozen=True)
class WHFactors:
    """Factors of B = B_minus * B_plus, the reconstruction certificate and the
    zeros of det(z**lam B(z)) the factorization was decided on."""

    b_minus: LaurentMatrix
    b_plus: LaurentMatrix
    residual: float
    scale: float = 1.0
    zeros: np.ndarray = field(default_factory=lambda: np.array([], dtype=complex))

    def __post_init__(self):
        n = self.b_minus.rows
        if not np.array_equal(self.b_minus.coefficient(0), np.eye(n)):
            raise ValueError("b_minus must equal the identity at lag 0")


@dataclass(frozen=True)
class EUDiagnostic:
    """Zero locations and counts backing an existence/uniqueness verdict."""

    holds: bool
    reason: str
    zeros: np.ndarray = field(default_factory=lambda: np.array([], dtype=complex))
    stable_count: int = 0
    expected_stable: int = 0
    boundary_count: int = 0


def _classify_zeros(zeros: np.ndarray, boundary: float):
    mods = np.abs(zeros)
    on_band = np.abs(mods - 1.0) <= boundary
    stable = mods < 1.0 - boundary
    return int(np.sum(stable)), int(np.sum(on_band))


def wh_factorize(B: LaurentMatrix, tol: ToleranceConfig | None = None) -> WHFactors:
    """Factor B = B_minus * B_plus or raise a typed FactorizationError.

    Parameters
    ----------
    B : LaurentMatrix
        Square n x n Laurent polynomial matrix; lam is read off as
        max(0, -min_lag) after trimming.
    tol : ToleranceConfig, optional
        Boundary band, reconstruction bound and extraction conditioning.

    The zeros counted are those of det(z**lam B(z)): the generalized
    eigenvalues of the finite part of the companion pencil (see
    :func:`~ratex.polylab.companion_pencil`), infinite ones split off.
    Exactly n * lam of them must lie inside the unit circle.  A positive
    min_lag leaves lam = 0 and contributes n * min_lag zeros at the origin,
    which count as inside, so B = z**k B_plus with k > 0 raises
    WrongStableCount.  One ordered QZ both counts the zeros and yields
    B_minus; the zeros are returned on the factors or the error.  This is
    the pencil path of :func:`wh_factorize_stack`.

    Raises
    ------
    ZerosOnUnitCircle, WrongStableCount, DivisorExtractionSingular
        The three ways the existence/uniqueness condition fails; an
        identically zero det(B) is reported as ZerosOnUnitCircle.
    """
    tol = tol or DEFAULT_TOL
    if B.rows != B.cols:
        raise ValueError("B must be square")
    B = B.trimmed()
    n = B.rows
    lam = max(0, -B.min_lag)
    scale = max(B.max_abs(), 1.0)

    # The transpose has the same determinant, and B_minus' is a right
    # divisor of (z^lam B)'.
    try:
        A, E, V = companion_pencil(LaurentMatrix(B.coeffs.transpose(0, 2, 1), B.min_lag))
    except SingularMatrixError as exc:
        raise ZerosOnUnitCircle(
            "det(B) is identically zero; B(z) is nowhere invertible") from exc
    AA, EE, Z, zeros = _ordered_qz(A, E, n, lam, tol)
    if lam == 0:
        return WHFactors(LaurentMatrix.identity(n), B, residual=0.0, scale=scale, zeros=zeros)

    b_minus, ok = _stable_monic_divisor(AA[None], EE[None], (V @ Z)[None], n, lam, tol)
    if not ok[0]:
        raise DivisorExtractionSingular(_SINGULAR_BLOCK, zeros)
    Bc = np.array([B.coefficient(lag) for lag in range(-lam, max(B.max_lag, 0) + 1)])
    b_plus, residual = _plus_factor(b_minus, Bc[None])
    if residual[0] > tol.reconstruction * scale:
        raise _reconstruction_error(residual[0], tol, zeros)
    return WHFactors(LaurentMatrix.from_coeffs(b_minus[0], -lam, trim=False),
                     LaurentMatrix.from_coeffs(b_plus[0], 0),
                     residual=float(residual[0]), scale=scale, zeros=zeros)


def wh_factorize_stack(Bc: np.ndarray, lam: int, tol: ToleranceConfig | None = None):
    """:func:`wh_factorize` for a stack of B, (S, lam+kappa+1, n, n) at lags
    -lam..kappa, already dust trimmed (:func:`~ratex.polylab.trim_dust`).

    Samples whose B fills the lag window and whose companion lead passes the
    first rank decision of the infinite-eigenvalue split get their zero
    counts from one stacked eigenvalue screen (:func:`_screen_counts`);
    for lam > 0 the ordered QZ then runs on each of them alone, and the
    divisor, B_plus and the reconstruction check run stacked.  Every other
    sample, and every sample with a screened zero within the screen's error
    bound of a band edge, takes the pencil path, :func:`wh_factorize`.

    Returns B_minus (S, lam+1, n, n) at lags -lam..0, B_plus (S, kappa+1,
    n, n) at lags 0..kappa, and per sample the FactorizationError or
    SingularMatrixError that rejected it (None where it factored).
    """
    tol = tol or DEFAULT_TOL
    S, q, n = Bc.shape[:3]
    kappa = q - 1 - lam
    b_minus = np.zeros((S, lam + 1, n, n))
    b_minus[:, lam] = np.eye(n)
    b_plus = np.zeros((S, kappa + 1, n, n))
    errors = [None] * S
    lags = Bc.any(axis=(2, 3))
    pencil = ~(lags[:, 0] & lags[:, -1]) if q > 1 else np.ones(S, dtype=bool)
    screen = np.flatnonzero(~pencil)
    qz = []
    if screen.size:
        A, E = companion_stack(Bc[screen].swapaxes(2, 3))
        stable, on_band, zeros, decided = _screen_counts(A, E, tol.boundary)
        pencil[screen[~decided]] = True
        screen, A, E, stable, on_band, zeros = (
            a[decided] for a in (screen, A, E, stable, on_band, zeros))
    for k, s in enumerate(screen):
        try:
            _check_counts(stable[k], on_band[k], n, lam, tol, zeros[k])
            if lam:
                qz.append((s,) + _ordered_qz(A[k], E[k], n, lam, tol)[:3])
        except FactorizationError as exc:
            errors[s] = exc
            continue
        if not lam:
            b_plus[s] = Bc[s]
    if qz:
        lanes = np.array([t[0] for t in qz])
        AA, EE, Z = (np.array([t[i] for t in qz]) for i in (1, 2, 3))
        bm, ok = _stable_monic_divisor(AA, EE, Z, n, lam, tol)
        bp, residual = _plus_factor(bm, Bc[lanes])
        scale = np.maximum(np.abs(Bc[lanes]).max(axis=(1, 2, 3)), 1.0)
        for k, s in enumerate(lanes):
            if not ok[k]:
                errors[s] = DivisorExtractionSingular(_SINGULAR_BLOCK)
            elif residual[k] > tol.reconstruction * scale[k]:
                errors[s] = _reconstruction_error(residual[k], tol, ())
            else:
                b_minus[s], b_plus[s] = bm[k], bp[k]
    for s in np.flatnonzero(pencil):
        try:
            fac = wh_factorize(LaurentMatrix(Bc[s], -lam), tol)
        except (FactorizationError, SingularMatrixError) as exc:
            errors[s] = exc
            continue
        b_minus[s, lam + fac.b_minus.min_lag:] = fac.b_minus.coeffs
        b_plus[s] = [fac.b_plus.coefficient(k) for k in range(kappa + 1)]
    return b_minus, b_plus, errors


def _screen_counts(A: np.ndarray, E: np.ndarray, boundary: float):
    """Zero counts of a stack of regular pencils det(z E - A) (S, N, N)
    from the stacked eigenvalues of E^-1 A.

    A sample is decided when E passes :func:`~ratex.polylab._deflate_infinite`'s
    first rank decision (nothing to split off) and no eigenvalue modulus lies
    within its error bound of a band edge 1 -/+ boundary.  The bound is the
    first-order one: condition number kappa_i of the eigenvalue (from the
    eigenvectors) times N eps times the backward errors of the solve and the
    eigenvalue routine on E^-1 A, plus that of the QZ on (A, E) that the
    pencil path would use.  Returns (stable, on_band, zeros, decided).
    """
    S, N = A.shape[:2]
    stable = np.zeros(S, dtype=int)
    on_band = np.zeros(S, dtype=int)
    zeros = np.zeros((S, N), dtype=complex)
    if not S:
        return stable, on_band, zeros, np.zeros(0, dtype=bool)
    s_E = np.linalg.svd(E)[1]          # the call _deflate_infinite decides on
    decided = np.sum(s_E > PENCIL_INFINITE_RTOL, axis=1) == N
    idx = np.flatnonzero(decided)
    if not idx.size:
        return stable, on_band, zeros, decided
    A, s_E = A[idx], s_E[idx]
    M = np.linalg.solve(E[idx], A)
    w, X = np.linalg.eig(M)
    Y = _inv_or_nan(X)
    cond_w = np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=2)
    smax, smin = s_E[:, :1], s_E[:, -1:]
    mods = np.abs(w)
    with np.errstate(invalid="ignore", over="ignore"):
        bound = N * np.finfo(float).eps * cond_w * (
            (smax / smin + 1.0) * np.linalg.norm(M, axis=(1, 2))[:, None]
            + (np.linalg.norm(A, axis=(1, 2))[:, None] + mods * smax) / smin)
        near = ~(bound < np.minimum(np.abs(mods - (1.0 - boundary)),
                                    np.abs(mods - (1.0 + boundary))))
    decided[idx] = ~near.any(axis=1)
    stable[idx] = np.sum(mods < 1.0 - boundary, axis=1)
    on_band[idx] = np.sum(np.abs(mods - 1.0) <= boundary, axis=1)
    zeros[idx] = w
    return stable, on_band, zeros, decided


def _inv_or_nan(X: np.ndarray) -> np.ndarray:
    """Stacked inverse; a singular matrix's inverse is NaN."""
    try:
        return np.linalg.inv(X)
    except np.linalg.LinAlgError:
        out = np.full_like(X, np.nan)
        for s, x in enumerate(X):
            try:
                out[s] = np.linalg.inv(x)
            except np.linalg.LinAlgError:
                pass
        return out


def _check_counts(stable: int, on_band: int, n: int, lam: int, tol: ToleranceConfig, zeros):
    """The existence/uniqueness verdict on the zero counts of det(z^lam B(z))."""
    if on_band:
        raise ZerosOnUnitCircle(
            f"{on_band} zero(s) of det(z^{lam} B(z)) within {tol.boundary:g} "
            "of the unit circle", zeros)
    if stable != n * lam:
        raise WrongStableCount(
            f"found {stable} zero(s) inside the unit circle, need exactly {n * lam}", zeros)


def _ordered_qz(A: np.ndarray, E: np.ndarray, n: int, lam: int, tol: ToleranceConfig):
    """Ordered QZ of the finite pencil (A, E), stable eigenvalues leading.

    Returns (AA, EE, Z, zeros); raises ZerosOnUnitCircle or WrongStableCount
    from the counts, before any reordering."""
    zeros = np.array([], dtype=complex)

    def stable_first(alpha, beta):
        # ordqz calls this once with the eigenvalues of the unordered QZ,
        # before reordering, so a failed count never reaches the reorder
        nonlocal zeros
        zeros = alpha / beta
        _check_counts(*_classify_zeros(zeros, tol.boundary), n, lam, tol, zeros)
        return np.abs(zeros) < 1.0 - tol.boundary

    if not A.size:  # det(z^lam B) is constant
        stable_first(zeros, np.ones(0))
        return None, None, None, zeros
    AA, EE, _, _, _, Z = ordqz(A, E, sort=stable_first, check_finite=False)
    return AA, EE, Z, zeros


def _reconstruction_error(residual, tol: ToleranceConfig, zeros):
    return DivisorExtractionSingular(
        f"reconstruction residual {residual:.3e} exceeds {tol.reconstruction:g} * scale", zeros)


def _plus_factor(b_minus: np.ndarray, Bc: np.ndarray):
    """B_plus = [B_minus^-1 B]_+ (exact) and the reconstruction residual
    max |B_minus B_plus - B| for a stack: b_minus (S, lam+1, n, n) at lags
    -lam..0, B (S, lam+kappa+1, n, n) at lags -lam..kappa.  B_plus and the
    product are dust trimmed, as LaurentMatrix results are."""
    lam = b_minus.shape[1] - 1
    b_plus = trim_dust(bminus_inv_plus(b_minus, Bc[:, lam:]))[0]
    recon = np.zeros(Bc.shape)
    for i in range(lam + 1):
        recon[:, i:i + b_plus.shape[1]] += b_minus[:, i, None] @ b_plus
    recon = trim_dust(recon)[0]
    return b_plus, np.abs(recon - Bc).max(axis=(1, 2, 3))


def plus_part_of_bminus_inv_a(b_minus: LaurentMatrix, A: LaurentMatrix) -> LaurentMatrix:
    """Nonnegative-lag part of B_minus^-1 A (see :func:`bminus_inv_plus`)."""
    if A.is_zero:
        return LaurentMatrix.zero(b_minus.rows, A.cols)
    if b_minus.trimmed().max_lag > 0:
        raise ValueError("B_minus must be a polynomial in 1/z")
    bm = np.array([b_minus.coefficient(lag) for lag in range(min(b_minus.min_lag, 0), 1)])
    a = np.array([A.coefficient(k) for k in range(A.max_lag + 1)])
    return LaurentMatrix.from_coeffs(bminus_inv_plus(bm[None], a[None])[0], 0)


def bminus_inv_plus(b_minus: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Nonnegative-lag part of B_minus^-1 A for a stack: b_minus (S, lam+1,
    n, n) at lags -lam..0, A (S, L, n, c) at lags 0..L-1.

    The lag-k coefficient is a finite sum of inverse-series coefficients of
    B_minus (in powers of 1/z, after the dust rule) against A_{k..L-1}, so
    no truncation is involved.  Returns (S, L, n, c), not trimmed.
    """
    L = A.shape[1]
    n = b_minus.shape[2]
    f = series_divide(trim_dust(b_minus)[0][:, ::-1], np.eye(n)[None, None], L - 1)
    out = np.empty(A.shape)
    for k in range(L):
        acc = f[:, 0] @ A[:, k]
        for i in range(1, L - k):
            acc = acc + f[:, i] @ A[:, k + i]
        out[:, k] = acc
    return out


def _stable_monic_divisor(AA, EE, Z, n: int, lam: int, tol: ToleranceConfig):
    """B_minus = I + sum F_i z^-i for a stack of ordered QZs.

    Takes the ordered QZ (AA, EE) of the finite part of the companion
    pencil of the transposed polynomial Q(z) = (z^lam B(z))', with the n*lam
    generalized eigenvalues inside the unit circle leading, and its right
    Schur vectors Z mapped back to the full pencil, each stacked (S, ., .).
    The monic right divisor of Q of degree lam carrying them is read off
    that deflating subspace.  Returns the (S, lam+1, n, n) coefficients of
    B_minus at lags -lam..0 and the mask of samples whose subspace block is
    nonsingular (the others hold no divisor).
    """
    S, k = Z.shape[0], n * lam
    Z1 = Z[:, :, :k]
    U = Z1[:, :k, :]
    svals = np.linalg.svd(U, compute_uv=False)
    ok = svals[:, -1] > tol.extraction_rcond * np.maximum(svals[:, 0], 1.0)
    out = np.zeros((S, lam + 1, n, n))
    out[:, lam] = np.eye(n)
    if Z.shape[1] > k:
        v_next = Z1[ok, k:k + n, :]
    else:
        # degree-lam polynomial: advance the last block one step via the
        # restricted pencil map W = S_E^-1 S_A
        W = np.linalg.solve(EE[ok, :k, :k], AA[ok, :k, :k])
        v_next = Z1[ok, k - n:k, :] @ W
    L = -v_next @ np.linalg.inv(U[ok])  # [L_0 ... L_{lam-1}] of the monic divisor
    out[ok, :lam] = L.reshape(-1, n, lam, n).transpose(0, 2, 3, 1)
    return out, ok


def check_eu(B: LaurentMatrix, tol: ToleranceConfig | None = None):
    """Existence/uniqueness verdict plus zero diagnostics.

    Returns ``(holds, EUDiagnostic)``; never raises for factorization
    failures, which are folded into the verdict.  The zeros are those of
    det(z**lam B(z)) that :func:`wh_factorize` decided on (finite pencil
    eigenvalues only); they are empty when det(B) is identically zero.
    """
    tol = tol or DEFAULT_TOL
    Bt = B.trimmed()
    try:
        zeros, reason = wh_factorize(Bt, tol).zeros, ""
    except FactorizationError as exc:
        zeros, reason = exc.zeros, str(exc)
    stable, on_band = _classify_zeros(zeros, tol.boundary)
    holds = not reason
    return holds, EUDiagnostic(holds, reason, zeros=zeros, stable_count=stable,
                               expected_stable=Bt.rows * max(0, -Bt.min_lag),
                               boundary_count=on_band)
