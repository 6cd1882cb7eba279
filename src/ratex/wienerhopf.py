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

One flow serves one model and a stack of them: :func:`wh_factorize` is
:func:`wh_factorize_stack` at one sample.  The stack builds all pencils at
once and decides from one stacked SVD of their leads which ones carry
infinite eigenvalues to split off.  Each sample's zeros are then counted
once, by the QZ of its own pencil, which for lam > 0 is reordered to yield
B_minus.  Only for lam = 0, where the counts are all that is needed, and
only on a stack large enough to repay its fixed cost (SCREEN_MIN_SAMPLES),
does a stacked eigenvalue screen replace the QZs of the samples it can
decide.  The divisors, B_plus and the reconstruction check run stacked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.linalg.lapack import dgges, dtgsen

from .polylab import (
    PENCIL_INFINITE_RTOL,
    LaurentMatrix,
    SingularMatrixError,
    _deflate_infinite,
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
    """Numerical tolerance of the existence/uniqueness verdict."""

    boundary: float = 1e-9          # relative band around |z| = 1 treated as on-circle


DEFAULT_TOL = ToleranceConfig()

# relative bound on max-abs(B - B_minus B_plus), and the condition floor of
# the deflating-subspace block the divisor is read from
RECONSTRUCTION_RTOL = 1e-8
EXTRACTION_RCOND = 1e-10

# Fewest lam = 0 pencils for which the stacked eigenvalue screen counts
# zeros faster than one QZ each.  The screen costs about 130 us at one
# pencil against 30-50 us for a QZ; timed against the QZs of the same
# stack at pencil orders N = 2-8 it breaks even at 8-12 pencils and saves
# 5-40% at 16 (at N = 12 it is level).
SCREEN_MIN_SAMPLES = 16


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


def _classify_zeros(zeros: np.ndarray, boundary: float):
    mods = np.abs(zeros)
    return (int(np.count_nonzero(mods < 1.0 - boundary)),
            int(np.count_nonzero(np.abs(mods - 1.0) <= boundary)))


def wh_factorize(B: LaurentMatrix, tol: ToleranceConfig | None = None) -> WHFactors:
    """Factor B = B_minus * B_plus or raise a typed FactorizationError.

    Parameters
    ----------
    B : LaurentMatrix
        Square n x n Laurent polynomial matrix; lam is read off as
        max(0, -min_lag) after trimming.
    tol : ToleranceConfig, optional
        Boundary band around the unit circle.

    The zeros counted are those of det(z**lam B(z)): the generalized
    eigenvalues of the finite part of the companion pencil, infinite ones
    split off.  Exactly n * lam of them must lie inside the unit circle.  A
    positive min_lag leaves lam = 0 and contributes n * min_lag zeros at
    the origin, which count as inside, so B = z**k B_plus with k > 0 raises
    WrongStableCount.  B is trimmed, taken on its lags -lam..max(max_lag, 0)
    and factored as the one sample of :func:`wh_factorize_stack`; at one
    sample no screen runs, so one QZ both counts the zeros and, for
    lam > 0, yields B_minus.  The zeros are returned on the factors or the
    error.

    Raises
    ------
    ZerosOnUnitCircle, WrongStableCount, DivisorExtractionSingular
        The three ways the existence/uniqueness condition fails; an
        identically zero det(B) is reported as ZerosOnUnitCircle.
    FactorizationError
        The counts pass but the pencil is too ill-conditioned for the
        ordered QZ to split its zeros at the unit circle.
    """
    if B.rows != B.cols:
        raise ValueError("B must be square")
    B = B.trimmed()
    lam = max(0, -B.min_lag)
    b_minus, b_plus, errors, residual, zeros = wh_factorize_stack(
        B.window(-lam, max(B.max_lag, 0))[None], lam, tol)
    if errors[0] is not None:
        raise errors[0]
    return WHFactors(LaurentMatrix(b_minus[0], -lam),
                     LaurentMatrix.from_coeffs(b_plus[0], 0) if lam else B,
                     residual=float(residual[0]), scale=max(B.max_abs(), 1.0), zeros=zeros[0])


def wh_factorize_stack(Bc: np.ndarray, lam: int, tol: ToleranceConfig | None = None):
    """:func:`wh_factorize` for a stack of B, (S, lam+kappa+1, n, n) at lags
    -lam..kappa, already dust trimmed (:func:`~ratex.polylab.trim_dust`).

    Every sample is factored on the declared window.  The companion pencils
    of the transposed (z^lam B)' are built at once (a one-lag window gets a
    zero lag on top), and one stacked SVD of their leads decides which
    samples need their infinite eigenvalues split off
    (:func:`~ratex.polylab._deflate_infinite`), as a zero top lag does.  A
    zero bottom lag adds n zeros at the origin to the count and to the
    required n * lam alike, so the verdict is that of the trimmed B.

    The zeros of each sample are counted once.  For lam = 0 and at least
    SCREEN_MIN_SAMPLES samples with a nonsingular lead, the stacked
    eigenvalue screen (:func:`_screen_counts`) counts those it can decide,
    and their B_plus is B.  Every other sample gets one pencil split: the
    deflation if its lead needs it, the QZ that counts its zeros and, for
    lam > 0, the reordering that puts the stable ones first.  The screen
    runs only there because for lam > 0 the reordered QZ is needed anyway,
    and on fewer pencils the QZs are the cheaper count.  The divisors, B_plus
    and the reconstruction check then run stacked on the leading n * lam
    Schur vectors, so deflated and full pencils share one stack.

    Returns B_minus (S, lam+1, n, n) at lags -lam..0, B_plus (S, kappa+1,
    n, n) at lags 0..kappa, per sample the FactorizationError that rejected
    it (None where it factored), the reconstruction residuals (S,) and per
    sample the zeros it was decided on (None where the error holds them).
    """
    tol = tol or DEFAULT_TOL
    S, q, n = Bc.shape[:3]
    k, kappa = n * lam, q - 1 - lam
    P = Bc.swapaxes(2, 3)           # same determinant; B_minus' divides (z^lam B)'
    if q == 1:
        P = np.concatenate([P, np.zeros_like(P)], axis=1)
    A, E = companion_stack(P)
    s_E = np.linalg.svd(E)[1]       # the call _deflate_infinite decides on
    regular = np.sum(s_E > PENCIL_INFINITE_RTOL, axis=1) == A.shape[1]
    errors, zeros = [None] * S, [None] * S
    split = np.ones(S, dtype=bool)
    screen = np.flatnonzero(regular) if lam == 0 and S >= SCREEN_MIN_SAMPLES else ()
    if len(screen) >= SCREEN_MIN_SAMPLES:
        stable, on_band, w, decided = _screen_counts(A[screen], E[screen], s_E[screen],
                                                     tol.boundary)
        for i in np.flatnonzero(decided):
            s = screen[i]
            split[s], zeros[s] = False, w[i]
            try:
                _check_counts(stable[i], on_band[i], n, lam, tol, w[i])
            except FactorizationError as exc:
                errors[s] = exc
    schur = []
    for s in np.flatnonzero(split):
        try:
            a, e, V = (A[s], E[s], None) if regular[s] else _deflate_infinite(A[s], E[s])
            AA, EE, Z, zeros[s] = _ordered_qz(a, e, n, lam, tol)
        except SingularMatrixError:
            errors[s] = ZerosOnUnitCircle(
                "det(B) is identically zero; B(z) is nowhere invertible")
            continue
        except FactorizationError as exc:
            errors[s] = exc
            continue
        if lam:
            schur.append((s, AA[:k, :k], EE[:k, :k], (Z if V is None else V @ Z)[:, :k]))

    b_minus = np.zeros((S, lam + 1, n, n))
    b_minus[:, lam] = np.eye(n)
    b_plus = np.zeros((S, kappa + 1, n, n))
    residual = np.zeros(S)
    if not lam:
        passed = [s for s in range(S) if errors[s] is None]
        b_plus[passed] = Bc[passed]
    elif schur:
        lanes = np.array([t[0] for t in schur])
        AA, EE, Z = (np.array([t[i] for t in schur]) for i in (1, 2, 3))
        bm, ok = _stable_monic_divisor(AA, EE, Z, n, lam)
        bp, res = _plus_factor(bm, Bc[lanes])
        scale = np.maximum(np.abs(Bc[lanes]).max(axis=(1, 2, 3)), 1.0)
        for i, s in enumerate(lanes):
            if not ok[i]:
                errors[s] = DivisorExtractionSingular(
                    "deflating-subspace block is numerically singular; no monic "
                    "stable divisor of the required degree exists", zeros[s])
            elif res[i] > RECONSTRUCTION_RTOL * scale[i]:
                errors[s] = DivisorExtractionSingular(
                    f"reconstruction residual {res[i]:.3e} exceeds "
                    f"{RECONSTRUCTION_RTOL:g} * scale", zeros[s])
            else:
                b_minus[s], b_plus[s], residual[s] = bm[i], bp[i], res[i]
    return b_minus, b_plus, errors, residual, zeros


def _screen_counts(A: np.ndarray, E: np.ndarray, s_E: np.ndarray, boundary: float):
    """Zero counts of a stack of pencils det(z E - A) (S, N, N) with
    nonsingular leads E of singular values s_E (S, N), from the stacked
    eigenvalues of E^-1 A.

    A sample is decided when no eigenvalue modulus lies within its error
    bound of a band edge 1 -/+ boundary.  The bound is the first-order one:
    condition number kappa_i of the eigenvalue (from the eigenvectors)
    times N eps times the backward errors of the solve and the eigenvalue
    routine on E^-1 A, plus that of the QZ on (A, E) that the pencil split
    would use.  Returns (stable, on_band, zeros, decided).
    """
    N = A.shape[1]
    M = np.linalg.solve(E, A)
    w, X = np.linalg.eig(M)
    try:
        Y = np.linalg.inv(X)
    except np.linalg.LinAlgError:   # an exactly defective sample: decide none
        Y = np.full_like(X, np.nan)
    cond_w = np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=2)
    smax, smin = s_E[:, :1], s_E[:, -1:]
    mods = np.abs(w)
    with np.errstate(invalid="ignore", over="ignore"):
        bound = N * np.finfo(float).eps * cond_w * (
            (smax / smin + 1.0) * np.linalg.norm(M, axis=(1, 2))[:, None]
            + (np.linalg.norm(A, axis=(1, 2))[:, None] + mods * smax) / smin)
        near = ~(bound < np.minimum(np.abs(mods - (1.0 - boundary)),
                                    np.abs(mods - (1.0 + boundary))))
    stable = np.sum(mods < 1.0 - boundary, axis=1)
    on_band = np.sum(np.abs(mods - 1.0) <= boundary, axis=1)
    return stable, on_band, w.astype(complex), ~near.any(axis=1)


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
    """QZ of the finite pencil (A, E) and the verdict on its zero counts;
    for lam > 0 reordered with the stable eigenvalues leading.

    LAPACK's dgges and dtgsen, called with the arguments of
    ``scipy.linalg.ordqz``.  Returns (AA, EE, Z, zeros), unordered for
    lam = 0 (None for an empty pencil); raises ZerosOnUnitCircle or
    WrongStableCount from the counts of the unordered QZ, before any
    reordering, and FactorizationError when the QZ iteration fails or the
    counts pass but the pencil is too ill-conditioned to reorder."""
    zeros = np.array([], dtype=complex)
    if not A.size:  # det(z^lam B) is constant
        _check_counts(0, 0, n, lam, tol, zeros)
        return None, None, None, zeros
    N = len(A)
    AA, EE, _, alphar, alphai, beta, Q, Z, _, info = dgges(
        _no_select, A, E, lwork=_dgges_lwork(N), sort_t=0)
    if info:
        raise FactorizationError(f"QZ iteration failed (LAPACK dgges info {info})")
    zeros = (alphar + alphai * 1j) / beta
    _check_counts(*_classify_zeros(zeros, tol.boundary), n, lam, tol, zeros)
    if not lam:
        return AA, EE, Z, zeros
    stable = np.abs(zeros) < 1.0 - tol.boundary
    AA, EE, *_, Z, _, _, _, _, info = dtgsen(stable, AA, EE, Q, Z, ijob=0,
                                            lwork=4 * N + 16, liwork=1)
    if info:
        raise FactorizationError(
            "ordered QZ failed: Reordering of (A, B) failed because the transformed "
            "matrix pair (A, B) would be too far from generalized Schur form; the "
            "problem is very ill-conditioned. (A, B) may have been partially reordered.",
            zeros)
    return AA, EE, Z, zeros


def _no_select(alphar, alphai, beta):
    """dgges' selection callback; never called, as sort_t=0 asks no sorting."""


@cache
def _dgges_lwork(N: int) -> int:
    """dgges' optimal workspace for order N, from its workspace query."""
    probe = np.zeros((N, N))
    return int(dgges(_no_select, probe, probe, lwork=-1)[-2][0])


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
    bm = b_minus.window(min(b_minus.min_lag, 0), 0)
    a = A.window(0, A.max_lag)
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


def _stable_monic_divisor(AA, EE, Z, n: int, lam: int):
    """B_minus = I + sum F_i z^-i for a stack of ordered QZs.

    Takes the ordered QZ of the finite part of the companion pencil of the
    transposed polynomial Q(z) = (z^lam B(z))', with the k = n*lam
    generalized eigenvalues inside the unit circle leading: the leading
    k x k blocks (AA, EE) and the k leading right Schur vectors Z mapped
    back to the full pencil, (S, N, k).  The monic right divisor of Q of
    degree lam carrying them is read off that deflating subspace.  Returns
    the (S, lam+1, n, n) coefficients of B_minus at lags -lam..0 and the
    mask of samples whose subspace block is nonsingular (the others hold no
    divisor).
    """
    S, N, k = Z.shape
    U = Z[:, :k]
    svals = np.linalg.svd(U, compute_uv=False)
    ok = svals[:, -1] > EXTRACTION_RCOND * np.maximum(svals[:, 0], 1.0)
    out = np.zeros((S, lam + 1, n, n))
    out[:, lam] = np.eye(n)
    if N > k:
        v_next = Z[ok, k:k + n]
    else:
        # degree-lam polynomial: advance the last block one step via the
        # restricted pencil map W = S_E^-1 S_A
        W = np.linalg.solve(EE[ok], AA[ok])
        v_next = Z[ok, k - n:] @ W
    L = -v_next @ np.linalg.inv(U[ok])  # [L_0 ... L_{lam-1}] of the monic divisor
    out[ok, :lam] = L.reshape(-1, n, lam, n).transpose(0, 2, 3, 1)
    return out, ok
